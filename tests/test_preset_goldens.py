"""Committed goldens for the extension sweep presets.

``tests/data/preset_<name>.json`` pins every spec of the
``topology-scale``, ``workload-mix`` and ``fault-tolerance`` presets as
canonical JSON: each spec hash maps to the stored record's
``experiment``, ``params``, ``status`` and ``series``.  The test diffs
all three through the in-process loop (``jobs=1``) and one of them
through the work queue (``jobs=2``), byte for byte.  A deliberate
model change re-pins them with::

    PYTHONPATH=src python tests/test_preset_goldens.py --regen
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.experiments import ResultStore, preset_sweep, run_sweep

DATA = Path(__file__).parent / "data"
PRESETS = ("topology-scale", "workload-mix", "fault-tolerance")


def _golden_path(preset):
    return DATA / f"preset_{preset}.json"


def _pinned(preset, run_dir, jobs):
    """The preset's canonical golden text, swept into ``run_dir``."""
    outcome = run_sweep(
        preset_sweep(preset), run_dir, jobs=jobs, telemetry=False
    )
    assert outcome.total == len(outcome.executed)
    assert outcome.backend == ("serial" if jobs == 1 else "queue")
    records = {
        spec_hash: {
            "experiment": record.experiment,
            "params": record.params,
            "status": record.status,
            "series": record.series,
        }
        for spec_hash, record in ResultStore(run_dir).latest().items()
    }
    return json.dumps(records, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_matches_golden_in_process(preset, tmp_path):
    assert _pinned(preset, tmp_path / "run", jobs=1) == (
        _golden_path(preset).read_text()
    )


def test_preset_matches_golden_through_the_queue(tmp_path):
    assert _pinned("workload-mix", tmp_path / "run", jobs=2) == (
        _golden_path("workload-mix").read_text()
    )


def _regen():
    with tempfile.TemporaryDirectory() as scratch:
        for preset in PRESETS:
            _golden_path(preset).write_text(
                _pinned(preset, Path(scratch) / preset, jobs=1)
            )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    _regen()
