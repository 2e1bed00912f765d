"""Committed goldens for the supernode models and ``repro run all``.

``tests/data/supernode_goldens.json`` pins, as canonical JSON
(``json.dumps(..., sort_keys=True)`` of
:meth:`WorkloadMeasurement.to_dict`), every supernode case below at
``sim_parallel`` 0 (the legacy calendar) and 1 (the windowed model):

* ``supernode(2|3|4)`` × four workload shapes, no fault plan;
* ``zipf(192,1.2)`` on each named supernode topology;
* ``mixed(96)`` on ``supernode(4)`` under every shipped fault plan in
  degraded and in strict mode.

It also pins the LSU issue chain: ``fanout-2`` and ``fanout(4)`` ×
``mixed(96)``/``rw-mix(400,0.7)``, with no fault plan and under every
shipped plan in strict and in degraded mode, on the ``fpga`` profile
(the CLI default; the supernode cases run ``asic``).  A case that
raises pins ``"<ExceptionType>: <message>"`` instead of a measurement.

``tests/data/run_all.txt`` pins the full ``repro run all`` output.
A refactor of the issue chain or either supernode path must leave every
golden byte-identical; a deliberate model change re-pins them with::

    PYTHONPATH=src python tests/test_supernode_goldens.py --regen
"""

import json
import sys
from pathlib import Path

from repro.config import system_by_name
from repro.faults.plan import fault_plan_names
from repro.workloads import WorkloadDriver

from cli_helpers import run_cli

DATA = Path(__file__).parent / "data"
SUPERNODE_GOLDENS = DATA / "supernode_goldens.json"
RUN_ALL_GOLDEN = DATA / "run_all.txt"

WORKLOADS = (
    "zipf(192,1.2)", "uniform(256,512)", "producer-consumer(96,24)",
    "mixed(96)",
)
NAMED_SUPERNODES = ("supernode-2host", "supernode-4host")
FANOUTS = ("fanout-2", "fanout(4)")
FANOUT_WORKLOADS = ("mixed(96)", "rw-mix(400,0.7)")
SEED = 77
STREAMS = 4


def _cases():
    """``(case_id, profile, topology, workload, sim_parallel, fault,
    fault_mode)`` tuples."""
    for hosts in (2, 3, 4):
        for workload in WORKLOADS:
            for sim_parallel in (0, 1):
                topology = f"supernode({hosts})"
                yield (
                    f"{topology}/{workload}/sim_parallel={sim_parallel}",
                    "asic", topology, workload, sim_parallel, None, None,
                )
    for topology in NAMED_SUPERNODES:
        for sim_parallel in (0, 1):
            yield (
                f"{topology}/zipf(192,1.2)/sim_parallel={sim_parallel}",
                "asic", topology, "zipf(192,1.2)", sim_parallel, None, None,
            )
    for fault in fault_plan_names():
        for sim_parallel in (0, 1):
            yield (
                f"supernode(4)/mixed(96)/fault={fault}/"
                f"sim_parallel={sim_parallel}",
                "asic", "supernode(4)", "mixed(96)", sim_parallel, fault,
                "degraded",
            )
            yield (
                f"supernode(4)/mixed(96)/fault={fault}/strict/"
                f"sim_parallel={sim_parallel}",
                "asic", "supernode(4)", "mixed(96)", sim_parallel, fault,
                "strict",
            )
    for topology in FANOUTS:
        for workload in FANOUT_WORKLOADS:
            yield (
                f"{topology}/{workload}",
                "fpga", topology, workload, 0, None, None,
            )
            for fault in fault_plan_names():
                for mode in ("strict", "degraded"):
                    yield (
                        f"{topology}/{workload}/fault={fault}/{mode}",
                        "fpga", topology, workload, 0, fault, mode,
                    )


def _measure(profile, topology, workload, sim_parallel, fault, fault_mode):
    """The case's measurement dict, or ``"<ExceptionType>: <message>"``."""
    kwargs = {}
    if fault is not None:
        kwargs.update(fault=fault, fault_mode=fault_mode)
    try:
        measurement = WorkloadDriver(system_by_name(profile)).run(
            workload, topology=topology, seed=SEED, streams=STREAMS,
            sim_parallel=sim_parallel, **kwargs,
        )
    except Exception as exc:  # a raising case pins its exception text
        return f"{type(exc).__name__}: {exc}"
    return measurement.to_dict()


def _canonical(value):
    return json.dumps(value, sort_keys=True)


def _run_all():
    code, out = run_cli("run", "all")
    assert code == 0
    return out


def test_pinned_outputs_are_byte_identical():
    goldens = json.loads(SUPERNODE_GOLDENS.read_text())
    cases = list(_cases())
    assert sorted(goldens) == sorted(case[0] for case in cases)
    mismatched = [
        case_id
        for case_id, *args in cases
        if _canonical(_measure(*args)) != _canonical(goldens[case_id])
    ]
    assert mismatched == []
    assert _run_all() == RUN_ALL_GOLDEN.read_text()


def _regen():
    goldens = {case_id: _measure(*args) for case_id, *args in _cases()}
    SUPERNODE_GOLDENS.write_text(
        json.dumps(goldens, sort_keys=True, indent=1) + "\n"
    )
    RUN_ALL_GOLDEN.write_text(_run_all())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    _regen()
