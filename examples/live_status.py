"""Example: live run status over a parallel sweep.

Launches a small two-worker sweep, which runs on the durable work
queue, in a background thread, then polls ``collect_status`` while workers drain it — the same
loop ``repro status <run-dir> --watch`` runs — and finishes by
exporting the run's Chrome trace timeline (load it in
https://ui.perfetto.dev).

Usage::

    PYTHONPATH=src python examples/live_status.py
"""

import tempfile
import threading
import time
from pathlib import Path

from repro.experiments import SweepSpec, run_sweep
from repro.obs import collect_status, render_status, write_timeline

SWEEP = {
    "name": "live-status-demo",
    "repeats": 2,
    "experiments": [
        {"experiment": "fig13", "grid": {"trials": [2, 3]}},
        {"experiment": "table1"},
        {"experiment": "table2"},
    ],
}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        sweep = SweepSpec.from_dict(SWEEP)

        worker = threading.Thread(
            target=run_sweep,
            args=(sweep, run_dir),
            kwargs={"jobs": 2},
        )
        worker.start()

        # Poll on-disk state while the run is in flight; everything
        # collect_status reads (telemetry, queue, store) is read-only.
        while True:
            status = collect_status(run_dir)
            print(render_status(status))
            print("-" * 60)
            if status["finished"]:
                break
            time.sleep(0.5)
        worker.join()

        out = write_timeline(run_dir)
        print(f"wrote Chrome trace timeline: {out}")
        print("open it in https://ui.perfetto.dev or chrome://tracing")


if __name__ == "__main__":
    main()
