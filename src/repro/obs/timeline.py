"""Chrome trace-event export: ``repro timeline <run-dir>``.

Converts a run directory's telemetry into the Chrome trace-event JSON
format (the ``{"traceEvents": [...]}`` object form), loadable in
Perfetto or ``chrome://tracing``.  Each telemetry source becomes a
trace "process"; each worker becomes a "thread" within it.  Finished
specs render as complete ("X") slices spanning their wall duration,
retries as instant ("i") markers, and run start/finish as instants on
the scheduler row.

Timestamps: trace-event ``ts`` is microseconds.  All events are
rebased to the earliest telemetry timestamp so traces start near zero
rather than at the Unix epoch (Perfetto handles either, humans prefer
the former).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.telemetry import read_events

TIMELINE_FILE = "timeline.json"

#: Stable synthetic pids per source role (Perfetto sorts by pid).
_SCHEDULER_PID = 1
_WORKER_PID_BASE = 10


def build_timeline(run_dir: Union[str, Path]) -> Dict[str, object]:
    """Telemetry -> trace-event JSON object (pure; no file output)."""
    events, _skipped = read_events(run_dir)
    trace: List[Dict[str, object]] = []
    if not events:
        return {"traceEvents": trace, "displayTimeUnit": "ms"}
    epoch = min(float(e["ts"]) for e in events)  # type: ignore[arg-type]

    def us(ts: object) -> float:
        return (float(ts) - epoch) * 1e6  # type: ignore[arg-type]

    # One trace thread per (pid, tid); metadata rows name them.
    pids: Dict[str, int] = {}
    tids: Dict[str, int] = {}

    def thread_for(event: Dict[str, object]) -> Dict[str, int]:
        worker = event.get("worker")
        if isinstance(worker, str):
            pid = pids.setdefault(worker, _WORKER_PID_BASE + len(pids))
            name = worker
        else:
            pid = _SCHEDULER_PID
            name = f"scheduler ({event['source']})"
        if name not in tids:
            tids[name] = len(tids) + 1
            trace.append(
                {
                    "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": name},
                }
            )
            trace.append(
                {
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": tids[name], "args": {"name": "specs"},
                }
            )
        return {"pid": pid, "tid": tids[name]}

    have_task_slices = False
    for event in events:
        kind = event["kind"]
        where = thread_for(event)
        if kind == "task_finished":
            have_task_slices = True
            wall_s = float(event["wall_s"])  # type: ignore[arg-type]
            trace.append(
                {
                    "ph": "X",
                    "name": str(event.get("label") or event["task_id"]),
                    "cat": "spec",
                    "ts": us(event["ts"]) - wall_s * 1e6,
                    "dur": wall_s * 1e6,
                    "args": {
                        "spec_hash": event["task_id"],
                        "status": event["status"],
                    },
                    **where,
                }
            )
        elif kind == "task_retried":
            trace.append(
                {
                    "ph": "i",
                    "name": f"retry {event['task_id']}",
                    "cat": "retry",
                    "s": "t",
                    "ts": us(event["ts"]),
                    "args": {
                        "attempt": event["attempt"],
                        "error": str(event["error"])[:200],
                    },
                    **where,
                }
            )
        elif kind in ("run_started", "run_finished", "worker_started",
                      "worker_finished"):
            trace.append(
                {
                    "ph": "i", "name": str(kind), "cat": "lifecycle",
                    "s": "p", "ts": us(event["ts"]), "args": {},
                    **where,
                }
            )

    if not have_task_slices:
        # In-process runs have no per-task worker telemetry; fall back
        # to the scheduler's per-record events so the trace still shows
        # one slice per executed spec.
        for event in events:
            if event["kind"] != "record":
                continue
            where = thread_for(event)
            wall_s = float(event["wall_s"])  # type: ignore[arg-type]
            trace.append(
                {
                    "ph": "X",
                    "name": str(event.get("label") or event["spec_hash"]),
                    "cat": "spec",
                    "ts": us(event["ts"]) - wall_s * 1e6,
                    "dur": wall_s * 1e6,
                    "args": {
                        "spec_hash": event["spec_hash"],
                        "status": event["status"],
                    },
                    **where,
                }
            )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_timeline(
    run_dir: Union[str, Path], out: Optional[Union[str, Path]] = None
) -> Path:
    """Export the run's trace to ``out`` (default ``<run-dir>/timeline.json``)."""
    run_dir = Path(run_dir)
    out_path = Path(out) if out is not None else run_dir / TIMELINE_FILE
    timeline = build_timeline(run_dir)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(timeline) + "\n")
    return out_path
