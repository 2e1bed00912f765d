"""Distributed sweep execution.

The pieces behind every parallel ``run_sweep``:

* :mod:`~repro.experiments.exec.locks` — advisory lockfiles with
  heartbeats and stale takeover (run-level writer lock, per-shard
  append locks).
* :mod:`~repro.experiments.exec.queue` — the durable on-disk work
  queue (leases, heartbeats, retry-with-backoff, done markers) and the
  scheduler's drain loop over it.
* :mod:`~repro.experiments.exec.worker` — the worker loop behind both
  locally spawned workers and the ``repro worker <run-dir>`` CLI.

``worker`` imports the result store (which itself uses ``locks``), so
its names resolve lazily here to keep the package import-order
agnostic.
"""

import importlib

from repro.experiments.exec.locks import FileLock, LockError, LockHeldError
from repro.experiments.exec.queue import (
    ClaimedTask,
    QueueConfig,
    QueueError,
    WorkQueue,
)

_LAZY = {
    "WorkerOutcome": "worker",
    "run_worker": "worker",
}

__all__ = [
    "FileLock",
    "LockError",
    "LockHeldError",
    "ClaimedTask",
    "QueueConfig",
    "QueueError",
    "WorkQueue",
] + sorted(_LAZY)


def __getattr__(name):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    module = importlib.import_module(f"{__name__}.{module_name}")
    return getattr(module, name)
