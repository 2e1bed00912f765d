"""Durable on-disk work queue: the executor of every parallel sweep.

The scheduler (:func:`repro.experiments.runner.run_sweep` with
``jobs != 1``) persists every pending spec payload under the run
directory and drains the queue with :meth:`WorkQueue.drain`; worker
processes — local children or ``repro worker`` processes on any host
sharing the filesystem — *lease* specs one at a time, heartbeat while
executing, and mark them done with the persisted record.  Crashed
workers stop heartbeating, their leases go stale, and the specs
requeue; ``"error"`` specs retry with exponential backoff up to a
bounded attempt budget before the failure is persisted for real.

Layout inside ``<run-dir>/queue/``::

    meta.json        scheduler-written config (sweep name, git
                     metadata, retry/lease budgets)
    tasks/<seq>-<hash>.json  one pending spec payload (+ attempt count,
                             earliest-retry timestamp); the zero-padded
                             sweep-expansion index ``seq`` makes workers
                             claim specs in expansion order
    leases/<hash>.json   live claim; mtime is the worker heartbeat
    done/<hash>.json     completed spec's full stored record

All transitions are single-file creates/renames/unlinks, so any number
of workers can cooperate without a coordinator process.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import time
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import AbstractSet, Dict, Iterator, List, Optional, Tuple, Union

QUEUE_DIR = "queue"

#: Longest the scheduler sleeps between scans of ``done/``; a local
#: worker exiting wakes it at once.
POLL_S = 0.05


class QueueError(RuntimeError):
    """The work queue is missing, torn down, malformed, or lost every
    local worker before it drained."""


@dataclass
class QueueConfig:
    """Scheduler-chosen execution budgets shared with every worker."""

    sweep: str
    git: Dict[str, object] = field(default_factory=dict)
    #: Total execution attempts per spec (1 = no retries).
    max_attempts: int = 3
    #: First-retry delay; doubles per subsequent attempt.
    backoff_s: float = 0.5
    #: A lease with no heartbeat for this long is considered abandoned.
    lease_timeout_s: float = 30.0


@dataclass
class ClaimedTask:
    """One leased spec: payload plus its retry history."""

    spec_hash: str
    #: Task file stem, ``<seq>-<spec hash>``.
    name: str
    payload: Dict[str, object]
    attempts: int = 0


def process_context():
    """Prefer fork (shares the warmed interpreter); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _local_worker_entry(run_dir: str, worker_id: str) -> None:
    """Child-process entry point (top-level so spawn can pickle it)."""
    from repro.experiments.exec.worker import run_worker

    run_worker(run_dir, worker_id=worker_id)


class WorkQueue:
    """File-backed queue of spec payloads under one run directory."""

    def __init__(self, run_dir: Union[str, Path]):
        self.run_dir = Path(run_dir)
        self.root = self.run_dir / QUEUE_DIR

    @property
    def meta_path(self) -> Path:
        return self.root / "meta.json"

    @property
    def tasks_dir(self) -> Path:
        return self.root / "tasks"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def done_dir(self) -> Path:
        return self.root / "done"

    def exists(self) -> bool:
        return self.meta_path.is_file()

    # ------------------------- scheduler side -------------------------
    def create(
        self, payloads: List[Dict[str, object]], config: QueueConfig
    ) -> None:
        """(Re)populate the queue with ``payloads``, claimable in order.

        Any leftover state from an interrupted run is wiped first:
        completed specs live on in the result store (and are therefore
        not in ``payloads``), so stale tasks/leases/done markers carry
        no information the store does not already hold.
        """
        self.destroy()
        for sub in (self.tasks_dir, self.leases_dir, self.done_dir):
            sub.mkdir(parents=True, exist_ok=True)
        width = len(str(len(payloads)))
        for seq, payload in enumerate(payloads):
            task = {"payload": payload, "attempts": 0, "not_before": 0.0}
            name = f"{seq:0{width}d}-{payload['spec_hash']}.json"
            self._write_atomic(self.tasks_dir / name, task)
        # meta.json lands last: workers treat its presence as "queue
        # open for business", so they never observe a half-built queue.
        self._write_atomic(self.meta_path, asdict(config))

    def destroy(self) -> None:
        if self.root.is_dir():
            shutil.rmtree(self.root, ignore_errors=True)

    def drain(
        self,
        payloads: List[Dict[str, object]],
        config: QueueConfig,
        jobs: int,
    ) -> Iterator[Dict[str, object]]:
        """Queue ``payloads`` and yield each stored record as it lands.

        Spawns ``min(jobs, len(payloads))`` local worker processes
        (zero is valid: external ``repro worker`` processes then supply
        all the labour), requeues stale leases while waiting, and tears
        the queue down once every spec is done.  Records are yielded
        after the workers persisted them to the run's result store.
        """
        self.create(payloads, config)
        mp = process_context()
        workers = [
            mp.Process(
                target=_local_worker_entry,
                args=(str(self.run_dir), f"local-{i}"),
                daemon=True,
            )
            for i in range(min(jobs, len(payloads)))
        ]
        for worker in workers:
            worker.start()
        pending = {str(p["spec_hash"]) for p in payloads}
        seen: set = set()
        dead_rescans = 0
        try:
            while seen != pending:
                fresh = [
                    (spec_hash, record)
                    for spec_hash, record in self.done_records(skip=seen)
                    if spec_hash in pending
                ]
                for spec_hash, record in fresh:
                    seen.add(spec_hash)
                    yield record
                if fresh:
                    continue
                self.requeue_stale(config.lease_timeout_s)
                alive = [w.sentinel for w in workers if w.is_alive()]
                if workers and not alive:
                    # A worker's final done marker is written before it
                    # exits, so grant one rescan to absorb the race.
                    # With zero local workers we instead wait
                    # indefinitely for external ``repro worker``s; with
                    # local workers, all of them gone and nothing left
                    # to observe means the queue was lost (e.g. the run
                    # dir vanished) — fail loud rather than spin.
                    if dead_rescans:
                        raise QueueError(
                            f"all {len(workers)} queue worker(s) exited "
                            f"with {len(pending) - len(seen)} spec(s) "
                            f"outstanding"
                        )
                    dead_rescans += 1
                else:
                    wait(alive, timeout=POLL_S)
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
                worker.join()
        self.destroy()

    def requeue_stale(self, lease_timeout_s: float) -> List[str]:
        """Drop leases whose heartbeat stopped; their specs become
        claimable again.  Returns the requeued spec hashes."""
        requeued = []
        now = time.time()
        for name in self._listdir(self.leases_dir):
            lease = self.leases_dir / name
            try:
                age = now - lease.stat().st_mtime
            except OSError:
                continue
            if age <= lease_timeout_s:
                continue
            if (self.done_dir / name).is_file():
                continue  # completed concurrently; lease is vestigial
            try:
                lease.unlink()
            except OSError:
                continue
            requeued.append(lease.stem)
        return requeued

    def done_records(
        self, skip: AbstractSet[str] = frozenset()
    ) -> Iterator[Tuple[str, Dict[str, object]]]:
        """Yield ``(spec_hash, stored-record dict)`` per done marker
        whose spec hash is not in ``skip`` (checked before reading)."""
        for name in self._listdir(self.done_dir):
            spec_hash = name[: -len(".json")]
            if spec_hash in skip:
                continue
            record = self._read_json(self.done_dir / name)
            if record is not None:
                yield spec_hash, record

    # --------------------------- worker side --------------------------
    def load_config(self) -> QueueConfig:
        data = self._read_json(self.meta_path)
        if data is None:
            raise QueueError(f"no work queue under {self.run_dir}")
        return QueueConfig(**data)

    def claim(
        self, owner: str, lease_timeout_s: float
    ) -> Optional[ClaimedTask]:
        """Lease one claimable spec, or None when nothing is claimable.

        A spec is claimable when its task file exists, its retry
        backoff has elapsed, and no live lease covers it.  The lease
        file is created with ``O_EXCL``, so concurrent workers racing
        for one spec resolve to exactly one winner.
        """
        now = time.time()
        for name in self._listdir(self.tasks_dir):
            stem = name[: -len(".json")]
            spec_hash = stem.partition("-")[2]
            lease_path = self.leases_dir / f"{spec_hash}.json"
            try:
                lease_age = now - lease_path.stat().st_mtime
            except OSError:
                lease_age = None  # not leased
            if lease_age is not None and lease_age <= lease_timeout_s:
                continue  # a live worker owns it
            task = self._read_json(self.tasks_dir / name)
            if task is None:  # completed/rewritten under our feet
                continue
            if float(task.get("not_before", 0.0)) > now:
                continue
            if lease_age is not None:
                try:  # stale: evict the dead worker's lease
                    lease_path.unlink()
                except OSError:
                    pass
            try:
                fd = os.open(
                    lease_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                )
            except FileExistsError:
                continue  # another worker won the race
            except FileNotFoundError:
                return None  # queue torn down mid-scan
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps({"owner": owner, "acquired": now}))
            return ClaimedTask(
                spec_hash=spec_hash,
                name=stem,
                payload=dict(task["payload"]),
                attempts=int(task.get("attempts", 0)),
            )
        return None

    def heartbeat(self, task: ClaimedTask) -> None:
        try:
            os.utime(self.leases_dir / f"{task.spec_hash}.json")
        except OSError:
            pass

    def retry(self, task: ClaimedTask, backoff_s: float) -> float:
        """Requeue a failed attempt with exponential backoff.

        Returns the delay before the spec becomes claimable again.
        """
        delay = backoff_s * (2 ** task.attempts)
        self._write_atomic(
            self.tasks_dir / f"{task.name}.json",
            {
                "payload": task.payload,
                "attempts": task.attempts + 1,
                "not_before": time.time() + delay,
            },
        )
        self._release(task)
        return delay

    def complete(self, task: ClaimedTask, record: Dict[str, object]) -> None:
        """Mark a spec done (record already persisted to the store)."""
        self._write_atomic(self.done_dir / f"{task.spec_hash}.json", record)
        try:
            (self.tasks_dir / f"{task.name}.json").unlink()
        except OSError:
            pass
        self._release(task)

    def drained(self) -> bool:
        """True once no task files remain (all specs completed)."""
        return not any(self._listdir(self.tasks_dir))

    # ----------------------------- helpers ----------------------------
    def _release(self, task: ClaimedTask) -> None:
        try:
            (self.leases_dir / f"{task.spec_hash}.json").unlink()
        except OSError:
            pass

    @staticmethod
    def _listdir(directory: Path) -> List[str]:
        """Sorted ``*.json`` file names in ``directory`` (none if gone)."""
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return sorted(name for name in names if name.endswith(".json"))

    @staticmethod
    def _read_json(path: Path) -> Optional[Dict[str, object]]:
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    @staticmethod
    def _write_atomic(path: Path, data: Dict[str, object]) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data))
        os.replace(tmp, path)
