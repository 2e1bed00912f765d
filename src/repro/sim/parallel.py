"""Windowed conservative model of Supernode coherent traffic.

Supernode hosts are independent builder-constructed systems that only
interact through the switch fabric, so an N-host run decomposes with
the classic conservative (windowed lockstep) scheme, executed in one
in-process loop:

* every host becomes a **lane**: its share of the op stream, a host-
  local virtual clock, a mirror of its local-agent replica set, and
  per-host counters;
* simulated time advances in **windows** whose width is the minimum
  fabric-crossing latency between two hosts (the lookahead) — within a
  window no host's action can affect another host, so each lane runs
  its window without looking at the others;
* at each window barrier the global-coherence requests the lanes
  issued are merged into one deterministic stream (sorted by issue
  time, then host index, then per-host sequence) and applied to the
  global directory, which invalidates the lanes' replica mirrors.

A lane whose calendar drains early simply reports no next event, and
windows in which no lane has work are skipped.  The merged
fabric-boundary order is a pure function of the window schedule, so
the measurement is deterministic.  It is a different model from the
legacy single-calendar path (``sim_parallel=0``): the two differ
slightly in ``remote_accesses`` on write-sharing streams, because
another host's invalidation reaches a lane only at the next window
barrier.

Fault plans work in windowed mode too: each lane evaluates the
time-windowed plan queries against its own clock and consumes
corruption draws from a lane-local (per-link) counter, so fault
outcomes do not depend on how lanes interleave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Per-access issue pacing of both supernode models (ps).  Supernode
#: coherent accesses are synchronous (no simulator clock), so fault
#: windows are evaluated against a virtual clock: think time plus paid
#: fabric latency plus this pacing, which keeps the clock advancing even
#: through local-hit streaks.  One constant for the legacy and windowed
#: paths means fault-plan timelines mean the same thing in both.
SUPERNODE_ISSUE_GAP_PS = 50_000

#: Window width stand-in for single-host systems (no fabric crossing
#: exists, so one window covers the whole run).
_NO_CROSSING_PS = 1 << 62


def min_crossing_ps(supernode) -> int:
    """Minimum one-way fabric latency between two distinct hosts (ps).

    This is the conservative lookahead: within a window narrower than
    this, no host's coherence action can reach another host.  Computed
    from static routes (without the ``packets_routed`` side effect of
    :meth:`~repro.cxl.switch.SwitchFabric.latency_ps`).
    """
    fabric = supernode.fabric
    hosts = sorted(supernode.hosts)
    best: Optional[int] = None
    for i, src in enumerate(hosts):
        for dst in hosts[i + 1:]:
            path = fabric.route(src, dst)
            cost = sum(fabric.switch(name).traversal_ps for name in path)
            if best is None or cost < best:
                best = cost
    return best if best is not None else _NO_CROSSING_PS


def remote_latency_table(supernode) -> Dict[str, int]:
    """Paid fabric latency per host for one remote access (ps).

    Mirrors :meth:`Supernode.coherent_access`'s miss cost — a round
    trip to the fabric's memory endpoint — precomputed once so lanes
    never route (or mutate switch counters) inside the hot loop.
    """
    fabric = supernode.fabric
    endpoint = supernode._any_fabric_endpoint()
    table: Dict[str, int] = {}
    for host in sorted(supernode.hosts):
        path = fabric.route(host, endpoint)
        oneway = sum(fabric.switch(name).traversal_ps for name in path)
        table[host] = 2 * oneway
    return table


# ---------------------------------------------------------------------
# Lanes
# ---------------------------------------------------------------------
@dataclass
class _FaultContext:
    """Static fault-plan bindings one lane evaluates on its own clock."""

    controller: object
    fabric_name: str
    link_key: Tuple[str, str]
    recovery_times: Tuple[int, ...]


class _Lane:
    """One host's share of the run: ops, clock, replicas, counters."""

    __slots__ = (
        "idx", "host", "lines", "excl", "delays", "n", "i", "seq",
        "remote_latency_ps", "clock", "replicas",
        "accesses", "latency_ps", "local_hits", "global_requests",
        "remote_accesses", "naks",
        "fault", "attempted", "completed", "dropped", "retries",
        "corrupted", "draws", "min_after", "op_t", "op_attempt",
        "op_redeliver", "op_started",
    )

    def __init__(
        self,
        idx: int,
        host: str,
        lines: Sequence[int],
        excl: Sequence[int],
        delays: Sequence[int],
        remote_latency_ps: int,
        fault: Optional[_FaultContext] = None,
    ) -> None:
        self.idx = idx
        self.host = host
        self.lines = list(lines)
        self.excl = list(excl)
        self.delays = list(delays)
        self.n = len(self.lines)
        self.i = 0
        self.seq = 0
        self.remote_latency_ps = remote_latency_ps
        self.clock = 0
        self.replicas: Dict[int, bool] = {}
        self.accesses = 0
        self.latency_ps = 0
        self.local_hits = 0
        self.global_requests = 0
        self.remote_accesses = 0
        self.naks = 0
        self.fault = fault
        self.attempted = 0
        self.completed = 0
        self.dropped = 0
        self.retries = 0
        self.corrupted = 0
        self.draws = 0
        self.min_after: List[int] = (
            [-1] * len(fault.recovery_times) if fault is not None else []
        )
        # Mid-op resume state for the faulted path (retries can carry an
        # op across window boundaries).
        self.op_t: Optional[int] = None
        self.op_attempt = 0
        self.op_redeliver = 0
        self.op_started = False

    # -- hot loop -------------------------------------------------------
    def run_window(
        self, window_end: int, out: List[Tuple[int, int, int, int, int]]
    ) -> int:
        """Advance this lane to ``window_end``; returns the next event
        time (``-1`` once the lane's calendar is empty).

        Emitted global requests are appended to ``out`` as
        ``(t, host_idx, seq, line, excl)`` tuples.
        """
        if self.fault is not None:
            return self._run_window_faulted(window_end, out)
        while self.i < self.n:
            t = self.clock + self.delays[self.i] + SUPERNODE_ISSUE_GAP_PS
            if t >= window_end:
                return t
            line = self.lines[self.i]
            excl = bool(self.excl[self.i])
            held = self.replicas.get(line)
            if held is not None and (not excl or held):
                self.local_hits += 1
                paid = 0
            else:
                self.global_requests += 1
                self.remote_accesses += 1
                self.replicas[line] = excl
                out.append((t, self.idx, self.seq, line, int(excl)))
                self.seq += 1
                paid = self.remote_latency_ps
                self.latency_ps += paid
            self.accesses += 1
            self.clock = t + paid
            self.i += 1
        return -1

    # -- faulted variant ------------------------------------------------
    def _corrupt_hit(self, t: int) -> bool:
        """Lane-local corruption draws (one per active msg_corrupt event).

        The legacy synchronous path consumes a controller-global draw
        counter; a windowed lane draws from its own per-link counter so
        outcomes stay independent of how lanes interleave.
        """
        from repro.faults.plan import corrupt_draw

        ctx = self.fault
        controller = ctx.controller
        hit = False
        key_str = "--".join(ctx.link_key)
        for event in controller._corrupts.get(ctx.link_key, ()):
            if event.active_at(t):
                index = self.draws
                self.draws += 1
                if corrupt_draw(controller.seed, key_str, index, event.rate):
                    hit = True
        return hit

    def _run_window_faulted(
        self, window_end: int, out: List[Tuple[int, int, int, int, int]]
    ) -> int:
        """Fault-aware window step, mirroring the legacy virtual-clock
        loop (:meth:`WorkloadDriver._drive_supernode_faulted`) op for op:
        link/fabric outages raise-or-retry, down hosts NAK, degraded
        latency scales by the active factor, corrupted completions
        retransmit, and completions/drops feed the availability stats.
        """
        from repro.core.supernode import HostDownError
        from repro.faults.controller import FaultActiveError

        ctx = self.fault
        controller = ctx.controller
        retry = controller.retry
        key = ctx.link_key
        fabric_name = ctx.fabric_name
        while True:
            if self.op_t is None:
                if self.i >= self.n:
                    return -1
                self.op_t = (
                    self.clock + self.delays[self.i] + SUPERNODE_ISSUE_GAP_PS
                )
                self.op_attempt = 0
                self.op_redeliver = 0
                self.op_started = False
            t = self.op_t
            if t >= window_end:
                return t
            if not self.op_started:
                self.op_started = True
                self.attempted += 1
            line = self.lines[self.i]
            excl = bool(self.excl[self.i])
            if controller.link_down(key, t) or controller.node_down(
                fabric_name, t
            ):
                down: Optional[str] = "link"
            elif controller.node_down(self.host, t):
                self.naks += 1
                down = "host"
            else:
                down = None
            if down is not None:
                if not controller.degraded:
                    if down == "host":
                        raise HostDownError(
                            f"supernode host {self.host!r} is down: coherent "
                            f"access NAKed ({self.naks} so far)"
                        )
                    raise FaultActiveError(
                        f"path {key[0]}--{key[1]} is down at {t}ps"
                    )
                if self.op_attempt < retry.max_retries:
                    self.retries += 1
                    self.op_t = t + retry.delay_ps(self.op_attempt)
                    self.op_attempt += 1
                    continue
                self.dropped += 1
                self.clock = t
                self._finish_op()
                continue
            held = self.replicas.get(line)
            if held is not None and (not excl or held):
                self.local_hits += 1
                latency = 0
            else:
                self.global_requests += 1
                self.remote_accesses += 1
                self.replicas[line] = excl
                out.append((t, self.idx, self.seq, line, int(excl)))
                self.seq += 1
                latency = self.remote_latency_ps
            factor = controller.link_factor(key, t)
            paid = latency if factor == 1.0 else int(round(latency * factor))
            t += paid
            if self._corrupt_hit(t):
                self.corrupted += 1
                if not controller.degraded:
                    raise FaultActiveError(
                        f"message on {key[0]}--{key[1]} corrupted at {t}ps"
                    )
                if self.op_redeliver < retry.max_retries:
                    self.op_redeliver += 1
                    self.retries += 1
                    self.op_t = t  # retransmit re-pays another access
                    continue
                self.dropped += 1
                self.clock = t
                self._finish_op()
                continue
            self.accesses += 1
            self.latency_ps += paid
            self.completed += 1
            self._record_completion(t)
            self.clock = t
            self._finish_op()

    def _finish_op(self) -> None:
        self.i += 1
        self.op_t = None

    def _record_completion(self, t: int) -> None:
        for j, recovery in enumerate(self.fault.recovery_times):
            if t >= recovery and (self.min_after[j] < 0 or t < self.min_after[j]):
                self.min_after[j] = t


# ---------------------------------------------------------------------
# Global directory
# ---------------------------------------------------------------------
class _Directory:
    """The global agent's line directory, fed by the merged stream.

    Lanes get their replica mirrors invalidated as grants land (the
    :meth:`HierarchicalDomain._wire_invalidations` behavior).
    """

    __slots__ = ("owner", "sharers", "requests", "invalidations")

    def __init__(self) -> None:
        self.owner: Dict[int, int] = {}
        self.sharers: Dict[int, set] = {}
        self.requests = 0
        self.invalidations = 0

    def apply(
        self,
        merged: List[Tuple[int, int, int, int, int]],
        lanes: List[_Lane],
    ) -> None:
        owner_map = self.owner
        sharers_map = self.sharers
        for _t, h, _seq, line, excl in merged:
            self.requests += 1
            owner = owner_map.get(line)
            sharers = sharers_map.get(line)
            if sharers is None:
                sharers = sharers_map[line] = set()
            invalidate: set = set()
            if excl:
                if owner is not None and owner != h:
                    invalidate.add(owner)
                for s in sharers:
                    if s != h:
                        invalidate.add(s)
                owner_map[line] = h
                sharers.clear()
            else:
                if owner is not None and owner != h:
                    invalidate.add(owner)
                    sharers.add(owner)
                    owner_map[line] = None
                sharers.add(h)
            if invalidate:
                self.invalidations += len(invalidate)
                for victim in invalidate:
                    lanes[victim].replicas.pop(line, None)


# ---------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------
def _next_window_start(nexts: Sequence[int], window_ps: int) -> int:
    """First window boundary at or before the earliest pending event.

    Lanes report their next event time (or ``-1`` when drained), so
    empty windows cost nothing and the run terminates when every lane
    is drained (returns ``-1``).
    """
    alive = [t for t in nexts if t >= 0]
    if not alive:
        return -1
    return (min(alive) // window_ps) * window_ps


def run_windowed_supernode(
    supernode,
    fabric_name: str,
    per_host_ops: Dict[str, Tuple[Sequence[int], Sequence[int], Sequence[int]]],
    controller=None,
) -> List[_Lane]:
    """Run one windowed supernode simulation; returns its finished lanes.

    ``per_host_ops`` maps each host (sorted order = lane index order) to
    its ``(lines, excl, delays)`` arrays — already rebased to system
    addresses and line-aligned.  Each returned lane's counters
    (``accesses``, ``remote_accesses``, ``attempted``, ...) and final
    ``clock`` are that host's results.  Under a strict-mode
    ``controller`` an op hitting an active fault raises
    :class:`~repro.core.supernode.HostDownError` /
    :class:`~repro.faults.controller.FaultActiveError` out of this call.
    """
    hosts = sorted(supernode.hosts)
    window_ps = min(min_crossing_ps(supernode), _NO_CROSSING_PS)
    latency_table = remote_latency_table(supernode)
    recovery_times: Tuple[int, ...] = ()
    if controller is not None:
        recovery_times = tuple(sorted({
            e.recovers_at_ps
            for e in controller.matched
            if e.recovers_at_ps is not None
        }))
    lanes: List[_Lane] = []
    for idx, host in enumerate(hosts):
        lines, excl, delays = per_host_ops[host]
        fault = None
        if controller is not None:
            fault = _FaultContext(
                controller=controller,
                fabric_name=fabric_name,
                link_key=tuple(sorted((host, fabric_name))),
                recovery_times=recovery_times,
            )
        lanes.append(
            _Lane(idx, host, lines, excl, delays, latency_table[host], fault)
        )
    directory = _Directory()
    window_start = 0
    while True:
        window_end = window_start + window_ps
        merged: List[Tuple[int, int, int, int, int]] = []
        nexts = [lane.run_window(window_end, merged) for lane in lanes]
        merged.sort()
        directory.apply(merged, lanes)
        window_start = _next_window_start(nexts, window_ps)
        if window_start < 0:
            return lanes
