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

Fault plans work in windowed mode too, through the same window step:
with a fault controller each attempt passes the lane's fault policy,
which evaluates the time-windowed plan queries against the lane's own
clock and consumes corruption draws from a lane-local (per-link)
counter, so fault outcomes do not depend on how lanes interleave.
Without a controller the policy costs one branch per op.
"""

from __future__ import annotations

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
class _Lane:
    """One host's share of the run: ops, clock, replicas, counters."""

    __slots__ = (
        "idx", "host", "lines", "excl", "delays", "n", "i", "seq",
        "remote_latency_ps", "clock", "replicas",
        "accesses", "latency_ps", "local_hits", "global_requests",
        "remote_accesses", "naks",
        "controller", "fabric_name", "link_key", "recovery_times",
        "attempted", "completed", "dropped", "retries", "corrupted",
        "draws", "min_after", "op_t", "op_attempt", "op_redeliver",
    )

    def __init__(
        self,
        idx: int,
        host: str,
        lines: Sequence[int],
        excl: Sequence[int],
        delays: Sequence[int],
        remote_latency_ps: int,
        controller,
        fabric_name: str,
        recovery_times: Tuple[int, ...],
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
        self.replicas: Dict[int, int] = {}  # line -> held exclusive
        self.accesses = 0
        self.latency_ps = 0
        self.local_hits = 0
        self.global_requests = 0
        self.remote_accesses = 0
        self.naks = 0
        # Fault-plan bindings, evaluated on this lane's own clock.
        self.controller = controller
        self.fabric_name = fabric_name
        self.link_key = tuple(sorted((host, fabric_name)))
        self.recovery_times = recovery_times
        self.attempted = 0
        self.completed = 0
        self.dropped = 0
        self.retries = 0
        self.corrupted = 0
        self.draws = 0
        self.min_after: List[int] = [-1] * len(recovery_times)
        # Fault policy state of the current op: its next attempt time
        # once started (retries can carry an op across window
        # boundaries; None before its first attempt) and its budgets.
        self.op_t: Optional[int] = None
        self.op_attempt = 0
        self.op_redeliver = 0

    # -- hot loop -------------------------------------------------------
    def run_window(
        self, window_end: int, out: List[Tuple[int, int, int, int, int]]
    ) -> int:
        """Advance this lane to ``window_end``; returns the next event
        time (``-1`` once the lane's calendar is empty).

        Emitted global requests are appended to ``out`` as
        ``(t, host_idx, seq, line, excl)`` tuples.  Under a fault
        controller each attempt first passes :meth:`_blocked` and each
        access then :meth:`_delivered`.
        """
        faulted = self.controller is not None
        idx = self.idx
        lines = self.lines
        excl_flags = self.excl
        delays = self.delays
        replicas = self.replicas
        while self.i < self.n:
            if faulted and self.op_t is not None:
                t = self.op_t
            else:
                t = self.clock + delays[self.i] + SUPERNODE_ISSUE_GAP_PS
            if t >= window_end:
                return t
            if faulted and self._blocked(t):
                continue
            line = lines[self.i]
            excl = excl_flags[self.i]
            held = replicas.get(line)
            if held is not None and (not excl or held):
                self.local_hits += 1
                paid = 0
            else:
                self.global_requests += 1
                self.remote_accesses += 1
                replicas[line] = excl
                out.append((t, idx, self.seq, line, excl))
                self.seq += 1
                paid = self.remote_latency_ps
            if faulted:
                paid = self._delivered(t, paid)
                if paid < 0:
                    continue
            if paid:
                self.latency_ps += paid
            self.accesses += 1
            self.clock = t + paid
            self.i += 1
        return -1

    # -- fault policy ---------------------------------------------------
    def _blocked(self, t: int) -> bool:
        """Start an attempt at ``t``: is the op's path down?

        Mirrors the legacy virtual-clock policy
        (:meth:`WorkloadDriver._supernode_fault_policy`): link/fabric
        outages raise-or-retry, down hosts NAK.  A blocked attempt is
        rescheduled with backoff or, out of retries, dropped.
        """
        controller = self.controller
        if self.op_t is None:
            self.attempted += 1
            self.op_attempt = 0
            self.op_redeliver = 0
        self.op_t = t
        key = self.link_key
        if controller.link_down(key, t) or controller.node_down(
            self.fabric_name, t
        ):
            host_down = False
        elif controller.node_down(self.host, t):
            self.naks += 1
            host_down = True
        else:
            return False
        if not controller.degraded:
            from repro.core.supernode import HostDownError
            from repro.faults.controller import FaultActiveError

            if host_down:
                raise HostDownError(
                    f"supernode host {self.host!r} is down: coherent "
                    f"access NAKed ({self.naks} so far)"
                )
            raise FaultActiveError(f"path {key[0]}--{key[1]} is down at {t}ps")
        retry = controller.retry
        if self.op_attempt < retry.max_retries:
            self.retries += 1
            self.op_t = t + retry.delay_ps(self.op_attempt)
            self.op_attempt += 1
        else:
            self._drop(t)
        return True

    def _delivered(self, t: int, latency: int) -> int:
        """Finish an access issued at ``t``: the paid latency, or ``-1``.

        Degraded links scale the latency by the active factor; a
        corrupted completion is retransmitted (re-paying another
        access) or, out of retries, dropped.  A clean completion feeds
        the availability stats.
        """
        controller = self.controller
        factor = controller.link_factor(self.link_key, t)
        paid = latency if factor == 1.0 else int(round(latency * factor))
        t += paid
        if self._corrupt_hit(t):
            self.corrupted += 1
            if not controller.degraded:
                from repro.faults.controller import FaultActiveError

                key = self.link_key
                raise FaultActiveError(
                    f"message on {key[0]}--{key[1]} corrupted at {t}ps"
                )
            if self.op_redeliver < controller.retry.max_retries:
                self.op_redeliver += 1
                self.retries += 1
                self.op_t = t
            else:
                self._drop(t)
            return -1
        self.completed += 1
        for j, recovery in enumerate(self.recovery_times):
            if t >= recovery and (self.min_after[j] < 0 or t < self.min_after[j]):
                self.min_after[j] = t
        self.op_t = None
        return paid

    def _drop(self, t: int) -> None:
        self.dropped += 1
        self.clock = t
        self.i += 1
        self.op_t = None

    def _corrupt_hit(self, t: int) -> bool:
        """Lane-local corruption draws (one per active msg_corrupt event).

        The legacy synchronous path consumes a controller-global draw
        counter; a windowed lane draws from its own per-link counter so
        outcomes stay independent of how lanes interleave.
        """
        controller = self.controller
        events = controller._corrupts.get(self.link_key)
        if not events:
            return False
        from repro.faults.plan import corrupt_draw

        hit = False
        key_str = "--".join(self.link_key)
        for event in events:
            if event.active_at(t):
                index = self.draws
                self.draws += 1
                if corrupt_draw(controller.seed, key_str, index, event.rate):
                    hit = True
        return hit


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
    its ``(lines, excl, delays)`` arrays — lines already rebased to
    system addresses and line-aligned, ``excl`` 1 for an exclusive
    (write) access and 0 for a shared one.  Each returned lane's counters
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
    lanes = [
        _Lane(
            idx, host, *per_host_ops[host], latency_table[host],
            controller, fabric_name, recovery_times,
        )
        for idx, host in enumerate(hosts)
    ]
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
