"""WorkloadDriver: issue any workload through any built system.

The driver closes the loop between the two declarative layers — a
:class:`~repro.workloads.base.Workload` (traffic) and a
:class:`~repro.system.topology.Topology` (shape).  It builds the
topology through the :class:`~repro.system.builder.SystemBuilder` and
dispatches the op stream by what the built system exposes:

* **LSU mode** — topologies with ``lsu`` nodes (microbench, fan-outs,
  anything JSON-loaded with a load/store unit): each stream becomes a
  serialized issue chain on its round-robin LSU, ops flow through the
  DCOH/HMC/LLC path under the discrete-event core, and the measurement
  reports per-stream latency medians and bandwidth.
* **Supernode mode** — topologies with a ``supernode.fabric`` node:
  streams map round-robin onto the per-host systems built by
  ``make_supernode_host``, reads/writes become shared/exclusive
  coherent accesses through the two-level coherence domain, and the
  measurement reports per-host fabric traffic and filter rates.

Measurements are deterministic: the same workload + seed + topology +
config produce a bit-identical :class:`WorkloadMeasurement`, which is
what makes trace record → replay reproduce a run exactly.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.config.system import SystemConfig
from repro.mem.address import CACHELINE
from repro.sim.parallel import SUPERNODE_ISSUE_GAP_PS, run_windowed_supernode
from repro.system import SystemBuilder, Topology, resolve_topology
from repro.workloads.base import Workload, WorkloadOp, resolve_workload
from repro.workloads.vectorized import KIND_WRITE, OpBatch

#: Streams rebase into the host map at this address — one shared base
#: (not per-stream), so ops that alias in workload space alias in the
#: system too (producer/consumer sharing relies on this).
WINDOW_BASE = 0x20_0000


class WorkloadDriverError(ValueError):
    """The target system exposes nothing the driver can issue through."""


def resolve_sim_parallel(value: object) -> bool:
    """``sim_parallel`` → whether supernodes run the windowed model.

    ``0`` selects the legacy single-calendar path and ``1`` the windowed
    model (:mod:`repro.sim.parallel`); anything else is rejected.
    """
    if type(value) is not int or value not in (0, 1):  # bools are rejected
        raise WorkloadDriverError(
            f"sim_parallel must be 0 (legacy calendar) or 1 (windowed "
            f"model), got {value!r}"
        )
    return value == 1


@dataclass
class WorkloadMeasurement:
    """Deterministic outcome of driving one workload through one system."""

    workload: str
    topology: str
    mode: str  # "lsu" | "supernode"
    seed: int
    ops: int
    reads: int
    writes: int
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fault: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form; equality of two dicts is measurement parity."""
        return {
            "workload": self.workload,
            "topology": self.topology,
            "mode": self.mode,
            "seed": self.seed,
            "ops": self.ops,
            "reads": self.reads,
            "writes": self.writes,
            "series": {k: dict(v) for k, v in self.series.items()},
            "fault": self.fault,
        }

    def render(self) -> str:
        """Human-readable table used by ``repro workload replay``."""
        from repro.harness.tables import render_series

        under = f" under fault plan {self.fault}" if self.fault else ""
        title = (
            f"workload {self.workload} on {self.topology}{under} "
            f"({self.mode} mode, "
            f"seed {self.seed}): {self.ops} ops "
            f"({self.reads} reads / {self.writes} writes)"
        )
        return render_series(
            "host" if self.mode == "supernode" else "stream",
            self.series,
            title=title,
            fmt="{:.3f}",
        )


class WorkloadDriver:
    """Drive workloads through :class:`SystemBuilder`-constructed systems."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config

    def run(
        self,
        workload: Union[str, Workload],
        topology: Union[str, Topology, Dict[str, object]] = "microbench",
        seed: int = 1234,
        streams: Optional[int] = None,
        fault: Union[str, Dict[str, object], None] = None,
        fault_mode: str = "strict",
        fault_retries: int = 3,
        fault_backoff_ps: int = 500_000,
        sim_parallel: int = 0,
        metrics=None,
        metrics_interval_ps: int = 1_000_000,
    ) -> WorkloadMeasurement:
        """Expand ``workload`` under ``seed`` and issue it through ``topology``.

        ``streams`` re-stripes a *single-stream* workload round-robin
        across that many issue chains (so e.g. ``zipf`` can load every
        LSU of a fan-out); workloads that already declare multiple
        streams (producer/consumer sharing) keep their own mapping.

        ``fault`` (a :class:`~repro.faults.plan.FaultPlan` reference)
        installs a failure timeline against the built system before
        driving.  ``fault_mode`` selects what an op hitting an active
        fault does: ``"strict"`` (default) fails loud —
        :class:`~repro.faults.controller.FaultActiveError` /
        :class:`~repro.core.supernode.HostDownError` — while
        ``"degraded"`` opts into bounded retry-with-backoff
        (``fault_retries`` retries, ``fault_backoff_ps`` initial
        backoff) followed by count-and-drop, and the measurement grows
        ``availability``/``recovery``/``lat_p99_ns`` series.  Each issue
        path (the LSU chain, the legacy supernode loop, the windowed
        lanes) is one code path with and without a plan: with
        ``fault=None`` it gets no controller and skips its fault policy
        at one branch per op, and a plan with no events (``"none"``)
        issues the same events and yields the same core series.

        ``sim_parallel`` selects the supernode model: ``0`` (default)
        keeps the historical single-calendar path and ``1`` runs the
        windowed conservative model (:mod:`repro.sim.parallel`).  Any
        other value raises :class:`WorkloadDriverError`, and so does
        ``1`` on an LSU topology.

        ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
        opts into observation: the built system's counters bind as
        pull-based probes (:func:`~repro.obs.metrics.instrument_system`,
        plus the fault controller's stats when present), and LSU-mode
        runs additionally take a registry snapshot every
        ``metrics_interval_ps`` of simulated time.  A final snapshot at
        end-of-run always lands.  Observation never perturbs the
        measurement: the returned series are bit-identical with or
        without a registry attached (one caveat: under a fault plan the
        availability window's end rounds up to the last snapshot tick,
        since observation keeps the clock alive up to one interval past
        the final op).
        """
        windowed = resolve_sim_parallel(sim_parallel)
        resolved_workload = resolve_workload(workload)
        batch = resolved_workload.batch(seed)
        if streams is not None and streams > 1 and not batch.streams.any():
            batch = batch.restripe(streams)
        ops: Optional[List[WorkloadOp]] = None
        resolved_topology = resolve_topology(topology)
        system = SystemBuilder(self.config).build(resolved_topology)
        controller = None
        if fault is not None:
            from repro.faults import (
                FaultController,
                RetryPolicy,
                resolve_fault_plan,
            )

            plan = resolve_fault_plan(fault)
            controller = FaultController(
                plan,
                seed=seed,
                mode=fault_mode,
                retry=RetryPolicy(fault_retries, fault_backoff_ps),
            ).install(system)
        if metrics is not None:
            from repro.obs.metrics import MetricSnapshotter, instrument_system

            instrument_system(system, metrics)
            if controller is not None:
                controller.register_metrics(metrics)
            # Periodic simulated-time snapshots only make sense where a
            # shared event calendar advances (LSU mode); the snapshot
            # event reads instruments and reschedules itself while live
            # work remains, so it never extends the run.
            if resolved_topology.by_kind("lsu") and not windowed:
                MetricSnapshotter(
                    system.sim, metrics, metrics_interval_ps
                ).start()
        if resolved_topology.by_kind("supernode.fabric"):
            if windowed:
                series = self._drive_supernode_windowed(
                    system, resolved_topology, batch, controller
                )
            else:
                ops = batch.to_ops()
                series = self._drive_supernode(
                    system, resolved_topology, ops, controller
                )
            mode = "supernode"
        elif resolved_topology.by_kind("lsu"):
            if windowed:
                raise WorkloadDriverError(
                    f"sim_parallel applies to supernode topologies only; "
                    f"topology {resolved_topology.name!r} is driven through "
                    f"its LSUs on one event calendar"
                )
            ops = batch.to_ops()
            series = self._drive_lsus(system, resolved_topology, ops, controller)
            mode = "lsu"
        else:
            kinds = sorted({spec.kind for spec in resolved_topology.nodes})
            raise WorkloadDriverError(
                f"topology {resolved_topology.name!r} exposes no 'lsu' or "
                f"'supernode.fabric' node to drive a workload through "
                f"(kinds present: {', '.join(kinds)})"
            )
        if metrics is not None:
            metrics.snapshot(system.sim.now)
        if controller is not None:
            if mode == "lsu":
                controller.end_ps = system.sim.now
            series["availability"] = controller.availability_series()
            series["recovery"] = controller.recovery_series()
        return WorkloadMeasurement(
            workload=resolved_workload.name,
            topology=resolved_topology.name,
            mode=mode,
            seed=seed,
            ops=len(batch),
            reads=batch.read_count,
            writes=batch.write_count,
            series=series,
            fault=None if controller is None else controller.plan.name,
        )

    # ------------------------------------------------------------------
    # LSU mode
    # ------------------------------------------------------------------
    def _drive_lsus(
        self, system, topology: Topology, ops: List[WorkloadOp],
        controller=None,
    ) -> Dict[str, Dict[str, float]]:
        lsu_specs = topology.by_kind("lsu")
        lsus = [system.node(spec.name) for spec in lsu_specs]
        chains: Dict[int, List[WorkloadOp]] = {}
        for op in ops:
            chains.setdefault(op.stream, []).append(op)

        stats: Dict[int, Dict[str, object]] = {}
        for stream in sorted(chains):
            index = stream % len(lsus)
            binding = ((), ())
            if controller is not None:
                binding = self._fault_binding(topology, lsu_specs[index])
            stats[stream] = self._issue_chain(
                lsus[index], chains[stream], controller, binding
            )
        system.sim.run()

        series: Dict[str, Dict[str, float]] = {
            "ops": {},
            "lat_median_ns": {},
            "bandwidth_gbps": {},
        }
        all_latencies: List[int] = []
        total_bytes = 0
        first = None
        last = 0
        for stream, state in sorted(stats.items()):
            key = f"s{stream}"
            latencies = state["latencies"]
            series["ops"][key] = float(len(latencies))
            series["lat_median_ns"][key] = (
                statistics.median(latencies) / 1_000 if latencies else 0.0
            )
            elapsed = state["last_done_ps"] - state["first_issue_ps"]
            series["bandwidth_gbps"][key] = (
                state["bytes"] / elapsed * 1_000 if elapsed > 0 else 0.0
            )
            all_latencies.extend(latencies)
            total_bytes += state["bytes"]
            if state["latencies"]:
                first = (
                    state["first_issue_ps"]
                    if first is None
                    else min(first, state["first_issue_ps"])
                )
                last = max(last, state["last_done_ps"])
        span = (last - first) if first is not None else 0
        series["ops"]["all"] = float(len(all_latencies))
        series["lat_median_ns"]["all"] = (
            statistics.median(all_latencies) / 1_000 if all_latencies else 0.0
        )
        series["bandwidth_gbps"]["all"] = (
            total_bytes / span * 1_000 if span > 0 else 0.0
        )
        if controller is not None:
            # Tail latency is what fault plans exist to move; nearest-rank
            # p99 over completed ops, per stream and pooled.
            series["lat_p99_ns"] = {}
            for stream, state in sorted(stats.items()):
                series["lat_p99_ns"][f"s{stream}"] = (
                    self._p99_ns(state["latencies"])
                )
            series["lat_p99_ns"]["all"] = self._p99_ns(all_latencies)
        return series

    @staticmethod
    def _p99_ns(latencies: List[int]) -> float:
        """Nearest-rank 99th percentile, in nanoseconds (0.0 when empty)."""
        if not latencies:
            return 0.0
        ranked = sorted(latencies)
        rank = max(0, -(-99 * len(ranked) // 100) - 1)
        return ranked[rank] / 1_000

    @staticmethod
    def _fault_binding(topology: Topology, lsu_spec):
        """The nodes and links whose faults block one LSU's issue path.

        An LSU op traverses its d2h link, its device, and the device's
        uplink(s) to the host — a ``device_drop`` on the device, a
        ``host_down`` on the host node, or a flap on either link all
        stall this chain.
        """
        device = lsu_spec.params.get("device")
        if device is None:
            for link in topology.links_of(lsu_spec.name):
                other = link.other(lsu_spec.name)
                if topology.node(other).kind.startswith("cxl."):
                    device = other
                    break
        nodes = {lsu_spec.name}
        keys = {
            tuple(sorted((link.a, link.b)))
            for link in topology.links_of(lsu_spec.name)
        }
        if device is not None:
            nodes.add(device)
            for link in topology.links_of(device):
                keys.add(tuple(sorted((link.a, link.b))))
                nodes.add(link.other(device))
        return tuple(sorted(nodes)), tuple(sorted(keys))

    @staticmethod
    def _issue_chain(
        lsu, ops: List[WorkloadOp], controller=None, binding=((), ())
    ) -> Dict[str, object]:
        """Serialized issue chain for one stream on one LSU.

        Each op waits its ``delay_ps`` think time after the previous
        completion, then pays the LSU issue/complete stages around the
        DCOH access — the per-op latency excludes the think time.
        Several chains coexist on one simulator (and even one LSU), so
        nothing here drains the engine.

        Under a fault ``controller`` each op checks its path (``binding``,
        see :meth:`_fault_binding`) at issue and at completion.  With no
        fault active the checks fall through, so the chain schedules
        exactly the events of a run without a controller.  When the
        path is faulted, strict mode raises
        :class:`~repro.faults.controller.FaultActiveError` out of the
        simulator; degraded mode retries with bounded backoff and
        finally counts the op as dropped.  Corrupted completions
        retransmit (re-paying the issue/access/complete pipeline) with
        the same bound.

        A chain has one op in flight, so its callbacks are made once
        per chain and the current op, its first-issue time (latency
        spans every retry and retransmit) and its retry budgets are
        chain-level variables: no per-op closure, no per-op garbage.
        """
        profile = lsu.profile
        issue_ps = profile.cycles_ps(profile.lsu_issue_cycles)
        complete_ps = profile.cycles_ps(profile.lsu_complete_cycles)
        schedule = lsu.schedule
        sim = lsu.sim
        latencies: List[int] = []
        state: Dict[str, object] = {
            "latencies": latencies,
            "bytes": 0,
            "first_issue_ps": -1,
            "last_done_ps": 0,
        }
        index = 0
        op = None
        issued_ps = -1
        attempt = 0  # down-path retries of the current op
        redeliver = 0  # corrupted-completion retransmits of the current op
        if controller is not None:
            from repro.faults.controller import FaultActiveError

            nodes, keys = binding
            retry = controller.retry
            stats = controller.stats

        def issue_next() -> None:
            nonlocal index, op, issued_ps, attempt, redeliver
            if index >= len(ops):
                return
            op = ops[index]
            index += 1
            issued_ps = -1
            attempt = redeliver = 0
            schedule(op.delay_ps, start)

        def start() -> None:
            nonlocal issued_ps
            now = sim.now
            first = issued_ps < 0
            if first:
                issued_ps = now
                if state["first_issue_ps"] < 0:
                    state["first_issue_ps"] = now
            if controller is not None and blocked(now, first):
                return
            if op.kind == "write":
                schedule(issue_ps, lsu.dcoh.write, WINDOW_BASE + op.addr, done)
            else:
                schedule(issue_ps, lsu.dcoh.read, WINDOW_BASE + op.addr, done)

        def done(_result) -> None:
            schedule(complete_ps, finish)

        def finish() -> None:
            now = sim.now
            if controller is not None and not delivered(now):
                return
            latencies.append(now - issued_ps)
            state["bytes"] += op.size
            state["last_done_ps"] = now
            issue_next()

        def blocked(now: int, first: bool) -> bool:
            """Count the attempt; retry or drop the op if its path is down."""
            nonlocal attempt
            if first:
                stats.record_attempt()
            if not controller.path_down(nodes, keys, now):
                return False
            if not controller.degraded:
                raise FaultActiveError(
                    f"{lsu.name}: op {op.kind} @0x{op.addr:x} hit an "
                    f"active fault at {now}ps (path nodes "
                    f"{', '.join(nodes)})"
                )
            if attempt < retry.max_retries:
                delay = retry.delay_ps(attempt)
                attempt += 1
                stats.record_retry()
                schedule(delay, start)
            else:
                stats.record_drop()
                issue_next()
            return True

        def delivered(now: int) -> bool:
            """Count a clean completion; retransmit or drop a corrupt one."""
            nonlocal redeliver
            corrupted = False
            for key in keys:
                corrupted = controller.corrupted(key, now) or corrupted
            if not corrupted:
                stats.record_completion(now)
                return True
            stats.record_corrupt()
            if not controller.degraded:
                raise FaultActiveError(
                    f"{lsu.name}: op {op.kind} @0x{op.addr:x} "
                    f"corrupted on the wire at {now}ps"
                )
            if redeliver < retry.max_retries:
                redeliver += 1
                stats.record_retry()
                start()  # retransmit re-pays the whole pipeline
            else:
                stats.record_drop()
                issue_next()
            return False

        issue_next()
        return state

    # ------------------------------------------------------------------
    # Supernode mode
    # ------------------------------------------------------------------
    @staticmethod
    def _drive_supernode(
        system, topology: Topology, ops: List[WorkloadOp], controller=None
    ) -> Dict[str, Dict[str, float]]:
        """Issue coherent ops one at a time through the legacy model.

        One op loop serves runs with and without a fault ``controller``;
        under one, each op goes through
        :meth:`_supernode_fault_policy`.
        """
        fabric_name = topology.by_kind("supernode.fabric")[0].name
        supernode = system.node(fabric_name)
        hosts = sorted(supernode.hosts)
        per_host: Dict[str, Dict[str, float]] = {
            host: {"accesses": 0.0, "latency_ps": 0.0} for host in hosts
        }
        if controller is not None:
            faulted_access = WorkloadDriver._supernode_fault_policy(
                supernode, fabric_name, controller
            )
        for op in ops:
            host = hosts[op.stream % len(hosts)]
            if controller is None:
                latency = supernode.coherent_access(
                    host, WINDOW_BASE + op.addr, exclusive=op.kind == "write"
                )
            else:
                latency = faulted_access(host, op)
                if latency is None:  # dropped
                    continue
            per_host[host]["accesses"] += 1.0
            per_host[host]["latency_ps"] += float(latency)

        series: Dict[str, Dict[str, float]] = {
            "accesses": {},
            "remote_accesses": {},
            "fabric_latency_us": {},
            "filter_rate": {},
        }
        for host in hosts:
            entry = supernode.hosts[host]
            agent = supernode.domain.locals[supernode._child_of[host]]
            series["accesses"][host] = per_host[host]["accesses"]
            series["remote_accesses"][host] = float(entry.remote_accesses)
            series["fabric_latency_us"][host] = per_host[host]["latency_ps"] / 1e6
            series["filter_rate"][host] = agent.filter_rate
        series["accesses"]["all"] = float(len(ops))
        series["remote_accesses"]["all"] = float(
            sum(supernode.hosts[h].remote_accesses for h in hosts)
        )
        series["fabric_latency_us"]["all"] = (
            sum(per_host[h]["latency_ps"] for h in hosts) / 1e6
        )
        total_local = sum(
            supernode.domain.locals[supernode._child_of[h]].local_hits for h in hosts
        )
        total_global = sum(
            supernode.domain.locals[supernode._child_of[h]].global_requests
            for h in hosts
        )
        series["filter_rate"]["all"] = (
            total_local / (total_local + total_global)
            if (total_local + total_global)
            else 0.0
        )
        if controller is not None:
            series["naks"] = {
                host: float(supernode.hosts[host].naks) for host in hosts
            }
            series["naks"]["all"] = float(
                sum(supernode.hosts[h].naks for h in hosts)
            )
        return series

    @staticmethod
    def _supernode_fault_policy(supernode, fabric_name: str, controller):
        """Fault-aware issue of one supernode op, on a virtual clock.

        Returns ``access(host, op)``, which issues ``op`` from ``host``
        and returns its paid latency, or ``None`` once the op is
        dropped.  Supernode accesses are synchronous, so fault
        windows are evaluated against an accumulated clock (think time +
        paid fabric latency + a fixed issue gap) kept in
        ``controller.end_ps``.  Down hosts NAK via
        :class:`~repro.core.supernode.HostDownError`; flapped links and
        a downed fabric raise
        :class:`~repro.faults.controller.FaultActiveError`; degraded
        mode turns both into bounded retry-with-backoff then drop.
        With an empty plan every op pays exactly the plain latency, so
        the core series stay bit-identical to a no-fault run.
        """
        from repro.core.supernode import HostDownError
        from repro.faults.controller import FaultActiveError

        keys = {
            host: tuple(sorted((host, fabric_name)))
            for host in supernode.hosts
        }
        retry = controller.retry
        stats = controller.stats

        def access(host: str, op: WorkloadOp) -> Optional[int]:
            key = keys[host]
            t = controller.end_ps + op.delay_ps + SUPERNODE_ISSUE_GAP_PS
            stats.record_attempt()
            attempt = 0
            redeliver = 0
            while True:
                controller.apply_supernode(supernode, t)
                try:
                    if controller.link_down(key, t) or controller.node_down(
                        fabric_name, t
                    ):
                        raise FaultActiveError(
                            f"path {key[0]}--{key[1]} is down at {t}ps"
                        )
                    latency = supernode.coherent_access(
                        host, WINDOW_BASE + op.addr,
                        exclusive=op.kind == "write",
                    )
                except (HostDownError, FaultActiveError):
                    if not controller.degraded:
                        raise
                    if attempt < retry.max_retries:
                        stats.record_retry()
                        t += retry.delay_ps(attempt)
                        attempt += 1
                        continue
                    stats.record_drop()
                    controller.end_ps = t
                    return None
                factor = controller.link_factor(key, t)
                paid = latency if factor == 1.0 else int(round(latency * factor))
                t += paid
                if controller.corrupted(key, t):
                    stats.record_corrupt()
                    if not controller.degraded:
                        raise FaultActiveError(
                            f"message on {key[0]}--{key[1]} corrupted at {t}ps"
                        )
                    if redeliver < retry.max_retries:
                        redeliver += 1
                        stats.record_retry()
                        continue  # retransmit pays another access
                    stats.record_drop()
                    controller.end_ps = t
                    return None
                stats.record_completion(t)
                controller.end_ps = t
                return paid

        return access

    @staticmethod
    def _drive_supernode_windowed(
        system, topology: Topology, batch: OpBatch, controller
    ) -> Dict[str, Dict[str, float]]:
        """Drive coherent traffic through the windowed conservative model.

        The batch is split into per-host substreams with array ops and
        handed to :func:`repro.sim.parallel.run_windowed_supernode`,
        whose one window step serves runs with and without a fault
        ``controller``; the series are rebuilt from the per-lane
        counters (the lanes never touch the shared supernode objects).
        """
        fabric_name = topology.by_kind("supernode.fabric")[0].name
        supernode = system.node(fabric_name)
        hosts = sorted(supernode.hosts)
        host_idx = batch.streams % len(hosts)
        lines = (WINDOW_BASE + batch.addrs) & ~np.int64(CACHELINE - 1)
        excl = (batch.kinds == KIND_WRITE).astype(np.int64)
        per_host_ops = {}
        for h, host in enumerate(hosts):
            mask = host_idx == h
            per_host_ops[host] = (
                lines[mask].tolist(),
                excl[mask].tolist(),
                batch.delays[mask].tolist(),
            )
        lanes = run_windowed_supernode(
            supernode, fabric_name, per_host_ops, controller=controller
        )

        series: Dict[str, Dict[str, float]] = {
            "accesses": {},
            "remote_accesses": {},
            "fabric_latency_us": {},
            "filter_rate": {},
        }
        total_local = 0
        total_global = 0
        for lane in lanes:
            series["accesses"][lane.host] = float(lane.accesses)
            series["remote_accesses"][lane.host] = float(lane.remote_accesses)
            series["fabric_latency_us"][lane.host] = lane.latency_ps / 1e6
            probes = lane.local_hits + lane.global_requests
            series["filter_rate"][lane.host] = (
                lane.local_hits / probes if probes else 0.0
            )
            total_local += lane.local_hits
            total_global += lane.global_requests
        series["accesses"]["all"] = float(len(batch))
        series["remote_accesses"]["all"] = float(
            sum(lane.remote_accesses for lane in lanes)
        )
        series["fabric_latency_us"]["all"] = (
            sum(lane.latency_ps for lane in lanes) / 1e6
        )
        series["filter_rate"]["all"] = (
            total_local / (total_local + total_global)
            if (total_local + total_global)
            else 0.0
        )
        if controller is not None:
            series["naks"] = {
                lane.host: float(lane.naks) for lane in lanes
            }
            series["naks"]["all"] = float(
                sum(lane.naks for lane in lanes)
            )
            # Fold the per-lane fault accounting back into the
            # controller so the availability/recovery tail in run()
            # works unchanged.  For each recovery time, the earliest
            # completion at-or-after it across all lanes is exactly the
            # settle-time input the synchronous path would record.
            stats = controller.stats
            stats.attempted = sum(l.attempted for l in lanes)
            stats.completed = sum(l.completed for l in lanes)
            stats.dropped = sum(l.dropped for l in lanes)
            stats.retries = sum(l.retries for l in lanes)
            stats.corrupted = sum(l.corrupted for l in lanes)
            merged: List[int] = []
            slots = len(lanes[0].min_after) if lanes else 0
            for j in range(slots):
                candidates = [
                    l.min_after[j]
                    for l in lanes
                    if l.min_after[j] >= 0
                ]
                if candidates:
                    merged.append(min(candidates))
            stats.completion_times_ps = merged
            controller.end_ps = max((lane.clock for lane in lanes), default=0)
        return series
