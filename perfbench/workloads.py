"""The benchmark's three workloads: inputs from a seed, one pass, checks.

Each workload is built once per process by :func:`setup` (imports,
registry population and input construction: the benchmark's set-up
time) and then executed pass after pass by ``run_pass``.  A pass runs
every unit once, times it and checks its output: a unit is a paper
experiment, a ``WorkloadDriver.run`` call, or a sweep spec.  Timed
phases are recorded in ``PassResult.phase_s``.  Between units the pass
times a fixed reference loop (:class:`HostSpeed`), which gives how fast
the shared host ran during the pass; ``metrics`` turns the passes of a
run into end-to-end metrics in host-normalised seconds, the median over
passes of each pass's time at the reference speed (:func:`norm_s`).

Outputs are checked two ways:

* pins -- ``pins.json`` maps each unit's full input to a digest of its
  simulated output, recorded at the default seed with ``--pin``.  A pin
  applies whenever a unit's input matches, so paper-all (which has no
  seed-dependent input) is pinned on every seed;
* invariants -- op accounting that must hold on any seed.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

#: coherent-mix's LSU-mode write-sharing runs: rw-mix seeds per topology.
RW_MIX_SEEDS = 3
#: sweep-analyze's repeat count per scenario.
SWEEP_REPEATS = 40
#: sweep-analyze's local workers: one, so the sweep runs in this
#: process (the pool backend's serial path) and nothing else competes
#: for the host's cores.
SWEEP_JOBS = 1
#: Least host time between two reference loops inside the sweep.
SWEEP_SAMPLE_INTERVAL_S = 0.2
#: Iterations of the reference loop's two halves, and its time on the
#: 2-vCPU host the benchmark was tuned on, at its fastest:
#: host-normalised seconds are seconds on that host at that speed.
REF_LOOP_ITERATIONS = 100_000
REF_LOOP_EVENTS = 6_000
REF_LOOPS_PER_SAMPLE = 3
REF_LOOP_NOMINAL_S = 0.0103
#: Suffix of coherent-mix's phases that turn a measurement into its
#: record (``to_dict``) and table (``render``).
REPORT = "/report"


def digest(value: object) -> str:
    """Short content digest of a JSON-representable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_pins() -> Dict[str, str]:
    """Pinned output digests; units that raised when pinned have none."""
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())["outputs"]


def pin(workload) -> int:
    """Record one pass's outputs into ``pins.json``, keeping other workloads'."""
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    prefix = f"{workload.name}/"
    result = workload.run_pass()
    for section, new in (("outputs", result.outputs), ("raised", result.raised)):
        kept = {k: v for k, v in pins.get(section, {}).items() if not k.startswith(prefix)}
        pins[section] = dict(sorted({**kept, **new}.items()))
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"pinned {len(result.outputs)} outputs, {len(result.raised)} raised units")
    return 0


@dataclass
class PassResult:
    """What one pass of a workload did and how long each phase took."""

    phase_s: Dict[str, float] = field(default_factory=dict)  # host seconds
    phase_factor: Dict[str, float] = field(default_factory=dict)  # HostSpeed factors
    ref_samples: List[float] = field(default_factory=list)  # reference loop seconds
    units: int = 0
    completed: int = 0
    failed: int = 0            # raised, broke an invariant or mismatched a pin
    incorrect: int = 0         # broke an invariant or mismatched a pin
    sim_ops: int = 0           # completed simulated ops
    mape: Optional[float] = None
    outputs: Dict[str, str] = field(default_factory=dict)  # key -> digest
    raised: Dict[str, str] = field(default_factory=dict)   # key -> exception
    failed_keys: Set[str] = field(default_factory=set)
    extra: Dict[str, float] = field(default_factory=dict)  # per-layer facts
    problems: List[str] = field(default_factory=list)

    def unit_done(self, key: str, output: str, pins: Dict[str, str],
                  broken: List[str]) -> bool:
        """Account one unit that returned; True when it is correct."""
        self.units += 1
        self.outputs[key] = output
        pinned = pins.get(key)
        if pinned is not None and pinned != output:
            broken = broken + [f"output {output} differs from pin {pinned}"]
        if broken:
            self.failed += 1
            self.failed_keys.add(key)
            self.incorrect += 1
            self.problems.append(f"{key}: {'; '.join(broken)}")
            return False
        self.completed += 1
        return True

    def normalised_s(self, phases=None) -> float:
        """The phases' summed host-normalised seconds (all phases by default)."""
        names = self.phase_s if phases is None else phases
        return sum(self.phase_s[n] / self.phase_factor[n] for n in names)

    @property
    def host_factor(self) -> float:
        """How much slower than at full speed the host ran the whole pass."""
        return sum(self.phase_s.values()) / self.normalised_s()

    def unit_raised(self, key: str, exc: BaseException, pins: Dict[str, str]) -> None:
        """Account one unit that raised.

        A raise is a failure.  It is also incorrect when a pin says the
        unit produced output at the default seed.
        """
        self.units += 1
        self.failed += 1
        self.failed_keys.add(key)
        self.raised[key] = f"{type(exc).__name__}: {exc}"
        self.problems.append(f"{key}: raised {self.raised[key]}")
        if key in pins:
            self.incorrect += 1


def tally(checks: List[PassResult]) -> Tuple[int, int, List[str]]:
    """Distinct units attempted and failed over a run's passes, and the
    units whose output differed between passes.

    Every pass runs the same units on the same inputs, so a run's counts
    do not depend on how many passes fit in it.  A unit fails if it
    failed in any pass; a unit whose output (or exception) is not the
    same in every pass is nondeterministic, which a correct run never is.
    """
    seen: Dict[str, Set[str]] = {}
    failed: Set[str] = set()
    for check in checks:
        for key, output in list(check.outputs.items()) + list(check.raised.items()):
            seen.setdefault(key, set()).add(output)
        failed |= check.failed_keys
    unsteady = sorted(k for k, outputs in seen.items() if len(outputs) > 1)
    return len(seen), len(failed | set(unsteady)), unsteady


class _Event:
    __slots__ = ("time", "key")

    def __init__(self, time: int, key: int):
        self.time = time
        self.key = key


def ref_loop_s() -> float:
    """One run of a fixed pure-Python loop: how fast this host is right now.

    About half its time is integer arithmetic; the other half is heap,
    small-object and dict work like a discrete-event simulator's.  Load
    on the shared host slows the second half more than the first, and
    the benchmark's passes about as much as the whole loop.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i * i
    heap: list = []
    totals: Dict[int, int] = {}
    for i in range(REF_LOOP_EVENTS):
        heapq.heappush(heap, (i * 7919 % 4093, i, _Event(i, i & 255)))
        if i & 1:
            when, _, event = heapq.heappop(heap)
            totals[event.key] = totals.get(event.key, 0) + when
    return time.perf_counter() - start


class HostSpeed:
    """How fast the shared host ran, interval by interval.

    A sample is the median of :data:`REF_LOOPS_PER_SAMPLE` runs of the
    reference loop, taken at construction and at each ``sample()``
    call.  The host time between two samples is weighted by the mean of
    the two, and ``factor()`` is the time-weighted reference time since
    its previous call, over :data:`REF_LOOP_NOMINAL_S`: 1.0 on the host
    at its fastest, 1.3 when everything ran 30% slower.  ``spent`` is the
    time the samples took, for phases that contain them.  ``span`` wraps
    each sample, so traced runs keep it out of the self time of the span
    around it.
    """

    def __init__(self, span=None):
        self.span = span or (lambda _name: nullcontext())
        self.weighted = 0.0
        self.weight = 0.0
        self.spent = 0.0
        self.samples: List[float] = []
        self._last = time.perf_counter()
        self._take()

    def _take(self) -> float:
        start = time.perf_counter()
        with self.span("host.ref"):
            ref = statistics.median(ref_loop_s() for _ in range(REF_LOOPS_PER_SAMPLE))
        self.samples.append(ref)
        self._last = time.perf_counter()
        self.spent += self._last - start
        return ref

    def sample(self, min_interval_s: float = 0.0) -> None:
        """Sample, unless less than ``min_interval_s`` passed since the last."""
        elapsed = time.perf_counter() - self._last
        if elapsed < min_interval_s:
            return
        before = self.samples[-1]
        self.weighted += elapsed * (before + self._take()) / 2
        self.weight += elapsed

    def factor(self) -> float:
        """The host factor of the intervals sampled since the last call."""
        value = self.weighted / self.weight / REF_LOOP_NOMINAL_S
        self.weighted = self.weight = 0.0
        return value


def norm_s(passes: List[PassResult], phases=None) -> float:
    """Median over passes of the phases' summed host-normalised seconds.

    On a shared host the same pass runs up to 75% slower for minutes at
    a time, a slowdown the reference loop run between units shows too;
    dividing each phase by the :class:`HostSpeed` factor measured around
    it removes most of it, and the median over passes the rest.
    """
    return statistics.median(p.normalised_s(phases) for p in passes)


def calibration_check(pins: Dict[str, str]) -> Tuple[float, PassResult]:
    """Overall MAPE and output check of one untimed ``mape`` experiment.

    For workloads whose pass has no ``mape`` unit of its own; the output
    is checked against paper-all's pin of the same experiment.  The MAPE
    is in-sample: every point of ``calibration/reference.py`` feeds it
    and none is held back.
    """
    from repro.harness.experiments import run_experiment

    out = run_experiment("mape")
    check = PassResult()
    check.unit_done("paper-all/mape", digest(out.series), pins, [])
    return out.series["overall"]["mape"], check


class PaperAll:
    """The 13 paper experiments at default sizes, as ``repro run all``."""

    name = "paper-all"

    def __init__(self, seed: int, out_dir: Path):
        from repro.harness.experiments import PAPER_EXPERIMENT_IDS

        self.seed = seed  # selects nothing: the paper experiments have fixed inputs
        self.ids = list(PAPER_EXPERIMENT_IDS)
        self.pins = load_pins()

    def run_pass(self, on_experiment=None, on_phase=None, event_counter=None,
                 **_hooks) -> PassResult:
        from repro.harness.experiments import run_experiment, shared_rpc_comparison

        # fig18a/b share one memoised RPC pass; drop it so every pass
        # pays for fig18a the way a fresh `repro run all` does.
        shared_rpc_comparison.cache_clear()
        result = PassResult()
        host = HostSpeed(on_phase)
        events_before = event_counter.events if event_counter else 0
        for name in self.ids:
            key = f"paper-all/{name}"
            start = time.perf_counter()
            try:
                if on_experiment is None:
                    out = run_experiment(name)
                else:
                    out = on_experiment(name, run_experiment)
            except Exception as exc:  # count and go on to the next unit
                result.phase_s[key] = time.perf_counter() - start
                result.unit_raised(key, exc, self.pins)
            else:
                result.phase_s[key] = time.perf_counter() - start
                result.unit_done(key, digest(out.series), self.pins, [])
                if name == "mape":
                    result.mape = out.series["overall"]["mape"]
            host.sample()
            result.phase_factor[key] = host.factor()
        if event_counter is not None:
            result.sim_ops = event_counter.events - events_before
        result.ref_samples = host.samples
        return result

    @staticmethod
    def metrics(passes: List[PassResult]) -> Dict[str, float]:
        wall = norm_s(passes)
        return {
            "wall_s": wall,
            "sim_ops_per_s": statistics.median(p.sim_ops for p in passes) / wall,
            "specs_per_s": statistics.median(p.completed for p in passes) / wall,
            "analyze_s": norm_s(passes, ["paper-all/mape"]),
        }


def op_invariants(parts: Dict[str, float], ops: float, reads: float, writes: float) -> List[str]:
    """Reads + writes equal ops; per-stream (or per-host) counts sum to the total."""
    broken = []
    if reads + writes != ops:
        broken.append(f"reads {reads} + writes {writes} != ops {ops}")
    streams = sum(v for k, v in parts.items() if k != "all")
    if streams != parts["all"] or parts["all"] != ops:
        broken.append(f"per-stream sum {streams} / all {parts['all']} != ops {ops}")
    return broken


class CoherentMix:
    """``WorkloadDriver.run`` calls on fresh systems: LSU fan-outs and a supernode.

    Unit seeds derive from the workload seed; the write-sharing rw-mix
    runs keep them even where they raise ``ProtocolError``.
    """

    name = "coherent-mix"
    profile = "fpga"

    def __init__(self, seed: int, out_dir: Path):
        from repro.config import system_by_name
        from repro.system import resolve_topology
        from repro.workloads import WorkloadDriver, resolve_workload

        self.seed = seed
        rng = random.Random(seed)
        units: List[Tuple[str, str, Optional[int], int]] = []
        for topology, streams in (("fanout(4)", 4), ("fanout-2", 2)):
            units.append(("zipf(20000,1.1)", topology, streams, rng.randrange(1 << 31)))
            for _ in range(RW_MIX_SEEDS):
                units.append(("rw-mix(10000,0.7)", topology, streams, rng.randrange(1 << 31)))
            units.append(("producer-consumer(5000,64)", topology, None, rng.randrange(1 << 31)))
        for ref, streams in (("rw-mix(20000,0.7)", 4), ("zipf(20000,1.1)", 4),
                             ("producer-consumer(5000,64)", None)):
            units.append((ref, "supernode(4)", streams, rng.randrange(1 << 31)))
        self.units = units
        for _ref, topology, _streams, _seed in units:
            resolve_topology(topology)
        self.attempted_ops = sum(len(resolve_workload(ref).batch(s)) for ref, _, _, s in units)
        self.driver = WorkloadDriver(system_by_name(self.profile))
        self.pins = load_pins()

    def run_pass(self, on_phase=None, **_hooks) -> PassResult:
        result = PassResult()
        host = HostSpeed(on_phase)
        for ref, topology, streams, seed in self.units:
            key = f"coherent-mix/{ref}@{topology}/streams={streams}/seed={seed}"
            start = time.perf_counter()
            try:
                m = self.driver.run(ref, topology=topology, seed=seed, streams=streams)
            except Exception as exc:  # count (ProtocolError too) and go on
                result.phase_s[key] = time.perf_counter() - start
                result.unit_raised(key, exc, self.pins)
                host.sample()
                result.phase_factor[key] = host.factor()
                continue
            result.phase_s[key] = time.perf_counter() - start
            start = time.perf_counter()  # the record and the table a user reads
            record = m.to_dict()
            m.render()
            result.phase_s[key + REPORT] = time.perf_counter() - start
            host.sample()
            result.phase_factor[key] = result.phase_factor[key + REPORT] = host.factor()
            parts = m.series["accesses" if m.mode == "supernode" else "ops"]
            broken = op_invariants(parts, m.ops, m.reads, m.writes)
            if result.unit_done(key, digest(record), self.pins, broken):
                result.sim_ops += m.ops
        result.ref_samples = host.samples
        return result

    def metrics(self, passes: List[PassResult]) -> Dict[str, float]:
        runs = [k for k in passes[0].phase_s if not k.endswith(REPORT)]
        reports = [k for k in passes[0].phase_s if k.endswith(REPORT)]
        work = norm_s(passes, runs)
        ops = statistics.median(p.sim_ops for p in passes)
        # Projected to every attempted op (run) at the measured rate, so
        # a fix that lets a raising run finish does not read as a
        # slowdown, and the number of runs that raise on a seed does not
        # move the figures.
        report = norm_s(passes, reports) * len(self.units) / max(len(reports), 1)
        wall = work * self.attempted_ops / max(ops, 1) + report
        return {
            "wall_s": wall,
            "sim_ops_per_s": ops / work,
            "specs_per_s": len(self.units) / wall,
            "analyze_s": report,
        }


class SweepAnalyze:
    """A repeat sweep of small seeded specs, then the analysis path."""

    name = "sweep-analyze"

    def __init__(self, seed: int, out_dir: Path):
        from repro.experiments import SweepSpec

        self.seed = seed
        self.sweep = SweepSpec.from_dict({
            "name": "perfbench-sweep-analyze",
            "repeats": SWEEP_REPEATS,
            "base_seed": seed,
            "experiments": [
                {
                    "experiment": "workload-mix",
                    "params": {"workload": "zipf(256,1.1)", "streams": 4},
                    "grid": {"topology": ["fanout(2)", "fanout(4)", "fanout(8)"]},
                },
                {
                    "experiment": "supernode-workload",
                    "params": {"hosts": 4, "streams": 4},
                    "grid": {"workload": ["zipf(256,1.1)", "rw-mix(256,0.7)"]},
                },
            ],
        })
        self.sweep.validate()
        self.expected_specs = len({spec.spec_hash for spec in self.sweep.expand()})
        self.jobs = SWEEP_JOBS
        self.runs_dir = out_dir / "runs"
        self.pins = load_pins()
        self._passes = 0

    def run_pass(self, on_phase=None, **_hooks) -> PassResult:
        from repro.experiments import RunReport, analyze_run, compare_runs, run_sweep
        from repro.experiments.rendering import render_html_report

        phase = on_phase or (lambda _name: nullcontext())
        self._passes += 1
        run_dir = self.runs_dir / f"{self.seed}-{os.getpid()}-{self._passes}"
        shutil.rmtree(run_dir, ignore_errors=True)
        result = PassResult()
        host = HostSpeed(on_phase)
        try:
            refs_before = host.spent
            start = time.perf_counter()
            with phase("sweep"):
                outcome = run_sweep(
                    self.sweep, run_dir, jobs=self.jobs, force=True,
                    progress=lambda _line: host.sample(SWEEP_SAMPLE_INTERVAL_S),
                )
                host.sample()
            swept = time.perf_counter()
            sweep_refs = host.spent - refs_before
            sweep_factor = host.factor()
            with phase("analysis"):
                analysis = analyze_run(run_dir)
                analysis.markdown()
                host.sample()
                render_html_report(analysis)
                host.sample()
                report = RunReport(run_dir)
                report.markdown()
                host.sample()
                compare_runs(run_dir, run_dir)
                host.sample()
            analysis_refs = host.spent - refs_before - sweep_refs
            result.phase_s = {
                "sweep": swept - start - sweep_refs,
                "analysis": time.perf_counter() - swept - analysis_refs,
            }
            result.phase_factor = {"sweep": sweep_factor, "analysis": host.factor()}
            result.ref_samples = host.samples
            # report.records is the store's newest record per spec, read back from disk
            self._account(outcome, result, stored=len(report.records))
            result.extra["experiments.comparisons"] = float(len(analysis.comparisons))
            result.extra["experiments.retries"] = float(_retries(run_dir))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        result.extra["experiments.exec_busy_frac"] = (
            result.extra["experiments.spec_wall_s"] / (self.jobs * result.phase_s["sweep"])
        )
        return result

    def _account(self, outcome, result: PassResult, stored: int) -> None:
        """Check the sweep's accounting, then each executed spec's output.

        Under ``force=True`` every distinct expanded spec runs, none is
        cached, and the store holds one record per executed spec
        (``stored``).
        """
        records = outcome.executed
        expected = (self.expected_specs, 0, len(records))
        if (outcome.total, outcome.cached, stored) != expected:
            result.incorrect += 1
            result.problems.append(
                f"sweep total {outcome.total}, cached {outcome.cached}, stored "
                f"{stored} != expected (specs, 0, executed) {expected}"
            )
        for record in records:
            params = json.dumps(record.params, sort_keys=True, separators=(",", ":"))
            key = f"sweep-analyze/{record.experiment}{params}"
            if not record.ok:
                result.unit_raised(key, RuntimeError(record.error), self.pins)
                continue
            counts = record.series["counts"]
            parts = record.series["ops" if record.experiment == "workload-mix" else "accesses"]
            broken = op_invariants(parts, counts["ops"], counts["reads"], counts["writes"])
            if result.unit_done(key, digest(record.series), self.pins, broken):
                result.sim_ops += int(counts["ops"])
        result.extra["experiments.specs"] = float(len(records))
        result.extra["experiments.failed_specs"] = float(len(outcome.failed))
        result.extra["experiments.spec_wall_s"] = sum(r.wall_time_s for r in records)

    @staticmethod
    def metrics(passes: List[PassResult]) -> Dict[str, float]:
        sweep = norm_s(passes, ["sweep"])
        analysis = norm_s(passes, ["analysis"])
        return {
            "wall_s": sweep + analysis,
            "sim_ops_per_s": statistics.median(p.sim_ops for p in passes) / sweep,
            "specs_per_s": statistics.median(p.completed for p in passes) / sweep,
            "analyze_s": analysis,
        }


def _retries(run_dir: Path) -> int:
    from repro.obs.telemetry import read_events

    events, _skipped = read_events(run_dir)
    return sum(1 for e in events if e["kind"] == "task_retried")


WORKLOADS = {cls.name: cls for cls in (PaperAll, CoherentMix, SweepAnalyze)}


def setup(name: str, seed: int, out_dir: Path):
    """Import, populate registries and build the inputs of one workload."""
    return WORKLOADS[name](seed, out_dir)
