"""Traced runs: spans around the program's public calls, per-layer metrics.

The benchmark never edits the program.  A traced pass patches the calls
listed in :data:`FUNCTIONS` and :data:`METHODS` with wrappers that
record spans (name, start, end, parent id) in memory, and runs under
``repro.obs.profiler.profile()`` for exact per-component event counts
and sampled callback time.  Functions are patched in every ``repro``
module that bound them, because ``from ... import`` copies the name.

A span name doubles as the layer metric it feeds.  A wrapper records
only the outermost call of its name, so recursion (message codecs) and
helper calls within one layer make one span.  A span's self time is its
duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

#: (module, function, span name)
FUNCTIONS = [
    ("repro.rao.harness", "run_rao_comparison", "rao"),
    ("repro.rpc.harness", "run_rpc_comparison", "rpc"),
    ("repro.rpc.message", "generate_message", "rpc.gen"),
    ("repro.rpc.message", "encode_message", "rpc.codec"),
    ("repro.rpc.message", "decode_message", "rpc.codec"),
    ("repro.experiments.runner", "_execute_spec", "experiments.spec"),
    ("repro.experiments.stats", "mann_whitney_u", "experiments.stats"),
    ("repro.experiments.stats", "holm_bonferroni", "experiments.stats"),
    ("repro.experiments.stats", "holm_reject", "experiments.stats"),
    ("repro.experiments.stats", "cliffs_delta", "experiments.stats"),
    ("repro.experiments.stats", "a12", "experiments.stats"),
    ("repro.experiments.stats", "bootstrap_ci", "experiments.stats"),
    ("repro.experiments.stats", "bootstrap_diff_ci", "experiments.stats"),
    ("repro.experiments.rendering", "render_html_report", "experiments.render"),
    ("repro.experiments.report", "compare_runs", "experiments.render"),
]

#: (module, class, methods, span name, is a generator)
METHODS = [
    ("repro.sim.engine", "Simulator", ["run"], "sim.run", False),
    ("repro.system.builder", "SystemBuilder", ["build"], "system.build", False),
    ("repro.calibration.microbench", "CxlTestbench", None, "calibration", False),
    ("repro.workloads.base", "Workload", ["batch"], "workloads.gen", False),
    ("repro.workloads.driver", "WorkloadDriver", ["run"], "workloads.driver", False),
    ("repro.workloads.driver", "WorkloadDriver", ["_drive_lsus"], "workloads.lsu", False),
    ("repro.workloads.driver", "WorkloadDriver", ["_drive_supernode"], "workloads.supernode", False),
    ("repro.experiments.spec", "SweepSpec", ["expand"], "experiments.expand", False),
    ("repro.experiments.store", "ResultStore", ["append", "append_many"],
     "experiments.store_append", False),
    ("repro.experiments.store", "ResultStore", ["load", "latest", "ok_hashes"],
     "experiments.store_scan", False),
    ("repro.experiments.store", "ResultStore", ["iter_records"], "experiments.store_scan", True),
    ("repro.experiments.report", "RunReport", ["markdown"], "experiments.render", False),
    ("repro.experiments.report", "RunAnalysis", ["markdown"], "experiments.render", False),
    ("repro.obs.telemetry", "TelemetryWriter", ["emit"], "obs.telemetry", False),
]

#: Profiler component name (an owner's ``name``, else a qualname) ->
#: layer.  Names matching no row are reported as ``unmapped``.
COMPONENT_LAYERS = [
    (r"(^|\.)dcoh$|^Dcoh\.", "cxl"),                          # repro.cxl.dcoh
    (r"^LLC$|^LLC\.|(^|\.)(llc|hmc)$", "cache"),               # repro.cache.{llc,hmc}
    (r"^(LoadStoreUnit|DmaEngine|Pmu)\.|(^|\.)pmu$", "devices"),  # repro.devices
    (r"^(CxlRaoNic|PcieRaoNic)\.", "rao"),                     # repro.nic, driven by repro.rao
    (r"^WorkloadDriver\.", "workloads"),                       # repro.workloads.driver
]
PROFILED_LAYERS = ("cache", "cxl", "devices", "rao", "workloads", "unmapped")

#: Spans that only group layer spans: the pass, each paper experiment,
#: the sweep and analysis phases, and each in-process sweep spec.  Their
#: self time is host work under no layer span.
CONTAINER_SPANS = re.compile(r"^(pass|sweep|analysis|experiments\.spec|harness\..+)$")


def component_layer(component: str) -> str:
    for pattern, layer in COMPONENT_LAYERS:
        if re.search(pattern, component):
            return layer
    return "unmapped"


class EventCounter:
    """Counts engine events in untraced runs: one call per ``Simulator.run``."""

    def __init__(self):
        self.events = 0

    def __enter__(self) -> "EventCounter":
        from repro.sim.engine import Simulator

        self._original = original = Simulator.__dict__["run"]
        counter = self

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            executed = original(sim, *args, **kwargs)
            counter.events += executed
            return executed

        Simulator.run = run
        return self

    def __exit__(self, *_exc) -> None:
        from repro.sim.engine import Simulator

        Simulator.run = self._original


class Tracer:
    """In-memory spans plus the patches that record them."""

    def __init__(self):
        self.spans: List[list] = []  # [id, parent id or -1, name, start, end]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._active: Counter = Counter()
        self._undo: List[tuple] = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, perf_counter(), 0.0])
        self._stack.append(sid)
        self._active[name] += 1
        return sid

    def _exit(self, sid: int, name: str) -> None:
        self.spans[sid][4] = perf_counter()
        self._stack.pop()
        self._active[name] -= 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self._enter(name)
        try:
            yield
        finally:
            self._exit(sid, name)

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._active[name]:
                return fn(*args, **kwargs)
            sid = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                tracer._exit(sid, name)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Spans around each resumption of a generator, not its lifetime."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid = None if tracer._active[name] else tracer._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    if sid is not None:
                        tracer._exit(sid, name)
                yield item

        return wrapper

    # -- patches -------------------------------------------------------
    def patch_function(self, module_name: str, attr: str, name: str, **hooks) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self.wrap(original, name, **hooks)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def patch_method(self, cls: type, attr: str, name: str,
                     generator: bool = False, **hooks) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            patched = staticmethod(self.wrap(raw.__func__, name, **hooks))
        elif generator:
            patched = self.wrap_generator(raw, name)
        else:
            patched = self.wrap(raw, name, **hooks)
        setattr(cls, attr, patched)
        self._undo.append((cls, attr, raw))

    def install(self) -> None:
        from repro.cache.mesi import ProtocolError

        def driver_done(measurement) -> None:
            self.counts["workloads.ops"] += measurement.ops

        def driver_raised(exc: BaseException) -> None:
            if isinstance(exc, ProtocolError):
                self.counts["workloads.protocol_errors"] += 1

        hooks = {"workloads.driver": {"on_result": driver_done, "on_error": driver_raised}}
        for module_name, attr, name in FUNCTIONS:
            self.patch_function(module_name, attr, name)
        for module_name, cls_name, methods, name, generator in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            if methods is None:  # every function the class defines
                methods = [k for k, v in vars(cls).items()
                           if callable(v) or isinstance(v, staticmethod)]
            for method in methods:
                self.patch_method(cls, method, name, generator, **hooks.get(name, {}))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def summary(self):
        """Per span name: call count, total seconds and self seconds."""
        covered: Dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        count: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for sid, _parent, name, start, end in self.spans:
            count[name] += 1
            total[name] += end - start
            own[name] += end - start - covered[sid]
        return count, total, own

    def write(self, path: Path) -> None:
        """Chrome trace-event JSON (loads in Perfetto); ``args`` keep ids."""
        origin = self.spans[0][3] if self.spans else 0.0
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": sid, "parent": parent}}
            for sid, parent, name, start, end in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def profiler_layers(profiler) -> Dict[str, float]:
    """Exact events and estimated callback seconds per profiled layer.

    Callback seconds are each layer's share of the sampled callback
    time, applied to the profiled engine drain time.
    """
    events: Counter = Counter()
    share: Counter = Counter()
    for row in profiler.attribution():
        layer = component_layer(str(row["component"]))
        events[layer] += row["events"]
        share[layer] += row["time_frac"]
    metrics: Dict[str, float] = {}
    for layer in PROFILED_LAYERS:
        metrics[f"{layer}.events"] = float(events[layer])
        metrics[f"{layer}.callback_s"] = share[layer] * profiler.run_wall_s
    return metrics


def layer_metrics(tracer: Tracer, profiler, result, experiment_ids) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    count, total, own = tracer.summary()
    m: Dict[str, float] = {
        "sim.run_calls": float(count["sim.run"]),
        "sim.events": float(profiler.total_events),
        "sim.run_s": total["sim.run"],
        "sim.events_per_s": (
            profiler.total_events / total["sim.run"] if total["sim.run"] else 0.0
        ),
    }
    m.update(profiler_layers(profiler))
    m.update({
        "rao.self_s": own["rao"],
        "rpc.messages": float(count["rpc.gen"]),
        "rpc.gen_s": total["rpc.gen"],
        "rpc.codec_s": total["rpc.codec"],
        "rpc.self_s": own["rpc"],
        "system.builds": float(count["system.build"]),
        "system.build_s": total["system.build"],
        "workloads.ops": float(tracer.counts["workloads.ops"]),
        "workloads.gen_s": total["workloads.gen"],
        "workloads.lsu_s": total["workloads.lsu"],
        "workloads.supernode_s": total["workloads.supernode"],
        "workloads.driver_self_s": own["workloads.driver"],
        "workloads.protocol_errors": float(tracer.counts["workloads.protocol_errors"]),
        "calibration.self_s": own["calibration"],
    })
    for name in experiment_ids:
        m[f"harness.{name}.wall_s"] = total[f"harness.{name}"]
    extra = result.extra
    m.update({
        "experiments.specs": extra.get("experiments.specs", 0.0),
        "experiments.failed_specs": extra.get("experiments.failed_specs", 0.0),
        "experiments.retries": extra.get("experiments.retries", 0.0),
        "experiments.expand_s": total["experiments.expand"],
        "experiments.spec_wall_s": extra.get("experiments.spec_wall_s", 0.0),
        "experiments.exec_busy_frac": extra.get("experiments.exec_busy_frac", 0.0),
        "experiments.store_append_s": total["experiments.store_append"],
        "experiments.store_scan_s": total["experiments.store_scan"],
        "experiments.comparisons": extra.get("experiments.comparisons", 0.0),
        "experiments.stats_s": total["experiments.stats"],
        "experiments.render_s": own["experiments.render"],
        "obs.telemetry_events": float(count["obs.telemetry"]),
        "obs.telemetry_s": total["obs.telemetry"],
        "host.unattributed_s": sum(v for k, v in own.items() if CONTAINER_SPANS.match(k)),
        "failed_frac": result.failed / max(result.units, 1),
    })
    return {k: float(v) for k, v in m.items()}
