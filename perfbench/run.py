"""Benchmark of the SimCXL reproduction, run from the repository root.

    python3 perfbench/run.py --workload paper-all --seed 1 --seconds 30 --trace 0

Runs passes of one workload (see ``workloads.py`` and ``NOTES.md``) for
``--seconds`` seconds, checks every unit's output, and prints one JSON
line last: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are BENCHMARK.json's end-to-end metrics, from
untraced passes; with ``--trace 1`` they are its per-layer metrics,
from traced passes alternated with untraced ones.  Times are
host-normalised seconds (``workloads.HostSpeed``), except the
``host.import_s`` and ``host.ref_loop_s`` facts about the host itself.

``--pin`` records the outputs of one pass into ``pins.json`` instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracing import EventCounter, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record one pass's outputs into pins.json")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up sample, then exit
    return parser.parse_args(argv)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def setup_sample(args) -> float:
    """Host-normalised seconds from spawning a fresh interpreter to a
    set-up workload; the reference loop runs just before and after."""
    host = wl.HostSpeed()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up sample exited {proc.returncode}: {line!r}")
    host.sample()
    return elapsed / host.factor()


def peak_rss_mb() -> float:
    """Peak RSS of this process or, if larger, of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def timed_pass(workload, **hooks):
    start = time.perf_counter()
    result = workload.run_pass(**hooks)
    return result, time.perf_counter() - start


def normalised(metrics, factor: float):
    """Per-layer metrics of one pass with host seconds normalised."""
    out = {}
    for key, value in metrics.items():
        if key.endswith("_per_s"):
            value *= factor
        elif key.endswith("_s"):
            value /= factor
        out[key] = value
    return out


def untraced(workload, seconds: float):
    """Untraced passes for ``seconds``; end-to-end metrics and checks."""
    passes = []
    start = time.perf_counter()
    with EventCounter() as counter:
        while True:
            gc.collect()
            iteration = time.perf_counter()
            result, elapsed = timed_pass(workload, event_counter=counter)
            passes.append(result)
            print(f"perfbench: pass {len(passes)}: {elapsed:.3f} s, host factor "
                  f"{result.host_factor:.3f}", file=sys.stderr)
            now = time.perf_counter()
            if now - start + (now - iteration) > seconds:
                break
    metrics = workload.metrics(passes)
    checks = list(passes)
    mape = passes[-1].mape
    if mape is None:  # the pass has no `mape` experiment: run it once, untimed
        mape, check = wl.calibration_check(workload.pins)
        checks.append(check)
    metrics["sim_error_pct"] = mape * 100.0
    return metrics, checks


def traced(workload, seconds: float):
    """Traced passes alternated with untraced ones, for ``seconds``."""
    from repro.harness.experiments import PAPER_EXPERIMENT_IDS
    from repro.obs.profiler import profile

    def on_experiment(name, run):
        with tracer.span(f"harness.{name}"):
            return run(name)

    per_pass, checks, plain_s, traced_s = [], [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        result, plain_elapsed = timed_pass(workload)
        checks.append(result)
        plain_s.append(result.normalised_s())
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            with profile() as profiler:
                with tracer.span("pass"):
                    result, elapsed = timed_pass(
                        workload, on_experiment=on_experiment, on_phase=tracer.span)
        finally:
            tracer.restore()
        checks.append(result)
        traced_s.append(result.normalised_s())
        per_pass.append(normalised(
            layer_metrics(tracer, profiler, result, PAPER_EXPERIMENT_IDS),
            result.host_factor))
        if time.perf_counter() - start + plain_elapsed + elapsed > seconds:
            break
    tracer.write(OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json")
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["host.tracing_overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    metrics["host.ref_loop_s"] = statistics.median(s for c in checks for s in c.ref_samples)
    return metrics, checks


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.perf_counter()
    workload = wl.setup(args.workload, args.seed, OUT_DIR)
    import_s = time.perf_counter() - import_start
    if args.setup_only:
        print("ready", flush=True)
        return 0
    if args.pin:
        return wl.pin(workload)

    end_to_end, per_layer = declared_metrics()
    if args.trace:
        metrics, checks = traced(workload, args.seconds)
        metrics["host.import_s"] = import_s
        units = per_layer
    else:
        metrics, checks = untraced(workload, args.seconds)
        metrics["setup_s"] = statistics.median(setup_sample(args) for _ in range(SETUP_SAMPLES))
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = end_to_end
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    attempted, failed, unsteady = wl.tally(checks)
    problems = {p for c in checks for p in c.problems}
    problems |= {f"{key}: output differs between passes" for key in unsteady}
    for problem in sorted(problems):
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not unsteady and all(c.incorrect == 0 for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
