#!/usr/bin/env python3
"""Profile the simulator hot path with cProfile.

Runs a small RPC simulation once, on the default path every sweep and
experiment takes, and prints the top functions by self-time.  Use this
script as the template for hunting new hot spots: whatever leads the
"tottime" column is what the next optimization should attack.  For
recorded end-to-end and per-layer numbers, use ``perfbench/run.py``.

Run:  python examples/profile_hotpath.py
"""

import cProfile
import io
import pstats
import time

from repro.config import fpga_system
from repro.rpc.harness import run_rpc_comparison


def run_workload():
    """A small, deterministic RPC simulation (two HyperProtoBench sets)."""
    return run_rpc_comparison(fpga_system(), benches=("Bench0", "Bench1"), messages=60)


def main(top: int = 12) -> None:
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    results = run_workload()
    profiler.disable()
    wall = time.perf_counter() - start

    sink = io.StringIO()
    stats = pstats.Stats(profiler, stream=sink).sort_stats("tottime")
    stats.print_stats(top)
    print(f"=== RPC comparison: {wall * 1e3:.1f} ms wall ===")
    # Keep only the table (drop the pstats preamble noise).
    lines = sink.getvalue().splitlines()
    table_start = next(i for i, l in enumerate(lines) if "ncalls" in l)
    print("\n".join(lines[table_start : table_start + top + 1]))
    speedup = results["Bench0"].deser_speedup
    print(f"(sanity: Bench0 deserialization speedup = {speedup:.2f}x)")


if __name__ == "__main__":
    main()
