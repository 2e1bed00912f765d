#!/usr/bin/env python3
"""Supernode models side by side: legacy calendar vs windowed.

Drives the same coherent workloads through a 4-host supernode on the
legacy synchronous calendar (``sim_parallel=0``) and on the windowed
conservative model (``sim_parallel=1``), then compares wall clock and
``remote_accesses``.  The models agree on read-only streams and differ
slightly on write-sharing ones, where the windowed model delivers
another host's invalidation at the next window barrier.

Run:  python examples/parallel_supernode.py
"""

import time

from repro.config import asic_system
from repro.workloads import WorkloadDriver

TOPOLOGY = "supernode(4)"
WORKLOADS = ("uniform(40000,2048)", "rw-mix(10000,0.7)")


def run(driver, workload, sim_parallel):
    start = time.perf_counter()
    measurement = driver.run(
        workload,
        topology=TOPOLOGY,
        seed=1234,
        streams=4,
        sim_parallel=sim_parallel,
    )
    return measurement, time.perf_counter() - start


def main():
    driver = WorkloadDriver(asic_system())
    for workload in WORKLOADS:
        print(f"== {workload} through {TOPOLOGY} ==")
        legacy, legacy_s = run(driver, workload, sim_parallel=0)
        windowed, windowed_s = run(driver, workload, sim_parallel=1)
        for label, measurement, seconds in (
            ("legacy calendar", legacy, legacy_s),
            ("windowed model ", windowed, windowed_s),
        ):
            remote = measurement.series["remote_accesses"]["all"]
            print(f"{label}: {seconds:.3f}s "
                  f"({measurement.ops / seconds:,.0f} ops/s), "
                  f"remote_accesses={remote:,.0f}")
        base = legacy.series["remote_accesses"]["all"]
        delta = windowed.series["remote_accesses"]["all"] - base
        print(f"windowed vs legacy: {legacy_s / windowed_s:.1f}x faster, "
              f"remote_accesses {100 * delta / base:+.2f}%")
        print()


if __name__ == "__main__":
    main()
