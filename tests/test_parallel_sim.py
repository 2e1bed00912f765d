"""Windowed supernode model (``sim_parallel=1``): contracts and validation.

The contracts under test: ``sim_parallel`` accepts exactly ``0`` (the
legacy calendar) and ``1`` (the windowed model) in the driver, the
sweep spec and the CLI; the windowed model is deterministic; a host
with an empty calendar never stalls the window loop; the legacy and
windowed models agree on series schema and op placement; every fault
plan keeps the op accounting closed in both models; and strict mode
raises its typed errors out of a windowed run.  The committed goldens
in ``test_supernode_goldens.py`` pin the measurements themselves.
"""

import pytest

from cli_helpers import run_cli
from repro.config import asic_system
from repro.core.supernode import HostDownError
from repro.experiments.spec import SpecError, SweepSpec
from repro.faults.controller import FaultActiveError
from repro.faults.plan import fault_plan_names
from repro.workloads import WorkloadDriver, WorkloadDriverError


def _run(topology, workload, sim_parallel, seed=77, **kwargs):
    return WorkloadDriver(asic_system()).run(
        workload, topology=topology, seed=seed, streams=4,
        sim_parallel=sim_parallel, **kwargs,
    )


def test_sim_parallel_zero_matches_omitting_the_parameter():
    driver = WorkloadDriver(asic_system())
    plain = driver.run("zipf(128,1.2)", topology="supernode(2)", seed=5, streams=2)
    zero = driver.run(
        "zipf(128,1.2)", topology="supernode(2)", seed=5, streams=2,
        sim_parallel=0,
    )
    assert zero.series == plain.series
    assert (zero.ops, zero.reads, zero.writes) == (
        plain.ops, plain.reads, plain.writes
    )


# ------------------------ windowed internals --------------------------
def test_empty_host_calendar_does_not_stall_the_barrier():
    # Every op lands on stream 0 of a 4-host supernode: three lanes have
    # empty calendars from the first window on, and the window loop must
    # skip them instead of stepping forever.
    driver = WorkloadDriver(asic_system())
    measurement = driver.run(
        "sequential(64)", topology="supernode(4)", seed=3, sim_parallel=1
    )
    assert measurement.ops == 64
    assert measurement.series["accesses"] == {
        "host0": 64.0, "host1": 0.0, "host2": 0.0, "host3": 0.0, "all": 64.0,
    }


def test_windowed_results_are_deterministic_across_invocations():
    first = _run("supernode(3)", "mixed(96)", sim_parallel=1)
    second = _run("supernode(3)", "mixed(96)", sim_parallel=1)
    assert first.to_dict() == second.to_dict()


# ------------------- legacy vs windowed parity ------------------------
# The two models time cross-host sharing differently, so their
# remote-access counts may differ; what both must agree on is the
# series schema, where every op was issued, and which fault events
# the plan matched.
@pytest.mark.parametrize(
    "workload", ["uniform(256,512)", "producer-consumer(96,24)", "mixed(96)"]
)
def test_parity_holds_across_workload_shapes(workload):
    legacy = _run("supernode(4)", workload, sim_parallel=0)
    windowed = _run("supernode(4)", workload, sim_parallel=1)
    assert sorted(windowed.series) == sorted(legacy.series)
    assert windowed.series["accesses"] == legacy.series["accesses"]


@pytest.mark.parametrize("fault", ["storm", "host-outage", "link-degrade(8)"])
def test_parity_under_an_active_fault_plan(fault):
    legacy, windowed = (
        _run(
            "supernode(4)", "mixed(96)", sim_parallel, fault=fault,
            fault_mode="degraded",
        )
        for sim_parallel in (0, 1)
    )
    assert sorted(windowed.series) == sorted(legacy.series)
    for key in ("matched_events", "unmatched_events"):
        assert windowed.series["recovery"][key] == legacy.series["recovery"][key]


# ------------------------ fault accounting ----------------------------
@pytest.mark.parametrize(
    "topology,sim_parallel",
    [("fanout-2", 0), ("supernode(4)", 0), ("supernode(4)", 1)],
)
@pytest.mark.parametrize("fault", fault_plan_names())
def test_degraded_accounting_is_closed(fault, topology, sim_parallel):
    measurement = _run(
        topology, "mixed(96)", sim_parallel, fault=fault,
        fault_mode="degraded",
    )
    availability = measurement.series["availability"]
    assert availability["attempted"] == measurement.ops
    assert availability["attempted"] == (
        availability["completed"] + availability["dropped"]
    )


@pytest.mark.parametrize(
    "fault,error",
    [
        ("host-outage", HostDownError),
        ("link-flap", FaultActiveError),
        ("msg-corrupt", FaultActiveError),
    ],
)
def test_strict_mode_raises_out_of_a_windowed_run(fault, error):
    with pytest.raises(error):
        _run("supernode(4)", "mixed(96)", sim_parallel=1, fault=fault)


# --------------------------- validation -------------------------------
def test_sim_parallel_rejects_lsu_topologies():
    driver = WorkloadDriver(asic_system())
    with pytest.raises(WorkloadDriverError, match="supernode topologies only"):
        driver.run("zipf(64,1.2)", topology="fanout-2", seed=1, sim_parallel=1)


@pytest.mark.parametrize("bad", ["fast", -1, 2.5, True, 2, 4, "auto", None])
def test_driver_rejects_malformed_sim_parallel(bad):
    driver = WorkloadDriver(asic_system())
    with pytest.raises(WorkloadDriverError, match="sim_parallel"):
        driver.run(
            "zipf(64,1.2)", topology="supernode(2)", seed=1, sim_parallel=bad
        )


def test_sweep_spec_validates_sim_parallel_up_front():
    for bad in ("bananas", "auto", 2, True):
        spec = SweepSpec.from_dict({
            "name": "bad",
            "experiments": [{
                "experiment": "supernode-workload",
                "grid": {"sim_parallel": [bad]},
            }],
        })
        with pytest.raises(SpecError, match="sim_parallel"):
            spec.validate()


def test_sweep_spec_accepts_zero_and_one():
    spec = SweepSpec.from_dict({
        "name": "good",
        "experiments": [{
            "experiment": "supernode-workload",
            "grid": {"hosts": [2, 4], "sim_parallel": [0, 1]},
        }],
    })
    spec.validate()


@pytest.mark.parametrize("bad", ["2", "auto"])
def test_cli_rejects_sim_parallel_outside_zero_and_one(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--preset", "quick", "--sim-parallel", bad)
    assert exc.value.code == 2
    assert "--sim-parallel" in capsys.readouterr().err
