"""Smoke-size checks of the benchmark itself: metric names, units and spans."""

import json
import math
import re

import pytest

import run

# The smallest runs that still make whole windows, cells and requests; the
# suite these tests join is long already.
SMOKE = dict(seed=5, seconds=0.05, duration=150.0)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def results():
    return {(workload, trace): run.measure(workload, trace=trace, **SMOKE)
            for workload in run.workloads.WORKLOADS for trace in (False, True)}


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_workload_emits_its_metrics_with_units(results, trace):
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for workload in run.workloads.WORKLOADS:
        result, _, _ = results[(workload, trace)]
        assert result["correct"] and result["failed"] == 0, workload
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == wanted, workload
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_self_times_are_never_negative(results):
    for workload in run.workloads.WORKLOADS:
        _, _, trace = results[(workload, True)]
        assert min(trace.self_times()) >= 0, workload
        assert min(trace.layer_self_times().values()) >= 0, workload


def test_child_spans_stay_inside_their_parent(results):
    for workload in run.workloads.WORKLOADS:
        _, _, trace = results[(workload, True)]
        for name, start, end, parent, request in trace.spans:
            assert start <= end
            if parent >= 0:
                p_name, p_start, p_end, _, p_request = trace.spans[parent]
                assert p_start <= start and end <= p_end, (name, p_name)
                assert request == p_request


def test_layer_self_times_account_for_the_traced_wall(results):
    for workload in run.workloads.WORKLOADS:
        _, _, trace = results[(workload, True)]
        total = sum(trace.layer_self_times().values())
        assert total == pytest.approx(trace.wall(), rel=1e-9), workload


def test_tracer_restores_the_program(results):
    from semisub_motion import experiments, network, training
    assert not hasattr(network.forward, "__wrapped__")
    assert training.forward is network.forward
    assert experiments.train is training.train
