"""Tests of the benchmark's own checks, generators and tracer.

Run with ``python3 -m pytest -q perfbench``.  All but the worker test need
no part of the program: each check must reject a flow that is wrong in
exactly one way, and the tracer is tried on a stand-in module.
"""

import hashlib
import sys
import types

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

# s=0 -> 1 -> t=3 and s -> 2 -> t, capacities 3, 2, 4, 1: F* = 3.
N, S, T = 4, 0, 3
TAILS = (0, 1, 0, 2)
HEADS = (1, 3, 2, 3)
CAPS = (3, 2, 4, 1)
F_STAR = 3


def problems(flows, claimed=None, epsilon=0.1):
    value = float(flows[0] + flows[2])
    return checks.flow_problems(
        N, S, T, TAILS, HEADS, CAPS, np.array(flows, dtype=float),
        (value,) if claimed is None else claimed, F_STAR, epsilon,
    )


def test_reference_max_flow():
    assert checks.reference_max_flow(N, S, T, TAILS, HEADS, CAPS) == F_STAR


def test_accepts_an_optimal_flow():
    assert problems([2, 2, 1, 1]) == []


def test_rejects_a_flow_over_capacity():
    found = problems([3, 3, 0, 0])
    assert any("over its capacity" in p for p in found)


def test_rejects_a_negative_flow():
    assert any("negative" in p for p in problems([2, 2, -1, -1]))


def test_rejects_a_flow_that_does_not_conserve():
    found = problems([2, 1, 1, 1])
    assert any("does not conserve" in p for p in found)


def test_rejects_a_value_below_the_guarantee():
    # 2 of F* = 3 is below (1 - 0.25) * 3 = 2.25, but within eps = 0.5.
    assert any("below" in p for p in problems([1, 1, 1, 1], epsilon=0.25))
    assert problems([1, 1, 1, 1], epsilon=0.5) == []


def test_rejects_a_wrong_claimed_value():
    assert any("differs from claimed" in p for p in problems([2, 2, 1, 1], claimed=(3.0, 2.5)))


def test_rejects_a_value_above_the_optimum():
    # A reference that is too low must show, not pass silently.
    found = checks.flow_problems(
        N, S, T, TAILS, HEADS, CAPS, np.array([2.0, 2.0, 1.0, 1.0]), (3.0,), 2, 0.1
    )
    assert any("above F*" in p for p in found)


def test_matching_reference_agrees_with_max_flow():
    inst = workloads.workload("matching", 3)[0]
    f_star = checks.reference_max_flow(
        inst.n, inst.source, inst.sink, inst.tails, inst.heads, inst.capacities
    )
    assert checks.reference_matching(*inst.bipartite, inst.tails, inst.heads) == f_star


# SHA-256 of the concatenated DIMACS text at seed 1.  A change here changes
# every input of the benchmark, so its figures no longer compare.
SEED_1_DIGESTS = {
    "grid": "4e03c3caef6bdce558c4a8f200c174260ca49334fb1fe7da24366ab0afaebf46",
    "matching": "e6188aa8193e0eeb84489c62a7013363c72e3bfcdc5f77c9e57b585c8d69a29f",
    "random": "f29091245b34f5e4583bfc2ab95c09f2bed91107fdd7760963ff770d4a65b849",
}


@pytest.mark.parametrize("name", sorted(workloads.CORPUS))
def test_seed_text_is_pinned(name):
    text = "".join(inst.dimacs for inst in workloads.workload(name, 1))
    assert hashlib.sha256(text.encode()).hexdigest() == SEED_1_DIGESTS[name]
    assert text != "".join(inst.dimacs for inst in workloads.workload(name, 2))


# The program solves electrical flows with a dense Laplacian when the s-t
# component has at most this many vertices, and with a sparse one above it.
DENSE_LIMIT = 600


@pytest.mark.parametrize("seed", [1, 2])
def test_matching_runs_the_sparse_path(seed):
    for inst in workloads.workload("matching", seed):
        assert checks.st_vertex_count(
            inst.n, inst.source, inst.sink, inst.tails, inst.heads
        ) == inst.n > DENSE_LIMIT


def test_st_vertex_count_leaves_out_dead_ends():
    # Vertex 4 is reached from s but does not reach t; vertex 5 reaches t
    # but is not reached from s.
    tails, heads = TAILS + (0, 5), HEADS + (4, 1)
    assert checks.st_vertex_count(6, S, T, tails, heads) == 4


@pytest.mark.parametrize("name", sorted(workloads.CORPUS))
def test_seeds_pose_the_same_problems(name):
    for a, b in zip(workloads.workload(name, 1), workloads.workload(name, 2)):
        assert sorted(a.capacities) == sorted(b.capacities)
        assert checks.reference_max_flow(
            a.n, a.source, a.sink, a.tails, a.heads, a.capacities
        ) == checks.reference_max_flow(b.n, b.source, b.sink, b.tails, b.heads, b.capacities)


def test_tracer_reports_missing_functions_as_absent(monkeypatch):
    fake = types.ModuleType("fake_program")
    fake.parse_dimacs = lambda text: len(text)
    original = fake.parse_dimacs
    monkeypatch.setitem(sys.modules, "fake_program", fake)
    monkeypatch.setattr(tracing, "WRAPPED", (
        ("parse", "fake_program", "parse_dimacs"),
        ("cycle_cancel", "fake_program", "cycle_cancel"),
        ("exact", "no_such_module_anywhere", "exact_max_flow"),
    ))
    monkeypatch.setattr(tracing, "PROBES", ("bounded_flow", "fake_program", "bounded_flow_attempts"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fake.parse_dimacs("abc") == 3
    finally:
        tracer.uninstall()
    assert fake.parse_dimacs is original
    assert tracer.absent == {"cycle_cancel", "exact", "bounded_flow"}
    metrics = tracer.metrics()
    assert metrics["network.parse_dimacs_s"][0] > 0
    for name in ("recovery.cycle_cancel_s", "driver.exact_max_flow_s", "driver.probes",
                 "mwu.calls_per_probe", "electrical.ms_per_call"):
        assert name not in metrics


@pytest.mark.parametrize("traced", [False, True])
def test_worker_reports_a_solve_that_passes_the_checks(traced):
    problem = workloads.Problem(
        "tiny", 0.25, N, S, T, tuple(zip(TAILS, HEADS, CAPS)), ((S,), (1, 2), (T,))
    )
    inst = workloads.relabel(problem, seed=1)
    report = run.run_worker([inst], traced=traced)
    (entry,) = report["results"]
    assert checks.flow_problems(
        inst.n, inst.source, inst.sink, inst.tails, inst.heads, inst.capacities,
        entry["flows"], entry["claimed"], F_STAR, inst.epsilon,
    ) == []
    assert report["peak_rss_mb"] >= report["rss_before_mb"] > 0
    assert entry["seconds"] > 0 and entry["reference_s"] > 0
    if traced:
        assert entry["exact"] == F_STAR
        assert report["layers"]["driver.exact_max_flow_s"][0] > 0
    else:
        assert "layers" not in report
