"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 4 rest on the value of the symmetrized network's max flow.
The closed form "(2+eps) F* + (1+eps) * total capacity" is only an upper
bound on it: a cut with capacity entering its source side makes the true
value smaller (see TestReductionValueStructure in test_driver.py for a
five-arc counterexample), and no choice of the three edge capacities per arc
makes the closed form an identity.  Criterion 1 therefore asserts equality
with the min over cuts of (2+eps)*leaving - eps*entering, plus (1+eps) *
total capacity, enumerated by an oracle independent of the library, and the
closed form as an upper bound.  Criterion 4 takes its targets up to the
largest value the symmetrized network can carry, min(F*, (undirected max
flow - (1+eps) * total capacity) / 2).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pytest

from emaxflow import (
    FlowAssignment,
    approx_max_flow,
    exact_max_flow,
    solve_bounded_flow,
    symmetrize,
)
from emaxflow.driver import undirected_max_flow_witness
from emaxflow.electrical import default_solve_tolerance, electrical_st_flow
from emaxflow.mwu import BoundedFlowResult
from emaxflow.network import Provenance
from emaxflow.recovery import cycle_cancel, extract_directed, subtract_and_halve

from corpus import random_network, random_sized_network
from oracles import (
    brute_force_max_flow,
    is_acyclic_support,
    min_energy_flow_dense,
    symmetrized_cut_value,
)

EPSILONS = (0.1, 0.25, 0.4)
FRACTIONS = (0.25, 0.5, 0.9, 1.0)


def _line(cid: str, ok: bool, detail: str) -> str:
    status = "PASS" if ok else "FAIL"
    msg = f"ACCEPTANCE {cid}: {status} - {detail}"
    print(msg)
    return msg


# ---------------------------------------------------------------------------
# shared corpus sweep used by criteria 3, 4, 5


@dataclass
class SweepCase:
    seed: int
    eps: float
    frac: float
    fstar: float
    target: float
    net: object
    network: object
    result: BoundedFlowResult
    calls: list = field(default_factory=list)
    forced: Optional[bool] = None  # failure forced by target > true max flow


@pytest.fixture(scope="module")
def corpus_sweep():
    cases: list[SweepCase] = []
    for seed in range(200):
        G = random_network(seed)
        fstar, _ = exact_max_flow(G)
        if fstar <= 0:
            continue
        total = G.total_capacity()
        for eps in EPSILONS:
            net = symmetrize(G, eps)
            for frac in FRACTIONS:
                target = 2 * frac * fstar + (1 + eps) * total
                calls: list = []
                res = solve_bounded_flow(net, target, trace=lambda i, d: calls.append(d))
                case = SweepCase(seed, eps, frac, fstar, target, net, G, res, calls)
                if not res.succeeded:
                    case.forced = target > undirected_max_flow_witness(net)[0] + 1e-9
                cases.append(case)
    return cases


# ---------------------------------------------------------------------------


def test_c1_reduction_identity():
    """Criterion 1: on 200 seeded random digraphs and three epsilons, the
    undirected max flow equals the enumerated cut value
    min_S[(2+eps) leaving - eps entering] + (1+eps) U and is at most the
    closed form (2+eps) F* + (1+eps) U, 1e-6 relative, under 10 s."""
    t0 = time.time()
    checked = 0
    violations = []
    for seed in range(200):
        G = random_network(seed)
        fstar, _ = exact_max_flow(G)
        total = G.total_capacity()
        for eps in EPSILONS:
            expected = symmetrized_cut_value(G, eps)
            closed = (2 + eps) * fstar + (1 + eps) * total
            actual = undirected_max_flow_witness(symmetrize(G, eps))[0] if G.edge_count else 0.0
            checked += 1
            tol = 1e-6 * max(1.0, abs(expected))
            if abs(actual - expected) > tol or actual > closed + tol:
                violations.append((seed, eps, actual, expected, closed))
    elapsed = time.time() - t0
    ok = not violations and elapsed < 10.0
    detail = f"{checked} checks in {elapsed:.1f}s, {len(violations)} violations"
    if violations:
        s, e, a, x, c = violations[0]
        detail += (
            f"; e.g. seed {s} eps {e}: undirected max flow {a:.6f}, "
            f"cut value {x:.6f}, closed form {c:.6f}"
        )
    msg = _line("c1-reduction-identity", ok, detail)
    assert ok, msg


def test_c2_electrical_contract():
    """Criterion 2: on 100 graphs with <= 8 vertices, solver energy is within
    (1 + eps/10) of the dense least-squares minimum at eps = 0.2, and the
    post-repair conservation residual is at most 1e-9 * F."""
    eps = 0.2
    rng = np.random.default_rng(2024)
    checked = 0
    worst_ratio = 0.0
    worst_resid = 0.0
    seed = 0
    while checked < 100:
        G = random_network(seed, n_max=8)
        seed += 1
        if G.edge_count == 0:
            continue
        net = symmetrize(G, 0.25)
        r = rng.uniform(0.05, 5.0, net.edge_count)
        value = float(rng.uniform(0.1, 4.0))
        tol = default_solve_tolerance(eps, net.edge_count)
        res = electrical_st_flow(net, r, value, tol)
        e_min, _ = min_energy_flow_dense(net, r, value)
        ratio = res.energy / e_min if e_min > 0 else 1.0
        resid = res.flow.interior_residual_max()
        worst_ratio = max(worst_ratio, ratio)
        worst_resid = max(worst_resid, resid / value)
        assert ratio <= 1 + eps / 10 + 1e-12
        assert resid <= 1e-9 * value
        checked += 1
    msg = _line(
        "c2-electrical-contract",
        True,
        f"100 instances; worst energy ratio {worst_ratio:.6f} "
        f"(bound {1 + eps / 10}); worst residual/F {worst_resid:.2e}",
    )


def test_c3_oracle_inequalities(corpus_sweep):
    """Criterion 3: per-call oracle bounds across the corpus sweep with zero
    violations: energy <= threshold on flow-returning calls, first-iteration
    weighted congestion < (1+eps) * weight total, max congestion within the
    width sqrt(27 m / eps)."""
    calls_checked = 0
    first_checked = 0
    violations = 0
    for case in corpus_sweep:
        width = math.sqrt(27.0 * case.network.edge_count / case.eps)
        n_calls = len(case.calls)
        for i, diag in enumerate(case.calls):
            is_failing_call = (
                case.result.failure == "oracle-energy" and i == n_calls - 1
            )
            if not is_failing_call:
                calls_checked += 1
                if not diag.energy <= diag.threshold * (1 + 1e-12):
                    violations += 1
                if not diag.max_congestion <= width * (1 + 1e-9):
                    violations += 1
                if i == 0:
                    first_checked += 1
                    if not diag.weighted_congestion < (1 + case.eps) * diag.weight_total:
                        violations += 1
    ok = violations == 0 and calls_checked > 0
    msg = _line(
        "c3-oracle-inequalities",
        ok,
        f"{calls_checked} successful oracle calls, {first_checked} tied "
        f"first-iteration checks, {violations} violations",
    )
    assert ok, msg


def test_c4_bounded_flow_solver_contract():
    """Criterion 4: 100% success for targets 2F + (1+eps) U with F up to
    F_red = min(F*, (undirected max flow - (1+eps) U) / 2), the largest value
    whose target the symmetrized network can carry, with exact value and
    per-edge bounds at 1e-9 relative.  Pairs with F_red <= 0 have no valid
    target and are counted, not solved."""
    runs = 0
    failures = []
    no_room = []
    for seed in range(200):
        G = random_network(seed)
        fstar, _ = exact_max_flow(G)
        if fstar <= 0:
            continue
        total = G.total_capacity()
        for eps in EPSILONS:
            net = symmetrize(G, eps)
            f_red = min(fstar, (undirected_max_flow_witness(net)[0] - (1 + eps) * total) / 2)
            # at or below the rounding noise of the max-flow sum, no target
            # lies above the solver's precondition (1+eps) U
            if f_red <= 1e-9 * total:
                no_room.append((seed, eps))
                continue
            for frac in FRACTIONS:
                target = 2 * frac * f_red + (1 + eps) * total
                res = solve_bounded_flow(net, target)
                runs += 1
                if not res.succeeded:
                    failures.append((seed, eps, frac, target, res.failure))
                    continue
                flow = res.flow
                assert abs(flow.source_outflow() - target) <= 1e-9 * target
                assert flow.interior_residual_max() <= 1e-9 * target
                bound = (1 + eps) * net.parent_capacity
                assert (np.abs(flow.values) <= bound * (1 + 1e-9)).all()
    detail = (
        f"{runs - len(failures)}/{runs} solves succeeded; "
        f"{len(no_room)} (seed, eps) pairs with F_red <= 0 not solved"
    )
    if no_room:
        detail += f" (e.g. {no_room[:3]})"
    if failures:
        detail += f"; failures (seed, eps, frac, target, reason): {failures[:3]}"
    ok = not failures and runs > 0
    msg = _line("c4-bounded-flow-contract", ok, detail)
    assert ok, msg


def test_c4_unforced_failures_absent(corpus_sweep):
    """Companion to criterion 4: every failure is structurally forced (the
    requested value is genuinely unreachable at the oracle's congestion
    profile), never a solver shortfall on a reachable target."""
    unforced = [
        (c.seed, c.eps, c.frac)
        for c in corpus_sweep
        if not c.result.succeeded and not c.forced
    ]
    msg = _line(
        "c4-companion-failures-forced",
        not unforced,
        f"unforced failures: {unforced[:5]}",
    )
    assert not unforced, msg


def test_c5_recovery_guarantee(corpus_sweep):
    """Criterion 5: every successful solve recovers a feasible directed flow
    of value at least F / (1+eps), acyclic by topological sort, with link
    edges carrying zero flow after canceling."""
    checked = 0
    worst_margin = np.inf
    for case in corpus_sweep:
        if not case.result.succeeded:
            continue
        halved = subtract_and_halve(case.result.flow)
        acyclic = cycle_cancel(halved)
        assert is_acyclic_support(acyclic)
        links = np.asarray(case.net.provenance != Provenance.ORIGINAL)
        cap_scale = max(1.0, float(case.net.capacities.max()))
        assert float(np.abs(acyclic.values[links]).max()) <= 1e-9 * cap_scale
        rec = extract_directed(acyclic, case.network)
        F = case.frac * case.fstar
        needed = F / (1 + case.eps)
        assert rec.value >= needed - 1e-9 * max(1.0, needed)
        worst_margin = min(
            worst_margin, rec.value / needed if needed > 0 else np.inf
        )
        assert (rec.directed_flow.values >= 0).all()
        assert (rec.directed_flow.values <= case.network.capacities + 1e-12).all()
        checked += 1
    msg = _line(
        "c5-recovery-guarantee",
        checked > 0,
        f"{checked} recoveries; worst value/(F/(1+eps)) margin {worst_margin:.6f}",
    )
    assert checked > 0, msg


def _criterion6_corpus():
    specs = []
    rng_sizes = [
        (20, 8, 30, 1, 4),      # count, n_lo, n_hi, m_lo_mult, m_hi_mult
        (15, 30, 80, 2, 8),
        (10, 80, 150, 3, 8),
        (5, 150, 200, 4, 10),
    ]
    import random as _random

    seed = 0
    for count, n_lo, n_hi, m_lo, m_hi in rng_sizes:
        for _ in range(count):
            rng = _random.Random(9000 + seed)
            n = rng.randint(n_lo, n_hi)
            m = min(rng.randint(m_lo * n, m_hi * n), 2000, n * (n - 1))
            specs.append((seed, n, m))
            seed += 1
    return specs


def test_c6_end_to_end_guarantee():
    """Criterion 6: on 50 seeded instances up to n=200, m=2000 and
    eps in {0.1, 0.25}, the driver returns a feasible flow worth at least
    (1-eps) F*, each instance within 5 minutes."""
    misses = []
    slowest = 0.0
    total_calls = 0
    total_probes = 0
    ratios = []  # F/F*, with F* = 0 counted as 1
    for i, (seed, n, m) in enumerate(_criterion6_corpus()):
        eps = (0.1, 0.25)[i % 2]
        G = random_sized_network(1_000 + seed, n, m)
        t0 = time.time()
        rec, report = approx_max_flow(G, eps, exact_check=True)
        elapsed = time.time() - t0
        slowest = max(slowest, elapsed)
        total_calls += report.oracle_calls
        total_probes += report.search_iterations
        assert elapsed <= 300.0, f"instance {i} (n={n}, m={m}) took {elapsed:.0f}s"
        f = rec.directed_flow.values
        assert (f >= 0).all() and (f <= G.capacities + 1e-9).all()
        assert rec.directed_flow.interior_residual_max() <= 1e-6 * max(1.0, rec.value)
        fstar = report.exact_value
        ratios.append(rec.value / fstar if fstar > 0 else 1.0)
        if fstar > 0 and rec.value < (1 - eps) * fstar - 1e-9:
            misses.append((i, n, m, eps, rec.value, fstar))
    ok = not misses
    msg = _line(
        "c6-end-to-end",
        ok,
        f"50 instances, slowest {slowest:.1f}s, {total_calls} oracle calls, "
        f"{total_probes} probes, F/F* mean {np.mean(ratios):.4f} least {min(ratios):.4f}; "
        f"misses: {misses[:3]}",
    )
    assert ok, msg


def test_c7_runtime_reported_not_asserted():
    """Criterion 7: the asymptotic runtime claims are not reproduced; the
    per-instance oracle-call count is reported in the SolveReport instead."""
    G = random_network(1)
    _, report = approx_max_flow(G, 0.25)
    d = report.to_dict()
    assert "oracle_calls" in d and "wall_time_ms" in d
    assert d["oracle_calls"] == report.mwu_iterations_total
    _line(
        "c7-runtime-reported-only",
        True,
        f"oracle_calls={d['oracle_calls']} wall_time_ms={d['wall_time_ms']:.1f} "
        "(reported, no asymptotic assertion)",
    )


def test_c8_exact_oracle_validity():
    """Criterion 8: the blocking-flow oracle matches brute-force integral
    flow enumeration exactly on 500 seeded digraphs with n <= 5, caps <= 2."""
    mismatches = 0
    for seed in range(500):
        G = random_network(seed, n_max=5, m_max=10, cap_max=2)
        value, _ = exact_max_flow(G)
        brute = brute_force_max_flow(G)
        if value != brute:
            mismatches += 1
    ok = mismatches == 0
    msg = _line("c8-exact-oracle", ok, f"500 instances, {mismatches} mismatches")
    assert ok, msg
