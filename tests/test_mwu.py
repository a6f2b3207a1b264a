import dataclasses
import importlib.util
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emaxflow import (
    DirectedNetwork,
    approx_max_flow,
    WidthViolationError,
    exact_max_flow,
    parse_dimacs,
    solve_bounded_flow,
    symmetrize,
)
from emaxflow import mwu
from emaxflow.driver import _trace_line, undirected_max_flow_witness
from emaxflow.mwu import (
    bounded_flow_attempts,
    check_bounded_flow,
    compute_resistances,
    fail_threshold,
    iteration_schedule,
    oracle_step,
    oracle_width,
    update_weights,
)

from corpus import nonempty_network, random_network, random_sized_network
from oracles import min_energy_flow_dense


def single_arc_net(eps=0.5, cap=1.0):
    return symmetrize(DirectedNetwork(2, [(0, 1, cap)], 0, 1), eps)


class TestOracleWidth:
    def test_width_identity(self):
        net = symmetrize(
            DirectedNetwork(18, [(i, i + 1, 1.0) for i in range(17)], 0, 17), 0.3
        )
        width = oracle_width(net)
        assert width == math.sqrt(27 * 17 / 0.3)
        assert width**2 * 0.3 == pytest.approx(27 * 17, rel=1e-12)


class TestComputeResistances:
    def test_tied_unit_weights(self):
        # one unit-capacity arc, eps = 0.3: r = 1 + 0.3 * 3 / 9 = 1.1
        net = single_arc_net(eps=0.3)
        r = compute_resistances(net, np.ones(3))
        assert r == pytest.approx([1.1, 1.1, 1.1], rel=1e-12)

    def test_capacity_scaling(self):
        net = single_arc_net(eps=0.3, cap=2.0)
        r = compute_resistances(net, np.ones(3))
        assert r == pytest.approx([0.275, 0.275, 0.275], rel=1e-12)

    def test_vanishing_regularizer(self):
        net = single_arc_net(eps=1e-12, cap=3.0)
        w = np.array([2.0, 5.0, 1.0])
        r = compute_resistances(net, w)
        assert r == pytest.approx(w / 9.0, rel=1e-9)


class TestFailThreshold:
    def test_tied_small_epsilon_approaches_weight_total(self):
        net = single_arc_net(eps=1e-4)
        w = np.ones(3)
        t = fail_threshold(net, w)
        assert t == pytest.approx(3.0, rel=1e-3)

    def test_tied_exact_product(self):
        # eps = 0.5, tied unit weights on one arc: the closed form is
        # (1 + eps/10)(1 + eps/3)((1 + 2(1+eps)^2)/3) * total = 6.7375
        net = single_arc_net(eps=0.5)
        t = fail_threshold(net, np.ones(3))
        assert t == pytest.approx(6.7375, rel=1e-12)
        closed = (1 + 0.05) * (1 + 0.5 / 3) * ((1 + 2 * 1.5**2) / 3) * 3.0
        assert t == pytest.approx(closed, rel=1e-12)

    def test_tied_matches_closed_form_any_network(self):
        net = symmetrize(nonempty_network(8), 0.25)
        c = 1.7
        w = np.full(net.edge_count, c)
        t = fail_threshold(net, w)
        eps = 0.25
        closed = (1 + eps / 10) * (1 + eps / 3) * ((1 + 2 * (1 + eps) ** 2) / 3) * w.sum()
        assert t == pytest.approx(closed, rel=1e-12)

    def test_untied_weights_beta_weighted_sum(self):
        # weight concentrated on a source link: the link's boosted capacity
        # ratio (1+eps) enters squared.
        eps = 0.4
        net = single_arc_net(eps=eps)
        w = np.array([1e-9, 1.0, 1e-9])
        reg = eps * w.sum() / (3 * net.edge_count)
        expected = (1 + eps / 10) * (
            (w[0] + reg) * 1.0
            + (w[1] + reg) * (1 + eps) ** 2
            + (w[2] + reg) * (1 + eps) ** 2
        )
        assert fail_threshold(net, w) == pytest.approx(expected, rel=1e-12)


class TestOracleStep:
    def test_single_arc_flow_verdict(self):
        net = single_arc_net()
        result, _, diag = oracle_step(net, np.ones(3), 3.5)
        assert diag.energy <= diag.threshold
        assert result.flow.values == pytest.approx([7 / 6] * 3, rel=1e-9)
        assert diag.energy == pytest.approx(343 / 72, rel=1e-9)
        assert diag.threshold == pytest.approx(6.7375, rel=1e-12)

    def test_single_arc_fail_at_large_value(self):
        net = single_arc_net()
        _, _, diag = oracle_step(net, np.ones(3), 100.0)
        assert diag.energy > diag.threshold
        # energy scales as the squared value
        assert diag.energy == pytest.approx((100 / 3.5) ** 2 * 343 / 72, rel=1e-6)

    def test_failure_needs_the_dual_bound_or_a_strict_solve(self, monkeypatch):
        # A loose solve whose dual bound falls short of the unpadded
        # threshold is solved again at the strict tolerance from its
        # potentials, and that solve decides.
        net = single_arc_net()
        solve = mwu.electrical_st_flow
        calls = []

        def short_bound(net_, r, value, tol, x0=None):
            res = solve(net_, r, value, tol, x0)
            calls.append((tol, x0, res))
            if tol == mwu.WORKING_TOLERANCE:
                res = dataclasses.replace(res, energy_lower=-math.inf)
            return res

        monkeypatch.setattr(mwu, "electrical_st_flow", short_bound)
        strict = mwu.default_solve_tolerance(net.epsilon, net.edge_count)
        result, _, diag = oracle_step(net, np.ones(3), 100.0)
        (tol1, _, first), (tol2, x0, second) = calls
        assert (tol1, tol2) == (mwu.WORKING_TOLERANCE, strict)
        assert x0 is first.potentials
        assert result is second
        assert diag.energy == second.energy > diag.threshold
        assert diag.energy_lower == second.energy_lower
        # A call under the threshold needs no second solve.
        calls.clear()
        oracle_step(net, np.ones(3), 3.5)
        assert len(calls) == 1

    def test_zero_target(self):
        net = single_arc_net()
        result, _, diag = oracle_step(net, np.ones(3), 0.0)
        assert diag.energy <= diag.threshold
        assert (result.flow.values == 0.0).all()
        assert diag.energy == 0.0


class TestCongestion:
    def test_definition(self):
        # Congestion is |f| / u_parent: on a capacity-2 arc every edge of
        # the oracle flow (7/6 a unit arc's worth, doubled) has 7/6.
        G = DirectedNetwork(2, [(0, 1, 2.0)], 0, 1)
        net = symmetrize(G, 0.5)
        result, cong, _ = oracle_step(net, np.ones(3), 7.0)
        assert result.flow.values == pytest.approx([7 / 3] * 3, rel=1e-9)
        assert cong == pytest.approx([7 / 6] * 3, rel=1e-9)

    def test_absolute_value(self):
        # Edge 6, the original edge of the arc 2 -> 1, carries s-t flow from
        # 1 to 2, against its orientation.
        G = DirectedNetwork(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)], 0, 2)
        net = symmetrize(G, 0.2)
        result, cong, _ = oracle_step(net, np.ones(net.edge_count), 5.0)
        assert result.flow.values[6] < 0
        assert cong == pytest.approx(np.abs(result.flow.values) / net.parent_capacity)

    def test_oracle_congestion_within_width(self):
        net = single_arc_net()
        _, cong, diag = oracle_step(net, np.ones(3), 3.5)
        assert cong == pytest.approx([7 / 6] * 3, rel=1e-9)
        assert diag.max_congestion <= oracle_width(net)
        assert oracle_width(net) == pytest.approx(math.sqrt(54), rel=1e-12)


class TestUpdateWeights:
    def test_zero_congestion_no_change(self):
        width = math.sqrt(27 * 4 / 0.3)
        w = np.array([1.0, 2.0, 3.0])
        w2 = update_weights(w, np.zeros(3), 0.3, width)
        assert w2 == pytest.approx(w)

    def test_full_width_congestion(self):
        # congestion at the width sets the step, so the factor is 2 and the
        # weight grows by its square
        width = math.sqrt(27 * 4 / 0.3)
        w = np.array([1.0])
        w2 = update_weights(w, np.array([width]), 0.3, width)
        assert w2[0] == pytest.approx(4.0, rel=1e-12)

    def test_worked_example(self):
        # eps=0.5, congestion 7/6 on unit weights: the step normalizer is
        # max(1 + eps, 7/6) = 1.5, well below the width sqrt(54), and the
        # weight grows by the square of the factor
        w = np.ones(3)
        w2 = update_weights(w, np.full(3, 7 / 6), 0.5, math.sqrt(54))
        expected = (1 + (7 / 6) / 1.5) ** 2
        assert w2 == pytest.approx([expected] * 3, rel=1e-12)
        assert expected == pytest.approx(3.1604938, abs=1e-6)

    def test_weights_stay_a_valid_start(self):
        # The update quadruples the spread between a fully and a never
        # congested edge per call; without the floor 600 update-and-
        # renormalize steps round the idle edge to exactly 0.0.
        net = single_arc_net()
        width = oracle_width(net)
        cong = np.zeros(net.edge_count)
        cong[0] = width
        w = np.ones(net.edge_count)
        for _ in range(1200):
            w = update_weights(w, cong, net.epsilon, width)
            w = w / w.max()
        assert w.min() == pytest.approx(mwu.WEIGHT_FLOOR, rel=1e-12)
        result = next(bounded_flow_attempts(net, 3.0, weights=w))
        assert result.succeeded
        assert check_bounded_flow(net, result.flow.values, 3.0)
        assert (result.weights > 0).all()

    def test_width_violation_raises(self):
        width = math.sqrt(54)
        w = np.ones(3)
        with pytest.raises(WidthViolationError):
            update_weights(w, np.array([0.0, 0.0, width * 1.01]), 0.5, width)


class TestSolveBoundedFlow:
    def test_single_arc_at_capacity_total(self):
        # 3.5 = 2*1 + 1.5 is reachable; every edge stays within 1.5
        net = single_arc_net()
        res = solve_bounded_flow(net, 3.5)
        assert res.succeeded
        f = res.flow
        assert f.source_outflow() == pytest.approx(3.5, rel=1e-9)
        assert f.interior_residual_max() <= 1e-9 * 3.5
        assert (np.abs(f.values) <= 1.5 * (1 + 1e-9)).all()

    def test_far_above_capacity_fails(self):
        net = single_arc_net()
        res = solve_bounded_flow(net, 1.5 + 1e6)
        assert not res.succeeded
        assert res.failure == "oracle-energy"
        assert res.certified_infeasible

    def test_energy_failure_carries_the_dual_bound(self):
        # The last call's dual bound exceeds the unpadded threshold, the
        # most energy a flow within the capacities can have.
        net = single_arc_net()
        records = []
        res = solve_bounded_flow(net, 1.5 + 1e6, trace=lambda i, d: records.append(d))
        assert res.failure == "oracle-energy"
        last = records[-1]
        assert last.energy_lower > last.threshold / (1 + net.epsilon / 10)
        assert last.energy_lower <= last.energy * (1 + 1e-12)

    def test_below_baseline_is_precondition_error(self):
        net = single_arc_net()
        with pytest.raises(ValueError):
            solve_bounded_flow(net, 1.5)
        with pytest.raises(ValueError):
            solve_bounded_flow(net, 0.7)

    def test_success_contract(self):
        for seed in (2, 5, 9):
            G = nonempty_network(seed)
            eps = 0.25
            net = symmetrize(G, eps)
            fstar, _ = exact_max_flow(G)
            if fstar <= 0:
                continue
            target = 2 * 0.5 * fstar + (1 + eps) * G.total_capacity()
            res = solve_bounded_flow(net, target)
            assert res.succeeded
            assert abs(res.flow.source_outflow() - target) <= 1e-9 * target
            assert res.flow.interior_residual_max() <= 1e-9 * target
            bound = (1 + eps) * net.parent_capacity
            assert (np.abs(res.flow.values) <= bound * (1 + 1e-9)).all()

    def test_monotone_in_target(self):
        # success at a target implies success at every smaller valid target
        G = nonempty_network(13)
        eps = 0.25
        net = symmetrize(G, eps)
        fstar, _ = exact_max_flow(G)
        if fstar <= 0:
            pytest.skip("zero max flow instance")
        base = (1 + eps) * G.total_capacity()
        top = 2 * fstar + base
        if solve_bounded_flow(net, top).succeeded:
            for frac in (0.75, 0.5, 0.25):
                target = base + frac * (top - base)
                assert solve_bounded_flow(net, target).succeeded

    def test_slow_progress_still_verifies(self):
        # F = 2.788 is feasible.  Under the eps-damped update rate the best
        # candidate's overrun stopped improving for hundreds of calls before
        # the run verified (about 1,100 calls; 54 at rate 1, 28 with the
        # squared factor); a run cut short there would wrongly report no
        # flow.
        G = random_sized_network(1018, 21, 49)
        eps = 0.025
        net = symmetrize(G, eps)
        target = 2 * 2.788 + (1 + eps) * G.total_capacity()
        res = solve_bounded_flow(net, target)
        assert res.succeeded
        assert check_bounded_flow(net, res.flow.values, target)

    def test_resume_continues_the_same_run(self, monkeypatch):
        # An exhausted budget certifies nothing, and advancing again picks
        # up the same trajectory a single run with twice the budget takes.
        G = random_sized_network(1018, 21, 49)
        eps = 0.025
        net = symmetrize(G, eps)
        target = 2 * 2.788 + (1 + eps) * G.total_capacity()
        resumed, whole = [], []
        # The run verifies after 28 calls, so two budgets of 10 run out.
        monkeypatch.setattr(mwu, "DEFAULT_ITERATION_CAP", 5)
        run = bounded_flow_attempts(net, target, trace=lambda i, d: resumed.append(d.energy))
        first = next(run)
        assert first.failure == "iteration-budget" and first.iterations == 10
        assert not first.certified_infeasible
        second = next(run)
        assert second.failure == "iteration-budget" and second.iterations == 20
        monkeypatch.setattr(mwu, "DEFAULT_ITERATION_CAP", 10)
        once = solve_bounded_flow(net, target, trace=lambda i, d: whole.append(d.energy))
        assert once.iterations == 20
        assert resumed == whole

    def test_trace_emitted_per_oracle_call(self):
        net = single_arc_net()
        records = []
        res = solve_bounded_flow(net, 3.5, trace=lambda i, d: records.append((i, d)))
        assert len(records) == res.iterations
        assert records[0][1].threshold == pytest.approx(6.7375, rel=1e-12)


class TestSegmentCandidate:
    """After each call the loop checks one point of the segment from the
    iterate to the running average: the average if it fits the bound, else
    the iterate if it fits, else the midpoint of the fitting points."""

    # One arc 0 -> 1 at eps 0.5: three parallel s-t edges, each bounded by
    # 1.5, so any split of the value 3 conserves.
    net = single_arc_net()

    def bound(self):
        return (1.0 + self.net.epsilon) * self.net.parent_capacity * (1.0 + mwu._CHECK_RTOL)

    def test_midpoint_verifies_where_both_ends_break(self):
        it = np.array([2.0, 1.0, 0.0])
        avg = np.array([0.0, 1.0, 2.0])
        assert not check_bounded_flow(self.net, it, 3.0)
        assert not check_bounded_flow(self.net, avg, 3.0)
        # lam lies in [0.25, 0.75]: edge 0 needs 2 - 2 lam <= 1.5, edge 2 2 lam <= 1.5.
        cand = mwu._segment_candidate(self.net, avg, it)
        assert cand.tolist() == [1.0, 1.0, 1.0]
        assert check_bounded_flow(self.net, cand, 3.0)

    def test_prefers_the_average_then_the_iterate(self):
        fits, breaks = np.array([1.0, 1.0, 1.0]), np.array([2.0, 1.0, 0.0])
        assert mwu._segment_candidate(self.net, fits, breaks) is fits
        assert mwu._segment_candidate(self.net, breaks, fits) is fits
        other = np.array([1.4, 1.4, 0.2])
        assert mwu._segment_candidate(self.net, other, fits) is other

    def test_empty_interval_returns_nothing(self):
        # Edge 0 needs lam >= 5/9, edge 2 lam <= 4/9.
        it = np.array([2.0, 1.5, 1.1])
        avg = np.array([1.1, 1.5, 2.0])
        assert mwu._segment_candidate(self.net, avg, it) is None

    def test_no_check_while_no_point_fits(self, monkeypatch):
        # This run verifies at its 18th call.  Before that no point of any
        # segment fits the bound, so it checks one candidate in all.
        G = random_sized_network(1016, 21, 49)
        net = symmetrize(G, 0.025)
        target = 2 * 2.788 + 1.025 * G.total_capacity()
        calls, checked = [], []

        def spy(net_, values, target_):
            checked.append(len(calls))
            return check_bounded_flow(net_, values, target_)

        monkeypatch.setattr(mwu, "check_bounded_flow", spy)
        res = solve_bounded_flow(net, target, trace=lambda i, d: calls.append(i))
        assert res.succeeded and res.iterations == 18
        assert checked == [18]
        assert check_bounded_flow(net, res.flow.values, target)

    @pytest.mark.parametrize("level", [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    def test_silent_where_average_and_iterate_agree(self, level):
        # Edge 0 sits inside, on and beyond its bound with avg == it; beyond
        # it, its quotients divide by zero.  No floating-point warning may
        # escape.
        b = float(self.bound()[0])
        it = np.array([level * b, 1.0, 0.5])
        avg = np.array([level * b, 0.5, 1.0])
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            cand = mwu._segment_candidate(self.net, avg, it)
            same = mwu._segment_candidate(self.net, it, it)
        if abs(level) <= 1.0:
            assert cand is avg and same is it
        else:
            assert cand is None and same is None

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 199), frac=st.floats(0.5, 1.2), spread=st.floats(0.0, 4.0))
    def test_candidate_verifies_and_lies_on_the_segment(self, seed, frac, spread):
        G = random_network(seed, n_max=8, m_max=16)
        assume(G.edge_count > 0)
        eps = 0.25
        net = symmetrize(G, eps)
        maxval, _ = undirected_max_flow_witness(net)
        baseline = (1 + eps) * G.total_capacity()
        target = baseline + frac * max(maxval - baseline, 1.0)
        rng = np.random.default_rng(seed)
        it = oracle_step(net, np.ones(net.edge_count), target)[0].flow.values
        weights = 10.0 ** rng.uniform(-spread, spread, net.edge_count)
        avg = oracle_step(net, weights, target)[0].flow.values
        cand = mwu._segment_candidate(net, avg, it)
        lams = np.linspace(0.0, 1.0, 101)
        if cand is None:
            assert not any(check_bounded_flow(net, it + lam * (avg - it), target) for lam in lams)
            return
        assert check_bounded_flow(net, cand, target)
        d = avg - it
        lam = float(np.dot(cand - it, d) / np.dot(d, d)) if np.dot(d, d) > 0 else 0.0
        assert -1e-12 <= lam <= 1 + 1e-12
        assert np.allclose(cand, it + lam * d, rtol=1e-12, atol=1e-12 * float(np.abs(it).max()))


def test_seed_1_random_workload_makes_36_calls(monkeypatch):
    # The benchmark's `random` workload, solved in process: 59 + 14 calls
    # when only the average and the iterate were tried.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    calls = [
        approx_max_flow(parse_dimacs(inst.dimacs), inst.epsilon)[1].oracle_calls
        for inst in workloads.workload("random", 1)
    ]
    assert calls == [23, 13]


class TestStartWeights:
    """A run may start from any positive weights: the start changes what the
    run costs, never what it concludes."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 199),
        frac=st.one_of(st.floats(0.05, 1.5), st.floats(0.95, 1.0)),
        data=st.data(),
    )
    def test_skewed_start_is_sound(self, seed, frac, data):
        G = random_network(seed, n_max=8, m_max=16)
        assume(G.edge_count > 0)
        eps = 0.25
        net = symmetrize(G, eps)
        maxval, _ = undirected_max_flow_witness(net)
        baseline = (1 + eps) * G.total_capacity()
        target = baseline + frac * max(maxval - baseline, 1.0)
        exps = data.draw(
            st.lists(st.floats(-6, 2), min_size=net.edge_count, max_size=net.edge_count)
        )
        start = 10.0 ** np.array(exps)
        calls = []
        run = bounded_flow_attempts(net, target, trace=lambda i, d: calls.append(d), weights=start)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mwu, "DEFAULT_ITERATION_CAP", 25)
            results = list(itertools.islice(run, 2))  # one resume, as the driver does
        for result in results:
            if result.failure == "oracle-energy":
                assert target > maxval
            if result.succeeded:
                assert check_bounded_flow(net, result.flow.values, target)
            assert float(result.weights.max()) == pytest.approx(1.0, rel=1e-12)
        # The first call is priced by the start, and totals are the start's.
        assert calls[0].weight_total == pytest.approx(start.sum(), rel=1e-12)

    def test_spread_start_recovers_within_400_calls(self):
        # Weights regrow at most 4x per call, so a start spanning 200
        # decades costs hundreds of calls (359 here, 717 at rate 1) where
        # unit weights verify the same target at once.
        net = single_arc_net()
        start = np.array([1.0, 1e-200, 1e-200])
        results = list(bounded_flow_attempts(net, 3.4, weights=start))
        assert results[-1].succeeded
        assert check_bounded_flow(net, results[-1].flow.values, 3.4)
        assert results[-1].iterations <= 400
        assert next(bounded_flow_attempts(net, 3.4)).iterations == 1

    def test_unit_start_is_the_default(self, monkeypatch):
        net = symmetrize(random_sized_network(1016, 21, 49), 0.025)
        target = 2 * 2.788 + (1 + 0.025) * net.arc_capacities.sum()
        default, given_ones = [], []
        monkeypatch.setattr(mwu, "DEFAULT_ITERATION_CAP", 10)
        next(bounded_flow_attempts(net, target, trace=lambda i, d: default.append(d)))
        next(
            bounded_flow_attempts(
                net, target, trace=lambda i, d: given_ones.append(d),
                weights=np.ones(net.edge_count),
            )
        )
        assert default == given_ones

    @pytest.mark.parametrize(
        "start",
        [np.ones(2), np.array([1.0, 0.0, 1.0]), np.array([1.0, -2.0, 1.0]),
         np.array([1.0, np.nan, 1.0]), np.array([1.0, np.inf, 1.0])],
        ids=["wrong-length", "zero", "negative", "nan", "inf"],
    )
    def test_rejects_invalid_start(self, start):
        net = single_arc_net()
        with pytest.raises(ValueError):
            next(bounded_flow_attempts(net, 3.5, weights=start))

    def test_stale_positional_epsilon_fails(self):
        # The network carries epsilon, and every option is keyword-only, so
        # a leftover positional eps is an error.
        net = single_arc_net()
        with pytest.raises(TypeError):
            solve_bounded_flow(net, 3.5, 0.5)
        with pytest.raises(TypeError):
            next(bounded_flow_attempts(net, 3.5, 0.5))


class TestTraceScale:
    """Trace records are priced by the run's true weights, though the run
    keeps its weights renormalized to max 1."""

    def test_records_share_the_start_scale(self, monkeypatch):
        net = symmetrize(random_sized_network(1016, 21, 49), 0.025)
        target = 2 * 2.788 + (1 + 0.025) * net.arc_capacities.sum()
        measured = []

        def spy(net_, weights, target_, x0=None, tol=None):
            result, cong, diag = oracle_step(net_, weights, target_, x0, tol)
            measured.append((cong, diag))
            return result, cong, diag

        monkeypatch.setattr(mwu, "oracle_step", spy)
        monkeypatch.setattr(mwu, "DEFAULT_ITERATION_CAP", 10)
        records = []
        result = next(bounded_flow_attempts(net, target, trace=lambda i, d: records.append(d)))
        assert len(records) == len(measured) >= 3
        # Replay the run's weights without renormalizing them.
        true_w = np.ones(net.edge_count)
        width = oracle_width(net)
        for (cong, raw), rec in zip(measured, records):
            assert rec.weight_total == pytest.approx(true_w.sum(), rel=1e-9)
            assert rec.weighted_congestion / rec.weight_total == pytest.approx(
                true_w @ cong / true_w.sum(), rel=1e-9
            )
            assert rec.energy / rec.weight_total == pytest.approx(
                raw.energy / raw.weight_total, rel=1e-12
            )
            assert rec.threshold / rec.weight_total == pytest.approx(
                raw.threshold / raw.weight_total, rel=1e-12
            )
            assert rec.energy_lower / rec.weight_total == pytest.approx(
                raw.energy_lower / raw.weight_total, rel=1e-12
            )
            assert rec.max_congestion == raw.max_congestion
            true_w = update_weights(true_w, cong, net.epsilon, width)
        # The run renormalized, and its verdicts are the unscaled ones.
        assert records[-1].weight_total > 1.1 * measured[-1][1].weight_total
        assert all(raw.energy <= raw.threshold for _, raw in measured[:-1])
        failed = measured[-1][1].energy > measured[-1][1].threshold
        assert failed == (result.failure == "oracle-energy")


    def test_scale_past_the_float_range(self, monkeypatch):
        # Start weights near the largest float: the run's true weights soon
        # pass it, and the records read inf there rather than the trace
        # raising OverflowError, and `_trace_line` clamps them.
        net = symmetrize(random_sized_network(1016, 21, 49), 0.025)
        target = 2 * 2.788 + (1 + 0.025) * net.arc_capacities.sum()
        records = []
        monkeypatch.setattr(mwu, "DEFAULT_ITERATION_CAP", 10)
        next(
            bounded_flow_attempts(
                net, target, weights=np.full(net.edge_count, 1e305),
                trace=lambda i, d: records.append(d),
            )
        )
        assert len(records) >= 3
        assert math.isfinite(records[0].weight_total)
        assert records[-1].weight_total == math.inf
        line = _trace_line(1, len(records), records[-1])
        assert line["weight_total"] == line["energy"] == line["threshold"] == 1e308
        json.dumps(line, allow_nan=False)


class TestWorkingTolerance:
    """A working solve whose conservation repair is large stands, and its
    run tightens the tolerance its later calls stop at."""

    def test_large_repair_is_not_solved_again(self, monkeypatch):
        net = symmetrize(random_sized_network(1016, 21, 49), 0.25)
        target = 2.0 + 1.25 * float(net.arc_capacities.sum())
        solve = mwu.electrical_st_flow
        calls = []

        def recording(net_, r, value, tol, x0=None):
            res = solve(net_, r, value, tol, x0)
            calls.append((tol, x0, res))
            return res

        monkeypatch.setattr(mwu, "electrical_st_flow", recording)
        weights = np.ones(net.edge_count)
        result, _, diag = oracle_step(net, weights, target)
        (tol1, _, first), = calls
        assert tol1 == mwu.WORKING_TOLERANCE
        assert result is first and diag.repair_share == first.repair_share > 0.0
        # With no repair allowed, the call still makes one solve and reports
        # its working share; only the run tightens its later calls.
        calls.clear()
        monkeypatch.setattr(mwu, "REPAIR_SHARE", 0.0)
        result, _, diag = oracle_step(net, weights, target)
        (tol2, _, second), = calls
        assert tol2 == mwu.WORKING_TOLERANCE
        assert result is second and diag.repair_share == second.repair_share > 0.0

    @pytest.mark.parametrize("share", [0.0, math.inf])
    def test_run_tightens_its_tolerance(self, monkeypatch, share):
        # Every call over the share divides the run's tolerance by 3, down
        # to the strict one; a run under it keeps the working tolerance.
        net = symmetrize(random_sized_network(1016, 21, 49), 0.025)
        target = 2 * 2.788 + (1 + 0.025) * net.arc_capacities.sum()
        tolerances = []

        def spy(net_, weights, target_, x0=None, tol=None):
            tolerances.append(tol)
            return oracle_step(net_, weights, target_, x0, tol)

        monkeypatch.setattr(mwu, "oracle_step", spy)
        monkeypatch.setattr(mwu, "REPAIR_SHARE", share)
        monkeypatch.setattr(mwu, "DEFAULT_ITERATION_CAP", 10)
        next(bounded_flow_attempts(net, target))
        strict = mwu.default_solve_tolerance(net.epsilon, net.edge_count)
        tol, expected = mwu.WORKING_TOLERANCE, []
        for _ in tolerances:
            expected.append(tol)
            if share == 0.0:
                tol = max(tol / 3.0, strict)
        assert len(tolerances) >= 8
        assert tolerances == expected

    def test_holds_the_calls_of_strict_solves(self, monkeypatch):
        # 500 vertices, 2,500 arcs: a fixed working tolerance costs oracle
        # calls here (151 against 127), the tightened one does not.
        G = random_sized_network(9, 500, 2500)

        def calls(tol, share):
            monkeypatch.setattr(mwu, "WORKING_TOLERANCE", tol)
            monkeypatch.setattr(mwu, "REPAIR_SHARE", share)
            return approx_max_flow(G, 0.25)[1].oracle_calls

        working = mwu.WORKING_TOLERANCE
        strict = calls(1e-8, mwu.REPAIR_SHARE)
        assert calls(working, mwu.REPAIR_SHARE) == strict
        assert calls(working, math.inf) > strict


class TestOracleInequalities:
    """Per-call bounds that hold on every successful oracle step."""

    def _run(self, seed, eps):
        G = nonempty_network(seed)
        fstar, _ = exact_max_flow(G)
        if fstar <= 0:
            return None
        net = symmetrize(G, eps)
        width = oracle_width(net)
        target = 2 * fstar + (1 + eps) * G.total_capacity()
        records = []

        w = np.ones(net.edge_count)
        for i in range(40):
            _, cong, diag = oracle_step(net, w, target)
            if diag.energy > diag.threshold:
                break
            records.append((i, w, cong, diag))
            w = update_weights(w, cong, eps, width)
        return net, width, records

    @pytest.mark.parametrize("seed,eps", [(3, 0.1), (7, 0.25), (15, 0.4)])
    def test_energy_identity_and_threshold(self, seed, eps):
        got = self._run(seed, eps)
        if got is None:
            pytest.skip("zero max flow")
        net, width, records = got
        for i, w, cong, diag in records:
            reg = eps * w.sum() / (3 * net.edge_count)
            weighted = float(np.sum((w + reg) * cong**2))
            assert weighted == pytest.approx(diag.energy, rel=1e-9)
            assert diag.energy <= diag.threshold

    @pytest.mark.parametrize("seed,eps", [(3, 0.1), (7, 0.25), (15, 0.4)])
    def test_first_iteration_weighted_congestion(self, seed, eps):
        got = self._run(seed, eps)
        if got is None:
            pytest.skip("zero max flow")
        net, width, records = got
        i, w, cong, diag = records[0]
        assert diag.weighted_congestion < (1 + eps) * w.sum()

    @pytest.mark.parametrize("seed,eps", [(3, 0.1), (7, 0.25), (15, 0.4)])
    def test_width_bound(self, seed, eps):
        got = self._run(seed, eps)
        if got is None:
            pytest.skip("zero max flow")
        net, width, records = got
        for _, _, _, diag in records:
            assert diag.max_congestion <= width * (1 + 1e-9)

    def test_energy_at_most_exact_flow_energy(self):
        # solver energy is within (1 + eps/10) of any conserving flow's
        # energy, in particular the scaled exact undirected max flow
        eps = 0.25
        G = nonempty_network(20)
        fstar, _ = exact_max_flow(G)
        if fstar <= 0:
            pytest.skip("zero max flow")
        net = symmetrize(G, eps)
        maxval, witness = undirected_max_flow_witness(net)
        target = min(2 * fstar + (1 + eps) * G.total_capacity(), maxval)
        w = np.ones(net.edge_count)
        _, _, diag = oracle_step(net, w, target)
        r = compute_resistances(net, w)
        scaled = witness.values * (target / maxval)
        witness_energy = float(np.sum(r * scaled * scaled))
        assert diag.energy <= (1 + eps / 10) * witness_energy * (1 + 1e-9)


def test_iteration_schedule_formula():
    net = single_arc_net(eps=0.5)
    expected = math.ceil(2 * math.sqrt(54) * math.log(3) / 0.25)
    assert iteration_schedule(net) == expected


def test_check_bounded_flow_rejects_bad_value():
    net = single_arc_net()
    good = np.array([7 / 6, 7 / 6, 7 / 6])
    assert check_bounded_flow(net, good, 3.5)
    assert not check_bounded_flow(net, good, 3.6)
    assert not check_bounded_flow(net, np.array([1.6, 1.0, 0.9]), 3.5)


class TestCheckBoundedFlowNonFinite:
    # On the path 0 -> 1 -> 2 at eps 0.25 every comparison with NaN is
    # False, so a test written as ``x > bound`` let an all-NaN flow pass.
    net = symmetrize(DirectedNetwork(3, [(0, 1, 1.0), (1, 2, 1.0)], 0, 2), 0.25)
    target = 2.0 * 0.5 + 1.25 * 2.0

    def valid(self):
        return np.array(solve_bounded_flow(self.net, self.target).flow.values)

    def test_the_valid_flow_passes(self):
        assert check_bounded_flow(self.net, self.valid(), self.target)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_all_entries(self, bad):
        values = np.full(self.net.edge_count, bad)
        assert not check_bounded_flow(self.net, values, self.target)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_entry(self, bad):
        for k in range(self.net.edge_count):
            values = self.valid()
            values[k] = bad
            assert not check_bounded_flow(self.net, values, self.target)

    def test_nan_target(self):
        assert not check_bounded_flow(self.net, self.valid(), np.nan)

    @pytest.mark.parametrize("target", [np.inf, -np.inf])
    def test_infinite_target(self, target):
        # Its tolerance rtol * max(1, |target|) would be infinite.
        assert not check_bounded_flow(self.net, self.valid(), target)

    @pytest.mark.parametrize("target", [np.inf, -np.inf, np.nan])
    def test_attempts_reject_a_non_finite_target(self, target):
        with pytest.raises(ValueError, match="finite"):
            next(bounded_flow_attempts(self.net, target))
