import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emaxflow.driver
from emaxflow import (
    BoundedFlowResult,
    DirectedNetwork,
    RecoveryError,
    SolveReport,
    approx_max_flow,
    exact_max_flow,
    symmetrize,
)
from emaxflow.driver import _MAX_PROBES, _threshold_cut, undirected_max_flow_witness

from corpus import (
    grid_network,
    nonempty_network,
    random_network,
    random_sized_network,
    reduction_corpus,
)
from oracles import (
    brute_force_max_flow,
    directed_min_cut,
    symmetrized_cut_value,
    threshold_cut_reference,
    undirected_min_cut,
)


def diamond():
    return DirectedNetwork(
        4, [(0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 3), (1, 2, 1)], 0, 3
    )


def ldexp_network(G, shift):
    """``G`` with every capacity multiplied by 2**shift, which is exact."""
    arcs = np.stack([G.tails, G.heads, np.ldexp(G.capacities, shift)], axis=1)
    return DirectedNetwork(G.vertex_count, arcs, G.source, G.sink)


class TestExactMaxFlow:
    def test_single_arc(self):
        G = DirectedNetwork(2, [(0, 1, 5.0)], 0, 1)
        value, flow = exact_max_flow(G)
        assert value == 5.0
        assert flow.values == pytest.approx([5.0])

    def test_path_bottleneck(self):
        G = DirectedNetwork(3, [(0, 1, 1.0), (1, 2, 1.0)], 0, 2)
        value, _ = exact_max_flow(G)
        assert value == 1.0

    def test_diamond(self):
        value, flow = exact_max_flow(diamond())
        assert value == 5.0
        assert flow.source_outflow() == pytest.approx(5.0)
        assert flow.interior_residual_max() <= 1e-9
        assert directed_min_cut(diamond()) == 5.0

    def test_witness_is_feasible(self):
        for seed in (0, 3, 7, 11):
            G = nonempty_network(seed)
            value, flow = exact_max_flow(G)
            assert (flow.values >= -1e-12).all()
            assert (flow.values <= G.capacities + 1e-12).all()
            assert flow.source_outflow() == pytest.approx(value, abs=1e-9)
            assert flow.interior_residual_max() <= 1e-9 * max(1.0, value)

    def test_integral_instances_integral_values(self):
        for seed in range(20):
            G = random_network(seed)
            value, _ = exact_max_flow(G)
            assert value == int(value)

    def test_matches_cut_enumeration(self):
        for seed in range(25):
            G = random_network(seed, n_max=8)
            value, _ = exact_max_flow(G)
            assert value == pytest.approx(directed_min_cut(G), abs=1e-9)

    def test_matches_brute_force(self):
        for seed in range(15):
            G = random_network(seed, n_max=5, m_max=8, cap_max=2)
            value, _ = exact_max_flow(G)
            assert value == brute_force_max_flow(G)

    @pytest.mark.parametrize("seed", [0, 3, 7, 11])
    def test_tiny_capacities_are_not_saturated(self, seed):
        # Below 1 an arc's saturation threshold is relative to its own
        # capacity, so scaling these capacities down by 2**60 scales the value
        # exactly instead of reading every arc as saturated.
        G = nonempty_network(seed)
        value, _ = exact_max_flow(G)
        assert value > 0
        assert exact_max_flow(ldexp_network(G, -60))[0] == np.ldexp(value, -60)

    def test_large_dead_end_arc_does_not_saturate_others(self):
        # The threshold follows each arc's own capacity, not the largest one.
        G = DirectedNetwork(3, [(0, 1, 1.0), (0, 2, 1e13)], 0, 1)
        assert exact_max_flow(G)[0] == 1.0

    def test_large_integer_capacities_are_exact(self):
        # A residual of 1 left on an arc of 1e13 still carries flow.
        arcs = [(0, 1, 1e13), (1, 3, 1e13 - 1), (1, 2, 1.0), (2, 3, 1.0)]
        G = DirectedNetwork(4, arcs, 0, 3)
        assert exact_max_flow(G)[0] == 1e13

    def test_long_path(self):
        # An augmenting path longer than the interpreter's recursion limit.
        G = DirectedNetwork(1500, [(i, i + 1, 1.0) for i in range(1499)], 0, 1499)
        value, flow = exact_max_flow(G)
        assert value == 1.0
        assert (flow.values == 1.0).all()


class TestExactUndirected:
    def test_single_arc_value(self):
        G = DirectedNetwork(2, [(0, 1, 1.0)], 0, 1)
        net = symmetrize(G, 0.5)
        assert undirected_max_flow_witness(net)[0] == pytest.approx(4.0)

    def test_two_arc_path_small_epsilon(self):
        G = DirectedNetwork(3, [(0, 1, 1.0), (1, 2, 1.0)], 0, 2)
        net = symmetrize(G, 1e-9)
        assert undirected_max_flow_witness(net)[0] == pytest.approx(4.0, rel=1e-6)

    def test_empty(self):
        G = DirectedNetwork(2, [], 0, 1)
        net = symmetrize(G, 0.25)
        assert undirected_max_flow_witness(net)[0] == 0.0

    def test_matches_cut_enumeration(self):
        for seed in range(20):
            G = random_network(seed, n_max=7)
            if G.edge_count == 0:
                continue
            net = symmetrize(G, 0.3)
            assert undirected_max_flow_witness(net)[0] == pytest.approx(
                undirected_min_cut(net), rel=1e-9
            )

    def test_witness_conserves(self):
        net = symmetrize(nonempty_network(3), 0.25)
        value, flow = undirected_max_flow_witness(net)
        assert flow.source_outflow() == pytest.approx(value, abs=1e-9)
        assert flow.interior_residual_max() <= 1e-9 * max(1.0, value)
        assert (np.abs(flow.values) <= net.capacities + 1e-9).all()


class TestReductionValueStructure:
    """What the symmetrized max flow actually equals, versus the claimed
    closed form (2+eps) F* + (1+eps) U, which fails on real digraphs."""

    def test_general_cut_formula_always_matches(self):
        for seed in range(30):
            G = random_network(seed, n_max=8)
            if G.edge_count == 0:
                continue
            for eps in (0.1, 0.4):
                net = symmetrize(G, eps)
                assert undirected_max_flow_witness(net)[0] == pytest.approx(
                    symmetrized_cut_value(G, eps), rel=1e-9
                )

    def test_verify_bounds_hold_on_c1_corpus(self):
        # Every cut has leaving >= F* and entering <= U - leaving, so the
        # cut formula lies in [(2+2eps) F* + U, (2+eps) F* + (1+eps) U],
        # the range `emaxflow verify` accepts.
        for G in reduction_corpus():
            fstar, _ = exact_max_flow(G)
            total = G.total_capacity()
            for eps in (0.1, 0.25, 0.4):
                value = symmetrized_cut_value(G, eps)
                tol = 1e-9 * max(1.0, value)
                assert (2 + 2 * eps) * fstar + total <= value + tol
                assert value <= (2 + eps) * fstar + (1 + eps) * total + tol

    def test_closed_form_holds_without_entering_arcs(self):
        # two-layer networks (every arc leaves s or enters t) never have an
        # arc entering a cut's source side, so the closed form is exact.
        G = DirectedNetwork(
            4, [(0, 1, 2), (1, 3, 1), (0, 2, 1), (2, 3, 3), (0, 3, 1)], 0, 3
        )
        fstar, _ = exact_max_flow(G)
        for eps in (0.1, 0.25, 0.4):
            net = symmetrize(G, eps)
            expected = (2 + eps) * fstar + (1 + eps) * G.total_capacity()
            assert undirected_max_flow_witness(net)[0] == pytest.approx(expected, rel=1e-12)

    def test_closed_form_counterexample(self):
        # A 5-arc DAG on which the closed form overstates the undirected
        # max flow by 5*eps: the cut {s, a} counts the heavy entering arc.
        G = DirectedNetwork(
            4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (2, 1, 5)], 0, 3
        )
        fstar, _ = exact_max_flow(G)
        assert fstar == 2.0
        for eps in (0.1, 0.25, 0.4):
            net = symmetrize(G, eps)
            actual = undirected_max_flow_witness(net)[0]
            assert actual == pytest.approx(13 + 6 * eps, rel=1e-9)
            claimed = (2 + eps) * fstar + (1 + eps) * G.total_capacity()
            assert claimed == pytest.approx(13 + 11 * eps, rel=1e-12)
            assert actual < claimed - 1e-6


# Potentials with many ties (small integers) as well as spread-out floats.
_potential = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestThresholdCut:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 199), data=st.data())
    def test_bounds_max_flow(self, seed, data):
        G = random_network(seed)  # the reduction corpus
        phi = data.draw(st.lists(_potential, min_size=G.vertex_count, max_size=G.vertex_count))
        assert _threshold_cut(G, np.array(phi)) >= exact_max_flow(G)[0]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_matches_brute_force_over_levels(self, seed, data):
        G = random_network(seed, n_max=8, m_max=20)
        phi = data.draw(st.lists(_potential, min_size=G.vertex_count, max_size=G.vertex_count))
        got = _threshold_cut(G, np.array(phi))
        want = threshold_cut_reference(G, phi)
        assert got == want


def _probe_values(monkeypatch):
    """Spy on the driver's `bounded_flow_attempts`; returns the list that
    collects each probe's value F from its target 2F + (1+eps')U."""
    started = []
    attempts = emaxflow.driver.bounded_flow_attempts

    def spy(net, target, *args, **kwargs):
        baseline = (1.0 + net.epsilon) * float(net.arc_capacities.sum())
        started.append((target - baseline) / 2.0)
        return attempts(net, target, *args, **kwargs)

    monkeypatch.setattr(emaxflow.driver, "bounded_flow_attempts", spy)
    return started


class TestCutCertifiedProbes:
    @pytest.mark.parametrize("seed, rows, cols", [(0, 3, 4), (3, 3, 4), (2, 4, 5)])
    def test_no_probe_started_above_the_line(self, monkeypatch, seed, rows, cols):
        # On these grids the unit-weight threshold cut is a minimum cut, so
        # the search starts at F* and every probe reaches the oracle below it.
        G = grid_network(seed, rows, cols)
        eps = 0.25
        started = _probe_values(monkeypatch)
        rec, report = approx_max_flow(G, eps, exact_check=True)
        fstar = report.exact_value
        assert report.upper_bound == fstar
        assert started and len(started) == report.search_iterations
        assert max(started) <= report.upper_bound
        assert rec.value >= (1 - eps) * fstar

    def test_cut_lowers_the_top_and_the_calls(self, monkeypatch):
        # The cut lowers the search's top from the source/sink cut, 300, to
        # F* = 135 on this grid, and the search makes fewer oracle calls
        # from there (5 against 54); both searches keep the guarantee.
        G = grid_network(3, 3, 3)
        eps = 0.25
        rec, report = approx_max_flow(G, eps, exact_check=True)
        monkeypatch.setattr(emaxflow.driver, "_threshold_cut", lambda net, phi: np.inf)
        rec0, report0 = approx_max_flow(G, eps)
        assert report.upper_bound == report.exact_value < report0.upper_bound
        assert report.oracle_calls < report0.oracle_calls
        assert rec.value >= (1 - eps) * report.exact_value
        assert rec0.value >= (1 - eps) * report.exact_value

    def test_c6_instance_6_skips_its_hopeless_probes(self, monkeypatch):
        # The cut bounds F* = 5 exactly, so no probe starts above it: two
        # probes recover F* in 5 oracle calls with no failure.  Before the
        # cut, probes above (1+eps') F* took 8,699 of its 9,335 oracle calls.
        G = random_sized_network(1006, 10, 22)
        started = _probe_values(monkeypatch)
        rec, report = approx_max_flow(G, 0.1)
        assert rec.value == pytest.approx(5.0, rel=1e-12)
        assert report.upper_bound == 5.0 and max(started) <= report.upper_bound
        assert report.fail_count == 0
        assert report.oracle_calls < 1_000

    def test_every_probe_reaches_the_oracle_below_the_bound(self, monkeypatch):
        started = _probe_values(monkeypatch)
        for seed in range(200):
            started.clear()
            _, report = approx_max_flow(random_network(seed), 0.25)
            assert len(started) == report.search_iterations
            assert all(value <= report.upper_bound for value in started)

    def test_upper_bound_is_certified(self):
        for seed in range(12):
            G = random_network(seed)
            rec, report = approx_max_flow(G, 0.25, exact_check=True)
            assert report.exact_value <= report.upper_bound
            assert rec.value <= report.upper_bound
            if report.exact_value == 0.0:
                assert report.upper_bound == 0.0


class TestWarmStart:
    @pytest.mark.parametrize(
        "G, cut, max_iterations",
        [
            # With the cut off, probes above F* reach the oracle and fail on
            # energy between successes.
            (grid_network(3, 3, 3), False, None),
            # A tiny budget leaves the third probe unknown after its resume
            # at 40 calls, two budgets of 20; it starts from the first
            # probe's weights, across a one-call energy failure.
            (grid_network(2, 4, 4), True, 10),
        ],
    )
    def test_probes_start_from_the_last_uncertified_weights(
        self, monkeypatch, G, cut, max_iterations
    ):
        runs = []  # [start weights, last result] of each probe
        attempts = emaxflow.driver.bounded_flow_attempts

        def spy(*args, weights=None, **kwargs):
            run = [weights, None]
            runs.append(run)
            for result in attempts(*args, weights=weights, **kwargs):
                run[1] = result
                yield result

        monkeypatch.setattr(emaxflow.driver, "bounded_flow_attempts", spy)
        if not cut:
            monkeypatch.setattr(emaxflow.driver, "_threshold_cut", lambda net, phi: np.inf)
        if max_iterations is not None:
            monkeypatch.setattr(emaxflow.mwu, "DEFAULT_ITERATION_CAP", max_iterations)
        approx_max_flow(G, 0.25)

        assert runs[0][0] is None  # unit weights
        carried = None
        for start, last in runs:
            assert start is carried
            if not last.certified_infeasible:
                carried = last.weights
        assert any(start is not None for start, _ in runs)
        lasts = [last for _, last in runs]
        unknown = [last for last in lasts if not (last.succeeded or last.certified_infeasible)]
        assert bool(unknown) == cut
        # Failures after more than one call end with weights of their own,
        # and no probe starts from them.
        moved = [last for last in lasts if last.certified_infeasible and last.iterations > 1]
        assert bool(moved) != cut
        for last in moved:
            assert all(start is not last.weights for start, _ in runs)


class TestRecoveryFailure:
    def test_a_rejected_flow_lowers_the_top(self, monkeypatch):
        # The second probe succeeds, but its recovery is made to fail: it
        # counts as a failure, the next probe sits a quarter of the way
        # from the best value up to it, and starts from its final weights.
        # On the diamond the first recovery is worth F* and ends the search;
        # on this path, with F* = 2, it is worth about 1.74.
        G = DirectedNetwork(4, [(0, 1, 2), (1, 2, 3), (2, 3, 2)], 0, 3)
        eps_i = 0.25 / 4
        probes = []  # [probe value, start weights, last result] of each run
        recovered = []  # (probe index, value or None when made to fail)
        attempts = emaxflow.driver.bounded_flow_attempts
        recover = emaxflow.driver.recover_directed_flow

        def spy_attempts(net, target, *args, weights=None, **kwargs):
            baseline = (1.0 + eps_i) * float(net.arc_capacities.sum())
            run = [(target - baseline) / 2.0, weights, None]
            probes.append(run)
            for result in attempts(net, target, *args, weights=weights, **kwargs):
                run[2] = result
                yield result

        def spy_recover(flow, network):
            if len(recovered) == 1:
                recovered.append((len(probes) - 1, None))
                raise RecoveryError("made to fail")
            rec = recover(flow, network)
            recovered.append((len(probes) - 1, rec.value))
            return rec

        monkeypatch.setattr(emaxflow.driver, "bounded_flow_attempts", spy_attempts)
        monkeypatch.setattr(emaxflow.driver, "recover_directed_flow", spy_recover)
        rec, report = approx_max_flow(G, 0.25)

        (first, best), (failed, none) = recovered[:2]
        assert none is None and probes[failed][2].succeeded
        assert len(probes) == report.search_iterations > failed + 1
        returned = [value for _, value in recovered if value is not None]
        assert report.fail_count == report.search_iterations - len(returned)
        assert probes[failed + 1][0] == pytest.approx(
            0.25 * best + 0.75 * probes[failed][0], rel=1e-12
        )
        assert probes[failed + 1][1] is probes[failed][2].weights
        f = rec.directed_flow.values
        assert rec.value == max(returned)
        assert (f >= 0).all() and (f <= G.capacities).all()
        assert rec.directed_flow.interior_residual_max() <= 1e-9 * max(1.0, rec.value)


class TestApproxMaxFlow:
    def test_single_arc(self):
        G = DirectedNetwork(2, [(0, 1, 1.0)], 0, 1)
        rec, report = approx_max_flow(G, 0.25, exact_check=True)
        assert rec.value >= 0.75
        assert report.exact_value == 1.0
        assert report.ratio >= 0.75

    def test_disconnected_returns_zero_without_oracle_calls(self):
        G = DirectedNetwork(4, [(0, 1, 2.0), (2, 3, 2.0)], 0, 3)
        rec, report = approx_max_flow(G, 0.2)
        assert rec.value == 0.0
        assert report.oracle_calls == 0

    def test_empty_graph(self):
        G = DirectedNetwork(2, [], 0, 1)
        rec, report = approx_max_flow(G, 0.2, exact_check=True)
        assert rec.value == 0.0
        assert report.exact_value == 0.0

    def test_diamond(self):
        rec, report = approx_max_flow(diamond(), 0.1, exact_check=True)
        assert report.exact_value == 5.0
        assert rec.value >= 4.5

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            approx_max_flow(diamond(), 0.7)
        with pytest.raises(ValueError):
            approx_max_flow(diamond(), 0.0)

    def test_feasibility_unconditional(self):
        for seed in (0, 5, 9, 14):
            G = nonempty_network(seed)
            rec, _ = approx_max_flow(G, 0.25)
            f = rec.directed_flow.values
            assert (f >= 0).all()
            assert (f <= G.capacities + 1e-12).all()
            assert rec.directed_flow.interior_residual_max() <= 1e-9 * max(
                1.0, rec.value
            )

    def test_never_beats_optimum(self):
        for seed in (0, 3, 8, 15):
            G = nonempty_network(seed)
            rec, report = approx_max_flow(G, 0.2, exact_check=True)
            assert rec.value <= report.exact_value * (1 + 1e-6)
            if report.exact_value > 0:
                assert report.ratio <= 1 + 1e-9

    def test_guarantee_on_small_corpus(self):
        for seed in range(12):
            G = random_network(seed)
            eps = (0.1, 0.25)[seed % 2]
            rec, report = approx_max_flow(G, eps, exact_check=True)
            if report.exact_value and report.exact_value > 0:
                assert rec.value >= (1 - eps) * report.exact_value - 1e-9

    def test_arcs_on_no_simple_path_are_dropped(self):
        # Only 3 of the 22 arcs lie on a simple s-t path.  Left in, the
        # others enter the source side of cuts and cap the values the
        # symmetrized network can carry at F = 1.175 against F* = 5.
        G = random_sized_network(1006, 10, 22)
        rec, report = approx_max_flow(G, 0.1, exact_check=True)
        assert rec.value >= 0.9 * report.exact_value
        f = rec.directed_flow.values
        assert rec.directed_flow.network is G
        assert (f >= 0).all() and (f <= G.capacities).all()
        assert rec.directed_flow.interior_residual_max() <= 1e-9 * max(1.0, rec.value)

    def test_slow_probes_are_not_upper_bounds(self):
        # Probes at 219.97 and 235.5 verify only after ~1,800-2,000 oracle
        # calls; reading a slow probe as infeasible ends far below F*.
        G = random_sized_network(1020, 65, 319)
        rec, report = approx_max_flow(G, 0.1, exact_check=True)
        assert rec.value >= 0.9 * report.exact_value

    def test_unknown_probes_stop_at_the_probe_limit(self, monkeypatch):
        # Every probe ends unknown after its resume, so each lowers the top
        # by a quarter and none gives a flow: the search stops after
        # `_MAX_PROBES` probes with the zero flow.
        def unknown(net, target, *, weights=None, **kwargs):
            w = np.ones(net.edge_count) if weights is None else weights
            for i in (1, 2):
                yield BoundedFlowResult(None, i, "iteration-budget", w)

        monkeypatch.setattr(emaxflow.driver, "bounded_flow_attempts", unknown)
        rec, report = approx_max_flow(diamond(), 0.25)
        assert report.search_iterations == report.fail_count == _MAX_PROBES
        assert report.oracle_calls == 2 * _MAX_PROBES
        assert rec.value == 0.0 and not rec.directed_flow.values.any()

    def test_trace_lines_match_oracle_calls(self):
        records = []
        _, report = approx_max_flow(
            diamond(), 0.25, on_trace=lambda rec: records.append(rec)
        )
        assert len(records) == report.oracle_calls
        assert {"probe", "iter", "energy", "threshold", "max_cong"} <= set(
            records[0].keys()
        )

    @pytest.mark.parametrize(
        "G, extra",
        [
            # The threshold cut leaves the top at the source/sink cut, so
            # the first probe takes the pre-search call as its first.
            (DirectedNetwork(2, [(0, 1, 1.0)], 0, 1), 0),
            (diamond(), 0),
            # The cut lowers the top from 300 to 135: the pre-search call
            # priced another target, and the first probe does not take it.
            (grid_network(3, 3, 3), 1),
        ],
        ids=["single-arc", "diamond", "grid-3x3"],
    )
    def test_oracle_steps_match_oracle_calls(self, monkeypatch, G, extra):
        steps = []
        for module in (emaxflow.driver, emaxflow.mwu):
            step = module.oracle_step

            def spy(*args, step=step, **kwargs):
                steps.append(None)
                return step(*args, **kwargs)

            monkeypatch.setattr(module, "oracle_step", spy)
        records = []
        _, report = approx_max_flow(G, 0.25, on_trace=records.append)
        top = min(G.out_capacity(G.source), G.in_capacity(G.sink))
        assert (report.upper_bound < top) == bool(extra)
        assert len(steps) == report.oracle_calls + extra
        assert len(records) == report.oracle_calls

    def test_no_trace_without_a_callback(self, monkeypatch):
        traces = []
        attempts = emaxflow.driver.bounded_flow_attempts

        def spy(*args, trace=None, **kwargs):
            traces.append(trace)
            return attempts(*args, trace=trace, **kwargs)

        monkeypatch.setattr(emaxflow.driver, "bounded_flow_attempts", spy)
        approx_max_flow(diamond(), 0.25)
        assert traces and all(t is None for t in traces)
        approx_max_flow(diamond(), 0.25, on_trace=lambda rec: None)
        assert traces[-1] is not None

    def test_capacities_far_from_one(self):
        # Squared capacities would overflow or underflow the resistances;
        # the solve runs on capacities scaled by a power of two instead.
        eps = 0.25
        G = nonempty_network(3)
        fstar, _ = exact_max_flow(G)
        results = {}
        for shift in (-600, 600):
            big = ldexp_network(G, shift)
            rec, report = approx_max_flow(big, eps, exact_check=True)
            f = rec.directed_flow.values
            assert (f >= 0).all() and (f <= big.capacities).all()
            assert rec.directed_flow.interior_residual_max() <= 1e-9 * rec.value
            assert rec.directed_flow.source_outflow() == pytest.approx(rec.value, rel=1e-9)
            assert report.exact_value == np.ldexp(fstar, shift)
            assert rec.value >= (1 - eps) * report.exact_value
            assert report.upper_bound >= report.exact_value
            results[shift] = rec
        # Both solve the same scaled network, so they differ by 2**1200 exactly.
        assert np.ldexp(results[-600].value, 1200) == results[600].value
        low, high = results[-600].directed_flow.values, results[600].directed_flow.values
        assert (np.ldexp(low, 1200) == high).all()

    def test_huge_dead_end_arc_leaves_the_scale_alone(self):
        # The scaling shift comes from the arcs the solve keeps, so a pruned
        # arc of 1e160 does not push a unit path down to 1e-160.
        G = DirectedNetwork(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1e160)], 0, 2)
        rec, report = approx_max_flow(G, 0.25, exact_check=True)
        assert report.exact_value == 1.0
        assert rec.value >= 0.75
        assert rec.directed_flow.values[2] == 0.0

    def test_epsilon_budget_composition(self):
        # the internal split must leave (1-eps) of the optimum: a (1+eps')
        # recovery loss times the (1+eps'/2)(1+eps') search gap, eps' = eps/4
        for eps in np.linspace(0.01, 0.499, 200):
            eps_i = eps / 4
            worst = (1 + eps_i) * (1 + eps_i / 2) * (1 + eps_i)
            assert 1.0 / worst >= 1 - eps


class TestSolveReport:
    def test_roundtrip(self):
        _, report = approx_max_flow(diamond(), 0.25, exact_check=True, instance="d")
        payload = json.dumps(report.to_dict())
        again = SolveReport.from_dict(json.loads(payload))
        assert again.to_dict() == report.to_dict()

    def test_twelve_significant_digits(self):
        _, report = approx_max_flow(diamond(), 0.25, exact_check=True)
        d = report.to_dict()
        assert d["approx_value"] == float(f"{d['approx_value']:.12g}")
        assert set(d.keys()) == {
            "instance",
            "n",
            "m",
            "epsilon",
            "approx_value",
            "exact_value",
            "ratio",
            "search_iterations",
            "oracle_calls",
            "mwu_iterations_total",
            "fail_count",
            "wall_time_ms",
            "upper_bound",
        }

    def test_reports_without_upper_bound_load(self):
        _, report = approx_max_flow(diamond(), 0.25, exact_check=True)
        d = report.to_dict()
        assert d["upper_bound"] == 5.0
        del d["upper_bound"]
        assert SolveReport.from_dict(d).upper_bound is None

    def test_additive_keys_are_harmless(self):
        # A report from a later version may carry keys this one lacks, and a
        # solve without --exact-check stores exact_value as null.
        _, report = approx_max_flow(diamond(), 0.25, instance="d")
        d = json.loads(json.dumps(report.to_dict()))
        assert d["exact_value"] is None
        loaded = SolveReport.from_dict({**d, "probes": [{"value": 3.75}]})
        assert loaded.exact_value is None
        assert loaded.to_dict() == d


def test_package_surface():
    # The package exports what README documents, with the types and
    # exceptions of those functions; anything else comes from a submodule.
    import emaxflow

    assert set(emaxflow.__all__) == {
        "approx_max_flow",
        "electrical_st_flow",
        "exact_max_flow",
        "parse_dimacs",
        "recover_directed_flow",
        "solve_bounded_flow",
        "symmetrize",
        "BoundedFlowResult",
        "DirectedNetwork",
        "ElectricalSolveResult",
        "FlowAssignment",
        "RecoveryResult",
        "SolveReport",
        "SymmetrizedNetwork",
        "ConvergenceError",
        "DimacsParseError",
        "DisconnectedNetworkError",
        "RecoveryError",
        "RepairError",
        "WidthViolationError",
    }
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    for name in emaxflow.__all__:
        obj = getattr(emaxflow, name)
        assert obj.__module__.startswith("emaxflow.")
        if inspect.isfunction(obj):
            assert re.search(rf"\b{name}\b", readme), f"README does not name {name}"
