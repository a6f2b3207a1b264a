import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emaxflow import (
    DirectedNetwork,
    FlowAssignment,
    RecoveryError,
    recover_directed_flow,
    solve_bounded_flow,
    symmetrize,
)
from emaxflow.recovery import (
    _path_flows,
    cycle_cancel,
    extract_directed,
    link_routing_values,
    subtract_and_halve,
)

from corpus import nonempty_network
from oracles import (
    cycle_cancel_reference,
    is_acyclic_support,
    path_flows_reference,
    random_conserving_flow,
    scaled_recovery_reference,
)


def single_arc(eps=0.5):
    G = DirectedNetwork(2, [(0, 1, 1.0)], 0, 1)
    return G, symmetrize(G, eps)


def on_arcs(G, arc_vals):
    """A symmetrized flow carrying ``arc_vals`` on the original edges and
    nothing on the links."""
    net = symmetrize(G, 0.25)
    vals = np.zeros(net.edge_count)
    vals[0::3] = arc_vals
    return FlowAssignment(net, vals)


def balanced_by_links(G, eps, arc_vals):
    """The bounded symmetrized flow whose halved flow carries ``arc_vals``
    (each in [0, (1+eps)u]) on the original edges and balances every
    interior vertex over its links.  An excess returns to the source over
    the vertex's source links, and a deficit comes from the sink over its
    sink links, each split in proportion to the arcs' capacities.  Returns
    the bounded flow and its halved flow's value V."""
    n, s, t = G.vertex_count, G.source, G.sink
    caps = G.capacities
    excess = np.bincount(G.heads, arc_vals, n) - np.bincount(G.tails, arc_vals, n)
    excess[[s, t]] = 0.0
    into = np.bincount(G.heads, caps, n)
    out = np.bincount(G.tails, caps, n)
    gain = np.divide(np.maximum(excess, 0.0), into, out=np.zeros(n), where=into > 0)
    loss = np.divide(np.maximum(-excess, 0.0), out, out=np.zeros(n), where=out > 0)
    net = symmetrize(G, eps)
    halved = np.stack([arc_vals, -gain[G.heads] * caps, -loss[G.tails] * caps], axis=1)
    halved = FlowAssignment(net, halved.ravel())
    f = FlowAssignment(net, 2.0 * halved.values + link_routing_values(net))
    return f, halved.source_outflow()


def cyclic_flow_with_links(seed, eps, noise):
    """A positive maximum flow of a random network scaled up by up to
    (1+eps), plus random flow on about half the arcs (``noise`` of (1+eps)u
    at most), balanced by links: arc flow with cycles and dead ends."""
    from emaxflow import exact_max_flow

    while True:
        G = nonempty_network(seed, n_min=4)
        fstar, witness = exact_max_flow(G)
        if fstar > 0:
            break
        seed += 100_003
    rng = np.random.default_rng(seed)
    bound = (1.0 + eps) * G.capacities
    hit = rng.random(G.edge_count) < 0.5
    arc_vals = witness.values * rng.uniform(1.0, 1.0 + eps)
    arc_vals = arc_vals + hit * noise * rng.uniform(0.0, 1.0, G.edge_count) * bound
    arc_vals = np.minimum(arc_vals, bound)
    return (G, *balanced_by_links(G, eps, arc_vals))


class TestSubtractAndHalve:
    def test_worked_single_arc(self):
        _, net = single_arc()
        f = FlowAssignment(net, [1.0, 1.25, 1.25])
        assert f.source_outflow() == pytest.approx(3.5)
        h = subtract_and_halve(f)
        assert h.values == pytest.approx([1.25, -0.125, -0.125], abs=1e-12)
        assert h.source_outflow() == pytest.approx(1.0, abs=1e-12)

    def test_pure_link_routing_cancels_to_zero(self):
        _, net = single_arc()
        f = FlowAssignment(net, link_routing_values(net))
        assert f.source_outflow() == pytest.approx(1.5)  # (1+eps) * total capacity
        h = subtract_and_halve(f)
        assert h.values == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)

    def test_range_violation_raises(self):
        _, net = single_arc()
        # original edge pushed far below its allowed recovery range
        f = FlowAssignment(net, [-3.0 * 1.5, 1.25, 1.25])
        with pytest.raises(RecoveryError):
            subtract_and_halve(f)

    def test_output_ranges_on_solver_flows(self):
        for seed in (1, 4, 6):
            G = nonempty_network(seed)
            from emaxflow import exact_max_flow

            fstar, _ = exact_max_flow(G)
            if fstar <= 0:
                continue
            eps = 0.25
            net = symmetrize(G, eps)
            target = 2 * 0.5 * fstar + (1 + eps) * G.total_capacity()
            res = solve_bounded_flow(net, target)
            assert res.succeeded
            h = subtract_and_halve(res.flow)
            bound = (1 + eps) * net.parent_capacity
            orig = np.arange(net.edge_count) % 3 == 0
            tol = 1e-9 * np.maximum(1.0, bound)
            assert (h.values[orig] >= -tol[orig]).all()
            assert (h.values[orig] <= bound[orig] + tol[orig]).all()
            assert (h.values[~orig] <= tol[~orig]).all()
            assert (h.values[~orig] >= -bound[~orig] - tol[~orig]).all()
            assert h.source_outflow() == pytest.approx(0.5 * fstar, rel=1e-8)
            assert h.interior_residual_max() <= 1e-8 * fstar


class TestCycleCancel:
    def test_acyclic_input_unchanged(self):
        G = DirectedNetwork(3, [(0, 1, 2.0), (1, 2, 2.0)], 0, 2)
        f = FlowAssignment(G, [1.0, 1.0])
        out = cycle_cancel(f)
        assert (out.values == f.values).all()

    def test_triangle_circulation_zeroed(self):
        G = DirectedNetwork(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], 0, 2)
        f = FlowAssignment(G, [1.0, 1.0, 1.0])
        out = cycle_cancel(f)
        # 0->1->2 carries s-t value 1; the 2->0 arc closes a cycle of 1
        assert out.source_outflow() == pytest.approx(f.source_outflow())
        assert out.interior_residual_max() == 0.0
        assert out.values[2] == pytest.approx(0.0)

    def test_worked_single_arc_chain(self):
        _, net = single_arc()
        f = FlowAssignment(net, [1.25, -0.125, -0.125])
        out = cycle_cancel(f)
        assert out.values == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert out.source_outflow() == pytest.approx(1.0, abs=1e-12)
        assert out.interior_residual_max() <= 1e-12

    def test_self_loop_zeroed(self):
        G = DirectedNetwork(3, [(0, 1, 1), (1, 2, 1)], 0, 2)
        net = symmetrize(G, 0.25)
        vals = np.zeros(net.edge_count)
        # sink link of arc (1, 2) is (1, 2)->(1, t)... pick the source link
        # of arc (0, 1): (s, 1); no self-loops here, so fabricate one by
        # using a network with an arc into the source.
        G2 = DirectedNetwork(3, [(1, 0, 1), (0, 2, 1)], 0, 2)
        net2 = symmetrize(G2, 0.25)
        loops = np.asarray(net2.tails == net2.heads)
        assert loops.any()
        vals2 = np.zeros(net2.edge_count)
        vals2[np.flatnonzero(loops)[0]] = 0.7
        out = cycle_cancel(FlowAssignment(net2, vals2))
        assert (out.values[loops] == 0.0).all()

    def test_acyclic_by_topological_sort(self):
        rng = np.random.default_rng(2)
        for seed in (3, 8, 13):
            net = symmetrize(nonempty_network(seed, n_min=4), 0.3)
            f = random_conserving_flow(net, 1.3, rng)
            assert not is_acyclic_support(f)
            out = cycle_cancel(f)
            assert is_acyclic_support(out)

    def test_random_conserving_flows_are_mostly_cyclic(self):
        # The flows the tests here cancel must hold cycles to cancel.
        cyclic = 0
        for seed in range(100):
            G = nonempty_network(seed, n_min=3)
            for net in (G, symmetrize(G, 0.3)):
                f = random_conserving_flow(net, 2.0, np.random.default_rng(seed))
                cyclic += not is_acyclic_support(f)
        assert cyclic >= 150

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000), value=st.floats(0, 4, allow_nan=False))
    def test_value_preserved_and_magnitudes_shrink(self, seed, value):
        net = symmetrize(nonempty_network(seed, n_min=3), 0.3)
        rng = np.random.default_rng(seed)
        f = random_conserving_flow(net, value, rng)
        out = cycle_cancel(f)
        scale = max(1.0, float(np.abs(f.values).max()))
        assert out.source_outflow() == pytest.approx(f.source_outflow(), abs=1e-9 * scale)
        assert (np.abs(out.values) <= np.abs(f.values) + 1e-12 * scale).all()
        assert is_acyclic_support(out)


class TestCycleCancelMatchesReference:
    """The library's cycle cancelling returns the reference loop's bits."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        value=st.floats(0, 4, allow_nan=False),
        symmetrized=st.booleans(),
        integral=st.booleans(),
        zeros=st.booleans(),
    )
    def test_bit_identical(self, seed, value, symmetrized, integral, zeros):
        G = nonempty_network(seed, n_min=3)
        net = symmetrize(G, 0.3) if symmetrized else G
        rng = np.random.default_rng(seed)
        if integral:
            # Small integers make cycles whose minimum several edges share.
            vals = rng.integers(-3, 4, net.edge_count).astype(float)
        else:
            vals = random_conserving_flow(net, value, rng).values.copy()
        if zeros:
            hit = rng.random(net.edge_count) < 0.3
            vals[hit] = np.where(rng.random(int(hit.sum())) < 0.5, 0.0, -0.0)
        f = FlowAssignment(net, vals)
        out = cycle_cancel(f).values
        ref = cycle_cancel_reference(f).values
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))


class TestExtractDirected:
    def test_worked_chain(self):
        G, net = single_arc()
        f = FlowAssignment(net, [1.0, 0.0, 0.0])
        rec = extract_directed(f, G)
        assert rec.directed_flow.values == pytest.approx([1.0])
        assert rec.value == pytest.approx(1.0)
        assert not rec.scaled
        assert rec.max_capacity_ratio == pytest.approx(1.0)

    def test_scaling_applied_above_capacity(self):
        G, net = single_arc()
        f = FlowAssignment(net, [1.5, 0.0, 0.0])
        rec = extract_directed(f, G)
        assert rec.scaled
        assert rec.max_capacity_ratio == pytest.approx(1.5)
        assert rec.directed_flow.values == pytest.approx([1.0])
        assert rec.value == pytest.approx(1.0)

    def test_zero_flow(self):
        G, net = single_arc()
        rec = extract_directed(FlowAssignment.zeros(net), G)
        assert rec.value == 0.0
        assert not rec.scaled

    def test_link_flow_is_not_read(self):
        # The source link returns 0.5 to the source, so the halved flow is
        # worth V = 0.5, which cancelling cycles first would recover; the
        # walk reads only the arc, and its one path carries 1.0.
        G, net = single_arc()
        f = FlowAssignment(net, [1.0, -0.5, 0.0])
        assert cycle_cancel(f).values.tolist() == [0.5, 0.0, 0.0]
        rec = extract_directed(f, G)
        assert rec.value == 1.0
        assert not rec.scaled
        assert rec.max_capacity_ratio == 1.0

    def test_negative_original_rejected(self):
        G, net = single_arc()
        f = FlowAssignment(net, [-0.5, 0.0, 0.0])
        with pytest.raises(RecoveryError, match="negative"):
            extract_directed(f, G)


class TestTruncatePaths:
    def test_truncation_strictly_wins(self):
        # Two disjoint paths 0-1-3 and 0-2-3; arc (0, 1) carries 1.2 times
        # its capacity.  Scaling cuts both paths to 1/1.2 of their flow,
        # truncation cuts only the first one.
        G = DirectedNetwork(4, [(0, 1, 1.0), (1, 3, 2.0), (0, 2, 1.0), (2, 3, 1.0)], 0, 3)
        f = on_arcs(G, [1.2, 1.2, 1.0, 1.0])
        rec = extract_directed(f, G)
        assert scaled_recovery_reference(f, G).source_outflow() == pytest.approx(2.2 / 1.2)
        assert rec.value == pytest.approx(2.0)
        assert rec.scaled is False
        assert rec.max_capacity_ratio == pytest.approx(1.2)
        assert rec.directed_flow.values == pytest.approx([1.0, 1.0, 1.0, 1.0])

    def test_scaled_flow_kept_when_truncation_loses(self):
        # The first path 0-1-2-4 fills arcs (0, 1) and (2, 4), so the paths
        # 0-1-4 and 0-2-4 after it push nothing: truncation is worth 1,
        # scaling by the ratio 2 keeps 1.5.
        G = DirectedNetwork(
            5, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (1, 4, 1.0), (2, 4, 1.0)], 0, 4
        )
        f = on_arcs(G, [2.0, 1.0, 1.0, 1.0, 2.0])
        rec = extract_directed(f, G)
        assert rec.scaled is True
        assert rec.max_capacity_ratio == 2.0
        assert rec.value == pytest.approx(1.5)
        assert rec.directed_flow.values == pytest.approx([1.0, 0.5, 0.5, 0.5, 1.0])

    def test_dead_end_from_rounding_residue(self):
        # Vertex 2 receives 1e-12 and has no out-arc, as a vertex whose
        # inflow a link returns to the source would; the walk takes the
        # path 0-1-3 first (fullest arcs first), then steps from vertex 1
        # into 2 with 1e-12 left on (0, 1) and drops the arc into it.
        G = DirectedNetwork(
            4, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (0, 3, 1.0)], 0, 3
        )
        f = on_arcs(G, [1.2, 1e-12, 1.2 - 1e-12, 1.0])
        rec = extract_directed(f, G)
        out = rec.directed_flow
        assert not rec.scaled
        assert rec.value == pytest.approx(2.0)
        assert (out.values >= 0).all() and (out.values <= G.capacities).all()
        assert out.interior_residual_max() <= 1e-9
        assert out.values[1] == 0.0

    def test_cyclic_input_terminates_feasible(self):
        # The walk takes 0-1-2-3 first, fullest arcs first; what is left,
        # 0.3 around the cycle 1-2-1, is cancelled when the walk meets it.
        G = DirectedNetwork(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0)], 0, 3
        )
        f = on_arcs(G, [1.0, 1.3, 0.3, 1.0])
        rec = extract_directed(f, G)
        out = rec.directed_flow
        assert (out.values >= 0).all() and (out.values <= G.capacities).all()
        assert out.interior_residual_max() <= 1e-9
        assert rec.value >= scaled_recovery_reference(f, G).source_outflow()

    def test_cycle_cancelled_not_its_back_arc_emptied(self):
        # The walk runs 0-1-2 and meets 1 again over (2, 1).  Cancelling
        # the cycle 1-2-1 leaves the paths 0-1-3 and 0-2-3, worth 2 = V.
        # Emptying the back arc instead would take 0-1-2-3 and leave 2 a
        # dead end, worth 1.  The sink link of arc (1, 3) carries the unit
        # that enters 1 from the sink.
        G = DirectedNetwork(
            4,
            [(0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0), (2, 3, 2.0), (2, 1, 2.0), (1, 3, 2.0)],
            0,
            3,
        )
        net = symmetrize(G, 0.25)
        vals = np.zeros(net.edge_count)
        vals[0::3] = [1, 2, 1, 1, 2, 2]
        vals[3 * 5 + 2] = -1.0
        f = FlowAssignment(net, vals)
        assert f.interior_residual_max() == 0.0
        assert f.source_outflow() == 2.0
        rec = extract_directed(f, G)
        assert rec.value == 2.0
        assert not rec.scaled
        assert rec.directed_flow.values.tolist() == [1.0, 0.0, 1.0, 1.0, 0.0, 1.0]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        eps=st.floats(0.05, 0.5),
        excess=st.floats(0.0, 1.0),
        mix=st.floats(0.0, 1.0),
    )
    def test_never_below_the_scaled_flow(self, seed, eps, excess, mix):
        # TestEndToEnd's synthetic bounded flow, built from a blend of two
        # maximum flows (of G, and of G at randomly lowered capacities)
        # scaled up by a factor in [1, 1 + eps].  A scaled single maximum
        # flow would always keep the scaled recovery; the blend is over
        # capacity on some arcs and not others, so either one can win.
        from emaxflow import exact_max_flow

        G = nonempty_network(seed)
        rng = np.random.default_rng(seed)
        lowered = G.capacities * rng.uniform(0.1, 1.0, G.edge_count)
        H = DirectedNetwork(
            G.vertex_count,
            list(zip(G.tails.tolist(), G.heads.tolist(), lowered.tolist())),
            G.source,
            G.sink,
        )
        fstar, witness = exact_max_flow(G)
        fh, witness_h = exact_max_flow(H)
        g = 1.0 + excess * eps
        directed = g * (mix * witness.values + (1.0 - mix) * witness_h.values)
        net = symmetrize(G, eps)
        vals = link_routing_values(net).copy()
        vals[0::3] += 2.0 * directed
        f = FlowAssignment(net, vals)
        rec = recover_directed_flow(f, G)
        # The path flow is worth at least V, the halved flow's value, and
        # the scaled one V / ratio; the path sums round on their own.
        V = subtract_and_halve(f).source_outflow()
        assert rec.value >= V / max(1.0, rec.max_capacity_ratio) - 1e-12 * max(1.0, V)
        out = rec.directed_flow.values
        assert (out >= 0).all() and (out <= G.capacities).all()
        F = g * (mix * fstar + (1.0 - mix) * fh)
        assert rec.directed_flow.interior_residual_max() <= 1e-9 * max(1.0, F)


@st.composite
def walk_inputs(draw):
    """A small digraph with parallel arcs, arcs into the source and out of
    the sink, and nonnegative arc flows drawn partly from a few values, so
    that paths and cycles often hold their bottleneck on several arcs."""
    n = draw(st.integers(2, 7))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(ends, max_size=24))
    few = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    value = few | st.floats(0.0, 4.0)
    cap = few.filter(bool) | st.floats(1e-3, 4.0)
    arcs = [(u, v, draw(cap)) for u, v in pairs]
    G = DirectedNetwork(n, arcs, 0, n - 1)
    return np.array([draw(value) for _ in pairs]), G


class TestPathWalkMatchesReference:
    """The walk takes each path and cycle in one pass and cuts at the first
    arc that holds the bottleneck; the reference tests every arc for zero
    after the subtraction.  They must agree bit for bit, ties included."""

    @settings(max_examples=300, deadline=None)
    @given(walk_inputs())
    def test_bit_identical(self, case):
        arc_vals, G = case
        for out, ref in zip(_path_flows(arc_vals, G), path_flows_reference(arc_vals, G)):
            assert out.tobytes() == ref.tobytes()


class TestCyclesAndLinks:
    """The walk on halved flows whose arcs hold cycles and whose links
    return or bring flow, as the solver's do."""

    def test_inputs_have_cycles_and_link_flow(self):
        # Most inputs of the property below hold a cycle, carry link flow,
        # are worth V > 0 and are over capacity somewhere.
        cyclic = with_links = positive = over = 0
        for seed in range(50):
            G, f, V = cyclic_flow_with_links(seed, 0.3, 0.2)
            halved = subtract_and_halve(f)
            orig = np.arange(halved.network.edge_count) % 3 == 0
            cyclic += not is_acyclic_support(FlowAssignment(G, halved.values[orig]))
            with_links += bool((halved.values[~orig] != 0.0).any())
            positive += V > 0
            over += recover_directed_flow(f, G).max_capacity_ratio > 1.0
        assert cyclic >= 35 and with_links >= 45 and positive >= 35 and over >= 45

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        eps=st.floats(0.05, 0.5),
        noise=st.floats(0.0, 0.5),
    )
    def test_worth_the_halved_value(self, seed, eps, noise):
        G, f, V = cyclic_flow_with_links(seed, eps, noise)
        rec = recover_directed_flow(f, G)
        # The path flow is worth at least V and the scaled one V / ratio,
        # up to the rounding of the path sums.
        scale = max(1.0, float(G.capacities.sum()))
        assert rec.value >= V / max(1.0, rec.max_capacity_ratio) - 1e-12 * scale
        out = rec.directed_flow.values
        assert (out >= 0).all() and (out <= G.capacities).all()
        F = rec.value
        assert rec.directed_flow.interior_residual_max() <= 1e-9 * max(1.0, F)


class TestRenumbering:
    """A renumbered input recovers the same flow, renumbered: recovery
    reads the flow in an order its values fix, not in id order."""

    # Seeds whose solver flow at 0.95 F* is over capacity on some arc, so
    # that the path walk decides both the scaled and the truncated flow.
    @pytest.mark.parametrize("seed", [1, 5, 7, 23, 26])
    def test_recovered_flow_follows_the_renumbering(self, seed):
        from emaxflow import exact_max_flow

        G = nonempty_network(seed, n_min=5)
        fstar, _ = exact_max_flow(G)
        eps = 0.25
        net = symmetrize(G, eps)
        res = solve_bounded_flow(net, 2 * 0.95 * fstar + (1 + eps) * G.total_capacity())
        assert res.succeeded
        rng = np.random.default_rng(seed)
        perm = rng.permutation(G.vertex_count)  # old vertex id -> new
        order = rng.permutation(G.edge_count)  # new arc i is old arc order[i]
        H = DirectedNetwork(
            G.vertex_count,
            zip(perm[G.tails[order]], perm[G.heads[order]], G.capacities[order]),
            int(perm[G.source]),
            int(perm[G.sink]),
        )
        edge_order = (3 * order[:, None] + np.arange(3)).ravel()
        g = FlowAssignment(symmetrize(H, eps), res.flow.values[edge_order])
        rec_g = recover_directed_flow(res.flow, G)
        rec_h = recover_directed_flow(g, H)
        assert rec_g.max_capacity_ratio > 1.0
        assert rec_h.value == pytest.approx(rec_g.value, rel=1e-12)
        assert rec_h.scaled == rec_g.scaled
        assert rec_h.directed_flow.values == pytest.approx(
            rec_g.directed_flow.values[order], rel=1e-12, abs=1e-12
        )


class TestEndToEnd:
    def test_pipeline_from_synthetic_bounded_flow(self):
        # Build a valid bounded flow directly from an exact directed flow:
        # twice the directed flow plus the canonical link routing.
        from emaxflow import exact_max_flow

        for seed in (2, 10, 18, 25):
            G = nonempty_network(seed)
            fstar, witness = exact_max_flow(G)
            if fstar <= 0:
                continue
            eps = 0.3
            net = symmetrize(G, eps)
            vals = link_routing_values(net).copy()
            vals[0::3] += 2.0 * witness.values
            f = FlowAssignment(net, vals)
            target = 2 * fstar + (1 + eps) * G.total_capacity()
            assert f.source_outflow() == pytest.approx(target, rel=1e-12)
            assert f.interior_residual_max() <= 1e-12 * target
            rec = recover_directed_flow(f, G)
            assert rec.value >= fstar / (1 + eps) - 1e-9
            assert (rec.directed_flow.values >= 0).all()
            assert (rec.directed_flow.values <= G.capacities + 1e-12).all()
            assert rec.directed_flow.interior_residual_max() <= 1e-9 * max(1, fstar)

    def test_pipeline_from_solver_flows(self):
        from emaxflow import exact_max_flow

        for seed in (1, 6):
            G = nonempty_network(seed)
            fstar, _ = exact_max_flow(G)
            if fstar <= 0:
                continue
            eps = 0.25
            net = symmetrize(G, eps)
            F = 0.5 * fstar
            res = solve_bounded_flow(net, 2 * F + (1 + eps) * G.total_capacity())
            assert res.succeeded
            rec = recover_directed_flow(res.flow, G)
            assert rec.value >= F / (1 + eps) - 1e-9
            assert is_acyclic_support(
                cycle_cancel(subtract_and_halve(res.flow))
            )


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_all_entries_raise(self, bad):
        G = DirectedNetwork(3, [(0, 1, 1.0), (1, 2, 1.0)], 0, 2)
        net = symmetrize(G, 0.25)
        f = FlowAssignment(net, np.full(net.edge_count, bad))
        with pytest.raises(RecoveryError):
            subtract_and_halve(f)
        with pytest.raises(RecoveryError):
            recover_directed_flow(f, G)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_entry_raises(self, bad):
        G, net = single_arc()
        for k in range(net.edge_count):
            vals = np.array([1.0, 1.25, 1.25])
            vals[k] = bad
            with pytest.raises(RecoveryError):
                recover_directed_flow(FlowAssignment(net, vals), G)


class TestInputChecks:
    @pytest.mark.parametrize("arcs", [[(0, 1, 1.0), (0, 1, 2.0)], []])
    def test_symmetrization_of_another_digraph_rejected(self, arcs):
        # Arc i's flow is read off edge 3i, so the edge count is all that
        # stops another digraph's arcs from being read off these edges.
        _, net = single_arc()
        other = DirectedNetwork(2, arcs, 0, 1)
        with pytest.raises(ValueError, match="does not match"):
            extract_directed(FlowAssignment(net, [1.0, 0.0, 0.0]), other)

    def test_flow_on_a_directed_network_rejected(self):
        G, _ = single_arc()
        f = FlowAssignment(G, [1.0])
        with pytest.raises(TypeError, match="SymmetrizedNetwork"):
            subtract_and_halve(f)
        with pytest.raises(TypeError, match="SymmetrizedNetwork"):
            extract_directed(f, G)
