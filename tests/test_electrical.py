import math
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emaxflow import (
    DirectedNetwork,
    DisconnectedNetworkError,
    FlowAssignment,
    RepairError,
    SymmetrizedNetwork,
    electrical_st_flow,
    parse_dimacs,
    symmetrize,
)
from emaxflow import electrical, mwu
from emaxflow.electrical import (
    _DENSE_LIMIT,
    _pcg,
    _repair_values,
    _st_context,
    default_solve_tolerance,
)

from corpus import (
    multigraph,
    multigraph_on,
    nonempty_network,
    random_network,
    random_sized_network,
    reduction_corpus,
)
from oracles import (
    dense_laplacian_reference,
    incidence_reference,
    kept_edge_ends,
    laplacian_reference,
    min_energy_flow_dense,
    pcg_reference,
    random_conserving_flow,
    repair_values_reference,
    spanning_tree_reference,
    sparse_laplacian_reference,
    sparse_pairs_reference,
)


def single_edge_net(r_cap=1.0):
    return symmetrize(DirectedNetwork(2, [(0, 1, r_cap)], 0, 1), 0.5)


def two_parallel(r1, r2):
    """Two-vertex network whose first two edges get resistances r1, r2."""
    G = DirectedNetwork(2, [(0, 1, 1.0)], 0, 1)
    return symmetrize(G, 0.5)


def energy(vals, r):
    return float(np.sum(r * vals * vals))


def source_sink_vector(net, value):
    b = np.zeros(net.vertex_count)
    b[net.source] = value
    b[net.sink] = -value
    return b


class TestAssembleLaplacian:
    """The s-t Laplacian the solver assembles, on hand-computed cases."""

    def test_single_edge(self):
        G = DirectedNetwork(2, [(0, 1, 1.0)], 0, 1)
        net = symmetrize(G, 0.5)
        # give the two link edges huge resistance so only edge 0 matters
        L = _st_context(net).laplacian(np.array([2.0, 1e12, 1e12]))
        assert L == pytest.approx(np.array([[0.5, -0.5], [-0.5, 0.5]]), abs=1e-10)

    def test_parallel_edges_accumulate(self):
        net = two_parallel(1.0, 1.0)
        L = _st_context(net).laplacian(np.array([1.0, 1.0, 1e15]))
        assert L == pytest.approx(np.array([[2.0, -2.0], [-2.0, 2.0]]), abs=1e-12)

    def test_triangle_unit_resistances(self):
        G = DirectedNetwork(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)], 0, 2)
        net = symmetrize(G, 0.25)
        # pick out one edge between each pair, kill the rest
        r = np.full(net.edge_count, 1e15)
        r[0] = 1.0  # 0-1
        r[3] = 1.0  # 1-2
        r[6] = 1.0  # 0-2
        L = _st_context(net).laplacian(r)
        assert np.diag(L) == pytest.approx([2, 2, 2], abs=1e-12)
        assert L[0, 1] == pytest.approx(-1, abs=1e-12)
        assert L[1, 2] == pytest.approx(-1, abs=1e-12)
        assert L[0, 2] == pytest.approx(-1, abs=1e-12)

    def test_row_sums_zero(self):
        net = symmetrize(random_network(3), 0.3)
        r = np.random.default_rng(0).uniform(0.1, 3.0, net.edge_count)
        L = _st_context(net).laplacian(r)
        assert np.abs(L.sum(axis=1)).max() < 1e-9


class TestSolvePotentials:
    """The potentials `electrical_st_flow` returns, and their residual."""

    def test_ohms_law_single_edge(self):
        net = single_edge_net()
        phi = electrical_st_flow(net, np.array([2.0, 1e14, 1e14]), 1.0, 1e-10).potentials
        assert phi[1] == 0.0
        assert phi[0] == pytest.approx(2.0, rel=1e-6)

    def test_two_parallel_resistors(self):
        # r = 1 and 3 in parallel: effective resistance 3/4, so F=4 drops 3.
        net = two_parallel(1.0, 3.0)
        phi = electrical_st_flow(net, np.array([1.0, 3.0, 1e14]), 4.0, 1e-12).potentials
        assert phi[0] - phi[1] == pytest.approx(3.0, rel=1e-9)

    def test_zero_value(self):
        net = single_edge_net()
        res = electrical_st_flow(net, np.array([2.0, 2.0, 2.0]), 0.0, 1e-10)
        assert (res.potentials == 0.0).all()

    def test_disconnected_raises(self):
        # Each arc's three edges join s and t, so only a network without
        # arcs leaves them apart.
        net = symmetrize(DirectedNetwork(4, [], 0, 3), 0.2)
        with pytest.raises(DisconnectedNetworkError):
            electrical_st_flow(net, np.ones(0), 1.0, 1e-8)

    def test_residual_contract(self):
        net = symmetrize(nonempty_network(17, n_min=5), 0.25)
        rng = np.random.default_rng(1)
        r = rng.uniform(0.05, 10.0, net.edge_count)
        L = laplacian_reference(net, r)
        b = source_sink_vector(net, 3.0)
        for tol in (1e-4, 1e-8, 1e-12):
            res = electrical_st_flow(net, r, 3.0, tol)
            assert res.potentials[net.sink] == 0.0
            assert np.linalg.norm(L @ res.potentials - b) <= tol * np.linalg.norm(b) * (1 + 1e-9)
            assert res.residual_norm <= tol * np.linalg.norm(b)


class TestSparsePath:
    """An s-t component above `_DENSE_LIMIT` runs the sparse Laplacian."""

    @staticmethod
    def network_and_resistances():
        n = 700
        rng = np.random.default_rng(0)
        arcs = [(0, i, 1 + i % 7) for i in range(1, n - 1)]
        arcs += [(i, n - 1, 1 + i % 5) for i in range(1, n - 1)]
        for _ in range(800):
            u, v = rng.choice(n, 2, replace=False)
            arcs.append((int(u), int(v), int(rng.integers(1, 10))))
        net = symmetrize(DirectedNetwork(n, arcs, 0, n - 1), 0.25)
        ctx = _st_context(net)
        assert ctx.connected and ctx.n_c == n > _DENSE_LIMIT and not ctx.dense
        return net, rng.uniform(0.05, 10.0, net.edge_count)

    def test_laplacian_within_summation_order_bound(self):
        # The operator sums each pair's conductances, then each vertex's
        # pairs, and in a product takes each pair's difference first; the
        # reference sums each entry's terms, then each row's entries times
        # x.  Either is within about 2k roundoff units of the exact
        # result, where k is the largest vertex degree: relative to the
        # entry on the diagonal, and to |L| |x| in a product.
        net, r = self.network_and_resistances()
        ctx, kt, kh = kept_edge_ends(net)
        # Arcs into s and out of t make pairs whose edges run both ways.
        forward = kt < kh
        keys = np.minimum(kt, kh) * ctx.n_c + np.maximum(kt, kh)
        assert len(np.intersect1d(keys[forward], keys[~forward]))
        L = ctx.laplacian(r)
        ref = laplacian_reference(net, r)[ctx.idx][:, ctx.idx].tocsr()
        loops = net.tails == net.heads
        degree = np.bincount(
            np.concatenate([net.tails[~loops], net.heads[~loops]]), minlength=net.vertex_count
        )
        rtol = 2 * (2 * int(degree.max()) + 1) * np.finfo(np.float64).eps
        diag = ref.diagonal()
        assert (np.abs(L.diagonal() - diag) <= rtol * diag).all()
        rng = np.random.default_rng(3)
        for x in (rng.normal(size=ctx.n_c), rng.uniform(-1e6, 1e-6, ctx.n_c)):
            assert (np.abs(L @ x - ref @ x) <= rtol * (abs(ref) @ np.abs(x))).all()

    def test_laplacian_is_the_fresh_pair_sum(self):
        # Each call's operator, before and after the calls that follow it,
        # must give the bits of `np.add.at` sums over the pairs at its own
        # resistances.
        net, r = self.network_and_resistances()
        ctx = _st_context(net)
        rng = np.random.default_rng(5)
        xs = (rng.normal(size=ctx.n_c), rng.uniform(-1e6, 1e-6, ctx.n_c))
        calls = []
        for rr in (r, r[::-1].copy(), r):
            calls.append((ctx.laplacian(rr), sparse_laplacian_reference(net, rr)))
            for L, ref in calls:
                assert np.array_equal(L.diagonal(), ref.diagonal())
                for x in xs:
                    assert np.array_equal(L @ x, ref @ x)

    def test_reused_matrix_does_not_alias_results(self):
        net, r1 = self.network_and_resistances()
        r2 = r1[::-1].copy()
        first = electrical_st_flow(net, r1, 3.0, 1e-8)
        other = electrical_st_flow(net, r2, 3.0, 1e-8)
        again = electrical_st_flow(net, r1, 3.0, 1e-8)
        assert not np.array_equal(first.flow.values, other.flow.values)
        assert np.array_equal(first.flow.values, again.flow.values)
        assert np.array_equal(first.potentials, again.potentials)
        assert (first.energy, first.iterations) == (again.energy, again.iterations)

    def test_contract_conservation_and_value(self):
        net, r = self.network_and_resistances()
        tol = 1e-8
        res = electrical_st_flow(net, r, 3.0, tol)
        b = source_sink_vector(net, 3.0)
        L = laplacian_reference(net, r)
        assert np.linalg.norm(L @ res.potentials - b) <= tol * np.linalg.norm(b) * (1 + 1e-9)
        assert res.flow.interior_residual_max() <= 1e-12
        assert res.flow.source_outflow() == pytest.approx(3.0, abs=1e-12)


class TestSparsePairs:
    """The sparse context's pairs, ordered by a stable sort of 16-bit
    ends, are those of a stable sort of the `int64` keys ``min * n_c +
    max``: the same ranks, in the same order."""

    @staticmethod
    def check(n, ends):
        tails, heads = np.array(ends, dtype=np.int64).T
        net = multigraph_on(n, tails, heads)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(electrical, "_DENSE_LIMIT", 0)
            ctx = _st_context(net)
        assert ctx.connected and not ctx.dense
        pair, a, b = sparse_pairs_reference(net)
        assert np.array_equal(ctx._pair, pair)
        assert np.array_equal(ctx._a, a)
        assert np.array_equal(ctx._b, b)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 8),
        ends=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40),
    )
    def test_small_multigraphs(self, n, ends):
        # Few vertices and many edges: parallel, antiparallel and
        # self-loop edges abound; the first edge joins s and t.
        self.check(n, [(0, n - 1)] + [(u % n, v % n) for u, v in ends])

    def test_ids_past_16_bits(self):
        # Over 65,536 vertices the ends sort as themselves; ids 65,536
        # apart would share a 16-bit key.
        n = 70_000
        rng = np.random.default_rng(2)
        star = [(0, v) for v in range(1, n)]
        low = rng.integers(1, n - 65_536, 300)
        extra = np.stack([low, low + 65_536], axis=1)
        extra[::2] = extra[::2, ::-1]
        self.check(n, star + extra.tolist() + extra[:50].tolist())


@pytest.fixture(scope="module")
def sparse_case():
    net, _ = TestSparsePath.network_and_resistances()
    return net


def _pcg_both(ctx, rng, r, value, tol, start):
    """`_pcg` and the reference loop on the s-t Laplacian at ``r``, from
    the same start: zeros, the solution at other resistances, or the
    solution at ``r`` itself."""
    b = np.zeros(ctx.n_c)
    b[ctx.s_pos] = value
    b[ctx.t_pos] = -value
    atol = tol * math.sqrt(b @ b)
    x0 = np.zeros(ctx.n_c)
    if start != "cold":
        nearby = r if start == "solved" else r * rng.uniform(0.5, 2.0, len(r))
        x0, _, _ = pcg_reference(ctx.laplacian(nearby), b, x0, atol * 1e-3)
    A = ctx.laplacian(r)
    return _pcg(A, b, x0.copy(), atol), pcg_reference(A, b, x0.copy(), atol)


class TestPcgMatchesReference:
    """`_pcg` returns the plain loop's x, iteration count and residual, bit
    for bit, on dense and sparse Laplacians, cold and warm."""

    starts = st.sampled_from(["cold", "warm", "solved"])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        spread=st.floats(0, 6, allow_nan=False),
        value=st.floats(0.1, 50, allow_nan=False),
        tol_exp=st.integers(-12, -4),
        start=starts,
    )
    def test_dense(self, seed, spread, value, tol_exp, start):
        net = symmetrize(nonempty_network(seed, n_min=3, n_max=30, m_max=120), 0.3)
        ctx = _st_context(net)
        assert ctx.connected and ctx.dense
        rng = np.random.default_rng(seed)
        r = np.exp(rng.uniform(-spread, spread, net.edge_count))
        (x, k, res), (x_ref, k_ref, res_ref) = _pcg_both(ctx, rng, r, value, 10.0**tol_exp, start)
        assert np.array_equal(x, x_ref)
        assert (k, res) == (k_ref, res_ref)
        if start == "solved":
            assert k == 0

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        spread=st.floats(0, 3, allow_nan=False),
        tol_exp=st.integers(-10, -5),
        start=starts,
    )
    def test_sparse(self, sparse_case, seed, spread, tol_exp, start):
        ctx = _st_context(sparse_case)
        assert not ctx.dense
        rng = np.random.default_rng(seed)
        r = np.exp(rng.uniform(-spread, spread, sparse_case.edge_count))
        (x, k, res), (x_ref, k_ref, res_ref) = _pcg_both(ctx, rng, r, 3.0, 10.0**tol_exp, start)
        assert np.array_equal(x, x_ref)
        assert (k, res) == (k_ref, res_ref)


class TestRejectsBadInput:
    """`electrical_st_flow` raises `ValueError` on inputs outside its contract."""

    @pytest.mark.parametrize("bad", [-1.0, 0.0])
    def test_nonpositive_resistance(self, bad):
        net = single_edge_net()
        with pytest.raises(ValueError, match="strictly positive"):
            electrical_st_flow(net, np.array([2.0, bad, 1.0]), 1.0, 1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_resistance(self, bad):
        net = single_edge_net()
        with pytest.raises(ValueError, match="finite"):
            electrical_st_flow(net, np.array([2.0, bad, 1.0]), 1.0, 1e-10)

    @pytest.mark.parametrize("count", [2, 4])
    def test_wrong_resistance_count(self, count):
        net = single_edge_net()
        with pytest.raises(ValueError, match="3 resistances"):
            electrical_st_flow(net, np.ones(count), 1.0, 1e-10)

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_start_length(self, count):
        net = single_edge_net()
        with pytest.raises(ValueError, match="2 start potentials"):
            electrical_st_flow(net, np.ones(3), 1.0, 1e-10, x0=np.zeros(count))


class TestInducedFlow:
    """The flow is Ohm's law over the returned potentials."""

    def test_single_edge(self):
        net = single_edge_net()
        res = electrical_st_flow(net, np.array([2.0, 1e14, 1e14]), 1.0, 1e-12)
        assert res.flow.values[0] == pytest.approx(1.0)

    def test_parallel_split(self):
        net = two_parallel(1.0, 3.0)
        r = np.array([1.0, 3.0, 1e14])
        res = electrical_st_flow(net, r, 4.0, 1e-12)
        assert res.flow.values[0] == pytest.approx(3.0)
        assert res.flow.values[1] == pytest.approx(1.0)
        drop = res.potentials[0] - res.potentials[1]
        assert res.flow.values[:2] == pytest.approx(drop / r[:2], rel=1e-9)

    def test_constant_potential_gives_zero(self):
        net = symmetrize(random_network(2), 0.3)
        res = electrical_st_flow(net, np.ones(net.edge_count), 0.0, 1e-10)
        assert (res.potentials == res.potentials[0]).all()
        assert (res.flow.values == 0.0).all()


class TestRepairConservation:
    def test_exact_flow_unchanged(self):
        net = single_edge_net()
        vals = np.array([1.0, 1.25, 1.25])
        fixed = _repair_values(net, vals, 3.5)
        assert fixed == pytest.approx(vals, abs=1e-12)

    def test_single_edge_value_snap(self):
        G = DirectedNetwork(2, [(0, 1, 1.0)], 0, 1)
        net = symmetrize(G, 0.5)
        fixed = FlowAssignment(net, _repair_values(net, np.array([0.999999, 0.0, 0.0]), 1.0))
        assert fixed.source_outflow() == pytest.approx(1.0, abs=1e-15)

    def test_path_rebalance(self):
        # path s -> a -> t; perturb the first arc's original edge by delta
        G = DirectedNetwork(3, [(0, 1, 2.0), (1, 2, 2.0)], 0, 2)
        net = symmetrize(G, 0.25)
        exact = np.zeros(net.edge_count)
        exact[0] = 1.0  # s-a original
        exact[3] = 1.0  # a-t original
        delta = 1e-5
        perturbed = exact.copy()
        perturbed[0] += delta
        fixed = FlowAssignment(net, _repair_values(net, perturbed, 1.0))
        assert fixed.interior_residual_max() <= 1e-12
        assert fixed.source_outflow() == pytest.approx(1.0, abs=1e-12)

    def test_interior_residual_zero_after_repair(self):
        net = symmetrize(nonempty_network(23, n_min=4), 0.2)
        rng = np.random.default_rng(3)
        r = rng.uniform(0.2, 4.0, net.edge_count)
        _, fvals = min_energy_flow_dense(net, r, 0.5)
        noisy = fvals + rng.normal(0, 1e-4, net.edge_count)
        fixed = FlowAssignment(net, _repair_values(net, noisy, 0.5))
        assert fixed.interior_residual_max() <= 1e-12
        assert fixed.source_outflow() == pytest.approx(0.5, abs=1e-12)

    def test_energy_shift_bounded(self):
        net = symmetrize(nonempty_network(29, n_min=4), 0.2)
        rng = np.random.default_rng(4)
        r = rng.uniform(0.2, 4.0, net.edge_count)
        _, fvals = min_energy_flow_dense(net, r, 2.0)
        noise = rng.normal(0, 1e-7, net.edge_count)
        noisy = fvals + noise
        fixed = _repair_values(net, noisy, 2.0)
        correction = float(np.abs(fixed - noisy).max())
        bound = 2 * correction * float(np.abs(fixed).max()) * float(r.max())
        shift = abs(energy(fixed, r) - energy(noisy, r))
        assert shift <= bound + 1e-12


class TestRepairMatchesReference:
    """The library's tree repair returns the reference loop's bits."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        value=st.floats(0.1, 4, allow_nan=False),
        noise_exp=st.integers(-12, -1),
        zeros=st.booleans(),
    )
    def test_bit_identical(self, seed, value, noise_exp, zeros):
        net = symmetrize(nonempty_network(seed, n_min=3), 0.3)
        rng = np.random.default_rng(seed)
        vals = random_conserving_flow(net, value, rng).values.copy()
        vals += rng.normal(0, 10.0**noise_exp, net.edge_count)
        if zeros:
            hit = rng.random(net.edge_count) < 0.2
            vals[hit] = np.where(rng.random(int(hit.sum())) < 0.5, 0.0, -0.0)
        try:
            ref = repair_values_reference(net, vals, value)
        except RepairError as exc:
            with pytest.raises(RepairError) as got:
                _repair_values(net, vals, value)
            assert str(got.value) == str(exc)
            return
        out = _repair_values(net, vals, value)
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))

    def test_children_push_in_loop_order(self):
        # Edge values as small as the pushes keep each push's last bits, so
        # the order in which a parent sums its children's pushes shows in
        # the result.  Several of these trees have a vertex below depth 1
        # with three or more children.
        for seed in range(40):
            net = symmetrize(nonempty_network(seed, n_min=6, n_max=16, m_max=40), 0.3)
            rng = np.random.default_rng(seed)
            vals = rng.normal(0, 1, net.edge_count) * 10.0 ** rng.uniform(-8, -3, net.edge_count)
            assert np.array_equal(_repair_values(net, vals, 0.0), repair_values_reference(net, vals, 0.0))

    def test_zero_pushes_keep_signed_zeros(self):
        net = symmetrize(nonempty_network(5, n_min=4), 0.3)
        vals = np.full(net.edge_count, -0.0)
        out = _repair_values(net, vals, 0.0)
        ref = repair_values_reference(net, vals, 0.0)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
        assert np.signbit(out).all()


def matching_bench_network() -> SymmetrizedNetwork:
    """The first instance of the benchmark's ``matching`` workload at seed
    1 (602 vertices), symmetrized at the solver's eps' = eps/4."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    inst = runpy.run_path(str(path))["workload"]("matching", 1)[0]
    return symmetrize(parse_dimacs(inst.dimacs), inst.epsilon / 4)


def assert_tree_is_reference(net: SymmetrizedNetwork):
    """The solve context's component and repair-tree levels are those of
    `spanning_tree_reference`: the same vertices, parents and parent edges."""
    ctx = _st_context(net)
    order, parent_vertex, parent_edge = spanning_tree_reference(net)
    in_tree = np.zeros(net.vertex_count, dtype=bool)
    in_tree[order] = True
    assert np.array_equal(ctx.outside, np.flatnonzero(~in_tree))
    assert ctx.connected == bool(in_tree[net.sink])
    if ctx.connected:
        assert np.array_equal(ctx.idx, np.flatnonzero(in_tree))
    depth = np.zeros(net.vertex_count, dtype=np.int64)
    for v in order[1:]:
        depth[v] = depth[parent_vertex[v]] + 1
    levels = ctx.tree_levels
    # Every non-root vertex once, deepest level first, each level in
    # reversed BFS order.
    assert np.array_equal(
        np.concatenate([verts for verts, *_ in levels] or [order[:0]]), order[:0:-1]
    )
    assert [int(depth[verts[0]]) for verts, *_ in levels] == list(range(int(depth.max()), 0, -1))
    for verts, parents, edges, signs in levels:
        assert (depth[verts] == depth[verts[0]]).all()
        assert np.array_equal(edges, parent_edge[verts])
        if depth[verts[0]] == 1:
            assert parents is None
        else:
            assert np.array_equal(parents, parent_vertex[verts])
        assert np.array_equal(signs, np.where(net.tails[edges] == verts, 1.0, -1.0))


class TestRepairTreeMatchesReference:
    """The solve context builds the reference loop's BFS tree."""

    def test_corpus(self):
        for G in reduction_corpus():
            assert_tree_is_reference(symmetrize(G, 0.25))

    def test_parallel_edges_and_self_loops(self):
        # Arcs into the source and out of the sink give self-loop links,
        # and several arcs into one vertex give parallel source links.
        G = DirectedNetwork(5, [(1, 0, 1), (4, 2, 2), (0, 1, 1), (2, 1, 3), (3, 1, 1), (1, 4, 2)], 0, 4)
        assert_tree_is_reference(symmetrize(G, 0.25))
        for seed in range(200):
            assert_tree_is_reference(multigraph(seed))

    def test_unreachable_sink(self):
        net = SymmetrizedNetwork(
            5, 0, 4, 0.25, np.array([0, 1, 3, 2]), np.array([1, 2, 4, 2]), np.ones(4)
        )
        assert not _st_context(net).connected
        assert_tree_is_reference(net)

    def test_matching_bench_instance(self):
        net = matching_bench_network()
        assert net.vertex_count == 602
        assert_tree_is_reference(net)


class TestDenseLaplacianMatchesReference:
    """The dense s-t Laplacian equals the `np.add.at` assembly bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 5000), spread=st.floats(0, 8, allow_nan=False))
    def test_bit_identical(self, seed, spread):
        net = symmetrize(nonempty_network(seed, n_min=3, n_max=30, m_max=120), 0.3)
        ctx = _st_context(net)
        assert ctx.connected and ctx.dense
        r = np.exp(np.random.default_rng(seed).uniform(-spread, spread, net.edge_count))
        assert np.array_equal(ctx.laplacian(r), dense_laplacian_reference(net, r))


class TestEnergy:
    """The energy `electrical_st_flow` reports, against hand values."""

    def test_zero(self):
        net = single_edge_net()
        assert electrical_st_flow(net, np.ones(3), 0.0, 1e-10).energy == 0.0

    def test_single_edge(self):
        net = single_edge_net()
        res = electrical_st_flow(net, np.array([2.0, 1e14, 1e14]), 1.0, 1e-12)
        assert res.energy == pytest.approx(2.0, rel=1e-9)

    def test_parallel_minimum(self):
        # r=(1,3), f=(3,1) has energy 12, the minimum for value 4:
        # minimizing x^2 + 3(4-x)^2 gives x = 3.
        net = two_parallel(1.0, 3.0)
        r = np.array([1.0, 3.0, 1e14])
        res = electrical_st_flow(net, r, 4.0, 1e-12)
        assert res.energy == pytest.approx(12.0)
        xs = np.linspace(0, 4, 4001)
        grid_min = np.min(xs**2 + 3 * (4 - xs) ** 2)
        assert res.energy == pytest.approx(grid_min, abs=1e-5)


class TestEndToEndSolve:
    def test_solve_result_invariants(self):
        net = symmetrize(nonempty_network(31, n_min=4), 0.2)
        rng = np.random.default_rng(5)
        r = rng.uniform(0.2, 4.0, net.edge_count)
        res = electrical_st_flow(net, r, 1.5, 1e-10)
        assert res.energy == pytest.approx(energy(res.flow.values, r), rel=1e-12)
        assert res.flow.interior_residual_max() <= 1e-12
        assert res.flow.source_outflow() == pytest.approx(1.5, abs=1e-10)

    def test_energy_optimality_contract(self):
        # the stand-in contract for the exact electrical-flow subroutine
        eps = 0.2
        rng = np.random.default_rng(7)
        checked = 0
        for seed in range(40):
            G = random_network(seed, n_max=8)
            if G.edge_count == 0:
                continue
            net = symmetrize(G, 0.25)
            r = rng.uniform(0.05, 5.0, net.edge_count)
            value = float(rng.uniform(0.1, 3.0))
            tol = default_solve_tolerance(eps, net.edge_count)
            res = electrical_st_flow(net, r, value, tol)
            e_min, _ = min_energy_flow_dense(net, r, value)
            assert res.energy <= (1 + eps / 10) * e_min + 1e-12
            checked += 1
        assert checked >= 25

    def test_thomson_direction(self):
        # conserving flows off the electrical solution have higher energy
        net = symmetrize(nonempty_network(41, n_min=4), 0.2)
        rng = np.random.default_rng(11)
        r = rng.uniform(0.1, 3.0, net.edge_count)
        res = electrical_st_flow(net, r, 1.0, 1e-12)
        B = incidence_reference(net).toarray()
        for _ in range(10):
            z = rng.normal(0, 1, net.edge_count)
            # project onto the cycle space (kernel of the incidence matrix)
            c = z - np.linalg.pinv(B) @ (B @ z)
            assert energy(res.flow.values + c, r) >= res.energy - 1e-9

    def test_deterministic(self):
        net = symmetrize(nonempty_network(43, n_min=4), 0.2)
        r = np.random.default_rng(13).uniform(0.1, 3.0, net.edge_count)
        a = electrical_st_flow(net, r, 1.0, 1e-9)
        b = electrical_st_flow(net, r, 1.0, 1e-9)
        assert (a.flow.values == b.flow.values).all()
        assert a.energy == b.energy


class TestDualBound:
    """``energy_lower``, the dual bound D(phi), lies below the least energy
    and ``energy`` above it, however loosely CG stopped."""

    def test_c2_graphs_at_the_working_tolerance(self):
        # c2's 100 graphs, resistances and values, solved as the MWU loop
        # first solves them.
        rng = np.random.default_rng(2024)
        checked = 0
        seed = 0
        while checked < 100:
            G = random_network(seed, n_max=8)
            seed += 1
            if G.edge_count == 0:
                continue
            net = symmetrize(G, 0.25)
            r = rng.uniform(0.05, 5.0, net.edge_count)
            value = float(rng.uniform(0.1, 4.0))
            res = electrical_st_flow(net, r, value, mwu.WORKING_TOLERANCE)
            e_min, _ = min_energy_flow_dense(net, r, value)
            assert res.energy_lower <= e_min * (1 + 1e-12)
            assert e_min <= res.energy * (1 + 1e-12)
            checked += 1

    def test_far_from_converged(self):
        # Two CG steps on 30 vertices: the repaired flow's energy is 14-109%
        # above the minimum, the bound at most 2.5% below it.
        rng = np.random.default_rng(3)
        for seed in range(30):
            net = symmetrize(random_sized_network(seed, 30, 90), 0.25)
            r = rng.uniform(0.05, 5.0, net.edge_count)
            value = float(rng.uniform(0.1, 4.0))
            res = electrical_st_flow(net, r, value, 1e-1)
            e_min, _ = min_energy_flow_dense(net, r, value)
            assert res.energy_lower <= e_min <= res.energy
            assert res.energy_lower >= 0.95 * e_min
            assert res.energy >= 1.1 * e_min

    def test_closed_form(self):
        # phi = (2, 0) on one edge of resistance 2 carrying 1:
        # D = 2 * 1 * 2 - 2^2 / 2 = 2, the energy.
        net = single_edge_net()
        res = electrical_st_flow(net, np.array([2.0, 1e14, 1e14]), 1.0, 1e-12)
        assert res.energy_lower == pytest.approx(2.0, rel=1e-12)
        assert electrical_st_flow(net, np.ones(3), 0.0, 1e-10).energy_lower == 0.0


class TestRepairFallback:
    """An oracle call whose loose solve the repair cannot absorb is solved
    again at the strict tolerance instead of raising `RepairError`."""

    def _case(self):
        # At 1e-2 this solve's repair would move an edge by more than 10% of
        # its capacity.
        net = symmetrize(nonempty_network(4, n_min=4), 0.25)
        weights = np.ones(net.edge_count)
        target = 2.0 + 1.25 * float(net.arc_capacities.sum())
        r = mwu.compute_resistances(net, weights)
        with pytest.raises(RepairError):
            electrical_st_flow(net, r, target, 1e-2)
        return net, weights, target

    def test_oracle_call_falls_back(self, monkeypatch):
        net, weights, target = self._case()
        legs = []

        def recording_pcg(A, b, x, atol):
            out = _pcg(A, b, x, atol)
            legs.append(out[1])
            return out

        monkeypatch.setattr(mwu, "WORKING_TOLERANCE", 1e-2)
        monkeypatch.setattr(electrical, "_pcg", recording_pcg)
        result, _, _ = mwu.oracle_step(net, weights, target)
        assert result.flow.interior_residual_max() <= 1e-9 * target
        assert result.flow.source_outflow() == pytest.approx(target, rel=1e-12)
        assert len(legs) == 2
        assert result.iterations == legs[1] > legs[0]

    def test_strict_repair_error_still_raises(self, monkeypatch):
        # Where the strict solve's repair fails too, the call raises.
        net, weights, target = self._case()
        monkeypatch.setattr(mwu, "WORKING_TOLERANCE", 1e-2)
        monkeypatch.setattr(mwu, "default_solve_tolerance", lambda eps, m: 1e-2)
        with pytest.raises(RepairError):
            mwu.oracle_step(net, weights, target)
