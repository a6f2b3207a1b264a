import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emaxflow import (
    DimacsParseError,
    DirectedNetwork,
    FlowAssignment,
    parse_dimacs,
    symmetrize,
)
from emaxflow.network import bfs_levels, incidence_product, write_dimacs

from corpus import multigraph, random_network
from oracles import bfs_reference, directed_arcs_reference, incidence_reference

SMALLEST = "p max 2 1\nn 1 s\nn 2 t\na 1 2 5\n"


class TestParseDimacs:
    def test_smallest_well_formed(self):
        net = parse_dimacs(SMALLEST)
        assert net.vertex_count == 2
        assert net.tails.tolist() == [0] and net.heads.tolist() == [1]
        assert net.capacities.tolist() == [5.0]
        assert net.source == 0 and net.sink == 1

    def test_reads_file_objects(self):
        net = parse_dimacs(io.StringIO(SMALLEST))
        assert net.edge_count == 1

    def test_self_loop_dropped(self):
        net = parse_dimacs("p max 2 1\nn 1 s\nn 2 t\na 1 1 3\n")
        assert net.edge_count == 0

    def test_zero_capacity_dropped(self):
        net = parse_dimacs("p max 2 2\nn 1 s\nn 2 t\na 1 2 0\na 1 2 4\n")
        assert net.edge_count == 1
        assert net.capacities.tolist() == [4.0]

    def test_vertex_out_of_range_names_line(self):
        text = "p max 2 1\nn 1 s\nn 2 t\na 1 3 2\n"
        with pytest.raises(DimacsParseError, match="vertex out of range, line 4"):
            parse_dimacs(text)

    def test_malformed_header(self):
        with pytest.raises(DimacsParseError, match="line 1"):
            parse_dimacs("p flow 2 1\n")

    def test_unknown_tag(self):
        with pytest.raises(DimacsParseError, match="unknown line tag"):
            parse_dimacs("p max 2 1\nn 1 s\nn 2 t\nq 1 2 3\n")

    def test_missing_source(self):
        with pytest.raises(DimacsParseError, match="missing source"):
            parse_dimacs("p max 2 0\nn 2 t\n")

    def test_missing_sink(self):
        with pytest.raises(DimacsParseError, match="missing sink"):
            parse_dimacs("p max 2 0\nn 1 s\n")

    def test_comments_and_blank_lines_ignored(self):
        net = parse_dimacs("c hello\n\n" + SMALLEST + "c bye\n")
        assert net.edge_count == 1

    def test_fractional_capacity_parses(self):
        net = parse_dimacs("p max 2 1\nn 1 s\nn 2 t\na 1 2 2.5\n")
        assert net.capacities[0] == 2.5

    def test_roundtrip(self):
        net = random_network(11)
        again = parse_dimacs(write_dimacs(net))
        assert again.vertex_count == net.vertex_count
        assert again.tails.tolist() == net.tails.tolist()
        assert again.heads.tolist() == net.heads.tolist()
        assert again.capacities.tolist() == net.capacities.tolist()
        assert (again.source, again.sink) == (net.source, net.sink)

    def test_roundtrip_keeps_every_bit_of_fractional_capacities(self):
        caps = [0.1 + 0.2, 1.0 / 3.0, 2.5e-7, 123456.789012345678, 7.0]
        net = DirectedNetwork(3, [(0, 1, c) for c in caps[:3]] + [(1, 2, c) for c in caps[3:]], 0, 2)
        again = parse_dimacs(write_dimacs(net))
        assert again.capacities.tolist() == net.capacities.tolist()
        assert write_dimacs(net).splitlines()[-1] == "a 2 3 7"


class TestDirectedNetwork:
    def test_source_equals_sink_rejected(self):
        with pytest.raises(ValueError):
            DirectedNetwork(2, [], 0, 0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            DirectedNetwork(2, [(0, 1, -1.0)], 0, 1)


class TestSymmetrize:
    def test_single_arc_example(self):
        G = DirectedNetwork(2, [(0, 1, 1.0)], 0, 1)
        net = symmetrize(G, 0.5)
        assert net.tails.tolist() == [0, 0, 0]
        assert net.heads.tolist() == [1, 1, 1]
        assert net.capacities.tolist() == [1.0, 1.5, 1.5]
        assert net.m_arcs == 1
        assert net.arc_capacities.tolist() == [1.0]
        assert net.parent_capacity.tolist() == [1.0, 1.0, 1.0]

    def test_interior_arc(self):
        # arc (u, v) with u != s, v != t picks up links to s and t
        G = DirectedNetwork(4, [(1, 2, 2.0)], 0, 3)
        net = symmetrize(G, 0.25)
        assert net.tails.tolist() == [1, 0, 1]
        assert net.heads.tolist() == [2, 2, 3]
        assert net.capacities.tolist() == [2.0, 2.5, 2.5]

    def test_empty_network(self):
        G = DirectedNetwork(3, [], 0, 2)
        net = symmetrize(G, 0.1)
        assert net.edge_count == 0
        assert net.vertex_count == 3

    def test_epsilon_out_of_range(self):
        G = DirectedNetwork(2, [(0, 1, 1.0)], 0, 1)
        for bad in (0.0, -0.1, 0.6, 1.0):
            with pytest.raises(ValueError):
                symmetrize(G, bad)

    def test_three_edges_per_arc_partition(self):
        # Arc i is edges 3i (original u-v), 3i+1 (source link s-v) and
        # 3i+2 (sink link u-t), and all three carry its capacity as parent.
        G = random_network(5)
        net = symmetrize(G, 0.3)
        s, t = G.source, G.sink
        assert net.edge_count == 3 * net.m_arcs == 3 * G.edge_count
        assert net.arc_capacities.tolist() == G.capacities.tolist()
        for arc, (u, v, c) in enumerate(zip(G.tails, G.heads, G.capacities)):
            block = slice(3 * arc, 3 * arc + 3)
            assert net.tails[block].tolist() == [u, s, u]
            assert net.heads[block].tolist() == [v, v, t]
            assert net.capacities[block].tolist() == [c, (1.0 + 0.3) * c, (1.0 + 0.3) * c]
            assert net.parent_capacity[block].tolist() == [c, c, c]

    def test_deterministic(self):
        G = random_network(9)
        a = symmetrize(G, 0.2)
        b = symmetrize(G, 0.2)
        assert (a.tails == b.tails).all()
        assert (a.heads == b.heads).all()
        assert (a.capacities == b.capacities).all()
        assert (a.parent_capacity == b.parent_capacity).all()

    def test_tied_weight_total_triples(self):
        net = symmetrize(random_network(4), 0.2)
        w_arcs = np.ones(net.m_arcs)
        w_edges = np.ones(net.edge_count)
        assert w_edges.sum() == 3 * w_arcs.sum()


class TestFlowAssignment:
    def test_wrong_length_rejected(self):
        G = DirectedNetwork(2, [(0, 1, 1.0)], 0, 1)
        with pytest.raises(ValueError):
            FlowAssignment(G, [1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_signed_residuals_sum_to_zero(seed, data):
    net = symmetrize(random_network(seed), 0.3)
    vals = data.draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False),
            min_size=net.edge_count,
            max_size=net.edge_count,
        )
    )
    flow = FlowAssignment(net, vals)
    scale = max(1.0, float(np.abs(flow.values).max()) if net.edge_count else 0.0)
    assert abs(flow.residuals().sum()) <= 1e-9 * scale


def test_congestion_uses_parent_capacity():
    G = DirectedNetwork(3, [(0, 1, 2.0), (1, 2, 4.0)], 0, 2)
    net = symmetrize(G, 0.25)
    from emaxflow.mwu import oracle_step

    result, cong, _ = oracle_step(net, np.ones(net.edge_count), 8.0)
    # all three edges of each arc divide by the arc's original capacity
    parent = np.array([2.0, 2.0, 2.0, 4.0, 4.0, 4.0])
    assert (result.flow.values != 0).all()
    assert cong == pytest.approx(np.abs(result.flow.values) / parent, rel=1e-12)


def _arc_cases():
    """Random arc lists with self-loops, zero capacities, and parallel and
    antiparallel arcs, on 2-9 vertices."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        m = int(rng.integers(0, 40))
        caps = rng.choice([0.0, -0.0, 0.5, 1.0, 3.25, 1e300], m)
        yield n, list(zip(rng.integers(0, n, m).tolist(), rng.integers(0, n, m).tolist(), caps))


class TestDirectedNetworkArcs:
    """The constructor's one NumPy pass over the arcs keeps, drops and
    rejects what the first, per-arc loop did."""

    @pytest.mark.parametrize("as_array", [False, True])
    def test_matches_per_arc_loop(self, as_array):
        for n, arcs in _arc_cases():
            tails, heads, caps = directed_arcs_reference(n, arcs)
            given = np.array(arcs, dtype=np.float64).reshape(-1, 3) if as_array else iter(arcs)
            net = DirectedNetwork(n, given, 0, n - 1)
            assert net.tails.tolist() == tails and net.tails.dtype == np.int64
            assert net.heads.tolist() == heads
            assert net.capacities.tobytes() == np.array(caps, dtype=np.float64).tobytes()

    @pytest.mark.parametrize(
        "arcs",
        [
            [(0, 1, 1.0), (0, 5, 1.0), (1, 2, -1.0)],
            [(0, 1, 1.0), (1, 2, -1.0), (0, 5, 1.0)],
            [(0, 1, 1.0), (-1, 2, np.nan)],
            [(0, 1, 1.0), (1, 2, np.inf)],
            [(0, 1, 1.0), (1, 1, np.nan), (0, 0, 0.0)],
            [(2.9, 1, 1.0), (0, 3, 2.0)],
        ],
    )
    def test_first_bad_arc_named(self, arcs):
        with pytest.raises(ValueError) as want:
            directed_arcs_reference(3, arcs)
        with pytest.raises(ValueError) as got:
            DirectedNetwork(3, arcs, 0, 2)
        assert str(got.value) == str(want.value)

    def test_rejects_other_than_triples(self):
        for arcs in ([(0, 1)], [(0, 1, 1.0, 2.0)], [0, 1, 1.0]):
            with pytest.raises(ValueError):
                DirectedNetwork(3, arcs, 0, 2)


class TestBfsLevels:
    """`bfs_levels` visits and reaches each vertex as SciPy's
    `breadth_first_order` does."""

    @staticmethod
    def check(n, rows, nbrs, start):
        levels, via = bfs_levels(n, rows, nbrs, start)
        order, pred = bfs_reference(n, rows, nbrs, start)
        assert np.array_equal(np.concatenate(levels), order)
        reached = via >= 0
        assert np.array_equal(np.flatnonzero(reached), np.sort(order[1:]))
        assert np.array_equal(rows[via[reached]], pred[reached])
        assert (pred[~reached] == -9999).all()
        # Each vertex is reached by the first entry from its predecessor.
        for v in order[1:]:
            assert via[v] == np.flatnonzero((rows == pred[v]) & (nbrs == v))[0]
        return levels

    @pytest.mark.parametrize("seed", range(80))
    def test_random_multigraphs(self, seed):
        net = multigraph(seed)
        ends = np.stack([net.tails, net.heads], axis=1).ravel()
        other = np.stack([net.heads, net.tails], axis=1).ravel()
        for start in (net.source, net.sink):
            self.check(net.vertex_count, ends, other, start)
            self.check(net.vertex_count, net.tails, net.heads, start)

    def test_long_path(self):
        n = 20_000
        rng = np.random.default_rng(0)
        label = rng.permutation(n)
        rows, nbrs = label[:-1], label[1:]
        keep = rng.permutation(n - 1)
        levels = self.check(n, rows[keep], nbrs[keep], int(label[0]))
        assert len(levels) == n

    def test_ids_past_16_bits(self):
        # Over 65,536 vertices the entries sort on their int64 ids; ids
        # 65,536 apart would share a 16-bit key.
        n = 70_000
        rng = np.random.default_rng(1)
        low = rng.choice(n - 65_536, 20, replace=False)
        verts = np.concatenate([low, low + 65_536])
        rows, nbrs = rng.choice(verts, 400), rng.choice(verts, 400)
        for start in (int(low[0]), int(low[0]) + 65_536):
            self.check(n, rows, nbrs, start)


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


class TestIncidenceProduct:
    """`incidence_product` gives the bits of SciPy's CSR incidence product."""

    @pytest.mark.parametrize("seed", range(40))
    def test_multigraphs_with_self_loops(self, seed):
        net = multigraph(seed)
        rng = np.random.default_rng(seed)
        B = incidence_reference(net)
        for values in (
            rng.normal(size=net.edge_count),
            rng.choice([0.0, -0.0, 1e-300, -1e300, 0.1, 3.0], net.edge_count),
        ):
            assert _bits(incidence_product(net, values)) == _bits(B @ values)

    def test_directed_and_symmetrized(self):
        for seed in range(20):
            G = random_network(seed)
            rng = np.random.default_rng(seed)
            for net in (G, symmetrize(G, 0.3)):
                values = rng.uniform(-5, 5, net.edge_count)
                assert _bits(incidence_product(net, values)) == _bits(
                    incidence_reference(net) @ values
                )

    def test_no_edges(self):
        net = DirectedNetwork(4, [], 0, 3)
        got = incidence_product(net, np.zeros(0))
        assert _bits(got) == _bits(incidence_reference(net) @ np.zeros(0))
        assert got.shape == (4,)
