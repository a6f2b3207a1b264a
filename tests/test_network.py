import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emaxflow import (
    ConservationError,
    DimacsParseError,
    DirectedNetwork,
    FlowAssignment,
    parse_dimacs,
    symmetrize,
)
from emaxflow.network import ArcDropReason, Provenance, flow_value, write_dimacs

from corpus import random_network

SMALLEST = "p max 2 1\nn 1 s\nn 2 t\na 1 2 5\n"


class TestParseDimacs:
    def test_smallest_well_formed(self):
        net = parse_dimacs(SMALLEST)
        assert net.vertex_count == 2
        assert net.arcs == [(0, 1, 5.0)]
        assert net.source == 0 and net.sink == 1

    def test_reads_file_objects(self):
        net = parse_dimacs(io.StringIO(SMALLEST))
        assert net.edge_count == 1

    def test_self_loop_dropped_with_record(self):
        net = parse_dimacs("p max 2 1\nn 1 s\nn 2 t\na 1 1 3\n")
        assert net.edge_count == 0
        assert len(net.dropped) == 1
        assert net.dropped[0].reason is ArcDropReason.SELF_LOOP

    def test_zero_capacity_dropped_with_record(self):
        net = parse_dimacs("p max 2 2\nn 1 s\nn 2 t\na 1 2 0\na 1 2 4\n")
        assert net.edge_count == 1
        assert net.dropped[0].reason is ArcDropReason.ZERO_CAPACITY

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
        assert again.arcs == net.arcs
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

    def test_out_in_capacity(self):
        net = DirectedNetwork(3, [(0, 1, 2), (0, 2, 3), (1, 2, 5)], 0, 2)
        assert net.out_capacity(0) == 5
        assert net.in_capacity(2) == 8


class TestSymmetrize:
    def test_single_arc_example(self):
        G = DirectedNetwork(2, [(0, 1, 1.0)], 0, 1)
        net = symmetrize(G, 0.5)
        assert net.tails.tolist() == [0, 0, 0]
        assert net.heads.tolist() == [1, 1, 1]
        assert net.capacities.tolist() == [1.0, 1.5, 1.5]
        assert net.provenance.tolist() == [
            Provenance.ORIGINAL,
            Provenance.SOURCE_LINK,
            Provenance.SINK_LINK,
        ]

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
        net = symmetrize(random_network(5), 0.3)
        assert net.edge_count == 3 * net.m_arcs
        for arc in range(net.m_arcs):
            block = net.provenance[3 * arc : 3 * arc + 3]
            assert sorted(block.tolist()) == [0, 1, 2]
            assert (net.parent_arc[3 * arc : 3 * arc + 3] == arc).all()

    def test_deterministic(self):
        G = random_network(9)
        a = symmetrize(G, 0.2)
        b = symmetrize(G, 0.2)
        assert (a.tails == b.tails).all()
        assert (a.heads == b.heads).all()
        assert (a.capacities == b.capacities).all()
        assert (a.provenance == b.provenance).all()

    def test_tied_weight_total_triples(self):
        net = symmetrize(random_network(4), 0.2)
        w_arcs = np.ones(net.m_arcs)
        w_edges = np.ones(net.edge_count)
        assert w_edges.sum() == 3 * w_arcs.sum()


class TestFlowValue:
    def test_zero_flow(self):
        net = symmetrize(DirectedNetwork(2, [(0, 1, 1.0)], 0, 1), 0.5)
        assert flow_value(FlowAssignment.zeros(net)) == 0.0

    def test_single_edge(self):
        G = DirectedNetwork(2, [(0, 1, 5.0)], 0, 1)
        f = FlowAssignment(G, [2.0])
        assert flow_value(f) == 2.0

    def test_recovered_single_arc_flow(self):
        net = symmetrize(DirectedNetwork(2, [(0, 1, 1.0)], 0, 1), 0.5)
        f = FlowAssignment(net, [1.25, -0.125, -0.125])
        assert flow_value(f) == pytest.approx(1.0, abs=1e-12)

    def test_conservation_violation_raises(self):
        G = DirectedNetwork(3, [(0, 1, 1.0), (1, 2, 1.0)], 0, 2)
        f = FlowAssignment(G, [1.0, 0.25])
        with pytest.raises(ConservationError, match="vertex 1"):
            flow_value(f)

    def test_first_failing_vertex_named(self):
        # Vertices 1 and 3 both fail; the source (0) and sink (4) never do.
        G = DirectedNetwork(5, [(0, 1, 9.0), (1, 2, 9.0), (2, 3, 9.0), (3, 4, 9.0)], 0, 4)
        f = FlowAssignment(G, [5.0, 2.0, 2.0, 1.0])
        with pytest.raises(ConservationError, match=r"3\.000e\+00 at vertex 1 "):
            flow_value(f)
        assert flow_value(FlowAssignment(G, [2.0, 2.0, 2.0, 2.0])) == 2.0

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
