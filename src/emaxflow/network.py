"""Capacitated digraphs, DIMACS max-flow I/O, and the undirected symmetrization.

The symmetrization turns every arc (u, v) of the input digraph into three
undirected edges: the original edge u-v at the arc's capacity, a source link
s-v and a sink link u-t, both at (1+eps) times the arc's capacity.  All flow
bookkeeping downstream (values, conservation residuals, congestion) lives on
`FlowAssignment`, which works for both the directed input and its
symmetrization.  The spanning tree along which the electrical solve repairs
conservation is not part of the network: `electrical` builds it, with the
breadth-first search `bfs_levels` that also finds the arcs on s-t paths.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, TextIO, Union

import numpy as np


class DimacsParseError(ValueError):
    """Malformed DIMACS max-flow input; the message names the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message}, line {line}")
        self.line = line


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class DirectedNetwork:
    """A directed s-t flow network with nonnegative real arc capacities.

    ``arcs`` holds (tail, head, capacity) triples, as an iterable or an
    (m, 3) array.  Zero-capacity arcs and self-loops cannot carry s-t flow
    and are dropped at construction, so arc i of the network is the i-th
    kept input arc.
    """

    def __init__(
        self,
        vertex_count: int,
        arcs: Iterable[tuple[int, int, float]],
        source: int,
        sink: int,
    ):
        vertex_count = int(vertex_count)
        if vertex_count < 2:
            raise ValueError("network needs at least two vertices")
        if not (0 <= source < vertex_count) or not (0 <= sink < vertex_count):
            raise ValueError("source and sink must be valid vertex ids")
        if source == sink:
            raise ValueError("source and sink must differ")

        # One pass over all arcs: the first bad arc is named, a vertex id
        # before a capacity, and ids are truncated toward zero like `int`.
        arr = np.array(arcs if isinstance(arcs, np.ndarray) else list(arcs), dtype=np.float64)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("arcs must be (tail, head, capacity) triples")
        u, v, c = np.trunc(arr[:, 0]), np.trunc(arr[:, 1]), arr[:, 2]
        bad_vertex = ~((u >= 0) & (u < vertex_count) & (v >= 0) & (v < vertex_count))
        bad = np.flatnonzero(bad_vertex | ~(np.isfinite(c) & (c >= 0)))
        if len(bad):
            i = int(bad[0])
            if bad_vertex[i]:
                raise ValueError(f"arc {i}: vertex out of range")
            raise ValueError(f"arc {i}: capacity must be finite and >= 0")
        u, v = u.astype(np.int64), v.astype(np.int64)
        keep = (u != v) & (c != 0.0)
        self.vertex_count = vertex_count
        self.source = int(source)
        self.sink = int(sink)
        self.tails = _readonly(u[keep])
        self.heads = _readonly(v[keep])
        self.capacities = _readonly(c[keep])

    @property
    def edge_count(self) -> int:
        return len(self.tails)

    @cached_property
    def _incidence_ends(self) -> tuple[np.ndarray, np.ndarray | None]:
        return _incidence_ends(self.tails, self.heads)

    def total_capacity(self) -> float:
        return float(self.capacities.sum())

    def __repr__(self) -> str:
        return (
            f"DirectedNetwork(n={self.vertex_count}, m={self.edge_count}, "
            f"s={self.source}, t={self.sink})"
        )


class SymmetrizedNetwork:
    """The undirected multigraph produced by `symmetrize`.

    Edges are stored arc-major: arc i contributes edges 3i (original),
    3i+1 (source link), 3i+2 (sink link), and this layout is the only
    record of which edge is which.  Each edge has a canonical positive
    orientation tail -> head; flows are signed against it.  The arc
    properties (`m_arcs`, `arc_capacities`, `parent_capacity`) read the
    layout, so they hold only for what `symmetrize` builds; a multigraph
    built here directly has only its edges.
    """

    def __init__(
        self,
        vertex_count: int,
        source: int,
        sink: int,
        epsilon: float,
        tails: np.ndarray,
        heads: np.ndarray,
        capacities: np.ndarray,
    ):
        self.vertex_count = int(vertex_count)
        self.source = int(source)
        self.sink = int(sink)
        self.epsilon = float(epsilon)
        self.tails = _readonly(tails)
        self.heads = _readonly(heads)
        self.capacities = _readonly(capacities)

    @property
    def m_arcs(self) -> int:
        return self.edge_count // 3

    @property
    def arc_capacities(self) -> np.ndarray:
        """Each arc's capacity: that of its original edge."""
        return self.capacities[0::3]

    @cached_property
    def parent_capacity(self) -> np.ndarray:
        """Per edge, the capacity of the arc it comes from."""
        return _readonly(np.repeat(self.arc_capacities, 3))

    @property
    def edge_count(self) -> int:
        return len(self.tails)

    @cached_property
    def _incidence_ends(self) -> tuple[np.ndarray, np.ndarray | None]:
        return _incidence_ends(self.tails, self.heads)

    def __repr__(self) -> str:
        return (
            f"SymmetrizedNetwork(n={self.vertex_count}, edges={self.edge_count}, "
            f"eps={self.epsilon})"
        )


Network = Union[DirectedNetwork, SymmetrizedNetwork]


def _incidence_ends(tails: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The ends of every edge that is not a self-loop, edge by edge with the
    tail before the head, and the indices of those edges (None when no edge
    is a self-loop)."""
    keep = tails != heads
    ends = np.stack([tails[keep], heads[keep]], axis=1).ravel()
    return ends, None if keep.all() else np.flatnonzero(keep)


def incidence_product(net: Network, values: np.ndarray) -> np.ndarray:
    """``B @ values`` for the signed vertex-edge incidence ``B`` (+1 at the
    tail, -1 at the head): each vertex's net outflow under edge values.

    Each vertex sums its terms in edge order, starting from 0.0, which is
    the order, and so the bits, of a CSR incidence product.  A self-loop's
    terms cancel and are left out.
    """
    ends, keep = net._incidence_ends
    v = values if keep is None else values[keep]
    terms = np.empty(len(ends))
    terms[0::2] = v
    np.negative(v, out=terms[1::2])
    return np.bincount(ends, terms, net.vertex_count)


def radix_keys(ids: np.ndarray, n: int) -> np.ndarray:
    """Vertex ids of a graph on ``n`` vertices as keys for a stable sort:
    16-bit up to 65,536 vertices, which NumPy sorts by radix, and the ids
    themselves above that, which it sorts by timsort.  Every stable sort of
    vertex ids in a solve takes its keys from here, so one solve never
    faults in both sorts' code."""
    return ids.astype(np.uint16) if n <= 65_536 else ids


def bfs_levels(
    n: int, rows: np.ndarray, nbrs: np.ndarray, start: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Breadth-first search from ``start`` along the entries
    ``rows[j] -> nbrs[j]`` of a graph on ``n`` vertices.

    Each vertex's entries are scanned in index order: one stable sort
    groups them by vertex, a radix sort up to 65,536 vertices
    (`radix_keys`).  A level's candidates are its vertices' entry lists,
    concatenated in level order, and the first occurrence of each vertex
    not yet seen joins the next level, reached by that entry: the visiting
    order of a first-in first-out queue.  Returns the levels, level 0
    being ``[start]``, and for each vertex the entry it was reached by, -1
    for the start and for vertices not reached.  O(n + len(rows)) overall,
    one step per level.
    """
    by_row = np.argsort(radix_keys(rows, n), kind="stable")
    targets = nbrs[by_row]
    counts = np.bincount(rows, minlength=n)
    first_entry = np.cumsum(counts) - counts
    via = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    # Earliest candidate index per vertex within one level; reset after it.
    unset = len(rows)
    earliest = np.full(n, unset, dtype=np.int64)
    frontier = np.array([start], dtype=np.int64)
    levels = [frontier]
    while True:
        lens = counts[frontier]
        offsets = np.cumsum(lens) - lens
        pos = np.repeat(first_entry[frontier] - offsets, lens) + np.arange(lens.sum())
        cand = targets[pos]
        fresh = ~seen[cand]
        pos, cand = pos[fresh], cand[fresh]
        if not len(cand):
            return levels, via
        k = np.arange(len(cand))
        np.minimum.at(earliest, cand, k)
        first = earliest[cand] == k
        earliest[cand] = unset
        frontier = cand[first]
        seen[frontier] = True
        via[frontier] = by_row[pos[first]]
        levels.append(frontier)


def symmetrize(network: DirectedNetwork, epsilon: float) -> SymmetrizedNetwork:
    """Build the undirected symmetrization of ``network``.

    Arc (u, v) with capacity c yields, in order: the original edge u-v at
    capacity c, the source link s-v at (1+epsilon)c, and the sink link u-t
    at (1+epsilon)c.  Requires 0 < epsilon <= 1/2.

    Across a vertex set S holding s but not t, an arc's three edges put
    (3+2eps)c when the arc leaves S, c when it enters S, and (1+eps)c when
    both ends are on one side.  The undirected max flow is therefore

        min_S [(2+eps) * leaving(S) - eps * entering(S)] + (1+eps) * U,

    with U the total arc capacity.  It is at most the closed form
    (2+eps) F* + (1+eps) U (take S a minimum directed cut), and equals it
    when every arc leaves s or enters t, since no arc can then enter a
    cut's source side.  Arcs on no simple s-t path carry no s-t flow but
    can still enter the source side of a cut and lower the minimum, which
    is why `approx_max_flow` drops them before symmetrizing.
    """
    epsilon = float(epsilon)
    if not (0.0 < epsilon <= 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    m = network.edge_count
    u, v, c = network.tails, network.heads, network.capacities
    s = np.full(m, network.source, dtype=np.int64)
    t = np.full(m, network.sink, dtype=np.int64)
    boosted = (1.0 + epsilon) * c
    tails = np.stack([u, s, u], axis=1).ravel()
    heads = np.stack([v, v, t], axis=1).ravel()
    caps = np.stack([c, boosted, boosted], axis=1).ravel()
    return SymmetrizedNetwork(
        vertex_count=network.vertex_count,
        source=network.source,
        sink=network.sink,
        epsilon=epsilon,
        tails=tails,
        heads=heads,
        capacities=caps,
    )


class FlowAssignment:
    """Signed per-edge flow relative to each edge's canonical orientation."""

    __slots__ = ("network", "values")

    def __init__(self, network: Network, values):
        arr = np.array(values, dtype=np.float64)
        if arr.shape != (network.edge_count,):
            raise ValueError(
                f"expected {network.edge_count} edge values, got shape {arr.shape}"
            )
        self.network = network
        self.values = _readonly(arr)

    @classmethod
    def zeros(cls, network: Network) -> "FlowAssignment":
        return cls(network, np.zeros(network.edge_count))

    def residuals(self) -> np.ndarray:
        """Net outflow per vertex (positive = more flow leaving than entering)."""
        return incidence_product(self.network, self.values)

    def interior_residual_max(self) -> float:
        resid = np.abs(self.residuals())
        resid[[self.network.source, self.network.sink]] = 0.0
        return float(resid.max())

    def source_outflow(self) -> float:
        """Net outflow at the source, without any conservation check."""
        return float(self.residuals()[self.network.source])

    def __repr__(self) -> str:
        return f"FlowAssignment(edges={len(self.values)}, value~{self.source_outflow():.6g})"


def parse_dimacs(text: str | TextIO) -> DirectedNetwork:
    """Parse a DIMACS max-flow instance.

    Recognized lines: comments ``c ...``, one header ``p max <n> <m>``,
    node designations ``n <id> s|t`` (1-based ids), arcs
    ``a <tail> <head> <capacity>``.  Zero-capacity arcs and self-loops are
    dropped by the `DirectedNetwork` constructor; the other arcs keep their
    file order.
    """
    if hasattr(text, "read"):
        text = text.read()
    n = None
    source = None
    sink = None
    arcs: list[tuple[int, int, float]] = []
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise DimacsParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "max":
                raise DimacsParseError("malformed header, expected 'p max <n> <m>'", lineno)
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise DimacsParseError("malformed header, expected integer sizes", lineno) from None
            if n < 1:
                raise DimacsParseError("vertex count must be positive", lineno)
            header_line = lineno
        elif tag == "n":
            if n is None:
                raise DimacsParseError("node line before header", lineno)
            if len(parts) != 3 or parts[2] not in ("s", "t"):
                raise DimacsParseError("malformed node line, expected 'n <id> s|t'", lineno)
            try:
                vid = int(parts[1]) - 1
            except ValueError:
                raise DimacsParseError("malformed node id", lineno) from None
            if not (0 <= vid < n):
                raise DimacsParseError("vertex out of range", lineno)
            if parts[2] == "s":
                if source is not None:
                    raise DimacsParseError("duplicate source designation", lineno)
                source = vid
            else:
                if sink is not None:
                    raise DimacsParseError("duplicate sink designation", lineno)
                sink = vid
        elif tag == "a":
            if n is None:
                raise DimacsParseError("arc line before header", lineno)
            if len(parts) != 4:
                raise DimacsParseError("malformed arc line, expected 'a <tail> <head> <cap>'", lineno)
            try:
                u = int(parts[1]) - 1
                v = int(parts[2]) - 1
                c = float(parts[3])
            except ValueError:
                raise DimacsParseError("malformed arc line", lineno) from None
            if not (0 <= u < n) or not (0 <= v < n):
                raise DimacsParseError("vertex out of range", lineno)
            if not np.isfinite(c) or c < 0:
                raise DimacsParseError("capacity must be finite and >= 0", lineno)
            arcs.append((u, v, c))
        else:
            raise DimacsParseError(f"unknown line tag {tag!r}", lineno)
    if n is None:
        raise DimacsParseError("missing header", 1)
    if source is None:
        raise DimacsParseError("missing source designation", header_line)
    if sink is None:
        raise DimacsParseError("missing sink designation", header_line)
    if source == sink:
        raise DimacsParseError("source and sink must differ", header_line)
    return DirectedNetwork(n, arcs, source, sink)


def write_dimacs(network: DirectedNetwork) -> str:
    """Serialize a network in DIMACS max-flow format (1-based vertex ids).

    Capacities print with 17 significant digits, enough for every float to
    parse back to itself; integral ones print as integers.
    """
    lines = [f"p max {network.vertex_count} {network.edge_count}"]
    lines.append(f"n {network.source + 1} s")
    lines.append(f"n {network.sink + 1} t")
    for u, v, c in zip(network.tails, network.heads, network.capacities):
        lines.append(f"a {u + 1} {v + 1} {c:.17g}")
    return "\n".join(lines) + "\n"
