"""Checks of a solve against computations made apart from the program.

The reference max flow comes from SciPy, and conservation and values are
recomputed with NumPy from the arc arrays.  Nothing here calls the
program's own verification code, such as `FlowAssignment` residuals.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_bipartite_matching, maximum_flow

# Relative tolerance of the floating-point checks: the program's flows are
# sums and scalings of integer capacities, so errors are rounding only.
RTOL = 1e-9


def reference_max_flow(
    n: int, source: int, sink: int, tails, heads, capacities
) -> int:
    """F* by SciPy's max flow on the integer capacities."""
    caps = np.asarray(capacities)
    as_int = caps.astype(np.int64)
    if not np.array_equal(as_int, caps):
        raise ValueError("reference max flow needs integer capacities")
    graph = csr_matrix(
        (as_int.astype(np.int32), (np.asarray(tails), np.asarray(heads))), shape=(n, n)
    )
    return int(maximum_flow(graph, int(source), int(sink)).flow_value)


def st_vertex_count(n: int, source: int, sink: int, tails, heads) -> int:
    """Vertices that the source reaches without passing the sink and that
    reach the sink without passing the source, both terminals included.

    Arcs between other vertices lie on no s-t path, so these are the
    vertices whose Laplacian an electrical s-t flow solves over.
    """
    tails, heads = np.asarray(tails), np.asarray(heads)
    keep = (tails != sink) & (heads != source)
    graph = csr_matrix(
        (np.ones(int(keep.sum())), (tails[keep], heads[keep])), shape=(n, n)
    )
    from_s = breadth_first_order(graph, source, return_predecessors=False)
    to_t = breadth_first_order(graph.T.tocsr(), sink, return_predecessors=False)
    return len(np.intersect1d(from_s, to_t))


def reference_matching(left, right, tails, heads) -> int:
    """Size of a maximum matching between ``left`` and ``right`` over the
    arcs that run from a left vertex to a right vertex."""
    lpos = {v: i for i, v in enumerate(left)}
    rpos = {v: i for i, v in enumerate(right)}
    rows, cols = [], []
    for u, v in zip(np.asarray(tails).tolist(), np.asarray(heads).tolist()):
        if u in lpos and v in rpos:
            rows.append(lpos[u])
            cols.append(rpos[v])
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(left), len(right)))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int(np.count_nonzero(match >= 0))


def flow_problems(
    n: int,
    source: int,
    sink: int,
    tails,
    heads,
    capacities,
    flows,
    claimed_values,
    f_star: float,
    epsilon: float,
) -> list[str]:
    """Every way ``flows`` fails to be a feasible flow worth at least
    ``(1 - epsilon) f_star`` whose value is each of ``claimed_values``.

    An empty list means the flow passed.  Capacity bounds are checked
    exactly; conservation and values within `RTOL` of the largest
    capacity, respectively of ``f_star``.
    """
    tails = np.asarray(tails)
    heads = np.asarray(heads)
    caps = np.asarray(capacities, dtype=np.float64)
    f = np.asarray(flows, dtype=np.float64)
    problems = []
    if f.shape != caps.shape:
        return [f"{f.shape[0] if f.ndim else 0} arc flows for {caps.shape[0]} arcs"]
    if not np.isfinite(f).all():
        problems.append("non-finite arc flow")
    if (f < 0).any():
        problems.append(f"negative arc flow {f.min():.6g}")
    if (f > caps).any():
        k = int(np.argmax(f - caps))
        problems.append(f"arc {k} carries {f[k]:.12g} over its capacity {caps[k]:.12g}")
    net = np.bincount(tails, weights=f, minlength=n) - np.bincount(heads, weights=f, minlength=n)
    interior = np.ones(n, dtype=bool)
    interior[[source, sink]] = False
    scale = max(1.0, float(caps.max()) if len(caps) else 1.0)
    if interior.any() and float(np.abs(net[interior]).max()) > RTOL * scale:
        v = int(np.flatnonzero(interior)[np.argmax(np.abs(net[interior]))])
        problems.append(f"vertex {v} does not conserve: net outflow {net[v]:.6g}")
    value = float(net[source])
    value_tol = RTOL * max(1.0, float(f_star))
    for claimed in claimed_values:
        if abs(value - float(claimed)) > value_tol:
            problems.append(f"net source outflow {value:.12g} differs from claimed {claimed!r}")
    if value < (1.0 - epsilon) * f_star - value_tol:
        problems.append(f"value {value:.12g} below (1 - {epsilon}) * F* = {(1 - epsilon) * f_star:.12g}")
    if value > f_star + value_tol:
        problems.append(f"value {value:.12g} above F* = {f_star}")
    return problems
