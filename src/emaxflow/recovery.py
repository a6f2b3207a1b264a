"""Recover a feasible directed flow from a bounded symmetrized flow.

Pipeline: subtract the canonical per-arc link routing and halve, cancel all
directed cycles in the result, then read the original-edge flows back onto
the arcs.  If some arc exceeds its capacity, the arc flow is both scaled
down once by the worst capacity ratio and decomposed into s-t paths, each
pushed only up to the capacity the earlier paths left free (flow
decomposition; Ahuja, Magnanti and Orlin, *Network Flows*, ch. 3); the
larger of the two flows is kept.

Which cycles are cancelled and which paths are cut first decide how much
of the flow survives, so both walks take vertices and edges in an order
read off the flow's values (`magnitude_order`, and the fullest arcs first
in the path walk), not in id order.  A renumbered input then recovers the
same flow, renumbered, up to ties and rounding.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .network import DirectedNetwork, FlowAssignment, Provenance, SymmetrizedNetwork


# Relative tolerance of the range checks on a recovery's input.
_RANGE_RTOL = 1e-9


class RecoveryError(ValueError):
    """Input flow violates the bounds the recovery pipeline relies on."""


@dataclass(frozen=True)
class RecoveryResult:
    """A feasible directed flow extracted from the undirected solve.

    ``scaled`` is true when the returned flow is the one scaled down by
    ``max_capacity_ratio``, the worst arc-flow-to-capacity ratio before
    recovery made the flow feasible.
    """

    directed_flow: FlowAssignment
    value: float
    scaled: bool
    max_capacity_ratio: float


def link_routing_values(net: SymmetrizedNetwork) -> np.ndarray:
    """The summed canonical routings, one per arc: (1+eps)*u via the source
    link, backwards across the original edge, and out the sink link."""
    sign = np.array([-1.0, 1.0, 1.0])[net.provenance]
    return sign * (1.0 + net.epsilon) * net.parent_capacity


def subtract_and_halve(flow: FlowAssignment) -> FlowAssignment:
    """Halve the flow minus the canonical link routing.

    For an input satisfying the bounded-flow contract, the output carries
    each original edge forward in [0, (1+eps)u], each link edge backward in
    [-(1+eps)u, 0], and has value (input value - (1+eps)*total capacity)/2.
    A non-finite input or an out-of-range output (beyond a relative 1e-9)
    raises `RecoveryError`.
    """
    net = flow.network
    if not isinstance(net, SymmetrizedNetwork):
        raise TypeError("subtract_and_halve expects a flow on a SymmetrizedNetwork")
    if not np.isfinite(flow.values).all():
        raise RecoveryError("input flow carries a non-finite value")
    vals = 0.5 * (flow.values - link_routing_values(net))
    bound = (1.0 + net.epsilon) * net.parent_capacity
    tol = _RANGE_RTOL * np.maximum(1.0, bound)
    original = net.provenance == Provenance.ORIGINAL
    bad_low = np.where(original, vals < -tol, vals < -bound - tol)
    bad_high = np.where(original, vals > bound + tol, vals > tol)
    if bad_low.any() or bad_high.any():
        k = int(np.flatnonzero(bad_low | bad_high)[0])
        raise RecoveryError(
            f"edge {k} value {vals[k]:.6g} outside its recovery range; "
            "input was not a valid bounded flow"
        )
    return FlowAssignment(net, vals)


def magnitude_order(flow: FlowAssignment) -> tuple[list[int], list[int]]:
    """The flow's vertices by throughput (summed |flow| on their edges) and
    its edges by |flow|, largest first, ties in id order: the ``roots``
    and ``edges`` orders `recover_directed_flow` gives `cycle_cancel`.

    Both orders come from the flow's values alone, so a renumbered copy of
    a flow is read in the same order, up to ties.  Python's ``sorted``
    orders them: a first NumPy sort would fault in code pages that show in
    the solve's peak memory (see `driver._threshold_cut`).
    """
    net = flow.network
    mag = np.abs(flow.values)
    n = net.vertex_count
    through = (np.bincount(net.tails, mag, n) + np.bincount(net.heads, mag, n)).tolist()
    size = mag.tolist()
    roots = sorted(range(n), key=through.__getitem__, reverse=True)
    edges = sorted(range(len(size)), key=size.__getitem__, reverse=True)
    return roots, edges


def cycle_cancel(
    flow: FlowAssignment,
    roots: Sequence[int] | None = None,
    edges: Sequence[int] | None = None,
) -> FlowAssignment:
    """Remove all directed cycles from the flow's support, preserving value.

    Edges are oriented by the sign of their flow.  A depth-first search
    from each root in turn, scanning each vertex's out-edges in turn,
    finds a directed cycle and subtracts the cycle's minimum flow.  Roots
    are taken in the order ``roots`` and out-edges in the order ``edges``
    lists them; by default roots in id order and edges in index order.
    No edge's magnitude ever increases, and each cancellation zeroes at
    least one edge, so this terminates with an acyclic support.

    Cancelling subtracts at most an edge's own magnitude, so no sign ever
    flips: each edge sits once, on the out-list of its flow tail, for the
    whole run.  A scan passes over an edge only when it is zero or its
    head is finished, and both states last, so each vertex's scan pointer
    persists across visits and stops where a rescan from the start would.
    After a cancel the search retreats to the tail of the first emptied
    cycle edge; the path up to there is what a retreat to the cycle's
    entry vertex would rebuild.  So the result equals, bit for bit, that
    of a search in the same orders that rescans every vertex from its
    first edge and retreats to the entry vertex (the tests keep one, in
    the default orders, as a reference), at a cost of O(m + total length
    of the cancelled cycles).
    """
    net = flow.network
    vals = np.array(flow.values)
    n = net.vertex_count
    tails = net.tails
    heads = net.heads

    # A self-loop with flow is a one-edge cycle.
    vals[np.asarray(tails == heads)] = 0.0

    fwd = vals > 0.0
    flow_head = np.where(fwd, heads, tails).tolist()
    flow_tail = np.where(fwd, tails, heads).tolist()
    x = vals.tolist()
    out: list[list[int]] = [[] for _ in range(n)]
    for k in range(len(x)) if edges is None else edges:
        if x[k] != 0.0:
            out[flow_tail[k]].append(k)

    color = [0] * n  # 0 white, 1 on current path, 2 finished
    ptr = [0] * n
    pos_on_path = [-1] * n

    for root in range(n) if roots is None else roots:
        if color[root] != 0:
            continue
        color[root] = 1
        pos_on_path[root] = 0
        path_v = [root]
        path_e: list[int] = [-1]
        while path_v:
            u = path_v[-1]
            adj = out[u]
            i = ptr[u]
            while i < len(adj) and (x[adj[i]] == 0.0 or color[flow_head[adj[i]]] == 2):
                i += 1
            ptr[u] = i
            if i == len(adj):
                color[u] = 2
                pos_on_path[u] = -1
                path_v.pop()
                path_e.pop()
                continue
            k = adj[i]
            w = flow_head[k]
            if color[w] == 0:
                color[w] = 1
                pos_on_path[w] = len(path_v)
                path_v.append(w)
                path_e.append(k)
                continue
            # Cycle: path section from w to u, plus edge k back to w.
            start = pos_on_path[w]
            cyc = path_e[start + 1 :] + [k]
            c = min(abs(x[e]) for e in cyc)
            for e in cyc:
                x[e] -= c if x[e] > 0 else -c
            # The tail of cycle edge j is path_v[start + j].
            cut = start + 1 + next(j for j, e in enumerate(cyc) if x[e] == 0.0)
            for v2 in path_v[cut:]:
                color[v2] = 0
                pos_on_path[v2] = -1
            del path_v[cut:]
            del path_e[cut:]
    return FlowAssignment(net, x)


def _truncate_paths(arc_vals: np.ndarray, network: DirectedNetwork) -> np.ndarray:
    """Decompose an acyclic arc flow into s-t paths and push each path only
    up to the capacity the earlier paths left free.

    A depth-first walk from the source scans each vertex's positive
    out-arcs fullest first (ties in index order), so the paths it finds
    do not depend on how the arcs are numbered.  At the sink, the path's
    bottleneck is taken out of the flow being decomposed, and the smaller
    of the bottleneck and the path's free capacity is pushed; the walk
    then retreats to the tail of the first arc that emptied.  A vertex
    whose out-arcs are empty, left so by rounding residue in conservation,
    is a dead end: the arc into it is emptied and the walk steps back one
    vertex.  An arc back onto the current path, which an acyclic input
    never has, is emptied too.  Arc flows only shrink and an empty arc
    stays empty, so each vertex's scan pointer persists, and the walk
    costs O(m log m) for the order plus O(m + total path length).  The
    result is a sum of s-t paths within capacity.
    """
    s, t = network.source, network.sink
    tails = network.tails.tolist()
    heads = network.heads.tolist()
    x = arc_vals.tolist()
    free = network.capacities.tolist()
    out: list[list[int]] = [[] for _ in range(network.vertex_count)]
    for k in sorted(range(len(x)), key=x.__getitem__, reverse=True):
        if x[k] > 0.0:
            out[tails[k]].append(k)
    ptr = [0] * network.vertex_count
    on_path = [False] * network.vertex_count
    on_path[s] = True
    y = [0.0] * len(x)
    path: list[int] = []
    u = s
    while True:
        adj = out[u]
        i = ptr[u]
        while i < len(adj) and x[adj[i]] == 0.0:
            i += 1
        ptr[u] = i
        if i == len(adj):
            if not path:
                break
            k = path.pop()
            x[k] = 0.0
            on_path[u] = False
            u = tails[k]
            continue
        k = adj[i]
        w = heads[k]
        if on_path[w]:
            x[k] = 0.0
            continue
        path.append(k)
        if w != t:
            on_path[w] = True
            u = w
            continue
        c = min([x[e] for e in path])
        push = min(c, min([free[e] for e in path]))
        cut = -1
        for j, e in enumerate(path):
            x[e] -= c
            if x[e] == 0.0 and cut < 0:
                cut = j
            y[e] += push
            free[e] -= push
        for e in path[cut:-1]:
            on_path[heads[e]] = False
        u = tails[path[cut]]
        del path[cut:]
    return np.array(y)


def extract_directed(flow: FlowAssignment, network: DirectedNetwork) -> RecoveryResult:
    """Map an acyclic symmetrized flow back onto the arcs of ``network``.

    Link edges must carry (numerically) zero flow and original edges must be
    nonnegative.  If some arc exceeds its capacity, two feasible flows are
    formed: the whole flow scaled by the worst capacity ratio, which
    recovery's range bounds keep at most (1+eps), and the path-truncated
    flow of `_truncate_paths`.  The truncated one is returned only if it is
    worth strictly more, so the result is never worth less than the scaled
    flow, and a tie keeps the scaled flow.
    """
    net = flow.network
    if not isinstance(net, SymmetrizedNetwork):
        raise TypeError("extract_directed expects a flow on a SymmetrizedNetwork")
    if net.m_arcs != network.edge_count:
        raise ValueError("symmetrized network does not match the directed network")
    cap_scale = float(net.capacities.max()) if net.edge_count else 1.0
    link_tol = _RANGE_RTOL * max(1.0, cap_scale)
    original = np.asarray(net.provenance == Provenance.ORIGINAL)
    link_vals = flow.values[~original]
    if len(link_vals) and float(np.abs(link_vals).max()) > link_tol:
        raise RecoveryError(
            f"link edge still carries {np.abs(link_vals).max():.3e} after canceling"
        )
    arc_vals = np.array(flow.values[original])
    if len(arc_vals) and float(arc_vals.min()) < -link_tol:
        raise RecoveryError(f"negative original-edge flow {arc_vals.min():.3e}")
    np.clip(arc_vals, 0.0, None, out=arc_vals)

    caps = network.capacities
    ratio = float((arc_vals / caps).max()) if len(arc_vals) else 0.0
    scaled = ratio > 1.0
    scaled_vals = arc_vals / ratio if scaled else arc_vals
    directed = FlowAssignment(network, np.clip(scaled_vals, 0.0, caps))
    value = directed.source_outflow()
    if scaled:
        truncated_vals = np.clip(_truncate_paths(arc_vals, network), 0.0, caps)
        truncated = FlowAssignment(network, truncated_vals)
        truncated_value = truncated.source_outflow()
        if truncated_value > value:
            directed, value, scaled = truncated, truncated_value, False
    return RecoveryResult(
        directed_flow=directed,
        value=value,
        scaled=scaled,
        max_capacity_ratio=ratio,
    )


def recover_directed_flow(flow: FlowAssignment, network: DirectedNetwork) -> RecoveryResult:
    """Full pipeline: subtract and halve, cancel cycles in `magnitude_order`,
    extract arc flows."""
    halved = subtract_and_halve(flow)
    acyclic = cycle_cancel(halved, *magnitude_order(halved))
    return extract_directed(acyclic, network)
