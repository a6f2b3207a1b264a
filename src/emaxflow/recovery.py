"""Recover a feasible directed flow from a bounded symmetrized flow.

Pipeline: subtract the canonical per-arc link routing and halve, then read
s-t paths off the original edges in one depth-first walk (flow
decomposition; Ahuja, Magnanti and Orlin, *Network Flows*, ch. 3).  The
walk cancels every cycle it meets and drops the arc into every dead end,
the vertices whose arc inflow the halved flow returns to the source over a
link.  The paths it reads add up to the path flow.  If some arc of the
path flow exceeds its capacity, that flow is both scaled down once by the
worst capacity ratio and truncated, each path pushed only up to the
capacity the earlier paths left free; the larger of the two is kept.

Which cycles are cancelled and which paths are cut first decide how much
of the flow survives, so the walk takes each vertex's out-arcs fullest
first, an order read off the flow's values rather than the numbering.  A
renumbered input then recovers the same flow, renumbered, up to ties and
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import DirectedNetwork, FlowAssignment, SymmetrizedNetwork, radix_keys


# Relative tolerance of the range checks on a recovery's input.
_RANGE_RTOL = 1e-9


class RecoveryError(ValueError):
    """Input flow violates the bounds the recovery pipeline relies on."""


@dataclass(frozen=True)
class RecoveryResult:
    """A feasible directed flow extracted from the undirected solve.

    ``scaled`` is true when the returned flow is the one scaled down by
    ``max_capacity_ratio``, the worst arc-flow-to-capacity ratio of the path
    flow read off the input, before recovery made it feasible.
    """

    directed_flow: FlowAssignment
    value: float
    scaled: bool
    max_capacity_ratio: float


def link_routing_values(net: SymmetrizedNetwork) -> np.ndarray:
    """The summed canonical routings, one per arc: (1+eps)*u via the source
    link, backwards across the original edge, and out the sink link."""
    sign = np.tile([-1.0, 1.0, 1.0], net.m_arcs)
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
    original = np.tile([True, False, False], net.m_arcs)
    bad_low = np.where(original, vals < -tol, vals < -bound - tol)
    bad_high = np.where(original, vals > bound + tol, vals > tol)
    if bad_low.any() or bad_high.any():
        k = int(np.flatnonzero(bad_low | bad_high)[0])
        raise RecoveryError(
            f"edge {k} value {vals[k]:.6g} outside its recovery range; "
            "input was not a valid bounded flow"
        )
    return FlowAssignment(net, vals)


def cycle_cancel(flow: FlowAssignment) -> FlowAssignment:
    """Remove all directed cycles from the flow's support, preserving value.

    Edges are oriented by the sign of their flow.  A depth-first search
    from each root in turn, scanning each vertex's out-edges in turn,
    finds a directed cycle and subtracts the cycle's minimum flow.  Roots
    are taken in id order and out-edges in index order.  No edge's
    magnitude ever increases, and each cancellation zeroes at least one
    edge, so this terminates with an acyclic support.  Recovery does not
    call it: its path walk cancels the cycles it meets.

    Cancelling subtracts at most an edge's own magnitude, so no sign ever
    flips: each edge sits once, on the out-list of its flow tail, for the
    whole run.  A scan passes over an edge only when it is zero or its
    head is finished, and both states last, so each vertex's scan pointer
    persists across visits and stops where a rescan from the start would.
    After a cancel the search retreats to the tail of the first emptied
    cycle edge; the path up to there is what a retreat to the cycle's
    entry vertex would rebuild.  So the result equals, bit for bit, that
    of a search in the same orders that rescans every vertex from its
    first edge and retreats to the entry vertex (the tests keep one as a
    reference), at a cost of O(m + total length of the cancelled cycles).
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
    for k in range(len(x)):
        if x[k] != 0.0:
            out[flow_tail[k]].append(k)

    color = [0] * n  # 0 white, 1 on current path, 2 finished
    ptr = [0] * n
    pos_on_path = [-1] * n

    for root in range(n):
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


def _path_flows(
    arc_vals: np.ndarray, network: DirectedNetwork
) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a nonnegative arc flow into s-t paths: the path flow, and
    the flow that pushes each path only up to the capacity the earlier
    paths left free.

    A depth-first walk from the source scans each vertex's positive
    out-arcs fullest first (ties in index order), so the paths it finds
    do not depend on how the arcs are numbered.  An arc back onto the
    current path closes a cycle, and the cycle's bottleneck is subtracted
    around it.  At the sink, the path's bottleneck is taken out of the flow
    and added to the path flow, and the smaller of the bottleneck and the
    path's free capacity is pushed.  After either, the walk retreats to
    the tail of the first arc that emptied.  A vertex whose out-arcs are
    empty is a dead end: the arc into it is emptied and the walk steps
    back one vertex.

    Cancelling a cycle or taking out a path leaves every interior vertex's
    imbalance as it was, so a dead end's arc inflow is at most what its
    links return to the source, and the path flow is worth at least the
    input's value.  Arc flows only shrink and an empty arc stays empty, so
    each vertex's scan pointer persists, and the walk costs O(m log m)
    for the order plus O(m + total length of the paths and cycles).

    The adjacency is one flat list of arc indices, the positive arcs in
    the fullest-first order of Python's ``sorted`` grouped by tail with a
    stable sort (a radix sort up to 65,536 vertices, `radix_keys`), and
    per vertex the start and end of its run in that list.
    """
    s, t = network.source, network.sink
    n = network.vertex_count
    tails = network.tails.tolist()
    heads = network.heads.tolist()
    x = arc_vals.tolist()
    free = network.capacities.tolist()
    # Vertex v's positive out-arcs, fullest first, are out[ptr[v]:end[v]].
    order = np.array(
        [k for k in sorted(range(len(x)), key=x.__getitem__, reverse=True) if x[k] > 0.0],
        dtype=np.int64,
    )
    by_tail = network.tails[order]
    out = order[np.argsort(radix_keys(by_tail, n), kind="stable")].tolist()
    counts = np.bincount(by_tail, minlength=n)
    end = np.cumsum(counts)
    ptr = (end - counts).tolist()
    end = end.tolist()
    # The walk needs only the lists.
    del order, by_tail, counts
    # pos[v] is the place on the path of the arc out of v; -1 off the path.
    pos = [-1] * n
    pos[s] = 0
    p = [0.0] * len(x)
    y = [0.0] * len(x)
    path: list[int] = []
    u = s
    while True:
        i, stop = ptr[u], end[u]
        while i < stop and x[out[i]] == 0.0:
            i += 1
        ptr[u] = i
        if i == stop:
            if not path:
                break
            k = path.pop()
            x[k] = 0.0
            pos[u] = -1
            u = tails[k]
            continue
        k = out[i]
        w = heads[k]
        path.append(k)
        # For finite floats x - c is 0.0 exactly when x == c, so the first
        # arc to empty is the first that holds the bottleneck.
        if w == t:
            xs = [x[e] for e in path]
            c = min(xs)
            push = min(c, min([free[e] for e in path]))
            for e, xe in zip(path, xs):
                x[e] = xe - c
                p[e] += c
                y[e] += push
                free[e] -= push
            cut = xs.index(c)
        elif pos[w] < 0:
            pos[w] = len(path)
            u = w
            continue
        else:
            start = pos[w]
            cycle = path[start:]
            xs = [x[e] for e in cycle]
            c = min(xs)
            for e, xe in zip(cycle, xs):
                x[e] = xe - c
            cut = start + xs.index(c)
        for e in path[cut:-1]:
            pos[heads[e]] = -1
        u = tails[path[cut]]
        del path[cut:]
    return np.array(p), np.array(y)


def extract_directed(flow: FlowAssignment, network: DirectedNetwork) -> RecoveryResult:
    """Read a halved symmetrized flow back onto the arcs of ``network``.

    Only the original edges are read, edge 3i for arc i, so the flow's
    network must have three edges per arc of ``network``, and they must be
    nonnegative.  The path flow of `_path_flows` is returned if it is
    within capacity.  Otherwise two feasible flows are formed: the path
    flow scaled by its worst capacity ratio, which recovery's range bounds
    keep at most (1+eps), and the truncated flow.  The truncated one is
    returned only if it is worth strictly more, so the result is never
    worth less than the scaled flow, and a tie keeps the scaled flow.
    """
    net = flow.network
    if not isinstance(net, SymmetrizedNetwork):
        raise TypeError("extract_directed expects a flow on a SymmetrizedNetwork")
    if net.edge_count != 3 * network.edge_count:
        raise ValueError("symmetrized network does not match the directed network")
    cap_scale = float(net.capacities.max()) if net.edge_count else 1.0
    arc_vals = np.array(flow.values[0::3])
    if len(arc_vals) and float(arc_vals.min()) < -_RANGE_RTOL * max(1.0, cap_scale):
        raise RecoveryError(f"negative original-edge flow {arc_vals.min():.3e}")
    np.clip(arc_vals, 0.0, None, out=arc_vals)
    path_vals, truncated_vals = _path_flows(arc_vals, network)

    caps = network.capacities
    ratio = float((path_vals / caps).max()) if len(path_vals) else 0.0
    scaled = ratio > 1.0
    scaled_vals = path_vals / ratio if scaled else path_vals
    directed = FlowAssignment(network, np.clip(scaled_vals, 0.0, caps))
    value = directed.source_outflow()
    if scaled:
        truncated = FlowAssignment(network, np.clip(truncated_vals, 0.0, caps))
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
    """Full pipeline: subtract and halve, then extract the arc flows."""
    return extract_directed(subtract_and_halve(flow), network)
