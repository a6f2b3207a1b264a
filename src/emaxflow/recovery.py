"""Recover a feasible directed flow from a bounded symmetrized flow.

Pipeline: subtract the canonical per-arc link routing and halve, cancel all
directed cycles in the result, then read the original-edge flows back onto
the arcs (scaling down once if any arc exceeds its capacity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import DirectedNetwork, FlowAssignment, Provenance, SymmetrizedNetwork


class RecoveryError(ValueError):
    """Input flow violates the bounds the recovery pipeline relies on."""


@dataclass(frozen=True)
class RecoveryResult:
    """A feasible directed flow extracted from the undirected solve."""

    directed_flow: FlowAssignment
    value: float
    scaled: bool
    max_capacity_ratio: float


def link_routing_values(net: SymmetrizedNetwork) -> np.ndarray:
    """The summed canonical routings, one per arc: (1+eps)*u via the source
    link, backwards across the original edge, and out the sink link."""
    sign = np.array([-1.0, 1.0, 1.0])[net.provenance]
    return sign * (1.0 + net.epsilon) * net.parent_capacity


def subtract_and_halve(flow: FlowAssignment, rtol: float = 1e-9) -> FlowAssignment:
    """Halve the flow minus the canonical link routing.

    For an input satisfying the bounded-flow contract, the output carries
    each original edge forward in [0, (1+eps)u], each link edge backward in
    [-(1+eps)u, 0], and has value (input value - (1+eps)*total capacity)/2.
    A non-finite input or an out-of-range output (beyond ``rtol``) raises
    `RecoveryError`.
    """
    net = flow.network
    if not isinstance(net, SymmetrizedNetwork):
        raise TypeError("subtract_and_halve expects a flow on a SymmetrizedNetwork")
    if not np.isfinite(flow.values).all():
        raise RecoveryError("input flow carries a non-finite value")
    vals = 0.5 * (flow.values - link_routing_values(net))
    bound = (1.0 + net.epsilon) * net.parent_capacity
    tol = rtol * np.maximum(1.0, bound)
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


def cycle_cancel(flow: FlowAssignment) -> FlowAssignment:
    """Remove all directed cycles from the flow's support, preserving value.

    Edges are oriented by the sign of their flow.  A depth-first search
    from each root in id order, scanning each vertex's out-edges in index
    order, finds a directed cycle and subtracts the cycle's minimum flow.
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
    of a search that rescans every vertex from its first edge and retreats
    to the entry vertex (the tests keep one as a reference), at a cost of
    O(m + total length of the cancelled cycles).
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
    x = vals.tolist()
    out: list[list[int]] = [[] for _ in range(n)]
    for k, a in enumerate(np.where(fwd, tails, heads).tolist()):
        if x[k] != 0.0:
            out[a].append(k)

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


def extract_directed(
    flow: FlowAssignment, network: DirectedNetwork, rtol: float = 1e-9
) -> RecoveryResult:
    """Map an acyclic symmetrized flow back onto the arcs of ``network``.

    Link edges must carry (numerically) zero flow and original edges must be
    nonnegative.  If some arc exceeds its capacity the whole flow is scaled
    by the worst capacity ratio, which recovery's range bounds keep at most
    (1+eps).
    """
    net = flow.network
    if not isinstance(net, SymmetrizedNetwork):
        raise TypeError("extract_directed expects a flow on a SymmetrizedNetwork")
    if net.m_arcs != network.edge_count:
        raise ValueError("symmetrized network does not match the directed network")
    cap_scale = float(net.capacities.max()) if net.edge_count else 1.0
    link_tol = rtol * max(1.0, cap_scale)
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
    if scaled:
        arc_vals /= ratio
    np.clip(arc_vals, 0.0, caps, out=arc_vals)
    directed = FlowAssignment(network, arc_vals)
    value = directed.source_outflow()
    return RecoveryResult(
        directed_flow=directed,
        value=value,
        scaled=scaled,
        max_capacity_ratio=ratio,
    )


def recover_directed_flow(
    flow: FlowAssignment, network: DirectedNetwork, rtol: float = 1e-9
) -> RecoveryResult:
    """Full pipeline: subtract and halve, cancel cycles, extract arc flows."""
    halved = subtract_and_halve(flow, rtol=rtol)
    acyclic = cycle_cancel(halved)
    return extract_directed(acyclic, network, rtol=rtol)
