"""Independent reference oracles used to freeze expected test values.

Everything here deliberately avoids the library's solution paths: min cuts
by subset enumeration, max flows by bounded integral enumeration, minimum
energies by dense least squares on the Laplacian pseudoinverse, whole-network
Laplacians as ``B diag(1/r) B^T``, with ``B`` SciPy's sparse incidence
(`incidence_reference`), which the library's NumPy incidence product must
match bit for bit.  The other ``*_reference`` functions keep
the library's first, plain versions of cycle cancelling, the repair tree's
BFS, tree repair, dense Laplacian assembly and the conjugate-gradient
loop, and sum the sparse Laplacian over its merged vertex pairs with
`np.add.at`; the library's faster versions must return the same bits.
`path_flows_reference` keeps recovery's path walk as it was before each
path and cycle took one pass; the library's walk must return its bits.
`scaled_recovery_reference` keeps the first arc-flow extraction, which
only scaled; the library's recovery must never be worth less.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from emaxflow import (
    ConvergenceError,
    DirectedNetwork,
    FlowAssignment,
    RepairError,
    SymmetrizedNetwork,
)
from emaxflow.electrical import _st_context
from emaxflow.network import Network


def directed_min_cut(network: DirectedNetwork) -> float:
    """Min s-t cut by enumeration over all vertex subsets (n <= ~16)."""
    n = network.vertex_count
    others = [v for v in range(n) if v not in (network.source, network.sink)]
    best = np.inf
    for bits in itertools.product((0, 1), repeat=len(others)):
        side = {network.source: 1, network.sink: 0}
        side.update(dict(zip(others, bits)))
        cut = sum(
            c
            for u, v, c in zip(network.tails, network.heads, network.capacities)
            if side[int(u)] == 1 and side[int(v)] == 0
        )
        best = min(best, cut)
    return float(best)


def undirected_min_cut(net: SymmetrizedNetwork) -> float:
    """Min s-t cut of the undirected multigraph by subset enumeration."""
    n = net.vertex_count
    others = [v for v in range(n) if v not in (net.source, net.sink)]
    best = np.inf
    for bits in itertools.product((0, 1), repeat=len(others)):
        side = {net.source: 1, net.sink: 0}
        side.update(dict(zip(others, bits)))
        cut = sum(
            c
            for a, b, c in zip(net.tails, net.heads, net.capacities)
            if side[int(a)] != side[int(b)]
        )
        best = min(best, cut)
    return float(best)


def symmetrized_cut_value(network: DirectedNetwork, epsilon: float) -> float:
    """Undirected min cut of ``symmetrize(network, epsilon)`` by enumeration.

    For each vertex set S holding the source but not the sink, an arc
    leaving S puts (3+2eps)c across the cut, an arc entering S puts c, and
    an arc inside either side puts (1+eps)c.  The cut value is therefore
    ``(2+eps)*leaving(S) - eps*entering(S) + (1+eps)*total``; all subsets
    are enumerated at once as rows of a 0/1 side matrix (n <= ~16).
    """
    n = network.vertex_count
    others = [v for v in range(n) if v not in (network.source, network.sink)]
    bits = (np.arange(2 ** len(others))[:, None] >> np.arange(len(others))) & 1
    side = np.zeros((len(bits), n), dtype=bool)
    side[:, others] = bits.astype(bool)
    side[:, network.source] = True
    tail_in = side[:, network.tails]
    head_in = side[:, network.heads]
    leaving = (tail_in & ~head_in) @ network.capacities
    entering = (~tail_in & head_in) @ network.capacities
    best = float(np.min((2 + epsilon) * leaving - epsilon * entering))
    return best + (1 + epsilon) * network.total_capacity()


def threshold_cut_reference(network: DirectedNetwork, phi) -> float:
    """Least capacity leaving a set ``{v : phi(v) > theta}`` that holds the
    source and not the sink, by trying every level of ``phi`` as theta and
    summing each set's leaving arcs; inf when no level separates them."""
    phi = [float(x) for x in phi]
    best = np.inf
    for theta in set(phi):
        side = [x > theta for x in phi]
        if not side[network.source] or side[network.sink]:
            continue
        cut = sum(
            float(c)
            for u, v, c in zip(network.tails, network.heads, network.capacities)
            if side[int(u)] and not side[int(v)]
        )
        best = min(best, cut)
    return float(best)


def brute_force_max_flow(network: DirectedNetwork) -> float:
    """Max flow by exhaustive enumeration of integral flows.

    Only practical for small integral instances (m <= ~12, caps <= ~3).
    Arcs are assigned values 0..cap depth-first; partial assignments are
    pruned when some vertex's imbalance can no longer be repaired by the
    remaining arcs.
    """
    m = network.edge_count
    caps = [int(c) for c in network.capacities]
    if any(float(c) != network.capacities[i] for i, c in enumerate(caps)):
        raise ValueError("brute force needs integral capacities")
    n = network.vertex_count
    tails = [int(t) for t in network.tails]
    heads = [int(h) for h in network.heads]
    s, t = network.source, network.sink

    # Remaining out/in capacity per vertex over arcs idx..m-1.
    rem_out = [[0] * n for _ in range(m + 1)]
    rem_in = [[0] * n for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        for v in range(n):
            rem_out[i][v] = rem_out[i + 1][v]
            rem_in[i][v] = rem_in[i + 1][v]
        rem_out[i][tails[i]] += caps[i]
        rem_in[i][heads[i]] += caps[i]

    balance = [0] * n  # outflow - inflow so far
    best = 0

    def feasible(idx: int) -> bool:
        for v in range(n):
            if v in (s, t):
                continue
            b = balance[v]
            # future arcs can raise outflow by rem_out, inflow by rem_in
            if b > rem_in[idx][v] or -b > rem_out[idx][v]:
                return False
        return True

    def rec(idx: int):
        nonlocal best
        if idx == m:
            if all(balance[v] == 0 for v in range(n) if v not in (s, t)):
                best = max(best, balance[s])
            return
        # upper bound on achievable source outflow
        if balance[s] + rem_out[idx][s] <= best:
            return
        u, v, c = tails[idx], heads[idx], caps[idx]
        for x in range(c, -1, -1):
            balance[u] += x
            balance[v] -= x
            if feasible(idx + 1):
                rec(idx + 1)
            balance[u] -= x
            balance[v] += x

    rec(0)
    return float(best)


def directed_arcs_reference(vertex_count: int, arcs) -> tuple[list, list, list]:
    """`DirectedNetwork`'s arc checks as first written, one arc at a time:
    the kept tails, heads and capacities, or the `ValueError` naming the
    first bad arc."""
    tails, heads, caps = [], [], []
    for i, (u, v, c) in enumerate(arcs):
        u, v, c = int(u), int(v), float(c)
        if not (0 <= u < vertex_count) or not (0 <= v < vertex_count):
            raise ValueError(f"arc {i}: vertex out of range")
        if not np.isfinite(c) or c < 0:
            raise ValueError(f"arc {i}: capacity must be finite and >= 0")
        if u == v or c == 0.0:
            continue
        tails.append(u)
        heads.append(v)
        caps.append(c)
    return tails, heads, caps


def bfs_reference(n: int, rows: np.ndarray, nbrs: np.ndarray, start: int):
    """SciPy's `breadth_first_order` on the graph whose row ``v`` lists the
    entries ``rows[j] == v`` in index order: (order, predecessors), -9999
    where a vertex has no predecessor."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(rows.tolist(), nbrs.tolist()):
        adj[a].append(b)
    indptr = np.concatenate([[0], np.cumsum([len(a) for a in adj])])
    indices = np.array([b for a in adj for b in a], dtype=np.int64)
    graph = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    return breadth_first_order(graph, start, return_predecessors=True)


def incidence_reference(net: Network) -> sp.csr_matrix:
    """Signed vertex-edge incidence as a SciPy CSR matrix, built as the
    library first built it: +1 at the tail, -1 at the head, and a
    self-loop's two entries summed to an explicit 0."""
    e = net.edge_count
    if e == 0:
        return sp.csr_matrix((net.vertex_count, 0))
    rows = np.concatenate([net.tails, net.heads])
    cols = np.concatenate([np.arange(e), np.arange(e)])
    data = np.concatenate([np.ones(e), -np.ones(e)])
    return sp.coo_matrix((data, (rows, cols)), shape=(net.vertex_count, e)).tocsr()


def laplacian_reference(net: SymmetrizedNetwork, resistances: np.ndarray):
    """Weighted Laplacian B diag(1/r) B^T of the whole network, as a sparse
    matrix: conductance 1/r per edge, parallel edges accumulate, self-loops
    contribute nothing, rows sum to zero."""
    r = np.asarray(resistances, dtype=np.float64)
    b = incidence_reference(net)
    return (b.multiply(1.0 / r) @ b.T).tocsr()


def min_energy_flow_dense(
    net: SymmetrizedNetwork, resistances: np.ndarray, value: float
) -> tuple[float, np.ndarray]:
    """Minimum-energy conserving s-t flow of the given value, by dense
    least squares: phi = pinv(L) b, f = diag(1/r) B^T phi."""
    r = np.asarray(resistances, dtype=np.float64)
    B = incidence_reference(net).toarray()
    L = (B * (1.0 / r)) @ B.T
    b = np.zeros(net.vertex_count)
    b[net.source] = value
    b[net.sink] = -value
    phi = np.linalg.pinv(L) @ b
    f = (1.0 / r) * (B.T @ phi)
    return float(np.sum(r * f * f)), f


def is_acyclic_support(flow: FlowAssignment) -> bool:
    """Topological-sort check that the flow's support digraph has no cycle."""
    net = flow.network
    n = net.vertex_count
    indeg = [0] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    for k, v in enumerate(flow.values):
        if v == 0.0:
            continue
        a, b = int(net.tails[k]), int(net.heads[k])
        if a == b:
            return False
        frm, to = (a, b) if v > 0 else (b, a)
        adj[frm].append(to)
        indeg[to] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for w in adj[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == n


def random_conserving_flow(
    net: Network, value: float, rng: np.random.Generator
) -> FlowAssignment:
    """A conserving s-t flow of the given value with a random cycle-space
    component: the minimum-energy flow for random resistances (a potential
    flow, so acyclic) plus the random circulation z - B^T (B B^T)^+ B z,
    the projection of a random edge vector z onto the kernel of B."""
    r = rng.uniform(0.2, 5.0, net.edge_count)
    _, f = min_energy_flow_dense(net, r, value)
    B = incidence_reference(net).toarray()
    z = rng.uniform(-1.0, 1.0, net.edge_count) * max(1.0, value)
    circulation = z - B.T @ (np.linalg.pinv(B @ B.T) @ (B @ z))
    return FlowAssignment(net, f + circulation)


def cycle_cancel_reference(flow: FlowAssignment) -> FlowAssignment:
    """`recovery.cycle_cancel` as first written: every edge on the lists of
    both endpoints, directions read from the current sign, scan pointers
    reset on every visit, and a retreat to the cycle's entry vertex after
    each cancel.  The library must match it bit for bit."""
    net = flow.network
    vals = np.array(flow.values)
    n = net.vertex_count
    tails = net.tails
    heads = net.heads

    # A self-loop with flow is a one-edge cycle.
    vals[np.asarray(tails == heads)] = 0.0

    adj: list[list[int]] = [[] for _ in range(n)]
    for k in range(len(vals)):
        a, b = int(tails[k]), int(heads[k])
        if a != b and vals[k] != 0.0:
            adj[a].append(k)
            adj[b].append(k)

    color = np.zeros(n, dtype=np.int8)  # 0 white, 1 on current path, 2 finished
    ptr = np.zeros(n, dtype=np.int64)
    pos_on_path = np.full(n, -1, dtype=np.int64)

    def head_of(k: int) -> int:
        return int(heads[k]) if vals[k] > 0.0 else int(tails[k])

    def tail_of(k: int) -> int:
        return int(tails[k]) if vals[k] > 0.0 else int(heads[k])

    for root in range(n):
        if color[root] != 0:
            continue
        color[root] = 1
        ptr[root] = 0
        path_v = [root]
        path_e: list[int] = [-1]
        pos_on_path[root] = 0
        while path_v:
            u = path_v[-1]
            moved = False
            while ptr[u] < len(adj[u]):
                k = adj[u][ptr[u]]
                if vals[k] == 0.0 or tail_of(k) != u:
                    ptr[u] += 1
                    continue
                w = head_of(k)
                if color[w] == 2:
                    ptr[u] += 1
                    continue
                if color[w] == 1:
                    # Cycle: path section from w to u, plus edge k back to w.
                    start = int(pos_on_path[w])
                    cyc = path_e[start + 1 :] + [k]
                    c = min(abs(vals[e]) for e in cyc)
                    for e in cyc:
                        vals[e] -= c if vals[e] > 0 else -c
                    # Retreat to w; support only shrinks, so finished
                    # vertices stay finished and w's scan position stands.
                    for v2 in path_v[start + 1 :]:
                        color[v2] = 0
                        pos_on_path[v2] = -1
                        ptr[v2] = 0
                    del path_v[start + 1 :]
                    del path_e[start + 1 :]
                    moved = True
                    break
                color[w] = 1
                ptr[w] = 0
                pos_on_path[w] = len(path_v)
                path_v.append(w)
                path_e.append(k)
                moved = True
                break
            if not moved:
                color[u] = 2
                pos_on_path[u] = -1
                path_v.pop()
                path_e.pop()
    return FlowAssignment(net, vals)


def scaled_recovery_reference(
    flow: FlowAssignment, network: DirectedNetwork
) -> FlowAssignment:
    """`recovery.extract_directed` as first written, without its input
    checks: the original-edge flows clipped at zero and, when some arc is
    over capacity, all divided by the worst capacity ratio."""
    arc_vals = np.clip(flow.values[0::3], 0.0, None)
    ratio = float((arc_vals / network.capacities).max()) if len(arc_vals) else 0.0
    if ratio > 1.0:
        arc_vals /= ratio
    return FlowAssignment(network, np.clip(arc_vals, 0.0, network.capacities))


def path_flows_reference(
    arc_vals: np.ndarray, network: DirectedNetwork
) -> tuple[np.ndarray, np.ndarray]:
    """`recovery._path_flows` as it was before each path and cycle took one
    pass, kept verbatim.  It decomposes a nonnegative arc flow into s-t
    paths: the path flow, and the flow that pushes each path only up to
    the capacity the earlier paths left free.

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
    # pos[v] is the place on the path of the arc out of v; -1 off the path.
    pos = [-1] * network.vertex_count
    pos[s] = 0
    p = [0.0] * len(x)
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
            pos[u] = -1
            u = tails[k]
            continue
        k = adj[i]
        w = heads[k]
        path.append(k)
        if w == t:
            start = 0
            c = min([x[e] for e in path])
            push = min(c, min([free[e] for e in path]))
            for e in path:
                x[e] -= c
                p[e] += c
                y[e] += push
                free[e] -= push
        elif pos[w] < 0:
            pos[w] = len(path)
            u = w
            continue
        else:
            start = pos[w]
            c = min([x[e] for e in path[start:]])
            for e in path[start:]:
                x[e] -= c
        cut = next(j for j in range(start, len(path)) if x[path[j]] == 0.0)
        for e in path[cut:-1]:
            pos[heads[e]] = -1
        u = tails[path[cut]]
        del path[cut:]
    return np.array(p), np.array(y)


def spanning_tree_reference(
    net: SymmetrizedNetwork,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The BFS spanning tree of the source's component, as first written:
    a Python loop over adjacency lists.  The electrical solve's repair tree
    must be this tree.

    Returns (order, parent_vertex, parent_edge): ``order`` lists tree
    vertices root-first, ``parent_edge[v]`` is the edge id connecting v
    to ``parent_vertex[v]`` (-1 at the root).  Deterministic: edges are
    scanned in index order.
    """
    n = net.vertex_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k in range(net.edge_count):
        a, b = int(net.tails[k]), int(net.heads[k])
        if a == b:
            continue
        adj[a].append((b, k))
        adj[b].append((a, k))
    parent_vertex = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    order = [net.source]
    seen[net.source] = True
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w, k in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent_vertex[w] = v
                parent_edge[w] = k
                order.append(w)
    return np.asarray(order, dtype=np.int64), parent_vertex, parent_edge


def repair_values_reference(
    net: SymmetrizedNetwork, vals: np.ndarray, value: float
) -> np.ndarray:
    """`electrical._repair_values` as first written, pushing along the tree
    one NumPy scalar at a time along `spanning_tree_reference`.  The
    library must match it bit for bit."""
    resid = incidence_reference(net) @ vals
    target = np.zeros(net.vertex_count)
    target[net.source] = value
    target[net.sink] = -value
    mismatch = resid - target

    order, parent_vertex, parent_edge = spanning_tree_reference(net)
    in_tree = np.zeros(net.vertex_count, dtype=bool)
    in_tree[order] = True
    outside = ~in_tree
    if outside.any():
        worst = float(np.abs(mismatch[outside]).max())
        scale = max(1.0, abs(value))
        if worst > 1e-9 * scale:
            raise RepairError(
                f"residual {worst:.3e} outside the s-t component cannot be repaired"
            )

    vals = np.array(vals)
    corrections = np.zeros(net.edge_count)
    # Push each vertex's surplus toward the root (the source); leaves first.
    for v in order[::-1]:
        v = int(v)
        k = int(parent_edge[v])
        if k < 0:
            continue
        push = -mismatch[v]  # flow to send v -> parent
        if push == 0.0:
            continue
        if int(net.tails[k]) == v:
            vals[k] += push
            corrections[k] += push
        else:
            vals[k] -= push
            corrections[k] -= push
        mismatch[v] = 0.0
        mismatch[parent_vertex[v]] -= push

    if net.edge_count:
        limit = 0.1 * net.capacities
        if (np.abs(corrections) > limit).any():
            k = int(np.argmax(np.abs(corrections) - limit))
            raise RepairError(
                f"conservation repair of {corrections[k]:.3e} on edge {k} exceeds "
                f"10% of its capacity {net.capacities[k]:.3e}; solve tolerance too loose"
            )
    return vals


def kept_edge_ends(net: SymmetrizedNetwork):
    """The `electrical._StSolveContext` of ``net``, and the positions in
    its s-t component of the tails and heads of the edges it keeps."""
    ctx = _st_context(net)
    pos = np.full(net.vertex_count, -1, dtype=np.int64)
    pos[ctx.idx] = np.arange(ctx.n_c)
    return ctx, pos[net.tails[ctx.keep]], pos[net.heads[ctx.keep]]


def dense_laplacian_reference(net: SymmetrizedNetwork, r: np.ndarray) -> np.ndarray:
    """The dense s-t Laplacian of ``net``'s `electrical._StSolveContext`,
    assembled by four `np.add.at` calls as first written.  The library
    must match it bit for bit."""
    ctx, kt, kh = kept_edge_ends(net)
    g = 1.0 / r[ctx.keep]
    L = np.zeros((ctx.n_c, ctx.n_c))
    np.add.at(L, (kt, kt), g)
    np.add.at(L, (kh, kh), g)
    np.add.at(L, (kt, kh), -g)
    np.add.at(L, (kh, kt), -g)
    return L


class PairLaplacianReference:
    """The Laplacian of edges ``a[k] < b[k]`` with conductances ``g[k]``,
    each sum taken by `np.add.at` in edge order from 0.0: ``A @ x`` sums
    ``g * (x[a] - x[b])`` into the ``a`` ends and into the ``b`` ends
    apart and subtracts, and the diagonal adds the two sums of ``g``."""

    def __init__(self, a: np.ndarray, b: np.ndarray, g: np.ndarray, n: int):
        self.a, self.b, self.g, self.n = a, b, g, n

    def _at_ends(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at_a, at_b = np.zeros(self.n), np.zeros(self.n)
        np.add.at(at_a, self.a, w)
        np.add.at(at_b, self.b, w)
        return at_a, at_b

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        at_a, at_b = self._at_ends(self.g * (x[self.a] - x[self.b]))
        return at_a - at_b

    def diagonal(self) -> np.ndarray:
        at_a, at_b = self._at_ends(self.g)
        return at_a + at_b


def sparse_laplacian_reference(net: SymmetrizedNetwork, r: np.ndarray) -> PairLaplacianReference:
    """The sparse s-t Laplacian of ``net``'s `electrical._StSolveContext`:
    its kept edges merged by vertex pair with `np.unique`, and each pair's
    conductances summed by `np.add.at` in edge order.  The library's
    operator must give its diagonal and products bit for bit."""
    ctx, kt, kh = kept_edge_ends(net)
    n = ctx.n_c
    keys = np.minimum(kt, kh) * n + np.maximum(kt, kh)
    pairs, pair_of_edge = np.unique(keys, return_inverse=True)
    g = np.zeros(len(pairs))
    np.add.at(g, pair_of_edge.ravel(), 1.0 / r[ctx.keep])
    return PairLaplacianReference(pairs // n, pairs % n, g, n)


def sparse_pairs_reference(net: SymmetrizedNetwork):
    """Each kept edge's pair and the pairs' ends ``a < b``, as the sparse
    `electrical._StSolveContext` of ``net`` first built them: one stable
    `int64` argsort of the keys ``min * n_c + max``, the pairs the distinct
    keys in ascending order, and each edge's pair the rank of its key."""
    ctx, kt, kh = kept_edge_ends(net)
    n = ctx.n_c
    keys = np.minimum(kt, kh) * n + np.maximum(kt, kh)
    by_key = np.argsort(keys, kind="stable")
    keys = keys[by_key]
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    pair = np.empty(len(keys), dtype=np.int64)
    pair[by_key] = np.cumsum(distinct) - 1
    pairs = keys[distinct]
    return pair, pairs // n, pairs % n


def pcg_reference(A, b: np.ndarray, x: np.ndarray, atol: float):
    """`electrical._pcg` as first written, with a new array per vector
    operation.  The library must match it bit for bit."""
    max_iter = 100 * len(b) + 2000
    inv_diag = 1.0 / A.diagonal()
    r = b - A @ x
    r -= r.mean()
    resnorm = float(np.linalg.norm(r))
    if resnorm <= atol:
        return x, 0, resnorm
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        r -= r.mean()
        resnorm = float(np.linalg.norm(r))
        if resnorm <= atol:
            x -= x.mean()
            return x, k, resnorm
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"conjugate gradient did not reach tolerance {atol:.3e} in {max_iter} "
        f"iterations (residual {resnorm:.3e})"
    )
