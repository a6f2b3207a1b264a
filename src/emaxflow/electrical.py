"""Weighted graph Laplacians and approximate s-t electrical flows.

The linear solve is a Jacobi-preconditioned conjugate gradient restricted to
the component containing the source and sink, with an explicit relative
residual contract.  Because the iterate is only approximately conserving,
`_repair_values` afterwards routes the leftover vertex residuals along a
fixed spanning tree so the returned flow conserves exactly and has exactly
the requested value.  That tree belongs to this solve alone: it is built
here, by `network.bfs_levels` from the source, and the network holds none.

Everything that depends only on the network is built once per network and
reused by every call: the component, the Laplacian's assembly slots, one
`_SparseLaplacian` whose entries each sparse call replaces, and the
spanning tree's levels, along which the repair pushes one vectorized step
per depth.
The per-call work is the same floating-point operations as the plain loops
kept in the tests, so the results are the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import FlowAssignment, SymmetrizedNetwork, bfs_levels, incidence_product


class DisconnectedNetworkError(ValueError):
    """Source and sink lie in different components of the support graph."""


class ConvergenceError(RuntimeError):
    """The iterative solver hit its iteration cap before reaching tolerance."""


class RepairError(RuntimeError):
    """Conservation residuals were too large to repair safely."""


def _pcg(
    A: _SparseLaplacian | np.ndarray, b: np.ndarray, x: np.ndarray, atol: float
) -> tuple[np.ndarray, int, float]:
    """Jacobi-preconditioned CG, iterates projected against the constant vector.

    Each step does its vector updates in place through reused buffers; the
    floating-point operations, and so the bits, are those of the plain
    expressions ``x += alpha * p``, ``r -= r.mean()``, ``np.linalg.norm(r)``
    and ``p = z + beta * p``.
    """
    n = len(b)
    max_iter = 100 * n + 2000
    inv_diag = 1.0 / A.diagonal()
    r = b - A @ x
    r -= np.add.reduce(r) / n
    resnorm = math.sqrt(r @ r)
    if resnorm <= atol:
        return x, 0, resnorm
    z = inv_diag * r
    p = z.copy()
    step = np.empty(n)
    rz = float(r @ z)
    for k in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        np.multiply(p, alpha, out=step)
        x += step
        np.multiply(Ap, alpha, out=step)
        r -= step
        r -= np.add.reduce(r) / n
        resnorm = math.sqrt(r @ r)
        if resnorm <= atol:
            x -= np.add.reduce(x) / n
            return x, k, resnorm
        np.multiply(inv_diag, r, out=z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise ConvergenceError(
        f"conjugate gradient did not reach tolerance {atol:.3e} in {max_iter} "
        f"iterations (residual {resnorm:.3e})"
    )


def _repair_values(net: SymmetrizedNetwork, vals: np.ndarray, value: float) -> np.ndarray:
    """Make ``vals`` conserve exactly with net source outflow exactly ``value``.

    The correction is routed along `_repair_tree`, the fixed BFS spanning
    tree of the s-t component.  Raises `RepairError` if any single-edge
    correction exceeds 10% of that edge's capacity, which signals the linear
    solve was far too loose.
    """
    ctx = _st_context(net)
    mismatch = incidence_product(net, vals)
    mismatch[net.source] -= value
    mismatch[net.sink] += value

    if len(ctx.outside):
        worst = float(np.abs(mismatch[ctx.outside]).max())
        scale = max(1.0, abs(value))
        if worst > 1e-9 * scale:
            raise RepairError(
                f"residual {worst:.3e} outside the s-t component cannot be repaired"
            )

    # Push each vertex's surplus toward the root (the source), leaves first:
    # one step per tree depth, deepest first.  A vertex's children lie one
    # level deeper, so its surplus is complete when its level comes, and
    # `np.subtract.at` adds each parent's pushes in reversed BFS order, as
    # a vertex-by-vertex loop would.  A zero push changes no nonzero
    # surplus, and a zero surplus pushes nothing.  Every tree edge takes at
    # most one push; zero pushes are skipped there so that a -0.0 edge
    # value stays -0.0.
    vals = np.array(vals)
    corrections = np.zeros(net.edge_count)
    for verts, parents, edges, signs in ctx.tree_levels:
        push = -mismatch[verts]  # flow to send each vertex -> its parent
        if parents is not None:
            np.subtract.at(mismatch, parents, push)
        if not push.all():
            moved = push != 0.0
            push, edges, signs = push[moved], edges[moved], signs[moved]
        step = push * signs
        vals[edges] += step
        corrections[edges] = step

    if net.edge_count:
        limit = ctx.repair_limit
        if (np.abs(corrections) > limit).any():
            k = int(np.argmax(np.abs(corrections) - limit))
            raise RepairError(
                f"conservation repair of {corrections[k]:.3e} on edge {k} exceeds "
                f"10% of its capacity {net.capacities[k]:.3e}; solve tolerance too loose"
            )
    return vals


@dataclass(frozen=True)
class ElectricalSolveResult:
    """An approximate electrical s-t flow plus solve diagnostics."""

    flow: FlowAssignment
    potentials: np.ndarray
    energy: float
    iterations: int
    residual_norm: float


# Component sizes up to this use a dense Laplacian; beyond it a fixed
# sparse pattern.
_DENSE_LIMIT = 600


class _SparseLaplacian:
    """A square matrix stored as its pattern's entries in row-major order:
    ``rows``, ``cols`` and ``data``.  `_StSolveContext.laplacian` replaces
    ``data`` on every call and keeps the pattern.

    ``A @ x`` sums each row's terms ``data * x[col]`` in column order,
    starting from 0.0, as a CSR matrix-vector product does, and so gives
    its bits.  Every diagonal entry is in the pattern.
    """

    def __init__(self, keys: np.ndarray, n: int):
        self.n = n
        self.rows = keys // n
        self.cols = keys - self.rows * n
        self.diag = np.flatnonzero(self.rows == self.cols)
        self.data = np.zeros(len(keys))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.data * x[self.cols], self.n)

    def diagonal(self) -> np.ndarray:
        return self.data[self.diag]


class _StSolveContext:
    """Cached s-t component restriction, Laplacian and tree-repair plan.

    The support graph of a `SymmetrizedNetwork` never changes (resistances
    are always strictly positive), so the component, the scatter pattern
    and the levels of the spanning tree can be built once and reused
    across every oracle call.  The component is the vertex set of the BFS
    tree that `_repair_values` routes along.  Both Laplacian paths assemble
    with one `np.bincount` into precomputed slots: a flat dense index, or
    the pattern entry each term sums into.  The sparse path keeps one
    `_SparseLaplacian` and gives it each call's entries.
    """

    def __init__(self, net: SymmetrizedNetwork):
        order, self.tree_levels = _repair_tree(net)
        in_tree = np.zeros(net.vertex_count, dtype=bool)
        in_tree[order] = True
        self.outside = np.flatnonzero(~in_tree)
        self.repair_limit = 0.1 * net.capacities
        idx = np.flatnonzero(in_tree)
        pos = np.full(net.vertex_count, -1, dtype=np.int64)
        pos[idx] = np.arange(len(idx))
        self.connected = bool(pos[net.sink] >= 0)
        if not self.connected:
            return
        self.idx = idx
        self.n_c = len(idx)
        self.s_pos = int(pos[net.source])
        self.t_pos = int(pos[net.sink])
        keep = np.flatnonzero((net.tails != net.heads) & (pos[net.tails] >= 0))
        self.keep = keep
        self.kt = pos[net.tails[keep]]
        self.kh = pos[net.heads[keep]]
        self.dense = self.n_c <= _DENSE_LIMIT
        # Term k of each block sums into (row, col) at flat index
        # row * n_c + col: the blocks are (kt, kt), (kh, kh), (kt, kh) and
        # (kh, kt).
        tn, hn = self.kt * self.n_c, self.kh * self.n_c
        flat = np.concatenate([tn + self.kt, hn + self.kh, tn + self.kh, hn + self.kt])
        del tn, hn
        if self.dense:
            self._flat = flat
        else:
            # One stable sort of the flat indices: the pattern is the
            # distinct ones in ascending, so row-major, order, and each
            # term's slot is the rank of its index among them.
            by_key = np.argsort(flat, kind="stable")
            keys = flat[by_key]
            del flat
            distinct = np.ones(len(keys), dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
            rank = np.cumsum(distinct)
            rank -= 1
            self._slot = np.empty(len(keys), dtype=np.int64)
            self._slot[by_key] = rank
            del by_key, rank
            self._sparse = _SparseLaplacian(keys[distinct], self.n_c)

    def laplacian(self, r: np.ndarray):
        g = 1.0 / r[self.keep]
        data = np.concatenate([g, g, -g, -g])
        n = self.n_c
        if self.dense:
            # bincount adds the weights in input order, so every entry sums
            # the same terms in the same order as np.add.at over the four
            # blocks in turn would.
            return np.bincount(self._flat, data, n * n).reshape(n, n)
        # The same matrix object each call, given fresh entries: the matrix
        # a call returns is valid only until the next call.
        self._sparse.data = np.bincount(self._slot, data, len(self._sparse.rows))
        return self._sparse


def _repair_tree(net: SymmetrizedNetwork) -> tuple[np.ndarray, list[tuple]]:
    """The BFS spanning tree of the source's component, each vertex's edges
    scanned in index order: its vertices in BFS order, and its non-root
    vertices by depth, deepest first, each level in reversed BFS order, as
    (vertices, parents, parent edges, signs).  A vertex's parent edge is
    the first edge joining it to its parent, and its sign is +1.0 where it
    is that edge's tail, so that a push toward the parent adds to the edge.
    Depth 1 carries no parents: its pushes go to the root, whose surplus
    the repair never reads."""
    # Entry 2k runs from edge k's tail to its head, entry 2k + 1 back, so
    # each vertex's entries list its edges in index order.
    ends = np.stack([net.tails, net.heads], axis=1).ravel()
    other = np.stack([net.heads, net.tails], axis=1).ravel()
    levels, via = bfs_levels(net.vertex_count, ends, other, net.source)
    tree_levels = []
    for depth in range(len(levels) - 1, 0, -1):
        verts = levels[depth][::-1]
        entry = via[verts]
        # An odd entry reaches the edge's tail.
        signs = np.where(entry & 1, 1.0, -1.0)
        parents = ends[entry] if depth > 1 else None
        tree_levels.append((verts, parents, entry >> 1, signs))
    return np.concatenate(levels), tree_levels


def _st_context(net: SymmetrizedNetwork) -> _StSolveContext:
    ctx = getattr(net, "_st_solve_context", None)
    if ctx is None:
        ctx = _StSolveContext(net)
        net._st_solve_context = ctx
    return ctx


def electrical_st_flow(
    net: SymmetrizedNetwork,
    resistances: np.ndarray,
    value: float,
    tol: float,
    x0: np.ndarray | None = None,
) -> ElectricalSolveResult:
    """Solve, induce the flow, and repair conservation, in one call.

    ``resistances`` holds one finite, strictly positive resistance per edge,
    and ``x0``, a start for the potentials, one entry per vertex; anything
    else raises `ValueError`.
    """
    r = np.asarray(resistances, dtype=np.float64)
    if r.shape != (net.edge_count,):
        raise ValueError(f"need {net.edge_count} resistances, got shape {r.shape}")
    if len(r) and not (r.min() > 0.0 and r.max() < math.inf):
        raise ValueError("resistances must be finite and strictly positive")
    if x0 is not None and np.shape(x0) != (net.vertex_count,):
        raise ValueError(f"need {net.vertex_count} start potentials, got shape {np.shape(x0)}")
    if value == 0.0:
        zero = FlowAssignment.zeros(net)
        return ElectricalSolveResult(zero, np.zeros(net.vertex_count), 0.0, 0, 0.0)
    ctx = _st_context(net)
    if not ctx.connected:
        raise DisconnectedNetworkError(
            "source and sink are not connected in the support graph"
        )
    A = ctx.laplacian(r)
    b = np.zeros(ctx.n_c)
    b[ctx.s_pos] = value
    b[ctx.t_pos] = -value
    x = np.zeros(ctx.n_c) if x0 is None else np.asarray(x0, dtype=np.float64)[ctx.idx]
    x -= np.add.reduce(x) / ctx.n_c
    xc, iters, resnorm = _pcg(A, b, x, tol * math.sqrt(b @ b))
    phi = np.zeros(net.vertex_count)
    phi[ctx.idx] = xc
    phi -= phi[net.sink]
    vals = (phi[net.tails] - phi[net.heads]) / r
    vals = _repair_values(net, vals, value)
    flow = FlowAssignment(net, vals)
    return ElectricalSolveResult(
        flow=flow,
        potentials=phi,
        energy=float(np.sum(r * vals * vals)),
        iterations=iters,
        residual_norm=resnorm,
    )


def default_solve_tolerance(epsilon: float, edge_count: int) -> float:
    """Relative residual tolerance for the electrical solve inside the oracle."""
    return min(1e-8, epsilon / (100.0 * max(1, edge_count)))
