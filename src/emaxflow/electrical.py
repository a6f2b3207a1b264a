"""Weighted graph Laplacians and approximate s-t electrical flows.

The linear solve is a Jacobi-preconditioned conjugate gradient restricted to
the component containing the source and sink, with an explicit relative
residual contract.  Because the iterate is only approximately conserving,
`_repair_values` afterwards routes the leftover vertex residuals along a
fixed spanning tree so the returned flow conserves exactly and has exactly
the requested value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .network import FlowAssignment, SymmetrizedNetwork


class DisconnectedNetworkError(ValueError):
    """Source and sink lie in different components of the support graph."""


class ConvergenceError(RuntimeError):
    """The iterative solver hit its iteration cap before reaching tolerance."""


class RepairError(RuntimeError):
    """Conservation residuals were too large to repair safely."""


def _pcg(
    A: sp.csr_matrix, b: np.ndarray, x: np.ndarray, atol: float
) -> tuple[np.ndarray, int, float]:
    """Jacobi-preconditioned CG, iterates projected against the constant vector."""
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


def _repair_values(net: SymmetrizedNetwork, vals: np.ndarray, value: float) -> np.ndarray:
    """Make ``vals`` conserve exactly with net source outflow exactly ``value``.

    The correction is routed along the network's fixed BFS spanning tree of
    the s-t component.  Raises `RepairError` if any single-edge correction
    exceeds 10% of that edge's capacity, which signals the linear solve was
    far too loose.
    """
    resid = net.incidence @ vals
    target = np.zeros(net.vertex_count)
    target[net.source] = value
    target[net.sink] = -value
    mismatch = resid - target

    order, parent_vertex, parent_edge = net.spanning_tree
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

    # Push each vertex's surplus toward the root (the source), leaves first,
    # over Python floats.  Every tree edge is the parent edge of exactly one
    # vertex, so it takes at most one push, and one fancy-indexed add applies
    # them all: the same single IEEE addition per edge as pushing in place.
    # Zero pushes are skipped so that a -0.0 edge value stays -0.0.
    mis = mismatch.tolist()
    parent = parent_vertex.tolist()
    pushed: list[int] = []
    pushes: list[float] = []
    for v in order[:0:-1].tolist():  # order[0] is the root
        push = -mis[v]  # flow to send v -> parent
        if push == 0.0:
            continue
        mis[parent[v]] -= push
        pushed.append(v)
        pushes.append(push)
    verts = np.array(pushed, dtype=np.int64)
    edges = parent_edge[verts]
    step = np.array(pushes)
    step[net.tails[edges] != verts] *= -1.0
    vals = np.array(vals)
    vals[edges] += step
    corrections = np.zeros(net.edge_count)
    corrections[edges] = step

    if net.edge_count:
        limit = 0.1 * net.capacities
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


# Component sizes up to this use a dense Laplacian; beyond it a prebuilt
# CSR pattern.
_DENSE_LIMIT = 600


class _StSolveContext:
    """Cached s-t component restriction and Laplacian assembly pattern.

    The support graph of a `SymmetrizedNetwork` never changes (resistances
    are always strictly positive), so the component and the scatter pattern
    can be built once and reused across every oracle call.  The component
    is the vertex set of the BFS tree that `_repair_values` routes along.
    Both paths assemble with one `np.bincount` into precomputed slots: a
    flat dense index, or the CSR slot each term sums into.
    """

    def __init__(self, net: SymmetrizedNetwork):
        in_tree = np.zeros(net.vertex_count, dtype=bool)
        in_tree[net.spanning_tree[0]] = True
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
        rows = np.concatenate([self.kt, self.kh, self.kt, self.kh])
        cols = np.concatenate([self.kt, self.kh, self.kh, self.kt])
        flat = rows * self.n_c + cols
        if self.dense:
            self._flat = flat
        else:
            pattern = sp.coo_matrix(
                (np.ones(len(rows)), (rows, cols)), shape=(self.n_c, self.n_c)
            ).tocsr()
            self._indptr, self._indices = pattern.indptr, pattern.indices
            # Rows ascend and each row's columns are sorted, so the flat
            # indices of the stored entries ascend too.
            row_of = np.repeat(np.arange(self.n_c), np.diff(self._indptr))
            self._slot = np.searchsorted(row_of * self.n_c + self._indices, flat)

    def laplacian(self, r: np.ndarray):
        g = 1.0 / r[self.keep]
        data = np.concatenate([g, g, -g, -g])
        n = self.n_c
        if self.dense:
            # bincount adds the weights in input order, so every entry sums
            # the same terms in the same order as np.add.at over the four
            # blocks in turn would.
            return np.bincount(self._flat, data, n * n).reshape(n, n)
        summed = np.bincount(self._slot, data, len(self._indices))
        return sp.csr_matrix((summed, self._indices, self._indptr), shape=(n, n))


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
    """Solve, induce the flow, and repair conservation, in one call."""
    r = np.asarray(resistances, dtype=np.float64)
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
    x = np.zeros(ctx.n_c) if x0 is None else np.asarray(x0, dtype=np.float64)[ctx.idx].copy()
    x -= x.mean()
    xc, iters, resnorm = _pcg(A, b, x, tol * float(np.linalg.norm(b)))
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
