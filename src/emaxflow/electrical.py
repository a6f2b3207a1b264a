"""Weighted graph Laplacians and approximate s-t electrical flows.

The linear solve is a Jacobi-preconditioned conjugate gradient restricted to
the component containing the source and sink, with an explicit relative
residual contract.  Because the iterate is only approximately conserving,
`repair_conservation` afterwards routes the leftover vertex residuals along
a fixed spanning tree so the returned flow conserves exactly and has exactly
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


def assemble_laplacian(net: SymmetrizedNetwork, resistances: np.ndarray) -> sp.csr_matrix:
    """Weighted Laplacian with per-edge conductance 1/r.

    Parallel edges accumulate; self-loops contribute nothing.  The result is
    symmetric with zero row sums.
    """
    r = np.asarray(resistances, dtype=np.float64)
    if r.shape != (net.edge_count,):
        raise ValueError(f"expected {net.edge_count} resistances, got {r.shape}")
    if not (np.isfinite(r).all() and (r > 0).all()):
        raise ValueError("resistances must be finite and strictly positive")
    b = net.incidence
    return (b.multiply(1.0 / r) @ b.T).tocsr()


def solve_potentials(
    laplacian: sp.spmatrix,
    source: int,
    sink: int,
    value: float,
    tol: float,
    x0: np.ndarray | None = None,
    max_iter: int | None = None,
) -> np.ndarray:
    """Vertex potentials phi with ||L phi - b||_2 <= tol * ||b||_2.

    Here b injects ``value`` units at the source and extracts them at the
    sink.  The solve runs on the component containing both; the gauge is
    phi[sink] = 0 and phi is zero off that component.
    """
    phi, _, _ = _solve_potentials_detailed(laplacian, source, sink, value, tol, x0, max_iter)
    return phi


def _solve_potentials_detailed(
    laplacian: sp.spmatrix,
    source: int,
    sink: int,
    value: float,
    tol: float,
    x0: np.ndarray | None = None,
    max_iter: int | None = None,
) -> tuple[np.ndarray, int, float]:
    if tol <= 0:
        raise ValueError("tol must be positive")
    if value < 0:
        raise ValueError("value must be nonnegative")
    L = laplacian.tocsr()
    n = L.shape[0]
    phi = np.zeros(n)
    if value == 0.0:
        return phi, 0, 0.0

    offdiag = L.copy()
    offdiag.setdiag(0.0)
    offdiag.eliminate_zeros()
    _, labels = sp.csgraph.connected_components(offdiag, directed=False)
    if labels[source] != labels[sink]:
        raise DisconnectedNetworkError(
            "source and sink are not connected in the support graph"
        )
    idx = np.flatnonzero(labels == labels[source])
    Lc = L[idx][:, idx].tocsr()
    b = np.zeros(len(idx))
    pos = {int(v): i for i, v in enumerate(idx)}
    b[pos[source]] = value
    b[pos[sink]] = -value

    x = np.zeros(len(idx)) if x0 is None else np.asarray(x0, dtype=np.float64)[idx].copy()
    x -= x.mean()
    xc, iters, resnorm = _pcg(Lc, b, x, tol * np.linalg.norm(b), max_iter)
    phi[idx] = xc
    phi -= phi[sink]
    return phi, iters, resnorm


def _pcg(
    A: sp.csr_matrix,
    b: np.ndarray,
    x: np.ndarray,
    atol: float,
    max_iter: int | None,
) -> tuple[np.ndarray, int, float]:
    """Jacobi-preconditioned CG, iterates projected against the constant vector."""
    n = len(b)
    if max_iter is None:
        max_iter = 100 * n + 2000
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


def induced_flow(
    phi: np.ndarray, net: SymmetrizedNetwork, resistances: np.ndarray
) -> FlowAssignment:
    """Ohm's-law flow: f(edge) = (phi[tail] - phi[head]) / r."""
    r = np.asarray(resistances, dtype=np.float64)
    vals = (phi[net.tails] - phi[net.heads]) / r
    return FlowAssignment(net, vals)


def _repair_values(net: SymmetrizedNetwork, vals: np.ndarray, value: float) -> np.ndarray:
    """Array-level conservation repair; see `repair_conservation`."""
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


def repair_conservation(flow: FlowAssignment, value: float) -> FlowAssignment:
    """Make the flow conserve exactly with net source outflow exactly ``value``.

    The correction is routed along the network's fixed BFS spanning tree of
    the s-t component.  Raises `RepairError` if any single-edge correction
    exceeds 10% of that edge's capacity, which signals the linear solve was
    far too loose.
    """
    net = flow.network
    if not isinstance(net, SymmetrizedNetwork):
        raise TypeError("repair_conservation expects a flow on a SymmetrizedNetwork")
    return FlowAssignment(net, _repair_values(net, flow.values, value))


def energy(flow: FlowAssignment, resistances: np.ndarray) -> float:
    """Electrical energy sum(r * f^2)."""
    r = np.asarray(resistances, dtype=np.float64)
    return float(np.sum(r * flow.values * flow.values))


@dataclass(frozen=True)
class ElectricalSolveResult:
    """An approximate electrical s-t flow plus solve diagnostics."""

    flow: FlowAssignment
    potentials: np.ndarray
    energy: float
    iterations: int
    residual_norm: float


# Component sizes up to this use a dense Laplacian; beyond it a prebuilt
# sparse assembly pattern.
_DENSE_LIMIT = 600


class _StSolveContext:
    """Cached s-t component restriction and Laplacian assembly pattern.

    The support graph of a `SymmetrizedNetwork` never changes (resistances
    are always strictly positive), so the component decomposition and the
    scatter pattern can be built once and reused across every oracle call.
    """

    def __init__(self, net: SymmetrizedNetwork):
        labels = net.vertex_components
        self.connected = bool(labels[net.source] == labels[net.sink]) and net.edge_count > 0
        if not self.connected:
            return
        comp = labels[net.source]
        idx = np.flatnonzero(labels == comp)
        pos = np.full(net.vertex_count, -1, dtype=np.int64)
        pos[idx] = np.arange(len(idx))
        self.idx = idx
        self.n_c = len(idx)
        self.s_pos = int(pos[net.source])
        self.t_pos = int(pos[net.sink])
        keep = np.flatnonzero((net.tails != net.heads) & (labels[net.tails] == comp))
        self.keep = keep
        self.kt = pos[net.tails[keep]]
        self.kh = pos[net.heads[keep]]
        self.dense = self.n_c <= _DENSE_LIMIT
        rows = np.concatenate([self.kt, self.kh, self.kt, self.kh])
        cols = np.concatenate([self.kt, self.kh, self.kh, self.kt])
        if self.dense:
            self._flat = rows * self.n_c + cols
        else:
            self._rows, self._cols = rows, cols

    def laplacian(self, r: np.ndarray):
        g = 1.0 / r[self.keep]
        data = np.concatenate([g, g, -g, -g])
        if self.dense:
            # bincount adds the weights in input order, so every entry sums
            # the same terms in the same order as np.add.at over the four
            # blocks in turn would.
            n = self.n_c
            return np.bincount(self._flat, data, n * n).reshape(n, n)
        return sp.coo_matrix(
            (data, (self._rows, self._cols)), shape=(self.n_c, self.n_c)
        ).tocsr()


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
    xc, iters, resnorm = _pcg(A, b, x, tol * float(np.linalg.norm(b)), None)
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
