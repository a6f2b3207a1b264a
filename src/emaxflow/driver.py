"""Search over target values, exact reference oracles, and reporting.

`approx_max_flow` probes candidate flow values F, asking the bounded-flow
solver on the symmetrized network for value 2F + (1+eps')*total capacity and
recovering a feasible directed flow from each success.  Before the search
one oracle call at unit weights gives potentials whose best threshold cut,
with the source and sink cuts, bounds F* from above.  That call prices the
first probe's target, so where the cut does not lower the top the first
probe takes it as its first oracle call; only where the cut lowers the top
is it an extra call.  The search keeps the best recovered flow and one
top, which starts at that bound, and stops when the top is within a
relative gap of the best value.  Every probe goes to
the oracle, and every probe that gives no flow becomes the new top: one
certified infeasible by an energy failure, one still unknown after its
oracle budget is resumed once from its own state, and one whose flow
recovery rejects.  Certified and unknown probes differ only in the warm
start: the first probe's MWU run starts from unit weights, and each later
one from the final weights of the last probe that did not end in a
certified failure.  Neither an energy failure nor a verified success
depends on the start, so this changes only how many oracle calls a probe
takes.  Each MWU run takes its accuracy from the symmetrized network,
built at eps', and per-call trace lines are built only for an
``on_trace`` callback.
The exact references for ``--exact-check`` and ``emaxflow verify``,
`exact_max_flow` on the digraph and `undirected_max_flow_witness` on the
symmetrized multigraph, share one blocking-flow (Dinic) routine over flat
lists, `_max_flow`.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from .mwu import OracleDiagnostics, bounded_flow_attempts, oracle_step
from .network import DirectedNetwork, FlowAssignment, SymmetrizedNetwork, bfs_levels, symmetrize
from .recovery import RecoveryError, RecoveryResult, recover_directed_flow

_MAX_PROBES = 64


def _max_flow(
    n: int, tails: list[int], heads: list[int], forward: list[float], backward: list[float],
    s: int, t: int,
) -> tuple[float, list[float]]:
    """Blocking-flow (Dinic) max flow over flat lists: the value and the
    final residual capacities.

    Residual edge 2k runs from ``tails[k]`` to ``heads[k]`` with capacity
    ``forward[k]``, and 2k + 1 back with ``backward[k]`` (0 for an arc, the
    capacity for an undirected edge); the reverse of e is e ^ 1.  Both are
    saturated at a residual of at most 1e-12 * min(forward[k], 1).  Each
    phase levels the vertices by BFS and pushes paths found by an iterative
    depth-first search, so no recursion limit bounds a path; a vertex's
    pointer ``it`` passes only edges that fail the level test or lead to a
    dead end.
    """
    to = [v for pair in zip(heads, tails) for v in pair]
    res = [c for pair in zip(forward, backward) for c in pair]
    tiny = [1e-12 * min(c, 1.0) for c in forward for _ in (0, 1)]
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in range(len(to)):
        adj[to[e ^ 1]].append(e)
    flow = 0.0
    while True:
        level = [-1] * n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for e in adj[u]:
                v = to[e]
                if level[v] < 0 and res[e] > tiny[e]:
                    level[v] = level[u] + 1
                    q.append(v)
        if level[t] < 0:
            return flow, res
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(res[e] for e in path)
                for e in path:
                    res[e] -= pushed
                    res[e ^ 1] += pushed
                flow += pushed
                path.clear()
                u = s
            edges, i, up = adj[u], it[u], level[u] + 1
            while i < len(edges):
                e = edges[i]
                if level[to[e]] == up and res[e] > tiny[e]:
                    it[u] = i
                    path.append(e)
                    u = to[e]
                    break
                i += 1
            else:
                it[u] = i
                if not path:
                    break
                u = to[path.pop() ^ 1]
                it[u] += 1


def exact_max_flow(network: DirectedNetwork) -> tuple[float, FlowAssignment]:
    """Exact max flow value and a witness flow (`_max_flow`).  An arc is
    saturated at a residual of at most 1e-12 times its own capacity,
    capped at 1e-12, so integer capacities give exact values."""
    caps = network.capacities
    value, res = _max_flow(
        network.vertex_count, network.tails.tolist(), network.heads.tolist(),
        caps.tolist(), [0.0] * network.edge_count, network.source, network.sink,
    )
    flows = np.clip(caps - np.array(res[0::2]), 0.0, caps)
    return value, FlowAssignment(network, flows)


def undirected_max_flow_witness(net: SymmetrizedNetwork) -> tuple[float, FlowAssignment]:
    """Exact max flow of the undirected multigraph and a witness edge flow.
    Each edge but a self-loop goes to `_max_flow` once, with its capacity
    both ways, and carries its capacity minus its forward residual, signed
    along the edge; a self-loop carries 0."""
    keep = np.flatnonzero(net.tails != net.heads)
    caps = net.capacities[keep]
    value, res = _max_flow(
        net.vertex_count, net.tails[keep].tolist(), net.heads[keep].tolist(),
        caps.tolist(), caps.tolist(), net.source, net.sink,
    )
    vals = np.zeros(net.edge_count)
    vals[keep] = np.clip(caps - np.array(res[0::2]), -caps, caps)
    return value, FlowAssignment(net, vals)


def _round12(x: Optional[float]) -> Optional[float]:
    if x is None:
        return None
    return float(f"{x:.12g}")


@dataclass
class SolveReport:
    """Summary of one approximate solve, serializable with stable keys.

    ``oracle_calls`` and ``mwu_iterations_total`` both count the probes'
    oracle calls.  The unit-weight call before the search that sets
    ``upper_bound`` is the first probe's first call, and counted as such,
    when its cut leaves the top at the source/sink cut; only when the cut
    lowers the top is it an extra call that neither counts.
    """

    instance: str
    n: int
    m: int
    epsilon: float
    approx_value: float
    exact_value: Optional[float]
    ratio: Optional[float]
    search_iterations: int
    oracle_calls: int
    mwu_iterations_total: int
    fail_count: int
    wall_time_ms: float
    upper_bound: Optional[float] = None

    def to_dict(self) -> dict:
        """Every field under its own name, floats to 12 significant digits."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = _round12(value) if "float" in str(f.type) else value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "SolveReport":
        """The report `to_dict` gave; unknown keys are ignored, and a field
        with a default, such as ``upper_bound``, may be absent."""
        return cls(
            **{f.name: d[f.name] for f in fields(cls) if f.name in d or f.default is MISSING}
        )


def _trace_line(probe: int, iteration: int, diag: OracleDiagnostics) -> dict:
    """One ``--trace`` line: an oracle call's diagnostics, 12 digits, each
    clamped to +-1e308 so that the line is strict JSON."""
    def num(x: float) -> float:
        return _round12(max(-1e308, min(x, 1e308)))

    return {
        "probe": probe,
        "iter": iteration,
        "energy": num(diag.energy),
        "threshold": num(diag.threshold),
        "max_cong": num(diag.max_congestion),
        "weighted_cong": num(diag.weighted_congestion),
        "weight_total": num(diag.weight_total),
        "energy_lower": num(diag.energy_lower),
    }


def _useful_arcs(network: DirectedNetwork) -> np.ndarray:
    """Mask of the arcs that may lie on a simple s-t path.

    Arc (u, v) is kept when u is reachable from the source without passing
    the sink, v reaches the sink without passing the source, u is not the
    sink and v is not the source.  Every other arc lies on no simple s-t
    path.  The mask is empty exactly when the sink is unreachable.
    """
    s, t = network.source, network.sink
    n = network.vertex_count
    tails, heads = network.tails, network.heads
    cand = (tails != t) & (heads != s)
    forward, backward = tails[cand], heads[cand]
    from_s = np.zeros(n, dtype=bool)
    from_s[np.concatenate(bfs_levels(n, forward, backward, s)[0])] = True
    to_t = np.zeros(n, dtype=bool)
    to_t[np.concatenate(bfs_levels(n, backward, forward, t)[0])] = True
    return cand & from_s[tails] & to_t[heads]


def _threshold_cut(network: DirectedNetwork, phi: np.ndarray) -> float:
    """Least capacity leaving a level set ``{v : phi(v) > theta}`` that holds
    the source and not the sink; inf when no threshold separates them.

    Every such set is an s-t cut, so the result is at least the max flow.
    A running sum over the levels picks the best set, and its capacity is
    then summed afresh from its arcs, so no cancellation rounds the bound.
    The levels are ordered with ``sorted`` and summed with
    ``itertools.accumulate``: a first NumPy sort or cumsum faults in code
    pages that show in the solve's peak memory.  O(n log n + m).
    """
    p = phi.tolist()
    levels = sorted(set(p), reverse=True)
    level_of = {x: i for i, x in enumerate(levels)}
    # Set i holds the vertices of levels 0..i; it is an s-t cut for
    # lo <= i < hi.
    lo, hi = level_of[p[network.source]], level_of[p[network.sink]]
    if lo >= hi:
        return math.inf
    rank = np.array([level_of[x] for x in p], dtype=np.int64)
    ru, rv = rank[network.tails], rank[network.heads]
    # Arc (u, v) leaves sets ru..rv-1.
    down = ru < rv
    caps = network.capacities[down]
    diff = np.bincount(ru[down], caps, len(levels)) - np.bincount(rv[down], caps, len(levels))
    cuts = list(itertools.accumulate(diff.tolist()))[lo:hi]
    best = lo + cuts.index(min(cuts))
    return float(network.capacities[(ru <= best) & (rv > best)].sum())


def approx_max_flow(
    network: DirectedNetwork,
    epsilon: float,
    exact_check: bool = False,
    instance: str = "",
    on_trace: Callable[[dict], None] | None = None,
) -> tuple[RecoveryResult, SolveReport]:
    """Feasible directed flow of value at least (1-epsilon) of the optimum.

    Arcs that lie on no simple s-t path are dropped first: every acyclic
    flow is a sum of simple s-t paths, so the optimum F* is unchanged, and
    the returned flow carries zero on the dropped arcs.  Dropping them
    matters because the symmetrized max flow is
    ``min_S [(2+eps')*leaving(S) - eps'*entering(S)] + (1+eps')*U``, and
    capacity entering a cut's source side, which no s-t flow can use,
    lowers the values the search can certify.  Each kept arc's capacity is
    then clamped to the source/sink cut, the smaller of the capacity out
    of the source and into the sink: no acyclic flow carries more than
    F* <= that cut on an arc, so F* is unchanged, and a flow within the
    clamped capacities is within the original ones.  A tiny bottleneck
    next to the source or sink then no longer sits beside capacities far
    larger than F*.

    Internally splits the accuracy budget: the symmetrization, bounded-flow
    solver, and recovery all run at eps' = epsilon/4, and the value search
    stops once its top is within a (1 + eps'/2)(1 + eps') factor of the
    best recovered value.  The returned flow is always feasible (capacities
    and conservation hold exactly) regardless of approximation quality.

    The search's top starts at a certified upper bound on F*, the smaller
    of the source/sink cut and the best threshold cut over unit-weight
    electrical potentials (`_threshold_cut`); ``report.upper_bound`` holds
    it.  Every probe runs the bounded-flow solver.  A probe certified
    infeasible by an energy failure, one still unknown after its resume,
    and one whose flow recovery rejects all lower the top: certified and
    unknown probes differ only in the next probe's start weights.

    The oracle squares capacities, so when the largest clamped one lies
    outside [2^-64, 2^64] the search runs on capacities scaled by the power
    of two that brings it into [1, 2); the flow, its value and the upper
    bound are scaled back, exactly, so feasibility holds bit for bit.

    ``on_trace``, when given, receives one dict per oracle call (the
    ``--trace`` line); without it no per-call record is built.
    """
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    t0 = time.perf_counter()
    eps_i = epsilon / 4.0

    useful = _useful_arcs(network)
    tails, heads = network.tails[useful], network.heads[useful]
    caps = network.capacities[useful]
    # The source/sink cut: no acyclic flow carries more on any arc.
    top = float(min(caps[tails == network.source].sum(), caps[heads == network.sink].sum()))
    caps = np.minimum(caps, top)
    big = float(caps.max(initial=0.0))
    shift = math.frexp(big)[1] - 1 if big and not 2.0**-64 <= big <= 2.0**64 else 0
    caps = np.ldexp(caps, -shift)
    top = math.ldexp(top, -shift)
    pruned = DirectedNetwork(
        network.vertex_count,
        np.stack([tails, heads, caps], axis=1),
        network.source,
        network.sink,
    )
    # The search keeps its locals to the end; it needs no copy of the arcs.
    del tails, heads, caps
    best = RecoveryResult(
        directed_flow=FlowAssignment.zeros(pruned),
        value=0.0,
        scaled=False,
        max_capacity_ratio=0.0,
    )
    probes = 0
    oracle_calls = 0
    fail_count = 0

    upper = top
    if top > 0.0:
        net = symmetrize(pruned, eps_i)
        baseline = (1.0 + eps_i) * pruned.total_capacity()
        # Unit weights and the target of a first probe under the source/sink
        # cut: where the threshold cut does not lower the top, this is the
        # very call the first probe would make first, so the probe takes it
        # as its first call; where the cut lowers the top, it is an extra
        # call that no count includes.
        target = 2.0 * (0.75 * top) + baseline
        first = oracle_step(net, np.ones(net.edge_count), target)
        cut = _threshold_cut(pruned, first[0].potentials)
        if cut < top:
            top, first = cut, None
        upper = top
        # Recovery returns at least probe/(1+eps'), so the certified lower
        # bound trails the bracket top by that factor even at convergence;
        # the termination gap accounts for it, and a probe that fails to
        # raise the bound at all ends the search outright.
        gap = (1.0 + eps_i / 2.0) * (1.0 + eps_i)
        # Start weights for the next probe: the final weights of the last
        # probe that succeeded or stayed unknown, None (unit) before one.
        warm = None
        while top > gap * best.value and probes < _MAX_PROBES:
            probes += 1
            # Bias probes toward the top of the bracket: a success then jumps
            # the certified bound most of the way to the top, and a failure
            # still shrinks the bracket by a quarter.
            probe_value = 0.25 * best.value + 0.75 * top
            rec = None
            attempts = bounded_flow_attempts(
                net,
                2.0 * probe_value + baseline,
                trace=None if on_trace is None else (
                    lambda i, d, p=probes: on_trace(_trace_line(p, i, d))
                ),
                weights=warm,
                first=first,
            )
            first = None
            result = next(attempts)
            if not (result.succeeded or result.certified_infeasible):
                # An exhausted budget proves nothing: resume the same run
                # once from its weights, averages and potentials.
                result = next(attempts)
            oracle_calls += result.iterations
            if not result.certified_infeasible:
                warm = result.weights
            if result.succeeded:
                try:
                    rec = recover_directed_flow(result.flow, pruned)
                except RecoveryError:
                    pass
            if rec is None:
                # Energy or disconnected failure, a probe still unknown after
                # its resume, or a failed recovery: look below it.
                fail_count += 1
                top = probe_value
            elif rec.value > best.value:
                best = rec
            else:
                break

    flows = np.zeros(network.edge_count)
    flows[useful] = best.directed_flow.values
    best = replace(
        best,
        directed_flow=FlowAssignment(network, np.ldexp(flows, shift)),
        value=math.ldexp(best.value, shift),
    )
    wall_time_ms = (time.perf_counter() - t0) * 1000.0

    exact_value = None
    ratio = None
    if exact_check:
        exact_value, _ = exact_max_flow(network)
        if exact_value > 0:
            ratio = best.value / exact_value
        else:
            ratio = 1.0 if best.value == 0.0 else None

    report = SolveReport(
        instance=instance,
        n=network.vertex_count,
        m=network.edge_count,
        epsilon=epsilon,
        approx_value=best.value,
        exact_value=exact_value,
        ratio=ratio,
        search_iterations=probes,
        oracle_calls=oracle_calls,
        mwu_iterations_total=oracle_calls,
        fail_count=fail_count,
        wall_time_ms=wall_time_ms,
        upper_bound=math.ldexp(upper, shift),
    )
    return best, report
