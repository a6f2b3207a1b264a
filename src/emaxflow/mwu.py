"""Multiplicative-weights loop around an electrical-flow congestion oracle.

Each oracle step prices every edge of the symmetrized network by
``r = (w + regularizer) / u_parent^2``, computes an approximate electrical
s-t flow of the requested value, and the loop fails when the flow's energy
exceeds a threshold derived from the weight total and the solve's dual
bound proves that no flow within the capacities has so little energy
(`oracle_step`).  After each successful call one candidate is checked, a
point of the segment from the current flow to the running average of the
flows so far: every point of it conserves and has the exact target value,
so one pass over the edges finds the points that stay within the per-edge
bound ``|f| <= (1+eps) * u_parent`` (`_segment_candidate`).  The loop stops
when the candidate verifies explicitly; ``eps`` is the network's own.  A
run starts from unit weights unless it is given other positive weights to
start from, such as the final weights of an earlier run on the same
network; an energy failure certifies infeasibility whatever the weights, so
neither the start nor the update rule changes what a run concludes, only
what it costs.  The update multiplies each weight by the square of
``1 + congestion / step``, two rate-1 steps per call, which about halves
the calls that a single step takes; higher powers overshoot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .electrical import (
    DisconnectedNetworkError,
    ElectricalSolveResult,
    RepairError,
    default_solve_tolerance,
    electrical_st_flow,
)
from .network import FlowAssignment, SymmetrizedNetwork, incidence_product

# Practical cap on oracle calls per solve; the theoretical schedule
# 2*rho*ln(edges)/eps^2 is far beyond desk scale for small eps.
DEFAULT_ITERATION_CAP = 2000
# Relative tolerance of every test in `check_bounded_flow`.
_CHECK_RTOL = 1e-9
#: Relative residual at which a run's oracle calls first stop CG.  After a
#: call whose working solve needs a conservation repair of more than
#: `REPAIR_SHARE` times eps' of some edge's capacity, its run divides its
#: working tolerance by 3, down to the strict `default_solve_tolerance`
#: (`bounded_flow_attempts`).
WORKING_TOLERANCE = 3e-6
#: Largest conservation repair, as a share of eps' times an edge's
#: capacity, that a working solve may need before its run tightens its
#: working tolerance.  Larger repairs cost oracle calls: on a random
#: digraph of 500 vertices and 2,500 arcs, fixed working tolerances whose
#: repairs reach 0.07 / 0.38 / 0.79 of eps' take 199 / 432 / 762 calls.
REPAIR_SHARE = 0.1


class WidthViolationError(RuntimeError):
    """An oracle flow exceeded the congestion width guarantee."""


def oracle_width(net: SymmetrizedNetwork) -> float:
    """Max congestion any successful oracle flow can carry: sqrt(27 m / eps)."""
    return math.sqrt(27.0 * net.m_arcs / net.epsilon)


def compute_resistances(net: SymmetrizedNetwork, weights: np.ndarray) -> np.ndarray:
    """Edge resistances (w + eps*|w|_1/(3*edges)) / u_parent^2.

    The additive regularizer keeps every resistance bounded away from zero
    relative to the weight total; with all weights tied it reduces to a
    per-arc form because each arc owns exactly three edges.
    """
    reg = net.epsilon * float(weights.sum()) / (3.0 * net.edge_count)
    return (weights + reg) / (net.parent_capacity**2)


def fail_threshold(net: SymmetrizedNetwork, weights: np.ndarray) -> float:
    """Energy ceiling above which an oracle step may report failure.

    (1 + eps/10) * sum_a (w_a + regularizer) * (cap_a / u_parent_a)^2.  The
    sum, the unpadded threshold, is the energy of a flow that fills every
    edge to its capacity, and so the most energy any flow within the
    capacities can have.  The padding certifies nothing by itself: a call
    fails when its energy is over the threshold and its dual bound
    ``D(phi)`` is over the unpadded threshold, or when a strict re-solve's
    energy is still over the threshold (`oracle_step`).
    """
    eps = net.epsilon
    reg = eps * float(weights.sum()) / (3.0 * net.edge_count)
    beta = net.capacities / net.parent_capacity
    return float((1.0 + eps / 10.0) * np.sum((weights + reg) * beta * beta))


#: Each updated weight is at least this times the largest, so repeated
#: renormalization never rounds a weight to zero.
WEIGHT_FLOOR = 1e-200


def update_weights(
    weights: np.ndarray, congestion: np.ndarray, epsilon: float, width: float
) -> np.ndarray:
    """Multiplicative update w <- w * (1 + congestion / step)^2, with
    step = max(1 + eps, observed max congestion), floored at
    `WEIGHT_FLOOR` times the largest new weight.

    That is two rate-1 updates per call, not the rate eps that the
    analysis of the averaged flow needs: every candidate is verified
    explicitly, and an energy failure certifies infeasibility for any
    positive weights, so the rule changes only the number of oracle calls.
    The square about halves them against rate 1; higher powers overshoot,
    so some runs make more calls again and some never converge.  The floor
    keeps every weight a valid warm start; it lies far below the
    regularizer of `compute_resistances`, so it moves no resistance.
    Congestion above the width raises `WidthViolationError`.
    """
    worst = float(congestion.max()) if len(congestion) else 0.0
    if worst > width * (1.0 + 1e-9):
        raise WidthViolationError(
            f"congestion {worst:.6g} exceeds the oracle width {width:.6g}"
        )
    step = max(1.0 + epsilon, worst)
    factor = 1.0 + congestion / step
    updated = weights * (factor * factor)
    return np.maximum(updated, WEIGHT_FLOOR * updated.max(initial=0.0))


@dataclass(frozen=True)
class OracleDiagnostics:
    """What one oracle call measured; it failed if energy > threshold.

    ``energy_lower`` is the solve's dual bound ``D(phi)``, at most the least
    energy of any flow of the target value, so a failure whose
    ``energy_lower`` exceeds ``threshold / (1 + eps/10)`` is certified with
    no appeal to solver accuracy.

    `oracle_step` measures against the weights it is given.  The records a
    run passes to its trace callback are rescaled to the weights the run
    started from (unit unless given): the run keeps its weights at max 1,
    and each record's energy, energy bound, threshold, weighted congestion
    and weight total are multiplied by the factor that renormalization took
    out.  Max congestion depends on no weights, and neither does
    ``repair_share``, the working solve's `ElectricalSolveResult.repair_share`
    (inf where its repair raised `RepairError`)."""

    energy: float
    threshold: float
    max_congestion: float
    weighted_congestion: float
    weight_total: float
    energy_lower: float
    repair_share: float


def oracle_step(
    net: SymmetrizedNetwork,
    weights: np.ndarray,
    target_value: float,
    x0: np.ndarray | None = None,
    tol: float | None = None,
) -> tuple[ElectricalSolveResult, np.ndarray, OracleDiagnostics]:
    """One oracle call: the electrical flow priced by ``weights``, its congestion
    |f| / u_parent, and diagnostics measured against ``weights``.

    The working solve stops CG at the relative residual ``tol``
    (`WORKING_TOLERANCE` unless given).  It is solved again at the strict
    `default_solve_tolerance` in two cases, so that no decision is less
    sure than a strict solve makes it:

    - its tree repair raises `RepairError`; the strict solve starts from
      ``x0`` and raises it only where a strict solve always did;
    - its energy is over the threshold but its dual bound ``D(phi)`` does
      not exceed the unpadded threshold ``threshold / (1 + eps/10)``, the
      most energy any flow within the capacities can have; the strict
      solve starts from the working solve's potentials, and its energy
      then decides, as the padding of `fail_threshold` allows.

    A failure whose ``D`` exceeds the unpadded threshold needs no second
    solve: no flow within the capacities exists, whatever the solve's
    accuracy.  So the returned call failed exactly when its energy is over
    the threshold.  A large repair is not solved again here: the run
    tightens the tolerance of its later calls instead."""
    if target_value < 0:
        raise ValueError("target_value must be nonnegative")
    eps = net.epsilon
    r = compute_resistances(net, weights)
    threshold = fail_threshold(net, weights)
    strict_tol = default_solve_tolerance(eps, net.edge_count)
    try:
        result = electrical_st_flow(
            net, r, target_value, WORKING_TOLERANCE if tol is None else tol, x0
        )
    except RepairError:
        share = math.inf
        result = electrical_st_flow(net, r, target_value, strict_tol, x0)
    else:
        share = result.repair_share
        unpadded = threshold / (1.0 + eps / 10.0)
        if result.energy > threshold and not result.energy_lower > unpadded:
            result = electrical_st_flow(net, r, target_value, strict_tol, result.potentials)
    cong = np.abs(result.flow.values) / net.parent_capacity
    diag = OracleDiagnostics(
        energy=result.energy,
        threshold=threshold,
        max_congestion=float(cong.max()) if len(cong) else 0.0,
        weighted_congestion=float(np.dot(weights, cong)),
        weight_total=float(weights.sum()),
        energy_lower=result.energy_lower,
        repair_share=share,
    )
    return result, cong, diag


def _rescaled(diag: OracleDiagnostics, scale: float) -> OracleDiagnostics:
    """``diag`` with its weight-priced fields multiplied by ``scale``."""
    return replace(
        diag,
        energy=diag.energy * scale,
        threshold=diag.threshold * scale,
        weighted_congestion=diag.weighted_congestion * scale,
        weight_total=diag.weight_total * scale,
        energy_lower=diag.energy_lower * scale,
    )


def check_bounded_flow(
    net: SymmetrizedNetwork,
    values: np.ndarray,
    target_value: float,
) -> bool:
    """True iff ``values`` conserves, has value ``target_value``, and respects
    |f| <= (1+eps) * u_parent per edge, all within a relative 1e-9.

    Each test is written so that a NaN fails it, and a non-finite target
    fails it too: its tolerance would be infinite."""
    if not math.isfinite(target_value):
        return False
    bound = (1.0 + net.epsilon) * net.parent_capacity
    if not (np.abs(values) <= bound * (1.0 + _CHECK_RTOL)).all():
        return False
    resid = incidence_product(net, values)
    tol = _CHECK_RTOL * max(1.0, abs(target_value))
    if not abs(resid[net.source] - target_value) <= tol:
        return False
    mask = np.ones(net.vertex_count, dtype=bool)
    mask[net.source] = False
    mask[net.sink] = False
    if mask.any() and not float(np.abs(resid[mask]).max()) <= tol:
        return False
    return True


def _segment_candidate(
    net: SymmetrizedNetwork, avg: np.ndarray, it: np.ndarray
) -> np.ndarray | None:
    """The one point of the segment ``it + lam (avg - it)``, ``lam`` in
    [0, 1], that is worth checking, or None when no point of it stays
    within the bound of `check_bounded_flow`.

    The average is preferred (``lam = 1``), then the iterate (``lam = 0``),
    then the midpoint of the ``lam`` that fit.  An edge within its bound at
    both ends stays within it along the whole segment, so only the edges
    outside it at an end confine ``lam``: each to the interval between
    ``(+-bound - it) / (avg - it)``, which the infinities of a division by
    zero leave empty where ``avg == it``.  Floating-point errors stay
    silent: a printed warning would reach the solve's output, and reading
    this file in for it would add to the solve's memory."""
    with np.errstate(all="ignore"):
        bound = (1.0 + net.epsilon) * net.parent_capacity
        bound *= 1.0 + _CHECK_RTOL
        out_avg = np.abs(avg) > bound
        if not out_avg.any():
            return avg
        out_it = np.abs(it) > bound
        if not out_it.any():
            return it
        k = np.flatnonzero(out_avg | out_it)
        x, b = it[k], bound[k]
        d = avg[k] - x
        q1 = (b - x) / d
        q2 = (-b - x) / d
        low = max(0.0, float(np.minimum(q1, q2).max()))
        high = min(1.0, float(np.maximum(q1, q2).min()))
        if not low <= high:
            return None
        blend = avg - it
        blend *= 0.5 * (low + high)
        blend += it
        return blend


def iteration_schedule(net: SymmetrizedNetwork) -> int:
    """Theoretical oracle-call budget 2 * width * ln(edges) / eps^2."""
    return math.ceil(
        2.0 * oracle_width(net) * math.log(max(net.edge_count, 2)) / net.epsilon**2
    )


#: Failure modes that prove no flow of the target value fits the symmetrized
#: capacities.  An energy failure does so because any such flow has energy at
#: most the unpadded threshold under the current resistances, while the dual
#: bound ``D(phi)`` of the failing call, at most the least energy of any flow
#: of the target value, exceeds it; or, where the bound falls short, because
#: a strict solve's energy, within the threshold's (1 + eps/10) padding of
#: the minimum, still exceeds the threshold.
_CERTIFIED_FAILURES = ("oracle-energy", "disconnected")


@dataclass(frozen=True)
class BoundedFlowResult:
    """Outcome of `solve_bounded_flow`."""

    flow: Optional[FlowAssignment]
    iterations: int
    failure: Optional[str]  # None on success
    #: The run's final weights, scaled so that the largest is 1.
    weights: np.ndarray

    @property
    def succeeded(self) -> bool:
        return self.flow is not None

    @property
    def certified_infeasible(self) -> bool:
        """True when the failure proves the target exceeds the symmetrized
        network's max flow; False on success and on an exhausted budget."""
        return self.failure in _CERTIFIED_FAILURES


TraceCallback = Callable[[int, OracleDiagnostics], None]


def solve_bounded_flow(
    net: SymmetrizedNetwork,
    target_value: float,
    *,
    trace: TraceCallback | None = None,
) -> BoundedFlowResult:
    """Find an s-t flow of exactly ``target_value`` with every edge flow in
    ``[-(1+eps)u, +(1+eps)u]`` of its parent arc capacity, or report failure.

    Starts from unit weights (`bounded_flow_attempts` can start from
    others) and iterates the congestion oracle, reweighting edges by their
    congestion after each successful step.  After every step one point of
    the segment from the current flow to the running average of the flows
    so far is checked against the contract, and returned if it verifies:
    the average if it fits the per-edge bound, else the current flow if it
    fits, else the midpoint of the points that fit; no check is made when
    no point fits.  The failure modes are:

    - ``"oracle-energy"``: an oracle step's energy exceeded its threshold,
      and its dual bound exceeded the unpadded threshold (or a strict
      re-solve's energy still exceeded the threshold; see `oracle_step`).
      This certifies that the target exceeds the max flow of the
      symmetrized network at its edge capacities.
    - ``"disconnected"``: the source and sink lie in different components,
      which certifies that no flow of positive value exists.
    - ``"iteration-budget"``: twice the capped iteration schedule ran out
      without a verified candidate.  This certifies nothing: the target may
      still be feasible, and `bounded_flow_attempts` can resume the run.

    `BoundedFlowResult.certified_infeasible` tells the first two apart from
    the last.  Requires ``target_value`` strictly above (1+eps) * total arc
    capacity's worth of link routing, i.e. the sum of boosted capacities.
    """
    return next(bounded_flow_attempts(net, target_value, trace=trace))


def bounded_flow_attempts(
    net: SymmetrizedNetwork,
    target_value: float,
    *,
    trace: TraceCallback | None = None,
    weights: np.ndarray | None = None,
    first: tuple[ElectricalSolveResult, np.ndarray, OracleDiagnostics] | None = None,
) -> Iterator[BoundedFlowResult]:
    """The run behind `solve_bounded_flow`, one result per budget.

    The run starts from ``weights``, unit weights by default.  Any finite,
    strictly positive start leaves every conclusion sound: an energy failure
    certifies the target infeasible for any positive weights, and a success
    is verified explicitly.  Each result carries the run's final weights,
    scaled to max 1, which can start a later run on the same network.

    Each ``next`` spends at most twice the capped iteration schedule.  After
    an ``"iteration-budget"`` result the following ``next`` resumes the same
    run from its weights, running sum, last potentials and working
    tolerance; ``iterations`` counts the calls of the whole run.  The
    generator ends after a success or a certified failure.

    Each call's candidate comes from `_segment_candidate`, and only a
    candidate that `check_bounded_flow` accepts is returned.

    ``first``, when given, is taken as the run's first oracle call, which
    is then not made again: it must be what `oracle_step` returns for
    these start weights and ``target_value``.  It is counted, traced and
    reweighted like any other call.

    The working tolerance starts at `WORKING_TOLERANCE`, and each call whose
    working solve needed a repair over `REPAIR_SHARE` times eps' of an
    edge's capacity divides it by 3, down to `default_solve_tolerance`.
    """
    eps = net.epsilon
    baseline = (1.0 + eps) * float(net.arc_capacities.sum())
    if not (math.isfinite(target_value) and target_value > baseline):
        raise ValueError(
            f"target value {target_value} must be finite and exceed the boosted "
            f"capacity total {baseline}"
        )
    width = oracle_width(net)
    budget = max(min(iteration_schedule(net), DEFAULT_ITERATION_CAP), 1)

    log_scale = 0.0  # weights are renormalized; true total = total * exp(log_scale)
    if weights is None:
        weights = np.ones(net.edge_count)
    elif np.shape(weights) != (net.edge_count,) or not (np.isfinite(weights) & (weights > 0)).all():
        raise ValueError(f"need {net.edge_count} finite, strictly positive start weights")
    elif (top := float(weights.max())) != 1.0:
        log_scale = math.log(top)
        weights = weights * (1.0 / top)
    flow_sum = np.zeros(net.edge_count)
    phi_prev: np.ndarray | None = None
    tol = WORKING_TOLERANCE
    strict_tol = default_solve_tolerance(eps, net.edge_count)

    allowed = 2 * budget
    i = 0
    while True:
        if i >= allowed:
            yield BoundedFlowResult(None, i, "iteration-budget", weights)
            allowed += 2 * budget
        i += 1
        if first is not None:
            (result, cong, diag), first = first, None
        else:
            try:
                result, cong, diag = oracle_step(net, weights, target_value, phi_prev, tol)
            except DisconnectedNetworkError:
                yield BoundedFlowResult(None, i, "disconnected", weights)
                return
        if trace is not None:
            try:
                scale = math.exp(log_scale)
            except OverflowError:  # past the float range the record reads inf
                scale = math.inf
            trace(i, _rescaled(diag, scale))
        # The verdict compares the unscaled figures, which rescaling could
        # round into a tie.
        if diag.energy > diag.threshold:
            yield BoundedFlowResult(None, i, "oracle-energy", weights)
            return

        if diag.repair_share > REPAIR_SHARE * eps:
            tol = max(tol / 3.0, strict_tol)
        phi_prev = result.potentials
        flow_sum += result.flow.values
        cand = _segment_candidate(net, flow_sum / i, result.flow.values)
        if cand is not None and check_bounded_flow(net, cand, target_value):
            yield BoundedFlowResult(FlowAssignment(net, cand), i, None, weights)
            return

        weights = update_weights(weights, cong, eps, width)
        top = float(weights.max())
        if top > 1.0:
            log_scale += math.log(top)
            weights = weights * (1.0 / top)
