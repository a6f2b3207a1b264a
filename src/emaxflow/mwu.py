"""Multiplicative-weights loop around an electrical-flow congestion oracle.

Each oracle step prices every edge of the symmetrized network by
``r = (w + regularizer) / u_parent^2``, computes an approximate electrical
s-t flow of the requested value, and the loop fails when the flow's energy
exceeds a threshold derived from the weight total.  After each successful
call two candidates are checked: the running average of the flows so far,
then the current flow.  The loop stops at the first that stays within the
per-edge bound ``|f| <= (1+eps) * u_parent`` and has the exact target
value, both verified explicitly before returning; ``eps`` is the network's
own.  A run starts from unit weights unless it is given other positive
weights to start from, such as the final weights of an earlier run on the
same network; an energy failure certifies infeasibility whatever the
weights, so neither the start nor the update rate changes what a run
concludes, only what it costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .electrical import (
    DisconnectedNetworkError,
    ElectricalSolveResult,
    default_solve_tolerance,
    electrical_st_flow,
)
from .network import FlowAssignment, SymmetrizedNetwork, incidence_product

# Practical cap on oracle calls per solve; the theoretical schedule
# 2*rho*ln(edges)/eps^2 is far beyond desk scale for small eps.
DEFAULT_ITERATION_CAP = 2000
# Relative tolerance of every test in `check_bounded_flow`.
_CHECK_RTOL = 1e-9


class WidthViolationError(RuntimeError):
    """An oracle flow exceeded the congestion width guarantee."""


def oracle_width(net: SymmetrizedNetwork) -> float:
    """Max congestion any successful oracle flow can carry: sqrt(27 m / eps)."""
    return math.sqrt(27.0 * net.m_arcs / net.epsilon)


def compute_resistances(
    net: SymmetrizedNetwork, weights: np.ndarray, epsilon: float
) -> np.ndarray:
    """Edge resistances (w + eps*|w|_1/(3*edges)) / u_parent^2.

    The additive regularizer keeps every resistance bounded away from zero
    relative to the weight total; with all weights tied it reduces to a
    per-arc form because each arc owns exactly three edges.
    """
    reg = epsilon * float(weights.sum()) / (3.0 * net.edge_count)
    return (weights + reg) / (net.parent_capacity**2)


def fail_threshold(net: SymmetrizedNetwork, weights: np.ndarray, epsilon: float) -> float:
    """Energy ceiling above which an oracle step reports failure.

    (1 + eps/10) * sum_a (w_a + regularizer) * (cap_a / u_parent_a)^2 — the
    energy of a flow that congests every edge exactly to its capacity ratio,
    padded by the electrical solver's accuracy factor.
    """
    reg = epsilon * float(weights.sum()) / (3.0 * net.edge_count)
    beta = net.capacities / net.parent_capacity
    return float((1.0 + epsilon / 10.0) * np.sum((weights + reg) * beta * beta))


#: Each updated weight is at least this times the largest, so repeated
#: renormalization never rounds a weight to zero.
WEIGHT_FLOOR = 1e-200


def update_weights(
    weights: np.ndarray, congestion: np.ndarray, epsilon: float, width: float
) -> np.ndarray:
    """Multiplicative update w <- w * (1 + congestion / step), with
    step = max(1 + eps, observed max congestion), floored at
    `WEIGHT_FLOOR` times the largest new weight.

    The rate is 1, not the eps that the analysis of the averaged flow
    needs: every candidate is verified explicitly, and an energy failure
    certifies infeasibility for any positive weights, so the rate changes
    only the number of oracle calls.  The floor keeps every weight a valid
    warm start; it lies far below the regularizer of `compute_resistances`,
    so it moves no resistance.  Congestion above the width raises
    `WidthViolationError`.
    """
    worst = float(congestion.max()) if len(congestion) else 0.0
    if worst > width * (1.0 + 1e-9):
        raise WidthViolationError(
            f"congestion {worst:.6g} exceeds the oracle width {width:.6g}"
        )
    step = max(1.0 + epsilon, worst)
    updated = weights * (1.0 + congestion / step)
    return np.maximum(updated, WEIGHT_FLOOR * updated.max(initial=0.0))


@dataclass(frozen=True)
class OracleDiagnostics:
    """What one oracle call measured; it failed if energy > threshold.

    `oracle_step` measures against the weights it is given.  The records a
    run passes to its trace callback are rescaled to the weights the run
    started from (unit unless given): the run keeps its weights at max 1,
    and each record's energy, threshold, weighted congestion and weight
    total are multiplied by the factor that renormalization took out.  Max
    congestion depends on no weights."""

    energy: float
    threshold: float
    max_congestion: float
    weighted_congestion: float
    weight_total: float


def oracle_step(
    net: SymmetrizedNetwork,
    weights: np.ndarray,
    target_value: float,
    x0: np.ndarray | None = None,
) -> tuple[ElectricalSolveResult, np.ndarray, OracleDiagnostics]:
    """One oracle call: the electrical flow priced by ``weights``, its congestion
    |f| / u_parent, and diagnostics measured against ``weights``."""
    if target_value < 0:
        raise ValueError("target_value must be nonnegative")
    eps = net.epsilon
    r = compute_resistances(net, weights, eps)
    threshold = fail_threshold(net, weights, eps)
    solve_tol = default_solve_tolerance(eps, net.edge_count)
    result = electrical_st_flow(net, r, target_value, solve_tol, x0=x0)
    cong = np.abs(result.flow.values) / net.parent_capacity
    diag = OracleDiagnostics(
        energy=result.energy,
        threshold=threshold,
        max_congestion=float(cong.max()) if len(cong) else 0.0,
        weighted_congestion=float(np.dot(weights, cong)),
        weight_total=float(weights.sum()),
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


def iteration_schedule(net: SymmetrizedNetwork) -> int:
    """Theoretical oracle-call budget 2 * width * ln(edges) / eps^2."""
    return math.ceil(
        2.0 * oracle_width(net) * math.log(max(net.edge_count, 2)) / net.epsilon**2
    )


#: Failure modes that prove no flow of the target value fits the symmetrized
#: capacities.  An energy failure does so because any such flow has energy at
#: most the threshold under the current resistances, and the electrical flow
#: is within the threshold's (1 + eps/10) padding of the minimum energy.
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
    max_iterations: int | None = None,
    trace: TraceCallback | None = None,
) -> BoundedFlowResult:
    """Find an s-t flow of exactly ``target_value`` with every edge flow in
    ``[-(1+eps)u, +(1+eps)u]`` of its parent arc capacity, or report failure.

    Starts from unit weights (`bounded_flow_attempts` can start from
    others) and iterates the congestion oracle, reweighting edges by their
    congestion after each successful step.  After every step the running
    average of the flows so far, then the current flow, is checked against
    the contract, and the first that verifies is returned.  The failure
    modes are:

    - ``"oracle-energy"``: an oracle step's energy exceeded its threshold.
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
    return next(
        bounded_flow_attempts(net, target_value, max_iterations=max_iterations, trace=trace)
    )


def bounded_flow_attempts(
    net: SymmetrizedNetwork,
    target_value: float,
    *,
    max_iterations: int | None = None,
    trace: TraceCallback | None = None,
    weights: np.ndarray | None = None,
) -> Iterator[BoundedFlowResult]:
    """The run behind `solve_bounded_flow`, one result per budget.

    The run starts from ``weights``, unit weights by default.  Any finite,
    strictly positive start leaves every conclusion sound: an energy failure
    certifies the target infeasible for any positive weights, and a success
    is verified explicitly.  Each result carries the run's final weights,
    scaled to max 1, which can start a later run on the same network.

    Each ``next`` spends at most twice the capped iteration schedule.  After
    an ``"iteration-budget"`` result the following ``next`` resumes the same
    run from its weights, running sum and last potentials;
    ``iterations`` counts the calls of the whole run.  The generator ends
    after a success or a certified failure.
    """
    eps = net.epsilon
    baseline = (1.0 + eps) * float(net.arc_capacities.sum())
    if not (math.isfinite(target_value) and target_value > baseline):
        raise ValueError(
            f"target value {target_value} must be finite and exceed the boosted "
            f"capacity total {baseline}"
        )
    width = oracle_width(net)
    budget = iteration_schedule(net)
    if max_iterations is not None:
        budget = min(budget, max_iterations)
    else:
        budget = min(budget, DEFAULT_ITERATION_CAP)
    budget = max(budget, 1)

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

    allowed = 2 * budget
    i = 0
    while True:
        if i >= allowed:
            yield BoundedFlowResult(None, i, "iteration-budget", weights)
            allowed += 2 * budget
        i += 1
        try:
            result, cong, diag = oracle_step(net, weights, target_value, phi_prev)
        except DisconnectedNetworkError:
            yield BoundedFlowResult(None, i, "disconnected", weights)
            return
        if trace is not None:
            trace(i, _rescaled(diag, math.exp(log_scale)))
        # The verdict compares the unscaled figures, which rescaling could
        # round into a tie.
        if diag.energy > diag.threshold:
            yield BoundedFlowResult(None, i, "oracle-energy", weights)
            return

        phi_prev = result.potentials
        flow_sum += result.flow.values
        for cand in (flow_sum / i, result.flow.values):
            if check_bounded_flow(net, cand, target_value):
                yield BoundedFlowResult(FlowAssignment(net, cand), i, None, weights)
                return

        weights = update_weights(weights, cong, eps, width)
        top = float(weights.max())
        if top > 1.0:
            log_scale += math.log(top)
            weights = weights * (1.0 / top)
