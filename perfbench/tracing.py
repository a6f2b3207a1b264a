"""Per-layer timings taken from outside the program.

A `Tracer` replaces public functions of the program at the module
attributes their callers look up, records a span around each call (name,
inclusive time, and the time its child spans cover), and restores the
originals on `uninstall`.  The program's source is never edited.  A
function that no longer exists is recorded as absent, and every metric
that needs it is left out of the report instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

# (span name, module, attribute).  Each attribute is the one the caller
# looks up: the benchmark calls the package's public functions, the
# driver calls what it imported into `emaxflow.driver`, and so on.
WRAPPED = (
    ("solve", "emaxflow", "approx_max_flow"),
    ("parse", "emaxflow", "parse_dimacs"),
    ("exact", "emaxflow", "exact_max_flow"),
    ("symmetrize", "emaxflow.driver", "symmetrize"),
    ("recover", "emaxflow.driver", "recover_directed_flow"),
    ("oracle_step", "emaxflow.mwu", "oracle_step"),
    ("check", "emaxflow.mwu", "check_bounded_flow"),
    ("st_flow", "emaxflow.mwu", "electrical_st_flow"),
    ("subtract_and_halve", "emaxflow.recovery", "subtract_and_halve"),
    ("cycle_cancel", "emaxflow.recovery", "cycle_cancel"),
    ("extract_directed", "emaxflow.recovery", "extract_directed"),
)
# The probe generator the driver drives, one generator per probe.
PROBES = ("bounded_flow", "emaxflow.driver", "bounded_flow_attempts")


class Tracer:
    def __init__(self) -> None:
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget what was recorded; the wrappers stay installed."""
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.cg_iterations = 0
        self.probes: list[dict] = []
        self._stack: list[list] = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, children = self._stack.pop()
        took = time.perf_counter() - start
        self.inclusive[name] += took
        self.self_time[name] += took - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += took

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if name == "st_flow":
                self.cg_iterations += int(getattr(result, "iterations", 0))
            return result

        return wrapper

    def _timed_probes(self, fn):
        """Wrap the probe generator: time each ``next`` as one
        ``bounded_flow`` span, time the driver's per-call trace callback
        as a ``trace_record`` span inside it, and keep each probe's last
        result."""
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if signature is not None and "trace" in signature.parameters:
                bound = signature.bind(*args, **kwargs)
                if bound.arguments.get("trace") is not None:
                    bound.arguments["trace"] = self._timed("trace_record", bound.arguments["trace"])
                args, kwargs = bound.args, bound.kwargs
            probe = {"last": None}
            self.probes.append(probe)
            return self._probe_results(fn(*args, **kwargs), probe)

        return wrapper

    def _probe_results(self, attempts, probe: dict):
        while True:
            self._enter("bounded_flow")
            try:
                result = next(attempts)
            except StopIteration:
                return
            finally:
                self._exit()
            probe["last"] = result
            yield result

    # -- installation --------------------------------------------------
    def install(self) -> None:
        for name, module_name, attr in WRAPPED + (PROBES,):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.add(name)
                continue
            wrapper = self._timed_probes(fn) if name == "bounded_flow" else self._timed(name, fn)
            setattr(module, attr, wrapper)
            self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    # -- metrics -------------------------------------------------------
    def _probe_outcomes(self) -> list[tuple[str, int]]:
        """(outcome, oracle calls) of every probe: flow, certified or unknown."""
        outcomes = []
        for probe in self.probes:
            last = probe["last"]
            if last is None:
                continue
            if last.succeeded:
                outcomes.append(("flow", last.iterations))
            elif last.certified_infeasible:
                outcomes.append(("certified", last.iterations))
            else:
                outcomes.append(("unknown", last.iterations))
        return outcomes

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of what was recorded since `reset`, as
        ``{name: (value, unit)}``.  A metric whose spans are absent, or
        whose denominator is zero, is left out."""
        inc, own, calls = self.inclusive, self.self_time, self.calls
        out: dict[str, tuple[float, str]] = {}

        def put(name: str, needs: tuple[str, ...], value, unit: str) -> None:
            if self.absent.intersection(needs):
                return
            try:
                out[name] = (float(value()), unit)
            except (ZeroDivisionError, AttributeError):
                pass

        outcomes = lambda: self._probe_outcomes()  # noqa: E731
        calls_in = lambda kinds: sum(c for o, c in outcomes() if o in kinds)  # noqa: E731
        solve_parts = ("solve", "symmetrize", "bounded_flow", "recover")
        put("network.parse_dimacs_s", ("parse",), lambda: inc["parse"], "s")
        put("network.symmetrize_s", ("symmetrize",), lambda: inc["symmetrize"], "s")
        put("driver.self_s", solve_parts, lambda: own["solve"] + inc["trace_record"], "s")
        put("driver.probes", ("bounded_flow",), lambda: len(outcomes()), "count")
        put("driver.probes_certified", ("bounded_flow",),
            lambda: sum(o == "certified" for o, _ in outcomes()), "count")
        put("driver.probes_unknown", ("bounded_flow",),
            lambda: sum(o == "unknown" for o, _ in outcomes()), "count")
        put("driver.unknown_probe_calls", ("bounded_flow",), lambda: calls_in(("unknown",)), "calls")
        put("driver.useful_call_share", ("bounded_flow",),
            lambda: calls_in(("flow", "certified")) / calls_in(("flow", "certified", "unknown")),
            "ratio")
        put("driver.exact_max_flow_s", ("exact",), lambda: inc["exact"], "s")
        mwu_parts = ("bounded_flow", "oracle_step", "check")
        put("mwu.bounded_flow_s", ("bounded_flow",),
            lambda: inc["bounded_flow"] - inc["trace_record"], "s")
        put("mwu.self_s", mwu_parts, lambda: own["bounded_flow"], "s")
        put("mwu.oracle_step_calls", ("oracle_step",), lambda: calls["oracle_step"], "calls")
        put("mwu.oracle_step_self_s", ("oracle_step", "st_flow"), lambda: own["oracle_step"], "s")
        put("mwu.check_bounded_flow_calls", ("check",), lambda: calls["check"], "calls")
        put("mwu.check_bounded_flow_s", ("check",), lambda: inc["check"], "s")
        put("mwu.calls_per_probe", ("oracle_step", "bounded_flow"),
            lambda: calls["oracle_step"] / len(outcomes()), "calls")
        put("electrical.st_flow_s", ("st_flow",), lambda: inc["st_flow"], "s")
        put("electrical.ms_per_call", ("st_flow",),
            lambda: 1000.0 * inc["st_flow"] / calls["st_flow"], "ms")
        put("electrical.cg_iterations", ("st_flow",), lambda: self.cg_iterations, "count")
        put("electrical.cg_per_call", ("st_flow",),
            lambda: self.cg_iterations / calls["st_flow"], "count")
        put("recovery.calls", ("recover",), lambda: calls["recover"], "calls")
        put("recovery.recover_s", ("recover",), lambda: inc["recover"], "s")
        for part in ("subtract_and_halve", "cycle_cancel", "extract_directed"):
            put(f"recovery.{part}_s", (part,), lambda part=part: inc[part], "s")
        return out
