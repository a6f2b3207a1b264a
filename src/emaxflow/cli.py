"""Command-line frontend: solve, gen, and verify subcommands.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 internal
invariant violation, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional, Sequence

import numpy as np

from .driver import approx_max_flow, exact_max_flow, undirected_max_flow_witness
from .network import (
    DimacsParseError,
    DirectedNetwork,
    FlowAssignment,
    parse_dimacs,
    symmetrize,
    write_dimacs,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_VERIFY = 4


def _load_network(path: str) -> DirectedNetwork:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_dimacs(fp)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cmd_solve(args: argparse.Namespace) -> int:
    if not (0.0 < args.epsilon < 0.5):
        print(f"error: epsilon must lie in (0, 1/2), got {args.epsilon}", file=sys.stderr)
        return EXIT_USAGE
    try:
        network = _load_network(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DimacsParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    trace_fp = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        result, report = approx_max_flow(
            network,
            args.epsilon,
            exact_check=args.exact_check,
            instance=args.input,
            on_trace=(lambda rec: trace_fp.write(json.dumps(rec) + "\n")) if trace_fp else None,
        )
    finally:
        if trace_fp:
            trace_fp.close()

    payload = json.dumps(report.to_dict(), indent=2)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fp:
            fp.write(payload + "\n")
    print(payload)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    if n < 2:
        print("error: need n >= 2", file=sys.stderr)
        return EXIT_USAGE
    if m < 0:
        print("error: need m >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.max_capacity < 1:
        print("error: need max capacity >= 1", file=sys.stderr)
        return EXIT_USAGE
    limit = n * (n - 1)
    if m > limit:
        print(f"error: m={m} exceeds the {limit} ordered pairs on {n} vertices", file=sys.stderr)
        return EXIT_USAGE
    rng = random.Random(args.seed)
    # Sample indices into the row-major list of ordered pairs (u, v), u != v,
    # without building it: pair k has u = k // (n-1), v the (k % (n-1))-th other vertex.
    pairs = [divmod(k, n - 1) for k in rng.sample(range(limit), m)]
    arcs = [(u, j + (j >= u), rng.randint(1, args.max_capacity)) for u, j in pairs]
    network = DirectedNetwork(n, arcs, source=0, sink=n - 1)
    text = write_dimacs(network)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_certificate(path: str) -> tuple[np.ndarray, Optional[float]]:
    """Arc flows and declared value (None if absent); ValueError unless the
    file is a JSON object whose ``arc_flows`` and ``value`` are numbers.
    Integers are read as floats: one too large is infinite, as ``1e400`` is."""
    with open(path, "r", encoding="utf-8") as fp:
        cert = json.load(fp, parse_int=float)
    if not isinstance(cert, dict):
        raise ValueError("a certificate is a JSON object")
    flows, value = cert.get("arc_flows", []), cert.get("value", 0.0)
    if not (isinstance(flows, list) and all(type(x) is float for x in flows + [value])):
        raise ValueError("arc_flows must be a list of numbers, and value a number")
    return np.asarray(flows, dtype=np.float64), (value if "value" in cert else None)


def _check_certificate(
    network: DirectedNetwork, flows: np.ndarray, declared: Optional[float]
) -> Optional[str]:
    """Validate a certificate's flows and value; returns an error message or None."""
    if flows.shape != (network.edge_count,):
        return f"certificate has {flows.shape} arc flows, expected {network.edge_count}"
    if not (np.isfinite(flows).all() and (declared is None or np.isfinite(declared))):
        return "certificate carries a non-finite number"
    tol = 1e-6 * max(1.0, float(network.capacities.max()) if network.edge_count else 1.0)
    if (flows < -tol).any():
        return "certificate carries negative arc flow"
    if (flows > network.capacities + tol).any():
        k = int(np.argmax(flows - network.capacities))
        return f"certificate exceeds capacity on arc {k}"
    flow = FlowAssignment(network, flows)
    if flow.interior_residual_max() > tol:
        return "certificate violates conservation"
    outflow = flow.source_outflow()
    if declared is not None and abs(declared - outflow) > tol:
        return (
            f"certificate value {declared:.6g} does not match "
            f"its net source outflow {outflow:.6g}"
        )
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    if not (0.0 < args.epsilon <= 0.5):
        print(f"error: epsilon must lie in (0, 1/2], got {args.epsilon}", file=sys.stderr)
        return EXIT_USAGE
    try:
        network = _load_network(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DimacsParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    exact, _ = exact_max_flow(network)
    eps = args.epsilon
    total = network.total_capacity()
    # The undirected max flow is min_S [(2+eps) leaving(S) - eps entering(S)]
    # + (1+eps) U.  Every cut has leaving(S) >= F* and entering(S) <=
    # U - leaving(S), and a minimum directed cut has leaving(S) = F*.
    lower = (2.0 + 2.0 * eps) * exact + total
    upper = (2.0 + eps) * exact + (1.0 + eps) * total
    if network.edge_count > 0:
        undirected, _ = undirected_max_flow_witness(symmetrize(network, eps))
    else:
        undirected = 0.0
    print(f"exact directed max flow:    {_fmt(exact)}")
    print(f"undirected max flow:        {_fmt(undirected)}")
    print(f"reduction bounds:           [{_fmt(lower)}, {_fmt(upper)}]")
    slack = 1e-6 * max(1.0, upper)
    ok = lower - slack <= undirected <= upper + slack
    if not ok:
        print(
            f"REDUCTION BOUND VIOLATION: undirected {_fmt(undirected)} outside "
            f"[{_fmt(lower)}, {_fmt(upper)}]",
            file=sys.stderr,
        )
    if args.certificate:
        try:
            flows, declared = _read_certificate(args.certificate)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            print(f"error: cannot read certificate: {exc}", file=sys.stderr)
            return EXIT_INPUT
        problem = _check_certificate(network, flows, declared)
        if problem:
            print(f"CERTIFICATE INVALID: {problem}", file=sys.stderr)
            return EXIT_VERIFY
        print("certificate: valid")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emaxflow",
        description="Approximate directed max flow via electrical flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="approximately solve a DIMACS instance")
    p_solve.add_argument("--input", required=True, help="DIMACS max-flow file")
    p_solve.add_argument("--epsilon", type=float, default=0.1)
    p_solve.add_argument("--exact-check", action="store_true", dest="exact_check")
    p_solve.add_argument("--report", help="write the JSON report here")
    p_solve.add_argument("--trace", help="write per-iteration JSON-lines trace here")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random DIMACS instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--max-capacity", type=int, default=10, dest="max_capacity")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", help="write the instance here (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="check the reduction bounds and certificates")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--epsilon", type=float, default=0.1)
    p_verify.add_argument("--certificate", help="JSON flow certificate to validate")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
