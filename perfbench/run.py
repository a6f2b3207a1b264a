#!/usr/bin/env python3
"""Benchmark of emaxflow: time to a feasible (1 - eps) flow, end to end and
layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload random --seed 1 --seconds 45 --trace 0

One run builds the workload's instances from the seed (see
`workloads.py`), then solves them in whole rounds, each round every
instance once, until another round would end the run after ``--seconds``.
Each solve of a plain round runs in a fresh worker process of its own
(`worker.py`), one at a time, so a run's time is a median over several
processes rather than the speed of one.  Every solve is checked here
against a reference computed apart from the program (see `checks.py`).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the machine's details and the run's make-up.

``--trace 0`` wraps nothing and reports the end-to-end metrics.
``--trace 1`` alternates plain rounds with rounds under `tracing.Tracer`
and reports the per-layer metrics, with the tracing overhead.

The program is driven only through its public functions, by one worker
process at a time, with the BLAS thread count pinned to `BLAS_THREADS`.
"""

import os

BLAS_THREADS = 1
# OpenBLAS reads these when it is loaded, so they are set before NumPy is
# imported here or in a child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

#: Set-up is timed this many times in fresh processes; the median is reported.
SETUP_REPEATS = 5

# What a fresh process does in set-up: import the program, then parse every
# DIMACS text given on standard input, separated by NUL bytes.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import emaxflow
for text in sys.stdin.read().split("\\0"):
    emaxflow.parse_dimacs(text)
print("parsed", flush=True)
"""


def time_setup(instances) -> float:
    """Seconds from starting a fresh process until it has imported the
    program and parsed every instance of the workload."""
    payload = "\0".join(inst.dimacs for inst in instances).encode()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    ) as child:
        child.stdin.write(payload)
        child.stdin.close()
        line = child.stdout.readline()
        took = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != b"parsed":
        raise RuntimeError(f"set-up process failed with exit code {child.returncode}")
    return took


def blas_threads_in_use():
    """The thread count the loaded OpenBLAS reports, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_details() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
    }


#: A worker still busy this long after the run started is stopped, and each
#: of its solves counts as failed, so that a run ends within 180 s.
RUN_LIMIT_S = 170


def run_worker(instances, traced: bool, timeout: float = RUN_LIMIT_S):
    """Solve ``instances`` in one fresh worker process (`worker.py`); its
    report, or None if it failed as a whole."""
    request = json.dumps([{"dimacs": inst.dimacs, "epsilon": inst.epsilon} for inst in instances])
    command = [sys.executable, str(HERE / "worker.py"), str(SRC)] + (["--trace"] if traced else [])
    try:
        done = subprocess.run(
            command, input=request, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"worker stopped after {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        print(f"worker failed with exit code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


class Workload:
    """The instances of one run and their references."""

    def __init__(self, checks, instances, deadline: float):
        self.checks = checks
        self.instances = instances
        self.deadline = deadline
        self.f_star = []
        self.st_vertices = []
        self.reference_problems = []
        for inst in instances:
            self.st_vertices.append(
                checks.st_vertex_count(inst.n, inst.source, inst.sink, inst.tails, inst.heads)
            )
            f_star = checks.reference_max_flow(
                inst.n, inst.source, inst.sink, inst.tails, inst.heads, inst.capacities
            )
            if inst.bipartite is not None:
                matched = checks.reference_matching(*inst.bipartite, inst.tails, inst.heads)
                if matched != f_star:
                    self.reference_problems.append(
                        f"{inst.name}: max flow {f_star} but maximum matching {matched}"
                    )
            self.f_star.append(f_star)

    def time_left(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def round(self, traced: bool) -> dict:
        """Solve every instance once and check each solve.  A plain round
        solves each instance in a fresh worker process of its own; a traced
        round solves them all in one worker under the tracer."""
        if traced:
            reports = [run_worker(self.instances, traced=True, timeout=self.time_left())]
            entries = reports[0]["results"] if reports[0] else [None] * len(self.instances)
        else:
            reports = [
                run_worker([inst], traced=False, timeout=self.time_left()) for inst in self.instances
            ]
            entries = [report["results"][0] if report else None for report in reports]
        times, raw = [], []
        calls = 0
        ratios = []
        failed = 0
        for inst, f_star, entry in zip(self.instances, self.f_star, entries):
            timed = entry is not None and "reference_s" in entry
            raw.append([entry["seconds"], entry["reference_s"]] if timed else None)
            times.append(
                entry["seconds"] * reference.REFERENCE_S / entry["reference_s"] if timed else None
            )
            if entry is None or "error" in entry:
                if entry is not None:
                    print(f"{inst.name}: {entry['error']}", file=sys.stderr)
                failed += 1
                continue
            problems = self.checks.flow_problems(
                inst.n, inst.source, inst.sink, inst.tails, inst.heads, inst.capacities,
                entry["flows"], entry["claimed"], f_star, inst.epsilon,
            )
            if "exact" in entry and abs(entry["exact"] - f_star) > self.checks.RTOL * max(1.0, f_star):
                problems.append(f"exact_max_flow gives {entry['exact']!r}, reference {f_star}")
            if problems:
                print(f"{inst.name}: " + "; ".join(problems), file=sys.stderr)
                failed += 1
                continue
            calls += entry["oracle_calls"]
            ratios.append(entry["claimed"][0] / f_star)
        alive = [r for r in reports if r is not None]
        return {
            "instance_s": times,
            "raw_s": raw,
            "oracle_calls": calls,
            "value_ratio": statistics.fmean(ratios) if ratios else None,
            "peak_rss_mb": max((r["peak_rss_mb"] for r in alive), default=None),
            "solve_rss_mb": max((r["peak_rss_mb"] - r["rss_before_mb"] for r in alive), default=None),
            "layers": alive[0].get("layers", {}) if traced and alive else {},
            "absent": alive[0].get("absent", []) if traced and alive else [],
            "attempted": len(self.instances),
            "failed": failed,
        }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.CORPUS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def solve_s(rounds):
    """Time of one pass of solves: for each instance the median of its
    solve times over ``rounds``, summed over the instances; None if an
    instance has no time."""
    columns = zip(*(r["instance_s"] for r in rounds))
    columns = [[t for t in column if t is not None] for column in columns]
    if not all(columns):
        return None
    return sum(statistics.median(column) for column in columns)


def median_of(rounds, key):
    values = [r[key] for r in rounds if r[key] is not None]
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "emaxflow" / "__init__.py").is_file():
        print(f"error: the program's source is missing at {SRC}", file=sys.stderr)
        return 2

    instances = workloads.workload(args.workload, args.seed)
    if not args.trace:
        # Each set-up is scaled by the reference loop timed before and
        # after it.
        references = [reference.reference_s()]
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(time_setup(instances))
            references.append(reference.reference_s())
        setup_s = statistics.median(
            took * reference.REFERENCE_S / ((before + after) / 2)
            for took, before, after in zip(setups, references, references[1:])
        )

    import checks

    work = Workload(checks, instances, deadline=start + RUN_LIMIT_S)

    # Whole rounds until another, as slow as the slowest so far, would end
    # the run after --seconds counted from its start, set-up included; a
    # traced run alternates a plain and a traced round.
    plain, traced = [], []
    slowest = 0.0
    while True:
        round_start = time.perf_counter()
        plain.append(work.round(traced=False))
        if args.trace:
            traced.append(work.round(traced=True))
        slowest = max(slowest, time.perf_counter() - round_start)
        if time.perf_counter() - start + slowest > args.seconds:
            break

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and not work.reference_problems
    for problem in work.reference_problems:
        print(f"reference disagrees: {problem}", file=sys.stderr)

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        metrics["solve_s"] = (solve_s(plain), "s")
        metrics["oracle_calls"] = (median_of(plain, "oracle_calls"), "calls")
        metrics["value_ratio"] = (median_of(plain, "value_ratio"), "ratio")
        metrics["peak_rss_mb"] = (median_of(plain, "peak_rss_mb"), "MB")
        metrics["solve_rss_mb"] = (median_of(plain, "solve_rss_mb"), "MB")
    else:
        layer_rounds = [r["layers"] for r in traced]
        for name in sorted(set().union(*layer_rounds)):
            values = [m[name][0] for m in layer_rounds if name in m]
            if len(values) == len(layer_rounds):
                metrics[name] = (statistics.median(values), layer_rounds[0][name][1])
        if solve_s(traced) is not None and solve_s(plain) is not None:
            metrics["trace.overhead_s"] = (solve_s(traced) - solve_s(plain), "s")

    details = machine_details()
    details.update(
        workload=args.workload,
        seed=args.seed,
        instances=[inst.name for inst in instances],
        f_star=work.f_star,
        st_vertices=work.st_vertices,
        rounds=len(plain),
        traced_rounds=len(traced),
        plain_instance_s=[r["instance_s"] for r in plain],
        traced_instance_s=[r["instance_s"] for r in traced],
        plain_seconds_and_reference_s=[r["raw_s"] for r in plain],
        absent=sorted(set().union(*(r["absent"] for r in traced))),
    )
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if value is not None
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
