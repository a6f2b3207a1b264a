"""Digest of what the program returns on the benchmark's workloads.

    python3 tests/bench_digest.py [--src DIR] [--seeds N] [--c6]

Solves every instance of seeds 1..N (10 by default) of the three
`perfbench` workloads with `approx_max_flow`, in one process, and prints
per workload the solves, the oracle calls they counted, the electrical
solves they made and one SHA-256 over its solves' arc flows, values,
``oracle_calls``, ``upper_bound``, ``search_iterations`` and
``fail_count``; then one SHA-256 over every solve of every workload.  Two
trees whose digests match return the same solves bit for bit, and a
change that moves only one workload's bits leaves the others' digests as
they were.  ``--c6`` solves the 50 instances of acceptance criterion 6
(`corpus.criterion6_corpus`) instead, with the exact check, and prints
their oracle calls, probes, mean and least ``F/F*``, the instances below
``(1 - eps) F*`` and one SHA-256 over the same figures of every solve.
``--src`` picks the ``src/`` directory to import the program from, this
checkout's by default; the instances always come from this checkout's
``perfbench/workloads.py`` and ``tests/corpus.py``, which are only
imported.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _update(digests, result, report) -> None:
    figures = (result.value, report.approx_value, report.oracle_calls,
               report.upper_bound, report.search_iterations, report.fail_count)
    for h in digests:
        h.update(result.directed_flow.values.tobytes())
        h.update(repr(figures).encode())


def _c6(emaxflow, corpus) -> None:
    digest = hashlib.sha256()
    calls = probes = 0
    ratios, misses = [], []
    for i, (seed, n, m) in enumerate(corpus.criterion6_corpus()):
        eps = (0.1, 0.25)[i % 2]
        network = corpus.random_sized_network(1_000 + seed, n, m)
        result, report = emaxflow.approx_max_flow(network, eps, exact_check=True)
        calls += report.oracle_calls
        probes += report.search_iterations
        fstar = report.exact_value
        ratios.append(result.value / fstar if fstar > 0 else 1.0)
        if fstar > 0 and result.value < (1 - eps) * fstar - 1e-9:
            misses.append(i)
        _update([digest], result, report)
    print(f"c6: {len(ratios)} solves, {calls} oracle calls, {probes} probes, "
          f"F/F* mean {sum(ratios) / len(ratios):.4f} least {min(ratios):.4f}, "
          f"misses {misses}, sha256 {digest.hexdigest()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(REPO / "src"))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--c6", action="store_true")
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(REPO / "perfbench"), str(REPO / "tests")]
    import emaxflow
    import emaxflow.mwu as mwu

    if args.c6:
        import corpus

        _c6(emaxflow, corpus)
        return 0

    import workloads

    solves = 0
    st_flow = mwu.electrical_st_flow

    def counted(*a, **kw):
        nonlocal solves
        solves += 1
        return st_flow(*a, **kw)

    mwu.electrical_st_flow = counted
    digest = hashlib.sha256()
    for name in workloads.CORPUS:
        solves = calls = 0
        own = hashlib.sha256()
        seeds = range(1, args.seeds + 1)
        instances = [inst for seed in seeds for inst in workloads.workload(name, seed)]
        for inst in instances:
            network = emaxflow.parse_dimacs(inst.dimacs)
            result, report = emaxflow.approx_max_flow(network, inst.epsilon)
            calls += report.oracle_calls
            _update([digest, own], result, report)
        print(f"{name}: {len(instances)} solves, {calls} oracle calls, "
              f"{solves} electrical solves, sha256 {own.hexdigest()}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
