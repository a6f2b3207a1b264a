"""Digest of what the program returns on the benchmark's workloads.

    python3 tests/bench_digest.py [--src DIR] [--seeds N]

Solves every instance of seeds 1..N (10 by default) of the three
`perfbench` workloads with `approx_max_flow`, in one process, and prints
per workload the solves, the oracle calls they counted and the electrical
solves they made, then one SHA-256 over every solve's arc flows, values,
``oracle_calls``, ``upper_bound``, ``search_iterations`` and
``fail_count``.  Two trees whose digests match return the same solves bit
for bit.  ``--src`` picks the ``src/`` directory to import the program
from, this checkout's by default; the instances always come from this
checkout's ``perfbench/workloads.py``, which is only imported.  Pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(REPO / "src"))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(REPO / "perfbench")]
    import emaxflow
    import emaxflow.mwu as mwu
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
        seeds = range(1, args.seeds + 1)
        instances = [inst for seed in seeds for inst in workloads.workload(name, seed)]
        for inst in instances:
            network = emaxflow.parse_dimacs(inst.dimacs)
            result, report = emaxflow.approx_max_flow(network, inst.epsilon)
            calls += report.oracle_calls
            digest.update(result.directed_flow.values.tobytes())
            figures = (result.value, report.approx_value, report.oracle_calls,
                       report.upper_bound, report.search_iterations, report.fail_count)
            digest.update(repr(figures).encode())
        print(f"{name}: {len(instances)} solves, {calls} oracle calls, "
              f"{solves} electrical solves")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
