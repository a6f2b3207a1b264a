"""One worker process of the benchmark: solve the instances it is given and
report what the program returned.

    python3 perfbench/worker.py SRC [--trace] < request.json

The request on standard input is a JSON list of ``{"dimacs", "epsilon"}``
objects.  The worker imports the program from ``SRC``, parses every
instance, then solves each with `approx_max_flow`, timing each solve alone.
With ``--trace`` it solves under `tracing.Tracer`, also parses each
instance and runs `exact_max_flow` inside the tracer, and reports the
per-layer metrics.  It times `reference.reference_s` before and after each
solve.  It prints one JSON object: a result for each instance (its solve
time, the mean of the two reference times, oracle calls, values and arc
flows, or the error it raised), and its own peak resident memory before
and after the solves.
The checks are made by the caller, apart from this process.
"""

import json
import sys
import time
import traceback

import reference

def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB: the high-water
    mark of its own address space.  Not ``ru_maxrss``, which Linux carries
    over from the parent's address space when a process is started, so
    that it would start at the peak of the process that ran this one."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    traced = "--trace" in sys.argv[2:]
    import emaxflow

    request = json.load(sys.stdin)
    networks = [emaxflow.parse_dimacs(inst["dimacs"]) for inst in request]
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    # A first, untimed pass of the reference loop warms it up, and puts its
    # own memory into the peak before the solves.
    reference.reference_s()
    rss_before_mb = peak_rss_mb()
    results = []
    for inst, net in zip(request, networks):
        reference_before = reference.reference_s()
        start = time.perf_counter()
        try:
            result, report = emaxflow.approx_max_flow(net, inst["epsilon"])
        except Exception:
            results.append({"seconds": time.perf_counter() - start, "error": traceback.format_exc()})
            continue
        seconds = time.perf_counter() - start
        entry = {
            "seconds": seconds,
            "reference_s": (reference_before + reference.reference_s()) / 2,
            "oracle_calls": int(report.oracle_calls),
            "claimed": [float(result.value), float(report.approx_value)],
            "flows": [float(f) for f in result.directed_flow.values],
        }
        if tracer is not None:
            emaxflow.parse_dimacs(inst["dimacs"])
            entry["exact"] = float(emaxflow.exact_max_flow(net)[0])
        results.append(entry)
    out = {
        "results": results,
        "rss_before_mb": rss_before_mb,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = {name: list(value) for name, value in tracer.metrics().items()}
        out["absent"] = sorted(tracer.absent)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
