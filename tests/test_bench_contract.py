"""The benchmark's output contract, checked on one short traced run.

`perfbench/run.py` ends in one details line and one result line.  A strict
JSON parser must accept the result (no ``NaN`` or ``Infinity``), the run
must check every solve correct, and the tracer must have found every layer
it wraps.  This reads `perfbench/` and changes nothing there.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _reject(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_traced_random_run_ends_in_a_strict_result():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) >= 2, done.stdout
    result = json.loads(lines[-1], parse_constant=_reject)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    details = json.loads(lines[-2], parse_constant=_reject)["details"]
    assert details["absent"] == []
