import json
import random
import tracemalloc

import pytest

from emaxflow import DirectedNetwork, approx_max_flow, cli, parse_dimacs
from emaxflow.cli import main
from emaxflow.network import write_dimacs

from corpus import random_network

SINGLE_ARC = "p max 2 1\nn 1 s\nn 2 t\na 1 2 1\n"
GAP = "p max 4 5\nn 1 s\nn 4 t\na 1 2 1\na 1 3 1\na 2 4 1\na 3 4 1\na 3 2 5\n"


def _reject(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.fixture
def single_arc_file(tmp_path):
    path = tmp_path / "single_arc.max"
    path.write_text(SINGLE_ARC)
    return str(path)


class TestSolve:
    def test_solve_with_exact_check(self, single_arc_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--input",
                single_arc_file,
                "--epsilon",
                "0.25",
                "--exact-check",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["ratio"] >= 0.75
        assert report["exact_value"] == 1.0
        stdout = json.loads(capsys.readouterr().out)
        assert stdout == report

    @pytest.mark.parametrize("cap", ["1e160", "1e-13"])
    def test_capacities_far_from_one(self, tmp_path, capsys, cap):
        # Neither the oracle's squared capacities nor the exact solver's
        # saturation test may depend on the capacities' scale.
        path = tmp_path / "path.max"
        path.write_text(f"p max 3 2\nn 1 s\nn 3 t\na 1 2 {cap}\na 2 3 {cap}\n")
        assert main(["solve", "--input", str(path), "--epsilon", "0.25", "--exact-check"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact_value"] == float(cap)
        assert report["ratio"] >= 0.75

    def test_tiny_arc_next_to_a_unit_arc(self, tmp_path, capsys):
        # The unit arc is clamped to the sink cut, 1e-160, so the oracle
        # never squares a capacity that spans 1e160 to zero.
        path = tmp_path / "path.max"
        path.write_text("p max 3 2\nn 1 s\nn 3 t\na 1 2 1\na 2 3 1e-160\n")
        assert main(["solve", "--input", str(path), "--epsilon", "0.25", "--exact-check"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact_value"] == 1e-160
        assert report["ratio"] >= 0.75

    def test_bad_epsilon_is_usage_error(self, single_arc_file):
        assert main(["solve", "--input", single_arc_file, "--epsilon", "0.7"]) == 1

    def test_missing_input_is_input_error(self):
        assert main(["solve", "--input", "missing.max", "--epsilon", "0.2"]) == 2

    def test_unparseable_input_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.max"
        bad.write_text("p max 2 1\nn 1 s\nn 2 t\na 1 3 1\n")
        assert main(["solve", "--input", str(bad), "--epsilon", "0.2"]) == 2

    def test_trace_lines_match_report(self, single_arc_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        report_path = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--input",
                single_arc_file,
                "--epsilon",
                "0.25",
                "--trace",
                str(trace_path),
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        report = json.loads(report_path.read_text())
        assert len(lines) == report["oracle_calls"]
        for rec in lines:
            assert set(rec.keys()) == {
                "probe",
                "iter",
                "energy",
                "threshold",
                "max_cong",
                "weighted_cong",
                "weight_total",
                "energy_lower",
            }

    @pytest.mark.parametrize("flag", ["--trace", "--report"])
    def test_unwritable_output_is_input_error(self, single_arc_file, tmp_path, capsys, flag):
        # The path's directory does not exist: no solve runs, nothing
        # reaches stdout, and the error names the path.
        path = str(tmp_path / "missing" / "out.json")
        code = main(["solve", "--input", single_arc_file, "--epsilon", "0.25", flag, path])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")

    def test_trace_is_strict_json(self, tmp_path, capsys):
        # An instance whose search has energy failures: every line parses
        # without NaN or Infinity, and each failure carries its certificate,
        # a dual bound over the unpadded threshold (eps' = 0.25 / 4).
        instance = tmp_path / "energy.max"
        instance.write_text(write_dimacs(random_network(6)))
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            ["solve", "--input", str(instance), "--epsilon", "0.25", "--trace", str(trace_path)]
        )
        assert code == 0
        capsys.readouterr()
        lines = [json.loads(l, parse_constant=_reject) for l in trace_path.read_text().splitlines()]
        failures = [rec for rec in lines if rec["energy"] > rec["threshold"]]
        assert failures
        for rec in failures:
            assert rec["energy_lower"] > rec["threshold"] / (1 + 0.0625 / 10)


class TestGen:
    def test_deterministic_in_seed(self, tmp_path, capsys):
        assert main(["gen", "--n", "2", "--m", "1", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--n", "2", "--m", "1", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        net = parse_dimacs(first)
        assert net.vertex_count == 2 and net.edge_count == 1
        assert (int(net.tails[0]), int(net.heads[0])) in ((0, 1), (1, 0))

    def test_zero_arcs_valid(self, capsys):
        assert main(["gen", "--n", "5", "--m", "0"]) == 0
        net = parse_dimacs(capsys.readouterr().out)
        assert net.edge_count == 0
        from emaxflow import exact_max_flow

        assert exact_max_flow(net)[0] == 0.0

    def test_impossible_pair_count(self):
        assert main(["gen", "--n", "3", "--m", "7"]) == 1

    def test_output_file(self, tmp_path):
        out = tmp_path / "g.max"
        assert main(["gen", "--n", "4", "--m", "5", "--seed", "3", "--output", str(out)]) == 0
        net = parse_dimacs(out.read_text())
        assert net.vertex_count == 4
        assert net.edge_count == 5
        assert (net.source, net.sink) == (0, 3)

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "g.max")
        assert main(["gen", "--n", "4", "--m", "5", "--output", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")

    def test_matches_the_explicit_pair_list(self, capsys):
        # Sampling pair indices gives the file that sampling the list of all
        # n(n-1) ordered pairs gives, for every (n, m, seed).
        for n in (2, 3, 5, 8):
            limit = n * (n - 1)
            for m in sorted({0, 1, limit // 2, limit - 1, limit}):
                for seed in range(3):
                    rng = random.Random(seed)
                    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
                    arcs = [(u, v, rng.randint(1, 10)) for u, v in rng.sample(pairs, m)]
                    want = write_dimacs(DirectedNetwork(n, arcs, 0, n - 1))
                    args = ["gen", "--n", str(n), "--m", str(m), "--seed", str(seed)]
                    assert main(args) == 0
                    assert capsys.readouterr().out == want

    def test_memory_does_not_grow_with_the_pair_count(self, tmp_path):
        # 3,000 vertices have about 9 million ordered pairs; five arcs must
        # not build them.
        out = tmp_path / "g.max"
        tracemalloc.start()
        try:
            assert main(["gen", "--n", "3000", "--m", "5", "--output", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert parse_dimacs(out.read_text()).edge_count == 5


class TestVerify:
    def test_single_arc_identity_holds(self, single_arc_file, capsys):
        # 4.0 == (2 + 0.5) * 1 + 1.5 for this two-layer instance, the
        # upper bound; the lower bound is (2 + 1) * 1 + 1 = 4.0 as well
        code = main(["verify", "--input", single_arc_file, "--epsilon", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "4" in out

    def test_empty_graph_passes(self, tmp_path):
        path = tmp_path / "empty.max"
        path.write_text("p max 2 0\nn 1 s\nn 2 t\n")
        assert main(["verify", "--input", str(path), "--epsilon", "0.25"]) == 0

    def test_entering_arc_within_bounds(self, tmp_path, capsys):
        # A heavy arc enters the source side of a minimum cut, so the
        # undirected value 15.4 falls below the closed form 17.4, but it
        # stays within (2+2eps) F* + U = 14.6 and passes.
        path = tmp_path / "gap.max"
        path.write_text(GAP)
        assert main(["verify", "--input", str(path), "--epsilon", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "15.4" in out and "[14.6, 17.4]" in out

    def test_wrong_undirected_value_exits_4(self, tmp_path, monkeypatch):
        path = tmp_path / "gap.max"
        path.write_text(GAP)
        for wrong in (14.5, 17.5):
            monkeypatch.setattr(
                cli, "undirected_max_flow_witness", lambda net, v=wrong: (v, None)
            )
            assert main(["verify", "--input", str(path), "--epsilon", "0.4"]) == 4

    def test_long_path(self, tmp_path):
        # 1,500 vertices: deeper than the interpreter's recursion limit.
        path = tmp_path / "path.max"
        arcs = "".join(f"a {i} {i + 1} 1\n" for i in range(1, 1500))
        path.write_text(f"p max 1500 1499\nn 1 s\nn 1500 t\n{arcs}")
        assert main(["verify", "--input", str(path), "--epsilon", "0.25"]) == 0

    def test_valid_certificate(self, single_arc_file, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"value": 1.0, "arc_flows": [1.0]}))
        code = main(
            [
                "verify",
                "--input",
                single_arc_file,
                "--epsilon",
                "0.5",
                "--certificate",
                str(cert),
            ]
        )
        assert code == 0

    def _verify_certificate(self, single_arc_file, tmp_path, text):
        cert = tmp_path / "cert.json"
        cert.write_text(text)
        return main(
            ["verify", "--input", single_arc_file, "--epsilon", "0.5", "--certificate", str(cert)]
        )

    @pytest.mark.parametrize(
        "cert",
        [
            {"arc_flows": [float("nan")]},
            {"arc_flows": [float("inf")]},
            {"value": float("nan"), "arc_flows": [1.0]},
            {"value": float("-inf"), "arc_flows": [1.0]},
            {"arc_flows": [10**400]},
            {"value": -(10**400), "arc_flows": [1.0]},
            '{"arc_flows": [1e400]}',
        ],
        ids=["nan-flow", "inf-flow", "nan-value", "inf-value", "huge-int-flow",
             "huge-int-value", "huge-float-flow"],
    )
    def test_non_finite_certificate_exits_4(self, single_arc_file, tmp_path, cert):
        # Every comparison with NaN is false, so only an explicit check
        # keeps a NaN flow from passing as valid.  A number literal too
        # large for a float, integer or not, is read as infinite.
        text = cert if isinstance(cert, str) else json.dumps(cert)
        assert self._verify_certificate(single_arc_file, tmp_path, text) == 4

    @pytest.mark.parametrize(
        "text",
        [
            "[1.0]",
            '{"arc_flows": 1.0}',
            '{"arc_flows": ["1.0"]}',
            '{"arc_flows": [[1.0]]}',
            '{"value": "1", "arc_flows": [1.0]}',
            '{"value": null, "arc_flows": [1.0]}',
            '{"arc_flows": [1.0',
        ],
        ids=["list", "scalar-flows", "string-flow", "nested-flow", "string-value",
             "null-value", "truncated"],
    )
    def test_malformed_certificate_is_input_error(self, single_arc_file, tmp_path, text):
        assert self._verify_certificate(single_arc_file, tmp_path, text) == 2

    def test_certificate_lists_the_kept_arcs(self, tmp_path, capsys):
        # The self-loop is dropped, so the flows are those of the other two
        # arcs, in file order.
        path = tmp_path / "loop.max"
        path.write_text("p max 3 3\nn 1 s\nn 3 t\na 1 2 1\na 2 2 4\na 2 3 1\n")
        cert = tmp_path / "cert.json"
        args = ["verify", "--input", str(path), "--epsilon", "0.5", "--certificate", str(cert)]
        cert.write_text(json.dumps({"value": 1.0, "arc_flows": [1.0, 0.0, 1.0]}))
        assert main(args) == 4
        assert "leaving out self-loops and zero-capacity arcs" in capsys.readouterr().err
        cert.write_text(json.dumps({"value": 1.0, "arc_flows": [1.0, 1.0]}))
        assert main(args) == 0

    def test_corrupted_certificate_exits_4(self, single_arc_file, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"value": 2.0, "arc_flows": [2.0]}))
        code = main(
            [
                "verify",
                "--input",
                single_arc_file,
                "--epsilon",
                "0.5",
                "--certificate",
                str(cert),
            ]
        )
        assert code == 4

    def test_tiny_capacities_hold_the_certificate_to_scale(self, tmp_path, capsys):
        # A million times the capacity on each arc is no small excess; the
        # solver's own flow on the same path still verifies.
        path = tmp_path / "path.max"
        path.write_text("p max 3 2\nn 1 s\nn 3 t\na 1 2 1e-13\na 2 3 1e-13\n")
        cert = tmp_path / "cert.json"
        args = ["verify", "--input", str(path), "--epsilon", "0.25", "--certificate", str(cert)]
        cert.write_text(json.dumps({"value": 1e-7, "arc_flows": [1e-7, 1e-7]}))
        assert main(args) == 4
        assert "exceeds capacity on arc 0" in capsys.readouterr().err
        result, _ = approx_max_flow(parse_dimacs(path.read_text()), 0.25)
        flows = result.directed_flow.values.tolist()
        cert.write_text(json.dumps({"value": result.value, "arc_flows": flows}))
        assert main(args) == 0
        assert "certificate: valid" in capsys.readouterr().out


GUARD = """
import sys
import emaxflow
from emaxflow.cli import main

net = emaxflow.parse_dimacs(sys.argv[2])
result, report = emaxflow.approx_max_flow(net, 0.25, exact_check=True)
assert result.value > 0 and report.exact_value == 2.0
instance = sys.argv[1]
codes = [
    main(["gen", "--n", "12", "--m", "40", "--seed", "3", "--output", instance]),
    main(["solve", "--input", instance, "--epsilon", "0.25", "--exact-check"]),
    main(["verify", "--input", instance, "--epsilon", "0.25"]),
]
print(codes, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_program_runs_without_scipy(tmp_path):
    # In a fresh process, so that no test's own SciPy import counts.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import emaxflow

    env = dict(os.environ, PYTHONPATH=str(Path(emaxflow.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", GUARD, str(tmp_path / "gen.max"), GAP],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] []"
