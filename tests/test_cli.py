"""End-to-end tests of the command-line front end via subprocess."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from poakit import TraceFailure, cli

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, f"{name}.json")


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "poakit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def fig1_trace_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "fig1_trace.json"
    code, _, err = run_cli("trace", "--network", fixture("fig1"),
                           "--max-demand", "10", "--output", str(out))
    assert code == 0, err
    return out


class TestCommands:
    def test_trace_reports_breakpoints(self, fig1_trace_file):
        doc = json.loads(fig1_trace_file.read_text(encoding="utf-8"))
        mus = [b["mu"] for b in doc["trace"]["breakpoints"]]
        assert np.allclose(mus, [1, 2, 3, 4, 7], atol=1e-6)
        assert doc["trace"]["complete"]
        assert doc["meta"]["tolerances"] == {}

    def test_solve_reports_ratio_one(self):
        code, out, err = run_cli("solve", "--network", fixture("parallel_quad"),
                                 "--demand", "3")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["poa"] == 1.0
        assert doc["kind"] == "equilibrium"
        assert doc["demand"] == 3.0
        # flows add up to the demand and the meta records the defaults
        assert sum(p["flow"] for p in doc["paths"]) == pytest.approx(3.0)
        assert doc["meta"]["tolerances"]["max_iter"] == 10 ** 6

    def test_sweep_csv_contract(self):
        code, out, err = run_cli("sweep", "--network", fixture("fig1"),
                                 "--from", "0.1", "--to", "12",
                                 "--samples", "100")
        assert code == 0, err
        lines = out.split("\n")
        assert lines[0] == "mu,lambda,sc_eq,sc_opt,poa,active_set_hash"
        rows = [l for l in lines[1:] if l]
        assert len(rows) >= 100
        first = rows[0].split(",")
        assert float(first[0]) == pytest.approx(0.1)
        assert float(rows[-1].split(",")[0]) == pytest.approx(12.0)

    def test_sweep_json_format(self):
        code, out, err = run_cli("sweep", "--network", fixture("fig1"),
                                 "--from", "1", "--to", "3", "--samples", "5",
                                 "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert len(doc["rows"]) == 5
        assert set(doc["rows"][0]) == {"mu", "lambda", "sc_eq", "sc_opt",
                                       "poa", "active_set_hash"}

    def test_adaptive_sweep_adds_rows(self):
        code, out, err = run_cli("sweep", "--network", fixture("fig1"),
                                 "--from", "0.5", "--to", "2.5",
                                 "--samples", "6", "--adaptive",
                                 "--format", "json")
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert len(rows) > 6
        mus = [r["mu"] for r in rows]
        assert mus == sorted(mus)

    def test_optimum_command(self):
        code, out, err = run_cli("optimum", "--network", fixture("nested2"),
                                 "--demand", "6")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["kind"] == "optimum"
        # equilibrium cost is 96 and the ratio there is 384/303
        assert doc["social_cost"] == pytest.approx(96 * 303 / 384, rel=1e-8)

    def test_breakpoints_command(self):
        code, out, err = run_cli("breakpoints", "--network", fixture("nested2"))
        assert code == 0, err
        doc = json.loads(out)
        eq = [b["mu"] for b in doc["breakpoints"]]
        opt = [b["mu"] for b in doc["optimum_breakpoints"]]
        assert np.allclose(eq, [1, 2, 6, 14, 15, 20], atol=1e-6)
        assert np.allclose(opt, np.array(eq) / 2.0, atol=1e-12)
        assert doc["complete"] is True
        for row in doc["breakpoints"]:
            assert row["active_before"] != row["active_after"]

    def test_analyze_command(self):
        code, out, err = run_cli("analyze", "--network", fixture("fig1"))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["max"]["mu"] == pytest.approx(4.0, abs=1e-6)
        assert doc["max"]["value"] == pytest.approx(360 / 311, abs=1e-9)
        assert doc["max"]["at_breakpoint"] is True
        shapes = {p["shape"] for p in doc["pieces"]}
        assert shapes <= {"constant", "increasing", "decreasing", "valley"}
        assert doc["merged_breakpoints"] == sorted(doc["merged_breakpoints"])

    def test_verify_round_trip(self, fig1_trace_file):
        code, out, err = run_cli("verify", "--network", fixture("fig1"),
                                 "--trace", str(fig1_trace_file))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["violations"] == []
        n_segments = 6
        assert doc["checked"] == 5 * n_segments

    # fig1's trace is verified by test_verify_round_trip
    @pytest.mark.parametrize("name, max_demand", [
        ("nested2", "25"), ("nested3", "260"), ("braess_direct", "10")])
    def test_verify_trace_of_affine_fixture(self, tmp_path, name, max_demand):
        trace_file = tmp_path / "trace.json"
        code, _, err = run_cli("trace", "--network", fixture(name),
                               "--max-demand", max_demand, "--output", str(trace_file))
        assert code == 0, err
        n_segments = len(json.loads(trace_file.read_text(encoding="utf-8"))["trace"]["segments"])
        code, out, err = run_cli("verify", "--network", fixture(name),
                                 "--trace", str(trace_file))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["checked"] == 5 * n_segments

    def test_affine_analyze_runs_without_frank_wolfe(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Frank-Wolfe called on an affine instance")

        monkeypatch.setattr("poakit.equilibrium._frank_wolfe", refuse)
        out = tmp_path / "analyze.json"
        assert cli.main(["analyze", "--network", fixture("nested3"),
                         "--output", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert len(doc["eq_breakpoints"]) == 14
        assert doc["max"]["value"] == pytest.approx(1.267327, abs=1e-6)

    def test_verify_fresh_solve(self):
        code, out, err = run_cli("verify", "--network", fixture("nested2"),
                                 "--demand", "4")
        assert code == 0, err
        assert json.loads(out)["ok"] is True


class TestDeterminism:
    def test_solve_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _, err = run_cli("solve", "--network", fixture("nested2"),
                                   "--demand", "6", "--output", str(out))
            assert code == 0, err
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_stdout_matches_output_file(self, tmp_path):
        args = ("sweep", "--network", fixture("fig1"),
                "--from", "1", "--to", "5", "--samples", "9")
        code, out, _ = run_cli(*args)
        assert code == 0
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(*args, "--output", str(path))
        assert code == 0
        assert path.read_text(encoding="utf-8") == out


class TestExitCodes:
    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [,]', encoding="utf-8")
        code, _, err = run_cli("solve", "--network", str(bad), "--demand", "1")
        assert code == 1
        assert "line" in err and "column" in err

    def test_missing_file_is_input_error(self):
        code, _, err = run_cli("solve", "--network", "/nonexistent/net.json",
                               "--demand", "1")
        assert code == 1

    def test_nonpositive_demand_is_input_error(self):
        code, _, err = run_cli("solve", "--network", fixture("fig1"),
                               "--demand", "0")
        assert code == 1
        assert "positive" in err

    def test_unknown_flag_is_input_error(self):
        code, _, _ = run_cli("solve", "--network", fixture("fig1"),
                             "--demand", "1", "--bogus")
        assert code == 1

    def test_exhausted_budget_is_solver_failure(self):
        # parallel_quad is not affine, so a zero budget cannot converge
        code, _, err = run_cli("solve", "--network", fixture("parallel_quad"),
                               "--demand", "3", "--max-iter", "0")
        assert code == 2
        assert "duality gap" in err

    def test_non_finite_cost_is_input_error(self, tmp_path):
        bad = tmp_path / "nan.json"
        with open(fixture("fig1"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["edges"][2]["cost"]["b"] = float("nan")
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert "NaN" in bad.read_text(encoding="utf-8")
        code, _, err = run_cli("solve", "--network", str(bad), "--demand", "1")
        assert code == 1
        assert f"edge {doc['edges'][2]['id']!r}" in err and "'b'" in err

    def test_trace_failure_is_solver_failure(self, monkeypatch, capsys):
        def stuck(*args, **kwargs):
            raise TraceFailure("no equilibrium direction")

        monkeypatch.setattr(cli, "trace_to_completion", stuck)
        assert cli.main(["breakpoints", "--network", fixture("fig1")]) == 2
        assert "no equilibrium direction" in capsys.readouterr().err

    def test_programming_error_is_not_a_solver_failure(self, monkeypatch):
        def bug(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "trace_to_completion", bug)
        with pytest.raises(RuntimeError, match="bug"):
            cli.main(["breakpoints", "--network", fixture("fig1")])

    def test_verify_violations_exit_three(self, tmp_path):
        sol = tmp_path / "sol.json"
        code, _, _ = run_cli("solve", "--network", fixture("nested2"),
                             "--demand", "6", "--output", str(sol))
        assert code == 0
        doc = json.loads(sol.read_text(encoding="utf-8"))
        flows = [p["flow"] for p in doc["paths"]]
        donor = flows.index(max(flows))
        taker = flows.index(min(flows))
        doc["paths"][donor]["flow"] -= 0.8
        doc["paths"][taker]["flow"] += 0.8
        sol.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli("verify", "--network", fixture("nested2"),
                               "--solution", str(sol))
        assert code == 3
        report = json.loads(out)
        assert report["ok"] is False
        assert report["violations"]

    def test_path_cap_env_override(self, tmp_path):
        code, _, err = run_cli("solve", "--network", fixture("fig1"),
                               "--demand", "1",
                               env_extra={"POA_MAX_PATHS": "2"})
        assert code == 1
        assert "paths" in err
        # verify honours the cap for a given solution or trace too
        sol, trace = tmp_path / "sol.json", tmp_path / "trace.json"
        assert run_cli("solve", "--network", fixture("fig1"), "--demand", "1",
                       "--output", str(sol))[0] == 0
        assert run_cli("trace", "--network", fixture("fig1"), "--max-demand", "5",
                       "--output", str(trace))[0] == 0
        for flag, path in (("--solution", sol), ("--trace", trace)):
            code, _, err = run_cli("verify", "--network", fixture("fig1"),
                                   flag, str(path), env_extra={"POA_MAX_PATHS": "2"})
            assert code == 1, flag
            assert "paths" in err, flag
        code, _, err = run_cli("solve", "--network", fixture("fig1"),
                               "--demand", "1",
                               env_extra={"POA_MAX_PATHS": "banana"})
        assert code == 1
        assert "POA_MAX_PATHS" in err
        code, _, _ = run_cli("solve", "--network", fixture("fig1"),
                             "--demand", "1",
                             env_extra={"POA_MAX_PATHS": "64"})
        assert code == 0
