"""End-to-end tests of the command-line front end via subprocess."""

import functools
import json
import math
import operator
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from poakit import (CertificateFailure, NoPath, PathSet, PoakitError, Polynomial, TraceFailure, cli,
                    equilibrium, load_network, parametric, solve_equilibrium, trace_from_json,
                    verify_wardrop)
from poakit.network import network_from_json, network_to_json

from netgen import layered_affine_network, pairs_in_series
from oracles import newton_optimum, segment_coefficients

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FIXTURES = os.path.join(ROOT, "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, f"{name}.json")


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "poakit.cli", *argv],
                          capture_output=True, text=True, timeout=300)
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
        # the two ends of each segment
        assert doc["checked"] == 2 * n_segments

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
        assert doc["checked"] == 2 * n_segments

    def test_affine_analyze_runs_without_newton_iterations(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("iterative solver called on an affine instance")

        monkeypatch.setattr("poakit.equilibrium._newton", refuse)
        out = tmp_path / "analyze.json"
        assert cli.main(["analyze", "--network", fixture("nested3"),
                         "--output", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert len(doc["eq_breakpoints"]) == 14
        assert doc["max"]["value"] == pytest.approx(1.267327, abs=1e-6)

    def test_analyze_and_breakpoints_select_nothing(self, tmp_path, monkeypatch, capsys):
        # neither prints path flows, so neither needs a minimum-norm selection
        def refuse(*args, **kwargs):
            raise AssertionError("a minimum-norm selection ran")

        monkeypatch.setattr("poakit.equilibrium._min_norm_flows", refuse)
        monkeypatch.setattr(parametric, "_min_norm_flows", refuse)
        out = tmp_path / "out.json"
        for command in ("analyze", "breakpoints"):
            assert cli.main([command, "--network", fixture("nested3"),
                             "--output", str(out)]) == 0, capsys.readouterr().err
        assert len(json.loads(out.read_text(encoding="utf-8"))["breakpoints"]) == 14

    @pytest.mark.parametrize("name", ["parallel_quad", "wheatstone_pwl"])
    def test_analyze_needs_affine_costs(self, name, capsys):
        assert cli.main(["analyze", "--network", fixture(name)]) == 1
        assert "trace_affine requires every cost to be affine" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["fig1", "nested2", "nested3", "braess_direct"])
    def test_affine_optimum_runs_without_newton_iterations(self, name, tmp_path, monkeypatch):
        net, costs = load_network(fixture(name))
        iterative = newton_optimum(net, costs, 4.5)

        def refuse(*args, **kwargs):
            raise AssertionError("iterative solver called on an affine instance")

        monkeypatch.setattr("poakit.equilibrium._newton", refuse)
        out = tmp_path / "optimum.json"
        assert cli.main(["optimum", "--network", fixture(name), "--demand", "4.5",
                         "--output", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["kind"] == "optimum"
        assert doc["social_cost"] == pytest.approx(iterative.social_cost, rel=1e-12)
        assert doc["common_cost"] == pytest.approx(iterative.cost, rel=1e-12)
        assert sorted(doc["active_edges"]) == sorted(iterative.active_edges)

    def test_newton_solution_of_a_flat_cost_passes_its_grade(self, tmp_path, capsys):
        # O->m0 costing 1 + x^4, m0->D free, O->D a constant 1: Newton's gap test
        # alone left the quartic path 1.25e-8 relative above lambda at demand 2.5
        net, sol = tmp_path / "flat.json", tmp_path / "sol.json"
        edges = [("e0", "O", "m0", [1, 0, 0, 0, 1]), ("e1", "O", "D", [1]), ("e2", "m0", "D", [0])]
        net.write_text(json.dumps({
            "vertices": ["O", "m0", "D"], "origin": "O", "destination": "D",
            "edges": [{"id": i, "tail": t, "head": h, "cost": {"type": "poly", "coeffs": c}}
                      for i, t, h, c in edges]}), encoding="utf-8")
        assert cli.main(["solve", "--network", str(net), "--demand", "2.5",
                         "--output", str(sol)]) == 0
        assert cli.main(["verify", "--network", str(net), "--solution", str(sol)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_verify_fresh_solve(self, tmp_path):
        sol = tmp_path / "sol.json"
        code, _, err = run_cli("solve", "--network", fixture("nested2"), "--demand", "4",
                               "--output", str(sol))
        assert code == 0, err
        code, out, err = run_cli("verify", "--network", fixture("nested2"), "--solution", str(sol))
        assert code == 0, err
        assert json.loads(out)["ok"] is True

    def test_free_optimum_reads_ratio_one(self, tmp_path):
        # three O->D edges costing x, 0 and 1: the optimum costs exactly 0 while the
        # equilibrium's cost is dust, a 0/0 that reads 1 with no traceback
        net = tmp_path / "free.json"
        net.write_text(json.dumps({
            "vertices": ["O", "D"], "origin": "O", "destination": "D",
            "edges": [{"id": i, "tail": "O", "head": "D",
                       "cost": {"type": "affine", "a": a, "b": b}}
                      for i, a, b in (("x", 1.0, 0.0), ("zero", 0.0, 0.0), ("one", 0.0, 1.0))]}),
            encoding="utf-8")
        code, out, err = run_cli("solve", "--network", str(net), "--demand", "3")
        assert (code, err) == (0, "")
        assert json.loads(out)["poa"] == 1.0


def shifted(select):
    """The selection ``select`` with a quarter of the busiest path's flow
    moved onto the dearest other path."""
    def wrong(ps, cost_list, f, path_costs):
        out = select(ps, cost_list, f, path_costs).copy()
        p = int(np.argmax(out))
        q = max((i for i in range(ps.n_paths) if i != p), key=lambda i: path_costs[i])
        out[p], out[q] = 0.75 * out[p], out[q] + 0.25 * out[p]
        return out
    return wrong


class TestPrintedFlowsAreGraded:
    @pytest.mark.parametrize("command, game", [("solve", "equilibrium"),
                                               ("optimum", "marginal-cost")])
    def test_solution_that_fails_its_grade_exits_three(self, command, game, monkeypatch,
                                                       capsys):
        monkeypatch.setattr(equilibrium, "_min_norm_flows", shifted(equilibrium._min_norm_flows))
        assert cli.main([command, "--network", fixture("fig1"), "--demand", "5"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"flows fail the {game} grade at mu=5.0: used path" in err

    def test_trace_whose_segment_end_fails_its_grade_exits_three(self, monkeypatch, capsys):
        monkeypatch.setattr(parametric, "_min_norm_flows", shifted(parametric._min_norm_flows))
        assert cli.main(["trace", "--network", fixture("fig1"), "--max-demand", "10"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        # the first segment end, fig1's first breakpoint
        graded = re.search(r"flows fail the equilibrium grade at mu=(\S+): used path", err)
        assert float(graded.group(1)) == pytest.approx(1.0, abs=1e-12)


class TestVerify:
    @staticmethod
    def per_end_grades(path, trace_doc):
        """The number of demands verify --trace grades, and the violations
        it reports at them, on a trace that tiles its range, when each
        segment end is graded on its own and every path with flow above
        dust at either end of its segment counts as used at both."""
        net, costs = load_network(path)
        template = solve_equilibrium(net, costs, 1.0)
        violations, checked = [], 0
        for seg in trace_from_json(trace_doc["trace"]).segments:
            ends = (seg.mu_lo, seg.mu_hi)
            used = np.zeros(len(seg.paths), dtype=bool)
            for mu in ends:
                used |= seg.flows(mu) > 1e-9 * max(1.0, mu)
            for mu in ends:
                sol = replace(template, demand=mu, paths=seg.paths, path_flows=seg.flows(mu))
                report = verify_wardrop(net, costs, sol)
                found = list(report.violations)
                band = equilibrium.GRADE_TOL * max(1.0, report.lam)
                for k in (used & (report.slacks > band)).nonzero()[0]:
                    v = (f"used path {'|'.join(seg.paths[k])} costs {report.path_costs[k]:.12g}, "
                         f"common cost is {report.lam:.12g}")
                    if v not in found:
                        found.append(v)
                violations += [f"mu={mu:.12g}: {v}" for v in found]
                checked += 1
        return checked, violations

    @pytest.mark.parametrize("corrupt", [False, True], ids=["valid", "corrupted"])
    def test_trace_on_one_path_set(self, corrupt, tmp_path, monkeypatch, capsys):
        path = fixture("nested3")
        assert cli.main(["trace", "--network", path, "--max-demand", "260"]) == 0
        doc = json.loads(capsys.readouterr().out)
        if corrupt:  # a quarter of the first segment's rate moved off its busiest path
            w = doc["trace"]["segments"][0]["w"]
            keys = list(w)
            busiest = max(keys, key=w.get)
            w[busiest] -= 0.25
            w[keys[(keys.index(busiest) + 1) % len(keys)]] += 0.25
        trace_file = tmp_path / "trace.json"
        trace_file.write_text(json.dumps(doc), encoding="utf-8")
        builds = []
        build = PathSet.build.__func__
        monkeypatch.setattr(PathSet, "build",
                            classmethod(lambda cls, net: builds.append(net) or build(cls, net)))
        code = cli.main(["verify", "--network", path, "--trace", str(trace_file)])
        out = json.loads(capsys.readouterr().out)
        assert len(builds) == 1
        monkeypatch.undo()
        assert code == (3 if corrupt else 0)
        assert out["ok"] is not corrupt
        checked, graded = self.per_end_grades(path, doc)
        assert out["checked"] == checked
        assert [v for v in out["violations"] if v.startswith("mu=")] == graded
        # the moved rate changes the first segment's social-cost line too, and
        # the flow it moves onto an untied path makes that path active
        lines = [v for v in out["violations"] if not v.startswith("mu=")]
        starts = (["segment (0, 1] has alpha, beta, gamma", "segment (0, 1] has active_edges"]
                  if corrupt else [])
        assert len(lines) == len(starts)
        assert all(v.startswith(start) for v, start in zip(lines, starts)), lines
        assert out["meta"]["tolerances"] == {"tol": 1e-8}

    def test_solution_needs_only_demand_and_path_flows(self, tmp_path, capsys):
        path = fixture("nested2")
        assert cli.main(["solve", "--network", path, "--demand", "6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        slim = {"demand": doc["demand"],
                "paths": [{"edges": p["edges"], "flow": p["flow"]} for p in doc["paths"]]}
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(slim), encoding="utf-8")
        assert cli.main(["verify", "--network", path, "--solution", str(sol)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        del slim["paths"][0]["flow"]
        sol.write_text(json.dumps(slim), encoding="utf-8")
        assert cli.main(["verify", "--network", path, "--solution", str(sol)]) == 1
        assert "missing field 'flow'" in capsys.readouterr().err
        sol.write_text(json.dumps({"paths": doc["paths"]}), encoding="utf-8")
        assert cli.main(["verify", "--network", path, "--solution", str(sol)]) == 1
        assert "missing field 'demand'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fig1_documents(tmp_path_factory):
    """fig1's trace to demand 20 and its solve at demand 3, as parsed JSON."""
    docs = {}
    for flag, argv in (("--trace", ("trace", "--max-demand", "20")),
                       ("--solution", ("solve", "--demand", "3"))):
        code, out, err = run_cli(argv[0], "--network", fixture("fig1"), *argv[1:])
        assert code == 0, err
        docs[flag] = json.loads(out)
    return docs


class TestSavedDocuments:
    # one fault each in a saved document: what it breaks, and the violation
    # or field name the report must give
    @pytest.mark.parametrize("fault, named", [
        ("moved-breakpoint", ["mu=7.4: path O-v1|v1-v3|v3-D has negative flow -0.2"]),
        ("wrong-breakpoints", ["breakpoint mu=9 is not", "breakpoint mu=4 is not"]),
        ("missing-segment", ["segment (3, 4] should be nonempty and start at 2"]),
        ("no-segments", ["the trace has no segments"]),
        ("coefficients", ["segment (3, 4] has alpha, beta, gamma = 99, 1.5, -50, "
                          "its flow line gives 1.5, 1.5, -0.125"]),
        ("active-edges", ["segment (3, 4] has active_edges ['O-v1'], the active-path rule "
                          "reads"]),
        # both ends pass a plain grade; the path the chord's far end uses does
        # not sit at the common cost at its near end, where its flow is 0
        ("merged-chord", ["mu=1: used path O-v1|v1-v3|v3-D costs 4, common cost is 3"]),
        ("mu-max-past-the-end", ["the segments end at 20, mu_max is 21"]),
        ("missing-breakpoint", ["no breakpoint at the segment boundary mu=7"]),
    ], ids=["moved-breakpoint", "wrong-breakpoints", "missing-segment", "no-segments",
            "coefficients", "active-edges", "merged-chord", "mu-max-past-the-end",
            "missing-breakpoint"])
    def test_tampered_trace_exits_three(self, fault, named, fig1_documents, tmp_path, capsys):
        doc = json.loads(json.dumps(fig1_documents["--trace"]))
        segments, breakpoints = doc["trace"]["segments"], doc["trace"]["breakpoints"]
        if fault == "moved-breakpoint":  # from 7 to 7.4, in both segments and the list
            segments[4]["mu_hi"] = segments[5]["mu_lo"] = breakpoints[4]["mu"] = 7.4
        elif fault == "wrong-breakpoints":
            breakpoints[1]["mu"] = 9.0
            breakpoints[3]["active_after"] = ["O-v1"]
        elif fault == "missing-segment":
            del segments[2]  # (2, 3]
        elif fault == "coefficients":
            segments[3]["alpha"], segments[3]["gamma"] = 99.0, -50.0
        elif fault == "active-edges":  # in the segment and both its breakpoints
            segments[3]["active_edges"] = ["O-v1"]
            breakpoints[2]["active_after"] = breakpoints[3]["active_before"] = ["O-v1"]
        elif fault == "merged-chord":
            # one chord from the equilibrium at 1 to the one at 3, with its own
            # alpha, beta and gamma and the active set its midpoint reads, so
            # that only the grade of its ends can fail it. At the midpoint the
            # chord carries flow on every path either end uses, so that set is
            # the union of the two segments' sets
            first, second = segments[1], segments[2]
            lo, hi = first["mu_lo"], second["mu_hi"]
            w = {k: (hi * second["w"][k] + second["z"][k] - lo * first["w"][k]
                     - first["z"][k]) / (hi - lo) for k in first["w"]}
            z = {k: lo * first["w"][k] + first["z"][k] - lo * w[k] for k in first["w"]}
            merged = sorted({*first["active_edges"], *second["active_edges"]})
            segments[1:3] = [{**first, "mu_hi": hi, "w": w, "z": z, "active_edges": merged}]
            del breakpoints[1]
            breakpoints[0]["active_after"] = breakpoints[1]["active_before"] = merged
            net, costs = load_network(fixture("fig1"))
            chord = trace_from_json(doc["trace"]).segments[1]
            (segments[1]["alpha"], segments[1]["beta"],
             segments[1]["gamma"]) = segment_coefficients(net, costs, chord)
        elif fault == "mu-max-past-the-end":
            doc["trace"]["mu_max"] += 1.0
        elif fault == "missing-breakpoint":
            breakpoints.pop()  # the one at 7
        else:
            segments.clear()
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["verify", "--network", fixture("fig1"), "--trace", str(path)]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        for text in named:
            assert any(v.startswith(text) for v in report["violations"]), (text, report)
        if fault == "merged-chord":
            assert len(report["violations"]) == 1, report

    @pytest.mark.parametrize("flag, fault", [("--trace", "unknown-path"),
                                             ("--solution", "unknown-path"),
                                             ("--solution", "repeated-path")])
    def test_document_names_only_network_paths(self, flag, fault, fig1_documents, tmp_path,
                                               capsys):
        # each edit adds flow 0 only, so every grade would still pass
        doc = json.loads(json.dumps(fig1_documents[flag]))
        if flag == "--trace":
            for seg in doc["trace"]["segments"]:
                seg["w"]["O-v1|nowhere"] = seg["z"]["O-v1|nowhere"] = 0.0
            named = "path O-v1|nowhere is not a path of the network"
        elif fault == "unknown-path":
            doc["paths"].append({"edges": ["O-v1", "nowhere"], "flow": 0.0})
            named = "path O-v1|nowhere is not a path of the network"
        else:
            used = next(p for p in doc["paths"] if p["flow"] > 0)
            doc["paths"].insert(0, {"edges": used["edges"], "flow": 0.0})
            named = f"path {'|'.join(used['edges'])} is listed twice"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["verify", "--network", fixture("fig1"), flag, str(path)]) == 1
        assert capsys.readouterr() == ("", f"poakit: error: {named}\n")

    # each edit leaves w, and so every grade, as it was; the loader must reject it
    @pytest.mark.parametrize("fault, named", [
        ("z-names-more", "field 'z' must name the paths of field 'w'; ['O-v1|nowhere']"),
        ("z-names-fewer", "field 'z' must name the paths of field 'w'; ['O-v1|v1-D']"),
        ("complete-missing", "missing field 'complete'"),
    ], ids=["z-names-more", "z-names-fewer", "complete-missing"])
    def test_trace_fields_are_read_whole(self, fault, named, fig1_documents, tmp_path, capsys):
        doc = json.loads(json.dumps(fig1_documents["--trace"]))
        trace = doc["trace"]
        if fault == "z-names-more":
            for seg in trace["segments"]:
                seg["z"]["O-v1|nowhere"] = 5.0
        elif fault == "z-names-fewer":
            del trace["segments"][0]["z"]["O-v1|v1-D"]
        else:
            del trace["complete"]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["verify", "--network", fixture("fig1"), "--trace", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"poakit: error: {named}"), err

    # (flag, path to the field changed, its new value, the name the error gives);
    # an empty path replaces the whole document by a list holding it
    @pytest.mark.parametrize("flag, where, value, named", [
        ("--trace", ("trace", "segments"), "(0, 20]", "field 'segments'"),
        ("--trace", ("trace", "segments", 0, "mu_lo"), None, "field 'mu_lo'"),
        ("--trace", ("trace", "segments", 1, "active_edges"), 5, "field 'active_edges'"),
        ("--trace", ("trace",), [], "field 'trace'"),
        ("--trace", (), None, "the --trace document"),
        ("--trace", ("trace", "segments", 5, "mu_hi"), "1e400", "field 'mu_hi'"),
        ("--trace", ("trace", "breakpoints", 0, "mu"), math.nan, "field 'mu'"),
        ("--trace", ("trace", "complete"), "no", "field 'complete'"),
        ("--solution", (), None, "the --solution document"),
        ("--solution", ("paths",), 3, "field 'paths'"),
        ("--solution", ("paths", 0, "flow"), None, "field 'flow'"),
        ("--solution", ("paths", 0, "flow"), math.nan, "field 'flow'"),
        ("--solution", ("paths", 1, "edges"), 7, "field 'edges'"),
        ("--solution", ("demand",), math.inf, "field 'demand'"),
    ], ids=["segments-string", "mu_lo-null", "active_edges-number", "trace-array",
            "trace-in-a-list", "mu_hi-1e400", "mu-nan", "complete-string", "solution-in-a-list",
            "paths-number", "flow-null", "flow-nan", "edges-number", "demand-infinity"])
    def test_malformed_document_is_input_error(self, flag, where, value, named,
                                               fig1_documents, tmp_path):
        doc = json.loads(json.dumps(fig1_documents[flag]))
        if where:
            *outer, last = where
            functools.reduce(operator.getitem, outer, doc)[last] = value
        else:
            doc = [doc]
        path = tmp_path / "doc.json"
        # a number too large for a float: JSON text that Python never writes
        path.write_text(json.dumps(doc).replace('"1e400"', "1e400"), encoding="utf-8")
        code, out, err = run_cli("verify", "--network", fixture("fig1"), flag, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"poakit: error: {named} must be ")
        assert "Traceback" not in err


class TestDeterminism:
    def test_solve_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _, err = run_cli("solve", "--network", fixture("nested2"),
                                   "--demand", "6", "--output", str(out))
            assert code == 0, err
        assert a.read_bytes() == b.read_bytes()

    # every command at default flags, with the tolerances its meta echoes
    # (None: CSV, which has no meta)
    OUTPUT_CASES = [
        (("solve", "--demand", "3"), {"tol": 1e-10, "max_iter": 10 ** 6, "equal_tol": 1e-9}),
        (("optimum", "--demand", "3"), {"tol": 1e-10, "max_iter": 10 ** 6}),
        (("trace", "--max-demand", "10"), {}),
        (("breakpoints",), {}),
        (("sweep", "--from", "1", "--to", "5", "--samples", "9"), None),
        (("sweep", "--from", "1", "--to", "5", "--samples", "9", "--format", "json"),
         {"equal_tol": 1e-9}),
        (("analyze",), {"grid": 1000, "grid_slack": 1e-7, "equal_tol": 1e-9}),
    ]

    def test_sweep_stdout_matches_output_file(self, tmp_path, capsys):
        network = fixture("fig1")
        for (command, *rest), tolerances in self.OUTPUT_CASES:
            argv = [command, "--network", network, *rest]
            assert cli.main(argv) == 0, argv
            out = capsys.readouterr().out
            path = tmp_path / f"{command}.out"
            assert cli.main([*argv, "--output", str(path)]) == 0, argv
            assert capsys.readouterr().out == ""
            assert path.read_bytes() == out.encode("utf-8"), argv
            if tolerances is None:
                assert out.startswith("mu,lambda,sc_eq,sc_opt,poa,active_set_hash\n")
            else:
                assert json.loads(out)["meta"] == {"command": command, "network": network,
                                                   "tolerances": tolerances}, argv


class TestExitCodes:
    # every public error type and the exit code the command line gives it
    ERROR_EXIT_CODES = {
        "PoakitError": 1, "NoPath": 1, "PathExplosion": 1,
        "NonConvergence": 2, "SupportSearchExhausted": 2, "TraceFailure": 2,
        "BisectionFailure": 2,
        "NegativeLoad": 3, "SignViolation": 3, "GridExceedsBreakpointMax": 3,
        "CertificateFailure": 3,
    }

    @staticmethod
    def raised_by_load(error, monkeypatch, capsys):
        """Exit code and stderr of a command whose network load raises ``error``."""
        def load(path):
            raise error

        monkeypatch.setattr(cli, "load_network", load)
        code = cli.main(["solve", "--network", fixture("fig1"), "--demand", "1"])
        out, err = capsys.readouterr()
        assert out == ""
        return code, err

    def test_each_error_type_carries_its_exit_code(self, monkeypatch, capsys):
        public, todo = {}, [PoakitError]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if cls.__module__ == "poakit.errors" and not cls.__name__.startswith("_"):
                public[cls.__name__] = cls
        assert sorted(public) == sorted(self.ERROR_EXIT_CODES)
        for name, cls in public.items():
            code, err = self.raised_by_load(cls(f"{name} at mu=1"), monkeypatch, capsys)
            assert code == self.ERROR_EXIT_CODES[name], name
            assert err == f"poakit: error: {name} at mu=1\n"

    @pytest.mark.parametrize("parent", [NoPath, TraceFailure, CertificateFailure],
                             ids=lambda cls: cls.__name__)
    def test_error_subclass_inherits_its_exit_code(self, parent, monkeypatch, capsys):
        class Narrower(parent):
            pass

        code, err = self.raised_by_load(Narrower("narrower"), monkeypatch, capsys)
        assert code == self.ERROR_EXIT_CODES[parent.__name__]
        assert err == "poakit: error: narrower\n"

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

    # the flag under test comes last
    @pytest.mark.parametrize("argv", [
        ("solve", "--demand", "inf"),
        ("solve", "--demand", "nan"),
        ("solve", "--demand", "-1"),
        ("optimum", "--demand", "nan"),
        ("optimum", "--demand", "0"),
        ("trace", "--max-demand", "inf"),
        ("breakpoints", "--max-demand", "nan"),
        ("analyze", "--max-demand", "0"),
        ("sweep", "--to", "2", "--samples", "3", "--from", "-1"),
        ("sweep", "--from", "0", "--samples", "3", "--to", "inf"),
        ("sweep", "--from", "0", "--to", "2", "--samples", "1"),
    ], ids=" ".join)
    def test_out_of_range_flag_is_input_error(self, argv, capsys):
        command, *rest = argv
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--network", fixture("fig1"), *rest])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        flag, value = argv[-2:]
        assert f"argument {flag}:" in err
        if flag.endswith("demand") and float(value) <= 0:
            assert "positive" in err

    def test_verify_needs_one_mode(self, capsys):
        assert cli.main(["verify", "--network", fixture("fig1")]) == 1
        assert capsys.readouterr().err == ("poakit: error: exactly one of --solution, --trace "
                                           "is required\n")

    # the check grid, the band of a ratio declared one, Newton's stop test and
    # budget and the grade band are constants, not flags; verify solves nothing
    @pytest.mark.parametrize("argv", [
        ("analyze", "--grid", "10"),
        ("analyze", "--grid-slack", "1e-7"),
        ("solve", "--demand", "1", "--equal-tol", "1e-6"),
        ("solve", "--demand", "3", "--tol", "1e-6"),
        ("solve", "--demand", "3", "--max-iter", "5"),
        ("optimum", "--demand", "3", "--tol", "1e-6"),
        ("optimum", "--demand", "3", "--max-iter", "5"),
        ("verify", "--solution", "solve.json", "--tol", "1e-6"),
        ("verify", "--demand", "3"),
    ], ids=" ".join)
    def test_removed_flag_is_input_error(self, argv, capsys):
        command, *rest = argv
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--network", fixture("fig1"), *rest])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    def test_non_finite_result_is_input_error(self):
        # parallel_quad and wheatstone_pwl overflow inside the Newton loop
        for name, argv in (("fig1", ("solve", "--demand", "1e200")),
                           ("fig1", ("sweep", "--from", "0", "--to", "1e300", "--samples", "3")),
                           ("parallel_quad", ("solve", "--demand", "1e200")),
                           ("parallel_quad", ("optimum", "--demand", "1e200")),
                           ("wheatstone_pwl", ("solve", "--demand", "1e200")),
                           ("wheatstone_pwl", ("optimum", "--demand", "1e200"))):
            code, out, err = run_cli(argv[0], "--network", fixture(name), *argv[1:])
            assert code == 1, (name, argv)
            assert out == ""
            assert "non-finite" in err

    def test_overflow_is_reported_once_in_process(self, capsys):
        # the suite turns warnings into errors, so a numpy overflow warning
        # would raise here instead of reaching the non-finite check
        assert cli.main(["solve", "--network", fixture("fig1"), "--demand", "1e200"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "poakit: error: the result holds a non-finite number (inf or NaN)\n"

    @pytest.mark.parametrize("argv", [("trace", "--max-demand", "10"), ("breakpoints",),
                                      ("analyze",)], ids=lambda argv: argv[0])
    def test_broken_sign_contract_exits_three(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(parametric, "_social_coefficients", lambda A, d, w, z: (1.0, -1.0, 0.0))
        command, *rest = argv
        assert cli.main([command, "--network", fixture("fig1"), *rest]) == 3
        assert "beta=-1.000e+00" in capsys.readouterr().err

    def test_poly_costs_of_degree_one_give_the_affine_documents(self, tmp_path):
        with open(fixture("braess_direct"), encoding="utf-8") as fh:
            doc = json.load(fh)
        for e in doc["edges"]:
            e["cost"] = {"type": "poly", "coeffs": [e["cost"]["b"], e["cost"]["a"]]}
        poly = tmp_path / "braess_poly.json"
        poly.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["trace", "--max-demand", "10"], ["analyze"]):
            docs = []
            for network in (fixture("braess_direct"), str(poly)):
                out = tmp_path / "out.json"
                assert cli.main([argv[0], "--network", network, "--output", str(out),
                                 *argv[1:]]) == 0, (argv, network)
                docs.append(json.loads(out.read_text(encoding="utf-8")))
                del docs[-1]["meta"]
            assert docs[0] == docs[1], argv[0]

    def test_unknown_flag_is_input_error(self):
        code, _, _ = run_cli("solve", "--network", fixture("fig1"),
                             "--demand", "1", "--bogus")
        assert code == 1

    def test_exhausted_budget_is_solver_failure(self, monkeypatch, capsys):
        # parallel_quad is not affine, so a zero budget cannot converge
        monkeypatch.setattr(equilibrium, "MAX_ITER", 0)
        assert cli.main(["solve", "--network", fixture("parallel_quad"), "--demand", "3"]) == 2
        assert "duality gap" in capsys.readouterr().err

    def test_stalled_newton_names_its_game_and_demand(self, monkeypatch, capsys):
        # the marginal costs of wheatstone_pwl jump at its knots; the sweep's
        # optimum at mu 4.5 cannot be certified
        assert cli.main(["sweep", "--network", fixture("wheatstone_pwl"), "--from", "0",
                         "--to", "12", "--samples", "25"]) == 2
        err = capsys.readouterr().err
        assert "the marginal-cost game at mu=4.5: relative duality gap" in err, err
        monkeypatch.setattr(equilibrium, "MAX_ITER", 0)
        assert cli.main(["solve", "--network", fixture("parallel_quad"), "--demand", "3"]) == 2
        assert "the equilibrium game at mu=3.0: relative duality gap" in capsys.readouterr().err

    def test_emptied_working_set_is_solver_failure(self, tmp_path, capsys):
        # degree-4 costs at heavy traffic empty the kernel's working set
        net, costs = layered_affine_network(np.random.default_rng(1), widths=(3, 3, 3))
        quartic = {e: Polynomial((c.b, 0.0, 0.0, 0.0, c.a)) for e, c in costs.items()}
        path = tmp_path / "quartic.json"
        path.write_text(json.dumps(network_to_json(net, quartic)), encoding="utf-8")
        assert cli.main(["optimum", "--network", str(path), "--demand", "20"]) == 2
        assert "working set emptied" in capsys.readouterr().err

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

        monkeypatch.setattr(cli, "_trace", stuck)
        assert cli.main(["breakpoints", "--network", fixture("fig1")]) == 2
        assert "no equilibrium direction" in capsys.readouterr().err

    def test_programming_error_is_not_a_solver_failure(self, monkeypatch):
        for error in (RuntimeError, ZeroDivisionError, KeyError):
            def bug(*args, **kwargs):
                raise error("bug")

            monkeypatch.setattr(cli, "_trace", bug)
            with pytest.raises(error, match="bug"):
                cli.main(["breakpoints", "--network", fixture("fig1")])

    def test_free_optimum_analyze_exits_zero(self, tmp_path, capsys):
        # one free edge: every ratio of the curve is 0/0, which reads 1
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({
            "vertices": ["O", "D"], "origin": "O", "destination": "D",
            "edges": [{"id": "e", "tail": "O", "head": "D",
                       "cost": {"type": "affine", "a": 0.0, "b": 0.0}}]}), encoding="utf-8")
        assert cli.main(["analyze", "--network", str(zero)]) == 0
        out, err = capsys.readouterr()
        assert (json.loads(out)["max"]["value"], err) == (1.0, "")

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

    def test_path_cap_is_input_error(self, tmp_path, capsys):
        # 13 parallel pairs in series have 8 192 paths, past the cap of 4 096
        big = tmp_path / "pairs13.json"
        big.write_text(json.dumps(network_to_json(*pairs_in_series(13))), encoding="utf-8")
        assert cli.main(["solve", "--network", str(big), "--demand", "1"]) == 1
        assert "more than 4096 origin-destination paths" in capsys.readouterr().err
        # verify honours the cap for a given solution or trace too
        sol, trace = tmp_path / "sol.json", tmp_path / "trace.json"
        assert cli.main(["solve", "--network", fixture("fig1"), "--demand", "1",
                         "--output", str(sol)]) == 0
        assert cli.main(["trace", "--network", fixture("fig1"), "--max-demand", "5",
                         "--output", str(trace)]) == 0
        for flag, path in (("--solution", sol), ("--trace", trace)):
            assert cli.main(["verify", "--network", str(big), flag, str(path)]) == 1, flag
            assert "more than 4096 origin-destination paths" in capsys.readouterr().err, flag

    @pytest.mark.parametrize("command", ["solve", "optimum"])
    @pytest.mark.parametrize("name", ["fig1", "parallel_quad"])
    def test_a_demand_past_what_the_costs_hold_is_input_error(self, command, name):
        # at 1e308 the flows or costs overflow the float range: the affine
        # solve and Newton report it alike, not as a traceback
        code, out, err = run_cli(command, "--network", fixture(name), "--demand", "1e308")
        assert (code, out) == (1, "")
        assert err.startswith("poakit: error: the costs at demand 1e+308 overflow to a non-finite")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [("analyze", "--max-demand", "1e308"),
                                      ("sweep", "--from", "0", "--to", "1e308", "--samples", "3")],
                             ids=lambda argv: argv[0])
    def test_a_trace_range_past_the_float_range_is_input_error(self, argv, capsys):
        # the optimum at 1e308 is read off a trace out to twice it, which overflows
        assert cli.main([argv[0], "--network", fixture("fig1"), *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "poakit: error: twice the demand 1e+308 overflows the float range\n"

    def test_an_edge_id_holding_a_bar_is_input_error(self, tmp_path):
        # '|' joins the edge ids of a saved path, so no edge id may hold it
        with open(fixture("fig1"), encoding="utf-8") as fh:
            doc = json.load(fh)
        for e in doc["edges"]:
            e["id"] = f"{e['tail']}|{e['head']}"
        path = tmp_path / "bar.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["breakpoints"], ["trace", "--max-demand", "20"]):
            code, out, err = run_cli(*argv, "--network", str(path))
            assert (code, out) == (1, ""), argv
            assert err == ("poakit: error: edge id 'O|v1' holds '|', which joins the edge ids "
                           "of a path\n")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 23 and 30: at demand 1e8 the tracer's chords and the "
                          "exact solve on braess_direct fail their fixed equal-cost bands")
def test_braess_direct_holds_at_large_demand(tmp_path, capsys):
    out = tmp_path / "analyze.json"
    assert cli.main(["analyze", "--network", fixture("braess_direct"), "--max-demand", "1e8",
                     "--output", str(out)]) == 0, capsys.readouterr().err
    assert json.loads(out.read_text(encoding="utf-8"))["max"]["value"] == pytest.approx(4 / 3)
    assert cli.main(["solve", "--network", fixture("braess_direct"), "--demand", "1e8"]) == 0


def test_readme_examples_run(tmp_path):
    """README's Python block, network document and command lines run as
    written, from a directory holding a copy of the fixtures."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```(\w+)\n(.*?)```", fh.read(), re.S)
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(ROOT, "src"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(argv):
        return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path,
                              timeout=300)

    python = [body for lang, body in blocks if lang == "python"]
    assert len(python) == 1
    proc = run([sys.executable, "-c", python[0]])
    assert proc.returncode == 0, proc.stderr
    for lang, body in blocks:
        if lang == "json":
            network_from_json(json.loads(body))
    lines = [line for lang, body in blocks if lang == "sh"
             for line in body.splitlines() if line.startswith("poakit ")]
    assert len(lines) == 7
    for line in lines:
        proc = run([sys.executable, "-m", "poakit.cli", *shlex.split(line)[1:]])
        assert proc.returncode == 0, (line, proc.stderr)
