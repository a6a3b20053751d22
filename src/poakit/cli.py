"""Command-line front end: load a network file, solve, trace, sweep, analyze.

Exit codes: 0 success, 1 input error, 2 solver failure, 3 contract
violation (sign contracts, classification conflicts, failed verification).
Outputs are deterministic: identical inputs give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .equilibrium import (
    DEFAULT_TOL,
    MAX_ITER,
    EquilibriumSolution,
    _cost_list,
    _is_affine,
    solve_affine_exact,
    solve_equilibrium,
    solve_optimum,
    verify_wardrop,
)
from .errors import (
    BisectionFailure,
    ClassificationConflict,
    GridExceedsBreakpointMax,
    NegativeLoad,
    NoPath,
    NonConvergence,
    NotSP,
    PathExplosion,
    SignViolation,
    SupportSearchExhausted,
    TraceFailure,
)
from .network import load_network
from .parametric import (
    optimum_breakpoints,
    segment_solution,
    trace_affine,
    trace_from_json,
    trace_to_completion,
    trace_to_json,
)
from .poa import (
    DECLARE_ONE_TOL,
    classify_segments,
    compute_poa,
    find_poa_max,
    sweep_csv_text,
    sweep_poa,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_CONTRACT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; here that code means solver failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _path_cap() -> int | None:
    raw = os.environ.get("POA_MAX_PATHS")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"POA_MAX_PATHS must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise ValueError(f"POA_MAX_PATHS must be positive, got {cap}")
    return cap


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _meta(command: str, args, tolerances: dict) -> dict:
    return {"command": command, "network": args.network,
            "tolerances": tolerances}


def _solution_doc(sol: EquilibriumSolution, kind: str) -> dict:
    return {
        "kind": kind,
        "demand": float(sol.demand),
        "common_cost": float(sol.cost),
        "social_cost": float(sol.social_cost),
        "beckmann_value": float(sol.beckmann_value),
        "duality_gap": float(sol.duality_gap),
        "active_edges": sorted(sol.active_edges),
        "paths": [{"edges": list(p), "flow": float(f)}
                  for p, f in zip(sol.paths, sol.path_flows)],
        "edges": [{"id": eid, "load": float(x), "cost": float(c)}
                  for eid, x, c in zip(sol.edge_ids, sol.edge_loads, sol.edge_costs)],
    }


def _solution_from_doc(doc: dict) -> EquilibriumSolution:
    """Rebuild just enough of a solution for verify_wardrop to grade it."""
    paths = tuple(tuple(p["edges"]) for p in doc["paths"])
    flows = np.array([float(p["flow"]) for p in doc["paths"]])
    edge_ids = tuple(e["id"] for e in doc["edges"])
    loads = np.array([float(e["load"]) for e in doc["edges"]])
    ecosts = np.array([float(e["cost"]) for e in doc["edges"]])
    return EquilibriumSolution(
        demand=float(doc["demand"]), edge_ids=edge_ids, paths=paths,
        path_flows=flows, edge_loads=loads, edge_costs=ecosts,
        cost=float(doc["common_cost"]),
        active_edges=frozenset(doc["active_edges"]),
        beckmann_value=float(doc["beckmann_value"]),
        duality_gap=float(doc["duality_gap"]),
        social_cost=float(doc["social_cost"]))


def _solve_one(net, costs, mu: float, tol: float, max_iter: int,
               cap: int | None) -> EquilibriumSolution:
    if _is_affine(_cost_list(net, costs)):
        return solve_affine_exact(net, costs, mu, path_cap=cap)
    return solve_equilibrium(net, costs, mu, tol=tol, max_iter=max_iter,
                             path_cap=cap)


# -- command handlers --------------------------------------------------------------


def cmd_solve(args) -> int:
    net, costs = load_network(args.network)
    if args.demand <= 0:
        raise ValueError(f"demand must be positive, got {args.demand}")
    cap = _path_cap()
    sol = _solve_one(net, costs, args.demand, args.tol, args.max_iter, cap)
    pt = compute_poa(net, costs, args.demand, tol=args.equal_tol, path_cap=cap)
    doc = _solution_doc(sol, "equilibrium")
    doc["poa"] = float(pt.poa)
    doc["meta"] = _meta("solve", args, {
        "tol": args.tol, "max_iter": args.max_iter, "equal_tol": args.equal_tol})
    _emit(_json_text(doc), args.output)
    return EXIT_OK


def cmd_optimum(args) -> int:
    net, costs = load_network(args.network)
    if args.demand <= 0:
        raise ValueError(f"demand must be positive, got {args.demand}")
    sol = solve_optimum(net, costs, args.demand, tol=args.tol,
                        max_iter=args.max_iter, path_cap=_path_cap())
    doc = _solution_doc(sol, "optimum")
    doc["meta"] = _meta("optimum", args, {
        "tol": args.tol, "max_iter": args.max_iter})
    _emit(_json_text(doc), args.output)
    return EXIT_OK


def cmd_trace(args) -> int:
    net, costs = load_network(args.network)
    trace = trace_affine(net, costs, args.max_demand, path_cap=_path_cap())
    doc = {"trace": trace_to_json(trace), "meta": _meta("trace", args, {})}
    _emit(_json_text(doc), args.output)
    return EXIT_OK


def cmd_breakpoints(args) -> int:
    net, costs = load_network(args.network)
    cap = _path_cap()
    if args.max_demand is None:
        trace = trace_to_completion(net, costs, path_cap=cap)
    else:
        trace = trace_affine(net, costs, args.max_demand, path_cap=cap)
    def rows(bps):
        return [{"mu": b.mu, "active_before": sorted(b.active_before),
                 "active_after": sorted(b.active_after)} for b in bps]
    doc = {
        "breakpoints": rows(trace.breakpoints),
        "optimum_breakpoints": rows(optimum_breakpoints(trace.breakpoints)),
        "complete": trace.complete,
        "mu_max": trace.mu_max,
        "meta": _meta("breakpoints", args, {}),
    }
    _emit(_json_text(doc), args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    net, costs = load_network(args.network)
    rows = sweep_poa(net, costs, args.mu_from, args.to, args.samples,
                     adaptive=args.adaptive, path_cap=_path_cap())
    if args.format == "csv":
        _emit(sweep_csv_text(rows), args.output)
    else:
        doc = {
            "rows": [{"mu": r.mu, "lambda": r.lam, "sc_eq": r.sc_eq,
                      "sc_opt": r.sc_opt, "poa": r.poa,
                      "active_set_hash": r.active_set_hash} for r in rows],
            "meta": _meta("sweep", args, {"equal_tol": DECLARE_ONE_TOL}),
        }
        _emit(_json_text(doc), args.output)
    return EXIT_OK


def cmd_analyze(args) -> int:
    net, costs = load_network(args.network)
    cap = _path_cap()
    curve = classify_segments(net, costs, args.max_demand, path_cap=cap)
    mx = find_poa_max(net, costs, n_grid=args.grid, grid_slack=args.grid_slack,
                      path_cap=cap, curve=curve)
    doc = {
        "pieces": [{
            "mu_lo": p.mu_lo, "mu_hi": p.mu_hi, "shape": p.shape,
            "valley_mu": p.valley_mu,
            "num_lin": p.num_lin, "num_quad": p.num_quad,
            "den_const": p.den_const, "den_lin": p.den_lin,
            "den_quad": p.den_quad,
        } for p in curve.pieces],
        "eq_breakpoints": list(curve.eq_breakpoints),
        "opt_breakpoints": list(curve.opt_breakpoints),
        "merged_breakpoints": list(curve.merged_breakpoints),
        "mu_max": curve.mu_max,
        "max": {"mu": mx.mu, "value": mx.value,
                "at_breakpoint": mx.at_breakpoint,
                "grid_mu": mx.grid_mu, "grid_value": mx.grid_value},
        "meta": _meta("analyze", args, {
            "grid": args.grid, "grid_slack": args.grid_slack,
            "equal_tol": DECLARE_ONE_TOL}),
    }
    _emit(_json_text(doc), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    net, costs = load_network(args.network)
    cap = _path_cap()
    given = [x is not None for x in (args.demand, args.solution, args.trace)]
    if sum(given) != 1:
        raise ValueError("exactly one of --demand, --solution, --trace is required")
    checks: list[tuple[float, object]] = []
    if args.trace is not None:
        doc = _read_json(args.trace)
        trace = trace_from_json(doc.get("trace", doc))
        for seg in trace.segments:
            for mu in np.linspace(seg.mu_lo, seg.mu_hi,
                                  args.samples_per_segment + 2)[1:-1]:
                sol = segment_solution(net, costs, seg, float(mu), path_cap=cap)
                checks.append((float(mu), verify_wardrop(net, costs, sol, tol=args.tol,
                                                         path_cap=cap)))
    elif args.solution is not None:
        sol = _solution_from_doc(_read_json(args.solution))
        checks.append((sol.demand, verify_wardrop(net, costs, sol, tol=args.tol,
                                                  path_cap=cap)))
    else:
        if args.demand <= 0:
            raise ValueError(f"demand must be positive, got {args.demand}")
        sol = _solve_one(net, costs, args.demand, DEFAULT_TOL, MAX_ITER, cap)
        checks.append((args.demand, verify_wardrop(net, costs, sol, tol=args.tol,
                                                   path_cap=cap)))
    violations = [f"mu={mu:.12g}: {v}"
                  for mu, rep in checks for v in rep.violations]
    doc = {
        "checked": len(checks),
        "ok": not violations,
        "violations": violations,
        "meta": _meta("verify", args, {
            "tol": args.tol, "samples_per_segment": args.samples_per_segment}),
    }
    _emit(_json_text(doc), args.output)
    return EXIT_OK if not violations else EXIT_CONTRACT


# -- parser ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="poakit",
                 description="Equilibrium and efficiency analysis for "
                             "single-commodity routing games.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--network", required=True,
                       help="network JSON file (edges with cost functions)")
        p.add_argument("--output", default=None,
                       help="write here instead of stdout")

    p = sub.add_parser("solve", help="equilibrium at one demand (JSON)")
    common(p)
    p.add_argument("--demand", type=float, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"relative duality-gap target (default {DEFAULT_TOL:g})")
    p.add_argument("--max-iter", type=int, default=MAX_ITER,
                   help=f"iteration budget (default {MAX_ITER})")
    p.add_argument("--equal-tol", type=float, default=DECLARE_ONE_TOL,
                   help="relative band for declaring the ratio exactly one "
                        f"(default {DECLARE_ONE_TOL:g})")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("optimum", help="social optimum at one demand (JSON)")
    common(p)
    p.add_argument("--demand", type=float, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=MAX_ITER)
    p.set_defaults(func=cmd_optimum)

    p = sub.add_parser("trace",
                       help="piecewise equilibrium structure, affine costs (JSON)")
    common(p)
    p.add_argument("--max-demand", type=float, required=True)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("breakpoints",
                       help="demands where the active network changes (JSON)")
    common(p)
    p.add_argument("--max-demand", type=float, default=None,
                   help="stop here; default traces until the structure is final")
    p.set_defaults(func=cmd_breakpoints)

    p = sub.add_parser("sweep", help="tabulate the ratio over a demand range")
    common(p)
    p.add_argument("--from", dest="mu_from", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--adaptive", action="store_true",
                   help="insert midpoints wherever the active set changes")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze",
                       help="ratio curve pieces, shapes, and global max (JSON)")
    common(p)
    p.add_argument("--max-demand", type=float, default=None,
                   help="analysis window; default covers every breakpoint")
    p.add_argument("--grid", type=int, default=1000,
                   help="verification grid size (default 1000)")
    p.add_argument("--grid-slack", type=float, default=1e-7,
                   help="allowed grid excess over the anchored max (default 1e-7)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify",
                       help="re-check equilibrium conditions; exit 3 on violation")
    common(p)
    p.add_argument("--demand", type=float, default=None,
                   help="solve here and verify the result")
    p.add_argument("--solution", default=None,
                   help="solution JSON written by the solve command")
    p.add_argument("--trace", default=None,
                   help="trace JSON; verifies samples inside every segment")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--samples-per-segment", type=int, default=5)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"poakit: error: malformed JSON: {exc.msg} at line {exc.lineno} "
              f"column {exc.colno}", file=sys.stderr)
        return EXIT_INPUT
    except KeyError as exc:
        print(f"poakit: error: missing field {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError, NoPath, PathExplosion, NotSP) as exc:
        print(f"poakit: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NonConvergence, BisectionFailure, SupportSearchExhausted,
            TraceFailure) as exc:
        print(f"poakit: error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (SignViolation, ClassificationConflict, GridExceedsBreakpointMax,
            NegativeLoad, ZeroDivisionError) as exc:
        print(f"poakit: error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
