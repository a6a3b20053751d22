"""Command-line front end: load a network file, solve, trace, sweep, analyze.

One skeleton runs every command. :func:`main` parses the flags and loads the
network, the command's handler ``cmd_*(net, costs, args)`` returns its JSON
document (``sweep --format csv`` returns its text), and :func:`main` stamps
the document's ``meta`` (the command, the network file and the tolerances its
subparser echoes) and writes it once, to stdout or ``--output``.

Exit codes: 0 success. A :class:`~poakit.errors.PoakitError` exits with its
type's ``exit_code``: 1 input error, 2 solver failure, 3 contract violation.
A bad flag, an unreadable or malformed file, a missing or ill-typed field
and a non-finite result exit 1; ``verify`` exits 3 when its document is not
``ok``. Outputs are deterministic: identical inputs give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .costs import _checked, _field
from .equilibrium import (
    DEFAULT_TOL,
    GRADE_TOL,
    MAX_ITER,
    EquilibriumSolution,
    _cost_list,
    _dear_path,
    _dust,
    _grade,
    _in_path_order,
    solve_equilibrium,
    solve_optimum,
)
from .errors import PoakitError
from .network import PathSet, load_network
from .parametric import (
    MU_START,
    _breakpoint_rows,
    _document_violations,
    _trace,
    optimum_breakpoints,
    trace_affine,
    trace_from_json,
    trace_to_json,
)
from .poa import (
    DECLARE_ONE_TOL,
    GRID_SLACK,
    N_GRID,
    classify_segments,
    find_poa_max,
    poa_ratio,
    sweep_csv_text,
    sweep_poa,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONTRACT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; here that code means solver failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _number(kind: type, low: float, above: bool = False):
    """argparse type: a finite ``kind`` at least ``low``, or above it with ``above``."""
    bound = ("positive" if above else "nonnegative") if low == 0 else f"at least {low}"

    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if value < low or (above and value == low):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse reports "invalid float value: 'x'"
    return parse


_POSITIVE = _number(float, 0.0, above=True)
_NONNEGATIVE = _number(float, 0.0)


def _read_json(path: str, flag: str) -> dict:
    """The JSON object in the file given to ``flag``, every number a float."""
    with open(path, encoding="utf-8") as fh:
        return _checked(json.load(fh, parse_int=float), f"the {flag} document", "object")


_NON_FINITE = "the result holds a non-finite number (inf or NaN)"


def _json_text(doc: dict) -> str:
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError(_NON_FINITE) from None


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


# -- command handlers: each returns its document, without meta --------------------


def cmd_solve(net, costs, args) -> dict:
    sol = solve_equilibrium(net, costs, args.demand)
    opt = solve_optimum(net, costs, args.demand)
    return {**_solution_doc(sol, "equilibrium"),
            "poa": poa_ratio(sol.social_cost, opt.social_cost, sol.cost)}


def cmd_optimum(net, costs, args) -> dict:
    return _solution_doc(solve_optimum(net, costs, args.demand), "optimum")


def cmd_trace(net, costs, args) -> dict:
    return {"trace": trace_to_json(trace_affine(net, costs, args.max_demand))}


def cmd_breakpoints(net, costs, args) -> dict:
    # breakpoints do not depend on the choice among equilibria: nothing is selected
    grow = args.max_demand is None
    trace = _trace(PathSet.build(net), _cost_list(net, costs),
                   MU_START if grow else args.max_demand, grow=grow)
    return {"breakpoints": _breakpoint_rows(trace.breakpoints),
            "optimum_breakpoints": _breakpoint_rows(optimum_breakpoints(trace.breakpoints)),
            "complete": trace.complete, "mu_max": trace.mu_max}


def cmd_sweep(net, costs, args) -> dict | str:
    rows = sweep_poa(net, costs, args.mu_from, args.to, args.samples,
                     adaptive=args.adaptive)
    if args.format == "json":
        return {"rows": [{"mu": r.mu, "lambda": r.lam, "sc_eq": r.sc_eq,
                          "sc_opt": r.sc_opt, "poa": r.poa,
                          "active_set_hash": r.active_hash} for r in rows]}
    if not np.isfinite([(r.lam, r.sc_eq, r.sc_opt, r.poa) for r in rows]).all():
        raise ValueError(_NON_FINITE)
    return sweep_csv_text(rows)


def cmd_analyze(net, costs, args) -> dict:
    curve = classify_segments(net, costs, args.max_demand)
    mx = find_poa_max(net, costs, curve=curve)
    return {"pieces": [vars(p) for p in curve.pieces],
            "eq_breakpoints": list(curve.eq_breakpoints),
            "opt_breakpoints": list(curve.opt_breakpoints),
            "merged_breakpoints": list(curve.merged_breakpoints),
            "mu_max": curve.mu_max, "max": vars(mx)}


def cmd_verify(net, costs, args) -> dict:
    if (args.solution is None) == (args.trace is None):
        raise ValueError("exactly one of --solution, --trace is required")
    ps, cost_list = PathSet.build(net), _cost_list(net, costs)
    violations = []
    if args.trace is not None:
        doc = _read_json(args.trace, "--trace")
        trace = trace_from_json(doc.get("trace", doc))
        segments = tuple(replace(seg, paths=ps.paths, w=_in_path_order(ps, seg.paths, seg.w),
                                 z=_in_path_order(ps, seg.paths, seg.z)) for seg in trace.segments)
        violations = _document_violations(replace(trace, segments=segments), ps, cost_list)
        demands = [mu for seg in segments for mu in (seg.mu_lo, seg.mu_hi)]
        flows = [seg.flows(mu) for seg in segments for mu in (seg.mu_lo, seg.mu_hi)]
    else:
        doc = _read_json(args.solution, "--solution")
        rows = _field(doc, "paths", "objects")
        paths = [tuple(_field(p, "edges", "names")) for p in rows]
        flows = [_in_path_order(ps, paths, [_field(p, "flow") for p in rows])]
        demands = [_field(doc, "demand")]
    flows = np.reshape(flows, (len(flows), ps.n_paths))
    reports = _grade(ps, cost_list, flows, demands)
    found = [list(report.violations) for report in reports]
    if args.trace is not None:
        # flows and path costs are affine on a segment: its ends pass only if all of
        # it does, once a path with flow above dust at either end is used at both
        above = flows > np.array([_dust(mu) for mu in demands])[:, None]
        used = np.repeat(above.reshape(-1, 2, ps.n_paths).any(axis=1), 2, axis=0)
        for r, listed, s in zip(reports, found, used):
            dear = (s & (r.slacks > GRADE_TOL * max(1.0, r.lam))).nonzero()[0]
            listed += [v for p in dear
                       if (v := _dear_path(ps.paths[p], r.path_costs[p], r.lam)) not in listed]
    violations += [f"mu={mu:.12g}: {v}" for mu, vs in zip(demands, found) for v in vs]
    return {"checked": len(demands), "ok": not violations, "violations": violations}


# -- parser ------------------------------------------------------------------------


@functools.cache
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
    p.add_argument("--demand", type=_POSITIVE, required=True)
    # solve and optimum echo Newton's stop test and budget; solve, sweep and
    # analyze echo the fixed band within which a ratio is declared one
    p.set_defaults(func=cmd_solve, tol=DEFAULT_TOL, max_iter=MAX_ITER, equal_tol=DECLARE_ONE_TOL,
                   echo=("tol", "max_iter", "equal_tol"))

    p = sub.add_parser("optimum", help="social optimum at one demand (JSON)")
    common(p)
    p.add_argument("--demand", type=_POSITIVE, required=True)
    p.set_defaults(func=cmd_optimum, tol=DEFAULT_TOL, max_iter=MAX_ITER, echo=("tol", "max_iter"))

    p = sub.add_parser("trace",
                       help="piecewise equilibrium structure, affine costs (JSON)")
    common(p)
    p.add_argument("--max-demand", type=_POSITIVE, required=True)
    p.set_defaults(func=cmd_trace, echo=())

    p = sub.add_parser("breakpoints",
                       help="demands where the active network changes (JSON)")
    common(p)
    p.add_argument("--max-demand", type=_POSITIVE, default=None,
                   help="stop here; default traces until the structure is final")
    p.set_defaults(func=cmd_breakpoints, echo=())

    p = sub.add_parser("sweep", help="tabulate the ratio over a demand range")
    common(p)
    p.add_argument("--from", dest="mu_from", type=_NONNEGATIVE, required=True)
    p.add_argument("--to", type=_POSITIVE, required=True)
    p.add_argument("--samples", type=_number(int, 2), required=True)
    p.add_argument("--adaptive", action="store_true",
                   help="insert midpoints wherever the active set changes")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep, equal_tol=DECLARE_ONE_TOL, echo=("equal_tol",))

    p = sub.add_parser("analyze",
                       help="ratio curve pieces, shapes, and global max (JSON)")
    common(p)
    p.add_argument("--max-demand", type=_POSITIVE, default=None,
                   help="analysis window; default covers every breakpoint")
    p.set_defaults(func=cmd_analyze, grid=N_GRID, grid_slack=GRID_SLACK,
                   equal_tol=DECLARE_ONE_TOL, echo=("grid", "grid_slack", "equal_tol"))

    p = sub.add_parser("verify",
                       help="re-check equilibrium conditions; exit 3 on violation")
    common(p)
    p.add_argument("--solution", default=None,
                   help="solution JSON written by the solve command")
    p.add_argument("--trace", default=None,
                   help="trace JSON; grades each segment at its two ends, every path "
                        "used at either end counted as used at both, and checks its "
                        "alpha, beta, gamma and active_edges against its flow line")
    # verify echoes the fixed grade band
    p.set_defaults(func=cmd_verify, tol=GRADE_TOL, echo=("tol",))

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # an overflow surfaces as a non-finite result, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            net, costs = load_network(args.network)
            doc = args.func(net, costs, args)
            text = doc if isinstance(doc, str) else _json_text({**doc, "meta": {
                "command": args.command, "network": args.network,
                "tolerances": {name: getattr(args, name) for name in args.echo}}})
            if args.output:
                with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        return EXIT_CONTRACT if isinstance(doc, dict) and not doc.get("ok", True) else EXIT_OK
    except json.JSONDecodeError as exc:
        print(f"poakit: error: malformed JSON: {exc.msg} at line {exc.lineno} "
              f"column {exc.colno}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError, PoakitError) as exc:
        print(f"poakit: error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
