"""poakit benchmark: one workload, one seed, one measured run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload analyze-affine --seed 1 --seconds 40 --trace 0

The run builds the workload's network files from the seed, measures set-up
in fresh interpreters, then runs whole rounds over the workload's operations
in this process, each round in a new shuffled order, checking every answer.
The number of rounds is ``--seconds`` over the workload's nominal round time
(``workloads.ROUND_S``), and at least ``MIN_ROUNDS``; it depends on nothing
measured, so every run of a workload does the same work.

An operation's time is its mean over the rounds. The host is shared: other
tenants change this process's speed by up to half for ten seconds or more
at a time. Rounds spread each operation's tries over the whole run, so every
timing metric averages the same stretch of host time that ``ops_per_s``
does, rather than the few seconds around one try.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one round
untraced and one traced, prints the per-module metrics and writes the spans
to ``.perfbench/spans-<workload>.npz``. The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

An operation that raises, or whose answer fails a check, counts as failed;
nothing is retried or skipped. ``correct`` is false when any failure lies
outside the program defects listed in ``workloads.KNOWN_DEFECTS``.
"""

from __future__ import annotations

import os

# One BLAS thread: the numpy wheel's OpenBLAS would otherwise start up to
# 64 threads on a 2-core machine. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("analyze-affine", "poa-nonaffine")
SETUP_SAMPLES = 3
MIN_ROUNDS = 2
TAIL_BEYOND = 10
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import poakit\n"
               "for p in sys.argv[2:]: poakit.load_network(p)")
# exact-solve counts of trace_to_completion / find_poa_max on the fixtures
# at the commit that introduced this benchmark
REFERENCE_COUNTS = {"fig1": 196, "nested2": 560, "nested3": 1703}
REFERENCE_FINAL_PASS = {"nested3": 588}
REFERENCE_FIND_MAX = {"nested2": 584}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


# -- measuring ----------------------------------------------------------------------


def measure_setup(files: list[str]) -> list[float]:
    """Wall time of fresh interpreters that import poakit and load ``files``.
    One untimed start compiles the bytecode caches first."""
    cmd = [sys.executable, "-c", SETUP_PROBE, SRC, *files]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, env=os.environ.copy())
        if k:
            samples.append(time.perf_counter() - t0)
    return samples


class Record:
    """Outcome of every attempted operation."""

    def __init__(self):
        self.times: list[float] = []
        self.per_op: dict[tuple, list[float]] = {}  # (instance, mu) -> time in each round
        self.all_ok: dict[tuple, bool] = {}
        self.ok: list[bool] = []
        self.ops = []
        self.failures: list[str] = []
        self.unexpected = 0  # failures outside workloads.KNOWN_DEFECTS

    def run(self, op, span=None) -> None:
        t0 = time.perf_counter()
        try:
            result = op.run() if span is None else span(op.run)
        except Exception as exc:  # every failure is counted, none is fatal
            elapsed = time.perf_counter() - t0
            first_line = str(exc).splitlines()[0][:160] if str(exc) else ""
            self._add(op, elapsed, f"raised {type(exc).__name__}: {first_line}")
            return
        elapsed = time.perf_counter() - t0
        problems = op.check(result, op)
        self._add(op, elapsed, "wrong answer: " + "; ".join(problems) if problems else None)

    def _add(self, op, elapsed: float, failure: str | None) -> None:
        from workloads import known_defect

        self.times.append(elapsed)
        self.ok.append(failure is None)
        self.ops.append(op)
        key = (op.instance, op.mu)
        self.per_op.setdefault(key, []).append(elapsed)
        self.all_ok[key] = self.all_ok.get(key, True) and failure is None
        if failure is None:
            return
        known = known_defect(op.instance, op.mu, failure)
        self.unexpected += not known
        self.failures.append(f"{'known defect' if known else 'FAILED'}: {op.instance} "
                             f"mu={op.mu} {elapsed * 1e3:.1f} ms {failure}")

    def per_instance(self) -> list[str]:
        by: dict[str, list[float]] = {}
        facts: dict[str, dict] = {}
        for op, t in zip(self.ops, self.times):
            by.setdefault(op.instance, []).append(t)
            facts.setdefault(op.instance, {}).update(op.result_info)
        return [f"instance {name}: {len(ts)} ops, median {1e3 * statistics.median(ts):.1f} ms, "
                f"total {sum(ts):.3f} s"
                + "".join(f", {k} {v}" for k, v in sorted(facts[name].items()))
                for name, ts in sorted(by.items())]


def run_rounds(make_round, rounds: int, span=None) -> tuple[Record, float]:
    """Run ``rounds`` whole rounds. Returns the record and the wall time."""
    rec = Record()
    t0 = time.perf_counter()
    for _ in range(rounds):
        for op in make_round():
            rec.run(op, span)
    return rec, time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its name."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], f"p100 (max; only {n} ops, fewer than {TAIL_BEYOND + 1})"
    return s[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} ops"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-module metrics from spans ------------------------------------------------


def module_metrics(spans, records, round_plain: float, round_traced: float) -> dict:
    from tracer import OP

    ops = spans.ids(OP)
    n_ops = max(len(ops), 1)
    in_op = spans.owner(ops) >= 0

    def sel(prefix: str):
        idx = spans.matching(prefix)
        return idx[in_op[idx]]

    def count(prefix):
        return float(len(sel(prefix)))

    def self_ms(prefix):
        return 1e3 * float(spans.self_time[sel(prefix)].sum())

    def errors(idx, kind=None):
        bad = spans.error[idx] >= 0
        if kind is not None:
            code = spans.errors.index(kind) if kind in spans.errors else -2
            bad = spans.error[idx] == code
        return float(bad.sum())

    ttc = sel("parametric.trace_to_completion")
    exact = sel("equilibrium.solve_affine_exact")
    passes = sel("parametric.trace_affine")
    own_ttc = spans.owner(ttc)
    traced_exact = float((own_ttc[exact] >= 0).sum())
    last_pass = [p for p in passes if own_ttc[p] >= 0 and
                 not any(own_ttc[q] == own_ttc[p] and spans.start[q] > spans.start[p]
                         for q in passes)]
    own_pass = spans.owner(np.array(last_pass, dtype=np.int64))
    final_exact = float((own_pass[exact] >= 0).sum())
    breakpoints = float(sum(op.result_info.get("breakpoints", 0) for op in records.ops
                            if "breakpoints" in op.result_info))
    iterative = sel("equilibrium.solve_equilibrium")
    n_ttc = max(len(ttc), 1)
    m = {
        "parametric.trace_passes_per_op": (float((own_ttc[passes] >= 0).sum()) / n_ttc, "count"),
        "parametric.exact_solves_per_trace": (traced_exact / n_ttc, "count"),
        "parametric.final_pass_exact_solves_per_trace": (final_exact / n_ttc, "count"),
        "parametric.exact_solves_per_breakpoint": (traced_exact / max(breakpoints, 1.0), "count"),
        "parametric.self_ms": (self_ms("parametric.") / n_ops, "ms"),
        "equilibrium.exact_solves_per_op": (len(exact) / n_ops, "count"),
        "equilibrium.exact_self_ms": (self_ms("equilibrium.solve_affine_exact") / n_ops, "ms"),
        "equilibrium.exact_fail_ratio": (errors(exact) / max(len(exact), 1), "ratio"),
        "equilibrium.iterative_solves_per_op": (len(iterative) / n_ops, "count"),
        "equilibrium.iterative_self_ms": (
            (self_ms("equilibrium.solve_equilibrium") + self_ms("equilibrium.solve_optimum"))
            / n_ops, "ms"),
        "equilibrium.nonconvergence_per_op": (errors(iterative, "NonConvergence") / n_ops, "count"),
        "costs.calls_per_op": (count("costs.") / n_ops, "count"),
        "costs.self_ms": (self_ms("costs.") / n_ops, "ms"),
        "network.path_builds_per_op": (count("network.PathSet.build") / n_ops, "count"),
        "network.self_ms": (self_ms("network.") / n_ops, "ms"),
        "network.load_ms": (1e3 * float(np.mean(spans.dur[spans.ids("network.load_network")]))
                            if len(spans.ids("network.load_network")) else 0.0, "ms"),
        "poa.compute_poa_per_op": (count("poa.compute_poa") / n_ops, "count"),
        "poa.classify_ms": (1e3 * float(spans.dur[sel("poa.classify_segments")].sum()) / n_ops,
                            "ms"),
        "poa.find_poa_max_self_ms": (self_ms("poa.find_poa_max") / n_ops, "ms"),
        "cli.self_ms": (self_ms("cli.") / n_ops, "ms"),
        "trace_overhead_ratio": (round_traced / round_plain, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _against(got: int, want: int) -> str:
    return f"{got} (recorded {want})" if got == want else f"{got} MISMATCH (recorded {want})"


def reference_counts(spans, records) -> list[str]:
    """Exact solves per fixture trace, against the counts recorded for it.
    A differing count is reported as MISMATCH; it does not make the run
    incorrect, since a change to poakit's continuation may move these counts
    on purpose."""
    from tracer import OP

    ops = spans.ids(OP)
    exact = spans.ids("equilibrium.solve_affine_exact")
    lines = []
    own_op = spans.owner(ops)
    for name, want in REFERENCE_COUNTS.items():
        idx = [o for o, op in zip(ops, records.ops) if op.instance == name]
        if not idx:
            continue
        ttc = [t for t in spans.ids("parametric.trace_to_completion") if own_op[t] == idx[0]]
        passes = [p for p in spans.ids("parametric.trace_affine") if own_op[p] == idx[0]]
        total = int(np.isin(spans.owner(np.array(ttc))[exact], ttc).sum()) if ttc else 0
        per_pass = [int((spans.owner(np.array([p]))[exact] == p).sum()) for p in passes]
        line = (f"reference count {name}: trace_to_completion {_against(total, want)} "
                f"exact solves; passes {per_pass}")
        if name in REFERENCE_FINAL_PASS:
            final = per_pass[-1] if per_pass else 0
            line += f"; final pass {_against(final, REFERENCE_FINAL_PASS[name])}"
        lines.append(line)
    return lines


# -- main -------------------------------------------------------------------------


def main() -> int:
    args = _args()
    if not os.path.isfile(os.path.join(SRC, "poakit", "__init__.py")):
        _fail(f"no poakit sources under {SRC}; run from the root of a source checkout")
    if not os.path.isdir(os.path.join(ROOT, "fixtures")):
        _fail(f"no fixtures directory under {ROOT}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    import scipy

    import workloads

    workdir = os.path.join(ROOT, ".perfbench", args.workload)
    insts, make_ops = workloads.build(args.workload, ROOT, workdir, args.seed)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__} "
          f"nproc {len(os.sched_getaffinity(0))} OPENBLAS_NUM_THREADS=1; closed loop, "
          f"one client, one workload at a time")
    setup = measure_setup([inst.path for inst in insts]) if args.trace == 0 else []

    import poakit

    loaded = {inst.name: poakit.load_network(inst.path) for inst in insts}
    for inst in insts:
        print(f"instance {inst.summary(poakit.PathSet.build(loaded[inst.name][0]).n_paths)}")
    order = np.random.default_rng((args.seed, 1))

    def make_round():
        ops = make_ops(loaded)
        return [ops[k] for k in order.permutation(len(ops))]

    Record().run(make_ops(loaded)[0])  # first calls fill lazy imports and caches
    n_rounds = (max(MIN_ROUNDS, int(args.seconds // workloads.ROUND_S[args.workload]))
                if args.trace == 0 else 1)
    records, wall = run_rounds(make_round, n_rounds)
    metrics: dict
    if args.trace == 0:
        mean = [statistics.fmean(ts) for ts in records.per_op.values()]
        correct_ops = sum(records.all_ok.values())
        tail_s, tail_name = tail(mean)
        metrics = {
            "ops_per_s": {"value": correct_ops / sum(mean), "unit": "1/s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(mean), "unit": "ms"},
            "op_ms_tail": {"value": 1e3 * tail_s, "unit": "ms"},
            "ok_ratio": {"value": correct_ops / len(mean), "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        print(f"timings are each op's mean over {n_rounds} rounds; op_ms_tail is {tail_name}")
        print(f"setup_s samples {[round(s, 4) for s in setup]}")
    else:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
        op_id = tr.name_id(tracer.OP)

        def span(fn):
            i = tr.open(op_id)
            try:
                out = fn()
            except BaseException as exc:
                tr.close(i, exc)
                raise
            tr.close(i)
            return out

        traced, wall_traced = run_rounds(make_round, 1, span=span)
        # outside any op: loads for network.load_ms, and the standalone maximum search
        for inst in insts:
            poakit.load_network(inst.path)
        extra = []
        for name, want in REFERENCE_FIND_MAX.items():
            if name in loaded:
                before = len(tr.name)
                poakit.find_poa_max(*loaded[name])
                names = np.frombuffer(tr.name, dtype=np.int32)[before:]
                n = int((names == tr.name_id("equilibrium.solve_affine_exact")).sum())
                extra.append(f"reference count {name}: find_poa_max {_against(n, want)} "
                             f"exact solves")
        tracer_spans = tracer.Spans(tr)
        tr.uninstall()
        tr.save(os.path.join(ROOT, ".perfbench", f"spans-{args.workload}.npz"))
        metrics = module_metrics(tracer_spans, traced, wall, wall_traced)
        counts = reference_counts(tracer_spans, traced) + extra
        for line in counts:
            print(line)
        if counts:
            print(f"reference counts: {sum('MISMATCH' in c for c in counts)} mismatches")
        print(f"spans {len(tr.name)} written to .perfbench/spans-{args.workload}.npz")
        print(f"traced round: wall {wall_traced:.3f}s")
        for line in traced.failures:
            print(f"traced {line}")

    # the traced round repeats the untraced ones; all are checked and counted
    runs = [records] + ([traced] if args.trace else [])
    attempted = sum(len(r.times) for r in runs)
    failed = attempted - sum(sum(r.ok) for r in runs)
    print(f"rounds {n_rounds} wall {wall:.3f}s attempted {attempted} failed {failed} "
          f"fail_ratio {failed / attempted:.6f}")
    for line in records.per_instance() + records.failures:
        print(line)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": all(r.unexpected == 0 for r in runs), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
