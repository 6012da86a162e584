#!/usr/bin/env python3
"""accmv benchmark.

    python3 bench/run.py --workload {fit_csv,table_sim,resample} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from `src/`.
Inputs are generated from `--seed`.  All load comes from this one process and
is closed-loop: each operation starts after the previous one returned.  BLAS
is pinned to one thread, so the two `table_sim` pool workers use one core
each.

Workloads (one operation = the unit `op_ms` is measured on):

* table_sim  `cli.run_table` for tables 1, 2 and 3 at n = 2000 with 2
               workers.  One op = one replicate of each table, i.e. the sum
               of the three tables' median ms per replicate.
* resample   on a `single`-design CSV, n = 2e4: `fit --method mr
               --bootstrap B`, then `sensitivity --delta 1 --center 1
               --grid=-1,-0.5,0,0.5,1 --bootstrap B`.  One op = one bootstrap
               replicate plus one sweep replicate.
* fit_csv    `accmv fit --method mr --functional product --coords 1,2
               --decompose-product` on a CSV of the `multiple` design,
               n = 1e5, run in-process through `cli.main`.  One op = one fit.
               Not listed in BENCHMARK.json: on a 2-core shared VM its
               run-to-run spread (IQR/median of op_ms over 10 seeds, about
               0.3) exceeded the largest bound the benchmark may set, so it
               is run by hand, e.g. for per-layer traces at n = 1e5.

With `--trace 0` the run sets up once, measures operations for `--seconds`
seconds with a few more set-ups spread evenly over that window, checks the
outputs, and reports `setup_s`, `peak_rss_mb` and `op_ms` plus each
workload's own named metrics on earlier lines.  `setup_s` is the median time
to import numpy and `accmv` in a fresh interpreter (timed in several child
processes after the measuring) plus the median set-up: data generation, CSV
writing and one warm-up operation.  The package is untouched in these runs
except that `resample` puts a pass-through recorder on `cli.sweep` during
each `sensitivity` command, to read the sweep's `n_failed`, which the
command does not print.  With `--trace 1` it runs a fixed amount of the
same work in pairs, once untraced and once with every layer wrapped by
`spans.Tracer`, writes the spans to `.bench_out/`, and reports the per-layer
metrics and the tracing overhead measured from those pairs: `.s`
values are self seconds summed over the traced work, `.calls` and other
counts are totals, except that in `table_sim` the counters
`glm.design_matrix.calls`, `patterns.Pattern.bits.calls` and
`glm.fit_odds.newton_iters` are per table-2 replicate and
`cli.table_replicate.p50_ms` is the median table-2 replicate.  A layer that a
workload does not run reports 0.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:      # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Per-run sizes.  "smoke" runs every code path at tiny sizes for the
# benchmark's own tests.
SIZES = {
    "full": {
        "fit_n": 100_000, "resample_n": 20_000, "B": 64, "table_n": 2000,
        "table_reps": {1: 48, 2: 20, 3: 96}, "traced_table_reps": 30,
        "setup_reps": 6, "import_reps": 3, "traced_ops": 3, "min_ops": 3,
    },
    "smoke": {
        "fit_n": 3000, "resample_n": 3000, "B": 40, "table_n": 2000,
        "table_reps": {1: 10, 2: 10, 3: 10}, "traced_table_reps": 4,
        "setup_reps": 2, "import_reps": 1, "traced_ops": 1, "min_ops": 1,
    },
}
WORKERS = 2
TABLE_METHODS = {1: ("mr", "ra", "ipw"), 2: ("mr", "ra", "ipw"), 3: ("ipw",)}
# Rows held to the truth: the rest print a note with their bias instead.
# Table-1 IPW has the heavy-tailed weights the README describes (kurtosis in
# the thousands), so a mean within k sample-SD-based Monte Carlo SEs is no
# valid test of it; table-2 RA fits outcomes linear in (x_r, l_a) where the
# design's both-missing strata have regressions quadratic in x, so it keeps
# a bias near -0.01 at every n.
TRUTH_CHECKED = {1: ("mr", "ra"), 2: ("mr", "ipw"), 3: ("ipw",)}
FIT_SE_BOUND = 5.0         # |estimate - truth| <= 5 influence-function SEs
TABLE_MC_BOUND = 4.0       # pooled replicate mean within 4 Monte Carlo SEs
CHECK_CYCLES = 20          # timed table_sim cycles whose replicates the truth checks pool
BOOT_SE_FACTOR = 1.5       # bootstrap SE within this factor of the IF SE
EXACT_TOL = 1e-12


def import_package():
    if not os.path.isfile(os.path.join(SRC, "accmv", "__init__.py")):
        sys.exit(f"bench: no accmv package under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import accmv  # noqa: F401
    from accmv import cli  # noqa: F401


import_package()

import numpy as np
import scipy

from accmv import cli, data, errors, estimators, glm, inference, mpm, patterns, sensitivity, simgen
from accmv.data import Functional, Schema
from accmv.simgen import SimDesign, oracle_value

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import Tracer  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import numpy, accmv, accmv.cli; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and `accmv`, with
    the BLAS pin of this process."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def quiet_main(argv) -> int:
    """`accmv` CLI in-process, its summary lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def timed(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t, out


class Run:
    """Operation tally and correctness-check results of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []            # (name, ok, detail)
        self.notes = []

    def ops(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def check(self, name, ok, detail):
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class CsvWorkload:
    """Parts shared by the workloads that run `accmv` commands on a generated CSV."""

    design = size_key = None

    def __init__(self, seed, sizes, workdir):
        self.seed, self.sizes = seed, sizes
        self.csv = os.path.join(workdir, f"{self.design}.csv")
        self.outputs = []

    def make_data(self):
        data.write_csv(self.csv, simgen.generate(SimDesign(self.design, self.sizes[self.size_key], self.seed)))

    def traced(self, tracer):
        plain, traced = [], []
        for i in range(self.sizes["traced_ops"]):      # pairs of untraced and traced ops
            plain.append(sum(self.op()))
            install_tracer(tracer)
            if i == 0:
                self.make_data()    # traced once, so generation and CSV writing are measured
            traced.append(sum(self.op()))
            tracer.uninstall()
        return statistics.median(traced) / statistics.median(plain) - 1.0, {}


def run_cli(argv):
    """Wall seconds and exit code of one in-process `accmv` command."""
    try:
        return timed(quiet_main, argv)
    except errors.AccmvError:
        return float("nan"), -1


# ---------------------------------------------------------------------------
# fit_csv
# ---------------------------------------------------------------------------

class FitCsv(CsvWorkload):
    design, size_key = "multiple", "fit_n"
    schema = Schema(("Y1", "Y2"), ("Y3", "Y4"))
    truth = oracle_value("multiple").theta_true

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.report = os.path.join(workdir, "report.json")
        self.argv = ["fit", "--data", self.csv, "--x-cols", "Y1,Y2", "--l-cols", "Y3,Y4",
                     "--method", "mr", "--functional", "product", "--coords", "1,2",
                     "--decompose-product", "--out", self.report]
        # self.outputs: (exit code, estimate, influence SE) per fit

    def setup(self):
        self.make_data()
        self.op()

    def op(self) -> list:
        wall, code = run_cli(self.argv)
        if code == 0:
            with open(self.report) as fh:
                rep = json.load(fh)
            self.outputs.append((code, rep["estimate"]["estimate"], rep["influence"]["se"]))
        else:
            self.outputs.append((code, None, None))
        return [wall]

    def reference(self):
        """Estimate and SE from calling the layers one by one."""
        ds = data.load_csv(self.csv, self.schema)
        strata = data.build_strata(ds)
        f = Functional("product", (0, 1))
        odds = glm.fit_all_odds(ds, strata)
        outs = glm.fit_all_outcomes(ds, strata, f, decompose=True)
        est = estimators.estimate_mr(ds, strata, odds, outs, f)
        se, _ = inference.if_variance_mr(ds, strata, odds, outs, f, est.theta_hat)
        return est.theta_hat, se

    def check(self, run: Run):
        ref_est, ref_se = self.reference()
        bad = [o for o in self.outputs if o[0] != 0]
        run.ops(len(self.outputs), len(bad))
        run.check("exit_code_zero", not bad, f"{len(bad)} of {len(self.outputs)} fits exited nonzero")
        good = [o for o in self.outputs if o[0] == 0]
        worst = max((abs(o[1] - self.truth) / o[2] for o in good), default=float("inf"))
        run.check("estimate_near_truth", worst <= FIT_SE_BOUND,
                  f"max |estimate - 175/128| = {worst:.3f} influence SEs (bound {FIT_SE_BOUND})")
        gap = max((max(abs(o[1] - ref_est), abs(o[2] - ref_se)) for o in good), default=float("inf"))
        run.check("matches_layer_calls", gap <= EXACT_TOL,
                  f"max gap to the layer-by-layer estimate and SE = {gap:.3g} (bound {EXACT_TOL})")

    def measure(self, seconds, lines, extra):
        walls = [w[0] for w in loop(self.op, seconds, self.sizes["min_ops"], extra)]
        p50 = statistics.median(walls)
        lines.append(f"fit_p50_s = {p50!r} s (median of {len(walls)} fits)")
        return {"op_ms": 1000.0 * p50}


# ---------------------------------------------------------------------------
# table_sim
# ---------------------------------------------------------------------------

class TableSim:
    def __init__(self, seed, sizes, workdir):
        self.seed, self.sizes = seed, sizes
        self.n = sizes["table_n"]
        self.replicates = self.n_failed = 0
        # Per table and method, one estimate array per fitted replicate of
        # the first CHECK_CYCLES cycles: a fixed count, so the truth
        # checks keep the same false-alarm rate however many cycles a host
        # completes in the window.
        self.check_reps = {t: CHECK_CYCLES * sizes["table_reps"][t] for t in (1, 2, 3)}
        self.estimates = {t: {m: [] for m in TABLE_METHODS[t]} for t in (1, 2, 3)}

    def call_seed(self, table, cycle) -> int:
        """run_table seed of one call; cycles 0 and 1 are the set-up and the
        traced run, timed cycles start at 2."""
        return int(np.random.SeedSequence([self.seed, table, cycle]).generate_state(1)[0])

    def run_table(self, table, reps, seed, workers, keep=True):
        """Wall seconds of one `run_table` call; with `keep`, its replicate
        counts and estimates are kept for the checks."""
        wall, res = timed(cli.run_table, table, reps, self.n, seed, workers=workers)
        if keep:
            self.replicates += res["replicates"]
            self.n_failed += res["n_failed"]
            room = self.check_reps[table] - len(self.estimates[table]["ipw"])
            for rep in list(filter(None, res["raw"]))[:max(room, 0)]:
                for method, ests in self.estimates[table].items():
                    ests.append(np.atleast_1d(rep[method][0]))
        return wall

    def setup(self):
        for table in (1, 2, 3):
            cli.run_table(table, 2 * WORKERS, self.n, self.call_seed(table, 0), workers=WORKERS)

    def measure(self, seconds, lines, extra):
        reps = self.sizes["table_reps"]
        per_rep = {1: [], 2: [], 3: []}
        cycle = [2]

        def one_cycle():
            for table in (1, 2, 3):
                wall = self.run_table(table, reps[table], self.call_seed(table, cycle[0]), WORKERS)
                per_rep[table].append(1000.0 * wall / reps[table])
            cycle[0] += 1

        loop(one_cycle, seconds, self.sizes["min_ops"], extra)
        total = 0.0
        for table in (1, 2, 3):
            med = statistics.median(per_rep[table])
            total += med
            lines.append(f"table{table}_ms_per_rep = {med!r} ms (median of {len(per_rep[table])} "
                         f"run_table calls of {reps[table]} replicates, {WORKERS} workers)")
        return {"op_ms": total}

    def check(self, run: Run):
        run.ops(self.replicates, self.n_failed)
        run.check("no_failed_replicates", self.n_failed == 0,
                  f"{self.n_failed} of {self.replicates} replicates failed")
        for table, by_method in self.estimates.items():
            truth = np.atleast_1d(oracle_value({1: "single", 2: "multiple", 3: "mpm"}[table]).theta_true)
            worst, what = 0.0, ""
            for method, ests in by_method.items():
                est = np.array(ests)
                for j in range(est.shape[1]):
                    bias = est[:, j].mean() - truth[j]
                    z = abs(bias) / (est[:, j].std(ddof=1) / np.sqrt(len(est)))
                    if method not in TRUTH_CHECKED[table]:
                        run.notes.append(f"table{table} {method}[{j}] not held to the truth: bias {bias:.5f}, "
                                         f"{z:.3f} Monte Carlo SEs over {len(est)} replicates")
                    elif not z <= worst:
                        worst, what = z, f"{method}[{j}]"
            run.check(f"table{table}_means_near_truth", worst <= TABLE_MC_BOUND,
                      f"worst {what}: {worst:.3f} Monte Carlo SEs from the truth over {len(est)} "
                      f"replicates (bound {TABLE_MC_BOUND})")

    def traced(self, tracer):
        reps = self.sizes["traced_table_reps"]
        serial = traced = pooled = 0.0
        per_rep = {}
        for t in (1, 2, 3):
            seed = self.call_seed(t, 1)
            serial += self.run_table(t, reps, seed, 1)
            install_tracer(tracer)
            before, first = dict(tracer.counts), len(tracer.spans)
            traced += self.run_table(t, reps, seed, 1, keep=False)
            tracer.uninstall()
            if t == 2:
                for key in ("glm.design_matrix.calls", "patterns.Pattern.bits.calls",
                            "glm.fit_odds.newton_iters"):
                    per_rep[key] = (tracer.counts[key] - before.get(key, 0.0)) / reps
                per_rep["cli.table_replicate.p50_ms"] = 1000.0 * statistics.median(
                    tracer.durations("cli.table_replicate", first))
            pooled += self.run_table(t, reps, seed, WORKERS, keep=False)
        per_rep["cli.run_table.scaling_eff"] = serial / (WORKERS * pooled)
        return traced / serial - 1.0, per_rep


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------

class Resample(CsvWorkload):
    design, size_key = "single", "resample_n"
    schema = Schema(("Y1", "Y2"), ("Y3",))

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.report = os.path.join(workdir, "boot.json")
        self.curve = os.path.join(workdir, "curve.csv")
        # self.outputs: (fit exit, sweep exit, boot SE, IF SE, boot n_failed,
        #                sweep n_failed, curve at 0) per op

    def argv(self, B):
        data_args = ["--data", self.csv, "--x-cols", "Y1,Y2", "--l-cols", "Y3", "--seed", str(self.seed)]
        return (["fit", *data_args, "--method", "mr", "--bootstrap", str(B), "--out", self.report],
                ["sensitivity", *data_args, "--delta", "1", "--center", "1", "--grid=-1,-0.5,0,0.5,1",
                 "--bootstrap", str(B), "--out", self.curve])

    def setup(self):
        self.make_data()
        for argv in self.argv(4):           # warm-up at a small B
            quiet_main(argv)

    def op(self):
        fit_argv, sweep_argv = self.argv(self.sizes["B"])
        fit_wall, fit_code = run_cli(fit_argv)
        with sweep_recorder() as curves:
            sweep_wall, sweep_code = run_cli(sweep_argv)
        boot_se = if_se = zero = None
        boot_failed = 0
        if fit_code == 0:
            with open(self.report) as fh:
                rep = json.load(fh)
            boot, if_se = rep["bootstrap"], rep["influence"]["se"]
            boot_se, boot_failed = boot["se"], boot["n_failed"]
        if sweep_code == 0:
            with open(self.curve, newline="") as fh:
                zero = next(float(r["estimate"]) for r in csv.DictReader(fh) if float(r["delta"]) == 0.0)
        sweep_failed = sum(c.n_failed for c in curves)
        self.outputs.append((fit_code, sweep_code, boot_se, if_se, boot_failed, sweep_failed, zero))
        return fit_wall, sweep_wall

    def measure(self, seconds, lines, extra):
        B = self.sizes["B"]
        walls = loop(self.op, seconds, self.sizes["min_ops"], extra)
        boot = statistics.median(B / w[0] for w in walls)
        swp = statistics.median(B / w[1] for w in walls)
        lines.append(f"boot_reps_per_s = {boot!r} 1/s (median of {len(walls)} fits with B={B})")
        lines.append(f"sweep_reps_per_s = {swp!r} 1/s (median of {len(walls)} sweeps with B={B})")
        return {"op_ms": 1000.0 / boot + 1000.0 / swp}

    def reference_sn_ipw(self) -> float:
        ds = data.load_csv(self.csv, self.schema)
        strata = data.build_strata(ds)
        odds = glm.fit_all_odds(ds, strata)
        return estimators.estimate_ipw(ds, strata, odds, Functional("coordinate", (0,)),
                                       self_normalize=True).theta_hat

    def check(self, run: Run):
        ref = self.reference_sn_ipw()
        n_cmd = 2 * len(self.outputs)
        bad = sum((o[0] != 0) + (o[1] != 0) for o in self.outputs)
        boot_failed = sum(o[4] for o in self.outputs)
        sweep_failed = sum(o[5] for o in self.outputs)
        n_reps = len(self.outputs) * self.sizes["B"]    # per command kind
        run.ops(n_cmd + 2 * n_reps, bad + boot_failed + sweep_failed)
        run.check("exit_code_zero", not bad, f"{bad} of {n_cmd} commands exited nonzero")
        run.check("no_failed_bootstrap_replicates", boot_failed == 0,
                  f"{boot_failed} of {n_reps} bootstrap replicates counted in n_failed")
        run.check("no_failed_sweep_replicates", sweep_failed == 0,
                  f"{sweep_failed} of {n_reps} sweep replicates counted in n_failed")
        ratios = [o[2] / o[3] for o in self.outputs if o[0] == 0]
        ok = bool(ratios) and all(1.0 / BOOT_SE_FACTOR <= r <= BOOT_SE_FACTOR for r in ratios)
        run.check("bootstrap_se_near_if_se", ok,
                  f"bootstrap SE / influence SE in [{min(ratios, default=0):.3f}, {max(ratios, default=0):.3f}]"
                  f" (bound factor {BOOT_SE_FACTOR})")
        gaps = [abs(o[6] - ref) for o in self.outputs if o[1] == 0]
        gap = max(gaps, default=float("inf"))
        run.check("sweep_zero_is_sn_ipw", gap <= EXACT_TOL,
                  f"max |sweep at multiplier 0 - self-normalized IPW| = {gap:.3g} (bound {EXACT_TOL})")


@contextlib.contextmanager
def sweep_recorder():
    """Collect the `SensitivityCurve`s that `cli.sweep` returns inside the
    block; the `sensitivity` command writes the curve but not its `n_failed`."""
    curves, inner = [], cli.sweep

    def recorded(*args, **kwargs):
        curves.append(inner(*args, **kwargs))
        return curves[-1]

    cli.sweep = recorded
    try:
        yield curves
    finally:
        cli.sweep = inner


WORKLOAD_CLASSES = {"fit_csv": FitCsv, "table_sim": TableSim, "resample": Resample}


# ---------------------------------------------------------------------------
# running one benchmark invocation
# ---------------------------------------------------------------------------

def loop(op, seconds, min_ops, extra):
    """Closed loop: call `op` until `seconds` have passed and at least
    `min_ops` calls were made; return the list of its results.  The calls in
    `extra` run between operations, evenly spread over the window, so that
    what they time sees the same machine as the operations do."""
    out = []
    start = time.perf_counter()
    pending = list(extra)
    while len(out) < min_ops or time.perf_counter() < start + seconds:
        due = start + seconds * (len(extra) - len(pending) + 0.5) / max(len(extra), 1)
        if pending and time.perf_counter() >= due:
            pending.pop()()
        out.append(op())
    for fn in pending:
        fn()
    return out


def install_tracer(tracer: Tracer) -> None:
    """Wrap every layer the per-layer metrics name; `tracer.uninstall()` undoes it."""

    def add(key, attr):
        return lambda result, counts: counts.__setitem__(key, counts[key] + getattr(result, attr))

    fn = tracer.install_function
    fn(data, "load_csv", "data.load_csv", add("data.load_csv.rows", "n"))
    fn(data, "write_csv", "data.write_csv")
    fn(data, "build_strata", "data.build_strata")
    tracer.install_method(data.Dataset, "subset", "data.subset")
    fn(simgen, "generate", "simgen.generate")
    fn(glm, "fit_odds", "glm.fit_odds", add("glm.fit_odds.newton_iters", "n_iter"))
    fn(glm, "fit_outcome", "glm.fit_outcome")
    fn(glm, "design_matrix", "glm.design_matrix")
    tracer.count_property(patterns.Pattern, "bits", "patterns.Pattern.bits.calls")
    fn(estimators, "compute_weights", "estimators.compute_weights")
    for attr in ("estimate_ipw", "estimate_ra", "estimate_mr", "estimate_complete_case"):
        fn(estimators, attr, "estimators.estimate")
    for attr in ("if_variance_ipw", "if_variance_ra", "if_variance_mr"):
        fn(inference, attr, "inference.if_variance")
    fn(inference, "bootstrap", "inference.bootstrap", add("inference.bootstrap.n_failed", "n_failed"))
    fn(mpm, "solve_weighted_ee", "mpm.solve_weighted_ee", add("mpm.solve_weighted_ee.iters", "iterations"))
    fn(mpm, "sandwich_variance", "mpm.sandwich_variance")
    fn(sensitivity, "tilted_estimate", "sensitivity.tilted_estimate")
    fn(sensitivity, "sweep", "sensitivity.sweep", add("sensitivity.sweep.n_failed", "n_failed"))
    fn(cli, "main", "cli.main")
    fn(cli, "table_replicate", "cli.table_replicate")
    fn(cli, "run_table", "cli.run_table")


def layer_metrics(tracer: Tracer, overhead: float, extra: dict) -> dict:
    c = tracer.counts
    load_total = tracer.total_seconds("data.load_csv")
    vals = {
        "data.load_csv.rows_per_s": c["data.load_csv.rows"] / load_total if load_total else 0.0,
        "glm.fit_odds.newton_iters": c["glm.fit_odds.newton_iters"],
        "inference.bootstrap.failed": c["inference.bootstrap.n_failed"],
        "mpm.solve_weighted_ee.iters": c["mpm.solve_weighted_ee.iters"],
        "sensitivity.sweep.failed": c["sensitivity.sweep.n_failed"],
        "cli.self.s": tracer.self_seconds("cli.main"),
        "cli.table_replicate.p50_ms": 0.0,
        "cli.run_table.scaling_eff": 0.0,
        "trace.overhead_frac": overhead,
    }
    for name in LAYER_UNITS:
        if name in vals:
            continue
        layer, kind = name.rsplit(".", 1)
        vals[name] = tracer.self_seconds(layer) if kind == "s" else c[name]
    vals.update(extra)
    return {k: {"value": float(vals[k]), "unit": u} for k, u in LAYER_UNITS.items()}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped
    children (ru_maxrss is in KiB on Linux).  A forked pool worker's figure
    includes the pages it shares with this process, so `table_sim` counts
    much of this process twice."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def non_negative(text) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOAD_CLASSES))
    ap.add_argument("--seed", type=non_negative, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    sizes = SIZES["smoke" if args.smoke else "full"]

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"sizes={'smoke' if args.smoke else 'full'}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    run, lines = Run(), []
    try:
        def set_up():
            wl = WORKLOAD_CLASSES[args.workload](args.seed, sizes, workdir)
            setups.append(timed(wl.setup)[0])
            return wl

        setups = []
        wl = set_up()
        if args.trace:
            tracer = Tracer()
            overhead, extra = wl.traced(tracer)
            metrics = layer_metrics(tracer, overhead, extra)
            os.makedirs(OUT_ROOT, exist_ok=True)
            spans_path = os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans_path)
            lines.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
        else:
            values = wl.measure(args.seconds, lines, [set_up] * (sizes["setup_reps"] - 1))
        wl.check(run)
        if not args.trace:
            values["peak_rss_mb"] = peak_rss_mb()    # read before the import probes add children
            imports = [import_seconds() for _ in range(sizes["import_reps"])]
            values["setup_s"] = statistics.median(imports) + statistics.median(setups)
            lines.append(f"setup_s = {values['setup_s']!r} s (median of {len(imports)} imports "
                         f"{statistics.median(imports):.4f} s + median of {len(setups)} set-ups "
                         f"{statistics.median(setups):.4f} s)")
            metrics = {k: {"value": float(values[k]), "unit": u} for k, u in E2E_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(f"failed_frac = {run.failed / max(run.attempted, 1)!r} ratio ({run.failed} of {run.attempted})")
    for name, ok, detail in run.checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    for note in run.notes:
        print(f"note {note}")
    correct = all(ok for _, ok, _ in run.checks)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
