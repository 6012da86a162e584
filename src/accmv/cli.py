"""Command-line entry point.

Subcommands: fit, regress, sensitivity, simulate, table, verify-oracles.
A JSON config file (--config) overrides the corresponding flags.  Exit codes:
0 success, 1 standard output closed before the summary was printed (a
broken pipe), 2 config error (also a run that asks for more memory than it
can get, a ResourceError), 3 data error, 4 fit error, 5 inference error,
6 oracle-verification discrepancy.  `table --workers` is capped at the
number of CPUs.  The --out and --dump-replicates files
are written before the summary is printed, so a closed pipe does not lose them.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from .data import DEFAULT_MISSING_TOKENS, Functional, Schema, build_strata, check_integer, load_csv, write_csv
from .errors import ConfigError, DataError, FitError, InferenceError, ResourceError
from .estimators import (
    estimate_complete_case,
    estimate_ipw,
    estimate_mr,
    estimate_ra,
)
from .glm import fit_all_odds, fit_all_outcomes, fit_odds, fit_outcome, incomplete_views
from .inference import bootstrap, critical_value, failed_text, normal_ci, replicate, seed_sequence
from .mpm import ScoreSpec, sandwich_variance, solve_weighted_ee
from .sensitivity import TiltSpec, sweep
from .simgen import SimDesign, default_functional, generate, misspec_masks, oracle_value, verify_oracles


# ---------------------------------------------------------------------------
# replication harness for the three benchmark tables
# ---------------------------------------------------------------------------

_TABLE_DESIGNS = {1: "single", 2: "multiple", 3: "mpm"}


def _refit(models, masks, fit):
    """`models` with the model of each pair that `masks` names refitted by
    `fit(pair, keep)` under its keep mask."""
    out = dict(models)
    for key, keep in masks.items():
        if key in out:
            out[key] = fit(out[key].pair, keep)
    return out


def _mean_table_rows(ds, strata, kind, f):
    """All method rows (estimate, theoretical SE) for tables of mean functionals."""
    decompose = kind == "multiple"
    odds_ok = fit_all_odds(ds, strata)
    odds_bad = _refit(odds_ok, misspec_masks(kind, "odds"), lambda pr, keep: fit_odds(ds, strata, pr, keep=keep))
    outs_ok = fit_all_outcomes(ds, strata, f, decompose=decompose)
    outs_bad = _refit(outs_ok, misspec_masks(kind, "outcome"),
                      lambda pr, keep: fit_outcome(ds, strata, pr, f, keep=keep, decompose=decompose))

    rows = {}
    for name, est in (
        ("ipw", estimate_ipw(ds, strata, odds_ok, f)),
        ("ipw_wrong", estimate_ipw(ds, strata, odds_bad, f)),
        ("ra", estimate_ra(ds, strata, outs_ok, f)),
        ("ra_wrong", estimate_ra(ds, strata, outs_bad, f)),
        ("mr", estimate_mr(ds, strata, odds_ok, outs_ok, f)),
        ("mr_ipw_wrong", estimate_mr(ds, strata, odds_bad, outs_ok, f)),
        ("mr_ra_wrong", estimate_mr(ds, strata, odds_ok, outs_bad, f)),
        ("mr_both_wrong", estimate_mr(ds, strata, odds_bad, outs_bad, f)),
        ("complete_case", estimate_complete_case(ds, strata, f)),
    ):
        rows[name] = (est.theta_hat, est.influence.se)
    return rows


def _regression_table_rows(ds, strata):
    """The odds-weighted and complete-case (no odds) rows of table 3."""
    spec = ScoreSpec("linear", response=1, predictors=(0,))
    rows = {}
    for name, odds in (("ipw", fit_all_odds(ds, strata)), ("complete_case", None)):
        est = solve_weighted_ee(ds, strata, odds, spec)
        rows[name] = (est.theta_hat.copy(), np.sqrt(np.diag(sandwich_variance(ds, strata, odds, est))))
    return rows


def _table_design(table) -> str:
    """The simulation design of benchmark table 1, 2 or 3; any other table is a ConfigError."""
    check_integer("table", table, 1)
    if table not in _TABLE_DESIGNS:
        raise ConfigError(f"table must be 1, 2, or 3, got {table}")
    return _TABLE_DESIGNS[table]


def table_replicate(table: int, n: int, seed) -> dict:
    """One replicate of a benchmark table; a failed fit raises its AccmvError."""
    kind = _table_design(table)
    ds = generate(SimDesign(kind, n, seed))
    strata = build_strata(ds)
    if table == 3:
        return _regression_table_rows(ds, strata)
    return _mean_table_rows(ds, strata, kind, default_functional(kind))


def run_table(table: int, replicates: int, n: int, seed: int, workers: int = 0) -> dict:
    """Replicate a benchmark table and summarize bias, sample SE, mean
    theoretical SE, and 95% CI coverage per method row.

    `raw` holds each replicate's rows in stream order, None for a failed one;
    `failures` counts the failed ones by `AccmvError` subclass name.
    """
    kind = _table_design(table)
    for name, value, least in (("replicates", replicates, 1), ("workers", workers, 0)):
        check_integer(name, value, least)
    SimDesign(kind, n)               # reject a bad design before any replicate runs
    truth = oracle_value(kind).theta_true
    args = [(table, n, child) for child in seed_sequence(seed).spawn(replicates)]
    cpus = os.cpu_count() or 1
    results, failures = replicate(table_replicate, args, min(workers or cpus, cpus, replicates))
    ok = [r for r in results if r is not None]
    if not ok:
        raise FitError(f"every replicate failed to fit: {failed_text(replicates, failures)}")

    truth_vec = np.atleast_1d(np.asarray(truth, dtype=float))
    z = critical_value(0.95)
    summary = []
    for name in ok[0]:
        ests = np.array([np.atleast_1d(r[name][0]) for r in ok])
        ses = np.array([np.atleast_1d(r[name][1]) for r in ok])
        for j in range(ests.shape[1]):
            tj = truth_vec[j] if truth_vec.size > 1 else truth_vec[0]
            covered = np.abs(ests[:, j] - tj) <= z * ses[:, j]
            summary.append(
                {
                    "method": name,
                    "coef": j if ests.shape[1] > 1 else None,
                    "bias": float(ests[:, j].mean() - tj),
                    "sample_se": float(ests[:, j].std(ddof=1)) if len(ok) > 1 else 0.0,
                    "mean_theoretical_se": float(ses[:, j].mean()),
                    "coverage": float(covered.mean()),
                }
            )
    return {
        "table": table,
        "n": n,
        "replicates": replicates,
        "n_failed": replicates - len(ok),
        "failures": failures,
        "seed": seed,
        "truth": truth_vec.tolist(),
        "rows": summary,
        "raw": results,
    }


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _csv_list(s):
    return tuple(t for t in (x.strip() for x in s.split(",")) if t != "") if s else ()


def _float_list(s):
    return tuple(float(x) for x in s.split(",")) if s else ()


def _int_list(s):
    return tuple(int(x) for x in s.split(",")) if s else ()


# element type of the values each list option's converter produces
_LIST_ITEMS = {_csv_list: str, _float_list: float, _int_list: int}


def _config_scalar(key, kind, val):
    """`val` as a bool, int, float or str; only JSON integers convert (to float)."""
    if isinstance(val, bool):
        ok = kind is bool
    elif kind is float:
        ok = isinstance(val, (int, float))
    else:
        ok = isinstance(val, kind)
    if not ok:
        raise ConfigError(f"config key {key!r}: expected {kind.__name__}, got {val!r}")
    return kind(val)


def _config_value(key, action, val):
    """A config entry converted as its option would convert it on the command line.

    List options take a JSON list or the string their flag takes; the other
    options take a JSON value of their own type.
    """
    if action.type in _LIST_ITEMS:
        if isinstance(val, str):
            try:
                return action.type(val)
            except ValueError as e:
                raise ConfigError(f"config key {key!r}: {e}") from None
        if not isinstance(val, list):
            raise ConfigError(f"config key {key!r}: expected a list or a comma-separated string, got {val!r}")
        return tuple(_config_scalar(key, _LIST_ITEMS[action.type], v) for v in val)
    val = _config_scalar(key, bool if action.nargs == 0 else action.type or str, val)
    if action.choices is not None and val not in action.choices:
        raise ConfigError(f"config key {key!r}: {val!r} is not one of {list(action.choices)}")
    return val


def _apply_config(args):
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file {args.config}: {e.strerror or e}") from None
    except ValueError as e:          # not JSON, or not text
        raise ConfigError(f"config file {args.config}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {args.config}: expected a JSON object")
    actions = {a.dest: a for a in args.parser._actions if a.option_strings}
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ConfigError(f"config key {key!r} does not match any option of this subcommand")
        setattr(args, attr, _config_value(key, actions[attr], val))
    return args


def _schema(args) -> Schema:
    if not args.x_cols or not args.l_cols:
        raise ConfigError("--x-cols and --l-cols (or config equivalents) are required")
    tokens = tuple(args.missing_tokens) if args.missing_tokens else DEFAULT_MISSING_TOKENS
    return Schema(tuple(args.x_cols), tuple(args.l_cols), tokens)


def _functional(args, d: int) -> Functional:
    coords = tuple(int(c) - 1 for c in args.coords) if args.coords else (0,)
    for c in coords:
        if not 0 <= c < d:
            raise ConfigError(f"functional coordinate {c + 1} out of range for d={d}")
    return Functional(args.functional, coords, tuple(args.thresholds or ()))


@contextmanager
def _writing(path):
    """Turns a failure to write the output file `path` into a DataError naming it."""
    try:
        yield
    except OSError as e:
        raise DataError(f"cannot write {path}: {e.strerror or e}") from None


def _write_json(path, payload):
    with _writing(path), open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolved(args) -> dict:
    skip = {"func", "parser"}
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    critical_value(args.level)       # reject a bad level before any fitting
    if args.self_normalize and args.method != "ipw":
        raise ConfigError(f"--self-normalize applies to --method ipw only, got --method {args.method}")
    ds = load_csv(args.data, _schema(args))
    strata = build_strata(ds)
    f = _functional(args, ds.d)
    method = args.method

    warnings = []
    for view in incomplete_views(ds, strata) if method != "cc" else ():      # the complete-case mean fits no model
        if min(view.case.size, view.pool.size) < 2 * args.n_min:
            warnings.append(f"small stratum {view.pair}: case {view.case.size}, pool {view.pool.size}")

    def estimate(dsx, sx):
        if method == "cc":
            return estimate_complete_case(dsx, sx, f)
        if method == "ipw":
            return estimate_ipw(dsx, sx, fit_all_odds(dsx, sx, n_min=args.n_min), f, self_normalize=args.self_normalize)
        outs = fit_all_outcomes(dsx, sx, f, n_min=args.n_min, decompose=args.decompose_product)
        if method == "ra":
            return estimate_ra(dsx, sx, outs, f)
        return estimate_mr(dsx, sx, fit_all_odds(dsx, sx, n_min=args.n_min), outs, f)

    est = estimate(ds, strata)
    report = {
        "config": _resolved(args),
        "functional": f.describe(),
        "estimate": est.to_dict(),
        "influence": normal_ci(est.theta_hat, est.influence.se, args.level).to_dict(),
        "warnings": warnings,
    }
    if args.bootstrap:
        boot = bootstrap(ds, strata, lambda dsx, sx: estimate(dsx, sx).theta_hat, est.theta_hat,
                         B=args.bootstrap, seed=args.seed or 0, level=args.level)
        report["bootstrap"] = boot.to_dict()
    if args.out:
        _write_json(args.out, report)

    print(f"method={method}  estimate={est.theta_hat:.6g}  n={ds.n}")
    ci = report["influence"]
    print(f"influence SE={ci['se']:.6g}  {100 * args.level:g}% CI=({ci['lower']:.6g}, {ci['upper']:.6g})")
    if args.bootstrap:
        bn = report["bootstrap"]["normal"]
        print(f"bootstrap SE={report['bootstrap']['se']:.6g}  normal CI=({bn['lower']:.6g}, {bn['upper']:.6g})"
              f"  {failed_text(boot.B, boot.failures)}")
    for (key, v) in sorted(report["estimate"]["per_stratum"].items()):
        print(f"  stratum {key}: {v:.6g}")
    for w in warnings:
        print(f"warning: {w}")
    return 0


def cmd_regress(args) -> int:
    critical_value(args.level)       # reject a bad level before any fitting
    ds = load_csv(args.data, _schema(args))
    strata = build_strata(ds)
    if args.score_kind == "linear":
        names = list(ds.l_names)
        try:
            resp = names.index(args.response)
            preds = tuple(names.index(p) for p in args.predictors)
        except ValueError as e:
            raise ConfigError(f"response/predictor not among L columns {names}: {e}")
        spec = ScoreSpec("linear", response=resp, predictors=preds)
    else:
        spec = ScoreSpec("gaussian")
    odds = fit_all_odds(ds, strata, n_min=args.n_min) if args.method == "ipw" else {}
    est = solve_weighted_ee(ds, strata, odds, spec, method=args.method)
    cov = sandwich_variance(ds, strata, odds, est, naive=args.naive_sandwich)
    table = est.wald_table(cov, args.level)
    if args.out:
        _write_json(args.out, {
            "config": _resolved(args),
            "coefficients": table,
            "covariance": cov.tolist(),
            "diagnostics": est.weights.diagnostics(),
        })

    print(f"marginal parametric model ({spec.describe(ds.l_names)}), IPW-weighted, n={ds.n}")
    print(f"{'coef':<14}{'estimate':>12}{'se':>12}{'lower':>12}{'upper':>12}")
    for row in table:
        print(f"{row['coef']:<14}{row['estimate']:>12.5g}{row['se']:>12.5g}{row['lower']:>12.5g}{row['upper']:>12.5g}")
    return 0


def cmd_sensitivity(args) -> int:
    spec = TiltSpec(
        delta=tuple(args.delta) if args.delta else (0.0,),
        center=tuple(args.center or ()),
        grid=tuple(args.grid) if args.grid else (0.0,),
    )
    ds = load_csv(args.data, _schema(args))
    strata = build_strata(ds)
    f = _functional(args, ds.d)
    odds = fit_all_odds(ds, strata, n_min=args.n_min)
    curve = sweep(ds, strata, odds, f, spec, B=args.bootstrap, seed=args.seed or 0, n_min=args.n_min)
    if args.out:
        with _writing(args.out):
            curve.to_csv(args.out)
    print(f"sensitivity sweep for {curve.functional} over {len(curve.multipliers)} grid points")
    if curve.B:
        print(f"bootstrap: {failed_text(curve.B, curve.failures)}")
    kind = "bootstrap" if curve.B else "influence"
    for m, est, lo, hi in zip(curve.multipliers, curve.estimates, curve.ci_lower, curve.ci_upper):
        print(f"  delta x {m:+.4g}: estimate={est:.6g}  {kind} CI=({lo:.6g}, {hi:.6g})")
    return 0


def cmd_simulate(args) -> int:
    ds = generate(SimDesign(args.design, args.n, args.seed))
    with _writing(args.out):
        write_csv(args.out, ds)
    print(f"wrote {ds.n} records ({args.design} design, seed {args.seed}) to {args.out}")
    return 0


def cmd_table(args) -> int:
    result = run_table(args.table, args.replicates, args.n, args.seed, args.workers)
    if args.out:
        with _writing(args.out), open(args.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, ["method", "coef", "bias", "sample_se", "mean_theoretical_se", "coverage"])
            w.writeheader()
            for row in result["rows"]:
                w.writerow(row)
    if args.dump_replicates:
        with _writing(args.dump_replicates), open(args.dump_replicates, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["replicate", "method", "coef", "estimate", "se"])
            for i, rep in enumerate(result["raw"]):
                if rep is None:
                    continue
                for name, (est, se) in rep.items():
                    for j, (e, s) in enumerate(zip(np.atleast_1d(est), np.atleast_1d(se))):
                        w.writerow([i, name, j, repr(float(e)), repr(float(s))])
    print(f"table {args.table}: {args.replicates} replicates at n={args.n}, "
          f"{failed_text(args.replicates, result['failures'])}, truth={result['truth']}")
    hdr = f"{'method':<16}{'coef':>6}{'bias':>10}{'sample_se':>11}{'theor_se':>10}{'coverage':>10}"
    print(hdr)
    for row in result["rows"]:
        coef = "" if row["coef"] is None else str(row["coef"])
        print(f"{row['method']:<16}{coef:>6}{row['bias']:>10.4f}{row['sample_se']:>11.4f}"
              f"{row['mean_theoretical_se']:>10.4f}{row['coverage']:>10.3f}")
    return 0


def cmd_verify_oracles(args) -> int:
    report = verify_oracles(SimDesign(args.design, args.n_big, args.seed))
    if args.out:
        _write_json(args.out, {
            "design": args.design,
            "n_big": args.n_big,
            "ok": report.ok,
            "rows": [vars(r) for r in report.rows],
        })
    print(report.summary())
    return 0 if report.ok else 6


# ---------------------------------------------------------------------------


def _add_data_opts(p):
    p.add_argument("--data", help="input CSV with header")
    p.add_argument("--config", help="JSON config file; entries override flags")
    p.add_argument("--x-cols", type=_csv_list, default=(), help="comma-separated auxiliary columns")
    p.add_argument("--l-cols", type=_csv_list, default=(), help="comma-separated primary columns")
    p.add_argument("--missing-tokens", type=_csv_list, default=None,
                   help="tokens treated as missing (default: empty cell and NA)")
    p.add_argument("--n-min", type=int, default=10, help="minimum case/pool size per fitted model")


def _add_functional_opts(p):
    p.add_argument("--functional", default="coordinate",
                   choices=["coordinate", "mean", "product", "threshold"])
    p.add_argument("--coords", type=_int_list, default=(), help="1-based primary coordinates")
    p.add_argument("--thresholds", type=_float_list, default=(), help="thresholds for the indicator")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="accmv", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("fit", help="estimate a mean functional of the primary variables")
    _add_data_opts(p)
    _add_functional_opts(p)
    p.add_argument("--decompose-product", action="store_true",
                   help="for product functionals, regress the unobserved factor and scale by observed ones")
    p.add_argument("--method", default="mr", choices=["ipw", "ra", "mr", "cc"])
    p.add_argument("--self-normalize", action="store_true", help="divide IPW by the weight sum instead of n")
    p.add_argument("--bootstrap", type=int, default=0, metavar="B")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_fit, parser=p)

    p = sub.add_parser("regress", help="marginal parametric model via the weighted estimating equation")
    _add_data_opts(p)
    p.add_argument("--score-kind", default="linear", choices=["linear", "gaussian"])
    p.add_argument("--response", help="L column regressed on the predictors (linear score)")
    p.add_argument("--predictors", type=_csv_list, default=(), help="L columns used as predictors")
    p.add_argument("--method", default="ipw", choices=["ipw", "ra", "mr"],
                   help="only ipw is compatible with a marginal model")
    p.add_argument("--naive-sandwich", action="store_true",
                   help="drop the estimated-weights correction from the sandwich")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_regress, parser=p)

    p = sub.add_parser("sensitivity", help="exponential-tilting sweep of the self-normalized IPW estimate")
    _add_data_opts(p)
    _add_functional_opts(p)
    p.add_argument("--delta", type=_float_list, default=(0.0,),
                   help="per-coordinate tilt, or one shared value")
    p.add_argument("--center", type=_float_list, default=(), help="tilt centering per coordinate")
    p.add_argument("--grid", type=_float_list, default=(0.0,), help="multipliers applied to delta")
    p.add_argument("--bootstrap", type=int, default=0, metavar="B")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="curve CSV path (delta, estimate, ci_lo, ci_hi)")
    p.set_defaults(func=cmd_sensitivity, parser=p)

    p = sub.add_parser("simulate", help="write a benchmark-design dataset as CSV")
    p.add_argument("--design", required=True, choices=["single", "multiple", "mpm"])
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate, parser=p)

    p = sub.add_parser("table", help="replicate one of the three benchmark tables")
    p.add_argument("--table", type=int, required=True, choices=[1, 2, 3])
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=0, help="0 uses all cores; capped at the number of cores")
    p.add_argument("--out", help="summary CSV path")
    p.add_argument("--dump-replicates", help="optional per-replicate CSV dump")
    p.set_defaults(func=cmd_table, parser=p)

    p = sub.add_parser("verify-oracles", help="Monte Carlo re-derivation of the closed-form truths")
    p.add_argument("--design", required=True, choices=["single", "multiple", "mpm"])
    p.add_argument("--n-big", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_verify_oracles, parser=p)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args = _apply_config(args)
        if "n_min" in vars(args):
            check_integer("--n-min", args.n_min)
        # an overflow or an invalid value stops the run instead of passing
        # inf or NaN on to the estimates
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                code = args.func(args)
            except MemoryError:
                raise ResourceError("out of memory; use a smaller --n, --n-big, grid or input file") from None
        sys.stdout.flush()           # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away (`accmv fit ... | head -3`); as the
        # Python docs' SIGPIPE note does, point stdout at devnull so the flush
        # at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except FitError as e:
        print(f"fit error: {e}", file=sys.stderr)
        return 4
    except FloatingPointError as e:
        print(f"fit error: floating-point {e}; are the data values too large?", file=sys.stderr)
        return 4
    except InferenceError as e:
        print(f"inference error: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
