"""Acceptance gate: one test per criterion, each printing a pass/fail line
in the terminal summary.  Replication settings: 1000 replicates at n = 2000,
fixed seed, two workers."""

import time

import numpy as np
import pytest

from accmv.cli import run_table
from accmv.data import Functional, build_strata
from accmv.errors import CongenialityError
from accmv.estimators import (
    augmentation_mean,
    compute_weights,
    estimate_ipw,
    estimate_mr,
    estimate_ra,
)
from accmv.glm import (
    design_matrix,
    fit_all_odds,
    fit_all_outcomes,
    odds_negloglik,
    odds_score_hessian,
)
from accmv.inference import bootstrap
from accmv.mpm import ScoreSpec, solve_weighted_ee
from accmv.patterns import all_patterns, dominated_set, dominates
from accmv.sensitivity import TiltSpec, tilted_estimate
from accmv.simgen import SimDesign, oracle_value, verify_oracles

from conftest import record_acceptance
from toy import toy_single_primary, toy_two_primaries

SEED = 20240801
REPLICATES = 1000
N = 2000


def _rows(result):
    return {(row["method"], row["coef"]): row for row in result["rows"]}


@pytest.fixture(scope="module")
def table1():
    t0 = time.time()
    res = run_table(1, REPLICATES, N, seed=SEED, workers=2)
    res["elapsed"] = time.time() - t0
    return res


@pytest.fixture(scope="module")
def table2():
    return run_table(2, REPLICATES, N, seed=SEED, workers=2)


@pytest.fixture(scope="module")
def table3():
    return run_table(3, REPLICATES, N, seed=SEED, workers=2)


def check(num, label, ok, detail):
    record_acceptance(f"{'PASS' if ok else 'FAIL'}: criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_table1(table1):
    r = _rows(table1)
    ra, mr, cc, ipw = r[("ra", None)], r[("mr", None)], r[("complete_case", None)], r[("ipw", None)]
    conds = {
        "RA bias": abs(ra["bias"]) <= 0.005,
        "RA sample SE": 0.039 <= ra["sample_se"] <= 0.049,
        "RA coverage": 0.935 <= ra["coverage"] <= 0.975,
        "MR bias": abs(mr["bias"]) <= 0.01,
        "CC bias": -0.19 <= cc["bias"] <= -0.165,
        "IPW undercoverage": ipw["coverage"] <= 0.85,
        "IPW SE underestimation": ipw["mean_theoretical_se"] < 0.6 * ipw["sample_se"],
        "runtime": table1["elapsed"] <= 600,
        "no failures": table1["n_failed"] == 0,
    }
    detail = (
        f"RA bias={ra['bias']:.4f} sse={ra['sample_se']:.4f} cov={ra['coverage']:.3f}; "
        f"MR bias={mr['bias']:.4f}; CC bias={cc['bias']:.4f}; "
        f"IPW cov={ipw['coverage']:.3f} tse/sse={ipw['mean_theoretical_se']/ipw['sample_se']:.2f}; "
        f"{table1['elapsed']:.0f}s"
    )
    bad = [k for k, v in conds.items() if not v]
    check(1, "table 1 reproduction", not bad, detail + (f"; FAILED: {bad}" if bad else ""))


def test_criterion_2_table2(table2):
    r = _rows(table2)
    ipw, cc = r[("ipw", None)], r[("complete_case", None)]
    mr_one = [r[("mr_ipw_wrong", None)], r[("mr_ra_wrong", None)]]
    conds = {
        "IPW bias": abs(ipw["bias"]) <= 0.01,
        "IPW coverage": 0.92 <= ipw["coverage"] <= 0.965,
        "MR single-misspec bias": all(abs(m["bias"]) <= 0.01 for m in mr_one),
        "MR single-misspec coverage": all(0.92 <= m["coverage"] <= 0.97 for m in mr_one),
        "CC bias": 0.11 <= cc["bias"] <= 0.15,
    }
    detail = (
        f"IPW bias={ipw['bias']:.4f} cov={ipw['coverage']:.3f}; "
        f"MR(odds wrong) bias={mr_one[0]['bias']:.4f} cov={mr_one[0]['coverage']:.3f}; "
        f"MR(regr wrong) bias={mr_one[1]['bias']:.4f} cov={mr_one[1]['coverage']:.3f}; "
        f"CC bias={cc['bias']:.4f}"
    )
    bad = [k for k, v in conds.items() if not v]
    check(2, "table 2 reproduction", not bad, detail + (f"; FAILED: {bad}" if bad else ""))


def test_criterion_3_table3(table3):
    r = _rows(table3)
    b0, b1, cc0 = r[("ipw", 0)], r[("ipw", 1)], r[("complete_case", 0)]
    conds = {
        "IPW bias": abs(b0["bias"]) <= 0.005 and abs(b1["bias"]) <= 0.005,
        "IPW coverage": all(0.92 <= b["coverage"] <= 0.965 for b in (b0, b1)),
        "CC intercept bias": -0.075 <= cc0["bias"] <= -0.045,
    }
    detail = (
        f"IPW bias=({b0['bias']:.4f}, {b1['bias']:.4f}) cov=({b0['coverage']:.3f}, {b1['coverage']:.3f}); "
        f"CC intercept bias={cc0['bias']:.4f}"
    )
    bad = [k for k, v in conds.items() if not v]
    check(3, "table 3 reproduction", not bad, detail + (f"; FAILED: {bad}" if bad else ""))


def test_criterion_4_exact_truths():
    exact = (
        oracle_value("single").theta_true == 89.0 / 96.0
        and oracle_value("multiple").theta_true == 175.0 / 128.0
        and np.array_equal(oracle_value("mpm").theta_true, [-1.0, 0.5])
    )
    reports = {k: verify_oracles(SimDesign(k, 10**6, SEED)) for k in ("single", "multiple", "mpm")}
    worst = {k: max(r.nsig for r in rep.rows) for k, rep in reports.items()}
    ok = exact and all(rep.ok for rep in reports.values())
    detail = (
        f"targets exact={exact}; worst deviations (MC SEs): "
        + ", ".join(f"{k}={v:.2f}" for k, v in worst.items())
    )
    check(4, "exact truths and oracle verification", ok, detail)


def test_criterion_5_discrete_oracle_equivalence():
    gaps = []
    for make in (toy_single_primary, toy_two_primaries):
        toy = make()
        direct = float(toy.theta_direct())
        ds = toy.dataset()
        strata = build_strata(ds)
        odds, outs = toy.oracle_models()
        gaps.append(abs(estimate_ipw(ds, strata, odds, toy.f).theta_hat - direct))
        gaps.append(abs(estimate_ra(ds, strata, outs, toy.f).theta_hat - direct))
    ok = max(gaps) <= 1e-12
    check(5, "discrete oracle equivalence", ok, f"max |gap| = {max(gaps):.2e}")


def test_criterion_6_property_suites(single_20k, multiple_20k):
    results = {}

    # pattern-algebra laws, exhaustive through 6 bits
    ok = True
    for length in range(1, 7):
        pats = all_patterns(length)
        for r in pats:
            subs = set(dominated_set(r))
            ok &= all((tau in subs) == dominates(r, tau) for tau in pats)
            ok &= dominates(r, r)
    results["pattern laws"] = ok

    # logistic score vs central finite differences
    rng = np.random.default_rng(SEED)
    n, k = 500, 3
    Z = np.hstack([np.ones((n, 1)), rng.standard_normal((n, k - 1))])
    y = (rng.random(n) < 0.4).astype(float)
    ok = True
    for _ in range(20):
        alpha = rng.uniform(-1, 1, k)
        score, _ = odds_score_hessian(alpha, Z, y, n)
        for j in range(k):
            e = np.zeros(k)
            e[j] = 1e-6
            fd = -(odds_negloglik(alpha + e, Z, y, n) - odds_negloglik(alpha - e, Z, y, n)) / 2e-6
            ok &= abs(fd - score[j]) <= 1e-6 * max(1.0, abs(score[j]))
    results["score finite differences"] = ok

    # least-squares orthogonality on every fitted pool
    ds, strata = single_20k
    f1 = Functional("coordinate", (0,))
    ok = True
    for pr in strata.incomplete_pairs():
        m = fit_all_outcomes(ds, strata, f1)[pr.key]
        pool = strata.pool(pr.r)
        Zp, _ = design_matrix(ds, pool, pr)
        ok &= np.max(np.abs(Zp.T @ (f1(ds.L[pool]) - Zp @ m.beta))) <= 1e-8 * ds.n
    results["least-squares orthogonality"] = ok

    # weight mass near one
    dm, sm = multiple_20k
    wt = compute_weights(dm, sm, fit_all_odds(dm, sm))
    results["weight mass"] = abs(wt.total.sum() / dm.n - 1.0) <= 0.02

    # zero tilt equals self-normalized weighting
    odds = fit_all_odds(ds, strata)
    sn = estimate_ipw(ds, strata, odds, f1, self_normalize=True).theta_hat
    tilt0 = tilted_estimate(ds, strata, odds, f1, TiltSpec(delta=(0.9,), center=(7.0,)), multiplier=0.0)
    results["zero-tilt equivalence"] = abs(tilt0 - sn) <= 1e-12

    # bootstrap determinism, bit identical
    sub = ds.subset(np.arange(1200))

    def pipeline(d, s):
        return estimate_ra(d, s, fit_all_outcomes(d, s, f1), f1).theta_hat

    r1 = bootstrap(sub, build_strata(sub), pipeline, B=20, seed=SEED)
    r2 = bootstrap(sub, build_strata(sub), pipeline, B=20, seed=SEED)
    results["bootstrap determinism"] = (
        r1.se == r2.se and r1.percentile.lower == r2.percentile.lower
        and r1.normal.upper == r2.normal.upper
    )

    # augmented estimate = regression estimate + mean augmentation
    outs = fit_all_outcomes(ds, strata, f1)
    mr = estimate_mr(ds, strata, odds, outs, f1).theta_hat
    ra = estimate_ra(ds, strata, outs, f1).theta_hat
    aug = augmentation_mean(ds, strata, odds, outs, f1)
    results["MR = RA + augmentation"] = abs(mr - (ra + aug)) <= 1e-10

    bad = [k for k, v in results.items() if not v]
    check(6, "property suites", not bad, "all properties hold" if not bad else f"FAILED: {bad}")


def test_criterion_7_congeniality_policy(mpm_2k):
    ds, strata = mpm_2k
    spec = ScoreSpec("linear", response=1, predictors=(0,))
    ok = True
    msg = ""
    for method in ("ra", "mr"):
        try:
            solve_weighted_ee(ds, strata, {}, spec, method=method)
            ok = False
        except CongenialityError as e:
            msg = str(e)
    ok = ok and "marginal" in msg
    check(7, "congeniality policy", ok, "outcome-model methods rejected for marginal models")