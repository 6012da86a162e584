import numpy as np
import pytest

from accmv.data import Dataset, Functional, build_strata
from accmv.errors import BootstrapInstabilityError, ConfigError, FitError
from accmv.estimators import estimate_complete_case, estimate_ipw, estimate_mr, estimate_ra
from accmv.glm import fit_all_odds, fit_all_outcomes
from accmv.inference import (
    bootstrap,
    if_variance_ipw,
    if_variance_mr,
    if_variance_ra,
    normal_ci,
)
from accmv.simgen import SimDesign, generate, oracle_value

from toy import toy_single_primary

F1 = Functional("coordinate", (0,))
F2 = Functional("product", (0, 1))


def test_complete_data_reduces_to_sd_over_sqrt_n():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.standard_normal((500, 1)), rng.standard_normal((500, 1)))
    strata = build_strata(ds)
    theta = float(F1(ds.L).mean())
    target = float(F1(ds.L).std() / np.sqrt(ds.n))
    se_ipw, _ = if_variance_ipw(ds, strata, {}, F1, theta)
    se_ra, _ = if_variance_ra(ds, strata, {}, F1, theta)
    se_mr, _ = if_variance_mr(ds, strata, {}, {}, F1, theta)
    for se in (se_ipw, se_ra, se_mr):
        assert np.isclose(se, target, rtol=1e-12)


def test_influence_means_near_zero(single_20k):
    ds, strata = single_20k
    odds = fit_all_odds(ds, strata)
    outs = fit_all_outcomes(ds, strata, F1)
    est = estimate_ipw(ds, strata, odds, F1)
    _, iv = if_variance_ipw(ds, strata, odds, F1, est.theta_hat)
    assert abs(iv.values.mean()) <= 1e-8 * iv.values.std()
    est = estimate_ra(ds, strata, outs, F1)
    _, iv = if_variance_ra(ds, strata, outs, F1, est.theta_hat)
    assert abs(iv.values.mean()) <= 1e-8 * iv.values.std()
    est = estimate_mr(ds, strata, odds, outs, F1)
    _, iv = if_variance_mr(ds, strata, odds, outs, F1, est.theta_hat)
    assert abs(iv.values.mean()) <= 1e-8 * iv.values.std()


def test_if_variance_permutation_invariant():
    ds = generate(SimDesign("single", 3000, 17))
    rng = np.random.default_rng(3)
    ses = []
    for d in (ds, ds.subset(rng.permutation(ds.n))):
        strata = build_strata(d)
        odds = fit_all_odds(d, strata)
        est = estimate_ipw(d, strata, odds, F1)
        ses.append(if_variance_ipw(d, strata, odds, F1, est.theta_hat)[0])
    assert np.isclose(ses[0], ses[1], rtol=1e-9)


def test_zero_residual_outcome_gives_plugin_spread_only():
    # response exactly affine in the design: corrections vanish
    rng = np.random.default_rng(4)
    n = 400
    X = rng.standard_normal((n, 1))
    L = (2.0 + 3.0 * X[:, 0]).reshape(-1, 1)
    miss = rng.random(n) < 0.3
    L[miss] = np.nan
    ds = Dataset(X, L)
    strata = build_strata(ds)
    outs = fit_all_outcomes(ds, strata, F1)
    est = estimate_ra(ds, strata, outs, F1)
    se, iv = if_variance_ra(ds, strata, outs, F1, est.theta_hat)
    h = np.zeros(ds.n)
    complete = np.flatnonzero(ds.complete_mask)
    h[complete] = F1(ds.L[complete])
    for pr in strata.incomplete_pairs():
        rows = strata.stratum(pr)
        h[rows] = outs[pr.key].predict(ds.X[rows][:, pr.r.indices], ds.L[rows][:, pr.a.indices])
    np.testing.assert_allclose(iv.values, h - est.theta_hat, atol=1e-10)


def test_mr_influence_equals_pointwise_eif_on_toy():
    toy = toy_single_primary()
    ds = toy.dataset()
    strata = build_strata(ds)
    odds, outs = toy.oracle_models()
    est = estimate_mr(ds, strata, odds, outs, toy.f)
    _, iv = if_variance_mr(ds, strata, odds, outs, toy.f, est.theta_hat)
    # independent per-record construction from the toy's exact tables
    phi = np.empty(ds.n)
    for i in range(ds.n):
        rec_r = int(ds.r_codes[i])
        rec_a = int(ds.a_codes[i])
        l = ds.L[i]
        x = ds.X[i]
        val = 0.0
        if rec_a == toy.complete:
            val += float(l[0])
        for r in (0, 1):
            for a in range(toy.complete):
                if rec_a == toy.complete and (rec_r & r) == r:
                    xv = int(x[0]) if r == 1 else None
                    la = tuple(int(v) for v in l[toy._a_obs(a)])
                    o = float(toy.odds(r, a, xv, la))
                    m = float(toy.m(r, a, xv, la))
                    val += (float(l[0]) - m) * o
                if rec_r == r and rec_a == a:
                    xv = int(x[0]) if r == 1 else None
                    la = tuple(int(v) for v in l[toy._a_obs(a)])
                    val += float(toy.m(r, a, xv, la))
        phi[i] = val - est.theta_hat
    np.testing.assert_allclose(iv.values, phi, atol=1e-12)


def test_bootstrap_deterministic(single_20k):
    ds, _ = single_20k
    small = ds.subset(np.arange(1500))

    def pipeline(d, s):
        return estimate_ra(d, s, fit_all_outcomes(d, s, F1), F1).theta_hat

    r1 = bootstrap(small, build_strata(small), pipeline, B=30, seed=7)
    r2 = bootstrap(small, build_strata(small), pipeline, B=30, seed=7)
    assert r1.se == r2.se
    assert r1.normal.lower == r2.normal.lower and r1.percentile.upper == r2.percentile.upper
    r3 = bootstrap(small, build_strata(small), pipeline, B=30, seed=8)
    assert r3.se != r1.se


def test_bootstrap_degenerate_rows_zero_width():
    ds = Dataset(np.ones((30, 1)), np.full((30, 1), 2.5))
    rep = bootstrap(ds, build_strata(ds), lambda d, s: estimate_complete_case(d, s, F1).theta_hat, B=20, seed=1)
    assert rep.se == 0.0
    assert rep.percentile.lower == rep.percentile.upper == 2.5


def test_bootstrap_guards():
    ds = Dataset(np.ones((10, 1)), np.ones((10, 1)))
    with pytest.raises(ConfigError):
        bootstrap(ds, build_strata(ds), lambda d, s: 0.0, B=1, seed=0)

    calls = {"k": 0}

    def flaky(d, s):
        calls["k"] += 1
        if calls["k"] > 1:
            raise FitError("boom")
        return 0.0

    with pytest.raises(BootstrapInstabilityError):
        bootstrap(ds, build_strata(ds), flaky, B=10, seed=0)


def test_bootstrap_skip_count():
    ds = Dataset(np.ones((10, 1)), np.arange(10, dtype=float).reshape(-1, 1))
    calls = {"k": 0}

    def sometimes(d, s):
        calls["k"] += 1
        if calls["k"] % 7 == 0:
            raise FitError("boom")
        return estimate_complete_case(d, s, F1).theta_hat

    rep = bootstrap(ds, build_strata(ds), sometimes, B=20, seed=3)
    assert rep.n_failed >= 1
    assert rep.B == 20


def test_normal_ci_ordering():
    ci = normal_ci(1.0, 0.25, 0.95)
    assert ci.lower <= ci.estimate <= ci.upper
    assert np.isclose(ci.upper - ci.estimate, 1.959963984540054 * 0.25)


def test_ipw_underestimates_se_on_heavy_tails(single_20k):
    # theoretical SE falls well short of the true sampling spread here; the
    # replication harness checks the coverage consequence, this guards the ratio
    ds, strata = single_20k
    sub = ds.subset(np.arange(2000))
    s = build_strata(sub)
    odds = fit_all_odds(sub, s)
    est = estimate_ipw(sub, s, odds, F1)
    se, _ = if_variance_ipw(sub, s, odds, F1, est.theta_hat)
    assert se < 0.2  # sampling SE of this design sits near 0.21 at n=2000

def test_estimate_influence_is_the_if_variance_se(single_20k, multiple_20k):
    for (ds, strata), f, dec in [(single_20k, F1, False), (multiple_20k, F2, True)]:
        odds = fit_all_odds(ds, strata)
        outs = fit_all_outcomes(ds, strata, f, decompose=dec)
        cases = [
            (lambda **kw: estimate_ipw(ds, strata, odds, f, **kw),
             lambda th: if_variance_ipw(ds, strata, odds, f, th)),
            (lambda **kw: estimate_ra(ds, strata, outs, f, **kw),
             lambda th: if_variance_ra(ds, strata, outs, f, th)),
            (lambda **kw: estimate_mr(ds, strata, odds, outs, f, **kw),
             lambda th: if_variance_mr(ds, strata, odds, outs, f, th)),
        ]
        for estimate, if_variance in cases:
            point = estimate()
            assert point.influence is None
            est = estimate(influence=True)
            assert est.theta_hat == point.theta_hat and est.per_stratum == point.per_stratum
            se, iv = if_variance(est.theta_hat)
            assert est.influence.se == se
            np.testing.assert_array_equal(est.influence.values, iv.values)
            assert est.influence.method == iv.method == est.method


def test_self_normalized_ipw_has_no_influence(single_20k):
    ds, strata = single_20k
    odds = fit_all_odds(ds, strata)
    with pytest.raises(ConfigError):
        estimate_ipw(ds, strata, odds, F1, self_normalize=True, influence=True)


@pytest.mark.parametrize("kind", ["single", "multiple"])
def test_oracle_models_run_through_every_estimator(kind):
    # known functions carry no fitted metadata, so they add no correction:
    # the influence values are the per-record terms, which average to the estimate
    truth = oracle_value(kind)
    ds = generate(SimDesign(kind, 5000, 2718))
    strata = build_strata(ds)
    f = truth.functional
    for est in (
        estimate_ipw(ds, strata, truth.odds, f, influence=True),
        estimate_ra(ds, strata, truth.outcomes, f, influence=True),
        estimate_mr(ds, strata, truth.odds, truth.outcomes, f, influence=True),
    ):
        assert abs(est.influence.values.mean()) <= 1e-12
        assert abs(est.theta_hat - truth.theta_true) <= 5 * est.influence.se
