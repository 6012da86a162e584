import numpy as np
import pytest

from accmv.data import Dataset, build_strata
from accmv.errors import CongenialityError
from accmv.glm import fit_all_odds
from accmv.inference import bootstrap
from accmv.mpm import ScoreSpec, ee_root_residual, sandwich_variance, solve_weighted_ee

LIN = ScoreSpec("linear", response=1, predictors=(0,))


def complete_ds(n=400, d=2, seed=11):
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((n, d)) @ np.array([[1.0, 0.4], [0.0, 0.9]])
    L[:, 1] += 0.5 * L[:, 0] - 1.0
    return Dataset(rng.standard_normal((n, 1)), L)


def test_no_missingness_is_ols():
    ds = complete_ds()
    strata = build_strata(ds)
    est = solve_weighted_ee(ds, strata, {}, LIN)
    Z = np.column_stack([np.ones(ds.n), ds.L[:, 0]])
    ols = np.linalg.solve(Z.T @ Z, Z.T @ ds.L[:, 1])
    np.testing.assert_allclose(est.theta_hat, ols, atol=1e-12)


def test_closed_form_agrees_with_newton_from_zero():
    ds = complete_ds()
    strata = build_strata(ds)
    direct = solve_weighted_ee(ds, strata, {}, LIN)
    newton = solve_weighted_ee(ds, strata, {}, LIN, theta0=np.zeros(2))
    np.testing.assert_allclose(direct.theta_hat, newton.theta_hat, atol=1e-10)


def test_root_residual_behaviour(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    at_root = ee_root_residual(ds, strata, odds, LIN, est.theta_hat)
    assert at_root <= 1e-8
    perturbed = ee_root_residual(ds, strata, odds, LIN, est.theta_hat + np.array([0.5, -0.3]))
    assert perturbed > at_root


@pytest.mark.parametrize("spec", [LIN, ScoreSpec("gaussian")])
def test_jacobian_matches_finite_differences(spec, mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, spec)
    rows = np.flatnonzero(ds.complete_mask)
    Lc = ds.L[rows]
    from accmv.estimators import compute_weights

    w = compute_weights(ds, strata, odds).total
    theta = est.theta_hat + 0.05  # off the root so the Jacobian is generic
    J = spec.jacobian_sum(theta, Lc, w)
    h = 1e-6
    for j in range(theta.size):
        e = np.zeros(theta.size)
        e[j] = h
        fd = (w @ spec.score(theta + e, Lc) - w @ spec.score(theta - e, Lc)) / (2 * h)
        denom = max(1.0, np.abs(J[:, j]).max())
        assert np.max(np.abs(fd - J[:, j])) / denom <= 1e-5


def test_weight_scale_invariance(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    from accmv.estimators import compute_weights

    rows = np.flatnonzero(ds.complete_mask)
    Lc = ds.L[rows]
    w = compute_weights(ds, strata, odds).total
    np.testing.assert_allclose(LIN.init(Lc, w), LIN.init(Lc, 2.0 * w), atol=1e-12)


def test_sandwich_complete_data_equals_hc0():
    ds = complete_ds(n=300, seed=5)
    strata = build_strata(ds)
    est = solve_weighted_ee(ds, strata, {}, LIN)
    cov = sandwich_variance(ds, strata, {}, LIN, est.theta_hat)
    Z = np.column_stack([np.ones(ds.n), ds.L[:, 0]])
    resid = ds.L[:, 1] - Z @ est.theta_hat
    bread = np.linalg.inv(Z.T @ Z)
    hc0 = bread @ (Z.T * resid**2) @ Z @ bread
    assert np.max(np.abs(cov - hc0)) / np.max(np.abs(hc0)) <= 1e-10


def test_sandwich_psd_and_symmetric(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    cov = sandwich_variance(ds, strata, odds, LIN, est.theta_hat)
    np.testing.assert_allclose(cov, cov.T, atol=1e-15)
    assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_naive_sandwich_differs(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    full = sandwich_variance(ds, strata, odds, LIN, est.theta_hat)
    naive = sandwich_variance(ds, strata, odds, LIN, est.theta_hat, naive=True)
    assert not np.allclose(full, naive)


def test_congeniality_policy(mpm_2k):
    ds, strata = mpm_2k
    for method in ("ra", "mr"):
        with pytest.raises(CongenialityError, match="marginal"):
            solve_weighted_ee(ds, strata, {}, LIN, method=method)


def test_recovers_truth_at_scale():
    from accmv.simgen import SimDesign, generate

    ds = generate(SimDesign("mpm", 20000, 555))
    strata = build_strata(ds)
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    cov = sandwich_variance(ds, strata, odds, LIN, est.theta_hat)
    se = np.sqrt(np.diag(cov))
    target = np.array([-1.0, 0.5])
    assert np.all(np.abs(est.theta_hat - target) <= 5 * se)


def test_bootstrap_agrees_with_sandwich(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    cov = sandwich_variance(ds, strata, odds, LIN, est.theta_hat)
    sand_se = np.sqrt(np.diag(cov))

    def pipeline(d, s):
        return solve_weighted_ee(d, s, fit_all_odds(d, s), LIN).theta_hat

    rep = bootstrap(ds, strata, pipeline, B=300, seed=99)
    assert np.all(np.abs(rep.se - sand_se) / sand_se <= 0.15)


def test_gaussian_spec_recovers_moments():
    ds = complete_ds(n=2000, seed=21)
    strata = build_strata(ds)
    spec = ScoreSpec("gaussian")
    est = solve_weighted_ee(ds, strata, {}, spec)
    d = ds.d
    mu = est.theta_hat[:d]
    C = spec._factor(est.theta_hat, d)
    np.testing.assert_allclose(mu, ds.L.mean(axis=0), atol=1e-8)
    np.testing.assert_allclose(C @ C.T, np.cov(ds.L.T, ddof=0), atol=1e-8)
    cov = sandwich_variance(ds, strata, {}, spec, est.theta_hat)
    assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_gaussian_spec_weighted(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    spec = ScoreSpec("gaussian")
    est = solve_weighted_ee(ds, strata, odds, spec)
    assert est.converged and est.residual <= 1e-8
    # weighted moments reproduce the root
    from accmv.estimators import compute_weights

    wt = compute_weights(ds, strata, odds)
    Lc = ds.L[wt.rows]
    mu = (wt.total @ Lc) / wt.total.sum()
    np.testing.assert_allclose(est.theta_hat[: ds.d], mu, atol=1e-8)


def test_spec_validation():
    with pytest.raises(Exception):
        ScoreSpec("linear", response=0, predictors=(0,))
    with pytest.raises(Exception):
        ScoreSpec("quadratic")
    names = LIN.coef_names(("Y2", "Y3"))
    assert names == ["intercept", "Y2"]


def test_wald_table(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    est.covariance = sandwich_variance(ds, strata, odds, LIN, est.theta_hat)
    table = est.wald_table()
    assert [row["coef"] for row in table] == ["intercept", "Y2"]
    for row in table:
        assert row["lower"] <= row["estimate"] <= row["upper"]