import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accmv.data import Dataset, build_strata
from accmv.errors import CongenialityError, ConfigError
from accmv.glm import fit_all_odds
from accmv.inference import bootstrap, normal_ci
from accmv.estimators import compute_weights
from accmv.mpm import ScoreSpec, sandwich_variance, solve_weighted_ee
from accmv.simgen import SimDesign, generate

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


def weighted_score_sum(ds, strata, odds, spec, theta):
    """Max-norm of the odds-weighted estimating function at theta, scaled by 1/n."""
    wt = compute_weights(ds, strata, odds)
    return float(np.max(np.abs(wt.total @ spec.score(np.asarray(theta, dtype=float), ds.L[wt.rows]))) / ds.n)


def test_root_residual_behaviour(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    at_root = weighted_score_sum(ds, strata, odds, LIN, est.theta_hat)
    assert at_root <= 1e-8
    perturbed = weighted_score_sum(ds, strata, odds, LIN, est.theta_hat + np.array([0.5, -0.3]))
    assert perturbed > at_root


@pytest.fixture(scope="module")
def three_primaries():
    """2000 records of one auxiliary and three correlated primaries: complete,
    or missing L3, L2 and L3, or L1, so three pattern pairs need odds models."""
    rng = np.random.default_rng(5)
    n = 2000
    X = rng.standard_normal((n, 1))
    L = 0.5 * X + rng.standard_normal((n, 3)) @ np.array([[1.0, 0.3, 0.2], [0.0, 1.0, 0.4], [0.0, 0.0, 1.0]])
    missing = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 0, 0]], dtype=bool)
    L[missing[rng.choice(4, n, p=[0.6, 0.15, 0.1, 0.15])]] = np.nan
    ds = Dataset(X, L)
    return ds, build_strata(ds)


@pytest.mark.parametrize("spec", [LIN, ScoreSpec("gaussian")])
def test_jacobian_matches_finite_differences(spec, mpm_2k, three_primaries):
    # d = 2 and d = 3: at d = 3 the gaussian factor has rows with three distinct triangle indices
    for ds, strata in (mpm_2k, three_primaries):
        odds = fit_all_odds(ds, strata)
        est = solve_weighted_ee(ds, strata, odds, spec)
        rows = np.flatnonzero(ds.complete_mask)
        Lc = ds.L[rows]
        w = compute_weights(ds, strata, odds).total
        theta = est.theta_hat + 0.05  # off the root so the Jacobian is generic
        J = spec.jacobian_sum(theta, Lc, w)
        h = 1e-6
        for j in range(theta.size):
            e = np.zeros(theta.size)
            e[j] = h
            fd = (w @ spec.score(theta + e, Lc) - w @ spec.score(theta - e, Lc)) / (2 * h)
            denom = max(1.0, np.abs(J[:, j]).max())
            assert np.max(np.abs(fd - J[:, j])) / denom <= 1e-5, (ds.d, j)


@pytest.mark.parametrize("spec", [LIN, ScoreSpec("gaussian")], ids=["linear", "gaussian"])
def test_sandwich_is_the_covariance_of_the_pipeline_derivatives(spec):
    # The influence value of record i is the derivative of the whole fit,
    # odds refits included, along the frequencies (1 - eps) + eps * n * e_i,
    # which keep the total mass at n; the sandwich is (1/n^2) sum D_i D_i'.
    ds = generate(SimDesign("mpm", 300, 3))
    strata = build_strata(ds)
    odds = fit_all_odds(ds, strata)
    cov = sandwich_variance(ds, strata, odds, solve_weighted_ee(ds, strata, odds, spec))
    eps = 1e-6
    D = np.empty((ds.n, cov.shape[0]))
    for i in range(ds.n):
        theta = []
        for step in (eps, -eps):
            freq = np.full(ds.n, 1.0 - step)
            freq[i] += step * ds.n
            rw = strata.reweight(freq)
            theta.append(solve_weighted_ee(ds, rw, fit_all_odds(ds, rw), spec).theta_hat)
        D[i] = (theta[0] - theta[1]) / (2 * eps)
    assert np.max(np.abs(D.T @ D / ds.n**2 - cov)) <= 1e-6 * np.max(np.abs(cov))


def test_weight_scale_invariance(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    rows = np.flatnonzero(ds.complete_mask)
    Lc = ds.L[rows]
    w = compute_weights(ds, strata, odds).total
    np.testing.assert_allclose(LIN.init(Lc, w), LIN.init(Lc, 2.0 * w), atol=1e-12)


def regress(ds, spec):
    """The `regress` pipeline: IPW root and sandwich SEs under refitted odds."""
    strata = build_strata(ds)
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, spec)
    return est.theta_hat, np.sqrt(np.diag(sandwich_variance(ds, strata, odds, est)))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2**16), st.floats(0.1, 10.0))
def test_regress_under_scaled_primaries(seed, c):
    # L -> c L: the odds refit absorbs the scale in the coefficients of l, so
    # the weights do not move.  Linear score: the intercept and its SE scale
    # by c, the slope and its SE do not change.  Gaussian score: mu, the
    # off-diagonal factor parameters and their SEs scale by c; each
    # log-diagonal parameter moves by log c and its SE does not change.  The
    # bound, fixed beforehand, is 1e-12 relative; a moved log-diagonal is
    # measured against the size of its two terms.
    ds = generate(SimDesign("mpm", 2000, seed))
    i, j = np.tril_indices(ds.d)
    log_diagonal = np.r_[np.zeros(ds.d, bool), i == j]       # mu, then the factor row by row
    for spec in (LIN, ScoreSpec("gaussian")):
        (theta, se), (theta_c, se_c) = regress(ds, spec), regress(Dataset(ds.X, c * ds.L), spec)
        if spec.kind == "linear":                            # intercept, slope
            factor, shift = np.array([c, 1.0]), np.zeros(2)
        else:
            factor, shift = np.where(log_diagonal, 1.0, c), np.where(log_diagonal, np.log(c), 0.0)
        gap = np.abs(theta_c - (factor * theta + shift))
        assert np.all(gap <= 1e-12 * (np.abs(factor * theta) + np.abs(shift))), (spec.kind, gap)
        np.testing.assert_allclose(se_c, factor * se, rtol=1e-12, atol=0)


def test_sandwich_complete_data_equals_hc0():
    ds = complete_ds(n=300, seed=5)
    strata = build_strata(ds)
    est = solve_weighted_ee(ds, strata, {}, LIN)
    cov = sandwich_variance(ds, strata, {}, est)
    Z = np.column_stack([np.ones(ds.n), ds.L[:, 0]])
    resid = ds.L[:, 1] - Z @ est.theta_hat
    bread = np.linalg.inv(Z.T @ Z)
    hc0 = bread @ (Z.T * resid**2) @ Z @ bread
    assert np.max(np.abs(cov - hc0)) / np.max(np.abs(hc0)) <= 1e-10


def test_sandwich_psd_and_symmetric(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    cov = sandwich_variance(ds, strata, odds, est)
    np.testing.assert_allclose(cov, cov.T, atol=1e-15)
    assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_naive_sandwich_differs(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    full = sandwich_variance(ds, strata, odds, est)
    naive = sandwich_variance(ds, strata, odds, est, naive=True)
    assert not np.allclose(full, naive)


def test_congeniality_policy(mpm_2k):
    ds, strata = mpm_2k
    for method in ("ra", "mr"):
        with pytest.raises(CongenialityError, match="marginal"):
            solve_weighted_ee(ds, strata, {}, LIN, method=method)


def test_recovers_truth_at_scale():
    ds = generate(SimDesign("mpm", 20000, 555))
    strata = build_strata(ds)
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    cov = sandwich_variance(ds, strata, odds, est)
    se = np.sqrt(np.diag(cov))
    target = np.array([-1.0, 0.5])
    assert np.all(np.abs(est.theta_hat - target) <= 5 * se)


def test_bootstrap_agrees_with_sandwich(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    cov = sandwich_variance(ds, strata, odds, est)
    sand_se = np.sqrt(np.diag(cov))

    def pipeline(d, s):
        return solve_weighted_ee(d, s, fit_all_odds(d, s), LIN).theta_hat

    rep = bootstrap(ds, strata, pipeline, est.theta_hat, B=300, seed=99)
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
    cov = sandwich_variance(ds, strata, {}, est)
    assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_gaussian_spec_weighted(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    spec = ScoreSpec("gaussian")
    est = solve_weighted_ee(ds, strata, odds, spec)
    assert est.residual <= 1e-8
    # weighted moments reproduce the root
    wt = compute_weights(ds, strata, odds)
    Lc = ds.L[wt.rows]
    mu = (wt.total @ Lc) / wt.total.sum()
    np.testing.assert_allclose(est.theta_hat[: ds.d], mu, atol=1e-8)


def test_missing_odds_model_is_config_error(mpm_2k):
    # a present pair without an odds model is an error, never zero odds
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    partial = {k: m for k, m in odds.items() if k != (1, 2)}
    assert len(partial) == len(odds) - 1
    for call in (
        lambda: compute_weights(ds, strata, partial),
        lambda: solve_weighted_ee(ds, strata, partial, LIN),
        lambda: sandwich_variance(ds, strata, partial, est),
        lambda: sandwich_variance(ds, strata, partial, est, naive=True),
    ):
        with pytest.raises(ConfigError, match=r"no odds model .*r=1, a=10"):
            call()


def test_sandwich_rejects_an_estimate_of_other_data(mpm_2k):
    ds, strata = mpm_2k
    est = solve_weighted_ee(ds, strata, fit_all_odds(ds, strata), LIN)
    for n in (1000, 3000):
        other = generate(SimDesign("mpm", n, 2))
        s = build_strata(other)
        with pytest.raises(ConfigError, match="solved on other data"):
            sandwich_variance(other, s, fit_all_odds(other, s), est)


def test_spec_validation():
    with pytest.raises(Exception):
        ScoreSpec("linear", response=0, predictors=(0,))
    with pytest.raises(Exception):
        ScoreSpec("quadratic")
    names = LIN.coef_names(("Y2", "Y3"))
    assert names == ["intercept", "Y2"]


def test_score_coordinates_are_checked(mpm_2k):
    # a negative coordinate would alias one counted from the end, a float
    # one would fail as an index, and one past d is not in the data
    for response, predictors in ((-1, (0,)), (1, (-2,)), (1.5, (0,)), (True, (0,))):
        with pytest.raises(ConfigError, match="score coordinate must be an integer >= 0"):
            ScoreSpec("linear", response=response, predictors=predictors)
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    for response, predictors, bad in ((5, (0,), 5), (1, (7,), 7)):
        with pytest.raises(ConfigError, match=f"coordinate {bad} out of range for d=2"):
            solve_weighted_ee(ds, strata, odds, ScoreSpec("linear", response=response, predictors=predictors))


def test_wald_table(mpm_2k):
    ds, strata = mpm_2k
    odds = fit_all_odds(ds, strata)
    est = solve_weighted_ee(ds, strata, odds, LIN)
    table = est.wald_table(sandwich_variance(ds, strata, odds, est))
    assert [row["coef"] for row in table] == ["intercept", "Y2"]
    for row in table:
        assert row["lower"] <= row["estimate"] <= row["upper"]
    # each row reads the one Wald interval, at any level
    cov = sandwich_variance(ds, strata, odds, est)
    ci = normal_ci(est.theta_hat, np.sqrt(np.diag(cov)), 0.8)
    table = est.wald_table(cov, 0.8)
    for key in ("estimate", "se", "lower", "upper"):
        assert [row[key] for row in table] == getattr(ci, key)