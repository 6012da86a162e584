import numpy as np
import pytest

from accmv.data import Dataset, Functional, build_strata
from accmv.errors import PositivityError, SeparationError, SingularityError, SmallStratumError
from accmv.glm import (
    LINPRED_CLAMP,
    design_matrix,
    fit_all_odds,
    fit_all_outcomes,
    fit_odds,
    fit_outcome,
    odds_negloglik,
    odds_score_hessian,
    pair_view,
    score_residuals,
)
from accmv.patterns import Pattern, PatternPair
from accmv.simgen import SimDesign, generate, misspec_masks

F1 = Functional("coordinate", (0,))


def pair(r, a, p=2, d=1):
    return PatternPair(Pattern(r, p), Pattern(a, d))


def fit_se(model, n):
    return np.sqrt(np.diag(np.linalg.inv(model.info)) / n)


def test_fit_odds_intercept_only_limit(single_20k):
    ds, strata = single_20k
    m = fit_odds(ds, strata, pair(0, 0))
    se = fit_se(m, ds.n)
    assert m.converged
    assert abs(m.alpha[0] - np.log(0.25)) <= 5 * se[0]


def test_fit_odds_single_aux_limit(single_20k):
    ds, strata = single_20k
    m = fit_odds(ds, strata, pair(2, 0))
    se = fit_se(m, ds.n)
    target = np.array([np.log(0.5), 2.0])
    assert np.all(np.abs(m.alpha - target) <= 5 * se)


def test_fit_odds_full_aux_limit(single_20k):
    ds, strata = single_20k
    m = fit_odds(ds, strata, pair(3, 0))
    se = fit_se(m, ds.n)
    target = np.array([-4.0 / 3.0, 8.0 / 3.0, -4.0 / 3.0])
    assert np.all(np.abs(m.alpha - target) <= 5 * se)


def test_score_at_solution(single_20k):
    ds, strata = single_20k
    for pr in strata.incomplete_pairs():
        m = fit_odds(ds, strata, pr)
        case, pool = strata.stratum(pr), strata.pool(pr.r)
        rows = np.concatenate([case, pool])
        y = np.concatenate([np.ones(case.size), np.zeros(pool.size)])
        Z, _ = design_matrix(ds, rows, pr)
        score, _ = odds_score_hessian(m.alpha, Z, y, ds.n)
        assert np.max(np.abs(score)) <= 1e-8


def test_score_matches_finite_differences(rng):
    n, k = 400, 3
    Z = np.hstack([np.ones((n, 1)), rng.standard_normal((n, k - 1))])
    y = (rng.random(n) < 0.4).astype(float)
    for _ in range(20):
        alpha = rng.uniform(-1, 1, k)
        score, _ = odds_score_hessian(alpha, Z, y, n)
        h = 1e-6
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fd = -(odds_negloglik(alpha + e, Z, y, n) - odds_negloglik(alpha - e, Z, y, n)) / (2 * h)
            assert abs(fd - score[j]) <= 1e-6 * max(1.0, abs(score[j]))


def test_negloglik_matches_logaddexp_over_the_clamp_range():
    # one row per grid point with y = 0 and alpha = 1, so the loss is the
    # softplus log(1 + exp(eta)) of that row's clamped linear predictor
    grid = np.concatenate([np.linspace(-LINPRED_CLAMP, LINPRED_CLAMP, 6001),
                           np.nextafter(LINPRED_CLAMP, 0.0) * np.array([-1.0, 1.0]),
                           [-1e3, -31.0, 31.0, 1e3]])
    y, alpha = np.zeros(1), np.ones(1)
    with np.errstate(over="raise", under="raise", invalid="raise", divide="raise"):
        got = np.array([odds_negloglik(alpha, np.array([[x]]), y, 1) for x in grid])
        ref = np.logaddexp(0.0, np.clip(grid, -LINPRED_CLAMP, LINPRED_CLAMP))
    ulps = np.abs(got - ref) / np.spacing(ref)
    assert ulps.max() <= 4, grid[ulps.argmax()]


def test_hessian_negative_semidefinite(rng):
    n, k = 200, 3
    Z = np.hstack([np.ones((n, 1)), rng.standard_normal((n, k - 1))])
    y = (rng.random(n) < 0.5).astype(float)
    for _ in range(10):
        alpha = rng.uniform(-2, 2, k)
        _, hess = odds_score_hessian(alpha, Z, y, n)
        np.testing.assert_allclose(hess, hess.T, atol=1e-12)
        assert np.linalg.eigvalsh(hess).max() <= 1e-10


def test_negloglik_monotone_along_fit(single_20k):
    ds, strata = single_20k
    for pr in strata.incomplete_pairs():
        m = fit_odds(ds, strata, pr)
        path = np.asarray(m.nll_path)
        assert np.all(np.diff(path) <= 1e-14 * (1.0 + np.abs(path[:-1])))


def test_separation_error():
    # one covariate cleanly separates the case stratum from the pool
    rng = np.random.default_rng(3)
    n = 60
    X = np.empty((n, 1))
    L = np.empty((n, 1))
    X[:30, 0] = rng.uniform(1.0, 2.0, 30)     # cases: R=1, A=0
    L[:30, 0] = np.nan
    X[30:, 0] = rng.uniform(-2.0, -1.0, 30)   # pool: R=1, A=1
    L[30:, 0] = rng.standard_normal(30)
    ds = Dataset(X, L)
    strata = build_strata(ds)
    with pytest.raises(SeparationError):
        fit_odds(ds, strata, pair(1, 0, p=1))


def test_small_stratum_and_empty_pool():
    X = np.array([[1.0, 1.0]] * 3 + [[np.nan, np.nan]] * 3)
    L = np.array([[np.nan]] * 3 + [[1.0], [0.0], [2.0]])
    ds = Dataset(X, L)
    strata = build_strata(ds)
    with pytest.raises(PositivityError):
        fit_odds(ds, strata, pair(3, 0))   # no complete record has R >= 11
    with pytest.raises(SmallStratumError):
        fit_outcome(ds, strata, pair(0, 0), F1, n_min=10)


def test_fit_outcome_limits(single_20k):
    ds, strata = single_20k
    m = fit_outcome(ds, strata, pair(3, 0), F1)
    target = np.array([2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    # coefficient covariance from the classical OLS formula on the pool
    pool = strata.pool(Pattern(3, 2))
    Z, _ = design_matrix(ds, pool, pair(3, 0))
    cov = m.residual_variance * np.linalg.inv(Z.T @ Z)
    assert np.all(np.abs(m.beta - target) <= 5 * np.sqrt(np.diag(cov)))

    m0 = fit_outcome(ds, strata, pair(0, 0), F1)
    assert abs(m0.beta[0] - 0.75) < 0.05


def test_fit_outcome_zero_response(single_20k):
    ds, strata = single_20k
    f0 = Functional("custom", fn=lambda L: np.zeros(L.shape[0]))
    m = fit_outcome(ds, strata, pair(3, 0), f0)
    np.testing.assert_allclose(m.beta, 0.0, atol=1e-12)


def test_ols_orthogonality(single_20k):
    ds, strata = single_20k
    for pr in strata.incomplete_pairs():
        m = fit_outcome(ds, strata, pr, F1)
        pool = strata.pool(pr.r)
        Z, _ = design_matrix(ds, pool, pr)
        resid = F1(ds.L[pool]) - Z @ m.beta
        assert np.max(np.abs(Z.T @ resid)) <= 1e-8 * ds.n


def test_rank_deficient_design():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(40)
    X = np.column_stack([x, x])            # duplicated covariate
    L = np.column_stack([rng.standard_normal(40)])
    L[:10, 0] = np.nan
    ds = Dataset(X, L)
    strata = build_strata(ds)
    with pytest.raises(SingularityError):
        fit_outcome(ds, strata, pair(3, 0), F1)


def psi_odds(model, ds, strata):
    """Per-record influence contributions to the odds coefficients, (n, k)."""
    view = pair_view(ds, strata, model.pair)
    Z, res = view.design(model.keep).stacked, score_residuals(model, view)
    out = np.zeros((ds.n, model.alpha.size))
    out[view.rows] = np.linalg.solve(model.info, (Z * res[:, None]).T).T
    return out


def psi_outcome(model, ds, strata, f):
    """Per-record influence contributions to the regression coefficients, (n, k)."""
    view = pair_view(ds, strata, model.pair)
    Z, resid = view.design(model.keep).pool, score_residuals(model, view, f)
    out = np.zeros((ds.n, model.beta.size))
    out[view.pool] = np.linalg.solve(model.gram, (Z * resid[:, None]).T).T
    return out


def test_psi_odds_mean_zero_and_cov(single_20k):
    ds, strata = single_20k
    for pr in strata.incomplete_pairs():
        m = fit_odds(ds, strata, pr)
        psi = psi_odds(m, ds, strata)
        assert np.max(np.abs(psi.mean(axis=0))) <= 1e-8
    # sample covariance of the contributions approximates the inverse information
    m = fit_odds(ds, strata, pair(3, 0))
    psi = psi_odds(m, ds, strata)
    cov = psi.T @ psi / ds.n
    target = np.linalg.inv(m.info)
    assert np.linalg.norm(cov - target) / np.linalg.norm(target) <= 0.10


def test_psi_outcome_zero_outside_pool(single_20k):
    ds, strata = single_20k
    m = fit_outcome(ds, strata, pair(3, 0), F1)
    psi = psi_outcome(m, ds, strata, F1)
    outside = np.setdiff1d(np.arange(ds.n), strata.pool(Pattern(3, 2)))
    assert np.all(psi[outside] == 0.0)
    assert np.max(np.abs(psi.mean(axis=0))) <= 1e-8


def test_keep_mask_and_serialization(single_20k):
    ds, strata = single_20k
    m = fit_odds(ds, strata, pair(3, 0), keep=(False, False))
    assert m.alpha.size == 1 and m.names == ("intercept",)
    om = fit_outcome(ds, strata, pair(3, 0), F1, keep=(True, False))
    assert om.names == ("intercept", "Y1")


def test_fit_all_families(multiple_20k):
    ds, strata = multiple_20k
    odds = fit_all_odds(ds, strata)
    outs = fit_all_outcomes(ds, strata, Functional("product", (0, 1)), decompose=True)
    assert set(odds) == set(outs) == {pr.key for pr in strata.incomplete_pairs()}
    # decomposed fits regress the unobserved factor and scale by the observed one
    assert outs[(0, 1)].resp_coord == 0 and outs[(0, 1)].scale_coords == (1,)
    assert outs[(0, 0)].resp_coord is None and outs[(0, 0)].scale_coords == ()


@pytest.mark.parametrize("kind", ["single", "multiple", "mpm"])
def test_pair_view_designs_equal_design_matrix(kind):
    ds = generate(SimDesign(kind, 3000, 31))
    strata = build_strata(ds)
    masks = {}
    for family in ("odds", "outcome"):
        for key, keep in misspec_masks(kind, family).items():
            masks.setdefault(key, []).append(keep)
    pairs = strata.incomplete_pairs()
    assert set(masks) <= {pr.key for pr in pairs}
    for pr in pairs:
        view = pair_view(ds, strata, pr)
        case, pool = strata.stratum(pr), strata.pool(pr.r)
        assert np.array_equal(view.case, case) and np.array_equal(view.pool, pool)
        assert np.array_equal(view.rows, np.concatenate([case, pool]))
        assert np.array_equal(view.y, np.r_[np.ones(case.size), np.zeros(pool.size)])
        for keep in (None, *masks.get(pr.key, ())):
            d = view.design(keep)
            Zc, names = design_matrix(ds, case, pr, keep)
            Zp, _ = design_matrix(ds, pool, pr, keep)
            Zs, _ = design_matrix(ds, view.rows, pr, keep)
            assert np.array_equal(d.case, Zc) and np.array_equal(d.pool, Zp)
            assert np.array_equal(d.stacked, Zs) and d.stacked.flags.c_contiguous
            assert not (d.stacked.flags.writeable or d.pool.flags.writeable or view.xr_case.flags.writeable)
            assert d.names == names
        for rows, xr, la in ((case, view.xr_case, view.la_case), (pool, view.xr_pool, view.la_pool)):
            assert np.array_equal(xr, ds.X[rows][:, pr.r.indices])
            assert np.array_equal(la, ds.L[rows][:, pr.a.indices])


def test_pair_view_cached_on_its_strata(single_20k):
    ds, strata = single_20k
    pr = pair(3, 0)
    view = pair_view(ds, strata, pr)
    assert pair_view(ds, strata, pr) is view
    assert view.design((True, False)) is view.design((True, False))
    other = build_strata(ds)
    fresh = pair_view(ds, other, pr)
    assert fresh is not view                               # a new index builds its own
    copy = ds.subset(np.arange(ds.n))
    assert pair_view(copy, other, pr) is not fresh         # another dataset gets no stale designs
    with pytest.raises(ValueError, match="keep mask"):
        view.design((True,))
