import math

import numpy as np
import pytest

from accmv import glm
from accmv.data import Dataset, Functional, build_strata
from accmv.errors import (
    ConfigError,
    DataError,
    NonConvergenceError,
    PositivityError,
    SeparationError,
    SingularityError,
    SmallStratumError,
)
from accmv.estimators import estimate_mr
from accmv.glm import (
    LINPRED_CLAMP,
    SCORE_TOL,
    _clamped_eta,
    _negloglik_at,
    _score_hessian_at,
    complete_values,
    design_matrix,
    fit_all_odds,
    fit_all_outcomes,
    fit_odds,
    fit_outcome,
    pair_view,
    read_outcome,
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
    view = pair_view(ds, strata, m.pair)           # a returned fit has converged
    Z = view.design().stacked
    score, _ = _score_hessian_at(np.exp(_clamped_eta(Z, m.alpha)), Z, view.y, ds.n, 1.0)
    assert np.max(np.abs(score)) <= SCORE_TOL
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
        score, _ = _score_hessian_at(np.exp(_clamped_eta(Z, m.alpha)), Z, y, ds.n, 1.0)
        assert np.max(np.abs(score)) <= 1e-8


def test_score_matches_finite_differences(rng):
    n, k = 400, 3
    Z = np.hstack([np.ones((n, 1)), rng.standard_normal((n, k - 1))])
    y, w = (rng.random(n) < 0.4).astype(float), np.ones(n)
    for _ in range(20):
        alpha = rng.uniform(-1, 1, k)
        score, _ = _score_hessian_at(np.exp(_clamped_eta(Z, alpha)), Z, y, n, w)
        h = 1e-6
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fd = -(_negloglik_at(_clamped_eta(Z, alpha + e), y, w, n)[0]
                   - _negloglik_at(_clamped_eta(Z, alpha - e), y, w, n)[0]) / (2 * h)
            assert abs(fd - score[j]) <= 1e-6 * max(1.0, abs(score[j]))


def test_negloglik_matches_logaddexp_over_the_clamp_range():
    # one row per grid point with y = 0 and alpha = 1, so the loss is the
    # softplus log(1 + exp(eta)) of that row's clamped linear predictor
    grid = np.concatenate([np.linspace(-LINPRED_CLAMP, LINPRED_CLAMP, 6001),
                           np.nextafter(LINPRED_CLAMP, 0.0) * np.array([-1.0, 1.0]),
                           [-1e3, -31.0, 31.0, 1e3]])
    y, alpha = np.zeros(1), np.ones(1)
    with np.errstate(over="raise", under="raise", invalid="raise", divide="raise"):
        got = np.array([_negloglik_at(_clamped_eta(np.array([[x]]), alpha), y, np.ones(1), 1)[0] for x in grid])
        ref = np.logaddexp(0.0, np.clip(grid, -LINPRED_CLAMP, LINPRED_CLAMP))
    ulps = np.abs(got - ref) / np.spacing(ref)
    assert ulps.max() <= 4, grid[ulps.argmax()]


def test_hessian_weight_keeps_its_accuracy_in_the_tail():
    # one row with design 1, so the Hessian is minus the weight p(1 - p) at
    # eta; 1 - p cancels near the clamp, e / (1 + e)^2 does not
    for eta in (10.0, 20.0, 29.0, 30.0):
        _, hess = _score_hessian_at(np.exp(np.array([eta])), np.ones((1, 1)), np.zeros(1), 1, np.ones(1))
        ref = float(1 / (4 * np.cosh(np.longdouble(eta) / 2) ** 2))
        assert abs(-hess[0, 0] - ref) <= 4 * np.spacing(ref), eta


def test_hessian_negative_semidefinite(rng):
    n, k = 200, 3
    Z = np.hstack([np.ones((n, 1)), rng.standard_normal((n, k - 1))])
    y = (rng.random(n) < 0.5).astype(float)
    for _ in range(10):
        alpha = rng.uniform(-2, 2, k)
        _, hess = _score_hessian_at(np.exp(_clamped_eta(Z, alpha)), Z, y, n, 1.0)
        np.testing.assert_allclose(hess, hess.T, atol=1e-12)
        assert np.linalg.eigvalsh(hess).max() <= 1e-10


def test_negloglik_monotone_along_fit(single_20k, monkeypatch):
    # an iterate's loss is the one whose exp(eta) array the next score call
    # receives, matched by identity; the last call forms the fit's `info`
    ds, strata = single_20k
    losses, path = [], []

    def negloglik_at(*args):
        nll, e = _negloglik_at(*args)
        losses.append((nll, e))
        return nll, e

    def score_hessian_at(e, *args):
        path.append(next(nll for nll, got in losses if got is e))
        return _score_hessian_at(e, *args)

    monkeypatch.setattr(glm, "_negloglik_at", negloglik_at)
    monkeypatch.setattr(glm, "_score_hessian_at", score_hessian_at)
    for pr in strata.incomplete_pairs():
        losses.clear()
        path.clear()
        m = fit_odds(ds, strata, pr)
        m.info                  # formed on first read, from the last iterate's exp(eta)
        p = np.asarray(path)
        assert p.size == m.n_iter + 1
        assert np.all(np.diff(p) <= 1e-14 * (1.0 + np.abs(p[:-1])))


def test_info_formed_on_first_read(multiple_20k):
    # the information matrix is formed when read, from the fit's last
    # iterate, with the arithmetic of the Newton loop itself
    ds, strata = multiple_20k
    for pr in strata.incomplete_pairs():
        k = len(pr.r.indices) + len(pr.a.indices)
        for keep in (None, [j != k - 1 for j in range(k)]):
            m = fit_odds(ds, strata, pr, keep=keep)
            view = pair_view(ds, strata, pr)
            Z = view.design(keep).stacked
            expect = -_score_hessian_at(np.exp(_clamped_eta(Z, m.alpha)), Z, view.y, ds.n, view.w)[1]
            np.testing.assert_array_equal(m.info, expect)


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


def test_non_convergence_error_after_max_iter(single_20k, monkeypatch):
    # the full-auxiliary fit needs more than one Newton step from zero
    ds, strata = single_20k
    monkeypatch.setattr(glm, "MAX_ITER", 1)
    with pytest.raises(NonConvergenceError, match="not converged after 1 "):
        fit_odds(ds, strata, pair(3, 0))


def test_small_stratum_and_empty_pool():
    X = np.array([[1.0, 1.0]] * 3 + [[np.nan, np.nan]] * 3)
    L = np.array([[np.nan]] * 3 + [[1.0], [0.0], [2.0]])
    ds = Dataset(X, L)
    strata = build_strata(ds)
    with pytest.raises(PositivityError):
        fit_odds(ds, strata, pair(3, 0))   # no complete record has R >= 11
    with pytest.raises(SmallStratumError):
        fit_outcome(ds, strata, pair(0, 0), F1, n_min=10)


@pytest.mark.parametrize("n_min", [-1, 2.5, True])
def test_n_min_is_a_non_negative_integer(n_min, single_20k):
    ds, strata = single_20k
    with pytest.raises(ConfigError, match="n_min must be an integer >= 0"):
        fit_odds(ds, strata, pair(3, 0), n_min=n_min)
    with pytest.raises(ConfigError, match="n_min must be an integer >= 0"):
        fit_outcome(ds, strata, pair(3, 0), F1, n_min=n_min)


def test_fit_outcome_limits(single_20k):
    ds, strata = single_20k
    m = fit_outcome(ds, strata, pair(3, 0), F1)
    target = np.array([2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    # coefficient covariance from the classical OLS formula on the pool
    pool = strata.pool(Pattern(3, 2))
    Z, _ = design_matrix(ds, pool, pair(3, 0))
    resid = F1(ds.L[pool]) - Z @ m.beta
    cov = resid @ resid / (pool.size - Z.shape[1]) * np.linalg.inv(Z.T @ Z)
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
    Z, res = view.design(model.keep).stacked, score_residuals(model)
    out = np.zeros((ds.n, model.alpha.size))
    out[view.rows] = np.linalg.solve(model.info, (Z * res[:, None]).T).T
    return out


def psi_outcome(model, ds, strata):
    """Per-record influence contributions to the regression coefficients, (n, k)."""
    view = pair_view(ds, strata, model.pair)
    resid = read_outcome(model, view, complete_values(ds, strata, model.f), pool=True).score
    Z = view.design(model.keep).pool
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
    psi = psi_outcome(m, ds, strata)
    outside = np.setdiff1d(np.arange(ds.n), strata.pool(Pattern(3, 2)))
    assert np.all(psi[outside] == 0.0)
    assert np.max(np.abs(psi.mean(axis=0))) <= 1e-8


def test_keep_mask_and_serialization(single_20k):
    ds, strata = single_20k
    m = fit_odds(ds, strata, pair(3, 0), keep=(False, False))
    assert m.alpha.size == 1 and m.design.names == ("intercept",)
    om = fit_outcome(ds, strata, pair(3, 0), F1, keep=(True, False))
    assert om.design.names == ("intercept", "Y1")


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
            assert np.array_equal(d.stacked, Zs) and d.stacked.T.flags.c_contiguous
            assert not (d.stacked.flags.writeable or d.pool.flags.writeable or view.blocks("case")[0].flags.writeable)
            assert d.names == names
        for rows, (xr, la) in ((case, view.blocks("case")), (pool, view.blocks("pool"))):
            assert np.array_equal(xr, ds.X[rows][:, pr.r.indices])
            assert np.array_equal(la, ds.L[rows][:, pr.a.indices])


@pytest.mark.parametrize("fixture, f", [("single_20k", F1), ("multiple_20k", Functional("product", (0, 1)))])
def test_views_share_one_label_and_one_ones_buffer(request, fixture, f):
    # every view labels its rows with a slice of one read-only buffer per
    # index, a unit view counts them with a slice of another, which also
    # scales an outcome model with no observed factor, and a reweighted
    # view keeps its drawn counts in a w of its own
    ds = request.getfixturevalue(fixture)[0]
    strata = build_strata(ds)                      # fresh, so the buffers below are this test's
    rw = strata.reweight(np.bincount(np.random.default_rng(7).integers(0, ds.n, ds.n), minlength=ds.n))
    unit = [pair_view(ds, strata, pr) for pr in strata.incomplete_pairs()]
    labels, ones = unit[0].y.base, unit[0].w.base
    assert not np.shares_memory(labels, ones)
    for view in unit + [pair_view(ds, rw, pr) for pr in rw.incomplete_pairs()]:
        nc, npool = view.case.size, view.pool.size
        assert not view.y.flags.writeable and np.shares_memory(view.y, labels)
        assert np.array_equal(view.y, np.r_[np.ones(nc), np.zeros(npool)])
        if view in unit:
            assert not view.w.flags.writeable and np.shares_memory(view.w, ones)
            assert np.array_equal(view.w, np.ones(nc + npool))
        else:
            assert not np.shares_memory(view.w, ones) and np.array_equal(view.w, rw.freq[view.rows])
    odds, outs = fit_all_odds(ds, strata), fit_all_outcomes(ds, strata, f, decompose=True)
    assert estimate_mr(ds, strata, odds, outs, f).influence is not None
    plain = [(pair_view(ds, strata, pr), outs[pr.key]) for pr in strata.incomplete_pairs()
             if not outs[pr.key].scale_coords]
    assert plain
    fmap = complete_values(ds, strata, f)
    for view, om in plain:
        m = read_outcome(om, view, fmap, pool=True)
        assert np.shares_memory(m.factor_case, ones) and np.shares_memory(m.factor_pool, ones)
        assert np.array_equal(m.factor_case, np.ones(view.case.size))
        assert np.array_equal(m.factor_pool, np.ones(view.pool.size))


def test_keep_masks_are_booleans_stored_as_the_view_key(single_20k):
    ds, strata = single_20k
    pr = pair(3, 0)
    for keep in (np.array([True, False]), [np.True_, False], (True, False)):
        m = fit_odds(ds, strata, pr, keep=keep)
        assert m.keep == (True, False) and all(type(k) is bool for k in m.keep)
        om = fit_outcome(ds, strata, pr, F1, keep=keep)
        assert om.keep == (True, False) and all(type(k) is bool for k in om.keep)
        # a fit holds the design of its view under its keep mask
        assert m.design is om.design is m.view.design(m.keep) is m.view.design(keep)
    for keep in (("a", ""), (np.nan, 0), (1, 0), (1.0, 0.0)):
        with pytest.raises(ConfigError, match="keep mask"):
            fit_odds(ds, strata, pr, keep=keep)
        with pytest.raises(ConfigError, match="keep mask"):
            fit_outcome(ds, strata, pr, F1, keep=keep)


def test_design_matrix_input_errors_are_named():
    # a wrong-length keep mask is a configuration error, an unobserved
    # covariate a data error naming the pattern pair
    ds = Dataset(np.array([[1.0, 2.0], [np.nan, 0.5]]), np.array([[np.nan], [1.0]]))
    with pytest.raises(ConfigError, match="keep mask"):
        design_matrix(ds, [0], pair(3, 0), keep=(True,))
    with pytest.raises(DataError, match=r"\(r=11, a=0\)"):
        design_matrix(ds, [1], pair(3, 0))


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
    with pytest.raises(ConfigError, match="built from"):   # an index serves only its own dataset
        pair_view(copy, other, pr)
    with pytest.raises(ConfigError, match="keep mask"):
        view.design((True,))


@pytest.mark.parametrize("kind", ["single", "multiple"])
def test_intercept_only_fit_takes_one_iteration(kind):
    # a cold fit starts at the intercept-only MLE, log(case mass / pool mass),
    # so an intercept-only design converges at the start and takes only the
    # polishing step; at the tables' n = 2000 that step moves the intercept
    # by rounding only.  Fits on a fresh reweighted index count the masses
    # by frequency
    pairs = [((0, 0), None), *misspec_masks(kind, "odds").items()]
    for seed in range(10):
        ds = generate(SimDesign(kind, 2000, seed))
        full = build_strata(ds)
        prs = {pr.key: pr for pr in full.incomplete_pairs()}
        for strata in (full, build_strata(ds).reweight(np.random.default_rng([seed, 1]).integers(0, 3, ds.n))):
            for key, keep in pairs:
                m = fit_odds(ds, strata, prs[key], keep=keep)
                view = pair_view(ds, strata, prs[key])
                mle = np.log(view.w_case.sum() / view.w_pool.sum())
                assert m.alpha.shape == (1,) and m.n_iter == 1, (seed, key, m)
                assert abs(m.alpha[0] - mle) <= 1e-15 * max(1.0, abs(mle)), (seed, key, m.alpha[0] - mle)


def test_cold_start_is_the_intercept_mle_below_the_clamp(single_20k, monkeypatch):
    ds, strata = single_20k
    view = pair_view(ds, strata, pair(3, 0))
    Z = view.design().stacked
    mle = math.log(view.case.size / view.pool.size)
    alpha, eta = glm._start(view, None, Z, view.w, ds.n)
    np.testing.assert_array_equal(alpha, [mle, 0.0, 0.0])
    np.testing.assert_array_equal(eta, _clamped_eta(Z, alpha))
    # where the intercept would reach the clamp the start is zero
    monkeypatch.setattr(glm, "LINPRED_CLAMP", abs(mle))
    alpha, eta = glm._start(view, None, Z, view.w, ds.n)
    assert not alpha.any() and not eta.any()
