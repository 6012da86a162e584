"""Pieces of fitted models: read on their own view only, and shared by the table rows.

A fitted model holds the `PairView` it was fitted on.  An odds model's values
are the exp(eta) of its fit; an outcome model's values, score residuals and
observed-factor products are formed from its design and coefficients by one
`read_outcome` call where the pair terms read them; and the odds model (else
the regression) keeps the estimator terms of each pair of models, the only
estimator work a model keeps.  Every public entry that reads models raises
`ConfigError` when given fits from another index (a reweighted index,
another index of the same data), and a keep-masked refit keeps pair terms
of its own.  On a table-2 replicate no
odds model is evaluated after its fit, each pair of models makes its terms
once, each outcome model is multiplied into each set of rows at most once
per pair-term computation, and f is evaluated once, on the complete rows,
however many fits and estimator rows read it; a bootstrap of an MR fit
evaluates f once too.  A pair's terms add to the influence vector as one
increment over the pair's rows.
"""

import dataclasses
import gc
import itertools
from collections import Counter

import numpy as np
import pytest

from accmv import cli, estimators, glm
from accmv.data import Functional, build_strata
from accmv.errors import ConfigError
from accmv.estimators import augmentation_mean, compute_weights, estimate_ipw, estimate_mr, estimate_ra
from accmv.glm import (
    complete_values,
    fit_all_odds,
    fit_all_outcomes,
    fit_odds,
    fit_outcome,
    pair_view,
    read_outcome,
    score_residuals,
    view_values,
)
from accmv.inference import if_variance_ipw, if_variance_mr, if_variance_ra, seed_sequence
from accmv.mpm import ScoreSpec, sandwich_variance, solve_weighted_ee
from accmv.sensitivity import TiltSpec, sweep, tilted_estimate
from accmv.simgen import SimDesign, generate, misspec_masks

F2 = Functional("product", (0, 1))


def pieces(model, view, fmap):
    """Every piece of `model` on `view`, evaluated now; `fmap` is f on the complete records."""
    if isinstance(model, glm.OddsModel):
        return {**{part: view_values(model, view, part) for part in ("case", "pool")}, "score": score_residuals(model)}
    m = read_outcome(model, view, fmap, pool=True)
    grad = view.design(model.keep).case.T @ m.factor_case
    return {"case": m.case, "pool": m.pool, "score": m.score, "grad": grad, "factor_pool": m.factor_pool}


def direct(model, view, f):
    """The same pieces from the designs and coefficients, with nothing stored."""
    d = view.design(model.keep)
    if isinstance(model, glm.OddsModel):
        def odds(Z):
            return np.exp(np.clip(Z @ model.alpha, -glm.LINPRED_CLAMP, glm.LINPRED_CLAMP))
        return {"case": odds(d.case), "pool": odds(d.pool), "score": view.y - odds(d.stacked) / (1.0 + odds(d.stacked))}
    pos = [model.pair.a.indices.index(c) for c in model.scale_coords]
    s_case, s_pool = (view.blocks(part)[1][:, pos].prod(axis=1) for part in ("case", "pool"))
    L = view.ds.L[view.pool]
    rho = L[:, model.resp_coord] if model.resp_coord is not None else f(L)
    return {"case": d.case @ model.beta * s_case, "pool": d.pool @ model.beta * s_pool,
            "score": rho - d.pool @ model.beta, "grad": d.case.T @ s_case, "factor_pool": s_pool}


def assert_same(got, want, exact=True):
    assert got.keys() == want.keys()
    for key in got:
        if exact:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)
        else:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-12, err_msg=key)


@pytest.fixture(scope="module")
def fitted_multiple():
    """`multiple` data with its full-data index and, per misspecified pair, the
    well-specified and keep-masked fits of both families."""
    ds = generate(SimDesign("multiple", 3000, 77))
    strata = build_strata(ds)
    pairs = {pr.key: pr for pr in strata.incomplete_pairs()}
    models = []
    for key, keep in misspec_masks("multiple", "odds").items():
        models.append((fit_odds(ds, strata, pairs[key]), fit_odds(ds, strata, pairs[key], keep=keep)))
    for key, keep in misspec_masks("multiple", "outcome").items():
        models.append((fit_outcome(ds, strata, pairs[key], F2, decompose=True),
                       fit_outcome(ds, strata, pairs[key], F2, decompose=True, keep=keep)))
    models.append((fit_outcome(ds, strata, pairs[(3, 0)], F2, decompose=True), None))   # both factors missing
    return ds, strata, models


def test_pieces_match_a_fresh_evaluation_on_every_view(fitted_multiple):
    """On the view a model was fitted on, which it holds with that view's
    design, its pieces are a direct evaluation, and an odds model's values
    are read-only slices of its fit's exp(eta)."""
    ds, strata, models = fitted_multiple
    fmap = complete_values(ds, strata, F2)
    for model, _ in models:
        view = pair_view(ds, strata, model.pair)
        assert model.view is view and model.design is view.design(model.keep)
        got = pieces(model, view, fmap)
        assert_same(got, pieces(dataclasses.replace(model), view, fmap))
        assert_same(got, direct(model, view, F2), exact=False)
        if isinstance(model, glm.OddsModel):
            assert all(not got[k].flags.writeable and np.shares_memory(got[k], model.e) for k in ("case", "pool"))


SPEC = TiltSpec(delta=(0.5, -0.3), center=(1.0, 0.5), grid=(-1.0, 0.0, 1.0))
LINEAR = ScoreSpec("linear", response=1, predictors=(0,))

# every public entry that reads models, as call(ds, s, odds, outs), which reads
# the fits `odds` and `outs` on the index `s`
ENTRIES = {
    "compute_weights": lambda ds, s, odds, outs: compute_weights(ds, s, odds),
    "estimate_ipw": lambda ds, s, odds, outs: estimate_ipw(ds, s, odds, F2),
    "estimate_ipw_self_normalized": lambda ds, s, odds, outs: estimate_ipw(ds, s, odds, F2, self_normalize=True),
    "estimate_ra": lambda ds, s, odds, outs: estimate_ra(ds, s, outs, F2),
    "estimate_mr": lambda ds, s, odds, outs: estimate_mr(ds, s, odds, outs, F2),
    # only the outcome fits come from elsewhere: each family is checked
    "estimate_mr_odds_refitted": lambda ds, s, odds, outs: estimate_mr(ds, s, fit_all_odds(ds, s), outs, F2),
    "augmentation_mean": lambda ds, s, odds, outs: augmentation_mean(ds, s, odds, outs, F2),
    "if_variance_ipw": lambda ds, s, odds, outs: if_variance_ipw(ds, s, odds, F2, 0.0),
    "if_variance_ra": lambda ds, s, odds, outs: if_variance_ra(ds, s, outs, F2, 0.0),
    "if_variance_mr": lambda ds, s, odds, outs: if_variance_mr(ds, s, odds, outs, F2, 0.0),
    "tilted_estimate": lambda ds, s, odds, outs: tilted_estimate(ds, s, odds, F2, SPEC),
    "sweep": lambda ds, s, odds, outs: sweep(ds, s, odds, F2, SPEC),
    "solve_weighted_ee": lambda ds, s, odds, outs: solve_weighted_ee(ds, s, odds, LINEAR),
    # solved on `s` with odds refitted there, so only the odds fits come from elsewhere
    "sandwich_variance": lambda ds, s, odds, outs: sandwich_variance(
        ds, s, odds, solve_weighted_ee(ds, s, fit_all_odds(ds, s), LINEAR)),
}


@pytest.mark.parametrize("place", ["reweighted", "rebuilt"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_every_entry_refuses_fits_from_another_index(entry, place, fitted_multiple):
    """Each public entry that reads models runs with fits of its own index,
    and raises `ConfigError` when given fits from a reweighted index or
    another index of the same data, also where the estimators hold their
    pair terms already: the estimators check the models once, where they
    take them, and the readers past that check trust them."""
    ds, strata, _ = fitted_multiple
    odds, outs = fit_all_odds(ds, strata), fit_all_outcomes(ds, strata, F2, decompose=True)
    call = ENTRIES[entry]
    call(ds, strata, odds, outs)                # the walks keep the pair terms
    if place == "reweighted":
        other = strata.reweight(np.random.default_rng(3).integers(0, 3, ds.n))
    else:
        other = build_strata(ds)                # another index of the same data
    with pytest.raises(ConfigError, match="fitted on"):
        call(ds, other, odds, outs)


def test_keep_masked_refit_has_its_own_pieces(fitted_multiple):
    """A keep-masked refit evaluates its own coefficients, and the pair terms
    that an estimate keeps on it are its own: those of the refit, not of the
    well-specified fit of its pair."""
    ds, strata, models = fitted_multiple
    odds, outs = fit_all_odds(ds, strata), fit_all_outcomes(ds, strata, F2, decompose=True)
    fmap = complete_values(ds, strata, F2)
    for good, bad in models:
        if bad is None:
            continue
        view = pair_view(ds, strata, good.pair)
        good_pieces = pieces(good, view, fmap)
        bad_pieces = pieces(bad, view, fmap)
        assert_same(bad_pieces, pieces(dataclasses.replace(bad), view, fmap))
        assert_same(bad_pieces, direct(bad, view, F2), exact=False)
        assert not np.array_equal(bad_pieces["pool"], good_pieces["pool"])
        is_odds = isinstance(good, glm.OddsModel)
        fits, estimate = (odds, estimate_ipw) if is_odds else (outs, estimate_ra)
        terms = []
        for model in (good, bad):
            estimate(ds, strata, {**fits, good.pair.key: model}, F2)
            cached, got = model.pieces[(None, True)]
            want = estimators._pair_terms(view, fmap, *((model, None) if is_odds else (None, model)), True)
            assert cached is F2 and got[:2] == want[:2]
            np.testing.assert_array_equal(got[2], want[2])
            terms.append(got)
        (good_term, _, good_inc), (bad_term, _, bad_inc) = terms
        assert bad_term != good_term and not np.shares_memory(bad_inc, good_inc)
        assert not np.array_equal(bad_inc, good_inc)


def test_outcome_models_keep_only_pair_terms(fitted_multiple):
    """After RA and MR estimates an outcome model holds no array of its own:
    its one kept entry is the pair terms of the RA walk, which it owns."""
    ds, strata, _ = fitted_multiple
    odds, outs = fit_all_odds(ds, strata), fit_all_outcomes(ds, strata, F2, decompose=True)
    estimate_ra(ds, strata, outs, F2)
    estimate_mr(ds, strata, odds, outs, F2)
    for om in outs.values():
        assert list(om.pieces) == [(None, True)]
        cached, (_, aug, inc) = om.pieces[(None, True)]
        assert cached is F2 and aug == 0.0 and inc.shape == om.view.rows.shape
    for gm in odds.values():
        assert list(gm.pieces) == [(outs[gm.pair.key], True)]


def test_complete_values_follow_the_functional(fitted_multiple):
    ds, strata, _ = fitted_multiple
    complete = np.flatnonzero(ds.complete_mask)
    for f in (F2, Functional("coordinate", (1,)), F2):
        vals = complete_values(ds, strata, f)
        np.testing.assert_array_equal(vals[complete], f(ds.L[complete]))
        assert not vals[~ds.complete_mask].any()


def test_estimates_follow_the_functional(fitted_multiple):
    """Estimates from models that hold terms of another functional equal
    those of the same models refitted on a fresh index; outcome models
    fitted for F2 refuse any other functional."""
    ds, strata, _ = fitted_multiple
    odds, outs = fit_all_odds(ds, strata), fit_all_outcomes(ds, strata, F2, decompose=True)
    for f in (F2, Functional("coordinate", (1,)), F2):
        s = build_strata(ds)
        refits = {estimate_ipw: (fit_all_odds(ds, s),), estimate_ra: (fit_all_outcomes(ds, s, F2, decompose=True),)}
        refits[estimate_mr] = refits[estimate_ipw] + refits[estimate_ra]
        for estimate, models in ((estimate_ipw, (odds,)), (estimate_ra, (outs,)), (estimate_mr, (odds, outs))):
            if estimate is not estimate_ipw and f is not F2:
                with pytest.raises(ConfigError, match="fitted for"):
                    estimate(ds, strata, *models, f)
                continue
            got = estimate(ds, strata, *models, f)
            fresh = estimate(ds, s, *refits[estimate], f)
            assert got.per_stratum == fresh.per_stratum
            np.testing.assert_array_equal(got.influence.values, fresh.influence.values)


class Coefficients(np.ndarray):
    """Fitted coefficients that log every design block they are multiplied
    into (by its first row's address and its row count), under the tag of
    their model."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[1] is self:
            Z = inputs[0]
            self.log[(self.tag, Z.__array_interface__["data"][0], Z.shape[0])] += 1
        plain = [x.view(np.ndarray) if isinstance(x, Coefficients) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def test_table_rows_evaluate_each_model_once(monkeypatch):
    """One seeded table-2 replicate: no odds model is evaluated after its fit
    (its values are its fit's exp(eta)), each pair of models makes its
    pair's terms once, every outcome model is evaluated only there and at
    most once per set of rows in each, and f runs once on the complete rows."""
    log, fits, outcomes = Counter(), itertools.count(), []

    def counted(fit, name):
        def wrapper(*args, **kwargs):
            model = fit(*args, **kwargs)
            coef = getattr(model, name).view(Coefficients)
            coef.log, coef.tag = log, (name, next(fits))
            setattr(model, name, coef)
            if name == "beta":
                outcomes.append(model)
            return model
        return wrapper

    odds_fit, outcome_fit = counted(glm.fit_odds, "alpha"), counted(glm.fit_outcome, "beta")
    for module in (glm, cli):
        monkeypatch.setattr(module, "fit_odds", odds_fit)
        monkeypatch.setattr(module, "fit_outcome", outcome_fit)
    f_calls = []
    call = Functional.__call__

    def counted_call(self, L):
        f_calls.append(len(L))
        return call(self, L)

    monkeypatch.setattr(Functional, "__call__", counted_call)
    terms, per_call = Counter(), []
    pair_terms = estimators._pair_terms

    def counted_terms(view, fmap, gm, om, influence):
        terms[(view, gm, om)] += 1
        before = log.copy()
        out = pair_terms(view, fmap, gm, om, influence)
        per_call.append(log - before)
        return out

    monkeypatch.setattr(estimators, "_pair_terms", counted_terms)
    seed = seed_sequence(20261018).spawn(1)[0]
    rows = cli.table_replicate(2, 2000, seed)

    assert set(rows) >= {"ipw", "ipw_wrong", "ra", "ra_wrong", "mr", "mr_ipw_wrong", "mr_ra_wrong", "mr_both_wrong"}
    # outcome models are multiplied into rows only by the pair terms, each
    # set of rows at most once per computation
    assert sum(per_call, Counter()) == log
    assert all(v == 1 for c in per_call for v in c.values()), [c for c in per_call if c and max(c.values()) > 1]
    # every outcome model was evaluated, and no odds model
    assert {key[0] for key in log} == {m.beta.tag for m in outcomes} and len(outcomes) > 10
    assert next(fits) - len(outcomes) > 10
    # f runs once, on the complete rows, for the outcome fits that regress f(L),
    # the score residuals of every pair-term computation that reads one, and
    # every estimator row together
    ds = generate(SimDesign("multiple", 2000, seed))
    assert sum(m.resp_coord is None for m in outcomes) == 4
    assert f_calls == [np.count_nonzero(ds.complete_mask)]
    # the eight rows read, per pair, the odds alone (IPW), the regression alone
    # (RA) and both (MR); the misspecified pairs have two fits of each
    pairs = len(build_strata(ds).incomplete_pairs())
    wrong = len(misspec_masks("multiple", "odds"))
    assert max(terms.values()) == 1 and len(terms) == 3 * (pairs - wrong) + 8 * wrong


def test_bootstrap_of_an_mr_fit_evaluates_f_once(tmp_path, monkeypatch, capsys):
    """`fit --method mr --bootstrap` evaluates f on the complete rows once: the
    resamples' fits and estimates read the full-data index's values."""
    path = str(tmp_path / "single.csv")
    assert cli.main(["simulate", "--design", "single", "--n", "2000", "--seed", "5", "--out", path]) == 0
    f_calls = []
    call = Functional.__call__

    def counted_call(self, L):
        f_calls.append(len(L))
        return call(self, L)

    monkeypatch.setattr(Functional, "__call__", counted_call)
    argv = ["fit", "--data", path, "--x-cols", "Y1,Y2", "--l-cols", "Y3", "--method", "mr", "--bootstrap", "16"]
    assert cli.main(argv) == 0
    assert "bootstrap" in capsys.readouterr().out
    assert len(f_calls) == 1


@pytest.mark.parametrize("table", [1, 2, 3])
def test_kept_pieces_form_no_reference_cycles(table):
    """Models hold their view and views hold no model (a view keeps the
    coefficients and exp(eta) of its fits, not the models), so a replicate's
    models, views and pieces are freed by reference counting when it
    returns, not left for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        cli.table_replicate(table, 2000, seed_sequence(20261018).spawn(1)[0])
        assert gc.collect() == 0
    finally:
        gc.enable()


def separate_increments(view, fmap, gm, om):
    """The influence increments of one pair as separate (rows, values) adds:
    the odds-weighted residual and the outcome fit's correction on the pool,
    the regression on the case rows, and the odds fit's correction on both."""
    n, adds = view.ds.n, []
    m = read_outcome(om, view, fmap, pool=True) if om is not None else None
    if gm is not None:
        o_pool = view_values(gm, view, "pool")
        resid = fmap[view.pool] - (m.pool if om is not None else 0.0)
        adds.append((view.pool, resid * o_pool))
    if om is not None:
        adds.append((view.case, m.case))
        Zm = view.design(om.keep)
        grad = Zm.case.T @ m.factor_case
        if gm is not None:
            grad = grad - Zm.pool.T @ (m.factor_pool * o_pool)
        adds.append((view.pool, m.score * (Zm.pool @ (om.gram_inv @ (grad / n)))))
    if gm is not None:
        adds.append((view.rows, glm.odds_correction(gm, resid * o_pool)))
    return adds


def test_each_pair_term_is_one_increment_over_the_rows(fitted_multiple):
    """A pair's cached terms hold one read-only increment over its case and
    pool rows, the sum of the pair's separate influence increments."""
    ds, strata, _ = fitted_multiple
    odds, outs = fit_all_odds(ds, strata), fit_all_outcomes(ds, strata, F2, decompose=True)
    fmap = complete_values(ds, strata, F2)
    for estimate, gms, oms in ((estimate_ipw, odds, None), (estimate_ra, None, outs), (estimate_mr, odds, outs)):
        est = estimate(ds, strata, *(m for m in (gms, oms) if m is not None), F2)
        ref = fmap.copy()
        for pr in strata.incomplete_pairs():
            view = pair_view(ds, strata, pr)
            gm, om = (models[pr.key] if models is not None else None for models in (gms, oms))
            cached, (_, _, inc) = (gm or om).pieces[(om if gm is not None else None, True)]
            assert cached is F2 and inc.shape == view.rows.shape and not inc.flags.writeable
            want = np.zeros(ds.n)
            for rows, vals in separate_increments(view, fmap, gm, om):
                want[rows] += vals
            np.testing.assert_allclose(inc, want[view.rows], rtol=0, atol=1e-15 * np.abs(want).max())
            ref += want
        np.testing.assert_allclose(est.influence.values + est.theta_hat, ref, rtol=0, atol=1e-14 * np.abs(ref).max())
