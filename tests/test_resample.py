"""Resampling by frequency weights.

A bootstrap replicate is the full-data stratum index reweighted by how often
each record was drawn.  Its fits and estimates must match the same draw taken
as a case resample (`Dataset.subset` of the drawn rows, strata rebuilt), which
serves as the reference here.
"""

import numpy as np
import pytest

import accmv.glm as glm
from accmv.data import Dataset, Functional, build_strata
from accmv.errors import ConfigError, FitError, SmallStratumError
from accmv.estimators import (
    compute_weights,
    estimate_complete_case,
    estimate_ipw,
    estimate_mr,
    estimate_ra,
)
from accmv.glm import fit_all_odds, fit_all_outcomes, pair_view
from accmv.inference import bootstrap, if_variance_mr, replicate
from accmv.mpm import ScoreSpec, sandwich_variance, solve_weighted_ee
from accmv.patterns import Pattern, PatternPair
from accmv.sensitivity import TiltSpec, sweep, tilted_estimate
from accmv.simgen import OracleModel, SimDesign, generate

TOL = 1e-10
SEEDS = range(20)
F1 = Functional("coordinate", (0,))
F2 = Functional("product", (0, 1))
GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
LIN = ScoreSpec("linear", response=1, predictors=(0,))


def draw(ds, seed):
    """The rows `inference.replicate` draws for stream 0 of `seed`."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return np.random.default_rng(child).integers(0, ds.n, ds.n)


def both_ways(ds, strata, seed):
    """(case resample, its strata) and (the data, the reweighted strata)."""
    rows = draw(ds, seed)
    sub = ds.subset(rows)
    return (sub, build_strata(sub)), (ds, strata.reweight(np.bincount(rows, minlength=ds.n)))


def close(a, b):
    return np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))) <= TOL


def mean_estimates(ds, s, f, decompose):
    odds = fit_all_odds(ds, s)
    outs = fit_all_outcomes(ds, s, f, decompose=decompose)
    return {
        "alpha": np.concatenate([odds[k].alpha for k in sorted(odds)]),
        "beta": np.concatenate([outs[k].beta for k in sorted(outs)]),
        "mr": estimate_mr(ds, s, odds, outs, f).theta_hat,
        "ipw": estimate_ipw(ds, s, odds, f).theta_hat,
        "ipw_sn": estimate_ipw(ds, s, odds, f, self_normalize=True).theta_hat,
        "ra": estimate_ra(ds, s, outs, f).theta_hat,
        "cc": estimate_complete_case(ds, s, f).theta_hat,
        "sweep": [tilted_estimate(ds, s, odds, f, TiltSpec(delta=(0.8,), center=(1.0,)), m) for m in GRID],
    }


@pytest.mark.parametrize("kind,f,decompose", [("single", F1, False), ("multiple", F2, True)])
def test_reweighted_replicates_match_case_resampling(kind, f, decompose):
    ds = generate(SimDesign(kind, 2000, 5150))
    strata = build_strata(ds)
    for seed in SEEDS:
        (sub, s_sub), (full, s_rw) = both_ways(ds, strata, seed)
        ref, got = mean_estimates(sub, s_sub, f, decompose), mean_estimates(full, s_rw, f, decompose)
        for key in ref:
            assert close(ref[key], got[key]), (seed, key, ref[key], got[key])


def test_reweighted_weighted_ee_matches_case_resampling(mpm_2k):
    ds, strata = mpm_2k
    for seed in SEEDS:
        (sub, s_sub), (full, s_rw) = both_ways(ds, strata, seed)
        ref = solve_weighted_ee(sub, s_sub, fit_all_odds(sub, s_sub), LIN)
        got = solve_weighted_ee(full, s_rw, fit_all_odds(full, s_rw), LIN)
        assert close(ref.theta_hat, got.theta_hat), seed
        assert ref.iterations == got.iterations


def test_replicate_loop_draws_the_case_resamples():
    ds = generate(SimDesign("single", 1500, 77))
    strata = build_strata(ds)

    def pipeline(d, s):
        return estimate_mr(d, s, fit_all_odds(d, s), fit_all_outcomes(d, s, F1), F1).theta_hat

    reps, failures = replicate(ds, strata, pipeline, B=5, seed=31)
    ref = []
    for child in np.random.SeedSequence(31).spawn(5):
        sub = ds.subset(np.random.default_rng(child).integers(0, ds.n, ds.n))
        ref.append(pipeline(sub, build_strata(sub)))
    assert failures == {} and close(ref, reps)


def test_sweep_replicates_match_case_resampling(single_20k):
    ds, strata = single_20k
    ds = ds.subset(np.arange(2000))
    strata = build_strata(ds)
    spec = TiltSpec(delta=(1.0,), center=(1.0,), grid=GRID)
    curve = sweep(ds, strata, fit_all_odds(ds, strata), F1, spec, B=4, seed=12)
    reps = []
    for child in np.random.SeedSequence(12).spawn(4):
        sub = ds.subset(np.random.default_rng(child).integers(0, ds.n, ds.n))
        s = build_strata(sub)
        odds = fit_all_odds(sub, s)
        reps.append([tilted_estimate(sub, s, odds, F1, spec, m) for m in GRID])
    se = np.asarray(reps).std(axis=0, ddof=1)
    z = 1.959963984540054
    assert close(np.asarray(curve.estimates) - z * se, curve.ci_lower)
    assert curve.n_failed == 0 and curve.failures == {}


def test_reweight_keeps_drawn_rows_and_reuses_designs(single_20k, monkeypatch):
    ds, strata = single_20k
    fit_all_odds(ds, strata)                       # builds the full-data designs
    counts = np.zeros(ds.n, dtype=int)
    counts[::3] = 2
    rw = strata.reweight(counts)
    assert rw.parent is strata and rw.freq[0] == 2.0
    for key, rows in rw.by_pair.items():
        np.testing.assert_array_equal(rows, strata.by_pair[key][counts[strata.by_pair[key]] > 0])
    calls = []
    monkeypatch.setattr(glm, "design_matrix", lambda *a, **k: calls.append(a))
    for pr in rw.incomplete_pairs():
        view, base = pair_view(ds, rw, pr), pair_view(ds, strata, pr)
        assert set(view.rows) == {i for i in base.rows if counts[i]}
        np.testing.assert_array_equal(view.w, counts[view.rows])
        np.testing.assert_array_equal(view.design().stacked, base.design().stacked[counts[base.rows] > 0])
    assert calls == []


def test_reweight_drops_pairs_without_drawn_records():
    X = np.array([[1.0], [1.0], [np.nan], [1.0]])
    L = np.array([[np.nan], [1.0], [1.0], [2.0]])
    strata = build_strata(Dataset(X, L))
    rw = strata.reweight([0, 2, 1, 1])
    assert [pr.key for pr in rw.pairs()] == [(0, 1), (1, 1)]
    assert rw.incomplete_pairs() == [] and rw.count(rw.pool(Pattern(1, 1))) == 3
    with pytest.raises(ConfigError):
        strata.reweight([1, 1, 1])
    with pytest.raises(ConfigError):
        rw.reweight([1, 1, 1, 1])


def test_small_stratum_counts_frequencies():
    X = np.r_[np.arange(6.0), np.arange(6.0) + 0.5].reshape(-1, 1)
    L = np.r_[np.full(6, np.nan), np.arange(6.0)].reshape(-1, 1)
    ds = Dataset(X, L)
    strata = build_strata(ds)
    pr = strata.incomplete_pairs()[0]
    with pytest.raises(SmallStratumError):
        glm.fit_odds(ds, strata, pr, n_min=10)
    counts = np.r_[np.full(6, 2), np.zeros(6, dtype=int)]
    counts[6:] = [2, 2, 2, 2, 1, 1]
    model = glm.fit_odds(ds, strata.reweight(counts), pr, n_min=10)
    assert (model.n_case, model.n_pool) == (12, 10)


def test_influence_and_sandwich_need_unit_frequencies(single_20k, mpm_2k):
    ds, strata = single_20k
    rw = strata.reweight(np.bincount(draw(ds, 3), minlength=ds.n))
    odds, outs = fit_all_odds(ds, rw), fit_all_outcomes(ds, rw, F1)
    with pytest.raises(ConfigError):
        estimate_mr(ds, rw, odds, outs, F1, influence=True)
    with pytest.raises(ConfigError):
        if_variance_mr(ds, rw, odds, outs, F1, 0.0)
    ds, strata = mpm_2k
    rw = strata.reweight(np.bincount(draw(ds, 3), minlength=ds.n))
    odds = fit_all_odds(ds, rw)
    est = solve_weighted_ee(ds, rw, odds, LIN)
    with pytest.raises(ConfigError):
        sandwich_variance(ds, rw, odds, LIN, est.theta_hat)


def test_failures_are_tallied_by_error_class():
    ds = Dataset(np.ones((10, 1)), np.arange(10, dtype=float).reshape(-1, 1))
    calls = {"k": 0}

    def sometimes(d, s):
        calls["k"] += 1
        if calls["k"] % 5 == 0:
            raise SmallStratumError("small")
        if calls["k"] % 7 == 0:
            raise FitError("boom")
        return estimate_complete_case(d, s, F1).theta_hat

    rep = bootstrap(ds, build_strata(ds), sometimes, B=20, seed=3, max_failure_rate=0.5)
    # the point estimate is call 1; replicates are calls 2-21
    assert rep.failures == {"FitError": 3, "SmallStratumError": 4}
    assert rep.n_failed == 7
    assert rep.to_dict()["failures"] == rep.failures


def test_absent_pair_odds_stay_out_of_the_weights():
    # one record in (r=1, a=0); an oracle for the absent pair (r=0, a=0) must
    # not enter the self-normalizing divisor: with f = 1 both estimates are 1
    X = np.array([[1.0], [1.0], [np.nan], [1.0]])
    L = np.array([[np.nan], [1.0], [1.0], [2.0]])
    ds = Dataset(X, L)
    strata = build_strata(ds)
    one = lambda x, l: 1.0
    odds = {
        (1, 0): OracleModel(PatternPair(Pattern(1, 1), Pattern(0, 1)), one),
        (0, 0): OracleModel(PatternPair(Pattern(0, 1), Pattern(0, 1)), one),
    }
    f = Functional("custom", fn=lambda L: np.ones(L.shape[0]))
    assert estimate_ipw(ds, strata, odds, f, self_normalize=True).theta_hat == 1.0
    assert tilted_estimate(ds, strata, odds, f, TiltSpec(delta=(0.0,))) == 1.0
    assert compute_weights(ds, strata, odds).total.sum() == 5.0
