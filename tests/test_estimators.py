import numpy as np
import pytest

from accmv.data import Dataset, Functional, build_strata
from accmv.errors import ConfigError, PositivityError
from accmv.estimators import (
    augmentation_mean,
    compute_weights,
    estimate_complete_case,
    estimate_ipw,
    estimate_mr,
    estimate_ra,
)
from accmv.glm import fit_all_odds, fit_all_outcomes
from accmv.simgen import SimDesign, generate, oracle_value

from toy import toy_single_primary, toy_two_primaries

F1 = Functional("coordinate", (0,))
F2 = Functional("product", (0, 1))


@pytest.mark.parametrize("make_toy", [toy_single_primary, toy_two_primaries])
def test_discrete_toy_population_routes_agree(make_toy):
    toy = make_toy()
    direct = toy.theta_direct()
    assert toy.theta_ipw() == direct        # exact rational arithmetic
    assert toy.theta_ra() == direct


@pytest.mark.parametrize("make_toy", [toy_single_primary, toy_two_primaries])
def test_discrete_toy_estimators_match_direct_sum(make_toy):
    toy = make_toy()
    direct = float(toy.theta_direct())
    ds = toy.dataset()
    strata = build_strata(ds)
    odds, outs = toy.oracle_models()
    assert abs(estimate_ipw(ds, strata, odds, toy.f).theta_hat - direct) <= 1e-12
    assert abs(estimate_ra(ds, strata, outs, toy.f).theta_hat - direct) <= 1e-12
    assert abs(estimate_mr(ds, strata, odds, outs, toy.f).theta_hat - direct) <= 1e-12


def complete_dataset(n=60, d=1, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, 2)), rng.standard_normal((n, d)))


def test_no_missingness_reduces_to_sample_mean():
    ds = complete_dataset()
    strata = build_strata(ds)
    mean = float(F1(ds.L).mean())
    assert np.isclose(estimate_ipw(ds, strata, {}, F1).theta_hat, mean, rtol=0, atol=1e-12)
    assert np.isclose(estimate_ra(ds, strata, {}, F1).theta_hat, mean, rtol=0, atol=1e-12)
    assert np.isclose(estimate_mr(ds, strata, {}, {}, F1).theta_hat, mean, rtol=0, atol=1e-12)
    assert np.isclose(estimate_complete_case(ds, strata, F1).theta_hat, mean, rtol=0, atol=1e-12)


def test_missing_model_is_config_error(single_20k):
    ds, strata = single_20k
    odds = fit_all_odds(ds, strata)
    partial = {k: v for k, v in odds.items() if k != (3, 0)}
    with pytest.raises(ConfigError, match="11"):
        estimate_ipw(ds, strata, partial, F1)


def test_weights_at_least_one_and_mass(multiple_20k):
    ds, strata = multiple_20k
    odds = fit_all_odds(ds, strata)
    wt = compute_weights(ds, strata, odds)
    assert np.all(wt.total >= 1.0)
    assert abs(wt.total.sum() / ds.n - 1.0) <= 0.02
    diag = wt.diagnostics()
    assert diag["w_min"] >= 1.0 and 0 < diag["ess"] <= wt.rows.size


def test_mr_equals_ra_plus_augmentation(single_20k, multiple_20k):
    for (ds, strata), f, dec in [(single_20k, F1, False), (multiple_20k, F2, True)]:
        odds = fit_all_odds(ds, strata)
        outs = fit_all_outcomes(ds, strata, f, decompose=dec)
        mr = estimate_mr(ds, strata, odds, outs, f).theta_hat
        ra = estimate_ra(ds, strata, outs, f).theta_hat
        aug = augmentation_mean(ds, strata, odds, outs, f)
        assert abs(mr - (ra + aug)) <= 1e-10


def test_decomposition_sums_exactly(single_20k):
    ds, strata = single_20k
    odds = fit_all_odds(ds, strata)
    outs = fit_all_outcomes(ds, strata, F1)
    for est in (
        estimate_ipw(ds, strata, odds, F1),
        estimate_ra(ds, strata, outs, F1),
        estimate_mr(ds, strata, odds, outs, F1),
        estimate_complete_case(ds, strata, F1),
    ):
        assert est.theta_hat == sum(est.per_stratum.values())


def test_permutation_invariance():
    ds = generate(SimDesign("single", 4000, 99))
    rng = np.random.default_rng(1)
    perm = rng.permutation(ds.n)
    dsp = ds.subset(perm)
    vals = {}
    for tag, d in (("orig", ds), ("perm", dsp)):
        strata = build_strata(d)
        odds = fit_all_odds(d, strata)
        outs = fit_all_outcomes(d, strata, F1)
        vals[tag] = (
            estimate_ipw(d, strata, odds, F1).theta_hat,
            estimate_ra(d, strata, outs, F1).theta_hat,
            estimate_mr(d, strata, odds, outs, F1).theta_hat,
        )
    np.testing.assert_allclose(vals["orig"], vals["perm"], rtol=1e-9)


def test_self_normalized_variant(single_20k):
    ds, strata = single_20k
    odds = fit_all_odds(ds, strata)
    plain = estimate_ipw(ds, strata, odds, F1)
    sn = estimate_ipw(ds, strata, odds, F1, self_normalize=True)
    wt = compute_weights(ds, strata, odds)
    assert sn.self_normalized and not plain.self_normalized
    assert np.isclose(sn.theta_hat, plain.theta_hat * ds.n / wt.total.sum(), rtol=1e-12)
    assert sn.theta_hat == sum(sn.per_stratum.values())


def test_oracle_nuisance_limits_match_truth():
    # with exact nuisances the three estimators share the same population
    # limit; check at large n within Monte Carlo error
    truth = oracle_value("single")
    ds = generate(SimDesign("single", 10**6, 31415))
    strata = build_strata(ds)
    f = truth.functional
    ests, ses = [], []
    ipw = estimate_ipw(ds, strata, truth.odds, f)
    wt = compute_weights(ds, strata, truth.odds)
    v = np.zeros(ds.n)
    v[wt.rows] = f(ds.L[wt.rows]) * wt.total
    ests.append(ipw.theta_hat)
    ses.append(v.std() / np.sqrt(ds.n))
    ra = estimate_ra(ds, strata, truth.outcomes, f)
    ests.append(ra.theta_hat)
    ses.append(0.5 / np.sqrt(ds.n) * 3)
    mr = estimate_mr(ds, strata, truth.odds, truth.outcomes, f)
    ests.append(mr.theta_hat)
    ses.append(ses[0])
    for est, se in zip(ests, ses):
        assert abs(est - truth.theta_true) <= 3 * se


def test_complete_case_errors_without_complete_records():
    X = np.ones((3, 1))
    L = np.full((3, 1), np.nan)
    ds = Dataset(X, L)
    with pytest.raises(PositivityError):
        estimate_complete_case(ds, build_strata(ds), F1)


def test_report_serialization(single_20k):
    ds, strata = single_20k
    odds = fit_all_odds(ds, strata)
    est = estimate_ipw(ds, strata, odds, F1)
    d = est.to_dict()
    assert d["method"] == "ipw" and d["n"] == ds.n
    assert any(k.startswith("r=") for k in d["per_stratum"])
    assert d["diagnostics"]["w_max"] >= d["diagnostics"]["w_min"] >= 1.0