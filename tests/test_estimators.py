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
from accmv.inference import if_variance_ra
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


def test_outcome_models_serve_only_their_functional():
    # without the check, RA of L1 from the outcome models fitted for L1*L2
    # read 1.2443 on this data, against 0.9265 from models fitted for L1
    ds = generate(SimDesign("multiple", 4000, 1))
    strata = build_strata(ds)
    odds, outs = fit_all_odds(ds, strata), fit_all_outcomes(ds, strata, F2, decompose=True)
    mr = estimate_mr(ds, strata, odds, outs, F2)          # the models keep the pair terms of F2
    for call in (lambda: estimate_ra(ds, strata, outs, F1), lambda: estimate_mr(ds, strata, odds, outs, F1),
                 lambda: if_variance_ra(ds, strata, outs, F1, 0.0),
                 lambda: augmentation_mean(ds, strata, odds, outs, F1)):
        with pytest.raises(ConfigError, match=r"fitted for prod\(L\[1,2\]\), not L1"):
            call()
    # an equal functional built anew is the same functional, and odds models serve any
    assert estimate_mr(ds, strata, odds, outs, Functional("product", (0, 1))).theta_hat == mr.theta_hat
    own = fit_all_outcomes(ds, strata, F1)
    assert abs(estimate_ra(ds, strata, own, F1).theta_hat - 0.9265) <= 5e-5
    assert estimate_mr(ds, strata, odds, own, F1).influence is not None


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


def test_complete_case_on_reweighted_index_is_frequency_weighted_mean():
    # each complete stratum's term is its frequency-weighted sum of f over the
    # frequency-weighted count of complete records; undrawn records drop out
    ds = generate(SimDesign("multiple", 2000, 8))
    counts = np.bincount(np.random.default_rng(3).integers(0, ds.n, ds.n), minlength=ds.n)
    est = estimate_complete_case(ds, build_strata(ds).reweight(counts), F1)
    complete = ds.complete_mask
    n_complete = counts[complete].sum()
    expect = {}
    for rv in np.unique(ds.r_codes[complete & (counts > 0)]):
        sel = complete & (ds.r_codes == rv)
        expect[(format(rv, f"0{ds.p}b"), "1" * ds.d)] = (counts[sel] * ds.L[sel, 0]).sum() / n_complete
    assert len(expect) > 1
    assert est.diagnostics == {"n_complete": n_complete}
    assert est.influence is None
    assert list(est.per_stratum) == list(expect)
    np.testing.assert_allclose(list(est.per_stratum.values()), list(expect.values()), rtol=1e-12, atol=0)
    assert est.theta_hat == pytest.approx(sum(expect.values()), rel=1e-12, abs=0)


def test_complete_case_influence_is_the_self_normalized_ipw_with_no_odds():
    # (n / n_c)(f - theta) on the complete records and 0 elsewhere, so the SE is
    # the SD (ddof 0) of f over the complete records over sqrt(n_c)
    ds = generate(SimDesign("multiple", 2000, 8))
    strata = build_strata(ds)
    est = estimate_complete_case(ds, strata, F1)
    sn = estimate_ipw(ds, strata, None, F1, self_normalize=True)
    complete = ds.complete_mask
    fc, n_c = ds.L[complete, 0], complete.sum()
    assert (est.method, est.self_normalized, est.diagnostics) == ("complete_case", False, {"n_complete": n_c})
    assert (est.theta_hat, est.per_stratum) == (sn.theta_hat, sn.per_stratum)
    assert est.theta_hat == pytest.approx(fc.mean(), rel=1e-12, abs=0)
    want = np.where(complete, ds.L[:, 0] - est.theta_hat, 0.0) * ds.n / n_c
    np.testing.assert_allclose(est.influence.values, want, rtol=0, atol=1e-12)
    assert est.influence.se == pytest.approx(fc.std() / np.sqrt(n_c), rel=1e-12, abs=0)


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