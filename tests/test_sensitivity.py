import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accmv.data import Dataset, Functional, build_strata
from accmv.errors import ConfigError, DegenerateNormalizationError
from accmv.estimators import compute_weights, estimate_ipw
from accmv.glm import fit_all_odds, pair_view, view_values
from accmv.inference import DEFAULT_LEVEL, critical_value, normal_ci
from accmv.patterns import Pattern, PatternPair
from accmv.sensitivity import TiltSpec, sweep, tilted_estimate
from accmv.simgen import OracleModel, SimDesign, generate

F1 = Functional("coordinate", (0,))
F2 = Functional("product", (0, 1))


def test_zero_tilt_equals_self_normalized_ipw(single_20k):
    ds, strata = single_20k
    odds = fit_all_odds(ds, strata)
    sn = estimate_ipw(ds, strata, odds, F1, self_normalize=True).theta_hat
    for center in ((), (7.0,)):
        spec = TiltSpec(delta=(0.7,), center=center)
        assert abs(tilted_estimate(ds, strata, odds, F1, spec, multiplier=0.0) - sn) <= 1e-12
    spec = TiltSpec(delta=(0.0,))
    assert abs(tilted_estimate(ds, strata, odds, F1, spec) - sn) <= 1e-12


def test_two_record_closed_form():
    # stratum (r=1, a=0) with constant odds o; two complete records
    o, delta, c = 0.6, 0.35, 7.0
    X = np.array([[1.0], [1.0], [1.0], [1.0]])
    L = np.array([[np.nan], [np.nan], [5.0], [9.0]])
    ds = Dataset(X, L)
    strata = build_strata(ds)
    pair = PatternPair(Pattern(1, 1), Pattern(0, 1))
    odds = {(1, 0): OracleModel(pair, lambda x, l: o)}
    spec = TiltSpec(delta=(delta,), center=(c,))
    got = tilted_estimate(ds, strata, odds, F1, spec)
    w1 = 1.0 + o * np.exp(delta * (5.0 - c))
    w2 = 1.0 + o * np.exp(delta * (9.0 - c))
    expect = (5.0 * w1 + 9.0 * w2) / (w1 + w2)
    assert abs(got - expect) <= 1e-12


def test_monotone_in_tilt_direction():
    ds = generate(SimDesign("single", 8000, 2024))
    strata = build_strata(ds)
    odds = fit_all_odds(ds, strata)
    spec = TiltSpec(delta=(1.0,), grid=(-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0))
    curve = sweep(ds, strata, odds, F1, spec)
    ests = np.asarray(curve.estimates)
    # larger tilt upweights larger primary values, raising the estimate;
    # equivalently the estimate falls as the tilt turns more negative
    assert np.all(np.diff(ests) > 0)


def test_tilt_never_applies_to_complete_pattern(single_20k):
    # a model keyed by a pair with all primaries observed is never read:
    # the weights and every estimate, tilted or not, are those of the models
    # of incomplete pairs
    ds, strata = single_20k
    odds = fit_all_odds(ds, strata)
    pair = PatternPair(Pattern(0, 2), Pattern(1, 1))    # a = 1_d
    extra = {**odds, (0, 1): OracleModel(pair, lambda x, l: 1.0)}
    got, expect = compute_weights(ds, strata, extra), compute_weights(ds, strata, odds)
    np.testing.assert_array_equal(got.rows, expect.rows)
    np.testing.assert_array_equal(got.total, expect.total)
    spec = TiltSpec(delta=(1.0,), grid=(-1.0, 0.0, 0.5))
    assert sweep(ds, strata, extra, F1, spec).estimates == sweep(ds, strata, odds, F1, spec).estimates
    assert tilted_estimate(ds, strata, extra, F1, spec) == tilted_estimate(ds, strata, odds, F1, spec)


def test_tilted_log_odds_contract(single_20k, multiple_20k):
    # a pair's tilted contribution is its fitted pool odds times
    # exp(delta (l - c)) over the coordinates its primary pattern leaves
    # missing; the multiple design's pairs leave different coordinates
    # missing.  The estimate is sum f w / sum w over the complete records.
    for ds, strata in (single_20k, multiple_20k):
        odds = fit_all_odds(ds, strata)
        delta, center = np.array([0.4, -0.3])[:ds.d], np.array([1.5, 0.5])[:ds.d]
        spec = TiltSpec(delta=tuple(delta), center=tuple(center))
        w = np.ones(ds.n)
        for pr in strata.incomplete_pairs():
            view = pair_view(ds, strata, pr)
            miss = [j for j in range(ds.d) if j not in pr.a.indices]
            tilt = np.exp((ds.L[np.ix_(view.pool, miss)] - center[miss]) @ delta[miss])
            w[view.pool] += view_values(odds[pr.key], view, "pool") * tilt
        rows = np.flatnonzero(strata.complete_mask)
        expect = F1(ds.L[rows]) @ w[rows] / w[rows].sum()
        got = tilted_estimate(ds, strata, odds, F1, spec)
        assert abs(got - expect) <= 1e-12 * abs(expect)


def test_degenerate_normalization():
    X = np.array([[1.0], [1.0]])
    L = np.array([[np.nan], [np.nan]])
    ds = Dataset(X, L)
    strata = build_strata(ds)
    pair = PatternPair(Pattern(1, 1), Pattern(0, 1))
    odds = {(1, 0): OracleModel(pair, lambda x, l: 1.0)}
    with pytest.raises(DegenerateNormalizationError):
        tilted_estimate(ds, strata, odds, F1, TiltSpec(delta=(0.0,)))


def test_sweep_single_point_and_csv_roundtrip(tmp_path, single_20k):
    ds, strata = single_20k
    sub = ds.subset(np.arange(3000))
    s = build_strata(sub)
    odds = fit_all_odds(sub, s)
    sn = estimate_ipw(sub, s, odds, F1, self_normalize=True).theta_hat
    spec = TiltSpec(delta=(1.0,), grid=(0.0,))
    curve = sweep(sub, s, odds, F1, spec, B=25, seed=5)
    assert abs(curve.estimates[0] - sn) <= 1e-12
    assert curve.ci_lower[0] <= curve.estimates[0] <= curve.ci_upper[0]
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    with open(path, newline="") as fh:
        back = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    assert back[0]["estimate"] == curve.estimates[0]
    assert back[0]["ci_lo"] == curve.ci_lower[0]


def test_sweep_centers_on_untilted_point(single_20k):
    ds, strata = single_20k
    odds = fit_all_odds(ds, strata)
    sn = estimate_ipw(ds, strata, odds, F1, self_normalize=True).theta_hat
    spec = TiltSpec(delta=(0.8,), grid=(-0.5, 0.0, 0.5))
    curve = sweep(ds, strata, odds, F1, spec, B=0)       # B = 0: no bootstrap, influence intervals
    assert abs(curve.estimates[1] - sn) <= 1e-12
    assert curve.B is None and np.isfinite(curve.ci_lower + curve.ci_upper).all()
    assert all(lo < est < hi for lo, est, hi in zip(curve.ci_lower, curve.estimates, curve.ci_upper))


def test_sweep_zero_point_interval_is_the_self_normalized_ipw_interval(single_20k, multiple_20k):
    # at multiplier 0 the sweep's point and influence values are those of the
    # self-normalized IPW; the bound, fixed beforehand, is 1e-12 relative
    for (ds, strata), f in ((single_20k, F1), (multiple_20k, F2)):
        odds = fit_all_odds(ds, strata)
        sn = estimate_ipw(ds, strata, odds, f, self_normalize=True)
        spec = TiltSpec(delta=(0.5, -0.3)[:ds.d], center=(1.0,), grid=(-1.0, 0.0, 0.5))
        curve = sweep(ds, strata, odds, f, spec)
        ci = normal_ci(sn.theta_hat, sn.influence.se, DEFAULT_LEVEL)
        se = (curve.ci_upper[1] - curve.ci_lower[1]) / (2 * critical_value(DEFAULT_LEVEL))
        assert abs(se - sn.influence.se) <= 1e-12 * sn.influence.se
        for got, expect in ((curve.ci_lower[1], ci.lower), (curve.ci_upper[1], ci.upper)):
            assert abs(got - expect) <= 1e-12 * abs(expect)


def test_sweep_on_a_reweighted_index_has_no_interval(single_20k):
    # influence values are defined for unit frequencies only
    ds, strata = single_20k
    rw = strata.reweight(np.full(ds.n, 2))
    curve = sweep(ds, rw, fit_all_odds(ds, rw), F1, TiltSpec(delta=(0.8,), grid=(-0.5, 0.0)))
    assert np.isfinite(curve.estimates).all() and np.isnan(curve.ci_lower + curve.ci_upper).all()


def test_sweep_empty_grid_rejected(single_20k):
    ds, strata = single_20k
    odds = fit_all_odds(ds, strata)
    with pytest.raises(ConfigError):
        sweep(ds, strata, odds, F1, TiltSpec(delta=(1.0,), grid=()))


def test_tilt_spec_validation():
    spec = TiltSpec(delta=(1.0, 2.0))
    with pytest.raises(ConfigError):
        spec.resolved_delta(3)
    np.testing.assert_array_equal(TiltSpec(delta=(2.0,)).resolved_delta(3), [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(TiltSpec(delta=(1.0,), center=(7.0,)).resolved_center(2), [7.0, 7.0])

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["delta", "center", "grid"])
def test_tilt_spec_rejects_non_finite(field, bad):
    values = {"delta": (1.0,), field: (0.5, bad)}
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        TiltSpec(**values)


def sweep_estimates(ds, spec):
    strata = build_strata(ds)
    return np.array(sweep(ds, strata, fit_all_odds(ds, strata), F1, spec).estimates)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**16), st.sampled_from(["single", "multiple"]), st.floats(0.1, 10.0))
def test_sweep_scale_and_permutation(seed, kind, c):
    # L -> c L with delta / c and center c: the odds refit absorbs the scale
    # in the coefficients of l, the tilt exponent is unchanged, and the
    # estimates of a coordinate scale by c.  Reordering the records changes
    # no estimate.  The bound, fixed beforehand, is 1e-12 relative.
    ds = generate(SimDesign(kind, 1000, seed))
    delta, center = np.array([0.8, -0.4])[:ds.d], np.array([1.0, 0.5])[:ds.d]
    spec = TiltSpec(delta=tuple(delta), center=tuple(center), grid=(-1.0, -0.5, 0.0, 1.0))
    base = sweep_estimates(ds, spec)
    scaled = TiltSpec(delta=tuple(delta / c), center=tuple(center * c), grid=spec.grid)
    np.testing.assert_allclose(sweep_estimates(Dataset(ds.X, c * ds.L), scaled), c * base, rtol=1e-12, atol=0)
    perm = np.random.default_rng(seed).permutation(ds.n)
    np.testing.assert_allclose(sweep_estimates(ds.subset(perm), spec), base, rtol=1e-12, atol=0)
