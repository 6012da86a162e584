import csv

import numpy as np
import pytest

from accmv.data import Dataset, Functional, build_strata
from accmv.errors import ConfigError, DegenerateNormalizationError
from accmv.estimators import estimate_ipw, weight_table
from accmv.glm import fit_all_odds, pair_view, view_values
from accmv.patterns import Pattern, PatternPair
from accmv.sensitivity import TiltSpec, sweep, tilted_estimate
from accmv.simgen import OracleModel, SimDesign, generate

F1 = Functional("coordinate", (0,))


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
    # the weights, tilted or not, are those of the models of incomplete pairs
    ds, strata = single_20k
    odds = fit_all_odds(ds, strata)
    pair = PatternPair(Pattern(0, 2), Pattern(1, 1))    # a = 1_d
    extra = {**odds, (0, 1): OracleModel(pair, lambda x, l: 1.0)}
    deltas, center = [None, np.ones(1)], np.zeros(1)
    tables = zip(weight_table(ds, strata, extra, deltas, center), weight_table(ds, strata, odds, deltas, center))
    for got, expect in tables:
        np.testing.assert_array_equal(got.rows, expect.rows)
        np.testing.assert_array_equal(got.total, expect.total)


def test_tilted_log_odds_contract(single_20k, multiple_20k):
    # a pair's tilted contribution is its fitted pool odds times
    # exp(delta (l - c)) over the coordinates its primary pattern leaves
    # missing; the multiple design's pairs leave different coordinates missing
    for ds, strata in (single_20k, multiple_20k):
        odds = fit_all_odds(ds, strata)
        delta, center = np.array([0.4, -0.3])[:ds.d], np.array([1.5, 0.5])[:ds.d]
        wt, = weight_table(ds, strata, odds, [delta], center)
        expected = np.zeros(ds.n)
        for pr in strata.incomplete_pairs():
            view = pair_view(ds, strata, pr)
            miss = [j for j in range(ds.d) if j not in pr.a.indices]
            tilt = np.exp((ds.L[np.ix_(view.pool, miss)] - center[miss]) @ delta[miss])
            expected[view.pool] += view_values(odds[pr.key], view, "pool") * tilt
        np.testing.assert_allclose(wt.total / strata.weights(wt.rows) - 1.0, expected[wt.rows], rtol=1e-12)


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
    curve = sweep(ds, strata, odds, F1, spec, B=0)       # B = 0: no bootstrap, no interval
    assert abs(curve.estimates[1] - sn) <= 1e-12
    assert curve.B is None and np.isnan(curve.ci_lower + curve.ci_upper).all()


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
