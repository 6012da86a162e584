"""Hypothesis fuzz of the Python API's input constructors: whatever a caller
passes to `TiltSpec` or `Functional`, the only error that escapes is an
`AccmvError` (a `ConfigError`), never a bare numpy `TypeError`, `ValueError`
or `IndexError`.  A functional whose coordinates reach past the primaries of
the data it is fitted on fails as a `DataError`, and so does a custom one
that does not return one value per row.  Named bad arguments to `Pattern`,
the fits (a pattern pair of the wrong lengths is refused before anything is
cached) and the resampling loops are a `ConfigError` too, raised before any
replicate runs, and so is a stratum index read with any dataset but its own.  On small datasets of any scale, with missing cells, constant
columns and tiny strata, the fits, estimators, sweep and marginal model raise
only `AccmvError`s and return finite numbers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accmv.cli import run_table, table_replicate
from accmv.data import Dataset, Functional, build_strata
from accmv.errors import AccmvError, ConfigError, DataError
from accmv.estimators import compute_weights, estimate_complete_case, estimate_ipw, estimate_mr, estimate_ra
from accmv.glm import complete_values, fit_all_odds, fit_all_outcomes, fit_odds, fit_outcome, pair_view
from accmv.inference import bootstrap
from accmv.mpm import ScoreSpec, sandwich_variance, solve_weighted_ee
from accmv.patterns import Pattern, PatternPair
from accmv.sensitivity import TiltSpec, sweep, tilted_estimate
from accmv.simgen import SimDesign, default_functional, generate

ITEMS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.complex_numbers(max_magnitude=2.0),
    st.tuples(st.floats(-1, 1)),
)
VALUES = st.one_of(
    st.tuples(),
    st.lists(ITEMS, max_size=3).map(tuple),
    st.lists(st.floats(-5, 5), min_size=1, max_size=3).map(tuple),
    ITEMS,
    st.lists(ITEMS, max_size=2),
)
COORDS = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(-2, 2), st.text(max_size=1), st.none()), max_size=3).map(tuple),
    ITEMS,
    st.lists(st.integers(0, 3), max_size=2),
)
KINDS = st.one_of(st.sampled_from(["coordinate", "mean", "product", "threshold", "custom"]), st.text(max_size=4))


def only_accmv_errors(build):
    try:
        return build()
    except AccmvError as e:
        assert isinstance(e, ConfigError)
        return None


@settings(max_examples=300, deadline=None)
@given(VALUES, VALUES, VALUES)
def test_tilt_spec_raises_only_config_errors(delta, center, grid):
    spec = only_accmv_errors(lambda: TiltSpec(delta=delta, center=center, grid=grid))
    if spec is not None:
        for name in ("delta", "center", "grid"):
            assert np.isfinite(np.asarray(getattr(spec, name), dtype=float)).all()
        for d in (1, 2, 3):
            only_accmv_errors(lambda: (spec.resolved_delta(d, 0.5), spec.resolved_center(d)))


@settings(max_examples=300, deadline=None)
@given(KINDS, COORDS, VALUES, st.sampled_from([None, np.sum]))
def test_functional_raises_only_config_errors(kind, coords, thresholds, fn):
    f = only_accmv_errors(lambda: Functional(kind, coords, thresholds, fn))
    if f is not None and f.kind != "custom":
        assert all(isinstance(c, int) and c >= 0 for c in f.coords)
        L = np.arange(12.0).reshape(3, 4)        # wide enough for every coordinate drawn
        assert f(L).shape == (3,)


@pytest.mark.parametrize("build", [
    lambda: TiltSpec(delta=("a",)),
    lambda: TiltSpec(delta=(1.0,), grid=(None,)),
    lambda: TiltSpec(delta=0.5),
    lambda: Functional("threshold", (0,), ("a",)),
    lambda: Functional("coordinate", (-1,)),
    lambda: Functional("coordinate", ("x",)),
    lambda: Functional("coordinate", (1.5,)),
    lambda: Functional("coordinate", 0),
    lambda: Functional("coordinate", (True,)),
    lambda: run_table(True, 2, 2000, 1),
    lambda: run_table(1.0, 1, 300, 1, workers=1),
    lambda: run_table(3, 2.5, 2000, 1),
    lambda: run_table(3, True, 2000, 1),
    lambda: run_table(3, 2, 2000.5, 1),
    lambda: run_table(3, 2, 2000, 1, workers=1.5),
    lambda: run_table(3, 2, 2000, 1, workers="2"),
    lambda: run_table(3, 2, 2000, 1, workers=-1),
    lambda: generate(SimDesign("single", 2.5)),
    lambda: generate(SimDesign("single", 10, 2.5)),
    lambda: generate(SimDesign("single", 10, "x")),
    lambda: generate(SimDesign("single", 10, -1.0)),
    lambda: Pattern(1.5, 2),
    lambda: Pattern("1", 2),
    lambda: Pattern(True, 1),
    lambda: Pattern(1, 2.0),
    lambda: Pattern(1, True),
    lambda: table_replicate(4, 2000, 1),
    lambda: table_replicate(True, 2000, 1),
], ids=["delta-text", "grid-none", "delta-scalar", "threshold-text", "coord-negative", "coord-text",
        "coord-float", "coords-scalar", "coord-bool", "table-bool", "table-float", "table-replicates-float",
        "table-replicates-bool", "table-n-float", "table-workers-float", "table-workers-text", "table-workers-negative",
        "design-n-float", "design-seed-float", "design-seed-text", "design-seed-negative-float",
        "pattern-value-float", "pattern-value-text", "pattern-value-bool", "pattern-length-float",
        "pattern-length-bool", "table-replicate-4", "table-replicate-bool"])
def test_named_bad_inputs(build):
    with pytest.raises(ConfigError):
        build()


@pytest.fixture(scope="module")
def two_primaries():
    ds = generate(SimDesign("multiple", 400, 3))
    assert ds.d == 2
    return ds, build_strata(ds)


@pytest.mark.parametrize("f", [
    Functional("coordinate", (5,)),
    Functional("threshold", (0, 3), (1.0, 1.0)),
], ids=["coordinate", "threshold"])
def test_coordinate_past_d_is_a_data_error(two_primaries, f):
    ds, strata = two_primaries
    with pytest.raises(DataError, match="out of range for d=2"):
        estimate_complete_case(ds, strata, f)


def test_decomposed_product_past_d_is_a_data_error(two_primaries):
    # L1 observed and L6 absent: a decomposed fit would regress coordinate 6
    ds, strata = two_primaries
    pair = PatternPair(Pattern(0, ds.p), Pattern(0b10, ds.d))
    assert strata.stratum(pair).size
    with pytest.raises(DataError, match="out of range for d=2"):
        fit_outcome(ds, strata, pair, Functional("product", (0, 5)), decompose=True)


def no_replicate(ds, strata):
    pytest.fail("a replicate ran before the arguments were checked")


def ipw_with(f):
    """`estimate_ipw` with no odds model and functional `f`, on an index that
    already holds the complete-record values of another functional."""
    def call(ds, strata):
        complete_values(ds, strata, Functional("coordinate", (0,)))
        return estimate_ipw(ds, strata, None, f)
    return call


def two_covariate_pair(strata):
    return next(pr for pr in strata.incomplete_pairs() if len(pr.r.indices) + len(pr.a.indices) == 2)


def with_fits(call):
    """`call(ds, s, odds, outcomes, f)` with both model families fitted on `s` for f = L1."""
    f = Functional("coordinate", (0,))
    return lambda ds, s: call(ds, s, fit_all_odds(ds, s), fit_all_outcomes(ds, s, f), f)


def tilt_at(multiplier):
    return lambda ds, s: tilted_estimate(ds, s, fit_all_odds(ds, s), Functional("coordinate", (0,)),
                                         TiltSpec(delta=(1.0,)), multiplier)


@pytest.mark.parametrize("call", [
    lambda ds, s: fit_odds(ds, s, s.incomplete_pairs()[0], keep=(True,) * 9),
    lambda ds, s: fit_outcome(ds, s, s.incomplete_pairs()[0], Functional("coordinate", (0,)), keep=(False,)),
    lambda ds, s: fit_odds(ds, s, PatternPair(Pattern(1, 1), Pattern(1, 2))),
    lambda ds, s: fit_outcome(ds, s, PatternPair(Pattern(1, 2), Pattern(1, 3)), Functional("coordinate", (0,))),
    lambda ds, s: bootstrap(ds, s, lambda d, x: 0.0, 0.0, B=2.5),
    lambda ds, s: bootstrap(ds, s, lambda d, x: 0.0, 0.0, B="4"),
    lambda ds, s: bootstrap(ds, s, lambda d, x: 0.0, float("nan"), B=4),
    lambda ds, s: bootstrap(ds, s, lambda d, x: 0.0, "0.0x", B=4),
    lambda ds, s: bootstrap(ds, s, lambda d, x: [0.0, 1.0], 0.0, B=4),
    lambda ds, s: bootstrap(ds, s.reweight(np.ones(ds.n)), no_replicate, 0.0, B=4),
    lambda ds, s: sweep(ds, s, fit_all_odds(ds, s), Functional("coordinate", (0,)),
                        TiltSpec(delta=(1.0,), grid=(0.0,)), B=3.0),
    lambda ds, s: sweep(ds, s, fit_all_odds(ds, s), Functional("coordinate", (0,)),
                        TiltSpec(delta=(1.0,), grid=(0.0,)), B=1),
    lambda ds, s: sweep(ds, s, fit_all_odds(ds, s), Functional("coordinate", (0,)),
                        TiltSpec(delta=(1.0,), grid=(0.0,)), B=-3),
    lambda ds, s: estimate_ipw(ds, build_strata(ds), None, None),
    ipw_with(None),
    lambda ds, s: estimate_ipw(ds, s, None, "L1"),
    lambda ds, s: fit_all_odds(generate(SimDesign("multiple", ds.n, 4)), s),
    lambda ds, s: compute_weights(generate(SimDesign("multiple", 300, 3)), s, fit_all_odds(ds, s)),
    lambda ds, s: fit_all_odds(ds.subset(np.arange(ds.n)), s),
    tilt_at(float("nan")),
    tilt_at(float("inf")),
    tilt_at("a"),
    lambda ds, s: fit_odds(ds, s, two_covariate_pair(s), keep=("a", "")),
    lambda ds, s: fit_odds(ds, s, two_covariate_pair(s), keep=(np.nan, 0)),
    with_fits(lambda ds, s, odds, outs, f: estimate_ipw(ds, s, outs, f)),
    with_fits(lambda ds, s, odds, outs, f: sweep(ds, s, outs, f, TiltSpec(delta=(1.0,), grid=(0.0,)))),
    with_fits(lambda ds, s, odds, outs, f: solve_weighted_ee(ds, s, outs, ScoreSpec("gaussian"))),
    with_fits(lambda ds, s, odds, outs, f: estimate_ra(ds, s, odds, f)),
    with_fits(lambda ds, s, odds, outs, f: estimate_mr(ds, s, outs, odds, f)),
    with_fits(lambda ds, s, odds, outs, f: estimate_ipw(ds, s, dict.fromkeys(odds, 1.0), f)),
], ids=["odds-keep-length", "outcome-keep-length", "odds-pattern-length", "outcome-pattern-length",
        "bootstrap-B-float", "bootstrap-B-text",
        "bootstrap-estimate-nan", "bootstrap-estimate-text", "bootstrap-estimate-shape",
        "bootstrap-reweighted-index", "sweep-B-float",
        "sweep-B-one", "sweep-B-negative", "f-none", "f-none-after-another", "f-text",
        "index-read-with-another-seed", "index-read-with-a-smaller-dataset", "index-read-with-a-subset-copy",
        "tilt-multiplier-nan", "tilt-multiplier-inf", "tilt-multiplier-text", "odds-keep-text", "odds-keep-nan",
        "ipw-given-outcome-models", "sweep-given-outcome-models", "mpm-given-outcome-models",
        "ra-given-odds-models", "mr-given-swapped-families", "odds-given-numbers"])
def test_named_bad_estimation_inputs(two_primaries, call):
    ds, strata = two_primaries
    with pytest.raises(ConfigError):
        call(ds, strata)


@pytest.mark.parametrize("kind", ["single", "multiple"])
def test_an_index_serves_only_its_dataset(kind):
    # a same-size draw of another seed and an exact copy are other datasets:
    # every reader of the index, and of its reweighted copies, refuses them
    ds = generate(SimDesign(kind, 2000, 1))
    strata = build_strata(ds)
    f = default_functional(kind)
    pr = strata.incomplete_pairs()[0]
    odds, outs = fit_all_odds(ds, strata), fit_all_outcomes(ds, strata, f)
    solved = solve_weighted_ee(ds, strata, None, ScoreSpec("gaussian"))
    spec = TiltSpec(delta=(0.5,), grid=(-1.0, 0.0, 1.0))
    calls = {
        "pair_view": lambda d, s: pair_view(d, s, pr),
        "complete_values": lambda d, s: complete_values(d, s, f),
        "fit_odds": lambda d, s: fit_odds(d, s, pr),
        "fit_outcome": lambda d, s: fit_outcome(d, s, pr, f),
        "fit_all_odds": lambda d, s: fit_all_odds(d, s),
        "fit_all_outcomes": lambda d, s: fit_all_outcomes(d, s, f),
        "estimate_ipw": lambda d, s: estimate_ipw(d, s, odds, f),
        "estimate_ipw_self_normalized": lambda d, s: estimate_ipw(d, s, odds, f, self_normalize=True),
        "estimate_ra": lambda d, s: estimate_ra(d, s, outs, f),
        "estimate_mr": lambda d, s: estimate_mr(d, s, odds, outs, f),
        "estimate_complete_case": lambda d, s: estimate_complete_case(d, s, f),
        "compute_weights": lambda d, s: compute_weights(d, s, odds),
        "compute_weights_no_odds": lambda d, s: compute_weights(d, s, None),
        "solve_weighted_ee": lambda d, s: solve_weighted_ee(d, s, None, ScoreSpec("gaussian")),
        "sandwich_variance": lambda d, s: sandwich_variance(d, s, None, solved),
        "tilted_estimate": lambda d, s: tilted_estimate(d, s, odds, f, spec),
        "sweep": lambda d, s: sweep(d, s, odds, f, spec),
        "bootstrap": lambda d, s: bootstrap(d, s, no_replicate, 0.0, B=4),
    }
    resampled = strata.reweight(np.random.default_rng(1).integers(0, 3, ds.n))
    for other in (generate(SimDesign(kind, ds.n, 2)), ds.subset(np.arange(ds.n))):
        for call in calls.values():
            with pytest.raises(ConfigError, match="built from"):
                call(other, strata)
        for name in ("pair_view", "complete_values", "fit_odds", "fit_all_outcomes", "estimate_mr", "sweep"):
            with pytest.raises(ConfigError, match="built from"):
                calls[name](other, resampled)
    # the refusals leave the index serving its own dataset as before
    assert pair_view(ds, strata, pr) is odds[pr.key].view
    fresh = build_strata(ds)
    assert estimate_mr(ds, strata, odds, outs, f).theta_hat == \
        estimate_mr(ds, fresh, fit_all_odds(ds, fresh), fit_all_outcomes(ds, fresh, f), f).theta_hat


def test_pattern_lengths_are_checked_before_any_cache():
    # (r=1, a=01) shares its key (1, 1) with the pair (r=01, a=01) of these data;
    # refused before its view is built, it leaves the index's fits as they were
    ds = generate(SimDesign("multiple", 400, 3))
    strata = build_strata(ds)
    for pair in (PatternPair(Pattern(1, 1), Pattern(1, 2)), PatternPair(Pattern(1, 3), Pattern(1, 2))):
        with pytest.raises(ConfigError, match="lengths"):
            fit_odds(ds, strata, pair)
        with pytest.raises(ConfigError, match="lengths"):
            fit_outcome(ds, strata, pair, Functional("coordinate", (0,)))
    got, want = fit_all_odds(ds, strata), fit_all_odds(ds, build_strata(ds))
    assert got.keys() == want.keys()
    for key, model in got.items():
        np.testing.assert_array_equal(model.alpha, want[key].alpha)
        np.testing.assert_array_equal(model.e, want[key].e)


def test_functional_needs_one_value_per_row():
    L = np.arange(6.0).reshape(3, 2)
    for fn in (lambda L: np.ones(4), lambda L: 1.0, lambda L: np.ones((3, 1)), lambda L: L):
        with pytest.raises(DataError, match="one value per row"):
            Functional("custom", fn=fn)(L)
    ds = generate(SimDesign("multiple", 400, 3))
    with pytest.raises(DataError, match="one value per row"):
        estimate_complete_case(ds, build_strata(ds), Functional("custom", fn=lambda L: np.ones(3)))


@st.composite
def small_datasets(draw):
    """A few dozen records of 1-2 auxiliaries and 1-2 primaries at one scale
    from 1e-6 to 1e9, random cells missing, a column possibly constant."""
    p, d = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n = draw(st.integers(4, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 9))
    V = scale * (rng.standard_normal((n, p + d)) + draw(st.sampled_from([0.0, 3.0])))
    constant = draw(st.integers(-1, p + d - 1))
    if constant >= 0:
        V[:, constant] = scale
    V[rng.random((n, p + d)) < draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))] = np.nan
    return Dataset(V[:, :p], V[:, p:])


def finite_numbers(value):
    """Every number reachable from `value` is finite."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return finite_numbers(vars(value))
    if isinstance(value, dict):
        return all(finite_numbers(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(finite_numbers(v) for v in value)
    if isinstance(value, np.ndarray) or isinstance(value, float):
        return bool(np.isfinite(value).all())
    return True


@settings(max_examples=150, deadline=None)
@given(small_datasets(), st.sampled_from([1, 2, 5]), st.sampled_from(["coordinate", "mean", "threshold"]))
def test_estimation_api_raises_only_accmv_errors(ds, n_min, kind):
    strata = build_strata(ds)
    coords = (0,) if kind == "coordinate" else tuple(range(ds.d))
    f = Functional(kind, coords, (0.0,) * ds.d if kind == "threshold" else ())
    got = {}

    def attempt(name, call):
        try:
            got[name] = call()
        except AccmvError:
            pass

    attempt("odds", lambda: fit_all_odds(ds, strata, n_min=n_min))
    attempt("outcomes", lambda: fit_all_outcomes(ds, strata, f, n_min=n_min))
    odds, outcomes = got.get("odds"), got.get("outcomes")
    if odds is not None:
        spec = ScoreSpec("linear", response=1, predictors=(0,)) if ds.d == 2 else ScoreSpec("gaussian")
        attempt("ipw", lambda: estimate_ipw(ds, strata, odds, f))
        attempt("sweep", lambda: sweep(ds, strata, odds, f, TiltSpec(delta=(0.5,), grid=(-1.0, 0.0, 1.0))))
        attempt("mpm", lambda: solve_weighted_ee(ds, strata, odds, spec))
        if "mpm" in got:
            attempt("sandwich", lambda: sandwich_variance(ds, strata, odds, got["mpm"]))
    if outcomes is not None:
        attempt("ra", lambda: estimate_ra(ds, strata, outcomes, f))
        if odds is not None:
            attempt("mr", lambda: estimate_mr(ds, strata, odds, outcomes, f))
    for name in ("odds", "outcomes"):
        for model in got.get(name, {}).values():
            assert finite_numbers(vars(model)), (name, model)
    for name in ("ipw", "ra", "mr"):
        if name in got:
            est = got[name]
            assert finite_numbers([est.theta_hat, est.per_stratum, est.diagnostics, est.influence.se]), (name, est)
    if "sweep" in got:
        assert finite_numbers(got["sweep"].estimates), got["sweep"]
    if "mpm" in got:
        assert finite_numbers(vars(got["mpm"])), got["mpm"]
    if "sandwich" in got:
        assert finite_numbers(got["sandwich"]), got["sandwich"]
