"""Hypothesis fuzz of the Python API's input constructors: whatever a caller
passes to `TiltSpec` or `Functional`, the only error that escapes is an
`AccmvError` (a `ConfigError`), never a bare numpy `TypeError`, `ValueError`
or `IndexError`.  A functional whose coordinates reach past the primaries of
the data it is fitted on fails as a `DataError`.  Named bad arguments to the
fits and the resampling loops are a `ConfigError` too.  On small datasets of
any scale, with missing cells, constant columns and tiny strata, the fits,
estimators, sweep and marginal model raise only `AccmvError`s and return
finite numbers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accmv.data import Dataset, Functional, build_strata
from accmv.errors import AccmvError, ConfigError, DataError
from accmv.estimators import estimate_complete_case, estimate_ipw, estimate_mr, estimate_ra
from accmv.glm import fit_all_odds, fit_all_outcomes, fit_odds, fit_outcome
from accmv.inference import bootstrap
from accmv.mpm import ScoreSpec, sandwich_variance, solve_weighted_ee
from accmv.patterns import Pattern, PatternPair
from accmv.sensitivity import TiltSpec, sweep
from accmv.simgen import SimDesign, generate

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
], ids=["delta-text", "grid-none", "delta-scalar", "threshold-text", "coord-negative", "coord-text",
        "coord-float", "coords-scalar"])
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


@pytest.mark.parametrize("call", [
    lambda ds, s: fit_odds(ds, s, s.incomplete_pairs()[0], keep=(True,) * 9),
    lambda ds, s: fit_outcome(ds, s, s.incomplete_pairs()[0], Functional("coordinate", (0,)), keep=(False,)),
    lambda ds, s: bootstrap(ds, s, lambda d, x: 0.0, B=2.5),
    lambda ds, s: bootstrap(ds, s, lambda d, x: 0.0, B="4"),
    lambda ds, s: sweep(ds, s, fit_all_odds(ds, s), Functional("coordinate", (0,)),
                        TiltSpec(delta=(1.0,), grid=(0.0,)), B=3.0),
    lambda ds, s: sweep(ds, s, fit_all_odds(ds, s), Functional("coordinate", (0,)),
                        TiltSpec(delta=(1.0,), grid=(0.0,)), B=1),
    lambda ds, s: sweep(ds, s, fit_all_odds(ds, s), Functional("coordinate", (0,)),
                        TiltSpec(delta=(1.0,), grid=(0.0,)), B=-3),
], ids=["odds-keep-length", "outcome-keep-length", "bootstrap-B-float", "bootstrap-B-text", "sweep-B-float",
        "sweep-B-one", "sweep-B-negative"])
def test_named_bad_estimation_inputs(two_primaries, call):
    ds, strata = two_primaries
    with pytest.raises(ConfigError):
        call(ds, strata)


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
        attempt("ipw", lambda: estimate_ipw(ds, strata, odds, f, influence=True))
        attempt("sweep", lambda: sweep(ds, strata, odds, f, TiltSpec(delta=(0.5,), grid=(-1.0, 0.0, 1.0))))
        attempt("mpm", lambda: solve_weighted_ee(ds, strata, odds, spec))
        if "mpm" in got:
            attempt("sandwich", lambda: sandwich_variance(ds, strata, odds, spec, got["mpm"].theta_hat))
    if outcomes is not None:
        attempt("ra", lambda: estimate_ra(ds, strata, outcomes, f, influence=True))
        if odds is not None:
            attempt("mr", lambda: estimate_mr(ds, strata, odds, outcomes, f, influence=True))
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
