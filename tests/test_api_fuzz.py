"""Hypothesis fuzz of the Python API's input constructors: whatever a caller
passes to `TiltSpec` or `Functional`, the only error that escapes is an
`AccmvError` (a `ConfigError`), never a bare numpy `TypeError`, `ValueError`
or `IndexError`.  A functional whose coordinates reach past the primaries of
the data it is fitted on fails as a `DataError`.  Named bad arguments to the
fits and the resampling loops are a `ConfigError` too."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accmv.data import Functional, build_strata
from accmv.errors import AccmvError, ConfigError, DataError
from accmv.estimators import estimate_complete_case
from accmv.glm import fit_all_odds, fit_odds, fit_outcome
from accmv.inference import bootstrap
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
], ids=["odds-keep-length", "outcome-keep-length", "bootstrap-B-float", "bootstrap-B-text", "sweep-B-float"])
def test_named_bad_estimation_inputs(two_primaries, call):
    ds, strata = two_primaries
    with pytest.raises(ConfigError):
        call(ds, strata)
