import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from accmv.data import Dataset
from accmv.errors import ConfigError, DataError
from accmv.glm import design_matrix
from accmv.patterns import Pattern, PatternPair, dominating


def P(s):
    return Pattern(int(s, 2), len(s))


def all_patterns(length):
    return [Pattern(v, length) for v in range(1 << length)]


def dominates(r1, r2):
    """Reference: r1 observes every coordinate that r2 observes."""
    return set(r2.indices) <= set(r1.indices)


def test_dominates_examples():
    assert dominating(P("1010").value, P("1000"))
    assert not dominating(P("1010").value, P("0100"))
    assert not dominating(P("0100").value, P("1010"))
    for s in ("0", "1", "1010", "0110"):
        assert dominating(P(s).value, P(s))


@st.composite
def pattern_pairs(draw):
    length = draw(st.integers(1, 8))
    v1 = draw(st.integers(0, (1 << length) - 1))
    v2 = draw(st.integers(0, (1 << length) - 1))
    v3 = draw(st.integers(0, (1 << length) - 1))
    return Pattern(v1, length), Pattern(v2, length), Pattern(v3, length)


@given(pattern_pairs())
def test_partial_order_laws(triple):
    a, b, c = triple
    assert dominating(a.value, a)
    if dominating(a.value, b) and dominating(b.value, a):
        assert a == b
    if dominating(a.value, b) and dominating(b.value, c):
        assert dominating(a.value, c)


def dominated_by(r):
    """The patterns tau that r dominates, ascending by value."""
    return [tau for tau in all_patterns(r.length) if dominating(r.value, tau)]


def test_dominated_set_examples():
    assert [str(q) for q in dominated_by(P("1010"))] == ["0000", "0010", "1000", "1010"]
    assert [str(q) for q in dominated_by(P("0000"))] == ["0000"]
    assert [str(q) for q in dominated_by(P("11"))] == ["00", "01", "10", "11"]


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
def test_dominated_set_exhaustive(length):
    for r in all_patterns(length):
        subs = dominated_by(r)
        assert len(subs) == 2 ** len(r.indices)
        assert subs == [tau for tau in all_patterns(length) if dominates(r, tau)]


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
def test_dominating_exhaustive(length):
    codes = np.arange(1 << length)
    for r in all_patterns(length):
        mask = dominating(codes, r)
        assert mask.dtype == bool and mask.shape == codes.shape
        for tau in all_patterns(length):
            assert mask[tau.value] == dominates(tau, r)
            assert dominating(tau.value, r) == mask[tau.value]


def observed_part(v, r):
    """The r-observed coordinates of v, read through a one-record design."""
    ds = Dataset(np.atleast_2d(v), np.zeros((1, 1)))
    Z, _ = design_matrix(ds, [0], PatternPair(r, Pattern(0, 1)))
    return Z[0, 1:]


def test_extract():
    v = np.array([1.5, np.nan, 3.5, np.nan])
    np.testing.assert_array_equal(observed_part(v, P("1010")), [1.5, 3.5])
    assert observed_part(np.array([1.0, 2.0]), P("00")).size == 0
    np.testing.assert_array_equal(observed_part(np.array([1.0, 2.0, 3.0]), P("111")), [1.0, 2.0, 3.0])


def test_extract_unobserved_errors():
    with pytest.raises(DataError):
        observed_part(np.array([1.0, np.nan]), P("11"))


def test_extract_identity_on_complete():
    v = np.array([0.1, -2.0, 7.0])
    np.testing.assert_array_equal(observed_part(v, P("111")), v)


def test_string_roundtrip_and_bits():
    pat = P("1010")
    assert str(pat) == "1010"
    assert pat.bits == (1, 0, 1, 0)
    assert pat.indices == (0, 2)


def test_bounds():
    with pytest.raises(ConfigError):
        Pattern(0, 0)
    with pytest.raises(ConfigError):
        Pattern(0, 17)
    with pytest.raises(ConfigError):
        Pattern(4, 2)


def test_bits_and_indices_derived_from_value():
    for length in range(1, 6):
        for pat in all_patterns(length):
            bits = tuple(int(c) for c in str(pat))
            assert pat.bits == bits
            assert pat.indices == tuple(j for j, b in enumerate(bits) if b)
            assert pat == Pattern(pat.value, length) and hash(pat) == hash(Pattern(pat.value, length))
