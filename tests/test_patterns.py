import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from accmv.data import Dataset
from accmv.glm import design_matrix
from accmv.patterns import Pattern, PatternPair, all_patterns, dominated_set, dominates


def P(s):
    return Pattern.from_string(s)


def test_dominates_examples():
    assert dominates(P("1010"), P("1000"))
    assert not dominates(P("1010"), P("0100"))
    assert not dominates(P("0100"), P("1010"))
    for s in ("0", "1", "1010", "0110"):
        assert dominates(P(s), P(s))


def test_dominates_length_mismatch():
    with pytest.raises(ValueError):
        dominates(P("10"), P("100"))


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
    assert dominates(a, a)
    if dominates(a, b) and dominates(b, a):
        assert a == b
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


def test_dominated_set_examples():
    assert [str(q) for q in dominated_set(P("1010"))] == ["0000", "0010", "1000", "1010"]
    assert [str(q) for q in dominated_set(P("0000"))] == ["0000"]
    assert [str(q) for q in dominated_set(P("11"))] == ["00", "01", "10", "11"]


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
def test_dominated_set_exhaustive(length):
    for r in all_patterns(length):
        subs = dominated_set(r)
        assert len(subs) == 2**r.popcount
        assert len(set(subs)) == len(subs)
        values = [q.value for q in subs]
        assert values == sorted(values)
        in_set = set(subs)
        for tau in all_patterns(length):
            assert (tau in in_set) == dominates(r, tau)


def observed_part(v, r):
    """The r-observed coordinates of v, read through a one-record design."""
    ds = Dataset(np.atleast_2d(v), np.zeros((1, 1)))
    Z, _ = design_matrix(ds, [0], PatternPair(r, Pattern.empty(1)))
    return Z[0, 1:]


def test_extract():
    v = np.array([1.5, np.nan, 3.5, np.nan])
    np.testing.assert_array_equal(observed_part(v, P("1010")), [1.5, 3.5])
    assert observed_part(np.array([1.0, 2.0]), P("00")).size == 0
    np.testing.assert_array_equal(observed_part(np.array([1.0, 2.0, 3.0]), P("111")), [1.0, 2.0, 3.0])


def test_extract_unobserved_errors():
    with pytest.raises(ValueError):
        observed_part(np.array([1.0, np.nan]), P("11"))


def test_extract_identity_on_complete():
    v = np.array([0.1, -2.0, 7.0])
    np.testing.assert_array_equal(observed_part(v, Pattern.complete(3)), v)


def test_string_roundtrip_and_bits():
    pat = P("1010")
    assert str(pat) == "1010"
    assert pat.bits == (1, 0, 1, 0)
    assert pat.indices == (0, 2)
    assert pat.complement() == P("0101")


def test_bounds():
    with pytest.raises(ValueError):
        Pattern(0, 0)
    with pytest.raises(ValueError):
        Pattern(0, 17)
    with pytest.raises(ValueError):
        Pattern(4, 2)
    with pytest.raises(ValueError):
        Pattern.from_string("10x")


def test_bits_and_indices_derived_from_value():
    for length in range(1, 6):
        for pat in all_patterns(length):
            bits = tuple(int(c) for c in str(pat))
            assert pat.bits == bits
            assert pat.indices == tuple(j for j, b in enumerate(bits) if b)
            assert pat == Pattern(pat.value, length) and hash(pat) == hash(Pattern(pat.value, length))
