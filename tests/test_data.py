import math

import numpy as np
import pytest

from accmv.data import Dataset, Functional, Schema, build_strata, load_csv, write_csv
from accmv.errors import ConfigError, DataError, ParseError, SchemaError
from accmv.patterns import Pattern


def write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


SCHEMA21 = Schema(("X1", "X2"), ("L1",))


def test_load_csv_masks(tmp_path):
    path = write(tmp_path, "X1,X2,L1\n1.2,,3.4\n")
    ds = load_csv(path, SCHEMA21)
    assert ds.n == 1 and ds.p == 2 and ds.d == 1
    assert ds.r_codes[0] == 0b10 and ds.a_codes[0] == 1
    assert ds.X[0, 0] == 1.2 and math.isnan(ds.X[0, 1]) and ds.L[0, 0] == 3.4


def test_all_missing_row_retained(tmp_path):
    path = write(tmp_path, "X1,X2,L1,L2\n,,,\n1,2,3,4\n")
    ds = load_csv(path, Schema(("X1", "X2"), ("L1", "L2")))
    assert ds.n == 2
    assert ds.r_codes[0] == 0 and ds.a_codes[0] == 0


def test_na_token(tmp_path):
    path = write(tmp_path, "X1,X2,L1\nNA,2,NA\n")
    ds = load_csv(path, SCHEMA21)
    assert math.isnan(ds.X[0, 0]) and math.isnan(ds.L[0, 0]) and ds.X[0, 1] == 2.0


def test_parse_error_names_cell(tmp_path):
    path = write(tmp_path, "X1,X2,L1\n1,zap,3\n")
    with pytest.raises(ParseError, match="X2"):
        load_csv(path, SCHEMA21)


def test_schema_error(tmp_path):
    path = write(tmp_path, "A,B\n1,2\n")
    with pytest.raises(SchemaError, match="X1"):
        load_csv(path, SCHEMA21)


def test_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/never.csv", SCHEMA21)


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 2))
    L = rng.standard_normal((40, 2))
    X[rng.random((40, 2)) < 0.4] = np.nan
    L[rng.random((40, 2)) < 0.4] = np.nan
    ds = Dataset(X, L)
    path = tmp_path / "out.csv"
    write_csv(path, ds)
    back = load_csv(path, Schema(ds.x_names, ds.l_names))
    assert ds.X.tobytes() == back.X.tobytes()
    assert ds.L.tobytes() == back.L.tobytes()
    np.testing.assert_array_equal(ds.r_codes, back.r_codes)
    np.testing.assert_array_equal(ds.a_codes, back.a_codes)


def eight_record_fixture():
    # one record in each (A, R) cell for p=2, d=1
    X_rows, L_rows = [], []
    for a in (0, 1):
        for r in range(4):
            x = [1.0 if r & 0b10 else np.nan, 2.0 if r & 0b01 else np.nan]
            X_rows.append(x)
            L_rows.append([0.5] if a else [np.nan])
    return Dataset(np.array(X_rows), np.array(L_rows))


def test_build_strata_eight_records():
    ds = eight_record_fixture()
    strata = build_strata(ds)
    assert len(strata.by_pair) == 8
    assert all(v.size == 1 for v in strata.by_pair.values())
    assert strata.pool(Pattern(0, 2)).size == 4
    assert strata.pool(Pattern(3, 2)).size == 1
    assert sum(v.size for v in strata.by_pair.values()) == ds.n
    # pool for the empty auxiliary pattern is every complete-primary record
    np.testing.assert_array_equal(strata.pool(Pattern(0, 2)), np.flatnonzero(ds.complete_mask))


def test_build_strata_complete_data():
    ds = Dataset(np.ones((5, 2)), np.ones((5, 1)))
    strata = build_strata(ds)
    assert list(strata.by_pair) == [(3, 1)]
    assert strata.incomplete_pairs() == []


def test_empty_pool_recorded():
    # incomplete stratum at r=11 but no complete case has R >= 11
    X = np.array([[1.0, 1.0], [np.nan, np.nan]])
    L = np.array([[np.nan], [0.0]])
    strata = build_strata(Dataset(X, L))
    assert strata.pool(Pattern(3, 2)).size == 0


def test_strata_partition(single_20k):
    ds, strata = single_20k
    assert sum(v.size for v in strata.by_pair.values()) == ds.n


def test_functionals():
    def at(f, l):                     # f on one fully observed primary vector
        out = f(np.array([l]))
        assert out.shape == (1,)
        return out[0]

    assert at(Functional("threshold", (0, 1), (7.0, 7.0)), [6.5, 6.9]) == 1.0
    assert at(Functional("threshold", (0, 1), (7.0, 7.0)), [7.5, 6.9]) == 0.0
    assert at(Functional("mean", (0, 1)), [6.0, 8.0]) == 7.0
    assert at(Functional("product", (0, 1)), [2.0, 3.0]) == 6.0
    assert at(Functional("coordinate", (1,)), [2.0, 3.0]) == 3.0


def test_functional_missing_coordinate():
    with pytest.raises(DataError, match="missing"):
        Functional("mean", (0, 1))(np.array([[1.0, np.nan]]))


def test_functional_rejects_nonfinite():
    f = Functional("custom", fn=lambda L: np.full(L.shape[0], np.inf))
    with pytest.raises(DataError, match="non-finite"):
        f(np.array([[1.0]]))


def test_functional_validation():
    with pytest.raises(ConfigError):
        Functional("nope")
    with pytest.raises(ConfigError):
        Functional("threshold", (0, 1), (7.0,))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="finite"):
            Functional("threshold", (0, 1), (7.0, bad))


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
@pytest.mark.parametrize("block", ["X", "L"])
def test_dataset_rejects_infinite_cells(block, bad):
    X, L = np.ones((4, 2)), np.ones((4, 1))
    X[0, 1] = L[1, 0] = np.nan                  # missing cells stay allowed
    (X if block == "X" else L)[2, 0] = bad
    with pytest.raises(DataError, match=rf"{block}\[2, 0\].*finite"):
        Dataset(X, L)


def test_dimension_cap():
    # the cap on p + d, and the shapes a dataset cannot hold: row counts
    # that differ, no record, no auxiliary or no primary column
    for X, L, why in (
        (np.ones((2, 10)), np.ones((2, 3)), "exceeds the cap"),
        (np.ones((3, 1)), np.ones((2, 1)), "X has 3 rows but L has 2"),
        (np.ones((0, 1)), np.ones((0, 1)), "at least one record"),
        (np.ones((2, 0)), np.ones((2, 1)), "at least one auxiliary and one primary"),
        (np.ones((2, 1)), np.ones((2, 0)), "at least one auxiliary and one primary"),
    ):
        with pytest.raises(ConfigError, match=why):
            Dataset(X, L)


def test_record_patterns():
    ds = eight_record_fixture()
    strata = build_strata(ds)
    (pr,) = [pr for pr in strata.pairs() if 4 in strata.stratum(pr)]
    assert str(pr.r) == "00" and str(pr.a) == "1"
