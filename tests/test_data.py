import csv
import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accmv import data
from accmv.data import Dataset, Functional, Schema, build_strata, load_csv, write_csv
from accmv.errors import AccmvError, ConfigError, DataError, ParseError, SchemaError
from accmv.estimators import estimate_mr
from accmv.glm import fit_all_odds, fit_all_outcomes
from accmv.patterns import Pattern
from accmv.simgen import SimDesign, generate


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
    # a line of delimiters is a record; an empty or whitespace-only line is not
    path = write(tmp_path, "\nX1,X2,L1,L2\n,,,\n\n \t\n1,2,3,4\n\n\n")
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
    path = write(tmp_path, "X1,X2,L1\n1,2,3\n\n  \n1,2,nan\n")
    with pytest.raises(ParseError, match=r"d\.csv:5: column 'L1': non-finite value 'nan'"):
        load_csv(path, SCHEMA21)


@pytest.mark.parametrize("text", ["X1,X2,L1\n", "X1,X2,L1\r\n\r\n \n"])
def test_header_only_file_has_no_data_rows(tmp_path, text):
    path = write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match="no data rows"):
            load_csv(path, SCHEMA21)


def test_file_name_selects_no_decompressor(tmp_path):
    # numpy opens "*.gz" paths through gzip; load_csv reads the file as text
    ds = load_csv(write(tmp_path, "X1,X2,L1\n1.2,,3.4\n", name="d.csv.gz"), SCHEMA21)
    assert ds.X[0, 0] == 1.2 and ds.L[0, 0] == 3.4


def test_schema_error(tmp_path):
    path = write(tmp_path, "A,B\n1,2\n")
    with pytest.raises(SchemaError, match="X1"):
        load_csv(path, SCHEMA21)


def test_repeated_header_name(tmp_path):
    # a schema column named twice is ambiguous; a repeated name the schema
    # does not use is not
    path = write(tmp_path, "X1,X1,X2,L1\n1,5,0,NA\n2,6,0,3\n")
    with pytest.raises(SchemaError, match="column 'X1' repeated in header"):
        load_csv(path, SCHEMA21)
    ds = load_csv(write(tmp_path, "X1,Z,X2,Z,L1\n1,5,0,x,NA\n2,6,0,,3\n"), SCHEMA21)
    assert ds.X.tolist() == [[1.0, 0.0], [2.0, 0.0]] and math.isnan(ds.L[0, 0]) and ds.L[1, 0] == 3.0


def test_cell_over_the_field_limit_fails_on_both_readers(tmp_path):
    # numpy's reader has no field limit of its own; the cell rule applies the
    # csv module's, so the file goes to the per-cell reader, which names it
    path = write(tmp_path, "X1,X2,L1\n1,2,3\n1,0." + "0" * 200000 + "1,NA\n")
    expected = ("ParseError", f"{path}: field larger than field limit ({csv.field_size_limit()})")
    assert load_outcome(path, per_cell=False) == load_outcome(path, per_cell=True) == expected


@pytest.mark.parametrize("text", ["X1,X2,L1,Z\n1,2,3,x\n1,2,NA,{}\n", "X1,X2,L1\n1,2,3,0.5\n1,2,NA,{}\n"],
                         ids=["unused-column", "beyond-the-header"])
def test_cell_over_the_field_limit_in_an_unused_column_fails_on_both_readers(tmp_path, text):
    # numpy's reader converts the schema's columns only; it reads the others
    # as their lengths, and a record wider than the header goes to the
    # per-cell reader, so the csv module's limit holds in every column
    path = write(tmp_path, text.format("0." + "0" * 200000 + "1"))
    expected = ("ParseError", f"{path}: field larger than field limit ({csv.field_size_limit()})")
    assert load_outcome(path, per_cell=False) == load_outcome(path, per_cell=True) == expected


def test_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/never.csv", SCHEMA21)


def assert_roundtrip(path, ds):
    """load_csv(write_csv(ds)) gives back bit-identical arrays, read by numpy's tokenizer."""
    write_csv(path, ds)
    fast = []
    loadtxt = data._loadtxt
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_loadtxt", lambda *args: fast.append(loadtxt(*args)) or fast[-1])
        back = load_csv(path, Schema(ds.x_names, ds.l_names))
    assert fast[0] is not None
    assert ds.X.tobytes() == back.X.tobytes()
    assert ds.L.tobytes() == back.L.tobytes()
    np.testing.assert_array_equal(ds.r_codes, back.r_codes)
    np.testing.assert_array_equal(ds.a_codes, back.a_codes)


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 2))
    L = rng.standard_normal((40, 2))
    X[rng.random((40, 2)) < 0.4] = np.nan
    L[rng.random((40, 2)) < 0.4] = np.nan
    assert_roundtrip(tmp_path / "out.csv", Dataset(X, L))


@pytest.mark.parametrize("design", ["single", "multiple", "mpm"])
def test_roundtrip_of_simulated_data(tmp_path, design):
    assert_roundtrip(tmp_path / "out.csv", generate(SimDesign(design, 3000, 17)))


def test_write_csv_bytes(tmp_path):
    X = np.array([[np.nan, -0.0], [1e-300, 0.30000000000000004], [2.0, np.nan]])
    L = np.array([[1 / 3, -123456789.12345679], [np.nan, np.nan], [5e-324, 1.7976931348623157e308]])
    path = tmp_path / "out.csv"
    write_csv(path, Dataset(X, L, ("X1", "dose, mg"), ("L1", "L2")))
    assert path.read_bytes() == (
        b'X1,"dose, mg",L1,L2\r\n'
        b",-0.0,0.3333333333333333,-123456789.12345679\r\n"
        b"1e-300,0.30000000000000004,,\r\n"
        b"2.0,,5e-324,1.7976931348623157e+308\r\n"
    )


def test_write_csv_block_boundaries(tmp_path, monkeypatch):
    # 45 rows, not a multiple of 7, with a missing cell first, in the middle
    # or last in three rows of four: every block size writes the same bytes,
    # and they read back bit-identically
    n = 45
    rng = np.random.default_rng(20)
    cells = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-8, 9, (n, 5))
    for i in range(n):
        if i % 4 < 3:
            cells[i, (0, 2, 4)[i % 4]] = np.nan
    ds = Dataset(cells[:, :2], cells[:, 2:])
    written = []
    for block in (1, 7, data._WRITE_BLOCK):
        monkeypatch.setattr(data, "_WRITE_BLOCK", block)
        assert_roundtrip(tmp_path / f"block{block}.csv", ds)
        written.append((tmp_path / f"block{block}.csv").read_bytes())
    assert written[0] == written[1] == written[2]
    assert written[0].count(b"\r\n") == 1 + n


def load_from_a_pipe(tmp_path, raw, schema, name="pipe"):
    """`load_csv` of the bytes `raw` as another thread writes them into a named pipe."""
    fifo = tmp_path / name
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(raw))
    writer.start()
    try:
        back = load_csv(fifo, schema)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    return back


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_from_a_pipe(tmp_path):
    # a pipe cannot be reopened, so it is read record by record
    ds = generate(SimDesign("single", 2000, 3))
    path = tmp_path / "d.csv"
    write_csv(path, ds)
    back = load_from_a_pipe(tmp_path, path.read_bytes(), Schema(ds.x_names, ds.l_names))
    assert ds.X.tobytes() == back.X.tobytes() and ds.L.tobytes() == back.L.tobytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_byte_order_mark_before_the_header(tmp_path):
    """A file saved with a UTF-8 byte-order mark, as spreadsheet programs
    write "CSV UTF-8", reads as the file without it and fits to the same
    estimate, through numpy's reader and through the record reader of a
    pipe, also where the header names are quoted."""
    ds = generate(SimDesign("single", 2000, 3))
    schema = Schema(ds.x_names, ds.l_names)
    path = tmp_path / "d.csv"
    write_csv(path, ds)
    header, body = path.read_bytes().split(b"\r\n", 1)
    quoted = b",".join(b'"' + name + b'"' for name in header.split(b","))
    f = Functional("coordinate", (0,))

    def estimate(d):
        strata = build_strata(d)
        return estimate_mr(d, strata, fit_all_odds(d, strata), fit_all_outcomes(d, strata, f), f).theta_hat

    want = estimate(ds)
    for i, head in enumerate((header, quoted)):
        raw = b"\xef\xbb\xbf" + head + b"\r\n" + body
        assert raw.decode("utf-8").startswith("\ufeff")
        marked = tmp_path / f"bom{i}.csv"
        marked.write_bytes(raw)
        for back in (load_csv(marked, schema), load_from_a_pipe(tmp_path, raw, schema, f"pipe{i}")):
            assert ds.X.tobytes() == back.X.tobytes() and ds.L.tobytes() == back.L.tobytes()
            assert estimate(back) == want


GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["", "NA", " 3 ", "1_0", "-0.0", "1e-300"]),
)
BAD_CELLS = st.sampled_from(["nan", "NaN", "inf", "-inf", "0x1p3", "1,5"])


@st.composite
def csv_cells(draw):
    """One cell as it appears in the file; most of them parse."""
    cell = draw(st.sampled_from([GOOD_CELLS] * 19 + [BAD_CELLS]).flatmap(lambda cells: cells))
    how = draw(st.sampled_from(["plain"] * 18 + ["quoted", "stray quote"]))
    if how == "quoted":
        return '"' + cell.replace('"', '""') + '"'
    if how == "stray quote":
        at = draw(st.integers(0, len(cell)))
        return cell[:at] + '"' + cell[at:]
    return cell


@st.composite
def csv_texts(draw):
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    blank = st.sampled_from(["", " ", "\t", "  \t"])
    lines = draw(st.lists(blank, max_size=2))   # blank lines before the header too
    # a header may quote its names or span two lines
    lines.append(draw(st.sampled_from(["X1,X2,L1", '"X1",X2, L1 ', f'X1,X2,L1,"two{end}lines"'])))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.sampled_from([True] * 5 + [False])):     # rows of 3, short rows and long rows
            width = draw(st.sampled_from([3] * 8 + [1, 2, 4, 5]))
            lines.append(",".join(draw(csv_cells()) for _ in range(width)))
        else:
            lines.append(draw(blank))
    return end.join(lines) + draw(st.sampled_from(["", end, end + end]))


def load_outcome(path, per_cell):
    """Bits of the arrays `load_csv` returns, or the type and text of its error."""
    with pytest.MonkeyPatch.context() as mp:
        if per_cell:
            mp.setattr(data, "_loadtxt", lambda *args: None)
        try:
            ds = load_csv(path, SCHEMA21)
        except AccmvError as e:
            return type(e).__name__, str(e)
    return ds.X.shape, ds.X.tobytes(), ds.L.tobytes()


# derandomized, so every run tries the same 400 files
@settings(max_examples=400, deadline=None, derandomize=True)
@given(csv_texts())
def test_fast_and_per_cell_readers_agree(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("diff") / "d.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    assert load_outcome(path, per_cell=False) == load_outcome(path, per_cell=True)


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


def test_an_index_holds_the_dataset_it_was_built_from(single_20k):
    ds, strata = single_20k
    assert build_strata(ds).ds is ds and strata.ds is ds
    assert strata.reweight(np.ones(ds.n)).ds is ds
    for copied in ("p", "d", "n", "r_codes", "complete_code"):      # read from the dataset, not copied
        assert not hasattr(strata, copied)


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


def test_dataset_blocks_are_2d_arrays_of_numbers():
    with pytest.raises(ConfigError, match="2-D"):
        Dataset(np.zeros((3, 1, 1)), np.ones((3, 1)))
    with pytest.raises(ConfigError, match="2-D"):
        Dataset(np.zeros((3, 1)), np.ones((3, 1, 2)))
    for X, L in (([["a"]], [[1.0]]), ([[1.0]], [[1j]]), (np.array([[1 + 1j]]), [[1.0]]),
                 ([[1.0, 2.0], [3.0]], [[1.0], [2.0]]), ([[1.0]], [[10**400]])):
        with pytest.raises(DataError, match="real numbers"):
            Dataset(X, L)
    ds = Dataset([1.0, np.nan], [[2.0]])       # a vector is one record, as before
    assert (ds.n, ds.p, ds.d) == (1, 2, 1)


def test_dataset_names_are_one_string_per_column():
    X, L = np.ones((3, 2)), np.ones((3, 1))
    for x_names, l_names in ((("a",), None), (("a", "b", "c"), None), ("ab", None), (["a", "b"], None),
                             (("a", 1), None), (None, ()), (None, ("l", "m")), (None, "l")):
        with pytest.raises(ConfigError, match="one per column"):
            Dataset(X, L, x_names, l_names)
    ds = Dataset(X, L, ("a", "b"), ("l",))
    assert (ds.x_names, ds.l_names) == (("a", "b"), ("l",))
    assert (Dataset(X, L).x_names, Dataset(X, L).l_names) == (("X1", "X2"), ("L1",))


def test_schema_roles_are_tuples_of_strings(tmp_path):
    for args in ((("Y1", "Y2"), ("Y3",), "NA"), ("Y1", ("Y3",)), (("Y1",), "Y3"), (["Y1"], ("Y3",)),
                 (("Y1", 2), ("Y3",)), (("Y1",), ("Y3",), ("", None))):
        with pytest.raises(ConfigError, match="tuple of strings"):
            Schema(*args)
    # empty cells and NA stay missing under the default tokens
    ds = load_csv(write(tmp_path, "Y1,Y2,Y3\n1,,NA\n2,3,\n"), Schema(("Y1", "Y2"), ("Y3",)))
    assert np.isnan(ds.X[0, 1]) and np.isnan(ds.L[:, 0]).all()


def test_record_patterns():
    ds = eight_record_fixture()
    strata = build_strata(ds)
    (pr,) = [pr for pr in strata.pairs() if 4 in strata.stratum(pr)]
    assert str(pr.r) == "00" and str(pr.a) == "1"
