"""Dataset ingestion, pattern derivation, stratum bookkeeping, and target
functionals.

Internally a dataset is a pair of float matrices (auxiliary X, primary L) with
NaN marking missing cells, plus integer pattern codes derived from the NaN
masks.  The stratum index groups record positions by exact pattern pair and
materializes, for each auxiliary pattern r, the pool of records with all
primary variables observed and at least the same auxiliaries observed.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ParseError, SchemaError
from .patterns import Pattern, PatternPair, dominating

MAX_TOTAL_DIM = 12
DEFAULT_MISSING_TOKENS = ("", "NA")
_WRITE_BLOCK = 1 << 10        # rows held as Python floats at a time by write_csv


@dataclass
class Schema:
    """Column roles for CSV ingestion, each a tuple of strings."""

    x_cols: tuple[str, ...]
    l_cols: tuple[str, ...]
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS

    def __post_init__(self):
        for name in ("x_cols", "l_cols", "missing_tokens"):
            check_names(name, getattr(self, name))
        roles = (*self.x_cols, *self.l_cols)
        repeated = sorted({c for c in roles if roles.count(c) > 1})
        if repeated:
            raise ConfigError(
                f"column(s) {repeated} listed more than once across the auxiliary and primary roles; "
                "each CSV column takes one role"
            )


class Dataset:
    """Immutable-by-convention container of n records with p auxiliary and d
    primary coordinates.  Missing entries are NaN.  `x_names` and `l_names`
    default to X1.. and L1..; given, each is a tuple of one string per column."""

    def __init__(self, X, L, x_names=None, l_names=None):
        X, L = _block("X", X), _block("L", L)
        if X.shape[0] != L.shape[0]:
            raise ConfigError(f"X has {X.shape[0]} rows but L has {L.shape[0]}")
        if X.shape[0] < 1:
            raise ConfigError("dataset must contain at least one record")
        p, d = X.shape[1], L.shape[1]
        if p < 1 or d < 1:
            raise ConfigError("need at least one auxiliary and one primary column")
        if p + d > MAX_TOTAL_DIM:
            raise ConfigError(
                f"p + d = {p + d} exceeds the cap of {MAX_TOTAL_DIM}; "
                "pattern-stratified models need few variables"
            )
        for block, M in (("X", X), ("L", L)):
            if np.isinf(M).any():
                i, j = np.argwhere(np.isinf(M))[0]
                raise DataError(
                    f"{block}[{i}, {j}] is {M[i, j]}: values must be finite, with NaN marking missing cells"
                )
        self.X = X
        self.L = L
        self.n = X.shape[0]
        self.p = p
        self.d = d
        self.x_names = tuple(f"X{j+1}" for j in range(p)) if x_names is None else check_names("x_names", x_names, p)
        self.l_names = tuple(f"L{j+1}" for j in range(d)) if l_names is None else check_names("l_names", l_names, d)
        # pattern codes, coordinate 1 = most significant bit
        self.r_codes = _mask_codes(~np.isnan(X))
        self.a_codes = _mask_codes(~np.isnan(L))
        self.complete_code = (1 << d) - 1

    @property
    def complete_mask(self) -> np.ndarray:
        return self.a_codes == self.complete_code

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=int)
        return Dataset(self.X[rows], self.L[rows], self.x_names, self.l_names)


def _block(name, M) -> np.ndarray:
    """`M` as a 2-D float array, a vector as one row; DataError for values
    that are not numbers, ConfigError for more than two dimensions."""
    try:
        M = np.asarray(M)
        if M.dtype.kind == "c":         # a cast to float would drop the imaginary parts
            raise TypeError
        M = np.atleast_2d(M.astype(float, copy=False))
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{name} must be a rectangular block of real numbers, with NaN marking missing cells") from None
    if M.ndim != 2:
        raise ConfigError(f"{name} must be records by coordinates, a 2-D array, got shape {M.shape}")
    return M


def _mask_codes(mask: np.ndarray) -> np.ndarray:
    """Pattern code of each row; p + d <= MAX_TOTAL_DIM keeps a code within 11 bits."""
    k = mask.shape[1]
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.uint16)
    return (mask * weights).sum(axis=1, dtype=np.uint16)


def load_csv(path, schema: Schema) -> Dataset:
    """Read a headered CSV into a Dataset.

    Missing tokens (case-sensitive, whitespace-stripped) become NaN.  Any
    other cell must parse as a finite real.  A line that is empty or holds
    only whitespace is not a record.  numpy's tokenizer reads a regular
    file; a file it rejects, or input that cannot be opened twice, such as
    a pipe, is read record by record, so that an error names its line,
    column and cell.  A UTF-8 byte-order mark before the header is dropped.
    """
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        # a UTF-8 byte-order mark, which "CSV UTF-8" files begin with, is not part of the header
        reader = csv.reader(itertools.chain((line.removeprefix("\ufeff") for line in itertools.islice(fh, 1)), fh))
        rows = _rows(reader, path)
        try:
            _, header = next(rows)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for name in (*schema.x_cols, *schema.l_cols):
            if header.count(name) != 1:
                raise SchemaError(f"{path}: column {name!r} {'repeated in' if name in header else 'not found in'} "
                                  f"header {header}")
        cols = [header.index(c) for c in (*schema.x_cols, *schema.l_cols)]
        parse = _cell_parser(set(schema.missing_tokens))
        XL = _loadtxt(path, reader.line_num, cols, len(header), parse) if fh.seekable() else None
        if XL is None:
            XL = np.array([_parse_cells(row, cols, header, parse, path, line) for line, row in rows])
    if not len(XL):
        raise SchemaError(f"{path}: no data rows")
    p = len(schema.x_cols)
    X, L = XL[:, :p].copy(), XL[:, p:].copy()
    del XL                              # freed before the Dataset's checks allocate more
    return Dataset(X, L, schema.x_cols, schema.l_cols)


def _cell_parser(tokens):
    """The cell rule of both readers: strip; a missing token is NaN, else a
    finite float.  A cell over the csv module's field limit raises, as
    `csv.reader` does, so numpy's reader leaves such a file to `_rows`."""
    limit, nan, isfinite = csv.field_size_limit(), math.nan, math.isfinite

    def parse(s):
        if len(s) > limit:
            raise ValueError(f"field larger than field limit ({limit})")
        s = s.strip()
        if s in tokens:
            return nan
        try:
            v = float(s)
        except ValueError:
            raise ValueError(f"cannot parse {s!r}") from None
        if not isfinite(v):             # else the text "nan" would pass as a missing cell
            raise ValueError(f"non-finite value {s!r}")
        return v

    return parse


def _loadtxt(path, skip, cols, ncols, parse):
    """The cells at `cols` of the lines after the first `skip`, each read by
    `parse`, or None when numpy's reader or `parse` rejects the file, numpy
    finds no record in it, or a record has other than `ncols` fields.  The
    other columns are read as their lengths, so a cell there over the csv
    field limit also leaves the file to `_rows`, which rejects it."""
    with open(path, newline="") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            XL = np.loadtxt(fh, delimiter=",", skiprows=skip, ndmin=2, comments=None, quotechar='"',
                            converters={j: parse if j in cols else len for j in range(ncols)})
        except ValueError:              # UnicodeDecodeError included
            return None
    if not len(XL) or XL.shape[1] != ncols or (np.delete(XL, cols, axis=1) > csv.field_size_limit()).any():
        return None
    return XL.take(cols, axis=1)


def _rows(reader, path):
    """(line, record) for each record of a CSV reader, numbering a record by
    the line it starts on.  An empty or whitespace-only line is skipped; a
    line that is not CSV or not text is a ParseError."""
    line = reader.line_num + 1
    try:
        for row in reader:
            if len(row) > 1 or (row and row[0].strip()):
                yield line, row
            line = reader.line_num + 1
    except (csv.Error, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}") from None


def _parse_cells(row, idx, header, parse, path, rownum):
    out = []
    for i in idx:
        try:
            out.append(parse(row[i] if i < len(row) else ""))
        except ValueError as e:
            raise ParseError(f"{path}:{rownum}: column {header[i]!r}: {e}") from None
    return out


def write_csv(path, ds: Dataset) -> None:
    """Inverse of load_csv: empty cells for missing entries, repr-exact floats."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([*ds.x_names, *ds.l_names])
        for i in range(0, ds.n, _WRITE_BLOCK):
            rows = np.hstack([ds.X[i:i + _WRITE_BLOCK], ds.L[i:i + _WRITE_BLOCK]]).tolist()
            # no repr of a finite float contains "nan" or needs quoting
            fh.writelines(",".join(map(repr, row)).replace("nan", "") + "\r\n" for row in rows)


@dataclass
class StratumIndex:
    """Record positions grouped by exact pattern pair, plus per-r pools.

    The pool for r is every record with all primaries observed and R >= r;
    it is what both nuisance-model families are fitted on, formed on first
    use.  `designs` caches the pair views built from these rows (see
    `glm.pair_view` and `glm.incomplete_views`), so they live as long as the index.

    `freq` counts each record that many times; None counts every record
    once.  `reweight` makes such an index of the same `ds` from a unit-frequency one.
    """

    ds: Dataset
    complete_mask: np.ndarray
    by_pair: dict = field(default_factory=dict)   # (r_code, a_code) -> index array
    pools: dict = field(default_factory=dict)     # r_code -> index array
    freq: np.ndarray | None = field(default=None, repr=False, compare=False)
    parent: "StratumIndex | None" = field(default=None, repr=False, compare=False)
    designs: object = field(default=None, repr=False, compare=False)
    _pairs: list | None = field(default=None, repr=False, compare=False)

    def check_dataset(self, ds: Dataset) -> None:
        """Raise ConfigError unless `ds` is the dataset this index was built from."""
        if ds is not self.ds:
            raise ConfigError("a stratum index serves only the dataset it was built from; see build_strata")

    def stratum(self, pair: PatternPair) -> np.ndarray:
        return self.by_pair.get(pair.key, np.empty(0, dtype=int))

    def pool(self, r: Pattern) -> np.ndarray:
        if r.value not in self.pools:
            self.pools[r.value] = np.flatnonzero(self.complete_mask & dominating(self.ds.r_codes, r))
        return self.pools[r.value]

    def pairs(self) -> list[PatternPair]:
        """All pattern pairs present in the data, ascending (r, a) codes."""
        if self._pairs is None:       # by_pair is complete once build_strata returns
            self._pairs = [
                PatternPair(Pattern(rv, self.ds.p), Pattern(av, self.ds.d))
                for rv, av in sorted(self.by_pair)
            ]
        return list(self._pairs)

    def incomplete_pairs(self) -> list[PatternPair]:
        """Pairs with at least one primary missing: the ones needing models."""
        return [pr for pr in self.pairs() if pr.a.value != self.ds.complete_code]

    def weights(self, rows) -> np.ndarray:
        """Frequency of each record at `rows`."""
        return np.ones(len(rows)) if self.freq is None else self.freq[rows]

    def reweight(self, counts) -> "StratumIndex":
        """This index with record i counted `counts[i]` times.

        A case resample drawn as frequencies: strata keep their drawn
        records only, pairs with no drawn record disappear, a pool is formed
        on demand from the drawn complete records, and the pair views are
        row selections of this index's views.
        """
        if self.freq is not None:
            raise ConfigError("only a unit-frequency stratum index can be reweighted")
        freq = np.asarray(counts, dtype=float)
        if freq.shape != (self.ds.n,):
            raise ConfigError(f"need one frequency per record ({self.ds.n}), got shape {freq.shape}")
        if not (np.isfinite(freq) & (freq >= 0)).all():
            raise ConfigError("frequencies must be finite and non-negative")
        drawn = freq > 0
        by_pair = {}
        for key, rows in self.by_pair.items():
            kept = rows.compress(drawn[rows])      # faster than a boolean index, same rows
            if kept.size:
                by_pair[key] = kept
        return StratumIndex(
            ds=self.ds, complete_mask=self.complete_mask & drawn,
            by_pair=by_pair,
            freq=freq,
            parent=self,
            _pairs=[pr for pr in self.pairs() if pr.key in by_pair],
        )


def build_strata(ds: Dataset) -> StratumIndex:
    idx = StratumIndex(ds=ds, complete_mask=ds.complete_mask)
    order = np.lexsort((ds.a_codes, ds.r_codes))
    rc, ac = ds.r_codes[order], ds.a_codes[order]
    cut = np.flatnonzero((np.diff(rc) != 0) | (np.diff(ac) != 0)) + 1
    for grp in np.split(order, cut):
        idx.by_pair[(int(ds.r_codes[grp[0]]), int(ds.a_codes[grp[0]]))] = np.sort(grp)
    return idx


def check_integer(name, value, least=0) -> None:
    """Raise ConfigError unless `value` is an integer, not a bool, and at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def check_names(name, values, count=None) -> tuple[str, ...]:
    """`values`, after raising ConfigError unless it is a tuple of strings,
    `count` of them where given."""
    if not isinstance(values, tuple) or not all(isinstance(v, str) for v in values) or count not in (None, len(values)):
        need = "a tuple of strings" if count is None else f"a tuple of {count} strings, one per column"
        raise ConfigError(f"{name} must be {need}, got {values!r}")
    return values


def check_finite(name, values) -> None:
    """Raise ConfigError unless `values` is a sequence of finite numbers."""
    try:
        ok = np.ndim(values) == 1 and np.isfinite(np.asarray(values, dtype=float)).all()
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be finite numbers, got {values!r}")


_FUNCTIONAL_KINDS = ("coordinate", "mean", "product", "threshold", "custom")


@dataclass(frozen=True)
class Functional:
    """Scalar target f(L).  Coordinates are 0-based internally."""

    kind: str
    coords: tuple[int, ...] = ()
    thresholds: tuple[float, ...] = ()
    fn: object = None

    def __post_init__(self):
        if self.kind not in _FUNCTIONAL_KINDS:
            raise ConfigError(f"unknown functional kind {self.kind!r}")
        if not isinstance(self.coords, tuple):
            raise ConfigError(f"functional coordinates must be a tuple of 0-based integers, got {self.coords!r}")
        for c in self.coords:
            check_integer("a functional coordinate", c)
        check_finite("thresholds", self.thresholds)
        if self.kind == "coordinate" and len(self.coords) != 1:
            raise ConfigError("coordinate functional takes exactly one coordinate")
        if self.kind in ("mean", "product", "threshold") and not self.coords:
            raise ConfigError(f"{self.kind} functional needs coordinates")
        if self.kind == "threshold" and len(self.thresholds) != len(self.coords):
            raise ConfigError("threshold functional needs one threshold per coordinate")
        if self.kind == "custom" and self.fn is None:
            raise ConfigError("custom functional needs fn")

    def __call__(self, L) -> np.ndarray:
        """Evaluate on fully observed rows of L, shape (m, d) -> (m,).

        f acts row by row: each value depends on its own row of L only, so
        f on a subset of rows is the same subset of f on all of them.  A
        custom `fn` must keep to that and return one finite value per row.
        """
        L = np.atleast_2d(np.asarray(L, dtype=float))
        if np.isnan(L).any():
            raise DataError("functional evaluated at a row with missing primary coordinates")
        if self.coords and max(self.coords) >= L.shape[1]:
            raise DataError(f"functional coordinate {max(self.coords) + 1} out of range for d={L.shape[1]}")
        if self.kind == "coordinate":
            out = L[:, self.coords[0]]
        elif self.kind == "mean":
            out = L[:, list(self.coords)].mean(axis=1)
        elif self.kind == "product":
            out = L[:, list(self.coords)].prod(axis=1)
        elif self.kind == "threshold":
            t = np.asarray(self.thresholds, dtype=float)
            out = (L[:, list(self.coords)] <= t).all(axis=1).astype(float)
        else:
            out = np.asarray(self.fn(L), dtype=float)
        out = np.asarray(out, dtype=float)
        if out.shape != L.shape[:1]:
            raise DataError(f"functional returned shape {out.shape} for {L.shape[0]} rows, need one value per row")
        if not np.isfinite(out).all():
            raise DataError("functional produced a non-finite value")
        return out

    def describe(self) -> str:
        c = ",".join(str(j + 1) for j in self.coords)
        if self.kind == "coordinate":
            return f"L{self.coords[0] + 1}"
        if self.kind == "mean":
            return f"mean(L[{c}])"
        if self.kind == "product":
            return f"prod(L[{c}])"
        if self.kind == "threshold":
            t = ",".join(str(v) for v in self.thresholds)
            return f"P(L[{c}] <= [{t}])"
        return "custom"
