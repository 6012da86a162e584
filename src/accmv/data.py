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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ParseError, SchemaError
from .patterns import Pattern, PatternPair

MAX_TOTAL_DIM = 12
DEFAULT_MISSING_TOKENS = ("", "NA")


@dataclass
class Schema:
    """Column roles for CSV ingestion."""

    x_cols: tuple[str, ...]
    l_cols: tuple[str, ...]
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS

    def __post_init__(self):
        roles = (*self.x_cols, *self.l_cols)
        repeated = sorted({c for c in roles if roles.count(c) > 1})
        if repeated:
            raise ConfigError(
                f"column(s) {repeated} listed more than once across the auxiliary and primary roles; "
                "each CSV column takes one role"
            )


class Dataset:
    """Immutable-by-convention container of n records with p auxiliary and d
    primary coordinates.  Missing entries are NaN."""

    def __init__(self, X, L, x_names=None, l_names=None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        L = np.atleast_2d(np.asarray(L, dtype=float))
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
        self.x_names = tuple(x_names) if x_names else tuple(f"X{j+1}" for j in range(p))
        self.l_names = tuple(l_names) if l_names else tuple(f"L{j+1}" for j in range(d))
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


def _mask_codes(mask: np.ndarray) -> np.ndarray:
    k = mask.shape[1]
    weights = 1 << np.arange(k - 1, -1, -1)
    return (mask.astype(np.int64) * weights).sum(axis=1)


def load_csv(path, schema: Schema) -> Dataset:
    """Read a headered CSV into a Dataset, deriving masks cell by cell.

    Missing tokens (case-sensitive, whitespace-stripped) become NaN.  Any
    other cell must parse as a finite real.
    """
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        pos = {name: i for i, name in enumerate(header)}
        for name in (*schema.x_cols, *schema.l_cols):
            if name not in pos:
                raise SchemaError(f"{path}: column {name!r} not found in header {header}")
        x_idx = [pos[c] for c in schema.x_cols]
        l_idx = [pos[c] for c in schema.l_cols]
        tokens = set(schema.missing_tokens)

        X_rows, L_rows = [], []
        for rownum, row in enumerate(reader, start=2):
            X_rows.append(_parse_cells(row, x_idx, header, tokens, path, rownum))
            L_rows.append(_parse_cells(row, l_idx, header, tokens, path, rownum))
    if not X_rows:
        raise SchemaError(f"{path}: no data rows")
    return Dataset(np.array(X_rows), np.array(L_rows), schema.x_cols, schema.l_cols)


def _parse_cells(row, idx, header, tokens, path, rownum):
    out = []
    for i in idx:
        cell = row[i].strip() if i < len(row) else ""
        if cell in tokens:
            out.append(math.nan)
            continue
        try:
            v = float(cell)
        except ValueError:
            raise ParseError(f"{path}:{rownum}: column {header[i]!r}: cannot parse {cell!r}") from None
        if not math.isfinite(v):
            raise ParseError(f"{path}:{rownum}: column {header[i]!r}: non-finite value {cell!r}")
        out.append(v)
    return out


def write_csv(path, ds: Dataset, missing_token: str = "") -> None:
    """Inverse of load_csv: empty cells for missing entries, repr-exact floats."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([*ds.x_names, *ds.l_names])
        for i in range(ds.n):
            row = []
            for v in (*ds.X[i], *ds.L[i]):
                row.append(missing_token if math.isnan(v) else repr(float(v)))
            w.writerow(row)


@dataclass
class StratumIndex:
    """Record positions grouped by exact pattern pair, plus per-r pools.

    The pool for r is every record with all primaries observed and R >= r;
    it is what both nuisance-model families are fitted on.  Pools for the
    patterns appearing with incomplete primaries are materialized eagerly,
    others on demand.  `designs` caches the model designs built from these
    rows (see `glm.pair_view`), so they live exactly as long as the index.

    `freq` counts each record that many times; None counts every record
    once.  `reweight` makes such an index from a unit-frequency one.
    """

    p: int
    d: int
    n: int
    r_codes: np.ndarray
    complete_mask: np.ndarray
    by_pair: dict = field(default_factory=dict)   # (r_code, a_code) -> index array
    pools: dict = field(default_factory=dict)     # r_code -> index array
    complete_code: int = 0
    freq: np.ndarray | None = field(default=None, repr=False, compare=False)
    parent: "StratumIndex | None" = field(default=None, repr=False, compare=False)
    designs: object = field(default=None, repr=False, compare=False)
    _pairs: list | None = field(default=None, repr=False, compare=False)

    def stratum(self, pair: PatternPair) -> np.ndarray:
        return self.by_pair.get(pair.key, np.empty(0, dtype=int))

    def pool(self, r: Pattern) -> np.ndarray:
        if r.value not in self.pools:
            self.pools[r.value] = np.flatnonzero(
                self.complete_mask & ((self.r_codes & r.value) == r.value)
            )
        return self.pools[r.value]

    def pairs(self) -> list[PatternPair]:
        """All pattern pairs present in the data, ascending (r, a) codes."""
        if self._pairs is None:       # by_pair is complete once build_strata returns
            self._pairs = [
                PatternPair(Pattern(rv, self.p), Pattern(av, self.d))
                for rv, av in sorted(self.by_pair)
            ]
        return list(self._pairs)

    def incomplete_pairs(self) -> list[PatternPair]:
        """Pairs with at least one primary missing: the ones needing models."""
        return [pr for pr in self.pairs() if pr.a.value != self.complete_code]

    def weights(self, rows) -> np.ndarray:
        """Frequency of each record at `rows`."""
        return np.ones(len(rows)) if self.freq is None else self.freq[rows]

    def count(self, rows) -> int:
        """Number of records at `rows`, each counted by its frequency."""
        return len(rows) if self.freq is None else int(self.freq[rows].sum())

    def reweight(self, counts) -> "StratumIndex":
        """This index with record i counted `counts[i]` times.

        A case resample drawn as frequencies: strata and pools keep their
        drawn records only, pairs with no drawn record disappear, and the
        pair designs are row selections of this index's cached designs.
        """
        if self.freq is not None:
            raise ConfigError("only a unit-frequency stratum index can be reweighted")
        freq = np.asarray(counts, dtype=float)
        if freq.shape != (self.n,):
            raise ConfigError(f"need one frequency per record ({self.n}), got shape {freq.shape}")
        drawn = freq > 0
        by_pair = {}
        for key, rows in self.by_pair.items():
            kept = rows[drawn[rows]]
            if kept.size:
                by_pair[key] = kept
        return StratumIndex(
            p=self.p, d=self.d, n=self.n,
            r_codes=self.r_codes, complete_mask=self.complete_mask & drawn,
            by_pair=by_pair,
            pools={rv: rows[drawn[rows]] for rv, rows in self.pools.items()},
            complete_code=self.complete_code,
            freq=freq,
            parent=self,
            _pairs=[pr for pr in self.pairs() if pr.key in by_pair],
        )


def build_strata(ds: Dataset) -> StratumIndex:
    idx = StratumIndex(
        p=ds.p, d=ds.d, n=ds.n,
        r_codes=ds.r_codes, complete_mask=ds.complete_mask,
        complete_code=ds.complete_code,
    )
    order = np.lexsort((ds.a_codes, ds.r_codes))
    rc, ac = ds.r_codes[order], ds.a_codes[order]
    cut = np.flatnonzero((np.diff(rc) != 0) | (np.diff(ac) != 0)) + 1
    for grp in np.split(order, cut):
        idx.by_pair[(int(ds.r_codes[grp[0]]), int(ds.a_codes[grp[0]]))] = np.sort(grp)
    for rv in {rv for rv, av in idx.by_pair if av != ds.complete_code}:
        idx.pool(Pattern(rv, ds.p))
    return idx


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
        if self.kind == "coordinate" and len(self.coords) != 1:
            raise ConfigError("coordinate functional takes exactly one coordinate")
        if self.kind in ("mean", "product", "threshold") and not self.coords:
            raise ConfigError(f"{self.kind} functional needs coordinates")
        if self.kind == "threshold" and len(self.thresholds) != len(self.coords):
            raise ConfigError("threshold functional needs one threshold per coordinate")
        if self.kind == "custom" and self.fn is None:
            raise ConfigError("custom functional needs fn")

    def __call__(self, L) -> np.ndarray:
        """Evaluate on fully observed rows of L, shape (m, d) -> (m,)."""
        L = np.atleast_2d(np.asarray(L, dtype=float))
        if np.isnan(L).any():
            raise ValueError("functional evaluated at a row with missing primary coordinates")
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
        if not np.isfinite(out).all():
            raise ValueError("functional produced a non-finite value")
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
