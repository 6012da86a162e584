"""Per-pattern nuisance models.

Two families, both on the design (1, x_r, l_a):

* logistic odds models  O(x_r, l_a) = exp(alpha . (1, x_r, l_a)), fitted by
  comparing the case stratum (R = r, A = a) against its pool (R >= r, A all
  observed) with Newton-Raphson on the exact binary log-likelihood, started
  at the intercept-only fit (or, on a resample, next to the full-data fit);
* linear outcome regressions m(x_r, l_a) = beta . (1, x_r, l_a), fitted by
  least squares on the pool.

Every sum over records counts each record by its frequency in the stratum
index (one each unless the index was reweighted for a resample).

Both retain the normalizing matrices needed to evaluate per-record influence
contributions of the estimated coefficients.  The designs of each pattern
pair are built once per stratum index and shared through `pair_view` and
`incomplete_views`.  A fit holds its view and design and is read only there,
as `estimators._require_models` checks once per call.  Only `complete_values`
evaluates f and only `read_outcome` reads an outcome model; a model keeps
only the estimators' pair terms (see `estimators._walk`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import Dataset, Functional, StratumIndex, check_integer
from .errors import (
    ConfigError,
    DataError,
    NonConvergenceError,
    PositivityError,
    SeparationError,
    SingularityError,
    SmallStratumError,
)
from .patterns import PatternPair

LINPRED_CLAMP = 30.0
SCORE_TOL = 1e-8
MAX_ITER = 100
DEFAULT_N_MIN = 10


def design_matrix(ds: Dataset, rows, pair: PatternPair, keep=None):
    """Design (1, x_r, l_a) for the given record positions, one row each,
    as the transpose of a C-contiguous block that holds each column in a row.

    `keep` optionally masks non-intercept columns; the intercept always stays.
    A pattern or `keep` of the wrong length raises ConfigError, an unobserved covariate DataError.
    """
    _check_pair(ds, pair, keep)
    rows = np.asarray(rows, dtype=int)
    cols = [(ds.X, j, ds.x_names[j]) for j in pair.r.indices] + [(ds.L, j, ds.l_names[j]) for j in pair.a.indices]
    if keep is not None:
        cols = [c for c, k in zip(cols, keep) if k]
    block = np.empty((1 + len(cols), rows.size))
    block[0] = 1.0
    for out, (M, j, _) in zip(block[1:], cols):
        out[:] = M[rows, j]
    if np.isnan(block).any():
        raise DataError(f"unobserved covariate in design for {pair}")
    return block.T, ("intercept", *(name for *_, name in cols))


class KeptDesign(NamedTuple):
    """Design (1, x_r, l_a) of one pattern pair under one keep mask."""

    stacked: np.ndarray              # case rows over pool rows, as in PairView.rows
    case: np.ndarray
    pool: np.ndarray
    names: tuple[str, ...]


class PairView:
    """Case stratum and pool of one pattern pair with their designs.

    `rows` stacks the case rows over the pool rows, `y` labels them 1/0 and
    `w` holds their frequencies; `case` and `pool`, `w_case` and `w_pool`
    are their slices.  `y`, and `w` at unit frequencies, are read-only
    slices of the buffers that the stratum index's views share (see
    `_DesignCache`).  The design of each keep mask is built on
    first use with `design_matrix` on `rows`, or taken as a row selection of
    the `base` view's design; its case and pool parts are row slices of it.
    Each is stored feature-major, as the transpose of a C-contiguous (k, m)
    block, so the products the fits form on it read contiguous memory.
    The fits, estimators and influence functions all read these shared
    designs.  A unit-frequency view also keeps, per keep mask, the odds
    coefficients and exp(eta) that `fit_odds` converged to on it, from which
    the fits on its reweighted views take their one-step start (see `_start`).
    """

    def __init__(self, ds: Dataset, rows: np.ndarray, n_case: int, pair: PatternPair,
                 buffers, w=None, base=None):
        self.ds = ds
        self.pair = pair
        c, labels, self._ones = self._buffers = buffers
        self.rows = rows
        self.w = self._ones[:rows.size] if w is None else w
        for a in (self.rows, self.w):
            a.flags.writeable = False    # and so are their case and pool slices
        self.case, self.pool = rows[:n_case], rows[n_case:]
        self.y = labels[c - n_case:c + self.pool.size]
        self.w_case, self.w_pool = self.w[:n_case], self.w[n_case:]
        self._base = base            # (view, row positions) whose designs this view selects from
        self._kept = {}
        self._fits = {}              # keep key -> (alpha, exp(eta)), then (alpha, info inverse or None, y - p)

    def reweighted(self, freq: np.ndarray) -> "PairView":
        """The rows of this view drawn by the per-record frequencies `freq`."""
        w = freq[self.rows]
        pos = np.flatnonzero(w > 0)      # drawn positions: a take by index beats a boolean mask
        return PairView(self.ds, self.rows.take(pos), np.searchsorted(pos, self.case.size), self.pair,
                        self._buffers, w=w.take(pos), base=(self, pos))

    def drawn_from(self) -> tuple["PairView", np.ndarray]:
        """The unit-frequency view whose rows this view holds, and the
        positions of this view's pool rows in that view's pool."""
        if self._base is None:
            return self, np.arange(self.pool.size)
        view, pos = self._base
        return view, pos[self.case.size:] - view.case.size

    def design(self, keep=None) -> KeptDesign:
        """Designs restricted to the non-intercept columns `keep` (a fit's `keep`, or any mask) marks."""
        key = keep if keep is None or type(keep) is tuple else _keep_key(keep)
        if key not in self._kept:
            key = _keep_key(key)
            if self._base is None:
                Z, names = design_matrix(self.ds, self.rows, self.pair, key)
            else:
                view, pos = self._base
                base = view.design(key)
                Z, names = base.stacked.T.take(pos, axis=1).T, base.names
            Z.flags.writeable = False    # shared by every caller, and so are its slices
            nc = self.case.size
            self._kept[key] = KeptDesign(Z, Z[:nc], Z[nc:], names)
        return self._kept[key]

    def blocks(self, part: str) -> tuple[np.ndarray, np.ndarray]:
        """The x_r and l_a columns of the unmasked design on the "case" or "pool" rows."""
        Z, k = getattr(self.design(), part), 1 + len(self.pair.r.indices)
        return Z[:, 1:k], Z[:, k:]


def _keep_key(keep):
    return None if keep is None else tuple(bool(k) for k in keep)


def _check_pair(ds: Dataset, pair: PatternPair, keep) -> None:
    """Raise ConfigError unless `pair` has one bit per auxiliary and per
    primary of `ds` and `keep` is None or marks each covariate of `pair` once
    with a bool."""
    if (pair.r.length, pair.a.length) != (ds.p, ds.d):
        raise ConfigError(f"{pair}: patterns need lengths ({ds.p}, {ds.d}) for these data, "
                          f"got ({pair.r.length}, {pair.a.length})")
    k = len(pair.r.indices) + len(pair.a.indices)
    if keep is not None and (np.shape(keep) != (k,) or not all(isinstance(b, (bool, np.bool_)) for b in keep)):
        raise ConfigError(f"{pair}: the keep mask needs one boolean per covariate ({k}), got {keep!r}")


class _DesignCache:
    def __init__(self, strata: StratumIndex):
        self.pairs = {}              # (r, a) codes -> PairView
        self.incomplete = None       # the views of strata.incomplete_pairs(), once listed
        self.complete = (None, None)   # (functional, its `complete_values`)
        self.buffers = _unit_buffers(strata) if strata.parent is None else None


def _unit_buffers(strata: StratumIndex):
    """(c, labels, ones): c ones then q zeros, and c + q ones, read-only, for
    the largest stratum c and the q complete records, which hold every pool.
    Each view of the index, and of its resamples, labels its rows with
    labels[c - n_case:c + n_pool] and counts unit frequencies with a prefix
    of ones."""
    c = max((rows.size for rows in strata.by_pair.values()), default=0)
    ones = np.ones(c + int(np.count_nonzero(strata.complete_mask)))
    labels = np.concatenate([ones[:c], np.zeros(ones.size - c)])
    ones.flags.writeable = labels.flags.writeable = False
    return c, labels, ones


def _designs(ds: Dataset, strata: StratumIndex) -> _DesignCache:
    strata.check_dataset(ds)
    if strata.designs is None:
        strata.designs = _DesignCache(strata)
    return strata.designs


def complete_values(ds: Dataset, strata: StratumIndex, f: Functional) -> np.ndarray:
    """f on the complete-primary records of `strata`, zero elsewhere; once per
    index and functional.  A reweighted index shares its parent's: readers
    weight them by frequency or take the rows they drew.  Read-only.  f must
    be a `Functional`, else ConfigError."""
    if not isinstance(f, Functional):
        raise ConfigError(f"f must be a Functional, got {f!r}")
    strata = strata.parent or strata
    cache = _designs(ds, strata)
    if cache.complete[0] is not f:
        vals, rows = np.zeros(ds.n), np.flatnonzero(strata.complete_mask)
        if rows.size:
            vals[rows] = f(ds.L[rows])
        vals.flags.writeable = False
        cache.complete = (f, vals)
    return cache.complete[1]


def pair_view(ds: Dataset, strata: StratumIndex, pair: PatternPair) -> PairView:
    """The designs of `pair`, built on first use and cached on `strata`.

    A reweighted index selects its rows from its parent's view, so a
    resample builds no design of its own.
    """
    cache = _designs(ds, strata)
    view = cache.pairs.get(pair.key)
    if view is None:
        if strata.parent is None:
            case = strata.stratum(pair)
            view = PairView(ds, np.concatenate([case, strata.pool(pair.r)]), case.size, pair, cache.buffers)
        else:
            view = pair_view(ds, strata.parent, pair).reweighted(strata.freq)
        cache.pairs[pair.key] = view
    return view


def incomplete_views(ds: Dataset, strata: StratumIndex) -> tuple[PairView, ...]:
    """Views of the pairs of `strata` with incomplete primaries, which need models, listed once per index."""
    cache = _designs(ds, strata)
    if cache.incomplete is None:
        cache.incomplete = tuple(pair_view(ds, strata, pr) for pr in strata.incomplete_pairs())
    return cache.incomplete


def _clamped_eta(Z, coef):
    eta = Z @ coef                   # a fresh array, clamped in place
    np.minimum(eta, LINPRED_CLAMP, out=eta)
    return np.maximum(eta, -LINPRED_CLAMP, out=eta)


def _negloglik_at(eta, wy, w, n_total):
    """Mean case-vs-pool negative log-likelihood at the clamped predictor
    `eta`, and exp(eta), from which the score and Hessian at `eta` are formed."""
    # eta is clamped to |eta| <= LINPRED_CLAMP, so exp(eta) stays below 1.1e13
    # and log1p(exp(eta)) neither overflows nor trips np.errstate(over="raise");
    # on that range it is within a few ulps of np.logaddexp(0, eta), which
    # numpy does not vectorize where it does exp and log1p
    e = np.exp(eta)
    return -(wy @ eta - w @ np.log1p(e)) / n_total, e


def _score_hessian_at(e, Z, y, n_total, w):
    """Exact analytic score and Hessian of the mean log-likelihood, given
    e = exp(eta).  The weight p(1 - p) is e/(1 + e)^2, which keeps its
    relative accuracy where 1 - p would cancel."""
    q = np.add(1.0, e)
    np.divide(1.0, q, out=q)
    p = e * q
    r = np.subtract(y, p)
    r *= w
    score = Z.T @ r / n_total
    p *= q
    p *= w
    hess = -(Z.T * p) @ Z / n_total
    return score, hess


def _start(view: PairView, key, Z, w, n):
    """Where an odds fit on `view` starts, with its clamped predictor.

    Unless a full-data fit of the keep mask ran on the base of `view`, the
    start is the intercept-only MLE, log(case mass / pool mass) with every
    slope zero, or zero where that log reaches the clamp.  Otherwise it is
    one Newton step from the full-data alpha, alpha + I^-1 S(alpha), with
    the full-data information and residuals y - p that the first replicate
    forms from the full-data exp(eta); alpha itself where I is singular or
    the step's predictor reaches the clamp."""
    if view._base is None or key not in view._base[0]._fits:
        alpha = np.zeros(Z.shape[1])
        case, pool = float(view.w_case.sum()), float(view.w_pool.sum())      # the pool is never empty
        start = math.log(case / pool) if case > 0.0 else 0.0
        alpha[0] = start if abs(start) < LINPRED_CLAMP else 0.0
        return alpha, np.full(Z.shape[0], alpha[0])
    base, pos = view._base
    fit = base._fits[key]
    if len(fit) == 2:
        e = fit[1]
        try:
            inv = np.linalg.inv(-_score_hessian_at(e, base.design(key).stacked, base.y, n, base.w)[1])
        except np.linalg.LinAlgError:
            inv = None
        fit = base._fits[key] = (fit[0], inv, base.y - e / (1.0 + e))
    alpha, inv, resid = fit
    if inv is not None:
        step = alpha + inv @ (Z.T @ (w * resid.take(pos)) / n)
        eta = _clamped_eta(Z, step)
        if np.abs(eta).max() < LINPRED_CLAMP:
            return step, eta
    return alpha.copy(), _clamped_eta(Z, alpha)


def _inverse(M, pair, what):
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise SingularityError(f"{pair}: {what} is singular; no influence correction") from None


@dataclass(eq=False)
class OddsModel:
    """Fitted logistic odds for one pattern pair on `view` and its `design`, those of its fit."""

    pair: PatternPair
    alpha: np.ndarray
    n_case: int
    n_pool: int
    view: PairView = field(repr=False)
    design: KeptDesign = field(repr=False)
    e: np.ndarray = field(repr=False)   # the model's values: read-only exp(eta) at alpha on view.rows
    keep: tuple | None = None
    n_iter: int = 0
    pieces: dict = field(default_factory=dict, init=False, repr=False, compare=False)   # see estimators._walk

    @cached_property
    def info(self) -> np.ndarray:
        """(1/n) sum of weighted design outer products at alpha, formed on first read."""
        v = self.view
        return -_score_hessian_at(self.e, self.design.stacked, v.y, v.ds.n, v.w)[1]

    @cached_property
    def info_inv(self) -> np.ndarray:
        """Inverse of `info`, shared by every influence correction of this fit."""
        return _inverse(self.info, self.pair, "odds information matrix")


@dataclass(eq=False)
class OutcomeModel:
    """Fitted least-squares outcome regression of `f` for one pattern pair on `view` and its `design`.

    When `scale_coords` is nonempty the fit regressed the product of the
    unobserved target coordinates on the design and prediction multiplies the
    affine part by the observed target coordinates (used for product
    functionals where part of the product is observed in the stratum), which
    it reads from `unmasked`, the view's cached design under no keep mask.
    """

    pair: PatternPair
    beta: np.ndarray
    n_pool: int
    view: PairView = field(repr=False)
    design: KeptDesign = field(repr=False)
    f: Functional
    keep: tuple | None = None
    resp_coord: int | None = None    # L coordinate regressed on; None means f(L)
    scale_coords: tuple[int, ...] = ()
    unmasked: KeptDesign | None = field(default=None, repr=False)   # None unless scale_coords
    pieces: dict = field(default_factory=dict, init=False, repr=False, compare=False)   # see estimators._walk

    @cached_property
    def gram(self) -> np.ndarray:
        """(1/n) sum over the pool of weighted design outer products, formed
        on first read; a unit-frequency view weights each row by one."""
        v, Z = self.view, self.design.pool
        Z = Z if v._base is None else Z * np.sqrt(v.w_pool)[:, None]
        return Z.T @ Z / v.ds.n

    @cached_property
    def gram_inv(self) -> np.ndarray:
        """Inverse of `gram`, shared by every influence correction of this fit."""
        return _inverse(self.gram, self.pair, "outcome Gram matrix")


def fit_odds(
    ds: Dataset,
    strata: StratumIndex,
    pair: PatternPair,
    n_min: int = DEFAULT_N_MIN,
    keep=None,
) -> OddsModel:
    """Fit the odds model for one pattern pair by Newton with step halving.
    The line search computes each iterate's linear predictor once.  A fit
    starts at the intercept-only MLE, or on a reweighted index (a resample)
    one Newton step from the full-data fit (see `_start`).  A converged
    score ends the loop with one polishing step; an unconverged one at the
    clamp means separation, and after MAX_ITER steps or a failed line
    search, non-convergence.  The model's information matrix is formed when
    first read."""
    check_integer("n_min", n_min)
    _check_pair(ds, pair, keep)
    view = pair_view(ds, strata, pair)
    if view.pool.size == 0:
        raise PositivityError(f"empty pool for {pair}: no records with R >= {pair.r} and complete primaries")
    n_case, n_pool = int(view.w_case.sum()), int(view.w_pool.sum())
    if n_case < n_min or n_pool < n_min:
        raise SmallStratumError(
            f"{pair}: case stratum has {n_case} and pool has {n_pool} records, need >= {n_min}"
        )
    y, w = view.y, view.w
    wy = w * y
    key = _keep_key(keep)
    design = view.design(key)
    Z, n = design.stacked, ds.n

    alpha, eta = _start(view, key, Z, w, n)
    nll, e = _negloglik_at(eta, wy, w, n)
    for it in range(1, MAX_ITER + 2):
        score, hess = _score_hessian_at(e, Z, y, n, w)
        # a converged score takes one trial of the full step, a polishing step
        # that leaves the score near machine precision and so keeps downstream
        # influence means tiny; an unconverged one halves the step up to 40 times
        converged = np.abs(score).max() <= SCORE_TOL
        if not converged:
            if np.abs(eta).max() >= LINPRED_CLAMP:
                raise SeparationError(
                    f"{pair}: linear predictor reached the clamp {LINPRED_CLAMP} with unconverged "
                    "score; case and pool look separable"
                )
            if it > MAX_ITER:
                raise NonConvergenceError(
                    f"{pair}: odds fit not converged after {MAX_ITER} Newton steps "
                    f"(score max {np.abs(score).max():.3e})"
                )
        try:
            step = np.linalg.solve(-hess, score)
        except np.linalg.LinAlgError:
            if converged:
                break
            raise SingularityError(f"{pair}: singular Hessian in odds fit (collinear or separated design)")
        for k in range(1 if converged else 40):
            cand = alpha + 0.5 ** k * step
            cand_eta = _clamped_eta(Z, cand)
            cand_nll, cand_e = _negloglik_at(cand_eta, wy, w, n)
            if cand_nll <= nll + 1e-14 * (1.0 + abs(nll)):
                alpha, eta, e, nll = cand, cand_eta, cand_e, cand_nll
                break
        else:
            if not converged:
                raise NonConvergenceError(
                    f"{pair}: no step along the Newton direction lowers the loss after {it - 1} steps "
                    f"(score max {np.abs(score).max():.3e})"
                )
        if converged:
            break
    # eta is clamped, so it reaches the clamp exactly when Z @ alpha does;
    # below it, eta is Z @ alpha itself
    if np.abs(eta).max() >= LINPRED_CLAMP:
        raise SeparationError(f"{pair}: linear predictor clamped at the solution; treating as separation")

    e.flags.writeable = False        # the model's values, shared by every reader
    if view._base is None:
        view._fits[key] = (alpha, e)
    return OddsModel(pair=pair, alpha=alpha, n_case=n_case, n_pool=n_pool, view=view, design=design, e=e,
                     keep=key, n_iter=it)


def fit_outcome(
    ds: Dataset,
    strata: StratumIndex,
    pair: PatternPair,
    f: Functional,
    n_min: int = DEFAULT_N_MIN,
    keep=None,
    decompose: bool = False,
) -> OutcomeModel:
    """Least-squares outcome regression on the pool of a pattern pair, each
    pool record weighted by its frequency.

    With decompose=True and a product functional whose factors are all but
    one observed in the stratum, the remaining factor is regressed on the
    design and predictions multiply back the observed factors.
    """
    check_integer("n_min", n_min)
    _check_pair(ds, pair, keep)
    view = pair_view(ds, strata, pair)
    if view.pool.size == 0:
        raise PositivityError(f"empty pool for {pair}")
    n_pool = int(view.w_pool.sum())
    if n_pool < n_min:
        raise SmallStratumError(f"{pair}: pool has {n_pool} records, need >= {n_min}")

    resp_coord = None
    scale_coords: tuple[int, ...] = ()
    if decompose and f.kind == "product":
        observed = set(pair.a.indices)
        missing = sorted(set(f.coords) - observed)
        present = tuple(sorted(set(f.coords) & observed))
        if len(missing) == 1 and present and missing[0] < ds.d:    # else f rejects the coordinate
            resp_coord = missing[0]
            scale_coords = present

    rho = complete_values(ds, strata, f)[view.pool] if resp_coord is None else ds.L[view.pool, resp_coord]
    key = _keep_key(keep)
    design = view.design(key)
    sw = np.sqrt(view.w_pool)
    Z, rho = design.pool * sw[:, None], rho * sw
    beta, _, rank, _ = np.linalg.lstsq(Z, rho, rcond=None)
    if rank < Z.shape[1]:
        raise SingularityError(f"{pair}: rank-deficient outcome design on the pool")
    return OutcomeModel(pair=pair, beta=beta, n_pool=n_pool, view=view, design=design,
                        f=f, keep=key, resp_coord=resp_coord,
                        scale_coords=scale_coords, unmasked=view.design() if scale_coords else None)


def fit_all_odds(ds, strata, n_min: int = DEFAULT_N_MIN) -> dict:
    """Odds models for every pattern pair present with incomplete primaries,
    keyed by (r_value, a_value)."""
    return {v.pair.key: fit_odds(ds, strata, v.pair, n_min=n_min) for v in incomplete_views(ds, strata)}


def fit_all_outcomes(ds, strata, f, n_min: int = DEFAULT_N_MIN, decompose: bool = False) -> dict:
    return {
        v.pair.key: fit_outcome(ds, strata, v.pair, f, n_min=n_min, decompose=decompose)
        for v in incomplete_views(ds, strata)
    }


def view_values(model, view: PairView, part: str) -> np.ndarray:
    """Values of an odds model or an oracle on the "case" or "pool" rows of `view`.

    A fitted odds model's values are slices of its `e` on its own view, which
    the estimators have checked is `view`; an oracle goes through its `predict`.
    """
    if not isinstance(model, OddsModel):
        return model.predict(*view.blocks(part))
    return model.e[:model.view.case.size] if part == "case" else model.e[model.view.case.size:]


class OutcomeRead(NamedTuple):
    """An outcome model read on a view by `read_outcome`; None where not formed."""

    case: np.ndarray                        # values on the case rows
    pool: np.ndarray | None = None          # values on the pool rows
    score: np.ndarray | None = None         # a fit's response minus design times beta on the pool
    factor_case: np.ndarray | None = None   # a fit's observed-factor products on the case rows
    factor_pool: np.ndarray | None = None   # and on the pool rows


def read_outcome(model, view: PairView, fmap: np.ndarray, pool: bool) -> OutcomeRead:
    """An outcome model or oracle on the case rows of `view` and, with `pool`,
    on its pool rows, each product formed once.  A fit is read on its own view,
    which the estimators have checked is `view`: its values are design times beta
    times the observed factors of a decomposed product (the view's shared ones
    where there are none), and its score residuals its response, `fmap` (f on
    the complete records) or the L column `resp_coord`, minus design times beta."""
    parts = ("case", "pool") if pool else ("case",)
    if not isinstance(model, OutcomeModel):
        return OutcomeRead(*(view_values(model, view, p) for p in parts))
    view, Z, coords = model.view, model.design, model.scale_coords
    cols = [1 + len(model.pair.r.indices) + model.pair.a.indices.index(c) for c in coords]
    factors = [getattr(model.unmasked, p)[:, cols].prod(axis=1) if coords else view._ones[:getattr(view, p).size]
               for p in parts]
    linear = [getattr(Z, p) @ model.beta for p in parts]
    values = [lin * s for lin, s in zip(linear, factors)] if coords else linear
    if not pool:
        return OutcomeRead(values[0], factor_case=factors[0])
    rho = fmap[view.pool] if model.resp_coord is None else view.ds.L[view.pool, model.resp_coord]
    return OutcomeRead(*values, rho - linear[1], *factors)


def odds_correction(model: OddsModel, ro: np.ndarray) -> np.ndarray:
    """Influence correction of the odds fit `model` on the stacked rows of
    its view for the pool terms `ro` (odds times a residual), one per pool
    row or one column per estimating-function coordinate, as the result is."""
    Z = model.design
    M = Z.stacked @ (model.info_inv @ (Z.pool.T @ ro / model.view.ds.n))
    return (score_residuals(model) * M.T).T


def score_residuals(model: OddsModel) -> np.ndarray:
    """y - p on the stacked rows of an odds fit's view, formed from `e` on each
    call; times its design row, each record's coefficient score."""
    return model.view.y - model.e / (1.0 + model.e)
