"""Per-pattern nuisance models.

Two families, both on the design (1, x_r, l_a):

* logistic odds models  O(x_r, l_a) = exp(alpha . (1, x_r, l_a)), fitted by
  comparing the case stratum (R = r, A = a) against its pool (R >= r, A all
  observed) with Newton-Raphson on the exact binary log-likelihood;
* linear outcome regressions m(x_r, l_a) = beta . (1, x_r, l_a), fitted by
  least squares on the pool.

Every sum over records counts each record by its frequency in the stratum
index (one each unless the index was reweighted for a resample).

Both retain the normalizing matrices needed to evaluate per-record influence
contributions of the estimated coefficients.  The designs of each pattern
pair are built once per stratum index and shared through `pair_view`, and
a fitted model's values and score pieces once per view, kept on the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import Dataset, Functional, StratumIndex
from .errors import (
    ConfigError,
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
    """Design (1, x_r, l_a) for the given record positions.

    `keep` optionally masks non-intercept columns; the intercept always stays.
    Raises if any requested covariate is unobserved (precondition guard).
    """
    rows = np.asarray(rows, dtype=int)
    cov = np.hstack([ds.X[np.ix_(rows, pair.r.indices)], ds.L[np.ix_(rows, pair.a.indices)]])
    names = [ds.x_names[j] for j in pair.r.indices] + [ds.l_names[j] for j in pair.a.indices]
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        if keep.shape[0] != cov.shape[1]:
            raise ValueError(f"keep mask length {keep.shape[0]} != {cov.shape[1]} covariates")
        cov = cov[:, keep]
        names = [nm for nm, k in zip(names, keep) if k]
    if np.isnan(cov).any():
        raise ValueError(f"unobserved covariate in design for {pair}")
    Z = np.hstack([np.ones((cov.shape[0], 1)), cov])
    return Z, ("intercept", *names)


class KeptDesign(NamedTuple):
    """Design (1, x_r, l_a) of one pattern pair under one keep mask."""

    stacked: np.ndarray              # case rows over pool rows, as in PairView.rows
    case: np.ndarray
    pool: np.ndarray
    names: tuple[str, ...]


class PairView:
    """Case stratum and pool of one pattern pair with their designs.

    `rows` stacks the case rows over the pool rows, `y` labels them 1/0 and
    `w` holds their frequencies.  The design of each keep mask is built on
    first use with `design_matrix` on `rows`, or taken as a row selection of
    the `base` view's design; its case and pool parts are row slices of it.
    The fits, estimators and influence functions all read these shared
    designs.  A unit-frequency view also keeps the odds coefficients that
    `fit_odds` converged to on it, per keep mask, where the fits on its
    reweighted views start.
    """

    def __init__(self, ds: Dataset, case: np.ndarray, pool: np.ndarray, pair: PatternPair,
                 w=None, base=None):
        self.ds = ds
        self.pair = pair
        self.case = case
        self.pool = pool
        self.rows = np.concatenate([case, pool])
        self.y = np.concatenate([np.ones(case.size), np.zeros(pool.size)])
        self.w = np.ones(self.rows.size) if w is None else w
        self.w_case, self.w_pool = self.w[:case.size], self.w[case.size:]
        for a in (self.rows, self.y, self.w):
            a.flags.writeable = False
        self._base = base            # (view, row mask) whose designs this view selects from
        self._kept = {}
        self._alpha = {}             # keep key -> converged odds coefficients

    def reweighted(self, freq: np.ndarray) -> "PairView":
        """The rows of this view drawn by the per-record frequencies `freq`."""
        w = freq[self.rows]
        sel = w > 0
        nc = self.case.size
        return PairView(self.ds, self.case[sel[:nc]], self.pool[sel[nc:]], self.pair,
                        w=w[sel], base=(self, sel))

    def design(self, keep=None) -> KeptDesign:
        """Designs restricted to the non-intercept columns `keep` marks."""
        key = _keep_key(keep)
        if key not in self._kept:
            if self._base is None:
                Z, names = design_matrix(self.ds, self.rows, self.pair, key)
            else:
                view, sel = self._base
                kept = view.design(key)
                Z, names = kept.stacked[sel], kept.names
            Z.flags.writeable = False    # shared by every caller, and so are its slices
            nc = self.case.size
            self._kept[key] = KeptDesign(Z, Z[:nc], Z[nc:], names)
        return self._kept[key]

    # x_r and l_a blocks, as columns of the unmasked design
    @property
    def xr_case(self) -> np.ndarray:
        return self.design().case[:, 1:1 + len(self.pair.r.indices)]

    @property
    def la_case(self) -> np.ndarray:
        return self.design().case[:, 1 + len(self.pair.r.indices):]

    @property
    def xr_pool(self) -> np.ndarray:
        return self.design().pool[:, 1:1 + len(self.pair.r.indices)]

    @property
    def la_pool(self) -> np.ndarray:
        return self.design().pool[:, 1 + len(self.pair.r.indices):]


def _keep_key(keep):
    return None if keep is None else tuple(bool(k) for k in keep)


def _check_keep(pair: PatternPair, keep) -> None:
    """Raise ConfigError unless `keep` is None or marks each covariate of `pair` once."""
    k = len(pair.r.indices) + len(pair.a.indices)
    if keep is not None and np.shape(keep) != (k,):
        raise ConfigError(f"{pair}: the keep mask needs one entry per covariate ({k}), got {keep!r}")


class _DesignCache:
    def __init__(self, ds: Dataset):
        self.ds = ds
        self.pairs = {}              # (r, a) codes -> PairView
        self.pieces = {}             # "f" -> (functional, `complete_values`)


def _designs(ds: Dataset, strata: StratumIndex) -> _DesignCache:
    if strata.designs is None or strata.designs.ds is not ds:
        strata.designs = _DesignCache(ds)
    return strata.designs


def _kept(pieces: dict, key, make, functional=None) -> np.ndarray:
    """`make()` once per `key` and `functional` (by identity), kept read-only."""
    got = pieces.get(key)
    if got is None or got[0] is not functional:
        got = pieces[key] = (functional, make())
        got[1].flags.writeable = False
    return got[1]


def complete_values(ds: Dataset, strata: StratumIndex, f: Functional) -> np.ndarray:
    """f on the complete-primary records of `strata`, zero elsewhere; once per index and functional."""
    def make():
        vals, rows = np.zeros(ds.n), np.flatnonzero(strata.complete_mask)
        if rows.size:
            vals[rows] = f(ds.L[rows])
        return vals
    return _kept(_designs(ds, strata).pieces, "f", make, f)


def pair_view(ds: Dataset, strata: StratumIndex, pair: PatternPair) -> PairView:
    """The designs of `pair`, built on first use and cached on `strata`.

    A reweighted index selects its rows from its parent's view, so a
    resample builds no design of its own.
    """
    cache = _designs(ds, strata)
    view = cache.pairs.get(pair.key)
    if view is None:
        if strata.parent is None:
            view = PairView(ds, strata.stratum(pair), strata.pool(pair.r), pair)
        else:
            view = pair_view(ds, strata.parent, pair).reweighted(strata.freq)
        cache.pairs[pair.key] = view
    return view


def _clamped_eta(Z, coef):
    return np.clip(Z @ coef, -LINPRED_CLAMP, LINPRED_CLAMP)


def odds_negloglik(alpha, Z, y, n_total, w=1.0):
    """Mean negative log-likelihood of the case-vs-pool logistic model, each
    row counted `w` times."""
    return _negloglik_at(_clamped_eta(Z, alpha), w * y, w, n_total)


def odds_score_hessian(alpha, Z, y, n_total, w=1.0):
    """Exact analytic score and Hessian of the mean log-likelihood."""
    return _score_hessian_at(_clamped_eta(Z, alpha), Z, y, n_total, w)


def _negloglik_at(eta, wy, w, n_total):
    # eta is clamped to |eta| <= LINPRED_CLAMP, so exp(eta) stays below 1.1e13
    # and log1p(exp(eta)) neither overflows nor trips np.errstate(over="raise");
    # on that range it is within a few ulps of np.logaddexp(0, eta), which
    # numpy does not vectorize where it does exp and log1p
    lse = np.log1p(np.exp(eta))
    return -(wy @ eta - (w * lse).sum()) / n_total


def _score_hessian_at(eta, Z, y, n_total, w):
    p = 1.0 / (1.0 + np.exp(-eta))
    score = Z.T @ (w * (y - p)) / n_total
    W = w * (p * (1.0 - p))
    hess = -(Z.T * W) @ Z / n_total
    return score, hess


def _inverse(M, what):
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise SingularityError(f"{what} is singular; no influence correction") from None


@dataclass(eq=False)
class OddsModel:
    """Fitted logistic odds for one pattern pair."""

    pair: PatternPair
    alpha: np.ndarray
    names: tuple[str, ...]
    converged: bool
    n_case: int
    n_pool: int
    info: np.ndarray                 # (1/n) sum of weighted design outer products at alpha
    keep: tuple | None = None
    n_iter: int = 0
    nll_path: list = field(default_factory=list)
    pieces: dict = field(default_factory=dict, init=False, repr=False, compare=False)   # per view, see view_values

    @cached_property
    def info_inv(self) -> np.ndarray:
        """Inverse of `info`, shared by every influence correction of this fit."""
        return _inverse(self.info, f"{self.pair}: odds information matrix")


@dataclass(eq=False)
class OutcomeModel:
    """Fitted least-squares outcome regression for one pattern pair.

    When `scale_coords` is nonempty the fit regressed the product of the
    unobserved target coordinates on the design and prediction multiplies the
    affine part by the observed target coordinates (used for product
    functionals where part of the product is observed in the stratum).
    """

    pair: PatternPair
    beta: np.ndarray
    names: tuple[str, ...]
    n_pool: int
    gram: np.ndarray                 # (1/n) sum over pool of design outer products
    residual_variance: float
    keep: tuple | None = None
    resp_coord: int | None = None    # L coordinate regressed on; None means f(L)
    scale_coords: tuple[int, ...] = ()
    pieces: dict = field(default_factory=dict, init=False, repr=False, compare=False)   # per view, see view_values

    @cached_property
    def gram_inv(self) -> np.ndarray:
        """Inverse of `gram`, shared by every influence correction of this fit."""
        return _inverse(self.gram, f"{self.pair}: outcome Gram matrix")

    def scale_values(self, view: "PairView", part: str) -> np.ndarray:
        """Product of the observed target coordinates on the "case" or "pool"
        rows of `view`, 1 when there are none."""
        pos = [self.pair.a.indices.index(c) for c in self.scale_coords]
        return _kept(self.pieces, (view, "scale_" + part), lambda: getattr(view, "la_" + part)[:, pos].prod(axis=1))


def fit_odds(
    ds: Dataset,
    strata: StratumIndex,
    pair: PatternPair,
    n_min: int = DEFAULT_N_MIN,
    keep=None,
) -> OddsModel:
    """Fit the odds model for one pattern pair by Newton with step halving.
    The line search computes each iterate's linear predictor once.  A fit on
    a reweighted index (a resample) starts from the full-data fit of its pair
    and keep mask if one ran, else from zero.  A linear predictor at the
    clamp with the score unconverged means separation."""
    _check_keep(pair, keep)
    case = strata.stratum(pair)
    pool = strata.pool(pair.r)
    if pool.size == 0:
        raise PositivityError(f"empty pool for {pair}: no records with R >= {pair.r} and complete primaries")
    n_case, n_pool = strata.count(case), strata.count(pool)
    if n_case < n_min or n_pool < n_min:
        raise SmallStratumError(
            f"{pair}: case stratum has {n_case} and pool has {n_pool} records, need >= {n_min}"
        )
    view = pair_view(ds, strata, pair)
    y, w = view.y, view.w
    wy = w * y
    Z, _, _, names = view.design(keep)
    n = ds.n

    key = _keep_key(keep)
    start = view._base[0]._alpha.get(key) if view._base else None
    alpha = np.zeros(Z.shape[1]) if start is None else start.copy()
    eta = _clamped_eta(Z, alpha)
    nll = _negloglik_at(eta, wy, w, n)
    nll_path = [nll]
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        score, hess = _score_hessian_at(eta, Z, y, n, w)
        if np.max(np.abs(score)) <= SCORE_TOL:
            converged = True
            # one polishing step: quadratic convergence leaves the score near
            # machine precision, keeping downstream influence means tiny
            try:
                polish = alpha + np.linalg.solve(-hess, score)
            except np.linalg.LinAlgError:
                break
            polish_eta = _clamped_eta(Z, polish)
            if _negloglik_at(polish_eta, wy, w, n) <= nll + 1e-14 * (1.0 + abs(nll)):
                alpha, eta = polish, polish_eta
            break
        if np.max(np.abs(eta)) >= LINPRED_CLAMP:
            raise SeparationError(
                f"{pair}: linear predictor reached the clamp {LINPRED_CLAMP} with unconverged "
                "score; case and pool look separable"
            )
        try:
            step = np.linalg.solve(-hess, score)
        except np.linalg.LinAlgError:
            raise SingularityError(f"{pair}: singular Hessian in odds fit (collinear or separated design)")
        lam = 1.0
        for _ in range(40):
            cand = alpha + lam * step
            cand_eta = _clamped_eta(Z, cand)
            cand_nll = _negloglik_at(cand_eta, wy, w, n)
            if cand_nll <= nll + 1e-14 * (1.0 + abs(nll)):
                break
            lam *= 0.5
        else:
            break                    # no step along the Newton direction lowers the loss
        alpha, eta, nll = cand, cand_eta, cand_nll
        nll_path.append(nll)
    if not converged:
        score, _ = _score_hessian_at(eta, Z, y, n, w)
        if np.max(np.abs(score)) <= SCORE_TOL:
            converged = True
        elif np.max(np.abs(eta)) >= LINPRED_CLAMP:
            raise SeparationError(f"{pair}: separation detected after {it} iterations")
        else:
            raise NonConvergenceError(
                f"{pair}: odds fit not converged after {it} iterations "
                f"(score max {np.max(np.abs(score)):.3e})",
                last_iterate=alpha,
            )
    # eta is clamped, so it reaches the clamp exactly when Z @ alpha does;
    # below it, eta is Z @ alpha itself
    if np.max(np.abs(eta)) >= LINPRED_CLAMP:
        raise SeparationError(f"{pair}: linear predictor clamped at the solution; treating as separation")

    if view._base is None:
        view._alpha[key] = alpha
    p = 1.0 / (1.0 + np.exp(-eta))
    info = (Z.T * (w * (p * (1.0 - p)))) @ Z / n
    return OddsModel(
        pair=pair,
        alpha=alpha,
        names=names,
        converged=converged,
        n_case=n_case,
        n_pool=n_pool,
        info=info,
        keep=tuple(keep) if keep is not None else None,
        n_iter=it,
        nll_path=nll_path,
    )


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
    _check_keep(pair, keep)
    pool = strata.pool(pair.r)
    if pool.size == 0:
        raise PositivityError(f"empty pool for {pair}")
    n_pool = strata.count(pool)
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

    rho = ds.L[pool, resp_coord] if resp_coord is not None else f(ds.L[pool])
    view = pair_view(ds, strata, pair)
    _, _, Z, names = view.design(keep)
    sw = np.sqrt(view.w_pool)
    Z, rho = Z * sw[:, None], rho * sw
    beta, _, rank, _ = np.linalg.lstsq(Z, rho, rcond=None)
    if rank < Z.shape[1]:
        raise SingularityError(f"{pair}: rank-deficient outcome design on the pool")
    resid = rho - Z @ beta
    dof = n_pool - Z.shape[1]
    return OutcomeModel(
        pair=pair,
        beta=beta,
        names=names,
        n_pool=n_pool,
        gram=Z.T @ Z / ds.n,
        residual_variance=float(resid @ resid / dof) if dof > 0 else 0.0,
        keep=tuple(keep) if keep is not None else None,
        resp_coord=resp_coord,
        scale_coords=scale_coords,
    )


def fit_all_odds(ds, strata, n_min: int = DEFAULT_N_MIN) -> dict:
    """Odds models for every pattern pair present with incomplete primaries,
    keyed by (r_value, a_value)."""
    return {pr.key: fit_odds(ds, strata, pr, n_min=n_min) for pr in strata.incomplete_pairs()}


def fit_all_outcomes(ds, strata, f, n_min: int = DEFAULT_N_MIN, decompose: bool = False) -> dict:
    return {
        pr.key: fit_outcome(ds, strata, pr, f, n_min=n_min, decompose=decompose)
        for pr in strata.incomplete_pairs()
    }


def view_values(model, view: PairView, part: str) -> np.ndarray:
    """Values of `model` on the "case" or "pool" rows of `view`.

    Fitted models multiply their coefficients into the shared design of their
    keep mask once per view; any other model (an oracle) goes through its `predict`.
    """
    if isinstance(model, OddsModel):
        return _kept(model.pieces, (view, part),
                     lambda: np.exp(_clamped_eta(getattr(view.design(model.keep), part), model.alpha)))
    if isinstance(model, OutcomeModel):
        vals = _linear(model, view, part)
        if model.scale_coords:
            vals = _kept(model.pieces, (view, part), lambda: vals * model.scale_values(view, part))
        return vals
    return model.predict(getattr(view, "xr_" + part), getattr(view, "la_" + part))


def _linear(model: OutcomeModel, view: PairView, part: str) -> np.ndarray:
    return _kept(model.pieces, (view, "linear_" + part), lambda: getattr(view.design(model.keep), part) @ model.beta)


def case_gradient(model: OutcomeModel, view: PairView) -> np.ndarray:
    """Gradient in the coefficients of the summed case-row predictions of `model` on `view`."""
    return _kept(model.pieces, (view, "grad"), lambda: view.design(model.keep).case.T @ model.scale_values(view, "case"))


def fitted(model) -> bool:
    """True for estimated models, which carry the matrices their influence
    corrections need; known functions contribute no correction."""
    return getattr(model, "info", None) is not None or getattr(model, "gram", None) is not None


def score_residuals(model, view: PairView, f: Functional | None = None) -> np.ndarray:
    """Residuals of a fit on `view`, y - p on the stacked rows of an odds fit
    and f(L) (or the regressed coordinate) minus m on the pool of an outcome
    fit; times its design row, each record's coefficient score."""
    if isinstance(model, OddsModel):
        return _kept(model.pieces, (view, "score"),
                     lambda: view.y - 1.0 / (1.0 + np.exp(-_clamped_eta(view.design(model.keep).stacked, model.alpha))))

    def make():
        L = view.ds.L
        rho = L[view.pool, model.resp_coord] if model.resp_coord is not None else f(L[view.pool])
        return rho - _linear(model, view, "pool")
    return _kept(model.pieces, (view, "score"), make, f)
