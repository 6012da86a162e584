"""Standard errors and confidence intervals.

Influence-function ("theoretical") variances plug the empirical analogs of
the relevant derivative means into the asymptotic linear expansion of each
estimator, adding one correction term per estimated nuisance model.  Models
supplied as known functions (anything without fitted metadata) contribute no
correction.  The nonparametric bootstrap resamples whole records and reruns
the entire pipeline, nuisance refits included.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .data import Dataset
from .errors import AccmvError, BootstrapInstabilityError, ConfigError
from .estimators import _require_models
from .glm import LINPRED_CLAMP, pair_view

DEFAULT_B = 500
DEFAULT_LEVEL = 0.95


@dataclass
class InfluenceVector:
    values: np.ndarray
    method: str

    @property
    def se(self) -> float:
        v = self.values
        return float(np.sqrt(np.mean((v - v.mean()) ** 2) / v.size))


@dataclass
class CiReport:
    estimate: float
    se: float
    lower: float
    upper: float
    level: float
    method: str
    B: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in ("estimate", "se", "lower", "upper", "level", "method", "B", "seed")}


def critical_value(level) -> float:
    """Two-sided standard-normal quantile of a confidence level in (0, 1)."""
    if not (isinstance(level, numbers.Real) and 0.0 < level < 1.0):
        raise ConfigError(f"confidence level must be in (0, 1), got {level!r}")
    return float(norm.ppf(0.5 + level / 2.0))


def normal_ci(estimate, se, level: float = DEFAULT_LEVEL, method: str = "influence", **kw) -> CiReport:
    z = critical_value(level)
    return CiReport(
        estimate=float(estimate),
        se=float(se),
        lower=float(estimate - z * se),
        upper=float(estimate + z * se),
        level=level,
        method=method,
        **kw,
    )


def _fitted(model) -> bool:
    return getattr(model, "info", None) is not None or getattr(model, "gram", None) is not None


def _odds_score_rows(ds, strata, model):
    """Per-record coefficient score of one odds fit and the rows it lives on."""
    view = pair_view(ds, strata, model.pair)
    Z = view.design(model.keep).stacked
    p = 1.0 / (1.0 + np.exp(-np.clip(Z @ model.alpha, -LINPRED_CLAMP, LINPRED_CLAMP)))
    return view.rows, Z * (view.y - p)[:, None]


def _outcome_residual_rows(ds, strata, model, f):
    view = pair_view(ds, strata, model.pair)
    pool = view.pool
    Z = view.design(model.keep).pool
    rho = ds.L[pool, model.resp_coord] if model.resp_coord is not None else f(ds.L[pool])
    return pool, Z, rho - Z @ model.beta


def if_variance_ipw(ds, strata, odds, f, theta_hat: float) -> tuple[float, InfluenceVector]:
    """Influence-function SE for the inverse-probability-weighted estimate."""
    pairs = _require_models(strata, odds, "odds")
    n = ds.n
    phi = np.zeros(n)
    complete = np.flatnonzero(ds.complete_mask)
    f_complete = f(ds.L[complete]) if complete.size else np.empty(0)
    fmap = np.zeros(n)
    fmap[complete] = f_complete
    phi[complete] += f_complete
    for pr in pairs:
        model = odds[pr.key]
        view = pair_view(ds, strata, pr)
        pool = view.pool
        ovals = model.predict(view.xr_pool, view.la_pool)
        fo = fmap[pool] * ovals
        phi[pool] += fo
        if _fitted(model):
            Zp = view.design(model.keep).pool
            grad_mean = Zp.T @ fo / n        # mean of f * grad of odds over the pool
            rows, score = _odds_score_rows(ds, strata, model)
            phi[rows] += score @ np.linalg.solve(model.info, grad_mean)
    phi -= theta_hat
    iv = InfluenceVector(values=phi, method="ipw")
    return iv.se, iv


def if_variance_ra(ds, strata, outcomes, f, theta_hat: float) -> tuple[float, InfluenceVector]:
    """Influence-function SE for the regression-adjustment estimate."""
    pairs = _require_models(strata, outcomes, "outcome")
    n = ds.n
    phi = np.zeros(n)
    complete = np.flatnonzero(ds.complete_mask)
    phi[complete] += f(ds.L[complete]) if complete.size else 0.0
    for pr in pairs:
        model = outcomes[pr.key]
        view = pair_view(ds, strata, pr)
        la = view.la_case
        phi[view.case] += model.predict(view.xr_case, la)
        if _fitted(model):
            Zs = view.design(model.keep).case
            g = model.scale_values(la, pr.a)
            grad_mean = Zs.T @ g / n         # mean gradient of the prediction over the stratum
            pool, Zp, resid = _outcome_residual_rows(ds, strata, model, f)
            phi[pool] += (Zp * resid[:, None]) @ np.linalg.solve(model.gram, grad_mean)
    phi -= theta_hat
    iv = InfluenceVector(values=phi, method="ra")
    return iv.se, iv


def if_variance_mr(ds, strata, odds, outcomes, f, theta_hat: float) -> tuple[float, InfluenceVector]:
    """Influence-function SE for the multiply-robust estimate, with correction
    terms for both nuisance families."""
    pairs = _require_models(strata, odds, "odds")
    _require_models(strata, outcomes, "outcome")
    n = ds.n
    phi = np.zeros(n)
    complete = np.flatnonzero(ds.complete_mask)
    f_complete = f(ds.L[complete]) if complete.size else np.empty(0)
    fmap = np.zeros(n)
    fmap[complete] = f_complete
    phi[complete] += f_complete
    for pr in pairs:
        om, gm = outcomes[pr.key], odds[pr.key]
        view = pair_view(ds, strata, pr)
        pool = view.pool
        xr_p, la_p = view.xr_pool, view.la_pool
        la_s = view.la_case
        o_pool = gm.predict(xr_p, la_p)
        m_pool = om.predict(xr_p, la_p)
        resid_pool = fmap[pool] - m_pool
        phi[pool] += resid_pool * o_pool
        phi[view.case] += om.predict(view.xr_case, la_s)
        if _fitted(om):
            _, Zm_s, Zm_p, _ = view.design(om.keep)
            g_s = om.scale_values(la_s, pr.a)
            g_p = om.scale_values(la_p, pr.a)
            grad_mean = (Zm_s.T @ g_s - Zm_p.T @ (g_p * o_pool)) / n
            prow, Zp, resid = _outcome_residual_rows(ds, strata, om, f)
            phi[prow] += (Zp * resid[:, None]) @ np.linalg.solve(om.gram, grad_mean)
        if _fitted(gm):
            Zo_p = view.design(gm.keep).pool
            grad_mean = Zo_p.T @ (resid_pool * o_pool) / n
            rows, score = _odds_score_rows(ds, strata, gm)
            phi[rows] += score @ np.linalg.solve(gm.info, grad_mean)
    phi -= theta_hat
    iv = InfluenceVector(values=phi, method="mr")
    return iv.se, iv


@dataclass
class BootstrapReport:
    estimate: np.ndarray
    se: np.ndarray
    normal: CiReport
    percentile: CiReport
    B: int
    seed: int
    n_failed: int
    level: float

    def to_dict(self) -> dict:
        def as_list(v):
            return np.asarray(v).tolist()

        return {
            "estimate": as_list(self.estimate),
            "se": as_list(self.se),
            "normal": {k: as_list(v) if isinstance(v, np.ndarray) else v for k, v in self.normal.to_dict().items()},
            "percentile": {
                k: as_list(v) if isinstance(v, np.ndarray) else v for k, v in self.percentile.to_dict().items()
            },
            "B": self.B,
            "seed": self.seed,
            "n_failed": self.n_failed,
            "level": self.level,
        }


def bootstrap(
    ds: Dataset,
    pipeline,
    B: int = DEFAULT_B,
    seed: int = 0,
    level: float = DEFAULT_LEVEL,
    max_failure_rate: float = 0.2,
) -> BootstrapReport:
    """Case bootstrap of a full estimation pipeline.

    `pipeline` maps a Dataset to a scalar or vector estimate and is rerun on
    each resample, nuisance refits included.  Replicates raising package
    errors are skipped and counted; more than `max_failure_rate` of them
    failing aborts.  Replicate RNG streams are pre-split from the seed, so
    results do not depend on execution order.
    """
    if B < 2:
        raise ConfigError(f"bootstrap needs B >= 2, got {B}")
    z = critical_value(level)
    point = np.atleast_1d(np.asarray(pipeline(ds), dtype=float))
    children = np.random.SeedSequence(seed).spawn(B)
    reps = []
    n_failed = 0
    for child in children:
        rng = np.random.default_rng(child)
        rows = rng.integers(0, ds.n, ds.n)
        try:
            reps.append(np.atleast_1d(np.asarray(pipeline(ds.subset(rows)), dtype=float)))
        except AccmvError:
            n_failed += 1
    if n_failed > max_failure_rate * B:
        raise BootstrapInstabilityError(f"{n_failed}/{B} bootstrap replicates failed to fit")
    mat = np.vstack(reps)
    se = mat.std(axis=0, ddof=1)
    lo_q, hi_q = np.quantile(mat, [(1 - level) / 2.0, (1 + level) / 2.0], axis=0)

    def squeeze(v):
        v = np.asarray(v)
        return float(v[0]) if v.size == 1 else v

    normal = CiReport(
        estimate=squeeze(point), se=squeeze(se),
        lower=squeeze(point - z * se), upper=squeeze(point + z * se),
        level=level, method="bootstrap-normal", B=B, seed=seed,
    )
    percentile = CiReport(
        estimate=squeeze(point), se=squeeze(se),
        lower=squeeze(lo_q), upper=squeeze(hi_q),
        level=level, method="bootstrap-percentile", B=B, seed=seed,
    )
    return BootstrapReport(
        estimate=squeeze(point), se=squeeze(se), normal=normal, percentile=percentile,
        B=B, seed=seed, n_failed=n_failed, level=level,
    )
