"""Standard errors and confidence intervals.

Influence-function ("theoretical") variances plug the empirical analogs of
the relevant derivative means into the asymptotic linear expansion of each
estimator, adding one correction term per estimated nuisance model.  Models
supplied as known functions (anything without fitted metadata) contribute no
correction.  The influence values come from the estimators' own pass over
the pattern pairs, which `estimate_*(..., influence=True)` also attaches.
The nonparametric bootstrap resamples whole records and reruns the entire
pipeline, nuisance refits included.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .data import Dataset
from .errors import AccmvError, BootstrapInstabilityError, ConfigError
from .estimators import InfluenceVector, _walk

DEFAULT_B = 500
DEFAULT_LEVEL = 0.95


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


def _influence(ds, strata, f, theta_hat, method, **models) -> tuple[float, InfluenceVector]:
    iv = InfluenceVector(_walk(ds, strata, f, influence=True, **models)[2] - theta_hat, method)
    return iv.se, iv


def if_variance_ipw(ds, strata, odds, f, theta_hat: float) -> tuple[float, InfluenceVector]:
    """Influence-function SE for the inverse-probability-weighted estimate."""
    return _influence(ds, strata, f, theta_hat, "ipw", odds=odds)


def if_variance_ra(ds, strata, outcomes, f, theta_hat: float) -> tuple[float, InfluenceVector]:
    """Influence-function SE for the regression-adjustment estimate."""
    return _influence(ds, strata, f, theta_hat, "ra", outcomes=outcomes)


def if_variance_mr(ds, strata, odds, outcomes, f, theta_hat: float) -> tuple[float, InfluenceVector]:
    """Influence-function SE for the multiply-robust estimate, with correction
    terms for both nuisance families."""
    return _influence(ds, strata, f, theta_hat, "mr", odds=odds, outcomes=outcomes)


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
