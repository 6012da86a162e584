"""Standard errors and confidence intervals.

Influence-function ("theoretical") variances plug the empirical analogs of
the relevant derivative means into the asymptotic linear expansion of each
estimator, adding one correction term per estimated nuisance model.  Models
supplied as known functions (anything without fitted metadata) contribute no
correction.  The influence values come from the estimators' own pass over
the pattern pairs, which `estimate_*(..., influence=True)` also attaches.
The nonparametric bootstrap resamples whole records and reruns the entire
pipeline, nuisance refits included.  A resample is drawn as per-record
frequencies: the full-data stratum index reweighted by them (see
`StratumIndex.reweight`), which the package's fits and estimators honour.
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .data import Dataset, StratumIndex
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
    return float(NormalDist().inv_cdf(0.5 + level / 2.0))


def normal_ci(estimate, se, level: float = DEFAULT_LEVEL) -> CiReport:
    """Wald interval of an influence-function SE."""
    z = critical_value(level)
    return CiReport(
        estimate=float(estimate),
        se=float(se),
        lower=float(estimate - z * se),
        upper=float(estimate + z * se),
        level=level,
        method="influence",
    )


def _influence(ds, strata, f, theta_hat, method, **models) -> tuple[float, InfluenceVector]:
    iv = InfluenceVector(_walk(ds, strata, f, influence=True, **models).influence - theta_hat, method)
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


def seed_sequence(seed) -> np.random.SeedSequence:
    """The SeedSequence of a non-negative integer seed."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.SeedSequence(seed)


def _check_replicates(B, none_ok: bool = False) -> None:
    """Raise ConfigError unless the replicate count B is an integer >= 2, or
    0 (no replicates) where `none_ok`."""
    if isinstance(B, bool) or not isinstance(B, numbers.Integral):
        raise ConfigError(f"the number of replicates B must be an integer, got {B!r}")
    if B < 2 and not (none_ok and B == 0):
        raise ConfigError(f"bootstrap needs B >= 2{' (or 0 for none)' if none_ok else ''}, got {B}")


def replicate(ds: Dataset, strata: StratumIndex, fn, B: int, seed: int, max_failure_rate: float = 0.2,
              what: str = "bootstrap") -> tuple[list, dict]:
    """Run `fn(ds, resampled strata)` on B case resamples of the records.

    Replicate i draws n records with replacement from the i-th child of
    SeedSequence(seed) and passes `strata` reweighted by how often each
    record was drawn, so results do not depend on execution order.
    Returns the outputs of the replicates that succeeded, in stream order,
    and the failed ones counted by `AccmvError` subclass name; more than
    `max_failure_rate` of them failing aborts.
    """
    values, failures = [], Counter()
    for child in seed_sequence(seed).spawn(B):
        rows = np.random.default_rng(child).integers(0, ds.n, ds.n)
        try:
            values.append(fn(ds, strata.reweight(np.bincount(rows, minlength=ds.n))))
        except AccmvError as e:
            failures[type(e).__name__] += 1
    failures = dict(sorted(failures.items()))
    if B - len(values) > max_failure_rate * B:
        raise BootstrapInstabilityError(f"{B - len(values)}/{B} {what} replicates failed to fit: {failures}")
    return values, failures


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
    failures: dict = field(default_factory=dict)   # AccmvError subclass name -> count

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
            "failures": self.failures,
            "level": self.level,
        }


def bootstrap(
    ds: Dataset,
    strata: StratumIndex,
    pipeline,
    B: int = DEFAULT_B,
    seed: int = 0,
    level: float = DEFAULT_LEVEL,
    max_failure_rate: float = 0.2,
) -> BootstrapReport:
    """Case bootstrap of a full estimation pipeline.

    `pipeline(ds, strata)` returns a scalar or vector estimate; it runs on
    the full-data index for the point estimate and is rerun on each
    resample (see `replicate`), nuisance refits included.  A resample is
    `strata` reweighted by record frequencies, so the pipeline must sum over
    records through the package's fits and estimators, or honour
    `strata.freq` itself.
    """
    _check_replicates(B)
    z = critical_value(level)
    point = np.atleast_1d(np.asarray(pipeline(ds, strata), dtype=float))
    reps, failures = replicate(ds, strata, lambda d, s: np.atleast_1d(np.asarray(pipeline(d, s), dtype=float)),
                               B, seed, max_failure_rate)
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
        B=B, seed=seed, n_failed=B - len(reps), level=level, failures=failures,
    )
