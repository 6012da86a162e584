"""Exponential-tilting sensitivity analysis for the IPW estimate.

Each fitted odds contribution for a pair (tau, a) is multiplied by
exp(delta . (l - c)) restricted to the primary coordinates a leaves
unobserved, and the estimate is recomputed self-normalized.  delta = 0
recovers the untilted self-normalized IPW estimate, to rounding.  The odds
stay fitted under the untilted assumption; only the weights are perturbed.
Each grid point solves sum w_k (f - theta_k) = 0, so its influence values are
the self-normalized IPW's under its tilt factors (`self_normalized_influence`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Functional, StratumIndex, check_finite
from .errors import ConfigError, DegenerateNormalizationError
from .estimators import _require_models, self_normalized_influence
from .glm import complete_values, fit_all_odds, view_values
from .inference import DEFAULT_LEVEL, _check_replicates, bootstrap, normal_ci

TILT_CLAMP = 30.0


@dataclass(frozen=True)
class TiltSpec:
    """Sensitivity parameters: one delta per primary coordinate, a center c,
    and an optional grid of scalar multipliers for sweeps."""

    delta: tuple[float, ...]
    center: tuple[float, ...] = ()
    grid: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("delta", "center", "grid"):
            check_finite(f"tilt {name}", getattr(self, name))

    def resolved_center(self, d: int) -> np.ndarray:
        return _per_coordinate("center", self.center, d) if self.center else np.zeros(d)

    def resolved_delta(self, d: int, multiplier: float = 1.0) -> np.ndarray:
        return multiplier * _per_coordinate("delta", self.delta, d)


def _per_coordinate(name, values, d: int) -> np.ndarray:
    """One tilt value per primary coordinate; a single value is shared."""
    v = np.asarray(values, dtype=float)
    if v.size == 1:
        return np.full(d, float(v[0]))
    if v.size != d:
        raise ConfigError(f"tilt {name} has {v.size} entries for d={d}")
    return v


def tilted_estimate(
    ds: Dataset, strata: StratumIndex, odds: dict, f: Functional, spec: TiltSpec, multiplier: float = 1.0
) -> float:
    """Self-normalized IPW estimate under the tilted weights; a multiplier
    that is not a finite number is a ConfigError, as a `TiltSpec` grid's is."""
    check_finite("the tilt multiplier", (multiplier,))
    return float(_tilted_grid(ds, strata, odds, f, spec, [multiplier], {})[0][0])


def _tilted_grid(ds, strata, odds, f, spec: TiltSpec, grid, factors: dict) -> tuple[np.ndarray, np.ndarray]:
    """`tilted_estimate` at each multiplier of `grid`, sum f w / sum w over
    the complete records, and sum w; each pair's part of w a dot of its tilt
    factors with frequency times odds, one dot per grid point.  `factors`
    keeps each pair's len(grid) x pool factors, formed on the unit-frequency
    pool on first use; a reweighted view takes its pool columns by position."""
    views = _require_models(ds, strata, odds, "odds")
    fmap = complete_values(ds, strata, f)
    rows = np.flatnonzero(strata.complete_mask)
    freq = strata.weights(rows)
    num, den = np.full(len(grid), fmap[rows] @ freq), np.full(len(grid), freq.sum())
    if not den.all():
        raise DegenerateNormalizationError("tilted weight sum is zero: no complete-primary records")
    center, deltas = spec.resolved_center(ds.d), [spec.resolved_delta(ds.d, m) for m in grid]
    for view in views:
        pr = view.pair
        unit, pos = view.drawn_from()
        if pr.key not in factors:
            miss = [j for j in range(ds.d) if j not in pr.a.indices]     # the coordinates a leaves unobserved
            eta = np.zeros((len(grid), unit.pool.size))
            for j in miss:
                eta += np.multiply.outer([d[j] for d in deltas], ds.L[unit.pool, j] - center[j])
            factors[pr.key] = np.exp(np.clip(eta, -TILT_CLAMP, TILT_CLAMP))
        wo = view.w_pool * view_values(odds[pr.key], view, "pool")
        fwo = fmap[view.pool] * wo
        for k, t in enumerate(factors[pr.key]):
            t = t.take(pos)
            num[k] += t @ fwo
            den[k] += t @ wo
    return num / den, den


@dataclass
class SensitivityCurve:
    functional: str
    multipliers: list
    estimates: list
    ci_lower: list
    ci_upper: list
    B: int | None = None
    seed: int | None = None
    n_failed: int = 0
    failures: dict = field(default_factory=dict)   # AccmvError subclass name -> count

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["delta", "estimate", "ci_lo", "ci_hi"])
            for m, est, lo, hi in zip(self.multipliers, self.estimates, self.ci_lower, self.ci_upper):
                w.writerow([repr(float(m)), repr(float(est)), repr(float(lo)), repr(float(hi))])


def sweep(
    ds: Dataset,
    strata: StratumIndex,
    odds: dict,
    f: Functional,
    spec: TiltSpec,
    B: int = 0,
    seed: int = 0,
    n_min: int = 10,
) -> SensitivityCurve:
    """Tilted estimates over the multiplier grid, sharing the supplied odds
    fits across grid points, with normal-based intervals at level
    `DEFAULT_LEVEL`.  With B >= 2 they come from a case bootstrap (see
    `inference.bootstrap`) that refits the odds in every replicate; with
    B = 0, from each point's influence SE, one point at a time, and they are
    NaN on a reweighted index, where influence values are undefined."""
    if not spec.grid:
        raise ConfigError("sweep needs a nonempty grid")
    _check_replicates(B, none_ok=True)
    grid = list(spec.grid)
    factors = {}                     # pair key -> tilt factors, for this sweep only
    ests, den = _tilted_grid(ds, strata, odds, f, spec, grid, factors)
    failures = {}
    if B:
        boot = bootstrap(ds, strata,
                         lambda d, s: _tilted_grid(d, s, fit_all_odds(d, s, n_min=n_min), f, spec, grid, factors)[0],
                         ests, B, seed, DEFAULT_LEVEL)
        ci, failures = boot.normal, boot.failures
    else:
        tilts = ({key: t[k] for key, t in factors.items()} for k in range(len(grid)))
        ci = normal_ci(ests, [self_normalized_influence(ds, strata, odds, f, *pt).se for pt in zip(ests, den, tilts)]
                       if strata.freq is None else float("nan"))
    lo, hi = np.atleast_1d(ci.lower).tolist(), np.atleast_1d(ci.upper).tolist()
    return SensitivityCurve(functional=f.describe(), multipliers=grid, estimates=ests.tolist(), ci_lower=lo, ci_upper=hi,
                            B=B or None, seed=seed if B else None, n_failed=sum(failures.values()), failures=failures)
