"""Exponential-tilting sensitivity analysis for the IPW estimate.

Each fitted odds contribution for a pair (tau, a) is multiplied by
exp(delta . (l - c)) restricted to the primary coordinates a leaves
unobserved, and the estimate is recomputed self-normalized.  delta = 0
recovers the untilted self-normalized IPW estimate exactly.  The odds stay
fitted under the untilted assumption; only the weights are perturbed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Functional, StratumIndex
from .errors import ConfigError, DegenerateNormalizationError
from .estimators import _require_models, pool_odds, weight_table
from .glm import fit_all_odds
from .inference import critical_value, replicate


@dataclass(frozen=True)
class TiltSpec:
    """Sensitivity parameters: one delta per primary coordinate, a center c,
    and an optional grid of scalar multipliers for sweeps."""

    delta: tuple[float, ...]
    center: tuple[float, ...] = ()
    grid: tuple[float, ...] = ()

    def resolved_center(self, d: int) -> np.ndarray:
        if not self.center:
            return np.zeros(d)
        c = np.asarray(self.center, dtype=float)
        if c.size == 1:
            return np.full(d, float(c[0]))
        if c.size != d:
            raise ConfigError(f"tilt center has {c.size} entries for d={d}")
        return c

    def resolved_delta(self, d: int, multiplier: float = 1.0) -> np.ndarray:
        v = np.asarray(self.delta, dtype=float)
        if v.size == 1:
            v = np.full(d, float(v[0]))
        if v.size != d:
            raise ConfigError(f"tilt delta has {v.size} entries for d={d}")
        return multiplier * v


def tilted_estimate(
    ds: Dataset, strata: StratumIndex, odds: dict, f: Functional, spec: TiltSpec, multiplier: float = 1.0
) -> float:
    """Self-normalized IPW estimate under the tilted weights."""
    return _tilted_grid(ds, strata, odds, f, spec, [multiplier])[0]


def _tilted_grid(ds, strata, odds, f, spec: TiltSpec, grid) -> list[float]:
    """`tilted_estimate` at each multiplier of `grid`, evaluating each odds
    model once and tilting its values per grid point."""
    _require_models(strata, odds, "odds")
    center = spec.resolved_center(ds.d)
    values = pool_odds(ds, strata, odds)
    fvals = f(ds.L[strata.complete_mask])
    ests = []
    for m in grid:
        wt = weight_table(ds, strata, values, tilt=(spec.resolved_delta(ds.d, m), center))
        denom = float(wt.total.sum())
        if denom == 0.0:
            raise DegenerateNormalizationError("tilted weight sum is zero: no complete-primary records")
        ests.append(float(fvals @ wt.total / denom))
    return ests


@dataclass
class SensitivityCurve:
    functional: str
    deltas: list            # effective per-coordinate delta per grid point
    multipliers: list
    estimates: list
    ci_lower: list
    ci_upper: list
    B: int | None = None
    seed: int | None = None
    n_failed: int = 0
    failures: dict = field(default_factory=dict)   # AccmvError subclass name -> count
    meta: dict = field(default_factory=dict)

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
    keep: dict | None = None,
    level: float = 0.95,
) -> SensitivityCurve:
    """Tilted estimates over the multiplier grid, sharing the supplied odds
    fits across grid points.  With B >= 2, a case bootstrap (see
    `inference.replicate`) refits the odds inside every replicate and
    evaluates the whole grid on it; normal-based intervals from the
    per-point replicate spread are attached."""
    if not spec.grid:
        raise ConfigError("sweep needs a nonempty grid")
    z = critical_value(level)
    grid = list(spec.grid)
    ests = _tilted_grid(ds, strata, odds, f, spec, grid)
    lo = [float("nan")] * len(grid)
    hi = [float("nan")] * len(grid)
    failures = {}
    if B >= 2:
        reps, failures = replicate(
            ds, strata,
            lambda d, s: _tilted_grid(d, s, fit_all_odds(d, s, n_min=n_min, keep=keep), f, spec, grid),
            B, seed, what="sweep",
        )
        se = np.asarray(reps).std(axis=0, ddof=1)
        lo = [float(e - z * s) for e, s in zip(ests, se)]
        hi = [float(e + z * s) for e, s in zip(ests, se)]
    return SensitivityCurve(
        functional=f.describe(),
        deltas=[spec.resolved_delta(ds.d, m).tolist() for m in grid],
        multipliers=grid,
        estimates=ests,
        ci_lower=lo,
        ci_upper=hi,
        B=B or None,
        seed=seed if B else None,
        n_failed=sum(failures.values()),
        failures=failures,
        meta={"center": spec.resolved_center(ds.d).tolist(), "level": level},
    )
