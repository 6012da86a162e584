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

from .data import Dataset, Functional, StratumIndex, check_finite
from .errors import ConfigError, DegenerateNormalizationError
from .estimators import weight_table
from .glm import fit_all_odds
from .inference import DEFAULT_LEVEL, _check_replicates, critical_value, replicate


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
    """Self-normalized IPW estimate under the tilted weights."""
    return _tilted_grid(ds, strata, odds, f, spec, [multiplier])[0]


def _tilted_grid(ds, strata, odds, f, spec: TiltSpec, grid) -> list[float]:
    """`tilted_estimate` at each multiplier of `grid`, evaluating each odds
    model once and building the weight tables of all grid points together."""
    deltas = [spec.resolved_delta(ds.d, m) for m in grid]
    tables = weight_table(ds, strata, odds, deltas, spec.resolved_center(ds.d))
    fvals = f(ds.L[strata.complete_mask])
    ests = []
    for wt in tables:
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
) -> SensitivityCurve:
    """Tilted estimates over the multiplier grid, sharing the supplied odds
    fits across grid points.  B = 0 runs no bootstrap.  With B >= 2, a case
    bootstrap (see `inference.replicate`) refits the odds inside every
    replicate and evaluates the whole grid on it; normal-based intervals at
    level `DEFAULT_LEVEL` from the per-point replicate spread are attached."""
    if not spec.grid:
        raise ConfigError("sweep needs a nonempty grid")
    _check_replicates(B, none_ok=True)
    z = critical_value(DEFAULT_LEVEL)
    grid = list(spec.grid)
    ests = _tilted_grid(ds, strata, odds, f, spec, grid)
    lo = [float("nan")] * len(grid)
    hi = [float("nan")] * len(grid)
    failures = {}
    if B:
        reps, failures = replicate(
            ds, strata,
            lambda d, s: _tilted_grid(d, s, fit_all_odds(d, s, n_min=n_min), f, spec, grid),
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
        meta={"center": spec.resolved_center(ds.d).tolist(), "level": DEFAULT_LEVEL},
    )
