"""Point estimators for theta = E[f(L)] under available complete-case
identification.

All three estimators decompose theta over pattern-pair strata.  Strata with
all primaries observed contribute their empirical mean directly; every other
stratum is handled through its fitted odds (IPW), its fitted outcome
regression (RA), or the augmented combination of both (MR).  Strata absent
from the data contribute no term and require no model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Functional, StratumIndex
from .errors import ConfigError, PositivityError
from .glm import pair_view
from .patterns import Pattern, PatternPair

TILT_CLAMP = 30.0


@dataclass
class WeightTable:
    """Total weight 1 + Q per record with all primaries observed.

    Q sums the fitted odds of every modeled pair (tau, a) with tau dominated
    by the record's auxiliary pattern; the per-pair contributions are kept
    for diagnostics.
    """

    rows: np.ndarray                      # positions of the complete-primary records
    total: np.ndarray                     # 1 + Q per such record
    contrib: dict = field(default_factory=dict)   # (r, a) key -> contribution vector

    def diagnostics(self) -> dict:
        w = self.total
        return {
            "n_complete": int(w.size),
            "w_min": float(w.min()) if w.size else None,
            "w_max": float(w.max()) if w.size else None,
            "w_mean": float(w.mean()) if w.size else None,
            "ess": float(w.sum() ** 2 / (w @ w)) if w.size else 0.0,
        }


def compute_weights(ds: Dataset, strata: StratumIndex, odds: dict, tilt=None) -> WeightTable:
    """Build the complete-case weight table from fitted odds models.

    `tilt` is an optional (delta, center) pair of length-d vectors; each
    odds contribution for pair (tau, a) is then multiplied by
    exp(delta restricted to the coordinates a leaves unobserved, centered).
    """
    rows = np.flatnonzero(ds.complete_mask)
    table = WeightTable(rows=rows, total=np.ones(rows.size))
    if not odds:
        return table
    r_codes = ds.r_codes[rows]
    for key in sorted(odds):
        model = odds[key]
        pr = PatternPair(Pattern(key[0], ds.p), Pattern(key[1], ds.d))
        assert pr.a.value != ds.complete_code, "odds models exist only for incomplete primary patterns"
        sel = (r_codes & pr.r.value) == pr.r.value     # complete rows in the pool of r
        vals = np.zeros(rows.size)
        if sel.any():
            view = pair_view(ds, strata, pr)
            v = model.predict(view.xr_pool, view.la_pool)
            if tilt is not None:
                delta, center = tilt
                miss = [j for j in range(ds.d) if j not in pr.a.indices]
                expo = (ds.L[np.ix_(view.pool, miss)] - np.asarray(center)[miss]) @ np.asarray(delta)[miss]
                v = v * np.exp(np.clip(expo, -TILT_CLAMP, TILT_CLAMP))
            vals[sel] = v
        table.contrib[key] = vals
        table.total += vals
    return table


@dataclass
class ThetaEstimate:
    """Point estimate with its exact per-stratum decomposition.

    `influence` holds per-record influence values once a variance routine has
    attached them; it stays out of serialized reports.
    """

    theta_hat: float
    method: str
    per_stratum: dict                     # (str(r), str(a)) -> contribution
    n: int
    self_normalized: bool = False
    diagnostics: dict | None = None
    influence: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "estimate": self.theta_hat,
            "method": self.method,
            "n": self.n,
            "self_normalized": self.self_normalized,
            "per_stratum": {f"r={r},a={a}": v for (r, a), v in sorted(self.per_stratum.items())},
            "diagnostics": self.diagnostics,
        }


def _require_models(strata: StratumIndex, models: dict, family: str) -> list[PatternPair]:
    pairs = strata.incomplete_pairs()
    for pr in pairs:
        if pr.key not in models:
            raise ConfigError(f"no {family} model supplied for stratum {pr} present in the data")
    return pairs


def _complete_terms(ds, strata, f, denom) -> dict:
    out = {}
    for pr in strata.pairs():
        if pr.a.value != ds.complete_code:
            continue
        rows = strata.stratum(pr)
        out[(str(pr.r), str(pr.a))] = float(f(ds.L[rows]).sum() / denom)
    return out


def estimate_ipw(
    ds: Dataset,
    strata: StratumIndex,
    odds: dict,
    f: Functional,
    self_normalize: bool = False,
) -> ThetaEstimate:
    """Weight the complete-primary records by 1 + Q and average f.

    The default divisor is n; with self_normalize=True the sum of weights is
    used instead, which is the convention the tilted sensitivity estimator
    mandates.
    """
    pairs = _require_models(strata, odds, "odds")
    wt = compute_weights(ds, strata, odds)
    fvals = f(ds.L[wt.rows]) if wt.rows.size else np.empty(0)
    denom = float(wt.total.sum()) if self_normalize else float(ds.n)
    if denom == 0.0:
        raise PositivityError("no records with all primary variables observed")
    per = _complete_terms(ds, strata, f, denom)
    for pr in pairs:
        per[(str(pr.r), str(pr.a))] = float(fvals @ wt.contrib[pr.key] / denom)
    return ThetaEstimate(
        theta_hat=float(sum(per.values())),
        method="ipw",
        per_stratum=per,
        n=ds.n,
        self_normalized=self_normalize,
        diagnostics=wt.diagnostics(),
    )


def estimate_ra(ds: Dataset, strata: StratumIndex, outcomes: dict, f: Functional) -> ThetaEstimate:
    """Average f over complete-primary records and the fitted regression
    prediction over every other record."""
    pairs = _require_models(strata, outcomes, "outcome")
    per = _complete_terms(ds, strata, f, ds.n)
    for pr in pairs:
        view = pair_view(ds, strata, pr)
        m = outcomes[pr.key].predict(view.xr_case, view.la_case)
        per[(str(pr.r), str(pr.a))] = float(m.sum() / ds.n)
    return ThetaEstimate(
        theta_hat=float(sum(per.values())), method="ra", per_stratum=per, n=ds.n
    )


def estimate_mr(
    ds: Dataset, strata: StratumIndex, odds: dict, outcomes: dict, f: Functional
) -> ThetaEstimate:
    """Augmented estimator: per stratum, the regression plug-in plus the
    odds-weighted residual of the regression over the pool.  Consistent when,
    pattern by pattern, either nuisance model is correct."""
    pairs = _require_models(strata, odds, "odds")
    _require_models(strata, outcomes, "outcome")
    per = _complete_terms(ds, strata, f, ds.n)
    for pr in pairs:
        om, gm = outcomes[pr.key], odds[pr.key]
        view = pair_view(ds, strata, pr)
        xr_p, la_p = view.xr_pool, view.la_pool
        aug = (f(ds.L[view.pool]) - om.predict(xr_p, la_p)) @ gm.predict(xr_p, la_p)
        plug = om.predict(view.xr_case, view.la_case).sum()
        per[(str(pr.r), str(pr.a))] = float((aug + plug) / ds.n)
    return ThetaEstimate(
        theta_hat=float(sum(per.values())), method="mr", per_stratum=per, n=ds.n
    )


def estimate_complete_case(ds: Dataset, f: Functional) -> ThetaEstimate:
    """Sample mean of f over records with all primary variables observed."""
    rows = np.flatnonzero(ds.complete_mask)
    if rows.size == 0:
        raise PositivityError("no records with all primary variables observed")
    fvals = f(ds.L[rows])
    per = {}
    r_codes = ds.r_codes[rows]
    for rv in sorted(set(r_codes.tolist())):
        sel = r_codes == rv
        per[(str(Pattern(rv, ds.p)), str(Pattern(ds.complete_code, ds.d)))] = float(
            fvals[sel].sum() / rows.size
        )
    return ThetaEstimate(
        theta_hat=float(sum(per.values())),
        method="complete_case",
        per_stratum=per,
        n=ds.n,
        diagnostics={"n_complete": int(rows.size)},
    )


def augmentation_mean(ds, strata, odds, outcomes, f) -> float:
    """Mean of the odds-weighted regression residuals; the exact gap between
    the MR and RA estimates built from the same models."""
    total = 0.0
    for pr in strata.incomplete_pairs():
        view = pair_view(ds, strata, pr)
        xr, la = view.xr_pool, view.la_pool
        total += float((f(ds.L[view.pool]) - outcomes[pr.key].predict(xr, la)) @ odds[pr.key].predict(xr, la))
    return total / ds.n

