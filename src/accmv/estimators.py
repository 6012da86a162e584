"""Point estimators for theta = E[f(L)] under available complete-case
identification.

All three estimators are one augmented formula over pattern-pair strata.
Strata with all primaries observed contribute their empirical mean directly;
every other stratum contributes its regression plug-in plus the
odds-weighted regression residual over its pool (MR).  IPW is that formula
with the regression set to zero, RA with the odds set to zero.  One pass
over the pairs gives the estimate and, on request, its influence vector.
Strata absent from the data contribute no term and require no model.  Every
sum over records counts each record by its frequency in the stratum index,
so the same code serves the data and its frequency-weighted resamples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import Dataset, Functional, StratumIndex
from .errors import ConfigError, PositivityError
from .glm import fitted, odds_score_rows, outcome_residual_rows, pair_view, view_values
from .patterns import Pattern, PatternPair

TILT_CLAMP = 30.0


@dataclass
class WeightTable:
    """Total weight 1 + Q per record with all primaries observed, times the
    record's frequency.

    Q sums the fitted odds of every modeled pair (tau, a) with tau dominated
    by the record's auxiliary pattern; the per-pair contributions are kept
    for diagnostics.
    """

    rows: np.ndarray                      # positions of the complete-primary records
    total: np.ndarray                     # frequency * (1 + Q) per such record
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


def pool_odds(ds: Dataset, strata: StratumIndex, odds: dict) -> list:
    """(view, odds on the pool) for every pair present with a model in `odds`,
    each model evaluated once."""
    out = []
    for pr in strata.incomplete_pairs():
        if pr.key in odds:
            view = pair_view(ds, strata, pr)
            out.append((view, view_values(odds[pr.key], view, "pool")))
    return out


def weight_table(ds: Dataset, strata: StratumIndex, values: list, tilt=None) -> WeightTable:
    """Complete-case weight table from the pool odds values of `pool_odds`.

    `tilt` is an optional (delta, center) pair of length-d vectors; each
    odds contribution for pair (tau, a) is then multiplied by
    exp(delta restricted to the coordinates a leaves unobserved, centered).
    """
    rows = np.flatnonzero(strata.complete_mask)
    table = WeightTable(rows=rows, total=np.ones(rows.size))
    r_codes = ds.r_codes[rows]
    for view, v in values:
        pr = view.pair
        if tilt is not None:
            delta, center = tilt
            miss = [j for j in range(ds.d) if j not in pr.a.indices]
            expo = (ds.L[np.ix_(view.pool, miss)] - np.asarray(center)[miss]) @ np.asarray(delta)[miss]
            v = v * np.exp(np.clip(expo, -TILT_CLAMP, TILT_CLAMP))
        vals = np.zeros(rows.size)
        vals[(r_codes & pr.r.value) == pr.r.value] = v     # complete rows in the pool of r
        table.contrib[pr.key] = vals
        table.total += vals
    table.total *= strata.weights(rows)
    return table


def compute_weights(ds: Dataset, strata: StratumIndex, odds: dict, tilt=None) -> WeightTable:
    """Build the complete-case weight table from fitted odds models of the
    pairs present in `strata`; see `weight_table` for `tilt`."""
    assert all(a != ds.complete_code for _, a in odds), "odds models exist only for incomplete primary patterns"
    return weight_table(ds, strata, pool_odds(ds, strata, odds), tilt)


@dataclass
class InfluenceVector:
    """Centered per-record influence values of an estimate."""

    values: np.ndarray
    method: str

    @property
    def se(self) -> float:
        v = self.values
        return float(np.sqrt(np.mean((v - v.mean()) ** 2) / v.size))


@dataclass
class ThetaEstimate:
    """Point estimate with its exact per-stratum decomposition.

    `influence` holds the per-record influence values when the estimate was
    asked for them; it stays out of serialized reports.
    """

    theta_hat: float
    method: str
    per_stratum: dict                     # (str(r), str(a)) -> contribution
    n: int
    self_normalized: bool = False
    diagnostics: dict | None = None
    influence: InfluenceVector | None = None

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


class _Walk(NamedTuple):
    sums: dict                  # (str(r), str(a)) -> raw stratum sum
    augmentation: float         # summed odds-weighted residuals
    influence: np.ndarray | None
    pool_odds: list             # (view, odds on the pool) per pair, as `pool_odds` returns


def _walk(ds, strata, f, odds=None, outcomes=None, influence=False) -> _Walk:
    """One pass over the pattern pairs for the augmented estimator.

    An incomplete pair (r, a) contributes  sum_case m + sum_pool (f - m) O,
    with the odds O taken as zero when `odds` is None (regression adjustment)
    and the regression m as zero when `outcomes` is None (weighting).  Each
    model is evaluated once per pair, and every sum counts records by their
    frequency.  Returns the raw sum of every stratum, complete strata first,
    the summed augmentation terms, with `influence` the uncentered influence
    values (f on complete records, the per-pair terms on their records, and
    one correction per fitted model), and the odds values on the pools.
    """
    if influence and strata.freq is not None:
        raise ConfigError("influence values are defined for unit frequencies only, not on a reweighted index")
    if odds is not None:
        _require_models(strata, odds, "odds")
    if outcomes is not None:
        _require_models(strata, outcomes, "outcome")
    n = ds.n
    complete = np.flatnonzero(strata.complete_mask)
    fmap = np.zeros(n)
    if complete.size:
        fmap[complete] = f(ds.L[complete])
    sums = {}
    for pr in strata.pairs():
        if pr.a.value == ds.complete_code:
            rows = strata.stratum(pr)
            sums[(str(pr.r), str(pr.a))] = (fmap[rows] * strata.weights(rows)).sum()
    phi = fmap.copy() if influence else None
    aug_total = 0.0
    values = []
    for pr in strata.incomplete_pairs():
        view = pair_view(ds, strata, pr)
        gm = odds[pr.key] if odds is not None else None
        om = outcomes[pr.key] if outcomes is not None else None
        term = 0.0
        if om is not None:
            m_case = view_values(om, view, "case")
            term = (m_case * view.w_case).sum()
        if gm is not None:
            o_pool = view_values(gm, view, "pool")
            values.append((view, o_pool))
            resid = fmap[view.pool]
            if om is not None:
                resid = resid - view_values(om, view, "pool")
            aug = (resid * view.w_pool) @ o_pool
            aug_total += aug
            term = aug + term
        sums[(str(pr.r), str(pr.a))] = term
        if not influence:
            continue
        if gm is not None:
            ro = resid * o_pool
            phi[view.pool] += ro
        if om is not None:
            phi[view.case] += m_case
        if fitted(om):
            Zm = view.design(om.keep)
            grad = Zm.case.T @ om.scale_values(view.la_case, pr.a)
            if gm is not None:
                grad = grad - Zm.pool.T @ (om.scale_values(view.la_pool, pr.a) * o_pool)
            pool, Z, res = outcome_residual_rows(ds, strata, om, f)
            phi[pool] += res * (Z @ (om.gram_inv @ (grad / n)))
        if fitted(gm):
            grad = view.design(gm.keep).pool.T @ ro / n
            rows, Z, res = odds_score_rows(ds, strata, gm)
            phi[rows] += res * (Z @ (gm.info_inv @ grad))
    return _Walk(sums, aug_total, phi, values)


def _estimate(ds, method, walk, denom, **extra) -> ThetaEstimate:
    sums, _, phi, _ = walk
    per = {k: float(v / denom) for k, v in sums.items()}
    theta = float(sum(per.values()))
    iv = InfluenceVector(phi - theta, method) if phi is not None else None
    return ThetaEstimate(theta_hat=theta, method=method, per_stratum=per, n=ds.n, influence=iv, **extra)


def estimate_ipw(
    ds: Dataset,
    strata: StratumIndex,
    odds: dict,
    f: Functional,
    self_normalize: bool = False,
    influence: bool = False,
) -> ThetaEstimate:
    """Weight the complete-primary records by 1 + Q and average f.

    The default divisor is n; with self_normalize=True the sum of weights is
    used instead, which is the convention the tilted sensitivity estimator
    mandates.  The influence vector exists for the divisor n only.
    """
    if self_normalize and influence:
        raise ConfigError("no influence-function SE for the self-normalized IPW estimate")
    walk = _walk(ds, strata, f, odds=odds, influence=influence)
    wt = weight_table(ds, strata, walk.pool_odds)
    denom = float(wt.total.sum()) if self_normalize else float(ds.n)
    if denom == 0.0:
        raise PositivityError("no records with all primary variables observed")
    return _estimate(ds, "ipw", walk, denom, self_normalized=self_normalize, diagnostics=wt.diagnostics())


def estimate_ra(
    ds: Dataset, strata: StratumIndex, outcomes: dict, f: Functional, influence: bool = False
) -> ThetaEstimate:
    """Average f over complete-primary records and the fitted regression
    prediction over every other record."""
    return _estimate(ds, "ra", _walk(ds, strata, f, outcomes=outcomes, influence=influence), ds.n)


def estimate_mr(
    ds: Dataset, strata: StratumIndex, odds: dict, outcomes: dict, f: Functional,
    influence: bool = False,
) -> ThetaEstimate:
    """Augmented estimator: per stratum, the regression plug-in plus the
    odds-weighted residual of the regression over the pool.  Consistent when,
    pattern by pattern, either nuisance model is correct."""
    return _estimate(ds, "mr", _walk(ds, strata, f, odds=odds, outcomes=outcomes, influence=influence), ds.n)


def estimate_complete_case(ds: Dataset, strata: StratumIndex, f: Functional) -> ThetaEstimate:
    """Sample mean of f over records with all primary variables observed."""
    rows = np.flatnonzero(strata.complete_mask)
    if rows.size == 0:
        raise PositivityError("no records with all primary variables observed")
    w = strata.weights(rows)
    fvals = f(ds.L[rows]) * w
    n_complete = int(w.sum())
    per = {}
    r_codes = ds.r_codes[rows]
    for rv in sorted(set(r_codes.tolist())):
        sel = r_codes == rv
        per[(str(Pattern(rv, ds.p)), str(Pattern(ds.complete_code, ds.d)))] = float(
            fvals[sel].sum() / n_complete
        )
    return ThetaEstimate(
        theta_hat=float(sum(per.values())),
        method="complete_case",
        per_stratum=per,
        n=ds.n,
        diagnostics={"n_complete": n_complete},
    )


def augmentation_mean(ds, strata, odds, outcomes, f) -> float:
    """Mean of the odds-weighted regression residuals; the exact gap between
    the MR and RA estimates built from the same models."""
    return float(_walk(ds, strata, f, odds=odds, outcomes=outcomes).augmentation / ds.n)
