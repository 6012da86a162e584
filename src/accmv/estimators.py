"""Point estimators for theta = E[f(L)] under available complete-case
identification.

All four estimators are one augmented formula over pattern-pair strata.
Strata with all primaries observed contribute their empirical mean directly;
every other stratum contributes its regression plug-in plus the
odds-weighted regression residual over its pool (MR).  IPW is that formula
with the regression set to zero, RA with the odds set to zero, and the
complete-case mean is the IPW with no odds model, divided by its own weight
total.  One pass over the pairs gives the estimate and, on a unit-frequency
index, its influence vector.  Strata absent from the data contribute no term
and require no model.  Every entry that reads models checks them once, in
`_require_models`, and the readers past it trust them.  Which complete records
lie in the pool of a pattern is decided by `StratumIndex.pool` alone; the
kernel and the weight tables read it through each pair's view.  Every sum
over records counts each record by its frequency in the stratum index, so
the same code serves the data and its frequency-weighted resamples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import Dataset, Functional, StratumIndex
from .errors import ConfigError, InferenceError, PositivityError
from .glm import (OddsModel, OutcomeModel, PairView, complete_values, incomplete_views, odds_correction, read_outcome,
                  view_values)

@dataclass
class WeightTable:
    """Total weight 1 + Q per record with all primaries observed, times the
    record's frequency.

    Q sums the fitted odds of every modeled pair (tau, a) with tau dominated
    by the record's auxiliary pattern.
    """

    rows: np.ndarray                      # positions of the complete-primary records
    total: np.ndarray                     # frequency * (1 + Q) per such record

    def diagnostics(self) -> dict:
        w = self.total
        return {
            "n_complete": int(w.size),
            "w_min": float(w.min()) if w.size else None,
            "w_max": float(w.max()) if w.size else None,
            "w_mean": float(w.mean()) if w.size else None,
            "ess": float(w.sum() ** 2 / (w @ w)) if w.size else 0.0,
        }


def compute_weights(ds: Dataset, strata: StratumIndex, odds: dict | None) -> WeightTable:
    """The complete-case weight table from the odds models of the pairs
    present in `strata`; every pair present with incomplete primaries needs
    a model, and `odds` None means zero odds in every pair."""
    views = _require_models(ds, strata, odds, "odds")
    rows = np.flatnonzero(strata.complete_mask)
    total = np.ones(ds.n)
    for view in views:
        total[view.pool] += view_values(odds[view.pair.key], view, "pool")
    return WeightTable(rows=rows, total=total[rows] * strata.weights(rows))


@dataclass
class InfluenceVector:
    """Centered per-record influence values of an estimate."""

    values: np.ndarray

    @property
    def se(self) -> float:
        v = self.values
        return float(np.sqrt(np.mean((v - v.mean()) ** 2) / v.size))


def weighted_score_influence(ds, strata, odds, s, tilt=None, correct=True) -> np.ndarray:
    """Uncentered influence values, before the inverse Jacobian, of the
    weighted equation sum over the complete records of (1 + sum O t) s = 0:
    the score columns `s` (zero off the complete records) plus each pair's
    pool terms s O t and, with `correct`, its fitted odds model's correction.
    `tilt` maps a pair key to t on its pool, else t = 1.  Unit frequencies only."""
    views = _require_models(ds, strata, odds, "odds")
    if strata.freq is not None:
        raise ConfigError("influence values are defined for unit frequencies only, not on a reweighted index")
    u = s.copy()
    for view in views:
        model = odds[view.pair.key]
        ot = view_values(model, view, "pool") * (1.0 if tilt is None else tilt[view.pair.key])
        so = (s[view.pool].T * ot).T
        inc = (odds_correction(model, so) if correct and isinstance(model, OddsModel)
               else np.zeros((view.rows.size, *s.shape[1:])))
        inc[view.case.size:] += so
        u[view.rows] += inc           # case and pool rows are distinct
    return u


def self_normalized_influence(ds, strata, odds, f, theta, total, tilt=None) -> InfluenceVector:
    """Influence values of theta = sum w f / total, the root of sum w (f - theta) = 0
    with weights w = 1 + sum O t totalling `total`: the kernel on f - theta, times n / total."""
    n_complete = np.count_nonzero(strata.complete_mask)
    if n_complete < 2:                # with one, every value is 0
        raise InferenceError(f"self-normalized influence values need at least 2 complete records, got {n_complete}")
    s = np.where(strata.complete_mask, complete_values(ds, strata, f) - theta, 0.0)
    return InfluenceVector(weighted_score_influence(ds, strata, odds, s, tilt) * (ds.n / total))


@dataclass
class ThetaEstimate:
    """Point estimate with its exact per-stratum decomposition.

    `influence` holds the per-record influence values of an estimate on a
    unit-frequency index; it stays out of serialized reports.
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


def _require_models(ds: Dataset, strata: StratumIndex, models: dict | None, family: str) -> tuple[PairView, ...]:
    """The views of the incomplete pairs present in `strata` (see `glm.incomplete_views`),
    each of which needs a model of `family` ("odds" or "outcome") in `models`:
    a fit of that family fitted on that view, or an oracle with `predict`, else
    ConfigError.  None stands for no model (a zero term) in every pair, and lists no view."""
    if models is None:
        strata.check_dataset(ds)
        return ()
    views = incomplete_views(ds, strata)
    own, other = (OddsModel, OutcomeModel) if family == "odds" else (OutcomeModel, OddsModel)
    for view in views:
        model = models.get(view.pair.key)
        if model is None:
            raise ConfigError(f"no {family} model supplied for stratum {view.pair} present in the data")
        if isinstance(model, other) or not (isinstance(model, own) or hasattr(model, "predict")):
            raise ConfigError(f"{view.pair}: {type(model).__name__} is neither a fitted {family} model nor an oracle")
        if isinstance(model, own) and model.view is not view:
            raise ConfigError(f"{view.pair}: a fitted model is read only on the stratum index it was fitted on")
    return views


class _Walk(NamedTuple):
    sums: dict                  # (str(r), str(a)) -> raw stratum sum
    augmentation: float         # summed odds-weighted residuals
    influence: np.ndarray | None


def _pair_terms(view, fmap, gm, om, influence):
    """Stratum term, augmentation and, with `influence`, the one increment
    over `view.rows` that the pair of `view` adds to the influence vector
    under odds `gm` and regression `om`, either of which may be None: the
    regression on the case rows, the odds-weighted residual and the outcome
    fit's correction on the pool rows, and the odds fit's correction on both."""
    n = view.ds.n
    term, aug = 0.0, 0.0
    if om is not None:
        m = read_outcome(om, view, fmap, pool=gm is not None or (influence and isinstance(om, OutcomeModel)))
        term = (m.case * view.w_case).sum()
    if gm is not None:
        o_pool = view_values(gm, view, "pool")
        resid = fmap[view.pool]
        if om is not None:
            resid = resid - m.pool
        aug = (resid * view.w_pool) @ o_pool
        term = aug + term
    if not influence:
        return term, aug, None
    # the case rows lead `view.rows` and the pool rows follow
    inc = np.zeros(view.rows.size)
    case, pool = inc[:view.case.size], inc[view.case.size:]
    if om is not None:
        case += m.case
    if gm is not None:
        ro = resid * o_pool
        pool += ro
    if isinstance(om, OutcomeModel):
        # the gradient in beta of the case-row sum of m, less the odds-weighted pool sum
        Zm = om.design
        grad = Zm.case.T @ m.factor_case
        if gm is not None:
            grad = grad - Zm.pool.T @ (m.factor_pool * o_pool)
        pool += m.score * (Zm.pool @ (om.gram_inv @ (grad / n)))
    if isinstance(gm, OddsModel):
        inc += odds_correction(gm, ro)
    inc.flags.writeable = False
    return term, aug, inc


def _walk(ds, strata, f, odds=None, outcomes=None, influence=False) -> _Walk:
    """One pass over the pattern pairs for the augmented estimator.

    An incomplete pair (r, a) contributes  sum_case m + sum_pool (f - m) O,
    with the odds O taken as zero when `odds` is None (regression adjustment)
    and the regression m as zero when `outcomes` is None (weighting).  A pair's
    terms are computed once per pair of models and kept on a model, which is
    read only on its own view, so walks that share models share them, and every
    sum counts records by their frequency.  A fitted outcome model serves only
    the functional it was fitted for, else ConfigError; odds models serve any.
    With neither family given the incomplete pairs are skipped, leaving the
    complete-case sums.  Returns the raw sum of every stratum, complete strata
    first, the summed augmentation terms, and with `influence` the uncentered
    influence values (f on complete records plus each pair's one increment
    over its case and pool rows, which holds the pair's terms and one
    correction per fitted model).
    """
    odds_views = _require_models(ds, strata, odds, "odds")
    views = _require_models(ds, strata, outcomes, "outcome") or odds_views
    if influence and strata.freq is not None:
        raise ConfigError("influence values are defined for unit frequencies only, not on a reweighted index")
    fmap = complete_values(ds, strata, f)
    sums = {}
    for pr in strata.pairs():
        if pr.a.value == ds.complete_code:
            rows = strata.stratum(pr)
            sums[pr.label] = (fmap[rows] * strata.weights(rows)).sum()
    phi = fmap.copy() if influence else None
    aug_total = 0.0
    for view in views:
        pr = view.pair
        gm = odds[pr.key] if odds is not None else None
        om = outcomes[pr.key] if outcomes is not None else None
        # kept by the odds model, else the regression, once per functional;
        # the key holds no model that holds it, so no reference cycle forms
        owner = gm if gm is not None else om
        pieces = owner.pieces if isinstance(owner, (OddsModel, OutcomeModel)) else {}    # oracles keep nothing
        key = (om if gm is not None else None, influence)
        if pieces.get(key, (None,))[0] is not f:
            if isinstance(om, OutcomeModel) and om.f != f:
                raise ConfigError(f"{pr}: the outcome model was fitted for {om.f.describe()}, not {f.describe()}")
            pieces[key] = (f, _pair_terms(view, fmap, gm, om, influence))
        term, aug, inc = pieces[key][1]
        sums[pr.label] = term
        aug_total += aug
        if inc is not None:
            phi[view.rows] += inc         # case and pool rows are distinct
    return _Walk(sums, aug_total, phi)


def _estimate(ds, method, walk, denom, **extra) -> ThetaEstimate:
    sums, _, phi = walk
    per = {k: float(v / denom) for k, v in sums.items()}
    theta = float(sum(per.values()))
    # phi is the walk's own array, so it is centred in place
    iv = InfluenceVector(np.subtract(phi, theta, out=phi)) if phi is not None else None
    return ThetaEstimate(theta_hat=theta, method=method, per_stratum=per, n=ds.n, influence=iv, **extra)


def estimate_ipw(
    ds: Dataset,
    strata: StratumIndex,
    odds: dict | None,
    f: Functional,
    self_normalize: bool = False,
) -> ThetaEstimate:
    """Weight the complete-primary records by 1 + Q and average f.

    The default divisor is n; with self_normalize=True the sum of weights is
    used instead, which is the convention the tilted sensitivity estimator
    mandates; its influence values are then `self_normalized_influence`.
    """
    walk = _walk(ds, strata, f, odds=odds, influence=strata.freq is None and not self_normalize)
    wt = compute_weights(ds, strata, odds)
    denom = float(wt.total.sum()) if self_normalize else float(ds.n)
    if denom == 0.0:
        raise PositivityError("no records with all primary variables observed")
    est = _estimate(ds, "ipw", walk, denom, self_normalized=self_normalize, diagnostics=wt.diagnostics())
    if self_normalize and strata.freq is None:
        est.influence = self_normalized_influence(ds, strata, odds, f, est.theta_hat, denom)
    return est


def estimate_ra(ds: Dataset, strata: StratumIndex, outcomes: dict, f: Functional) -> ThetaEstimate:
    """Average f over complete-primary records and the fitted regression
    prediction over every other record."""
    return _estimate(ds, "ra", _walk(ds, strata, f, outcomes=outcomes, influence=strata.freq is None), ds.n)


def estimate_mr(ds: Dataset, strata: StratumIndex, odds: dict, outcomes: dict, f: Functional) -> ThetaEstimate:
    """Augmented estimator: per stratum, the regression plug-in plus the
    odds-weighted residual of the regression over the pool.  Consistent when,
    pattern by pattern, either nuisance model is correct."""
    return _estimate(ds, "mr", _walk(ds, strata, f, odds=odds, outcomes=outcomes, influence=strata.freq is None), ds.n)


def estimate_complete_case(ds: Dataset, strata: StratumIndex, f: Functional) -> ThetaEstimate:
    """Mean of f over records with all primary variables observed: the
    self-normalized IPW with no odds model, reported as its own method."""
    est = estimate_ipw(ds, strata, None, f, self_normalize=True)
    n_complete = int(strata.weights(np.flatnonzero(strata.complete_mask)).sum())
    return replace(est, method="complete_case", self_normalized=False, diagnostics={"n_complete": n_complete})


def augmentation_mean(ds, strata, odds, outcomes, f) -> float:
    """Mean of the odds-weighted regression residuals; the exact gap between
    the MR and RA estimates built from the same models."""
    return float(_walk(ds, strata, f, odds=odds, outcomes=outcomes).augmentation / ds.n)
