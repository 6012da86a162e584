"""Marginal parametric models for the primary vector.

Parameters defined by a population estimating equation 0 = E[s(theta | L)]
are estimated by weighting the per-record estimating function of each
complete-primary record with its total odds weight 1 + Q and solving the
weighted sample equation, in closed form for both score kinds.  Only the
odds-weighted route is offered here: outcome-regression adjustments would
impose a conditional model on part of L given the rest and can contradict
the marginal model (a congeniality conflict), so requesting them raises.

The sandwich covariance follows the asymptotic linear expansion of the
weighted root, including one correction term per estimated odds model; a
naive variant drops those corrections for diagnostics.  Its per-record
values come from `estimators.weighted_score_influence`, the kernel that the
self-normalized IPW and the tilting sweep share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, StratumIndex, check_integer
from .errors import CongenialityError, ConfigError, NonConvergenceError, SingularityError
from .estimators import WeightTable, compute_weights, weighted_score_influence
from .inference import normal_ci

EE_TOL = 1e-8


@dataclass(frozen=True)
class ScoreSpec:
    """Estimating-function specification.

    kind "linear": least-squares score for the regression of one primary
    coordinate on others, intercept included; theta = (intercept, slopes).

    kind "gaussian": joint mean/covariance moment score for L, with the
    covariance parameterized through its lower-triangular factor
    (log-parameterized diagonal) so every theta gives a positive definite
    covariance; theta = (mu, factor parameters).
    """

    kind: str
    response: int | None = None
    predictors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("linear", "gaussian"):
            raise ConfigError(f"unknown score kind {self.kind!r}")
        if self.kind == "linear":
            if self.response is None or not self.predictors:
                raise ConfigError("linear score needs a response coordinate and predictors")
            for j in (self.response, *self.predictors):
                check_integer("a score coordinate", j)
            if self.response in self.predictors:
                raise ConfigError("response coordinate cannot also be a predictor")

    def q(self, d: int) -> int:
        return 1 + len(self.predictors) if self.kind == "linear" else d + d * (d + 1) // 2

    def coef_names(self, l_names) -> list[str]:
        if self.kind == "linear":
            return ["intercept", *(l_names[j] for j in self.predictors)]
        d = len(l_names)
        return [f"mu_{name}" for name in l_names] + [f"c_{i+1}{j+1}" for i, j in zip(*np.tril_indices(d))]

    def describe(self, l_names) -> str:
        if self.kind == "linear":
            return f"{l_names[self.response]} ~ " + " + ".join(l_names[j] for j in self.predictors)
        return "gaussian mean/covariance"

    # -- linear pieces ------------------------------------------------------
    def _zmat(self, L):
        return np.hstack([np.ones((L.shape[0], 1)), L[:, list(self.predictors)]])

    # -- gaussian pieces ----------------------------------------------------
    # The factor's parameters run over np.tril_indices(d), row by row; exp and
    # log touch its diagonal only, since exp of an off-diagonal entry can overflow.

    def _factor(self, theta, d):
        C = np.zeros((d, d))
        C[np.tril_indices(d)] = theta[d:]
        C[np.diag_indices(d)] = np.exp(np.diag(C))
        return C

    def score(self, theta, L) -> np.ndarray:
        """Per-record estimating functions, shape (m, q)."""
        L = np.atleast_2d(L)
        if self.kind == "linear":
            Z = self._zmat(L)
            resid = L[:, self.response] - Z @ theta
            return Z * resid[:, None]
        d = L.shape[1]
        C = self._factor(theta, d)
        dev = L - theta[:d]
        i, j = np.tril_indices(d)
        return np.hstack([dev, dev[:, i] * dev[:, j] - (C @ C.T)[i, j]])

    def jacobian_sum(self, theta, L, w) -> np.ndarray:
        """Sum over records of w_i * (d s / d theta), shape (q, q)."""
        L = np.atleast_2d(L)
        w = np.asarray(w, dtype=float)
        if self.kind == "linear":
            Z = self._zmat(L)
            return -(Z * w[:, None]).T @ Z
        d = L.shape[1]
        i, j = np.tril_indices(d)
        k = np.arange(i.size)
        C = self._factor(theta, d)
        sw = float(w.sum())
        swdev = w @ (L - theta[:d])
        J = np.zeros((self.q(d), self.q(d)))
        J[:d, :d] = -sw * np.eye(d)
        # d/d mu of dev_i*dev_j - sigma_ij, summed with weights
        J[d + k, i] -= swdev[j]
        J[d + k, j] -= swdev[i]
        # d sigma / d C_ab = dC C' + C dC' with dC = e_a e_b', record independent;
        # a diagonal parameter is log C_aa, so its derivative is scaled by C_aa
        dC = np.zeros((i.size, d, d))
        dC[k, i, j] = 1.0
        dC = dC @ C.T
        dsigma = dC + dC.transpose(0, 2, 1)
        J[d:, d:] = -sw * dsigma[:, i, j].T * np.where(i == j, C[i, j], 1.0)
        return J

    def init(self, L, w) -> np.ndarray:
        L = np.atleast_2d(L)
        w = np.asarray(w, dtype=float)
        if self.kind == "linear":
            Z = self._zmat(L)
            lhs = (Z * w[:, None]).T @ Z
            rhs = (Z * w[:, None]).T @ L[:, self.response]
            try:
                return np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError:
                raise SingularityError("singular weighted design in linear score")
        sw = w.sum()
        mu = (w @ L) / sw
        dev = L - mu
        sigma = (dev * w[:, None]).T @ dev / sw
        try:
            C = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise SingularityError("weighted covariance not positive definite")
        C[np.diag_indices(L.shape[1])] = np.log(np.diag(C))
        return np.concatenate([mu, C[np.tril_indices(L.shape[1])]])


@dataclass
class MpmEstimate:
    theta_hat: np.ndarray
    iterations: int                  # always 0: the root is in closed form
    residual: float                  # largest |sum w s_j| / sum w |s_j| over score columns
    coef_names: list[str]
    spec: ScoreSpec                  # the estimating function solved
    weights: WeightTable             # the weights it was solved with

    def wald_table(self, covariance: np.ndarray, level: float = 0.95) -> list[dict]:
        """Wald intervals of the coefficients under `covariance`."""
        ci = normal_ci(self.theta_hat, np.sqrt(np.diag(covariance)), level)
        rows = zip(self.coef_names, ci.estimate, ci.se, ci.lower, ci.upper)
        return [dict(zip(("coef", "estimate", "se", "lower", "upper"), row)) for row in rows]


def solve_weighted_ee(
    ds: Dataset,
    strata: StratumIndex,
    odds: dict | None,
    spec: ScoreSpec,
    method: str = "ipw",
) -> MpmEstimate:
    """Root of the odds-weighted estimating equation over complete-primary
    records in closed form (`ScoreSpec.init`: weighted least squares, or the
    weighted mean and covariance).  The check that it solves the equation is
    scale-free: per score column j, |sum_i w_i s_ij| <= EE_TOL * sum_i w_i |s_ij|,
    a column of zero terms counting as solved.  `odds` None weights every
    complete-primary record by its frequency alone (the complete-case fit)."""
    if method != "ipw":
        raise CongenialityError(
            f"method {method!r} is not available for marginal parametric models: outcome "
            "regressions condition one part of L on another and can conflict with the "
            "marginal model; use IPW"
        )
    for j in (spec.response, *spec.predictors) if spec.kind == "linear" else ():
        if j >= ds.d:
            raise ConfigError(f"score coordinate {j} out of range for d={ds.d}")
    wt = compute_weights(ds, strata, odds)
    Lc, w = ds.L[wt.rows], wt.total
    if Lc.shape[0] == 0:
        raise ConfigError("no complete-primary records to solve the estimating equation on")
    theta = spec.init(Lc, w)
    terms = spec.score(theta, Lc) * w[:, None]
    size = np.abs(terms).sum(axis=0)
    resid = float(np.max(np.abs(terms.sum(axis=0)) / np.where(size > 0, size, 1.0)))
    if not resid <= EE_TOL:
        raise NonConvergenceError(
            f"closed-form root leaves the weighted estimating equation unsolved "
            f"(residual ratio {resid:.3e})"
        )
    return MpmEstimate(
        theta_hat=theta,
        iterations=0,
        residual=resid,
        coef_names=spec.coef_names(ds.l_names),
        spec=spec,
        weights=wt,
    )


def sandwich_variance(
    ds: Dataset,
    strata: StratumIndex,
    odds: dict | None,
    est: MpmEstimate,
    naive: bool = False,
) -> np.ndarray:
    """Empirical sandwich covariance of the weighted estimating-equation root
    `est`, which `solve_weighted_ee` fitted with `odds` on these data.

    The combined per-record influence is `weighted_score_influence` of the
    score columns: the weighted score with, unless naive=True, a correction
    for each fitted odds model propagating its coefficient noise through the
    weights.  Every pair present with incomplete primaries needs an odds
    model, unless `odds` is None.  Defined for unit frequencies.
    """
    spec, theta_hat, wt = est.spec, est.theta_hat, est.weights
    if not np.array_equal(wt.rows, np.flatnonzero(strata.complete_mask)):
        raise ConfigError("the estimate was solved on other data: its complete-primary records differ")
    Lc, n = ds.L[wt.rows], ds.n
    s = np.zeros((n, spec.q(ds.d)))
    s[wt.rows] = spec.score(theta_hat, Lc)
    u = weighted_score_influence(ds, strata, odds, s, correct=not naive)
    A = spec.jacobian_sum(theta_hat, Lc, wt.total) / n
    u -= u.mean(axis=0)
    M = u.T @ u / n
    try:
        Ainv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        raise SingularityError("singular weighted score Jacobian in sandwich variance")
    cov = Ainv @ M @ Ainv.T / n
    return (cov + cov.T) / 2.0
