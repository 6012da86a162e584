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
naive variant drops those corrections for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, StratumIndex
from .errors import CongenialityError, ConfigError, NonConvergenceError, SingularityError
from .estimators import compute_weights, weight_table
from .glm import fitted, pair_view, score_residuals, view_values
from .inference import critical_value

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
            if self.response in self.predictors:
                raise ConfigError("response coordinate cannot also be a predictor")

    def q(self, d: int) -> int:
        return 1 + len(self.predictors) if self.kind == "linear" else d + d * (d + 1) // 2

    def coef_names(self, l_names) -> list[str]:
        if self.kind == "linear":
            return ["intercept", *(l_names[j] for j in self.predictors)]
        d = len(l_names)
        names = [f"mu_{l_names[j]}" for j in range(d)]
        names += [f"c_{i+1}{j+1}" for i in range(d) for j in range(i + 1)]
        return names

    def describe(self, l_names) -> str:
        if self.kind == "linear":
            return f"{l_names[self.response]} ~ " + " + ".join(l_names[j] for j in self.predictors)
        return "gaussian mean/covariance"

    # -- linear pieces ------------------------------------------------------
    def _zmat(self, L):
        return np.hstack([np.ones((L.shape[0], 1)), L[:, list(self.predictors)]])

    # -- gaussian pieces ----------------------------------------------------
    def _tril_index(self, d):
        return [(i, j) for i in range(d) for j in range(i + 1)]

    def _factor(self, theta, d):
        C = np.zeros((d, d))
        for k, (i, j) in enumerate(self._tril_index(d)):
            v = theta[d + k]
            C[i, j] = np.exp(v) if i == j else v
        return C

    def score(self, theta, L) -> np.ndarray:
        """Per-record estimating functions, shape (m, q)."""
        L = np.atleast_2d(L)
        if self.kind == "linear":
            Z = self._zmat(L)
            resid = L[:, self.response] - Z @ theta
            return Z * resid[:, None]
        d = L.shape[1]
        mu = theta[:d]
        C = self._factor(theta, d)
        sigma = C @ C.T
        dev = L - mu
        cols = [dev]
        prods = np.empty((L.shape[0], len(self._tril_index(d))))
        for k, (i, j) in enumerate(self._tril_index(d)):
            prods[:, k] = dev[:, i] * dev[:, j] - sigma[i, j]
        cols.append(prods)
        return np.hstack(cols)

    def jacobian_sum(self, theta, L, w) -> np.ndarray:
        """Sum over records of w_i * (d s / d theta), shape (q, q)."""
        L = np.atleast_2d(L)
        w = np.asarray(w, dtype=float)
        if self.kind == "linear":
            Z = self._zmat(L)
            return -(Z * w[:, None]).T @ Z
        d = L.shape[1]
        q = self.q(d)
        tril = self._tril_index(d)
        mu = theta[:d]
        C = self._factor(theta, d)
        dev = L - mu
        sw = float(w.sum())
        swdev = w @ dev
        J = np.zeros((q, q))
        J[:d, :d] = -sw * np.eye(d)
        for k, (i, j) in enumerate(tril):
            row = d + k
            # d/d mu of dev_i*dev_j - sigma_ij, summed with weights
            grad_mu = np.zeros(d)
            grad_mu[i] -= swdev[j]
            grad_mu[j] -= swdev[i]
            J[row, :d] = grad_mu
            # d sigma_ij / d factor params, record independent
            for k2, (a, b) in enumerate(tril):
                scale = C[a, b] if a == b else 1.0
                dsig = 0.0
                if i == a:
                    dsig += C[j, b]
                if j == a:
                    dsig += C[i, b]
                J[row, d + k2] = -sw * dsig * scale
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
        theta = np.concatenate(
            [mu, [np.log(C[i, i]) if i == j else C[i, j] for i, j in self._tril_index(L.shape[1])]]
        )
        return theta


@dataclass
class MpmEstimate:
    theta_hat: np.ndarray
    covariance: np.ndarray | None
    iterations: int                  # always 0: the root is in closed form
    residual: float                  # largest |sum w s_j| / sum w |s_j| over score columns
    coef_names: list[str]
    diagnostics: dict | None = None

    def standard_errors(self) -> np.ndarray:
        if self.covariance is None:
            raise ConfigError("no covariance attached to this estimate")
        return np.sqrt(np.diag(self.covariance))

    def wald_table(self, level: float = 0.95) -> list[dict]:
        z = critical_value(level)
        se = self.standard_errors()
        return [
            {
                "coef": nm,
                "estimate": float(th),
                "se": float(s),
                "lower": float(th - z * s),
                "upper": float(th + z * s),
            }
            for nm, th, s in zip(self.coef_names, self.theta_hat, se)
        ]


def solve_weighted_ee(
    ds: Dataset,
    strata: StratumIndex,
    odds: dict,
    spec: ScoreSpec,
    method: str = "ipw",
) -> MpmEstimate:
    """Root of the odds-weighted estimating equation over complete-primary
    records in closed form (`ScoreSpec.init`: weighted least squares, or the
    weighted mean and covariance).  The check that it solves the equation is
    scale-free: per score column j, |sum_i w_i s_ij| <= EE_TOL * sum_i w_i |s_ij|,
    a column of zero terms counting as solved."""
    if method != "ipw":
        raise CongenialityError(
            f"method {method!r} is not available for marginal parametric models: outcome "
            "regressions condition one part of L on another and can conflict with the "
            "marginal model; use IPW"
        )
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
            f"(residual ratio {resid:.3e})",
            last_iterate=theta,
        )
    return MpmEstimate(
        theta_hat=theta,
        covariance=None,
        iterations=0,
        residual=resid,
        coef_names=spec.coef_names(ds.l_names),
        diagnostics=wt.diagnostics(),
    )


def sandwich_variance(
    ds: Dataset,
    strata: StratumIndex,
    odds: dict,
    spec: ScoreSpec,
    theta_hat,
    naive: bool = False,
) -> np.ndarray:
    """Empirical sandwich covariance of the weighted estimating-equation root.

    The combined per-record influence stacks the weighted score with, unless
    naive=True, a correction for each fitted odds model propagating its
    coefficient noise through the weights.  Every pair present with
    incomplete primaries needs an odds model.  Defined for unit frequencies.
    """
    if strata.freq is not None:
        raise ConfigError("the sandwich is defined for unit frequencies only, not on a reweighted index")
    theta_hat = np.asarray(theta_hat, dtype=float)
    wt, = weight_table(ds, strata, odds)
    Lc, w = ds.L[wt.rows], wt.total
    n = ds.n
    q = spec.q(ds.d)
    s = np.zeros((n, q))
    s[wt.rows] = spec.score(theta_hat, Lc)
    u = np.zeros((n, q))
    u[wt.rows] = s[wt.rows] * w[:, None]
    A = spec.jacobian_sum(theta_hat, Lc, w) / n
    if not naive:
        for pr in strata.incomplete_pairs():
            model = odds[pr.key]
            if not fitted(model):
                continue
            view = pair_view(ds, strata, pr)
            Z = view.design(model.keep)
            # (q, k) mean of score (outer) gradient of the odds over the pool
            Cmat = s[view.pool].T @ (Z.pool * view_values(model, view, "pool")[:, None]) / n
            u[view.rows] += score_residuals(model, view)[:, None] * (Z.stacked @ (model.info_inv @ Cmat.T))
    ubar = u.mean(axis=0)
    M = (u - ubar).T @ (u - ubar) / n
    try:
        Ainv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        raise SingularityError("singular weighted score Jacobian in sandwich variance")
    cov = Ainv @ M @ Ainv.T / n
    return (cov + cov.T) / 2.0
