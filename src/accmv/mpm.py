"""Marginal parametric models for the primary vector.

Parameters defined by a population estimating equation 0 = E[s(theta | L)]
are estimated by weighting the per-record estimating function of each
complete-primary record with its total odds weight 1 + Q and solving the
weighted sample equation.  Only the odds-weighted route is offered here:
outcome-regression adjustments would impose a conditional model on part of L
given the rest and can contradict the marginal model (a congeniality
conflict), so requesting them raises.

The sandwich covariance follows the asymptotic linear expansion of the
weighted root, including one correction term per estimated odds model; a
naive variant drops those corrections for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, StratumIndex
from .errors import CongenialityError, ConfigError, NonConvergenceError, SingularityError
from .estimators import _require_models, compute_weights, pool_odds, weight_table
from .glm import fitted, odds_score_rows
from .inference import critical_value

EE_TOL = 1e-8
EE_MAX_ITER = 100


@dataclass(frozen=True)
class ScoreSpec:
    """Estimating-function specification.

    kind "linear": least-squares score for the regression of one primary
    coordinate on others, intercept included; theta = (intercept, slopes).

    kind "gaussian": joint mean/covariance moment score for L, with the
    covariance parameterized through its lower-triangular factor
    (log-parameterized diagonal) so every iterate stays positive definite;
    theta = (mu, factor parameters).
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

    def describe(self) -> str:
        if self.kind == "linear":
            return f"L{self.response + 1} ~ " + " + ".join(f"L{j + 1}" for j in self.predictors)
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
    converged: bool
    iterations: int
    residual: float
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


def _weighted_rows(ds, strata, odds, require_models=True):
    if require_models:
        _require_models(strata, odds, "odds")
    wt = compute_weights(ds, strata, odds)
    return wt, ds.L[wt.rows], wt.total


def ee_root_residual(ds, strata, odds, spec: ScoreSpec, theta) -> float:
    """Max-norm of the weighted estimating function at theta, scaled by 1/n."""
    _, Lc, w = _weighted_rows(ds, strata, odds, require_models=False)
    F = w @ spec.score(np.asarray(theta, dtype=float), Lc)
    return float(np.max(np.abs(F)) / ds.n)


def solve_weighted_ee(
    ds: Dataset,
    strata: StratumIndex,
    odds: dict,
    spec: ScoreSpec,
    method: str = "ipw",
    tol: float = EE_TOL,
    max_iter: int = EE_MAX_ITER,
    theta0=None,
) -> MpmEstimate:
    """Root of the odds-weighted estimating equation over complete-primary
    records.  Newton iteration with damping; by default the start is the
    score kind's closed-form solution (exact for both kinds), `theta0`
    overrides it."""
    if method != "ipw":
        raise CongenialityError(
            f"method {method!r} is not available for marginal parametric models: outcome "
            "regressions condition one part of L on another and can conflict with the "
            "marginal model; use IPW"
        )
    wt, Lc, w = _weighted_rows(ds, strata, odds)
    if Lc.shape[0] == 0:
        raise ConfigError("no complete-primary records to solve the estimating equation on")
    theta = spec.init(Lc, w) if theta0 is None else np.asarray(theta0, dtype=float)
    resid = np.max(np.abs(w @ spec.score(theta, Lc))) / ds.n
    it = 0
    while resid > tol and it < max_iter:
        it += 1
        F = w @ spec.score(theta, Lc)
        J = spec.jacobian_sum(theta, Lc, w)
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise SingularityError("singular weighted estimating-equation Jacobian")
        lam = 1.0
        for _ in range(30):
            cand = theta + lam * step
            cand_resid = np.max(np.abs(w @ spec.score(cand, Lc))) / ds.n
            if cand_resid < resid:
                break
            lam *= 0.5
        else:
            raise NonConvergenceError(
                f"weighted estimating equation stalled at residual {resid:.3e}", last_iterate=theta
            )
        theta, resid = cand, cand_resid
    if resid > tol:
        raise NonConvergenceError(
            f"weighted estimating equation not converged after {it} iterations "
            f"(residual {resid:.3e})",
            last_iterate=theta,
        )
    return MpmEstimate(
        theta_hat=theta,
        covariance=None,
        converged=True,
        iterations=it,
        residual=float(resid),
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
    coefficient noise through the weights.  Defined for unit frequencies.
    """
    if strata.freq is not None:
        raise ConfigError("the sandwich is defined for unit frequencies only, not on a reweighted index")
    theta_hat = np.asarray(theta_hat, dtype=float)
    values = pool_odds(ds, strata, odds)
    wt = weight_table(ds, strata, values)
    Lc, w = ds.L[wt.rows], wt.total
    n = ds.n
    q = spec.q(ds.d)
    u = np.zeros((n, q))
    u[wt.rows] = spec.score(theta_hat, Lc) * w[:, None]
    A = spec.jacobian_sum(theta_hat, Lc, w) / n
    if not naive:
        s_complete = spec.score(theta_hat, Lc)
        r_codes = ds.r_codes[wt.rows]
        for view, ovals in values:
            pr = view.pair
            model = odds[pr.key]
            if not fitted(model):
                continue
            sel = (r_codes & pr.r.value) == pr.r.value     # complete rows in the pool of r
            Zp = view.design(model.keep).pool
            # (q, k) mean of score (outer) gradient of the odds over the pool
            Cmat = s_complete[sel].T @ (Zp * ovals[:, None]) / n
            rows, Z, res = odds_score_rows(ds, strata, model)
            u[rows] += res[:, None] * (Z @ (model.info_inv @ Cmat.T))
    ubar = u.mean(axis=0)
    M = (u - ubar).T @ (u - ubar) / n
    try:
        Ainv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        raise SingularityError("singular weighted score Jacobian in sandwich variance")
    cov = Ainv @ M @ Ainv.T / n
    return (cov + cov.T) / 2.0
