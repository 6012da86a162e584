"""Seeded generators for the three benchmark designs, their closed-form
ground truths, and an independent Monte Carlo verifier for every closed form.

Designs (pattern probabilities in parentheses):

* "single": one primary, two auxiliaries, Gaussian strata (1/8 each).
* "multiple": two primaries, two auxiliaries, equicorrelated Gaussian strata
  (1/16 each); target is the product of the primaries.
* "mpm": one auxiliary, two primaries drawn jointly Gaussian, pattern
  probabilities depending on the auxiliary through a normalized exponential
  mechanism; target is the linear regression of the second primary on the
  first.

Misspecification is analyst-side only: `misspec_masks` gives the design-column
masks of the misspecified fits, and the generated data never depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Functional, build_strata, check_integer
from .errors import ConfigError
from .estimators import compute_weights
from .glm import complete_values, incomplete_views, pair_view
from .patterns import Pattern, PatternPair

KINDS = ("single", "multiple", "mpm")


def equicorr(k: int, rho: float = 0.5) -> np.ndarray:
    return (1 - rho) * np.eye(k) + rho * np.ones((k, k))


@dataclass(frozen=True)
class SimDesign:
    kind: str
    n: int
    seed: object = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown design kind {self.kind!r}")
        check_integer("n", self.n, least=1)
        if not isinstance(self.seed, np.random.SeedSequence):     # table replicates pass one
            check_integer("seed", self.seed)


class OracleModel:
    """Known odds or regression function for one pattern pair; duck-compatible
    with the fitted models but carries no estimation metadata."""

    def __init__(self, pair: PatternPair, fn):
        self.pair = pair
        self._fn = fn

    def predict(self, xr, la) -> np.ndarray:
        out = self._fn(np.atleast_2d(xr), np.atleast_2d(la))
        return np.asarray(out, dtype=float) * np.ones(np.atleast_2d(xr).shape[0])


@dataclass
class GroundTruth:
    kind: str
    theta_true: object
    odds: dict
    outcomes: dict
    functional: Functional | None
    describe: str = ""


def default_functional(kind: str) -> Functional:
    if kind == "single":
        return Functional("coordinate", (0,))
    if kind == "multiple":
        return Functional("product", (0, 1))
    return None  # mpm targets a score spec, not a mean functional


def generate(design: SimDesign) -> Dataset:
    """Draw a dataset per the design; byte-identical for equal seeds."""
    rng = np.random.default_rng(design.seed)
    if design.kind == "single":
        return _generate_strata(rng, design.n, 1, ("Y3",))
    if design.kind == "multiple":
        return _generate_strata(rng, design.n, 2, ("Y3", "Y4"))
    return _generate_mpm(rng, design.n)


# block mean by (d, block length); a block lists the observed primaries, then
# the observed auxiliaries
_MU = {
    (1, 1): [1.0], (1, 2): [1.0, -1.0], (1, 3): [0.0, -1.0, -1.0],
    (2, 1): [0.5], (2, 2): [1.0, 1.0], (2, 3): [1.0, 1.0, 1.0], (2, 4): [1.0, 1.0, 1.0, 1.0],
}


def _chol(k):
    return np.linalg.cholesky(equicorr(k))


def _generate_strata(rng, n, d, l_names) -> Dataset:
    """The "single" (d = 1) and "multiple" (d = 2) designs: two auxiliaries,
    cells (A = a, R = r) drawn with equal probability, and the observed
    coordinates of each record one equicorrelated Gaussian block."""
    cat = rng.integers(0, 4 << d, n)     # a = cat // 4, r = cat % 4
    z = rng.standard_normal((n, 2 + d))
    X = np.full((n, 2), np.nan)
    L = np.full((n, d), np.nan)
    chols = {k: _chol(k) for k in range(1, 3 + d)}
    # one stable sort by cell lists each cell's rows in ascending order
    by_cell = np.argsort(cat, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(cat, minlength=4 << d))])
    for cell in range(4 << d):
        a, r = divmod(cell, 4)
        rows = by_cell[bounds[cell]:bounds[cell + 1]]
        lidx, xidx = list(Pattern(a, d).indices), list(Pattern(r, 2).indices)
        dim = len(lidx) + len(xidx)
        if rows.size == 0 or dim == 0:
            continue
        vec = _MU[d, dim] + z[rows, :dim] @ chols[dim].T
        L[np.ix_(rows, lidx)] = vec[:, :len(lidx)]
        X[np.ix_(rows, xidx)] = vec[:, len(lidx):]
    return Dataset(X, L, ("Y1", "Y2"), l_names)


def _generate_mpm(rng, n) -> Dataset:
    z = rng.standard_normal((n, 3))
    vec = np.array([1.0, 0.0, -1.0]) + z @ _chol(3).T    # (X, L1, L2)
    x, Lfull = vec[:, 0], vec[:, 1:]
    e = np.exp(0.5 * x)
    p0 = 1.0 / (5.0 + 3.0 * e)
    p1 = e * p0
    # category order: (r=0, a=0..3) then (r=1, a=0..3)
    probs = np.column_stack([p0, p0, p0, p0, p1, p1, p1, p0])
    cum = np.cumsum(probs, axis=1)
    u = rng.random(n)
    cat = np.minimum((u[:, None] >= cum).sum(axis=1), 7)
    r, a = cat // 4, cat % 4
    X = np.where(r[:, None] == 1, vec[:, :1], np.nan)
    L = Lfull.copy()
    L[:, 0] = np.where((a == 2) | (a == 3), L[:, 0], np.nan)
    L[:, 1] = np.where((a == 1) | (a == 3), L[:, 1], np.nan)
    return Dataset(X, L, ("Y1",), ("Y2", "Y3"))


def _pair(kind, r, a) -> PatternPair:
    p, d = {"single": (2, 1), "multiple": (2, 2), "mpm": (1, 2)}[kind]
    return PatternPair(Pattern(r, p), Pattern(a, d))


def oracle_value(kind: str) -> GroundTruth:
    """Exact closed-form target plus oracle nuisance handles per pair."""
    if kind == "single":
        odds = {
            (0, 0): OracleModel(_pair(kind, 0, 0), lambda x, l: 0.25),
            (1, 0): OracleModel(_pair(kind, 1, 0), lambda x, l: 0.5 * np.exp(2.0 * x[:, 0])),
            (2, 0): OracleModel(_pair(kind, 2, 0), lambda x, l: 0.5 * np.exp(2.0 * x[:, 0])),
            (3, 0): OracleModel(
                _pair(kind, 3, 0),
                lambda x, l: np.exp(8.0 / 3.0 * x[:, 0] - 4.0 / 3.0 * x[:, 1] - 4.0 / 3.0),
            ),
        }
        outcomes = {
            (0, 0): OracleModel(_pair(kind, 0, 0), lambda x, l: 0.75),
            (1, 0): OracleModel(_pair(kind, 1, 0), lambda x, l: x[:, 0] / 2.0 + 1.0),
            (2, 0): OracleModel(_pair(kind, 2, 0), lambda x, l: x[:, 0] / 2.0 + 1.0),
            (3, 0): OracleModel(_pair(kind, 3, 0), lambda x, l: (x[:, 0] + x[:, 1]) / 3.0 + 2.0 / 3.0),
        }
        return GroundTruth(kind, 89.0 / 96.0, odds, outcomes, default_functional(kind), "E[L1] = 89/96")

    if kind == "multiple":
        half_slope = lambda v: 0.5 * np.exp(0.375 - v / 2.0)

        odds = {}
        for a in (1, 2):
            odds[(0, a)] = OracleModel(_pair(kind, 0, a), lambda x, l: 0.25 * np.exp(0.375 - l[:, 0] / 2.0))
            odds[(1, a)] = OracleModel(_pair(kind, 1, a), lambda x, l: 0.5)
            odds[(2, a)] = OracleModel(_pair(kind, 2, a), lambda x, l: 0.5)
            odds[(3, a)] = OracleModel(_pair(kind, 3, a), lambda x, l: 1.0)
        odds[(0, 0)] = OracleModel(_pair(kind, 0, 0), lambda x, l: 0.25)
        odds[(1, 0)] = OracleModel(_pair(kind, 1, 0), lambda x, l: half_slope(x[:, 0]))
        odds[(2, 0)] = OracleModel(_pair(kind, 2, 0), lambda x, l: half_slope(x[:, 0]))
        odds[(3, 0)] = OracleModel(_pair(kind, 3, 0), lambda x, l: 1.0)

        outcomes = {
            (0, 0): OracleModel(_pair(kind, 0, 0), lambda x, l: 1.5),
            (1, 0): OracleModel(_pair(kind, 1, 0), lambda x, l: 0.25 + (x[:, 0] / 2.0 + 0.5) ** 2),
            (2, 0): OracleModel(_pair(kind, 2, 0), lambda x, l: 0.25 + (x[:, 0] / 2.0 + 0.5) ** 2),
            (3, 0): OracleModel(
                _pair(kind, 3, 0), lambda x, l: 1.0 / 6.0 + (x[:, 0] + x[:, 1] + 1.0) ** 2 / 9.0
            ),
        }
        for a in (1, 2):
            outcomes[(0, a)] = OracleModel(_pair(kind, 0, a), lambda x, l: 0.5 * l[:, 0] * (l[:, 0] + 1.0))
            outcomes[(1, a)] = OracleModel(
                _pair(kind, 1, a), lambda x, l: l[:, 0] * (x[:, 0] + l[:, 0] + 1.0) / 3.0
            )
            outcomes[(2, a)] = OracleModel(
                _pair(kind, 2, a), lambda x, l: l[:, 0] * (x[:, 0] + l[:, 0] + 1.0) / 3.0
            )
            outcomes[(3, a)] = OracleModel(
                _pair(kind, 3, a), lambda x, l: l[:, 0] * (x[:, 0] + x[:, 1] + l[:, 0] + 1.0) / 4.0
            )
        return GroundTruth(kind, 175.0 / 128.0, odds, outcomes, default_functional(kind), "E[L1*L2] = 175/128")

    if kind == "mpm":
        odds = {}
        for a in (0, 1, 2):
            odds[(0, a)] = OracleModel(_pair(kind, 0, a), lambda x, l: 0.5)
            odds[(1, a)] = OracleModel(_pair(kind, 1, a), lambda x, l: np.exp(0.5 * x[:, 0]))
        return GroundTruth(
            kind, np.array([-1.0, 0.5]), odds, {}, None, "E[L2 | L1] = -1 + L1 / 2"
        )
    raise ConfigError(f"unknown design kind {kind!r}")


def misspec_masks(kind: str, family: str) -> dict:
    """Design-column keep masks implementing the benchmark misspecifications.

    family "odds": the named pairs are refitted intercept-only.
    family "outcome": the named pairs drop the listed covariates.
    """
    if family not in ("odds", "outcome"):
        raise ConfigError(f"unknown model family {family!r}")
    if kind == "single":
        # full auxiliary pattern: drop both covariates (odds) or the second (outcome)
        return {(3, 0): (False, False)} if family == "odds" else {(3, 0): (True, False)}
    if kind == "multiple":
        # the two single-primary strata with no auxiliaries: intercept-only fits
        return {(0, 1): (False,), (0, 2): (False,)}
    return {}


# ---------------------------------------------------------------------------
# independent Monte Carlo verification of every closed form above
# ---------------------------------------------------------------------------


@dataclass
class CheckRow:
    name: str
    value: float
    target: float
    se: float
    nsig: float
    ok: bool


@dataclass
class OracleReport:
    kind: str
    n: int
    rows: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def summary(self) -> str:
        lines = [f"oracle verification for design {self.kind!r} at n={self.n}"]
        for r in self.rows:
            tag = "ok " if r.ok else "FAIL"
            lines.append(
                f"  [{tag}] {r.name}: value={r.value:.6g} target={r.target:.6g} "
                f"se={r.se:.3g} ({r.nsig:.2f} MC SEs)"
            )
        return "\n".join(lines)


def _check(rows, name, value, target, se, max_sig=4.0):
    se = max(se, 1e-300)
    nsig = abs(value - target) / se
    rows.append(CheckRow(name, float(value), float(target), float(se), float(nsig), bool(nsig <= max_sig)))


def _mean_check(rows, name, values, n, target):
    # values live on a subset of records; the rest contribute exact zeros
    mean = values.sum() / n
    var = (values**2).sum() / n - mean**2
    _check(rows, name, mean, target, np.sqrt(max(var, 0.0) / n))


def verify_oracles(design: SimDesign) -> OracleReport:
    """Re-derive every closed form on a large sample and flag discrepancies
    beyond 4 Monte Carlo standard errors.

    Odds and regression functions are checked through exact moment
    identities: for any g, the case-stratum mean of g must match the
    odds-weighted pool mean of g, and regression residuals on the pool must
    be orthogonal to g.  Targets are checked by plugging the oracle functions
    into the weighting and regression identification formulas directly.
    """
    if design.n < 10**5:
        raise ConfigError(f"verify_oracles needs n >= 1e5, got {design.n}")
    ds = generate(design)
    strata = build_strata(ds)
    truth = oracle_value(design.kind)
    report = OracleReport(kind=design.kind, n=design.n)
    rows = report.rows
    n = ds.n

    if design.kind in ("single", "multiple"):
        p_target = 1.0 / 8.0 if design.kind == "single" else 1.0 / 16.0
        for pr in strata.pairs():
            count = strata.stratum(pr).size
            se = np.sqrt(p_target * (1 - p_target) / n)
            _check(rows, f"P(R={pr.r},A={pr.a})", count / n, p_target, se)

    # odds moment identities: E[g I(case)] = E[O g I(pool)]; on mpm these are
    # the mass ratios its mechanism implies (O = 1/2 for r = 0, exp(x/2) for r = 1)
    for view in incomplete_views(ds, strata):
        if view.pool.size == 0:
            continue
        _, Zc, Zp, names = view.design()
        ovals = truth.odds[view.pair.key].predict(*view.blocks("pool"))
        for j, nm in enumerate(names):
            vals = np.concatenate([Zc[:, j], -ovals * Zp[:, j]])
            _mean_check(rows, f"odds {view.pair} moment[{nm}]", vals, n, 0.0)

    # regression orthogonality: E[(f - m) g I(pool)] = 0
    fmap = complete_values(ds, strata, truth.functional) if truth.functional is not None else None
    for view in incomplete_views(ds, strata) if truth.outcomes else ():
        if view.pool.size == 0:
            continue
        _, _, Zp, names = view.design()
        resid = fmap[view.pool] - truth.outcomes[view.pair.key].predict(*view.blocks("pool"))
        for j, nm in enumerate(names):
            _mean_check(rows, f"regression {view.pair} orth[{nm}]", resid * Zp[:, j], n, 0.0)

    if design.kind == "multiple":
        # pointwise windows for the richest pool regression
        view = pair_view(ds, strata, _pair("multiple", 3, 0))
        model = truth.outcomes[(3, 0)]
        xp, lp = view.blocks("pool")
        resid = fmap[view.pool] - model.predict(xp, lp)
        for c in (0.5, 1.0, 1.5):
            g = ((np.abs(xp[:, 0] - c) <= 0.25) & (np.abs(xp[:, 1] - c) <= 0.25)).astype(float)
            _mean_check(rows, f"regression {view.pair} window@{c}", resid * g, n, 0.0)

    if design.kind in ("single", "multiple"):
        # target through the weighting identity with oracle odds
        wt = compute_weights(ds, strata, truth.odds)
        v = np.zeros(n)
        v[wt.rows] = fmap[wt.rows] * wt.total
        _mean_check(rows, "theta via oracle weights", v, n, truth.theta_true)
        # target through the regression identity with oracle outcomes
        v = fmap.copy()
        for view in incomplete_views(ds, strata):
            v[view.case] = truth.outcomes[view.pair.key].predict(*view.blocks("case"))
        _mean_check(rows, "theta via oracle regressions", v, n, truth.theta_true)

    if design.kind == "mpm":
        # regression target through the oracle-weighted estimating equation
        from .mpm import ScoreSpec, sandwich_variance, solve_weighted_ee

        spec = ScoreSpec("linear", response=1, predictors=(0,))
        est = solve_weighted_ee(ds, strata, truth.odds, spec)
        cov = sandwich_variance(ds, strata, truth.odds, est)
        for j, nm in enumerate(est.coef_names):
            _check(rows, f"beta[{nm}] via oracle weights", est.theta_hat[j], truth.theta_true[j], np.sqrt(cov[j, j]))

    return report
