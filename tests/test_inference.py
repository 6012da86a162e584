import json
import multiprocessing as mp
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accmv.data import Dataset, Functional, build_strata
from accmv.errors import BootstrapInstabilityError, ConfigError, FitError, InferenceError
from accmv.estimators import (
    _walk,
    estimate_complete_case,
    estimate_ipw,
    estimate_mr,
    estimate_ra,
    self_normalized_influence,
)
from accmv.cli import _refit
from accmv.glm import (
    complete_values,
    design_matrix,
    fit_all_odds,
    fit_all_outcomes,
    fit_odds,
    fit_outcome,
    pair_view,
    read_outcome,
    view_values,
)
from accmv.inference import (
    attempt,
    bootstrap,
    critical_value,
    failures_of,
    if_variance_ipw,
    if_variance_mr,
    if_variance_ra,
    normal_ci,
    replicate,
)
from accmv.mpm import ScoreSpec, sandwich_variance, solve_weighted_ee
from accmv.sensitivity import TiltSpec, _tilted_grid, sweep
from accmv.simgen import SimDesign, default_functional, generate, misspec_masks, oracle_value

from toy import toy_single_primary

F1 = Functional("coordinate", (0,))
F2 = Functional("product", (0, 1))


def test_complete_data_reduces_to_sd_over_sqrt_n():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.standard_normal((500, 1)), rng.standard_normal((500, 1)))
    strata = build_strata(ds)
    theta = float(F1(ds.L).mean())
    target = float(F1(ds.L).std() / np.sqrt(ds.n))
    se_ipw, _ = if_variance_ipw(ds, strata, {}, F1, theta)
    se_ra, _ = if_variance_ra(ds, strata, {}, F1, theta)
    se_mr, _ = if_variance_mr(ds, strata, {}, {}, F1, theta)
    for se in (se_ipw, se_ra, se_mr):
        assert np.isclose(se, target, rtol=1e-12)


def test_influence_means_near_zero(single_20k):
    ds, strata = single_20k
    odds = fit_all_odds(ds, strata)
    outs = fit_all_outcomes(ds, strata, F1)
    est = estimate_ipw(ds, strata, odds, F1)
    _, iv = if_variance_ipw(ds, strata, odds, F1, est.theta_hat)
    assert abs(iv.values.mean()) <= 1e-8 * iv.values.std()
    est = estimate_ra(ds, strata, outs, F1)
    _, iv = if_variance_ra(ds, strata, outs, F1, est.theta_hat)
    assert abs(iv.values.mean()) <= 1e-8 * iv.values.std()
    est = estimate_mr(ds, strata, odds, outs, F1)
    _, iv = if_variance_mr(ds, strata, odds, outs, F1, est.theta_hat)
    assert abs(iv.values.mean()) <= 1e-8 * iv.values.std()


def test_if_variance_permutation_invariant():
    ds = generate(SimDesign("single", 3000, 17))
    rng = np.random.default_rng(3)
    ses = []
    for d in (ds, ds.subset(rng.permutation(ds.n))):
        strata = build_strata(d)
        odds = fit_all_odds(d, strata)
        est = estimate_ipw(d, strata, odds, F1)
        ses.append(if_variance_ipw(d, strata, odds, F1, est.theta_hat)[0])
    assert np.isclose(ses[0], ses[1], rtol=1e-9)


def test_zero_residual_outcome_gives_plugin_spread_only():
    # response exactly affine in the design: corrections vanish
    rng = np.random.default_rng(4)
    n = 400
    X = rng.standard_normal((n, 1))
    L = (2.0 + 3.0 * X[:, 0]).reshape(-1, 1)
    miss = rng.random(n) < 0.3
    L[miss] = np.nan
    ds = Dataset(X, L)
    strata = build_strata(ds)
    outs = fit_all_outcomes(ds, strata, F1)
    est = estimate_ra(ds, strata, outs, F1)
    se, iv = if_variance_ra(ds, strata, outs, F1, est.theta_hat)
    h = np.zeros(ds.n)
    complete = np.flatnonzero(ds.complete_mask)
    h[complete] = F1(ds.L[complete])
    for pr in strata.incomplete_pairs():
        rows = strata.stratum(pr)
        h[rows] = design_matrix(ds, rows, pr)[0] @ outs[pr.key].beta
    np.testing.assert_allclose(iv.values, h - est.theta_hat, atol=1e-10)


def test_mr_influence_equals_pointwise_eif_on_toy():
    toy = toy_single_primary()
    ds = toy.dataset()
    strata = build_strata(ds)
    odds, outs = toy.oracle_models()
    est = estimate_mr(ds, strata, odds, outs, toy.f)
    _, iv = if_variance_mr(ds, strata, odds, outs, toy.f, est.theta_hat)
    # independent per-record construction from the toy's exact tables
    phi = np.empty(ds.n)
    for i in range(ds.n):
        rec_r = int(ds.r_codes[i])
        rec_a = int(ds.a_codes[i])
        l = ds.L[i]
        x = ds.X[i]
        val = 0.0
        if rec_a == toy.complete:
            val += float(l[0])
        for r in (0, 1):
            for a in range(toy.complete):
                if rec_a == toy.complete and (rec_r & r) == r:
                    xv = int(x[0]) if r == 1 else None
                    la = tuple(int(v) for v in l[toy._a_obs(a)])
                    o = float(toy.odds(r, a, xv, la))
                    m = float(toy.m(r, a, xv, la))
                    val += (float(l[0]) - m) * o
                if rec_r == r and rec_a == a:
                    xv = int(x[0]) if r == 1 else None
                    la = tuple(int(v) for v in l[toy._a_obs(a)])
                    val += float(toy.m(r, a, xv, la))
        phi[i] = val - est.theta_hat
    np.testing.assert_allclose(iv.values, phi, atol=1e-12)


# the tilt of the self-normalized sweep points: delta = multiplier * delta_0 about center 0.3
TILT_DELTA = {"single": (0.5,), "multiple": (0.5, -0.4)}


def tilted_point(ds, s, odds, f, spec, influence):
    """The one grid point of `sweep` under `spec` and, with `influence`, the
    influence vector of the kind whose SE sets the sweep's interval."""
    curve = sweep(ds, s, odds, f, spec)
    point = SimpleNamespace(theta_hat=curve.estimates[0], influence=None)
    if influence:
        factors = {}
        ests, den = _tilted_grid(ds, s, odds, f, spec, list(spec.grid), factors)
        point.influence = self_normalized_influence(ds, s, odds, f, ests[0], den[0],
                                                    {key: t[0] for key, t in factors.items()})
        z = critical_value(0.95)
        half = (curve.ci_upper[0] - curve.ci_lower[0]) / 2
        assert abs(half - z * point.influence.se) <= 1e-12 * half
    return point


def mean_pipeline(kind, method, models):
    """`estimate_<method>` on (ds, strata) with every model refitted there:
    "fitted" models, "masked" ones under the benchmark's misspecification
    masks, "decomposed" outcome fits of the product, or fixed "oracle" models.
    Method "ipw_sn" is the self-normalized IPW, and "tilt<m>" the sweep's
    point at multiplier m of `TILT_DELTA`."""
    f, truth = default_functional(kind), oracle_value(kind)
    masks = {fam: misspec_masks(kind, fam) if models == "masked" else {} for fam in ("odds", "outcome")}

    def odds(ds, s):
        if models == "oracle":
            return truth.odds
        return {pr.key: fit_odds(ds, s, pr, keep=masks["odds"].get(pr.key)) for pr in s.incomplete_pairs()}

    def outcomes(ds, s):
        if models == "oracle":
            return truth.outcomes
        return {pr.key: fit_outcome(ds, s, pr, f, keep=masks["outcome"].get(pr.key), decompose=models == "decomposed")
                for pr in s.incomplete_pairs()}

    def estimate(ds, s):
        if method == "ipw":
            return estimate_ipw(ds, s, odds(ds, s), f)
        if method == "ipw_sn":
            return estimate_ipw(ds, s, odds(ds, s), f, self_normalize=True)
        if method.startswith("tilt"):
            spec = TiltSpec(delta=TILT_DELTA[kind], center=(0.3,), grid=(float(method[4:]),))
            return tilted_point(ds, s, odds(ds, s), f, spec, s.freq is None)
        if method == "ra":
            return estimate_ra(ds, s, outcomes(ds, s), f)
        return estimate_mr(ds, s, odds(ds, s), outcomes(ds, s), f)
    return estimate


DERIVATIVE_CASES = [
    *((kind, method, models) for models in ("fitted", "masked") for kind in ("single", "multiple")
      for method in ("ipw", "ra", "mr")),
    ("single", "mr", "oracle"), ("multiple", "mr", "oracle"),
    ("multiple", "ra", "decomposed"), ("multiple", "mr", "decomposed"),
    *((kind, method, "fitted") for kind in ("single", "multiple") for method in ("ipw_sn", "tilt0", "tilt-1.5")),
]


@pytest.mark.parametrize("kind,method,models", DERIVATIVE_CASES, ids=["-".join(c) for c in DERIVATIVE_CASES])
def test_influence_values_are_the_pipeline_derivatives(kind, method, models):
    # The influence value of record i is the derivative of the whole
    # pipeline, refits included, along the frequencies (1 - eps) + eps * n * e_i,
    # which keep the total mass at n.  A wrong correction term moves the
    # values by a tenth or more of their largest one.
    estimate = mean_pipeline(kind, method, models)
    ds = generate(SimDesign(kind, 600, 3))
    strata = build_strata(ds)
    values = estimate(ds, strata).influence.values
    records = np.random.default_rng(0).choice(ds.n, 25, replace=False)
    eps = 1e-6
    D = np.empty(records.size)
    for k, i in enumerate(records):
        theta = []
        for step in (eps, -eps):
            freq = np.full(ds.n, 1.0 - step)
            freq[i] += step * ds.n
            theta.append(estimate(ds, strata.reweight(freq)).theta_hat)
        D[k] = (theta[0] - theta[1]) / (2 * eps)
    assert np.max(np.abs(D - values[records])) <= 1e-6 * np.max(np.abs(values))


def test_bootstrap_deterministic(single_20k):
    ds, _ = single_20k
    small = ds.subset(np.arange(1500))

    def pipeline(d, s):
        return estimate_ra(d, s, fit_all_outcomes(d, s, F1), F1).theta_hat

    point = pipeline(small, build_strata(small))
    r1 = bootstrap(small, build_strata(small), pipeline, point, B=30, seed=7)
    r2 = bootstrap(small, build_strata(small), pipeline, point, B=30, seed=7)
    assert r1.se == r2.se
    assert r1.normal.lower == r2.normal.lower and r1.percentile.upper == r2.percentile.upper
    r3 = bootstrap(small, build_strata(small), pipeline, point, B=30, seed=8)
    assert r3.se != r1.se


def test_bootstrap_degenerate_rows_zero_width():
    ds = Dataset(np.ones((30, 1)), np.full((30, 1), 2.5))
    strata = build_strata(ds)
    point = estimate_complete_case(ds, strata, F1).theta_hat
    rep = bootstrap(ds, strata, lambda d, s: estimate_complete_case(d, s, F1).theta_hat, point, B=20, seed=1)
    assert rep.se == 0.0
    assert rep.percentile.lower == rep.percentile.upper == 2.5


def test_bootstrap_guards():
    ds = Dataset(np.ones((10, 1)), np.ones((10, 1)))
    with pytest.raises(ConfigError):
        bootstrap(ds, build_strata(ds), lambda d, s: 0.0, 0.0, B=1, seed=0)

    calls = {"k": 0}

    def flaky(d, s):
        calls["k"] += 1
        if calls["k"] > 1:
            raise FitError("boom")
        return 0.0

    with pytest.raises(BootstrapInstabilityError):
        bootstrap(ds, build_strata(ds), flaky, flaky(ds, build_strata(ds)), B=10, seed=0)


@pytest.mark.parametrize("value,error", [
    (np.nan, InferenceError), (np.inf, InferenceError), ([0.5, np.nan], InferenceError),
    (None, ConfigError), ("abc", ConfigError), ([0.5, "x"], ConfigError), ([0.5, [1.0]], ConfigError),
], ids=["nan", "inf", "vector-nan", "none", "text", "vector-text", "ragged"])
def test_bootstrap_replicate_that_is_not_a_finite_number(value, error):
    # a pipeline bug, not a failed fit: it stops the bootstrap instead of
    # leaving a NaN SE, or a replicate shorter than the others, behind
    ds = Dataset(np.ones((10, 1)), np.arange(10, dtype=float).reshape(-1, 1))
    calls = {"k": 0}

    def pipeline(d, s):
        calls["k"] += 1
        return value if calls["k"] == 3 else [0.5, 0.5] if isinstance(value, list) else 0.5

    point = [0.5, 0.5] if isinstance(value, list) else 0.5
    with pytest.raises(error, match="bootstrap"):
        bootstrap(ds, build_strata(ds), pipeline, point, B=5, seed=0)


def test_bootstrap_skip_count():
    ds = Dataset(np.ones((10, 1)), np.arange(10, dtype=float).reshape(-1, 1))
    calls = {"k": 0}

    def sometimes(d, s):
        calls["k"] += 1
        if calls["k"] % 7 == 0:
            raise FitError("boom")
        return estimate_complete_case(d, s, F1).theta_hat

    rep = bootstrap(ds, build_strata(ds), sometimes, sometimes(ds, build_strata(ds)), B=20, seed=3)
    assert rep.n_failed >= 1
    assert rep.B == 20


def test_vector_bootstrap_report_is_plain_json():
    ds = Dataset(np.ones((40, 1)), np.arange(40, dtype=float).reshape(-1, 1))
    strata = build_strata(ds)

    def pipeline(d, s):
        theta = estimate_complete_case(d, s, F1).theta_hat
        return [theta, 2.0 * theta, theta - 1.0]

    rep = bootstrap(ds, strata, pipeline, pipeline(ds, strata), B=10, seed=4)
    back = json.loads(json.dumps(rep.to_dict()))
    assert back == rep.to_dict()
    for ci in (back, back["normal"], back["percentile"]):
        assert all(type(ci[k]) is list and len(ci[k]) == 3 for k in ("estimate", "se"))
    for ci in (back["normal"], back["percentile"]):
        assert all(lo < est < hi for lo, est, hi in zip(ci["lower"], ci["estimate"], ci["upper"]))
    assert back["normal"]["lower"] == normal_ci(rep.estimate, rep.se, rep.level).lower


def test_attempt_and_failures_of():
    def fit(x):
        if x < 0:
            raise FitError("negative")
        if x == 0:
            raise ConfigError("zero")
        return x

    results = [attempt(fit, x) for x in (2, -1, 0, -3, 5)]
    assert results == [2, "FitError", "ConfigError", "FitError", 5]
    assert list(failures_of(results).items()) == [("ConfigError", 1), ("FitError", 2)]
    with pytest.raises(TypeError):
        attempt(fit, "a")


def tallied(i, gate):
    """Replicate i of the tally test: indices 0 and 1 meet at `gate`, so two
    processes take them, and every index but the multiples of 3 fails."""
    if gate is not None and i < 2:
        gate.wait(timeout=30)
    if i % 3 == 1:
        raise FitError("one")
    if i % 3 == 2:
        raise ConfigError("two")
    return i * i


def failing_in(i, gate, caller, where):
    """Replicate i of the error tests: indices 0 and 1 meet at `gate`, so the
    caller and the helper each take one; the share that `where` names raises
    a RuntimeError there, and a helper whose caller fails stalls."""
    if i < 2:
        gate.wait(timeout=30)
        here = "caller" if os.getpid() == caller else "helper"
        if here == where:
            raise RuntimeError(f"the {here}'s share failed")
        if here == "helper":
            time.sleep(60)
    return i


def test_replicate_with_a_helper_tallies_as_serially():
    gate = mp.get_context("fork" if os.name == "posix" else "spawn").Barrier(2)
    pooled = replicate(tallied, [(i, gate) for i in range(12)], 2)
    assert mp.active_children() == []
    assert pooled == replicate(tallied, [(i, None) for i in range(12)], 1)
    assert pooled[1] == {"ConfigError": 4, "FitError": 4}


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_replicate_raises_an_error_of_either_share_and_stops_the_helper(where):
    gate = mp.get_context("fork" if os.name == "posix" else "spawn").Barrier(2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=f"the {where}'s share failed"):
        replicate(failing_in, [(i, gate, os.getpid(), where) for i in range(6)], 2)
    assert mp.active_children() == []
    assert time.monotonic() - start < 30      # a stalled helper is stopped, not waited for


def test_normal_ci_ordering():
    ci = normal_ci(1.0, 0.25, 0.95)
    assert ci.lower <= ci.estimate <= ci.upper
    assert np.isclose(ci.upper - ci.estimate, 1.959963984540054 * 0.25)


# scipy.stats.norm.ppf(0.5 + level / 2), scipy 1.17.1
SCIPY_Z = {0.5: 0.6744897501960817, 0.8: 1.2815515655446004, 0.9: 1.6448536269514722,
           0.95: 1.959963984540054, 0.99: 2.5758293035489004}


def test_critical_value_matches_scipy():
    # the quantiles differ in the last few ulps at most (3 ulps at level 0.9)
    for level, z in SCIPY_Z.items():
        assert abs(critical_value(level) - z) <= 5e-16 * z, level
    for bad in (0, 0.0, 1, 1.0, -0.2, 1.5, float("nan"), "0.95", None, True):
        with pytest.raises(ConfigError):
            critical_value(bad)


def test_package_imports_without_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; import accmv, accmv.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_ipw_underestimates_se_on_heavy_tails(single_20k):
    # theoretical SE falls well short of the true sampling spread here; the
    # replication harness checks the coverage consequence, this guards the ratio
    ds, strata = single_20k
    sub = ds.subset(np.arange(2000))
    s = build_strata(sub)
    odds = fit_all_odds(sub, s)
    est = estimate_ipw(sub, s, odds, F1)
    se, _ = if_variance_ipw(sub, s, odds, F1, est.theta_hat)
    assert se < 0.2  # sampling SE of this design sits near 0.21 at n=2000

def test_estimate_influence_is_the_if_variance_se(single_20k, multiple_20k):
    # on a unit-frequency index each estimate carries the influence values of
    # `if_variance_*`, and its stratum sums are those of the point-only pass;
    # on a reweighted index it carries none
    for (ds, strata), f, dec in [(single_20k, F1, False), (multiple_20k, F2, True)]:
        for s in (strata, strata.reweight(np.random.default_rng(5).integers(0, 3, ds.n))):
            odds, outs = fit_all_odds(ds, s), fit_all_outcomes(ds, s, f, decompose=dec)
            for est, if_variance, models in (
                (estimate_ipw(ds, s, odds, f), if_variance_ipw, {"odds": odds}),
                (estimate_ra(ds, s, outs, f), if_variance_ra, {"outcomes": outs}),
                (estimate_mr(ds, s, odds, outs, f), if_variance_mr, {"odds": odds, "outcomes": outs}),
            ):
                if s.freq is not None:
                    assert est.influence is None
                    continue
                point = _walk(ds, s, f, **models).sums
                assert est.per_stratum == {k: float(v / ds.n) for k, v in point.items()}
                se, iv = if_variance(ds, s, *models.values(), f, est.theta_hat)
                assert est.influence.se == se
                np.testing.assert_array_equal(est.influence.values, iv.values)


def test_self_normalized_ipw_se_is_the_gaussian_sandwich_mean_se():
    # the self-normalized IPW of L_j solves the mu_j row of the Gaussian
    # score's weighted equation, whose Jacobian row is -sum w e_j: its
    # influence values are that row of the sandwich's.  Bound fixed at 1e-12.
    for seed in (1, 2, 3):
        ds = generate(SimDesign("mpm", 3000, seed))
        strata = build_strata(ds)
        odds = fit_all_odds(ds, strata)
        est = solve_weighted_ee(ds, strata, odds, ScoreSpec("gaussian"))
        se = np.sqrt(np.diag(sandwich_variance(ds, strata, odds, est)))
        for j in range(ds.d):
            sn = estimate_ipw(ds, strata, odds, Functional("coordinate", (j,)), self_normalize=True)
            assert abs(sn.theta_hat - est.theta_hat[j]) <= 1e-12 * abs(est.theta_hat[j])
            assert abs(sn.influence.se - se[j]) <= 1e-12 * se[j]


def test_self_normalized_ipw_influence_needs_unit_frequencies(single_20k):
    ds, strata = single_20k
    rw = strata.reweight(np.full(ds.n, 2))
    assert estimate_ipw(ds, rw, fit_all_odds(ds, rw), F1, self_normalize=True).influence is None


def sn_fit(ds):
    strata = build_strata(ds)
    return estimate_ipw(ds, strata, fit_all_odds(ds, strata), F1, self_normalize=True)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 2**16), st.sampled_from(["single", "multiple"]),
       st.sampled_from(["affine X", "every record twice", "permuted records"]))
def test_self_normalized_ipw_invariances(seed, kind, transform):
    # the odds designs are affine in x with an intercept, and both the
    # estimate and its influence values are functionals of the empirical
    # distribution.  Bounds fixed beforehand at 1e-12 relative.
    ds = generate(SimDesign(kind, 1500, seed))
    base = sn_fit(ds)
    if transform == "affine X":
        other, se_factor = Dataset(3.0 * ds.X - 7.0, ds.L), 1.0
    elif transform == "every record twice":
        other, se_factor = Dataset(np.vstack([ds.X, ds.X]), np.vstack([ds.L, ds.L])), 1.0 / np.sqrt(2.0)
    else:
        other, se_factor = ds.subset(np.random.default_rng(seed).permutation(ds.n)), 1.0
    got = sn_fit(other)
    assert abs(got.theta_hat - base.theta_hat) <= 1e-12 * abs(base.theta_hat)
    assert abs(got.influence.se - se_factor * base.influence.se) <= 1e-12 * base.influence.se


def ipw_ra_mr(ds, kind):
    """The IPW, RA and MR estimates of the design's functional from models
    fitted on `ds`; on `multiple` the outcome fits decompose the product."""
    strata, f = build_strata(ds), default_functional(kind)
    odds, outs = fit_all_odds(ds, strata), fit_all_outcomes(ds, strata, f, decompose=kind == "multiple")
    return estimate_ipw(ds, strata, odds, f), estimate_ra(ds, strata, outs, f), estimate_mr(ds, strata, odds, outs, f)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(st.integers(0, 2**16), st.sampled_from(["single", "multiple"]),
       st.sampled_from(["affine X", "reversed X", "scaled L", "every record twice"]))
def test_ipw_ra_mr_invariances(seed, kind, transform):
    # every nuisance design is affine in (x_r, l_a) with an intercept, and the
    # estimates and their influence values are functionals of the empirical
    # distribution; f is L1 on `single` and L1 L2 on `multiple`, so scaling L
    # scales both by 1000 to the number of its coordinates.  Bounds fixed
    # beforehand at 1e-12 relative.
    ds = generate(SimDesign(kind, 1500, seed))
    theta_factor = se_factor = 1.0
    if transform == "affine X":
        other = Dataset(3.0 * ds.X - 7.0, ds.L)
    elif transform == "reversed X":
        other = Dataset(ds.X[:, ::-1], ds.L)
    elif transform == "scaled L":
        other = Dataset(ds.X, 1000.0 * ds.L)
        theta_factor = se_factor = 1000.0 ** len(default_functional(kind).coords)
    else:
        other, se_factor = Dataset(np.vstack([ds.X, ds.X]), np.vstack([ds.L, ds.L])), 1.0 / np.sqrt(2.0)
    for base, got in zip(ipw_ra_mr(ds, kind), ipw_ra_mr(other, kind)):
        theta, se = theta_factor * base.theta_hat, se_factor * base.influence.se
        assert abs(got.theta_hat - theta) <= 1e-12 * abs(theta), base.method
        assert abs(got.influence.se - se) <= 1e-12 * se, base.method


def test_self_normalized_ipw_interval_coverage_on_multiple():
    # 200 seeded datasets of the multiple design at n = 2000 with the
    # product of both primaries, truth 175/128; the band was fixed before
    # the first run.  A scratch run over 300 seeds read 0.95.
    truth = oracle_value("multiple")
    f = default_functional("multiple")
    covered = []
    for seed in range(200):
        ds = generate(SimDesign("multiple", 2000, seed))
        strata = build_strata(ds)
        est = estimate_ipw(ds, strata, fit_all_odds(ds, strata), f, self_normalize=True)
        ci = normal_ci(est.theta_hat, est.influence.se)
        covered.append(ci.lower <= truth.theta_true <= ci.upper)
    assert 0.90 <= np.mean(covered) <= 0.99, np.mean(covered)


def test_self_normalized_ipw_influence_se_matches_the_bootstrap_se():
    # five seeded datasets of the multiple design at n = 2000, the product of
    # both primaries, B = 200 replicates that refit the odds.  The bands, fixed
    # before the first run: each seed's influence / bootstrap SE ratio within
    # [0.85, 1.15] and their mean within [0.90, 1.05].  The first run read
    # 0.926-1.066, mean 0.977.
    f = default_functional("multiple")

    def pipeline(d, s):
        return estimate_ipw(d, s, fit_all_odds(d, s), f, self_normalize=True).theta_hat

    ratios = []
    for seed in range(5):
        ds = generate(SimDesign("multiple", 2000, seed))
        strata = build_strata(ds)
        est = estimate_ipw(ds, strata, fit_all_odds(ds, strata), f, self_normalize=True)
        boot = bootstrap(ds, strata, pipeline, est.theta_hat, B=200, seed=seed)
        ratios.append(est.influence.se / boot.se)
    assert all(0.85 <= r <= 1.15 for r in ratios), ratios
    assert 0.90 <= np.mean(ratios) <= 1.05, ratios


@pytest.mark.parametrize("kind", ["single", "multiple"])
def test_oracle_models_run_through_every_estimator(kind):
    # known functions carry no fitted metadata, so they add no correction:
    # the influence values are the per-record terms, which average to the estimate
    truth = oracle_value(kind)
    ds = generate(SimDesign(kind, 5000, 2718))
    strata = build_strata(ds)
    f = truth.functional
    for est in (
        estimate_ipw(ds, strata, truth.odds, f),
        estimate_ra(ds, strata, truth.outcomes, f),
        estimate_mr(ds, strata, truth.odds, truth.outcomes, f),
    ):
        assert abs(est.influence.values.mean()) <= 1e-12
        assert abs(est.theta_hat - truth.theta_true) <= 5 * est.influence.se


def test_outcome_correction_vanishes_only_under_correct_odds():
    # multiple robustness through the influence values: the gradient behind MR's
    # outcome-fit correction, (sum_case dm - sum_pool dm O) / n, tends to zero at
    # the root-n rate when the odds model is correct, whatever the outcome model,
    # and stays away from zero under the table-2 odds masks.  Seeds and bands
    # were fixed before the first run.
    f = default_functional("multiple")

    def largest_gradient(ds, strata, odds, outs):
        norms, fmap = [], complete_values(ds, strata, f)
        for pr in strata.incomplete_pairs():
            view, om = pair_view(ds, strata, pr), outs[pr.key]
            o, Z = view_values(odds[pr.key], view, "pool"), view.design(om.keep)
            m = read_outcome(om, view, fmap, pool=True)
            grad = Z.case.T @ m.factor_case - Z.pool.T @ (m.factor_pool * o)
            norms.append(np.abs(grad / ds.n).max())
        return max(norms)

    for seed in (1, 2):
        fitted, masked = [], []
        for n in (20_000, 200_000):
            ds = generate(SimDesign("multiple", n, seed))
            strata = build_strata(ds)
            odds = fit_all_odds(ds, strata)
            bad = _refit(odds, misspec_masks("multiple", "odds"), lambda pr, keep: fit_odds(ds, strata, pr, keep=keep))
            outs = fit_all_outcomes(ds, strata, f, decompose=True)
            fitted.append(largest_gradient(ds, strata, odds, outs))
            masked.append(largest_gradient(ds, strata, bad, outs))
        assert fitted[1] <= 5e-3 and fitted[1] * 1.5 <= fitted[0], (seed, fitted)
        assert masked[1] >= 3e-2 and masked[1] >= 0.8 * masked[0], (seed, masked)
