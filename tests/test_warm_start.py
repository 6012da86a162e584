"""Warm-started resample replicates and the sweep's shared tilt factors.

A fit on a reweighted stratum index starts its Newton loop one Newton step
from the full-data fit of the same pair and keep mask on the parent index,
taken with the full-data information matrix.  The cold start it must match
is the same replicate drawn from a fresh index that no full-data fit ran
on, so its fits start at the intercept-only MLE.  The bound is the 1e-12 of
a speed-only change.
"""

import numpy as np
import pytest

from accmv.data import Functional, build_strata
from accmv.estimators import estimate_ipw, estimate_mr, estimate_ra
from accmv.glm import design_matrix, fit_all_odds, fit_all_outcomes, pair_view
from accmv.sensitivity import TiltSpec, sweep, tilted_estimate
from accmv.simgen import SimDesign, generate

TOL = 1e-12
SEEDS = range(20)
F1 = Functional("coordinate", (0,))
F2 = Functional("product", (0, 1))
SPEC = TiltSpec(delta=(0.8,), center=(1.0,), grid=(-1.0, -0.5, 0.0, 0.5, 1.0))


def counts(ds, seed):
    """Record frequencies of the draw `inference.bootstrap` makes for stream 0 of `seed`."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return np.bincount(np.random.default_rng(child).integers(0, ds.n, ds.n), minlength=ds.n)


def replicate_fit(ds, s, f, decompose):
    """Odds coefficients, estimates and tilt grid of one replicate, and its Newton iterations."""
    odds = fit_all_odds(ds, s)
    outs = fit_all_outcomes(ds, s, f, decompose=decompose)
    out = {
        "alpha": np.concatenate([odds[k].alpha for k in sorted(odds)]),
        "mr": estimate_mr(ds, s, odds, outs, f).theta_hat,
        "ipw": estimate_ipw(ds, s, odds, f).theta_hat,
        "ipw_sn": estimate_ipw(ds, s, odds, f, self_normalize=True).theta_hat,
        "ra": estimate_ra(ds, s, outs, f).theta_hat,
        "grid": sweep(ds, s, odds, f, SPEC).estimates,
    }
    return out, [m.n_iter for m in odds.values()]


@pytest.fixture(scope="module", params=[("single", F1, False), ("multiple", F2, True)], ids=["single", "multiple"])
def warm_and_cold(request):
    """Per seed, the warm and the cold replicate, plus the Newton iterations of each fit."""
    kind, f, decompose = request.param
    ds = generate(SimDesign(kind, 2000, 5150))
    strata = build_strata(ds)
    full = fit_all_odds(ds, strata)                # the fit the warm replicates start from
    reps, iters = [], {"warm": [], "cold": []}
    for seed in SEEDS:
        c = counts(ds, seed)
        warm, n_warm = replicate_fit(ds, strata.reweight(c), f, decompose)
        cold, n_cold = replicate_fit(ds, build_strata(ds).reweight(c), f, decompose)
        reps.append((seed, warm, cold))
        iters["warm"] += n_warm
        iters["cold"] += n_cold
    return ds, strata, full, reps, iters


def test_warm_replicates_match_cold_starts(warm_and_cold):
    *_, reps, _ = warm_and_cold
    for seed, warm, cold in reps:
        for key in cold:
            gap = np.max(np.abs(np.asarray(warm[key]) - np.asarray(cold[key])))
            assert gap <= TOL, (seed, key, gap)


def test_warm_start_saves_newton_iterations(warm_and_cold):
    # a start at the full-data alpha itself takes about 4 iterations a fit here
    *_, iters = warm_and_cold
    assert np.mean(iters["warm"]) < 3.5 and sum(iters["warm"]) < sum(iters["cold"]), iters


def test_singular_full_data_information_starts_at_alpha(monkeypatch):
    # with no inverse of the full-data information the replicates start at
    # the full-data alpha, and fit as a cold start does
    ds = generate(SimDesign("single", 2000, 5150))
    strata = build_strata(ds)
    fit_all_odds(ds, strata)

    def singular(M):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    for seed in range(5):
        c = counts(ds, seed)
        warm = fit_all_odds(ds, strata.reweight(c))
        cold = fit_all_odds(ds, build_strata(ds).reweight(c))
        for key, model in cold.items():
            assert np.max(np.abs(warm[key].alpha - model.alpha)) <= TOL
    for pr in strata.incomplete_pairs():
        assert pair_view(ds, strata, pr)._fits[None][1] is None


def test_full_data_fit_starts_cold_after_replicates(warm_and_cold):
    ds, strata, full, _, _ = warm_and_cold
    again = fit_all_odds(ds, strata)
    for key, model in full.items():
        np.testing.assert_array_equal(again[key].alpha, model.alpha)
        assert again[key].n_iter == model.n_iter


def test_sweep_failures_match_cold_start():
    # at n = 200, 4 of the 20 replicates fail: three separate, one leaves a stratum small
    ds = generate(SimDesign("single", 200, 0))
    strata = build_strata(ds)
    odds = fit_all_odds(ds, strata)
    fresh = build_strata(ds)         # an odds model is read only on the index it was fitted on
    warm = sweep(ds, strata, odds, F1, SPEC, B=20, seed=1)
    cold = sweep(ds, fresh, fit_all_odds(ds, fresh), F1, SPEC, B=20, seed=1)
    assert warm.failures == cold.failures == {"SeparationError": 3, "SmallStratumError": 1}
    assert warm.n_failed == cold.n_failed == 4
    assert warm.estimates == cold.estimates
    for a, b in ((warm.ci_lower, cold.ci_lower), (warm.ci_upper, cold.ci_upper)):
        assert np.max(np.abs(np.subtract(a, b))) <= TOL


def loop_weights(ds, s, odds, delta, center):
    """Reference weight table, record by record: frequency times 1 plus the
    tilted odds of every pair whose pool holds the record."""
    total = []
    for i in np.flatnonzero(s.complete_mask):
        q = 0.0
        for pr in s.incomplete_pairs():
            if (ds.r_codes[i] & pr.r.value) == pr.r.value:
                eta = design_matrix(ds, [i], pr)[0][0] @ odds[pr.key].alpha
                tilt = sum(delta[j] * (ds.L[i, j] - center[j]) for j in range(ds.d) if j not in pr.a.indices)
                q += np.exp(np.clip(eta, -30.0, 30.0)) * np.exp(np.clip(tilt, -30.0, 30.0))
        total.append(s.weights([i])[0] * (1.0 + q))
    return np.array(total)


@pytest.mark.parametrize("kind,f", [("single", F1), ("multiple", F2)], ids=["single", "multiple"])
def test_grid_equals_per_point_weights(kind, f):
    ds = generate(SimDesign(kind, 600, 41))
    full = build_strata(ds)
    center = SPEC.resolved_center(ds.d)
    for s in (full, full.reweight(counts(ds, 2))):
        odds = fit_all_odds(ds, s)               # read only on the index it was fitted on
        grid = sweep(ds, s, odds, f, SPEC).estimates
        fvals = f(ds.L[s.complete_mask])
        for m, est in zip(SPEC.grid, grid):
            assert est == tilted_estimate(ds, s, odds, f, SPEC, m)
            w = loop_weights(ds, s, odds, SPEC.resolved_delta(ds.d, m), center)
            assert abs(est - fvals @ w / w.sum()) <= TOL * abs(est), (m, est)
