"""Exact work counts per operation, a ratchet on the package's fixed costs.

Each operation runs once to warm up and once more under cProfile, which
counts every call of a named function defined in `accmv`.  The test fails
when an operation makes more of them than `NAMED_CALLS` records; a change
that lowers a count records the new figure.  Comprehensions, generator
expressions and lambdas are left out, since Python 3.12 inlines
comprehensions and the supported versions would count differently.  numpy
calls seen by the profiler are printed beside each count but not gated: they
vary with the numpy release.
"""

import cProfile
import itertools
import os
import pstats

import numpy as np
import pytest

from accmv.cli import table_replicate
from accmv.data import Functional, build_strata
from accmv.estimators import estimate_mr
from accmv.glm import fit_all_odds, fit_all_outcomes
from accmv.sensitivity import TiltSpec, _tilted_grid
from accmv.simgen import SimDesign, generate

PACKAGE = os.sep + "accmv" + os.sep
ANONYMOUS = ("<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>", "<lambda>")
N = 2000
F1 = Functional("coordinate", (0,))
SPEC = TiltSpec(delta=(1.0,), center=(1.0,), grid=(-1.0, -0.5, 0.0, 0.5, 1.0))

# named `accmv` calls of each operation
NAMED_CALLS = {"table1": 661, "table2": 1224, "table3": 337, "bootstrap": 215, "sweep": 161}


def counts(op) -> tuple[int, int, int]:
    """Named `accmv` calls, all `accmv` calls and numpy calls of `op()`."""
    profile = cProfile.Profile()
    profile.runcall(op)
    named = total = numpy = 0
    for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items():
        if PACKAGE in path:
            total += calls
            named += calls * (name not in ANONYMOUS)
        elif "numpy" in path or "numpy" in name:
            numpy += calls
    return named, total, numpy


def resampled(ds, strata, seed):
    """`strata` reweighted by one case-resample draw of seed `seed`."""
    rows = np.random.default_rng(seed).integers(0, ds.n, ds.n)
    return strata.reweight(np.bincount(rows, minlength=ds.n))


@pytest.fixture(scope="module")
def ops():
    """Each operation as a callable; a resampling one draws resample 0, 1, ... on its successive calls."""
    tables = {f"table{t}": lambda t=t: table_replicate(t, N, 7) for t in (1, 2, 3)}
    ds = generate(SimDesign("single", N, 11))
    strata = build_strata(ds)
    odds = fit_all_odds(ds, strata)
    estimate_mr(ds, strata, odds, fit_all_outcomes(ds, strata, F1), F1)
    factors = {}
    _tilted_grid(ds, strata, odds, F1, SPEC, list(SPEC.grid), factors)
    boot_seeds, sweep_seeds = itertools.count(), itertools.count()

    def bootstrap_replicate():
        # a `fit --method mr --bootstrap` replicate
        s = resampled(ds, strata, next(boot_seeds))
        return estimate_mr(ds, s, fit_all_odds(ds, s), fit_all_outcomes(ds, s, F1), F1).theta_hat

    def sweep_replicate():
        # a `sensitivity --bootstrap` replicate over the grid of SPEC
        s = resampled(ds, strata, next(sweep_seeds))
        return _tilted_grid(ds, s, fit_all_odds(ds, s), F1, SPEC, list(SPEC.grid), factors)[0]

    return {**tables, "bootstrap": bootstrap_replicate, "sweep": sweep_replicate}


@pytest.mark.parametrize("name", list(NAMED_CALLS))
def test_calls_per_operation_do_not_rise(ops, name):
    ops[name]()                      # warm-up: first-use caches and the full-data fits' one-step starts
    named, total, numpy = counts(ops[name])
    print(f"{name}: {named} named accmv calls ({total} with comprehensions and lambdas), {numpy} numpy calls")
    assert named <= NAMED_CALLS[name], (
        f"{name} makes {named} named accmv calls, above the {NAMED_CALLS[name]} recorded")
