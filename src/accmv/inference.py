"""Standard errors and confidence intervals.

Influence-function ("theoretical") variances plug the empirical analogs of
the relevant derivative means into the asymptotic linear expansion of each
estimator, adding one correction term per estimated nuisance model.  Models
supplied as known functions (anything without fitted metadata) contribute no
correction.  The influence values come from the estimators' own pass over
the pattern pairs, as do those that `estimate_ipw/ra/mr` attach.
The nonparametric bootstrap takes the caller's point estimate, resamples
whole records and reruns the entire pipeline on each resample, nuisance
refits included.  A resample is drawn as per-record frequencies: the
full-data stratum index reweighted by them (see `StratumIndex.reweight`),
which the package's fits and estimators honour.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing as mp
import numbers
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .data import Dataset, StratumIndex, check_finite, check_integer
from .errors import AccmvError, BootstrapInstabilityError, ConfigError, InferenceError
from .estimators import InfluenceVector, _walk

DEFAULT_B = 500
DEFAULT_LEVEL = 0.95
MAX_FAILURE_RATE = 0.2


def _plain(v):
    """A float for a scalar or one-element array, else a list of floats."""
    v = np.asarray(v, dtype=float)
    return v.item() if v.size == 1 else v.tolist()


@dataclass
class CiReport:
    estimate: float | list
    se: float | list
    lower: float | list
    upper: float | list
    level: float
    method: str
    B: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def critical_value(level) -> float:
    """Two-sided standard-normal quantile of a confidence level in (0, 1)."""
    if not (isinstance(level, numbers.Real) and 0.0 < level < 1.0):
        raise ConfigError(f"confidence level must be in (0, 1), got {level!r}")
    return float(NormalDist().inv_cdf(0.5 + level / 2.0))


def normal_ci(estimate, se, level: float = DEFAULT_LEVEL) -> CiReport:
    """Wald interval `estimate ± z·se` of a scalar or elementwise of a vector."""
    z = critical_value(level)
    estimate, se = np.asarray(estimate, dtype=float), np.asarray(se, dtype=float)
    return CiReport(_plain(estimate), _plain(se), _plain(estimate - z * se), _plain(estimate + z * se),
                    level, "influence")


def _influence(ds, strata, f, theta_hat, **models) -> tuple[float, InfluenceVector]:
    iv = InfluenceVector(_walk(ds, strata, f, influence=True, **models).influence - theta_hat)
    return iv.se, iv


def if_variance_ipw(ds, strata, odds, f, theta_hat: float) -> tuple[float, InfluenceVector]:
    """Influence-function SE for the inverse-probability-weighted estimate."""
    return _influence(ds, strata, f, theta_hat, odds=odds)


def if_variance_ra(ds, strata, outcomes, f, theta_hat: float) -> tuple[float, InfluenceVector]:
    """Influence-function SE for the regression-adjustment estimate."""
    return _influence(ds, strata, f, theta_hat, outcomes=outcomes)


def if_variance_mr(ds, strata, odds, outcomes, f, theta_hat: float) -> tuple[float, InfluenceVector]:
    """Influence-function SE for the multiply-robust estimate, with correction
    terms for both nuisance families."""
    return _influence(ds, strata, f, theta_hat, odds=odds, outcomes=outcomes)


def seed_sequence(seed) -> np.random.SeedSequence:
    """The SeedSequence of a non-negative integer seed."""
    check_integer("seed", seed)
    return np.random.SeedSequence(seed)


def _check_replicates(B, none_ok: bool = False) -> None:
    """Raise ConfigError unless the replicate count B is an integer >= 2, or
    0 (no replicates) where `none_ok`."""
    if isinstance(B, bool) or not isinstance(B, numbers.Integral):
        raise ConfigError(f"the number of replicates B must be an integer, got {B!r}")
    if B < 2 and not (none_ok and B == 0):
        raise ConfigError(f"bootstrap needs B >= 2{' (or 0 for none)' if none_ok else ''}, got {B}")


def attempt(fn, *args):
    """`fn(*args)`, or the class name of the `AccmvError` that stopped it."""
    try:
        return fn(*args)
    except AccmvError as e:
        return type(e).__name__


def failures_of(results) -> dict:
    """The failed `attempt` results counted by error class name, in name order."""
    return dict(sorted(Counter(r for r in results if isinstance(r, str)).items()))


def failed_text(B, failures) -> str:
    """How many of B replicates failed, and why, from their `failures_of` tally."""
    why = ", ".join(f"{name} {k}" for name, k in failures.items())
    return f"{sum(failures.values())} of {B} replicates failed" + (f" ({why})" if why else "")


def _take(work, args, counter) -> list:
    """(i, work(*args[i])) for each index i drawn from the shared `counter`
    until it passes the end of `args`."""
    done = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(args):
            return done
        done.append((i, work(*args[i])))


def _helper(work, args, counter, conn) -> None:
    """A helper process of `replicate`: its share of `args`, or the exception
    that stopped it, sent back in one message."""
    try:
        conn.send(_take(work, args, counter))
    except Exception as e:           # AccmvErrors are tallied by `work`; any other is the caller's to raise
        conn.send(e)
    conn.close()


def replicate(fn, args, workers: int = 1) -> tuple[list, dict]:
    """`attempt(fn, *a)` for each tuple `a` of `args` in order, None for a
    failed one (so `fn` returns neither None nor a str), and the failures
    tallied by `failures_of`.  With `workers` > 1 the sequence `args` is
    shared by that many processes: this one and `workers` - 1 helpers
    (forked where available, else spawned, which needs `fn` importable by
    name) draw indices from one shared counter, and each helper sends its
    results back when the indices run out.  An exception other than an
    `AccmvError` in any share is raised here, and every helper is stopped
    and joined before this returns or raises.  Otherwise `args` is drawn
    lazily, serially."""
    work = functools.partial(attempt, fn)
    if workers > 1:
        ctx = mp.get_context("fork" if os.name == "posix" else "spawn")
        counter, helpers = ctx.Value("q", 0), []
        try:
            for _ in range(workers - 1):
                recv, send = ctx.Pipe(duplex=False)
                process = ctx.Process(target=_helper, args=(work, args, counter, send), daemon=True)
                process.start()
                helpers.append((process, recv))
                send.close()             # the helper holds its own end; EOF here if it dies
            done = _take(work, args, counter)
            for _, recv in helpers:
                got = recv.recv()
                if isinstance(got, BaseException):
                    raise got
                done += got
        finally:
            for process, recv in helpers:
                process.terminate()
                process.join()
                recv.close()
        results = [r for _, r in sorted(done)]     # indices are distinct, so no two results are compared
    else:
        # starmap drops each tuple before drawing the next: one is alive at a time
        results = list(itertools.starmap(work, args))
    return [None if isinstance(r, str) else r for r in results], failures_of(results)


def _replicate_value(value) -> np.ndarray:
    """A bootstrap replicate's value as a float array: ConfigError unless it
    holds only real numbers, InferenceError unless each is finite."""
    try:
        v = np.atleast_1d(np.asarray(value))
    except ValueError:               # a ragged sequence
        v = np.empty(0, dtype=object)
    if v.dtype.kind not in "iuf":
        raise ConfigError(f"a bootstrap pipeline must return a number or a vector of numbers, got {value!r}")
    if not np.isfinite(v).all():
        raise InferenceError(f"a bootstrap replicate is not finite: {value!r}")
    return v.astype(float)


@dataclass
class BootstrapReport:
    estimate: float | list
    se: float | list
    normal: CiReport
    percentile: CiReport
    B: int
    seed: int
    n_failed: int
    level: float
    failures: dict = field(default_factory=dict)   # AccmvError subclass name -> count

    def to_dict(self) -> dict:
        return asdict(self)


def bootstrap(
    ds: Dataset,
    strata: StratumIndex,
    pipeline,
    estimate,
    B: int = DEFAULT_B,
    seed: int = 0,
    level: float = DEFAULT_LEVEL,
) -> BootstrapReport:
    """Case bootstrap of a full estimation pipeline around its point estimate.

    `estimate` is the scalar or vector that `pipeline(ds, strata)` returns
    on the full data; `pipeline` is rerun serially on each resample,
    nuisance refits included.  A resample is `strata` reweighted by record
    frequencies, so the pipeline must sum over records through the package's
    fits and estimators, or honour `strata.freq` itself, and return numbers:
    a replicate that is not finite raises InferenceError, one that is not
    numbers ConfigError.  `ds` must be the dataset of `strata`.  More than
    `MAX_FAILURE_RATE` of the B replicates failing aborts; for B >= 2 that
    leaves at least two for the standard error.
    """
    _check_replicates(B)
    strata.check_dataset(ds)
    critical_value(level)            # reject a bad level before any replicate runs
    check_finite("the bootstrap's point estimate", np.atleast_1d(estimate))
    point = np.atleast_1d(np.asarray(estimate, dtype=float))

    def resamples():
        # replicate i draws from child stream i; reweight runs outside `attempt`, so a bad index raises
        for child in seed_sequence(seed).spawn(B):
            rows = np.random.default_rng(child).integers(0, ds.n, ds.n)
            yield ds, strata.reweight(np.bincount(rows, minlength=ds.n))

    # each value is boxed, so that a pipeline returning None is not read as a failed replicate
    results, failures = replicate(lambda d, s: (pipeline(d, s),), resamples())
    n_failed = sum(failures.values())
    if n_failed > MAX_FAILURE_RATE * B:
        raise BootstrapInstabilityError(f"bootstrap: {failed_text(B, failures)}, over the {MAX_FAILURE_RATE:.0%} allowed")
    mat = np.vstack([_replicate_value(r[0]) for r in results if r is not None])
    if point.shape != mat.shape[1:]:
        raise ConfigError(f"the point estimate has shape {point.shape} but each replicate {mat.shape[1:]}")
    se = mat.std(axis=0, ddof=1)
    lo_q, hi_q = np.quantile(mat, [(1 - level) / 2.0, (1 + level) / 2.0], axis=0)
    normal = replace(normal_ci(point, se, level), method="bootstrap-normal", B=B, seed=seed)
    percentile = replace(normal, lower=_plain(lo_q), upper=_plain(hi_q), method="bootstrap-percentile")
    return BootstrapReport(
        estimate=normal.estimate, se=normal.se, normal=normal, percentile=percentile,
        B=B, seed=seed, n_failed=n_failed, level=level, failures=failures,
    )
