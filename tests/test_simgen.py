import hashlib

import numpy as np
import pytest

from accmv import simgen
from accmv.data import build_strata
from accmv.errors import ConfigError
from accmv.patterns import Pattern
from accmv.simgen import (
    SimDesign,
    equicorr,
    generate,
    misspec_masks,
    oracle_value,
    verify_oracles,
)


def bytes_of(ds):
    return ds.X.tobytes() + ds.L.tobytes()


@pytest.mark.parametrize("kind", ["single", "multiple", "mpm"])
def test_determinism(kind):
    a = generate(SimDesign(kind, 3000, 12345))
    b = generate(SimDesign(kind, 3000, 12345))
    assert bytes_of(a) == bytes_of(b)
    c = generate(SimDesign(kind, 3000, 54321))
    assert bytes_of(a) != bytes_of(c)


# sha256 of X then L, recorded from the two per-design generators that the
# stratified generator replaced; its output must stay byte for byte the same
GOLDEN = {
    ("single", 7, 1): "e7c7ec4b55fdf1a40f7997303652517ec75b611390052897fb332c7869182887",
    ("single", 2000, 99): "9b765731f2ee940f5ab62e8059495c7882c448d29d3b6486cf33a87f0319ed9c",
    ("multiple", 7, 1): "a65cec38947cd07629a6a4604f4b22ca9bb10c1c80e9503878c4dcbc54b06b58",
    ("multiple", 2000, 99): "571aaa5dd8f649f06cb9309e02a1c48aff712ffbe28c2d90f2f55096e0dac0e3",
    ("mpm", 7, 1): "709e1667ef09367caba32373b92281402a4cba63b71e183a1ddf72eaa6d25dd0",
    ("mpm", 2000, 99): "28889923be160c7431d7b192af14052ece72fdd199190c1bfc7b90845fb466b9",
}


@pytest.mark.parametrize("kind,n,seed", sorted(GOLDEN))
def test_golden_digest(kind, n, seed):
    assert hashlib.sha256(bytes_of(generate(SimDesign(kind, n, seed)))).hexdigest() == GOLDEN[kind, n, seed]


def mask_loop_strata(rng, n, d):
    """The stratified generator as it was written first, one mask scan per
    cell, kept as the reference for the grouped one."""
    cat = rng.integers(0, 4 << d, n)
    z = rng.standard_normal((n, 2 + d))
    X = np.full((n, 2), np.nan)
    L = np.full((n, d), np.nan)
    chols = {k: simgen._chol(k) for k in range(1, 3 + d)}
    for a in range(1 << d):
        for r in range(4):
            rows = np.flatnonzero((cat // 4 == a) & (cat % 4 == r))
            lidx, xidx = list(Pattern(a, d).indices), list(Pattern(r, 2).indices)
            dim = len(lidx) + len(xidx)
            if rows.size == 0 or dim == 0:
                continue
            vec = simgen._MU[d, dim] + z[rows, :dim] @ chols[dim].T
            L[np.ix_(rows, lidx)] = vec[:, :len(lidx)]
            X[np.ix_(rows, xidx)] = vec[:, len(lidx):]
    return X, L


@pytest.mark.parametrize("kind,d", [("single", 1), ("multiple", 2)])
def test_grouped_cells_match_the_mask_loop(kind, d):
    for seed in range(20):
        for n in (1, 9, 2000):
            X, L = mask_loop_strata(np.random.default_rng(seed), n, d)
            ds = generate(SimDesign(kind, n, seed))
            assert bytes_of(ds) == X.tobytes() + L.tobytes(), (seed, n)


@pytest.mark.parametrize("kind,cells,prob", [("single", 8, 1 / 8), ("multiple", 16, 1 / 16)])
def test_stratum_frequencies(kind, cells, prob):
    n = 10**5
    ds = generate(SimDesign(kind, n, 2026))
    strata = build_strata(ds)
    assert len(strata.by_pair) == cells
    sigma = np.sqrt(prob * (1 - prob) / n)
    for rows in strata.by_pair.values():
        assert abs(rows.size / n - prob) <= 4 * sigma


def test_gaussian_stratum_moments():
    n = 10**5
    ds = generate(SimDesign("multiple", n, 99))
    strata = build_strata(ds)
    rows = strata.by_pair[(3, 3)]          # everything observed
    V = np.hstack([ds.L[rows], ds.X[rows]])
    m = rows.size
    target_cov = equicorr(4)
    np.testing.assert_allclose(V.mean(axis=0), np.ones(4), atol=4 / np.sqrt(m))
    emp = np.cov(V.T, ddof=0)
    for i in range(4):
        for j in range(4):
            se = np.sqrt((target_cov[i, i] * target_cov[j, j] + target_cov[i, j] ** 2) / m)
            assert abs(emp[i, j] - target_cov[i, j]) <= 4 * se


def test_mpm_pattern_structure():
    ds = generate(SimDesign("mpm", 10**5, 31))
    strata = build_strata(ds)
    # eight strata: (r, a) over {0,1} x {00,01,10,11}
    assert len(strata.by_pair) == 8
    # complete cases carry both primaries; r=1 records carry the auxiliary
    assert not np.isnan(ds.L[ds.complete_mask]).any()
    r1 = ds.r_codes == 1
    assert not np.isnan(ds.X[r1, 0]).any()
    assert np.isnan(ds.X[~r1, 0]).all()


def test_oracle_values_exact():
    assert oracle_value("single").theta_true == 89.0 / 96.0
    assert oracle_value("multiple").theta_true == 175.0 / 128.0
    np.testing.assert_array_equal(oracle_value("mpm").theta_true, [-1.0, 0.5])


def test_oracle_handles_cover_every_incomplete_pair():
    for kind in ("single", "multiple", "mpm"):
        ds = generate(SimDesign(kind, 4000, 1))
        strata = build_strata(ds)
        truth = oracle_value(kind)
        for pr in strata.incomplete_pairs():
            assert pr.key in truth.odds
            if truth.outcomes:
                assert pr.key in truth.outcomes


def test_oracle_odds_match_design_single():
    truth = oracle_value("single")
    x = np.array([[0.3, -0.7]])
    got = truth.odds[(3, 0)].predict(x, np.empty((1, 0)))
    expect = np.exp(8 / 3 * 0.3 - 4 / 3 * (-0.7) - 4 / 3)
    np.testing.assert_allclose(got, expect)
    np.testing.assert_allclose(truth.odds[(0, 0)].predict(np.empty((1, 0)), np.empty((1, 0))), 0.25)


def test_misspec_masks_shape():
    assert misspec_masks("single", "odds") == {(3, 0): (False, False)}
    assert misspec_masks("single", "outcome") == {(3, 0): (True, False)}
    assert set(misspec_masks("multiple", "odds")) == {(0, 1), (0, 2)}
    assert misspec_masks("mpm", "odds") == {}
    with pytest.raises(ConfigError):
        misspec_masks("single", "propensity")


def test_design_validation():
    with pytest.raises(ConfigError):
        SimDesign("triple", 10)
    with pytest.raises(ConfigError):
        SimDesign("single", 0)
    with pytest.raises(ConfigError):
        SimDesign("single", 10, seed=-1)


@pytest.mark.parametrize("kind", ["single", "multiple", "mpm"])
def test_verify_oracles_small(kind):
    report = verify_oracles(SimDesign(kind, 10**5, 777))
    assert report.ok, report.summary()
    assert "ok" in report.summary()


def test_verify_oracles_requires_big_n():
    with pytest.raises(ConfigError):
        verify_oracles(SimDesign("single", 1000, 1))