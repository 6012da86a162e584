"""Hand-built fully discrete toys: every probability set by hand, every
identified quantity computable by exhaustive summation.

The direct-summation identification, the population weighting formula with
exact odds, and the population regression formula with exact conditional
means must coincide exactly, and the packaged estimators evaluated on a
dataset replicating the law must reproduce the same number.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from accmv.data import Dataset, Functional
from accmv.patterns import Pattern, PatternPair
from accmv.simgen import OracleModel


class DiscreteToy:
    """Joint law on (x, l, r, a) with binary coordinates, p = 1 auxiliary.

    `weights` maps (x, l_tuple, r, a) to positive integers; probabilities are
    weights over their total, so the replicated dataset's empirical law is
    the toy law exactly.
    """

    def __init__(self, d, weights, f: Functional):
        self.p = 1
        self.d = d
        self.weights = {k: Fraction(v) for k, v in weights.items()}
        self.total = sum(self.weights.values())
        self.complete = (1 << d) - 1
        self.f = f

    def prob(self, x, l, r, a):
        return self.weights[(x, l, r, a)] / self.total

    def _a_obs(self, a):
        return [j for j in range(self.d) if (a >> (self.d - 1 - j)) & 1]

    def mass(self, x=None, la=None, a=None, r=None, r_geq=None, a_obs_under=None):
        """Total probability of cells matching the given observed values."""
        out = Fraction(0)
        for (cx, cl, cr, ca), w in self.weights.items():
            if x is not None and cx != x:
                continue
            if r is not None and cr != r:
                continue
            if r_geq is not None and (cr & r_geq) != r_geq:
                continue
            if a is not None and ca != a:
                continue
            if la is not None:
                obs = self._a_obs(a_obs_under)
                if any(cl[j] != la[i] for i, j in enumerate(obs)):
                    continue
            out += w
        return out / self.total

    def fval(self, l):
        return Fraction(int(self.f(np.array([l], dtype=float))[0]))

    # -- exact nuisance functions -------------------------------------------
    def odds(self, r, a, x, la):
        xv = x if r == 1 else None
        num = self.mass(x=xv, la=la, a=a, r=r, a_obs_under=a)
        den = self.mass(x=xv, la=la, a=self.complete, r_geq=r, a_obs_under=a)
        return num / den

    def m(self, r, a, x, la):
        xv = x if r == 1 else None
        num = Fraction(0)
        den = Fraction(0)
        for (cx, cl, cr, ca), w in self.weights.items():
            if ca != self.complete or (cr & r) != r:
                continue
            if xv is not None and cx != xv:
                continue
            obs = self._a_obs(a)
            if any(cl[j] != la[i] for i, j in enumerate(obs)):
                continue
            num += w * self.fval(cl)
            den += w
        return num / den

    # -- three population routes to theta ------------------------------------
    def theta_direct(self):
        """Extrapolation-density construction summed exhaustively."""
        total = Fraction(0)
        for l in product((0, 1), repeat=self.d):
            total += self.fval(l) * self.mass(la=l, a=self.complete, a_obs_under=self.complete)
        for r in (0, 1):
            for a in range(self.complete):
                for l in product((0, 1), repeat=self.d):
                    acc = Fraction(0)
                    obs = self._a_obs(a)
                    la = tuple(l[j] for j in obs)
                    for x in (0, 1):
                        xv = x if r == 1 else None
                        den = self.mass(x=xv, la=la, a=self.complete, r_geq=r, a_obs_under=a)
                        num = Fraction(0)
                        for (cx, cl, cr, ca), w in self.weights.items():
                            if ca != self.complete or (cr & r) != r or cl != l:
                                continue
                            if xv is not None and cx != xv:
                                continue
                            num += w
                        cond = (num / self.total) / den
                        acc += cond * self.mass(x=xv, la=la, a=a, r=r, a_obs_under=a)
                        if r == 0:
                            break    # no auxiliary observed: single term
                    total += self.fval(l) * acc
        return total

    def theta_ipw(self):
        total = Fraction(0)
        for (x, l, r, a), w in self.weights.items():
            if a != self.complete:
                continue
            wgt = Fraction(1)
            for tau in (0, 1):
                if (r & tau) != tau:
                    continue
                for aa in range(self.complete):
                    la = tuple(l[j] for j in self._a_obs(aa))
                    wgt += self.odds(tau, aa, x, la)
            total += self.fval(l) * wgt * w / self.total
        return total

    def theta_ra(self):
        total = Fraction(0)
        for (x, l, r, a), w in self.weights.items():
            if a == self.complete:
                total += self.fval(l) * w / self.total
            else:
                la = tuple(l[j] for j in self._a_obs(a))
                total += self.m(r, a, x, la) * w / self.total
        return total

    # -- dataset + oracle models for the packaged estimators -----------------
    def dataset(self):
        X_rows, L_rows = [], []
        for (x, l, r, a), w in self.weights.items():
            xrow = [float(x)] if r == 1 else [np.nan]
            lrow = [float(l[j]) if (a >> (self.d - 1 - j)) & 1 else np.nan for j in range(self.d)]
            for _ in range(int(w)):
                X_rows.append(xrow)
                L_rows.append(lrow)
        return Dataset(np.array(X_rows), np.array(L_rows))

    def _lookup(self, fn, r, a):
        table = {}
        for x in (0, 1) if r == 1 else (None,):
            for la in product((0, 1), repeat=len(self._a_obs(a))):
                table[(x, la)] = float(fn(r, a, x, la))

        def predict(xr, la):
            xr, la = np.atleast_2d(xr), np.atleast_2d(la)
            out = np.empty(xr.shape[0])
            for i in range(xr.shape[0]):
                xv = int(round(xr[i, 0])) if xr.shape[1] else None
                lv = tuple(int(round(v)) for v in la[i])
                out[i] = table[(xv, lv)]
            return out

        return predict

    def oracle_models(self):
        odds, outs = {}, {}
        for r in (0, 1):
            for a in range(self.complete):
                pair = PatternPair(Pattern(r, self.p), Pattern(a, self.d))
                o = OracleModel(pair, None)
                o.predict = self._lookup(self.odds, r, a)
                odds[(r, a)] = o
                m = OracleModel(pair, None)
                m.predict = self._lookup(self.m, r, a)
                outs[(r, a)] = m
        return odds, outs


def toy_single_primary() -> DiscreteToy:
    weights = {}
    vals = [3, 5, 2, 7, 4, 6, 1, 8, 5, 3, 6, 2, 7, 1, 9, 4]
    i = 0
    for r in (0, 1):
        for a in (0, 1):
            for x in (0, 1):
                for l in ((0,), (1,)):
                    weights[(x, l, r, a)] = vals[i]
                    i += 1
    return DiscreteToy(1, weights, Functional("coordinate", (0,)))


def toy_two_primaries() -> DiscreteToy:
    weights = {}
    rng = np.random.default_rng(20240517)
    for r in (0, 1):
        for a in range(4):
            for x in (0, 1):
                for l in product((0, 1), repeat=2):
                    weights[(x, l, r, a)] = int(rng.integers(1, 12))
    return DiscreteToy(2, weights, Functional("product", (0, 1)))
