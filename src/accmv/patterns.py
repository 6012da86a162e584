"""Response-pattern algebra.

A pattern records which coordinates of a vector are observed.  Patterns are
canonical unsigned integers: coordinate 1 is the most significant bit, so the
string "1010" means coordinates 1 and 3 observed out of 4.  The coordinatewise
partial order ("every coordinate observed here is observed there") drives pool
construction everywhere else.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .errors import ConfigError

MAX_LENGTH = 16


@dataclass(frozen=True, order=False)
class Pattern:
    """Observedness mask over a fixed-length coordinate vector."""

    value: int
    length: int

    def __post_init__(self):
        for name, v in (("length", self.length), ("value", self.value)):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ConfigError(f"pattern {name} must be an integer, got {v!r}")
        if not 1 <= self.length <= MAX_LENGTH:
            raise ConfigError(f"pattern length must be in [1, {MAX_LENGTH}], got {self.length}")
        if not 0 <= self.value < (1 << self.length):
            raise ConfigError(f"pattern value {self.value} out of range for length {self.length}")
        # derived once: patterns are immutable and these are read on every design lookup;
        # `indices` holds the 0-based coordinates that are observed, in coordinate order
        bits = tuple((self.value >> (self.length - 1 - j)) & 1 for j in range(self.length))
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "indices", tuple(j for j, b in enumerate(bits) if b))

    @property
    def bits(self) -> tuple[int, ...]:
        return self._bits

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b")


@dataclass(frozen=True)
class PatternPair:
    """One stratum index (R = r, A = a); `key` holds its codes and `label` (str(r), str(a))."""

    r: Pattern
    a: Pattern

    def __post_init__(self):
        object.__setattr__(self, "key", (self.r.value, self.a.value))
        object.__setattr__(self, "label", (str(self.r), str(self.a)))

    def __str__(self) -> str:
        return f"(r={self.r}, a={self.a})"


def dominating(codes, r: Pattern):
    """Which pattern `codes` (an int or integer array) observe every coordinate r observes."""
    return (codes & r.value) == r.value
