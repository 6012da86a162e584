"""Response-pattern algebra.

A pattern records which coordinates of a vector are observed.  Patterns are
canonical unsigned integers: coordinate 1 is the most significant bit, so the
string "1010" means coordinates 1 and 3 observed out of 4.  The coordinatewise
partial order ("every coordinate observed here is observed there") drives pool
construction everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_LENGTH = 16


@dataclass(frozen=True, order=False)
class Pattern:
    """Observedness mask over a fixed-length coordinate vector."""

    value: int
    length: int

    def __post_init__(self):
        if not 1 <= self.length <= MAX_LENGTH:
            raise ValueError(f"pattern length must be in [1, {MAX_LENGTH}], got {self.length}")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"pattern value {self.value} out of range for length {self.length}")
        # derived once: patterns are immutable and these are read on every design lookup
        bits = tuple((self.value >> (self.length - 1 - j)) & 1 for j in range(self.length))
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_indices", tuple(j for j, b in enumerate(bits) if b))

    @classmethod
    def from_string(cls, s: str) -> "Pattern":
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"pattern string must be nonempty 0/1 characters, got {s!r}")
        return cls(int(s, 2), len(s))

    @classmethod
    def complete(cls, length: int) -> "Pattern":
        return cls((1 << length) - 1, length)

    @classmethod
    def empty(cls, length: int) -> "Pattern":
        return cls(0, length)

    @property
    def bits(self) -> tuple[int, ...]:
        return self._bits

    @property
    def indices(self) -> tuple[int, ...]:
        """0-based coordinates that are observed, in coordinate order."""
        return self._indices

    @property
    def popcount(self) -> int:
        return bin(self.value).count("1")

    def complement(self) -> "Pattern":
        return Pattern(self.value ^ ((1 << self.length) - 1), self.length)

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b")


@dataclass(frozen=True)
class PatternPair:
    """One stratum index (R = r, A = a)."""

    r: Pattern
    a: Pattern

    def __str__(self) -> str:
        return f"(r={self.r}, a={self.a})"

    @property
    def key(self) -> tuple[int, int]:
        return (self.r.value, self.a.value)


def dominates(r1: Pattern, r2: Pattern) -> bool:
    """True iff r1 observes every coordinate that r2 observes."""
    if r1.length != r2.length:
        raise ValueError(f"pattern length mismatch: {r1.length} vs {r2.length}")
    return (r1.value & r2.value) == r2.value


def dominating(codes, r: Pattern):
    """Which pattern `codes` (an int or integer array) observe every coordinate r observes."""
    return (codes & r.value) == r.value


def dominated_set(r: Pattern) -> list[Pattern]:
    """All patterns tau <= r, ascending by binary value (2**popcount of them)."""
    v = r.value
    subs = []
    s = 0
    while True:
        subs.append(Pattern(s, r.length))
        if s == v:
            break
        # next subset of v above s
        s = (s - v) & v
    return subs


def all_patterns(length: int) -> list[Pattern]:
    return [Pattern(v, length) for v in range(1 << length)]
