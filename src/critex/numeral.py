"""Base-k digit words: canonical encodings of naturals and of pairs.

Conventions used throughout the package:

* digits are read most significant first, the one order every machine and
  automaton file uses,
* a digit word carries its base and its track count; operations that mix
  bases or track counts are rejected instead of silently coerced,
* the canonical encoding of 0 is the empty word, and the canonical encoding
  of a pair is zero-padded to equal track length and never starts with the
  all-zero symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class NumeralError(ValueError):
    pass


class InvalidDigitError(NumeralError):
    pass


class ZeroDenominatorError(NumeralError):
    pass


@dataclass(frozen=True)
class RadixContext:
    """Base k >= 2 with digit alphabet {0..k-1}."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise NumeralError(f"base must be >= 2, got {self.k}")


@dataclass(frozen=True)
class DigitWord:
    """Finite word over (digit tuples)^tracks in a fixed base, most
    significant digit first."""

    k: int
    tracks: int
    symbols: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 2:
            raise NumeralError(f"base must be >= 2, got {self.k}")
        if self.tracks < 1:
            raise NumeralError(f"track count must be >= 1, got {self.tracks}")
        for sym in self.symbols:
            if len(sym) != self.tracks:
                raise NumeralError(f"symbol {sym} has wrong arity")
            for d in sym:
                if not 0 <= d < self.k:
                    raise InvalidDigitError(f"digit {d} out of range for base {self.k}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def track(self, i: int) -> "DigitWord":
        """Projection onto track i (0-based) as a 1-track word."""
        if not 0 <= i < self.tracks:
            raise NumeralError(f"track {i} out of range")
        return DigitWord(self.k, 1, tuple((s[i],) for s in self.symbols))

    def value(self, track: int = 0) -> int:
        """Integer value of one track."""
        v = 0
        for s in self.symbols:
            v = v * self.k + s[track]
        return v

    def concat(self, other: "DigitWord") -> "DigitWord":
        if (self.k, self.tracks) != (other.k, other.tracks):
            raise NumeralError("cannot concatenate words of different base/arity")
        return DigitWord(self.k, self.tracks, self.symbols + other.symbols)

    def __str__(self) -> str:
        if not self.symbols:
            return "eps"
        if self.tracks == 1 and self.k <= 10:
            return "".join(str(s[0]) for s in self.symbols)
        return "".join("[" + ",".join(str(d) for d in s) + "]" for s in self.symbols)

    @staticmethod
    def from_digits(digits: str, k: int) -> "DigitWord":
        return DigitWord(k, 1, tuple((int(ch),) for ch in digits))

    @staticmethod
    def from_pairs(pairs, k: int) -> "DigitWord":
        return DigitWord(k, 2, tuple(tuple(p) for p in pairs))


def digits_of(n: int, k: int) -> list[int]:
    """Canonical most-significant-first digits; empty for 0."""
    if not isinstance(k, int) or k < 2:
        raise NumeralError(f"base must be an integer >= 2, got {k!r}")
    if n < 0:
        raise NumeralError("negative integers have no encoding")
    out: list[int] = []
    while n:
        out.append(n % k)
        n //= k
    out.reverse()
    return out


def encode(n: int, ctx: RadixContext) -> DigitWord:
    """Canonical encoding of a natural; 0 encodes as the empty word."""
    return DigitWord(ctx.k, 1, tuple((d,) for d in digits_of(n, ctx.k)))


def decode(w: DigitWord, ctx: RadixContext | None = None) -> int:
    """Value of a 1-track word."""
    if w.tracks != 1:
        raise NumeralError("decode expects a 1-track word")
    if ctx is not None and ctx.k != w.k:
        raise InvalidDigitError(f"word base {w.k} does not match context base {ctx.k}")
    return w.value(0)


def encode_pair(m: int, n: int, ctx: RadixContext) -> DigitWord:
    """Canonical 2-track encoding: equal-length tracks, no leading [0,0]."""
    dm = digits_of(m, ctx.k)
    dn = digits_of(n, ctx.k)
    width = max(len(dm), len(dn))
    dm = [0] * (width - len(dm)) + dm
    dn = [0] * (width - len(dn)) + dn
    return DigitWord(ctx.k, 2, tuple(zip(dm, dn)))


def ratio(w: DigitWord, ctx: RadixContext | None = None) -> Fraction:
    """Track-1 value over track-2 value, reduced; the quotient of a pair word."""
    if w.tracks != 2:
        raise NumeralError("ratio expects a 2-track word")
    if ctx is not None and ctx.k != w.k:
        raise InvalidDigitError(f"word base {w.k} does not match context base {ctx.k}")
    den = w.value(1)
    if den == 0:
        raise ZeroDenominatorError(f"denominator track of {w} is zero")
    return Fraction(w.value(0), den)
