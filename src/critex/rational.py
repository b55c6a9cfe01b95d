"""Exact nonnegative rational values plus a distinguished infinity."""

from __future__ import annotations

from fractions import Fraction


class Infinity:
    """Singleton that compares strictly above every Fraction."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinity)

    def __gt__(self, other):
        return not isinstance(other, Infinity)

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __ne__(self, other):
        return not isinstance(other, Infinity)

    def __hash__(self):
        return hash(("critex.rational", "inf"))

    def __repr__(self):
        return "INF"


INF = Infinity()

# A quotient value: an exact fraction or the infinite sentinel.
Value = Fraction | Infinity


def fmt_value(v: Value | None) -> str:
    """Render as "num/den" (always with denominator) or "inf"."""
    if v is None:
        return "none"
    if isinstance(v, Infinity):
        return "inf"
    return f"{v.numerator}/{v.denominator}"
