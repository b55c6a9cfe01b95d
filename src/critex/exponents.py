"""End-to-end pipelines from a sequence Dfao to each repetition measure.

Every measure is one of two functionals of one pair language: the
supremum of the pair quotient (`sup_quo`) or its largest limit value
(`largest_limit_quotient`).  `PIPELINES` maps each measure to its formula,
the formula's track order (length-like, period-like), chosen so that the
pair quotient equals the measured exponent, and its functional;
`compute_measure` reads the table and the named measure functions call it.
Period conditions are written additively (j + p < q in place of j < q - p),
so the compiler never needs subtraction.

Pairs with a vacuous period condition (length <= period) are deliberately
left in the compiled languages: they contribute quotients <= 1 only and can
never move a supremum or largest limit value, all of which are >= 1 here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .automaton import Dfa, Dfao, InvariantError, PumpDecomposition
from .logic import CompilationEnv, compile_formula, evaluate_sentence, parse
from .numeral import DigitWord, RadixContext
from .quotient import largest_limit_quotient, sup_quo
from .rational import Value


class ExponentError(ValueError):
    pass


@dataclass(frozen=True)
class ExponentResult:
    """A computed repetition measure with its audit trail."""

    kind: str
    value: Value
    attained: bool | None
    witness: DigitWord | PumpDecomposition | None
    pair_dfa: Dfa


@dataclass(frozen=True)
class RecurrenceReport:
    linearly_recurrent: bool
    reason: str | None
    constant: Value | None
    attained: bool | None
    witness: DigitWord | PumpDecomposition | None
    pair_dfa: Dfa | None


def _ctx(a: Dfao) -> RadixContext:
    return RadixContext(a.k)


# one frozen parse tree per text, made on first use through this module's `parse`
_parse = cache(lambda text: parse(text))


def _compile_pairs(a: Dfao, text: str, free: tuple[str, ...]) -> Dfa:
    out = compile_formula(_parse(text), CompilationEnv(free, a, _ctx(a)))
    if not isinstance(out, Dfa):
        raise InvariantError(f"pair formula {text!r} compiled to a truth value")
    return out


PERIOD_FORMULA = "p >= 1 & (E i . A j . j + p < q -> seq[i+j] = seq[i+p+j])"

RECURRENT_PERIOD_FORMULA = (
    "p >= 1 & (E i . (A j . j + p < q -> seq[i+j] = seq[i+p+j])"
    " & (A j . (A m . m < q -> seq[i+m] = seq[j+m])"
    " -> (E l . j < l & (A m . m < q -> seq[i+m] = seq[l+m]))))"
)

PREFIX_PERIOD_FORMULA = "p >= 1 & (A j . j + p < q -> seq[j] = seq[j+p])"

PREFIX_TAIL_FORMULA = (
    "E i . E l . E p . s = i + l & t = i + p & p >= 1 & p <= l"
    " & (A j . j + p < l -> seq[i+j] = seq[i+p+j])"
)

RECURRENT_SENTENCE = "A i . A q . E j . i < j & (A m . m < q -> seq[i+m] = seq[j+m])"

GAP_FORMULA = (
    "l >= 1 & (E i . (A j . j < l -> seq[i+j] = seq[i+n+j])"
    " & (A t . (1 <= t & t < n) -> (E j . j < l & ~(seq[i+j] = seq[i+t+j]))))"
)


# measure -> (pair formula, its track order, "sup" or "limit")
PIPELINES = {
    "critical": (PERIOD_FORMULA, ("q", "p"), "sup"),
    "c1": (RECURRENT_PERIOD_FORMULA, ("q", "p"), "sup"),
    "c2": (PERIOD_FORMULA, ("q", "p"), "limit"),
    "ice1": (PREFIX_PERIOD_FORMULA, ("q", "p"), "sup"),
    "ice2": (PREFIX_PERIOD_FORMULA, ("q", "p"), "limit"),
    "dio": (PREFIX_TAIL_FORMULA, ("s", "t"), "limit"),
}
MEASURES = tuple(PIPELINES)


def compute_measure(a: Dfao, which: str) -> ExponentResult:
    """Compile the measure's pair language and run its one solver.  A limit
    measure of a finite language raises FiniteLanguageError; none of the
    languages above is finite, as each holds every pair (p, p) with p >= 1."""
    if which not in PIPELINES:
        raise ExponentError(f"unknown measure {which!r}")
    text, free, functional = PIPELINES[which]
    L = _compile_pairs(a, text, free)
    if functional == "sup":
        res = sup_quo(L, _ctx(a))
        return ExponentResult(which, res.value, res.attained, res.witness, L)
    value, pump = largest_limit_quotient(L, _ctx(a))
    return ExponentResult(which, value, None, pump, L)


def period_language(a: Dfao) -> Dfa:
    """Pairs (q, p): some factor of length q has period p >= 1.

    Track 1 is the length, so the pair quotient is the exponent q/p.
    """
    return _compile_pairs(a, PERIOD_FORMULA, ("q", "p"))


def critical_exponent(a: Dfao) -> ExponentResult:
    """Supremum of factor exponents; rational or infinite, with witness."""
    return compute_measure(a, "critical")


def recurrent_critical_exponent(a: Dfao) -> ExponentResult:
    """Same supremum restricted to factors occurring infinitely often."""
    return compute_measure(a, "c1")


def special_exponent(a: Dfao) -> ExponentResult:
    """Largest exponent realized by arbitrarily long factors: the largest
    limit value of the period-language quotient."""
    return compute_measure(a, "c2")


def initial_critical_exponents(a: Dfao) -> tuple[ExponentResult, ExponentResult]:
    """Prefix analogues: supremum over prefixes, and over arbitrarily long
    prefixes, of the prefix exponent."""
    return compute_measure(a, "ice1"), compute_measure(a, "ice2")


def diophantine_exponent(a: Dfao) -> ExponentResult:
    """Largest limit of |u v^tau| / |uv| over arbitrarily long periodic-tail
    prefixes u v^tau; tracks are (i + l, i + p)."""
    return compute_measure(a, "dio")


def is_recurrent(a: Dfao) -> bool:
    """Every factor that occurs, occurs infinitely often."""
    env = CompilationEnv((), a, _ctx(a))
    return evaluate_sentence(_parse(RECURRENT_SENTENCE), env)


def gap_language(a: Dfao) -> Dfa:
    """Pairs (n, l): some length-l factor has its next occurrence at distance n."""
    return _compile_pairs(a, GAP_FORMULA, ("n", "l"))


def linear_recurrence(a: Dfao) -> RecurrenceReport:
    """Decide linear recurrence and compute the optimal constant.

    A factor with no later occurrence produces no gap pair at all and the
    gap supremum would silently ignore it, so recurrence is checked first.
    """
    if not is_recurrent(a):
        return RecurrenceReport(False, "not-recurrent", None, None, None, None)
    L = gap_language(a)
    res = sup_quo(L, _ctx(a))
    if not isinstance(res.value, Fraction):
        return RecurrenceReport(False, "gap-ratio-unbounded", res.value, res.attained, res.witness, L)
    return RecurrenceReport(True, None, res.value, res.attained, res.witness, L)
