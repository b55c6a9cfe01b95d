"""End-to-end pipelines from a sequence Dfao to each repetition measure.

Each pipeline compiles a pair language over tracks (length-like, period-like)
so that the pair quotient equals the measured exponent, then hands it to the
quotient solvers.  Period conditions are written additively (j + p < q in
place of j < q - p), so the compiler never needs subtraction.

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
from .quotient import FiniteLanguageError, largest_limit_quotient, sup_quo
from .rational import Value

MEASURES = ("critical", "c1", "c2", "ice1", "ice2", "dio")


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


def period_language(a: Dfao) -> Dfa:
    """Pairs (q, p): some factor of length q has period p >= 1.

    Track 1 is the length, so the pair quotient is the exponent q/p.
    """
    return _compile_pairs(a, PERIOD_FORMULA, ("q", "p"))


def critical_exponent(a: Dfao, pairs: Dfa | None = None) -> ExponentResult:
    """Supremum of factor exponents; rational or infinite, with witness."""
    L = pairs if pairs is not None else period_language(a)
    res = sup_quo(L, _ctx(a))
    return ExponentResult("critical", res.value, res.attained, res.witness, L)


def recurrent_critical_exponent(a: Dfao) -> ExponentResult:
    """Same supremum restricted to factors occurring infinitely often."""
    L = _compile_pairs(a, RECURRENT_PERIOD_FORMULA, ("q", "p"))
    res = sup_quo(L, _ctx(a))
    return ExponentResult("c1", res.value, res.attained, res.witness, L)


def special_exponent(a: Dfao, pairs: Dfa | None = None) -> ExponentResult:
    """Largest exponent realized by arbitrarily long factors: the largest
    limit value of the period-language quotient."""
    L = pairs if pairs is not None else period_language(a)
    ctx = _ctx(a)
    try:
        value, pump = largest_limit_quotient(L, ctx)
    except FiniteLanguageError as exc:
        raise ExponentError("the period language is finite; no limit exponent") from exc
    return ExponentResult("c2", value, None, pump, L)


def _initial_critical_exponent(a: Dfao) -> ExponentResult:
    L = _compile_pairs(a, PREFIX_PERIOD_FORMULA, ("q", "p"))
    res = sup_quo(L, _ctx(a))
    return ExponentResult("ice1", res.value, res.attained, res.witness, L)


def _initial_limit_exponent(a: Dfao) -> ExponentResult:
    L = _compile_pairs(a, PREFIX_PERIOD_FORMULA, ("q", "p"))
    value, pump = largest_limit_quotient(L, _ctx(a))
    return ExponentResult("ice2", value, None, pump, L)


def initial_critical_exponents(a: Dfao) -> tuple[ExponentResult, ExponentResult]:
    """Prefix analogues: supremum over prefixes, and over arbitrarily long
    prefixes, of the prefix exponent."""
    return _initial_critical_exponent(a), _initial_limit_exponent(a)


def diophantine_exponent(a: Dfao) -> ExponentResult:
    """Largest limit of |u v^tau| / |uv| over arbitrarily long periodic-tail
    prefixes u v^tau; tracks are (i + l, i + p)."""
    L = _compile_pairs(a, PREFIX_TAIL_FORMULA, ("s", "t"))
    ctx = _ctx(a)
    try:
        value, pump = largest_limit_quotient(L, ctx)
    except FiniteLanguageError as exc:
        raise ExponentError("the periodic-tail language is finite") from exc
    return ExponentResult("dio", value, None, pump, L)


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


def compute_measure(a: Dfao, which: str) -> ExponentResult:
    if which == "critical":
        return critical_exponent(a)
    if which == "c1":
        return recurrent_critical_exponent(a)
    if which == "c2":
        return special_exponent(a)
    if which == "ice1":
        return _initial_critical_exponent(a)
    if which == "ice2":
        return _initial_limit_exponent(a)
    if which == "dio":
        return diophantine_exponent(a)
    raise ExponentError(f"unknown measure {which!r}")
