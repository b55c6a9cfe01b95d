"""critex: exact repetition measures of k-automatic sequences.

A sequence automaton (Dfao) feeds first-order predicate compilation into
pair languages whose quotient suprema and largest limit values are the
classical repetition measures: the critical exponent and its recurrent,
special, initial, and Diophantine variants, plus the optimal linear
recurrence constant.  All results are exact rationals or infinite, with
machine-checkable witnesses.
"""

from .automaton import Dfa, Dfao, PumpDecomposition
from .exponents import (
    ExponentResult,
    RecurrenceReport,
    critical_exponent,
    diophantine_exponent,
    initial_critical_exponents,
    is_recurrent,
    linear_recurrence,
    period_language,
    recurrent_critical_exponent,
    special_exponent,
)
from .numeral import DigitWord, RadixContext, decode, encode, encode_pair, ratio
from .quotient import SupResult, largest_limit_quotient, sup_quo
from .rational import INF, Infinity, Value, fmt_value

__version__ = "0.1.0"

__all__ = [
    "Dfa",
    "Dfao",
    "PumpDecomposition",
    "DigitWord",
    "RadixContext",
    "encode",
    "decode",
    "encode_pair",
    "ratio",
    "INF",
    "Infinity",
    "Value",
    "fmt_value",
    "SupResult",
    "sup_quo",
    "largest_limit_quotient",
    "ExponentResult",
    "RecurrenceReport",
    "period_language",
    "critical_exponent",
    "recurrent_critical_exponent",
    "special_exponent",
    "initial_critical_exponents",
    "diophantine_exponent",
    "is_recurrent",
    "linear_recurrence",
    "__version__",
]
