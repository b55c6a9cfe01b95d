import random
from fractions import Fraction

import pytest

from critex.numeral import RadixContext
from critex.oracle import (
    OracleError,
    PrefixSample,
    brute_quo_profile,
    scan_ice,
    scan_max_exponent,
    scan_recurrence,
    sequence_prefix,
)
from helpers import dfa_for_words, pairs_ones_then_01
from reference import Comparator, comparator_dfa

CTX = RadixContext(2)


def sample(text):
    return PrefixSample(tuple(text), 0)


def test_prefixes_match_known_words(tm, rs):
    assert sequence_prefix(tm, 16).text() == "0110100110010110"
    assert sequence_prefix(rs, 16).text() == "0001001000011101"
    assert sequence_prefix(tm, 0).text() == ""


def test_prefix_consistency_with_single_evaluation(tm, rs, vtm):
    rng = random.Random(5100)
    for a in (tm, rs, vtm):
        s = sequence_prefix(a, 4096)
        for _ in range(200):
            i = rng.randrange(0, 4096)
            assert s.symbols[i] == a.value(i)


def test_scan_max_exponent_thue_morse(tm_prefix):
    value, wit = scan_max_exponent(tm_prefix, 64)
    assert value == Fraction(2)
    assert wit.length == 2 * wit.period


def test_scan_max_exponent_rudin_shapiro(rs_prefix):
    value, wit = scan_max_exponent(rs_prefix, 64)
    assert value == Fraction(4)
    assert (wit.position, wit.length, wit.period) == (7, 4, 1)


def test_scan_max_exponent_constant():
    value, wit = scan_max_exponent(sample("0" * 200), 8)
    assert value == Fraction(200, 1)
    assert (wit.position, wit.period) == (0, 1)


def test_scan_monotonicity(tm):
    prev = Fraction(0)
    for n in (256, 1024, 4096):
        s = sequence_prefix(tm, n)
        for mp in (2, 8, 32):
            v, _ = scan_max_exponent(s, mp)
            assert v >= prev
        prev = v


def test_scan_ice_examples():
    assert scan_ice(sample("0" * 128)) == Fraction(128)
    assert scan_ice(sample("010101")) == Fraction(3)
    assert scan_ice(sample("0110100110010110")) >= 1


def test_scan_recurrence_examples():
    assert scan_recurrence(sample("0" * 128), 4) == Fraction(1)
    assert scan_recurrence(sample("01" * 64), 4) == Fraction(2)
    with pytest.raises(OracleError):
        scan_recurrence(sample("01"), 0)


def test_brute_quo_profile_examples():
    profile = brute_quo_profile(pairs_ones_then_01(), 4)
    assert profile == [Fraction(1), Fraction(2, 3), Fraction(4, 7), Fraction(8, 15)]
    assert brute_quo_profile(dfa_for_words(2, 2, []), 5) == []
    eq2 = comparator_dfa(Comparator(Fraction(2), "==", CTX))
    assert all(v == 2 for v in brute_quo_profile(eq2, 2))
    assert brute_quo_profile(eq2, 2)  # (2, 1) fits in two symbols
