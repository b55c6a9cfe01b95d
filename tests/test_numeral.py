import random
import re

import pytest
from fractions import Fraction

from critex.numeral import (
    DigitWord,
    InvalidDigitError,
    NumeralError,
    RadixContext,
    ZeroDenominatorError,
    decode,
    digits_of,
    encode,
    encode_pair,
    ratio,
)


def test_encode_43_base2():
    assert str(encode(43, RadixContext(2))) == "101011"


def test_encode_zero_is_empty():
    assert len(encode(0, RadixContext(2))) == 0
    assert len(encode(0, RadixContext(7))) == 0


@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_encode_base_itself_is_10(k):
    assert [s[0] for s in encode(k, RadixContext(k))] == [1, 0]


def test_decode_101011_is_43():
    assert decode(DigitWord.from_digits("101011", 2)) == 43


def test_decode_empty_is_zero():
    assert decode(DigitWord(2, 1, ())) == 0


def test_decode_rejects_out_of_range_digit():
    with pytest.raises(InvalidDigitError):
        DigitWord.from_digits("102", 2)


def test_encode_pair_20_13():
    w = encode_pair(20, 13, RadixContext(2))
    assert w.symbols == ((1, 0), (0, 1), (1, 1), (0, 0), (0, 1))
    assert str(w) == "[1,0][0,1][1,1][0,0][0,1]"


def test_encode_pair_zero_zero_empty():
    assert len(encode_pair(0, 0, RadixContext(2))) == 0


def test_encode_pair_6_3():
    assert encode_pair(6, 3, RadixContext(2)).symbols == ((1, 0), (1, 1), (0, 1))


def test_ratio_known_pair():
    w = DigitWord.from_pairs([(1, 0), (1, 1), (0, 1)], 2)
    assert ratio(w) == Fraction(2)


def test_ratio_equal_tracks():
    assert ratio(DigitWord.from_pairs([(1, 1)], 2)) == Fraction(1)


def test_ratio_two_over_one():
    assert ratio(DigitWord.from_pairs([(1, 0), (0, 1)], 2)) == Fraction(2)


def test_ratio_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        ratio(DigitWord.from_pairs([(1, 0)], 2))


def test_concat_rejects_mixed_base():
    a = DigitWord.from_digits("10", 2)
    b = DigitWord.from_digits("10", 3)
    with pytest.raises(NumeralError):
        a.concat(b)


def test_radix_context_validates_base():
    with pytest.raises(NumeralError):
        RadixContext(1)


@pytest.mark.parametrize("k", [1, 0, -2, 2.0, 2.5, "3"])
def test_digits_of_refuses_a_base_below_2_naming_it(k):
    # base 1 would otherwise loop forever while its digit list grows
    with pytest.raises(NumeralError, match=rf"base must be an integer >= 2, got {re.escape(repr(k))}$"):
        digits_of(3, k)


@pytest.mark.parametrize("k", [1, 0, -2, 2.0, 2.5, "3"])
def test_radix_context_and_digit_word_refuse_a_base_below_2_naming_it(k):
    # a float base made DigitWord(2.5, 1, ((1,),)).value(0) the float 1.0
    pattern = rf"base must be an integer >= 2, got {re.escape(repr(k))}$"
    with pytest.raises(NumeralError, match=pattern):
        RadixContext(k)
    with pytest.raises(NumeralError, match=pattern):
        DigitWord(k, 1, ((1,),))


def test_round_trip_fuzz():
    rng = random.Random(1001)
    for _ in range(2000):
        k = rng.choice([2, 3, 5, 16])
        n = rng.randrange(0, 1 << 40)
        ctx = RadixContext(k)
        assert decode(encode(n, ctx), ctx) == n


def test_pair_round_trip_fuzz():
    rng = random.Random(1002)
    for _ in range(2000):
        k = rng.choice([2, 3, 7])
        m, n = rng.randrange(0, 1 << 30), rng.randrange(0, 1 << 30)
        ctx = RadixContext(k)
        w = encode_pair(m, n, ctx)
        assert decode(w.track(0)) == m
        assert decode(w.track(1)) == n
        if len(w):
            assert w.symbols[0] != (0, 0)


def test_ratio_matches_fraction_fuzz():
    rng = random.Random(1003)
    for _ in range(2000):
        k = rng.choice([2, 3])
        m, n = rng.randrange(0, 1 << 20), rng.randrange(1, 1 << 20)
        w = encode_pair(m, n, RadixContext(k))
        assert ratio(w) == Fraction(m, n)


def test_value_formatting_round_trip():
    from critex.rational import INF, fmt_value
    from reference import parse_value

    assert fmt_value(Fraction(2)) == "2/1"
    assert fmt_value(Fraction(7, 3)) == "7/3"
    assert fmt_value(INF) == "inf"
    for text in ("2/1", "7/3", "0", "inf"):
        assert fmt_value(parse_value(text)) in (text, text + "/1")
    assert parse_value("inf") > Fraction(10**30)
    assert not parse_value("inf") < Fraction(10**30)
