import hashlib
import random
import re
from collections import Counter
from math import isqrt

import pytest

from critex import sequences
from critex.sequences import VERIFY_N, FixtureError, dfao_from_function, thue_morse

from helpers import base3_digit_sum_value, paperfolding_value
from reference import dfao_from_function_reference


def _table_digest(a) -> str:
    return hashlib.sha256(repr((a.k, a.trans, a.output, a.initial)).encode()).hexdigest()


@pytest.mark.parametrize(
    "build, digest",
    [
        (sequences.vtm, "d0ac1f377545a74dee37d88734c27e5a16f5f3a1e4c3d0cc8a9a737d9b7a6b32"),
        (sequences.period_doubling, "ba34d9c209163025f313569b215eb7178e3a3ae85c9be8f9b9219bcf43182976"),
        (lambda: dfao_from_function(paperfolding_value, 2), "e8ed04e2b81e12dfdee9399a21ca228808c0fe801fd8d4775a8016dcd5b7a743"),
        (lambda: dfao_from_function(base3_digit_sum_value, 3), "f282e50717412aa428a39e332a7fff010d5542c0eafbfba605e0d5c40a91668d"),
    ],
    ids=["vtm", "period_doubling", "paperfolding", "base3_digit_sum"],
)
def test_derived_tables_are_pinned(build, digest):
    assert _table_digest(build()) == digest


def test_rule_the_probes_miss_fails_the_check_at_its_index():
    # no probe of depth PROBE_LEN reaches 1000, so every prefix looks like
    # the all-zero rule and only the check against the rule finds it
    with pytest.raises(FixtureError, match=r"disagrees with the rule at 1000;"):
        dfao_from_function(lambda n: int(n == 1000), 2)


def test_rule_with_too_many_classes_does_not_converge():
    with pytest.raises(FixtureError, match="did not converge"):
        dfao_from_function(lambda n: n % 1000, 2)


def test_only_the_prefix_below_verify_n_is_checked():
    # the squares are not 2-automatic, yet their probes give a machine that
    # passes the check and is first wrong past it, at 195**2
    a = dfao_from_function(_square, 2)
    assert a.num_states == 208
    assert VERIFY_N < 195**2
    wrong = [n for n in range(VERIFY_N, 195**2 + 1) if a.value(n) != str(_square(n))]
    assert wrong == [195**2]


def _square(n: int) -> int:
    return int(isqrt(n) ** 2 == n)


def _automatic_rule(seed: int, k: int, max_states: int):
    """n -> the output of a random machine of 1..max_states states reading
    n's base-k digits, most significant first.  The states of the numbers
    below k**4 and the moves over four digits are tabulated, so a call costs
    a few divisions however far the probes reach."""
    rng = random.Random(seed)
    size = rng.randint(1, max_states)
    trans = [[rng.randrange(size) for _ in range(k)] for _ in range(size)]
    output = [rng.randrange(3) for _ in range(size)]
    chunk = k**4
    top = [0] * chunk  # from the initial state over r's digits, no leading zeros
    for r in range(1, chunk):
        top[r] = trans[top[r // k]][r % k]
    move = [[s] for s in range(size)]  # move[s][r]: from s over r's four digits, zeros included
    for _ in range(4):
        move = [[trans[row[r // k]][r % k] for r in range(len(row) * k)] for row in move]

    def state(n: int) -> int:
        if n < chunk:
            return top[n]
        hi, lo = divmod(n, chunk)
        return move[state(hi)][lo]

    return lambda n: output[state(n)]


def _once(fn, counts: Counter):
    """fn, tallying in counts how often each number is asked for."""

    def counted(n):
        counts[n] += 1
        return fn(n)

    return counted


def _outcome(derive, fn, k):
    try:
        a = derive(fn, k)
    except FixtureError as exc:
        return str(exc)
    return a.k, a.trans, a.output, a.initial


_tm = thue_morse()
# 14 random machines in base 2, 14 in base 3 and 8 in base 4, where each
# probed prefix reads 4**8 numbers past the table
_RULES = [
    (f"auto{k}-{seed}", _automatic_rule(seed, k, 3 if k == 4 else 5), k)
    for k, count in ((2, 14), (3, 14), (4, 8))
    for seed in range(count)
]
_RULES += [
    ("squares", _square, 2),
    ("n==1000", lambda n: int(n == 1000), 2),
    ("n%1000", lambda n: n % 1000, 2),
    ("tm-pairs", lambda n: (_tm.value(n), _tm.value(n + 1)), 2),
]


@pytest.mark.parametrize("fn, k", [rule[1:] for rule in _RULES], ids=[rule[0] for rule in _RULES])
def test_derivation_matches_the_reference_and_reads_each_number_once(fn, k):
    counts = Counter()
    assert _outcome(dfao_from_function, _once(fn, counts), k) == _outcome(dfao_from_function_reference, fn, k)
    assert max(counts.values()) == 1


@pytest.mark.parametrize(
    "fn, k, calls",
    [
        (base3_digit_sum_value, 3, 59049),
        (sequences.vtm_value, 2, 16384),
        (sequences.period_doubling_value, 2, 16384),
        (paperfolding_value, 2, 16384),
    ],
    ids=["base3_digit_sum", "vtm", "period_doubling", "paperfolding"],
)
def test_each_derivation_evaluates_each_number_once(fn, k, calls):
    # 0..VERIFY_N-1, and past it only the deepest base-3 probe blocks of
    # the prefixes 2..8, which end at 9 * 3**8 = 59049
    counts = Counter()
    dfao_from_function(_once(fn, counts), k)
    assert sum(counts.values()) == calls
    assert max(counts.values()) == 1


@pytest.mark.parametrize("k", [1, 0, -2, 2.0])
def test_a_base_below_2_is_refused_naming_it(k):
    with pytest.raises(FixtureError, match=rf"base must be an integer >= 2, got {re.escape(repr(k))}$"):
        dfao_from_function(lambda n: 0, k)
