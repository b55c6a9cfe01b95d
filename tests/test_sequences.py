import hashlib
from math import isqrt

import pytest

from critex import sequences
from critex.sequences import VERIFY_N, FixtureError, dfao_from_function

from helpers import base3_digit_sum_value, paperfolding_value


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
    def square(n):
        return int(isqrt(n) ** 2 == n)

    a = dfao_from_function(square, 2)
    assert a.num_states == 208
    assert VERIFY_N < 195**2
    wrong = [n for n in range(VERIFY_N, 195**2 + 1) if a.value(n) != str(square(n))]
    assert wrong == [195**2]
