"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All comparisons are exact (Fraction or the infinite sentinel).
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from critex.automaton import is_empty, is_infinite
from critex.exponents import (
    critical_exponent,
    initial_critical_exponents,
    linear_recurrence,
    special_exponent,
)
from critex.numeral import RadixContext
from critex.oracle import scan_max_exponent, scan_recurrence, sequence_prefix
from critex.quotient import largest_limit_quotient, sup_quo
from critex.rational import INF

from helpers import prepared_random_suite
from reference import Comparator, bounded_max_ratio, candidates, comparator_dfa, product_reference
from property_suites import run_chain_suite, run_comparator_suite, run_mediant_suite

CTX = RadixContext(2)


@contextmanager
def criterion(number: int, description: str, budget_s: float | None = None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: {description}: FAIL")
        raise
    elapsed = time.monotonic() - started
    if budget_s is None:
        print(f"ACCEPTANCE {number}: {description}: PASS ({elapsed:.1f}s)")
    else:
        print(f"ACCEPTANCE {number}: {description}: PASS ({elapsed:.1f}s <= {budget_s:.0f}s)")
        assert elapsed <= budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_thue_morse_critical(tm):
    with criterion(1, "Thue-Morse critical exponent = 2/1 attained", 120):
        assert tm.num_states == 2
        res = critical_exponent(tm)
        assert res.value == Fraction(2)
        assert res.attained is True


def test_criterion_2_constant_zero_infinite(zero):
    with criterion(2, "constant-zero critical exponent = inf", 5):
        res = critical_exponent(zero)
        assert res.value is INF


def test_criterion_3_rudin_shapiro(rs, rs_prefix):
    with criterion(3, "Rudin-Shapiro critical exponent = 4/1 attained + oracle witness", 300):
        assert rs.num_states == 4
        res = critical_exponent(rs)
        assert res.value == Fraction(4)
        assert res.attained is True
        value, wit = scan_max_exponent(rs_prefix, 64)
        assert value == Fraction(4)
        assert (wit.position, wit.length, wit.period) == (7, 4, 1)
        assert rs_prefix.symbols[7:11] == ("0", "0", "0", "0")


def _assert_squarefree(symbols: tuple[str, ...]) -> None:
    """No factor x x anywhere in the sample, any period: the sample XORed
    with itself shifted by p has a run of p zero bytes exactly where a
    square of period p starts."""
    s = bytes(ord(c[0]) for c in symbols)
    n = len(s)
    for p in range(1, n // 2 + 1):
        diff = int.from_bytes(s[p:], "big") ^ int.from_bytes(s[:-p], "big")
        assert bytes(p) not in diff.to_bytes(n - p, "big"), f"square of period {p} found"


def test_criterion_4_ternary_squarefree_word(vtm):
    with criterion(4, "ternary squarefree word: c = 2/1 unattained, c2 = 2/1", 300):
        sample = sequence_prefix(vtm, 1 << 14)
        _assert_squarefree(sample.symbols)
        res = critical_exponent(vtm)
        assert res.value == Fraction(2)
        assert res.attained is False
        res2 = special_exponent(vtm)
        assert res2.value == Fraction(2)


def _word_above(machine, res, beta_max) -> None:
    """Exhibit an accepted word with quotient above beta_max, verified by a
    direct machine run plus exact ratio arithmetic.  One such word witnesses
    L intersect L_{>beta} nonempty for every candidate beta <= beta_max."""
    from reference import accepted_from
    from critex.numeral import ratio as word_ratio

    if res.attained:
        w = res.witness
        assert machine.accepts(w)
        assert word_ratio(w) == res.value > beta_max
        return
    pump = res.witness
    tail = next(iter(accepted_from(machine, pump.loop_state, 1)))
    body = pump.u
    for i in range(300):
        word = body.concat(tail)
        if machine.accepts(word) and word.value(1) != 0 and word_ratio(word) > beta_max:
            return
        body = body.concat(pump.v)
    raise AssertionError(f"pump chain never exceeded {beta_max}")


def test_criterion_5_solver_cross_validation():
    with criterion(5, "100-machine solver cross-validation", 60):
        suite = prepared_random_suite(20260808, 100)
        assert len(suite) == 100
        for idx, machine in enumerate(suite):
            res = sup_quo(machine, CTX)
            cand = candidates(machine)
            finite = cand.finite_values()
            # (a) filter property.  Nothing sits above the sup (comparator
            # product emptiness); every smaller candidate is non-qualifying,
            # proven constructively by an accepted word whose exact ratio
            # exceeds the largest smaller candidate, with comparator-product
            # probes on the hundred candidates nearest the sup.  The probes
            # read only emptiness and infiniteness, so they take the
            # unminimized reachable product.
            if res.value is not INF:
                assert res.value in finite, idx
                above = product_reference(
                    machine, comparator_dfa(Comparator(res.value, ">", CTX)), "and"
                )
                assert is_empty(above), idx
                at = product_reference(
                    machine, comparator_dfa(Comparator(res.value, "==", CTX)), "and"
                )
                assert (not is_empty(at)) == res.attained, idx
                smaller = [b for b in finite if b < res.value]
            else:
                assert cand.unbounded_pumps, idx
                smaller = finite
            if smaller:
                _word_above(machine, res, max(smaller))
                for beta in smaller[-100:]:
                    nonempty = product_reference(
                        machine, comparator_dfa(Comparator(beta, ">", CTX)), "and"
                    )
                    assert not is_empty(nonempty), (idx, beta)
            # (b) bounded brute maximum never beats the sup; ties when attained
            m12, _w12 = bounded_max_ratio(machine, 12)
            assert m12 is not None, idx
            assert m12 <= res.value, idx
            if res.attained and len(res.witness) <= 12:
                assert m12 == res.value, idx
            # (c) the largest limit value is approached by infinitely many words
            if is_infinite(machine):
                sigma, _pump = largest_limit_quotient(machine, CTX)
                if sigma is INF:
                    for t in (1, 2, 4, 8):
                        probe = product_reference(
                            machine, comparator_dfa(Comparator(Fraction(t), ">", CTX)), "and"
                        )
                        assert not is_empty(probe), (idx, t)
                else:
                    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
                        t = sigma - eps
                        if t < 0:
                            probe = machine
                        else:
                            probe = product_reference(
                                machine, comparator_dfa(Comparator(t, ">", CTX)), "and"
                            )
                        assert is_infinite(probe), (idx, eps)


def test_criterion_6_exact_arithmetic_property_suites():
    with criterion(6, "mediant / chain trichotomy / comparator suites, 10^4 each", 60):
        assert run_mediant_suite(10_000) == 10_000
        assert run_chain_suite(10_000) == 10_000
        assert run_comparator_suite(10_000) == 10_000


def test_criterion_7_ordering_chains(tm, rs, vtm, zero, one_then_zeros, alternating):
    with criterion(7, "ordering chains 1 <= c2 <= c and ice2 <= ice1 <= c"):
        for a in (tm, rs, vtm, zero, one_then_zeros, alternating):
            c = critical_exponent(a)
            c2 = special_exponent(a)
            ice1, ice2 = initial_critical_exponents(a)
            assert Fraction(1) <= c2.value
            assert c2.value <= c.value
            assert ice2.value <= ice1.value
            assert ice1.value <= c.value


def test_criterion_8_linear_recurrence(tm, zero, one_then_zeros):
    with criterion(8, "linear recurrence: zero C=1, one-then-zeros no, TM finite C", 300):
        rep = linear_recurrence(zero)
        assert rep.linearly_recurrent is True
        assert rep.constant == Fraction(1)
        rep = linear_recurrence(one_then_zeros)
        assert rep.linearly_recurrent is False
        assert rep.reason == "not-recurrent"
        rep = linear_recurrence(tm)
        assert rep.linearly_recurrent is True
        assert isinstance(rep.constant, Fraction)
        bound = scan_recurrence(sequence_prefix(tm, 1 << 16), 8)
        assert bound <= rep.constant
