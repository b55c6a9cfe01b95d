from fractions import Fraction

import pytest

from critex import exponents, sequences
from critex.automaton import StateLimitError, canonicalize, is_empty, product
from critex.exponents import (
    compute_measure,
    critical_exponent,
    diophantine_exponent,
    gap_language,
    initial_critical_exponents,
    is_recurrent,
    linear_recurrence,
    period_language,
    recurrent_critical_exponent,
    special_exponent,
)
from critex.numeral import RadixContext, encode_pair, ratio
from critex.oracle import scan_ice, scan_max_exponent, scan_recurrence, sequence_prefix
from critex.rational import INF

from helpers import digit_sum_mod, paperfolding_value, verify_pump
from reference import (
    OFFSET_GAP_FORMULA,
    OFFSET_PERIOD_FORMULA,
    OFFSET_PREFIX_TAIL_FORMULA,
    Comparator,
    check_pair_closure,
    comparator_dfa,
    pump_ratio,
)

CTX = RadixContext(2)


# ------------------------------------------------------------- period language


def test_period_language_memberships(tm, tm_period_language):
    L = tm_period_language
    assert L.accepts(encode_pair(4, 2, CTX))  # 1010 at position 2
    assert not L.accepts(encode_pair(5, 2, CTX))  # a 5/2 power would be an overlap
    assert L.accepts(encode_pair(1, 1, CTX))
    assert L.accepts(encode_pair(2, 1, CTX))  # 00 occurs
    assert not L.accepts(encode_pair(3, 1, CTX))  # no aaa block


def test_period_language_rejections_match_direct_scan(tm, tm_prefix):
    # every rejected (q, p) up to 12 has no occurrence in a long prefix window
    s = tm_prefix.symbols
    L = period_language(tm)
    for q in range(1, 13):
        for p in range(1, 13):
            occurs = any(
                all(s[i + j] == s[i + j + p] for j in range(q - p))
                for i in range(2048)
            )
            assert L.accepts(encode_pair(q, p, CTX)) == occurs, (q, p)


def test_critical_exponents(tm, zero, rs, vtm):
    r = critical_exponent(tm)
    assert (r.value, r.attained) == (Fraction(2), True)
    assert ratio(r.witness) == Fraction(2)
    assert critical_exponent(zero).value is INF
    r = critical_exponent(rs)
    assert (r.value, r.attained) == (Fraction(4), True)
    r = critical_exponent(vtm)
    assert (r.value, r.attained) == (Fraction(2), False)
    assert pump_ratio(r.witness.u, r.witness.v) == Fraction(2)


# the fixture sequences the offset and position texts are pinned on
PAIR_FIXTURES = {
    "tm": sequences.thue_morse,
    "rs": sequences.rudin_shapiro,
    "vtm": sequences.vtm,
    "period_doubling": sequences.period_doubling,
    "paperfolding": lambda: sequences.dfao_from_function(paperfolding_value, 2),
    "digsum2mod6": lambda: digit_sum_mod(6),
}


@pytest.mark.parametrize("name", PAIR_FIXTURES)
def test_position_texts_compile_to_the_offset_texts_machines(name):
    a = PAIR_FIXTURES[name]()
    for offset_text, text, free in (
        (OFFSET_PERIOD_FORMULA, exponents.PERIOD_FORMULA, ("q", "p")),
        (OFFSET_PREFIX_TAIL_FORMULA, exponents.PREFIX_TAIL_FORMULA, ("s", "t")),
        (OFFSET_GAP_FORMULA, exponents.GAP_FORMULA, ("n", "l")),
    ):
        assert exponents._compile_pairs(a, text, free) == exponents._compile_pairs(a, offset_text, free), text


def _compiled_texts(monkeypatch) -> list:
    texts = []
    real = exponents._compile_pairs
    monkeypatch.setattr(exponents, "_compile_pairs", lambda a, text, free: texts.append(text) or real(a, text, free))
    return texts


@pytest.mark.parametrize("name", PAIR_FIXTURES)
def test_c1_of_a_recurrent_sequence_compiles_the_period_language(name, monkeypatch):
    a = PAIR_FIXTURES[name]()
    assert is_recurrent(a)
    full = exponents._compile_pairs(a, exponents.RECURRENT_PERIOD_FORMULA, ("q", "p"))
    assert full == period_language(a)
    texts = _compiled_texts(monkeypatch)
    assert recurrent_critical_exponent(a).pair_dfa == full
    assert texts == [exponents.PERIOD_FORMULA]


def test_c1_of_a_sequence_that_is_not_recurrent_compiles_the_full_formula(one_then_zeros, monkeypatch):
    assert not is_recurrent(one_then_zeros)
    texts = _compiled_texts(monkeypatch)
    assert recurrent_critical_exponent(one_then_zeros).value is INF
    assert texts == [exponents.RECURRENT_PERIOD_FORMULA]


def test_recurrent_critical_exponent(tm, zero, one_then_zeros):
    assert recurrent_critical_exponent(tm).value == Fraction(2)
    assert recurrent_critical_exponent(zero).value is INF
    assert recurrent_critical_exponent(one_then_zeros).value is INF  # 0^q recurs


def test_special_exponent(tm, zero, vtm):
    assert special_exponent(vtm).value == Fraction(2)
    assert special_exponent(tm).value == Fraction(2)
    assert special_exponent(zero).value is INF


def test_initial_critical_exponents(tm, zero, vtm, one_then_zeros):
    i1, i2 = initial_critical_exponents(zero)
    assert i1.value is INF and i2.value is INF
    i1, i2 = initial_critical_exponents(tm)
    assert (i1.value, i1.attained) == (Fraction(5, 3), True)  # prefix 01101 = (011)^(5/3)
    assert i2.value == Fraction(5, 3)
    i1, i2 = initial_critical_exponents(vtm)
    assert (i1.value, i1.attained) == (Fraction(5, 3), False)
    assert i2.value == Fraction(5, 3)
    i1, i2 = initial_critical_exponents(one_then_zeros)
    assert (i1.value, i2.value) == (Fraction(1), Fraction(1))


def test_compute_measure_runs_only_the_solver_it_reports(tm, monkeypatch):
    calls = []

    def counting(name):
        real = getattr(exponents, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        return counted

    for name in ("sup_quo", "largest_limit_quotient"):
        monkeypatch.setattr(exponents, name, counting(name))
    ice1, ice2 = initial_critical_exponents(tm)
    assert calls == ["sup_quo", "largest_limit_quotient"]
    calls.clear()
    assert compute_measure(tm, "ice1") == ice1
    assert calls == ["sup_quo"]
    calls.clear()
    assert compute_measure(tm, "ice2") == ice2
    assert calls == ["largest_limit_quotient"]


def test_critical_then_c2_parses_the_period_formula_once(tm, monkeypatch):
    exponents._parse.cache_clear()
    texts = []
    real = exponents.parse
    monkeypatch.setattr(exponents, "parse", lambda text: texts.append(text) or real(text))
    assert critical_exponent(tm).value == Fraction(2)
    assert special_exponent(tm).value == Fraction(2)
    assert texts == [exponents.PERIOD_FORMULA]


def test_pair_cache_respects_the_state_cap(rs, monkeypatch):
    # a pair language built under the default cap is not handed out under a
    # cap its fresh build exceeds
    assert critical_exponent(rs).value == 4
    monkeypatch.setenv("CRITEX_MAX_STATES", "50")
    with pytest.raises(StateLimitError):
        critical_exponent(rs)


def test_ice_oracle_consistency(tm, rs, vtm):
    for a, attained in [(tm, True), (rs, True), (vtm, False)]:
        i1, _ = initial_critical_exponents(a)
        scanned = scan_ice(sequence_prefix(a, 1 << 15))
        assert scanned <= i1.value
        if attained:
            assert scanned == i1.value


def test_diophantine_exponent(tm, zero, alternating):
    assert diophantine_exponent(zero).value is INF
    assert diophantine_exponent(alternating).value is INF  # ultimately periodic
    r = diophantine_exponent(tm)
    assert r.value == Fraction(5, 3)
    # pump audit: the witness is a real pump of the compiled language whose
    # ratio equals the reported value, and no enumerated pump beats it
    from reference import pump_decompositions
    from critex.quotient import _prepare

    work = _prepare(r.pair_dfa, CTX)
    assert verify_pump(work, r.witness)
    assert pump_ratio(r.witness.u, r.witness.v) == r.value
    seen = 0
    for pump in pump_decompositions(work):
        if pump.inc1 == 0 and pump.inc2 == 0:
            continue
        assert pump.ratio() <= r.value
        seen += 1
        if seen >= 20000:
            break
    assert seen > 0


def test_diophantine_at_least_ice2(tm):
    _, i2 = initial_critical_exponents(tm)
    assert diophantine_exponent(tm).value >= i2.value


def test_diophantine_oracle_scaling(tm):
    # prefixes of length 5 * 2^k carry a periodic tail giving the ratio
    # |u v^tau| / |uv| = 5/3 at every scale, the tool's reported limit
    value = diophantine_exponent(tm).value
    assert value == Fraction(5, 3)
    s = sequence_prefix(tm, 700).symbols

    def best_ratio(L):
        best = Fraction(0)
        for i in range(L):
            if Fraction(L, i + 1) <= best:
                break
            for p in range(1, L - i + 1):
                if all(s[j] == s[j + p] for j in range(i, L - p)):
                    best = max(best, Fraction(L, i + p))
                    break
        return best

    for L in (5, 10, 20, 40, 80, 160, 320, 640):
        assert best_ratio(L) == value, L


def test_is_recurrent(tm, zero, one_then_zeros):
    assert is_recurrent(tm) is True
    assert is_recurrent(one_then_zeros) is False
    assert is_recurrent(zero) is True


def test_recurrent_sequences_have_c1_equal_c(tm, rs):
    # linearly recurrent sequences: every factor recurs, so the recurrent
    # critical exponent coincides with the critical exponent
    for a in (tm, rs):
        assert is_recurrent(a)
        assert recurrent_critical_exponent(a).value == critical_exponent(a).value


def test_block_recode_inherits_prefix_measures(tm, vtm):
    # vtm is a two-symbol-window recoding of tm: occurrence structure at
    # equal positions matches, so recurrence constants and the periodic-tail
    # exponent carry over
    assert linear_recurrence(vtm).constant == linear_recurrence(tm).constant
    assert diophantine_exponent(vtm).value == diophantine_exponent(tm).value


def test_linear_recurrence_zero(zero):
    rep = linear_recurrence(zero)
    assert rep.linearly_recurrent is True
    assert rep.constant == Fraction(1)
    assert rep.attained is True


def test_linear_recurrence_not_recurrent(one_then_zeros):
    rep = linear_recurrence(one_then_zeros)
    assert rep.linearly_recurrent is False
    assert rep.reason == "not-recurrent"
    assert rep.constant is None


def test_linear_recurrence_tm(tm):
    rep = linear_recurrence(tm)
    assert rep.linearly_recurrent is True
    assert rep.constant == Fraction(9)
    bound = scan_recurrence(sequence_prefix(tm, 1 << 16), 8)
    assert bound <= rep.constant


def test_gap_language_zero(zero):
    L = gap_language(zero)
    assert L.accepts(encode_pair(1, 1, CTX))
    assert L.accepts(encode_pair(1, 5, CTX))
    assert not L.accepts(encode_pair(2, 1, CTX))  # next occurrence is at distance 1


def test_ordering_chains(tm, rs, vtm, zero, one_then_zeros, alternating):
    for a in (tm, rs, vtm, zero, one_then_zeros, alternating):
        c = critical_exponent(a)
        c2 = special_exponent(a)
        i1, i2 = initial_critical_exponents(a)
        assert Fraction(1) <= c2.value <= c.value
        assert Fraction(1) <= i2.value <= i1.value <= c.value


def test_closure_audit_on_restricted_pair_languages(tm, rs):
    # conditions hold on the orientation-restricted part (quotient >= 1):
    # prefixes of a periodic occurrence are themselves periodic occurrences
    ge1 = comparator_dfa(Comparator(Fraction(1), ">=", CTX))
    for a in (tm, rs):
        for L in (period_language(a), initial_critical_exponents(a)[0].pair_dfa):
            audited = canonicalize(product(L, ge1, "and"))
            report = check_pair_closure(audited, CTX)
            assert report["a"] and report["c"] and report["d"], report


def test_orientation_of_pair_languages(tm):
    # the numerator track carries the length: (4, 2) is a repetition pair,
    # the flipped (2, 4) is only in the vacuous wedge with quotient < 1
    L = period_language(tm)
    assert L.accepts(encode_pair(4, 2, CTX))
    over1 = product(L, comparator_dfa(Comparator(Fraction(1), ">", CTX)), "and")
    assert not is_empty(over1)
    gt = comparator_dfa(Comparator(Fraction(1), ">=", CTX))
    lt = comparator_dfa(Comparator(Fraction(1), "<", CTX))
    assert is_empty(product(product(L, gt, "and"), lt, "and"))


def test_oracle_dominance(tm, rs, tm_prefix, rs_prefix):
    for a, sample in [(tm, tm_prefix), (rs, rs_prefix)]:
        r = critical_exponent(a)
        scanned, _ = scan_max_exponent(sample, 64)
        assert scanned <= r.value
        if r.attained:
            assert scanned == r.value


def test_period_doubling_measures():
    # a two-state derived sequence with an unattained critical exponent:
    # the window oracle climbs toward both limits without reaching them
    from critex.sequences import period_doubling

    pd = period_doubling()
    assert pd.num_states == 2
    assert sequence_prefix(pd, 16).text() == "0100010101000100"
    r = critical_exponent(pd)
    assert (r.value, r.attained) == (Fraction(4), False)
    assert special_exponent(pd).value == Fraction(4)
    scanned, _ = scan_max_exponent(sequence_prefix(pd, 1 << 14), 64)
    assert Fraction(3) < scanned < Fraction(4)
    i1, i2 = initial_critical_exponents(pd)
    assert (i1.value, i1.attained, i2.value) == (Fraction(2), False, Fraction(2))
    scanned_ice = scan_ice(sequence_prefix(pd, 1 << 15))
    assert Fraction(1) < scanned_ice < Fraction(2)
    rep = linear_recurrence(pd)
    assert rep.linearly_recurrent and rep.constant == Fraction(7)


def test_base3_digit_sum_sequence_consistency():
    # base-3 generalization: output is the digit sum mod 3; the pipelines
    # must agree with the window oracle and respect the ordering chain
    from critex.automaton import Dfao

    t3 = Dfao(3, 1, [[0, 1, 2], [1, 2, 0], [2, 0, 1]], ["0", "1", "2"], 0)
    assert t3.is_zero_invariant()
    r = critical_exponent(t3)
    c2 = special_exponent(t3)
    assert Fraction(1) <= c2.value <= r.value
    sample = sequence_prefix(t3, 3**8)
    scanned, _ = scan_max_exponent(sample, 40)
    assert scanned <= r.value
    if r.attained:
        assert scanned == r.value
    i1, i2 = initial_critical_exponents(t3)
    assert i2.value <= i1.value <= r.value
    scanned_ice = scan_ice(sample)
    assert scanned_ice <= i1.value
    if i1.attained:
        assert scanned_ice == i1.value
