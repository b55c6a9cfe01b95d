import random

import pytest

from critex import arith
from critex.automaton import (
    AutomatonError,
    Dfa,
    Dfao,
    IncompatibleError,
    StateLimitError,
    _subsets,
    canonicalize,
    complement,
    enumerate_accepted,
    erase,
    is_empty,
    is_infinite,
    lift_tracks,
    minimize,
    product,
)
from critex.numeral import DigitWord, RadixContext

from helpers import (
    FIXTURES,
    all_words_upto,
    brzozowski_minimize,
    constant_zero,
    dfa_for_words,
    pairs_ones_then_01,
    pairs_unbounded,
    pump_words,
    random_dfa,
    random_nfa,
    random_word,
    verify_pump,
)
from reference import (
    Nfa,
    accepted_from,
    determinize,
    determinize_minimal,
    is_infinite_reference,
    language_equal,
    permute_tracks,
    product_reference,
    project,
    pump_decompositions,
    reverse,
    shortest_accepted,
    subsets_reference,
    zero_closure,
    zero_saturate,
)


def all_words_dfa(k, tracks):
    return Dfa(k, tracks, [[0] * (k**tracks)], {0}, 0)


def empty_dfa(k, tracks):
    return Dfa(k, tracks, [[0] * (k**tracks)], set(), 0)


@pytest.mark.parametrize("initial", [5, 1, -1])
def test_constructors_refuse_an_initial_state_out_of_range(initial):
    # -1 would otherwise index the last state
    with pytest.raises(AutomatonError, match="initial state"):
        Dfao(2, 1, [[0, 0]], ["a"], initial)
    with pytest.raises(AutomatonError, match="initial state"):
        Dfa(2, 1, [[0, 0]], {0}, initial)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0, 1], [1]], "state 1 has 1 moves, expected 2"),
        ([[0, 1], [2, 0]], "state 1 has transition target 2 out of range"),
        ([[0, -1], [1, 0]], "state 0 has transition target -1 out of range"),
    ],
)
def test_constructors_refuse_a_bad_row_naming_its_state(rows, message):
    with pytest.raises(AutomatonError, match=message):
        Dfao(2, 1, rows, ["a", "b"], 0)
    with pytest.raises(AutomatonError, match=message):
        Dfa(2, 1, rows, {0}, 0)


# ------------------------------------------------------------- product


def test_product_and_idempotent():
    a = pairs_ones_then_01()
    assert language_equal(product(a, a, "and"), a)


def test_product_with_complement_empty():
    a = pairs_ones_then_01()
    assert is_empty(product(a, complement(a), "and"))


def test_product_and_identity():
    b = pairs_unbounded()
    assert language_equal(product(all_words_dfa(2, 2), b, "and"), b)


def test_product_or_against_membership():
    rng = random.Random(7)
    for _ in range(20):
        a, b = random_dfa(rng), random_dfa(rng)
        both_and = product(a, b, "and")
        both_or = product(a, b, "or")
        for _ in range(50):
            w = random_word(rng, 2, 2, 6)
            assert both_and.accepts(w) == (a.accepts(w) and b.accepts(w))
            assert both_or.accepts(w) == (a.accepts(w) or b.accepts(w))


def test_product_is_the_minimal_reachable_product_random():
    rng = random.Random(20)
    for _ in range(300):
        k = rng.randint(2, 3)
        tracks = rng.randint(1, 3)
        a = random_dfa(rng, k=k, tracks=tracks, max_states=5)
        b = random_dfa(rng, k=k, tracks=tracks, max_states=5)
        for mode in ("and", "or"):
            got = product(a, b, mode)
            assert got == minimize(product_reference(a, b, mode)), (a.trans, b.trans, mode)
            assert minimize(got) == got


def test_product_rejects_mismatched_alphabets():
    with pytest.raises(IncompatibleError):
        product(all_words_dfa(2, 2), all_words_dfa(2, 1), "and")


# ------------------------------------------------------------- complement


def test_complement_of_empty_is_all():
    assert language_equal(complement(empty_dfa(2, 1)), all_words_dfa(2, 1))


def test_double_complement_identity():
    a = pairs_ones_then_01()
    assert minimize(complement(complement(a))) == minimize(a)


def test_complement_point_memberships():
    a = dfa_for_words(2, 2, [((1, 1),)])
    c = complement(a)
    assert not c.accepts(DigitWord.from_pairs([(1, 1)], 2))
    assert c.accepts(DigitWord.from_pairs([(0, 1)], 2))


# ------------------------------------------------------------- project / determinize


def test_project_erases_track():
    a = dfa_for_words(2, 2, [((1, 0), (0, 1))])
    n = project(a, 1)
    d = determinize(n)
    assert d.accepts(DigitWord.from_digits("10", 2))
    assert not d.accepts(DigitWord.from_digits("11", 2))


def test_project_empty_stays_empty():
    n = project(empty_dfa(2, 2), 0)
    assert is_empty(determinize(n))


def test_project_diagonal_gives_all_words():
    # (m, m) pairs: erasing either track leaves every 1-track word
    from critex.numeral import RadixContext
    from reference import eq_rel

    eq = eq_rel(RadixContext(2))
    d = minimize(determinize(project(eq, 1)))
    assert language_equal(d, all_words_dfa(2, 1))


def test_determinize_preserves_language():
    rng = random.Random(8)
    for _ in range(20):
        a = random_dfa(rng, tracks=1, max_states=4)
        n = Nfa(2, 1, [[frozenset((t,)) for t in row] for row in a.trans], a.accept, {a.initial})
        d = determinize(n)
        for w in all_words_upto(2, 1, 7):
            assert d.accepts(w) == a.accepts(w)


def test_determinize_two_initials_union():
    # initials {0, 1}; state 0 accepts on symbol a=0 path, state 1 on a=1
    n = Nfa(
        2,
        1,
        [
            [frozenset((2,)), frozenset()],
            [frozenset(), frozenset((2,))],
            [frozenset(), frozenset()],
        ],
        {2},
        {0, 1},
    )
    d = determinize(n)
    assert d.accepts(DigitWord.from_digits("0", 2))
    assert d.accepts(DigitWord.from_digits("1", 2))
    assert not d.accepts(DigitWord.from_digits("00", 2))


def test_projection_never_loses_words():
    rng = random.Random(9)
    for _ in range(20):
        a = random_dfa(rng, tracks=2, max_states=4)
        d = determinize(project(a, 1))
        for _ in range(50):
            w = random_word(rng, 2, 2, 6)
            if a.accepts(w):
                assert d.accepts(w.track(0))


# ------------------------------------------------------------- double reversal


def test_determinize_minimal_matches_forward_path_random():
    rng = random.Random(19)
    for _ in range(300):
        n = random_nfa(rng)
        out = determinize_minimal(n)
        assert out == minimize(determinize(n))
        assert minimize(out) == out


def test_determinize_minimal_numbering_ignores_input_numbering():
    # the second pass numbers breadth-first in symbol order, which is
    # minimize's canonical numbering whatever the input's state order
    rng = random.Random(20)
    for _ in range(100):
        a = random_dfa(rng, k=rng.randint(2, 3), tracks=rng.randint(1, 2), max_states=6)
        perm = list(range(a.num_states))
        rng.shuffle(perm)
        rows = [None] * a.num_states
        for s, row in enumerate(a.trans):
            rows[perm[s]] = [{perm[t]} for t in row]
        n = Nfa(a.k, a.tracks, rows, {perm[s] for s in a.accept}, {perm[a.initial]})
        assert determinize_minimal(n) == minimize(a)


def _nth_symbol_is_one(n: int, from_end: bool) -> Nfa:
    """Words over {0,1} whose n-th symbol from the start (or end) is 1;
    n + 1 states, and the minimal machine of the end variant has 2^n."""
    rows = [[{i + 1}, {i + 1}] for i in range(n)] + [[set(), set()]]
    if from_end:
        rows[0] = [{0}, {0, 1}]
    else:
        rows[n - 1] = [set(), {n}]
        rows[n] = [{n}, {n}]
    return Nfa(2, 1, rows, {n}, {0})


def test_determinize_minimal_nth_symbol_languages():
    for n in (1, 2, 5):
        for from_end in (False, True):
            nfa = _nth_symbol_is_one(n, from_end)
            out = determinize_minimal(nfa)
            assert out == minimize(determinize(nfa))
            assert out.num_states == (2**n if from_end else n + 2)
            for w in all_words_upto(2, 1, n + 2):
                assert out.accepts(w) == (len(w) >= n and w.symbols[-n if from_end else n - 1] == (1,))


def test_determinize_minimal_state_cap_in_first_pass(monkeypatch):
    # reversing "10th symbol from the start" gives "10th from the end": the
    # first pass needs 2^10 subsets, the minimal machine has 12 states
    nfa = _nth_symbol_is_one(10, from_end=False)
    assert determinize_minimal(nfa).num_states == 12
    monkeypatch.setenv("CRITEX_MAX_STATES", "1000")
    with pytest.raises(StateLimitError):
        determinize_minimal(nfa)


def test_determinize_minimal_state_cap_in_second_pass(monkeypatch):
    # "10th symbol from the end": the first pass is a 12-subset chain, the
    # second builds the 2^10-state minimal machine
    nfa = _nth_symbol_is_one(10, from_end=True)
    assert determinize_minimal(nfa).num_states == 1024
    monkeypatch.setenv("CRITEX_MAX_STATES", "1000")
    with pytest.raises(StateLimitError):
        determinize_minimal(nfa)


def test_packed_subsets_match_member_by_symbol_step():
    # n within one chunk of 8 states or across two, a multiple of 8 or not;
    # a row is empty one time in four, and each start is random and then 0.
    # Wide alphabets keep n small: 243 symbols on 13 states reach 23k subsets
    rng = random.Random(22)
    for s_count in (1, 2, 3, 8, 9, 81, 243):
        for n in (1, 7, 8, 13, 16) if s_count < 81 else (1, 7, 8, 9):
            for _ in range(3):
                masks = [
                    [0] * s_count
                    if rng.random() < 0.25
                    else [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(s_count)]
                    for _ in range(n)
                ]
                for start in (rng.getrandbits(n), 0):
                    assert _subsets(masks, start, s_count) == subsets_reference(masks, start, s_count)


def _random_dfa_any_initial(rng: random.Random) -> Dfa:
    """k 2-3, 2-3 tracks (at most 9 symbols), a random initial state, and an
    empty accepting set about one time in six."""
    k = rng.randint(2, 3)
    tracks = rng.randint(2, 3 if k == 2 else 2)
    n = rng.randint(1, 6)
    rows = [[rng.randrange(n) for _ in range(k**tracks)] for _ in range(n)]
    accept = [] if rng.random() < 1 / 6 else [s for s in range(n) if rng.random() < 0.4]
    return Dfa(k, tracks, rows, accept, rng.randrange(n))


def _padded_nfa(a: Dfa) -> Nfa:
    """a plus a state n that moves like the initial state and also loops on
    the all-zero symbol; initial states n and a's initial state."""
    n = a.num_states
    rows = [[{t} for t in row] for row in a.trans]
    rows.append([{t} for t in a.trans[a.initial]])
    rows[n][0].add(n)
    acc = set(a.accept) | ({n} if a.initial in a.accept else set())
    return Nfa(a.k, a.tracks, rows, acc, {n, a.initial})


def test_erase_and_zero_closure_match_forward_path_random():
    rng = random.Random(21)
    empties = 0
    for _ in range(300):
        a = _random_dfa_any_initial(rng)
        empties += not a.accept
        for track in range(a.tracks):
            assert erase(a, track) == minimize(determinize(zero_saturate(project(a, track))))
        assert zero_closure(a) == minimize(determinize(_padded_nfa(a)))
    assert empties > 20


def _truth(a: Dfa) -> Dfa:
    return Dfa(a.k, 0, [[0]], {0} if not is_empty(a) else set(), 0)


def test_erasing_the_only_track_gives_the_truth_value_random():
    # leading-zero invariance, which every compiled machine has, is what
    # makes every word length accepted once one word is: the initial state
    # loops on the zero digit
    rng = random.Random(2101)
    empties = 0
    for _ in range(300):
        a = random_dfa(rng, k=rng.randint(2, 3), tracks=1, max_states=5)
        a = Dfa(a.k, 1, [[0, *a.trans[0][1:]], *a.trans[1:]], a.accept, 0)
        empties += is_empty(a)
        assert erase(a, 0) == _truth(a)
    assert empties > 10


def test_erasing_the_only_track_of_a_fixture_atom_gives_the_truth_value():
    ctx = RadixContext(2)
    atoms = [arith.const_eq_rel(ctx, c) for c in (0, 1, 6, 1000)] + [arith.nonzero_track_dfa(ctx, 1, 0)]
    for name, build in FIXTURES.items():
        if name.endswith(".dfao"):
            a = build()
            atoms += [arith.seq_const(a, symbol) for symbol in sorted(a.output_alphabet)]
    atoms.append(complement(arith.seq_const(constant_zero(), "0")))
    assert any(is_empty(a) for a in atoms)
    for a in atoms:
        assert erase(a, 0) == _truth(a)


def test_erasing_the_only_track_keeps_the_word_lengths_without_invariance():
    # accepts only the empty word; no state leads back to the accepting one
    a = Dfa(2, 1, [[1, 1], [1, 1]], {0}, 0)
    assert erase(a, 0) == Dfa(2, 0, [[1], [1]], {0}, 0)


# ------------------------------------------------------------- minimize


def test_minimize_idempotent_bit_for_bit():
    rng = random.Random(10)
    for _ in range(30):
        a = random_dfa(rng)
        m = minimize(a)
        assert minimize(m) == m


def test_minimize_same_language_same_machine():
    a = pairs_ones_then_01()
    bigger = product(a, all_words_dfa(2, 2), "and")
    assert minimize(bigger) == minimize(a)


def test_minimize_four_state_sigma_star():
    rows = [[1, 1], [2, 2], [3, 3], [0, 0]]
    noisy = Dfa(2, 1, rows, {0, 1, 2, 3}, 0)
    m = minimize(noisy)
    assert m.num_states == 1
    assert m == all_words_dfa(2, 1)


@pytest.mark.parametrize("k", [2, 3])
def test_minimize_membership_exhaustive(k):
    rng = random.Random(11 + k)
    for _ in range(10):
        a = random_dfa(rng, k=k, tracks=1, max_states=5)
        m = minimize(a)
        assert m.num_states <= a.num_states
        for w in all_words_upto(k, 1, 8):
            assert m.accepts(w) == a.accepts(w)


def test_minimize_matches_reference():
    rng = random.Random(12)
    for _ in range(400):
        a = random_dfa(rng, tracks=rng.choice([1, 2]), max_states=5)
        assert minimize(a) == brzozowski_minimize(a)


# ------------------------------------------------------------- emptiness / infinity


def test_is_empty_with_witness():
    assert is_empty(empty_dfa(2, 2))
    assert shortest_accepted(empty_dfa(2, 2)) is None
    w = shortest_accepted(all_words_dfa(2, 2))
    assert w is not None and len(w) == 0
    single = dfa_for_words(2, 2, [((1, 0), (0, 1))])
    assert shortest_accepted(single).symbols == ((1, 0), (0, 1))


def test_is_infinite():
    assert is_infinite(pairs_ones_then_01())
    assert not is_infinite(dfa_for_words(2, 2, [((1, 1),), ((1, 0), (0, 1))]))
    assert not is_infinite(empty_dfa(2, 2))


def test_is_infinite_matches_kahn_reference_random():
    # half the machines send about 60 % of the moves to a dead state, so
    # finite languages are common
    rng = random.Random(3141)
    seen = set()
    for i in range(600):
        a = random_dfa(rng, k=rng.randint(2, 3), tracks=rng.randint(1, 2), max_states=7)
        if i % 2:
            dead = a.num_states
            rows = [[dead if rng.random() < 0.6 else t for t in row] for row in a.trans]
            a = Dfa(a.k, a.tracks, rows + [[dead] * a.alphabet_size], a.accept, 0)
        got = is_infinite(a)
        assert got == is_infinite_reference(a), a.trans
        seen.add(got)
    assert seen == {True, False}


# ------------------------------------------------------------- canonicalize


def test_canonicalize_accept_all():
    c = canonicalize(all_words_dfa(2, 2))
    assert c.accepts(DigitWord(2, 2, ()))
    assert not c.accepts(DigitWord.from_pairs([(0, 0), (1, 1)], 2))
    assert c.accepts(DigitWord.from_pairs([(1, 1), (0, 0)], 2))


def test_canonicalize_drops_padded_variant():
    a = dfa_for_words(2, 2, [((0, 0), (1, 1)), ((1, 1),)])
    c = canonicalize(a)
    assert language_equal(c, dfa_for_words(2, 2, [((1, 1),)]))


def test_canonicalize_idempotent():
    rng = random.Random(13)
    for _ in range(20):
        c = canonicalize(random_dfa(rng))
        assert canonicalize(c) == c


def test_canonicalize_never_accepts_zero_start_exhaustive():
    rng = random.Random(14)
    for _ in range(10):
        c = canonicalize(random_dfa(rng))
        for w in all_words_upto(2, 2, 6):
            if len(w) and w.symbols[0] == (0, 0):
                assert not c.accepts(w)


def test_zero_closure_value_semantics():
    rng = random.Random(15)
    zero = ((0, 0),)
    for _ in range(15):
        c = canonicalize(random_dfa(rng))
        z = zero_closure(c)
        for w in all_words_upto(2, 2, 5):
            padded = DigitWord(2, 2, zero + w.symbols)
            assert z.accepts(padded) == z.accepts(w)
            if c.accepts(w):
                assert z.accepts(w)


# ------------------------------------------------------------- enumeration


def test_enumerate_accepted_orders_and_bounds():
    words = list(enumerate_accepted(all_words_dfa(2, 1), 1))
    assert [str(w) for w in words] == ["eps", "0", "1"]
    single = dfa_for_words(2, 2, [((1, 0), (0, 1))])
    got = list(enumerate_accepted(single, 2))
    assert len(got) == 1 and got[0].symbols == ((1, 0), (0, 1))
    assert list(enumerate_accepted(empty_dfa(2, 2), 4)) == []


def test_enumerate_accepted_exact_set():
    rng = random.Random(16)
    for _ in range(10):
        a = random_dfa(rng, tracks=1, max_states=4)
        got = [w.symbols for w in enumerate_accepted(a, 6)]
        expected = [w.symbols for w in all_words_upto(2, 1, 6) if a.accepts(w)]
        assert got == expected


# ------------------------------------------------------------- pumps


def test_pump_examples():
    pumps = list(pump_decompositions(pairs_ones_then_01()))
    assert any(p.u.symbols == ((1, 1),) and p.v.symbols == ((0, 1),) for p in pumps)
    assert list(pump_decompositions(dfa_for_words(2, 2, [((1, 1),)]))) == []


def test_pump_star_language_includes_empty_prefix():
    # {[1,0]}* with all states accepting
    rows = [[2, 2, 0, 2], [2] * 4, [2] * 4]
    star = Dfa(2, 2, rows, {0}, 0)
    pumps = list(pump_decompositions(star))
    assert any(len(p.u) == 0 and p.v.symbols == ((1, 0),) for p in pumps)


def test_pump_soundness_random():
    rng = random.Random(17)
    from helpers import prepared_random_suite

    for machine in prepared_random_suite(400, 15):
        for pump in list(pump_decompositions(machine))[:20]:
            assert verify_pump(machine, pump)
            assert len(pump.u) + len(pump.v) <= machine.num_states
            witnesses = list(accepted_from(machine, pump.loop_state, 5))
            assert witnesses, "loop state must be co-accessible"
            for w in witnesses:
                for copies in (0, 1, 2):
                    assert machine.accepts(pump_words(machine, pump, copies, w))


# ------------------------------------------------------------- reverse / lifts


def test_reverse_involution():
    rng = random.Random(18)
    for _ in range(15):
        a = minimize(random_dfa(rng))
        assert reverse(reverse(a)) == minimize(a)


def test_reverse_single_word():
    a = dfa_for_words(2, 2, [((1, 0), (0, 1))])
    r = reverse(a)
    assert r.accepts(DigitWord.from_pairs([(0, 1), (1, 0)], 2))
    assert not r.accepts(DigitWord.from_pairs([(1, 0), (0, 1)], 2))


def test_reverse_palindromic_language():
    pal = dfa_for_words(2, 2, [((1, 1),), ((1, 0), (1, 0))])
    assert language_equal(reverse(pal), minimize(pal))


def test_lift_and_permute_tracks():
    rng = random.Random(19)
    for _ in range(10):
        a = random_dfa(rng, tracks=2, max_states=4)
        wide = lift_tracks(a, [0, 2], 3)
        for _ in range(40):
            w = random_word(rng, 2, 3, 5)
            sub = DigitWord(2, 2, tuple((s[0], s[2]) for s in w.symbols))
            assert wide.accepts(w) == a.accepts(sub)
        swapped = permute_tracks(a, [1, 0])
        for _ in range(40):
            w = random_word(rng, 2, 2, 5)
            back = DigitWord(2, 2, tuple((s[1], s[0]) for s in w.symbols))
            assert swapped.accepts(w) == a.accepts(back)


def test_membership_vs_direct_simulation_fuzz():
    rng = random.Random(20)
    for _ in range(5):
        a = random_dfa(rng)
        b = random_dfa(rng)
        ops = {
            "and": product(a, b, "and"),
            "or": product(a, b, "or"),
            "not": complement(a),
            "min": minimize(a),
            "canon": canonicalize(a),
        }
        for _ in range(1000):
            w = random_word(rng, 2, 2, 7)
            ra, rb = a.accepts(w), b.accepts(w)
            assert ops["and"].accepts(w) == (ra and rb)
            assert ops["or"].accepts(w) == (ra or rb)
            assert ops["not"].accepts(w) == (not ra)
            assert ops["min"].accepts(w) == ra
            expected_canon = ra and (len(w) == 0 or w.symbols[0] != (0, 0))
            assert ops["canon"].accepts(w) == expected_canon
