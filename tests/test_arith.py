import operator
import random

import pytest

from critex.arith import (
    const_eq_rel,
    linear_rel,
    nonzero_track_dfa,
    seq_const,
    seq_eq,
)
from critex.automaton import (
    Dfao,
    StateLimitError,
    complement,
    is_empty,
    lift_tracks,
    minimize,
    product,
    symbols,
)
from critex.numeral import DigitWord, RadixContext, digits_of

from helpers import all_words_upto
from reference import add_rel, cmp_rel, eq_rel, language_equal, successor_rel


def encode_tuple(values, k, width=None):
    """Equal-length padded encoding of a tuple of naturals."""
    digits = []
    for v in values:
        ds = []
        while v:
            ds.append(v % k)
            v //= k
        digits.append(list(reversed(ds)))
    n = max([len(d) for d in digits] + [width or 0])
    syms = []
    for i in range(n):
        syms.append(tuple(d[i - (n - len(d))] if i >= n - len(d) else 0 for d in digits))
    return DigitWord(k, len(values), tuple(syms))


@pytest.fixture(scope="module")
def ctx():
    return RadixContext(2)


def test_eq_rel_examples(ctx):
    eq = eq_rel(ctx)
    assert eq.accepts(encode_tuple((5, 5), 2))
    assert not eq.accepts(encode_tuple((5, 6), 2))
    assert eq.accepts(DigitWord.from_pairs([(0, 0), (1, 1)], 2))


def test_lt_rel_examples(ctx):
    lt = cmp_rel(ctx, "<")
    assert lt.accepts(encode_tuple((3, 4), 2))
    assert not lt.accepts(encode_tuple((4, 4), 2))
    assert not lt.accepts(encode_tuple((4, 3), 2))


def test_add_rel_examples(ctx):
    add = add_rel(ctx)
    assert add.accepts(encode_tuple((1, 1, 2), 2))
    for n in range(40):
        assert add.accepts(encode_tuple((0, n, n), 2))
    assert not add.accepts(encode_tuple((1, 1, 3), 2))


def test_add_rel_fuzz_10k(ctx):
    rng = random.Random(2100)
    add = add_rel(ctx)
    for _ in range(10_000):
        x = rng.randrange(0, 1 << 16)
        y = rng.randrange(0, 1 << 16)
        if rng.random() < 0.5:
            z = x + y
        else:
            z = rng.randrange(0, 1 << 17)
        assert add.accepts(encode_tuple((x, y, z), 2)) == (x + y == z)


def test_cmp_fuzz_with_padding(ctx):
    rng = random.Random(2101)
    eq, lt = eq_rel(ctx), cmp_rel(ctx, "<")
    for _ in range(10_000):
        x = rng.randrange(0, 1 << 14)
        y = rng.choice([x, rng.randrange(0, 1 << 14)])
        pad = rng.randrange(0, 3)
        w = encode_tuple((x, y), 2, width=max(x.bit_length(), y.bit_length()) + pad)
        assert eq.accepts(w) == (x == y)
        assert lt.accepts(w) == (x < y)


def test_successor_rel(ctx):
    succ = successor_rel(ctx)
    for x in range(60):
        for y in range(60):
            assert succ.accepts(encode_tuple((x, y), 2)) == (x == y + 1)


def test_successor_rel_base3():
    succ = successor_rel(RadixContext(3))
    for x in range(40):
        for y in range(40):
            assert succ.accepts(encode_tuple((x, y), 3)) == (x == y + 1)


def test_relations_base3():
    ctx3 = RadixContext(3)
    eq, lt, add = eq_rel(ctx3), cmp_rel(ctx3, "<"), add_rel(ctx3)
    rng = random.Random(2103)
    for _ in range(1500):
        x, y = rng.randrange(0, 3**8), rng.randrange(0, 3**8)
        z = rng.choice([x + y, rng.randrange(0, 3**9)])
        assert eq.accepts(encode_tuple((x, y), 3)) == (x == y)
        assert lt.accepts(encode_tuple((x, y), 3)) == (x < y)
        assert add.accepts(encode_tuple((x, y, z), 3)) == (x + y == z)


def test_const_eq_rel(ctx):
    for c in (0, 1, 2, 5, 12):
        m = const_eq_rel(ctx, c)
        for v in range(40):
            w = encode_tuple((v,), 2, width=8)
            assert m.accepts(w) == (v == c)


def test_const_eq_rel_huge_constant(ctx):
    value = 10**30
    m = const_eq_rel(ctx, value)
    assert m.num_states <= 2 * len(digits_of(value, 2)) + 2
    for v in (value - 1, value, value + 1, 2 * value):
        for pad in (0, 3):
            w = encode_tuple((v,), 2, width=v.bit_length() + pad)
            assert m.accepts(w) == (v == value)


@pytest.mark.parametrize("k", [2, 3])
def test_const_eq_rel_matches_linear_reference(k):
    # linear_rel with a constant walks every running value up to it: O(value)
    # states, so it serves only as a reference for small constants.
    ctx = RadixContext(k)
    for v in range(301):
        assert const_eq_rel(ctx, v) == linear_rel(k, (1,), "==", v), v


_HOLDS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _assert_linear_rel_exact(k, coeffs, relation, c, max_len):
    """Every word of length <= max_len (each a padded encoding of its value
    tuple) is accepted exactly when sum(a_i * x_i) <relation> c."""
    m = linear_rel(k, coeffs, relation, c)
    holds = _HOLDS[relation]
    syms = symbols(k, len(coeffs))
    stack = [(m.initial, (0,) * len(coeffs), 0)]
    while stack:
        s, xs, n = stack.pop()
        want = holds(sum(a * x for a, x in zip(coeffs, xs)), c)
        assert (s in m.accept) == want, (k, coeffs, relation, c, xs, n)
        if n < max_len:
            for i, sym in enumerate(syms):
                stack.append((m.trans[s][i], tuple(k * x + d for x, d in zip(xs, sym)), n + 1))


@pytest.mark.parametrize("k", [2, 3])
def test_linear_rel_brute_force(k):
    relations = list(_HOLDS)
    # one track: every coefficient, constant and relation
    for a in range(-3, 4):
        for c in range(-3, 4):
            for relation in relations:
                if a:
                    _assert_linear_rel_exact(k, (a,), relation, c, 5)
    # two and three tracks: a seeded sample, every relation equally often;
    # words up to length 5, except 3 for k = 3 on three tracks (27**3 words)
    rng = random.Random(4100 + k)
    for tracks in (2, 3):
        max_len = 3 if (k, tracks) == (3, 3) else 5
        for i in range(24):
            coeffs = (0,) * tracks
            while not any(coeffs):
                coeffs = tuple(rng.randint(-3, 3) for _ in range(tracks))
            _assert_linear_rel_exact(k, coeffs, relations[i % 6], rng.randint(-3, 3), max_len)


def test_seq_eq_respects_the_state_cap(monkeypatch):
    # digit-sum counter mod 40: every one of the 1600 state pairs is reachable
    n = 40
    counter = Dfao(2, 1, [[s, (s + 1) % n] for s in range(n)], [str(s) for s in range(n)], 0)
    monkeypatch.setenv("CRITEX_MAX_STATES", "1000")
    with pytest.raises(StateLimitError):
        seq_eq(counter)


def test_nonzero_track(ctx):
    nz = nonzero_track_dfa(ctx, 2, 1)
    assert nz.accepts(encode_tuple((0, 3), 2))
    assert not nz.accepts(encode_tuple((3, 0), 2, width=4))
    assert not nz.accepts(DigitWord(2, 2, ()))


def test_seq_eq_examples(tm):
    m = seq_eq(tm)
    for x in range(30):
        assert m.accepts(encode_tuple((x, x), 2))
    assert m.accepts(encode_tuple((1, 2), 2))
    assert not m.accepts(encode_tuple((0, 1), 2))


def test_seq_eq_symmetric_and_transitive(tm, ctx):
    m = seq_eq(tm)
    rng = random.Random(2102)
    for _ in range(500):
        x, y = rng.randrange(0, 512), rng.randrange(0, 512)
        assert m.accepts(encode_tuple((x, y), 2)) == m.accepts(encode_tuple((y, x), 2))
    # transitivity via products on 3 tracks: eq(x,y) & eq(y,z) & ~eq(x,z) is empty
    xy = lift_tracks(m, [0, 1], 3)
    yz = lift_tracks(m, [1, 2], 3)
    xz = lift_tracks(m, [0, 2], 3)
    bad = product(product(xy, yz, "and"), complement(xz), "and")
    assert is_empty(bad)


def test_seq_const_examples(tm, ctx):
    ones = seq_const(tm, "1")
    zeros = seq_const(tm, "0")
    for x, out in [(1, "1"), (2, "1"), (7, "1"), (0, "0"), (3, "0"), (5, "0")]:
        w = encode_tuple((x,), 2)
        assert ones.accepts(w) == (out == "1")
        assert zeros.accepts(w) == (out == "0")
    assert zeros.accepts(DigitWord(2, 1, ()))  # index 0 encodes as the empty word
    union = product(ones, zeros, "or")
    all_one_track = minimize(complement(product(ones, complement(ones), "and")))
    assert language_equal(union, all_one_track)


def test_seq_const_rejects_unknown_symbol(tm):
    with pytest.raises(ValueError):
        seq_const(tm, "7")


@pytest.mark.parametrize(
    "builder,tracks",
    [
        (lambda ctx: eq_rel(ctx), 2),
        (lambda ctx: cmp_rel(ctx, "<"), 2),
        (lambda ctx: cmp_rel(ctx, ">="), 2),
        (lambda ctx: successor_rel(ctx), 2),
        (lambda ctx: const_eq_rel(ctx, 3), 1),
        (lambda ctx: nonzero_track_dfa(ctx, 2, 1), 2),
    ],
)
def test_zero_invariance_exhaustive(ctx, builder, tracks):
    m = builder(ctx)
    zero = (0,) * tracks
    for w in all_words_upto(2, tracks, 6):
        padded = DigitWord(2, tracks, (zero,) + w.symbols)
        assert m.accepts(w) == m.accepts(padded)


def test_zero_invariance_add_rel_exhaustive(ctx):
    add = add_rel(ctx)
    zero = (0, 0, 0)
    for w in all_words_upto(2, 3, 6):
        padded = DigitWord(2, 3, (zero,) + w.symbols)
        assert add.accepts(w) == add.accepts(padded)


def test_zero_invariance_seq_atoms(tm):
    m = seq_eq(tm)
    for w in all_words_upto(2, 2, 6):
        padded = DigitWord(2, 2, ((0, 0),) + w.symbols)
        assert m.accepts(w) == m.accepts(padded)
