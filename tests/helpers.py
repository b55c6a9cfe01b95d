"""Shared test machinery: the fixture machines and the `FIXTURES` table the
files in `fixtures/` are written from, random machines, random words, pump
validation, and an independent minimizer."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iproduct

from critex import sequences
from critex.arith import nonzero_track_dfa
from critex.automaton import (
    Dfa,
    Dfao,
    PumpDecomposition,
    canonicalize,
    is_empty,
    is_infinite,
    product,
    sym_index,
    symbols,
    trim_states,
)
from critex.numeral import DigitWord, RadixContext
from critex.quotient import _prepare

from reference import Nfa, compare_language, determinize


# ----------------------------------------------------------- fixtures


def constant_zero() -> Dfao:
    return Dfao(2, 1, [[0, 0]], ["0"], 0)


def one_then_zeros() -> Dfao:
    """1 0 0 0 ...: output 1 exactly at index 0."""
    return Dfao(2, 1, [[0, 1], [1, 1]], ["1", "0"], 0)


def alternating() -> Dfao:
    """0 1 0 1 ...: the low bit of the index."""
    return Dfao(2, 1, [[0, 1], [0, 1]], ["0", "1"], 0)


def dfa_for_words(k: int, tracks: int, words: list[tuple[tuple[int, ...], ...]]) -> Dfa:
    """Trie acceptor for an explicit finite set of words."""
    s_count = k**tracks
    children: list[dict[int, int]] = [{}]
    accept: set[int] = set()
    for word in words:
        cur = 0
        for sym in word:
            c = sym_index(tuple(sym), k)
            nxt = children[cur].get(c)
            if nxt is None:
                nxt = len(children)
                children.append({})
                children[cur][c] = nxt
            cur = nxt
        accept.add(cur)
    dead = len(children)
    rows = [[row.get(c, dead) for c in range(s_count)] for row in children]
    rows.append([dead] * s_count)
    return Dfa(k, tracks, rows, accept, 0)


def pairs_ones_then_01() -> Dfa:
    """{[1,1]} . {[0,1]}*: quotients 1, 2/3, 4/7, ... with limit 1/2."""
    # symbol indices for k=2, d=2: [0,0]=0, [0,1]=1, [1,0]=2, [1,1]=3
    dead = 2
    rows = [
        [dead, dead, dead, 1],
        [dead, 1, dead, dead],
        [dead, dead, dead, dead],
    ]
    return Dfa(2, 2, rows, {1}, 0)


def pairs_ones_repeat() -> Dfa:
    """{[1,1]} . {[1,1]}*: every quotient exactly 1."""
    dead = 2
    rows = [
        [dead, dead, dead, 1],
        [dead, dead, dead, 1],
        [dead, dead, dead, dead],
    ]
    return Dfa(2, 2, rows, {1}, 0)


def pairs_unbounded() -> Dfa:
    """{[1,0]} . {[1,0]}* . {[1,1]}: quotients (2^(m+1) - 1), unbounded."""
    dead = 3
    rows = [
        [dead, dead, 1, dead],
        [dead, dead, 1, 2],
        [dead, dead, dead, dead],
        [dead, dead, dead, dead],
    ]
    return Dfa(2, 2, rows, {2}, 0)


def pairs_single() -> Dfa:
    """The single pair word [1,0][1,1][0,1]: the quotient 6/3."""
    return dfa_for_words(2, 2, [((1, 0), (1, 1), (0, 1))])


def digit_sum_mod(m: int) -> Dfao:
    """Sum of the binary digits of n, mod m."""
    return Dfao(2, 1, [[s, (s + 1) % m] for s in range(m)], [str(s) for s in range(m)], 0)


def paperfolding_value(n: int) -> int:
    """Regular paperfolding word at n: 1 iff the odd part of n+1 is 1 mod 4."""
    n += 1
    while n % 2 == 0:
        n //= 2
    return int(n % 4 == 1)


def base3_digit_sum_value(n: int) -> int:
    """Sum of the base-3 digits of n, mod 3."""
    s = 0
    while n:
        s += n % 3
        n //= 3
    return s % 3


# Each file in fixtures/ and the builder it is written from; the README's
# regeneration recipe and test_autfile both read this table.
FIXTURES = {
    "tm.dfao": sequences.thue_morse,
    "rs.dfao": sequences.rudin_shapiro,
    "vtm.dfao": sequences.vtm,
    "period_doubling.dfao": sequences.period_doubling,
    "zero.dfao": constant_zero,
    "one_then_zeros.dfao": one_then_zeros,
    "alternating.dfao": alternating,
    "pairs_ones_then_01.dfa": pairs_ones_then_01,
    "pairs_unbounded.dfa": pairs_unbounded,
    "pairs_single.dfa": pairs_single,
}


# ----------------------------------------------------------- random machines


def random_dfa(rng: random.Random, k: int = 2, tracks: int = 2, max_states: int = 4) -> Dfa:
    n = rng.randint(1, max_states)
    s_count = k**tracks
    rows = [[rng.randrange(n) for _ in range(s_count)] for _ in range(n)]
    accept = [s for s in range(n) if rng.random() < 0.5]
    if not accept:
        accept = [rng.randrange(n)]
    return Dfa(k, tracks, rows, accept, 0)


def random_nfa(rng: random.Random) -> Nfa:
    """k 2-3, 1-3 tracks (at most 9 symbols), several initial states, and an
    empty accepting set about one time in six."""
    k = rng.randint(2, 3)
    tracks = rng.randint(1, 3 if k == 2 else 2)
    n = rng.randint(1, 7)
    density = rng.choice((0.1, 0.25, 0.5))
    rows = [[{t for t in range(n) if rng.random() < density} for _ in range(k**tracks)] for _ in range(n)]
    accept = [] if rng.random() < 1 / 6 else [s for s in range(n) if rng.random() < 0.4]
    initials = [s for s in range(n) if rng.random() < 0.3] or [rng.randrange(n)]
    return Nfa(k, tracks, rows, accept, initials)


def prepared_random_suite(seed: int, count: int, k: int = 2, max_states: int = 4) -> list[Dfa]:
    """Random pair acceptors, denominator-nonzero enforced and canonicalized;
    resamples until `count` machines with nonempty languages are collected."""
    rng = random.Random(seed)
    ctx = RadixContext(k)
    nz = nonzero_track_dfa(ctx, 2, 1)
    out = []
    while len(out) < count:
        raw = random_dfa(rng, k=k, tracks=2, max_states=max_states)
        work = canonicalize(product(raw, nz, "and"))
        if not is_empty(work):
            out.append(work)
    return out


def comparator_bounded_suite(seed: int, count: int, max_trim: int = 48) -> list[tuple[Dfa, RadixContext]]:
    """Prepared machines shaped like the benchmark's `pairs` pool, each with
    its radix context: random k = 2 and 3 acceptors of 3-14 states, a
    dead state taking about 40 % of the moves, intersected with a comparator
    p <= (P/Q)*q, so the supremum is finite.  Resamples until `count`
    machines with an infinite language and at most `max_trim` trim states
    are collected, alternating k."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = 2 + len(out) % 2
        n = rng.randint(3, 14)
        dead = n
        rows = [[dead if rng.random() < 0.4 else rng.randrange(n) for _ in range(k * k)] for _ in range(n)]
        rows.append([dead] * (k * k))
        accept = [s for s in range(n) if rng.random() < 0.3] or [0]
        Q = rng.randint(1, 4)
        ctx = RadixContext(k)
        bounded = compare_language(Dfa(k, 2, rows, accept, 0), ctx, Fraction(rng.randint(Q, 3 * Q), Q), "<=")
        work = _prepare(bounded, ctx)
        if is_infinite(work) and len(trim_states(work)) <= max_trim:
            out.append((work, ctx))
    return out


def brzozowski_minimize(a: Dfa) -> Dfa:
    """Minimal machine by double reversal, det(rev(det(rev(a)))), renumbered
    breadth-first; shares no refinement code with automaton.minimize."""

    def rev(m: Dfa) -> Nfa:
        rows = [[set() for _ in range(m.alphabet_size)] for _ in range(m.num_states)]
        for s, row in enumerate(m.trans):
            for c, t in enumerate(row):
                rows[t][c].add(s)
        return Nfa(m.k, m.tracks, rows, {m.initial}, m.accept)

    d = determinize(rev(determinize(rev(a))))
    pos = {d.initial: 0}
    bfs = [d.initial]
    for s in bfs:
        for t in d.trans[s]:
            if t not in pos:
                pos[t] = len(bfs)
                bfs.append(t)
    rows = [[pos[t] for t in d.trans[s]] for s in bfs]
    return Dfa(a.k, a.tracks, rows, {pos[s] for s in d.accept}, 0)


def random_word(rng: random.Random, k: int, tracks: int, max_len: int) -> DigitWord:
    syms = symbols(k, tracks)
    length = rng.randint(0, max_len)
    return DigitWord(k, tracks, tuple(rng.choice(syms) for _ in range(length)))


def all_words(k: int, tracks: int, length: int):
    """Every word of the given exact length, in lexicographic symbol order."""
    syms = list(iproduct(range(k), repeat=tracks))
    for combo in iproduct(syms, repeat=length):
        yield DigitWord(k, tracks, combo)


def all_words_upto(k: int, tracks: int, max_len: int):
    for length in range(max_len + 1):
        yield from all_words(k, tracks, length)


def verify_pump(machine: Dfa, pump: PumpDecomposition) -> bool:
    """The pump's path, cycle, co-accessibility, and increments all check out."""
    s = machine.run(pump.u)
    if s != pump.loop_state:
        return False
    view = Dfa(machine.k, machine.tracks, machine.trans, machine.accept, s)
    if view.run(pump.v) != s:
        return False
    if s not in trim_states(machine):
        return False
    uv = pump.u.concat(pump.v)
    return (
        pump.inc1 == uv.value(0) - pump.u.value(0)
        and pump.inc2 == uv.value(1) - pump.u.value(1)
        and len(pump.v) >= 1
    )


def pump_words(machine: Dfa, pump: PumpDecomposition, copies: int, w: DigitWord) -> DigitWord:
    body = pump.u
    for _ in range(copies):
        body = body.concat(pump.v)
    return body.concat(w)
