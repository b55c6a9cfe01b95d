"""Exact-arithmetic property suites shared by unit and acceptance tests.

Each suite raises AssertionError on the first violation.
"""

from __future__ import annotations

import random
from fractions import Fraction

from critex.numeral import DigitWord, RadixContext, encode_pair
from critex.rational import INF

from reference import Comparator, comparator_dfa

RELS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "!=": lambda a, b: a != b,
}


def run_mediant_suite(cases: int, seed: int = 4101) -> int:
    rng = random.Random(seed)
    for _ in range(cases):
        a, b = rng.randrange(0, 1 << 20), rng.randrange(0, 1 << 20)
        c, d = rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 20)
        lo, hi = sorted([Fraction(a, c), Fraction(b, d)])
        mid = Fraction(a + b, c + d)
        if lo == hi:
            assert mid == lo
        else:
            assert lo < mid < hi
    return cases


def _word_values(syms, k):
    v1 = v2 = 0
    for c1, c2 in syms:
        v1 = v1 * k + c1
        v2 = v2 * k + c2
    return v1, v2


def run_chain_suite(cases: int, seed: int = 4102) -> int:
    """Pumping a block between a prefix and a suffix moves the pair quotient
    strictly monotonically (or not at all) toward the increment ratio, with
    the gap shrinking below k**(c - i*|v|)."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        k = rng.choice([2, 3])
        rand = lambda n: [(rng.randrange(k), rng.randrange(k)) for _ in range(n)]
        u = rand(rng.randint(0, 3))
        v = rand(rng.randint(1, 3))
        w = rand(rng.randint(0, 3))
        if _word_values(w, k)[1] == 0:
            continue  # keep every denominator in the chain nonzero
        done += 1
        uv1, uv2 = _word_values(u + v, k)
        u1, u2 = _word_values(u, k)
        quos = []
        for i in range(11):
            b1, b2 = _word_values(u + v * i + w, k)
            quos.append(Fraction(b1, b2))
        if uv1 == 0 and uv2 == 0:
            limit = quos[0]
        elif uv2 == 0:
            limit = INF
        else:
            limit = Fraction(uv1 - u1, uv2 - u2)
        if limit is INF:
            assert all(x < y for x, y in zip(quos, quos[1:]))
            lw = len(u) + len(v) + len(w)
            assert quos[10] >= Fraction(k ** (9 * len(v)), k**lw)
            continue
        diffs = [q - limit for q in quos]
        if all(d == 0 for d in diffs):
            continue  # constant chain
        signs = {(-1 if d < 0 else 1) for d in diffs}
        assert len(signs) == 1, "comparison sign must not flip along the chain"
        mono = [abs(d) for d in diffs]
        assert all(x > y for x, y in zip(mono, mono[1:]))
        if signs == {-1}:
            assert all(x < y for x, y in zip(quos, quos[1:]))
        else:
            assert all(x > y for x, y in zip(quos, quos[1:]))
        c = len(u) + 2 * len(v) + (len(u) + len(v) + len(w))
        for i, d in enumerate(diffs):
            assert abs(d) <= Fraction(k**c, k ** (i * len(v)))
    return done


def run_comparator_suite(cases: int, seed: int = 4100) -> int:
    rng = random.Random(seed)
    ctx = RadixContext(2)
    thresholds = [
        Fraction(0),
        Fraction(1),
        Fraction(2),
        Fraction(1, 2),
        Fraction(7, 3),
        Fraction(5, 4),
        Fraction(3),
    ]
    machines = {(t, r): comparator_dfa(Comparator(t, r, ctx)) for t in thresholds for r in RELS}
    for _ in range(cases):
        t = rng.choice(thresholds)
        p = rng.randrange(0, 1 << 10)
        q = rng.randrange(0, 1 << 10)
        w = encode_pair(p, q, ctx)
        if rng.random() < 0.3:
            w = DigitWord(2, 2, ((0, 0),) + w.symbols)
        lhs, rhs = p * t.denominator, q * t.numerator
        for r, fn in RELS.items():
            assert machines[(t, r)].accepts(w) == fn(lhs, rhs), (p, q, t, r)
    return cases
