"""Atomic automatic relations: comparison, addition with carry, constants,
and pointwise sequence-value predicates read off a Dfao.

Every builder returns a complete machine that is leading-zero invariant,
so the relations compose freely inside padded products.
"""

from __future__ import annotations

from .automaton import Dfa, Dfao, explore, minimize, symbols
from .numeral import RadixContext, digits_of

# Signs of (sum - c) that satisfy each relation.
_SIGNS = {"==": (0,), "!=": (-1, 1), "<": (-1,), "<=": (-1, 0), ">": (1,), ">=": (0, 1)}


def linear_rel(k: int, coeffs: tuple[int, ...], relation: str, c: int = 0) -> Dfa:
    """Machine over len(coeffs) tracks accepting x with sum(a_i * x_i) <relation> c.

    Reads the most significant digit first, tracking the running sum D of
    the prefix.  D locks at hi = max(sum |negative a_i|, c + 1) and
    lo = min(-sum positive a_i, c - 1):
    past either bound no later digits bring D back, so its side of c is
    fixed.  Zero-invariant by construction.
    """
    if relation not in _SIGNS:
        raise ValueError(f"unknown relation {relation!r}")
    wts = [sum(a * d for a, d in zip(coeffs, sym)) for sym in symbols(k, len(coeffs))]
    hi = max(-sum(a for a in coeffs if a < 0), c + 1)
    lo = min(-sum(a for a in coeffs if a > 0), c - 1)
    rows, sums = explore(0, lambda d: [min(max(k * d + w, lo), hi) for w in wts])
    signs = _SIGNS[relation]
    acc = [i for i, d in enumerate(sums) if (d > c) - (d < c) in signs]
    return minimize(Dfa(k, len(coeffs), rows, acc, 0))


def cmp_rel(ctx: RadixContext, relation: str) -> Dfa:
    """2-track machine accepting (x, y) with x <relation> y."""
    return linear_rel(ctx.k, (1, -1), relation)


def eq_rel(ctx: RadixContext) -> Dfa:
    return cmp_rel(ctx, "==")


def add_rel(ctx: RadixContext) -> Dfa:
    """3-track machine accepting (x, y, z) with x + y = z."""
    return linear_rel(ctx.k, (1, 1, -1), "==")


def successor_rel(ctx: RadixContext) -> Dfa:
    """2-track machine accepting (x, y) with x = y + 1."""
    return linear_rel(ctx.k, (1, -1), "==", 1)


def const_eq_rel(ctx: RadixContext, value: int) -> Dfa:
    """1-track machine accepting every padded encoding of the constant.

    State 0 reads leading zeros, state i has matched the first i digits of
    the constant, and the last state is dead: O(log_k value) states.
    """
    if value < 0:
        raise ValueError("constants are naturals")
    k = ctx.k
    digits = digits_of(value, k)
    dead = len(digits) + 1
    rows = [[dead] * k for _ in range(dead + 1)]
    rows[0][0] = 0
    for i, d in enumerate(digits):
        rows[i][d] = i + 1
    return minimize(Dfa(k, 1, rows, {len(digits)}, 0))


def nonzero_track_dfa(ctx: RadixContext, tracks: int, track: int) -> Dfa:
    """Accepts words whose given track holds a nonzero value."""
    unit = [0] * tracks
    unit[track] = 1
    return linear_rel(ctx.k, tuple(unit), ">")


def seq_eq(a: Dfao) -> Dfa:
    """2-track machine accepting (x, y) iff the sequence agrees at x and y.

    Runs the Dfao on both tracks in lockstep; requires a leading-zero
    invariant Dfao so padded runs match canonical runs.
    """
    trans = a.trans
    rows, states = explore(
        (a.initial, a.initial), lambda p: [(t1, t2) for t1 in trans[p[0]] for t2 in trans[p[1]]]
    )
    acc = [i for i, (s1, s2) in enumerate(states) if a.output[s1] == a.output[s2]]
    return minimize(Dfa(a.k, 2, rows, acc, 0))


def seq_const(a: Dfao, symbol: str) -> Dfa:
    """1-track machine accepting x iff the sequence value at x is `symbol`."""
    symbol = str(symbol)
    if symbol not in a.output_alphabet:
        raise ValueError(f"output symbol {symbol!r} not in the sequence alphabet")
    acc = [s for s in range(a.num_states) if a.output[s] == symbol]
    return minimize(Dfa(a.k, 1, a.trans, acc, a.initial))
