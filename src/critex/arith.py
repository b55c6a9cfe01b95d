"""Atomic automatic relations: comparison, addition with carry, constants,
and pointwise sequence-value predicates read off a Dfao.

Every builder returns a complete MSD machine that is leading-zero invariant,
so the relations compose freely inside padded products.
"""

from __future__ import annotations

from .automaton import Dfa, Dfao, minimize, symbols
from .numeral import MSD, RadixContext

_RELATIONS = ("==", "!=", "<", "<=", ">", ">=")


def _verdict_accept(relation: str) -> set[str]:
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    return {
        "==": {"eq"},
        "!=": {"lt", "gt"},
        "<": {"lt"},
        "<=": {"eq", "lt"},
        ">": {"gt"},
        ">=": {"eq", "gt"},
    }[relation]


def cmp_rel(ctx: RadixContext, relation: str) -> Dfa:
    """2-track machine accepting (x, y) with x <relation> y.

    Reading MSD-first over padded tracks, the first digit difference fixes
    the verdict; equal prefixes stay undecided.
    """
    k = ctx.k
    syms = symbols(k, 2)
    names = ["eq", "lt", "gt"]
    idx = {n: i for i, n in enumerate(names)}
    rows = []
    for name in names:
        row = []
        for a, b in syms:
            if name == "eq":
                nxt = "eq" if a == b else ("lt" if a < b else "gt")
            else:
                nxt = name
            row.append(idx[nxt])
        rows.append(row)
    acc = {idx[n] for n in _verdict_accept(relation)}
    return minimize(Dfa(k, 2, rows, acc, idx["eq"], MSD))


def eq_rel(ctx: RadixContext) -> Dfa:
    return cmp_rel(ctx, "==")


def lt_rel(ctx: RadixContext) -> Dfa:
    return cmp_rel(ctx, "<")


def add_rel(ctx: RadixContext) -> Dfa:
    """3-track machine accepting (x, y, z) with x + y = z.

    MSD construction tracking the running difference d of (x + y) - z over
    the prefix read so far; d stays in {-1, 0}, anything else is dead.
    """
    k = ctx.k
    syms = symbols(k, 3)
    # states: 0 -> d = 0, 1 -> d = -1, 2 -> dead
    rows = []
    for d in (0, -1):
        row = []
        for a, b, c in syms:
            nd = k * d + a + b - c
            row.append(0 if nd == 0 else (1 if nd == -1 else 2))
        rows.append(row)
    rows.append([2] * len(syms))
    return minimize(Dfa(k, 3, rows, {0}, 0, MSD))


def successor_rel(ctx: RadixContext) -> Dfa:
    """2-track machine accepting (x, y) with x = y + 1."""
    k = ctx.k
    syms = symbols(k, 2)
    # states by running difference of x - y: 0, 1, dead
    rows = []
    for d in (0, 1):
        row = []
        for a, b in syms:
            nd = k * d + a - b
            row.append(0 if nd == 0 else (1 if nd == 1 else 2))
        rows.append(row)
    rows.append([2] * len(syms))
    return minimize(Dfa(k, 2, rows, {1}, 0, MSD))


def const_eq_rel(ctx: RadixContext, value: int) -> Dfa:
    """1-track machine accepting every padded encoding of the constant."""
    if value < 0:
        raise ValueError("constants are naturals")
    k = ctx.k
    # states 0..value track the prefix value; value+1 is dead
    dead = value + 1
    rows = []
    for v in range(value + 1):
        row = []
        for (d,) in symbols(k, 1):
            nv = k * v + d
            row.append(nv if nv <= value else dead)
        rows.append(row)
    rows.append([dead] * k)
    return minimize(Dfa(k, 1, rows, {value}, 0, MSD))


def nonzero_track_dfa(ctx: RadixContext, tracks: int, track: int) -> Dfa:
    """Accepts words whose given track holds a nonzero value."""
    k = ctx.k
    syms = symbols(k, tracks)
    # 0: all zero so far, 1: saw a nonzero digit
    rows = [[1 if sym[track] != 0 else 0 for sym in syms], [1] * len(syms)]
    return Dfa(k, tracks, rows, {1}, 0, MSD)


def seq_eq(a: Dfao, ctx: RadixContext | None = None) -> Dfa:
    """2-track machine accepting (x, y) iff the sequence agrees at x and y.

    Runs the Dfao on both tracks in lockstep; requires a leading-zero
    invariant Dfao so padded runs match canonical runs.
    """
    if a.order != MSD:
        raise ValueError("sequence atoms need an MSD Dfao")
    k = a.k
    syms = symbols(k, 2)
    start = (a.initial, a.initial)
    index = {start: 0}
    states = [start]
    rows = []
    i = 0
    while i < len(states):
        s1, s2 = states[i]
        i += 1
        row = []
        for d1, d2 in syms:
            key = (a.trans[s1][d1], a.trans[s2][d2])
            j = index.get(key)
            if j is None:
                j = len(states)
                index[key] = j
                states.append(key)
            row.append(j)
        rows.append(row)
    acc = [i for i, (s1, s2) in enumerate(states) if a.output[s1] == a.output[s2]]
    return minimize(Dfa(k, 2, rows, acc, 0, MSD))


def seq_const(a: Dfao, symbol: str, ctx: RadixContext | None = None) -> Dfa:
    """1-track machine accepting x iff the sequence value at x is `symbol`."""
    if a.order != MSD:
        raise ValueError("sequence atoms need an MSD Dfao")
    symbol = str(symbol)
    if symbol not in a.output_alphabet:
        raise ValueError(f"output symbol {symbol!r} not in the sequence alphabet")
    acc = [s for s in range(a.num_states) if a.output[s] == symbol]
    return minimize(Dfa(a.k, 1, a.trans, acc, a.initial, MSD))
