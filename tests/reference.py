"""Enumeration references for cross-validating the solvers on small machines.

Every function here enumerates words or pumps explicitly, so its cost is
exponential in the machine size; the library's exact solvers are checked
against these results in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from critex.automaton import (
    AutomatonError,
    Dfa,
    InvariantError,
    PumpDecomposition,
    enumerate_accepted,
    is_empty,
    make_pump,
    shortest_accepted,
    symbols,
    trim_states,
)
from critex.numeral import RadixContext, ratio
from critex.quotient import (
    EmptyLanguageError,
    SearchError,
    SupResult,
    _prepare,
    compare_language,
    find_unbounded_pump,
)
from critex.rational import INF


def pump_decompositions(a: Dfa):
    """First-repeated-state pumps: a simple path u to a loop state plus a simple
    cycle v whose interior avoids the path; the loop state is co-accessible,
    so u v^i w is accepted for every i and suitable w, and |uv| <= state count.

    Exponential in the worst case; used on small machines and for audits.
    """
    if a.tracks != 2:
        raise AutomatonError("pump enumeration expects a 2-track machine")
    trim = trim_states(a)
    if a.initial not in trim:
        return
    syms = symbols(a.k, a.tracks)
    s_count = len(syms)
    trans = a.trans

    def cycles_from(state, start, blocked, u_syms, v_syms):
        for c in range(s_count):
            t = trans[state][c]
            if t not in trim:
                continue
            if t == start:
                yield make_pump(a.k, u_syms, v_syms + (syms[c],), start, a.order)
            elif t not in blocked:
                yield from cycles_from(t, start, blocked | {t}, u_syms, v_syms + (syms[c],))

    def paths(state, on_path, u_syms):
        yield from cycles_from(state, state, on_path, u_syms, ())
        for c in range(s_count):
            t = trans[state][c]
            if t in trim and t not in on_path:
                yield from paths(t, on_path | {t}, u_syms + (syms[c],))

    yield from paths(a.initial, frozenset({a.initial}), ())


def accepted_from(a: Dfa, state: int, limit: int, max_len: int | None = None):
    """Up to `limit` words leading from `state` to acceptance, shortest first."""
    view = Dfa(a.k, a.tracks, a.trans, a.accept, state, a.order)
    if max_len is None:
        max_len = a.num_states + 4
    count = 0
    for w in enumerate_accepted(view, max_len):
        yield w
        count += 1
        if count >= limit:
            return


@dataclass(frozen=True)
class CandidateSet:
    """Explicit supremum candidates: quotients of short words plus pump ratios."""

    short_values: frozenset
    pump_values: tuple  # (Fraction, PumpDecomposition) pairs, deduped by value
    unbounded_pumps: tuple  # pumps with inc2 == 0 < inc1

    def finite_values(self) -> list[Fraction]:
        vals = set(self.short_values) | {v for v, _ in self.pump_values}
        return sorted(vals)


def candidates(L: Dfa) -> CandidateSet:
    """Explicit candidate values by enumeration (small machines, audits).

    short_values: quotients of accepted words shorter than the state count;
    pump_values: finite pump ratios over first-repeat pumps.
    """
    n = L.num_states
    short = set()
    for word in enumerate_accepted(L, n - 1):
        if word.value(1) != 0:
            short.add(ratio(word))
    finite: dict[Fraction, PumpDecomposition] = {}
    unbounded = []
    for pump in pump_decompositions(L):
        if pump.inc2 == 0:
            if pump.inc1 > 0:
                unbounded.append(pump)
            continue
        finite.setdefault(Fraction(pump.inc1, pump.inc2), pump)
    return CandidateSet(
        frozenset(short),
        tuple(sorted(finite.items(), key=lambda kv: kv[0])),
        tuple(unbounded),
    )


def sup_quo_reference(L: Dfa, ctx: RadixContext) -> SupResult:
    """Candidate-filter supremum: the least explicit candidate beta with
    L inside the closed half-plane at beta.  Exponential enumeration;
    used to cross-validate sup_quo on small machines."""
    work = _prepare(L, ctx)
    if is_empty(work):
        raise EmptyLanguageError("the supremum of an empty language is undefined")
    inf_pump = find_unbounded_pump(work)
    if inf_pump is not None:
        return SupResult(INF, False, inf_pump)
    cand = candidates(work)
    if cand.unbounded_pumps:
        raise InvariantError("unbounded pump missed by find_unbounded_pump")
    betas = cand.finite_values()

    def qualifies(beta: Fraction) -> bool:
        return is_empty(compare_language(work, ctx, beta, ">"))

    alpha = next((beta for beta in betas if qualifies(beta)), None)
    if alpha is None:
        raise SearchError("no qualifying candidate; candidate set incomplete")
    eq = compare_language(work, ctx, alpha, "==")
    witness = shortest_accepted(eq)
    if witness is not None:
        return SupResult(alpha, True, witness)
    pump = next(p for v, p in cand.pump_values if v == alpha)
    return SupResult(alpha, False, pump)


def is_sup_infinite_reference(L: Dfa, ctx: RadixContext) -> bool:
    """Literal interval test: L meets the comparator at k**n; n = state count.

    The comparator holds ~k**n states, so this is for small machines and
    cross-validation only.
    """
    thresh = Fraction(ctx.k**L.num_states, 1)
    return not is_empty(compare_language(L, ctx, thresh, ">="))
