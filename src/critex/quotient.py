"""Quotient analysis of regular pair languages: threshold comparators,
suprema, and largest limit values, all as exact rationals or infinite.

The supremum solver rests on three exact primitives:

* an unbounded-pump test: the quotient supremum is infinite exactly when
  some reachable, co-accessible loop pumps the numerator while leaving the
  denominator fixed (its denominator-track increment is zero),
* a pump-weight maximizer: for a fraction P/Q, the maximum of
  Q*inc1 - P*inc2 over all pumps within first-repeat bounds, with the pump
  that attains it; a bound per loop state, from one DP per strongly
  connected component, skips the cycle DPs that cannot beat the best pump,
* a word-weight maximizer: the maximum of Q*p - P*q over accepted words of
  bounded length, with the word that attains it.

Dinkelbach's iteration on either maximizer yields the exact largest ratio
and its witness without enumerating words or pumps; the enumeration-based
references that cross-validate them on small machines live with the tests.

Both solvers share one memo of `_solve` (`_prepare`, `pump_graph`, the
unbounded-pump test, `_limit`), keyed on the language, base and state cap
and emptied at 4096 entries; `_prepare` is canonical and the solve
deterministic, so a hit equals a fresh solve.  The trim part is computed
once per solve: every later step (emptiness, finiteness, both maximizers,
the unbounded-pump test) reads that one `PumpGraph`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .arith import cmp_rel, linear_rel, nonzero_track_dfa, successor_rel
from .automaton import (
    Dfa,
    InvariantError,
    PumpDecomposition,
    canonicalize,
    complement,
    erase,
    is_empty,
    leading_zero_filter,
    lift_tracks,
    make_pump,
    product,
    state_limit,
    symbols,
    trim_states,
    zero_closure,
)
from .numeral import DigitWord, RadixContext, ratio
from .rational import INF, Value


class QuotientError(ValueError):
    pass


class EmptyLanguageError(QuotientError):
    """The quotient supremum of the empty language is undefined."""


class FiniteLanguageError(QuotientError):
    """A finite language has no limit value."""


@dataclass(frozen=True)
class Comparator:
    """Threshold beta = P/Q with one of the six order relations."""

    threshold: Fraction
    relation: str
    ctx: RadixContext

    def __post_init__(self):
        if self.threshold < 0:
            raise QuotientError("comparator thresholds are nonnegative")
        if self.relation not in ("<", "<=", "==", ">=", ">", "!="):
            raise QuotientError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class SupResult:
    value: Value
    attained: bool
    witness: DigitWord | PumpDecomposition


# ------------------------------------------------------------- comparators


_COMPARATOR_CACHE: dict[tuple, Dfa] = {}


def comparator_dfa(comp: Comparator) -> Dfa:
    """Machine accepting pair encodings (p, q) with p*Q <relation> q*P.

    The linear relation Q*p - P*q <relation> 0: its running sum locks
    positive at max(P, 1) and negative at -Q, so it has O(P + Q) states.
    """
    # The cap is part of the key, so a machine built under a larger cap is
    # never handed out where a fresh build would raise StateLimitError.
    cache_key = (comp.ctx.k, comp.threshold, comp.relation, state_limit())
    cached = _COMPARATOR_CACHE.get(cache_key)
    if cached is not None:
        return cached
    P, Q = comp.threshold.numerator, comp.threshold.denominator
    out = linear_rel(comp.ctx.k, (Q, -P), comp.relation)
    if len(_COMPARATOR_CACHE) > 8192:
        _COMPARATOR_CACHE.clear()
    _COMPARATOR_CACHE[cache_key] = out
    return out


def compare_language(L: Dfa, ctx: RadixContext, threshold: Fraction, relation: str) -> Dfa:
    return product(L, comparator_dfa(Comparator(threshold, relation, ctx)), "and")


# ------------------------------------------------------------- weight DPs


def _symbol_weights(k: int, P: int, Q: int) -> list[int]:
    return [Q * c1 - P * c2 for (c1, c2) in symbols(k, 2)]


def _trim_adjacency(a: Dfa, trim: set[int]) -> dict[int, list[tuple[int, int]]]:
    return {s: [(c, t) for c, t in enumerate(a.trans[s]) if t in trim] for s in sorted(trim)}


def _layer(cur: dict[int, int], adj, k: int, w: list[int], par: dict | None = None) -> dict[int, int]:
    """One max-plus step: the best weight of each state one symbol further.

    Ties keep the first move found; with `par`, records each winner's
    (predecessor, symbol index).
    """
    nxt: dict[int, int] = {}
    for s, val in cur.items():
        kv = val * k
        for c, t in adj[s]:
            nv = kv + w[c]
            old = nxt.get(t)
            if old is None or nv > old:
                nxt[t] = nv
                if par is not None:
                    par[t] = (s, c)
    return nxt


def _heaviest_walk(a: Dfa, adj, P: int, Q: int, start: int, steps: int, end: int) -> list:
    """Symbols of the heaviest walk of `steps` symbols from start to end over
    the moves `adj`, with the weight DPs' tie-breaks: the walk behind an
    argmax."""
    k = a.k
    syms = symbols(k, 2)
    w = _symbol_weights(k, P, Q)
    cur = {start: 0}
    parents: list[dict] = []
    for _ in range(steps):
        parents.append({})
        cur = _layer(cur, adj, k, w, parents[-1])
    out = []
    for par in reversed(parents):
        end, c = par[end]
        out.append(syms[c])
    out.reverse()
    return out


def _cycle_adjacency(adj) -> dict[int, dict[int, list[tuple[int, int]]]]:
    """For each state on a cycle, the moves of its strongly connected
    component that stay inside it; states on no cycle are absent."""
    nodes = sorted(adj)
    out = {}
    for comp in _tarjan_sccs(nodes, {s: [t for _, t in adj[s]] for s in nodes}):
        members = set(comp)
        sub = {s: [(c, t) for c, t in adj[s] if t in members] for s in comp}
        if len(comp) > 1 or sub[comp[0]]:
            for s in comp:
                out[s] = sub
    return out


class PumpGraph(NamedTuple):
    """The trim part of a machine as the pump DPs read it: its states, their
    moves inside it and `_cycle_adjacency` of those moves.  Only P/Q changes
    between the steps of one solve, so one graph serves them all."""

    trim: set[int]
    adj: dict[int, list[tuple[int, int]]]
    cycles: dict[int, dict[int, list[tuple[int, int]]]]


def pump_graph(a: Dfa) -> PumpGraph:
    trim = trim_states(a)
    adj = _trim_adjacency(a, trim)
    return PumpGraph(trim, adj, _cycle_adjacency(adj))


def max_pump_weight(a: Dfa, P: int, Q: int, graph: PumpGraph | None = None):
    """Maximum of Q*inc1 - P*inc2 over pumps with its argmax (loop state,
    |u|, |v|): the largest weight, then the smallest loop state, then the
    shortest v; or None if no pump exists.

    Pumps range over walks u (|u| < T) from the initial state to a trim
    state s plus closed walks v (1 <= |v| <= |SCC(s)|) at s, with T the
    trim size and SCC(s) the strongly connected component of s in the trim
    part.  A closed walk at s never leaves SCC(s), so each cycle DP runs on
    that component alone, and states on no cycle carry no pump.  Every such
    pair is a genuine pump, and the best first-repeated-state pump (a simple
    path u, so |u| < T, and a simple cycle v, so |v| <= |SCC(s)|) is inside
    the bounds, so the sign of the maximum compares the largest limit
    quotient with P/Q exactly.

    The pump with loop state s, the heaviest u to s (weight x(s)) and a
    closed walk v of b symbols weighs (k^b - 1)*x(s) + y_b(s), y_b(s) the
    heaviest such v.  One multi-source DP per component, every state
    starting at 0, gives U_b(s), the heaviest walk of b symbols inside the
    component that ends at s; it starts anywhere, so U_b(s) >= y_b(s), and
    bound(s) = max_b (k^b - 1)*x(s) + U_b(s) is at least every pump weight
    at s.  Loop states are searched by descending bound, and the search
    stops at the first whose bound cannot beat the best pump found under
    the order above: every later state then has a smaller bound, or an
    equal one and a larger number.  The skipped states hold no better pump,
    so the maximum and its argmax are exactly those of the full search.
    """
    if graph is None:
        graph = pump_graph(a)
    if a.initial not in graph.trim:
        return None
    k = a.k
    w = _symbol_weights(k, P, Q)
    T = len(graph.trim)
    cur = {a.initial: 0}
    xstar: dict[int, tuple[int, int]] = {a.initial: (0, 0)}
    for ln in range(1, T):
        cur = _layer(cur, graph.adj, k, w)
        for s, val in cur.items():
            if s not in xstar or val > xstar[s][0]:
                xstar[s] = (val, ln)
    bound: dict[int, int] = {}
    for s, sub in graph.cycles.items():
        if s in bound:
            continue
        cur = dict.fromkeys(sub, 0)
        for b in range(1, len(sub) + 1):
            cur = _layer(cur, sub, k, w)
            gain = k**b - 1
            for t, val in cur.items():
                val += gain * xstar[t][0]
                if t not in bound or val > bound[t]:
                    bound[t] = val
    best = None
    for s0 in sorted(bound, key=lambda s: (-bound[s], s)):
        if best is not None and (bound[s0], -s0) < (best[0], -best[1][0]):
            break
        sub = graph.cycles[s0]
        x0, xlen = xstar[s0]
        curz = {s0: 0}
        for b in range(1, len(sub) + 1):
            curz = _layer(curz, sub, k, w)
            yb = curz.get(s0)
            if yb is not None:
                combo = (k**b - 1) * x0 + yb
                if best is None or (combo, -s0) > (best[0], -best[1][0]):
                    best = (combo, (s0, xlen, b))
    return best


def max_word_weight(a: Dfa, P: int, Q: int, max_len: int, adj: dict | None = None):
    """Maximum of Q*p - P*q over accepted words of length <= max_len with its
    argmax (length, end state), the first strict maximum, shortest first; or
    None if no such word is accepted.  `adj` is `_trim_adjacency` of a's trim
    part, built here when not given; only P/Q changes between the steps of
    one solve, so a caller may build it once."""
    if adj is None:
        adj = _trim_adjacency(a, trim_states(a))
    k = a.k
    w = _symbol_weights(k, P, Q)
    cur = {a.initial: 0} if a.initial in adj else {}
    best = None
    for ln in range(max_len + 1):
        if ln:
            cur = _layer(cur, adj, k, w)
        if not cur:
            break
        for s, val in cur.items():
            if s in a.accept and (best is None or val > best[0]):
                best = (val, (ln, s))
    return best


def _dinkelbach(oracle, rebuild, ratio_of):
    """Largest ratio over a finite candidate set with a candidate attaining
    it, or None if the set is empty.

    oracle(P, Q) gives the maximum of Q*num - P*den over the candidates and
    an argmax, or None; rebuild(P, Q, argmax) gives that candidate and
    ratio_of(candidate) its exact ratio.  Dinkelbach's Newton step: from
    0, move to the ratio of the argmax until the maximum is 0.  Each step
    lands on a candidate's ratio and rises strictly, so the loop ends, at
    the largest ratio.
    """
    lam = Fraction(0)
    while True:
        P, Q = lam.numerator, lam.denominator
        got = oracle(P, Q)
        if got is None:
            if lam:
                raise InvariantError(f"no candidate to weigh at {lam}")
            return None
        weight, arg = got
        if weight < 0:
            raise InvariantError(f"negative maximum weight {weight} at {lam}")
        witness = rebuild(P, Q, arg)
        if weight == 0:
            return lam, witness
        nxt = ratio_of(witness)
        if nxt <= lam:
            raise InvariantError(f"the argmax at {lam} has ratio {nxt}, which does not rise")
        lam = nxt


def bounded_max_ratio(a: Dfa, max_len: int, adj: dict | None = None) -> tuple[Fraction | None, DigitWord | None]:
    """Exact maximum quotient over accepted words of length <= max_len, with
    a shortest word attaining it; (None, None) if no such word is accepted.

    Expects a language whose accepted words all carry a nonzero denominator
    track.  Runs Dinkelbach's iteration on the word-weight maximizer, so no
    word enumeration happens; the reference for it is the enumeration in
    oracle.brute_quo_profile.  `adj` is as in `max_word_weight`.
    """
    if adj is None:
        adj = _trim_adjacency(a, trim_states(a))

    def rebuild(P, Q, arg):
        ln, s = arg
        walk = _heaviest_walk(a, adj, P, Q, a.initial, ln, s)
        return DigitWord(a.k, 2, tuple(walk))

    got = _dinkelbach(lambda P, Q: max_word_weight(a, P, Q, max_len, adj), rebuild, ratio)
    return (None, None) if got is None else got


# ------------------------------------------------------------- unbounded pumps


def _tarjan_sccs(nodes: list[int], succ: dict[int, list[int]]) -> list[list[int]]:
    index = {}
    low = {}
    on_stack = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for t in it:
                if t not in index:
                    index[t] = low[t] = counter[0]
                    counter[0] += 1
                    stack.append(t)
                    on_stack.add(t)
                    work.append((t, iter(succ[t])))
                    advanced = True
                    break
                if t in on_stack:
                    low[node] = min(low[node], index[t])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    x = stack.pop()
                    on_stack.discard(x)
                    comp.append(x)
                    if x == node:
                        break
                sccs.append(comp)
    return sccs


def _bfs_parents(start, step) -> dict:
    """Breadth-first tree from start: each node reached maps to (previous
    node, symbol index) and start to None; insertion order is BFS order."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for c, nxt in step(node):
            if nxt not in parent:
                parent[nxt] = (node, c)
                queue.append(nxt)
    return parent


def _backtrack(parent: dict, node, syms) -> list:
    """Symbols of the tree path from the root of `parent` to node."""
    out = []
    while parent[node] is not None:
        node, c = parent[node]
        out.append(syms[c])
    out.reverse()
    return out


def find_unbounded_pump(a: Dfa, graph: PumpGraph | None = None) -> PumpDecomposition | None:
    """A pump with zero denominator increment and positive numerator increment.

    Exists iff the quotient supremum is infinite: pumping it fixes the
    denominator while the numerator grows without bound.  Searches the
    subgraph of trim states linked by symbols whose denominator digit is 0.
    `graph` is `pump_graph(a)`, built here when not given.
    """
    if graph is None:
        graph = pump_graph(a)
    if a.initial not in graph.trim:
        return None
    syms = symbols(a.k, 2)
    adj = {s: [(c, t) for c, t in moves if syms[c][1] == 0] for s, moves in graph.adj.items()}
    cycles = _cycle_adjacency(adj)
    # reach each (state, saw-nonzero-numerator flag) from the initial state
    parent = _bfs_parents(
        (a.initial, 0), lambda node: [(c, (t, node[1] | (syms[c][0] != 0))) for c, t in adj[node[0]]]
    )

    def path(src: int, dst: int, sub) -> list:
        # src and dst share a strongly connected component, so dst is reached
        return _backtrack(_bfs_parents(src, sub.__getitem__), dst, syms)

    for s, flag in parent:
        sub = cycles.get(s)
        if sub is None:
            continue
        if flag:
            # any cycle at s will do
            c, t = sub[s][0]
            return make_pump(a.k, _backtrack(parent, (s, flag), syms), [syms[c]] + path(t, s, sub), s)
        # route the cycle through a nonzero-numerator edge
        for x, moves in sub.items():
            for c, t in moves:
                if syms[c][0] != 0:
                    v = path(s, x, sub) + [syms[c]] + path(t, s, sub)
                    return make_pump(a.k, _backtrack(parent, (s, flag), syms), v, s)
    return None


def is_sup_infinite(L: Dfa, graph: PumpGraph | None = None) -> tuple[bool, PumpDecomposition | None]:
    """Whether the quotient supremum is infinite, with the pump witness.

    Expects a canonical machine whose accepted words have nonzero
    denominator track values; `graph` is as in `find_unbounded_pump`.
    """
    pump = find_unbounded_pump(L, graph)
    if pump is not None and not (pump.inc2 == 0 and pump.inc1 > 0):
        raise InvariantError("unbounded pump with a nonzero denominator increment")
    return pump is not None, pump


# ------------------------------------------------------------- solvers


def _prepare(L: Dfa, ctx: RadixContext) -> Dfa:
    """Canonical machine restricted to nonzero denominator values."""
    return canonicalize(product(L, nonzero_track_dfa(ctx, 2, 1), "and"))


def _limit(work: Dfa, graph: PumpGraph) -> tuple[Fraction, PumpDecomposition]:
    """Largest pump ratio of a prepared infinite machine without an unbounded
    pump, by Dinkelbach's iteration on the pump-weight maximizer, with the
    pump that attains it; `graph` is `pump_graph(work)`."""

    def rebuild(P, Q, arg):
        s0, xlen, b = arg
        u = _heaviest_walk(work, graph.adj, P, Q, work.initial, xlen, s0)
        # no walk from s0 that leaves its component comes back to it, so the
        # component's moves give the same parents as the whole trim part
        v = _heaviest_walk(work, graph.cycles[s0], P, Q, s0, b, s0)
        return make_pump(work.k, u, v, s0)

    def ratio_of(pump):
        if pump.inc2 == 0:
            raise InvariantError("a weighed pump has a zero denominator increment")
        return Fraction(pump.inc1, pump.inc2)

    got = _dinkelbach(lambda P, Q: max_pump_weight(work, P, Q, graph), rebuild, ratio_of)
    if got is None:
        raise InvariantError("an infinite machine has no pump to weigh")
    return got


_SOLVED: dict[tuple, tuple] = {}


def _solve(L: Dfa, ctx: RadixContext) -> tuple:
    """(prepared machine, its `pump_graph`, unbounded pump or None, `_limit`
    result or None when the machine is finite or has an unbounded pump),
    memoized.  The language is infinite iff its trim part has a cycle."""
    key = (L, ctx.k, state_limit())
    if key not in _SOLVED:
        work = _prepare(L, ctx)
        graph = pump_graph(work)
        pump = is_sup_infinite(work, graph)[1]
        limit = _limit(work, graph) if pump is None and graph.cycles else None
        if len(_SOLVED) >= 4096:
            _SOLVED.clear()
        _SOLVED[key] = (work, graph, pump, limit)
    return _SOLVED[key]


def largest_limit_quotient(L: Dfa, ctx: RadixContext) -> tuple[Value, PumpDecomposition]:
    """Largest value arising as the limit of the quotient over infinitely many
    distinct accepted words; rational or infinite, with a pump witness.

    Equals the maximum pump ratio: every pump realizes its ratio as such a
    limit, and any such limit is realized by a pump within first-repeat
    bounds.
    """
    _, _, pump, limit = _solve(L, ctx)
    if pump is not None:
        return INF, pump
    if limit is None:
        raise FiniteLanguageError("a finite language has no limit value")
    return limit


def sup_quo(L: Dfa, ctx: RadixContext) -> SupResult:
    """Exact supremum of the pair quotient over the language.

    Infinite iff an unbounded pump exists; otherwise the maximum of the
    largest limit value and the best quotient among words shorter than the
    state count (a shortest supremum-attaining word is always that short,
    by the usual pumping exchange).  Attained iff the short-word maximum
    wins, in which case the witness is a shortest attaining word.
    """
    work, graph, pump, limit = _solve(L, ctx)
    if not graph.trim:
        raise EmptyLanguageError("the supremum of an empty language is undefined")
    if pump is not None:
        return SupResult(INF, False, pump)
    m_short, m_witness = bounded_max_ratio(work, work.num_states - 1, graph.adj)
    if m_short is None:
        raise EmptyLanguageError("no accepted word carries a nonzero denominator")
    if limit is None or m_short >= limit[0]:
        return SupResult(m_short, True, m_witness)
    return SupResult(limit[0], False, limit[1])


# ------------------------------------------------------------- closure report


def check_pair_closure(L: Dfa, ctx: RadixContext) -> dict:
    """Structural conditions under which every limit value except possibly 1
    is a true accumulation point of the quotient set.

    (a) no accepted word starts with the all-zero symbol;
    (c) no accepted pair has quotient below 1;
    (d) decrementing the numerator of any accepted pair with p > q stays in
        the language.  Cardinality of the quotient set is reported
        "not checked": no decision procedure is available for it.
    """
    k = ctx.k
    zero_start = complement(leading_zero_filter(k, 2))
    a_ok = is_empty(product(L, zero_start, "and"))
    c_ok = is_empty(compare_language(L, ctx, Fraction(1), "<"))
    Lz = zero_closure(L)
    succ = successor_rel(ctx)
    wide = product(lift_tracks(succ, [0, 2], 3), lift_tracks(Lz, [2, 1], 3), "and")
    shift = erase(wide, 2)
    bad = product(product(L, cmp_rel(ctx, ">"), "and"), complement(shift), "and")
    d_ok = is_empty(bad)
    return {"a": a_ok, "c": c_ok, "d": d_ok, "b": "not checked"}
