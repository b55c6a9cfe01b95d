"""Quotient analysis of regular pair languages: suprema and largest limit
values, all as exact rationals or infinite.

The supremum solver rests on three exact primitives:

* an unbounded-pump test: the quotient supremum is infinite exactly when
  some reachable, co-accessible loop pumps the numerator while leaving the
  denominator fixed (its denominator-track increment is zero),
* a pump-weight maximizer: for a fraction P/Q, a pump whose weight
  Q*inc1 - P*inc2 has the sign of the maximum over all pumps within
  first-repeat bounds, and the pump that attains it when the maximum is 0;
  when the prefix DP's best weights are not a feasible potential, the
  first move that breaks it gives a pump of positive weight with no cycle
  DP, and when they are one and their tight moves close a cycle, the
  maximum is 0 and one cycle DP finds its pump,
* a word-weight maximizer: the maximum of Q*p - P*q over accepted words of
  bounded length, with the word that attains it.

Each maximizer returns a word or pump of the weight it reports, read back
from its own DP parent records: one that attains the maximum when the
maximum is 0, and one that weighs more than 0 when it is positive.  So
Dinkelbach's iteration on it rises through genuine ratios to the exact
largest ratio and its witness without enumerating words or pumps; `_limit`
starts the pump search at the largest ratio of one seed pump per strongly
connected component, and `sup_quo` starts the word search at the largest
limit value.  Both maximizers share one prefix DP (`_prefix_walk`), which
stops at its first layer that raises no state's best weight.  The
enumeration-based references, the re-run witness rebuild and the threshold
comparator machines that cross-validate them live with the tests.  The
trim moves and their strongly connected components (`_trim_adjacency`,
`_cycle_adjacency`) come from `automaton`, whose `is_infinite` reads the
same components.

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
from functools import cache
from typing import NamedTuple

from .arith import nonzero_track_dfa
from .automaton import (
    Dfa,
    InvariantError,
    PumpDecomposition,
    _cycle_adjacency,
    _trim_adjacency,
    canonicalize,
    make_pump,
    product,
    state_limit,
    sym_index,
    symbols,
    trim_states,
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
class SupResult:
    value: Value
    attained: bool
    witness: DigitWord | PumpDecomposition


# ------------------------------------------------------------- weight DPs


def _symbol_weights(k: int, P: int, Q: int) -> list[int]:
    return [Q * c1 - P * c2 for (c1, c2) in symbols(k, 2)]


def _layer(cur: dict[int, int], adj, k: int, w: list[int], par: dict) -> dict[int, int]:
    """One max-plus step: the best weight of each state one symbol further.

    Ties keep the first move found; records in `par` each winner's
    predecessor and symbol index as one small int, pred * len(w) + index.
    """
    nxt: dict[int, int] = {}
    for s, val in cur.items():
        kv = val * k
        for c, t in adj[s]:
            nv = kv + w[c]
            old = nxt.get(t)
            if old is None or nv > old:
                nxt[t] = nv
                par[t] = s * len(w) + c
    return nxt


def _read_walk(layers: list[dict], steps: int, end: int, k: int) -> list:
    """Symbols of the walk of `steps` symbols to `end` held in one DP's
    `_layer` parent records, a dict per layer from its start: the walk
    behind the DP's argmax, with the DP's own tie-breaks."""
    syms = symbols(k, 2)
    out = []
    for par in reversed(layers[:steps]):
        end, c = divmod(par[end], len(syms))
        out.append(syms[c])
    out.reverse()
    return out


def _prefix_walk(a: Dfa, adj, w: list[int], steps: int, layers: list, best: dict):
    """The max-plus DP from a's initial state over the moves `adj`: yields
    (length, best weight of each state a walk of that length reaches) for
    lengths 0 to steps, appends each layer's `_layer` parent records to
    `layers`, and keeps in `best` each state's X(s), the heaviest of those
    weights, with the first length that reaches it.

    Stops at the first layer that reaches no new state and raises no X(s),
    which an empty layer also does: the moves out of s were relaxed in the
    layer after X(s) was set, so X(t) >= k*X(s) + w(c) then holds on every
    move s -c-> t, and no later layer raises anything.  So `best` and every
    parent record a caller reads back are those of all `steps` layers.
    """
    cur = {a.initial: 0} if a.initial in adj else {}
    for ln in range(steps + 1):
        if ln:
            layers.append({})
            cur = _layer(cur, adj, a.k, w, layers[-1])
        raised = False
        for s, val in cur.items():
            if s not in best or val > best[s][0]:
                best[s] = (val, ln)
                raised = True
        if not raised:
            return
        yield ln, cur


class PumpGraph(NamedTuple):
    """The trim part of a machine as the pump DPs read it: the moves of each
    trim state inside it and `_cycle_adjacency` of those moves.  Only P/Q
    changes between the steps of one solve, so one graph serves them all."""

    adj: dict[int, list[tuple[int, int]]]
    cycles: dict[int, dict[int, list[tuple[int, int]]]]


def pump_graph(a: Dfa) -> PumpGraph:
    adj = _trim_adjacency(a, trim_states(a))
    return PumpGraph(adj, _cycle_adjacency(adj))


def _tight_moves(adj, k: int, w: list[int], xstar: dict) -> dict | tuple[int, int]:
    """The moves s -c-> t with x(t) = k*x(s) + w(c), x(s) = xstar[s][0], of
    each state of `adj` if x is a feasible potential; otherwise the first
    move (s, c) found with x(t) < k*x(s) + w(c)."""
    tight = {}
    for s, moves in adj.items():
        kx = k * xstar[s][0]
        tight[s] = row = []
        for c, t in moves:
            slack = xstar[t][0] - kx - w[c]
            if slack < 0:
                return s, c
            if slack == 0:
                row.append((c, t))
    return tight


def _first_repeat_pump(a: Dfa, P: int, Q: int, walk: list) -> tuple[int, PumpDecomposition]:
    """The weight and pump (u, v) of walk = u.v.u2, the symbols of a walk
    from a's initial state split at its first repeated state; an
    `InvariantError` if no state repeats or the pump weighs at most 0."""
    seen = {a.initial: 0}
    q = a.initial
    for j, sym in enumerate(walk, 1):
        q = a.trans[q][sym_index(sym, a.k)]
        if q in seen:
            pump = make_pump(a.k, walk[: seen[q]], walk[seen[q] : j], q)
            weight = Q * pump.inc1 - P * pump.inc2
            if weight <= 0:
                raise InvariantError(f"the pump of a violated move weighs {weight} at {P}/{Q}")
            return weight, pump
        seen[q] = j
    raise InvariantError(f"the walk over a violated move repeats no state at {P}/{Q}")


def max_pump_weight(a: Dfa, P: int, Q: int, graph: PumpGraph) -> tuple[int, PumpDecomposition] | None:
    """A pump whose weight Q*inc1 - P*inc2 has the sign of the maximum over
    pumps, with that weight, or None if no pump exists; when the maximum is
    0, the pump attaining it of smallest loop state, then of shortest v.
    `graph` is `pump_graph(a)`; u and v are read back (`_read_walk`) from
    the parent records of the prefix DP and of at most one cycle DP.

    Pumps range over walks u (|u| < T) from the initial state to a trim
    state s plus closed walks v (1 <= |v| <= |SCC(s)|) at s, T the trim
    size and SCC(s) the strongly connected component of s in the trim part,
    on which a cycle DP at s runs alone.  The best first-repeated-state
    pump (a simple path u and a simple cycle v) is inside these bounds, so
    the sign of the maximum compares the largest limit quotient with P/Q.

    With x(s) the heaviest D(u) over walks u of fewer than T symbols to s,
    one pass over the trim moves tests whether x is a feasible potential:
    x(t) >= k*x(s) + w(c) on every move s -c-> t, w(c) = Q*c1 - P*c2.  The
    prefix DP stops early only once x is one (`_prefix_walk`), so a probe
    at which a pump weighs more than 0 runs all T - 1 layers.

    * If a move s -c-> t breaks it, every walk to s of weight x(s) has T - 1
      symbols (a shorter one followed by c would count in x(t)), so that
      walk followed by c is a walk W of T symbols, which repeats a state.
      Split at the first repeat, W = u.v.u2, so |u| < T and |v| <= |SCC|;
      D(W) - D(u.u2) is k^|u2| times the weight of the pump (u, v), and
      D(u.u2) <= x(t) < D(W), so that pump weighs more than 0.
    * If x is feasible, a closed walk v of b symbols at s has
      k^b*x(s) + D(v) <= x(s), so no pump weighs more than 0, and one
      weighs 0 exactly when every move of v is tight (equality holds).  If
      the tight moves close a cycle, the argmax's loop state is the
      smallest state s0 on one, and s0's cycle DP stops at its first v of
      weight 0.  Otherwise every pump weighs less than 0, and the heaviest
      of the cycle DP at the smallest loop state is returned.
    """
    if not graph.cycles:
        return None
    k = a.k
    w = _symbol_weights(k, P, Q)
    xstar: dict[int, tuple[int, int]] = {}
    upar: list[dict] = []
    for _ in _prefix_walk(a, graph.adj, w, len(graph.adj) - 1, upar, xstar):
        pass
    tight = _tight_moves(graph.adj, k, w, xstar)
    if isinstance(tight, tuple):
        s, c = tight
        return _first_repeat_pump(a, P, Q, _read_walk(upar, xstar[s][1], s, k) + [symbols(k, 2)[c]])
    s0 = min(_cycle_adjacency(tight) or graph.cycles)
    sub = graph.cycles[s0]
    x0, xlen = xstar[s0]
    curz = {s0: 0}
    vpar: list[dict] = [{} for _ in sub]
    best = None
    for b, lpar in enumerate(vpar, 1):
        curz = _layer(curz, sub, k, w, lpar)
        if s0 in curz:
            combo = (k**b - 1) * x0 + curz[s0]
            if best is None or combo > best[0]:
                best = (combo, b)
                if combo == 0:
                    break
    weight, b = best
    return weight, make_pump(k, _read_walk(upar, xlen, s0, k), _read_walk(vpar, b, s0, k), s0)


def max_word_weight(a: Dfa, P: int, Q: int, max_len: int, adj: dict) -> tuple[int, DigitWord] | None:
    """Maximum of Q*p - P*q over accepted words of length <= max_len with the
    first word found to attain it, shortest first; or None if no such word
    is accepted.  `adj` is `_trim_adjacency` of a's trim part; the word is
    read back (`_read_walk`) from the DP's parent records.  The DP stops at
    its first layer that raises no state's best weight (`_prefix_walk`):
    no longer word weighs more at any state, so the maximum and the word
    are those of all max_len layers."""
    w = _symbol_weights(a.k, P, Q)
    layers: list[dict] = []
    best = None
    for ln, cur in _prefix_walk(a, adj, w, max_len, layers, {}):
        for s, val in cur.items():
            if s in a.accept and (best is None or val > best[0]):
                best = (val, ln, s)
    if best is None:
        return None
    weight, ln, s = best
    return weight, DigitWord(a.k, 2, tuple(_read_walk(layers, ln, s, a.k)))


def _dinkelbach(oracle, ratio_of, start: Fraction = Fraction(0)):
    """Largest ratio over a finite candidate set with a candidate attaining
    it, None if the set is empty, or (start, None) if start > 0 and every
    candidate's ratio lies below start.

    oracle(P, Q) gives a weight with the sign of the maximum of
    Q*num - P*den over the candidates and a candidate of that weight, or
    None: when the maximum is 0, a candidate attaining it; when it is
    positive, any candidate of positive weight.  ratio_of(candidate) gives
    that candidate's exact ratio.  Dinkelbach's Newton step: from start,
    move to the ratio of the returned candidate until the maximum is 0.
    Each step lands on a candidate's ratio and rises strictly, so the loop
    ends, at the largest ratio, whose candidate does not depend on start.
    A start that is itself a candidate's ratio, as `_limit`'s seed is,
    never returns (start, None): the maximum there is at least 0.
    """
    lam = start
    while True:
        got = oracle(lam.numerator, lam.denominator)
        if got is None:
            if lam != start:
                raise InvariantError(f"no candidate to weigh at {lam}")
            return None
        weight, witness = got
        if weight < 0:
            if lam != start or not start:
                raise InvariantError(f"negative maximum weight {weight} at {lam}")
            return start, None
        if weight == 0:
            return lam, witness
        nxt = ratio_of(witness)
        if nxt <= lam:
            raise InvariantError(f"the argmax at {lam} has ratio {nxt}, which does not rise")
        lam = nxt


def bounded_max_ratio(
    a: Dfa, max_len: int, adj: dict | None = None, start: Fraction = Fraction(0)
) -> tuple[Fraction | None, DigitWord | None]:
    """Exact maximum quotient over accepted words of length <= max_len, with
    a shortest word attaining it; (None, None) if no such word is accepted,
    or (start, None) if start > 0 and every such quotient is below start.

    Expects a language whose accepted words all carry a nonzero denominator
    track.  Runs Dinkelbach's iteration on the word-weight maximizer from
    start, each step taking the word the maximizer read back from its DP,
    so no word enumeration happens; the reference for it is the enumeration
    in oracle.brute_quo_profile.  `adj` is as in `max_word_weight`, built
    here when not given.
    """
    if adj is None:
        adj = _trim_adjacency(a, trim_states(a))
    got = _dinkelbach(lambda P, Q: max_word_weight(a, P, Q, max_len, adj), ratio, start)
    return (None, None) if got is None else got


# ------------------------------------------------------------- unbounded pumps


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


def _path(src: int, dst: int, sub, syms) -> list:
    """Symbols of a breadth-first path from src to dst over the moves `sub`,
    which reach dst from src, as when both share a strongly connected
    component of `sub`."""
    return _backtrack(_bfs_parents(src, sub.__getitem__), dst, syms)


def find_unbounded_pump(a: Dfa, graph: PumpGraph | None = None) -> PumpDecomposition | None:
    """A pump with zero denominator increment and positive numerator increment.

    Exists iff the quotient supremum is infinite: pumping it fixes the
    denominator while the numerator grows without bound.  Searches the
    subgraph of trim states linked by symbols whose denominator digit is 0.
    `graph` is `pump_graph(a)`; without it only the trim part's moves are
    built, the part of the graph read here.
    """
    moves_of = _trim_adjacency(a, trim_states(a)) if graph is None else graph.adj
    if a.initial not in moves_of:
        return None
    syms = symbols(a.k, 2)
    adj = {s: [(c, t) for c, t in moves if syms[c][1] == 0] for s, moves in moves_of.items()}
    cycles = _cycle_adjacency(adj)
    # reach each (state, saw-nonzero-numerator flag) from the initial state
    parent = _bfs_parents(
        (a.initial, 0), lambda node: [(c, (t, node[1] | (syms[c][0] != 0))) for c, t in adj[node[0]]]
    )

    for s, flag in parent:
        sub = cycles.get(s)
        if sub is None:
            continue
        if flag:
            # any cycle at s will do
            c, t = sub[s][0]
            return make_pump(a.k, _backtrack(parent, (s, flag), syms), [syms[c]] + _path(t, s, sub, syms), s)
        # route the cycle through a nonzero-numerator edge
        for x, moves in sub.items():
            for c, t in moves:
                if syms[c][0] != 0:
                    v = _path(s, x, sub, syms) + [syms[c]] + _path(t, s, sub, syms)
                    return make_pump(a.k, _backtrack(parent, (s, flag), syms), v, s)
    return None


# ------------------------------------------------------------- solvers


@cache
def _nonzero_denominator(k: int, cap: int) -> Dfa:
    """`canonicalize` of the nonzero second track in base k, built once per
    base and state cap: keyed on `cap`, a build under one cap never stands
    in for a build under a smaller one."""
    return canonicalize(nonzero_track_dfa(RadixContext(k), 2, 1))


def _prepare(L: Dfa, ctx: RadixContext) -> Dfa:
    """Canonical machine restricted to nonzero denominator values."""
    return product(L, _nonzero_denominator(ctx.k, state_limit()))


def _seed_ratio(work: Dfa, graph: PumpGraph) -> Fraction:
    """The largest ratio among one seed pump per strongly connected
    component of the trim part, skipping seeds with a zero denominator
    increment, or 0 if none is left.  A component's seed has loop state s0,
    its smallest state; u is the breadth-first path from the initial state
    to s0, and v is s0's first move inside the component followed by the
    breadth-first path back to s0.  u is a simple path and v a simple
    cycle, so each seed is a pump within `max_pump_weight`'s bounds and its
    ratio is at most the largest limit value."""
    syms = symbols(work.k, 2)
    parent = _bfs_parents(work.initial, graph.adj.__getitem__)
    best = Fraction(0)
    # the states of one component share one dict of its moves
    for sub in {id(sub): sub for sub in graph.cycles.values()}.values():
        s0 = min(sub)
        c, t = sub[s0][0]
        pump = make_pump(work.k, _backtrack(parent, s0, syms), [syms[c]] + _path(t, s0, sub, syms), s0)
        if pump.inc2:
            best = max(best, Fraction(pump.inc1, pump.inc2))
    return best


def _limit(work: Dfa, graph: PumpGraph) -> tuple[Fraction, PumpDecomposition]:
    """Largest pump ratio of a prepared infinite machine without an unbounded
    pump, by Dinkelbach's iteration on the pump-weight maximizer, with the
    pump that attains it read back from its DP; `graph` is `pump_graph(work)`.
    It starts at `_seed_ratio`, where the maximum is >= 0, and its answer is
    the maximizer's at the limit, which does not depend on the start."""

    def ratio_of(pump):
        if pump.inc2 == 0:
            raise InvariantError("a weighed pump has a zero denominator increment")
        return Fraction(pump.inc1, pump.inc2)

    start = _seed_ratio(work, graph)
    got = _dinkelbach(lambda P, Q: max_pump_weight(work, P, Q, graph), ratio_of, start)
    if got is None:
        raise InvariantError("an infinite machine has no pump to weigh")
    if got[1] is None:
        raise InvariantError(f"every pump weighs less than 0 at the seed ratio {start}")
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
        pump = find_unbounded_pump(work, graph)
        if pump is not None and not (pump.inc2 == 0 and pump.inc1 > 0):
            raise InvariantError("unbounded pump with a nonzero denominator increment")
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
    trim size T.  The short-word search starts at the limit value: the
    supremum is attained iff the word-weight maximum there is >= 0, in which
    case the witness is a shortest attaining word.  At each P/Q it probes
    no pump weighs more than 0, so the prefix DP's best weights over walks
    shorter than T are a feasible potential (`max_pump_weight`) that no
    longer word beats; a finite language has no walk of T symbols.
    """
    work, graph, pump, limit = _solve(L, ctx)
    if not graph.adj:
        raise EmptyLanguageError("the supremum of an empty language is undefined")
    if pump is not None:
        return SupResult(INF, False, pump)
    start = Fraction(0) if limit is None else limit[0]
    m_short, m_witness = bounded_max_ratio(work, len(graph.adj) - 1, graph.adj, start)
    if m_short is None:
        raise EmptyLanguageError("no accepted word carries a nonzero denominator")
    if m_witness is None:
        return SupResult(limit[0], False, limit[1])
    return SupResult(m_short, True, m_witness)

