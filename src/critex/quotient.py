"""Quotient analysis of regular pair languages: suprema and largest limit
values, all as exact rationals or infinite.

One solve (`_solve`) finds both values of a language:

* an unbounded-pump test: the quotient supremum is infinite exactly when
  some reachable, co-accessible loop pumps the numerator while leaving the
  denominator fixed (its denominator-track increment is zero);
* otherwise one Dinkelbach loop (`_search`).  A probe at P/Q runs the
  prefix DP once (`potential`): the best weight Q*p - P*q of a walk to
  each trim state, the DP's parent records and its first heaviest
  accepting walk.  Two readers share it:
  - `max_pump_weight`, a pump whose weight Q*inc1 - P*inc2 has the sign of
    the maximum over all pumps within first-repeat bounds, and the pump
    that attains it when the maximum is 0: when the best weights are not a
    feasible potential, the first move that breaks it gives a pump of
    positive weight with no cycle DP, and when they are one and their tight
    moves close a cycle, the maximum is 0 and one cycle DP finds its pump;
  - `max_word_weight`, the maximum of Q*p - P*q over accepted words shorter
    than the trim size, with the word that attains it.

Each reader returns a word or pump of the weight it reports, read back
from the DP parent records: one that attains the maximum when the maximum
is 0, and one that weighs more than 0 when it is positive.  So the loop
rises through genuine ratios to the exact largest ratio and its witness
without enumerating words or pumps: through pump ratios from the ratio of
one seed pump per strongly connected component to the largest limit
value, whose probe's potential then weighs the short words, and through
word ratios from there to the supremum.  The enumeration-based
references, the re-run witness rebuild, the short-word search to any
length and the threshold comparator machines that cross-validate them
live with the tests.  The trim moves and their strongly connected
components (`_trim_adjacency`, `_cycle_adjacency`) come from `automaton`,
whose `is_infinite` reads the same components.

The memo of `_solve` holds both answers, keyed on the language, base and
state cap and emptied at 4096 entries, so whichever solver runs second
reads it; `_prepare` is canonical and the solve deterministic, so a hit
equals a fresh solve.  The trim part is computed once per solve: every
later step (emptiness, finiteness, both readers, the unbounded-pump test)
reads that one `PumpGraph`.
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


class PumpGraph(NamedTuple):
    """The trim part of a machine as the pump DPs read it: the moves of each
    trim state inside it and `_cycle_adjacency` of those moves.  Only P/Q
    changes between the steps of one solve, so one graph serves them all."""

    adj: dict[int, list[tuple[int, int]]]
    cycles: dict[int, dict[int, list[tuple[int, int]]]]


def pump_graph(a: Dfa) -> PumpGraph:
    adj = _trim_adjacency(a, trim_states(a))
    return PumpGraph(adj, _cycle_adjacency(adj))


class Potential(NamedTuple):
    """One prefix DP at P/Q, as `potential` leaves it: the symbol weights
    w(c) = Q*c1 - P*c2; x[s] = (X(s), the first length reaching it), X(s)
    the best weight of a walk to s; each layer's `_layer` parent records;
    and (weight, length, end state) of the first heaviest accepting walk,
    or None if the DP reaches no accepting state."""

    P: int
    Q: int
    w: list[int]
    x: dict[int, tuple[int, int]]
    layers: list[dict]
    top: tuple[int, int, int] | None


def potential(a: Dfa, adj, P: int, Q: int) -> Potential:
    """The max-plus DP from a's initial state over the moves `adj`, the
    trim part's, for the walks of fewer than T = len(adj) symbols: the
    prefix potential both `max_pump_weight` and `max_word_weight` read.

    Stops at the first layer that reaches no new state and raises no X(s),
    which an empty layer also does: the moves out of s were relaxed in the
    layer after X(s) was set, so X(t) >= k*X(s) + w(c) then holds on every
    move s -c-> t, and no later layer raises anything.  So X and every
    parent record a reader reads back are those of all T - 1 layers.  Ties
    keep the first: a walk heavier than `top` ends at an accepting state
    whose X it raises, so `top` is the heaviest, then shortest, then first
    in layer order.
    """
    w = _symbol_weights(a.k, P, Q)
    x: dict[int, tuple[int, int]] = {}
    layers: list[dict] = []
    top = None
    cur = {a.initial: 0} if a.initial in adj else {}
    for ln in range(len(adj)):
        if ln:
            layers.append({})
            cur = _layer(cur, adj, a.k, w, layers[-1])
        raised = False
        for s, val in cur.items():
            if s not in x or val > x[s][0]:
                x[s] = (val, ln)
                raised = True
                if s in a.accept and (top is None or val > top[0]):
                    top = (val, ln, s)
        if not raised:
            break
    return Potential(P, Q, w, x, layers, top)


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


def max_pump_weight(a: Dfa, graph: PumpGraph, pot: Potential) -> tuple[int, PumpDecomposition] | None:
    """A pump whose weight Q*inc1 - P*inc2 has the sign of the maximum over
    pumps, with that weight, or None if no pump exists; when the maximum is
    0, the pump attaining it of smallest loop state, then of shortest v.
    `graph` is `pump_graph(a)` and `pot` is `potential(a, graph.adj, P, Q)`;
    u and v are read back (`_read_walk`) from the parent records of `pot`
    and of at most one cycle DP.

    Pumps range over walks u (|u| < T) from the initial state to a trim
    state s plus closed walks v (1 <= |v| <= |SCC(s)|) at s, T the trim
    size and SCC(s) the strongly connected component of s in the trim part,
    on which a cycle DP at s runs alone.  The best first-repeated-state
    pump (a simple path u and a simple cycle v) is inside these bounds, so
    the sign of the maximum compares the largest limit quotient with P/Q.

    With x(s) = X(s), the heaviest D(u) over walks u of fewer than T
    symbols to s, one pass over the trim moves tests whether x is a
    feasible potential: x(t) >= k*x(s) + w(c) on every move s -c-> t,
    w(c) = Q*c1 - P*c2.  The prefix DP stops early only once x is one
    (`potential`), so a probe at which a pump weighs more than 0 runs all
    T - 1 layers.

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
    k, w, x = a.k, pot.w, pot.x
    tight = _tight_moves(graph.adj, k, w, x)
    if isinstance(tight, tuple):
        s, c = tight
        return _first_repeat_pump(a, pot.P, pot.Q, _read_walk(pot.layers, x[s][1], s, k) + [symbols(k, 2)[c]])
    s0 = min(_cycle_adjacency(tight) or graph.cycles)
    sub = graph.cycles[s0]
    x0, xlen = x[s0]
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
    return weight, make_pump(k, _read_walk(pot.layers, xlen, s0, k), _read_walk(vpar, b, s0, k), s0)


def max_word_weight(a: Dfa, pot: Potential) -> tuple[int, DigitWord] | None:
    """Maximum of Q*p - P*q over accepted words shorter than the trim size,
    with the first shortest word that attains it, read back (`_read_walk`)
    from the parent records of `pot`, `potential(a, adj, P, Q)` over the
    trim moves; or None if no such word is accepted."""
    if pot.top is None:
        return None
    weight, ln, s = pot.top
    return weight, DigitWord(a.k, 2, tuple(_read_walk(pot.layers, ln, s, a.k)))


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


def _search(work: Dfa, graph: PumpGraph) -> tuple[SupResult, tuple[Fraction, PumpDecomposition] | None]:
    """The supremum of a prepared machine with a nonempty trim part and no
    unbounded pump, and its largest limit value with the pump that attains
    it, or None if the language is finite; `graph` is `pump_graph(work)`.

    Dinkelbach's iteration, each probe at P/Q running one `potential`.
    Until the limit is known, `max_pump_weight` reads each probe's
    potential, from `_seed_ratio`, where the maximum is >= 0: a pump of
    positive weight moves the probe to its ratio, and a pump of weight 0
    makes the probe's ratio the limit.  From then on (from 0 on a finite
    language) `max_word_weight` reads the same potential, over the words
    shorter than the trim size T: a negative maximum at the limit leaves
    every such word below it, so the supremum is the limit, not attained;
    a word of weight 0 attains the supremum; a heavier word moves the probe
    to its ratio.  At or above the limit no pump weighs more than 0, so the
    potential is feasible and no longer word weighs more
    (`max_pump_weight`); a finite language has no walk of T symbols.  Each
    step lands on a genuine ratio and rises strictly, so the loop ends, and
    each answer is the reader's at its final ratio, whatever the path.
    """
    lam = seed = _seed_ratio(work, graph)
    limit = None
    while True:
        pot = potential(work, graph.adj, lam.numerator, lam.denominator)
        if limit is None and graph.cycles:
            weight, witness = max_pump_weight(work, graph, pot)
            if weight == 0:
                limit = lam, witness
        if limit is not None or not graph.cycles:
            got = max_word_weight(work, pot)
            if got is None:
                raise InvariantError(f"no accepted word is shorter than the trim size at {lam}")
            weight, witness = got
            if weight == 0:
                return SupResult(lam, True, witness), limit
            if weight < 0 and limit is not None and limit[0] == lam:
                return SupResult(lam, False, limit[1]), limit
        if weight < 0:
            raise InvariantError(f"negative maximum weight {weight} at {lam}, from the seed ratio {seed}")
        nxt = ratio(witness) if isinstance(witness, DigitWord) else witness.ratio()
        if nxt is INF or nxt <= lam:
            raise InvariantError(f"the argmax at {lam} has ratio {nxt}, not a finite ratio above it")
        lam = nxt


_SOLVED: dict[tuple, tuple] = {}


def _solve(L: Dfa, ctx: RadixContext) -> tuple:
    """(supremum or None, (largest limit value, its pump) or None),
    memoized: the supremum is None for the empty language and the limit
    None for a finite one.  An unbounded pump witnesses both infinite
    values; otherwise `_search` finds both.  The language is empty iff its
    trim part is, and infinite iff that has a cycle."""
    key = (L, ctx.k, state_limit())
    if key not in _SOLVED:
        work = _prepare(L, ctx)
        graph = pump_graph(work)
        pump = find_unbounded_pump(work, graph)
        if pump is None:
            solved = _search(work, graph) if graph.adj else (None, None)
        elif pump.inc2 == 0 and pump.inc1 > 0:
            solved = SupResult(INF, False, pump), (INF, pump)
        else:
            raise InvariantError("unbounded pump with a nonzero denominator increment")
        if len(_SOLVED) >= 4096:
            _SOLVED.clear()
        _SOLVED[key] = solved
    return _SOLVED[key]


def largest_limit_quotient(L: Dfa, ctx: RadixContext) -> tuple[Value, PumpDecomposition]:
    """Largest value arising as the limit of the quotient over infinitely many
    distinct accepted words; rational or infinite, with a pump witness.

    Equals the maximum pump ratio: every pump realizes its ratio as such a
    limit, and any such limit is realized by a pump within first-repeat
    bounds.
    """
    limit = _solve(L, ctx)[1]
    if limit is None:
        raise FiniteLanguageError("a finite language has no limit value")
    return limit


def sup_quo(L: Dfa, ctx: RadixContext) -> SupResult:
    """Exact supremum of the pair quotient over the language.

    Infinite iff an unbounded pump exists; otherwise the maximum of the
    largest limit value and the best quotient among words shorter than the
    trim size, attained iff a short word reaches it, with a shortest such
    word as the witness and the limit's pump otherwise (`_search`).
    """
    sup = _solve(L, ctx)[0]
    if sup is None:
        raise EmptyLanguageError("the supremum of an empty language is undefined")
    return sup
