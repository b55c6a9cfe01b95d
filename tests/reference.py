"""References the tests check the library against.

The enumeration references list words or pumps explicitly, so their cost is
exponential in the machine size; the library's exact solvers are checked
against their results on small machines.  The forward constructions (an
explicit `Nfa`, `project`, `zero_saturate` and the forward subset
construction `determinize`, over the member-by-symbol step
`subsets_reference`) are what `erase`, `zero_closure`, the double-reversal
core and the packed `_subsets` step are checked against, field for field;
`atom_conjoin_all` is the compiler's atom without early erasure;
`interpret` evaluates a formula directly, over a box for quantifiers;
`reverse`, `language_equal`, `permute_tracks` and `shortest_accepted` are
small constructions only the tests use; `product_reference` is the
reachable product before minimization, which `product` is pinned against;
`refine_reference` is Moore refinement with tuple signatures, which
`automaton._refine` matches class for class; `pack_arcs` packs a
reversal's rows from its moves (s, c, t), as `dfa_arcs` lists them for a
table, through the per-symbol masks `pack_masks` packs: `reverse`,
`determinize_minimal` and `zero_closure` run the library's double-reversal
core on it, and the table packer `automaton._reversed_rows` is pinned to it;
and `pump_ratio` recomputes from its two words the ratio
`PumpDecomposition.ratio()` reads off a pump's stored increments.
`max_pump_weight_per_component` searches the cycle DP of every loop state
for the maximum pump weight and its argmax, which `quotient.max_pump_weight`
matches in sign at every P/Q and exactly where the maximum is 0, and
`max_pump_weight_reference` is the whole-trim DP that search is pinned
against; both read their pump back from their parent records, as the
library does.  `max_word_weight_reference` is the word maximum
`quotient.max_word_weight` reads from a `quotient.potential`, with every
one of max_len layers run, which the library's stop at the first layer
that raises no state is pinned against at max_len = T - 1;
`bounded_max_ratio` is Dinkelbach's iteration over it, the largest
quotient of the accepted words up to any length.
`heaviest_walk` is the re-run witness rebuild: it runs a weight DP again,
with parents, to recover the walk behind an argmax, which the solvers read
from their maximizers' own parent records and are pinned against.
`is_infinite_reference` decides finiteness by Kahn's topological sort of
the trim part, independently of the Tarjan components `is_infinite` reads.
`Comparator` and `comparator_dfa` are the threshold machines of the
paper's decision procedure, accepting the pairs (p, q) with
p/q <relation> P/Q, which the tests intersect with a language to check a
solver's value; no solver builds one.
`cmp_rel`, `eq_rel` and `add_rel` name the comparison, equality and
addition constraints over `linear_rel`, and `parse_value` reads back what
`rational.fmt_value` writes.

The closure audit `check_pair_closure`, with the constructions only it uses
(`compare_language`, `zero_closure` and `successor_rel`), is a diagnostic
of pair languages that no measure reads.

`OFFSET_PERIOD_FORMULA`, `OFFSET_PREFIX_TAIL_FORMULA` and
`OFFSET_GAP_FORMULA` are the period, prefix-tail and gap languages as
`exponents` wrote them before it quantified absolute positions: each
period condition ranges over an offset j into the factor at i, so its
atom `seq[i+j] = seq[i+p+j]` reads three tracks.  The tests pin the
library's texts to the same machines, and the projection-count and
state-cap tests compile these, whose intermediate machines they count.

`dfao_from_function_reference` is the residual classification as
`sequences` ran it before it tabulated the rule: it evaluates the rule
afresh for every probe of every prefix and for every number it checks.
The library's derivation is pinned to its tables and its errors.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from critex.arith import linear_rel
from critex.automaton import (
    AutomatonError,
    Dfa,
    Dfao,
    InvariantError,
    PumpDecomposition,
    _double_reversal,
    _mask,
    _require_compatible,
    _reverse_subsets,
    _trim_adjacency,
    complement,
    enumerate_accepted,
    erase,
    explore,
    is_empty,
    leading_zero_filter,
    lift_tracks,
    make_pump,
    minimize,
    product,
    pump_increments,
    sym_index,
    symbols,
    trim_states,
)
from critex.logic import (
    And,
    Cmp,
    Const,
    Exists,
    Formula,
    FormulaError,
    Not,
    Or,
    SeqConst,
    SeqEq,
    Term,
    Var,
)
from critex.numeral import DigitWord, RadixContext, ratio
from critex.quotient import (
    EmptyLanguageError,
    PumpGraph,
    QuotientError,
    SupResult,
    _layer,
    _prepare,
    _read_walk,
    _symbol_weights,
    find_unbounded_pump,
)
from critex.rational import INF, Value
from critex.sequences import MAX_STATES, PROBE_LEN, VERIFY_N, FixtureError


OFFSET_PERIOD_FORMULA = "p >= 1 & (E i . A j . j + p < q -> seq[i+j] = seq[i+p+j])"

OFFSET_PREFIX_TAIL_FORMULA = (
    "E i . E l . E p . s = i + l & t = i + p & p >= 1 & p <= l"
    " & (A j . j + p < l -> seq[i+j] = seq[i+p+j])"
)

OFFSET_GAP_FORMULA = (
    "l >= 1 & (E i . (A j . j < l -> seq[i+j] = seq[i+n+j])"
    " & (A t . (1 <= t & t < n) -> (E j . j < l & ~(seq[i+j] = seq[i+t+j]))))"
)


class SearchError(RuntimeError):
    """A reference search found no answer: its candidate set is incomplete."""


class UndefinedRatioError(QuotientError):
    """Both value increments of a pump are zero."""


def pump_ratio(u: DigitWord, v: DigitWord) -> Value:
    """Increment ratio of one pump of v after prefix u; the limit of the
    pair quotient of u v^i w as i grows."""
    if len(v) < 1:
        raise QuotientError("the pumped block must be nonempty")
    a1, a2 = pump_increments(u, v)
    if a2 == 0:
        if a1 == 0:
            raise UndefinedRatioError("pump over an all-zero block has no ratio")
        return INF
    return Fraction(a1, a2)


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
                yield make_pump(a.k, u_syms, v_syms + (syms[c],), start)
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
    view = Dfa(a.k, a.tracks, a.trans, a.accept, state)
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
        """The candidate values in increasing order.  Sorted by an exact
        integer key, each value scaled to the common denominator: ordering
        `Fraction`s by their own comparisons costs two products and a Python
        call per comparison."""
        vals = set(self.short_values) | {v for v, _ in self.pump_values}
        scale = math.lcm(*(v.denominator for v in vals))
        return sorted(vals, key=lambda v: v.numerator * (scale // v.denominator))


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


def _read_pump(k: int, upar: list, weight: int, s0: int, xlen: int, b: int, vpar: list):
    """(weight, the pump of loop state s0 read back from the prefix records
    upar and the cycle records vpar)."""
    return weight, make_pump(k, _read_walk(upar, xlen, s0, k), _read_walk(vpar, b, s0, k), s0)


def max_pump_weight_reference(a: Dfa, P: int, Q: int, graph: PumpGraph):
    """Whole-trim pump-weight DP: `max_pump_weight_per_component` without
    the per-component restriction, with closed walks v of 1 <= |v| <= T at every
    trim state, T the trim size; O(T^2) layer steps per call.  A closed walk
    at s0 never leaves the component of s0, and no state outside it that the
    cycle DP reaches has a move into it, so the argmax's cycle records read
    back the same v."""
    if a.initial not in graph.adj:
        return None
    k = a.k
    w = _symbol_weights(k, P, Q)
    adj = graph.adj
    T = len(adj)
    cur = {a.initial: 0}
    xstar: dict[int, tuple[int, int]] = {a.initial: (0, 0)}
    upar: list[dict] = [{} for _ in range(1, T)]
    for ln, lpar in enumerate(upar, 1):
        cur = _layer(cur, adj, k, w, lpar)
        for s, val in cur.items():
            if s not in xstar or val > xstar[s][0]:
                xstar[s] = (val, ln)
    pow_k = [k**b for b in range(T + 1)]
    best = None
    for s0 in sorted(xstar):
        x0, xlen = xstar[s0]
        curz = {s0: 0}
        vpar: list[dict] = []
        for b in range(1, T + 1):
            vpar.append({})
            curz = _layer(curz, adj, k, w, vpar[-1])
            if not curz:
                break
            yb = curz.get(s0)
            if yb is not None:
                combo = (pow_k[b] - 1) * x0 + yb
                if best is None or combo > best[0]:
                    best = (combo, s0, xlen, b, vpar)
    return None if best is None else _read_pump(k, upar, *best)


def max_pump_weight_per_component(a: Dfa, P: int, Q: int, graph: PumpGraph):
    """The maximum pump weight and its argmax by a full search: the cycle DP
    of |SCC(s0)| layers runs at every loop state s0, in ascending order, and
    the first strict maximum wins.  quotient.max_pump_weight runs at most
    one of those cycle DPs, returns a pump of a weight with the same sign,
    and returns this one where the maximum is 0."""
    if a.initial not in graph.adj:
        return None
    k = a.k
    w = _symbol_weights(k, P, Q)
    T = len(graph.adj)
    cur = {a.initial: 0}
    xstar: dict[int, tuple[int, int]] = {a.initial: (0, 0)}
    upar: list[dict] = [{} for _ in range(1, T)]
    for ln, lpar in enumerate(upar, 1):
        cur = _layer(cur, graph.adj, k, w, lpar)
        for s, val in cur.items():
            if s not in xstar or val > xstar[s][0]:
                xstar[s] = (val, ln)
    best = None
    for s0 in sorted(xstar):
        sub = graph.cycles.get(s0)
        if sub is None:
            continue
        x0, xlen = xstar[s0]
        curz = {s0: 0}
        vpar: list[dict] = [{} for _ in sub]
        for b, lpar in enumerate(vpar, 1):
            curz = _layer(curz, sub, k, w, lpar)
            yb = curz.get(s0)
            if yb is not None:
                combo = (k**b - 1) * x0 + yb
                if best is None or combo > best[0]:
                    best = (combo, s0, xlen, b, vpar)
    return None if best is None else _read_pump(k, upar, *best)


def max_word_weight_reference(a: Dfa, P: int, Q: int, max_len: int, adj: dict):
    """`quotient.max_word_weight` of a `quotient.potential` without its
    stop and over words of length <= max_len: all max_len layers run, and
    the first strict maximum over accepting states, layer by layer and in
    each layer's order, wins."""
    w = _symbol_weights(a.k, P, Q)
    cur = {a.initial: 0} if a.initial in adj else {}
    layers: list[dict] = []
    best = None
    for ln in range(max_len + 1):
        if ln:
            layers.append({})
            cur = _layer(cur, adj, a.k, w, layers[-1])
        for s, val in cur.items():
            if s in a.accept and (best is None or val > best[0]):
                best = (val, ln, s)
    if best is None:
        return None
    weight, ln, s = best
    return weight, DigitWord(a.k, 2, tuple(_read_walk(layers, ln, s, a.k)))


def bounded_max_ratio(a: Dfa, max_len: int) -> tuple[Fraction | None, DigitWord | None]:
    """Exact maximum quotient over accepted words of length <= max_len, with
    the first shortest word attaining it, or (None, None) if no such word is
    accepted: Dinkelbach's iteration from 0 over `max_word_weight_reference`.
    Expects a language whose accepted words all carry a nonzero denominator."""
    adj = _trim_adjacency(a, trim_states(a))
    lam = Fraction(0)
    while True:
        got = max_word_weight_reference(a, lam.numerator, lam.denominator, max_len, adj)
        if got is None:
            return None, None
        weight, word = got
        if weight == 0:
            return lam, word
        if weight < 0 or ratio(word) <= lam:
            raise InvariantError(f"the word search does not rise at {lam}")
        lam = ratio(word)


def heaviest_walk(a: Dfa, adj, P: int, Q: int, start: int, steps: int, end: int) -> list:
    """The re-run witness rebuild: the symbols of the heaviest walk of
    `steps` symbols from start to end over the moves `adj`, found by running
    the weight DP's layers again with parents, with its tie-breaks."""
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
        end, c = divmod(par[end], len(syms))
        out.append(syms[c])
    out.reverse()
    return out


def is_sup_infinite_reference(L: Dfa, ctx: RadixContext) -> bool:
    """Literal interval test: L meets the comparator at k**n; n = state count.

    The comparator holds ~k**n states, so this is for small machines and
    cross-validation only.
    """
    thresh = Fraction(ctx.k**L.num_states, 1)
    return not is_empty(compare_language(L, ctx, thresh, ">="))


class Nfa:
    """Nondeterministic acceptor; intermediate form for projection/reversal."""

    __slots__ = ("k", "tracks", "trans", "accept", "initials")

    def __init__(self, k, tracks, trans, accept, initials):
        self.k = k
        self.tracks = tracks
        self.trans = tuple(tuple(frozenset(t) for t in row) for row in trans)
        self.accept = frozenset(accept)
        self.initials = frozenset(initials)
        n = len(self.trans)
        for row in self.trans:
            for tgt in row:
                for t in tgt:
                    if not 0 <= t < n:
                        raise AutomatonError("transition target out of range")

    @property
    def num_states(self) -> int:
        return len(self.trans)

    @property
    def alphabet_size(self) -> int:
        return self.k**self.tracks


def project(a: Dfa, drop_track: int) -> Nfa:
    """Erase one track; nondeterminism ranges over the erased digit."""
    if a.tracks < 2:
        raise AutomatonError("projection needs at least 2 tracks")
    if not 0 <= drop_track < a.tracks:
        raise AutomatonError(f"track {drop_track} out of range")
    k = a.k
    syms_full = symbols(k, a.tracks)
    new_tracks = a.tracks - 1
    reduced_count = k**new_tracks
    groups: list[list[int]] = [[] for _ in range(reduced_count)]
    for idx, sym in enumerate(syms_full):
        red = sym[:drop_track] + sym[drop_track + 1 :]
        groups[sym_index(red, k)].append(idx)
    rows = []
    for s in range(a.num_states):
        row_in = a.trans[s]
        rows.append([frozenset(row_in[idx] for idx in grp) for grp in groups])
    return Nfa(k, new_tracks, rows, a.accept, {a.initial})


def zero_saturate(nfa: Nfa) -> Nfa:
    """Add as initial every state reachable via leading all-zero symbols.

    After erasing a track, a value tuple may only be accepted in paddings
    longer than its canonical form; saturation restores acceptance of every
    padding, keeping machines leading-zero-invariant.
    """
    closure = set(nfa.initials)
    queue = deque(closure)
    while queue:
        s = queue.popleft()
        for t in nfa.trans[s][0]:
            if t not in closure:
                closure.add(t)
                queue.append(t)
    return Nfa(nfa.k, nfa.tracks, nfa.trans, nfa.accept, closure)


def subsets_reference(masks: list[list[int]], start: int, s_count: int):
    """automaton._subsets with the member-by-symbol step: each step ORs the
    c-successor masks of every member, column by column."""

    def step(cur: int) -> list[int]:
        member_rows = []
        while cur:
            low = cur & -cur
            cur ^= low
            member_rows.append(masks[low.bit_length() - 1])
        row_masks = [0] * s_count
        for c in range(s_count):
            m = 0
            for mrow in member_rows:
                m |= mrow[c]
            row_masks[c] = m
        return row_masks

    return explore(start, step)


def determinize(nfa: Nfa) -> Dfa:
    """Forward subset construction; the empty subset is the dead sink."""
    masks = [[_mask(tgt) for tgt in row] for row in nfa.trans]
    rows, subsets = subsets_reference(masks, _mask(nfa.initials), nfa.alphabet_size)
    accept_mask = _mask(nfa.accept)
    acc = [i for i, m in enumerate(subsets) if m & accept_mask]
    return Dfa(nfa.k, nfa.tracks, rows, acc, 0)


def determinize_minimal(nfa: Nfa) -> Dfa:
    """Minimal canonical machine of an NFA's language: the library's
    double-reversal core run on the NFA's moves, packed by `pack_arcs`.
    Equals minimize(determinize(nfa)) field for field."""
    arcs = ((s, c, t) for s, row in enumerate(nfa.trans) for c, tgt in enumerate(row) for t in tgt)
    packed = pack_arcs(nfa.num_states, nfa.alphabet_size, arcs)
    return _double_reversal(nfa.k, nfa.tracks, packed, nfa.accept, nfa.initials)


def pack_masks(masks: list[list[int]]) -> list[int]:
    """The rows automaton._subsets steps over: masks[s][c], a mask over
    the n = len(masks) states, lands at bit offset c*n of state s's int."""
    n = len(masks)
    return [sum(m << c * n for c, m in enumerate(row)) for row in masks]


def pack_arcs(n: int, s_count: int, arcs) -> list[int]:
    """The reversed rows of an n-state machine given by its moves (s, c, t),
    packed the way the library packed them before it read a table: the
    reversed masks rm[t][c] first, then one int per state."""
    rm = [[0] * s_count for _ in range(n)]
    for s, c, t in arcs:
        rm[t][c] |= 1 << s
    return pack_masks(rm)


def dfa_arcs(rows):
    """The moves (s, c, t) of a transition table."""
    return ((s, c, t) for s, row in enumerate(rows) for c, t in enumerate(row))


def refine_reference(trans, cls: list[int]) -> list[int]:
    """automaton._refine with tuple signatures: each Moore round maps every
    state to (its class, *the classes of its successors), numbered by first
    occurrence in state order, until a round splits no class."""
    n_cls = len(set(cls))
    while True:
        sig2id: dict[tuple, int] = {}
        cls = [sig2id.setdefault((c, *map(cls.__getitem__, row)), len(sig2id)) for c, row in zip(cls, trans)]
        if len(sig2id) == n_cls:
            return cls
        n_cls = len(sig2id)


def atom_conjoin_all(self, core: tuple, parts: list) -> tuple[Dfa, tuple[str, ...]]:
    """logic._Compiler.atom without early erasure: conjoin the core atom
    with every lowering part, then erase each `_t` variable in order of
    mention.  Patch it over `_Compiler.atom` to compile the reference way."""
    machine, mvars = core
    for part in parts:
        machine, mvars = self.combine((machine, mvars), part, "and")
    for _, pv in parts:
        for v in pv:
            if v.startswith("_t"):
                machine, mvars = self.exists_out(machine, mvars, v)
    return machine, mvars


def eval_term(t: Term, assignment: dict[str, int]) -> int:
    if isinstance(t, Var):
        return assignment[t.name]
    if isinstance(t, Const):
        return t.value
    return eval_term(t.left, assignment) + eval_term(t.right, assignment)


_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def interpret(f: Formula, assignment: dict[str, int], seq_value, box: int | None = None) -> bool:
    """Direct recursive evaluation; quantifiers range over 0..box-1.

    With box=None, quantified formulas are rejected, making this an exact
    oracle for quantifier-free bodies.
    """
    if isinstance(f, Cmp):
        return _OPS[f.op](eval_term(f.left, assignment), eval_term(f.right, assignment))
    if isinstance(f, SeqEq):
        return seq_value(eval_term(f.left, assignment)) == seq_value(eval_term(f.right, assignment))
    if isinstance(f, SeqConst):
        return seq_value(eval_term(f.term, assignment)) == f.symbol
    if isinstance(f, Not):
        return not interpret(f.body, assignment, seq_value, box)
    if isinstance(f, And):
        return interpret(f.left, assignment, seq_value, box) and interpret(f.right, assignment, seq_value, box)
    if isinstance(f, Or):
        return interpret(f.left, assignment, seq_value, box) or interpret(f.right, assignment, seq_value, box)
    if isinstance(f, Exists):
        if box is None:
            raise FormulaError("direct evaluation of quantifiers needs a box")
        return any(interpret(f.body, {**assignment, f.var: v}, seq_value, box) for v in range(box))
    raise FormulaError(f"unknown formula node {f!r}")


def shortest_accepted(a: Dfa) -> DigitWord | None:
    """Shortest accepted word, lexicographically least among that length."""
    if a.initial in a.accept:
        return DigitWord(a.k, a.tracks, ())
    syms = symbols(a.k, a.tracks)
    parent: dict[int, tuple[int, int]] = {a.initial: (-1, -1)}
    queue = deque([a.initial])
    while queue:
        s = queue.popleft()
        for c, t in enumerate(a.trans[s]):
            if t not in parent:
                parent[t] = (s, c)
                if t in a.accept:
                    path = []
                    cur = t
                    while parent[cur][0] != -1:
                        p, c0 = parent[cur]
                        path.append(syms[c0])
                        cur = p
                    path.reverse()
                    return DigitWord(a.k, a.tracks, tuple(path))
                queue.append(t)
    return None


def reverse(a: Dfa) -> Dfa:
    """Minimal machine for the reversed language: it accepts w exactly when
    a accepts w read backwards."""
    rows, reach = explore(a.initial, a.trans.__getitem__)
    acc = [i for i, s in enumerate(reach) if s in a.accept]
    packed = pack_arcs(len(rows), a.alphabet_size, dfa_arcs(rows))
    rows, acc = _reverse_subsets(packed, a.alphabet_size, acc, (0,))
    return Dfa(a.k, a.tracks, rows, acc, 0)


def permute_tracks(a: Dfa, perm: list[int]) -> Dfa:
    """Reorder tracks: output track j carries what was input track perm[j]."""
    if sorted(perm) != list(range(a.tracks)):
        raise AutomatonError("perm must be a permutation of the tracks")
    inv = [0] * a.tracks
    for j, i in enumerate(perm):
        inv[i] = j
    return lift_tracks(a, inv, a.tracks)


def product_reference(a: Dfa, b: Dfa, mode: str) -> Dfa:
    """The reachable product, unminimized: the pairs of states in breadth-first
    order, accepting the intersection ("and") or union ("or")."""
    _require_compatible(a, b)
    ta, tb = a.trans, b.trans
    rows, pairs = explore((a.initial, b.initial), lambda p: list(zip(ta[p[0]], tb[p[1]])))
    if mode == "and":
        acc = [i for i, (sa, sb) in enumerate(pairs) if sa in a.accept and sb in b.accept]
    else:
        acc = [i for i, (sa, sb) in enumerate(pairs) if sa in a.accept or sb in b.accept]
    return Dfa(a.k, a.tracks, rows, acc, 0)


def language_equal(a: Dfa, b: Dfa) -> bool:
    """Exact language equality via canonical minimal forms."""
    _require_compatible(a, b)
    return minimize(a) == minimize(b)


def is_infinite_reference(a: Dfa) -> bool:
    """Kahn's algorithm on the trim part: the language is infinite iff
    repeatedly removing trim states with no incoming trim move leaves some."""
    trim = trim_states(a)
    indeg = {s: 0 for s in trim}
    for s in trim:
        for t in a.trans[s]:
            if t in trim:
                indeg[t] += 1
    queue = deque(s for s in trim if indeg[s] == 0)
    removed = 0
    while queue:
        s = queue.popleft()
        removed += 1
        for t in a.trans[s]:
            if t in trim:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
    return removed < len(trim)


# ------------------------------------------------------------- comparators


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


def comparator_dfa(comp: Comparator) -> Dfa:
    """Machine accepting pair encodings (p, q) with p*Q <relation> q*P.

    The linear relation Q*p - P*q <relation> 0: its running sum locks
    positive at max(P, 1) and negative at -Q, so it has O(P + Q) states.
    """
    P, Q = comp.threshold.numerator, comp.threshold.denominator
    return linear_rel(comp.ctx.k, (Q, -P), comp.relation)


# ------------------------------------------------------------- named atoms


def cmp_rel(ctx: RadixContext, relation: str) -> Dfa:
    """2-track machine accepting (x, y) with x <relation> y."""
    return linear_rel(ctx.k, (1, -1), relation)


def eq_rel(ctx: RadixContext) -> Dfa:
    return linear_rel(ctx.k, (1, -1), "==")


def add_rel(ctx: RadixContext) -> Dfa:
    """3-track machine accepting (x, y, z) with x + y = z."""
    return linear_rel(ctx.k, (1, 1, -1), "==")


def parse_value(text: str) -> Value:
    """The value `fmt_value` renders as `text`: "inf" or a fraction."""
    text = text.strip()
    return INF if text == "inf" else Fraction(text)


# ------------------------------------------------------------- closure audit


def compare_language(L: Dfa, ctx: RadixContext, threshold: Fraction, relation: str) -> Dfa:
    """The pairs (p, q) of L with p/q <relation> threshold."""
    return product(L, comparator_dfa(Comparator(threshold, relation, ctx)), "and")


def successor_rel(ctx: RadixContext) -> Dfa:
    """2-track machine accepting (x, y) with x = y + 1."""
    return linear_rel(ctx.k, (1, -1), "==", 1)


def zero_closure(a: Dfa) -> Dfa:
    """Leading-zero-invariant machine with the same value-tuple language.

    Accepts 0^m w for every accepted w and every m >= 0; applied to canonical
    machines before they participate in relation products.
    """
    # state n moves like the initial state and also loops on the all-zero symbol
    n = a.num_states
    pad = [(n, 0, n)] + [(n, c, t) for c, t in enumerate(a.trans[a.initial])]
    acc = a.accept | {n} if a.initial in a.accept else a.accept
    packed = pack_arcs(n + 1, a.alphabet_size, chain(dfa_arcs(a.trans), pad))
    return _double_reversal(a.k, a.tracks, packed, acc, (n,))


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


def dfao_from_function_reference(fn, k: int) -> Dfao:
    """Residual classification with one rule call per probe and per check."""
    probes: list[tuple[int, int]] = [(1, 0)]  # (k**length, value) of each suffix
    frontier = [(1, 0)]
    for _ in range(PROBE_LEN):
        frontier = [(scale * k, val * k + d) for scale, val in frontier for d in range(k)]
        probes.extend(frontier)

    def signature(prefix_val: int) -> tuple:
        return tuple(fn(prefix_val * scale + val) for scale, val in probes)

    sig2state: dict[tuple, int] = {signature(0): 0}
    reps: list[int] = [0]
    trans: list[list[int]] = []
    i = 0
    while i < len(reps):
        rep = reps[i]
        i += 1
        row = []
        for d in range(k):
            child = rep * k + d
            sig = signature(child)
            j = sig2state.get(sig)
            if j is None:
                j = len(reps)
                if j >= MAX_STATES:
                    raise FixtureError("residual classification did not converge; raise PROBE_LEN")
                sig2state[sig] = j
                reps.append(child)
            row.append(j)
        trans.append(row)
    output = [str(fn(rep)) for rep in reps]
    state = [0] * VERIFY_N
    for n in range(VERIFY_N):
        state[n] = trans[state[n // k]][n % k] if n else 0
        if output[state[n]] != str(fn(n)):
            raise FixtureError(f"residual machine disagrees with the rule at {n}; raise PROBE_LEN")
    return Dfao(k, 1, trans, output, 0)
