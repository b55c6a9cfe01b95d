"""Acceptors over tuple-digit alphabets and the constructions on them.

Machines are immutable after construction.  Transition tables are complete:
every (state, symbol) pair maps somewhere, with a dead sink absorbing moves
out of the useful part.  Symbols are d-tuples of base-k digits, indexed in
lexicographic order, so symbol index arithmetic is mixed-radix base k.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .numeral import LSD, MSD, DigitWord
from .rational import INF, Value


class AutomatonError(ValueError):
    pass


class IncompatibleError(AutomatonError):
    pass


class StateLimitError(RuntimeError):
    """Raised when an intermediate machine exceeds CRITEX_MAX_STATES."""


class InvariantError(RuntimeError):
    """An internal invariant failed; the result would be wrong."""


_SYMBOLS: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def symbols(k: int, tracks: int) -> tuple[tuple[int, ...], ...]:
    """All d-track digit tuples in lexicographic (index) order."""
    key = (k, tracks)
    cached = _SYMBOLS.get(key)
    if cached is None:
        cached = tuple(iproduct(range(k), repeat=tracks))
        _SYMBOLS[key] = cached
    return cached


def sym_index(sym: tuple[int, ...], k: int) -> int:
    idx = 0
    for d in sym:
        idx = idx * k + d
    return idx


def state_limit() -> int:
    try:
        return int(os.environ.get("CRITEX_MAX_STATES", "1000000"))
    except ValueError:
        return 1000000


class Dfa:
    """Complete deterministic acceptor over (Sigma_k)^tracks."""

    __slots__ = ("k", "tracks", "trans", "accept", "initial", "order")

    def __init__(self, k, tracks, trans, accept, initial, order=MSD):
        self.k = k
        self.tracks = tracks
        self.trans = tuple(tuple(row) for row in trans)
        self.accept = frozenset(accept)
        self.initial = initial
        self.order = order
        n = len(self.trans)
        s_count = k**tracks
        if not 0 <= initial < n:
            raise AutomatonError(f"initial state {initial} out of range")
        for s, row in enumerate(self.trans):
            if len(row) != s_count:
                raise AutomatonError(f"state {s} has {len(row)} moves, expected {s_count}")
            for t in row:
                if not 0 <= t < n:
                    raise AutomatonError(f"transition target {t} out of range")
        if not self.accept <= set(range(n)):
            raise AutomatonError("accepting set contains unknown states")

    @property
    def num_states(self) -> int:
        return len(self.trans)

    @property
    def alphabet_size(self) -> int:
        return self.k**self.tracks

    def run(self, word: DigitWord) -> int:
        if word.k != self.k or word.tracks != self.tracks:
            raise IncompatibleError("word alphabet does not match machine alphabet")
        if word.order != self.order:
            raise IncompatibleError(f"word order {word.order} does not match machine order {self.order}")
        s = self.initial
        k = self.k
        for sym in word.symbols:
            s = self.trans[s][sym_index(sym, k)]
        return s

    def accepts(self, word: DigitWord) -> bool:
        return self.run(word) in self.accept

    def __eq__(self, other):
        return (
            isinstance(other, Dfa)
            and (self.k, self.tracks, self.order) == (other.k, other.tracks, other.order)
            and self.initial == other.initial
            and self.trans == other.trans
            and self.accept == other.accept
        )

    def __hash__(self):
        return hash((self.k, self.tracks, self.order, self.initial, self.trans, self.accept))

    def __repr__(self):
        return f"<Dfa k={self.k} tracks={self.tracks} states={self.num_states} order={self.order}>"


class Nfa:
    """Nondeterministic acceptor; intermediate form for projection/reversal."""

    __slots__ = ("k", "tracks", "trans", "accept", "initials", "order")

    def __init__(self, k, tracks, trans, accept, initials, order=MSD):
        self.k = k
        self.tracks = tracks
        self.trans = tuple(tuple(frozenset(t) for t in row) for row in trans)
        self.accept = frozenset(accept)
        self.initials = frozenset(initials)
        self.order = order
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


class Dfao:
    """Deterministic automaton with an output symbol attached to every state."""

    __slots__ = ("k", "tracks", "trans", "output", "initial", "order")

    def __init__(self, k, tracks, trans, output, initial, order=MSD):
        self.k = k
        self.tracks = tracks
        self.trans = tuple(tuple(row) for row in trans)
        self.output = tuple(str(o) for o in output)
        self.initial = initial
        self.order = order
        n = len(self.trans)
        if len(self.output) != n:
            raise AutomatonError("output map is not total")
        s_count = k**tracks
        for row in self.trans:
            if len(row) != s_count:
                raise AutomatonError("transition table is not total")
            for t in row:
                if not 0 <= t < n:
                    raise AutomatonError("transition target out of range")

    @property
    def num_states(self) -> int:
        return len(self.trans)

    @property
    def alphabet_size(self) -> int:
        return self.k**self.tracks

    @property
    def output_alphabet(self) -> frozenset:
        return frozenset(self.output)

    def run(self, word: DigitWord) -> int:
        if word.k != self.k or word.tracks != self.tracks:
            raise IncompatibleError("word alphabet does not match machine alphabet")
        if word.order != self.order:
            raise IncompatibleError("word order does not match machine order")
        s = self.initial
        k = self.k
        for sym in word.symbols:
            s = self.trans[s][sym_index(sym, k)]
        return s

    def value(self, n: int) -> str:
        """Output on the canonical base-k encoding of n, fed in the machine's
        declared digit order."""
        s = self.initial
        k = self.k
        digits = []
        m = n
        while m:
            digits.append(m % k)
            m //= k
        if self.order == MSD:
            digits.reverse()
        for d in digits:
            s = self.trans[s][d]
        return self.output[s]

    def behavioral_classes(self) -> list[int]:
        """Output-equivalence classes of states (Myhill-Nerode on outputs)."""
        out2id: dict[str, int] = {}
        return _refine(self.trans, [out2id.setdefault(o, len(out2id)) for o in self.output])

    def is_zero_invariant(self) -> bool:
        """True iff prepending zero digits never changes the computed output."""
        cls = self.behavioral_classes()
        return cls[self.trans[self.initial][0]] == cls[self.initial]

    def __repr__(self):
        return f"<Dfao k={self.k} tracks={self.tracks} states={self.num_states}>"


@dataclass(frozen=True)
class PumpDecomposition:
    """A loop u.v* inside a machine: u reaches loop_state, v cycles on it.

    inc1/inc2 are the per-track value increments contributed by one extra
    copy of v, i.e. value(uv) - value(u) per track.
    """

    u: DigitWord
    v: DigitWord
    loop_state: int
    inc1: int
    inc2: int

    def ratio(self) -> Value:
        """Limit of the pair quotient of u v^i w as i grows."""
        if self.inc2 == 0:
            if self.inc1 == 0:
                raise AutomatonError("undefined pump ratio: both increments are zero")
            return INF
        return Fraction(self.inc1, self.inc2)


def pump_increments(u: DigitWord, v: DigitWord) -> tuple[int, int]:
    uv = u.concat(v)
    return (uv.value(0) - u.value(0), uv.value(1) - u.value(1))


def make_pump(k: int, u_syms, v_syms, loop_state: int, order=MSD) -> PumpDecomposition:
    u = DigitWord(k, 2, tuple(u_syms), order)
    v = DigitWord(k, 2, tuple(v_syms), order)
    a1, a2 = pump_increments(u, v)
    return PumpDecomposition(u, v, loop_state, a1, a2)


def _require_compatible(a: Dfa, b: Dfa) -> None:
    if (a.k, a.tracks, a.order) != (b.k, b.tracks, b.order):
        raise IncompatibleError(
            f"incompatible machines: ({a.k},{a.tracks},{a.order}) vs ({b.k},{b.tracks},{b.order})"
        )


def explore(start, step):
    """Number the states reachable from `start` breadth-first.

    States are hashable keys; step(key) lists one successor key per symbol.
    Returns the transition rows over the numbering and the key of every
    state, both in breadth-first order; raises StateLimitError once more than
    CRITEX_MAX_STATES keys are found.
    """
    limit = state_limit()
    index = {start: 0}
    keys = [start]
    rows = []
    for key in keys:
        succ = step(key)
        row = list(map(index.get, succ))
        if None in row:
            for c, t in enumerate(succ):
                if row[c] is None:
                    j = index.get(t)
                    if j is None:
                        j = index[t] = len(keys)
                        keys.append(t)
                    row[c] = j
            if len(keys) > limit:
                raise StateLimitError(f"intermediate automaton exceeded {limit} states")
        rows.append(row)
    return rows, keys


def product(a: Dfa, b: Dfa, mode: str = "and") -> Dfa:
    """Reachable product; accepts the intersection ("and") or union ("or")."""
    if mode not in ("and", "or"):
        raise AutomatonError(f"unknown product mode {mode!r}")
    _require_compatible(a, b)
    ta, tb = a.trans, b.trans
    rows, pairs = explore((a.initial, b.initial), lambda p: list(zip(ta[p[0]], tb[p[1]])))
    if mode == "and":
        acc = [i for i, (sa, sb) in enumerate(pairs) if sa in a.accept and sb in b.accept]
    else:
        acc = [i for i, (sa, sb) in enumerate(pairs) if sa in a.accept or sb in b.accept]
    return Dfa(a.k, a.tracks, rows, acc, 0, a.order)


def complement(a: Dfa) -> Dfa:
    """Flip acceptance; sound because every machine here is complete."""
    acc = set(range(a.num_states)) - a.accept
    return Dfa(a.k, a.tracks, a.trans, acc, a.initial, a.order)


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
    return Nfa(k, new_tracks, rows, a.accept, {a.initial}, a.order)


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
    return Nfa(nfa.k, nfa.tracks, nfa.trans, nfa.accept, closure, nfa.order)


def _mask(states) -> int:
    return sum(1 << s for s in states)


def _subsets(masks: list[list[int]], start: int, s_count: int):
    """Subset construction from the subset `start`; masks[s][c] is the
    bitmask of the c-successors of state s.  Returns explore's (rows,
    subsets); the empty subset is the dead sink."""

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
    rows, subsets = _subsets(masks, _mask(nfa.initials), nfa.alphabet_size)
    accept_mask = _mask(nfa.accept)
    acc = [i for i, m in enumerate(subsets) if m & accept_mask]
    return Dfa(nfa.k, nfa.tracks, rows, acc, 0, nfa.order)


def _reverse_subsets(n: int, s_count: int, arcs, accept, initials):
    """Subset construction of the reversed machine: arcs lists the moves
    (s, c, t) of an n-state machine, the reversal starts from its accepting
    states and accepts the subsets that meet its initial states.

    When the machine is deterministic and every state is reachable, the
    result is the minimal machine of the reversed language, and explore's
    breadth-first numbering makes it the canonical one (Brzozowski).
    """
    rm = [[0] * s_count for _ in range(n)]
    for s, c, t in arcs:
        rm[t][c] |= 1 << s
    rows, subsets = _subsets(rm, _mask(accept), s_count)
    initial_mask = _mask(initials)
    return rows, [i for i, m in enumerate(subsets) if m & initial_mask]


def _dfa_arcs(rows):
    return ((s, c, t) for s, row in enumerate(rows) for c, t in enumerate(row))


def determinize_minimal(nfa: Nfa) -> Dfa:
    """Minimal canonical machine of an NFA's language by double reversal,
    det(rev(det(rev(nfa)))).

    Equals minimize(determinize(nfa)) field for field.  The first pass
    determinizes the reversal; the second reverses that accessible machine
    back, which yields the minimal machine in minimize's numbering.
    """
    s_count = nfa.alphabet_size
    arcs = ((s, c, t) for s, row in enumerate(nfa.trans) for c, tgt in enumerate(row) for t in tgt)
    rows, acc = _reverse_subsets(nfa.num_states, s_count, arcs, nfa.accept, nfa.initials)
    rows, acc = _reverse_subsets(len(rows), s_count, _dfa_arcs(rows), acc, (0,))
    return Dfa(nfa.k, nfa.tracks, rows, acc, 0, nfa.order)


def _refine(trans, cls: list[int]) -> list[int]:
    """Coarsest partition refining cls that the transitions respect (Moore).

    Class ids are numbered by first occurrence in state order.
    """
    n_cls = len(set(cls))
    while True:
        sig2id: dict[tuple, int] = {}
        cls = [sig2id.setdefault((c, *map(cls.__getitem__, row)), len(sig2id)) for c, row in zip(cls, trans)]
        if len(sig2id) == n_cls:
            return cls
        n_cls = len(sig2id)


def minimize(a: Dfa) -> Dfa:
    """Minimal complete machine with canonical breadth-first state numbering.

    Equal languages therefore yield bit-identical machines.
    """
    trans, reach = explore(a.initial, a.trans.__getitem__)
    cls = _refine(trans, [1 if s in a.accept else 0 for s in reach])
    # States are in breadth-first order, so first-occurrence class ids are
    # already the breadth-first numbering of the quotient machine.
    rows: list = [None] * (max(cls) + 1)
    acc = set()
    for s, c in enumerate(cls):
        if rows[c] is None:
            rows[c] = [cls[t] for t in trans[s]]
            if reach[s] in a.accept:
                acc.add(c)
    return Dfa(a.k, a.tracks, rows, acc, 0, a.order)


def trim_states(a: Dfa) -> set[int]:
    """States both reachable from the initial state and co-accessible."""
    dist = distance_to_accept(a)
    return {s for s in explore(a.initial, a.trans.__getitem__)[1] if dist[s] != float("inf")}


def shortest_accepted(a: Dfa) -> DigitWord | None:
    """Shortest accepted word, lexicographically least among that length."""
    if a.initial in a.accept:
        return DigitWord(a.k, a.tracks, (), a.order)
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
                    return DigitWord(a.k, a.tracks, tuple(path), a.order)
                queue.append(t)
    return None


def is_empty(a: Dfa) -> bool:
    return a.accept.isdisjoint(explore(a.initial, a.trans.__getitem__)[1])


def is_infinite(a: Dfa) -> bool:
    """True iff the language is infinite: a cycle inside the trim part."""
    trim = trim_states(a)
    if not trim:
        return False
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


def leading_zero_filter(k: int, tracks: int, order=MSD) -> Dfa:
    """Accepts the empty word and every word not starting with the all-zero symbol."""
    s_count = k**tracks
    rows = [[2] + [1] * (s_count - 1), [1] * s_count, [2] * s_count]
    return Dfa(k, tracks, rows, {0, 1}, 0, order)


def canonicalize(a: Dfa) -> Dfa:
    """Drop words starting with the all-zero symbol, then minimize."""
    if a.order != MSD:
        raise AutomatonError("canonicalize expects an MSD machine")
    return minimize(product(a, leading_zero_filter(a.k, a.tracks), "and"))


def zero_closure(a: Dfa) -> Dfa:
    """Leading-zero-invariant machine with the same value-tuple language.

    Accepts 0^m w for every accepted w and every m >= 0; applied to canonical
    machines before they participate in relation products.
    """
    if a.order != MSD:
        raise AutomatonError("zero_closure expects an MSD machine")
    s_count = a.alphabet_size
    n = a.num_states
    rows: list[list] = []
    for s in range(n):
        rows.append([frozenset((t,)) for t in a.trans[s]])
    pad_row = [frozenset((a.trans[a.initial][c],)) for c in range(s_count)]
    pad_row[0] = frozenset((n, a.trans[a.initial][0]))
    rows.append(pad_row)
    acc = set(a.accept)
    if a.initial in a.accept:
        acc.add(n)
    return determinize_minimal(Nfa(a.k, a.tracks, rows, acc, {n, a.initial}, a.order))


def distance_to_accept(a: Dfa) -> list[float]:
    dist = [float("inf")] * a.num_states
    inv: list[list[int]] = [[] for _ in range(a.num_states)]
    for s in range(a.num_states):
        for t in a.trans[s]:
            inv[t].append(s)
    queue = deque(a.accept)
    for s in a.accept:
        dist[s] = 0
    while queue:
        t = queue.popleft()
        for s in inv[t]:
            if dist[s] == float("inf"):
                dist[s] = dist[t] + 1
                queue.append(s)
    return dist


def enumerate_accepted(a: Dfa, max_len: int):
    """Accepted words of length <= max_len, in length-then-lex order.

    Output size can be exponential in max_len; meant for small machines
    and bounded scans.
    """
    dist = distance_to_accept(a)
    if dist[a.initial] == float("inf"):
        return
    syms = symbols(a.k, a.tracks)
    s_count = len(syms)
    trans = a.trans
    accept = a.accept

    def rec(state: int, remaining: int, prefix: list):
        if remaining == 0:
            if state in accept:
                yield DigitWord(a.k, a.tracks, tuple(prefix), a.order)
            return
        row = trans[state]
        for c in range(s_count):
            t = row[c]
            if dist[t] <= remaining - 1:
                prefix.append(syms[c])
                yield from rec(t, remaining - 1, prefix)
                prefix.pop()

    for length in range(max_len + 1):
        yield from rec(a.initial, length, [])


def reverse(a: Dfa) -> Dfa:
    """Minimal machine for the reversed language; the digit-order marker flips."""
    rows, reach = explore(a.initial, a.trans.__getitem__)
    acc = [i for i, s in enumerate(reach) if s in a.accept]
    rows, acc = _reverse_subsets(len(rows), a.alphabet_size, _dfa_arcs(rows), acc, (0,))
    return Dfa(a.k, a.tracks, rows, acc, 0, LSD if a.order == MSD else MSD)


def lift_tracks(a: Dfa, positions: list[int], new_tracks: int) -> Dfa:
    """Widen to new_tracks tracks; positions[i] is where a's track i lands.

    Added tracks are unconstrained (don't-care digits).
    """
    if len(positions) != a.tracks:
        raise AutomatonError("positions must list a destination per track")
    if len(set(positions)) != len(positions) or any(not 0 <= p < new_tracks for p in positions):
        raise AutomatonError("positions must be distinct and in range")
    k = a.k
    wide = symbols(k, new_tracks)
    mapping = [sym_index(tuple(sym[p] for p in positions), k) for sym in wide]
    rows = []
    for s in range(a.num_states):
        row_in = a.trans[s]
        rows.append([row_in[m] for m in mapping])
    return Dfa(k, new_tracks, rows, a.accept, a.initial, a.order)


def permute_tracks(a: Dfa, perm: list[int]) -> Dfa:
    """Reorder tracks: output track j carries what was input track perm[j]."""
    if sorted(perm) != list(range(a.tracks)):
        raise AutomatonError("perm must be a permutation of the tracks")
    inv = [0] * a.tracks
    for j, i in enumerate(perm):
        inv[i] = j
    return lift_tracks(a, inv, a.tracks)


def language_equal(a: Dfa, b: Dfa) -> bool:
    """Exact language equality via canonical minimal forms."""
    _require_compatible(a, b)
    return minimize(a) == minimize(b)
