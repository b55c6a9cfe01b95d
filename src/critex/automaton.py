"""Acceptors over tuple-digit alphabets and the constructions on them.

Machines are immutable after construction.  Transition tables are complete:
every (state, symbol) pair maps somewhere, with a dead sink absorbing moves
out of the useful part.  Symbols are d-tuples of base-k digits, indexed in
lexicographic order, so symbol index arithmetic is mixed-radix base k.
Dfa (accepting states) and Dfao (an output per state) share one checked
table core, `_Table`, which raises every error in the base or the table.
Moore rounds, product steps and reversal packing read whole rows at a time:
itemgetter signatures, int pair keys, and rows packed straight from a table.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from operator import add, itemgetter

from .numeral import DigitWord, _check_base, digits_of
from .rational import INF, Value


class AutomatonError(ValueError):
    pass


class IncompatibleError(AutomatonError):
    pass


class StateLimitError(RuntimeError):
    """Raised when an intermediate machine exceeds CRITEX_MAX_STATES."""


class InvariantError(RuntimeError):
    """An internal invariant failed; the result would be wrong."""


@cache
def symbols(k: int, tracks: int) -> tuple[tuple[int, ...], ...]:
    """All d-track digit tuples in lexicographic (index) order."""
    return tuple(iproduct(range(k), repeat=tracks))


def sym_index(sym: tuple[int, ...], k: int) -> int:
    idx = 0
    for d in sym:
        idx = idx * k + d
    return idx


def state_limit() -> int:
    """CRITEX_MAX_STATES, default 1000000; a value that is not a positive
    integer raises AutomatonError."""
    raw = os.environ.get("CRITEX_MAX_STATES", "1000000")
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise AutomatonError(f"CRITEX_MAX_STATES must be a positive integer, got {raw!r}")
    return limit


class _Table:
    """A complete transition table over (Sigma_k)^tracks, read most
    significant digit first; rows are stored as tuples."""

    __slots__ = ("k", "tracks", "trans", "initial")
    order = "msd"  # the only digit order, read by serialize_automaton and machine digests

    def __init__(self, k, tracks, trans, initial):
        _check_base(k, AutomatonError)
        self.k = k
        self.tracks = tracks
        self.trans = tuple(tuple(row) for row in trans)
        self.initial = initial
        s_count = k**tracks
        n = len(self.trans)
        if not 0 <= initial < n:
            raise AutomatonError(f"initial state {initial} out of range")
        for s, row in enumerate(self.trans):
            if len(row) != s_count:
                raise AutomatonError(f"state {s} has {len(row)} moves, expected {s_count}")
            for t in row:
                if not 0 <= t < n:
                    raise AutomatonError(f"state {s} has transition target {t} out of range")

    @property
    def num_states(self) -> int:
        return len(self.trans)

    @property
    def alphabet_size(self) -> int:
        return self.k**self.tracks

    def __repr__(self):
        return f"<{type(self).__name__} k={self.k} tracks={self.tracks} states={self.num_states}>"


class Dfa(_Table):
    """Complete deterministic acceptor over (Sigma_k)^tracks."""

    __slots__ = ("accept",)

    def __init__(self, k, tracks, trans, accept, initial):
        super().__init__(k, tracks, trans, initial)
        self.accept = frozenset(accept)
        if not self.accept <= set(range(len(self.trans))):
            raise AutomatonError("accepting set contains unknown states")

    def run(self, word: DigitWord) -> int:
        if word.k != self.k or word.tracks != self.tracks:
            raise IncompatibleError("word alphabet does not match machine alphabet")
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
            and (self.k, self.tracks) == (other.k, other.tracks)
            and self.initial == other.initial
            and self.trans == other.trans
            and self.accept == other.accept
        )

    def __hash__(self):
        return hash((self.k, self.tracks, self.initial, self.trans, self.accept))


class Dfao(_Table):
    """Deterministic automaton with an output symbol attached to every state."""

    __slots__ = ("output",)

    def __init__(self, k, tracks, trans, output, initial):
        super().__init__(k, tracks, trans, initial)
        self.output = tuple(str(o) for o in output)
        if len(self.output) != len(self.trans):
            raise AutomatonError("output map is not total")

    @property
    def output_alphabet(self) -> frozenset:
        return frozenset(self.output)

    def value(self, n: int) -> str:
        """Output on the canonical base-k encoding of n."""
        s = self.initial
        for d in digits_of(n, self.k):
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


def make_pump(k: int, u_syms, v_syms, loop_state: int) -> PumpDecomposition:
    u = DigitWord(k, 2, tuple(u_syms))
    v = DigitWord(k, 2, tuple(v_syms))
    a1, a2 = pump_increments(u, v)
    return PumpDecomposition(u, v, loop_state, a1, a2)


def _require_compatible(a: Dfa, b: Dfa) -> None:
    if (a.k, a.tracks) != (b.k, b.tracks):
        raise IncompatibleError(f"incompatible machines: ({a.k},{a.tracks}) vs ({b.k},{b.tracks})")


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
    """Canonical minimal machine of the intersection ("and") or union ("or")
    of two languages over the reachable state pairs, (i, j) keyed i*nb + j:
    its successors add a's row i, scaled by nb once, and b's row j."""
    if mode not in ("and", "or"):
        raise AutomatonError(f"unknown product mode {mode!r}")
    _require_compatible(a, b)
    nb, tb, fa, fb = b.num_states, b.trans, a.accept, b.accept
    ta = [list(map(nb.__mul__, row)) for row in a.trans]
    if mode == "and":
        accepting = lambda p: p // nb in fa and p % nb in fb
    else:
        accepting = lambda p: p // nb in fa or p % nb in fb
    step = lambda p: list(map(add, ta[p // nb], tb[p % nb]))
    return minimal(a.k, a.tracks, a.initial * nb + b.initial, step, accepting)


def complement(a: Dfa) -> Dfa:
    """Flip acceptance; sound because every machine here is complete."""
    acc = set(range(a.num_states)) - a.accept
    return Dfa(a.k, a.tracks, a.trans, acc, a.initial)


def _mask(states) -> int:
    return sum(1 << s for s in states)


def _reversed_rows(trans, col) -> list[int]:
    """The reversal of a table as `_subsets` steps it: each move s -c-> t of
    the n = len(trans) states sets bit col[c]*n + s of t's packed row."""
    n = len(trans)
    shifts = [j * n for j in col]
    packed = [0] * n
    for s, row in enumerate(trans):
        for t, sh in zip(row, shifts):
            packed[t] |= 1 << (sh + s)
    return packed


def _subsets(packed: list[int], start: int, s_count: int):
    """Subset construction from the subset `start`; packed[s] holds, at bit
    offset c*n, the mask of the c-successors of state s, one of n =
    len(packed) states.  Returns explore's (rows, subsets); the empty subset
    is the dead sink.  A subset's successors on every symbol are one OR of
    its members' packed rows, cut into columns by (big >> c*n) & full.  The
    ORs are memoized per 8-state chunk: chunk j maps each byte value seen at
    bits 8j..8j+7 of a subset to the OR of the packed rows of those members,
    so it holds at most 255 entries of n*s_count bits, and a step ORs at
    most ceil(n/8) of them.
    """
    n = len(packed)
    full = (1 << n) - 1
    shifts = [c * n for c in range(s_count)]
    memos: list[dict[int, int]] = [{} for _ in range(0, n, 8)]
    width = len(memos)

    def step(cur: int) -> list[int]:
        big = 0
        for j, byte in enumerate(cur.to_bytes(width, "little")):
            if byte:
                memo = memos[j]
                ored = memo.get(byte)
                if ored is None:
                    ored = 0
                    bits = byte
                    while bits:
                        low = bits & -bits
                        bits ^= low
                        ored |= packed[8 * j + low.bit_length() - 1]
                    memo[byte] = ored
                big |= ored
        return [(big >> sh) & full for sh in shifts]

    return explore(start, step)


def _reverse_subsets(packed: list[int], s_count: int, accept, initials):
    """Subset construction of a machine's reversal, given by its packed rows,
    from its accepting states; the subsets that meet its initial states accept.

    When the machine is deterministic and every state is reachable, the
    result is the minimal machine of the reversed language, and explore's
    breadth-first numbering makes it the canonical one (Brzozowski).
    """
    rows, subsets = _subsets(packed, _mask(accept), s_count)
    initial_mask = _mask(initials)
    return rows, [i for i, m in enumerate(subsets) if m & initial_mask]


def _double_reversal(k: int, tracks: int, packed: list[int], accept, initials) -> Dfa:
    """Minimal canonical machine of the language of a nondeterministic
    machine over (Sigma_k)^tracks, given by its packed reversed rows, its
    accepting states and its initial states.

    Brzozowski's det(rev(det(rev(N)))): the first pass determinizes the
    reversal; the second reverses that accessible machine back, packed from
    its table, which yields the minimal machine in minimize's numbering.
    """
    s_count = k**tracks
    rows, acc = _reverse_subsets(packed, s_count, accept, initials)
    rows, acc = _reverse_subsets(_reversed_rows(rows, range(s_count)), s_count, acc, (0,))
    return Dfa(k, tracks, rows, acc, 0)


def erase(a: Dfa, track: int) -> Dfa:
    """Minimal canonical machine of a's language with one track erased.

    The erased digit of each move is dropped, and leading all-zero symbols
    are saturated: a value tuple is accepted in every padding once some
    padding of it is, which keeps machines leading-zero-invariant.  The
    saturation is the start set of the double reversal: every state the
    initial state reaches on symbols that are zero on all kept tracks.
    Erasing the only track of a leading-zero-invariant machine leaves the
    one-state 0-track machine that accepts exactly when a's language is
    nonempty.
    """
    if not 0 <= track < a.tracks:
        raise AutomatonError(f"track {track} out of range")
    k = a.k
    reduced = [sym_index(sym[:track] + sym[track + 1 :], k) for sym in symbols(k, a.tracks)]
    zeros = [c for c, r in enumerate(reduced) if r == 0]
    start = explore(a.initial, lambda s: [a.trans[s][c] for c in zeros])[1]
    return _double_reversal(k, a.tracks - 1, _reversed_rows(a.trans, reduced), a.accept, start)


def _refine(trans, cls: list[int]) -> list[int]:
    """Coarsest partition refining cls that the transitions respect (Moore).

    Class ids are numbered by first occurrence in state order.  Each row is
    one itemgetter, built once, so a round reads the successor classes in C
    (a one-symbol row's getter returns a class, not a 1-tuple).
    """
    gets = [itemgetter(*row) for row in trans]
    n_cls = len(set(cls))
    while True:
        sig2id: dict[tuple, int] = {}
        cls = [sig2id.setdefault((c, g(cls)), len(sig2id)) for c, g in zip(cls, gets)]
        if len(sig2id) == n_cls:
            return cls
        n_cls = len(sig2id)


def minimal(k: int, tracks: int, start, step, accepting) -> Dfa:
    """Minimal complete machine with canonical breadth-first state numbering
    of the states reachable from `start`, explored with `step` as in
    `explore`; accepting(key) is True exactly for the keys that accept.

    Equal languages therefore yield bit-identical machines.
    """
    trans, keys = explore(start, step)
    flags = list(map(accepting, keys))
    cls = _refine(trans, flags)
    # States are in breadth-first order, so first-occurrence class ids are
    # already the breadth-first numbering of the quotient machine.
    rows: list = [None] * (max(cls) + 1)
    acc = set()
    for s, c in enumerate(cls):
        if rows[c] is None:
            rows[c] = [cls[t] for t in trans[s]]
            if flags[s]:
                acc.add(c)
    return Dfa(k, tracks, rows, acc, 0)


def minimize(a: Dfa) -> Dfa:
    """The canonical minimal machine of a's language (see `minimal`)."""
    return minimal(a.k, a.tracks, a.initial, a.trans.__getitem__, a.accept.__contains__)


def trim_states(a: Dfa) -> set[int]:
    """States both reachable from the initial state and co-accessible."""
    dist = distance_to_accept(a)
    return {s for s in explore(a.initial, a.trans.__getitem__)[1] if dist[s] != float("inf")}


def is_empty(a: Dfa) -> bool:
    return a.accept.isdisjoint(explore(a.initial, a.trans.__getitem__)[1])


def _trim_adjacency(a: Dfa, trim: set[int]) -> dict[int, list[tuple[int, int]]]:
    """The moves (symbol index, target) of each trim state that stay in trim."""
    return {s: [(c, t) for c, t in enumerate(a.trans[s]) if t in trim] for s in sorted(trim)}


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


def _tarjan_sccs(nodes: list[int], succ: dict[int, list[int]]) -> list[list[int]]:
    index = {}
    low = {}
    on_stack = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for t in it:
                if t not in index:
                    index[t] = low[t] = len(index)
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


def is_infinite(a: Dfa) -> bool:
    """True iff the language is infinite: a cycle inside the trim part."""
    return bool(_cycle_adjacency(_trim_adjacency(a, trim_states(a))))


def leading_zero_filter(k: int, tracks: int) -> Dfa:
    """Accepts the empty word and every word not starting with the all-zero symbol."""
    s_count = k**tracks
    rows = [[2] + [1] * (s_count - 1), [1] * s_count, [2] * s_count]
    return Dfa(k, tracks, rows, {0, 1}, 0)


def canonicalize(a: Dfa) -> Dfa:
    """Canonical minimal machine of a's words that do not start with the
    all-zero symbol."""
    return product(a, leading_zero_filter(a.k, a.tracks))


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
    trans = a.trans
    accept = a.accept

    def rec(state: int, remaining: int, prefix: list):
        if remaining == 0:
            if state in accept:
                yield DigitWord(a.k, a.tracks, tuple(prefix))
            return
        for c, t in enumerate(trans[state]):
            if dist[t] <= remaining - 1:
                prefix.append(syms[c])
                yield from rec(t, remaining - 1, prefix)
                prefix.pop()

    for length in range(max_len + 1):
        yield from rec(a.initial, length, [])


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
    rows = [[row[m] for m in mapping] for row in a.trans]
    return Dfa(k, new_tracks, rows, a.accept, a.initial)
