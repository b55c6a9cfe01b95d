"""Line-oriented text format for acceptors and output automata.

    critex-automaton v1
    base: <k>
    tracks: <d>
    kind: dfa|dfao
    order: msd                      (the only digit order)
    states: <N>
    initial: <q>
    accepting: <q> <q> ...          (dfa)
    output: <q>:<sym> <q>:<sym> ... (dfao, total)
    trans: <q> [<d1>,...,<dd>] -> <q'>

'#' starts a comment; blank lines are ignored, and so an output symbol holds
no '#' and no whitespace.  Transitions not listed go to
an implicit dead state appended after the declared ones.  A machine of more
than CRITEX_MAX_STATES states, or an alphabet of more than CRITEX_MAX_STATES
symbols, raises StateLimitError before any row is built.
"""

from __future__ import annotations

import re

from .automaton import Dfa, Dfao, StateLimitError, state_limit, sym_index, symbols

MAGIC = "critex-automaton v1"
HEADER_KEYS = frozenset({"base", "tracks", "kind", "order", "states", "initial", "accepting", "output"})


class AutFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


_TRANS_RE = re.compile(r"^trans:\s*(\d+)\s*\[([0-9,\s]*)\]\s*->\s*(\d+)$")


def parse_automaton(text: str) -> Dfa | Dfao:
    header: dict[str, str] = {}
    trans_lines: list[tuple[int, str]] = []
    magic_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not magic_seen:
            if line != MAGIC:
                raise AutFileError(f"expected header {MAGIC!r}", lineno)
            magic_seen = True
            continue
        if line.startswith("trans:"):
            trans_lines.append((lineno, line))
            continue
        if ":" not in line:
            raise AutFileError(f"unrecognized line {line!r}", lineno)
        key, value = line.split(":", 1)
        key = key.strip()
        if key not in HEADER_KEYS:
            raise AutFileError(f"unknown key {key!r}", lineno)
        if key in header:
            raise AutFileError(f"duplicate key {key!r}", lineno)
        header[key] = value.strip()
    if not magic_seen:
        raise AutFileError(f"missing header {MAGIC!r}")

    def need(key: str) -> str:
        if key not in header:
            raise AutFileError(f"missing required key {key!r}")
        return header[key]

    def need_int(key: str, minimum: int) -> int:
        raw = need(key)
        try:
            v = int(raw)
        except ValueError:
            raise AutFileError(f"key {key!r} needs an integer, got {raw!r}") from None
        if v < minimum:
            raise AutFileError(f"key {key!r} must be >= {minimum}, got {v}")
        return v

    k = need_int("base", 2)
    tracks = need_int("tracks", 1)
    kind = need("kind")
    if kind not in ("dfa", "dfao"):
        raise AutFileError(f"kind must be dfa or dfao, got {kind!r}")
    foreign = "output" if kind == "dfa" else "accepting"
    if foreign in header:
        raise AutFileError(f"key {foreign!r} does not belong in a {kind}")
    order = need("order")
    if order != "msd":
        raise AutFileError(f"order must be msd (digits most significant first), got {order!r}")
    n = need_int("states", 1)
    initial = need_int("initial", 0)
    if initial >= n:
        raise AutFileError(f"initial state {initial} out of range")

    limit = state_limit()
    # k >= 2, so k ** limit.bit_length() > limit: the power stays small
    if k ** min(tracks, limit.bit_length()) > limit:
        raise StateLimitError(f"{tracks} tracks of base {k} make more than CRITEX_MAX_STATES={limit} symbols")
    s_count = k**tracks
    moves: dict[tuple[int, int], int] = {}
    for lineno, line in trans_lines:
        m = _TRANS_RE.match(line)
        if m is None:
            raise AutFileError(f"bad transition syntax {line!r}", lineno)
        src, digs, dst = int(m.group(1)), m.group(2), int(m.group(3))
        if src >= n or dst >= n:
            raise AutFileError(f"transition state out of range in {line!r}", lineno)
        try:
            sym = tuple(int(d.strip()) for d in digs.split(",")) if digs.strip() else ()
        except ValueError:
            raise AutFileError(f"bad digit list in {line!r}", lineno) from None
        if len(sym) != tracks:
            raise AutFileError(f"expected {tracks} digits in {line!r}", lineno)
        if any(not 0 <= d < k for d in sym):
            raise AutFileError(f"digit out of range for base {k} in {line!r}", lineno)
        key = (src, sym_index(sym, k))
        if key in moves and moves[key] != dst:
            raise AutFileError(f"conflicting transition in {line!r}", lineno)
        moves[key] = dst

    complete = len(moves) == n * s_count
    total = n if complete else n + 1
    if total > limit:
        raise StateLimitError(f"the machine has {total} states, more than CRITEX_MAX_STATES={limit}")
    # a missing move goes to state n, the dead state when the table is incomplete
    rows = [[moves.get((s, c), n) for c in range(s_count)] for s in range(total)]

    if kind == "dfa":
        accepting: set[int] = set()
        if "accepting" in header and header["accepting"]:
            for tok in header["accepting"].split():
                try:
                    q = int(tok)
                except ValueError:
                    raise AutFileError(f"bad accepting state {tok!r}") from None
                if not 0 <= q < n:
                    raise AutFileError(f"accepting state {q} out of range")
                accepting.add(q)
        return Dfa(k, tracks, rows, accepting, initial)

    out_raw = need("output")
    outputs: dict[int, str] = {}
    for tok in out_raw.split():
        if ":" not in tok:
            raise AutFileError(f"bad output entry {tok!r}")
        qs, sym = tok.split(":", 1)
        try:
            q = int(qs)
        except ValueError:
            raise AutFileError(f"bad output state {qs!r}") from None
        if not 0 <= q < n:
            raise AutFileError(f"output state {q} out of range")
        if q in outputs:
            raise AutFileError(f"output state {q} listed twice")
        outputs[q] = sym
    if set(outputs) != set(range(n)):
        missing = sorted(set(range(n)) - set(outputs))
        raise AutFileError(f"output map not total; missing states {missing}")
    if not complete:
        raise AutFileError("a dfao needs a total transition table (no implicit dead state)")
    return Dfao(k, tracks, rows, [outputs[q] for q in range(n)], initial)


def serialize_automaton(m: Dfa | Dfao) -> str:
    kind = "dfao" if isinstance(m, Dfao) else "dfa"
    lines = [
        MAGIC,
        f"base: {m.k}",
        f"tracks: {m.tracks}",
        f"kind: {kind}",
        f"order: {m.order}",
        f"states: {m.num_states}",
        f"initial: {m.initial}",
    ]
    if kind == "dfa":
        lines.append("accepting: " + " ".join(str(q) for q in sorted(m.accept)))
    else:
        for q, out in enumerate(m.output):
            # the parser splits the output line at whitespace and cuts it at '#'
            if re.search(r"[\s#]", out):
                raise AutFileError(f"output symbol {out!r} of state {q} holds whitespace or '#'")
        lines.append("output: " + " ".join(f"{q}:{m.output[q]}" for q in range(m.num_states)))
    syms = symbols(m.k, m.tracks)
    for s in range(m.num_states):
        for c, t in enumerate(m.trans[s]):
            digs = ",".join(str(d) for d in syms[c])
            lines.append(f"trans: {s} [{digs}] -> {t}")
    return "\n".join(lines) + "\n"


def load_automaton(path: str) -> Dfa | Dfao:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise AutFileError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    try:
        return parse_automaton(text)
    except StateLimitError as exc:
        raise StateLimitError(f"{path}: {exc}") from None


def save_automaton(path: str, m: Dfa | Dfao) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_automaton(m))
