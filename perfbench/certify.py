"""Independent cross-checks of the frozen expected results.

None of these checks uses the Stern-Brocot search or the formula compiler:

* measures: an attained critical exponent or initial critical exponent is
  realised by a real factor (prefix) of the sequence's 2**14 prefix, and the
  brute-force window scans of `critex.oracle` find the same value;
* pairs: comparator-product certificates built here from scratch (nothing
  above the supremum, attainment iff something sits exactly on it, only
  finitely many words above the next multiple of 1/64 past the largest
  limit value) plus verification of every witness word and pump;
* formulas: the dumped machine is compared with a direct evaluation of the
  template over small values, and a closed lookup with the sequence rule.

Each check raises CertificateError naming what failed.
"""

from __future__ import annotations

import re
from fractions import Fraction

import workloads as wl


class CertificateError(AssertionError):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CertificateError(what)


def parse_value(text: str):
    return None if text == "inf" else Fraction(text)


def parse_word(text: str) -> list[tuple[int, ...]]:
    if text == "eps":
        return []
    return [tuple(int(d) for d in sym.split(",")) for sym in re.findall(r"\[([0-9,]+)\]", text)]


def word_values(word, k: int = 2) -> tuple[int, ...]:
    vals = [0] * (len(word[0]) if word else 2)
    for sym in word:
        vals = [v * k + d for v, d in zip(vals, sym)]
    return tuple(vals)


def parse_pump(text: str):
    m = re.fullmatch(r"pump u=(\S+) v=(\S+) loop_state=(\d+) inc=\((\d+),(\d+)\)", text)
    _require(m is not None, f"unreadable pump witness {text!r}")
    return parse_word(m.group(1)), parse_word(m.group(2)), (int(m.group(4)), int(m.group(5)))


# ------------------------------------------------------------------ measures


def sequence_rule(name: str):
    """n -> output symbol, from each sequence's defining rule."""
    from critex import sequences

    rules = {
        "tm": lambda n: bin(n).count("1") & 1,
        "rs": lambda n: sum(1 for i in range(n.bit_length()) if (n >> i) & 3 == 3) & 1,
        "vtm": sequences.vtm_value,
        "period_doubling": sequences.period_doubling_value,
        "paperfolding": wl.paperfolding_value,
        wl.BASE3: wl.base3_digit_sum_value,
    }
    rule = rules[name]
    return lambda n: str(rule(n))


def check_measure(seq: str, measure: str, got: dict, prefix_len: int = 1 << 14) -> None:
    """Attained critical / ice1 values against a real factor and the oracle."""
    if measure not in ("critical", "ice1") or not got["attained"]:
        return
    from critex import oracle

    rule = sequence_rule(seq)
    s = [rule(n) for n in range(prefix_len)]
    value = Fraction(got["value"])
    length, period = word_values(parse_word(got["witness"].removeprefix("word ")))
    _require(Fraction(length, period) == value, f"{seq}/{measure}: witness ratio differs from the value")
    sample = oracle.PrefixSample(tuple(s), 0)
    if measure == "critical":
        found = any(
            all(s[i + j] == s[i + j + period] for j in range(length - period))
            for i in range(prefix_len - length)
        )
        _require(found, f"{seq}/critical: no factor of length {length} with period {period}")
        scanned, _ = oracle.scan_max_exponent(sample, 64)
        _require(scanned == value, f"{seq}/critical: the window scan finds {scanned}")
    else:
        _require(all(s[j] == s[j + period] for j in range(length - period)),
                 f"{seq}/ice1: the prefix of length {length} lacks period {period}")
        _require(oracle.scan_ice(sample) == value, f"{seq}/ice1: the prefix scan disagrees")


# --------------------------------------------------------------------- pairs


def canonical_rows(rows, accept, k: int = 2):
    """The language restricted to words that carry a nonzero denominator
    track and do not start with the all-zero symbol: one word per value pair."""
    # filter states: 0 start, 1 denominator still zero, 2 denominator nonzero, 3 dead
    frows, syms = [], [(a, b) for a in range(k) for b in range(k)]
    for st in range(4):
        row = []
        for a, b in syms:
            if st == 3 or (st == 0 and (a, b) == (0, 0)):
                row.append(3)
            elif st == 2 or b != 0:
                row.append(2)
            else:
                row.append(1)
        frows.append(row)
    return wl.product_rows(rows, set(accept), frows, {2})


def _reach(rows, start) -> set:
    seen, todo = {start}, [start]
    while todo:
        s = todo.pop()
        for t in rows[s]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _trim(rows, accept) -> set:
    """Reachable states from which an accepting state is reachable."""
    reach = _reach(rows, 0)
    back = {s: set() for s in range(len(rows))}
    for s in range(len(rows)):
        for t in rows[s]:
            back[t].add(s)
    co, todo = set(accept), list(accept)
    while todo:
        t = todo.pop()
        for s in back[t]:
            if s not in co:
                co.add(s)
                todo.append(s)
    return reach & co


def is_empty(rows, accept) -> bool:
    return not (_reach(rows, 0) & set(accept))


def is_infinite(rows, accept) -> bool:
    """Some cycle runs through trim states."""
    trim = _trim(rows, accept)
    color = {}
    for root in trim:
        if root in color:
            continue
        stack = [(root, iter(rows[root]))]
        color[root] = 1
        while stack:
            s, it = stack[-1]
            for t in it:
                if t not in trim:
                    continue
                if color.get(t) == 1:
                    return True
                if t not in color:
                    color[t] = 1
                    stack.append((t, iter(rows[t])))
                    break
            else:
                color[s] = 2
                stack.pop()
    return False


def _run(rows, word, start=0, k: int = 2):
    s = start
    for a, b in word:
        s = rows[s][a * k + b]
    return s


def _check_pump(rows, accept, pump_text: str, value: Fraction, what: str) -> None:
    """The pump's loop repeats in the canonical machine at a co-accessible
    state, and its increments give the claimed limit ratio."""
    u, v, (inc1, inc2) = parse_pump(pump_text)
    _require(len(v) >= 1, f"{what}: empty pumped block")
    pu, puv = word_values(u), word_values(u + v)
    _require((puv[0] - pu[0], puv[1] - pu[1]) == (inc1, inc2), f"{what}: increments do not match u and v")
    _require(inc2 > 0 and Fraction(inc1, inc2) == value, f"{what}: pump ratio differs from the value")
    trim = _trim(rows, accept)
    seen = {}
    s = _run(rows, u)
    while s not in seen:
        seen[s] = len(seen)
        s = _run(rows, v, s)
    _require(s in trim, f"{what}: the pump's loop is not co-accessible")


def check_pair(rows, accept, got: dict) -> None:
    crow, cacc = canonical_rows(rows, accept)
    sup, limit = parse_value(got["sup"]), parse_value(got["limit"])
    _require(sup is not None and limit is not None, "comparator-bounded languages have finite values")
    _require(limit <= sup, "the largest limit value exceeds the supremum")

    def meet(value, relation):
        r, a = wl.comparator_rows(value.numerator, value.denominator, relation)
        return wl.product_rows(crow, cacc, r, a)

    _require(is_empty(*meet(sup, ">")), f"an accepted word lies above the supremum {sup}")
    _require((not is_empty(*meet(sup, "=="))) == got["attained"], "attainment flag disagrees with the language")
    if got["attained"]:
        word = parse_word(got["witness"].removeprefix("word "))
        p, q = word_values(word)
        _require(_run(crow, word) in cacc, "the witness word is not accepted")
        _require(q != 0 and Fraction(p, q) == sup, "the witness word's quotient is not the supremum")
    else:
        _check_pump(crow, cacc, got["witness"], sup, "supremum pump")
    # Words above the limit itself may be infinitely many, with quotients
    # falling towards it; past the next point of the 1/64 grid they may not.
    ceiling = Fraction(int(limit * 64) + 1, 64)
    _require(not is_infinite(*meet(ceiling, ">")), f"infinitely many words lie above {ceiling}")
    _check_pump(crow, cacc, got["limit_witness"], limit, "limit pump")


# ------------------------------------------------------------------ formulas


def brute_formula(entry: dict):
    """Direct evaluation of one pool formula: a bool for a sentence, else a
    predicate on the free-variable values."""
    s = sequence_rule(entry["sequence"])
    C, S, W, D = (entry["params"][x] for x in "CSWD")

    def same(i, m):
        return all(s(i + j) == s(m + j) for j in range(W))

    return {
        "lookup": lambda: s(C) == D,
        "shift": lambda n: s(n) == s(n + S),
        "window": lambda i: same(i, i + S),
        "factor_eq": lambda i, m: same(i, m),
        "tail": lambda n: n >= C and s(n) == D,
        "occurs_by": lambda n: any(same(i, n) for i in range(C + 1)),
        "local_period": lambda i: any(same(i, i + p) for p in range(1, S + 1)),
        "gap": lambda n: n >= S and s(n - S) == s(n),
    }[entry["template"]]


def parse_dfa(text: str):
    k = int(re.search(r"^base: (\d+)$", text, re.M).group(1))
    n = int(re.search(r"^states: (\d+)$", text, re.M).group(1))
    tracks = int(re.search(r"^tracks: (\d+)$", text, re.M).group(1))
    rows = [[0] * k**tracks for _ in range(n)]
    for s, digs, t in re.findall(r"^trans: (\d+) \[([0-9,]+)\] -> (\d+)$", text, re.M):
        idx = 0
        for d in digs.split(","):
            idx = idx * k + int(d)
        rows[int(s)][idx] = int(t)
    accept = {int(x) for x in re.search(r"^accepting:(.*)$", text, re.M).group(1).split()}
    initial = int(re.search(r"^initial: (\d+)$", text, re.M).group(1))
    return k, rows, accept, initial


def check_formula(entry: dict, got: dict, dump_text: str | None, limit: int = 48) -> None:
    truth = brute_formula(entry)
    if not entry["vars"]:
        _require(got.get("sentence") == ("true" if truth() else "false"), "sentence value disagrees")
        return
    k, rows, accept, initial = parse_dfa(dump_text)
    _require(len(rows) == got["states"], "dumped machine size disagrees with the report")
    arity = len(entry["vars"].split(","))
    bound = limit if arity == 1 else 20
    points = [(n,) for n in range(bound)] if arity == 1 else [(i, m) for i in range(bound) for m in range(bound)]
    for point in points:
        digits = []
        for v in point:
            ds = []
            while v:
                ds.append(v % k)
                v //= k
            digits.append(ds)
        width = max(len(ds) for ds in digits) + 1  # one extra leading zero
        s = initial
        for pos in range(width - 1, -1, -1):
            idx = 0
            for ds in digits:
                idx = idx * k + (ds[pos] if pos < len(ds) else 0)
            s = rows[s][idx]
        _require((s in accept) == truth(*point), f"machine and direct evaluation differ at {point}")
