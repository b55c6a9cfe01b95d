"""Brute-force ground truth: prefix generation and window scans.

These are deliberately naive (direct longest-extension comparisons, plain
enumeration) so they can be trusted as independent checks on the automata
pipelines.  Scans are lower bounds on the infinite-word quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .automaton import Dfa, Dfao, enumerate_accepted
from .numeral import ratio


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class PrefixSample:
    """The first n outputs of a sequence, as output tokens."""

    symbols: tuple[str, ...]
    source_states: int

    def __len__(self) -> int:
        return len(self.symbols)

    def text(self) -> str:
        return "".join(self.symbols)


def sequence_prefix(a: Dfao, n: int) -> PrefixSample:
    """Exact first n outputs; state(i) extends state(i // k) by one digit."""
    if n < 0:
        raise OracleError("prefix length must be nonnegative")
    states = [0] * max(n, 1)
    states[0] = a.initial
    out = []
    if n > 0:
        out.append(a.output[a.initial])
    k = a.k
    trans = a.trans
    for i in range(1, n):
        states[i] = trans[states[i // k]][i % k]
        out.append(a.output[states[i]])
    return PrefixSample(tuple(out), a.num_states)


@dataclass(frozen=True)
class ScanWitness:
    position: int
    length: int
    period: int


def scan_max_exponent(sample: PrefixSample, max_period: int) -> tuple[Fraction, ScanWitness]:
    """Largest |w|/p over factors w of the sample with a period p <= max_period.

    Witness ties break first by position, then by smaller period.
    """
    if max_period < 1:
        raise OracleError("max_period must be >= 1")
    s = sample.symbols
    n = len(s)
    best = Fraction(0)
    best_wit = None
    for p in range(1, min(max_period, n) + 1):
        run = 0  # matches extending right from position i: s[i] == s[i+p]
        for i in range(n - p - 1, -1, -1):
            run = run + 1 if s[i] == s[i + p] else 0
            length = p + run
            exp = Fraction(length, p)
            if exp > best or (
                exp == best
                and best_wit is not None
                and (i, p) < (best_wit.position, best_wit.period)
            ):
                best = exp
                best_wit = ScanWitness(i, length, p)
        if best_wit is None and n >= p:
            best = Fraction(1)
            best_wit = ScanWitness(0, p, p)
    if best_wit is None:
        raise OracleError("sample too short to contain any factor")
    return best, best_wit


def scan_ice(sample: PrefixSample) -> Fraction:
    """Largest exponent over the sample's prefixes (length / least period)."""
    s = sample.symbols
    n = len(s)
    if n == 0:
        raise OracleError("empty sample has no prefixes")
    best = Fraction(1)
    for p in range(1, n + 1):
        if Fraction(n, p) <= best:
            break
        run = 0
        while p + run < n and s[run] == s[run + p]:
            run += 1
        # the longest prefix with period p has length p + run
        cand = Fraction(p + run, p)
        if cand > best:
            best = cand
    return best


def scan_recurrence(sample: PrefixSample, max_len: int) -> Fraction:
    """Largest gap/length ratio between consecutive factor occurrences.

    A lower bound for the optimal linear-recurrence constant.  Gaps whose
    earlier occurrence starts inside the trailing guard window (length
    scaled by the running maximum ratio) are discarded to avoid truncation
    bias at the sample edge.
    """
    if max_len < 1:
        raise OracleError("max_len must be >= 1")
    s = sample.symbols
    n = len(s)
    best = Fraction(0)
    for ell in range(1, min(max_len, n) + 1):
        last: dict[tuple, int] = {}
        gaps: list[tuple[int, int]] = []  # (start of earlier occurrence, gap)
        for i in range(n - ell + 1):
            w = s[i : i + ell]
            prev = last.get(w)
            if prev is not None:
                gaps.append((prev, i - prev))
            last[w] = i
        if not gaps:
            continue
        rough = max(g for _, g in gaps)
        guard = n - ell * max(1, -(-rough // ell))
        kept = [g for start, g in gaps if start < guard] or [g for _, g in gaps]
        cand = Fraction(max(kept), ell)
        if cand > best:
            best = cand
    return best


def brute_quo_profile(L: Dfa, max_len: int) -> list[Fraction]:
    """Quotient of every accepted word with a nonzero denominator track,
    in length-then-lex word order.  Exponential; small machines only."""
    out = []
    for word in enumerate_accepted(L, max_len):
        if word.value(1) != 0:
            out.append(ratio(word))
    return out
