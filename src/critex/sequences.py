"""Built-in sequence automata: Thue-Morse, Rudin-Shapiro, the ternary
squarefree word and the period-doubling word, and the residual
classification that derives a Dfao from a rule n -> value.

The ternary squarefree word is derived, not hand-coded: its values come from
the two-bit sliding-block recoding of the parity-of-ones sequence, and the
automaton is grown by residual classification against that rule, then
verified symbol-by-symbol on a long prefix.  The classification evaluates the
rule once for each number it reads: the verified prefix is tabulated first,
and the probes and the check read that table.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, chain

from .automaton import Dfao
from .numeral import _check_base


class FixtureError(RuntimeError):
    pass


def thue_morse() -> Dfao:
    """Parity of the number of 1 digits in the binary expansion."""
    return Dfao(2, 1, [[0, 1], [1, 0]], ["0", "1"], 0)


def rudin_shapiro() -> Dfao:
    """Parity of the number of (possibly overlapping) 11 blocks in binary.

    States are (parity, previous digit).
    """
    states = [(0, 0), (0, 1), (1, 0), (1, 1)]
    idx = {s: i for i, s in enumerate(states)}
    trans = []
    for c, p in states:
        trans.append([idx[((c ^ (p & d)) & 1, d)] for d in (0, 1)])
    output = [str(c) for c, _ in states]
    return Dfao(2, 1, trans, output, idx[(0, 0)])


def _tm_bit(n: int) -> int:
    return bin(n).count("1") & 1


_BLOCK_CODE = {(0, 1): 2, (1, 1): 1, (1, 0): 0, (0, 0): 1}


def vtm_value(n: int) -> int:
    """Ternary squarefree word: block recoding of adjacent parity bits."""
    return _BLOCK_CODE[(_tm_bit(n), _tm_bit(n + 1))]


# residual classification: probe suffix depth, verified prefix, class limit
PROBE_LEN, VERIFY_N, MAX_STATES = 8, 1 << 14, 512


def dfao_from_function(fn, k: int) -> Dfao:
    """Grow the minimal Dfao of n -> fn(n) by residual classification.

    The state of a digit prefix v is the behavior x -> fn([v x]); it is probed
    on the blocks [v*k**l, (v+1)*k**l) for l = 0..PROBE_LEN, prefixes are
    merged when they agree on every probe, and more than MAX_STATES classes is
    a failure.  The rule is evaluated once for each number read: 0..VERIFY_N-1
    into a table, and for each probed prefix the part of its deepest block
    past the table; a child prefix v*k+d reads its shallower blocks out of
    v's.  The result is checked against the table, so a too-shallow probe
    fails there or not at all: the indicator of the squares is not automatic,
    yet it yields a 208-state machine that agrees with it below VERIFY_N and
    is first wrong at 38025 = 195**2.
    """
    _check_base(k, FixtureError)
    table = list(map(fn, range(VERIFY_N)))
    widths = [k**length for length in range(PROBE_LEN + 1)]
    # a signature lists its blocks l = 0..PROBE_LEN in turn; 1..PROBE_LEN start here
    starts = list(accumulate(widths[:-1]))

    def deepest(v: int) -> list:
        lo, hi = v * widths[-1], (v + 1) * widths[-1]
        return table[lo:hi] + list(map(fn, range(max(lo, VERIFY_N), hi)))

    root = deepest(0)
    sigs = [tuple(chain.from_iterable(root[:w] for w in widths))]
    sig2state: dict[tuple, int] = {sigs[0]: 0}
    reps: list[int] = [0]
    trans: list[list[int]] = []
    i = 0
    while i < len(reps):
        rep, parent = reps[i], sigs[i]
        i += 1
        row = []
        for d in range(k):
            child = rep * k + d
            if child == rep:  # the digit 0 read from the empty prefix
                sig = parent
            else:
                blocks = [parent[s + d * w : s + (d + 1) * w] for s, w in zip(starts, widths)]
                sig = tuple(chain(*blocks, deepest(child)))
            j = sig2state.get(sig)
            if j is None:
                j = len(reps)
                if j >= MAX_STATES:
                    raise FixtureError("residual classification did not converge; raise PROBE_LEN")
                sig2state[sig] = j
                reps.append(child)
                sigs.append(sig)
            row.append(j)
        trans.append(row)
    output = [str(sig[0]) for sig in sigs]
    # n >= 1 ends in the state its leading digits n // k reach, stepped by
    # its last digit n % k; 0 has no digits and stays in the initial state
    state = [0] * VERIFY_N
    for n in range(VERIFY_N):
        state[n] = trans[state[n // k]][n % k] if n else 0
        if output[state[n]] != str(table[n]):
            raise FixtureError(f"residual machine disagrees with the rule at {n}; raise PROBE_LEN")
    return Dfao(k, 1, trans, output, 0)


@cache
def vtm() -> Dfao:
    """2-automatic form of the ternary squarefree word, derived and verified."""
    return dfao_from_function(vtm_value, 2)


def period_doubling_value(n: int) -> int:
    """Parity of the 2-adic valuation of n+1."""
    m = n + 1
    v = 0
    while m % 2 == 0:
        m //= 2
        v ^= 1
    return v


@cache
def period_doubling() -> Dfao:
    """The period-doubling word 0100010101000100..., derived and verified."""
    return dfao_from_function(period_doubling_value, 2)

