"""Built-in sequence automata: Thue-Morse, Rudin-Shapiro, the ternary
squarefree word and the period-doubling word, and the residual
classification that derives a Dfao from a rule n -> value.

The ternary squarefree word is derived, not hand-coded: its values come from
the two-bit sliding-block recoding of the parity-of-ones sequence, and the
automaton is grown by residual classification against that rule, then
verified symbol-by-symbol on a long prefix.
"""

from __future__ import annotations

from functools import cache

from .automaton import Dfao


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

    The state of a digit prefix w is the behavior x -> fn([w x]); prefixes
    are merged when they agree on every probe suffix up to PROBE_LEN digits,
    and more than MAX_STATES classes is a failure.  The result is verified
    against fn on 0..VERIFY_N-1, so a too-shallow probe fails loudly instead
    of producing a wrong machine.
    """
    suffixes: list[tuple[int, int]] = []  # (length, value)
    frontier = [(0, 0)]
    suffixes.append((0, 0))
    for _ in range(PROBE_LEN):
        frontier = [(ln + 1, val * k + d) for ln, val in frontier for d in range(k)]
        suffixes.extend(frontier)

    def signature(prefix_val: int) -> tuple:
        return tuple(fn(prefix_val * k**ln + val) for ln, val in suffixes)

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
    dfao = Dfao(k, 1, trans, output, 0)
    for n in range(VERIFY_N):
        if dfao.value(n) != str(fn(n)):
            raise FixtureError(f"residual machine disagrees with the rule at {n}; raise PROBE_LEN")
    return dfao


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

