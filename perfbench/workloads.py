"""The three benchmark workloads: their inputs, their jobs and how each job's
output is rendered for comparison with the frozen expected results.

Every input is built from a fixed pool whose members are listed in
``expected.json``; the run seed only orders the pool.  Drawing a fresh subset
per seed was rejected: pair-solver jobs range from 15 ms to over a second, so
the run time of a few dozen random jobs varies by more than the regressions
the benchmark has to detect.

Importing this module does not import critex; ``Workload.setup`` does, so that
the set-up time includes the import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
WORK_DIR = ROOT / ".perfbench"

MEASURE_SEQUENCES = ("tm", "rs", "vtm", "period_doubling", "paperfolding")
MEASURES = ("critical", "c1", "c2", "ice1", "dio", "linear_recurrence")
FORMULA_FILES = {
    "tm": "fixtures/tm.dfao",
    "rs": "fixtures/rs.dfao",
    "vtm": "fixtures/vtm.dfao",
    "period_doubling": "fixtures/period_doubling.dfao",
}
BASE3 = "base3_digit_sum"

# Pair pool: prepared sizes must fall inside this band.
PAIR_BAND = (16, 48)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------- sequences


def paperfolding_value(n: int) -> int:
    """Regular paperfolding word at n: 1 iff the odd part of n+1 is 1 mod 4."""
    m = n + 1
    while m % 2 == 0:
        m //= 2
    return 1 if m % 4 == 1 else 0


def base3_digit_sum_value(n: int) -> int:
    """Sum of the base-3 digits of n, mod 3."""
    s = 0
    while n:
        s += n % 3
        n //= 3
    return s % 3


def build_measure_sequences() -> dict:
    from critex import sequences

    return {
        "tm": sequences.thue_morse(),
        "rs": sequences.rudin_shapiro(),
        "vtm": sequences.vtm(),
        "period_doubling": sequences.period_doubling(),
        "paperfolding": sequences.dfao_from_function(paperfolding_value, 2),
    }


def dfao_text(a) -> str:
    """The automaton file text of a 1-track sequence automaton."""
    lines = [
        "critex-automaton v1",
        f"base: {a.k}",
        "tracks: 1",
        "kind: dfao",
        "order: msd",
        f"states: {a.num_states}",
        f"initial: {a.initial}",
        "output: " + " ".join(f"{q}:{o}" for q, o in enumerate(a.output)),
    ]
    for s, row in enumerate(a.trans):
        for d, t in enumerate(row):
            lines.append(f"trans: {s} [{d}] -> {t}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- pair pool


def comparator_rows(P: int, Q: int, relation: str, k: int = 2) -> tuple[list[list[int]], set[int]]:
    """2-track MSD machine accepting (p, q) with p*Q <relation> q*P, for the
    relations "<=", "==" and ">".

    Tracks the running difference D = Q*p - P*q; once D >= max(P, 1) it can
    never come back to <= 0, and once D <= -Q it can never become positive.
    """
    signs = {"<=": {"neg", "zero"}, "==": {"zero"}, ">": {"pos"}}[relation]
    syms = [(a, b) for a in range(k) for b in range(k)]
    index, states, rows = {0: 0}, [0], []
    i = 0
    while i < len(states):
        d = states[i]
        i += 1
        row = []
        for a, b in syms:
            nd = d if isinstance(d, str) else k * d + Q * a - P * b
            if not isinstance(nd, str):
                nd = "pos" if nd >= max(P, 1) else ("neg" if nd <= -Q else nd)
            if nd not in index:
                index[nd] = len(states)
                states.append(nd)
            row.append(index[nd])
        rows.append(row)

    def sign(d):
        return d if isinstance(d, str) else ("zero" if d == 0 else ("pos" if d > 0 else "neg"))

    return rows, {j for j, d in enumerate(states) if sign(d) in signs}


def product_rows(ra, acc_a, rb, acc_b, start=(0, 0)):
    """Reachable intersection of two complete machines given as row lists."""
    index = {start: 0}
    pairs = [start]
    rows = []
    i = 0
    while i < len(pairs):
        sa, sb = pairs[i]
        i += 1
        row = []
        for c in range(len(ra[sa])):
            key = (ra[sa][c], rb[sb][c])
            if key not in index:
                index[key] = len(pairs)
                pairs.append(key)
            row.append(index[key])
        rows.append(row)
    accept = {j for j, (sa, sb) in enumerate(pairs) if sa in acc_a and sb in acc_b}
    return rows, accept


def pair_candidate(seed: int) -> tuple[list[list[int]], list[int], Fraction]:
    """One seeded random 2-track acceptor over base 2, intersected with the
    seeded comparator p*Q <= P*q so that its quotient supremum is finite.

    A third of the moves go to a dead state, which keeps the languages sparse
    enough that the supremum is often not the threshold itself.
    """
    rng = random.Random(f"pairs-{seed}")
    n = rng.randint(6, 20)
    dead = n
    raw = [[dead if rng.random() < 0.4 else rng.randrange(n) for _ in range(4)] for _ in range(n)]
    raw.append([dead] * 4)
    raw_acc = {s for s in range(n) if rng.random() < 0.3} or {0}
    Q = rng.randint(1, 8)
    P = rng.randint(Q, 4 * Q)
    crow, cacc = comparator_rows(P, Q, "<=")
    rows, accept = product_rows(raw, raw_acc, crow, cacc)
    return rows, sorted(accept), Fraction(P, Q)


# -------------------------------------------------------------- formula pool

# (name, formula pattern, free variables).  Windows and shifts stay small and
# constants stay below 2**12: a window such as j < 1521 costs a minute.
FORMULA_TEMPLATES = (
    ("lookup", "E i . i = {C} & seq[i] = {D}", ""),
    ("shift", "seq[n] = seq[n + {S}]", "n"),
    ("window", "A j . j < {W} -> seq[i + j] = seq[i + j + {S}]", "i"),
    ("factor_eq", "A j . j < {W} -> seq[i + j] = seq[m + j]", "i,m"),
    ("tail", "n >= {C} & seq[n] = {D}", "n"),
    ("occurs_by", "E i . i <= {C} & (A j . j < {W} -> seq[i + j] = seq[n + j])", "n"),
    ("local_period", "E p . p >= 1 & p <= {S} & (A j . j < {W} -> seq[i + j] = seq[i + j + p])", "i"),
    ("gap", "E i . i + {S} = n & seq[i] = seq[n]", "n"),
)
FORMULA_SEQUENCES = ("tm", "rs", "vtm", "period_doubling", BASE3)
SEQUENCE_ALPHABETS = {"tm": "01", "rs": "01", "vtm": "012", "period_doubling": "01", BASE3: "012"}


def formula_candidate(seed: int) -> dict:
    """One seeded `critex eval` command: sequence, template and parameters."""
    rng = random.Random(f"formulas-{seed}")
    name, pattern, free = FORMULA_TEMPLATES[seed % len(FORMULA_TEMPLATES)]
    seq = rng.choice(FORMULA_SEQUENCES)
    params = {
        "C": int(2 ** rng.uniform(0, 12)),
        "S": rng.randint(1, 24),
        "W": rng.randint(1, 12),
        "D": rng.choice(SEQUENCE_ALPHABETS[seq]),
    }
    if name == "occurs_by":
        params["C"] = min(params["C"], 1024)
    return {
        "template": name,
        "sequence": seq,
        "formula": pattern.format(**params),
        "vars": free,
        "params": params,
    }


# ----------------------------------------------------------------- rendering


def fmt_value(v) -> str:
    """Exact rational as "p/q" (or "p"), the infinite value as "inf"."""
    return str(v) if isinstance(v, Fraction) else "inf"


def _symbols_text(word) -> str:
    return "".join("[" + ",".join(str(d) for d in sym) + "]" for sym in word.symbols) or "eps"


def render_witness(w) -> str | None:
    if w is None:
        return None
    if hasattr(w, "loop_state"):
        return (
            f"pump u={_symbols_text(w.u)} v={_symbols_text(w.v)} "
            f"loop_state={w.loop_state} inc=({w.inc1},{w.inc2})"
        )
    return "word " + _symbols_text(w)


def machine_digest(m) -> str:
    """Digest of a machine's exact structure (numbering included)."""
    text = repr((m.k, m.tracks, m.order, m.initial, m.trans, sorted(m.accept)))
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------- workloads


@dataclass
class Job:
    key: str  # stable id into expected.json
    spec: object  # whatever the workload needs to run the job


class Workload:
    """Set-up builds the inputs; `run(job)` is the timed call; `render` turns
    its return value into the text compared with expected.json."""

    name = ""

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.expected = expected[self.name]

    def keys(self) -> list[str]:
        keys = sorted(self.expected)
        random.Random(f"{self.name}-order-{self.seed}").shuffle(keys)
        return keys

    def setup(self) -> list[Job]:
        raise NotImplementedError

    def run(self, job: Job):
        raise NotImplementedError

    def render(self, job: Job, out) -> dict:
        raise NotImplementedError

    def input_bytes(self, jobs: list[Job]) -> bytes:
        """Canonical bytes of what the program is given, in order."""
        raise NotImplementedError

    def groups(self) -> list[list[str]]:
        """The job list, as keys, cut into parts that share no memo; each
        part runs in its own interpreter."""
        return [self.keys()]

    def cleanup(self) -> None:
        """Remove the files set-up and the jobs wrote."""


class Measures(Workload):
    """Library sweep: every measure of every sequence, through the public
    pipeline functions, one interpreter per sequence.  Compile-bound."""

    name = "measures"

    def keys(self) -> list[str]:
        """Sequences in seeded order, each with its measures in a fixed order
        (critical and c2 share one compiled period language; critical pays)."""
        seqs = sorted({key.split("/")[0] for key in self.expected})
        random.Random(f"{self.name}-order-{self.seed}").shuffle(seqs)
        return [f"{s}/{m}" for s in seqs for m in MEASURES if f"{s}/{m}" in self.expected]

    def groups(self) -> list[list[str]]:
        """One group per sequence.  Memos are keyed by sequence, so nothing
        is lost, and a job's latency no longer depends on which sequences
        ran before it in the process: after rs's 111k-subset construction
        the heap has grown and small jobs run markedly faster."""
        out: dict[str, list[str]] = {}
        for key in self.keys():
            out.setdefault(key.split("/")[0], []).append(key)
        return list(out.values())

    def setup(self) -> list[Job]:
        from critex import exponents

        self.exponents = exponents
        seqs = build_measure_sequences()
        return [Job(key, (seqs[key.split("/")[0]], key.split("/")[1])) for key in self.keys()]

    def run(self, job: Job):
        a, measure = job.spec
        ex = self.exponents
        if measure == "critical":
            return ex.critical_exponent(a)
        if measure == "c1":
            return ex.recurrent_critical_exponent(a)
        if measure == "c2":
            return ex.special_exponent(a)
        if measure == "ice1":
            return ex.initial_critical_exponents(a)
        if measure == "dio":
            return ex.diophantine_exponent(a)
        return ex.linear_recurrence(a)

    def render(self, job: Job, out) -> dict:
        measure = job.spec[1]
        if measure == "linear_recurrence":
            return {
                "linearly_recurrent": out.linearly_recurrent,
                "reason": out.reason,
                "value": None if out.constant is None else fmt_value(out.constant),
                "attained": out.attained,
                "witness": render_witness(out.witness),
                "pairs": None if out.pair_dfa is None else machine_digest(out.pair_dfa),
            }
        if measure == "ice1":
            ice1, ice2 = out
            return {
                "value": fmt_value(ice1.value),
                "attained": ice1.attained,
                "witness": render_witness(ice1.witness),
                "ice2": fmt_value(ice2.value),
                "ice2_witness": render_witness(ice2.witness),
                "pairs": machine_digest(ice1.pair_dfa),
            }
        return {
            "value": fmt_value(out.value),
            "attained": out.attained,
            "witness": render_witness(out.witness),
            "pairs": machine_digest(out.pair_dfa),
        }

    def input_bytes(self, jobs: list[Job]) -> bytes:
        return "\n".join(job.key for job in jobs).encode()


class Pairs(Workload):
    """Solver sweep over seeded comparator-bounded acceptors: `sup_quo` then
    `largest_limit_quotient`, as the `sup` and `special` commands do.
    Bypasses formula compilation."""

    name = "pairs"

    def setup(self) -> list[Job]:
        from critex.automaton import Dfa
        from critex.numeral import RadixContext
        from critex import quotient

        self.quotient = quotient
        self.ctx = RadixContext(2)
        jobs = []
        for key in self.keys():
            rows, accept, _ = pair_candidate(int(key))
            jobs.append(Job(key, Dfa(2, 2, rows, accept, 0)))
        return jobs

    def run(self, job: Job):
        q = self.quotient
        return q.sup_quo(job.spec, self.ctx), q.largest_limit_quotient(job.spec, self.ctx)

    def render(self, job: Job, out) -> dict:
        sup, (limit, pump) = out
        return {
            "sup": fmt_value(sup.value),
            "attained": sup.attained,
            "witness": render_witness(sup.witness),
            "limit": fmt_value(limit),
            "limit_witness": render_witness(pump),
        }

    def input_bytes(self, jobs: list[Job]) -> bytes:
        return repr([(j.key, j.spec.trans, sorted(j.spec.accept)) for j in jobs]).encode()


class Formulas(Workload):
    """Hundreds of `critex eval ... --json --dump` commands, run in-process
    through `cli.main`.  Thousands of tiny compiles; per-call overhead bound."""

    name = "formulas"

    def setup(self) -> list[Job]:
        from critex import cli, sequences

        self.cli = cli
        self.tmp = WORK_DIR / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        base3 = self.tmp / f"{BASE3}.dfao"
        base3.write_text(dfao_text(sequences.dfao_from_function(base3_digit_sum_value, 3)))
        files = {name: str(ROOT / path) for name, path in FORMULA_FILES.items()}
        files[BASE3] = str(base3)
        jobs = []
        for i, key in enumerate(self.keys()):
            entry = self.expected[key]
            argv = ["eval", files[entry["sequence"]], "--formula", entry["formula"], "--json"]
            if entry["vars"]:
                argv += ["--vars", entry["vars"], "--dump", str(self.tmp / f"dump-{i}.txt")]
            jobs.append(Job(key, argv))
        return jobs

    def run(self, job: Job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(job.spec)
        return code, out.getvalue(), err.getvalue()

    def render(self, job: Job, out) -> dict:
        code, stdout, stderr = out
        if code != 0:
            return {"exit": code, "stderr": stderr.strip()}
        report = json.loads(stdout)
        got = {"exit": 0}
        if "sentence" in report["values"]:
            got["sentence"] = report["values"]["sentence"]
        else:
            dump = job.spec[job.spec.index("--dump") + 1]
            with open(dump, "rb") as fh:
                got["sha256"] = hashlib.sha256(fh.read()).hexdigest()
            got["states"] = report["sizes"]["compiled_states"]
        return got

    def input_bytes(self, jobs: list[Job]) -> bytes:
        files = sorted({j.spec[1] for j in jobs})
        blob = b"".join(Path(f).read_bytes() for f in files)
        argv = repr([j.spec for j in jobs]).replace(str(self.tmp), "<tmp>").replace(str(ROOT), "<root>")
        return blob + argv.encode()

    def cleanup(self) -> None:
        for p in self.tmp.glob("*"):
            p.unlink()
        self.tmp.rmdir()


WORKLOADS = {w.name: w for w in (Measures, Pairs, Formulas)}
