"""Command-line front end.

    critex exponent <file> --which critical|c1|c2|ice1|ice2|dio [--json]
    critex recurrence <file> [--json]
    critex sup <file> [--json]
    critex special <file> [--json]
    critex eval <file> --formula <text> [--vars q,p] [--dump <file>] [--json]
    critex oracle {prefix|scan|ice|recurrence|quo} <file> [--n N] [--max-period P] [--json]

Exit codes: 0 success, 2 input/parse error, 3 precondition violation,
4 internal invariant breach or resource limit (the state cap, or memory).
A reader that closes the output early (`critex ... | head`) is not an
error: the command still exits 0.

All numeric output is exact: reduced fractions rendered "num/den", or the
literal "inf".  CRITEX_MAX_STATES bounds intermediate machines (default
10**6); a value that is not a positive integer is an input error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import exponents, oracle
from .autfile import AutFileError, load_automaton, save_automaton
from .automaton import AutomatonError, Dfa, Dfao, InvariantError, PumpDecomposition, StateLimitError, state_limit
from .logic import CompilationEnv, FormulaError, compile_formula, free_vars, parse
from .numeral import DigitWord, NumeralError, RadixContext
from .quotient import (
    EmptyLanguageError,
    FiniteLanguageError,
    QuotientError,
    largest_limit_quotient,
    sup_quo,
)
from .rational import fmt_value

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    pass


@dataclass
class RunReport:
    command: str
    digest: str
    values: dict = field(default_factory=dict)
    attained: bool | None = None
    witness: str | None = None
    sizes: dict = field(default_factory=dict)
    time_ms: int = 0

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "input_digest": self.digest,
            "values": self.values,
            "attained": self.attained,
            "witness": self.witness,
            "sizes": self.sizes,
            "time_ms": self.time_ms,
        }
        return json.dumps(payload, sort_keys=True)

    def to_text(self) -> str:
        main = " ".join(f"{k}={v}" for k, v in self.values.items())
        if self.attained is not None:
            main += f" attained={'true' if self.attained else 'false'}"
        lines = [main]
        if self.witness is not None:
            lines.append(f"witness: {self.witness}")
        if self.sizes:
            lines.append("sizes: " + " ".join(f"{k}={v}" for k, v in self.sizes.items()))
        lines.append(f"time-ms: {self.time_ms}")
        return "\n".join(lines)


def _load(path: str) -> tuple[Dfa | Dfao, str]:
    """The machine in the file at path and the sha256 of the bytes it was
    parsed from; the file is read once."""
    with open(path, "rb") as fh:
        data = fh.read()
    return load_automaton(path, data), hashlib.sha256(data).hexdigest()


def render_witness(w) -> str | None:
    if w is None:
        return None
    if isinstance(w, DigitWord):
        if w.tracks == 2:
            return f"word {w} pair=({w.value(0)},{w.value(1)})"
        return f"word {w}"
    if isinstance(w, PumpDecomposition):
        return (
            f"pump u={w.u} v={w.v} loop_state={w.loop_state} "
            f"increments=({w.inc1},{w.inc2})"
        )
    return str(w)


def _load_dfao(path: str) -> tuple[Dfao, str]:
    m, digest = _load(path)
    if not isinstance(m, Dfao):
        raise InputError(f"{path} holds a dfa; a sequence automaton (dfao) is required")
    if m.tracks != 1:
        raise InputError(f"{path}: a sequence automaton reads 1 track, found {m.tracks}")
    if not m.is_zero_invariant():
        raise InputError(
            f"{path}: sequence automaton is not leading-zero invariant; "
            "its outputs depend on padding"
        )
    return m, digest


def _load_pairs(path: str) -> tuple[Dfa, str]:
    m, digest = _load(path)
    if not isinstance(m, Dfa):
        raise InputError(f"{path} holds a dfao; a 2-track acceptor is required")
    if m.tracks != 2:
        raise InputError(f"{path}: expected 2 tracks, found {m.tracks}")
    return m, digest


def cmd_exponent(args) -> RunReport:
    a, digest = _load_dfao(args.file)
    report = RunReport(command=_echo(args), digest=digest)
    res = exponents.compute_measure(a, args.which)
    report.values["measure"] = args.which
    report.values["value"] = fmt_value(res.value)
    report.attained = res.attained
    report.witness = render_witness(res.witness)
    report.sizes["pair_language_states"] = res.pair_dfa.num_states
    return report


def cmd_recurrence(args) -> RunReport:
    a, digest = _load_dfao(args.file)
    report = RunReport(command=_echo(args), digest=digest)
    rep = exponents.linear_recurrence(a)
    report.values["linearly-recurrent"] = "true" if rep.linearly_recurrent else "false"
    if rep.linearly_recurrent:
        report.values["value"] = fmt_value(rep.constant)
        report.attained = rep.attained
        report.witness = render_witness(rep.witness)
    else:
        report.values["reason"] = rep.reason
        if rep.constant is not None:
            report.values["value"] = fmt_value(rep.constant)
    if rep.pair_dfa is not None:
        report.sizes["gap_language_states"] = rep.pair_dfa.num_states
    return report


def cmd_sup(args) -> RunReport:
    L, digest = _load_pairs(args.file)
    report = RunReport(command=_echo(args), digest=digest)
    res = sup_quo(L, RadixContext(L.k))
    report.values["value"] = fmt_value(res.value)
    report.attained = res.attained
    report.witness = render_witness(res.witness)
    report.sizes["input_states"] = L.num_states
    return report


def cmd_special(args) -> RunReport:
    L, digest = _load_pairs(args.file)
    report = RunReport(command=_echo(args), digest=digest)
    value, pump = largest_limit_quotient(L, RadixContext(L.k))
    report.values["value"] = fmt_value(value)
    report.witness = render_witness(pump)
    report.sizes["input_states"] = L.num_states
    return report


def cmd_eval(args) -> RunReport:
    a, digest = _load_dfao(args.file)
    report = RunReport(command=_echo(args), digest=digest)
    f = parse(args.formula)
    declared = tuple(v.strip() for v in args.vars.split(",") if v.strip()) if args.vars else ()
    fv = free_vars(f)
    if not fv:
        given = [opt for opt, val in (("--vars", args.vars), ("--dump", args.dump)) if val]
        if given:
            raise InputError(f"a closed formula takes no {' or '.join(given)}")
        env = CompilationEnv((), a, RadixContext(a.k))
        out = compile_formula(f, env)
        report.values["sentence"] = "true" if out else "false"
        return report
    if not declared:
        raise InputError(f"open formula: declare the track order with --vars (free: {sorted(fv)})")
    env = CompilationEnv(declared, a, RadixContext(a.k))
    machine = compile_formula(f, env)
    if not isinstance(machine, Dfa):
        raise InvariantError("an open formula compiled to a truth value")
    report.values["free-vars"] = ",".join(declared)
    report.sizes["compiled_states"] = machine.num_states
    if args.dump:
        save_automaton(args.dump, machine)
        report.values["dumped"] = args.dump
    else:
        report.values["dumped"] = "(no --dump file given; machine discarded)"
    return report


def cmd_oracle(args) -> RunReport:
    sub = args.oracle_cmd
    if sub == "quo":
        if args.n is not None and args.n < 0:
            raise InputError("--n must be nonnegative")
        L, digest = _load_pairs(args.file)
        report = RunReport(command=_echo(args), digest=digest)
        values = oracle.brute_quo_profile(L, args.n if args.n is not None else 8)
        report.values["count"] = str(len(values))
        report.values["max"] = fmt_value(max(values)) if values else "none"
        return report
    a, digest = _load_dfao(args.file)
    report = RunReport(command=_echo(args), digest=digest)
    n = args.n if args.n is not None else 1 << 14
    sample = oracle.sequence_prefix(a, n)
    if sub == "prefix":
        report.values["n"] = str(n)
        report.values["prefix"] = sample.text()
        return report
    if sub == "scan":
        max_period = args.max_period if args.max_period is not None else 64
        value, wit = oracle.scan_max_exponent(sample, max_period)
        report.values["value"] = fmt_value(value)
        report.witness = f"position={wit.position} length={wit.length} period={wit.period}"
        return report
    if sub == "ice":
        report.values["value"] = fmt_value(oracle.scan_ice(sample))
        return report
    if sub == "recurrence":
        max_len = args.max_period if args.max_period is not None else 8
        report.values["value"] = fmt_value(oracle.scan_recurrence(sample, max_len))
        return report
    raise InputError(f"unknown oracle subcommand {sub!r}")


def _echo(args) -> str:
    return " ".join(args.raw_argv)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; `main` dispatches on its `command`."""
    p = argparse.ArgumentParser(prog="critex", description="Exact repetition measures of automatic sequences.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="automaton file")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("exponent", help="repetition measures of a sequence automaton")
    common(sp)
    sp.add_argument("--which", default="critical", choices=list(exponents.MEASURES))

    sp = sub.add_parser("recurrence", help="linear recurrence and its optimal constant")
    common(sp)

    sp = sub.add_parser("sup", help="supremum of the pair quotient of a 2-track acceptor")
    common(sp)

    sp = sub.add_parser("special", help="largest limit value of the pair quotient")
    common(sp)

    sp = sub.add_parser("eval", help="evaluate or compile a predicate over a sequence")
    common(sp)
    sp.add_argument("--formula", required=True)
    sp.add_argument("--vars", default="", help="comma list fixing the track order of free variables")
    sp.add_argument("--dump", default="", help="write the compiled acceptor here")

    sp = sub.add_parser("oracle", help="brute-force scans for cross-checking")
    sp.add_argument("oracle_cmd", choices=["prefix", "scan", "ice", "recurrence", "quo"])
    common(sp)
    sp.add_argument("--n", type=int, default=None, help="prefix length (or word length bound for quo)")
    sp.add_argument("--max-period", type=int, default=None, help="scan window: max period / factor length")

    return p


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(raw)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    args.raw_argv = ["critex"] + raw
    try:
        state_limit()
    except AutomatonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    started = time.monotonic()
    try:
        report = globals()[f"cmd_{args.command}"](args)
    except (AutFileError, FormulaError, NumeralError, oracle.OracleError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EmptyLanguageError, FiniteLanguageError, exponents.ExponentError, QuotientError) as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (StateLimitError, InvariantError) as exc:
        print(f"internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("internal: out of memory", file=sys.stderr)
        return EXIT_INTERNAL
    except RecursionError:
        print("internal: nesting too deep (Python recursion limit exceeded)", file=sys.stderr)
        return EXIT_INTERNAL
    report.time_ms = int((time.monotonic() - started) * 1000)
    try:
        print(report.to_json() if args.json else report.to_text(), flush=True)
    except BrokenPipeError:
        # the reader has gone (`critex ... | head`); stdout now points at the
        # null device, so the flush at exit cannot fail a second time
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
