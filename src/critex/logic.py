"""First-order predicate compiler over natural-number position variables.

Formulas support addition terms, the six comparisons, sequence-value atoms
over a Dfao, the boolean connectives and E/A quantifiers.  Compilation lowers
terms through the addition relation, turns E into one `automaton.erase`
of the quantified track (a double reversal, det(rev(det(rev(N)))), run
straight on the machine's moves, which yields the minimal machine
directly), A into the double complement, and minimizes the result of every
other construction.  The track order of a
compiled machine is exactly the declared free-variable order, never inferred
from the formula.

An atom's auxiliary `_t` variables are quantified early (bucket
elimination): the atom is conjoined with its lowering parts one at a time,
greedily taking the part that leaves the fewest tracks, and each `_t`
variable is erased as soon as no remaining part mentions it.
`seq[i+j] = seq[i+p+j]` thus never builds a product wider than 4 tracks,
where conjoining every part first would build one of 6.  The order cannot
change the compiled machine: every conjunction and every erasure lands on
the canonical minimal machine of its language, and the language is the
same in any order.

Quantified subformulas are shared through one memo of every compiled E
and A node and every whole formula compile_formula returns.  Its key is the
node's shape with each variable renamed by first occurrence, a digest of
the sequence Dfao's content, the base and the CRITEX_MAX_STATES cap, plus
the declared track order for a whole formula.  The compiler reads names only
to tell variables apart and lands every node on its canonical minimal
machine, so a hit, its tracks mapped back to the caller's names, is exactly
what a fresh compile gives.

ASCII grammar (parse):

    formula := 'E' var ('<' term)? '.' formula | 'A' var ('<' term)? '.' formula
             | formula '|' formula | formula '&' formula | formula '->' formula
             | '~' formula | '(' formula ')' | atom
    atom    := term ('='|'!='|'<'|'<='|'>'|'>=') term
             | 'seq[' term ']' '=' ( 'seq[' term ']' | const )
    term    := var | const | term '+' term

Precedence: ~ > & > | > ->; quantifiers extend to the right maximally.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, fields

from . import arith
from .automaton import (
    Dfa,
    Dfao,
    InvariantError,
    complement,
    erase,
    is_empty,
    lift_tracks,
    minimize,
    product,
    state_limit,
)
from .numeral import RadixContext


class FormulaError(ValueError):
    pass


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CompileError(FormulaError):
    pass


# ---------------------------------------------------------------- AST


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


Term = Var | Const | Add


@dataclass(frozen=True)
class Cmp:
    op: str
    left: Term
    right: Term


@dataclass(frozen=True)
class SeqEq:
    left: Term
    right: Term


@dataclass(frozen=True)
class SeqConst:
    term: Term
    symbol: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Cmp | SeqEq | SeqConst | Not | And | Or | Implies | Exists | Forall


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Const):
        return set()
    return term_vars(t.left) | term_vars(t.right)


def free_vars(f: Formula) -> set[str]:
    if isinstance(f, Cmp):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, SeqEq):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, SeqConst):
        return term_vars(f.term)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    raise FormulaError(f"unknown node {f!r}")


def _check_scopes(f: Formula, active: frozenset, free_top: set[str]) -> None:
    if isinstance(f, (Exists, Forall)):
        if f.var in active:
            raise FormulaError(f"variable {f.var!r} shadows an enclosing binding")
        if f.var in free_top:
            raise FormulaError(f"variable {f.var!r} is both bound and free")
        _check_scopes(f.body, active | {f.var}, free_top)
    elif isinstance(f, Not):
        _check_scopes(f.body, active, free_top)
    elif isinstance(f, (And, Or, Implies)):
        _check_scopes(f.left, active, free_top)
        _check_scopes(f.right, active, free_top)


def validate_scopes(f: Formula) -> None:
    """No shadowing and no name both bound and free; sibling scopes may
    reuse a bound name (each binder projects its own track away)."""
    _check_scopes(f, frozenset(), free_vars(f))


# ---------------------------------------------------------------- parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<le><=)|(?P<ge>>=)|(?P<ne>!=)"
    r"|(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[=<>~&|().\[\]+]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise FormulaSyntaxError(f"unexpected character {rest[0]!r}", pos)
        pos = m.end()
        for kind in ("arrow", "le", "ge", "ne", "num", "ident", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
                break
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> Formula:
        f = self.formula()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise FormulaSyntaxError(f"trailing input starting with {val!r}", pos)
        validate_scopes(f)
        return f

    # precedence: -> (lowest, right assoc) < | < & < ~ (highest)
    def formula(self) -> Formula:
        left = self.or_level()
        kind, val, _ = self.peek()
        if kind == "arrow":
            self.next()
            right = self.formula()
            return Implies(left, right)
        return left

    def or_level(self) -> Formula:
        left = self.and_level()
        while True:
            kind, val, _ = self.peek()
            if val == "|":
                self.next()
                left = Or(left, self.and_level())
            else:
                return left

    def and_level(self) -> Formula:
        left = self.unary()
        while True:
            kind, val, _ = self.peek()
            if val == "&":
                self.next()
                left = And(left, self.unary())
            else:
                return left

    def unary(self) -> Formula:
        kind, val, pos = self.peek()
        if val == "~":
            self.next()
            return Not(self.unary())
        if kind == "ident" and val in ("E", "A"):
            return self.quantifier()
        if val == "(":
            # formula or term parenthesis: a '(' here always opens a formula
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        return self.atom()

    def quantifier(self) -> Formula:
        kind, quant, pos = self.next()
        kind, name, pos = self.next()
        if kind != "ident" or name in ("E", "A", "seq") or name.startswith("_"):
            raise FormulaSyntaxError("expected a variable name after quantifier", pos)
        bound_term = None
        k2, v2, _ = self.peek()
        if v2 == "<":
            self.next()
            bound_term = self.term()
        self.expect(".")
        body = self.formula()
        if quant == "E":
            if bound_term is not None:
                body = And(Cmp("<", Var(name), bound_term), body)
            return Exists(name, body)
        if bound_term is not None:
            body = Implies(Cmp("<", Var(name), bound_term), body)
        return Forall(name, body)

    def atom(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "ident" and val == "seq":
            self.next()
            self.expect("[")
            t = self.term()
            self.expect("]")
            self.expect("=")
            k2, v2, p2 = self.peek()
            if k2 == "ident" and v2 == "seq":
                self.next()
                self.expect("[")
                t2 = self.term()
                self.expect("]")
                return SeqEq(t, t2)
            if k2 == "num":
                self.next()
                return SeqConst(t, v2)
            raise FormulaSyntaxError("expected seq[...] or a constant after 'seq[...] ='", p2)
        left = self.term()
        kind, val, pos = self.next()
        ops = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
        if val not in ops:
            raise FormulaSyntaxError(f"expected a comparison operator, found {val or 'end of input'!r}", pos)
        right = self.term()
        return Cmp(ops[val], left, right)

    def term(self) -> Term:
        left = self.term_atom()
        while True:
            kind, val, _ = self.peek()
            if val == "+":
                self.next()
                left = Add(left, self.term_atom())
            else:
                return left

    def term_atom(self) -> Term:
        kind, val, pos = self.next()
        if kind == "num":
            return Const(int(val))
        if kind == "ident":
            if val in ("E", "A", "seq") or val.startswith("_"):
                raise FormulaSyntaxError(f"{val!r} is reserved", pos)
            return Var(val)
        raise FormulaSyntaxError(f"expected a term, found {val or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    """Parse DSL text into a Formula; raises FormulaSyntaxError with position."""
    return _Parser(text).parse()


# ---------------------------------------------------------------- compiler


@dataclass
class CompilationEnv:
    """Declared free-variable order (the output track order), subject Dfao, base."""

    free_vars: tuple[str, ...]
    dfao: Dfao | None
    ctx: RadixContext

    def __post_init__(self):
        self.free_vars = tuple(self.free_vars)
        if len(set(self.free_vars)) != len(self.free_vars):
            raise CompileError("duplicate names in the free-variable list")
        if self.dfao is not None and self.dfao.k != self.ctx.k:
            raise CompileError("sequence base does not match the context base")
        if self.dfao is not None and self.dfao.tracks != 1:
            raise CompileError(f"a sequence automaton reads 1 track, got {self.dfao.tracks}")


def bool_dfa(k: int, truth: bool) -> Dfa:
    """0-track machine standing for a closed subformula's truth value."""
    return Dfa(k, 0, [[0]], {0} if truth else set(), 0)


# ---------------------------------------------------------------- memo

_MEMO: dict[tuple, object] = {}
_MEMO_LIMIT = 4096


def _remember(key: tuple, value):
    if len(_MEMO) >= _MEMO_LIMIT:
        _MEMO.clear()
    _MEMO[key] = value
    return value


def _shape(node, names: dict[str, int]):
    """The node as nested tuples with every variable replaced by its index
    in order of first occurrence, which `names` records."""
    if isinstance(node, Var):
        return names.setdefault(node.name, len(names))
    if isinstance(node, (Exists, Forall)):
        return type(node), names.setdefault(node.var, len(names)), _shape(node.body, names)
    if isinstance(node, (Const, Add, Cmp, SeqEq, SeqConst, Not, And, Or, Implies)):
        return (type(node), *(_shape(getattr(node, field.name), names) for field in fields(node)))
    return node  # a literal: Const.value, Cmp.op or SeqConst.symbol


class _Compiler:
    def __init__(self, env: CompilationEnv):
        self.env = env
        self.k = env.ctx.k
        self.counter = 0
        a = env.dfao
        seq = b"" if a is None else repr((a.k, a.tracks, a.trans, a.output, a.initial)).encode()
        # the memo key parts shared by every node of one compilation
        self.context = (self.k, hashlib.sha256(seq).digest(), state_limit())

    def fresh(self) -> str:
        self.counter += 1
        return f"_t{self.counter}"

    # -- machine alignment -------------------------------------------------

    def lift(self, m: Dfa, mvars: tuple[str, ...], allvars: tuple[str, ...]) -> Dfa:
        positions = [allvars.index(v) for v in mvars]
        return lift_tracks(m, positions, len(allvars))

    def conjoin(self, parts: list[tuple[Dfa, tuple[str, ...]]]) -> tuple[Dfa, tuple[str, ...]]:
        out, vars_out = parts[0]
        for m, mv in parts[1:]:
            allvars = vars_out + tuple(v for v in mv if v not in vars_out)
            out = minimize(product(self.lift(out, vars_out, allvars), self.lift(m, mv, allvars), "and"))
            vars_out = allvars
        return out, vars_out

    def exists_out(self, m: Dfa, mvars: tuple[str, ...], name: str) -> tuple[Dfa, tuple[str, ...]]:
        if name not in mvars:
            return m, mvars
        if len(mvars) == 1:
            return bool_dfa(self.k, not is_empty(m)), ()
        idx = mvars.index(name)
        return erase(m, idx), mvars[:idx] + mvars[idx + 1 :]

    # -- terms and atoms ----------------------------------------------------

    def lower_term(self, t: Term, parts: list) -> str:
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Const):
            aux = self.fresh()
            parts.append((arith.const_eq_rel(self.env.ctx, t.value), (aux,)))
            return aux
        if isinstance(t, Add):
            v1 = self.lower_term(t.left, parts)
            v2 = self.lower_term(t.right, parts)
            if v2 == v1:
                v2 = self.alias(v1, parts)
            aux = self.fresh()
            parts.append((arith.add_rel(self.env.ctx), (v1, v2, aux)))
            return aux
        raise CompileError(f"unknown term {t!r}")

    def alias(self, name: str, parts: list) -> str:
        aux = self.fresh()
        parts.append((arith.eq_rel(self.env.ctx), (name, aux)))
        return aux

    def atom(self, core: Dfa, slots: tuple[str, ...], parts: list) -> tuple[Dfa, tuple[str, ...]]:
        """Conjoin the core atom with its lowering parts and erase every
        auxiliary `_t` variable as soon as no remaining part mentions it.

        Each step conjoins the part that leaves the fewest tracks after that
        erasure, the first such part in `parts` on a tie.  Every step lands
        on the canonical minimal machine of its language, so the order can
        change the intermediate machines and the order of the returned
        tracks, but not the language; the compiled machine, lifted to the
        declared track order and minimized, is the same.
        """
        machine, mvars = core, slots
        rest = list(parts)
        while rest:

            def tracks_left(i: int) -> int:
                live = {v for j, (_, pv) in enumerate(rest) if j != i for v in pv}
                return sum(1 for v in set(mvars) | set(rest[i][1]) if not v.startswith("_t") or v in live)

            part = rest.pop(min(range(len(rest)), key=tracks_left))
            machine, mvars = self.conjoin([(machine, mvars), part])
            live = {v for _, pv in rest for v in pv}
            for v in [v for v in mvars if v.startswith("_t") and v not in live]:
                machine, mvars = self.exists_out(machine, mvars, v)
        return machine, mvars

    def compile(self, f: Formula) -> tuple[Dfa, tuple[str, ...]]:
        """The machine of f with its track names; E and A nodes through the memo."""
        if not isinstance(f, (Exists, Forall)):
            return self.build(f)
        names: dict[str, int] = {}
        key = (_shape(f, names), self.context)
        hit = _MEMO.get(key)
        if hit is None:
            m, mvars = self.build(f)
            hit = _remember(key, (m, tuple(names[v] for v in mvars)))
        m, slots = hit
        order = list(names)
        return m, tuple(order[i] for i in slots)

    def build(self, f: Formula) -> tuple[Dfa, tuple[str, ...]]:
        env = self.env
        if isinstance(f, Cmp):
            parts: list = []
            v1 = self.lower_term(f.left, parts)
            v2 = self.lower_term(f.right, parts)
            if v2 == v1:
                v2 = self.alias(v1, parts)
            return self.atom(arith.cmp_rel(env.ctx, f.op), (v1, v2), parts)
        if isinstance(f, SeqEq):
            if env.dfao is None:
                raise CompileError("formula uses seq[...] but no sequence was supplied")
            parts = []
            v1 = self.lower_term(f.left, parts)
            v2 = self.lower_term(f.right, parts)
            if v2 == v1:
                v2 = self.alias(v1, parts)
            return self.atom(arith.seq_eq(env.dfao), (v1, v2), parts)
        if isinstance(f, SeqConst):
            if env.dfao is None:
                raise CompileError("formula uses seq[...] but no sequence was supplied")
            if f.symbol not in env.dfao.output_alphabet:
                raise CompileError(f"output symbol {f.symbol!r} not in the sequence alphabet")
            parts = []
            v = self.lower_term(f.term, parts)
            return self.atom(arith.seq_const(env.dfao, f.symbol), (v,), parts)
        if isinstance(f, Not):
            m, mv = self.compile(f.body)
            return complement(m), mv
        if isinstance(f, And):
            return self.conjoin([self.compile(f.left), self.compile(f.right)])
        if isinstance(f, Or):
            m1, v1 = self.compile(f.left)
            m2, v2 = self.compile(f.right)
            allvars = v1 + tuple(v for v in v2 if v not in v1)
            out = minimize(product(self.lift(m1, v1, allvars), self.lift(m2, v2, allvars), "or"))
            return out, allvars
        if isinstance(f, Implies):
            return self.compile(Or(Not(f.left), f.right))
        if isinstance(f, Exists):
            m, mv = self.compile(f.body)
            return self.exists_out(m, mv, f.var)
        if isinstance(f, Forall):
            m, mv = self.compile(f.body)
            if f.var not in mv:
                return m, mv
            m, mv = self.exists_out(complement(m), mv, f.var)
            return complement(m), mv
        raise CompileError(f"unknown formula node {f!r}")


def compile_formula(f: Formula, env: CompilationEnv) -> Dfa | bool:
    """Compile to a machine over the declared free-variable tracks.

    A closed formula compiles to its truth value.
    """
    validate_scopes(f)
    fv = free_vars(f)
    if fv != set(env.free_vars):
        raise CompileError(
            f"free variables {sorted(fv)} do not match the declared list {list(env.free_vars)}"
        )
    comp = _Compiler(env)
    names: dict[str, int] = {}
    key = (_shape(f, names), comp.context, tuple(names[v] for v in env.free_vars))
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    m, mvars = comp.compile(f)
    if not env.free_vars:
        if mvars:
            raise CompileError("closed formula left open tracks")
        return _remember(key, not is_empty(m))
    if set(mvars) != set(env.free_vars):
        raise CompileError(f"compiled tracks {mvars} do not cover {env.free_vars}")
    m = comp.lift(m, mvars, env.free_vars) if mvars != env.free_vars else m
    return _remember(key, minimize(m))


def evaluate_sentence(f: Formula, env: CompilationEnv) -> bool:
    if free_vars(f):
        raise CompileError(f"sentence has free variables: {sorted(free_vars(f))}")
    out = compile_formula(f, CompilationEnv((), env.dfao, env.ctx))
    if not isinstance(out, bool):
        raise InvariantError("a sentence compiled to a machine")
    return out
