"""First-order predicate compiler over natural-number position variables.

Formulas support addition terms, the six comparisons, sequence-value atoms
over a Dfao, the boolean connectives and E/A quantifiers.  The parser reads
`f -> g` as `~f | g` and A into the double complement `~E x . ~f`, so a
parsed formula has five node kinds: atoms, ~, & and |, and E.  Compilation
lowers each comparison and each distinct `+` subterm of an atom to one
linear constraint, `arith.linear_rel`, in which a variable named twice gets
the sum of its coefficients (`x + x` is 2x; `seq[i+j] = seq[i+j+p]` builds
one constraint for `i+j`); a constant is `arith.const_eq_rel`.  It turns E
into one `automaton.erase` of the quantified track (a double reversal,
det(rev(det(rev(N)))), run straight on the machine's moves, which yields the
minimal machine directly), ~ into a complement, and & and | into one
`automaton.product`, which lands on the canonical minimal machine of the
operands' intersection or union.  The track order of a compiled machine
is exactly the declared free-variable order, never inferred from the
formula.

An atom's auxiliary `_t` variables are quantified early (bucket
elimination): the atom is conjoined with its lowering parts one at a time,
greedily taking the part that leaves the fewest tracks, and each `_t`
variable is erased as soon as no remaining part mentions it.
`seq[i+j] = seq[i+p+j]` thus never builds a product wider than 4 tracks,
where conjoining every part first would build one of 6.  The order cannot
change the compiled machine: every conjunction and every erasure lands on
the canonical minimal machine of its language, and the language is the
same in any order.

Atoms and quantified subformulas are shared through one memo of every
compiled atom (Cmp, SeqEq, SeqConst) and E node and every whole formula
compile_formula returns.  Its key is the node's shape with each variable
renamed by first occurrence, a digest of the sequence Dfao's content, the
base and the CRITEX_MAX_STATES cap, plus the declared track order for a
whole formula.  The compiler reads names only to tell variables apart and
lands every node on its canonical minimal machine, so a hit, its tracks
mapped back to the caller's names, is exactly what a fresh compile gives.

ASCII grammar (parse):

    formula := 'E' var ('<' term)? '.' formula | 'A' var ('<' term)? '.' formula
             | formula '|' formula | formula '&' formula | formula '->' formula
             | '~' formula | '(' formula ')' | atom
    atom    := term ('='|'!='|'<'|'<='|'>'|'>=') term
             | 'seq[' term ']' '=' ( 'seq[' term ']' | const )
    term    := var | const | term '+' term

Precedence: ~ > & > | > ->, & and | left-associative, -> right-associative,
all in `_INFIX`; `+` is left-associative, in `_TERM_INFIX`; quantifiers
extend to the right maximally.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, fields

from . import arith
from .automaton import (
    Dfa,
    Dfao,
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
class Exists:
    var: str
    body: "Formula"


Formula = Cmp | SeqEq | SeqConst | Not | And | Or | Exists


def free_vars(f: Formula | Term) -> set[str]:
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, Const):
        return set()
    if isinstance(f, (Add, Cmp, SeqEq, And, Or)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, SeqConst):
        return free_vars(f.term)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, Exists):
        return free_vars(f.body) - {f.var}
    raise FormulaError(f"unknown node {f!r}")


def _check_name(var: str) -> None:
    # the compiler names its auxiliary tracks `_t...` and erases them early
    if var.startswith("_"):
        raise FormulaError(f"variable {var!r} is reserved: names starting with '_' belong to the compiler")


def _check_scopes(f: Formula, active: frozenset, free_top: set[str]) -> None:
    if isinstance(f, Exists):
        _check_name(f.var)
        if f.var in active:
            raise FormulaError(f"variable {f.var!r} shadows an enclosing binding")
        if f.var in free_top:
            raise FormulaError(f"variable {f.var!r} is both bound and free")
        _check_scopes(f.body, active | {f.var}, free_top)
    elif isinstance(f, Not):
        _check_scopes(f.body, active, free_top)
    elif isinstance(f, (And, Or)):
        _check_scopes(f.left, active, free_top)
        _check_scopes(f.right, active, free_top)


def validate_scopes(f: Formula) -> None:
    """No shadowing, no name both bound and free and no name starting with
    `_`; sibling scopes may reuse a bound name (each binder projects its own
    track away)."""
    free = free_vars(f)
    for var in sorted(free):
        _check_name(var)
    _check_scopes(f, frozenset(), free)


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
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise FormulaSyntaxError(f"unexpected character {rest[0]!r}", pos)
        pos = m.end()
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
    tokens.append(("eof", "", len(text)))
    return tokens


def implies(f: Formula, g: Formula) -> Formula:
    return Or(Not(f), g)


# operator: (precedence, precedence of its right operand, node builder)
_INFIX = {"->": (0, 0, implies), "|": (1, 2, Or), "&": (2, 3, And)}
_TERM_INFIX = {"+": (0, 1, Add)}


class _Parser:
    def __init__(self, text: str):
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

    def climb(self, operand, table: dict, level: int = 0):
        """The expression starting here: operands read by `operand`, joined
        by the infix operators of `table` of precedence at least `level`, by
        precedence climbing."""
        left = operand()
        while True:
            op = table.get(self.peek()[1])
            if op is None or op[0] < level:
                return left
            self.next()
            left = op[2](left, self.climb(operand, table, op[1]))

    def formula(self) -> Formula:
        return self.climb(self.unary, _INFIX)

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
            body = Or(Not(Cmp("<", Var(name), bound_term)), body)
        return Not(Exists(name, Not(body)))

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
        return self.climb(self.term_atom, _TERM_INFIX)

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
    if isinstance(node, Exists):
        return Exists, names.setdefault(node.var, len(names)), _shape(node.body, names)
    if isinstance(node, (Const, Add, Cmp, SeqEq, SeqConst, Not, And, Or)):
        return (type(node), *(_shape(getattr(node, field.name), names) for field in fields(node)))
    return node  # a literal: Const.value, Cmp.op or SeqConst.symbol


class _Compiler:
    def __init__(self, env: CompilationEnv):
        self.env = env
        self.counter = 0
        a = env.dfao
        seq = b"" if a is None else repr((a.k, a.tracks, a.trans, a.output, a.initial)).encode()
        # the memo key parts shared by every node of one compilation
        self.context = (env.ctx.k, hashlib.sha256(seq).digest(), state_limit())

    def fresh(self) -> str:
        self.counter += 1
        return f"_t{self.counter}"

    # -- machine alignment -------------------------------------------------

    def lift(self, m: Dfa, mvars: tuple[str, ...], allvars: tuple[str, ...]) -> Dfa:
        if mvars == allvars:
            return m
        return lift_tracks(m, [allvars.index(v) for v in mvars], len(allvars))

    def combine(self, left: tuple, right: tuple, mode: str) -> tuple[Dfa, tuple[str, ...]]:
        """The "and" or "or" product of two (machine, tracks) pairs, each
        lifted to the union of their tracks, the left operand's first."""
        (m1, v1), (m2, v2) = left, right
        allvars = v1 + tuple(v for v in v2 if v not in v1)
        return product(self.lift(m1, v1, allvars), self.lift(m2, v2, allvars), mode), allvars

    def exists_out(self, m: Dfa, mvars: tuple[str, ...], name: str) -> tuple[Dfa, tuple[str, ...]]:
        if name not in mvars:
            return m, mvars
        idx = mvars.index(name)
        return erase(m, idx), mvars[:idx] + mvars[idx + 1 :]

    # -- terms and atoms ----------------------------------------------------

    def linear(self, relation: str, *terms: tuple[str, int]) -> tuple[Dfa, tuple[str, ...]]:
        """The machine of sum(coeff * track) <relation> 0 over the distinct
        tracks of `terms`, in order of first mention; a track named twice
        gets the sum of its coefficients, so `x + x` is 2x and `x < x` is 0 < 0."""
        coeffs: dict[str, int] = {}
        for track, coeff in terms:
            coeffs[track] = coeffs.get(track, 0) + coeff
        return arith.linear_rel(self.env.ctx.k, tuple(coeffs.values()), relation), tuple(coeffs)

    def lower_term(self, t: Term, parts: list, lowered: dict) -> str:
        """The track holding t's value; `lowered` maps each subterm of the
        atom lowered so far to its track, so each is lowered once."""
        if isinstance(t, Var):
            return t.name
        if t not in lowered:
            aux = self.fresh()
            if isinstance(t, Const):
                parts.append((arith.const_eq_rel(self.env.ctx, t.value), (aux,)))
            elif isinstance(t, Add):
                left, right = self.lower_term(t.left, parts, lowered), self.lower_term(t.right, parts, lowered)
                parts.append(self.linear("==", (left, 1), (right, 1), (aux, -1)))
            else:
                raise CompileError(f"unknown term {t!r}")
            lowered[t] = aux
        return lowered[t]

    def atom(self, core: tuple, parts: list) -> tuple[Dfa, tuple[str, ...]]:
        """Conjoin the core atom, a (machine, tracks) pair, with its lowering
        parts and erase every auxiliary `_t` variable as soon as no
        remaining part mentions it.

        Each step conjoins the part that leaves the fewest tracks after that
        erasure, the first such part in `parts` on a tie.  Every step lands
        on the canonical minimal machine of its language, so the order can
        change the intermediate machines and the order of the returned
        tracks, but not the language; the compiled machine, lifted to the
        declared track order and minimized, is the same.
        """
        machine, mvars = core
        rest = list(parts)
        while rest:

            def tracks_left(i: int) -> int:
                live = {v for j, (_, pv) in enumerate(rest) if j != i for v in pv}
                return sum(1 for v in set(mvars) | set(rest[i][1]) if not v.startswith("_t") or v in live)

            part = rest.pop(min(range(len(rest)), key=tracks_left))
            machine, mvars = self.combine((machine, mvars), part, "and")
            live = {v for _, pv in rest for v in pv}
            for v in [v for v in mvars if v.startswith("_t") and v not in live]:
                machine, mvars = self.exists_out(machine, mvars, v)
        return machine, mvars

    def compile(self, f: Formula) -> tuple[Dfa, tuple[str, ...]]:
        """The machine of f with its track names.  Atoms and E nodes go
        through the memo, so an atom met again, in this compile or an
        earlier one and under any variable names, is built once; the
        connectives are built from their operands each time."""
        if isinstance(f, (Not, And, Or)):
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
        parts: list = []
        lowered: dict = {}
        if isinstance(f, Cmp):
            left, right = self.lower_term(f.left, parts, lowered), self.lower_term(f.right, parts, lowered)
            return self.atom(self.linear(f.op, (left, 1), (right, -1)), parts)
        if isinstance(f, (SeqEq, SeqConst)) and env.dfao is None:
            raise CompileError("formula uses seq[...] but no sequence was supplied")
        if isinstance(f, SeqEq):
            left, right = self.lower_term(f.left, parts, lowered), self.lower_term(f.right, parts, lowered)
            # one track on both sides: the sequence agrees with itself everywhere
            core = self.linear("==", (left, 0)) if left == right else (arith.seq_eq(env.dfao), (left, right))
            return self.atom(core, parts)
        if isinstance(f, SeqConst):
            if f.symbol not in env.dfao.output_alphabet:
                raise CompileError(f"output symbol {f.symbol!r} not in the sequence alphabet")
            v = self.lower_term(f.term, parts, lowered)
            return self.atom((arith.seq_const(env.dfao, f.symbol), (v,)), parts)
        if isinstance(f, Not):
            m, mv = self.compile(f.body)
            return complement(m), mv
        if isinstance(f, (And, Or)):
            return self.combine(self.compile(f.left), self.compile(f.right), "and" if isinstance(f, And) else "or")
        if isinstance(f, Exists):
            return self.exists_out(*self.compile(f.body), f.var)
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
    return _remember(key, minimize(comp.lift(m, mvars, env.free_vars)))
