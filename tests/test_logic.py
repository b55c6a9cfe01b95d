import itertools
import random
import re
from pathlib import Path

import pytest

from critex import arith, automaton, exponents, logic
from critex.autfile import load_automaton
from critex.automaton import Dfa, Dfao
from critex.logic import (
    Add,
    And,
    CompilationEnv,
    Cmp,
    CompileError,
    Const,
    Exists,
    FormulaError,
    FormulaSyntaxError,
    Not,
    Or,
    SeqConst,
    SeqEq,
    Var,
    compile_formula,
    free_vars,
    parse,
)
from critex.numeral import RadixContext

from helpers import paperfolding_value
from reference import atom_conjoin_all, interpret, language_equal
from test_arith import encode_tuple


@pytest.fixture(scope="module")
def ctx():
    return RadixContext(2)


def env_for(tm, ctx, *names):
    return CompilationEnv(tuple(names), tm, ctx)


# ------------------------------------------------------------- parsing


def test_parse_exists_atom():
    f = parse("E i . seq[i] = 1")
    assert isinstance(f, Exists)
    assert isinstance(f.body, SeqConst)
    assert free_vars(f) == set()


def test_parse_forall_implies_tree():
    f = parse("A j . j < q -> seq[i+j] = seq[i+p+j]")
    i, j, p, q = Var("i"), Var("j"), Var("p"), Var("q")
    body = Or(Not(Cmp("<", j, q)), SeqEq(Add(i, j), Add(Add(i, p), j)))
    assert f == Not(Exists("j", Not(body)))
    assert free_vars(f) == {"i", "p", "q"}


@pytest.mark.parametrize("f", ["seq[x] = 1", "x < y & ~ y = 0", "E y . x + y = 3", "(A y . x <= y) | x = 0"])
@pytest.mark.parametrize("g", ["x = 0", "seq[x] = seq[x+1] -> x > 1"])
def test_implies_and_forall_parse_into_not_or_exists(f, g):
    assert parse(f"({f}) -> {g}") == Or(Not(parse(f)), parse(g))
    assert parse(f"A x . {f}") == Not(Exists("x", Not(parse(f))))
    assert parse(f"A x < 5 . {f}") == Not(Exists("x", Not(Or(Not(Cmp("<", Var("x"), Const(5))), parse(f)))))
    assert parse(f"A x < z + 1 . ({f}) -> {g}") == parse(f"A x . x < z + 1 -> (({f}) -> {g})")
    assert parse(f"E x < 5 . {f}") == Exists("x", And(Cmp("<", Var("x"), Const(5)), parse(f)))


def test_parse_error_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("E i .")
    assert "position" in str(err.value)


def test_parse_reserved_and_unknown_chars():
    with pytest.raises(FormulaSyntaxError):
        parse("E seq . seq[seq] = 1")
    with pytest.raises(FormulaSyntaxError):
        parse("x % y = 1")


def test_parse_precedence():
    f = parse("~ x = 0 & y = 0 | z = 0 -> w = 0")
    # -> binds loosest: (((~x=0) & y=0) | z=0) -> w=0, read as ~(...) | w=0
    x, y, z, w = (Cmp("==", Var(v), Const(0)) for v in "xyzw")
    assert f == Or(Not(Or(And(Not(x), y), z)), w)
    # -> is right associative: a -> b -> c is a -> (b -> c)
    assert parse("x = 0 -> y = 0 -> z = 0") == Or(Not(x), Or(Not(y), z))


def test_parse_bounded_quantifier_sugar():
    bound, atom = Cmp("<", Var("j"), Var("t")), SeqConst(Var("j"), "1")
    assert parse("E j < t . seq[j] = 1") == Exists("j", And(bound, atom))
    assert parse("A j < t . seq[j] = 1") == Not(Exists("j", Not(Or(Not(bound), atom))))


def test_quantifier_extends_maximally_right():
    f = parse("x = 0 & E j . j = x | j = 1")
    assert isinstance(f, And)
    assert isinstance(f.right, Exists)
    assert isinstance(f.right.body, Or)


def test_shadowing_rejected():
    with pytest.raises(FormulaError):
        parse("E i . E i . i = 0")
    with pytest.raises(FormulaError):
        parse("i = 0 & E i . i = 1")


def test_sibling_scopes_may_reuse_names():
    f = parse("(E i . i = 0) & (E i . i = 1)")
    assert free_vars(f) == set()


# ------------------------------------------------------------- compilation


def test_compile_seq_const(tm, ctx):
    m = compile_formula(parse("seq[x] = 1"), env_for(tm, ctx, "x"))
    assert isinstance(m, Dfa)
    assert m.accepts(encode_tuple((1,), 2))
    assert m.accepts(encode_tuple((2,), 2))
    assert not m.accepts(encode_tuple((0,), 2))


def test_compile_sentence_true(tm, ctx):
    assert compile_formula(parse("E x . seq[x] = 1"), env_for(tm, ctx)) is True


def test_compile_tautology(tm, ctx):
    m = compile_formula(parse("x = x"), env_for(tm, ctx, "x"))
    for v in range(16):
        assert m.accepts(encode_tuple((v,), 2, width=5))


def test_sentences(tm, ctx):
    assert compile_formula(parse("E i . seq[i] = 1"), env_for(tm, ctx)) is True
    assert compile_formula(parse("A i . seq[i] = 0"), env_for(tm, ctx)) is False
    assert compile_formula(parse("A i . i = i"), env_for(tm, ctx)) is True


def test_evaluate_sentence_rejects_free_vars(tm, ctx):
    with pytest.raises(FormulaError):
        compile_formula(parse("seq[x] = 1"), env_for(tm, ctx))


def test_env_free_var_mismatch(tm, ctx):
    with pytest.raises(FormulaError):
        compile_formula(parse("seq[x] = 1"), env_for(tm, ctx, "x", "y"))
    with pytest.raises(FormulaError):
        compile_formula(parse("x + y = 3"), env_for(tm, ctx, "x"))


def test_hand_built_underscore_names_are_refused(tm, ctx):
    # `_t...` names are the compiler's auxiliary tracks, which it erases
    # early; a user variable of that shape read A _tq . _tq < 3 as true, or
    # as whatever an earlier compile of A y . y < 3 left in the memo
    for_all = Not(Exists("_tq", Not(Cmp("<", Var("_tq"), Const(3)))))
    with pytest.raises(FormulaError, match="_tq"):
        compile_formula(for_all, env_for(tm, ctx))
    assert compile_formula(parse("A y . y < 3"), env_for(tm, ctx)) is False
    with pytest.raises(FormulaError, match="_tq"):
        compile_formula(for_all, env_for(tm, ctx))
    with pytest.raises(FormulaError, match="_x"):
        compile_formula(Cmp("<", Var("_x"), Const(3)), env_for(tm, ctx, "_x"))


def test_track_order_follows_declaration(tm, ctx):
    f = parse("x < y")
    m_xy = compile_formula(f, env_for(tm, ctx, "x", "y"))
    m_yx = compile_formula(f, env_for(tm, ctx, "y", "x"))
    w_12 = encode_tuple((1, 2), 2)
    assert m_xy.accepts(w_12)  # tracks (x, y) = (1, 2)
    assert not m_yx.accepts(w_12)  # tracks (y, x) = (1, 2) means x=2, y=1
    assert m_yx.accepts(encode_tuple((2, 1), 2))


def test_double_negation(tm, ctx):
    f = parse("seq[x] = seq[y] & x < y")
    m1 = compile_formula(f, env_for(tm, ctx, "x", "y"))
    m2 = compile_formula(Not(Not(f)), env_for(tm, ctx, "x", "y"))
    assert language_equal(m1, m2)


def test_quantifier_exchange(tm, ctx):
    inner = parse("x + y = z & seq[x] = seq[y]")
    f1 = Exists("x", Exists("y", inner))
    f2 = Exists("y", Exists("x", inner))
    m1 = compile_formula(f1, env_for(tm, ctx, "z"))
    m2 = compile_formula(f2, env_for(tm, ctx, "z"))
    assert language_equal(m1, m2)


def test_compiled_machines_zero_invariant(tm, ctx):
    from helpers import all_words_upto
    from critex.numeral import DigitWord

    m = compile_formula(parse("E j . x = j + j & seq[j] = 1"), env_for(tm, ctx, "x"))
    for w in all_words_upto(2, 1, 6):
        padded = DigitWord(2, 1, ((0,),) + w.symbols)
        assert m.accepts(w) == m.accepts(padded)


def _random_qf_formula(rng, names):
    def term(depth):
        r = rng.random()
        if depth <= 0 or r < 0.5:
            return Var(rng.choice(names)) if rng.random() < 0.8 else Const(rng.randrange(0, 4))
        return Add(term(depth - 1), term(depth - 1))

    def atom():
        r = rng.random()
        if r < 0.45:
            op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
            return Cmp(op, term(1), term(1))
        if r < 0.8:
            return SeqEq(term(1), term(1))
        return SeqConst(term(1), rng.choice(["0", "1"]))

    def formula(depth):
        r = rng.random()
        if depth <= 0 or r < 0.4:
            return atom()
        if r < 0.55:
            return Not(formula(depth - 1))
        ctor = rng.choice([And, Or, lambda a, b: Or(Not(a), b)])
        return ctor(formula(depth - 1), formula(depth - 1))

    return formula(2)


def test_quantifier_free_soundness_fuzz(tm, ctx, monkeypatch):
    rng = random.Random(3100)
    names = ["x", "y", "z"]
    seq_value = lambda n: tm.value(n)
    checked = 0
    for _ in range(25):
        f = _random_qf_formula(rng, names)
        used = tuple(sorted(free_vars(f)))
        if not used:
            continue
        m = compile_formula(f, CompilationEnv(used, tm, ctx))
        assert _compile_reference(monkeypatch, f, CompilationEnv(used, tm, ctx)) == m, f
        for _ in range(40):
            assignment = {v: rng.randrange(0, 64) for v in used}
            word = encode_tuple(tuple(assignment[v] for v in used), 2)
            expected = interpret(f, assignment, seq_value)
            assert m.accepts(word) == expected, (f, assignment)
            checked += 1
    assert checked >= 600


def test_bounded_quantifier_one_sided_fuzz(tm, ctx):
    # a bounded-box witness for E implies compiled truth; compiled A implies
    # the bounded-box restriction
    rng = random.Random(3101)
    seq_value = lambda n: tm.value(n)
    for _ in range(15):
        body = _random_qf_formula(rng, ["x", "y"])
        if free_vars(body) != {"x", "y"}:
            continue
        fe = Exists("x", Exists("y", body))
        fa = Not(Exists("x", Not(Not(Exists("y", Not(body))))))
        te = compile_formula(fe, env_for(tm, ctx))
        ta = compile_formula(fa, env_for(tm, ctx))
        box_e = interpret(fe, {}, seq_value, box=32)
        box_a = interpret(fa, {}, seq_value, box=32)
        if box_e:
            assert te
        if ta:
            assert box_a
        if not te:
            assert not box_e
        if not box_a:
            assert not ta


# ------------------------------------------------------------- quantifier projection


def _erase_calls(monkeypatch) -> list:
    """Patch the compiler's erase to record each (machine, track) it is given."""
    calls = []

    def recorded(m, track):
        calls.append((m, track))
        return automaton.erase(m, track)

    monkeypatch.setattr(logic, "erase", recorded)
    return calls


def test_projection_matches_forward_path_on_pair_languages(monkeypatch):
    # every E projection met while compiling the offset forms of the period,
    # gap and prefix-tail languages; rs is left out because its forward path
    # takes about 20 s
    from critex import sequences
    from critex.automaton import erase, minimize
    from reference import (
        OFFSET_GAP_FORMULA,
        OFFSET_PERIOD_FORMULA,
        OFFSET_PREFIX_TAIL_FORMULA,
        determinize,
        project,
        zero_saturate,
    )

    captured = _erase_calls(monkeypatch)
    seqs = [
        sequences.thue_morse(),
        sequences.vtm(),
        sequences.period_doubling(),
        sequences.dfao_from_function(paperfolding_value, 2),
    ]
    for a in seqs:
        for text, free in (
            (OFFSET_PERIOD_FORMULA, ("q", "p")),
            (OFFSET_GAP_FORMULA, ("n", "l")),
            (OFFSET_PREFIX_TAIL_FORMULA, ("s", "t")),
        ):
            compile_formula(parse(text), CompilationEnv(free, a, RadixContext(a.k)))
    # 48 distinct (machine, track) inputs; the memo, atoms included, skips
    # 56 repeat erases of the 120 a compile without it runs, and every input
    # is still checked
    assert len(captured) == 64
    distinct = set(captured)
    assert len(distinct) == 48
    for m, track in distinct:
        out = erase(m, track)
        assert out == minimize(determinize(zero_saturate(project(m, track))))
        assert minimize(out) == out


def test_projection_respects_the_state_cap(tm, ctx, monkeypatch):
    # the largest construction of the tm gap language's offset form is a
    # first reversed pass of 100 subsets; every product, atom and second
    # pass stays below 99
    from critex.automaton import StateLimitError
    from reference import OFFSET_GAP_FORMULA

    monkeypatch.setenv("CRITEX_MAX_STATES", "99")
    with pytest.raises(StateLimitError) as info:
        compile_formula(parse(OFFSET_GAP_FORMULA), env_for(tm, ctx, "n", "l"))
    assert "_reverse_subsets" in [e.name for e in info.traceback]
    monkeypatch.setenv("CRITEX_MAX_STATES", "100")
    assert compile_formula(parse(OFFSET_GAP_FORMULA), env_for(tm, ctx, "n", "l")).num_states == 12
    # the cap is part of the memo key: what was built under 100 is not
    # handed out under 99, where a fresh build trips the cap again
    monkeypatch.setenv("CRITEX_MAX_STATES", "99")
    with pytest.raises(StateLimitError):
        compile_formula(parse(OFFSET_GAP_FORMULA), env_for(tm, ctx, "n", "l"))


# ------------------------------------------------------------- early erasure

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _compile_reference(monkeypatch, f, env):
    """The machine compiled with the reference atom, which conjoins every
    lowering part before it erases any `_t` variable.  The compile memo is
    emptied before and after, so the reference compile runs in full and
    hands none of its machines to a later compile."""
    logic._MEMO.clear()
    with monkeypatch.context() as patch:
        patch.setattr(logic._Compiler, "atom", atom_conjoin_all)
        try:
            return compile_formula(f, env)
        finally:
            logic._MEMO.clear()


EXPONENT_FORMULAS = [
    (exponents.PERIOD_FORMULA, ("q", "p")),
    (exponents.RECURRENT_PERIOD_FORMULA, ("q", "p")),
    (exponents.PREFIX_PERIOD_FORMULA, ("q", "p")),
    (exponents.PREFIX_TAIL_FORMULA, ("s", "t")),
    (exponents.GAP_FORMULA, ("n", "l")),
    (exponents.RECURRENT_SENTENCE, ()),
]


def _exponent_compiles():
    """(fixture name, formula, env) for every exponent formula on each of the
    seven fixture sequences."""
    paths = sorted(FIXTURES.glob("*.dfao"))
    assert len(paths) == 7
    out = []
    for path in paths:
        a = load_automaton(str(path))
        for text, free in EXPONENT_FORMULAS:
            out.append((path.name, parse(text), CompilationEnv(free, a, RadixContext(a.k))))
    return out


def test_early_erasure_matches_reference_on_exponent_formulas(monkeypatch):
    for name, f, env in _exponent_compiles():
        assert compile_formula(f, env) == _compile_reference(monkeypatch, f, env), (name, f)


def test_early_erasure_narrows_the_widest_product(tm, ctx, monkeypatch):
    widths = []

    def product(a, b, mode):
        widths.append(a.tracks)
        return automaton.product(a, b, mode)

    monkeypatch.setattr(logic, "product", product)
    env = env_for(tm, ctx, "i", "j", "p")
    f = parse("seq[i+j] = seq[i+p+j]")
    compile_formula(f, env)
    assert max(widths) <= 5
    widths.clear()
    logic._MEMO.clear()
    monkeypatch.setattr(logic._Compiler, "atom", atom_conjoin_all)
    compile_formula(f, env)
    assert max(widths) == 6


@pytest.mark.parametrize("text, names", [("seq[x] = 9", ("x",)), ("seq[0] = 9", ())])
def test_unknown_output_symbol_is_compile_error(tm, ctx, text, names):
    with pytest.raises(CompileError, match="output symbol '9' not in the sequence alphabet"):
        compile_formula(parse(text), env_for(tm, ctx, *names))


def test_multi_track_sequence_is_compile_error(ctx):
    two_track = Dfao(2, 2, [[0, 0, 0, 0]], ["a"], 0)
    with pytest.raises(CompileError, match="reads 1 track, got 2"):
        CompilationEnv(("i",), two_track, ctx)


# ------------------------------------------------------------- compile memo


def _compile_unshared(monkeypatch, f, env):
    """The machine compiled without the memo: every node is built, and
    nothing is stored or looked up."""
    with monkeypatch.context() as patch:
        patch.setattr(logic._Compiler, "compile", logic._Compiler.build)
        patch.setattr(logic, "_remember", lambda key, value: value)
        return compile_formula(f, env)


def test_warm_memo_compiles_the_exponent_formulas_as_an_unshared_compile(monkeypatch):
    jobs = [(name, f, env, _compile_unshared(monkeypatch, f, env)) for name, f, env in _exponent_compiles()]
    # the first pass shares quantified subformulas across the formulas of a
    # sequence, the second finds every whole formula in the memo
    for _ in range(2):
        for name, f, env, expected in jobs:
            assert compile_formula(f, env) == expected, (name, f)


def test_renamed_formula_is_a_memo_hit(tm, ctx, monkeypatch):
    names = {"q": "a", "p": "b", "i": "x", "j": "y"}
    renamed = re.sub(r"\b[qpij]\b", lambda v: names[v.group()], exponents.PERIOD_FORMULA)
    assert renamed != exponents.PERIOD_FORMULA
    expected = _compile_unshared(monkeypatch, parse(renamed), env_for(tm, ctx, "a", "b"))
    assert expected == compile_formula(parse(exponents.PERIOD_FORMULA), env_for(tm, ctx, "q", "p"))
    calls = _erase_calls(monkeypatch)
    assert compile_formula(parse(renamed), env_for(tm, ctx, "a", "b")) == expected
    assert calls == []
    # the declared track order is part of the key
    swapped = compile_formula(parse(renamed), env_for(tm, ctx, "b", "a"))
    assert swapped != expected
    assert exponents.period_language(tm) == expected


def test_sequences_differing_only_in_outputs_share_no_entry(tm, ctx, monkeypatch):
    f = parse(exponents.PERIOD_FORMULA)
    compile_formula(f, env_for(tm, ctx, "q", "p"))
    calls = _erase_calls(monkeypatch)
    for output in (("1", "0"), ("0", "0")):
        other = automaton.Dfao(tm.k, tm.tracks, tm.trans, output, tm.initial)
        expected = _compile_unshared(monkeypatch, f, env_for(other, ctx, "q", "p"))
        calls.clear()
        assert compile_formula(f, env_for(other, ctx, "q", "p")) == expected
        assert calls, output



def test_an_atom_met_again_under_other_names_is_a_memo_hit(tm, ctx, monkeypatch):
    compile_formula(parse("seq[i+j] = seq[i+j+p]"), env_for(tm, ctx, "i", "j", "p"))
    calls = _erase_calls(monkeypatch)
    # another track order misses the whole-formula entry, so the machine
    # comes from the atom's entry, lifted to the new order
    f, env = parse("seq[a+b] = seq[a+b+c]"), env_for(tm, ctx, "c", "b", "a")
    got = compile_formula(f, env)
    assert calls == []
    assert got == _compile_unshared(monkeypatch, f, env)


# ------------------------------------------------------------- shared subterms


@pytest.mark.parametrize(
    "text, names, built",
    [
        ("seq[i+j] = seq[i+j+p]", ("i", "j", "p"), ["linear_rel"] * 2),
        ("x + y = x + y", ("x", "y"), ["linear_rel"] * 2),
        ("seq[n+n] = seq[n+n+1]", ("n",), ["const_eq_rel"] + ["linear_rel"] * 2),
        ("i + 3 = j + 3", ("i", "j"), ["const_eq_rel"] + ["linear_rel"] * 3),
    ],
)
def test_repeated_subterms_are_lowered_once(tm, ctx, monkeypatch, text, names, built):
    calls = []
    for name in ("linear_rel", "const_eq_rel"):
        real = getattr(arith, name)
        monkeypatch.setattr(arith, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    f = parse(text)
    m = compile_formula(f, env_for(tm, ctx, *names))
    assert sorted(calls) == built
    seq_value = lambda n: tm.value(n)
    for values in itertools.product(range(12), repeat=len(names)):
        assignment = dict(zip(names, values))
        assert m.accepts(encode_tuple(values, 2)) == interpret(f, assignment, seq_value), (text, assignment)


@pytest.mark.parametrize(
    "text, names, products",
    [
        ("x + x = y", ("x", "y"), 1),
        ("x < x", ("x",), 0),
        ("seq[x] = seq[x]", ("x",), 0),
        ("seq[n+n] = seq[n+n+1]", ("n",), 3),
        ("3 + x >= 2 + y + y", ("x", "y"), 5),
    ],
)
def test_a_variable_named_twice_sums_its_coefficients(tm, ctx, monkeypatch, text, names, products):
    # one linear constraint per comparison and per `+`: a name met twice in
    # it is one track with the summed coefficient, not an alias conjoined in
    calls = []
    monkeypatch.setattr(logic, "product", lambda *a: calls.append(a) or automaton.product(*a))
    f, env = parse(text), env_for(tm, ctx, *names)
    logic._MEMO.clear()
    m = compile_formula(f, env)
    assert len(calls) == products
    assert m == _compile_reference(monkeypatch, f, env)
    for values in itertools.product(range(16), repeat=len(names)):
        assignment = dict(zip(names, values))
        assert m.accepts(encode_tuple(values, 2)) == interpret(f, assignment, tm.value), (text, assignment)
