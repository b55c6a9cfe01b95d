import pytest

from critex.autfile import AutFileError, load_automaton, parse_automaton, serialize_automaton
from critex.automaton import Dfa, Dfao, StateLimitError
from critex.numeral import DigitWord
from critex.sequences import dfao_from_function, thue_morse

from helpers import FIXTURES
from reference import language_equal


def test_round_trip_dfao():
    for name, build in FIXTURES.items():
        if not name.endswith(".dfao"):
            continue
        m = build()
        again = parse_automaton(serialize_automaton(m))
        assert isinstance(again, Dfao)
        assert again.trans == m.trans
        assert again.output == m.output
        assert again.initial == m.initial
        assert serialize_automaton(again) == serialize_automaton(m)


def test_round_trip_dfa():
    for name, build in FIXTURES.items():
        if not name.endswith(".dfa"):
            continue
        m = build()
        again = parse_automaton(serialize_automaton(m))
        assert isinstance(again, Dfa)
        assert language_equal(again, m)


def test_output_that_cannot_be_read_back_is_refused():
    # a tuple output renders as "('0', '1')"; its space would split the
    # output line, and '#' would cut it
    tm = thue_morse()
    pairs = dfao_from_function(lambda n: (tm.value(n), tm.value(n + 1)), 2)
    with pytest.raises(AutFileError, match=r"output symbol \"\('0', '1'\)\" of state"):
        serialize_automaton(pairs)
    with pytest.raises(AutFileError, match="of state 1"):
        serialize_automaton(Dfao(2, 1, [[0, 1], [1, 0]], ["a", "b#"], 0))
    with pytest.raises(AutFileError, match="of state 0"):
        serialize_automaton(Dfao(2, 1, [[0, 0]], ["a\tb"], 0))


def test_comments_and_blank_lines():
    text = """
# a comment
critex-automaton v1
base: 2        # trailing comment
tracks: 1
kind: dfa
order: msd

states: 2
initial: 0
accepting: 1
trans: 0 [1] -> 1
"""
    m = parse_automaton(text)
    assert m.accepts(DigitWord.from_digits("1", 2))
    assert not m.accepts(DigitWord.from_digits("0", 2))


def test_implicit_dead_state_completion():
    text = """critex-automaton v1
base: 2
tracks: 2
kind: dfa
order: msd
states: 1
initial: 0
accepting: 0
trans: 0 [1,1] -> 0
"""
    m = parse_automaton(text)
    assert m.num_states == 2  # dead state appended
    assert m.accepts(DigitWord.from_pairs([(1, 1)], 2))
    assert not m.accepts(DigitWord.from_pairs([(1, 0)], 2))


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda t: t.replace("critex-automaton v1", "critex v2"), "header"),
        (lambda t: t.replace("base: 2", "base: 1"), "base"),
        (lambda t: t.replace("[1] -> 1", "[2] -> 1"), "digit"),
        (lambda t: t.replace("initial: 0", "initial: 9"), "initial"),
        (lambda t: t.replace("kind: dfa", "kind: moore"), "kind"),
        (lambda t: t + "trans: 0 [1] -> 5\n", "range"),
        (lambda t: t.replace("accepting: 1", "accepting: 7"), "range"),
        (lambda t: t.replace("accepting: 1", "accepting: -1"), "accepting state -1 out of range"),
        (
            lambda t: t.replace("kind: dfa", "kind: dfao").replace("accepting: 1", "output: 0:0 1:1 -1:1"),
            "output state -1 out of range",
        ),
        (lambda t: t.replace("order: msd", "order: lsd"), "order"),
        (lambda t: t.replace("order: msd", "order: xyz"), "order"),
        (lambda t: t.replace("accepting: 1", "acepting: 1"), "unknown key 'acepting'"),
        (lambda t: t.replace("accepting: 1", "output: 0:a"), "key 'output' does not belong in a dfa"),
        (lambda t: t.replace("kind: dfa", "kind: dfao"), "key 'accepting' does not belong in a dfao"),
    ],
)
def test_parse_errors(mutate, needle):
    good = """critex-automaton v1
base: 2
tracks: 1
kind: dfa
order: msd
states: 2
initial: 0
accepting: 1
trans: 0 [1] -> 1
"""
    with pytest.raises(AutFileError) as err:
        parse_automaton(mutate(good))
    assert needle in str(err.value).lower()


def sized_dfa(tracks: int, states: int) -> str:
    """A dfa file declaring the given size, with one move when it has 1 track."""
    text = f"critex-automaton v1\nbase: 2\ntracks: {tracks}\nkind: dfa\norder: msd\nstates: {states}\ninitial: 0\n"
    return text + ("accepting: 0\ntrans: 0 [1] -> 0\n" if tracks == 1 else "")


@pytest.mark.parametrize(
    "tracks,states,needle",
    [
        (1, 300000, "the machine has 300001 states, more than CRITEX_MAX_STATES=1000"),
        (22, 1, "22 tracks of base 2 make more than CRITEX_MAX_STATES=1000 symbols"),
    ],
)
def test_declared_size_over_the_state_cap_is_refused(tmp_path, monkeypatch, tracks, states, needle):
    p = tmp_path / "big.dfa"
    p.write_text(sized_dfa(tracks, states))
    monkeypatch.setenv("CRITEX_MAX_STATES", "1000")
    with pytest.raises(StateLimitError) as err:
        load_automaton(str(p))
    assert str(err.value) == f"{p}: {needle}"


def test_file_at_the_state_cap_loads(monkeypatch):
    # 999 declared states and the implicit dead state make exactly 1000
    monkeypatch.setenv("CRITEX_MAX_STATES", "1000")
    assert parse_automaton(sized_dfa(1, 999)).num_states == 1000
    with pytest.raises(StateLimitError):
        parse_automaton(sized_dfa(1, 1000))
    # 10 binary tracks make exactly 1024 symbols
    monkeypatch.setenv("CRITEX_MAX_STATES", "1024")
    assert parse_automaton(sized_dfa(10, 1)).alphabet_size == 1024
    with pytest.raises(StateLimitError):
        parse_automaton(sized_dfa(11, 1))


def test_dfao_requires_total_output():
    text = """critex-automaton v1
base: 2
tracks: 1
kind: dfao
order: msd
states: 2
initial: 0
output: 0:1
trans: 0 [0] -> 0
trans: 0 [1] -> 1
trans: 1 [0] -> 1
trans: 1 [1] -> 1
"""
    with pytest.raises(AutFileError) as err:
        parse_automaton(text)
    assert "total" in str(err.value)


def test_dfao_rejects_duplicate_output_state():
    text = """critex-automaton v1
base: 2
tracks: 1
kind: dfao
order: msd
states: 2
initial: 0
output: 0:0 1:1 0:1
trans: 0 [0] -> 0
trans: 0 [1] -> 1
trans: 1 [0] -> 1
trans: 1 [1] -> 0
"""
    with pytest.raises(AutFileError) as err:
        parse_automaton(text)
    assert "output state 0" in str(err.value)


def test_dfao_requires_complete_transitions():
    text = """critex-automaton v1
base: 2
tracks: 1
kind: dfao
order: msd
states: 1
initial: 0
output: 0:1
trans: 0 [0] -> 0
"""
    with pytest.raises(AutFileError):
        parse_automaton(text)


def test_shipped_fixture_files_match_builders():
    # FIXTURES is what the README's regeneration recipe writes, and it covers
    # every shipped file, so the recipe cannot drift from the frozen files
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "fixtures"
    assert sorted(p.name for p in root.iterdir()) == sorted(FIXTURES)
    for name, build in FIXTURES.items():
        assert (root / name).read_text() == serialize_automaton(build()), name
