import pytest

from critex.autfile import AutFileError, parse_automaton, serialize_automaton
from critex.automaton import Dfa, Dfao
from critex.numeral import DigitWord
from critex.sequences import pairs_ones_then_01, rudin_shapiro, thue_morse, vtm

from reference import language_equal


def test_round_trip_dfao():
    for m in (thue_morse(), rudin_shapiro(), vtm()):
        again = parse_automaton(serialize_automaton(m))
        assert isinstance(again, Dfao)
        assert again.trans == m.trans
        assert again.output == m.output
        assert again.initial == m.initial
        assert serialize_automaton(again) == serialize_automaton(m)


def test_round_trip_dfa():
    m = pairs_ones_then_01()
    again = parse_automaton(serialize_automaton(m))
    assert isinstance(again, Dfa)
    assert language_equal(again, m)


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
        (lambda t: t.replace("order: msd", "order: lsd"), "order"),
        (lambda t: t.replace("order: msd", "order: xyz"), "order"),
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
    from pathlib import Path

    from critex.sequences import (
        alternating,
        constant_zero,
        one_then_zeros,
        pairs_single,
        pairs_unbounded,
        period_doubling,
    )

    root = Path(__file__).resolve().parent.parent / "fixtures"
    expected = {
        "tm.dfao": thue_morse(),
        "rs.dfao": rudin_shapiro(),
        "vtm.dfao": vtm(),
        "period_doubling.dfao": period_doubling(),
        "zero.dfao": constant_zero(),
        "one_then_zeros.dfao": one_then_zeros(),
        "alternating.dfao": alternating(),
        "pairs_ones_then_01.dfa": pairs_ones_then_01(),
        "pairs_unbounded.dfa": pairs_unbounded(),
        "pairs_single.dfa": pairs_single(),
    }
    for name, machine in expected.items():
        assert (root / name).read_text() == serialize_automaton(machine), name
