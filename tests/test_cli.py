import builtins
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from critex.autfile import save_automaton
from critex.automaton import Dfao
from critex.cli import main
from critex.sequences import thue_morse

from helpers import constant_zero, one_then_zeros, pairs_ones_then_01, pairs_single, pairs_unbounded


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("aut")
    paths = {}
    for name, m in [
        ("tm.dfao", thue_morse()),
        ("zero.dfao", constant_zero()),
        ("one_then_zeros.dfao", one_then_zeros()),
        ("pairs.dfa", pairs_ones_then_01()),
        ("unbounded.dfa", pairs_unbounded()),
        ("finite.dfa", pairs_single()),
    ]:
        p = d / name
        save_automaton(str(p), m)
        paths[name] = str(p)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exponent_critical_text(files, capsys):
    code, out, _ = run_cli(capsys, "exponent", files["tm.dfao"], "--which", "critical")
    assert code == 0
    assert "value=2/1" in out
    assert "attained=true" in out


def test_exponent_infinite(files, capsys):
    code, out, _ = run_cli(capsys, "exponent", files["zero.dfao"], "--which", "critical")
    assert code == 0
    assert "value=inf" in out


def test_json_and_text_agree(files, capsys):
    code, text_out, _ = run_cli(capsys, "exponent", files["tm.dfao"], "--which", "critical")
    assert code == 0
    code, json_out, _ = run_cli(capsys, "exponent", files["tm.dfao"], "--which", "critical", "--json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["values"]["value"] == "2/1"
    assert payload["attained"] is True
    assert "value=2/1" in text_out and "attained=true" in text_out
    assert payload["input_digest"]
    assert isinstance(payload["time_ms"], int)


def test_golden_json_shape(files, capsys):
    code, out, _ = run_cli(capsys, "sup", files["pairs.dfa"], "--json")
    assert code == 0
    payload = json.loads(out)
    payload["time_ms"] = 0  # wall time is the only run-dependent field
    assert payload == {
        "attained": True,
        "command": f"critex sup {files['pairs.dfa']} --json",
        "input_digest": payload["input_digest"],
        "sizes": {"input_states": 3},
        "time_ms": 0,
        "values": {"value": "1/1"},
        "witness": "word [1,1] pair=(1,1)",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("exponent", "tm.dfao"),
        ("recurrence", "zero.dfao"),
        ("sup", "pairs.dfa"),
        ("special", "pairs.dfa"),
        ("eval", "tm.dfao", "--formula", "E i . seq[i] = seq[i+1]"),
        ("oracle", "prefix", "tm.dfao", "--n", "16"),
        ("oracle", "quo", "pairs.dfa", "--n", "4"),
    ],
    ids=" ".join,
)
def test_each_command_reads_its_input_once_and_digests_those_bytes(files, capsys, monkeypatch, argv):
    argv = [files.get(a, a) for a in argv]
    path = next(a for a in argv if a in files.values())
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, out, _ = run_cli(capsys, *argv, "--json")
    monkeypatch.undo()
    assert code == 0
    assert opened.count(path) == 1
    assert json.loads(out)["input_digest"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_sup_and_special(files, capsys):
    code, out, _ = run_cli(capsys, "sup", files["pairs.dfa"])
    assert code == 0 and "value=1/1" in out and "attained=true" in out
    code, out, _ = run_cli(capsys, "special", files["pairs.dfa"])
    assert code == 0 and "value=1/2" in out
    code, out, _ = run_cli(capsys, "sup", files["unbounded.dfa"])
    assert code == 0 and "value=inf" in out


def test_special_finite_is_precondition_error(files, capsys):
    code, _, err = run_cli(capsys, "special", files["finite.dfa"])
    assert code == 3
    assert "finite" in err


def test_recurrence_reports(files, capsys):
    code, out, _ = run_cli(capsys, "recurrence", files["zero.dfao"])
    assert code == 0
    assert "linearly-recurrent=true" in out and "value=1/1" in out
    code, out, _ = run_cli(capsys, "recurrence", files["one_then_zeros.dfao"])
    assert code == 0
    assert "linearly-recurrent=false" in out and "reason=not-recurrent" in out


def test_eval_sentence_and_dump(files, capsys, tmp_path):
    code, out, _ = run_cli(capsys, "eval", files["tm.dfao"], "--formula", "E i . seq[i] = 1")
    assert code == 0 and "sentence=true" in out
    code, out, _ = run_cli(capsys, "eval", files["tm.dfao"], "--formula", "A i . seq[i] = 0")
    assert code == 0 and "sentence=false" in out
    dump = tmp_path / "period.dfa"
    code, out, _ = run_cli(
        capsys,
        "eval",
        files["tm.dfao"],
        "--formula",
        "p >= 1 & (E i . A j . j + p < q -> seq[i+j] = seq[i+p+j])",
        "--vars",
        "q,p",
        "--dump",
        str(dump),
    )
    assert code == 0 and dump.exists()
    from critex.autfile import load_automaton
    from critex.exponents import period_language
    from reference import language_equal

    dumped = load_automaton(str(dump))
    assert language_equal(dumped, period_language(thue_morse()))


def test_reused_parser_carries_nothing_between_calls(files, capsys, tmp_path):
    from critex import cli

    cli.build_parser.cache_clear()
    dump = tmp_path / "n.dfa"
    argv = ("eval", files["tm.dfao"], "--formula", "seq[n] = 1", "--vars", "n")
    code, out, _ = run_cli(capsys, *argv, "--dump", str(dump))
    assert code == 0 and f"dumped={dump}" in out
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "dumped=(no --dump file given; machine discarded)" in out
    code, out, _ = run_cli(capsys, "exponent", files["tm.dfao"], "--which", "c1")
    assert code == 0 and "measure=c1" in out
    code, out, _ = run_cli(capsys, "exponent", files["tm.dfao"])
    assert code == 0 and "measure=critical" in out
    code, _, err = run_cli(capsys, "exponent", files["tm.dfao"], "--which", "nope")
    assert code == 2 and "invalid choice" in err
    code, out, _ = run_cli(capsys, "sup", files["pairs.dfa"])
    assert code == 0 and "value=1/1" in out
    # six calls, one parser
    assert cli.build_parser.cache_info().misses == 1


def test_eval_open_formula_needs_vars(files, capsys):
    code, _, err = run_cli(capsys, "eval", files["tm.dfao"], "--formula", "seq[x] = 1")
    assert code == 2 and "--vars" in err


@pytest.mark.parametrize("options", [("--vars",), ("--dump",), ("--vars", "--dump")])
def test_eval_closed_formula_refuses_vars_and_dump(files, capsys, tmp_path, options):
    dump = tmp_path / "out.txt"
    values = {"--vars": "x", "--dump": str(dump)}
    argv = [arg for opt in options for arg in (opt, values[opt])]
    code, _, err = run_cli(capsys, "eval", files["tm.dfao"], "--formula", "E i . seq[i] = 1", *argv)
    assert code == 2 and all(opt in err for opt in options)
    assert not dump.exists()


def test_formula_syntax_error_is_input_error(files, capsys):
    code, _, err = run_cli(capsys, "eval", files["tm.dfao"], "--formula", "E i .")
    assert code == 2 and "position" in err


def test_oracle_commands(files, capsys):
    code, out, _ = run_cli(capsys, "oracle", "prefix", files["tm.dfao"], "--n", "16")
    assert code == 0 and "prefix=0110100110010110" in out
    code, out, _ = run_cli(capsys, "oracle", "scan", files["tm.dfao"], "--n", "16384", "--max-period", "64")
    assert code == 0 and "value=2/1" in out
    code, out, _ = run_cli(capsys, "oracle", "recurrence", files["zero.dfao"], "--n", "1024")
    assert code == 0 and "value=1/1" in out
    code, out, _ = run_cli(capsys, "oracle", "quo", files["pairs.dfa"], "--n", "4")
    assert code == 0 and "count=4" in out and "max=1/1" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "tm.dfao", "--n", "0"),
        ("scan", "tm.dfao", "--n", "-5"),
        ("scan", "tm.dfao", "--max-period", "0"),
        ("ice", "tm.dfao", "--n", "0"),
        ("recurrence", "tm.dfao", "--max-period", "0"),
        ("quo", "pairs.dfa", "--n", "-1"),
    ],
    ids=" ".join,
)
def test_oracle_out_of_range_option_is_input_error(files, capsys, argv):
    sub, name, *opts = argv
    code, out, err = run_cli(capsys, "oracle", sub, files[name], *opts)
    assert code == 2 and err.startswith("error: ") and not out


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "exponent", "/nonexistent/x.dfao")
    assert code == 2


def test_bad_automaton_file_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.dfao"
    p.write_text("not an automaton\n")
    code, _, err = run_cli(capsys, "exponent", str(p))
    assert code == 2


def test_non_utf8_automaton_file_is_input_error(tmp_path, capsys):
    p = tmp_path / "binary.dfa"
    p.write_bytes(b"critex-automaton v1\n\xff\xfe\x00\x81\n")
    code, out, err = run_cli(capsys, "sup", str(p))
    assert code == 2 and not out
    assert err.startswith("error: ") and "binary.dfa" in err and "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command,name,old,new,needle",
    [
        ("exponent", "tm.dfao", "order: msd", "order: lsd", "order"),
        ("sup", "pairs.dfa", "order: msd", "order: lsd", "order"),
        ("exponent", "tm.dfao", "output: 0:0 1:1", "output: 0:0 1:1 0:1", "output state 0"),
        ("sup", "finite.dfa", "accepting:", "acepting:", "unknown key 'acepting'"),
        ("sup", "finite.dfa", "accepting:", "accepting: -1", "accepting state -1 out of range"),
        ("exponent", "tm.dfao", "output: 0:0 1:1", "output: 0:0 1:1 -1:1", "output state -1 out of range"),
        ("exponent", "tm.dfao", "output: 0:0 1:1", "output: 0:0 1:1\naccepting: 0", "key 'accepting'"),
    ],
)
def test_refused_automaton_file_is_input_error(files, tmp_path, capsys, command, name, old, new, needle):
    p = tmp_path / name
    p.write_text(Path(files[name]).read_text().replace(old, new))
    code, out, err = run_cli(capsys, command, str(p))
    assert code == 2
    assert needle in err and "value=" not in out


@pytest.mark.parametrize("argv", [["exponent"], ["eval", "--formula", "E i . seq[i] = seq[i+1]"]])
def test_multi_track_dfao_is_input_error(tmp_path, capsys, argv):
    p = tmp_path / "two_track.dfao"
    save_automaton(str(p), Dfao(2, 2, [[0, 0, 0, 0]], ["a"], 0))
    code, _, err = run_cli(capsys, argv[0], str(p), *argv[1:])
    assert code == 2
    assert "reads 1 track, found 2" in err and "Traceback" not in err


def test_non_zero_invariant_dfao_rejected(tmp_path, capsys):
    # output flips when a leading zero is read: depends on padding
    text = """critex-automaton v1
base: 2
tracks: 1
kind: dfao
order: msd
states: 2
initial: 0
output: 0:0 1:1
trans: 0 [0] -> 1
trans: 0 [1] -> 1
trans: 1 [0] -> 0
trans: 1 [1] -> 0
"""
    p = tmp_path / "pad.dfao"
    p.write_text(text)
    code, _, err = run_cli(capsys, "exponent", str(p))
    assert code == 2
    assert "invariant" in err


def test_state_limit_is_internal_error(files, capsys, monkeypatch):
    monkeypatch.setenv("CRITEX_MAX_STATES", "3")
    code, _, err = run_cli(capsys, "exponent", files["tm.dfao"])
    assert code == 4
    assert "states" in err


@pytest.mark.parametrize("value", ["500k", "0", "-3"])
def test_malformed_state_limit_is_input_error(files, capsys, monkeypatch, value):
    monkeypatch.setenv("CRITEX_MAX_STATES", value)
    code, out, err = run_cli(capsys, "exponent", files["tm.dfao"], "--which", "critical")
    assert code == 2 and out == ""
    assert "CRITEX_MAX_STATES" in err and repr(value) in err


def test_huge_constant_compiles_under_a_small_state_cap(files, capsys, monkeypatch):
    monkeypatch.setenv("CRITEX_MAX_STATES", "1000")
    code, out, err = run_cli(capsys, "eval", files["tm.dfao"], "--formula", "E i . i = 1000000 & seq[i] = 1")
    assert code == 0, err
    assert "sentence=true" in out


def test_out_of_memory_exits_4_without_a_traceback(files, capsys, monkeypatch):
    from critex import cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_recurrence", exhausted)
    code, out, err = run_cli(capsys, "recurrence", files["tm.dfao"])
    assert code == 4 and out == ""
    assert err == "internal: out of memory\n"


@pytest.mark.parametrize(
    "formula, extra",
    [("~" * 3000 + "seq[0]=0", []), (" & ".join(["x = 1"] * 3000), ["--vars", "x"])],
)
def test_deeply_nested_formula_exits_4_without_a_traceback(files, capsys, formula, extra):
    # the parser's `unary` and `logic.free_vars` recurse once per level
    code, out, err = run_cli(capsys, "eval", files["tm.dfao"], "--formula", formula, *extra)
    assert code == 4 and out == ""
    assert err.startswith("internal: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "size_lines, needle",
    [("tracks: 1\nstates: 300000\n", "300001 states"), ("tracks: 22\nstates: 1\n", "22 tracks")],
)
def test_automaton_file_over_the_state_cap_exits_4(tmp_path, capsys, monkeypatch, size_lines, needle):
    p = tmp_path / "big.dfa"
    p.write_text(
        "critex-automaton v1\nbase: 2\n" + size_lines + "kind: dfa\norder: msd\ninitial: 0\naccepting: 0\n"
    )
    monkeypatch.setenv("CRITEX_MAX_STATES", "1000")
    code, out, err = run_cli(capsys, "sup", str(p))
    assert code == 4 and out == ""
    assert err.startswith(f"internal: {p}: ") and needle in err


def test_projection_state_cap_exits_4(files, capsys, monkeypatch):
    # the first reversed pass of one projection in the offset form of the tm
    # gap language needs 100 subsets, more than any other construction of
    # that compile
    from reference import OFFSET_GAP_FORMULA

    argv = ("eval", files["tm.dfao"], "--formula", OFFSET_GAP_FORMULA, "--vars", "n,l")
    monkeypatch.setenv("CRITEX_MAX_STATES", "99")
    code, _, err = run_cli(capsys, *argv)
    assert code == 4
    assert "exceeded 99 states" in err
    monkeypatch.setenv("CRITEX_MAX_STATES", "100")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert "compiled_states=12" in out


def test_console_entry_point_smoke(files):
    # the child finds critex where this process did, installed or not
    import critex

    src = str(Path(critex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "critex", "exponent", files["tm.dfao"], "--which", "critical"],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "value=2/1" in proc.stdout


def _run_python(flags, script, cwd):
    import critex

    src = str(Path(critex.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *flags, "-c", f"import sys\nsys.path.insert(0, {src!r})\n" + script],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
    )


def test_invariant_breach_is_internal_error_under_optimize(tmp_path):
    script = """
from critex import cli, quotient
real = quotient.max_pump_weight
def off_by_one(*args, **kw):
    got = real(*args, **kw)
    return None if got is None else (got[0] + 1, got[1])
quotient.max_pump_weight = off_by_one
sys.exit(cli.main(["special", "pairs.dfa"]))
"""
    save_automaton(str(tmp_path / "pairs.dfa"), pairs_ones_then_01())
    proc = _run_python(["-O"], script, tmp_path)
    assert proc.returncode == 4, proc.stderr
    assert "internal:" in proc.stderr


def test_solving_path_runs_without_numpy(tmp_path):
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    script = f"""
sys.modules["numpy"] = None
from critex import cli
code = cli.main(["exponent", {str(fixtures / "tm.dfao")!r}, "--which", "critical"])
assert code == 0, code
code = cli.main(["eval", {str(fixtures / "tm.dfao")!r}, "--formula", "p >= 1 & seq[q] = seq[q+p]",
                 "--vars", "q,p", "--dump", "out.dfa"])
assert code == 0, code
"""
    proc = _run_python([], script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "value=2/1" in proc.stdout
    assert (tmp_path / "out.dfa").exists()


@pytest.mark.parametrize("formula, extra", [("seq[x] = 9", ["--vars", "x"]), ("seq[0] = 9", [])])
def test_unknown_output_symbol_is_input_error(files, capsys, formula, extra):
    code, _, err = run_cli(capsys, "eval", files["tm.dfao"], "--formula", formula, *extra)
    assert code == 2
    assert err.strip() == "error: output symbol '9' not in the sequence alphabet"
