"""Tests of the benchmark itself: seeded inputs, the pair band, repeatable
traced counts, the independent cross-checks of expected.json, and the
refusal to run without a source tree.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import certify  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

EXPECTED = wl.load_expected()


def _inputs(name: str, seed: int) -> bytes:
    workload = wl.WORKLOADS[name](seed, EXPECTED)
    data = workload.input_bytes(workload.setup())
    workload.cleanup()
    return data


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_fixes_the_inputs(name):
    first = _inputs(name, 7)
    assert _inputs(name, 7) == first
    assert _inputs(name, 8) != first


def test_pair_inputs_lie_in_the_band_with_finite_suprema():
    from critex.arith import nonzero_track_dfa
    from critex.automaton import Dfa, canonicalize, is_infinite, product
    from critex.numeral import RadixContext
    from critex.quotient import find_unbounded_pump

    nz = nonzero_track_dfa(RadixContext(2), 2, 1)
    lo, hi = wl.PAIR_BAND
    for key, entry in EXPECTED["pairs"].items():
        rows, accept, threshold = wl.pair_candidate(int(key))
        work = canonicalize(product(Dfa(2, 2, rows, accept, 0), nz, "and"))
        assert lo <= work.num_states <= hi, key
        assert work.num_states == entry["prepared_states"], key
        assert str(threshold) == entry["threshold"], key
        assert is_infinite(work), key
        assert find_unbounded_pump(work) is None, key
        assert entry["output"]["sup"] != "inf", key


def _traced_counts(name: str, tmp: Path) -> list[dict]:
    procs = []
    for i in range(2):
        out = tmp / f"{name}-{i}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), name, "3", "trace", str(out), "0"]
        env = {k: v for k, v in os.environ.items() if not k.startswith("CRITEX_")} | {"PYTHONHASHSEED": "0"}
        procs.append((subprocess.Popen(cmd, env=env), out))
    counts = []
    for proc, out in procs:
        assert proc.wait(timeout=170) == 0
        metrics = tracing.layer_metrics([json.loads(out.read_text())["trace"]])
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_ms")})
    return counts


@pytest.mark.parametrize("name", ["pairs", "formulas"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    first, second = _traced_counts(name, tmp_path)
    assert first == second
    layer = "quotient.max_pump_weight" if name == "pairs" else "automaton.minimize"
    assert first[f"{layer}.calls"] > 0


def test_benchmark_lists_every_traced_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)


def test_tail_estimate_lies_between_its_neighbouring_jobs():
    rng = random.Random(3)
    xs = sorted(rng.uniform(1, 100) for _ in range(48))
    q = run.tail_quantile(len(xs))
    assert q == (48 - run.TAIL_BEYOND) / 48
    assert xs[len(xs) - run.TAIL_BEYOND - 3] < run.hd_quantile(xs, q) < xs[len(xs) - run.TAIL_BEYOND + 1]
    assert run.hd_quantile(xs, 0.5) < run.hd_quantile(xs, q)
    assert run.hd_quantile([7.0] * 30, run.tail_quantile(30)) == pytest.approx(7.0)


@pytest.mark.parametrize("key", sorted(EXPECTED["measures"]))
def test_measure_results_cross_check(key):
    seq, measure = key.split("/")
    certify.check_measure(seq, measure, EXPECTED["measures"][key]["output"])


def test_pair_results_cross_check():
    for key, entry in EXPECTED["pairs"].items():
        rows, accept, _ = wl.pair_candidate(int(key))
        certify.check_pair(rows, accept, entry["output"])


def test_formula_results_cross_check():
    """Every entry still comes from its generator; sentences are checked
    directly, and a seeded sample of open formulas is recompiled and its
    dumped machine compared with direct evaluation."""
    workload = wl.Formulas(0, EXPECTED)
    jobs = {job.key: job for job in workload.setup()}
    try:
        for key, entry in EXPECTED["formulas"].items():
            assert {k: v for k, v in entry.items() if k != "output"} == wl.formula_candidate(int(key))
        sample = random.Random(0).sample(sorted(jobs), 32)
        for key in sample:
            job, entry = jobs[key], EXPECTED["formulas"][key]
            got = workload.render(job, workload.run(job))
            assert got == entry["output"], key
            dump = job.spec[job.spec.index("--dump") + 1] if "--dump" in job.spec else None
            certify.check_formula(entry, got, Path(dump).read_text() if dump else None)
    finally:
        workload.cleanup()


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
