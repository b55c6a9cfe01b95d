"""Regenerate expected.json: draw the input pools, run every job once on the
current code, cross-check every result independently (certify.py) and
freeze the results.

    python3 perfbench/freeze.py

Run it only when the pools change; a change to critex must reproduce the
frozen results, not refreeze them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import certify  # noqa: E402
import workloads as wl  # noqa: E402

PAIRS_POOL = 48
FORMULAS_POOL = 192


def prepared_states(rows, accept) -> int | None:
    """Prepared size of a pair-pool candidate, or None if its language is
    finite (it would have no largest limit value)."""
    from critex.arith import nonzero_track_dfa
    from critex.automaton import Dfa, canonicalize, is_infinite, product
    from critex.numeral import RadixContext

    work = canonicalize(product(Dfa(2, 2, rows, accept, 0), nonzero_track_dfa(RadixContext(2), 2, 1), "and"))
    return work.num_states if is_infinite(work) else None


def pair_pool() -> dict:
    pool, seed = {}, 0
    lo, hi = wl.PAIR_BAND
    while len(pool) < PAIRS_POOL:
        rows, accept, threshold = wl.pair_candidate(seed)
        size = prepared_states(rows, accept)
        if size is not None and lo <= size <= hi:
            pool[str(seed)] = {"threshold": str(threshold), "prepared_states": size}
        seed += 1
    return pool


def run_all(name: str, pool: dict) -> dict:
    workload = wl.WORKLOADS[name](0, {name: pool})
    jobs = workload.setup()
    out = {}
    for job in jobs:
        got = workload.render(job, workload.run(job))
        entry = pool[job.key] or {}
        if name == "measures":
            seq, measure = job.key.split("/")
            certify.check_measure(seq, measure, got)
        elif name == "pairs":
            rows, accept, _ = wl.pair_candidate(int(job.key))
            certify.check_pair(rows, accept, got)
        else:
            dump = job.spec[job.spec.index("--dump") + 1] if "--dump" in job.spec else None
            certify.check_formula(entry, got, Path(dump).read_text() if dump else None)
        out[job.key] = {**entry, "output": got}
        print(name, job.key, json.dumps(got)[:120], flush=True)
    workload.cleanup()
    return dict(sorted(out.items()))


def main() -> int:
    expected = {
        "measures": run_all("measures", {f"{s}/{m}": None for s in wl.MEASURE_SEQUENCES for m in wl.MEASURES}),
        "pairs": run_all("pairs", pair_pool()),
        "formulas": run_all("formulas", {str(i): wl.formula_candidate(i) for i in range(FORMULAS_POOL)}),
    }
    wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
