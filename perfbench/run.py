"""critex benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload measures|pairs|formulas --seed N \\
        --seconds S --trace 0|1

Each workload is a closed loop with one caller in one single-threaded
process.  A workload's job list is cut into groups that share no memo (one
per sequence for `measures`, a single group otherwise), and each group runs
in a fresh interpreter that sets up (imports critex, builds the sequences,
makes the seeded inputs) and then runs the group's jobs, so critex's
in-process memos start empty as they do for a user.  An untraced run times
three set-ups on their own, runs every group once and then repeats groups
(see `untraced`); the metrics are described in `job_stats`, and setup_s is
the median over all set-ups.  A traced run runs every group traced and
reports the per-layer metrics; untraced runs of the same groups give the
tracing overhead.

Every job's output is compared with perfbench/expected.json; a job fails if
it raises, exits nonzero or differs.  The last line of standard output is
the result object; the lines before it describe the run, the machine and the
tail percentile used.  CRITEX_THREADS and CRITEX_MAX_STATES are removed from
the runs' environment so both stay at their defaults, and PYTHONHASHSEED is
fixed so traced counts repeat exactly.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 3
TAIL_BEYOND = 10  # the tail percentile keeps this many jobs beyond it
BUDGET_S = 170.0  # every run ends well inside the 180 s a run may take


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
    }


class Runner:
    def __init__(self, workload: str, seed: int, groups: list[list[str]]):
        self.workload, self.seed, self.groups = workload, seed, groups
        self.deadline = time.monotonic() + BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if k not in ("CRITEX_THREADS", "CRITEX_MAX_STATES")}
        self.env["PYTHONHASHSEED"] = "0"
        self.count = 0
        self.runs: list[tuple[int, dict | None]] = []  # (jobs planned, result)

    def child(self, mode: str, group: int = 0) -> dict | None:
        """One fresh interpreter running one group of the job list; None if
        it crashed or ran out of time."""
        self.count += 1
        out = wl.WORK_DIR / f"{self.workload}-{self.seed}-{mode}-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed), mode, str(out), str(group)]
        result = None
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=sys.stderr.fileno(),
                                  timeout=max(1.0, self.deadline - time.monotonic()))
            if proc.returncode == 0 and out.exists():
                result = json.loads(out.read_text())
                out.unlink()
            else:
                print(f"{mode} run exited with {proc.returncode}", file=sys.stderr)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            print(f"{mode} run ran out of time", file=sys.stderr)
        if mode != "setup":
            self.runs.append((len(self.groups[group]), result))
        return result


def check(runs: list[tuple[int, dict | None]], expected: dict) -> tuple[int, int, list[str]]:
    """Attempted and failed job counts over all runs, with a note per failure."""
    attempted = failed = 0
    notes = []
    for planned, r in runs:
        if r is None:
            attempted += planned
            failed += planned
            notes.append("a run produced no result")
            continue
        for job in r["jobs"]:
            attempted += 1
            want = expected[job["key"]]["output"]
            if job["error"] is not None or job["output"] != want:
                failed += 1
                notes.append(f"{job['key']}: {job['error'] or json.dumps(job['output'])}")
    return attempted, failed, notes


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density over their
    ranks.

    Measured on a few dozen jobs whose latencies cluster with gaps between
    clusters, a single order statistic jumps from one cluster to the next
    when one job near it is slow, or when the seed's job order makes it
    slower; this estimate moves with all of its neighbours.  Over ten seeds
    the single order statistic at the tail percentile of `pairs` spread by
    about a quarter of its median, as much as the bound allows.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)

    def log_density(t: float) -> float:  # up to a constant, which cancels below
        return (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)

    peak = log_density((a - 1) / (a + b - 2))  # keeps exp() away from underflow

    def density(t: float) -> float:
        return 0.0 if t <= 0.0 or t >= 1.0 else math.exp(log_density(t) - peak)

    steps = 16  # Simpson's rule over each rank's interval [i/n, (i+1)/n]
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append(density(lo) + inner + density(lo + steps * h))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_quantile(jobs: int) -> float:
    """The highest quantile that still has TAIL_BEYOND jobs beyond it."""
    return max(0.5, (jobs - TAIL_BEYOND) / jobs)


def job_stats(runs: list[list[dict]]) -> dict:
    """runs[g] holds every run of group g.  Each job's latency is its median
    over its runs; the median and the tail percentile are Harrell-Davis
    estimates over jobs.  run_s adds up each group's median run;
    peak_rss_mb is the largest of the groups' median peaks.

    Medians, not the fastest runs: on a shared 2-vCPU machine whose speed
    drifts, the fastest of three to six runs is an extreme that moves from
    run to run.  Over twenty runs of each workload, taking each job's
    median instead of its fastest run roughly halved the spread of the
    median and tail job latencies between runs.
    """
    per_job: dict[str, list[float]] = {}
    for group_runs in runs:
        for r in group_runs:
            for j in r["jobs"]:
                per_job.setdefault(j["key"], []).append(j["ms"])
    ms = sorted(statistics.median(v) for v in per_job.values())
    return {
        "run_s": sum(statistics.median(r["run_s"] for r in group_runs) for group_runs in runs),
        "job_p50_ms": hd_quantile(ms, 0.5),
        "job_tail_ms": hd_quantile(ms, tail_quantile(len(ms))),
        "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in group_runs) for group_runs in runs),
    }


def untraced(runner: Runner, seconds: float) -> dict:
    """Every group once, then further runs of the groups, in turn, until
    --seconds have passed and for at least two thirds of --seconds after the
    first pass; a group is run again only if its first run says it will
    finish in the time left, so `measures`, whose rs group alone takes
    longer than --seconds, still repeats its cheaper groups."""
    runner.child("setup")  # compiles bytecode and warms the file cache; not timed
    setups = [runner.child("setup") for _ in range(SETUP_SAMPLES)]
    started = time.monotonic()
    runs = [[runner.child("run", g)] for g in range(len(runner.groups))]
    if None in setups or any(group_runs[0] is None for group_runs in runs):
        return {}
    cost = [group_runs[0]["setup_s"] + group_runs[0]["run_s"] for group_runs in runs]
    ends_by = min(max(started + seconds, time.monotonic() + 2 * seconds / 3), runner.deadline - 5.0)
    repeated = True
    while repeated:
        repeated = False
        for g, group_runs in enumerate(runs):
            if time.monotonic() + cost[g] <= ends_by:
                r = runner.child("run", g)
                if r is None:
                    return {}
                group_runs.append(r)
                repeated = True
    metrics = job_stats(runs)
    metrics["setup_s"] = statistics.median(
        [s["setup_s"] for s in setups] + [r["setup_s"] for group_runs in runs for r in group_runs]
    )
    return metrics


def traced(runner: Runner) -> dict:
    """Every group traced, then the same groups untraced, as many as fit in
    the run's time budget, for the overhead ratio."""
    runner.child("setup")
    traced_runs = [runner.child("trace", g) for g in range(len(runner.groups))]
    if None in traced_runs:
        return {}
    plain = []
    for g, t in enumerate(traced_runs):
        if plain and time.monotonic() + t["setup_s"] + t["run_s"] > runner.deadline - 5.0:
            break
        r = runner.child("run", g)
        if r is None:
            return {}
        plain.append(r)
    metrics = tracing.layer_metrics([t["trace"] for t in traced_runs])
    metrics["trace.overhead_ratio"] = (
        sum(t["run_s"] for t in traced_runs[: len(plain)]) / sum(r["run_s"] for r in plain)
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "critex" / "__init__.py").is_file():
        print(f"error: no critex source tree under {ROOT}", file=sys.stderr)
        return 2
    missing = [f for f in wl.FORMULA_FILES.values() if not (ROOT / f).is_file()]
    if missing:
        print(f"error: missing sequence files {missing}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected_all = wl.load_expected()
    expected = expected_all[args.workload]
    wl.WORK_DIR.mkdir(exist_ok=True)

    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    runner = Runner(args.workload, args.seed, wl.WORKLOADS[args.workload](args.seed, expected_all).groups())
    measured = traced(runner) if args.trace else untraced(runner, args.seconds)
    attempted, failed, notes = check(runner.runs, expected)
    wanted = [(m["name"], m["unit"]) for m in bench["per_layer" if args.trace else "end_to_end"]]
    complete = all(name in measured for name, _ in wanted)
    correct = failed == 0 and complete
    good = [r for _, r in runner.runs if r is not None]
    jobs = len(expected)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "runs": len(runner.runs),
        "jobs": jobs,
        "job_tail_percentile": 100 * tail_quantile(jobs),
        "fail_ratio": failed / attempted,
        "machine": machine(),
        "critex_env": good[0]["env"] if good else None,
    }
    if args.trace and complete:
        total = measured["total_self_ms"] or 1.0
        shares = {n: measured[n] / total for n, _ in wanted if n.endswith(".self_ms")}
        info["self_share_top"] = dict(sorted(shares.items(), key=lambda kv: -kv[1])[:6])
    for note in notes[:20]:
        print(f"failed: {note}", file=sys.stderr)
    print(json.dumps(info))
    runs_ms = [{j["key"]: j["ms"] for j in r["jobs"]} | {"run_s": r["run_s"]} for r in good]
    (wl.WORK_DIR / f"last-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "metrics": measured, "runs": runs_ms}, indent=1)
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in wanted if name in measured},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
