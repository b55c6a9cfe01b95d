"""One group of a workload's jobs in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <mode> <result.json> <group>

mode "setup" only sets up; "run" sets up and runs group number <group> of
the job list; "trace" does the same with every layer function wrapped, and
writes the spans next to the result.  The result file holds the set-up
time, each job's latency and rendered output, and the process's peak
resident memory.  Each group is its own process so that critex's in-process
memos start empty, as they do for a user who runs one sweep or one command
per interpreter.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, mode, result_path, group = argv[0], int(argv[1]), argv[2], Path(argv[3]), int(argv[4])
    wl = workloads.WORKLOADS[name](seed, workloads.load_expected())
    wanted = set(wl.groups()[group])
    jobs = [job for job in wl.setup() if job.key in wanted]
    setup_s = time.perf_counter() - STARTED
    result = {"setup_s": setup_s}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        outs, latencies = [], []
        loop_start = time.perf_counter()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            t0 = time.perf_counter()
            try:
                out, error = wl.run(job), None
            except Exception:  # a failed job is counted, never fatal to the run
                out, error = None, traceback.format_exc(limit=3)
            latencies.append(time.perf_counter() - t0)
            outs.append((out, error))
        result["run_s"] = time.perf_counter() - loop_start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["trace"] = tracer.aggregate()
            tracer.write(result_path.with_suffix(".spans.jsonl"))
        result["jobs"] = []
        for job, seconds, (out, error) in zip(jobs, latencies, outs):
            output = None
            if error is None:
                try:
                    output = wl.render(job, out)
                except Exception:  # an unreadable output is a failed job
                    error = traceback.format_exc(limit=3)
            result["jobs"].append({"key": job.key, "ms": seconds * 1000, "error": error, "output": output})
        result["env"] = {v: os.environ.get(v) for v in ("CRITEX_THREADS", "CRITEX_MAX_STATES")}
    wl.cleanup()
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
