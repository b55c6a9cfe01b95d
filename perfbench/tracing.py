"""Outside-in tracing: wrap the public functions of each critex layer from
the benchmark's own code and record one span per call.

A function is wrapped once and the wrapper is installed under every critex
module namespace that holds the original, because `logic`, `quotient`,
`arith` and `exponents` import `determinize`, `minimize` and `product` by
name, and `automaton.canonicalize` calls `minimize` through the module
globals.  Spans nest through a stack; a span's self time is its duration
minus the durations of its direct children.  Spans stay in memory and are
written out once, at the end of the traced run.

A layer function that a later version of critex no longer has is skipped and
reports zero calls.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function) pairs; the atom builders other than const_eq_rel are
# reported together as "arith.atoms".
TRACED = (
    ("automaton", "determinize"),
    ("automaton", "minimize"),
    ("automaton", "product"),
    ("automaton", "project"),
    ("automaton", "lift_tracks"),
    ("automaton", "canonicalize"),
    ("arith", "const_eq_rel"),
    ("arith", "cmp_rel"),
    ("arith", "eq_rel"),
    ("arith", "lt_rel"),
    ("arith", "add_rel"),
    ("arith", "successor_rel"),
    ("arith", "nonzero_track_dfa"),
    ("arith", "seq_eq"),
    ("arith", "seq_const"),
    ("logic", "parse"),
    ("logic", "compile_formula"),
    ("autfile", "load_automaton"),
    ("cli", "main"),
    ("quotient", "max_pump_weight"),
    ("quotient", "max_word_weight"),
    ("quotient", "sup_quo"),
    ("quotient", "largest_limit_quotient"),
    ("quotient", "bounded_max_ratio"),
    ("quotient", "rational_search"),
    ("quotient", "find_unbounded_pump"),
    ("exponents", "critical_exponent"),
    ("exponents", "recurrent_critical_exponent"),
    ("exponents", "special_exponent"),
    ("exponents", "initial_critical_exponents"),
    ("exponents", "diophantine_exponent"),
    ("exponents", "linear_recurrence"),
)
ATOMS = {"cmp_rel", "eq_rel", "lt_rel", "add_rel", "successor_rel", "nonzero_track_dfa", "seq_eq", "seq_const"}

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("automaton.determinize", ("calls", "self_ms", "states_in_sum", "states_out_sum", "states_out_max")),
    ("automaton.minimize", ("calls", "self_ms", "states_in_sum", "states_out_sum", "keep_ratio")),
    ("automaton.product", ("calls", "self_ms", "states_out_max")),
    ("automaton.project", ("calls", "self_ms")),
    ("automaton.lift_tracks", ("calls", "self_ms")),
    ("automaton.canonicalize", ("calls", "self_ms")),
    ("arith.const_eq_rel", ("calls", "self_ms", "states_out_max", "states_built_max")),
    ("arith.atoms", ("calls", "self_ms")),
    ("logic.parse", ("self_ms",)),
    ("logic.compile_formula", ("calls", "self_ms")),
    ("autfile.load_automaton", ("calls", "self_ms")),
    ("cli.main", ("self_ms",)),
    ("quotient.max_pump_weight", ("calls", "self_ms")),
    ("quotient.max_word_weight", ("calls", "self_ms")),
    ("quotient.sup_quo", ("calls", "self_ms")),
    ("quotient.largest_limit_quotient", ("calls", "self_ms")),
    ("quotient.bounded_max_ratio", ("calls", "self_ms")),
    ("quotient.rational_search", ("calls", "self_ms")),
    ("quotient.find_unbounded_pump", ("calls", "self_ms")),
    ("exponents.critical_exponent", ("self_ms",)),
    ("exponents.recurrent_critical_exponent", ("self_ms",)),
    ("exponents.special_exponent", ("self_ms",)),
    ("exponents.initial_critical_exponents", ("self_ms",)),
    ("exponents.diophantine_exponent", ("self_ms",)),
    ("exponents.linear_recurrence", ("self_ms",)),
)
UNITS = {"calls": "count", "self_ms": "ms", "keep_ratio": "ratio"}
EMPTY = {"calls": 0, "self_ns": 0, "in": 0, "out": 0, "out_max": 0, "built_max": 0}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, the overhead ratio last."""
    out = [(f"{layer}.{stat}", UNITS.get(stat, "states")) for layer, stats in PER_LAYER for stat in stats]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def _states(x):
    n = getattr(x, "num_states", None)
    return n if isinstance(n, int) else None


class Tracer:
    def __init__(self):
        # span: [name, parent index, job, start_ns, end_ns, states_in, states_out]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.job, 0, 0, _states(args[0]) if args else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            rec[6] = _states(out)
            return out

        return traced

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if m is not None and (n == "critex" or n.startswith("critex."))]
        for mod_name, fn_name in TRACED:
            mod = sys.modules.get(f"critex.{mod_name}")
            fn = getattr(mod, fn_name, None)
            if fn is None:
                continue
            layer = "arith.atoms" if fn_name in ATOMS else f"{mod_name}.{fn_name}"
            wrapper = self._wrap(layer, fn)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, job, t0, t1, s_in, s_out in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "job": job, "start_ns": t0,
                                     "end_ns": t1, "states_in": s_in, "states_out": s_out}) + "\n")

    def aggregate(self) -> dict:
        """Per-layer totals of this process's spans: calls, self time, states."""
        child_ns = [0] * len(self.spans)
        child_in_max = [0] * len(self.spans)  # the largest machine a span handed down
        for name, parent, _, t0, t1, s_in, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
                child_in_max[parent] = max(child_in_max[parent], s_in or 0)
        agg: dict[str, dict] = {}
        for i, (name, _, _, t0, t1, s_in, s_out) in enumerate(self.spans):
            a = agg.setdefault(name, dict(EMPTY))
            a["calls"] += 1
            a["self_ns"] += (t1 - t0) - child_ns[i]
            a["in"] += s_in or 0
            a["out"] += s_out or 0
            a["out_max"] = max(a["out_max"], s_out or 0)
            a["built_max"] = max(a["built_max"], s_out or 0, child_in_max[i])
        return agg


def layer_metrics(aggregates: list[dict]) -> dict:
    """Per-layer metrics (all but the overhead ratio) over several processes'
    aggregates, plus total_self_ms, the self time of every span."""
    total: dict[str, dict] = {}
    for agg in aggregates:
        for name, a in agg.items():
            t = total.setdefault(name, dict(EMPTY))
            for key in ("calls", "self_ns", "in", "out"):
                t[key] += a[key]
            for key in ("out_max", "built_max"):
                t[key] = max(t[key], a[key])
    out = {}
    for layer, stats in PER_LAYER:
        a = total.get(layer, EMPTY)
        values = {
            "calls": a["calls"],
            "self_ms": a["self_ns"] / 1e6,
            "states_in_sum": a["in"],
            "states_out_sum": a["out"],
            "states_out_max": a["out_max"],
            "states_built_max": a["built_max"],
            "keep_ratio": a["out"] / a["in"] if a["in"] else 0.0,
        }
        for stat in stats:
            out[f"{layer}.{stat}"] = values[stat]
    out["total_self_ms"] = sum(a["self_ns"] for a in total.values()) / 1e6
    return out
