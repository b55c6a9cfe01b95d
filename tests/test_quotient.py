import hashlib
import random
from fractions import Fraction

import pytest

from critex import automaton, cli, quotient
from critex.automaton import (
    Dfa,
    InvariantError,
    StateLimitError,
    canonicalize,
    enumerate_accepted,
    is_infinite,
    product,
    trim_states,
)
from critex.numeral import DigitWord, RadixContext, encode_pair, ratio
from critex.quotient import (
    EmptyLanguageError,
    FiniteLanguageError,
    QuotientError,
    SupResult,
    bounded_max_ratio,
    find_unbounded_pump,
    largest_limit_quotient,
    max_pump_weight,
    sup_quo,
    _prepare,
)
from critex.rational import INF

from helpers import (
    comparator_bounded_suite,
    dfa_for_words,
    pairs_ones_repeat,
    pairs_ones_then_01,
    pairs_single,
    pairs_unbounded,
    prepared_random_suite,
    verify_pump,
)
from reference import (
    Comparator,
    UndefinedRatioError,
    candidates,
    check_pair_closure,
    comparator_dfa,
    compare_language,
    heaviest_walk,
    is_sup_infinite_reference,
    max_pump_weight_per_component,
    max_pump_weight_reference,
    pump_decompositions,
    pump_ratio,
    sup_quo_reference,
)

CTX = RadixContext(2)


def W(pairs):
    return DigitWord.from_pairs(pairs, 2)


# ------------------------------------------------------------- pump ratio


def test_pump_ratio_examples():
    assert pump_ratio(W([]), W([(1, 1)])) == Fraction(1)
    assert pump_ratio(W([(1, 1)]), W([(0, 1)])) == Fraction(1, 2)
    assert pump_ratio(W([]), W([(1, 0)])) == INF


def test_pump_ratio_undefined():
    with pytest.raises(UndefinedRatioError):
        pump_ratio(W([(0, 0)]), W([(0, 0)]))
    with pytest.raises(QuotientError):
        pump_ratio(W([(1, 1)]), W([]))


# ------------------------------------------------------------- comparators


def test_comparator_equals_two_accepts_known_pair():
    c = comparator_dfa(Comparator(Fraction(2), "==", CTX))
    assert c.accepts(W([(1, 0), (1, 1), (0, 1)]))


def test_comparator_greater_one():
    c = comparator_dfa(Comparator(Fraction(1), ">", CTX))
    assert c.accepts(encode_pair(2, 1, CTX))
    assert not c.accepts(encode_pair(1, 1, CTX))


def test_comparator_seven_thirds():
    c = comparator_dfa(Comparator(Fraction(7, 3), "<=", CTX))
    assert c.accepts(encode_pair(7, 3, CTX))
    assert not c.accepts(encode_pair(8, 3, CTX))


def test_comparator_respects_the_state_cap(monkeypatch):
    # the comparator holds about P + Q running differences
    monkeypatch.setenv("CRITEX_MAX_STATES", "1000")
    with pytest.raises(StateLimitError):
        comparator_dfa(Comparator(Fraction(5001, 5000), "<=", CTX))


def test_comparator_cache_respects_the_state_cap(monkeypatch):
    # an earlier uncapped build of the same comparator must not let a capped
    # rebuild through
    comp = Comparator(Fraction(5001, 5000), "<=", CTX)
    assert comparator_dfa(comp).num_states > 1000
    monkeypatch.setenv("CRITEX_MAX_STATES", "1000")
    with pytest.raises(StateLimitError):
        comparator_dfa(comp)


def test_comparator_rejects_negative_threshold():
    with pytest.raises(QuotientError):
        Comparator(Fraction(-1, 2), "<", CTX)


def test_comparator_fuzz_all_relations():
    from property_suites import run_comparator_suite

    assert run_comparator_suite(10_000) == 10_000


# ------------------------------------------------------------- mediant and pump chains


def test_mediant_inequality_fuzz():
    from property_suites import run_mediant_suite

    assert run_mediant_suite(10_000) == 10_000


def test_pump_chain_trichotomy_and_convergence_fuzz():
    from property_suites import run_chain_suite

    assert run_chain_suite(10_000) == 10_000


# ------------------------------------------------------------- infinite sup


def test_is_sup_infinite_examples():
    unb = _prepare(pairs_unbounded(), CTX)
    pump = find_unbounded_pump(unb)
    assert pump is not None and pump.inc2 == 0 and pump.inc1 > 0
    assert verify_pump(unb, pump)
    small = _prepare(pairs_ones_then_01(), CTX)
    assert find_unbounded_pump(small) is None
    assert find_unbounded_pump(_prepare(dfa_for_words(2, 2, []), CTX)) is None


def test_unbounded_pump_witnesses_are_pinned():
    # the digest of the rendered witnesses over 500 small machines, 499 of
    # which have an unbounded pump; any change in the search order shows here
    suite = [m for s in range(10) for m in prepared_random_suite(9000 + s, 50, max_states=5)]
    pumps = [find_unbounded_pump(m) for m in suite]
    assert sum(p is not None for p in pumps) == 499
    got = hashlib.sha256("\n".join(str(cli.render_witness(p)) for p in pumps).encode()).hexdigest()
    assert got == "23523b2b0563d65689eae60e67fcd1a5234cadd21f1933ac15012a16d90d98ce"


def test_standalone_unbounded_pump_search_builds_no_full_pump_graph(monkeypatch):
    # without a graph the search builds the trim part and its moves only, so
    # its one component pass is over the zero-denominator moves
    work = _prepare(pairs_unbounded(), CTX)
    expected = find_unbounded_pump(work, quotient.pump_graph(work))
    calls = []
    real = quotient._cycle_adjacency
    monkeypatch.setattr(quotient, "_cycle_adjacency", lambda adj: calls.append(adj) or real(adj))
    assert expected is not None and find_unbounded_pump(work) == expected
    assert len(calls) == 1


def test_is_sup_infinite_matches_reference_on_random_machines():
    for machine in prepared_random_suite(4200, 30, max_states=3):
        got = find_unbounded_pump(machine) is not None
        want = is_sup_infinite_reference(machine, CTX)
        assert got == want


# ------------------------------------------------------------- sup and limits


def test_sup_examples():
    r = sup_quo(pairs_ones_then_01(), CTX)
    assert (r.value, r.attained) == (Fraction(1), True)
    assert isinstance(r.witness, DigitWord) and ratio(r.witness) == Fraction(1)
    r = sup_quo(pairs_single(), CTX)
    assert (r.value, r.attained) == (Fraction(2), True)
    r = sup_quo(pairs_unbounded(), CTX)
    assert r.value is INF and not r.attained


def test_sup_runs_the_unbounded_pump_test_once(monkeypatch):
    calls = []
    real = quotient.find_unbounded_pump

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quotient, "find_unbounded_pump", counted)
    assert sup_quo(pairs_ones_then_01(), CTX).value == Fraction(1)
    assert len(calls) == 1


def _outcome(solver, L, ctx):
    try:
        return repr(solver(L, ctx))
    except QuotientError as exc:
        return type(exc).__name__


def test_solver_results_are_pinned():
    # sup_quo and largest_limit_quotient of each machine as one line, each
    # result as its repr or the error's class name; the digest pins every
    # value and witness the solvers return on these suites
    suite = comparator_bounded_suite(777, 300) + [
        (m, RadixContext(k)) for seed, count, k in ((778, 300, 2), (779, 100, 3))
        for m in prepared_random_suite(seed, count, k=k)
    ]

    def shown(solve, machine, ctx) -> str:
        try:
            return repr(solve(machine, ctx))
        except QuotientError as e:
            return type(e).__name__

    lines = [f"{shown(sup_quo, m, ctx)} {shown(largest_limit_quotient, m, ctx)}" for m, ctx in suite]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "4cd1f5d8f1ca3e63752a63887ae2b163fe4070e40cb8b01e71bc3a16708bd800"


def test_solve_memo_hits_equal_cold_solves():
    # the three fixed machines add an unbounded pump, a finite and an empty language
    fixed = [pairs_unbounded(), pairs_single(), dfa_for_words(2, 2, [])]
    suite = comparator_bounded_suite(5400, 30) + [(m, CTX) for m in prepared_random_suite(5500, 60) + fixed]
    solvers = (sup_quo, largest_limit_quotient)

    def run(order):
        out = []
        for L, ctx in suite:
            got = {solver: _outcome(solver, L, ctx) for solver in order}
            out.append([got[solver] for solver in solvers])
        return out

    cold = []
    for L, ctx in suite:
        row = []
        for solver in solvers:
            quotient._SOLVED.clear()
            row.append(_outcome(solver, L, ctx))
        cold.append(row)
    assert cold[-2][1] == "FiniteLanguageError" and cold[-1][0] == "EmptyLanguageError"
    for order in (solvers, solvers[::-1]):
        quotient._SOLVED.clear()
        assert run(order) == cold


def test_sup_and_limit_share_one_solve(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(quotient, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("_limit", "find_unbounded_pump"):
        monkeypatch.setattr(quotient, name, counting(name))
    L = pairs_ones_then_01()
    assert sup_quo(L, CTX).value == Fraction(1)
    assert largest_limit_quotient(L, CTX)[0] == Fraction(1, 2)
    assert sorted(calls) == ["_limit", "find_unbounded_pump"]


def test_sup_and_limit_compute_the_trim_part_once(monkeypatch):
    calls = []
    real = automaton.trim_states

    def counted(a):
        calls.append(a)
        return real(a)

    for module in (automaton, quotient):
        monkeypatch.setattr(module, "trim_states", counted)
    quotient._SOLVED.clear()
    L = pairs_ones_then_01()
    assert sup_quo(L, CTX).value == Fraction(1)
    assert largest_limit_quotient(L, CTX)[0] == Fraction(1, 2)
    assert len(calls) == 1


def test_solve_memo_respects_the_state_cap(tm_period_language, monkeypatch):
    # a machine solved under the default cap is not handed out under a cap
    # its fresh preparation exceeds
    ctx = RadixContext(2)
    assert sup_quo(tm_period_language, ctx).value == Fraction(2)
    monkeypatch.setenv("CRITEX_MAX_STATES", "20")
    with pytest.raises(StateLimitError):
        _prepare(tm_period_language, ctx)
    for solver in (sup_quo, largest_limit_quotient):
        with pytest.raises(StateLimitError):
            solver(tm_period_language, ctx)


def test_solver_errors_repeat_on_every_call():
    empty, single = dfa_for_words(2, 2, []), pairs_single()
    for _ in range(3):
        with pytest.raises(EmptyLanguageError):
            sup_quo(empty, CTX)
        with pytest.raises(FiniteLanguageError):
            largest_limit_quotient(single, CTX)
        assert sup_quo(single, CTX).value == Fraction(2)


def test_prepare_is_idempotent():
    # the solvers always prepare, so a prepared machine must come back unchanged
    for machine in prepared_random_suite(5100, 300, max_states=5):
        assert _prepare(machine, CTX) == machine


def test_sup_empty_language_error():
    with pytest.raises(EmptyLanguageError):
        sup_quo(dfa_for_words(2, 2, []), CTX)


def test_largest_limit_examples():
    v, pump = largest_limit_quotient(pairs_ones_then_01(), CTX)
    assert v == Fraction(1, 2)
    assert verify_pump(_prepare(pairs_ones_then_01(), CTX), pump)
    v, pump = largest_limit_quotient(pairs_ones_repeat(), CTX)
    assert v == Fraction(1)
    v, pump = largest_limit_quotient(pairs_unbounded(), CTX)
    assert v is INF and pump.inc2 == 0 < pump.inc1


def test_largest_limit_finite_language_error():
    with pytest.raises(FiniteLanguageError):
        largest_limit_quotient(pairs_single(), CTX)


def test_candidate_examples():
    single = _prepare(pairs_single(), CTX)
    cs = candidates(single)
    assert Fraction(2) in cs.short_values
    assert cs.pump_values == () and cs.unbounded_pumps == ()
    small = _prepare(pairs_ones_then_01(), CTX)
    cs = candidates(small)
    assert Fraction(1) in cs.short_values
    assert [v for v, _ in cs.pump_values] == [Fraction(1, 2)]
    empty = dfa_for_words(2, 2, [])
    cs = candidates(empty)
    assert not cs.short_values and not cs.pump_values


def test_sup_matches_reference_on_random_machines():
    for machine in prepared_random_suite(4300, 40):
        fast = sup_quo(machine, CTX)
        ref = sup_quo_reference(machine, CTX)
        assert fast.value == ref.value
        assert fast.attained == ref.attained
        if fast.attained:
            assert ratio(fast.witness) == fast.value
        elif fast.value is not INF:
            assert pump_ratio(fast.witness.u, fast.witness.v) == fast.value
            assert verify_pump(machine, fast.witness)


def test_largest_limit_matches_pump_enumeration():
    for machine in prepared_random_suite(4400, 40, max_states=3):
        if not is_infinite(machine):
            continue
        got, pump = largest_limit_quotient(machine, CTX)
        ratios = []
        for p in pump_decompositions(machine):
            if p.inc1 == 0 and p.inc2 == 0:
                continue
            ratios.append(p.ratio())
        assert ratios, "infinite language must have pumps"
        want = max(ratios)
        assert got == want
        if got is not INF:
            assert verify_pump(machine, pump) and pump.ratio() == got


def test_bounded_max_ratio_matches_enumeration():
    for machine in prepared_random_suite(4500, 40):
        got, witness = bounded_max_ratio(machine, 7)
        # one enumeration: quotient and length of each accepted word with a
        # nonzero denominator, the words brute_quo_profile keeps
        profile = [(ratio(w), len(w)) for w in enumerate_accepted(machine, 7) if w.value(1) != 0]
        if not profile:
            assert got is None
        else:
            best = max(q for q, _ in profile)
            assert got == best
            assert machine.accepts(witness) and ratio(witness) == got
            # the witness is a shortest word attaining the maximum
            assert len(witness) == min(n for q, n in profile if q == best)


def test_max_pump_weight_sign_matches_enumerated_pumps():
    # comparator-bounded machines are infinite with a finite supremum, so
    # every one of them reaches the sign checks
    rng = random.Random(4600)
    checked = 0
    for machine, _ctx in comparator_bounded_suite(4600, 25, max_trim=10):
        if not is_infinite(machine):
            continue
        finite_ratios = [p.ratio() for p in pump_decompositions(machine) if not (p.inc1 == 0 and p.inc2 == 0)]
        if any(r is INF for r in finite_ratios):
            continue
        best = max(finite_ratios)
        graph = quotient.pump_graph(machine)
        for _ in range(10):
            P, Q = rng.randrange(0, 8), rng.randrange(1, 8)
            m = max_pump_weight(machine, P, Q, graph)[0]
            probe = Fraction(P, Q)
            want = 0 if best == probe else (1 if best > probe else -1)
            got = 0 if m == 0 else (1 if m > 0 else -1)
            assert got == want
        checked += 1
    assert checked == 25


def _sign(m: int) -> int:
    return (m > 0) - (m < 0)


def test_max_pump_weight_sign_matches_whole_trim_reference():
    # capping |v| at the component size may lower the maximum, but not its
    # sign at any P/Q; at the limit both DPs return 0 and the same argmax
    rng = random.Random(5000)
    for idx, (work, ctx) in enumerate(comparator_bounded_suite(5000, 100)):
        limit, _pump = largest_limit_quotient(work, ctx)
        graph = quotient.pump_graph(work)
        got = max_pump_weight(work, limit.numerator, limit.denominator, graph)
        assert got[0] == 0 and got == max_pump_weight_reference(work, limit.numerator, limit.denominator, graph), idx
        probes = [
            Fraction(0),
            limit / 2,
            limit + Fraction(1, rng.randrange(1, 50)),
            Fraction(rng.randrange(13), rng.randrange(1, 5)),
        ]
        if limit > Fraction(1, 97):
            probes.append(limit - Fraction(1, 97))
        for beta in probes:
            P, Q = beta.numerator, beta.denominator
            want = max_pump_weight_reference(work, P, Q, graph)[0]
            assert _sign(max_pump_weight(work, P, Q, graph)[0]) == _sign(want), (idx, beta)


def test_solvers_match_whole_trim_reference(monkeypatch):
    suite = comparator_bounded_suite(5100, 100)

    def solve():
        return [repr((sup_quo(work, ctx), largest_limit_quotient(work, ctx))) for work, ctx in suite]

    got = solve()
    monkeypatch.setattr(quotient, "max_pump_weight", max_pump_weight_reference)
    quotient._SOLVED.clear()
    assert solve() == got


def test_max_pump_weight_cost_is_per_component(monkeypatch):
    # a chain of 30 trim states into a 2-state cycle: the whole-trim DP takes
    # about T^2 layer steps, the per-component one (T - 1) + 2 * 2
    n = 32
    rows = [[n] * 4 for _ in range(n + 1)]
    for i in range(n - 1):
        rows[i][3] = i + 1  # (1, 1)
    rows[n - 1][2] = n - 2  # (1, 0) closes the cycle
    work = _prepare(Dfa(2, 2, rows, {n - 2}, 0), CTX)
    T = len(trim_states(work))
    assert T == n
    graph = quotient.pump_graph(work)
    calls = []
    real = quotient._layer

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(quotient, "_layer", counted)
    assert max_pump_weight(work, 1, 1, graph) is not None
    assert len(calls) <= (T - 1) + 2 * 2


def _bounded_suite_limits():
    return [(work, largest_limit_quotient(work, ctx)[0]) for work, ctx in comparator_bounded_suite(5200, 100)]


def test_pruned_pump_weight_matches_per_component_reference():
    # the pump's weight has the sign of the per-component maximum, and at the
    # limit it is that maximum with the same argmax; every pump returned is a
    # genuine pump of that weight within first-repeat bounds
    rng = random.Random(5200)
    suite = _bounded_suite_limits()
    for machine in prepared_random_suite(5300, 100):
        limit = largest_limit_quotient(machine, CTX)[0] if is_infinite(machine) else None
        suite.append((machine, limit if isinstance(limit, Fraction) else None))
    checked = 0
    for idx, (work, limit) in enumerate(suite):
        graph = quotient.pump_graph(work)
        probes = [Fraction(0)] + [Fraction(rng.randrange(20), rng.randrange(1, 8)) for _ in range(3)]
        if limit is not None:
            probes.append(limit)
        for beta in probes:
            P, Q = beta.numerator, beta.denominator
            want = max_pump_weight_per_component(work, P, Q, graph)
            got = max_pump_weight(work, P, Q, graph)
            weight, pump = got
            assert _sign(weight) == _sign(want[0]), (idx, beta)
            if beta == limit:
                assert got == want, idx
            assert verify_pump(work, pump) and Q * pump.inc1 - P * pump.inc2 == weight, (idx, beta)
            assert len(pump.u) < len(graph.adj) and len(pump.v) <= len(graph.cycles[pump.loop_state]), (idx, beta)
            checked += 1
    # 200 machines, each with a pump, at 4 probes, and 101 finite limits
    assert checked == 901


def test_pruned_pump_weight_runs_fewer_cycle_layers(monkeypatch):
    # the prefix DP runs over graph.adj in both oracles; every other layer
    # is a cycle-DP layer
    import reference

    suite = _bounded_suite_limits()
    real = quotient._layer
    counts = {max_pump_weight: 0, max_pump_weight_per_component: 0}
    for fn in counts:
        for work, limit in suite:
            graph = quotient.pump_graph(work)

            def counted(cur, adj, *rest, fn=fn, graph=graph):
                counts[fn] += adj is not graph.adj
                return real(cur, adj, *rest)

            monkeypatch.setattr(quotient, "_layer", counted)
            monkeypatch.setattr(reference, "_layer", counted)
            for beta in (Fraction(0), limit):
                assert fn(work, beta.numerator, beta.denominator, graph)[0] >= 0
    assert counts[max_pump_weight] < counts[max_pump_weight_per_component]


def _random_limits():
    """(machine, largest limit value) for the random k = 2 and k = 3
    machines with an infinite language: nearly all have an unbounded pump,
    so their limit value is INF."""
    return [
        (machine, largest_limit_quotient(machine, RadixContext(k))[0])
        for k in (2, 3)
        for machine in prepared_random_suite(5300, 100, k=k)
        if is_infinite(machine)
    ]


def _finite_limit_suite():
    """(machine, largest limit value) for the comparator-bounded machines
    and the random machines whose limit value is finite."""
    return _bounded_suite_limits() + [(m, limit) for m, limit in _random_limits() if limit is not INF]


def test_limit_probe_runs_one_cycle_dp(monkeypatch):
    # at the limit the prefix DP's best weights are a feasible potential
    # whose tight moves close a cycle, so only the cycle DP of the smallest
    # state on it runs; just below the limit or with an unbounded pump (not
    # feasible) the violated move gives the pump and no cycle DP runs; just
    # above it (feasible, no tight cycle) the smallest loop state's cycle DP
    # runs in full
    cases = []
    for work, limit in _bounded_suite_limits() + _random_limits():
        if limit is INF:
            cases.append((work, [(Fraction(0), 1), (Fraction(5, 2), 1)]))
        else:
            eps = Fraction(1, 1000 * limit.denominator)
            cases.append((work, [(limit, 0), (limit + eps, -1), (limit - eps, 1)]))
    assert len(cases) == 300 and sum(len(probes) == 3 for _, probes in cases) == 101
    real = quotient._layer
    for idx, (work, probes) in enumerate(cases):
        graph = quotient.pump_graph(work)
        layers = []

        def counted(cur, adj, *rest, graph=graph):
            layers.append(adj is not graph.adj)
            return real(cur, adj, *rest)

        monkeypatch.setattr(quotient, "_layer", counted)
        for beta, sign in probes:
            P, Q = beta.numerator, beta.denominator
            del layers[:]
            got = max_pump_weight(work, P, Q, graph)
            want = max_pump_weight_per_component(work, P, Q, graph)
            assert _sign(got[0]) == _sign(want[0]) == sign, (idx, beta)
            if sign == 0:
                assert got == want, idx
                assert sum(layers) <= len(graph.cycles[got[1].loop_state]), idx
            elif sign < 0:
                assert sum(layers) == len(graph.cycles[min(graph.cycles)]), (idx, beta)
            else:
                assert sum(layers) == 0, (idx, beta)


def _potential(a: Dfa, P: int, Q: int) -> tuple[dict, list]:
    """x(s), the best weight of a walk of fewer than T symbols from a's
    initial state to the trim state s (`_prefix_walk`), and the symbol
    weights Q*c1 - P*c2."""
    w = quotient._symbol_weights(a.k, P, Q)
    adj = quotient.pump_graph(a).adj
    x: dict[int, int] = {}
    for _ln, cur in quotient._prefix_walk(a, adj, w, len(adj) - 1, []):
        for s, val in cur.items():
            x[s] = max(x.get(s, val), val)
    return x, w


def _trim_moves(a: Dfa) -> list[tuple[int, int, int]]:
    """Every move s -c-> t between trim states of a."""
    trim = trim_states(a)
    return [(s, c, t) for s in sorted(trim) for c, t in enumerate(a.trans[s]) if t in trim]


def test_prefix_potential_bounds_every_longer_walk():
    # at the limit no walk of up to T + 3 symbols inside the trim part ends
    # heavier than x at its last state, so x is a feasible potential; just
    # below the limit some trim move s -c-> t has x(t) < k*x(s) + w(c)
    checked = 0
    for work, limit in _finite_limit_suite():
        k = work.k
        trim = trim_states(work)
        moves = _trim_moves(work)
        x, w = _potential(work, limit.numerator, limit.denominator)
        assert set(x) == trim
        # the heaviest walk of each length to each state, over every walk
        heaviest = {work.initial: 0}
        for _ in range(len(trim) + 3):
            nxt: dict[int, int] = {}
            for s, c, t in moves:
                if s in heaviest:
                    d = k * heaviest[s] + w[c]
                    nxt[t] = max(nxt.get(t, d), d)
            heaviest = nxt
            assert all(val <= x[t] for t, val in heaviest.items())
        below = limit - Fraction(1, 1000 * limit.denominator)
        x, w = _potential(work, below.numerator, below.denominator)
        assert any(x[t] < k * x[s] + w[c] for s, c, t in moves)
        checked += 1
    assert checked == 101


def test_prefix_potential_certifies_each_finite_supremum():
    # at a finite supremum P/Q the prefix potential psi is feasible on every
    # trim move and psi(f) <= 0 at every accepting trim state f, so no
    # accepted word of any length weighs more than 0, and psi(f) = 0 at some
    # f exactly when a word attains P/Q; just below P/Q some move is
    # infeasible or some psi(f) > 0
    suite = comparator_bounded_suite(5200, 100) + [
        (m, RadixContext(k)) for seed, k in ((5300, 2), (5301, 3)) for m in prepared_random_suite(seed, 100, k=k)
    ]
    checked = attained = 0
    for work, ctx in suite:
        res = sup_quo(work, ctx)
        if res.value is INF:
            continue
        moves = _trim_moves(work)
        finals = trim_states(work) & work.accept
        below = res.value - Fraction(1, 10**6 * res.value.denominator)
        for beta, holds in ((res.value, True), (below, False)):
            psi, w = _potential(work, beta.numerator, beta.denominator)
            feasible = all(psi[t] >= work.k * psi[s] + w[c] for s, c, t in moves)
            top = max(psi[f] for f in finals)
            assert (feasible and top <= 0) == holds, beta
            if holds:
                assert (top == 0) == res.attained, beta
        checked += 1
        attained += res.attained
    assert (checked, attained) == (101, 59)


def test_limit_probes_land_on_argmax_ratios(monkeypatch):
    # each pump DP moves the probe to the exact ratio of the pump it found
    probes = []
    real = quotient.max_pump_weight

    def recorded(a, P, Q, *rest):
        probes.append((P, Q))
        return real(a, P, Q, *rest)

    monkeypatch.setattr(quotient, "max_pump_weight", recorded)
    assert largest_limit_quotient(pairs_ones_then_01(), CTX)[0] == Fraction(1, 2)
    assert probes == [(0, 1), (1, 2)]


def test_read_back_witnesses_match_the_rerun_rebuild(monkeypatch):
    # at every word step and at each pump step of weight 0, the witness each
    # maximizer reads back from its own parent records is the walk the
    # re-run DP rebuilds, so the witnesses are the ones the rebuild gave; a
    # pump of positive weight is read from the first violated move
    suite = comparator_bounded_suite(5600, 100) + [(m, CTX) for m in prepared_random_suite(5700, 150)]
    # each oracle call: (name, arguments, result)
    steps = []
    for name in ("max_word_weight", "max_pump_weight"):

        def recorded(*args, real=getattr(quotient, name), name=name):
            got = real(*args)
            steps.append((name, args, got))
            return got

        monkeypatch.setattr(quotient, name, recorded)
    kinds = set()
    for work, ctx in suite:
        del steps[:]
        quotient._SOLVED.clear()
        sup = sup_quo(work, ctx)
        limit = quotient._solve(work, ctx)[3]
        last = {}
        for name, args, got in steps:
            if got is None:
                continue
            weight, witness = got
            a, P, Q, *_, moves = args
            if name == "max_word_weight":
                walk = heaviest_walk(a, moves, P, Q, a.initial, len(witness), a.run(witness))
                assert list(witness.symbols) == walk
            elif weight > 0:
                # u.v leads the heaviest walk of T - 1 symbols to the first
                # violated move's state s, followed by its symbol
                x, w = _potential(a, P, Q)
                s, c = next(
                    (s, c) for s, row in moves.adj.items() for c, t in row if x[t] < a.k * x[s] + w[c]
                )
                walk = heaviest_walk(a, moves.adj, P, Q, a.initial, len(moves.adj) - 1, s)
                uv = list(witness.u.symbols + witness.v.symbols)
                assert uv == (walk + [automaton.symbols(a.k, 2)[c]])[: len(uv)]
            else:
                s0 = witness.loop_state
                u = heaviest_walk(a, moves.adj, P, Q, a.initial, len(witness.u), s0)
                v = heaviest_walk(a, moves.cycles[s0], P, Q, s0, len(witness.v), s0)
                assert witness == quotient.make_pump(a.k, u, v, s0)
            last[name] = witness
            kinds.add((name, weight == 0))
        if sup.attained:
            assert sup.witness == last["max_word_weight"]
        if limit is not None:
            assert limit[1] == last["max_pump_weight"]
            if not sup.attained:
                assert sup.witness == limit[1]
    # both oracles were read back at intermediate and at final steps
    assert kinds == {(n, z) for n in ("max_word_weight", "max_pump_weight") for z in (False, True)}


def test_returned_witnesses_attain_the_returned_weights():
    # each maximizer's witness is accepted or a genuine pump, and its own
    # weight is the maximum returned with it
    rng = random.Random(5800)
    suite = [work for work, _ctx in comparator_bounded_suite(5800, 50)] + prepared_random_suite(5900, 50)
    checked = 0
    for a in suite:
        graph = quotient.pump_graph(a)
        max_len = a.num_states - 1
        for _ in range(4):
            P, Q = rng.randrange(0, 12), rng.randrange(1, 6)
            weight, word = quotient.max_word_weight(a, P, Q, max_len, graph.adj)
            assert a.accepts(word) and len(word) <= max_len
            assert Q * word.value(0) - P * word.value(1) == weight
            weight, pump = max_pump_weight(a, P, Q, graph)
            assert verify_pump(a, pump) and Q * pump.inc1 - P * pump.inc2 == weight
            checked += 1
    # 400 words and 400 pumps
    assert checked == 400


def test_sup_warm_start_matches_reference_on_each_branch():
    # a short word wins, a short word ties with the limit, the limit wins
    limit_wins = comparator_bounded_suite(5100, 23)[22]
    cases = [(pairs_ones_then_01(), CTX, True), (pairs_ones_repeat(), CTX, True), limit_wins + (False,)]
    for L, ctx, attained in cases:
        got = sup_quo(L, ctx)
        assert got == sup_quo_reference(L, ctx)
        assert got.attained == attained
    assert sup_quo(pairs_ones_then_01(), CTX).value > largest_limit_quotient(pairs_ones_then_01(), CTX)[0]
    assert sup_quo(pairs_ones_repeat(), CTX).value == largest_limit_quotient(pairs_ones_repeat(), CTX)[0]


def test_limit_win_weighs_words_once_at_the_limit(monkeypatch):
    # the short-word search starts at the limit; when every short word lies
    # below it, the first word DP is negative and the search stops there
    work, ctx = comparator_bounded_suite(5100, 23)[22]
    limit = largest_limit_quotient(work, ctx)[0]
    probes = []
    real = quotient.max_word_weight

    def recorded(a, P, Q, *rest):
        probes.append((P, Q))
        return real(a, P, Q, *rest)

    monkeypatch.setattr(quotient, "max_word_weight", recorded)
    assert sup_quo(work, ctx) == SupResult(limit, False, largest_limit_quotient(work, ctx)[1])
    assert probes == [(limit.numerator, limit.denominator)]


def test_negative_word_weight_after_the_first_step_is_an_invariant_error(monkeypatch):
    # from the limit 1/2 the first step finds the word of ratio 1; a
    # negative maximum at 1 breaks the iteration's invariant
    real = quotient.max_word_weight
    calls = []

    def negative_later(*args):
        got = real(*args)
        calls.append(got)
        return got if len(calls) == 1 else (-1, got[1])

    monkeypatch.setattr(quotient, "max_word_weight", negative_later)
    quotient._SOLVED.clear()
    with pytest.raises(InvariantError):
        sup_quo(pairs_ones_then_01(), CTX)
    assert len(calls) == 2 and calls[0][0] > 0


def test_unbounded_pump_with_a_denominator_increment_is_an_invariant_error(monkeypatch):
    # an unbounded pump must fix the denominator; the limit pump of ratio 1/2
    # moves it, so the solve refuses it as one
    pump = largest_limit_quotient(pairs_ones_then_01(), CTX)[1]
    assert pump.inc2 > 0
    quotient._SOLVED.clear()
    monkeypatch.setattr(quotient, "find_unbounded_pump", lambda *args: pump)
    with pytest.raises(InvariantError, match="nonzero denominator increment"):
        sup_quo(pairs_ones_then_01(), CTX)


def test_violated_move_without_an_improving_pump_is_an_invariant_error(monkeypatch):
    # at the limit 1/2 the prefix weights are a feasible potential, so a move
    # reported as violated there gives a walk that repeats no state or a
    # pump that weighs at most 0, and each is refused, not returned
    work = _prepare(pairs_ones_then_01(), CTX)
    graph = quotient.pump_graph(work)
    raised = []
    for s, row in graph.adj.items():
        for c, _t in row:
            monkeypatch.setattr(quotient, "_tight_moves", lambda *args, s=s, c=c: (s, c))
            with pytest.raises(InvariantError) as err:
                max_pump_weight(work, 1, 2, graph)
            raised.append(str(err.value))
    assert raised == [
        "the walk over a violated move repeats no state at 1/2",
        "the pump of a violated move weighs 0 at 1/2",
    ]


def test_negative_word_weight_at_a_start_of_zero_is_an_invariant_error(monkeypatch):
    real = quotient.max_word_weight
    monkeypatch.setattr(quotient, "max_word_weight", lambda *args: (-1, real(*args)[1]))
    with pytest.raises(InvariantError):
        bounded_max_ratio(_prepare(pairs_ones_then_01(), CTX), 5)


def test_off_by_one_word_weight_is_an_invariant_error(monkeypatch):
    real = quotient.max_word_weight

    def off_by_one(*args):
        got = real(*args)
        return None if got is None else (got[0] + 1, got[1])

    monkeypatch.setattr(quotient, "max_word_weight", off_by_one)
    with pytest.raises(InvariantError):
        bounded_max_ratio(_prepare(pairs_ones_then_01(), CTX), 5)


# ------------------------------------------------------------- closure report


def test_sup_zero_numerator_language():
    # pairs (0, q): every quotient is 0; the sup is 0 and attained
    rows = [[2, 1, 2, 2], [1, 1, 2, 2], [2, 2, 2, 2]]
    from critex.automaton import Dfa

    L = Dfa(2, 2, rows, {1}, 0)
    r = sup_quo(L, CTX)
    assert (r.value, r.attained) == (Fraction(0), True)
    assert ratio(r.witness) == 0
    v, _pump = largest_limit_quotient(L, CTX)
    assert v == Fraction(0)


def test_comparator_fuzz_base3():
    import random as _random

    from property_suites import RELS

    rng = _random.Random(4800)
    ctx3 = RadixContext(3)
    for _ in range(60):
        t = Fraction(rng.randrange(0, 30), rng.randrange(1, 30))
        rel = rng.choice(list(RELS))
        m = comparator_dfa(Comparator(t, rel, ctx3))
        fn = RELS[rel]
        for _ in range(40):
            p, q = rng.randrange(0, 3**6), rng.randrange(0, 3**6)
            w = encode_pair(p, q, ctx3)
            assert m.accepts(w) == fn(p * t.denominator, q * t.numerator), (p, q, t, rel)


def test_sup_invariants_on_larger_machines():
    # machines too big for the enumeration reference: check the defining
    # properties of the answer through comparator products instead
    for machine in prepared_random_suite(4900, 12, max_states=6):
        res = sup_quo(machine, CTX)
        if res.value is INF:
            pump = res.witness
            assert pump.inc2 == 0 < pump.inc1
            assert verify_pump(machine, pump)
            continue
        above = product(machine, comparator_dfa(Comparator(res.value, ">", CTX)), "and")
        from critex.automaton import is_empty as _is_empty

        assert _is_empty(above)
        at = product(machine, comparator_dfa(Comparator(res.value, "==", CTX)), "and")
        assert (not _is_empty(at)) == res.attained
        m9, _ = bounded_max_ratio(machine, 9)
        assert m9 is not None and m9 <= res.value
        if is_infinite(machine):
            sigma, pump = largest_limit_quotient(machine, CTX)
            assert sigma <= res.value
            if sigma is not INF:
                assert verify_pump(machine, pump)
                assert pump_ratio(pump.u, pump.v) == sigma


def test_check_pair_closure_decrement_failure():
    L = canonicalize(dfa_for_words(2, 2, [((1, 0), (0, 1))]))  # the pair (2, 1)
    report = check_pair_closure(L, CTX)
    assert report["a"] is True
    assert report["c"] is True
    assert report["d"] is False
    assert report["b"] == "not checked"


def test_check_pair_closure_comparator_passes():
    ge1 = canonicalize(comparator_dfa(Comparator(Fraction(1), ">=", CTX)))
    report = check_pair_closure(ge1, CTX)
    assert report == {"a": True, "c": True, "d": True, "b": "not checked"}


def test_check_pair_closure_shift_language():
    # all pairs (p, q) with p >= q >= 1: closed downward in p
    ge1 = canonicalize(
        product(
            comparator_dfa(Comparator(Fraction(1), ">=", CTX)),
            __import__("critex.arith", fromlist=["nonzero_track_dfa"]).nonzero_track_dfa(CTX, 2, 1),
            "and",
        )
    )
    report = check_pair_closure(ge1, CTX)
    assert report["a"] and report["c"] and report["d"]


def test_check_pair_closure_shift_language_under_a_small_cap(monkeypatch):
    # the forward subset construction of this shift language passes 20,000
    # subsets; the report is the one the default cap gives
    raw = Dfa(2, 2, [[3, 3, 0, 2], [4, 3, 3, 2], [3, 2, 4, 1], [4, 1, 2, 1], [0, 4, 2, 4]], [3], 0)
    L = compare_language(raw, CTX, Fraction(3, 2), "<=")
    monkeypatch.setenv("CRITEX_MAX_STATES", "20000")
    assert check_pair_closure(L, CTX) == {"a": False, "c": False, "d": False, "b": "not checked"}
