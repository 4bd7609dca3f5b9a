"""Squared output automaton: pairing, reachability, valuation."""

import random
from collections import defaultdict, deque

from bimc.benchmark import make_tn
from bimc.fsa import Transducer, trim
from bimc.monoid import FreeWords, MonoidValue, eta
from bimc.squared import coaccessible, squared, valuation
from helpers import (
    TRANSDUCER_MONOIDS,
    brute_equalizers,
    candidate_values,
    dump_valuation,
    is_instance_of,
    pair_index,
    random_transducer,
    squared_reference,
    valuation_reference,
    with_eps_detours,
)

FREE = FreeWords(("x", "y"))


def fw(w):
    return MonoidValue(FREE, w)


def initial_paths(t, max_steps):
    """All (input word, output, end state) with at most max_steps
    transitions starting from an initial state, by direct walking."""
    results = set()
    queue = deque((i, (), t.monoid.unit, 0) for i in sorted(t.initial))
    seen = set((q, w, o) for q, w, o, _ in queue)
    while queue:
        state, word, out, steps = queue.popleft()
        results.add((word, out, state))
        if steps >= max_steps:
            continue
        for tr in t.transitions:
            if tr.src != state:
                continue
            if tr.inp is None:
                node = (tr.dst, word, out * tr.out)
            else:
                node = (tr.dst, word + (tr.inp,), out * tr.out)
            if node not in seen:
                seen.add(node)
                queue.append((node[0], node[1], node[2], steps + 1))
    return results


def paired_by_word(t, max_steps):
    """Label pairs of common-input path pairs: ((q1,q2),(m1,m2))."""
    by_word = defaultdict(list)
    for word, out, end in initial_paths(t, max_steps):
        by_word[word].append((out, end))
    combos = set()
    for entries in by_word.values():
        for o1, e1 in entries:
            for o2, e2 in entries:
                combos.add(((e1, e2), (o1, o2)))
    return combos


def squared_reachable(sq, max_steps):
    """Label pairs reachable inside the squared automaton itself."""
    out_edges = defaultdict(list)
    for src, m1, m2, dst in sq.transitions:
        out_edges[src].append((m1, m2, dst))
    unit = sq.monoid.unit
    queue = deque((i, unit, unit, 0) for i in sorted(sq.initial))
    seen = set((i, unit, unit) for i in sq.initial)
    results = set()
    while queue:
        idx, a1, a2, steps = queue.popleft()
        results.add((sq.pairs[idx], (a1, a2)))
        if steps >= max_steps:
            continue
        for m1, m2, dst in out_edges[idx]:
            node = (dst, a1 * m1, a2 * m2)
            if node not in seen:
                seen.add(node)
                queue.append((dst, a1 * m1, a2 * m2, steps + 1))
    return results


# --- construction ------------------------------------------------------------


def test_squared_pairs_up_branches():
    t = Transducer(
        ("a",), FREE, 3, {0}, {1, 2}, [(0, "a", "x", 1), (0, "a", "y", 2)]
    )
    sq = squared(t)
    assert sq.pairs[0] == (0, 0)
    assert set(sq.pairs) == {(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)}
    assert len(sq.transitions) == 4
    assert sq.final == frozenset(
        i for i, p in enumerate(sq.pairs) if p in {(1, 1), (1, 2), (2, 1), (2, 2)}
    )


def test_squared_eps_keeps_one_sided_moves():
    t = Transducer(
        ("a",), FREE, 2, {0}, {1}, [(0, None, "y", 1), (0, "a", "x", 1)]
    )
    sq = squared(t)
    e = FREE.unit
    arcs = {(sq.pairs[s], m1, m2, sq.pairs[d]) for s, m1, m2, d in sq.transitions}
    assert ((0, 0), fw("x"), fw("x"), (1, 1)) in arcs
    assert ((0, 0), e, fw("y"), (0, 1)) in arcs
    assert ((0, 0), fw("y"), e, (1, 0)) in arcs


def assert_same_squared(t):
    sq, ref = squared(t), squared_reference(t)
    assert sq.monoid == ref.monoid
    assert sq.pairs == ref.pairs
    assert sq.initial == ref.initial and sq.final == ref.final
    assert sq.transitions == ref.transitions


def with_unit_self_loops(rng, t):
    """t plus a unit ε self-loop on every state and, on some states, a
    unit self-loop on a symbol, so an ε arc of the squared automaton
    repeats a symbol arc."""
    unit = t.monoid.unit
    arcs = list(t.transitions)
    for q in range(t.n_states):
        arcs.append((q, None, unit, q))
        if rng.random() < 0.5:
            arcs.append((q, rng.choice(t.alphabet), unit, q))
    return Transducer(t.alphabet, t.monoid, t.n_states, t.initial, t.final, arcs)


def test_squared_matches_the_per_symbol_reference():
    for n in range(1, 10):
        assert_same_squared(make_tn(n))
        assert_same_squared(trim(make_tn(n))[0])
    rng = random.Random(2553)
    for monoid in TRANSDUCER_MONOIDS:
        for _ in range(150):
            t = random_transducer(rng, allow_eps=True, monoid=monoid)
            for u in (t, with_eps_detours(rng, t), with_unit_self_loops(rng, t)):
                assert_same_squared(u)
                assert_same_squared(trim(u)[0])


def test_squared_keeps_one_arc_where_eps_steps_repeat_symbol_steps():
    # unit self-loops on a and ε at 0: every one-sided ε step out of
    # (0, 0) repeats an arc that both components take on a
    t = Transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, "a", "", 0), (0, "a", "x", 1), (0, None, "", 0), (0, None, "x", 1), (1, None, "", 1)],
    )
    assert_same_squared(t)
    sq = squared(t)
    e, x = FREE.unit, fw("x")
    from_start = [(m1, m2, sq.pairs[dst]) for src, m1, m2, dst in sq.transitions if src == 0]
    assert from_start == [(e, e, (0, 0)), (e, x, (0, 1)), (x, e, (1, 0)), (x, x, (1, 1))]


def test_squared_tn9_builds_each_distinct_arc_once():
    sq = squared(trim(make_tn(9))[0])
    assert len(sq.transitions) == len(set(sq.transitions)) == 805


def test_squared_eps_transition_bound():
    rng = random.Random(909)
    for _ in range(60):
        t = random_transducer(rng, allow_eps=True)
        sq = squared(t)
        per_symbol = defaultdict(int)
        n_eps = 0
        for tr in t.transitions:
            if tr.inp is None:
                n_eps += 1
            else:
                per_symbol[tr.inp] += 1
        bound = sum(k * k for k in per_symbol.values()) + 2 * t.n_states * n_eps
        assert len(sq.transitions) <= bound


def test_squared_defining_property_bounded():
    rng = random.Random(1234)
    for k in range(35):
        t = random_transducer(rng, max_states=3, max_symbols=2, allow_eps=k < 25, max_out_len=1)
        sq = squared(t)
        L = 3
        from_paths = paired_by_word(t, L)
        in_squared_wide = squared_reachable(sq, 2 * L)
        assert from_paths <= in_squared_wide
        in_squared = squared_reachable(sq, L)
        from_paths_wide = paired_by_word(t, L)
        assert in_squared <= from_paths_wide


# --- coaccessible and valuation ----------------------------------------------


def diamond():
    # 0 -a-> {1 via x, 2 via xx}, both -b-> 3 (final), outputs rebalance
    return Transducer(
        ("a", "b"), FREE, 4, {0}, {3},
        [(0, "a", "x", 1), (0, "a", "xx", 2), (1, "b", "xy", 3), (2, "b", "y", 3)],
    )


def test_coaccessible_filters_dead_pairs():
    t = Transducer(
        ("a",), FREE, 3, {0}, {1}, [(0, "a", "x", 1), (0, "a", "x", 2)]
    )
    sq = squared(t)
    useful = coaccessible(sq)
    dead = {i for i, p in enumerate(sq.pairs) if 2 in p}
    assert dead and not (dead & useful)
    assert pair_index(sq)[(1, 1)] in useful


def test_valuation_tracks_first_discovery():
    t = diamond()
    sq = squared(t)
    useful = coaccessible(sq)
    val = valuation(sq, useful)
    index = pair_index(sq)
    idx = index[(1, 2)]
    assert val.rho[idx] == (fw("x"), fw("xx"))
    assert val.nu[idx] == (fw("x"), fw(""))
    assert val.rho[index[(1, 1)]] == (fw("x"), fw("x"))
    assert val.nu[index[(1, 1)]] == (FREE.unit, FREE.unit)


def test_valuation_keeps_unit_on_an_initial_pair_reached_by_an_arc():
    # (0, 0) discovers (1, 1) by its a-arc, but (1, 1) is an initial pair
    t = Transducer(("a",), FREE, 2, {0, 1}, {1}, [(0, "a", "x", 1), (1, "a", "y", 1)])
    sq = squared(t)
    index = pair_index(sq)
    src, dst = index[(0, 0)], index[(1, 1)]
    assert dst in sq.initial and (src, fw("x"), fw("x"), dst) in sq.transitions
    val = valuation(sq, coaccessible(sq))
    assert val.rho[dst] == (FREE.unit, FREE.unit)
    assert val.rho[index[(0, 1)]] == (FREE.unit, FREE.unit)


def test_valuation_matches_the_per_pair_reference():
    rng = random.Random(9090)
    for monoid in TRANSDUCER_MONOIDS:
        for eps in (False, True):
            for _ in range(250):
                t = random_transducer(rng, allow_eps=eps, monoid=monoid)
                sq = squared(t)
                useful = coaccessible(sq)
                val = valuation(sq, useful)
                assert (val.rho, val.nu) == valuation_reference(sq, useful)


def test_valuation_defined_exactly_on_useful_pairs():
    rng = random.Random(5678)
    for _ in range(40):
        t = random_transducer(rng, allow_eps=True)
        sq = squared(t)
        useful = coaccessible(sq)
        val = valuation(sq, useful)
        assert set(val.rho) == set(useful)
        assert set(val.nu) <= set(val.rho)
        for i, (x1, x2) in val.rho.items():
            if x1 == x2:
                assert val.nu[i] == (t.monoid.unit, t.monoid.unit)
            else:
                assert val.nu.get(i) == eta(x1, x2)


def test_valuation_nu_is_mge_of_relevant_pairs():
    from bimc.functionality import test_functionality as functionality

    rng = random.Random(24)
    pool = candidate_values(FREE, 3)
    checked = 0
    for _ in range(60):
        t = random_transducer(rng, max_states=3, max_symbols=2, allow_eps=False, max_out_len=1)
        verdict = functionality(t)
        if not verdict.functional or verdict.squared is None:
            continue
        sq, val = verdict.squared, verdict.valuation
        relevant = defaultdict(set)
        for pair, labels in squared_reachable(sq, 4):
            relevant[pair].add(labels)
        for idx, nu in val.nu.items():
            for m1, m2 in relevant.get(sq.pairs[idx], ()):
                assert m1 * nu[0] == m2 * nu[1]
                for k in brute_equalizers(m1, m2, pool):
                    assert is_instance_of(nu, k)
                    checked += 1
    assert checked > 50


def test_dump_valuation_golden():
    t = diamond()
    sq = squared(t)
    val = valuation(sq, coaccessible(sq))
    expected = (
        '((0,0)) rho=("","") nu=("","")\n'
        '((1,1)) rho=("x","x") nu=("","")\n'
        '((1,2)) rho=("x","xx") nu=("x","")\n'
        '((2,1)) rho=("xx","x") nu=("","x")\n'
        '((2,2)) rho=("xx","xx") nu=("","")\n'
        '((3,3)) rho=("xxy","xxy") nu=("","")\n'
    )
    assert dump_valuation(sq, val) == expected


def test_valuation_is_deterministic():
    rng = random.Random(4321)
    for _ in range(20):
        t = random_transducer(rng, allow_eps=True)
        a = squared(t)
        b = squared(t)
        assert dump_valuation(a, valuation(a, coaccessible(a))) == dump_valuation(
            b, valuation(b, coaccessible(b))
        )
