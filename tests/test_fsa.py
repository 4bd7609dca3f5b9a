"""Transducer plumbing: trim, projection, determinization, path outputs."""

import random
from collections import Counter

import pytest

from bimc.classical import classical_compile
from bimc.compiler import compile
from bimc.fsa import (
    Automaton,
    StateLimitExceeded,
    Transducer,
    determinize,
    enumerate_outputs,
    make_transducer,
    output_cells,
    project_input,
    reverse,
    trim,
)
from bimc.functionality import test_functionality as functionality
from bimc.monoid import FreeWords, Integers, MonoidValue, NonNegRationals, PairOf
from helpers import all_words, output_table, random_pseudo_det, random_transducer, remove_eps_edges

FREE = FreeWords(("x", "y"))


def fw(w):
    return MonoidValue(FREE, w)


def nfa_accepts(a, word):
    """Path oracle over raw edges, epsilon moves included."""
    stack = [(q, 0) for q in a.initial]
    seen = set(stack)
    while stack:
        q, pos = stack.pop()
        if pos == len(word) and q in a.final:
            return True
        for src, inp, dst in a.edges:
            if src != q:
                continue
            if inp is None:
                node = (dst, pos)
            elif pos < len(word) and word[pos] == inp:
                node = (dst, pos + 1)
            else:
                continue
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return False


def dfa_accepts(dfa, a, word):
    q = dfa.run(word)
    return q is not None and set(dfa.subsets[q]) & set(a.final)


# --- construction and validation -------------------------------------------


def test_transducer_dedups_preserving_order():
    t = make_transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, "a", "x", 1), (0, "a", "y", 1), (0, "a", "x", 1)],
    )
    assert len(t.transitions) == 2
    assert t.transitions[0].out == fw("x")
    assert t.transitions[1].out == fw("y")


def test_transducer_validation():
    with pytest.raises(ValueError):
        make_transducer(("a",), FREE, 1, {0}, {2}, [])
    with pytest.raises(ValueError):
        make_transducer(("a",), FREE, 1, {0}, {0}, [(0, "b", "x", 0)])
    with pytest.raises(ValueError):
        make_transducer(("a", "a"), FREE, 1, {0}, {0}, [])
    with pytest.raises(ValueError, match="reserved"):
        make_transducer(("a", "-"), FREE, 1, {0}, {0}, [])
    other = FreeWords(("z",))
    with pytest.raises(ValueError):
        make_transducer(("a",), FREE, 1, {0}, {0}, [(0, "a", MonoidValue(other, "z"), 0)])


def test_real_time_flag():
    t = make_transducer(("a",), FREE, 1, {0}, {0}, [(0, "a", "x", 0)])
    assert t.real_time
    t2 = make_transducer(("a",), FREE, 1, {0}, {0}, [(0, None, "x", 0)])
    assert not t2.real_time


# --- trim, project, reverse -------------------------------------------------


def test_trim_drops_useless_states():
    # 0 ->a 1 ->a 2(final), 3 unreachable, 4 reaches nothing final
    t = make_transducer(
        ("a",), FREE, 5, {0}, {2},
        [(0, "a", "x", 1), (1, "a", "y", 2), (3, "a", "x", 2), (0, "a", "x", 4)],
    )
    trimmed, kept = trim(t)
    assert kept == [0, 1, 2]
    assert trimmed.n_states == 3
    assert trimmed.initial == frozenset({0})
    assert trimmed.final == frozenset({2})
    assert len(trimmed.transitions) == 2


def test_trim_without_finals_is_empty():
    t = make_transducer(("a",), FREE, 2, {0}, set(), [(0, "a", "x", 1)])
    trimmed, kept = trim(t)
    assert trimmed.n_states == 0 and kept == []
    assert trimmed.transitions == ()


def test_trim_preserves_outputs_per_word():
    # every successful path lives in the useful part, so for a shared
    # path-length bound the output sets must match exactly
    rng = random.Random(5150)
    for _ in range(40):
        t = random_transducer(rng, allow_eps=True)
        trimmed, _ = trim(t)
        bound = 10
        for w in all_words(t.alphabet, 3):
            assert enumerate_outputs(t, w, bound) == enumerate_outputs(trimmed, w, bound)


def test_project_input_dedups_and_keeps_eps():
    t = make_transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, "a", "x", 1), (0, "a", "y", 1), (0, None, "x", 0)],
    )
    a = project_input(t)
    assert a.edges == ((0, "a", 1), (0, None, 0))


def test_reverse_is_an_involution():
    a = Automaton(("a", "b"), 3, frozenset({0}), frozenset({2}), ((0, "a", 1), (1, "b", 2)))
    r = reverse(a)
    assert r.initial == frozenset({2}) and r.final == frozenset({0})
    assert r.edges == ((1, "a", 0), (2, "b", 1))
    assert reverse(r) == Automaton(a.alphabet, a.n_states, a.initial, a.final, a.edges)


# --- determinize -------------------------------------------------------------


def test_determinize_is_partial_without_sink():
    a = Automaton(("a", "b"), 2, frozenset({0}), frozenset({1}), ((0, "a", 1),))
    d = determinize(a)
    assert d.n_states == 2
    assert d.subsets == ((0,), (1,))
    assert d.delta == {(0, "a"): 1}
    assert d.run("ab") is None


def test_determinize_preserves_language():
    rng = random.Random(777)
    for _ in range(60):
        t = random_transducer(rng, allow_eps=False)
        a = project_input(t)
        d = determinize(a)
        assert len(set(d.subsets)) == d.n_states
        assert d.n_states <= 2 ** a.n_states
        for w in all_words(a.alphabet, 4):
            assert bool(dfa_accepts(d, a, w)) == nfa_accepts(a, w)


def test_determinize_state_cap(monkeypatch):
    monkeypatch.setenv("BIMC_MAX_STATES", "2")
    # classic 2^n blowup: last symbol before the end must be 'a'
    edges = [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "a", 2), (1, "b", 2)]
    a = Automaton(("a", "b"), 3, frozenset({0}), frozenset({2}), tuple(edges))
    with pytest.raises(StateLimitExceeded):
        determinize(a)


def test_determinize_empty_initial_set():
    a = Automaton(("a",), 2, frozenset(), frozenset({1}), ((0, "a", 1),))
    d = determinize(a)
    assert d.n_states == 1 and d.subsets == ((),) and d.delta == {}


def test_determinize_eps_start_subset_is_not_closed():
    a = Automaton(("a",), 3, frozenset({0}), frozenset({2}), ((0, None, 1), (1, "a", 2)))
    d = determinize(a)
    assert d.subsets[0] == (0,)
    assert d.delta[(0, "a")] == d.subsets.index((2,))


def test_determinize_eps_symbol_rides_epsilon_moves():
    # a-step available only through eps closure on both sides
    a = Automaton(
        ("a",), 4, frozenset({0}), frozenset({3}),
        ((0, None, 1), (1, "a", 2), (2, None, 3)),
    )
    d = determinize(a)
    assert d.run("a") == d.subsets.index((2, 3))


def test_determinize_matches_naive_eps_removal():
    # on epsilon-free input the removal is the identity
    rng = random.Random(31337)
    for k in range(90):
        t = random_transducer(rng, allow_eps=k < 60)
        a = project_input(t)
        d1 = determinize(a)
        d2 = determinize(remove_eps_edges(a))
        assert d1.subsets == d2.subsets
        assert d1.delta == d2.delta


def test_determinize_eps_handles_eps_cycles():
    a = Automaton(
        ("a",), 3, frozenset({0}), frozenset({2}),
        ((0, None, 1), (1, None, 0), (0, "a", 2)),
    )
    d = determinize(a)
    assert d.run("a") == d.subsets.index((2,))


# --- output cells ------------------------------------------------------------


def test_output_cells_are_the_compiled_output_maps():
    def naive_count(left, right):
        # the cell (l, a, r) is defined when L(l) meets R(delta_R(r, a))
        return sum(
            1
            for li, L in enumerate(left.subsets)
            for a in left.alphabet
            for ri in range(right.n_states)
            if (ri, a) in right.delta and set(L) & set(right.subsets[right.delta[(ri, a)]])
        )

    rng = random.Random(6060)
    kinds = (FREE, NonNegRationals(), Integers(), PairOf(FREE, Integers()))
    compiled = Counter()
    for k in range(240):
        t = random_transducer(rng, allow_eps=k % 8 < 4, monoid=kinds[k % 4])
        verdict = functionality(t)
        if verdict.functional:
            b = compile(t, verdict=verdict)
            assert sum(1 for _ in output_cells(b.left, b.right)) == len(b.psi)
            assert naive_count(b.left, b.right) == len(b.psi)
            compiled[k % 4] += 1
    assert min(compiled.values()) > 10
    for _ in range(60):
        b = classical_compile(random_pseudo_det(rng))
        assert sum(1 for _ in output_cells(b.left, b.right)) == len(b.psi)
        assert naive_count(b.left, b.right) == len(b.psi)


# --- enumerate_outputs -------------------------------------------------------


def test_enumerate_outputs_collects_all_paths():
    t = make_transducer(
        ("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1), (0, "a", "y", 1)]
    )
    assert enumerate_outputs(t, ("a",)) == {fw("x"), fw("y")}
    assert enumerate_outputs(t, ()) == set()


def test_enumerate_outputs_empty_word_needs_initial_final_overlap():
    t = make_transducer(("a",), FREE, 1, {0}, {0}, [])
    assert enumerate_outputs(t, ()) == {fw("")}


def test_enumerate_outputs_unit_eps_loop_terminates():
    t = make_transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, None, "", 0), (0, "a", "x", 1)],
    )
    assert enumerate_outputs(t, ("a",)) == {fw("x")}


def test_enumerate_outputs_value_growing_loop_is_bounded():
    t = make_transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, None, "y", 0), (0, "a", "x", 1)],
    )
    outs = enumerate_outputs(t, ("a",), max_path_len=4)
    assert outs == {fw("x"), fw("yx"), fw("yyx"), fw("yyyx")}


def test_enumerate_outputs_agrees_with_batched_walk():
    rng = random.Random(424242)
    for _ in range(25):
        t = random_transducer(rng, allow_eps=True)
        table, _ = output_table(t, 3, max_steps=10)
        for w in all_words(t.alphabet, 3):
            assert enumerate_outputs(t, w, max_path_len=10) == table.get(w, set())
