import random

import pytest

from bimc.benchmark import make_tn
from bimc.bimachine import evaluate
from bimc.cli import bimachine_to_text, parse_transducer
from bimc.classical import check_pseudo_deterministic, classical_compile, unambiguous_expand
from bimc.compiler import NotFunctionalError, compile as build
from bimc.fsa import Transducer, enumerate_outputs
from bimc.functionality import test_functionality as functionality
from bimc.monoid import FreeWords, Integers, MonoidValue
from helpers import TRANSDUCER_MONOIDS, all_words, count_paths, random_pseudo_det

FREE = FreeWords(("x", "y"))


def fw(s):
    return MonoidValue(FREE, s)


def diamond():
    # both runs of "ab" emit "xxy", one of them delayed
    return Transducer(
        ("a", "b"), FREE, 4, {0}, {3},
        [(0, "a", "x", 1), (0, "a", "xx", 2), (1, "b", "xy", 3), (2, "b", "y", 3)],
    )


def test_check_pseudo_deterministic():
    assert check_pseudo_deterministic(diamond())
    # same (state, symbol, output) into two targets
    t = Transducer(("a",), FREE, 3, {0}, {2}, [(0, "a", "x", 1), (0, "a", "x", 2)])
    assert not check_pseudo_deterministic(t)
    # two initial states
    t = Transducer(("a",), FREE, 2, {0, 1}, {1}, [(0, "a", "x", 1)])
    assert not check_pseudo_deterministic(t)
    # epsilon transition
    t = Transducer(("a",), FREE, 2, {0}, {1}, [(0, None, "x", 1)])
    assert not check_pseudo_deterministic(t)


def test_classical_compiles_integer_outputs():
    # "aa" outputs 3 + 1 or -2 + 6; the payload order keeps the -2 path
    Z = Integers()
    t = Transducer(
        ("a",), Z, 4, {0}, {3},
        [(0, "a", 3, 1), (0, "a", -2, 2), (1, "a", 1, 3), (2, "a", 6, 3)],
    )
    assert check_pseudo_deterministic(t)
    assert unambiguous_expand(t).pairs == ((0, frozenset()), (2, frozenset()), (3, frozenset()))
    b = classical_compile(t)
    assert evaluate(b, ("a", "a")) == MonoidValue(Z, 4)
    assert evaluate(b, ("a",)) is None


def test_expand_rejects_other_shapes():
    t = Transducer(("a",), FREE, 2, {0, 1}, {1}, [(0, "a", "x", 1)])
    with pytest.raises(ValueError):
        unambiguous_expand(t)


def test_expand_deterministic_chain_is_identity():
    t = Transducer(("a", "b"), FREE, 3, {0}, {2}, [(0, "a", "x", 1), (1, "b", "y", 2)])
    exp = unambiguous_expand(t)
    assert exp.pairs == ((0, frozenset()), (1, frozenset()), (2, frozenset()))
    assert len(exp.transducer.transitions) == 2
    assert enumerate_outputs(exp.transducer, ("a", "b")) == {fw("xy")}


def test_expand_diamond_keeps_one_path():
    exp = unambiguous_expand(diamond())
    # the "xx"-first branch dies: its b-move would rejoin the kept path
    assert exp.pairs == ((0, frozenset()), (1, frozenset()), (3, frozenset()))
    tt = exp.transducer
    assert tt.n_states == 3
    assert count_paths(tt, ("a", "b")) == 1
    assert enumerate_outputs(tt, ("a", "b")) == {fw("xxy")}


def test_expansion_pairs_name_the_states_and_exclude_their_guess():
    # one pair per state of the trimmed expansion, and no guess among its
    # own alternatives: the start has none, and a move is dropped when
    # its target lands among them
    rng = random.Random(1616)
    cases = [make_tn(n) for n in range(1, 6)]
    cases += [random_pseudo_det(rng, monoid=m) for m in TRANSDUCER_MONOIDS for _ in range(100)]
    alternatives = 0
    for t in cases:
        exp = unambiguous_expand(t)
        assert len(exp.pairs) == exp.transducer.n_states
        assert all(p not in neg for p, neg in exp.pairs)
        alternatives += any(neg for _, neg in exp.pairs)
    assert alternatives > 50  # 61 of the 405 have a guess with alternatives


def test_machines_do_not_depend_on_declaration_order(perfbench_gen):
    # the expansion's state numbering follows the order the transitions
    # are declared in; the machines, numbered by the subset walks, must not
    rng = random.Random(3131)
    cases = [make_tn(n) for n in range(1, 6)]
    cases += [parse_transducer(spec.text()) for spec in perfbench_gen.corpus(300)]
    compared = {classical_compile: 0, build: 0}
    for t in cases:
        arcs = rng.sample(t.transitions, len(t.transitions))
        shuffled = Transducer(t.alphabet, t.monoid, t.n_states, t.initial, t.final, arcs)
        if shuffled.transitions == t.transitions:
            continue
        compilers = [classical_compile] if check_pseudo_deterministic(t) else []
        compilers += [build] if functionality(t).functional else []
        for compile_ in compilers:
            assert bimachine_to_text(compile_(shuffled)) == bimachine_to_text(compile_(t))
            compared[compile_] += 1
    assert list(compared.values()) == [54, 85]


def test_expand_nonfunctional_keeps_least_output():
    # "a" maps to both "x" and "y"; the expansion commits to "x"
    t = Transducer(("a",), FREE, 3, {0}, {1, 2}, [(0, "a", "y", 1), (0, "a", "x", 2)])
    tt = unambiguous_expand(t).transducer
    assert enumerate_outputs(tt, ("a",)) == {fw("x")}


def test_expand_is_unambiguous_and_preserves_domain():
    rng = random.Random(20260817)
    functional = 0
    for _ in range(120):
        t = random_pseudo_det(rng)
        tt = unambiguous_expand(t).transducer
        fun = functionality(t).functional
        functional += fun
        for w in all_words(t.alphabet, 5):
            orig = enumerate_outputs(t, w)
            kept = enumerate_outputs(tt, w)
            assert count_paths(tt, w) <= 1
            assert kept <= orig
            assert bool(kept) == bool(orig)
            if fun:
                assert kept == orig
    assert functional > 30


def test_classical_compile_does_not_reject_nonfunctional_input():
    # "ab" outputs "xy" or "xx"; where the runs part, on "a", the expansion
    # keeps the move with the <-smallest payload, "x", and so the run that
    # outputs "xy", although "xx" is the smaller output word
    t = Transducer(
        ("a", "b"), FREE, 4, {0}, {3},
        [(0, "a", "x", 1), (0, "a", "xx", 2), (1, "b", "y", 3), (2, "b", "", 3)],
    )
    assert check_pseudo_deterministic(t)
    assert enumerate_outputs(t, ("a", "b")) == {fw("xx"), fw("xy")}
    with pytest.raises(NotFunctionalError):
        build(t)
    assert evaluate(classical_compile(t), ("a", "b")) == fw("xy")


def test_classical_compile_diamond():
    b = classical_compile(diamond())
    assert evaluate(b, ("a", "b")) == fw("xxy")
    assert evaluate(b, ("a",)) is None
    assert evaluate(b, ()) is None
    assert b.eps_output is None


def test_classical_eps_output_when_initial_is_final():
    t = Transducer(("a",), FREE, 1, {0}, {0}, [(0, "a", "x", 0)])
    b = classical_compile(t)
    assert b.eps_output == FREE.unit
    assert evaluate(b, ()) == FREE.unit
    assert evaluate(b, ("a", "a")) == fw("xx")


def test_classical_matches_equalizer_on_functional_inputs():
    for monoid in TRANSDUCER_MONOIDS:
        rng = random.Random(2468)
        checked = 0
        for _ in range(150):
            t = random_pseudo_det(rng, monoid=monoid)
            verdict = functionality(t)
            if not verdict.functional:
                continue
            checked += 1
            cb = classical_compile(t)
            eb = build(t, verdict=verdict)
            for w in all_words(t.alphabet, 4):
                assert evaluate(cb, w) == evaluate(eb, w), (monoid, w)
        assert checked > 40, monoid
