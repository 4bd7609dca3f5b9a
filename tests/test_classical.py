import random

import pytest

from bimc.bimachine import evaluate
from bimc.classical import check_pseudo_deterministic, classical_compile, unambiguous_expand
from bimc.compiler import compile as build
from bimc.fsa import enumerate_outputs, make_transducer
from bimc.functionality import test_functionality as functionality
from bimc.monoid import FreeWords, Integers, MonoidValue
from helpers import TRANSDUCER_MONOIDS, all_words, count_paths, random_pseudo_det

FREE = FreeWords(("x", "y"))


def fw(s):
    return MonoidValue(FREE, s)


def diamond():
    # both runs of "ab" emit "xxy", one of them delayed
    return make_transducer(
        ("a", "b"), FREE, 4, {0}, {3},
        [(0, "a", "x", 1), (0, "a", "xx", 2), (1, "b", "xy", 3), (2, "b", "y", 3)],
    )


def test_check_pseudo_deterministic():
    assert check_pseudo_deterministic(diamond())
    # same (state, symbol, output) into two targets
    t = make_transducer(("a",), FREE, 3, {0}, {2}, [(0, "a", "x", 1), (0, "a", "x", 2)])
    assert not check_pseudo_deterministic(t)
    # two initial states
    t = make_transducer(("a",), FREE, 2, {0, 1}, {1}, [(0, "a", "x", 1)])
    assert not check_pseudo_deterministic(t)
    # epsilon transition
    t = make_transducer(("a",), FREE, 2, {0}, {1}, [(0, None, "x", 1)])
    assert not check_pseudo_deterministic(t)


def test_classical_compiles_integer_outputs():
    # "aa" outputs 3 + 1 or -2 + 6; the payload order keeps the -2 path
    Z = Integers()
    t = make_transducer(
        ("a",), Z, 4, {0}, {3},
        [(0, "a", 3, 1), (0, "a", -2, 2), (1, "a", 1, 3), (2, "a", 6, 3)],
    )
    assert check_pseudo_deterministic(t)
    assert unambiguous_expand(t).pairs == ((0, frozenset()), (2, frozenset()), (3, frozenset()))
    b = classical_compile(t)
    assert evaluate(b, ("a", "a")) == MonoidValue(Z, 4)
    assert evaluate(b, ("a",)) is None


def test_expand_rejects_other_shapes():
    t = make_transducer(("a",), FREE, 2, {0, 1}, {1}, [(0, "a", "x", 1)])
    with pytest.raises(ValueError):
        unambiguous_expand(t)


def test_expand_deterministic_chain_is_identity():
    t = make_transducer(("a", "b"), FREE, 3, {0}, {2}, [(0, "a", "x", 1), (1, "b", "y", 2)])
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


def test_expand_nonfunctional_keeps_least_output():
    # "a" maps to both "x" and "y"; the expansion commits to "x"
    t = make_transducer(("a",), FREE, 3, {0}, {1, 2}, [(0, "a", "y", 1), (0, "a", "x", 2)])
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


def test_classical_compile_diamond():
    b = classical_compile(diamond())
    assert evaluate(b, ("a", "b")) == fw("xxy")
    assert evaluate(b, ("a",)) is None
    assert evaluate(b, ()) is None
    assert b.eps_output is None


def test_classical_eps_output_when_initial_is_final():
    t = make_transducer(("a",), FREE, 1, {0}, {0}, [(0, "a", "x", 0)])
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
