import random

import pytest

from bimc.bimachine import domain_contains, evaluate
from bimc.compiler import (
    CompileError,
    NotFunctionalError,
    compile as build,
    generalized_transitions,
    set_mge,
)
from bimc.fsa import make_transducer
from bimc.functionality import test_functionality as functionality
from bimc.monoid import FreeWords, MonoidValue
from helpers import all_words, eps_paths, output_table, random_transducer

FREE = FreeWords(("x", "y"))


def fw(s):
    return MonoidValue(FREE, s)


def test_single_transition_gives_single_entry():
    t = make_transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1)])
    b = build(t)
    assert list(b.psi.values()) == [fw("x")]
    assert evaluate(b, ("a",)) == fw("x")
    assert evaluate(b, ("a", "a")) is None
    assert b.eps_output is None


def test_delayed_diamond():
    # both paths emit "xxy" but disagree on when; the compiled machine
    # must commit to "xx" on the first letter already
    t = make_transducer(
        ("a", "b"), FREE, 4, {0}, {3},
        [(0, "a", "x", 1), (0, "a", "xx", 2), (1, "b", "xy", 3), (2, "b", "y", 3)],
    )
    b = build(t)
    assert evaluate(b, ("a", "b")) == fw("xxy")
    assert evaluate(b, ("a",)) is None
    assert not domain_contains(b, ("b",))


def test_compile_rejects_nonfunctional():
    t = make_transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1), (0, "a", "y", 1)])
    with pytest.raises(NotFunctionalError) as info:
        build(t)
    assert info.value.verdict.witness.kind == "transition-mismatch"


def test_set_mge_singleton_and_chain():
    assert set_mge([5], {}, FREE) == {5: FREE.unit}
    phi = set_mge({3, 7}, {(3, 7): (fw("b" * 0 + "x"), fw(""))}, FREE)
    assert phi == {3: fw("x"), 7: fw("")}


def test_set_mge_missing_pair_fails():
    with pytest.raises(CompileError):
        set_mge({1, 2}, {}, FREE)


def test_generalized_transitions_real_time_is_delta_order():
    t = make_transducer(
        ("a", "b"), FREE, 2, {0}, {1},
        [(0, "a", "x", 1), (0, "b", "y", 1), (1, "a", "", 0)],
    )
    want = [(0, "a", fw("x"), 1), (0, "b", fw("y"), 1), (1, "a", fw(""), 0)]
    assert generalized_transitions(t, eps_paths(t)) == want


def test_generalized_transitions_fold_eps_outputs():
    t = make_transducer(
        ("a",), FREE, 3, {0}, {2},
        [(0, None, "x", 1), (1, "a", "y", 2)],
    )
    gen = set(generalized_transitions(t, eps_paths(t)))
    assert gen == {(1, "a", fw("y"), 2), (0, "a", fw("xy"), 2)}


def test_leading_eps_before_first_symbol():
    # the start subset is not ε-closed, so the first output entry must
    # fold the leading ε value in via a generalized step
    t = make_transducer(
        ("a",), FREE, 3, {0}, {2},
        [(0, None, "x", 1), (1, "a", "y", 2)],
    )
    b = build(t)
    assert evaluate(b, ("a",)) == fw("xy")


def test_trailing_eps_after_last_symbol():
    t = make_transducer(
        ("a",), FREE, 3, {0}, {2},
        [(0, "a", "x", 1), (1, None, "y", 2)],
    )
    b = build(t)
    assert evaluate(b, ("a",)) == fw("xy")


def test_eps_output_recorded():
    t = make_transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, None, "xx", 1), (1, "a", "y", 1)],
    )
    b = build(t)
    assert b.eps_output == fw("xx")
    assert evaluate(b, ()) == fw("xx")
    assert evaluate(b, ("a",)) == fw("xxy")


def test_eps_twin_matches_real_time_twin():
    # same function written with and without ε transitions
    twin_eps = make_transducer(
        ("a", "b"), FREE, 4, {0}, {3},
        [
            (0, None, "x", 1),
            (1, "a", "y", 2),
            (2, None, "x", 1),
            (1, "b", "", 3),
        ],
    )
    twin_rt = make_transducer(
        ("a", "b"), FREE, 2, {0}, {1},
        [(0, "a", "xy", 0), (0, "b", "x", 1)],
    )
    b_eps, b_rt = build(twin_eps), build(twin_rt)
    for w in all_words(("a", "b"), 6):
        assert evaluate(b_eps, w) == evaluate(b_rt, w)


def test_compile_accepts_precomputed_verdict():
    t = make_transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1), (0, "a", "x", 1)])
    v = functionality(t)
    b1, b2 = build(t, verdict=v), build(t)
    assert b1 == b2


def test_verify_and_fast_paths_agree_on_random_functional():
    rng = random.Random(404)
    checked = 0
    for k in range(150):
        t = random_transducer(rng, allow_eps=(k % 2 == 0))
        v = functionality(t)
        if not v.functional:
            continue
        checked += 1
        assert build(t, verdict=v, verify=True) == build(t, verdict=v, verify=False)
    assert checked > 40


def test_compiled_machine_matches_path_oracle():
    rng = random.Random(20240)
    checked = 0
    for k in range(150):
        t = random_transducer(rng, allow_eps=(k % 2 == 0))
        v = functionality(t)
        if not v.functional:
            continue
        checked += 1
        b = build(t, verdict=v)
        table, truncated = output_table(t, 5)
        assert not truncated
        for w in all_words(t.alphabet, 5):
            outs = table.get(w, set())
            got = evaluate(b, w)
            if outs:
                assert got == next(iter(outs))
            else:
                assert got is None
    assert checked > 40


def test_empty_domain_compiles_to_empty_machine():
    t = make_transducer(("a",), FREE, 2, {0}, set(), [(0, "a", "x", 1)])
    b = build(t)
    assert b.psi == {}
    assert b.eps_output is None
    assert evaluate(b, ("a",)) is None
