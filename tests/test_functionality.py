"""Functionality decision: epsilon gates, valuation checks, witnesses."""

import random
from fractions import Fraction

import pytest

from bimc.benchmark import make_tn
from bimc.fsa import StateLimitExceeded, make_transducer
from bimc.functionality import eps_cycle_check, eps_language
from bimc.functionality import test_functionality as functionality
from bimc.monoid import FreeWords, MonoidValue, NonNegRationals, PairOf
from helpers import eps_paths, output_table, random_transducer

FREE = FreeWords(("x", "y"))


def fw(w):
    return MonoidValue(FREE, w)


# --- epsilon gates -----------------------------------------------------------


def test_eps_cycle_check_accepts_unit_cycles():
    t = make_transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, None, "", 1), (1, None, "", 0), (0, "a", "x", 1)],
    )
    assert eps_cycle_check(t) is None


def test_eps_cycle_check_rejects_growing_loop():
    t = make_transducer(("a",), FREE, 1, {0}, {0}, [(0, None, "x", 0)])
    assert eps_cycle_check(t) == 0


def test_eps_cycle_check_rejects_inconsistent_ring():
    # two eps paths 0->1 with different outputs close into a cycle via 1->0
    t = make_transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, None, "x", 1), (0, None, "y", 1), (1, None, "", 0)],
    )
    assert eps_cycle_check(t) is not None


def test_eps_cycle_check_ignores_edges_between_components():
    # nonunit eps edge, but no cycle through it
    t = make_transducer(
        ("a",), FREE, 2, {0}, {1}, [(0, None, "x", 1), (1, "a", "y", 1)]
    )
    assert eps_cycle_check(t) is None


def test_eps_cycle_check_labels_each_component_from_its_smallest_state():
    # {0,1} closes a unit cycle and {2,3} a growing one; the nonunit edge
    # 2 -> 0 joins them without closing a cycle, so the witness is in {2,3}
    t = make_transducer(
        ("a",), FREE, 4, {2}, {0},
        [(0, None, "", 1), (1, None, "", 0), (2, None, "x", 3), (3, None, "", 2),
         (2, None, "y", 0)],
    )
    assert eps_cycle_check(t) == 2


def test_eps_language_collects_all_eps_outputs():
    t = make_transducer(
        ("a",), FREE, 3, {0}, {2},
        [(0, None, "x", 1), (0, None, "y", 1), (1, None, "", 2)],
    )
    assert eps_language(t, eps_paths(t)) == frozenset({fw("x"), fw("y")})


def test_eps_language_empty_word_via_overlap():
    t = make_transducer(("a",), FREE, 1, {0}, {0}, [])
    assert eps_language(t, eps_paths(t)) == frozenset({fw("")})
    t2 = make_transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1)])
    assert eps_language(t2, eps_paths(t2)) == frozenset()


# --- verdicts ----------------------------------------------------------------


def test_functional_deterministic_chain():
    t = make_transducer(
        ("a", "b"), FREE, 3, {0}, {2}, [(0, "a", "x", 1), (1, "b", "yy", 2)]
    )
    v = functionality(t)
    assert v.functional and v.witness is None
    assert v.squared is not None and v.valuation is not None
    assert v.eps_outputs == frozenset()


def test_functional_word_and_length_counter():
    prod = PairOf(FreeWords(("a", "b")), NonNegRationals())
    t = make_transducer(
        ("a", "b"), prod, 1, {0}, {0},
        [(0, "a", ("a", Fraction(1)), 0), (0, "b", ("b", Fraction(1)), 0)],
    )
    v = functionality(t)
    assert v.functional
    assert v.eps_outputs == frozenset({prod.unit})


def test_functional_despite_parallel_equal_outputs():
    t = make_transducer(
        ("a",), FREE, 3, {0}, {2},
        [(0, "a", "x", 1), (0, "a", "x", 2), (1, "a", "y", 2), (2, "a", "y", 2)],
    )
    # both branches always produce the same composite outputs
    assert functionality(t).functional


def test_witness_transition_mismatch():
    t = make_transducer(
        ("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1), (0, "a", "y", 1)]
    )
    v = functionality(t)
    assert not v.functional
    assert v.witness.kind == "transition-mismatch"


def test_witness_final_imbalance():
    t = make_transducer(
        ("a",), FREE, 3, {0}, {1, 2}, [(0, "a", "x", 1), (0, "a", "xx", 2)]
    )
    v = functionality(t)
    assert not v.functional
    assert v.witness.kind == "final-imbalance"


def test_witness_unequalizable_pair():
    t = make_transducer(
        ("a", "b"), FREE, 4, {0}, {3},
        [(0, "a", "x", 1), (0, "a", "y", 2), (1, "b", "", 3), (2, "b", "", 3)],
    )
    v = functionality(t)
    assert not v.functional
    assert v.witness.kind == "unequalizable-pair"
    # in a product whose left outputs agree, the right component alone
    t = make_transducer(
        ("a",), PairOf(FREE, FREE), 3, {0}, {1, 2},
        [(0, "a", ("x", "x"), 1), (0, "a", ("x", "y"), 2)],
    )
    v = functionality(t)
    assert not v.functional
    assert v.witness.kind == "unequalizable-pair"


def test_witness_eps_cycle():
    t = make_transducer(("a",), FREE, 1, {0}, {0}, [(0, None, "x", 0)])
    v = functionality(t)
    assert not v.functional
    assert v.witness.kind == "eps-cycle"
    assert v.squared is None


def test_witness_eps_language():
    t = make_transducer(
        ("a",), FREE, 2, {0}, {1}, [(0, None, "x", 1), (0, None, "y", 1)]
    )
    v = functionality(t)
    assert not v.functional
    assert v.witness.kind == "eps-language"
    assert v.eps_outputs == frozenset({fw("x"), fw("y")})


def test_squared_automaton_keeps_the_state_budget(monkeypatch):
    t = make_tn(4)
    assert len(functionality(t).squared.pairs) == 26
    monkeypatch.setenv("BIMC_MAX_STATES", "20")
    with pytest.raises(StateLimitExceeded, match="squared exceeded BIMC_MAX_STATES=20"):
        functionality(t)


def test_nonunit_eps_cycle_off_successful_paths_is_ignored():
    # the loop at state 2 is trimmed away, so the verdict is functional
    t = make_transducer(
        ("a",), FREE, 3, {0}, {1},
        [(0, "a", "x", 1), (2, None, "y", 2)],
    )
    v = functionality(t)
    assert v.functional
    assert v.trimmed.n_states == 2


def test_empty_transducer_is_functional():
    t = make_transducer(("a",), FREE, 2, {0}, set(), [(0, "a", "x", 1)])
    v = functionality(t)
    assert v.functional
    assert v.trimmed.n_states == 0


def test_eps_diamond_with_single_value_is_functional():
    t = make_transducer(
        ("a",), FREE, 3, {0}, {2},
        [(0, None, "x", 1), (0, None, "x", 2), (1, None, "", 2)],
    )
    v = functionality(t)
    assert v.functional
    assert v.eps_outputs == frozenset({fw("x")})


def test_verdict_is_reproducible():
    rng = random.Random(11)
    for _ in range(30):
        t = random_transducer(rng, allow_eps=True)
        a, b = functionality(t), functionality(t)
        assert a.functional == b.functional
        assert a.witness == b.witness


def test_verdict_agrees_with_bounded_oracle():
    rng = random.Random(90210)
    n_functional = 0
    n_rejected = 0
    for k in range(120):
        t = random_transducer(rng, allow_eps=(k % 2 == 0))
        v = functionality(t)
        table, truncated = output_table(
            t, 4, node_cap=None if v.functional else 300_000, stop_on_conflict=not v.functional
        )
        conflict = any(len(outs) > 1 for outs in table.values())
        if v.functional:
            assert not truncated
            assert not conflict
            n_functional += 1
        else:
            n_rejected += 1
    assert n_functional > 20 and n_rejected > 20
