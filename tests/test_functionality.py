"""Functionality decision: epsilon gates, valuation checks, witnesses."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from bimc.benchmark import make_tn
from bimc.fsa import StateLimitExceeded, Transducer, eps_closure, trim
from bimc.functionality import Witness, eps_cycle_check, eps_language
from bimc.functionality import test_functionality as functionality
from bimc.monoid import FreeWords, MonoidValue, NonNegRationals, PairOf
from helpers import (
    TRANSDUCER_MONOIDS,
    canonical_projection,
    eps_closure_reference,
    eps_cycle_reference,
    eps_diamond_chain,
    functionality_reference,
    output_table,
    random_transducer,
    squared_reference,
    with_eps_detours,
)

FREE = FreeWords(("x", "y"))


def fw(w):
    return MonoidValue(FREE, w)


# --- epsilon gates -----------------------------------------------------------


def test_eps_cycle_check_accepts_unit_cycles():
    t = Transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, None, "", 1), (1, None, "", 0), (0, "a", "x", 1)],
    )
    assert eps_cycle_check(t, eps_closure(t)) is None


def test_eps_cycle_check_rejects_growing_loop():
    t = Transducer(("a",), FREE, 1, {0}, {0}, [(0, None, "x", 0)])
    assert eps_cycle_check(t, eps_closure(t)) == 0


def test_eps_cycle_check_rejects_inconsistent_ring():
    # two eps paths 0->1 with different outputs close into a cycle via 1->0
    t = Transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, None, "x", 1), (0, None, "y", 1), (1, None, "", 0)],
    )
    assert eps_cycle_check(t, eps_closure(t)) is not None


def test_eps_cycle_check_ignores_edges_between_components():
    # nonunit eps edge, but no cycle through it
    t = Transducer(
        ("a",), FREE, 2, {0}, {1}, [(0, None, "x", 1), (1, "a", "y", 1)]
    )
    assert eps_cycle_check(t, eps_closure(t)) is None


def test_eps_cycle_check_returns_the_smallest_state_on_a_nonunit_cycle():
    # {0,1} closes a unit cycle and {2,3} a growing one; the nonunit edge
    # 2 -> 0 joins them without closing a cycle, so the witness is in {2,3}
    t = Transducer(
        ("a",), FREE, 4, {2}, {0},
        [(0, None, "", 1), (1, None, "", 0), (2, None, "x", 3), (3, None, "", 2),
         (2, None, "y", 0)],
    )
    assert eps_cycle_check(t, eps_closure(t)) == 2


def test_eps_walks_match_their_queue_references():
    # the closure numbers its nodes with one explore and stops at the first
    # nonunit return; the references keep a walk per start state and a
    # labelling queue per component
    rng = random.Random(1919)
    for monoid in TRANSDUCER_MONOIDS:
        with_cycle = 0
        for k in range(150):
            t = random_transducer(rng, allow_eps=True, require_eps=True, monoid=monoid)
            if k % 2:
                t = with_eps_detours(rng, t)
            for u in (t, trim(t)[0]):
                unit = u.monoid.unit
                unit_eps = [tr._replace(out=unit) if tr.inp is None else tr for tr in u.transitions]
                plain = dataclasses.replace(u, transitions=unit_eps)
                arcs = [(tr.src, unit, tr.dst) for tr in plain.transitions if tr.inp is None]
                assert eps_closure(plain) == eps_closure_reference(u.n_states, arcs, unit)[0]
                bad = eps_cycle_check(u, eps_closure(u))
                on_cycles = eps_cycle_reference(u)
                assert (bad is None) == (not on_cycles)
                if bad is None:
                    labelled = [(tr.src, tr.out, tr.dst) for tr in u.transitions if tr.inp is None]
                    assert eps_closure(u) == eps_closure_reference(u.n_states, labelled, unit)[0]
                else:
                    assert bad in on_cycles
                    with_cycle += 1
        assert with_cycle >= 80  # 117 to 143 of the 300 per monoid


def test_eps_closure_keeps_the_state_budget(monkeypatch):
    monkeypatch.setenv("BIMC_MAX_STATES", "1000")
    with pytest.raises(StateLimitExceeded, match="epsilon closure exceeded BIMC_MAX_STATES=1000"):
        functionality(eps_diamond_chain())


def test_eps_closure_stops_at_the_first_nonunit_return(monkeypatch):
    # the loop at 1 would make the lists from 0 and 1 infinite; the closure
    # stops once 1 returns to itself with x, well inside the budget
    monkeypatch.setenv("BIMC_MAX_STATES", "100")
    t = Transducer(
        ("a",), FREE, 3, {0}, {2},
        [(0, None, "", 1), (1, None, "x", 1), (1, "a", "", 2)],
    )
    paths = eps_closure(t)
    assert (1, fw("x")) in paths[1]
    assert eps_cycle_check(t, paths) == 1


def test_eps_language_collects_all_eps_outputs():
    t = Transducer(
        ("a",), FREE, 3, {0}, {2},
        [(0, None, "x", 1), (0, None, "y", 1), (1, None, "", 2)],
    )
    assert eps_language(t, eps_closure(t)) == frozenset({fw("x"), fw("y")})


def test_eps_language_empty_word_via_overlap():
    t = Transducer(("a",), FREE, 1, {0}, {0}, [])
    assert eps_language(t, eps_closure(t)) == frozenset({fw("")})
    t2 = Transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1)])
    assert eps_language(t2, eps_closure(t2)) == frozenset()


# --- verdicts ----------------------------------------------------------------


def test_functional_deterministic_chain():
    t = Transducer(
        ("a", "b"), FREE, 3, {0}, {2}, [(0, "a", "x", 1), (1, "b", "yy", 2)]
    )
    v = functionality(t)
    assert v.functional and v.witness is None
    assert v.squared is not None and v.valuation is not None
    assert v.eps_outputs == frozenset()


def test_functional_word_and_length_counter():
    prod = PairOf(FreeWords(("a", "b")), NonNegRationals())
    t = Transducer(
        ("a", "b"), prod, 1, {0}, {0},
        [(0, "a", ("a", Fraction(1)), 0), (0, "b", ("b", Fraction(1)), 0)],
    )
    v = functionality(t)
    assert v.functional
    assert v.eps_outputs == frozenset({prod.unit})


def test_functional_despite_parallel_equal_outputs():
    t = Transducer(
        ("a",), FREE, 3, {0}, {2},
        [(0, "a", "x", 1), (0, "a", "x", 2), (1, "a", "y", 2), (2, "a", "y", 2)],
    )
    # both branches always produce the same composite outputs
    assert functionality(t).functional


def test_tn9_verdict_multiplies_payloads_not_values(monkeypatch):
    # the squared arcs, rho and the arc check work on raw payloads; only
    # an unequal useful pair's mge is taken on values
    import bimc.monoid
    import bimc.squared

    calls = {"op": 0, "eta": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(bimc.monoid, "op", counted("op", bimc.monoid.op))
    monkeypatch.setattr(bimc.squared, "eta", counted("eta", bimc.squared.eta))
    v = functionality(make_tn(9))
    assert v.functional
    assert calls["op"] == 0
    assert 0 < calls["eta"] <= len(v.valuation.rho)


def test_witness_transition_mismatch():
    t = Transducer(
        ("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1), (0, "a", "y", 1)]
    )
    v = functionality(t)
    assert not v.functional
    assert v.witness == Witness(
        "transition-mismatch",
        'step (0,0) -> (1,1) with labels ("x","y") breaks output agreement',
    )


def test_verdict_is_true_exactly_when_functional():
    good = functionality(Transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1)]))
    bad = functionality(
        Transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1), (0, "a", "y", 1)])
    )
    assert bool(good) is True and bool(bad) is False


def test_witness_final_imbalance():
    t = Transducer(
        ("a",), FREE, 3, {0}, {1, 2}, [(0, "a", "x", 1), (0, "a", "xx", 2)]
    )
    v = functionality(t)
    assert not v.functional
    assert v.witness == Witness(
        "final-imbalance", 'final pair (1,2) ends with unequal outputs ("x","xx")'
    )


def test_witness_unequalizable_pair():
    t = Transducer(
        ("a", "b"), FREE, 4, {0}, {3},
        [(0, "a", "x", 1), (0, "a", "y", 2), (1, "b", "", 3), (2, "b", "", 3)],
    )
    v = functionality(t)
    assert not v.functional
    assert v.witness == Witness(
        "unequalizable-pair", 'pair (1,2) accumulates ("x","y") which no suffix can equalize'
    )
    # in a product whose left outputs agree, the right component alone
    t = Transducer(
        ("a",), PairOf(FREE, FREE), 3, {0}, {1, 2},
        [(0, "a", ("x", "x"), 1), (0, "a", ("x", "y"), 2)],
    )
    v = functionality(t)
    assert not v.functional
    assert v.witness == Witness(
        "unequalizable-pair",
        'pair (1,2) accumulates (("x","x"),("x","y")) which no suffix can equalize',
    )


def test_witness_eps_cycle():
    t = Transducer(("a",), FREE, 1, {0}, {0}, [(0, None, "x", 0)])
    v = functionality(t)
    assert not v.functional
    assert v.witness == Witness("eps-cycle", "state 0 lies on an epsilon cycle with nonunit output")
    assert v.squared is None


def test_witness_eps_language():
    t = Transducer(
        ("a",), FREE, 2, {0}, {1}, [(0, None, "x", 1), (0, None, "y", 1)]
    )
    v = functionality(t)
    assert not v.functional
    assert v.witness == Witness("eps-language", 'empty input maps to 2 distinct outputs: "x", "y"')
    assert v.eps_outputs == frozenset({fw("x"), fw("y")})


def test_squared_automaton_keeps_the_state_budget(monkeypatch):
    # T_5 squares to 37 ordered pairs, 22 of them with p <= q
    t = make_tn(5)
    pairs, _ = canonical_projection(squared_reference(trim(t)[0]))
    assert len(functionality(t).squared.pairs) == len(pairs) == 22
    monkeypatch.setenv("BIMC_MAX_STATES", "20")
    with pytest.raises(StateLimitExceeded, match="squared exceeded BIMC_MAX_STATES=20"):
        functionality(t)


def test_nonunit_eps_cycle_off_successful_paths_is_ignored():
    # the loop at state 2 is trimmed away, so the verdict is functional
    t = Transducer(
        ("a",), FREE, 3, {0}, {1},
        [(0, "a", "x", 1), (2, None, "y", 2)],
    )
    v = functionality(t)
    assert v.functional
    assert v.trimmed.n_states == 2


def test_empty_transducer_is_functional():
    t = Transducer(("a",), FREE, 2, {0}, set(), [(0, "a", "x", 1)])
    v = functionality(t)
    assert v.functional
    assert v.trimmed.n_states == 0


def test_eps_diamond_with_single_value_is_functional():
    t = Transducer(
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


def test_verdict_matches_the_ordered_reference():
    # the check over pairs with p <= q decides as the one over every
    # ordered pair, with the same witness kind; a valuation that does
    # not swap rho along a swapped arc fails this within the draws
    rng = random.Random(3838)
    kinds = Counter()
    for monoid in TRANSDUCER_MONOIDS:
        for k in range(300):
            t = random_transducer(rng, allow_eps=k % 2 == 0, monoid=monoid)
            for u in (t, with_eps_detours(rng, t)):
                v = functionality(u)
                want = functionality_reference(u)
                assert (v.functional, v.witness and v.witness.kind) == want
                kinds[want[1]] += 1
    assert kinds[None] > 1000 and kinds["transition-mismatch"] > 300
    assert min(kinds.values()) >= 5 and len(kinds) == 6


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
