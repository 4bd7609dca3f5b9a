import dataclasses
import random
from collections import Counter

import pytest

from bimc import compiler
from bimc.benchmark import make_tn
from bimc.bimachine import evaluate
from bimc.cli import bimachine_to_text, cli_main, parse_transducer
from bimc.compiler import (
    CompileError,
    NotFunctionalError,
    compile as build,
    generalized_transitions,
    output_value,
    set_mge,
)
from bimc.fsa import Transducer, determinize, eps_closure, members, output_cells
from bimc.functionality import test_functionality as functionality
from bimc.monoid import FreeWords, Integers, MonoidValue, NonNegRationals, PairOf
from helpers import (
    TRANSDUCER_MONOIDS,
    all_words,
    functional_draws,
    output_table,
    random_transducer,
    remove_eps_edges,
    with_eps_detours,
)

FREE = FreeWords(("x", "y"))


def fw(s):
    return MonoidValue(FREE, s)


def nn(q):
    return MonoidValue(NonNegRationals(), q)


def test_single_transition_gives_single_entry():
    t = Transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1)])
    b = build(t)
    assert list(b.psi.values()) == [fw("x")]
    assert evaluate(b, ("a",)) == fw("x")
    assert evaluate(b, ("a", "a")) is None
    assert b.eps_output is None


def test_delayed_diamond():
    # both paths emit "xxy" but disagree on when; the compiled machine
    # must commit to "xx" on the first letter already
    t = Transducer(
        ("a", "b"), FREE, 4, {0}, {3},
        [(0, "a", "x", 1), (0, "a", "xx", 2), (1, "b", "xy", 3), (2, "b", "y", 3)],
    )
    b = build(t)
    assert evaluate(b, ("a", "b")) == fw("xxy")
    assert evaluate(b, ("a",)) is None
    assert evaluate(b, ("b",)) is None


def test_compile_rejects_nonfunctional():
    t = Transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1), (0, "a", "y", 1)])
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


def test_set_mge_chain_that_does_not_accumulate_fails(monkeypatch):
    # x then y: the second link cannot align with the first
    nu = {(1, 2): (fw(""), fw("x")), (2, 3): (fw("y"), fw(""))}
    with pytest.raises(CompileError, match=r"chain for \[1, 2, 3\] does not accumulate"):
        set_mge({1, 2, 3}, nu, FREE)
    monkeypatch.setattr(compiler, "gamma_n", lambda chain, monoid: None)
    with pytest.raises(CompileError, match="does not accumulate"):
        set_mge({3, 7}, {(3, 7): (fw("x"), fw(""))}, FREE)


def test_output_value_unsolvable_delay_equation():
    # delay y cannot be a prefix of x·(empty delay)
    steps = {(0, "a"): [(fw("x"), 1)]}
    with pytest.raises(CompileError, match=r"transition \(0, 'a', 1\) has no solution"):
        output_value((0, "a", 0), {0: "y"}, {1: ""}, steps)


def test_output_value_ill_defined_entry_fails_verification():
    steps = {(0, "a"): [(fw("x"), 2)], (1, "a"): [(fw("y"), 2)]}
    phi_s, phi_s2 = {0: "", 1: ""}, {2: ""}
    assert output_value((3, "a", 4), phi_s, phi_s2, steps) == "x"
    with pytest.raises(
        CompileError,
        match=r"output entry \(3, 'a', 4\) is not well defined: transition \(1, 'a', 2\) "
        r'solves to MonoidValue\("y"\), expected MonoidValue\("x"\)',
    ):
        output_value((3, "a", 4), phi_s, phi_s2, steps, verify=True)


@pytest.mark.parametrize("v, delays, outs, solved", [
    (fw, ("", "y"), ("x", "x"), "x"),
    (nn, (0, 2), (1, 1), 1),
], ids=["free", "nnrat"])
def test_output_value_later_transition_has_no_solution(v, delays, outs, solved):
    # the first transition solves; the second one's delay is too large
    steps = {(0, "a"): [(v(outs[0]), 3)], (1, "a"): [(v(outs[1]), 3)]}
    phi_s, phi_s2 = {0: v(delays[0]).payload, 1: v(delays[1]).payload}, {3: v(delays[0]).payload}
    assert output_value((0, "a", 0), phi_s, phi_s2, steps) == v(solved).payload
    with pytest.raises(CompileError) as info:
        output_value((0, "a", 0), phi_s, phi_s2, steps, verify=True)
    assert str(info.value) == "delay equation for transition (1, 'a', 3) has no solution"


@pytest.mark.parametrize("v, outs, message", [
    (fw, ("x", "xy"), 'solves to MonoidValue("xy"), expected MonoidValue("x")'),
    (nn, (1, 2), "solves to MonoidValue(2), expected MonoidValue(1)"),
], ids=["free", "nnrat"])
def test_output_value_later_transition_solves_differently(v, outs, message):
    steps = {(0, "a"): [(v(outs[0]), 3)], (1, "a"): [(v(outs[1]), 3)]}
    zero = v(outs[0]).monoid.unit.payload
    phi_s, phi_s2 = {0: zero, 1: zero}, {3: zero}
    assert output_value((5, "a", 6), phi_s, phi_s2, steps) == v(outs[0]).payload
    with pytest.raises(CompileError) as info:
        output_value((5, "a", 6), phi_s, phi_s2, steps, verify=True)
    assert str(info.value) == (
        f"output entry (5, 'a', 6) is not well defined: transition (1, 'a', 3) {message}"
    )


def test_output_value_unconnected_sets():
    # the only a-move from the set before leads outside the set after
    steps = {(0, "a"): [(fw("x"), 1)], (0, "b"): [(fw("x"), 2)]}
    for verify in (False, True):
        with pytest.raises(CompileError, match=r"no transition connects \(0,\) to \(2,\) on 'a'"):
            output_value((0, "a", 0), {0: ""}, {2: ""}, steps, verify=verify)


def test_each_intersection_triple_is_solved_once(monkeypatch):
    # a compile that solved every cell again would call output_value
    # len(psi) times, 14,058 rather than 9,207 at T_9
    solves = []
    real = compiler.output_value

    def counting(*args, **kwargs):
        solves.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(compiler, "output_value", counting)
    for n, triples, cells in ((5, 315, 550), (6, 762, 1254), (7, 1785, 2828),
                              (8, 4088, 6328), (9, 9207, 14058)):
        solves.clear()
        b = build(make_tn(n), verify=True)
        assert (len(solves), len(b.psi)) == (triples, cells)


def test_compiled_machine_holds_one_value_per_payload():
    # T_10's 31,010 cells take 20 distinct payloads
    b = build(make_tn(10))
    values = b.psi.values()
    assert len({id(v) for v in values}) == len({v.payload for v in values})
    # with one value object per cell instead, the machine and its text are the same
    copied = dataclasses.replace(
        b, psi={cell: MonoidValue(b.monoid, v.payload) for cell, v in b.psi.items()})
    assert copied == b and bimachine_to_text(copied) == bimachine_to_text(b)


def test_each_output_entry_divides_once(monkeypatch):
    # verification multiplies payloads on the further transitions; a
    # division per connecting transition would call solve_payload 41,517
    # times at T_9.  The divisions inside eta_payload accumulate the
    # delays (set_mge), so they are not counted; solve_right only names
    # an error, and no entry here fails.
    divisions, in_eta, by_value, monoid = 0, False, 0, None
    solve, eta, solve_right = FreeWords.solve_payload, FreeWords.eta_payload, compiler.solve_right

    def counting_solve(self, a, b):
        nonlocal divisions
        divisions += self is monoid and not in_eta
        return solve(self, a, b)

    def flagged_eta(self, a, b):
        nonlocal in_eta
        in_eta = True
        try:
            return eta(self, a, b)
        finally:
            in_eta = False

    def counting_solve_right(m, n):
        nonlocal by_value
        by_value += 1
        return solve_right(m, n)

    monkeypatch.setattr(FreeWords, "solve_payload", counting_solve)
    monkeypatch.setattr(FreeWords, "eta_payload", flagged_eta)
    monkeypatch.setattr(compiler, "solve_right", counting_solve_right)
    for n, triples in ((5, 315), (6, 762), (7, 1785), (8, 4088), (9, 9207)):
        t = make_tn(n)
        monoid, verdict = t.monoid, functionality(t)
        divisions = 0
        build(t, verdict, verify=True)
        assert divisions == triples
    assert by_value == 0


def test_generalized_transitions_real_time_are_the_moves_by_source():
    # grouped by source state, then alphabet order, then declaration order
    t = Transducer(
        ("a", "b"), FREE, 2, {0}, {1},
        [(0, "a", "x", 1), (0, "b", "y", 1), (1, "a", "", 0)],
    )
    want = [(0, "a", fw("x"), 1), (0, "b", fw("y"), 1), (1, "a", fw(""), 0)]
    assert generalized_transitions(t, eps_closure(t)) == want
    interleaved = Transducer(
        ("a", "b"), FREE, 2, {0}, {1},
        [(1, "a", "", 0), (0, "b", "y", 1), (0, "a", "yy", 0), (1, "a", "xy", 1), (0, "a", "x", 1)],
    )
    want = [
        (0, "a", fw("yy"), 0), (0, "a", fw("x"), 1), (0, "b", fw("y"), 1),
        (1, "a", fw(""), 0), (1, "a", fw("xy"), 1),
    ]
    assert generalized_transitions(interleaved, eps_closure(interleaved)) == want


def test_generalized_transitions_fold_eps_outputs():
    t = Transducer(
        ("a",), FREE, 3, {0}, {2},
        [(0, None, "x", 1), (1, "a", "y", 2)],
    )
    gen = set(generalized_transitions(t, eps_closure(t)))
    assert gen == {(1, "a", fw("y"), 2), (0, "a", fw("xy"), 2)}


def test_compile_determinizes_the_eps_free_steps():
    # the subset automata of an epsilon transducer are those of its
    # naive epsilon removal; determinize itself refuses epsilon moves
    cycle = Transducer(
        ("a",), FREE, 3, {0}, {2}, [(0, None, "", 1), (1, None, "", 0), (0, "a", "x", 2)],
    )
    b = build(cycle)
    assert (b.left.subsets, b.right.subsets) == ((0b001, 0b100), (0b100, 0b011))
    assert evaluate(b, ("a",)) == fw("x")
    rng = random.Random(8080)
    eps_left = Counter()  # per monoid, trimmed transducers that keep an epsilon move
    for monoid in TRANSDUCER_MONOIDS:
        for t, verdict in functional_draws(rng, 50, monoid, eps=True):
            tt = verdict.trimmed
            b = build(t, verdict=verdict)
            for got, want in zip((b.left, b.right), determinize(remove_eps_edges(tt))):
                assert (got.subsets, got.delta) == (want.subsets, want.delta)
            if not tt.real_time:
                eps_left[monoid] += 1
                with pytest.raises(ValueError, match="real-time"):
                    determinize(tt)
    assert all(eps_left[m] >= 30 for m in TRANSDUCER_MONOIDS), eps_left


def test_leading_eps_before_first_symbol():
    # the start subset is not ε-closed, so the first output entry must
    # fold the leading ε value in via a generalized step
    t = Transducer(
        ("a",), FREE, 3, {0}, {2},
        [(0, None, "x", 1), (1, "a", "y", 2)],
    )
    b = build(t)
    assert evaluate(b, ("a",)) == fw("xy")


def test_trailing_eps_after_last_symbol():
    t = Transducer(
        ("a",), FREE, 3, {0}, {2},
        [(0, "a", "x", 1), (1, None, "y", 2)],
    )
    b = build(t)
    assert evaluate(b, ("a",)) == fw("xy")


def test_eps_output_recorded():
    t = Transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, None, "xx", 1), (1, "a", "y", 1)],
    )
    b = build(t)
    assert b.eps_output == fw("xx")
    assert evaluate(b, ()) == fw("xx")
    assert evaluate(b, ("a",)) == fw("xxy")


def test_eps_twin_matches_real_time_twin():
    # same function written with and without ε transitions
    twin_eps = Transducer(
        ("a", "b"), FREE, 4, {0}, {3},
        [
            (0, None, "x", 1),
            (1, "a", "y", 2),
            (2, None, "x", 1),
            (1, "b", "", 3),
        ],
    )
    twin_rt = Transducer(
        ("a", "b"), FREE, 2, {0}, {1},
        [(0, "a", "xy", 0), (0, "b", "x", 1)],
    )
    b_eps, b_rt = build(twin_eps), build(twin_rt)
    for w in all_words(("a", "b"), 6):
        assert evaluate(b_eps, w) == evaluate(b_rt, w)


def test_compile_accepts_precomputed_verdict():
    t = Transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1), (0, "a", "x", 1)])
    v = functionality(t)
    b1, b2 = build(t, verdict=v), build(t)
    assert b1 == b2


def test_compile_refuses_another_transducers_verdict():
    # a verdict on the functional t1 does not vouch for the nonfunctional t3
    t1 = Transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1)])
    t3 = Transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1), (0, "a", "xx", 1)])
    v1 = functionality(t1)
    with pytest.raises(ValueError, match="another transducer"):
        build(t3, verdict=v1)
    with pytest.raises(NotFunctionalError):
        build(t3)
    # an equal transducer built anew is judged the same, so its verdict serves
    again = Transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1)])
    assert functionality(again) == v1 and repr(functionality(again)) == repr(v1)
    assert build(again, verdict=v1) == build(t1)


def test_verify_and_fast_paths_agree_on_random_functional():
    rng = random.Random(1010)
    monoids = (None, NonNegRationals(), Integers(), PairOf(FREE, Integers()))
    checked = Counter()
    for monoid in monoids:
        for eps in (False, True):
            for t, v in functional_draws(rng, 80, monoid, eps=eps):
                checked[monoid, v.trimmed.real_time] += 1
                verified = build(t, verdict=v, verify=True)
                trusted = build(t, verdict=v, verify=False)
                assert verified == trusted  # psi included
                assert bimachine_to_text(verified) == bimachine_to_text(trusted)
    # trimmed machines that keep an ε move, per monoid
    assert all(checked[m, False] >= 40 for m in monoids), checked


def test_eps_detours_keep_the_relation():
    rng = random.Random(6060)
    for monoid in TRANSDUCER_MONOIDS:
        for _ in range(40):
            t = random_transducer(rng, max_states=3, max_symbols=2, monoid=monoid)
            detoured = with_eps_detours(rng, t)
            assert not detoured.real_time or detoured.transitions == t.transitions
            table, truncated = output_table(detoured, 3)
            assert not truncated and table == output_table(t, 3)[0]


def _walk_sets(b):
    """The intersection sets the cell walk meets, before and after each step."""
    sets = set()
    for *_, s, s2 in output_cells(b.left, b.right):
        sets |= {s, s2}
    return sets


def test_delays_once_per_set_the_walk_meets(monkeypatch, perfbench_gen):
    calls = []
    real = compiler.set_mge

    def counting(S, *args):
        calls.append(S)
        return real(S, *args)

    monkeypatch.setattr(compiler, "set_mge", counting)
    total = 0
    for n in range(5, 10):
        calls.clear()
        b = build(make_tn(n))
        assert sorted(calls) == sorted(members(s) for s in _walk_sets(b))
        total += len(calls)
    assert total == 997
    total = 0
    for member in perfbench_gen.corpus(1000):
        t = parse_transducer(member.text())
        v = functionality(t)
        if v.functional:
            calls.clear()
            b = build(t, verdict=v)
            assert sorted(calls) == sorted(members(s) for s in _walk_sets(b))
            total += len(calls)
    assert total == 874  # the 933 sets of all left and right subset pairs, less the unmet


def test_stats_counts_the_sets_a_compile_meets(monkeypatch, tmp_path, capsys, perfbench_gen):
    calls = []
    real = compiler.set_mge

    def counting(S, *args):
        calls.append(S)
        return real(S, *args)

    monkeypatch.setattr(compiler, "set_mge", counting)
    src, out = tmp_path / "member.fst", str(tmp_path / "member.bim")
    stats = {}
    for i, text in enumerate(m.text() for m in perfbench_gen.corpus(200)):
        if not functionality(parse_transducer(text)).functional:
            continue
        src.write_text(text, encoding="utf-8")
        calls.clear()
        assert cli_main(["compile", str(src), "-o", out, "--stats"]) == 0
        stats[i] = capsys.readouterr().out.split()[-1]
        assert stats[i] == f"sets={len(calls)}"
    assert len(stats) == 64
    # the product of all left and right subsets has a third, unmet set
    assert stats[10] == "sets=2"


def test_compiled_machine_matches_path_oracle():
    rng = random.Random(20240)
    checked = 0
    for t, v in functional_draws(rng, 25) + functional_draws(rng, 25, eps=True):
        b = build(t, verdict=v)
        checked += bool(b.psi)  # a machine with output cells, not just an empty-word output
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
    t = Transducer(("a",), FREE, 2, {0}, set(), [(0, "a", "x", 1)])
    b = build(t)
    assert b.psi == {}
    assert b.eps_output is None
    assert evaluate(b, ("a",)) is None
