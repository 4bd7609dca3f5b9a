import importlib
import random
from collections import Counter
from pathlib import Path

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
from bimc.fsa import determinize, make_transducer, members, move_index, output_cells
from bimc.functionality import test_functionality as functionality
from bimc.monoid import FreeWords, Integers, MonoidValue, NonNegRationals, PairOf
from helpers import (
    TRANSDUCER_MONOIDS,
    all_words,
    eps_paths,
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
    assert evaluate(b, ("b",)) is None


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
    steps = move_index([(0, "a", fw("x"), 1)])
    with pytest.raises(CompileError, match=r"transition \(0, 'a', 1\) has no solution"):
        output_value((0, "a", 0), {0: fw("y")}, {1: fw("")}, steps)


def test_output_value_ill_defined_entry_fails_verification():
    steps = move_index([(0, "a", fw("x"), 2), (1, "a", fw("y"), 2)])
    phi_s, phi_s2 = {0: fw(""), 1: fw("")}, {2: fw("")}
    assert output_value((3, "a", 4), phi_s, phi_s2, steps) == fw("x")
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
    steps = move_index([(0, "a", v(outs[0]), 3), (1, "a", v(outs[1]), 3)])
    phi_s, phi_s2 = {0: v(delays[0]), 1: v(delays[1])}, {3: v(delays[0])}
    assert output_value((0, "a", 0), phi_s, phi_s2, steps) == v(solved)
    with pytest.raises(CompileError) as info:
        output_value((0, "a", 0), phi_s, phi_s2, steps, verify=True)
    assert str(info.value) == "delay equation for transition (1, 'a', 3) has no solution"


@pytest.mark.parametrize("v, outs, message", [
    (fw, ("x", "xy"), 'solves to MonoidValue("xy"), expected MonoidValue("x")'),
    (nn, (1, 2), "solves to MonoidValue(2), expected MonoidValue(1)"),
], ids=["free", "nnrat"])
def test_output_value_later_transition_solves_differently(v, outs, message):
    steps = move_index([(0, "a", v(outs[0]), 3), (1, "a", v(outs[1]), 3)])
    zero = v(outs[0]).monoid.unit
    phi_s, phi_s2 = {0: zero, 1: zero}, {3: zero}
    assert output_value((5, "a", 6), phi_s, phi_s2, steps) == v(outs[0])
    with pytest.raises(CompileError) as info:
        output_value((5, "a", 6), phi_s, phi_s2, steps, verify=True)
    assert str(info.value) == (
        f"output entry (5, 'a', 6) is not well defined: transition (1, 'a', 3) {message}"
    )


def test_output_value_unconnected_sets():
    # the only a-move from the set before leads outside the set after
    steps = move_index([(0, "a", fw("x"), 1), (0, "b", fw("x"), 2)])
    for verify in (False, True):
        with pytest.raises(CompileError, match=r"no transition connects \(0,\) to \(2,\) on 'a'"):
            output_value((0, "a", 0), {0: fw("")}, {2: fw("")}, steps, verify=verify)


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


def test_each_output_entry_divides_once(monkeypatch):
    # verification multiplies payloads on the further transitions; a
    # division per connecting transition would call solve_right 41,517
    # times at T_9
    divisions = 0
    real = compiler.solve_right

    def counting(m, n):
        nonlocal divisions
        divisions += 1
        return real(m, n)

    monkeypatch.setattr(compiler, "solve_right", counting)
    for n, triples in ((5, 315), (6, 762), (7, 1785), (8, 4088), (9, 9207)):
        divisions = 0
        build(make_tn(n), verify=True)
        assert divisions == triples


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


def test_compile_determinizes_the_eps_free_steps():
    # the subset automata of an epsilon transducer are those of its
    # naive epsilon removal; determinize itself refuses epsilon moves
    cycle = make_transducer(
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
    for _, _, _, s, l2, r in output_cells(b.left, b.right):
        sets |= {s, l2 & r}
    return sets


def _benchmark_corpus(monkeypatch, size):
    """The benchmark's fixed random corpus, as transducer texts."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return [member.text() for member in importlib.import_module("gen").corpus(size)]


def test_delays_once_per_set_the_walk_meets(monkeypatch):
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
    for text in _benchmark_corpus(monkeypatch, 1000):
        t = parse_transducer(text)
        v = functionality(t)
        if v.functional:
            calls.clear()
            b = build(t, verdict=v)
            assert sorted(calls) == sorted(members(s) for s in _walk_sets(b))
            total += len(calls)
    assert total == 874  # the 933 sets of all left and right subset pairs, less the unmet


def test_stats_counts_the_sets_a_compile_meets(monkeypatch, tmp_path, capsys):
    calls = []
    real = compiler.set_mge

    def counting(S, *args):
        calls.append(S)
        return real(S, *args)

    monkeypatch.setattr(compiler, "set_mge", counting)
    src, out = tmp_path / "member.fst", str(tmp_path / "member.bim")
    stats = {}
    for i, text in enumerate(_benchmark_corpus(monkeypatch, 200)):
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
    t = make_transducer(("a",), FREE, 2, {0}, set(), [(0, "a", "x", 1)])
    b = build(t)
    assert b.psi == {}
    assert b.eps_output is None
    assert evaluate(b, ("a",)) is None
