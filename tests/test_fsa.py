"""Transducer plumbing: trim, determinization, output cells, path outputs."""

import dataclasses
import random
from collections import Counter

import pytest

from bimc import classical, compiler
from bimc.benchmark import make_tn
from bimc.classical import classical_compile, unambiguous_expand
from bimc.cli import format_transducer, parse_transducer
from bimc.compiler import compile
from bimc.fsa import (
    OutputTable,
    StateLimitExceeded,
    Transducer,
    Transition,
    cell_count,
    determinize,
    enumerate_outputs,
    explore,
    members,
    output_cells,
    output_map,
    output_rows,
    reachable,
    trim,
)
from bimc.functionality import test_functionality as functionality
from bimc.monoid import FreeWords, Integers, MonoidValue, NonNegRationals, PairOf
from helpers import (
    TRANSDUCER_MONOIDS,
    all_words,
    output_table,
    random_pseudo_det,
    random_transducer,
    remove_eps_edges,
    run_dfa,
)

FREE = FreeWords(("x", "y"))


def fw(w):
    return MonoidValue(FREE, w)


def nfa_accepts(t, word):
    """Path oracle over raw transitions, epsilon moves included."""
    stack = [(q, 0) for q in t.initial]
    seen = set(stack)
    while stack:
        q, pos = stack.pop()
        if pos == len(word) and q in t.final:
            return True
        for tr in t.transitions:
            if tr.src != q:
                continue
            if tr.inp is None:
                node = (tr.dst, pos)
            elif pos < len(word) and word[pos] == tr.inp:
                node = (tr.dst, pos + 1)
            else:
                continue
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return False


def dfa_accepts(dfa, ends, word):
    """True when dfa reads word into a subset that meets the states ends."""
    q = run_dfa(dfa, word)
    return q is not None and bool(dfa.subsets[q] & sum(1 << p for p in ends))


def arcs_free(edges):
    """Input-only transitions: (src, symbol, dst) with the unit output."""
    return [(src, inp, "", dst) for src, inp, dst in edges]


# --- construction and validation -------------------------------------------


def test_transducer_dedups_preserving_order():
    t = Transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, "a", "x", 1), (0, "a", "y", 1), (0, "a", "x", 1)],
    )
    assert len(t.transitions) == 2
    assert t.transitions[0].out == fw("x")
    assert t.transitions[1].out == fw("y")


def test_transducer_takes_raw_or_wrapped_arcs():
    # plain tuples and Transitions, with raw payloads or MonoidValues, from
    # a list or a generator: every form builds the same Transitions
    raw = [(0, "a", "x", 1), (1, None, "yx", 1), (1, "a", "", 0)]
    forms = (
        raw,
        [Transition(*arc) for arc in raw],
        (arc for arc in raw),
        [(src, inp, fw(out), dst) for src, inp, out, dst in raw],
    )
    built = [Transducer(("a",), FREE, 2, {0}, {1}, arcs) for arcs in forms]
    assert built[1:] == built[:1] * 3
    assert built[0].transitions == tuple(
        Transition(src, inp, fw(out), dst) for src, inp, out, dst in raw
    )
    assert all(type(tr) is Transition for tr in built[0].transitions)


def test_transducer_checks_raw_payloads():
    for arc in ((0, "a", "z", 0), Transition(0, "a", "xz", 0), (0, None, 3, 0)):
        with pytest.raises(ValueError):
            Transducer(("a",), FREE, 1, {0}, {0}, [arc])


def test_transducer_validation():
    with pytest.raises(ValueError):
        Transducer(("a",), FREE, 1, {0}, {2}, [])
    with pytest.raises(ValueError):
        Transducer(("a",), FREE, 1, {0}, {0}, [(0, "b", "x", 0)])
    with pytest.raises(ValueError, match="endpoint out of range"):
        Transducer(("a",), FREE, 1, {0}, {0}, [(0, "a", "x", 1)])
    with pytest.raises(ValueError):
        Transducer(("a", "a"), FREE, 1, {0}, {0}, [])
    with pytest.raises(ValueError, match="reserved"):
        Transducer(("a", "-"), FREE, 1, {0}, {0}, [])
    other = FreeWords(("z",))
    with pytest.raises(ValueError):
        Transducer(("a",), FREE, 1, {0}, {0}, [(0, "a", MonoidValue(other, "z"), 0)])


def test_transducer_states_are_ints():
    # a count or a state the text format cannot write is refused, so what
    # format_transducer writes parse_transducer reads back
    for n in (-1, 2.5, True, "2"):
        with pytest.raises(ValueError, match="state count .* is not a non-negative int"):
            Transducer(("a",), FREE, n, set(), set(), [])
    for initial, final in (({0.0}, set()), (set(), {True}), ({1}, {True})):
        with pytest.raises(ValueError, match="out of range"):
            Transducer(("a",), FREE, 2, initial, final, [])
    for arc in ((0, "a", "x", True), (0.0, "a", "x", 1)):
        with pytest.raises(ValueError, match="endpoint out of range"):
            Transducer(("a",), FREE, 2, {0}, {1}, [arc])


def test_real_time_flag():
    t = Transducer(("a",), FREE, 1, {0}, {0}, [(0, "a", "x", 0)])
    assert t.real_time
    t2 = Transducer(("a",), FREE, 1, {0}, {0}, [(0, None, "x", 0)])
    assert not t2.real_time


def test_moves_index_each_arc_once_in_declaration_order():
    # random draws with epsilon moves, each rebuilt with some arcs repeated
    rng = random.Random(2323)
    eps = repeats = 0
    for monoid in TRANSDUCER_MONOIDS:
        for _ in range(50):
            t = random_transducer(rng, allow_eps=True, monoid=monoid)
            arcs = list(t.transitions)
            extra = rng.choices(arcs, k=rng.randint(0, 3))
            twin = Transducer(t.alphabet, t.monoid, t.n_states, t.initial, t.final, arcs + extra)
            expected = {}
            for src, inp, out, dst in arcs:
                expected.setdefault((src, inp), []).append((out, dst))
            assert twin == t
            assert list(twin.moves.items()) == list(expected.items())
            assert sum(map(len, twin.moves.values())) == len(set(arcs))
            eps += not t.real_time
            repeats += bool(extra)
    assert eps > 50 and repeats > 100


def test_moves_is_built_once_and_left_out_of_equality_hash_and_repr():
    arcs = [(0, "a", "x", 1), (0, None, "y", 1), (0, "a", "xy", 0)]
    t, u = (Transducer(("a",), FREE, 2, {0}, {1}, arcs) for _ in range(2))
    shown = repr(t)
    assert t == u and hash(t) == hash(u)  # neither index built
    moves = t.moves
    assert t.moves is moves
    assert moves == {(0, "a"): [(fw("x"), 1), (fw("xy"), 0)], (0, None): [(fw("y"), 1)]}
    assert t == u and u == t and hash(t) == hash(u)  # t's index built, u's not
    assert u.moves == moves and u.moves is not moves
    assert t == u and hash(t) == hash(u) and repr(t) == repr(u) == shown
    fresh = dataclasses.replace(t, transitions=arcs[1:])
    assert fresh.moves == {(0, None): [(fw("y"), 1)], (0, "a"): [(fw("xy"), 0)]}
    assert dataclasses.replace(t).moves is not moves


# --- trim --------------------------------------------------------------------


def test_trim_drops_useless_states():
    # 0 ->a 1 ->a 2(final), 3 unreachable, 4 reaches nothing final
    t = Transducer(
        ("a",), FREE, 5, {0}, {2},
        [(0, "a", "x", 1), (1, "a", "y", 2), (3, "a", "x", 2), (0, "a", "x", 4)],
    )
    trimmed, kept = trim(t)
    assert kept == [0, 1, 2]
    assert trimmed.n_states == 3
    assert trimmed.initial == frozenset({0})
    assert trimmed.final == frozenset({2})
    assert len(trimmed.transitions) == 2


def test_reachable_reads_arc_pairs_once():
    # a repeated pair, a self-loop, an arc back into the seeds; seed 9
    # names no arc; 4 and 5 lie only behind states no seed reaches
    arcs = iter([(0, 1), (0, 1), (1, 1), (1, 2), (2, 0), (3, 2), (4, 5)])
    assert reachable([0, 9], arcs) == {0, 1, 2, 9}
    assert reachable([4], [(0, 1), (4, 5), (5, 4)]) == {4, 5}
    assert reachable([], [(0, 1)]) == set()


def test_trim_keeps_parallel_arcs_and_drops_a_dead_cycle():
    # 0 ->a 1 and 0 ->b 1 side by side; 2 <-> 3 is a cycle reached from 0
    # that reaches no final state
    t = Transducer(
        ("a", "b"), FREE, 4, {0}, {1},
        [(0, "a", "x", 1), (0, "b", "y", 1), (0, "a", "", 2), (2, "b", "x", 3), (3, "a", "y", 2)],
    )
    trimmed, kept = trim(t)
    assert kept == [0, 1]
    assert trimmed.transitions == (
        Transition(0, "a", fw("x"), 1),
        Transition(0, "b", fw("y"), 1),
    )


def test_trim_without_finals_is_empty():
    t = Transducer(("a",), FREE, 2, {0}, set(), [(0, "a", "x", 1)])
    trimmed, kept = trim(t)
    assert trimmed.n_states == 0 and kept == []
    assert trimmed.transitions == ()


def test_trusted_builds_equal_checked_ones():
    # trim and the reader build without the constructor's checks
    rng = random.Random(2525)
    for monoid in TRANSDUCER_MONOIDS:
        for eps in (False, True):
            for _ in range(40):
                t = random_transducer(rng, allow_eps=eps, require_eps=eps, monoid=monoid)
                read = parse_transducer(format_transducer(t))
                for u in (trim(t)[0], read, trim(read)[0]):
                    fields = (u.alphabet, u.monoid, u.n_states, u.initial, u.final, u.transitions)
                    checked = Transducer(*fields)
                    assert u == checked and hash(u) == hash(checked) and repr(u) == repr(checked)
                    assert type(u.alphabet) is tuple and type(u.n_states) is int
                    assert type(u.initial) is frozenset and type(u.final) is frozenset
                    assert type(u.transitions) is tuple
                    assert all(type(tr) is Transition for tr in u.transitions)
                    assert u.moves == checked.moves and u.moves is u.moves
                    assert dataclasses.replace(u) == u


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


# --- explore and determinize -------------------------------------------------


def test_explore_numbers_starts_first_then_breadth_first(monkeypatch):
    succ = {"a": [(1, "c"), (2, "b")], "b": [(3, "d")], "c": [(4, "a")], "d": []}
    order, arcs = explore(["b", "a", "b"], succ.get, "walk")
    assert order == ["b", "a", "d", "c"]
    assert arcs == [(0, 3, 2), (1, 1, 3), (1, 2, 0), (3, 4, 1)]
    monkeypatch.setenv("BIMC_MAX_STATES", "4")
    assert explore(["b", "a"], succ.get, "walk") == (order, arcs)
    monkeypatch.setenv("BIMC_MAX_STATES", "3")
    with pytest.raises(StateLimitExceeded, match="walk exceeded BIMC_MAX_STATES=3"):
        explore(["b", "a"], succ.get, "walk")


def test_members_lists_set_bits_ascending():
    assert members(0) == ()
    assert members(0b101001) == (0, 3, 5)
    assert members(1 << 70 | 2) == (1, 70)


def test_determinize_is_partial_without_sink():
    t = Transducer(("a", "b"), FREE, 2, {0}, {1}, arcs_free([(0, "a", 1)]))
    left, right = determinize(t)
    assert left.n_states == 2
    assert left.subsets == (0b01, 0b10)
    assert left.delta == {(0, "a"): 1}
    assert run_dfa(left, "ab") is None
    assert right.subsets == (0b10, 0b01)
    assert right.delta == {(0, "a"): 1}


def test_determinize_preserves_language():
    rng = random.Random(777)
    for _ in range(60):
        t = random_transducer(rng, allow_eps=False)
        left, right = determinize(t)
        for d in (left, right):
            assert len(set(d.subsets)) == d.n_states
            assert d.n_states <= 2 ** t.n_states
        for w in all_words(t.alphabet, 4):
            assert dfa_accepts(left, t.final, w) == nfa_accepts(t, w)


def test_right_dfa_accepts_the_reversed_words():
    # the right automaton reads backward from the final states, so it
    # reaches an initial state on exactly the reversed words in the domain
    rng = random.Random(2718)
    for k in range(80):
        t = random_transducer(rng, allow_eps=True, require_eps=k % 2 == 0)
        left, right = determinize(remove_eps_edges(t))
        for w in all_words(t.alphabet, 4):
            want = nfa_accepts(t, w)
            assert dfa_accepts(left, t.final, w) == want
            assert dfa_accepts(right, t.initial, w[::-1]) == want


def test_determinize_state_cap(monkeypatch):
    monkeypatch.setenv("BIMC_MAX_STATES", "2")
    # classic 2^n blowup: last symbol before the end must be 'a'
    edges = [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "a", 2), (1, "b", 2)]
    t = Transducer(("a", "b"), FREE, 3, {0}, {2}, arcs_free(edges))
    with pytest.raises(StateLimitExceeded):
        determinize(t)


def test_determinize_empty_initial_set():
    t = Transducer(("a",), FREE, 2, set(), {1}, arcs_free([(0, "a", 1)]))
    left, right = determinize(t)
    assert left.n_states == 1 and left.subsets == (0,) and left.delta == {}
    assert right.subsets == (0b10, 0b01)


# --- output cells ------------------------------------------------------------


def test_output_cells_are_the_compiled_output_maps():
    def naive_count(b):
        # the cell (l, a, r) is defined when L(l) meets R(delta_R(r, a))
        left, right = b.left, b.right
        return sum(
            1
            for li, L in enumerate(left.subsets)
            for a in b.alphabet
            for ri in range(right.n_states)
            if (ri, a) in right.delta and L & right.subsets[right.delta[(ri, a)]]
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
            assert cell_count(b.left, b.right) == naive_count(b) == len(b.psi)
            compiled[k % 4] += 1
    assert min(compiled.values()) > 10
    for _ in range(60):
        b = classical_compile(random_pseudo_det(rng))
        assert sum(1 for _ in output_cells(b.left, b.right)) == len(b.psi)
        assert cell_count(b.left, b.right) == naive_count(b) == len(b.psi)


def test_output_cells_keep_the_state_budget(monkeypatch):
    # classical T_3's rows hold 426 cells among 429 right moves; the count
    # is exact, and no row that would pass the cap is yielded
    left, right = determinize(unambiguous_expand(make_tn(3)).transducer)
    rows = list(output_rows(left, right))
    widest = max(len(moves) for *_, moves in rows)
    assert sum(len(moves) for *_, moves in rows) == 429
    assert sum(1 for _ in output_cells(left, right)) == cell_count(left, right) == 426
    monkeypatch.setenv("BIMC_MAX_STATES", "426")
    assert len(classical_compile(make_tn(3)).psi) == 426
    for cap in (425, 200, 0):
        monkeypatch.setenv("BIMC_MAX_STATES", str(cap))
        seen = []
        with pytest.raises(StateLimitExceeded, match=f"^output table exceeded BIMC_MAX_STATES={cap}$"):
            seen.extend(output_cells(left, right))
        assert len(seen) <= cap < len(seen) + widest
        with pytest.raises(StateLimitExceeded, match=f"^output table exceeded BIMC_MAX_STATES={cap}$"):
            cell_count(left, right)
    monkeypatch.setenv("BIMC_MAX_STATES", "many")
    with pytest.raises(ValueError, match="BIMC_MAX_STATES must be a state count, not 'many'"):
        next(output_rows(left, right))


def naive_output_map(monoid, alphabet, left, right, entry):
    """The output map with entry called on every cell, in its flat table.
    The cells (li, a, ri) come straight from the two DFAs' moves and
    masks, in the walk's order (li, then the symbols in right.delta's
    order, then ri in it), so that codes are numbered alike."""
    bound = left.n_states * len(right.delta)
    psi = OutputTable(monoid, alphabet, left.n_states, right.n_states, bound)
    k, nr, masks_l, masks_r = len(psi.ids), right.n_states, left.subsets, right.subsets
    moves = {}
    for (ri, a), ri2 in right.delta.items():
        moves.setdefault(a, []).append((ri, ri2))
    for li in range(left.n_states):
        for a, row in moves.items():
            for ri, ri2 in row:
                s = masks_l[li] & masks_r[ri2]
                if s:  # a state in s has an a-step, so li has one
                    s2 = masks_l[left.delta[li, a]] & masks_r[ri]
                    psi.table[(li * k + psi.ids[a]) * nr + ri] = psi.store(entry((li, a, ri), s, s2))
    return psi


def copies(letters, loops):
    """The mge machine that copies the words over letters whose first and
    last letters match, with loops, or else the words of one letter twice."""
    n, rows = len(letters), []
    for i, x in enumerate(letters, start=1):
        rows += [(0, x, x, i), (i, x, x, n + 1)] + [(0, x, x, n + 1)] * loops
        rows += [(i, y, y, i) for y in letters] * loops
    return compile(Transducer(letters, FreeWords(letters), n + 2, {0}, {n + 1}, rows))


def test_output_map_solves_each_triple_once(monkeypatch):
    def check(b, module, rebuild):
        calls = Counter()

        def entry(cell, s, s2):
            calls[s, cell[1], s2] += 1
            return (s, cell[1], s2)  # a stand-in payload, one per triple

        triples = {(s, a, s2) for _, a, _, s, s2 in output_cells(b.left, b.right)}
        psi = output_map(b.monoid, b.alphabet, b.left, b.right, entry)
        assert set(calls) == triples and set(calls.values()) <= {1}
        naive = naive_output_map(b.monoid, b.alphabet, b.left, b.right,
                                 lambda cell, s, s2: (s, cell[1], s2))
        assert psi == naive and psi.table == naive.table
        # the compiler's own entries give the same map when every cell is solved
        with monkeypatch.context() as patched:
            patched.setattr(module, "output_map", naive_output_map)
            assert rebuild().psi == b.psi and rebuild().tables[3] == b.tables[3]
        return len(triples)

    rng = random.Random(6161)
    kinds = (FREE, NonNegRationals(), Integers(), PairOf(FREE, Integers()))
    shared = Counter()
    for k in range(160):
        t = random_transducer(rng, allow_eps=k % 8 < 4, monoid=kinds[k % 4])
        verdict = functionality(t)
        if verdict.functional:
            b = compile(t, verdict=verdict)
            shared[k % 4] += len(b.psi) - check(b, compiler, lambda: compile(t, verdict=verdict))
    for _ in range(40):
        t = random_pseudo_det(rng)
        b = classical_compile(t)
        shared["classical"] += len(b.psi) - check(b, classical, lambda: classical_compile(t))
    assert len(shared) == 5 and min(shared.values()) > 0, shared  # some cells share a triple
    for n in range(1, 8):
        t = make_tn(n)
        check(compile(t), compiler, lambda: compile(t))
        if n <= 5:
            check(classical_compile(t), classical, lambda: classical_compile(t))
    twice = copies("abcdefghijklmnopqrst", False)  # a sparse table
    assert check(twice, compiler, lambda: copies("abcdefghijklmnopqrst", False)) == 40


def test_output_table_is_sized_by_the_right_moves():
    # n_L·|right.delta| bounds the cells, so the table is a list only where
    # that bound, times 8 plus 64, covers n_L·k·n_R slots
    ends = copies("abcdefghij", True)  # 450 cells in 4,410 slots, 210 right moves
    assert (len(ends.psi), ends.left.n_states * len(ends.right.delta)) == (450, 4410)
    assert type(ends.psi.table) is list and len(ends.psi.table) == 4410
    twice = copies("abcdefghijklmnopqrst", False)  # 40 cells, 40 right moves, 9,680 slots
    assert (len(twice.psi), len(twice.right.delta), twice.left.n_states) == (40, 40, 22)
    assert type(twice.psi.table) is not list and len(twice.psi.table) == 40
    assert dataclasses.replace(twice, psi=dict(twice.psi)) == twice


def test_output_map_propagates_entry_errors():
    t = Transducer(("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1), (1, "a", "y", 1)])
    left, right = determinize(t)
    first = next(output_cells(left, right))
    seen = []

    def entry(cell, s, s2):
        seen.append(cell)
        raise ArithmeticError(f"no entry at {cell}")

    with pytest.raises(ArithmeticError, match="no entry at"):
        output_map(FREE, t.alphabet, left, right, entry)
    assert seen == [first[:3]]


# --- enumerate_outputs -------------------------------------------------------


def test_enumerate_outputs_collects_all_paths():
    t = Transducer(
        ("a",), FREE, 2, {0}, {1}, [(0, "a", "x", 1), (0, "a", "y", 1)]
    )
    assert enumerate_outputs(t, ("a",)) == {fw("x"), fw("y")}
    assert enumerate_outputs(t, ()) == set()


def test_enumerate_outputs_empty_word_needs_initial_final_overlap():
    t = Transducer(("a",), FREE, 1, {0}, {0}, [])
    assert enumerate_outputs(t, ()) == {fw("")}


def test_enumerate_outputs_unit_eps_loop_terminates():
    t = Transducer(
        ("a",), FREE, 2, {0}, {1},
        [(0, None, "", 0), (0, "a", "x", 1)],
    )
    assert enumerate_outputs(t, ("a",)) == {fw("x")}


def test_enumerate_outputs_value_growing_loop_is_bounded():
    t = Transducer(
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
