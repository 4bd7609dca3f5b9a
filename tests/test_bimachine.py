import dataclasses
import gc
import random
import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from bimc.benchmark import make_tn
from bimc.bimachine import AlphabetError, Bimachine, evaluate
from bimc.classical import classical_compile, unambiguous_expand
from bimc.cli import bimachine_from_text, bimachine_to_text, parse_transducer
from bimc.compiler import compile as build
from bimc.fsa import Dfa, Transducer, members, output_cells
from bimc.functionality import test_functionality as functionality
from bimc.monoid import FreeWords, Integers, MonoidValue, NonNegRationals, PairOf, format_descriptor
from helpers import (
    TRANSDUCER_MONOIDS, all_words, evaluate_reference, random_bimachine, random_transducer, run_dfa,
)

FREE = FreeWords(("x", "y"))


def fw(s):
    return MonoidValue(FREE, s)


def fixture():
    """Two states on each side, outputs chosen so every lookup is
    distinguishable by hand."""
    left = Dfa(2, 0, {(0, "a"): 1, (0, "b"): 0, (1, "a"): 1, (1, "b"): 0})
    right = Dfa(2, 0, {(0, "a"): 1, (0, "b"): 1, (1, "a"): 0, (1, "b"): 1})
    psi = {(0, "a", 1): fw("x"), (1, "b", 0): fw("yy"), (0, "a", 0): fw("y")}
    return Bimachine(FREE, ("a", "b"), left, right, psi)


def test_evaluate_two_letter_word():
    # suffix states for "ab": after "b" the right machine sits at 1, so
    # position 0 reads psi(0,a,1) and position 1 reads psi(1,b,0)
    assert evaluate(fixture(), ("a", "b")) == fw("xyy")


def test_evaluate_single_letter_uses_right_start():
    assert evaluate(fixture(), ("a",)) == fw("y")


def test_missing_output_entry_is_undefined():
    b = fixture()
    assert evaluate(b, ("b",)) is None
    assert evaluate(b, ("a", "a")) is None


def test_missing_right_step_is_undefined():
    left = Dfa(1, 0, {(0, "a"): 0})
    right = Dfa(1, 0, {})
    b = Bimachine(FREE, ("a",), left, right, {(0, "a", 0): fw("x")})
    assert evaluate(b, ("a",)) is None


def test_left_advance_skipped_after_last_symbol():
    # the left machine has no moves at all, yet length-1 words still
    # evaluate; length-2 words need the advance and come out undefined
    left = Dfa(1, 0, {})
    right = Dfa(1, 0, {(0, "a"): 0})
    b = Bimachine(FREE, ("a",), left, right, {(0, "a", 0): fw("x")})
    assert evaluate(b, ("a",)) == fw("x")
    assert evaluate(b, ("a", "a")) is None


def test_empty_word_returns_stored_output():
    left = Dfa(1, 0, {})
    right = Dfa(1, 0, {})
    b = Bimachine(FREE, ("a",), left, right, {}, eps_output=fw("xy"))
    assert evaluate(b, ()) == fw("xy")
    b2 = Bimachine(FREE, ("a",), left, right, {})
    assert evaluate(b2, ()) is None


def test_symbol_outside_alphabet():
    b = fixture()
    with pytest.raises(AlphabetError):
        evaluate(b, ("a", "z"))
    # two unknown symbols: the first in word order is named
    for check in (evaluate, evaluate_reference):
        with pytest.raises(AlphabetError, match=r"^symbol 'q' is not in the input alphabet$"):
            check(b, ("a", "q", "b", "z"))


def test_tables_agree_with_the_dict_walk():
    rng = random.Random(2024)
    seen, with_z = Counter(), 0
    for monoid in TRANSDUCER_MONOIDS:
        for _ in range(150):
            b = random_bimachine(rng, monoid=monoid)
            with_z += "z" in b.alphabet  # declared, in no row
            for w in all_words(b.alphabet, 4):
                got = evaluate(b, w)
                assert got == evaluate_reference(b, w), (b, w)
                if got is not None:
                    seen["defined"] += 1
                elif run_dfa(b.right, w[::-1]) is None:
                    seen["no right run"] += 1
                else:  # a missing output cell or left move
                    seen["no cell or left move"] += 1
    assert sum(seen.values()) > 45000 and min(seen.values()) > 4000 and with_z > 100, (seen, with_z)
    machines = [build(make_tn(n), verify=False) for n in range(1, 7)]
    machines += [classical_compile(make_tn(n)) for n in range(1, 6)]
    for b in machines:
        b2 = bimachine_from_text(bimachine_to_text(b))
        for w in all_words(b.alphabet, 4):
            want = evaluate_reference(b, w)
            assert evaluate(b, w) == want and evaluate(b2, w) == want, w


def test_tables_are_built_once_and_left_out_of_equality_and_repr():
    # the constructor builds the tables in the pass that checks the moves,
    # for a machine built from a dict, a compiled one and a read one alike
    compiled = build(make_tn(2))
    for made in (fixture(), compiled, bimachine_from_text(bimachine_to_text(compiled))):
        assert "tables" in vars(made)
        assert [len(t) for t in made.tables[1:3]] == [made.left.n_states * len(made.alphabet),
                                                      made.right.n_states * len(made.alphabet)]
    b, fresh = fixture(), fixture()
    shown = repr(b)
    assert b == fresh  # both built, by separate constructor calls
    tables = b.tables
    assert fresh.tables == tables and fresh.tables is not tables
    ids, left, right, psi, _ = tables
    assert ids == {"a": 0, "b": 1}
    assert left == [1, 0, 1, 0] and right == [1, 1, 0, 1]
    assert psi == ["y", "x", None, None, None, None, "yy", None]
    assert evaluate(b, ("a", "b")) == fw("xyy") and b.tables is tables
    assert b == fresh and fresh == b  # b evaluated, fresh not
    assert repr(b) == repr(fresh) == shown
    copy = dataclasses.replace(b, psi={(0, "a", 1): fw("x")})
    assert copy.tables[3] == [None, "x", None, None, None, None, None, None]
    assert dataclasses.replace(b).tables is not tables


FAR = 10**18  # dense tables for these states would overflow at once, allocating nothing


def far_apart(b):
    """b with every state number moved up by FAR: the same machine, with
    state counts whose dense tables no memory could hold."""

    def moved(dfa):
        delta = {(q + FAR, a): p + FAR for (q, a), p in dfa.delta.items()}
        return Dfa(dfa.n_states + FAR, dfa.start + FAR, delta)

    psi = {(l + FAR, a, r + FAR): v for (l, a, r), v in b.psi.items()}
    return Bimachine(b.monoid, b.alphabet, moved(b.left), moved(b.right), psi, b.eps_output)


def test_tables_follow_the_entries_when_states_are_far_apart():
    rng = random.Random(7)
    machines = [random_bimachine(rng, monoid=m) for m in TRANSDUCER_MONOIDS for _ in range(20)]
    machines += [build(make_tn(n), verify=False) for n in range(1, 4)]
    for b in machines:
        assert all(type(t) is list for t in b.tables[1:4])  # compiled or small: dense
        far = far_apart(b)
        _, left, right, psi, _ = far.tables
        assert (len(left), len(right), len(psi)) == (len(b.left.delta), len(b.right.delta), len(b.psi))
        for w in all_words(b.alphabet, 4):
            assert evaluate(far, w) == evaluate_reference(b, w), (b, w)


def test_commutative_tables_hold_one_code_per_payload(perfbench_gen):
    lookahead = perfbench_gen.lookahead_spec()
    b = build(parse_transducer(lookahead.text()))
    assert format_descriptor(b.monoid) == "product(nnrat,intgrp)" and b.monoid.commutative
    ids, _, _, psi, _ = b.tables
    k, nr = len(ids), b.right.n_states
    codes = defaultdict(set)  # payload -> the codes of its cells
    for (l, a, r), v in b.psi.items():
        codes[v.payload].add(psi[(l * k + ids[a]) * nr + r])
    assert len(codes) == 9
    assert sorted(c for (c,) in codes.values()) == list(range(9))  # one code per payload
    assert {c for c in psi if c is not None} == set(range(9))
    # far apart, the codes sit in a sparse table and evaluate the same
    far = far_apart(b)
    assert type(far.tables[3]) is not list
    rng = random.Random(11)
    for n in (1, 2, 3, 50):
        word = tuple(rng.choice(b.alphabet) for _ in range(n))
        assert evaluate(far, word) == evaluate(b, word) == evaluate_reference(b, word)
    # free words, alone or in a product, keep their payloads, and so do bare
    # integers, which fold_payloads sums faster than counting
    tn = build(make_tn(3), verify=False)
    assert {p for p in tn.tables[3] if p is not None} == {v.payload for v in tn.psi.values()}
    rng = random.Random(5)
    for monoid in (TRANSDUCER_MONOIDS[3], Integers()):
        for _ in range(20):
            other = random_bimachine(rng, monoid=monoid)
            assert {p for p in other.tables[3] if p is not None} == {v.payload for v in other.psi.values()}
            assert other.tables[4] == monoid.fold_payloads


def test_compiled_psi_reads_as_the_dict_it_replaces():
    # a compile once kept psi as a dict with one entry per output cell, in
    # walk order; read off the expansion for classical machines, that dict
    # and the flat table are the same map, and each builds the same machine
    for n in range(1, 6):
        t = make_tn(n)
        tt = unambiguous_expand(t).transducer
        b = classical_compile(t)
        old = {}
        for li, a, ri, s, s2 in output_cells(b.left, b.right):
            (p,) = members(s)
            (old[li, a, ri],) = [out for out, dst in tt.moves[p, a] if s2 >> dst & 1]
        assert b.psi == old and old == b.psi and dict(b.psi) == old
        assert len(b.psi) == len(old) and sorted(b.psi) == list(b.psi) == sorted(old)
        again = dataclasses.replace(b, psi=old)
        assert again == b and again.tables[3] == b.tables[3]
        assert dataclasses.replace(b, psi=dict(b.psi)) == b
        assert b.psi != {**old, next(iter(old)): MonoidValue(t.monoid, "1" * 99)}
    rng = random.Random(12)
    transducers = [random_transducer(rng, monoid=m) for m in TRANSDUCER_MONOIDS * 20]
    machines = [build(t) for t in transducers if functionality(t).functional]
    assert len(machines) > 20
    for b in [build(make_tn(n), verify=False) for n in range(1, 8)] + machines:
        cells = sum(1 for _ in output_cells(b.left, b.right))
        assert len(b.psi) == cells == len(dict(b.psi)) == len(b.psi.items())
        assert dataclasses.replace(b, psi=dict(b.psi)) == b


def test_psi_is_a_read_only_mapping():
    b = fixture()
    assert b.psi[0, "a", 1] == fw("x") and b.psi.get((1, "b", 0)) == fw("yy")
    assert dict(b.psi) == {(0, "a", 0): fw("y"), (0, "a", 1): fw("x"), (1, "b", 0): fw("yy")}
    assert repr(b.psi) == repr(dict(b.psi))
    for cell in ((0, "b", 0), (0, "q", 0), (2, "a", 0), (0, "a", -1), (True, "a", 1),
                 (0.0, "a", 1), ([], "a", 0), (0, [], 0), "ab", None):
        assert cell not in b.psi and b.psi.get(cell) is None
        with pytest.raises(KeyError):
            b.psi[cell]
    with pytest.raises(TypeError):
        b.psi[0, "a", 1] = fw("y")
    # one value object per payload, whatever the dict held
    twice = {(0, "a", 0): fw("x"), (1, "a", 0): fw("x")}
    b = Bimachine(FREE, ("a",), Dfa(2, 0, {}), Dfa(1, 0, {}), twice)
    assert b.psi[0, "a", 0] is b.psi[1, "a", 0] and len(b.psi.distinct) == 1
    # a table is checked for its shape and monoid only
    for changed, needle in (({"right": Dfa(3, 0, {})}, "made for another machine"),
                            ({"left": Dfa(1, 0, {})}, "made for another machine"),
                            ({"alphabet": ("a", "c")}, "made for another machine"),
                            ({"monoid": FreeWords("xyz")}, "made for another machine")):
        with pytest.raises(ValueError, match=needle):
            dataclasses.replace(b, **changed)
    assert dataclasses.replace(b).psi is b.psi


def retained_bytes(build):
    """The bytes that the object build() returns holds on to, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_compiled_machines_retain_their_flat_tables_not_dicts():
    # with a dict of (l, a, r) keys for psi, classical T_5 kept 5.8 MiB and
    # mge T_11 9.3 MiB; they keep 0.58 and 3.33 MiB, of which the flat psi
    # tables are 0.4 and 0.5 MiB and, at T_11, the right DFA's delta 2.5 MiB;
    # the DFAs' flat move lists, built by the constructor, add 0.01 and 0.17
    classical_compile(make_tn(2))  # the first compile allocates for good: caches, interned names
    for build_it, cells, slots, bound in (
        (lambda: classical_compile(make_tn(5)), 51055, 51060, 0.8),
        (lambda: build(make_tn(11), verify=False), 67936, 67947, 4.0),
    ):
        b, size = retained_bytes(build_it)
        assert (len(b.psi), len(b.psi.table)) == (cells, slots)
        assert size < bound * 2**20, f"{size / 2**20:.2f} MiB"


def test_constructor_rejects_bad_entries():
    left = Dfa(1, 0, {})
    right = Dfa(1, 0, {})
    with pytest.raises(ValueError):
        Bimachine(FREE, ("a",), left, right, {(5, "a", 0): fw("x")})
    with pytest.raises(ValueError):
        Bimachine(FREE, ("a",), left, right, {(0, "q", 0): fw("x")})
    other = MonoidValue(FreeWords(("z",)), "z")
    with pytest.raises(ValueError):
        Bimachine(FREE, ("a",), left, right, {(0, "a", 0): other})
    with pytest.raises(ValueError):
        Bimachine(FREE, ("a",), left, right, {}, eps_output=other)
    with pytest.raises(ValueError):
        Bimachine(FREE, ("a",), left, right, {}, eps_output="x")
    for alphabet, needle in (
        (("a b",), "bad input symbol"),
        (("",), "bad input symbol"),
        (("a", "a"), "duplicate input symbol 'a'"),
        (("-",), "reserved"),
    ):
        with pytest.raises(ValueError, match=needle):
            Bimachine(FREE, alphabet, left, right, {})
    # the automata: starts and move endpoints among their states, move
    # symbols in the alphabet
    with pytest.raises(ValueError, match="references a missing state"):
        Bimachine(FREE, ("a",), Dfa(1, 0, {(0, "a"): 7, (0, "q"): 0}), Dfa(1, 3, {}), {})
    for sides, needle in (
        ((Dfa(1, 1, {}), right), "left start 1 is not among its 1 states"),
        ((left, Dfa(1, 3, {})), "right start 3 is not among its 1 states"),
        ((left, Dfa(2, -1, {})), "right start -1"),
        ((Dfa(1, 0, {(2, "a"): 0}), right), r"left move \(2, 'a'\) -> 0 references a missing"),
        ((left, Dfa(1, 0, {(0, "a"): 7})), r"right move \(0, 'a'\) -> 7 references a missing"),
        ((Dfa(1, 0, {(0, "q"): 0}), right), "left move uses undeclared symbol 'q'"),
    ):
        with pytest.raises(ValueError, match=needle):
            Bimachine(FREE, ("a",), *sides, {})


def test_constructor_wants_int_states():
    # a count or a state the text format cannot write is refused, so what
    # bimachine_to_text writes bimachine_from_text reads back
    left = right = Dfa(1, 0, {})
    for sides, needle in (
        ((Dfa(1.5, 0, {}), right), "left state count 1.5 is not a non-negative int"),
        ((left, Dfa(True, 0, {})), "right state count True is not a non-negative int"),
        ((left, Dfa(-1, 0, {})), "right state count -1 is not a non-negative int"),
        ((Dfa(1, False, {}), right), "left start False is not among its 1 states"),
        ((Dfa(2, 0, {(0, "a"): True}), right), r"left move \(0, 'a'\) -> True references a missing"),
        ((left, Dfa(2, 0, {(0.0, "a"): 1})), r"right move \(0.0, 'a'\) -> 1 references a missing"),
    ):
        with pytest.raises(ValueError, match=needle):
            Bimachine(FREE, ("a",), *sides, {})
    for cell in ((0.5, "a", 0), (0, "a", True)):
        with pytest.raises(ValueError, match="references a missing state"):
            Bimachine(FREE, ("a",), left, right, {cell: fw("x")})


def psi_star(b, l, syms, r):
    """The positional product written as a recursion on the last symbol:
    value(l, t·s, r) = value(l, t, step_R(r, s)) * psi(reach_L(l, t), s, r)."""
    if not syms:
        return b.monoid.unit
    head_word, sym = syms[:-1], syms[-1]
    prev_r = b.right.delta.get((r, sym))
    if prev_r is None:
        return None
    head = psi_star(b, l, head_word, prev_r)
    if head is None:
        return None
    q = l
    for s in head_word:
        q = b.left.delta.get((q, s))
        if q is None:
            return None
    v = b.psi.get((q, sym, r))
    if v is None:
        return None
    return head * v


def test_two_pass_matches_recursive_definition():
    rng = random.Random(7)
    for _ in range(80):
        b = random_bimachine(rng)
        for w in all_words(b.alphabet, 4):
            if not w:
                # the empty word is served by the stored output, not the recursion
                continue
            assert evaluate(b, w) == psi_star(b, b.left.start, w, b.right.start)


def test_evaluate_is_linear_in_the_word_length():
    # T_9 outputs 1^(9k) on every word of length k >= 2; a running
    # product that copies or re-validates the output so far at every
    # letter needs minutes for this word
    t = make_tn(9)
    b = build(t, verify=False)
    rng = random.Random(3)
    word = tuple(rng.choice(t.alphabet) for _ in range(10**5))
    start = time.perf_counter()
    out = evaluate(b, word)
    elapsed = time.perf_counter() - start
    assert out == MonoidValue(t.monoid, "1" * (9 * len(word)))
    assert elapsed < 5.0, f"10^5 symbols took {elapsed:.1f} s"
    # numeric payloads: every letter's integer output depends on the
    # word's last letter, which the transducer guesses on the first
    rational = {"a": Fraction(1, 2), "b": Fraction(2, 3), "c": Fraction(5, 6)}
    shift = {"a": -1, "b": 0, "c": 2}

    def out(guess, x):
        return (rational[x], shift[x] * (1 + "abc".index(guess)))

    arcs = []
    for g, guess in enumerate("abc", start=1):
        for x in "abc":
            arcs += [(0, x, out(guess, x), g), (g, x, out(guess, x), g)]
        arcs += [(0, guess, out(guess, guess), 4), (g, guess, out(guess, guess), 4)]
    numeric = PairOf(NonNegRationals(), Integers())
    t = Transducer(("a", "b", "c"), numeric, 5, {0}, {4}, arcs)
    b = build(t)
    word = tuple(rng.choice("abc") for _ in range(10**5))
    start = time.perf_counter()
    got = evaluate(b, word)
    elapsed = time.perf_counter() - start
    want = [out(word[-1], x) for x in word]
    assert got == MonoidValue(numeric, (sum(r for r, _ in want), sum(i for _, i in want)))
    assert elapsed < 5.0, f"10^5 numeric symbols took {elapsed:.1f} s"
