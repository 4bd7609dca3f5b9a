import random
import time

import pytest

from bimc.benchmark import make_tn
from bimc.bimachine import AlphabetError, Bimachine, evaluate
from bimc.compiler import compile as build
from bimc.fsa import Dfa
from bimc.monoid import FreeWords, MonoidValue
from helpers import all_words, random_bimachine

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
