import importlib
import itertools
import os
import random
import re
import string
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from bimc import cli
from bimc.benchmark import make_tn
from bimc.bimachine import Bimachine, evaluate
from bimc.classical import classical_compile
from bimc.cli import (
    AmbiguousInputError,
    FormatError,
    _prefix_code_pattern,
    bimachine_from_text,
    bimachine_to_text,
    cli_main,
    format_transducer,
    parse_transducer,
    tokenize,
)
from bimc.compiler import compile as build
from bimc.fsa import Dfa, Transducer, Transition, trim
from bimc.functionality import test_functionality as functionality
from bimc.squared import coaccessible
from bimc.monoid import (
    FreeWords, Integers, MonoidValue, NonNegRationals, PairOf, format_value, parse_descriptor,
    parse_value,
)
from helpers import (
    TRANSDUCER_MONOIDS, all_words, eps_diamond_chain, functional_draws, random_bimachine,
    random_pseudo_det, random_transducer, squared_reference,
)

FREE = FreeWords(("x", "y"))

MINIMAL = """\
# one arc from 0 to 1
monoid free:xy
alphabet a
states 2
initial 0
final 1
t 0 a "x" 1
"""


def test_parse_minimal_file():
    t = parse_transducer(MINIMAL)
    assert t.n_states == 2
    assert t.alphabet == ("a",)
    assert t.initial == {0} and t.final == {1}
    tr = t.transitions[0]
    assert (tr.src, tr.inp, tr.out.payload, tr.dst) == (0, "a", "x", 1)


def test_parse_eps_self_loop():
    t = parse_transducer('monoid free:x\nalphabet a\nstates 1\ninitial 0\nfinal 0\nt 0 - "" 0\n')
    tr = t.transitions[0]
    assert tr.inp is None
    assert tr.out == FreeWords(("x",)).unit


QUOTED_SEPARATORS = ('("a,b",1)', '("a)",1)', '("(",1)')


def test_parse_errors_carry_line_numbers():
    cases = [
        ("monoid nnrat\nalphabet a\nstates 2\nt 0 a 3/0 1\n", "line 4"),
        ("monoid free:x\nalphabet a\nstates 2\nt 0 b \"x\" 1\n", "undeclared symbol"),
        ("monoid free:x\nalphabet a\nstates 2\nt 0 a \"x\" 5\n", "line 4"),
        ("monoid free:x\nalphabet a\nstates 2\ninitial 9\n", "initial state 9"),
        ("monoid free:x\nalphabet a\nstates 2\nfrobnicate\n", "unknown directive"),
        ("monoid free:x\nalphabet a\nstates two\n", "states needs one count"),
        ("monoid free:x\nalphabet a\nstates \u00b2\n", "line 3: states needs one count"),
        ("monoid free:x\nalphabet a -\nstates 1\n", "reserved"),
        ("monoid what\nalphabet a\nstates 1\n", "descriptor"),
        ("monoid free:x\nalphabet a\nstates 2\n\nt 0 a \"xz\" 1\n", "line 5: symbols outside"),
        ("alphabet a\nstates 1\n", "missing monoid"),
        ("monoid free:x\nstates 1\n", "missing alphabet"),
        ("monoid free:x\nalphabet a a\nstates 1\n", "line 2: duplicate input symbol 'a'"),
        (
            "monoid free:x\nalphabet a\nstates 2\ninitial 0\nstates 1\n",
            "line 5: states already declared on line 3",
        ),
    ]
    # a separator quoted inside a free word is rejected, by the split or the word
    cases += [
        (f"monoid product(free:ab,intgrp)\nalphabet a\nstates 2\nt 0 a {lit} 1\n", "line 4: ")
        for lit in QUOTED_SEPARATORS
    ]
    for text, needle in cases:
        with pytest.raises(FormatError) as info:
            parse_transducer(text)
        assert needle in str(info.value)


def test_each_free_word_literal_is_checked_once(monkeypatch):
    text = (
        "monoid free:ab\nalphabet a b\nstates 2\ninitial 0\nfinal 1\n"
        't 0 a "ab" 1\nt 0 b "" 1\nt 1 a "b" 1\n'
    )
    machine_text = bimachine_to_text(build(parse_transducer(text)))
    checked = []
    real = FreeWords.check_payload

    def counting(self, a):
        checked.append(a)
        return real(self, a)

    monkeypatch.setattr(FreeWords, "check_payload", counting)
    pair = PairOf(FreeWords(("a", "b")), NonNegRationals())
    assert parse_value(pair, '("ab",3)').payload == ("ab", 3)
    assert checked == ["ab"]
    checked.clear()
    parse_transducer(text)
    assert checked == ["ab", "", "b"]
    checked.clear()
    # the values row lists each distinct literal once, sorted by payload
    assert machine_text.splitlines()[2] == 'values "" "ab" "b"'
    b = bimachine_from_text(machine_text)
    assert len(b.psi) == 6
    assert checked == ["", "ab", "b"]  # each distinct literal once, from the values row


def test_parse_transducer_shares_one_value_per_distinct_literal():
    t = parse_transducer(format_transducer(make_tn(9)))
    assert len(t.transitions) == 207
    assert len({id(tr.out) for tr in t.transitions}) == 19
    # a bad literal that repeats is reported at its first row
    text = MINIMAL + 't 1 a "z" 1\nt 0 a "z" 1\n'
    with pytest.raises(FormatError, match="^line 8: "):
        parse_transducer(text)


def test_duplicate_transition_collapses_with_warning():
    text = MINIMAL + 't 0 a "x" 1\n'
    with pytest.warns(UserWarning):
        t = parse_transducer(text)
    assert len(t.transitions) == 1


def test_transducer_round_trip():
    pair = PairOf(FREE, NonNegRationals())
    t = Transducer(
        ("a", "b"), pair, 3, {0}, {2},
        [(0, "a", ("x", 2), 1), (1, None, ("", "1/2"), 2), (2, "b", ("yy", 0), 0)],
    )
    again = parse_transducer(format_transducer(t))
    assert again == t
    # a left-nested product puts a parenthesized component before the top-level comma,
    # a right-nested one after it
    numbers = PairOf(NonNegRationals(), Integers())
    for descriptor, literal, monoid, payload in (
        ("product(product(nnrat,intgrp),free:x)", '((1/2,-3),"x")',
         PairOf(numbers, FreeWords(("x",))), ((Fraction(1, 2), -3), "x")),
        ("product(free:ab,product(nnrat,intgrp))", '("ab",(1/2,-3))',
         PairOf(FreeWords(("a", "b")), numbers), ("ab", (Fraction(1, 2), -3))),
    ):
        t = parse_transducer(
            f"monoid {descriptor}\nalphabet a\nstates 1\ninitial 0\nfinal 0\nt 0 a {literal} 0\n"
        )
        assert t.monoid == monoid
        assert t.transitions[0].out.payload == payload
        assert parse_transducer(format_transducer(t)) == t
    text = format_transducer(make_tn(2))
    assert parse_transducer(text) == make_tn(2)
    rng = random.Random(84)
    for monoid in (None, NonNegRationals(), Integers(), PairOf(FREE, numbers)):
        for with_eps in (False, True):
            for _ in range(25):
                t = random_transducer(rng, allow_eps=with_eps, require_eps=with_eps, monoid=monoid)
                assert parse_transducer(format_transducer(t)) == t


def test_transducer_built_from_lists_hashes_and_round_trips():
    # the constructor stores the alphabet as a tuple, like the state sets
    # and the transitions, whatever iterables it is given
    t = Transducer(["a"], FREE, 1, {0}, {0}, [Transition(0, "a", MonoidValue(FREE, "x"), 0)])
    assert t.alphabet == ("a",)
    assert hash(t) == hash(parse_transducer(format_transducer(t)))
    assert parse_transducer(format_transducer(t)) == t
    assert Transducer(iter("a"), FREE, 1, [0], [0], [(0, "a", "x", 0)]) == t
    # FreeWords stores its alphabet as a tuple too: a string or a list
    # gives the descriptor the reader parses
    parsed = parse_descriptor("free:xy")
    for free in (FreeWords("xy"), FreeWords(["x", "y"]), parsed):
        assert free == parsed and hash(free) == hash(parsed)
        assert MonoidValue(free, "x") * parse_value(parsed, '"y"') == parse_value(parsed, '"xy"')
        t = Transducer(["a"], free, 1, {0}, {0}, [(0, "a", "x", 0)])
        again = parse_transducer(format_transducer(t))
        assert again == t and hash(again) == hash(t)


def _mutated_lines(rng, text, pool):
    """text after one to three random line edits: a line deleted,
    duplicated, swapped with another, cut short, or given a token from
    pool."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        kind = rng.randrange(5)
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, lines[i])
        elif kind == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 3:
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        else:
            tokens = lines[i].split() or [""]
            tokens[rng.randrange(len(tokens))] = rng.choice(pool)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


LINE_LESS = re.compile(
    "missing (monoid|alphabet|states) declaration|empty input, expected a BIM v2 header"
)


def _rejection_shape(err):
    """The kind of a FormatError: numbered when it names its line, as
    every rejection must unless no line is to blame, else line-less."""
    message = str(err)
    if re.match(r"line [1-9][0-9]*: ", message):
        return "numbered"
    assert LINE_LESS.fullmatch(message), message
    return "line-less"


def test_parsers_raise_only_format_errors(tmp_path, capsys):
    rng = random.Random(2024)
    pool = ['"x"', '"z"', '("x",1)', "(1,1)", "1/2", "1/0", "-3", "x", "-", "7", "99",
            "t", "alphabet", "values", "left", "right", "psi", "eps", "free:", "nnrat", "product(",
            ""]
    transducers = [make_tn(2)] + [
        random_transducer(rng, allow_eps=True, monoid=m)
        for m in (None, NonNegRationals(), Integers(), PairOf(FREE, Integers()))
    ]
    texts = [format_transducer(t) for t in transducers]
    machines = [bimachine_to_text(build(make_tn(2)))]
    machines += [bimachine_to_text(random_bimachine(rng)) for _ in range(4)]
    shapes = {"numbered": 0, "line-less": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # collapsed duplicate transitions
        for _ in range(2000):
            for read, sources in ((parse_transducer, texts), (bimachine_from_text, machines)):
                try:
                    read(_mutated_lines(rng, rng.choice(sources), pool))
                except FormatError as err:
                    shapes[_rejection_shape(err)] += 1
    assert min(shapes.values()) > 0, shapes
    # a number past int()'s 4,300-digit limit in each of the four places
    # the transducer format has one is refused on its line, as in bimc check
    big = "1" * 5000
    lines = format_transducer(make_tn(1)).splitlines()
    assert lines[2:6] == ["states 3", "initial 0", "final 2", 't 0 a1 "" 1']
    for lineno, row in ((3, f"states {big}"), (4, f"initial {big}"), (5, f"final {big}"),
                        (6, f't {big} a1 "" 1'), (6, f't 0 a1 "" {big}')):
        text = "\n".join(lines[:lineno - 1] + [row] + lines[lineno:]) + "\n"
        message = f"line {lineno}: a number of 5000 digits is too long"
        with pytest.raises(FormatError, match=f"^{message}$"):
            parse_transducer(text)
        (tmp_path / "big.fst").write_text(text, encoding="utf-8")
        assert cli_main(["check", str(tmp_path / "big.fst")]) == 65
        assert capsys.readouterr().err == f"format error: {message}\n"


def _mutated_chars(rng, text, pool):
    """text after one or two random character edits: a character
    deleted, replaced by one from pool, or one from pool inserted."""
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(text) + 1)
        kind = rng.randrange(3) if i < len(text) else 2
        tail = text[i + 1:] if kind < 2 else text[i:]
        text = text[:i] + ("" if kind == 0 else rng.choice(pool)) + tail
    return text


def test_readers_round_trip_or_reject_character_edits(perfbench_gen):
    # each edited text either reads to an object that reads back equal
    # after writing, or is rejected with its line number
    rng = random.Random(909)
    pool = string.digits + string.ascii_lowercase[:4] + "xy-/()\",: \n#"
    corpus = [spec.text() for spec in perfbench_gen.corpus(200)]
    transducers = map(parse_transducer, corpus[:100])
    machines = [build(t) for t in transducers if functionality(t).functional]
    readers = (
        (parse_transducer, format_transducer, corpus),
        (bimachine_from_text, bimachine_to_text, [bimachine_to_text(b) for b in machines]),
    )
    for read, write, texts in readers:
        outcomes = {"read": 0, "numbered": 0, "line-less": 0}
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "line [0-9]+: duplicate transition collapsed")
            for _ in range(3000):
                try:
                    got = read(_mutated_chars(rng, rng.choice(texts), pool))
                except FormatError as err:
                    outcomes[_rejection_shape(err)] += 1
                else:
                    assert read(write(got)) == got
                    outcomes["read"] += 1
        assert outcomes["read"] > 50 and outcomes["numbered"] > 2_000, outcomes


def test_bimachine_round_trip_is_canonical():
    b = build(Transducer(
        ("a", "b"), FREE, 4, {0}, {3},
        [(0, "a", "x", 1), (0, "a", "xx", 2), (1, "b", "xy", 3), (2, "b", "y", 3)],
    ))
    text = bimachine_to_text(b)
    b2 = bimachine_from_text(text)
    assert bimachine_to_text(b2) == text
    assert b2.psi == b.psi
    assert b2.left.delta == b.left.delta and b2.right.start == b.right.start
    for w in all_words(("a", "b"), 3):
        assert evaluate(b2, w) == evaluate(b, w)
    assert bimachine_from_text(bimachine_to_text(b2)) == b2


def test_random_bimachines_round_trip():
    rng = random.Random(99)
    for monoid in TRANSDUCER_MONOIDS:
        for _ in range(50):
            b = random_bimachine(rng, monoid=monoid)
            text = bimachine_to_text(b)
            b2 = bimachine_from_text(text)
            assert bimachine_to_text(b2) == text
            assert b2.psi == b.psi and b2.eps_output == b.eps_output
            for _ in range(10):
                w = tuple(rng.choice(b.alphabet) for _ in range(rng.randint(0, 3)))
                assert evaluate(b2, w) == evaluate(b, w)


def compiled_machines():
    """The mge and classical machines of T_1..T_6, then mge machines of
    40 functional draws per monoid, with and without ε moves, then
    classical machines of 40 pseudo-deterministic draws per monoid."""
    for n in range(1, 7):
        t = make_tn(n)
        yield build(t)
        yield classical_compile(t)
    rng = random.Random(1717)
    for monoid in TRANSDUCER_MONOIDS:
        for eps in (False, True):
            for t, verdict in functional_draws(rng, 40, monoid=monoid, eps=eps):
                yield build(t, verdict=verdict)
    for monoid in TRANSDUCER_MONOIDS:
        for _ in range(40):
            yield classical_compile(random_pseudo_det(rng, monoid=monoid))


def test_bimachine_round_trip_keeps_states_that_no_move_or_cell_names():
    # the text states each side's count, so left state 2, which no move
    # or output cell names, survives the round trip
    left = Dfa(3, 0, {(0, "a"): 1})
    b = Bimachine(FREE, ("a",), left, Dfa(1, 0, {}), {(0, "a", 0): MonoidValue(FREE, "x")})
    text = bimachine_to_text(b)
    assert text.splitlines()[3] == "left 3 0 1 - -"
    b2 = bimachine_from_text(text)
    assert b2.left.n_states == 3 and b2 == b


def test_compiled_bimachines_round_trip_to_an_equal_machine():
    checked = 0
    for b in compiled_machines():
        assert bimachine_from_text(bimachine_to_text(b)) == b
        checked += 1
    assert checked == 12 + 4 * 2 * 40 + 4 * 40


def test_compiled_machine_with_a_sparse_output_table_is_written(tmp_path, capsys, monkeypatch):
    # the words of one letter twice, copied, over 20 letters: the mge
    # machine has 22 states a side, 40 right moves and 40 output cells, so
    # its psi table is sparse, not 9,680 slots, and its text is written
    letters = tuple("abcdefghijklmnopqrst")
    rows = []
    for i, x in enumerate(letters, start=1):
        rows += [(0, x, x, i), (i, x, x, 21)]
    t = Transducer(letters, FreeWords(letters), 22, {0}, {21}, rows)
    b = build(t)
    assert (b.left.n_states, b.right.n_states, len(b.psi)) == (22, 22, 40)
    assert type(b.tables[3]) is not list and len(b.psi.table) == 40
    assert bimachine_from_text(bimachine_to_text(b)) == b
    fst, bim = tmp_path / "twice.fst", tmp_path / "twice.bim"
    fst.write_text(format_transducer(t), encoding="utf-8")
    assert cli_main(["compile", str(fst), "-o", str(bim)]) == 0
    assert bimachine_from_text(bim.read_text(encoding="utf-8")) == b
    assert cli_main(["run", str(bim), "--input", "tt"]) == 0
    assert cli_main(["run", str(bim), "--input", "cc"]) == 0
    assert cli_main(["run", str(bim), "--input", "ct"]) == 2
    assert capsys.readouterr().out == '"tt"\n"cc"\nUNDEFINED\n'
    # the text is made before the output file opens: a failure leaves none
    def refuse(b):
        raise ValueError("no text")
    monkeypatch.setattr(cli, "bimachine_to_text", refuse)
    assert cli_main(["compile", str(fst), "-o", str(tmp_path / "none.bim")]) == 65
    assert capsys.readouterr().err == "error: no text\n"
    assert not (tmp_path / "none.bim").exists()


def test_bimachine_text_keeps_the_alphabet(tmp_path, capsys):
    b = build(Transducer(("a", "b", "c"), FREE, 2, {0}, {1}, [(0, "a", "x", 1)]))
    text = bimachine_to_text(b)
    assert text.splitlines()[1] == "alphabet a b c"
    b2 = bimachine_from_text(text)
    assert b2.alphabet == ("a", "b", "c")
    assert evaluate(b, ("c",)) is None and evaluate(b2, ("c",)) is None
    assert format_value(evaluate(b2, ("a",))) == '"x"'
    # the same machine as a BIM v1 text, which is no longer read
    old = tmp_path / "old.bim"
    old.write_text(
        'BIM v1 free:xy\nalphabet a b c\nLEFT\nstart 0\nd 0 a 1\nRIGHT\nstart 0\n'
        'd 0 a 1\nPSI\no 0 a 0 "x"\n',
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="^line 1: expected a BIM v2 header$"):
        bimachine_from_text(old.read_text(encoding="utf-8"))
    assert cli_main(["run", str(old), "--input", "a"]) == 65
    assert capsys.readouterr().err == "format error: line 1: expected a BIM v2 header\n"


def test_run_on_a_text_naming_far_apart_states(tmp_path, capsys):
    # a state count must be matched by its tokens: a huge count over a
    # nonempty alphabet fails on length, before anything is allocated
    q = 10**18
    path = tmp_path / "far.bim"
    rows = ['values "x"', f"left {q} 0", "right 1 0 0", "psi 0", "eps -"]
    path.write_text("\n".join(["BIM v2 free:x", "alphabet a b c", *rows]) + "\n", encoding="utf-8")
    assert cli_main(["run", str(path), "--input", "a"]) == 65
    assert capsys.readouterr().err == (
        f"format error: line 4: token count 1 after left {q}, not {1 + 3 * q}\n"
    )
    # over an empty alphabet the same count has no tokens to match, and
    # reading it allocates nothing for its states either
    path.write_text(f"BIM v2 free:x\nalphabet\nvalues \"x\"\nleft {q} 0\nright {q} {q - 1}\n"
                    "psi\neps 0\n", encoding="utf-8")
    assert cli_main(["run", str(path), "--input", ""]) == 0
    assert capsys.readouterr().out == '"x"\n'


V2 = 'BIM v2 free:x\nalphabet a\nvalues "x"\nleft 1 0 0\nright 1 0 0\npsi 0\neps -\n'


def test_bimachine_text_with_an_unsorted_alphabet_reads_as_the_sorted_one():
    # rows follow the alphabet row's symbol order; the machine stores them sorted
    rows = {  # (sorted, as "b a"): two states a side, moves and cells on both symbols
        "left": ("left 2 0 1 0 1 1", "left 2 0 0 1 1 1"),
        "right": ("right 2 0 1 0 - 1", "right 2 0 0 1 1 -"),
        "psi": ("psi 0 - 1 0 - 1 0 -", "psi 1 0 0 - 0 - - 1"),
    }
    for monoid, values in (("free:xy", '"x" "y"'), ("nnrat", "1/2 1")):
        sorted_text, unsorted_text = (
            "\n".join([f"BIM v2 {monoid}", alphabet, f"values {values}",
                       *(pair[i] for pair in rows.values()), "eps -"]) + "\n"
            for i, alphabet in enumerate(("alphabet a b", "alphabet b a")))
        b, b2 = bimachine_from_text(sorted_text), bimachine_from_text(unsorted_text)
        assert b2 == b and b2.tables[1:4] == b.tables[1:4] and len(b.psi) == 5
        assert bimachine_to_text(b2) == sorted_text
        for w in all_words(("a", "b"), 3):
            assert evaluate(b2, w) == evaluate(b, w)


def _v2_with(line, row):
    """V2 with its 1-based line replaced by row, or deleted if row is None."""
    lines = V2.splitlines()
    lines[line - 1: line] = [] if row is None else [row]
    return "\n".join(lines) + "\n"


def test_bimachine_from_text_rejects_garbage():
    assert format_value(evaluate(bimachine_from_text(V2), ("a", "a"))) == '"xx"'
    cases = [
        ("", "empty input, expected a BIM v2 header"),
        ("# comment\n\n", "empty input, expected a BIM v2 header"),
        (_v2_with(1, "BIM v1 free:x"), "line 1: expected a BIM v2 header"),
        (_v2_with(1, "BIM v2"), "line 1: expected a BIM v2 header"),
        (_v2_with(1, "BIM v2 free:"), "line 1: "),
        # a missing row, rows out of order, an extra row
        (_v2_with(7, None), "line 6: expected the eps row"),
        (_v2_with(3, None), "line 3: expected the values row"),
        (_v2_with(2, 'values "x"\nalphabet a'), "line 2: expected the alphabet row"),
        (_v2_with(5, "psi 0\nright 1 0 0"), "line 5: expected the right row"),
        (V2 + "eps -\n", "line 8: unexpected row after eps"),
        (V2 + "# a comment\n\nx\n", "line 10: unexpected row after eps"),
        # the alphabet and the literals
        (_v2_with(2, "alphabet a a"), "line 2: duplicate input symbol 'a'"),
        (_v2_with(2, "alphabet a -"), "line 2: the symbol - is reserved"),
        (_v2_with(3, 'values "x" zzz'), "line 3: free word literal must be quoted"),
        (_v2_with(3, 'values "z"'), "line 3: symbols outside the alphabet"),
        # token counts
        (_v2_with(4, "left 1 0"), "line 4: token count 1 after left 1, not 2"),
        (_v2_with(4, "left 2 0 0"), "line 4: token count 2 after left 2, not 3"),
        (_v2_with(5, "right 1 0 0 0"), "line 5: token count 3 after right 1, not 2"),
        (_v2_with(6, "psi 0 0"), "line 6: token count 2 after psi, not 1"),
        (_v2_with(6, "psi"), "line 6: token count 0 after psi, not 1"),
        (_v2_with(7, "eps - -"), "line 7: token count 2 after eps, not 1"),
        (_v2_with(7, "eps"), "line 7: token count 0 after eps, not 1"),
        (_v2_with(4, "left"), "line 4: expected left <states> <start> <next states>"),
        (_v2_with(5, "right x 0 0"), "line 5: expected right <states> <start> <next states>"),
        (_v2_with(4, "left \u00b2 0 0"), "line 4: expected left <states>"),
        # numbers against their bounds
        (_v2_with(4, "left 1 0 1"), "line 4: '1' is not - or a number below 1"),
        (_v2_with(5, "right 2 0 0 2"), "line 5: '2' is not - or a number below 2"),
        (_v2_with(4, "left 1 1 0"), "line 4: '1' is not - or a number below 1"),
        (_v2_with(5, "right 1 - 0"), "line 5: right needs a start"),
        (_v2_with(4, "left 0 0"), "line 4: '0' is not - or a number below 0"),
        (_v2_with(6, "psi 1"), "line 6: '1' is not - or a number below 1"),
        (_v2_with(6, "psi -1"), "line 6: '-1' is not - or a number below 1"),
        (_v2_with(6, "psi \u00b2"), "line 6: '\u00b2' is not - or a number below 1"),
        (_v2_with(7, "eps 1"), "line 7: '1' is not - or a number below 1"),
        (_v2_with(7, "eps x"), "line 7: 'x' is not - or a number below 1"),
        # numbers past int()'s 4,300 digits, as a state count and as a state
        (_v2_with(4, f"left {'1' * 5000} 0 0"), "line 4: "),
        (_v2_with(4, f"left 1 0 {'0' * 4999}1"),
         f"line 4: '{'0' * 20}'... of 5000 characters is not - or a number below 1"),
        (_v2_with(4, f"left 1 {'1' * 5000} 0"), f"line 4: '{'1' * 20}'... of 5000 characters"),
        (_v2_with(4, f"left 1 0 {'x' * 21}"), f"line 4: '{'x' * 20}'... of 21 characters"),
        (_v2_with(4, f"left 1 0 {'x' * 20}"), f"line 4: '{'x' * 20}' is not - or a number"),
    ]
    cases += [
        (f"BIM v2 product(free:ab,intgrp)\nalphabet a\nvalues {lit}\n", "line 3: ")
        for lit in QUOTED_SEPARATORS
    ]
    for text, needle in cases:
        with pytest.raises(FormatError) as info:
            bimachine_from_text(text)
        assert needle in str(info.value), (text, str(info.value))
        assert len(str(info.value)) < 200, str(info.value)  # a long token is quoted in part


def test_tokenize_multi_character_symbols():
    assert tokenize("a1a2a1", ("a1", "a2")) == ("a1", "a2", "a1")
    assert tokenize("", ("a1",)) == ()
    assert tokenize("a1a", ("a1", "a2")) is None
    assert tokenize("aa1", ("a", "a1")) == ("a", "a1")
    assert tokenize("zz", ("a",)) is None
    assert tokenize("", ()) == () and tokenize("", ("",)) == ()
    assert tokenize("a", ()) is None


def test_tokenize_splits_a_prefix_code_too_deep_for_one_regex():
    # the trie regex of this prefix code nests 1,000 groups deep, past the
    # default recursion limit, so no pattern is built and the DP splits it;
    # __wrapped__ skips the cache, so the fallback runs in this test
    deep = tuple("a" * i + "b" for i in range(1000))
    assert _prefix_code_pattern.__wrapped__(deep) is None
    assert tokenize("b" + "a" * 999 + "b" + "ab", deep) == ("b", "a" * 999 + "b", "ab")
    assert tokenize("aab" + "b", list(deep)) == ("aab", "b")
    assert tokenize("aaaaa", deep) is None


def test_tokenize_rejects_ambiguous_splits():
    for alphabet in (("a", "b", "ab"), ("ab", "b", "a")):
        with pytest.raises(AmbiguousInputError) as info:
            tokenize("ab", alphabet)
        assert sorted(info.value.splits) == [("a", "b"), ("ab",)]
    with pytest.raises(AmbiguousInputError) as info:
        tokenize("aaaa", ("aa", "a"))
    first, second = info.value.splits
    assert first != second and "".join(first) == "".join(second) == "aaaa"
    assert tokenize("ba", ("a", "b", "ab")) == ("b", "a")


def segmentations(raw, symbols):
    """Every way to write raw as a sequence of symbols, by brute force."""
    if not raw:
        return [()]
    return [(s, *rest) for s in symbols if raw.startswith(s)
            for rest in segmentations(raw[len(s):], symbols)]


def test_tokenize_agrees_with_every_segmentation():
    # the second to fourth letter pairs are regex metacharacters, which a
    # split by pattern matching must escape; alphabets come as lists,
    # tuples and generators
    rng = random.Random(31)
    outcomes = {"none": 0, "one": 0, "several": 0}
    kinds = {"prefix code": 0, "other": 0}
    for draw, letters in enumerate(("ab", "a.", "*|", "[\\") * 1000):
        words = sorted({"".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 4))})
        rng.shuffle(words)
        raw = "".join(rng.choice(letters) for _ in range(rng.randint(0, 10)))
        prefix_code = not any(u != w and w.startswith(u) for u in words for w in words)
        kinds["prefix code" if prefix_code else "other"] += 1
        alphabet = (list, tuple, lambda ws: (w for w in ws))[draw % 3](words)
        splits = segmentations(raw, words)
        if len(splits) > 1:
            assert not prefix_code
            with pytest.raises(AmbiguousInputError) as info:
                tokenize(raw, alphabet)
            first, second = info.value.splits
            assert first != second and first in splits and second in splits
            outcomes["several"] += 1
        else:
            assert tokenize(raw, alphabet) == (splits[0] if splits else None)
            outcomes["one" if splits else "none"] += 1
    assert min(outcomes.values()) > 0, outcomes
    assert min(kinds.values()) >= 200, kinds


def test_ambiguity_message_shows_where_the_splits_part():
    with pytest.raises(AmbiguousInputError) as info:
        tokenize("xabab", ("x", "a", "b", "ab"))
    assert str(info.value) == "ambiguous input: from character 1 it splits as 'ab' and as 'a b'"
    assert info.value.splits == [("x", "ab", "ab"), ("x", "a", "b", "ab")]
    # these two splits share no end before the last character: each is cut
    with pytest.raises(AmbiguousInputError) as info:
        tokenize("zx" + "ab" * 10 + "y", ("z", "x", "ab", "y", "xa", "ba", "by"))
    assert str(info.value) == (
        "ambiguous input: from character 1 it splits as 'xa ba ba ba ba ba ba ba'..."
        " and as 'x ab ab ab ab ab ab ab'..."
    )


def test_tokenize_is_linear_in_the_input_length():
    # 10^5 characters each: a split that does Python-level work over the
    # whole input at every position, or lists every segmentation of the
    # a-only input, needs minutes here
    alphabet = make_tn(9).alphabet
    word = tuple(random.Random(5).choice(alphabet) for _ in range(10**5))
    start = time.perf_counter()
    assert tokenize("".join(word), alphabet) == word
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"splitting 10^5 symbols took {elapsed:.1f} s"
    start = time.perf_counter()
    with pytest.raises(AmbiguousInputError) as info:
        tokenize("a" * 10**5, ("a", "aa"))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"rejecting 10^5 ambiguous characters took {elapsed:.1f} s"
    # the message shows where the splits part, not the whole input
    assert len(str(info.value)) < 200
    assert all(len(split) >= 5 * 10**4 for split in info.value.splits)
    # the 676 two-letter symbols form a prefix code, split by one regex
    # scan; T_12's a1 is a prefix of a10, so its alphabet takes the count
    two_letters = ["".join(p) for p in itertools.product(string.ascii_lowercase, repeat=2)]
    for alphabet in (two_letters, make_tn(12).alphabet):
        word = tuple(random.Random(6).choice(alphabet) for _ in range(10**5))
        start = time.perf_counter()
        assert tokenize("".join(word), alphabet) == word
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"splitting 10^5 symbols took {elapsed:.1f} s"


def tn_file(tmp_path, n):
    path = tmp_path / f"tn{n}.fst"
    path.write_text(format_transducer(make_tn(n)), encoding="utf-8")
    return str(path)


def test_cli_check_exit_codes(tmp_path, capsys):
    assert cli_main(["check", tn_file(tmp_path, 3)]) == 0
    assert "functional" in capsys.readouterr().out
    bad = tmp_path / "bad.fst"
    bad.write_text(
        'monoid free:xy\nalphabet a\nstates 2\ninitial 0\nfinal 1\n'
        't 0 a "x" 1\nt 0 a "y" 1\n',
        encoding="utf-8",
    )
    assert cli_main(["check", str(bad)]) == 1
    assert "not functional" in capsys.readouterr().out


def test_cli_check_names_the_phase_over_the_state_budget(tmp_path, capsys, monkeypatch):
    # T_5 squares to 22 pairs with p <= q
    monkeypatch.setenv("BIMC_MAX_STATES", "20")
    assert cli_main(["check", tn_file(tmp_path, 5)]) == 65
    assert "error: squared exceeded BIMC_MAX_STATES=20" in capsys.readouterr().err
    monkeypatch.setenv("BIMC_MAX_STATES", "many")
    assert cli_main(["check", tn_file(tmp_path, 4)]) == 65
    assert "BIMC_MAX_STATES must be a state count, not 'many'" in capsys.readouterr().err
    monkeypatch.setenv("BIMC_MAX_STATES", "\u00b2")
    assert cli_main(["check", tn_file(tmp_path, 4)]) == 65
    assert "BIMC_MAX_STATES must be a state count, not '\u00b2'" in capsys.readouterr().err


def test_cli_check_stops_the_epsilon_closure_at_the_state_budget(tmp_path, capsys, monkeypatch):
    path = tmp_path / "diamonds.fst"
    path.write_text(format_transducer(eps_diamond_chain()), encoding="utf-8")
    monkeypatch.setenv("BIMC_MAX_STATES", "1000")
    assert cli_main(["check", str(path)]) == 65
    assert "error: epsilon closure exceeded BIMC_MAX_STATES=1000" in capsys.readouterr().err


def tn2_squared_counts():
    """The pairs (p, q) with p <= q of T_2's ordered squared automaton,
    and the useful ones among them: what --stats counts."""
    ref = squared_reference(trim(make_tn(2))[0])
    useful = coaccessible(ref)
    canonical = [i for i, (p, q) in enumerate(ref.pairs) if p <= q]
    return len(canonical), len(useful.intersection(canonical))


def test_cli_compile_and_run(tmp_path, capsys):
    out = str(tmp_path / "tn2.bim")
    assert cli_main(["compile", tn_file(tmp_path, 2), "-o", out, "--stats"]) == 0
    stats = capsys.readouterr().out
    assert "left=3" in stats and "right=6" in stats
    assert "psi=34 slots=36 values=4 eps=none" in stats  # 34 entries in 36 slots, 4 payloads
    assert stats.strip().endswith("squared=7 useful=5 sets=5")
    assert tn2_squared_counts() == (7, 5)
    assert cli_main(["run", out, "--input", "a1a1"]) == 0
    assert capsys.readouterr().out.strip() == '"1111"'
    assert cli_main(["run", out, "--input", "a1"]) == 2
    assert capsys.readouterr().out.strip() == "UNDEFINED"
    assert cli_main(["run", out, "--input", "a1a7"]) == 2
    assert capsys.readouterr().out.strip() == "UNDEFINED"
    assert cli_main(["run", out, "--input", ""]) == 2


def test_cli_run_rejects_ambiguous_input(tmp_path, capsys):
    # "ab" reads as a·b (output "xx") or as the one symbol ab ("y")
    src = tmp_path / "split.fst"
    src.write_text(
        'monoid free:xy\nalphabet a b ab\nstates 1\ninitial 0\nfinal 0\n'
        't 0 a "x" 0\nt 0 b "x" 0\nt 0 ab "y" 0\n',
        encoding="utf-8",
    )
    out = str(tmp_path / "split.bim")
    assert cli_main(["compile", str(src), "-o", out]) == 0
    assert cli_main(["run", out, "--input", "ab"]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'a b'" in captured.err and "'ab'" in captured.err
    assert cli_main(["run", out, "--input", "ba"]) == 0
    assert capsys.readouterr().out.strip() == '"xx"'


def test_cli_compile_classical_method(tmp_path, capsys):
    out = str(tmp_path / "tn2c.bim")
    assert cli_main(
        ["compile", tn_file(tmp_path, 2), "-o", out, "--method", "classical", "--stats"]
    ) == 0
    # the squared automaton is the input's; sets are over the expansion
    assert capsys.readouterr().out.strip() == (
        "left=5 right=6 psi=58 slots=60 values=5 eps=none squared=7 useful=5 sets=10"
    )
    assert cli_main(["run", out, "--input", "a2a1"]) == 0
    assert capsys.readouterr().out.strip() == '"1111"'
    # the baseline runs over every output monoid, not only free words
    ints = tmp_path / "ints.fst"
    ints.write_text(
        "monoid intgrp\nalphabet a\nstates 3\ninitial 0\nfinal 2\n"
        "t 0 a -2 1\nt 0 a 3 2\nt 1 a 5 2\n",
        encoding="utf-8",
    )
    ints_out = str(tmp_path / "ints.bim")
    assert cli_main(["compile", str(ints), "-o", ints_out, "--method", "classical"]) == 0
    assert cli_main(["run", ints_out, "--input", "aa"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_cli_compile_rejects_nonfunctional(tmp_path, capsys):
    bad = tmp_path / "bad.fst"
    bad.write_text(
        'monoid free:xy\nalphabet a\nstates 2\ninitial 0\nfinal 1\n'
        't 0 a "x" 1\nt 0 a "y" 1\n',
        encoding="utf-8",
    )
    assert cli_main(["compile", str(bad), "-o", str(tmp_path / "o.bim")]) == 1
    assert "not functional" in capsys.readouterr().err


def test_cli_classical_needs_pseudo_deterministic(tmp_path, capsys):
    two_starts = tmp_path / "two.fst"
    two_starts.write_text(
        'monoid free:xy\nalphabet a\nstates 3\ninitial 0 1\nfinal 2\n'
        't 0 a "x" 2\nt 1 a "x" 2\n',
        encoding="utf-8",
    )
    code = cli_main(["compile", str(two_starts), "-o", str(tmp_path / "o.bim"), "--method", "classical"])
    assert code == 65
    assert "deterministic" in capsys.readouterr().err


def test_cli_usage_and_io_errors(tmp_path, capsys):
    assert cli_main([]) == 64
    assert cli_main(["check"]) == 64
    assert cli_main(["bench-tn"]) == 64
    assert cli_main(["run", "x.bim"]) == 64
    capsys.readouterr()
    assert cli_main(["check", str(tmp_path / "missing.fst")]) == 74
    assert "io error" in capsys.readouterr().err
    broken = tmp_path / "broken.fst"
    broken.write_text("monoid free:x\n", encoding="utf-8")
    assert cli_main(["check", str(broken)]) == 65
    assert "format error" in capsys.readouterr().err
    assert cli_main(["--help"]) == 0


def test_cli_bench_csv_and_table(capsys):
    assert cli_main(["bench-tn", "--max-n", "3", "--method", "mge", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("n,method,")
    assert any(line.startswith("3,mge,3,11,") for line in out.splitlines())
    assert cli_main(["bench-tn", "--max-n", "2", "--format", "table"]) == 0
    table = capsys.readouterr().out
    assert "classical" in table and "mge" in table
    assert cli_main(["bench-tn", "--max-n", "2", "--limit", "0", "--format", "table"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 4
    assert all(row.endswith("skipped: over the safety limit (0)") for row in rows)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["bench-tn", "--max-n", "0"], "--max-n"),
        (["bench-tn", "--max-n", "-2", "--method", "mge"], "--max-n"),
        (["compare", "T2.fst", "--max-len", "-1"], "--max-len"),
        (["bench-tn", "--max-n", "2", "--limit", "-1"], "--limit"),
    ],
)
def test_cli_rejects_counts_that_check_nothing(tmp_path, capsys, argv, option):
    argv = [tn_file(tmp_path, 2) if arg == "T2.fst" else arg for arg in argv]
    assert cli_main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage error: {option} must be at least" in captured.err


def test_cli_compare(tmp_path, capsys):
    assert cli_main(["compare", tn_file(tmp_path, 2), "--max-len", "3"]) == 0
    out = capsys.readouterr().out
    assert "agree" in out and "classical" in out
    eps = tmp_path / "eps.fst"
    eps.write_text(
        'monoid free:xy\nalphabet a\nstates 3\ninitial 0\nfinal 2\n'
        't 0 - "x" 1\nt 1 a "y" 2\n',
        encoding="utf-8",
    )
    assert cli_main(["compare", str(eps), "--max-len", "3"]) == 0
    out = capsys.readouterr().out
    assert "classical skipped" in out
    assert out.splitlines()[-1] == "mge agrees with the path walk on 4 words (1 in the domain)"
    ints = tmp_path / "ints.fst"
    ints.write_text(
        "monoid intgrp\nalphabet a\nstates 2\ninitial 0\nfinal 1\nt 0 a -2 1\nt 1 a 3 1\n",
        encoding="utf-8",
    )
    assert cli_main(["compare", str(ints), "--max-len", "3"]) == 0
    out = capsys.readouterr().out
    assert "mge and classical agree" in out
    bad = tmp_path / "bad.fst"
    bad.write_text(MINIMAL + 't 0 a "y" 1\n', encoding="utf-8")
    assert cli_main(["compare", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("not functional (transition-mismatch: ")


def test_cli_compare_keeps_the_state_budget_on_the_path_walk(tmp_path, capsys, monkeypatch):
    # both machines for double.fst have 2 states a side and 8 output cells;
    # the path walk numbers n + 1 nodes on an n-letter word
    double, _ = _readme_examples()
    path = tmp_path / "double.fst"
    path.write_text(double, encoding="utf-8")
    monkeypatch.setenv("BIMC_MAX_STATES", "8")
    assert cli_main(["compare", str(path), "--max-len", "8"]) == 65
    assert "error: path enumeration exceeded BIMC_MAX_STATES=8" in capsys.readouterr().err
    assert cli_main(["compare", str(path), "--max-len", "7"]) == 0
    assert "agree with the path walk on 255 words" in capsys.readouterr().out
    monkeypatch.setenv("BIMC_MAX_STATES", "7")
    assert cli_main(["compare", str(path), "--max-len", "3"]) == 65
    assert "error: output table exceeded BIMC_MAX_STATES=7" in capsys.readouterr().err


def test_cli_compile_keeps_the_state_budget_on_the_output_table(tmp_path, capsys, monkeypatch):
    # classical T_6: 367 expanded states, 1,766 and 70 a side, 741,714 output cells
    monkeypatch.setenv("BIMC_MAX_STATES", "100000")
    out = tmp_path / "t6.bim"
    assert cli_main(["compile", tn_file(tmp_path, 6), "--method", "classical", "-o", str(out)]) == 65
    assert "error: output table exceeded BIMC_MAX_STATES=100000" in capsys.readouterr().err
    assert not out.exists()


def test_cli_compare_reports_two_walk_outputs(tmp_path, capsys, monkeypatch):
    # the path walk's check is no assert: it holds under python -O too
    monkeypatch.setattr(cli, "enumerate_outputs", lambda t, word: {"x", "y"})
    assert cli_main(["compare", tn_file(tmp_path, 2), "--max-len", "1"]) == 1
    assert capsys.readouterr().out == "the path walk finds 2 outputs on ()\n"


def test_cli_compare_reports_a_disagreement(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "evaluate", lambda b, word: None)
    assert cli_main(["compare", tn_file(tmp_path, 2), "--max-len", "2"]) == 1
    assert capsys.readouterr().out == (
        "mge disagrees on ('a1', 'a1'): None vs MonoidValue(\"1111\")\n"
    )


def _readme_examples():
    """README.md's double.fst and its `$ bimc ...` commands, each with
    the lines it prints."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\w*\n(.*?)^```$", text, re.S | re.M)
    double = next(b for b in blocks if b.startswith("monoid product(free:xy,nnrat)\n"))
    examples = []
    for block in blocks:
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *printed = chunk.splitlines()
            examples.append((command.split(), printed))
    return double, examples


def test_readme_command_line_examples(tmp_path, capsys, monkeypatch):
    double, examples = _readme_examples()
    monkeypatch.chdir(tmp_path)
    Path("double.fst").write_text(double, encoding="utf-8")
    ran = []
    for argv, printed in examples:
        assert argv[0] == "bimc"
        argv = argv[1:]
        code = cli_main(argv)
        out = capsys.readouterr().out.splitlines()
        if argv[0] == "bench-tn":  # timings vary: leave out the ms column
            out, printed = (
                [re.sub(r"\d+\.\d+", "", line).split() for line in lines]
                for lines in (out, printed)
            )
        assert (code, out) == (2 if printed == ["UNDEFINED"] else 0, printed), argv
        if argv[0] == "compile":  # the classical machine has the same sizes
            assert cli_main([*argv, "--method", "classical", "-o", "classical.bim"]) == 0
            assert capsys.readouterr().out.splitlines() == printed
        ran.append(argv[0])
    assert ran == ["check", "compile", "run", "run", "bench-tn", "compare"]


def test_package_exports_the_cli_names():
    import bimc

    names = ("bimachine_from_text", "bimachine_to_text", "cli_main", "format_transducer",
             "parse_transducer")
    for name in names:
        assert getattr(bimc, name) is getattr(cli, name)
        assert name in bimc.__all__


def test_readme_python_quick_start(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(comments) == 2
    for line, comment in zip(printed, comments):
        assert comment.startswith(line), (line, comment)


@pytest.mark.parametrize("entry", (["bimc"], ["bimc.cli"]), ids=" ".join)
def test_module_entry_points(tmp_path, entry):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", *entry, "check", tn_file(tmp_path, 2)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "functional"
    assert "RuntimeWarning" not in done.stderr  # runpy warns if bimc imported the module early


def test_readme_install_command_is_run_by_ci():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Install\n(.*?)^## ", readme, re.S | re.M).group(1)
    block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
    (command,) = re.findall(r"^pip install .*$", block, re.M)
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert command in re.findall(r"^\s*(?:- run: )?(pip install .*?)\s*$", workflow, re.M)


def test_readme_names_the_python_versions_ci_runs():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"fails them,\s+on\s+Python\s+(.*?),\s+and\s+the\s+suite", readme, re.S)
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    (matrix,) = re.findall(r"^\s*python-version: \[(.*)\]\s*$", workflow, re.M)
    assert re.findall(r"3\.\d+", sentence.group(1)) == re.findall(r'"(3\.\d+)"', matrix)


def _console_scripts(text):
    """The [project.scripts] entries of pyproject.toml text, read line by
    line, as on Python 3.10, which has no tomllib."""
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.S | re.M).group(1)
    return dict(re.findall(r'^(\S+) = "(.*)"$', section, re.M))


def test_console_script_runs(tmp_path, capsys, monkeypatch):
    # the installed bimc script calls this entry point; CI runs it installed
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = _console_scripts(text)
    if sys.version_info >= (3, 11):
        import tomllib

        assert scripts == tomllib.loads(text)["project"]["scripts"]
    assert scripts["bimc"] == "bimc.cli:main"
    module, attr = scripts["bimc"].split(":")
    entry = getattr(importlib.import_module(module), attr)
    path = tmp_path / "double.fst"
    path.write_text(_readme_examples()[0], encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["bimc", "check", str(path)])
    with pytest.raises(SystemExit) as exit_:
        entry()
    assert exit_.value.code == 0
    assert capsys.readouterr().out == "functional\n"
