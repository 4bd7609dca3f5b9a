import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from bimc import cli
from bimc.benchmark import make_tn
from bimc.bimachine import AlphabetError, evaluate
from bimc.cli import (
    AmbiguousInputError,
    BimachineFormatError,
    TransducerFormatError,
    bimachine_from_text,
    bimachine_to_text,
    cli_main,
    format_transducer,
    parse_transducer,
    tokenize,
)
from bimc.compiler import compile as build
from bimc.fsa import make_transducer
from bimc.monoid import (
    FreeWords, Integers, MonoidValue, NonNegRationals, PairOf, format_value, parse_value,
)
from helpers import TRANSDUCER_MONOIDS, all_words, random_bimachine, random_transducer

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
    for text, needle in cases:
        with pytest.raises(TransducerFormatError) as info:
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
    b = bimachine_from_text(machine_text)
    assert len(checked) == len(b.psi) == machine_text.count("\no ")


def test_duplicate_transition_collapses_with_warning():
    text = MINIMAL + 't 0 a "x" 1\n'
    with pytest.warns(UserWarning):
        t = parse_transducer(text)
    assert len(t.transitions) == 1


def test_transducer_round_trip():
    pair = PairOf(FREE, NonNegRationals())
    t = make_transducer(
        ("a", "b"), pair, 3, {0}, {2},
        [(0, "a", ("x", 2), 1), (1, None, ("", "1/2"), 2), (2, "b", ("yy", 0), 0)],
    )
    again = parse_transducer(format_transducer(t))
    assert again == t
    # a left-nested product puts a parenthesized component before the top-level comma
    left_nested = parse_transducer(
        "monoid product(product(nnrat,intgrp),free:x)\nalphabet a\nstates 1\n"
        'initial 0\nfinal 0\nt 0 a ((1/2,-3),"x") 0\n'
    )
    assert left_nested.monoid == PairOf(PairOf(NonNegRationals(), Integers()), FreeWords(("x",)))
    assert left_nested.transitions[0].out.payload == ((Fraction(1, 2), -3), "x")
    assert parse_transducer(format_transducer(left_nested)) == left_nested
    text = format_transducer(make_tn(2))
    assert parse_transducer(text) == make_tn(2)
    rng = random.Random(84)
    nested = PairOf(FREE, PairOf(NonNegRationals(), Integers()))
    for monoid in (None, NonNegRationals(), Integers(), nested):
        for with_eps in (False, True):
            for _ in range(25):
                t = random_transducer(rng, allow_eps=with_eps, require_eps=with_eps, monoid=monoid)
                assert parse_transducer(format_transducer(t)) == t


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


def test_parsers_raise_only_format_errors():
    rng = random.Random(2024)
    pool = ['"x"', '"z"', '("x",1)', "(1,1)", "1/2", "1/0", "-3", "x", "-", "7", "99",
            "o", "d", "t", "start", "PSI", "EPS", "LEFT", "alphabet", "free:", "nnrat", "product(",
            ""]
    transducers = [make_tn(2)] + [
        random_transducer(rng, allow_eps=True, monoid=m)
        for m in (None, NonNegRationals(), Integers(), PairOf(FREE, Integers()))
    ]
    texts = [format_transducer(t) for t in transducers]
    machines = [bimachine_to_text(build(make_tn(2)))]
    machines += [bimachine_to_text(random_bimachine(rng)) for _ in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # collapsed duplicate transitions
        for _ in range(2000):
            try:
                parse_transducer(_mutated_lines(rng, rng.choice(texts), pool))
            except TransducerFormatError:
                pass
            try:
                bimachine_from_text(_mutated_lines(rng, rng.choice(machines), pool))
            except BimachineFormatError:
                pass


def test_bimachine_round_trip_is_canonical():
    b = build(make_transducer(
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


def test_bimachine_text_keeps_the_alphabet():
    b = build(make_transducer(("a", "b", "c"), FREE, 2, {0}, {1}, [(0, "a", "x", 1)]))
    text = bimachine_to_text(b)
    assert text.splitlines()[1] == "alphabet a b c"
    b2 = bimachine_from_text(text)
    assert b2.alphabet == ("a", "b", "c")
    assert evaluate(b, ("c",)) is None and evaluate(b2, ("c",)) is None
    assert format_value(evaluate(b2, ("a",))) == '"x"'
    # a text written before the alphabet row: the symbols of its rows
    old = bimachine_from_text(
        'BIM v1 free:x\nLEFT\nstart 0\nd 0 b 0\nRIGHT\nstart 0\nd 0 a 0\n'
        'PSI\no 0 a 0 "x"\n'
    )
    assert old.alphabet == old.left.alphabet == ("a", "b")
    assert format_value(evaluate(old, ("a",))) == '"x"'
    with pytest.raises(AlphabetError):
        evaluate(old, ("c",))


def test_bimachine_from_text_rejects_garbage():
    cases = [
        ("BIM v2 free:x\nLEFT\nstart 0\n", "header"),
        ("BIM v1 free:x\nLEFT\nstart 0\nd 0 a 1\nd 0 a 2\n", "conflicting"),
        ("BIM v1 free:x\nLEFT\nstart 0\nRIGHT\n", "missing start"),
        ("BIM v1 free:x\nLEFT\nstart 0\nRIGHT\nstart 0\nPSI\no 0 a 0 zzz\n", "line 7"),
        ("BIM v1 free:x\nLEFT\nwhat 3\n", "unexpected row"),
        ("BIM v1 free:x\nLEFT\nstart \u00b2\n", "line 3: unexpected row"),
        ("", "empty input"),
        ("BIM v1 free:x\nLEFT\nstart 0\nstart 3\nRIGHT\nstart 0\n",
         "line 4: LEFT start already declared on line 3"),
        ("BIM v1 free:x\nLEFT\nstart 0\nRIGHT\nstart 0\nEPS \"\"\nEPS \"x\"\n",
         "line 7: EPS already declared on line 6"),
        ("BIM v1 free:xy\nLEFT\nstart 0\nRIGHT\nstart 0\nPSI\no 0 a 0 \"x\"\no 0 a 0 \"y\"\n",
         "line 8: conflicting outputs for (0, 'a', 0)"),
        ("BIM v1 free:x\nalphabet a a\n", "line 2: duplicate input symbol 'a'"),
        ("BIM v1 free:x\nalphabet a\nalphabet a\n", "line 3: alphabet already declared on line 2"),
        ("BIM v1 free:x\nLEFT\nalphabet a\n", "line 3: unexpected row"),
        ("BIM v1 free:x\nalphabet a\nLEFT\nstart 0\nd 0 b 0\n", "line 5: undeclared symbol 'b'"),
        ("BIM v1 free:x\nalphabet a\nLEFT\nstart 0\nRIGHT\nstart 0\nPSI\no 0 b 0 \"x\"\n",
         "line 8: undeclared symbol 'b'"),
        ("BIM v1 free:x\nLEFT\nstart 0\nd 0 - 0\n", "line 4: the symbol - is reserved"),
    ]
    for text, needle in cases:
        with pytest.raises(BimachineFormatError) as info:
            bimachine_from_text(text)
        assert needle in str(info.value)
    repeated = bimachine_from_text(
        'BIM v1 free:x\nLEFT\nstart 0\nRIGHT\nstart 0\nPSI\no 0 a 0 "x"\no 0 a 0 "x"\n'
    )
    assert format_value(repeated.psi[(0, "a", 0)]) == '"x"'


def test_tokenize_multi_character_symbols():
    assert tokenize("a1a2a1", ("a1", "a2")) == ("a1", "a2", "a1")
    assert tokenize("", ("a1",)) == ()
    assert tokenize("a1a", ("a1", "a2")) is None
    assert tokenize("aa1", ("a", "a1")) == ("a", "a1")
    assert tokenize("zz", ("a",)) is None


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
    monkeypatch.setenv("BIMC_MAX_STATES", "20")
    assert cli_main(["check", tn_file(tmp_path, 4)]) == 65
    assert "error: squared exceeded BIMC_MAX_STATES=20" in capsys.readouterr().err
    monkeypatch.setenv("BIMC_MAX_STATES", "many")
    assert cli_main(["check", tn_file(tmp_path, 4)]) == 65
    assert "BIMC_MAX_STATES must be a state count, not 'many'" in capsys.readouterr().err
    monkeypatch.setenv("BIMC_MAX_STATES", "\u00b2")
    assert cli_main(["check", tn_file(tmp_path, 4)]) == 65
    assert "BIMC_MAX_STATES must be a state count, not '\u00b2'" in capsys.readouterr().err


def test_cli_compile_and_run(tmp_path, capsys):
    out = str(tmp_path / "tn2.bim")
    assert cli_main(["compile", tn_file(tmp_path, 2), "-o", out, "--stats"]) == 0
    stats = capsys.readouterr().out
    assert "left=3" in stats and "right=6" in stats
    assert stats.strip().endswith("squared=10 useful=6 sets=5")
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
        "left=5 right=6 psi=58 eps=none squared=10 useful=6 sets=10"
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
