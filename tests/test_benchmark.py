import random

import pytest

from bimc.benchmark import CSV_COLUMNS, make_tn, run_bench
from bimc.bimachine import evaluate
from bimc.classical import classical_compile
from bimc.compiler import compile as build
from bimc.fsa import enumerate_outputs
from bimc.functionality import test_functionality as functionality
from bimc.monoid import MonoidValue


def ones(t, k):
    return MonoidValue(t.monoid, "1" * k)


def random_word(rng, t, length):
    return tuple(rng.choice(t.alphabet) for _ in range(length))


def test_make_tn_rejects_zero():
    with pytest.raises(ValueError):
        make_tn(0)


def test_tn2_shape():
    t = make_tn(2)
    assert t.n_states == 4
    assert len(t.transitions) == 11
    assert t.alphabet == ("a1", "a2")
    assert t.real_time
    assert t.initial == {0} and t.final == {3}


def test_tn_is_functional_up_to_6():
    for n in range(1, 7):
        assert functionality(make_tn(n)).functional


def test_tn3_outputs_are_n_per_letter():
    rng = random.Random(33)
    t = make_tn(3)
    for length in (2, 3, 4):
        for _ in range(5):
            w = random_word(rng, t, length)
            assert enumerate_outputs(t, w) == {ones(t, 3 * length)}
    # the empty word and single letters are outside the domain
    assert enumerate_outputs(t, ()) == set()
    for a in t.alphabet:
        assert enumerate_outputs(t, (a,)) == set()


def test_mge_rows_are_exact():
    rows = {r.n: r for r in run_bench(3, methods=("mge",)).rows}
    for n in (1, 2, 3):
        assert rows[n].left_states == 3
        assert rows[n].right_states == 2 ** n + n
        assert rows[n].intermediate_states is None
        assert rows[n].build_ms >= 0
    assert rows[3].right_states == 11


def test_classical_rows_meet_lower_bounds():
    rows = {r.n: r for r in run_bench(3, methods=("classical",)).rows}
    for n in (2, 3):
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        assert rows[n].left_states >= fact + 2
        assert rows[n].right_states >= 2 ** n + n
        assert rows[n].intermediate_states >= (2 * n + 3) * 2 ** (n - 2)
    assert rows[3].left_states >= 8 and rows[3].intermediate_states >= 18


def test_classical_count_matches_full_compile():
    bench = {r.n: r for r in run_bench(3, methods=("classical",)).rows}
    for n in (1, 2, 3):
        b = classical_compile(make_tn(n))
        assert bench[n].psi_entries == len(b.psi)
        assert bench[n].left_states == b.left.n_states
        assert bench[n].right_states == b.right.n_states


def test_report_is_sorted_and_csv_shaped():
    rep = run_bench(2)
    assert [(r.n, r.method) for r in rep.rows] == [
        (1, "classical"), (1, "mge"), (2, "classical"), (2, "mge"),
    ]
    lines = rep.to_csv().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 5
    mge3 = run_bench(3, methods=("mge",)).to_csv().splitlines()[-1]
    assert mge3.startswith("3,mge,3,11,")


def test_rows_over_the_limit_are_skipped():
    rep = run_bench(4, methods=("classical",), limit=2)
    by_n = {r.n: r for r in rep.rows}
    assert by_n[2].skipped is None
    assert by_n[3].skipped == by_n[4].skipped == "over the safety limit (2)"
    assert "3,classical,,,,," in rep.to_csv().splitlines()
    assert "skipped" in rep.to_table()


def test_state_cap_marks_rows_skipped(monkeypatch):
    monkeypatch.setenv("BIMC_MAX_STATES", "4")
    rep = run_bench(3, methods=("classical",))
    by_n = {r.n: r for r in rep.rows}
    assert by_n[1].skipped is None
    assert by_n[2].skipped and "BIMC_MAX_STATES" in by_n[2].skipped
    assert by_n[3].skipped


def test_run_bench_rejects_unknown_method():
    with pytest.raises(ValueError):
        run_bench(2, methods=("mge", "fastest"))


def test_both_constructions_agree_with_direct_walk():
    rng = random.Random(77)
    for n in (1, 2, 3):
        t = make_tn(n)
        eb = build(t)
        cb = classical_compile(t)
        for _ in range(50):
            w = random_word(rng, t, rng.randint(2, 5))
            expected = enumerate_outputs(t, w)
            assert expected == {ones(t, n * len(w))}
            assert evaluate(eb, w) == evaluate(cb, w) == next(iter(expected))
        for a in t.alphabet:
            assert evaluate(eb, (a,)) is None
            assert evaluate(cb, (a,)) is None
