"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

They run the workloads on small inputs, so they take a few seconds
each; they need the program's source in ./src.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bimc  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so that a run takes about a second."""
    for name, value in {
        "SETUP_REPS": 1,
        "TN_MGE": (3, 4),
        "TN_CLASSICAL": (3,),
        "LE_TN": (3,),
        "LE_SHORT": 20,
        "LE_LONG": 60,
        "RC_SIZE": 150,
    }.items():
        monkeypatch.setattr(workloads, name, value)


def test_benchmark_json_follows_the_naming_rules():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(names[: len(SPEC["workloads"])]) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_workload_emits_its_metrics(small, workload, trace):
    metrics, outcome, _ = workloads.run(workload, 3, 0.05, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert outcome.attempted > 0 and outcome.failed == 0, outcome.notes
    if not trace:
        for name, (value, _) in metrics.items():
            assert value > 0, name


def test_same_seed_same_inputs_and_other_seed_other_words(small):
    def inputs(cls, seed):
        state = cls(seed).setup(None, workloads.Pass())
        return repr({k: state[k] for k in ("texts", "words") if k in state})

    for cls in workloads.WORKLOADS.values():
        assert inputs(cls, 5) == inputs(cls, 5)
        assert inputs(cls, 5) != inputs(cls, 6)


def test_tn_closed_form_matches_the_walk():
    for n in (1, 2, 3):
        spec = gen.tn_spec(n)
        table = oracle.Walk(spec).table(spec.alphabet, 4)
        for length in range(5):
            word = spec.alphabet[:1] * length
            assert table.get(word, set()) == (
                {oracle.tn_output(n, length)} if length >= 2 else set()
            )
        for word, outs in table.items():
            assert outs == {oracle.tn_output(n, len(word))}


def test_tn_text_is_the_program_family():
    for n in range(1, 6):
        t = bimc.parse_transducer(gen.tn_spec(n).text())
        assert t == bimc.make_tn(n)


def test_tn_machine_sizes():
    for n in range(1, 6):
        b = bimc.compile(bimc.parse_transducer(gen.tn_spec(n).text()))
        assert (b.left.n_states, b.right.n_states) == (3, 2 ** n + n)
    lefts = [bimc.classical_compile(bimc.make_tn(n)).left.n_states for n in range(1, 6)]
    assert lefts == [3, 5, 13, 52, 276]


def test_lookahead_transducer_is_functional_and_total():
    spec = gen.lookahead_spec()
    table = oracle.Walk(spec).table(spec.alphabet, 5)
    assert len(table) == sum(3 ** k for k in range(1, 6))
    assert all(len(outs) == 1 for outs in table.values())


def test_corpus_covers_every_kind_and_witness():
    specs = gen.corpus(workloads.RC_SIZE)
    assert {s.kind for s in specs} == set(gen.CORPUS_KINDS)
    assert any(arc[1] is None for s in specs for arc in s.arcs)
    assert any(all(arc[1] is not None for arc in s.arcs) for s in specs)
    verdicts = [bimc.test_functionality(bimc.parse_transducer(s.text())) for s in specs]
    accepted = sum(v.functional for v in verdicts) / len(verdicts)
    assert 0.25 < accepted < 0.45
    assert {v.witness.kind for v in verdicts if not v.functional} == {
        "eps-cycle", "eps-language", "unequalizable-pair", "transition-mismatch",
        "final-imbalance",
    }


def test_tail_needs_ten_samples_beyond():
    assert workloads.tail(list(range(1, 101)))[0] == 90
    assert workloads.tail(list(range(1, 1001)))[0] == 990
    assert workloads.tail([1, 2, 3])[1] == "max of 3 samples"


def test_self_time_subtracts_children():
    tr = tracing.Tracer()

    def child():
        return sum(range(20000))

    def parent():
        return child() + tr.call("child", child)

    tr.call("parent", parent)
    assert tr.ms["parent"] > tr.ms["child"] > 0
    assert tr.self_ms["parent"] == pytest.approx(tr.ms["parent"] - tr.ms["child"])
    tr.call("rec", lambda: tr.call("rec", child))
    assert tr.calls["rec"] == 2
    assert tr.ms["rec"] == pytest.approx(tr.self_ms["rec"])


def test_absent_hook_is_reported_not_failed(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS",
                        tracing.HOOKS + (("bimc.compiler", "no_such_name", "x", None),))
    assert tracing.absent_hooks() == ["bimc.compiler.no_such_name"]
    tr = tracing.Tracer()
    with tracing.hooked(tr):
        bimc.compile(bimc.make_tn(2))
    assert tr.calls["compiler.fill"] > 0
    assert bimc.compiler.output_value.__name__ == "output_value"


def _first_cell(b, word):
    r = b.right.start
    for sym in reversed(word[1:]):
        r = b.right.delta[(r, sym)]
    return (b.left.start, word[0], r)


def test_a_corrupted_output_entry_is_an_error(small, monkeypatch):
    state = workloads.TnCompileEval(1).setup(None, workloads.Pass())
    raw = state["words"][3][0][-1]
    word = tuple(raw[i:i + 2] for i in range(0, len(raw), 2))
    compile_ = bimc.compile

    def corrupted(t, **kwargs):
        b = compile_(t, **kwargs)
        if not isinstance(b.monoid, bimc.FreeWords):
            return b
        psi = dict(b.psi)
        cell = _first_cell(b, word)
        psi[cell] = psi[cell] * bimc.MonoidValue(b.monoid, "1")
        return dataclasses.replace(b, psi=psi)

    monkeypatch.setattr(bimc, "compile", corrupted)
    _, outcome, _ = workloads.run("tn-compile-eval", 1, 0.05, 0)
    assert outcome.failed > 0


@pytest.mark.parametrize("workload,flip_to",
                         (("random-corpus", True), ("tn-compile-eval", False)))
def test_a_forged_verdict_is_an_error(small, monkeypatch, workload, flip_to):
    verdict = bimc.test_functionality

    def forged(t):
        # only free-word transducers other than T_3, which setup compiles
        v = verdict(t)
        if isinstance(t.monoid, bimc.FreeWords) and len(t.alphabet) != 3:
            v = dataclasses.replace(v, functional=flip_to)
        return v

    monkeypatch.setattr(bimc, "test_functionality", forged)
    _, outcome, _ = workloads.run(workload, 1, 0.05, 0)
    assert outcome.failed > 0


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "tn-compile-eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
