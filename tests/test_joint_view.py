"""The equalizer accumulation principle: at every position of a word,
the mge machine has emitted the joint view of the transducer's
successful runs, the most that all of them agree on so far, and not
only the right output at the end.  helpers.joint_view_outputs reads
that view off the runs, independent of bimc's algebra."""

import random

from bimc.benchmark import make_tn
from bimc.classical import classical_compile
from bimc.cli import parse_transducer
from bimc.compiler import compile as build
from bimc.functionality import test_functionality as functionality
from bimc.monoid import Integers
from helpers import (
    TRANSDUCER_MONOIDS,
    all_words,
    common_value,
    eps_free_steps,
    functional_draws,
    joint_view_outputs,
    op_reference,
    positional_outputs,
    unit_payload,
)


def emitted(b, word):
    """The machine's output after each prefix of the nonempty word, as
    common_value reads a single payload, or None when it is undefined."""
    outputs = positional_outputs(b, word)
    if outputs is None:
        return None
    m = b.monoid
    products = [unit_payload(m)]
    for v in outputs:
        products.append(op_reference(m, products[-1], v.payload))
    return [common_value(m, {p}) for p in products]


def tn_words(n, rng):
    """All nonempty words of up to 6 letters for n <= 4; above, 200
    random words of 2-8 letters in T_n's domain."""
    t = make_tn(n)
    if n <= 4:
        return [w for w in all_words(t.alphabet, 6) if w]
    words = []
    while len(words) < 200:
        w = tuple(rng.choice(t.alphabet) for _ in range(rng.randint(2, 8)))
        if joint_view_outputs(t, w) is not None:
            words.append(w)
    return words


def differences(t, b, words):
    """(positions compared, positions where b's output differs from the
    joint view) over the words in t's domain; b defines exactly those."""
    positions = differ = 0
    for w in words:
        views = joint_view_outputs(t, w)
        got = emitted(b, w)
        assert (views is None) == (got is None), w
        if views is not None:
            positions += len(w)
            differ += sum(v != g for v, g in zip(views[1:], got[1:]))
    return positions, differ


def test_mge_machines_emit_the_joint_view_on_tn():
    rng = random.Random(1515)
    positions = 0
    for n in range(1, 9):
        checked, differ = differences(make_tn(n), build(make_tn(n)), tn_words(n, rng))
        assert differ == 0, n
        positions += checked
    assert positions > 30_000


def test_mge_machines_emit_the_joint_view_on_the_corpus(perfbench_gen):
    members = positions = 0
    for spec in perfbench_gen.corpus(1000):
        t = parse_transducer(spec.text())
        if not t.real_time or isinstance(t.monoid, Integers) or not functionality(t).functional:
            continue
        words = [w for w in all_words(t.alphabet, 4) if w]
        checked, differ = differences(t, build(t), words)
        assert differ == 0, spec.text()
        members += 1
        positions += checked
    assert members == 216  # 117 over free words or nnrat, 99 products with intgrp
    assert positions > 2_000


def test_mge_machines_emit_the_joint_view_with_eps_moves():
    # a position is the end of an eps* a eps* step: the joint view is
    # read off the real-time transducer of those steps
    rng = random.Random(4242)
    positions = 0
    for monoid in TRANSDUCER_MONOIDS:
        if isinstance(monoid, Integers):
            continue
        for t, verdict in functional_draws(rng, 60, monoid, eps=True):
            words = [w for w in all_words(t.alphabet, 4) if w]
            steps = eps_free_steps(verdict.trimmed)
            checked, differ = differences(steps, build(t, verdict=verdict), words)
            assert differ == 0, t
            positions += checked
    assert positions > 2_500  # 3,105 over the 180 draws


def test_classical_machine_lags_behind_the_joint_view():
    # the same whole-word outputs, emitted later: each prefix of the
    # classical output is a prefix of the joint view, often a proper one
    t = make_tn(3)
    b = classical_compile(t)
    lagging = 0
    for w in all_words(t.alphabet, 6):
        views = joint_view_outputs(t, w)
        if not w or views is None:
            continue
        got = emitted(b, w)
        assert got[-1] == views[-1]
        assert all(v.startswith(g) for v, g in zip(views, got))
        lagging += sum(v != g for v, g in zip(views, got))
    assert lagging > 1_000
