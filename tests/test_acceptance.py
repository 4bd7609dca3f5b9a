"""Acceptance gate: eight criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every
criterion also asserts, so a plain pytest run fails loudly.  Seeds are
fixed so the randomized batches are reproducible.
"""

import random
import time
from collections import Counter

from bimc.benchmark import make_tn, run_bench
from bimc.bimachine import evaluate
from bimc.classical import classical_compile, unambiguous_expand
from bimc.compiler import CompileError, compile as build
from bimc.functionality import test_functionality as functionality
from bimc.monoid import (
    FreeWords,
    eta,
    gamma_n,
    solve_right,
)
from bimc.squared import squared
from helpers import (
    TRANSDUCER_MONOIDS,
    all_words,
    functional_draws,
    is_instance_of,
    mu_n,
    output_table,
    random_transducer,
    random_value,
)

STATS = {"criterion1_compiles": 0, "criterion3_compiles": 0}


def _line(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_tn_counts_new_construction():
    started = time.perf_counter()
    wrong = []
    for n in range(1, 8):
        b = build(make_tn(n))  # verify=True by default
        STATS["criterion1_compiles"] += 1
        if b.left.n_states != 3 or b.right.n_states != 2 ** n + n:
            wrong.append((n, b.left.n_states, b.right.n_states))
    elapsed = time.perf_counter() - started
    ok = not wrong and elapsed < 10
    _line(
        1, ok,
        f"T_1..T_7 equalizer construction: left exactly 3, right exactly 2^n+n, "
        f"{elapsed:.2f}s (budget 10s)" + (f"; mismatches {wrong}" if wrong else ""),
    )


def test_criterion_2_tn_counts_classical_construction():
    started = time.perf_counter()
    rows = {r.n: r for r in run_bench(6, methods=("classical",))}
    wrong = []
    for n in range(2, 7):
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        r = rows[n]
        if not (
            r.intermediate_states >= (2 * n + 3) * 2 ** (n - 2)
            and r.left_states >= fact + 2
            and r.right_states >= 2 ** n + n
        ):
            wrong.append((n, r.intermediate_states, r.left_states, r.right_states))
    elapsed = time.perf_counter() - started
    ok = not wrong and elapsed < 60
    _line(
        2, ok,
        f"T_2..T_6 classical construction: expansion >= (2n+3)2^(n-2), left >= n!+2, "
        f"right >= 2^n+n, {elapsed:.2f}s (budget 60s)"
        + (f"; violations {wrong}" if wrong else ""),
    )


MGE_INSTANCES = (FreeWords(("x", "y")),) + TRANSDUCER_MONOIDS[1:]


def test_criterion_3_compiled_machines_match_path_oracle():
    rng = random.Random(31337)
    samples = []
    eps_kept = Counter()  # samples whose trimmed machine keeps an ε move, per monoid
    for monoid in TRANSDUCER_MONOIDS:
        for with_eps in (False, True):
            for t, verdict in functional_draws(rng, 100, monoid, eps=with_eps):
                samples.append((t, verdict))
                eps_kept[monoid] += not verdict.trimmed.real_time
    mismatches = 0
    words_checked = 0
    for t, verdict in samples:
        b = build(t, verdict=verdict)  # verify=True by default
        STATS["criterion3_compiles"] += 1
        table, truncated = output_table(t, 5)
        assert not truncated
        for w in all_words(t.alphabet, 5):
            outs = table.get(w, set())
            want = next(iter(outs), None) if len(outs) == 1 else None
            if len(outs) > 1 or evaluate(b, w) != want:
                mismatches += 1
            words_checked += 1
    ok = mismatches == 0 and min(eps_kept[m] for m in TRANSDUCER_MONOIDS) >= 40
    _line(
        3, ok,
        f"{len(samples)} random functional transducers with a transition over free "
        f"words, rationals, integers and a nested product (half with eps moves, of "
        f"which {sorted(eps_kept.values())} per monoid keep one after trimming), "
        f"{words_checked} words of length <= 5 against the path oracle, "
        f"{mismatches} mismatches",
    )


def test_criterion_4_functionality_verdict_vs_bounded_oracle():
    rng = random.Random(424242)
    counts = []  # (functional, rejected, rejected with a conflict) per monoid
    disagreements = 0
    for monoid in TRANSDUCER_MONOIDS:
        n_functional = n_rejected = n_conflicts = 0
        for k in range(500):
            t = random_transducer(rng, allow_eps=(k % 2 == 0), monoid=monoid)
            verdict = functionality(t)
            table, truncated = output_table(
                t, 6,
                node_cap=None if verdict.functional else 300_000,
                stop_on_conflict=not verdict.functional,
            )
            conflict = any(len(outs) > 1 for outs in table.values())
            if verdict.functional:
                n_functional += 1
                if conflict or truncated:
                    disagreements += 1
            else:
                n_rejected += 1
                n_conflicts += conflict
        counts.append((n_functional, n_rejected, n_conflicts))
    mixed = all(f > 100 and r > 100 and c > 50 for f, r, c in counts)
    ok = disagreements == 0 and mixed
    _line(
        4, ok,
        f"500 random transducers per output monoid vs path outputs on words <= 6: "
        f"functional / rejected / rejected with a conflict inside the bound "
        f"{'; '.join(f'{f}/{r}/{c}' for f, r, c in counts)}, {disagreements} disagreements",
    )


def test_criterion_5_mge_algebra_property_suite():
    rng = random.Random(5150)
    failures = 0
    cases = 0
    for m in MGE_INSTANCES:
        unit = m.unit
        for _ in range(10_000):
            cases += 1
            a, b, c = (random_value(rng, m, 3) for _ in range(3))
            if rng.random() < 0.5:
                b = a
            failures += (a * b) * c != a * (b * c)
            failures += a * unit != a or unit * a != a
            failures += (a * c == b * c) != (a == b)
            failures += solve_right(a, a * c) != c
            d = random_value(rng, m, 3)
            s = solve_right(a, d)
            failures += s is not None and a * s != d
            h = eta(a, b)
            if h is None:
                for _ in range(4):
                    x1 = random_value(rng, m, 2)
                    failures += solve_right(b, a * x1) is not None
            else:
                failures += a * h[0] != b * h[1]
                failures += b == a and h != (unit, unit)
                for _ in range(4):
                    x1 = random_value(rng, m, 2)
                    x2 = solve_right(b, a * x1)
                    failures += x2 is not None and not is_instance_of(h, (x1, x2))
            k = rng.randint(1, 4)
            vals = [random_value(rng, m, 2) for _ in range(k)]
            chain = [eta(vals[i], vals[i + 1]) for i in range(k - 1)]
            mu = mu_n(vals)
            if any(link is None for link in chain):
                failures += mu is not None
            else:
                failures += gamma_n(chain, m) != mu
    ok = failures == 0
    _line(
        5, ok,
        f"{cases} randomized cases over 4 instances (free words, rationals, integers, "
        f"nested product): laws, cancellation, eta-mge instance checks, mu=gamma, "
        f"solve_right; {failures} failures",
    )


def test_criterion_6_squared_transition_bound():
    rng = random.Random(600)
    violations = 0
    for _ in range(100):
        t = random_transducer(rng, allow_eps=True, require_eps=True)
        sq = squared(t)
        per_symbol = Counter(tr.inp for tr in t.transitions if tr.inp is not None)
        n_eps = sum(1 for tr in t.transitions if tr.inp is None)
        bound = sum(k * k for k in per_symbol.values()) + 2 * t.n_states * n_eps
        violations += len(sq.transitions) > bound
    ok = violations == 0
    _line(
        6, ok,
        f"100 random transducers with eps moves: squared transitions within "
        f"sum(|D_a|^2) + 2|Q||D_eps|, {violations} violations",
    )


def test_criterion_7_output_entries_well_defined():
    rng = random.Random(777)
    violations = 0
    compiles = 0
    eps_kept = Counter()  # per monoid, machines whose trimmed input keeps an eps move
    for n in range(1, 6):
        build(make_tn(n), verify=True)
        compiles += 1
    for monoid in TRANSDUCER_MONOIDS:
        for with_eps in (False, True):
            for t, verdict in functional_draws(rng, 25, monoid, eps=with_eps):
                try:
                    build(t, verdict=verdict, verify=True)
                except CompileError:
                    violations += 1
                eps_kept[monoid] += not verdict.trimmed.real_time
                compiles += 1
    ok = violations == 0 and min(eps_kept[m] for m in TRANSDUCER_MONOIDS) >= 10
    _line(
        7, ok,
        f"every output entry cross-checked over all connecting transitions: "
        f"{compiles} standalone verified compiles of nonempty machines, "
        f"{sorted(eps_kept.values())} per monoid with eps moves (floor 10), plus "
        f"verification enabled in criteria 1 and 3 ({STATS['criterion1_compiles']} + "
        f"{STATS['criterion3_compiles']} compiles recorded there), {violations} violations",
    )


def test_criterion_8_dfa_size_bound():
    rng = random.Random(888)
    checked = 0
    violations = 0

    def note(dfa, source_states):
        nonlocal checked, violations
        checked += 1
        violations += dfa.n_states > 2 ** source_states

    for n in range(1, 6):
        t = make_tn(n)
        verdict = functionality(t)
        b = build(t, verdict=verdict)
        note(b.left, verdict.trimmed.n_states)
        note(b.right, verdict.trimmed.n_states)
        if n <= 4:
            expanded = unambiguous_expand(t).transducer
            cb = classical_compile(t)
            note(cb.left, expanded.n_states)
            note(cb.right, expanded.n_states)
    eps_kept = 0
    for with_eps in (False, True):
        for t, verdict in functional_draws(rng, 75, eps=with_eps):
            b = build(t, verdict=verdict)
            note(b.left, verdict.trimmed.n_states)
            note(b.right, verdict.trimmed.n_states)
            eps_kept += not verdict.trimmed.real_time
    ok = violations == 0 and eps_kept >= 40
    _line(
        8, ok,
        f"{checked} subset automata all within 2^|Q| of their source transducer "
        f"(also asserted inline at every determinization), of 150 nonempty random "
        f"machines {eps_kept} with eps moves (floor 40), {violations} violations",
    )
