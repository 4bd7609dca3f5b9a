"""Seeded input generators owned by the benchmark.

Every input the program sees is made here, as transducer text or as a
raw input string, from a `random.Random` seeded with a string; string
seeds hash the same in every process, so the same seed gives
byte-identical inputs.  The transducers are fixed (T_n by definition,
the lookahead transducer and the random corpus by a constant seed), so
machine sizes repeat exactly; the run's --seed picks the words and the
order of the corpus.  Nothing here imports bimc: the T_n family is
rebuilt from its definition, so the inputs cannot drift with the
program's own copy of it.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from oracle import INTGRP, NNRAT, descriptor, fmt, free, product


@dataclass(frozen=True)
class Spec:
    """A transducer as the benchmark knows it.  arcs are
    (src, symbol or None for the empty input, payload, dst)."""

    kind: tuple
    alphabet: tuple
    n_states: int
    initial: tuple
    final: tuple
    arcs: tuple

    def text(self) -> str:
        lines = [
            f"monoid {descriptor(self.kind)}",
            "alphabet " + " ".join(self.alphabet),
            f"states {self.n_states}",
            "initial " + " ".join(map(str, self.initial)),
            "final " + " ".join(map(str, self.final)),
        ]
        for src, inp, out, dst in self.arcs:
            sym = "-" if inp is None else inp
            lines.append(f"t {src} {sym} {fmt(self.kind, out)} {dst}")
        return "\n".join(lines) + "\n"


def _dedup(arcs):
    return tuple(dict.fromkeys(arcs))


def tn_spec(n: int) -> Spec:
    """T_n: states s=0, q_1..q_n, f=n+1 over a1..an, with outputs words
    over the letter 1.  The first letter guesses q_i paying i-1, middle
    letters shuffle the q-index paying about n each, and the last letter
    a_j may enter f only from q_i with j <= i."""

    def pay(k):
        return "1" * k

    s, f = 0, n + 1
    a = [f"a{j}" for j in range(n + 1)]
    arcs = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            arcs.append((s, a[j], pay(i - 1), i))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == 1:
                arcs.append((i, a[j], pay(n + j - 1), j))
            elif i == j:
                arcs.append((i, a[j], pay(n - j + 1), 1))
            else:
                arcs.append((i, a[j], pay(n), i))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            arcs.append((i, a[j], pay(2 * n - i + 1), f))
    return Spec(free("1"), tuple(a[1:]), n + 2, (s,), (f,), _dedup(arcs))


LOOKAHEAD_KIND = product(NNRAT, INTGRP)


def lookahead_spec() -> Spec:
    """A functional, non-sequential product(nnrat,intgrp) transducer:
    every letter's integer output depends on the word's last letter,
    which the transducer guesses on the first letter.  States: 0 start,
    1..3 one guess per letter, 4 final.  The domain is every nonempty
    word.  The rational output of a letter does not depend on the guess,
    so the cost of adding rationals is the same whatever the last letter."""
    rng = random.Random("lookahead")
    sigma = ("a", "b", "c")
    rational = {"a": Fraction(1, 2), "b": Fraction(2, 3), "c": Fraction(5, 6)}
    value = {(g, x): (rational[x], rng.randint(-5, 5)) for g in sigma for x in sigma}
    final = 4
    arcs = []
    for gi, g in enumerate(sigma, start=1):
        for x in sigma:
            arcs.append((0, x, value[(g, x)], gi))
            arcs.append((gi, x, value[(g, x)], gi))
            if x == g:
                arcs.append((0, x, value[(g, x)], final))
                arcs.append((gi, x, value[(g, x)], final))
    return Spec(LOOKAHEAD_KIND, sigma, 5, (0,), (final,), _dedup(arcs))


# Corpus members cycle through the monoid kinds and shapes so that
# every corpus has the same mix whatever the seed.
CORPUS_KINDS = (
    free("xy"),
    NNRAT,
    INTGRP,
    product(NNRAT, INTGRP),
    product(free("xy"), INTGRP),
)
CORPUS_SHAPES = ("real-time", "eps", "acyclic")


def _random_payload(rng, kind):
    tag = kind[0]
    if tag == "free":
        return "".join(rng.choice(kind[1]) for _ in range(rng.randint(0, 2)))
    if tag == "nnrat":
        return Fraction(rng.randint(0, 4), rng.randint(1, 2))
    if tag == "intgrp":
        return rng.randint(-2, 2)
    return (_random_payload(rng, kind[1]), _random_payload(rng, kind[2]))


def random_member(rng, kind, shape) -> Spec:
    """One small random transducer.  eps members carry empty-input arcs;
    acyclic members only move to higher states, which is where final
    pairs that disagree only at the end (final-imbalance) come from."""
    n = rng.randint(2, 5)
    sigma = ("a", "b", "c")[: rng.randint(1, 3)]
    arcs = []
    for _ in range(rng.randint(1, n + 2)):
        src, dst = rng.randrange(n), rng.randrange(n)
        if shape == "acyclic":
            if src == dst:
                continue
            src, dst = min(src, dst), max(src, dst)
        inp = None if shape == "eps" and rng.random() < 0.25 else rng.choice(sigma)
        arcs.append((src, inp, _random_payload(rng, kind), dst))
    if shape == "eps" and not any(arc[1] is None for arc in arcs):
        src, dst = rng.randrange(n), rng.randrange(n)
        arcs.append((src, None, _random_payload(rng, kind), dst))
    initial = set(rng.sample(range(n), rng.randint(1, min(2, n))))
    final = set(rng.sample(range(n), rng.randint(1, min(2, n))))
    # a spine of symbol arcs from an initial to a final state keeps most
    # domains nonempty
    inner = [rng.randrange(n) for _ in range(rng.randint(0, 2))]
    if shape == "acyclic":
        initial.add(0)
        final.add(n - 1)
        spine = sorted({0, n - 1, *inner})
    else:
        spine = [min(initial), *inner, max(final)]
    for src, dst in zip(spine, spine[1:]):
        arcs.append((src, rng.choice(sigma), _random_payload(rng, kind), dst))
    return Spec(kind, sigma, n, tuple(sorted(initial)), tuple(sorted(final)), _dedup(arcs))


def corpus(size: int) -> list[Spec]:
    rng = random.Random("corpus")
    return [
        random_member(
            rng,
            CORPUS_KINDS[i % len(CORPUS_KINDS)],
            CORPUS_SHAPES[(i // len(CORPUS_KINDS)) % len(CORPUS_SHAPES)],
        )
        for i in range(size)
    ]


def random_word(rng, alphabet, length: int) -> tuple:
    return tuple(rng.choice(alphabet) for _ in range(length))


def domain_word(rng, spec: Spec, length: int) -> tuple:
    """A word of the given length that some successful path reads,
    chosen uniformly among the symbols that keep one possible at each
    step; a uniform random word when no such word exists.  Uses only
    the arc structure, not the outputs."""
    eps = defaultdict(set)
    eps_back = defaultdict(set)
    step = defaultdict(set)
    back = defaultdict(set)
    for src, inp, _, dst in spec.arcs:
        if inp is None:
            eps[src].add(dst)
            eps_back[dst].add(src)
        else:
            step[(src, inp)].add(dst)
            back[(dst, inp)].add(src)

    def reach(states, adj):
        seen = set(states)
        stack = list(seen)
        while stack:
            for q in adj[stack.pop()]:
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        return seen

    # finish[k]: states that reach a final state reading exactly k symbols
    finish = [reach(spec.final, eps_back)]
    for _ in range(length):
        prev = finish[-1]
        finish.append(reach({p for (q, a), ps in back.items() if q in prev for p in ps}, eps_back))
    current = reach(spec.initial, eps)
    if not current & finish[length]:
        return random_word(rng, spec.alphabet, length)
    word = []
    for k in range(length, 0, -1):
        options = []
        for a in spec.alphabet:
            nxt = reach({d for q in current for d in step[(q, a)]}, eps)
            if nxt & finish[k - 1]:
                options.append((a, nxt))
        a, current = options[rng.randrange(len(options))]
        word.append(a)
    return tuple(word)
