"""The benchmark's own oracle.

Nothing here imports bimc.  Output values are plain payloads (str for
free words, Fraction for non-negative rationals, int for integers, and
pairs of these for products), combined by the benchmark's own
arithmetic and printed in the text form bimc uses, so a program output
is checked by comparing its printed form with the oracle's.

Two oracles are provided: the closed form of the T_n family, and a
walk over a transducer's raw transitions that collects every output of
every input word up to a length.
"""

from __future__ import annotations

from collections import defaultdict, deque
from fractions import Fraction

# a monoid kind is ("free", letters) | ("nnrat",) | ("intgrp",) | ("product", kind, kind)
NNRAT = ("nnrat",)
INTGRP = ("intgrp",)


def free(letters: str):
    return ("free", letters)


def product(left, right):
    return ("product", left, right)


def descriptor(kind) -> str:
    tag = kind[0]
    if tag == "free":
        return "free:" + kind[1]
    if tag == "product":
        return f"product({descriptor(kind[1])},{descriptor(kind[2])})"
    return tag


def unit(kind):
    tag = kind[0]
    if tag == "free":
        return ""
    if tag == "nnrat":
        return Fraction(0)
    if tag == "intgrp":
        return 0
    return (unit(kind[1]), unit(kind[2]))


def mul(kind, a, b):
    if kind[0] == "product":
        return (mul(kind[1], a[0], b[0]), mul(kind[2], a[1], b[1]))
    return a + b


def fmt(kind, a) -> str:
    tag = kind[0]
    if tag == "free":
        return f'"{a}"'
    if tag == "product":
        return f"({fmt(kind[1], a[0])},{fmt(kind[2], a[1])})"
    return str(a)


def has_free(kind) -> bool:
    if kind[0] == "product":
        return has_free(kind[1]) or has_free(kind[2])
    return kind[0] == "free"


def tn_output(n: int, length: int):
    """Printed output of T_n on any word of the given length: 1^{n*length}
    exactly when the word has at least two letters, otherwise undefined
    (None)."""
    if length < 2:
        return None
    return '"' + "1" * (n * length) + '"'


class Walk:
    """Breadth-first walk over a spec's raw transitions.

    A configuration is (state, output so far).  Only states that can
    still reach a final state are kept, so dead branches never grow.
    A set of configurations is cut at `cap` entries: a nonunit empty-input
    cycle would otherwise make it infinite, and a nonfunctional transducer
    can make it grow exponentially with the word.  A functional one never
    reaches the cap, since it has one output per state and word.  Cut sets are flagged in
    `truncated`; every configuration kept is still a real path, so a
    conflict found in a cut set is real.  Configuration sets are dicts
    filled in a fixed order, so what a cut keeps does not depend on
    string hashing.
    """

    def __init__(self, spec, cap: int = 64):
        self.kind = spec.kind
        self.final = frozenset(spec.final)
        self.cap = cap
        self.truncated = False
        into = defaultdict(set)
        for src, _, _, dst in spec.arcs:
            into[dst].add(src)
        alive = set(spec.final)
        stack = list(alive)
        while stack:
            for p in into[stack.pop()]:
                if p not in alive:
                    alive.add(p)
                    stack.append(p)
        self.eps = defaultdict(list)
        self.sym = defaultdict(list)
        for src, inp, out, dst in spec.arcs:
            if dst not in alive:
                continue
            if inp is None:
                self.eps[src].append((out, dst))
            else:
                self.sym[(src, inp)].append((out, dst))
        self.start = self._close(
            dict.fromkeys((q, unit(self.kind)) for q in sorted(spec.initial) if q in alive)
        )

    def _close(self, configs: dict) -> dict:
        """Extend configs along empty-input arcs, breadth first."""
        queue = deque(configs)
        kind = self.kind
        while queue:
            q, v = queue.popleft()
            for out, dst in self.eps[q]:
                node = (dst, mul(kind, v, out))
                if node in configs:
                    continue
                if len(configs) >= self.cap:
                    self.truncated = True
                    return configs
                configs[node] = None
                queue.append(node)
        return configs

    def step(self, configs, symbol):
        kind = self.kind
        nxt = {}
        for q, v in configs:
            for out, dst in self.sym[(q, symbol)]:
                if len(nxt) >= self.cap:
                    self.truncated = True
                    return self._close(nxt)
                nxt[(dst, mul(kind, v, out))] = None
        return self._close(nxt)

    def outputs(self, configs):
        """Printed outputs of the configurations that are final."""
        return {fmt(self.kind, v) for q, v in configs if q in self.final}

    def run(self, word):
        configs = self.start
        for symbol in word:
            if not configs:
                break
            configs = self.step(configs, symbol)
        return self.outputs(configs)

    def table(self, alphabet, max_len, stop_on_conflict=False):
        """word -> set of printed outputs, for every word up to max_len
        (words with no output are left out).  With stop_on_conflict the
        walk ends at the first word with two outputs."""
        table = {}
        layer = [((), self.start)]
        for length in range(max_len + 1):
            nxt = []
            for word, configs in layer:
                outs = self.outputs(configs)
                if outs:
                    table[word] = outs
                    if stop_on_conflict and len(outs) > 1:
                        return table
                if length < max_len:
                    for symbol in alphabet:
                        c = self.step(configs, symbol)
                        if c:
                            nxt.append((word + (symbol,), c))
            layer = nxt
        return table


def find_conflict(spec, max_len):
    """The first word up to max_len with two distinct outputs, or None."""
    table = Walk(spec).table(spec.alphabet, max_len, stop_on_conflict=True)
    for word, outs in table.items():
        if len(outs) > 1:
            return word
    return None
