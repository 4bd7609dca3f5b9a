"""Finite-state transducers with monoid outputs and the constructions on
their state sets: trimming, epsilon closure, the forward and backward
power-set automata of a real-time transducer (subsets are bitmasks), and
the walk over output cells with the output map it fills.  Every
construction that discovers its states from a start (the power-set
automata, the squared automaton, the classical expansion) numbers them
with explore, which also enforces the one state budget, BIMC_MAX_STATES."""

from __future__ import annotations

import math
import os
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import NamedTuple

from .monoid import Monoid, MonoidValue


class StateLimitExceeded(RuntimeError):
    """A construction found more states than BIMC_MAX_STATES allows; the
    message names the construction (determinize, squared, unambiguous
    expansion)."""


def explore(starts, successors, what):
    """Breadth-first numbering of the nodes reachable from starts.

    The starts come first, deduplicated, in the order given; every other
    node is numbered when it is first seen.  successors(node) yields
    (label, node) pairs.  Returns (order, arcs): the nodes by number and
    the (src, label, dst) triples in discovery order.  Raises
    StateLimitExceeded, naming what, once more than BIMC_MAX_STATES
    nodes are numbered; the count is checked before each visit, and
    every numbered node gets one, so no result goes past the cap.
    """
    raw = os.environ.get("BIMC_MAX_STATES", "")
    if raw and not raw.isdecimal():
        raise ValueError(f"BIMC_MAX_STATES must be a state count, not {raw!r}")
    cap = int(raw) if raw else math.inf
    order = list(dict.fromkeys(starts))
    index = {node: i for i, node in enumerate(order)}
    arcs = []
    for src, node in enumerate(order):  # order grows while it is read: breadth first
        if len(order) > cap:
            raise StateLimitExceeded(f"{what} exceeded BIMC_MAX_STATES={cap}")
        for label, nxt in successors(node):
            dst = index.get(nxt)
            if dst is None:
                dst = index[nxt] = len(order)
                order.append(nxt)
            arcs.append((src, label, dst))
    return order, arcs


def check_symbols(alphabet) -> tuple:
    """alphabet as a tuple; raises ValueError unless its symbols are
    distinct non-empty strings without whitespace, none of them - (ε)."""
    seen = set()
    for sym in alphabet:
        if not sym or not isinstance(sym, str) or any(c.isspace() for c in sym):
            raise ValueError(f"bad input symbol {sym!r}")
        if sym == "-":
            raise ValueError("the symbol - is reserved for the empty input")
        if sym in seen:
            raise ValueError(f"duplicate input symbol {sym!r}")
        seen.add(sym)
    return tuple(alphabet)


class Transition(NamedTuple):
    src: int
    inp: str | None  # None is an epsilon input move
    out: MonoidValue
    dst: int


@dataclass(frozen=True)
class Transducer:
    """States are 0..n_states-1; transitions keep their declaration order
    (duplicates dropped), which downstream constructions rely on for
    deterministic tie-breaking."""

    alphabet: tuple[str, ...]
    monoid: Monoid
    n_states: int
    initial: frozenset[int]
    final: frozenset[int]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        seen = set(check_symbols(self.alphabet))
        for q in self.initial | self.final:
            if not 0 <= q < self.n_states:
                raise ValueError(f"state {q} out of range")
        for tr in self.transitions:
            if not (0 <= tr.src < self.n_states and 0 <= tr.dst < self.n_states):
                raise ValueError(f"transition endpoint out of range: {tr}")
            if tr.inp is not None and tr.inp not in seen:
                raise ValueError(f"undeclared input symbol {tr.inp!r}")
            if tr.out.monoid is not self.monoid and tr.out.monoid != self.monoid:
                raise ValueError(f"output from a different monoid: {tr}")
        object.__setattr__(self, "transitions", tuple(dict.fromkeys(self.transitions)))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))

    @property
    def real_time(self) -> bool:
        return all(tr.inp is not None for tr in self.transitions)


def make_transducer(alphabet, monoid, n_states, initial, final, arcs) -> Transducer:
    """Convenience constructor wrapping raw output payloads on the fly."""
    transitions = []
    for src, inp, out, dst in arcs:
        if not isinstance(out, MonoidValue):
            out = MonoidValue(monoid, out)
        transitions.append(Transition(src, inp, out, dst))
    return Transducer(
        tuple(alphabet), monoid, n_states, frozenset(initial), frozenset(final), tuple(transitions)
    )


@dataclass
class Dfa:
    """Partial deterministic automaton produced by determinization.

    States are indices into subsets (discovery order, start first); the
    subsets record which source states each index stands for, as a
    bitmask with bit q for state q, or None for machines read back from
    text.  delta is partial: missing keys mean the transition is
    undefined, there is no sink state.
    """

    alphabet: tuple[str, ...]
    n_states: int
    start: int
    delta: dict
    subsets: tuple[int, ...] | None = None


def members(mask):
    """The states of a bitmask-encoded state set, ascending."""
    states = []
    while mask:
        low = mask & -mask  # the lowest set bit
        states.append(low.bit_length() - 1)
        mask ^= low
    return tuple(states)


def output_cells(left: Dfa, right: Dfa):
    """Every bimachine output cell (li, a, ri) at which some state is
    both reachable along li and co-reachable along ri after a.

    left and right are the two subset automata of one transducer, as
    determinize returns them.  Yields (li, a, ri, s, l2, r) where the
    intersection sets are bitmasks over source states: s before the
    a-step and l2 & r after it.  The second is left to output_map: the bare
    cell count in benchmark skips it, as on the classical construction's
    large masks it would add about a third to the cost of the count.
    A state in s has an a-successor, so the left a-step always exists.
    """
    masks_l, masks_r = left.subsets, right.subsets
    steps_r = {a: [] for a in left.alphabet}
    for ri in range(right.n_states):
        for a, moves in steps_r.items():
            ri2 = right.delta.get((ri, a))
            if ri2 is not None:
                moves.append((ri, masks_r[ri2], masks_r[ri]))
    for li, lm in enumerate(masks_l):
        for a, moves in steps_r.items():
            li2 = left.delta.get((li, a))
            if li2 is None:
                continue
            lm2 = masks_l[li2]
            for ri, rm2, rm in moves:
                s = lm & rm2
                if s:
                    yield li, a, ri, s, lm2, rm


def output_map(left: Dfa, right: Dfa, entry) -> dict:
    """The output map psi over output_cells(left, right), where
    entry(cell, s, s2) gives cell (li, a, ri) its value from the
    intersection sets s before the a-step and s2 after it.  entry must
    depend on (s, a, s2) alone: it runs at the first cell of each
    distinct triple in walk order, and later cells share that value."""
    psi, solved = {}, {}
    for li, a, ri, s, l2, r in output_cells(left, right):
        key = (s, a, l2 & r)
        value = solved.get(key)
        if value is None:
            value = solved[key] = entry((li, a, ri), s, key[2])
        psi[li, a, ri] = value
    return psi


def move_index(transitions) -> dict:
    """The moves of (src, inp, out, dst) tuples by (src, inp), each key's
    [(out, dst)] list in the order given; inp is None for an epsilon
    move.  Read it with .get(key, ())."""
    index = {}
    for src, inp, out, dst in transitions:
        index.setdefault((src, inp), []).append((out, dst))
    return index


def reachable(seeds, adj) -> set:
    """The seeds and everything reachable from them, where adj maps a
    state to its successors (a defaultdict, or total on the states)."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def trim(t: Transducer):
    """Restrict to states both accessible and co-accessible.

    Returns (trimmed, kept) where kept maps new indices to old ones.
    """
    fwd = defaultdict(set)
    bwd = defaultdict(set)
    for tr in t.transitions:
        fwd[tr.src].add(tr.dst)
        bwd[tr.dst].add(tr.src)
    useful = reachable(t.initial, fwd) & reachable(t.final, bwd)
    kept = sorted(useful)
    renum = {old: new for new, old in enumerate(kept)}
    arcs = [
        Transition(renum[tr.src], tr.inp, tr.out, renum[tr.dst])
        for tr in t.transitions
        if tr.src in useful and tr.dst in useful
    ]
    trimmed = Transducer(
        t.alphabet,
        t.monoid,
        len(kept),
        frozenset(renum[q] for q in t.initial if q in useful),
        frozenset(renum[q] for q in t.final if q in useful),
        tuple(arcs),
    )
    return trimmed, kept


def eps_closure(n_states, eps_arcs, unit):
    """The pure epsilon paths between states, listed both ways: returns
    (outof, into) where outof[q] holds the (end, value) pairs of the
    paths leaving q, in breadth-first discovery order from (q, unit),
    and into[q] the (start, value) pairs of the paths ending at q.

    eps_arcs are (src, value, dst) and values multiply along a path.
    The lists are finite only when every epsilon cycle multiplies out
    to unit; callers without outputs label every arc 1, the trivial
    monoid.
    """
    step = defaultdict(list)
    for src, value, dst in eps_arcs:
        step[src].append((value, dst))
    if not step:  # each state reaches only itself; callers only read the lists
        alone = [[(q, unit)] for q in range(n_states)]
        return alone, alone
    outof = []
    into = [[] for _ in range(n_states)]
    for q in range(n_states):
        items = [(q, unit)]
        seen = set(items)
        for p, v in items:  # items grows while it is read: breadth first
            into[p].append((q, v))
            for m, dst in step[p]:
                node = (dst, v * m)
                if node not in seen:
                    seen.add(node)
                    items.append(node)
        outof.append(items)
    return outof, into


def determinize(t: Transducer) -> tuple[Dfa, Dfa]:
    """The accessible power-set automata of real-time t's input
    projection, (left, right): left reads forward from the initial
    states, right reads backward from the final ones, each starting at
    the raw set.  Raises ValueError on an epsilon move."""
    if not t.real_time:
        raise ValueError("determinize needs a real-time transducer")
    # per state and symbol, the successors (predecessors, for right) as a mask
    fwd = [{} for _ in range(t.n_states)]
    bwd = [{} for _ in range(t.n_states)]
    for tr in t.transitions:
        fwd[tr.src][tr.inp] = fwd[tr.src].get(tr.inp, 0) | 1 << tr.dst
        bwd[tr.dst][tr.inp] = bwd[tr.dst].get(tr.inp, 0) | 1 << tr.src
    dfas = []
    for start, step in ((t.initial, fwd), (t.final, bwd)):
        def images(subset):
            image = {}
            for q in members(subset):
                for sym, mask in step[q].items():
                    image[sym] = image.get(sym, 0) | mask
            return ((sym, image[sym]) for sym in t.alphabet if sym in image)

        order, arcs = explore([sum(1 << q for q in start)], images, "determinize")
        assert len(order) <= 2 ** t.n_states
        delta = {(src, sym): dst for src, sym, dst in arcs}
        dfas.append(Dfa(t.alphabet, len(order), 0, delta, tuple(order)))
    return tuple(dfas)


def enumerate_outputs(t: Transducer, word, max_path_len=None):
    """All outputs of successful paths reading word, found by a direct
    breadth-first walk over raw transitions.  Paths are cut off after
    max_path_len transitions (default 2*|Q|*(|word|+1)), which is enough
    to see every output of a functional transducer."""
    word = tuple(word)
    if max_path_len is None:
        max_path_len = 2 * t.n_states * (len(word) + 1)
    moves = move_index(t.transitions)
    outputs = set()
    seen = set()
    queue = deque()
    for i in t.initial:
        node = (i, 0, t.monoid.unit)
        if node not in seen:
            seen.add(node)
            queue.append((node, 0))
    while queue:
        (state, pos, out), steps = queue.popleft()
        if pos == len(word) and state in t.final:
            outputs.add(out)
        if steps >= max_path_len:
            continue
        succ = [(pos, out * m, dst) for m, dst in moves.get((state, None), ())]
        if pos < len(word):
            succ += [(pos + 1, out * m, dst) for m, dst in moves.get((state, word[pos]), ())]
        for npos, nout, dst in succ:
            node = (dst, npos, nout)
            if node not in seen:
                seen.add(node)
                queue.append((node, steps + 1))
    return outputs
