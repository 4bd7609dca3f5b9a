"""Finite-state transducers with monoid outputs and the constructions on
their state sets: trimming, the epsilon paths out of each state, the
forward and backward power-set automata of a real-time transducer
(subsets are bitmasks), the walk over output cells with the output map
it fills, and run enumeration.  A transducer indexes its moves by
(state, input) once, as Transducer.moves.  Every walk that discovers
its states from a start (the power-set automata, the squared automaton,
the classical expansion, the epsilon closure, which also finds nonunit
epsilon cycles, and run enumeration) numbers them with explore, which
keeps the one state budget, BIMC_MAX_STATES."""

from __future__ import annotations

import math
import os
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .monoid import Monoid, MonoidValue


class StateLimitExceeded(RuntimeError):
    """A walk found more states than BIMC_MAX_STATES allows; the message
    names it: determinize, squared, unambiguous expansion, epsilon
    closure or path enumeration."""


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
    alphabet = tuple(alphabet)
    seen = set()
    for sym in alphabet:
        if not sym or not isinstance(sym, str) or any(c.isspace() for c in sym):
            raise ValueError(f"bad input symbol {sym!r}")
        if sym == "-":
            raise ValueError("the symbol - is reserved for the empty input")
        if sym in seen:
            raise ValueError(f"duplicate input symbol {sym!r}")
        seen.add(sym)
    return alphabet


def is_state(q, n=math.inf) -> bool:
    """Whether q is a state below n: an int (a bool or other subclass may
    not print as its digits) with 0 <= q < n; with n left out, a count."""
    return type(q) is int and 0 <= q < n


class Transition(NamedTuple):
    src: int
    inp: str | None  # None is an epsilon input move
    out: MonoidValue
    dst: int


@dataclass(frozen=True)
class Transducer:
    """States are 0..n_states-1.  Any iterables will do: the alphabet is
    stored as a tuple, the state sets as frozensets.  The transitions are
    (src, inp, out, dst) arcs, Transitions or plain tuples, where out is
    a MonoidValue or a raw payload, wrapped with MonoidValue and so
    checked; they are stored as a tuple of Transitions in declaration
    order (a repeat dropped, the first kept in place), which downstream
    constructions rely on for deterministic tie-breaking, and indexed
    once, on first use, as moves (outside equality, hash and repr)."""

    alphabet: tuple[str, ...]
    monoid: Monoid
    n_states: int
    initial: frozenset[int]
    final: frozenset[int]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", check_symbols(self.alphabet))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))
        seen, n, monoid = set(self.alphabet), self.n_states, self.monoid
        if not is_state(n):
            raise ValueError(f"state count {n!r} is not a non-negative int")
        for q in (*self.initial, *self.final):  # not a union: {1} | {True} drops True
            if not is_state(q, n):
                raise ValueError(f"state {q!r} out of range")
        transitions = {}  # as an ordered set
        for src, inp, out, dst in self.transitions:
            if not isinstance(out, MonoidValue):
                out = MonoidValue(monoid, out)
            tr = Transition(src, inp, out, dst)
            if not (is_state(src, n) and is_state(dst, n)):
                raise ValueError(f"transition endpoint out of range: {tr}")
            if inp is not None and inp not in seen:
                raise ValueError(f"undeclared input symbol {inp!r}")
            if out.monoid is not monoid and out.monoid != monoid:
                raise ValueError(f"output from a different monoid: {tr}")
            transitions[tr] = None
        object.__setattr__(self, "transitions", tuple(transitions))

    @property
    def real_time(self) -> bool:
        return all(tr.inp is not None for tr in self.transitions)

    @cached_property
    def moves(self) -> dict:
        """Each (src, inp) key's [(out, dst)] moves in declaration order,
        inp None for an epsilon move; read it with .get(key, ())."""
        index = {}
        for src, inp, out, dst in self.transitions:
            index.setdefault((src, inp), []).append((out, dst))
        return index


def trusted_transducer(alphabet, monoid, n_states, initial, final, transitions) -> Transducer:
    """A Transducer from valid fields in stored form (a tuple alphabet, frozenset
    state sets, a tuple of distinct Transitions), unchecked: for trim and the reader."""
    t = object.__new__(Transducer)
    values = (alphabet, monoid, n_states, initial, final, transitions)
    for name, value in zip(Transducer.__dataclass_fields__, values):  # in declaration order
        object.__setattr__(t, name, value)
    return t


@dataclass
class Dfa:
    """Partial deterministic automaton produced by determinization.

    States are indices into subsets (discovery order, start first); the
    subsets record which source states each index stands for, as a
    bitmask with bit q for state q, or None for machines read back from
    text; equality ignores them.  delta is partial: missing keys mean
    the transition is undefined, there is no sink state.  The alphabet
    is the bimachine's.
    """

    n_states: int
    start: int
    delta: dict
    subsets: tuple[int, ...] | None = field(default=None, compare=False)


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
    steps_r = defaultdict(list)
    for (ri, a), ri2 in right.delta.items():
        steps_r[a].append((ri, masks_r[ri2], masks_r[ri]))
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
    arcs = tuple(  # renumbering keeps valid, distinct arcs valid and distinct
        Transition(renum[src], inp, out, renum[dst])
        for src, inp, out, dst in t.transitions
        if src in useful and dst in useful
    )
    initial, final = (frozenset(renum[q] for q in s if q in useful) for s in (t.initial, t.final))
    return trusted_transducer(t.alphabet, t.monoid, len(kept), initial, final, arcs), kept


def eps_closure(n_states, eps_arcs, unit):
    """The pure epsilon paths out of each state: outof[q] holds the
    (end, value) pairs of the paths leaving q, in breadth-first
    discovery order from (q, unit), the empty path first.

    eps_arcs are (src, value, dst) and values multiply along a path.
    The lists are complete only when every epsilon cycle multiplies out
    to unit; otherwise the walk stops at the first nonunit path from a
    state q back to q, listed in the cut-short outof[q].  The state
    budget counts the (start, end, value) nodes of all lists together.
    """
    step = defaultdict(list)
    for src, value, dst in eps_arcs:
        step[src].append((value, dst))
    if not step:  # each state reaches only itself
        return [[(q, unit)] for q in range(n_states)]

    cut = False  # set at the first nonunit path back to its start; explore then drains

    def successors(node):
        nonlocal cut
        root, p, v = node
        cut = cut or (p == root and v != unit)
        return () if cut else ((None, (root, dst, v * m)) for m, dst in step[p])

    order, _ = explore([(q, q, unit) for q in range(n_states)], successors, "epsilon closure")
    outof = [[] for _ in range(n_states)]
    for root, p, v in order:
        outof[root].append((p, v))
    return outof


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
        dfas.append(Dfa(len(order), 0, delta, tuple(order)))
    return tuple(dfas)


def enumerate_outputs(t: Transducer, word, max_path_len=None):
    """All outputs of successful paths reading word, found by a direct
    breadth-first walk over raw transitions, whose (state, position,
    output) nodes explore numbers as path enumeration.  Paths are cut
    off after max_path_len transitions (default 2*|Q|*(|word|+1)), which
    is enough to see every output of a functional transducer."""
    word = tuple(word)
    if max_path_len is None:
        max_path_len = 2 * t.n_states * (len(word) + 1)
    depth = {(i, 0, t.monoid.unit): 0 for i in t.initial}  # set when first seen: breadth first

    def successors(node):
        state, pos, out = node
        steps = depth[node] + 1
        if steps > max_path_len:
            return ()
        succ = [(dst, pos, out * m) for m, dst in t.moves.get((state, None), ())]
        if pos < len(word):
            succ += [(dst, pos + 1, out * m) for m, dst in t.moves.get((state, word[pos]), ())]
        for nxt in succ:
            depth.setdefault(nxt, steps)
        return ((None, nxt) for nxt in succ)

    order, _ = explore(list(depth), successors, "path enumeration")
    return {out for state, pos, out in order if pos == len(word) and state in t.final}
