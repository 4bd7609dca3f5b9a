"""The baseline bimachine construction, over any output monoid.

Starting from a transducer that is deterministic over the paired
alphabet of (input symbol, output value), the input is first expanded
into an unambiguous transducer: each expanded state carries one guessed
state of the successful path plus the set of alternative states that
must all fail for the guess to be right.  Its two subset automata form
the bimachine; each intersection set holds one state, and that state's
one move into the next set gives the output entry: no output algebra.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .bimachine import Bimachine
from .fsa import (
    Transducer, Transition, determinize, explore, members, move_index, output_map, trim,
)


def check_pseudo_deterministic(t: Transducer) -> bool:
    """True when t is a deterministic automaton over (symbol, output)
    pairs: a single initial state and at most one target per labeled move.
    Output-nondeterminism (same source and symbol, different outputs) is
    allowed; that is what the expansion resolves."""
    if not t.real_time or len(t.initial) != 1:
        return False
    target = {}
    for tr in t.transitions:
        key = (tr.src, tr.inp, tr.out)
        if target.setdefault(key, tr.dst) != tr.dst:
            return False
    return True


@dataclass(frozen=True)
class ExpandedTransducer:
    """The unambiguous expansion: state i of transducer stands for the
    (guessed state, failing alternatives) pair pairs[i]."""

    transducer: Transducer
    pairs: tuple[tuple[int, frozenset[int]], ...]

    def __post_init__(self):
        assert len(self.pairs) == self.transducer.n_states
        for p, neg in self.pairs:
            assert p not in neg, "a guess must not be its own alternative"


def unambiguous_expand(t: Transducer) -> ExpandedTransducer:
    """Resolve output-nondeterminism by guessing the successful path.

    From (p, N) every transition (p, a, v, p') spawns (p', N') where N'
    collects the a-successors of N plus the targets of the a-moves from p
    whose output payload is smaller than v's by <, the payload order of
    the monoid; the move is dropped when the target itself lands in N'.
    Finals are guesses that reached a final state while every
    alternative missed.  The result is trimmed.
    """
    if not check_pseudo_deterministic(t):
        raise ValueError("input must be deterministic over (symbol, output) pairs")
    by_src = defaultdict(list)
    for tr in t.transitions:
        by_src[tr.src].append(tr)
    moves = move_index(t.transitions)

    def successors(node):
        p, neg_set = node
        for tr in by_src[p]:
            neg = {dst for q in neg_set for _, dst in moves.get((q, tr.inp), ())}
            key = tr.out.payload
            neg.update(dst for out, dst in moves[(p, tr.inp)] if out.payload < key)
            if tr.dst not in neg:
                yield tr, (tr.dst, frozenset(neg))

    start = (next(iter(t.initial)), frozenset())
    pairs, arcs = explore([start], successors, "unambiguous expansion")
    arcs = tuple(Transition(src, tr.inp, tr.out, dst) for src, tr, dst in arcs)
    finals = frozenset(
        i for i, (p, neg) in enumerate(pairs) if p in t.final and not (neg & t.final)
    )
    expanded = Transducer(t.alphabet, t.monoid, len(pairs), frozenset({0}), finals, arcs)
    trimmed, kept = trim(expanded)
    return ExpandedTransducer(trimmed, tuple(pairs[old] for old in kept))


def classical_compile(t: Transducer) -> Bimachine:
    """Expand, determinize both directions, and read the output map off
    the expansion: a set holding two states would give one word two
    successful paths, and the expansion is unambiguous."""
    tt = unambiguous_expand(t).transducer
    left, right = determinize(tt)
    moves = move_index(tt.transitions)

    def entry(cell, s, s2):
        (p,) = members(s)
        (v,) = [out for out, dst in moves[p, cell[1]] if s2 >> dst & 1]
        return v

    psi = output_map(left, right, entry)
    eps_out = tt.monoid.unit if (tt.initial & tt.final) else None
    return Bimachine(tt.monoid, tt.alphabet, left, right, psi, eps_out)
