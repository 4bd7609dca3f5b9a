"""The baseline bimachine construction for word-output transducers.

Starting from a transducer that is deterministic over the paired
alphabet of (input symbol, output word), the input is first expanded
into an unambiguous transducer: each expanded state carries one guessed
state of the successful path plus the set of alternative states that
must all fail for the guess to be right.  Determinizing the expansion
forward and backward then yields a bimachine whose output map reads the
unique surviving transition's word directly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .bimachine import Bimachine
from .fsa import (
    Transducer, Transition, determinize, explore, members, move_index, output_map, trim,
)
from .monoid import DescriptorMismatch, FreeWords


def check_pseudo_deterministic(t: Transducer) -> bool:
    """True when t is a deterministic automaton over (symbol, output word)
    pairs: a single initial state and at most one target per labeled move.
    Output-nondeterminism (same source and symbol, different words) is
    allowed; that is what the expansion resolves."""
    if not isinstance(t.monoid, FreeWords):
        raise DescriptorMismatch("the baseline construction needs free word outputs")
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
    collects the a-successors of N plus the targets of lexicographically
    smaller outputs from p; the move is dropped when the target itself
    lands in N'.  Finals are guesses that reached a final state while
    every alternative missed.  The result is trimmed.
    """
    if not check_pseudo_deterministic(t):
        raise ValueError("input must be deterministic over (symbol, output word) pairs")
    lex = t.monoid.lex_key
    by_src = defaultdict(list)
    for tr in t.transitions:
        by_src[tr.src].append(tr)
    moves = move_index(t.transitions)

    def successors(node):
        p, neg_set = node
        for tr in by_src[p]:
            neg = {dst for q in neg_set for _, dst in moves.get((q, tr.inp), ())}
            key = lex(tr.out.payload)
            neg.update(dst for out, dst in moves[(p, tr.inp)] if lex(out.payload) < key)
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
    the expansion: by unambiguity exactly one transition survives between
    any reachable set and co-reachable set, and its word is the entry."""
    tt = unambiguous_expand(t).transducer
    left, right = determinize(tt)
    moves = move_index(tt.transitions)

    def entry(cell, s, s2):
        v = None
        for p in members(s):
            for out, dst in moves.get((p, cell[1]), ()):
                if s2 >> dst & 1:
                    assert v is None or v == out, "expansion left two choices"
                    v = out
        assert v is not None, "no transition between intersection sets"
        return v

    psi = output_map(left, right, entry)
    eps_out = tt.monoid.unit if (tt.initial & tt.final) else None
    return Bimachine(tt.monoid, tt.alphabet, left, right, psi, eps_out)
