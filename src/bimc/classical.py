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

from typing import NamedTuple

from .bimachine import Bimachine
from .fsa import Transducer, determinize, explore, members, output_map, trim


def check_pseudo_deterministic(t: Transducer) -> bool:
    """True when t is a deterministic automaton over (symbol, output)
    pairs: a single initial state and at most one target per labeled move.
    Output-nondeterminism (same source and symbol, different outputs) is
    allowed; that is what the expansion resolves."""
    return t.real_time and len(t.initial) == 1 and all(
        len({out for out, _ in outs}) == len(outs) for outs in t.moves.values()
    )


class ExpandedTransducer(NamedTuple):
    """The unambiguous expansion: state i of transducer stands for the
    (guessed state, failing alternatives) pair pairs[i]."""

    transducer: Transducer
    pairs: tuple[tuple[int, frozenset[int]], ...]


def unambiguous_expand(t: Transducer) -> ExpandedTransducer:
    """Resolve output-nondeterminism by guessing the successful path.

    From (p, N), symbol by symbol, each move (p, a, v, p') spawns (p', N')
    where N' collects the a-successors of N plus the targets of the a-moves
    from p whose output payload is smaller than v's by <, the payload order
    of the monoid; the move is dropped when the target itself lands in N'.
    Finals are guesses that reached a final state while every
    alternative missed.  The result is trimmed.
    """
    if not check_pseudo_deterministic(t):
        raise ValueError("input must be deterministic over (symbol, output) pairs")
    moves = t.moves

    def successors(node):
        p, neg_set = node
        for a in t.alphabet:
            here = moves.get((p, a), ())
            after = frozenset(dst for q in neg_set for _, dst in moves.get((q, a), ()))
            for out, dst in here:
                neg = after.union(d for v, d in here if v.payload < out.payload)
                if dst not in neg:
                    yield (a, out), (dst, neg)

    start = (next(iter(t.initial)), frozenset())
    pairs, arcs = explore([start], successors, "unambiguous expansion")
    finals = frozenset(
        i for i, (p, neg) in enumerate(pairs) if p in t.final and not (neg & t.final)
    )
    arcs = ((src, a, out, dst) for src, (a, out), dst in arcs)
    expanded = Transducer(t.alphabet, t.monoid, len(pairs), {0}, finals, arcs)
    trimmed, kept = trim(expanded)
    return ExpandedTransducer(trimmed, tuple(pairs[old] for old in kept))


def classical_compile(t: Transducer) -> Bimachine:
    """Expand, determinize both directions, and read the output map off
    the expansion: a set holding two states would give one word two
    successful paths, and the expansion is unambiguous.  Nonfunctional
    input is not rejected: where two successful runs part, the run
    with the <-smallest payload is kept, not the smaller output."""
    tt = unambiguous_expand(t).transducer
    left, right = determinize(tt)

    def entry(cell, s, s2):
        (p,) = members(s)
        (v,) = [out.payload for out, dst in tt.moves[p, cell[1]] if s2 >> dst & 1]
        return v

    psi = output_map(tt.monoid, tt.alphabet, left, right, entry)
    eps_out = tt.monoid.unit if (tt.initial & tt.final) else None
    return Bimachine(tt.monoid, tt.alphabet, left, right, psi, eps_out)
