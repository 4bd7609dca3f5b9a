"""Squared output automaton and its valuation.

Pairing a transducer with itself erases the input and keeps the two
output components; a state pair is reachable with labels (m1, m2)
exactly when both components can read one common input word producing
m1 and m2.  The valuation condenses, per reachable-and-useful pair, the
accumulated label divergence (rho) and its most general equalizer (nu).

Only one orientation of each pair is built: (p, q) with p <= q.
Swapping the two states of every pair and the two labels of every arc
maps the ordered pairing onto itself, so a spanning tree of the pairs
with p <= q and its mirror image together span it: rho and nu of a
mirrored pair are the swaps of its mirror's, and the check of an arc out
of a mirrored pair is the mirror image of a check made here (Béal,
Carton, Prieur and Sakarovitch, "Squaring transducers", TCS 2003, check
along any spanning tree).  An arc whose target would be (q, p) with
q > p is stored as reaching (p, q) and marked swapped; readers swap rho
and nu along it.  A diagonal pair (p, p) is its own mirror, so both
arcs of a mirrored couple out of it are kept and checked; once every
check passes, the identical runs from a useful (p, p) to a final
diagonal pair force its rho to balance by cancellation, so the tree and
its mirror agree on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fsa import Transducer, explore, reachable
from .monoid import Monoid, _trusted, eta


@dataclass
class SquaredAutomaton:
    """Pairs are stored in breadth-first discovery order with the initial
    pairs first, and transitions grouped by source in that order, so the
    first arc into a pair is the one that discovered it.  Every pair
    (p, q) has p <= q.  A transition (src, m1, m2, dst, swapped) carries
    raw payloads of monoid, not MonoidValues, read in src's orientation;
    when swapped, they lead to dst's pair with its two states exchanged."""

    monoid: Monoid
    pairs: tuple[tuple[int, int], ...]
    initial: frozenset[int]
    final: frozenset[int]
    transitions: tuple[tuple[int, object, object, int, bool], ...]


def squared(t: Transducer) -> SquaredAutomaton:
    """Accessible part of the self-pairing over pairs with p <= q: two
    component transitions advance together on a shared input symbol,
    and either component may take an epsilon transition alone while the
    other waits with a unit label; a target (q1, q2) with q1 > q2 is
    stored as (q2, q1).  Moves are numbered by (src, payload, dst), the
    waiting side as (p, unit payload, p); from one pair, two numbers
    stand one-to-one for an arc, so an arc that several symbols give is
    built once."""
    ids = {}  # (src, payload, dst) -> its number, in order of first sight
    step = {
        key: [(ids.setdefault((key[0], out.payload, q), len(ids)), q) for out, q in moves]
        for key, moves in t.moves.items()
    }
    unit = t.monoid.unit.payload

    def successors(pair):
        p1, p2 = pair
        targets = {}  # (number1, number2) -> target pair; a repeat keeps its first place
        for sym in t.alphabet:
            for i1, q1 in step.get((p1, sym), ()):
                for i2, q2 in step.get((p2, sym), ()):
                    targets[i1, i2] = (q1, q2) if q1 <= q2 else (q2, q1)
        for i2, q2 in step.get((p2, None), ()):
            wait = ids.setdefault((p1, unit, p1), len(ids))
            targets[wait, i2] = (p1, q2) if p1 <= q2 else (q2, p1)
        for i1, q1 in step.get((p1, None), ()):
            wait = ids.setdefault((p2, unit, p2), len(ids))
            targets[i1, wait] = (q1, p2) if q1 <= p2 else (p2, q1)
        return targets.items()

    starts = [(p1, p2) for p1 in sorted(t.initial) for p2 in sorted(t.initial) if p1 <= p2]
    order, arcs = explore(starts, successors, "squared")
    ends = list(ids)  # ends[i] = (src, payload, dst) of move i
    initial = frozenset(range(len(starts)))
    transitions = tuple(
        (src, ends[i][1], ends[j][1], dst, ends[i][2] > ends[j][2]) for src, (i, j), dst in arcs
    )
    final = frozenset(
        i for i, (p1, p2) in enumerate(order) if p1 in t.final and p2 in t.final
    )
    return SquaredAutomaton(t.monoid, tuple(order), initial, final, transitions)


def coaccessible(sq: SquaredAutomaton) -> frozenset[int]:
    """Pairs from which some final pair is reachable."""
    return frozenset(reachable(sq.final, [(dst, src) for src, _, _, dst, _ in sq.transitions]))


@dataclass
class Valuation:
    """rho: accumulated payload pair along the first discovered useful
    path; nu: its most general equalizer as a MonoidValue pair, or (e, e)
    when both sides agree.  Both are defined exactly on the useful
    (coaccessible) pairs; nu may additionally be missing where rho is
    not equalizable."""

    rho: dict
    nu: dict


def valuation(sq: SquaredAutomaton, useful: frozenset[int]) -> Valuation:
    """One scan of sq's arcs: a useful initial pair has rho (e, e), any
    other useful pair takes rho along the arc that discovered it,
    swapped when the arc is."""
    m = sq.monoid
    op, unit = m.op_payload, m.unit
    rho = {i: (unit.payload, unit.payload) for i in sq.initial if i in useful}
    for src, m1, m2, dst, swapped in sq.transitions:
        if dst in useful and dst not in rho:
            x1, x2 = rho[src]
            rho[dst] = (op(x2, m2), op(x1, m1)) if swapped else (op(x1, m1), op(x2, m2))
    nu = {}
    for i, (x1, x2) in rho.items():
        if x1 == x2:
            nu[i] = (unit, unit)
        else:
            r = eta(_trusted(m, x1), _trusted(m, x2))
            if r is not None:
                nu[i] = r
    return Valuation(rho, nu)

