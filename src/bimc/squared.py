"""Squared output automaton and its valuation.

Pairing a transducer with itself erases the input and keeps the two
output components; a state pair is reachable with labels (m1, m2)
exactly when both components can read one common input word producing
m1 and m2.  The valuation condenses, per reachable-and-useful pair, the
accumulated label divergence (rho) and its most general equalizer (nu).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .fsa import Transducer, explore, reachable
from .monoid import Monoid, MonoidValue, eta


@dataclass
class SquaredAutomaton:
    """Pairs are stored in breadth-first discovery order with the initial
    pairs first, and transitions grouped by source in that order, so the
    first arc into a pair is the one that discovered it."""

    monoid: Monoid
    pairs: tuple[tuple[int, int], ...]
    initial: frozenset[int]
    final: frozenset[int]
    transitions: tuple[tuple[int, MonoidValue, MonoidValue, int], ...]


def squared(t: Transducer) -> SquaredAutomaton:
    """Accessible part of the self-pairing: two component transitions
    advance together on a shared input symbol, and either component may
    take an epsilon transition alone while the other waits with a unit
    label.  Moves are numbered by (src, out, dst), the waiting side as
    (p, unit, p); from one pair, two numbers stand one-to-one for an
    arc, so an arc that several symbols give is built once."""
    ids = {}  # (src, out, dst) -> its number, in order of first sight
    step = {
        key: [(ids.setdefault((key[0], out, q), len(ids)), q) for out, q in moves]
        for key, moves in t.moves.items()
    }
    unit = t.monoid.unit

    def successors(pair):
        p1, p2 = pair
        targets = {}  # (number1, number2) -> target pair; a repeat keeps its first place
        for sym in t.alphabet:
            for i1, q1 in step.get((p1, sym), ()):
                for i2, q2 in step.get((p2, sym), ()):
                    targets[i1, i2] = q1, q2
        for i2, q2 in step.get((p2, None), ()):
            targets[ids.setdefault((p1, unit, p1), len(ids)), i2] = p1, q2
        for i1, q1 in step.get((p1, None), ()):
            targets[i1, ids.setdefault((p2, unit, p2), len(ids))] = q1, p2
        return targets.items()

    starts = [(p1, p2) for p1 in sorted(t.initial) for p2 in sorted(t.initial)]
    order, arcs = explore(starts, successors, "squared")
    ends = list(ids)  # ends[i] = (src, out, dst) of move i
    initial = frozenset(range(len(starts)))
    transitions = tuple((src, ends[i][1], ends[j][1], dst) for src, (i, j), dst in arcs)
    final = frozenset(
        i for i, (p1, p2) in enumerate(order) if p1 in t.final and p2 in t.final
    )
    return SquaredAutomaton(t.monoid, tuple(order), initial, final, transitions)


def coaccessible(sq: SquaredAutomaton) -> frozenset[int]:
    """Pairs from which some final pair is reachable."""
    into = defaultdict(set)
    for src, _, _, dst in sq.transitions:
        into[dst].add(src)
    return frozenset(reachable(sq.final, into))


@dataclass
class Valuation:
    """rho: accumulated label pair along the first discovered useful path;
    nu: its most general equalizer, or (e, e) when both sides agree.
    Both are defined exactly on the useful (coaccessible) pairs; nu may
    additionally be missing where rho is not equalizable."""

    rho: dict
    nu: dict


def valuation(sq: SquaredAutomaton, useful: frozenset[int]) -> Valuation:
    """One scan of sq's arcs: a useful initial pair has rho (e, e), any
    other useful pair takes rho along the arc that discovered it."""
    unit = sq.monoid.unit
    rho = {i: (unit, unit) for i in sq.initial if i in useful}
    for src, m1, m2, dst in sq.transitions:
        if dst in useful and dst not in rho:
            x1, x2 = rho[src]
            rho[dst] = (x1 * m1, x2 * m2)
    nu = {}
    for i, (x1, x2) in rho.items():
        if x1 == x2:
            nu[i] = (unit, unit)
        else:
            r = eta(x1, x2)
            if r is not None:
                nu[i] = r
    return Valuation(rho, nu)

