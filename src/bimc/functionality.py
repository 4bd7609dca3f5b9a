"""Deciding whether a transducer realizes a partial function.

The test trims, gates epsilon behaviour (cycle outputs must be unit,
the empty-input language must hold at most one value), then builds the
squared automaton and checks the valuation: every useful pair must be
equalizable, every useful transition must keep both sides equal after
completion, and final pairs must balance exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .fsa import Transducer, eps_closure, move_index, trim
from .monoid import MonoidValue, format_value
from .squared import SquaredAutomaton, Valuation, coaccessible, squared, valuation


@dataclass(frozen=True)
class Witness:
    """Why a transducer is not functional; kind is one of eps-cycle,
    eps-language, unequalizable-pair, transition-mismatch, final-imbalance."""

    kind: str
    detail: str


@dataclass
class FunctionalityVerdict:
    functional: bool
    witness: Witness | None
    trimmed: Transducer
    squared: SquaredAutomaton | None = None
    valuation: Valuation | None = None
    eps_outputs: frozenset[MonoidValue] = frozenset()
    eps_paths: tuple | None = None  # eps_closure of trimmed, output-labelled

    def __bool__(self):
        return self.functional


def eps_cycle_check(t: Transducer):
    """None when every epsilon cycle multiplies out to the unit; otherwise
    a state witnessing a nonunit cycle.  Expects a trimmed transducer.

    Within one strongly connected epsilon component a single consistent
    labelling exists iff all its cycles are unit: any clash found while
    propagating labels exhibits two cycle values differing by
    cancellation.  Components are walked in ascending order of their
    smallest state, each labelled from that state.
    """
    if t.real_time:
        return None
    eps_from = move_index(tr for tr in t.transitions if tr.inp is None)
    arcs = ((src, 1, dst) for (src, _), moves in eps_from.items() for _, dst in moves)
    outof, into = eps_closure(t.n_states, arcs, 1)
    unit = t.monoid.unit
    placed = set()
    for root in range(t.n_states):
        if root in placed:
            continue
        component = {p for p, _ in outof[root]} & {p for p, _ in into[root]}
        placed |= component
        label = {root: unit}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for out, v in eps_from.get((u, None), ()):
                if v not in component:
                    continue
                cand = label[u] * out
                if v not in label:
                    label[v] = cand
                    queue.append(v)
                elif label[v] != cand:
                    return v
    return None


def eps_language(t: Transducer, eps_paths) -> frozenset[MonoidValue]:
    """All outputs over successful epsilon-input paths, given t's
    output-labelled eps_closure.  Finite only when eps_cycle_check
    passed, which callers must ensure first."""
    outof, _ = eps_paths
    return frozenset(v for i in t.initial for q, v in outof[i] if q in t.final)


def test_functionality(t: Transducer) -> FunctionalityVerdict:
    """Decide functionality; the verdict keeps the trimmed transducer, its
    epsilon paths, squared automaton, and valuation for reuse by the
    compiler."""
    trimmed, kept = trim(t)

    def reject(kind, detail, **extras):
        return FunctionalityVerdict(False, Witness(kind, detail), trimmed, **extras)

    bad = eps_cycle_check(trimmed)
    if bad is not None:
        return reject(
            "eps-cycle",
            f"state {kept[bad]} lies on an epsilon cycle with nonunit output",
        )
    arcs = ((tr.src, tr.out, tr.dst) for tr in trimmed.transitions if tr.inp is None)
    eps_paths = eps_closure(trimmed.n_states, arcs, trimmed.monoid.unit)
    eps_outs = eps_language(trimmed, eps_paths)
    if len(eps_outs) > 1:
        shown = ", ".join(sorted(format_value(v) for v in eps_outs))
        return reject(
            "eps-language",
            f"empty input maps to {len(eps_outs)} distinct outputs: {shown}",
            eps_outputs=eps_outs,
        )

    sq = squared(trimmed)
    useful = coaccessible(sq)
    val = valuation(sq, useful)
    extras = dict(squared=sq, valuation=val, eps_outputs=eps_outs, eps_paths=eps_paths)

    for i in range(len(sq.pairs)):
        if i in useful and i not in val.nu:
            p1, p2 = sq.pairs[i]
            x1, x2 = val.rho[i]
            return reject(
                "unequalizable-pair",
                f"pair ({kept[p1]},{kept[p2]}) accumulates "
                f"({format_value(x1)},{format_value(x2)}) which no suffix can equalize",
                **extras,
            )
    for src, m1, m2, dst in sq.transitions:
        if src in useful and dst in useful:
            x1, x2 = val.rho[src]
            y1, y2 = val.nu[dst]
            if x1 * m1 * y1 != x2 * m2 * y2:
                p1, p2 = sq.pairs[src]
                q1, q2 = sq.pairs[dst]
                return reject(
                    "transition-mismatch",
                    f"step ({kept[p1]},{kept[p2]}) -> ({kept[q1]},{kept[q2]}) with labels "
                    f"({format_value(m1)},{format_value(m2)}) breaks output agreement",
                    **extras,
                )
    unit = trimmed.monoid.unit
    for f in sq.final:
        if val.nu.get(f) != (unit, unit):
            p1, p2 = sq.pairs[f]
            x1, x2 = val.rho[f]
            return reject(
                "final-imbalance",
                f"final pair ({kept[p1]},{kept[p2]}) ends with unequal outputs "
                f"({format_value(x1)},{format_value(x2)})",
                **extras,
            )
    return FunctionalityVerdict(True, None, trimmed, **extras)
