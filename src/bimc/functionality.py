"""Deciding whether a transducer realizes a partial function.

The test trims, gates epsilon behaviour (cycle outputs must be unit,
the empty-input language must hold at most one value), then builds the
squared automaton and checks the valuation: every useful pair must be
equalizable, every useful transition must keep both sides equal after
completion, and final pairs must balance exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fsa import Transducer, eps_closure, trim
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
    """test_functionality's verdict on transducer, a field that equality
    and repr leave out: compile takes a verdict only with its transducer."""

    functional: bool
    witness: Witness | None
    transducer: Transducer = field(compare=False, repr=False)
    trimmed: Transducer
    squared: SquaredAutomaton | None = None
    valuation: Valuation | None = None
    eps_outputs: frozenset[MonoidValue] = frozenset()
    eps_paths: list | None = None  # eps_closure of trimmed: the ε paths out of each state

    def __bool__(self):
        return self.functional


def eps_cycle_check(t: Transducer, eps_paths):
    """None when every epsilon cycle multiplies out to the unit; otherwise
    the smallest state q with a nonunit path back to q among its paths
    in eps_paths, t's output-labelled eps_closure; the closure stops at
    the first such path.  Expects a trimmed transducer."""
    unit = t.monoid.unit
    cyclic = (q for q, paths in enumerate(eps_paths) for p, v in paths if p == q and v != unit)
    return next(cyclic, None)


def eps_language(t: Transducer, eps_paths) -> frozenset[MonoidValue]:
    """The values of the paths in eps_paths, t's output-labelled
    eps_closure, from an initial to a final state.  Complete only when
    eps_cycle_check passed, which callers must ensure first."""
    return frozenset(v for i in t.initial for q, v in eps_paths[i] if q in t.final)


def test_functionality(t: Transducer) -> FunctionalityVerdict:
    """Decide functionality; the verdict keeps the trimmed transducer, its
    epsilon paths, squared automaton, and valuation for reuse by the
    compiler."""
    trimmed, kept = trim(t)

    def reject(kind, detail, **extras):
        return FunctionalityVerdict(False, Witness(kind, detail), t, trimmed, **extras)

    eps_paths = eps_closure(trimmed)
    q = eps_cycle_check(trimmed, eps_paths)
    if q is not None:  # eps_paths is cut short here, so the rejection leaves it out
        return reject("eps-cycle", f"state {kept[q]} lies on an epsilon cycle with nonunit output")
    eps_outs = eps_language(trimmed, eps_paths)
    if len(eps_outs) > 1:
        listed = ", ".join(sorted(format_value(v) for v in eps_outs))
        return reject(
            "eps-language",
            f"empty input maps to {len(eps_outs)} distinct outputs: {listed}",
            eps_outputs=eps_outs,
        )

    sq = squared(trimmed)
    useful = coaccessible(sq)
    val = valuation(sq, useful)
    extras = dict(squared=sq, valuation=val, eps_outputs=eps_outs, eps_paths=eps_paths)
    op, fmt = trimmed.monoid.op_payload, trimmed.monoid.format_payload  # rho and arcs hold payloads

    def pair(i, swapped=False):  # squared pair i, named by the states of t it stands for
        p, q = sq.pairs[i]
        return f"({kept[q]},{kept[p]})" if swapped else f"({kept[p]},{kept[q]})"

    def shown(x):  # a pair of payloads
        return "({},{})".format(*map(fmt, x))

    for i in sorted(useful.difference(val.nu)):  # nu misses only the unequalizable pairs
        return reject(
            "unequalizable-pair",
            f"pair {pair(i)} accumulates {shown(val.rho[i])} which no suffix can equalize",
            **extras,
        )
    for src, m1, m2, dst, swapped in sq.transitions:
        if src in useful and dst in useful:
            (x1, x2), (y1, y2) = val.rho[src], val.nu[dst]
            if swapped:
                y1, y2 = y2, y1
            if op(op(x1, m1), y1.payload) != op(op(x2, m2), y2.payload):
                return reject(
                    "transition-mismatch",
                    f"step {pair(src)} -> {pair(dst, swapped)} with labels {shown((m1, m2))} "
                    "breaks output agreement",
                    **extras,
                )
    unit = trimmed.monoid.unit
    for f in sq.final:
        if val.nu.get(f) != (unit, unit):
            return reject(
                "final-imbalance",
                f"final pair {pair(f)} ends with unequal outputs {shown(val.rho[f])}",
                **extras,
            )
    return FunctionalityVerdict(True, None, t, trimmed, **extras)
