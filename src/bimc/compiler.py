"""Compiles functional transducers into bimachines.

The construction determinizes the generalized transitions, the ε*·a·ε*
steps of the transducer, forward from the initial states and backward
from the final ones, then fills the positional output map on raw
payloads: for every set the cell walk meets, a most general equalizer
chain assigns each member state its accumulated delay, once per set, and
each output entry is the unique payload balancing those delays across
one transition, solved once for all the cells that share its
intersection triple; the table builds one value per distinct payload.
Verification divides once per entry and checks every further transition
joining the two sets by one payload product, which left cancellation
makes exact.  Everything downstream of the functionality verdict is
deterministic, so equal inputs give identical bimachines.
"""

from __future__ import annotations

from functools import cache

from .bimachine import Bimachine
from .fsa import Transducer, determinize, members, output_map
from .functionality import FunctionalityVerdict, test_functionality
from .monoid import Monoid, MonoidValue, gamma_n, solve_right


class CompileError(Exception):
    """The construction could not complete on this input."""


class NotFunctionalError(CompileError):
    """Raised when the input transducer fails the functionality test;
    carries the verdict with its witness."""

    def __init__(self, verdict: FunctionalityVerdict):
        self.verdict = verdict
        w = verdict.witness
        super().__init__(f"transducer is not functional ({w.kind}: {w.detail})")


def set_mge(S, nu, monoid: Monoid) -> dict:
    """The delay function of one intersection set.

    S is enumerated in ascending state order; nu maps the squared
    automaton's state pairs (p, q), p <= q, to their recorded
    equalizers, and accumulating the chain of equalizers between
    consecutive members through gamma_n gives one value per state,
    whose payloads compile keeps for the output fill.
    A missing or non-accumulating entry means the transducer was not
    functional after all.
    """
    states = sorted(S)
    chain = []
    for p, q in zip(states, states[1:]):
        v = nu.get((p, q))
        if v is None:
            raise CompileError(f"no equalizer recorded for the simultaneous pair ({p}, {q})")
        chain.append(v)
    values = gamma_n(chain, monoid)
    if values is None:
        raise CompileError(f"equalizer chain for {states} does not accumulate")
    return dict(zip(states, values))


def generalized_transitions(t: Transducer, eps_paths):
    """Every single-symbol step of t including surrounding ε movement,
    given t's output-labelled eps_closure.

    Returns (src, sym, value, dst) tuples, one per path shaped ε*·sym·ε*
    with the ε outputs folded into the value, so two paths may repeat a
    step (a Transducer built from the list keeps the first).  The paths
    are read forward: by start state, the ε paths out of it, the symbol
    moves at their ends in alphabet and then declaration order, and the
    ε paths out of each move's target; on a real-time transducer that is
    its transition list grouped by source state.  Every ε-cycle must be
    output-free, as the functionality test guarantees; otherwise
    eps_paths, and so the expansion, is cut short.
    """
    return [
        (p, a, v1 * m * v2, q)
        for p, paths in enumerate(eps_paths)
        for r, v1 in paths
        for a in t.alphabet
        for m, dst in t.moves.get((r, a), ())
        for q, v2 in eps_paths[dst]
    ]


def output_value(cell, phi_s, phi_s2, steps, verify=False):
    """The output entry of cell (li, a, ri) as a payload, given the delay
    payloads phi_s of its intersection set before the a-step and phi_s2 after.

    steps is the Transducer.moves of the generalized transitions.  Solves
    delay(p) ∘ c = value ∘ delay(p') on raw payloads, on the first
    transition connecting the two intersection sets; with verify every
    further such transition is checked by one payload product, which by
    left cancellation holds exactly when c solves it too.  Only a failing
    transition is solved on values, to name its error.
    """
    li, a, ri = cell
    c = None
    for p, delay in phi_s.items():
        for m, q in steps.get((p, a), ()):
            d2 = phi_s2.get(q)
            if d2 is None:
                continue
            mon = m.monoid
            target = mon.op_payload(m.payload, d2)
            if c is None:
                c = mon.solve_payload(delay, target)
                if c is not None:
                    if not verify:
                        return c
                    continue
            elif mon.op_payload(delay, c) == target:
                continue
            cand = solve_right(MonoidValue(mon, delay), MonoidValue(mon, target))
            if cand is None:
                raise CompileError(
                    f"delay equation for transition ({p}, {a!r}, {q}) has no solution"
                )
            raise CompileError(
                f"output entry ({li}, {a!r}, {ri}) is not well defined: "
                f"transition ({p}, {a!r}, {q}) solves to {cand!r}, expected {MonoidValue(mon, c)!r}"
            )
    if c is None:
        raise CompileError(f"no transition connects {tuple(phi_s)} to {tuple(phi_s2)} on {a!r}")
    return c


def compile(t: Transducer, verdict: FunctionalityVerdict | None = None, verify=True):
    """Build the equivalent bimachine for a functional transducer.

    Reuses the squared automaton and valuation already computed by the
    functionality test (running it first when no verdict is passed); a
    verdict passed must be t's, or a ValueError is raised.  With verify
    the well-definedness of every output entry is asserted across all
    transitions rather than trusted.
    """
    if verdict is None:
        verdict = test_functionality(t)
    elif verdict.transducer is not t and verdict.transducer != t:
        raise ValueError("the verdict passed is for another transducer")
    if not verdict.functional:
        raise NotFunctionalError(verdict)
    tt = verdict.trimmed
    gen = generalized_transitions(tt, verdict.eps_paths)
    real_time = Transducer(tt.alphabet, tt.monoid, tt.n_states, tt.initial, tt.final, gen)
    left, right = determinize(real_time)
    sq, val = verdict.squared, verdict.valuation
    nu = {sq.pairs[i]: v for i, v in val.nu.items()}
    # the delay payloads of a set, by bitmask
    phi = cache(lambda s: {p: v.payload for p, v in set_mge(members(s), nu, tt.monoid).items()})
    psi = output_map(
        tt.monoid, tt.alphabet, left, right,
        lambda cell, s, s2: output_value(cell, phi(s), phi(s2), real_time.moves, verify=verify),
    )
    eps_out = next(iter(verdict.eps_outputs), None)
    return Bimachine(tt.monoid, tt.alphabet, left, right, psi, eps_out)
