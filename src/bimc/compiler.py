"""Compiles functional transducers into bimachines.

The construction determinizes the generalized transitions, the ε*·a·ε*
steps of the transducer, forward from the initial states and backward
from the final ones, then fills the positional output map: for every set
the cell walk meets, a most general equalizer chain assigns each member
state its accumulated delay, once per set, and each output entry is the
unique value balancing those delays across one transition, solved once
for all the cells that share its intersection triple.
Verification divides once per entry and checks every further transition
joining the two sets by one payload product, which left cancellation
makes exact.  Everything downstream of the functionality verdict is
deterministic, so equal inputs give identical bimachines.
"""

from __future__ import annotations

from functools import cache

from .bimachine import Bimachine
from .fsa import Transducer, determinize, make_transducer, members, move_index, output_map
from .functionality import FunctionalityVerdict, test_functionality
from .monoid import Monoid, gamma_n, solve_right


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

    S is enumerated in ascending state order; nu maps ordered state
    pairs to their recorded equalizers, and accumulating the chain of
    equalizers between consecutive members gives one value per state.
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

    Returns (src, sym, value, dst) tuples, one per path shaped
    ε*·sym·ε* with the ε outputs folded into the value, so two paths
    may repeat a step (a Transducer built from the list keeps the
    first); on a real-time transducer that is its transition list.
    Enumeration order is declaration order of the symbol transition,
    then the ε extensions by start state and discovery order.  Requires
    every ε-cycle to be output-free (which the functionality test
    guarantees), otherwise the expansion would not be finite.
    """
    outof, into = eps_paths
    return [
        (p, tr.inp, v1 * tr.out * v2, q)
        for tr in t.transitions if tr.inp is not None
        for p, v1 in into[tr.src]
        for q, v2 in outof[tr.dst]
    ]


def output_value(cell, phi_s, phi_s2, steps, verify=False):
    """The output entry of cell (li, a, ri), given the delays phi_s of
    its intersection set before the a-step and phi_s2 of the one after.

    steps is the move_index of the generalized transitions.  Solves
    delay(p) ∘ c = value ∘ delay(p') on the first transition connecting
    the two intersection sets; with verify every further such
    transition is checked by multiplying raw payloads, which by left
    cancellation holds exactly when c solves it too.  Only a failing
    transition is solved, to name its error.
    """
    li, a, ri = cell
    c = mon = None
    for p, delay in phi_s.items():
        for m, q in steps.get((p, a), ()):
            d2 = phi_s2.get(q)
            if d2 is None:
                continue
            if c is not None and (
                mon.op_payload(delay.payload, c.payload) == mon.op_payload(m.payload, d2.payload)
            ):
                continue
            cand = solve_right(delay, m * d2)
            if cand is None:
                raise CompileError(
                    f"delay equation for transition ({p}, {a!r}, {q}) has no solution"
                )
            if c is not None:
                raise CompileError(
                    f"output entry ({li}, {a!r}, {ri}) is not well defined: "
                    f"transition ({p}, {a!r}, {q}) solves to {cand!r}, expected {c!r}"
                )
            if not verify:
                return cand
            c, mon = cand, cand.monoid
    if c is None:
        raise CompileError(f"no transition connects {tuple(phi_s)} to {tuple(phi_s2)} on {a!r}")
    return c


def compile(t: Transducer, verdict: FunctionalityVerdict | None = None, verify=True):
    """Build the equivalent bimachine for a functional transducer.

    Reuses the squared automaton and valuation already computed by the
    functionality test (running it first when no verdict is passed).
    With verify the well-definedness of every output entry is asserted
    across all transitions rather than trusted.
    """
    if verdict is None:
        verdict = test_functionality(t)
    if not verdict.functional:
        raise NotFunctionalError(verdict)
    tt = verdict.trimmed
    gen = generalized_transitions(tt, verdict.eps_paths)
    real_time = make_transducer(tt.alphabet, tt.monoid, tt.n_states, tt.initial, tt.final, gen)
    left, right = determinize(real_time)
    sq, val = verdict.squared, verdict.valuation
    nu = {sq.pairs[i]: v for i, v in val.nu.items()}
    steps = move_index(real_time.transitions)
    phi = cache(lambda s: set_mge(members(s), nu, tt.monoid))  # delays of a set, by bitmask
    psi = output_map(
        left, right,
        lambda cell, s, s2: output_value(cell, phi(s), phi(s2), steps, verify=verify),
    )
    eps_out = next(iter(verdict.eps_outputs), None)
    return Bimachine(tt.monoid, tt.alphabet, left, right, psi, eps_out)
