"""Deterministic two-pass machines.

A bimachine pairs a left automaton that scans the input forward with a
right automaton that scans it backward; an output map keyed by
(left state, symbol, right state) emits one monoid value per position,
and the product of those values is the result.  Evaluation is total
state inspection, no search: each input word gets at most one output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fsa import Dfa, check_symbols, is_state
from .monoid import Monoid, MonoidValue, fold


class AlphabetError(ValueError):
    """An input symbol the machine's alphabet does not contain."""


@dataclass(frozen=True)
class Bimachine:
    """Left/right deterministic automata plus the positional output map.

    psi is partial: a missing entry means no defined behaviour, which
    evaluate reports as an undefined result rather than an error.  The
    eps_output field is the value for the empty word, or None when the
    empty word has no output.  The alphabet is stored sorted.
    """

    monoid: Monoid
    alphabet: tuple[str, ...]
    left: Dfa
    right: Dfa
    psi: dict[tuple[int, str, int], MonoidValue] = field(default_factory=dict)
    eps_output: MonoidValue | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(sorted(check_symbols(self.alphabet))))
        syms = set(self.alphabet)
        for side, dfa in (("left", self.left), ("right", self.right)):
            if not is_state(dfa.n_states):
                raise ValueError(f"{side} state count {dfa.n_states!r} is not a non-negative int")
            if not is_state(dfa.start, dfa.n_states):
                raise ValueError(f"{side} start {dfa.start} is not among its {dfa.n_states} states")
            for (p, a), q in dfa.delta.items():
                if not (is_state(p, dfa.n_states) and is_state(q, dfa.n_states)):
                    raise ValueError(f"{side} move ({p}, {a!r}) -> {q} references a missing state")
                if a not in syms:
                    raise ValueError(f"{side} move uses undeclared symbol {a!r}")
        m = self.monoid

        def foreign(v):
            return not isinstance(v, MonoidValue) or (v.monoid is not m and v.monoid != m)

        nl, nr = self.left.n_states, self.right.n_states
        for (l, a, r), v in self.psi.items():  # is_state inlined: calls slowed classical 8%
            if not (type(l) is int and type(r) is int and 0 <= l < nl and 0 <= r < nr):
                raise ValueError(f"output entry ({l}, {a!r}, {r}) references a missing state")
            if a not in syms:
                raise ValueError(f"output entry uses undeclared symbol {a!r}")
            if foreign(v):
                raise ValueError(f"output value {v!r} does not belong to the output monoid")
        if self.eps_output is not None and foreign(self.eps_output):
            raise ValueError("empty-word output does not belong to the output monoid")


def evaluate(b: Bimachine, word) -> MonoidValue | None:
    """Run both passes over word and compose the positional outputs.

    The right automaton consumes the word reversed, recording the state
    reached after each suffix; the left automaton then scans forward,
    emitting psi(left state, symbol, state of the remaining suffix) at
    every position.  Returns None when any transition or output lookup
    is undefined; raises AlphabetError for symbols outside the alphabet.
    """
    syms = tuple(word)
    unknown = set(syms).difference(b.alphabet)
    if unknown:
        s = next(s for s in syms if s in unknown)
        raise AlphabetError(f"symbol {s!r} is not in the input alphabet")
    if not syms:
        return b.eps_output
    n = len(syms)
    # suffix[i] = right state after consuming syms[i:] backwards
    suffix = [0] * (n + 1)
    suffix[n] = b.right.start
    for i in range(n - 1, -1, -1):
        nxt = b.right.delta.get((suffix[i + 1], syms[i]))
        if nxt is None:
            return None
        suffix[i] = nxt
    # collect the positional outputs and multiply once at the end: a
    # running product would copy the growing output at every letter
    outputs = []
    l = b.left.start
    for i in range(n):
        v = b.psi.get((l, syms[i], suffix[i + 1]))
        if v is None:
            return None
        outputs.append(v)
        if i + 1 < n:
            l = b.left.delta.get((l, syms[i]))
            if l is None:
                return None
    return fold(outputs, b.monoid)
