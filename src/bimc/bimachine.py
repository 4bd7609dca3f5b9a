"""Deterministic two-pass machines.

A bimachine pairs a left automaton that scans the input forward with a
right automaton that scans it backward; an output map keyed by
(left state, symbol, right state) emits one monoid value per position,
and the product of those values is the result.  Evaluation is total
state inspection, no search: each input word gets at most one output.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

from .fsa import Dfa, OutputTable, check_symbols, flat_slots, is_state
from .monoid import Monoid, MonoidValue, _trusted


class AlphabetError(ValueError):
    """An input symbol the machine's alphabet does not contain."""


@dataclass(frozen=True)
class Bimachine:
    """Left/right deterministic automata plus the positional output map.

    psi is partial: a missing entry means no defined behaviour, which
    evaluate reports as an undefined result rather than an error.  A dict
    keyed by (left state, symbol, right state) is checked entry by entry and
    stored as an OutputTable; one that a compiler or the reader filled is
    checked for its shape only.  The eps_output field is the value for the
    empty word, or None when the empty word has no output.  The alphabet is
    stored sorted.  tables, (ids, left, right, psi, fold) for evaluate, is
    built by the constructor, outside equality and repr: ids numbers the k
    sorted symbols, left[q*k + a] and right[q*k + a] hold the next state, in
    a list or, where it would be mostly empty, a _Sparse dict, and psi is the
    output table's flat table (OutputTable).  fold multiplies a list of psi
    slots, by their counts where psi holds codes.
    """

    monoid: Monoid
    alphabet: tuple[str, ...]
    left: Dfa
    right: Dfa
    psi: Mapping[tuple[int, str, int], MonoidValue] = field(default_factory=dict)
    eps_output: MonoidValue | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(sorted(check_symbols(self.alphabet))))
        ids = {a: i for i, a in enumerate(self.alphabet)}
        k, flats = len(ids), []
        for side, dfa in (("left", self.left), ("right", self.right)):
            n = dfa.n_states
            if not is_state(n):
                raise ValueError(f"{side} state count {n!r} is not a non-negative int")
            if not is_state(dfa.start, n):
                raise ValueError(f"{side} start {dfa.start} is not among its {n} states")
            flat = flat_slots(n * k, len(dfa.delta))
            for (p, a), q in dfa.delta.items():
                if not (is_state(p, n) and is_state(q, n)):
                    raise ValueError(f"{side} move ({p}, {a!r}) -> {q} references a missing state")
                if a not in ids:
                    raise ValueError(f"{side} move uses undeclared symbol {a!r}")
                flat[p * k + ids[a]] = q
            flats.append(flat)
        m = self.monoid

        def foreign(v):
            return not isinstance(v, MonoidValue) or (v.monoid is not m and v.monoid != m)

        nl, nr, psi = self.left.n_states, self.right.n_states, self.psi
        if isinstance(psi, OutputTable):  # filled by a compiler or the reader: valid
            if (psi.monoid, psi.alphabet, psi.n_left, psi.n_right) != (m, self.alphabet, nl, nr):
                raise ValueError("the output table was made for another machine")
        else:
            psi = OutputTable(m, self.alphabet, nl, nr, len(psi))
            for (l, a, r), v in self.psi.items():
                if not (is_state(l, nl) and is_state(r, nr)):
                    raise ValueError(f"output entry ({l}, {a!r}, {r}) references a missing state")
                if a not in ids:
                    raise ValueError(f"output entry uses undeclared symbol {a!r}")
                if foreign(v):
                    raise ValueError(f"output value {v!r} does not belong to the output monoid")
                psi.table[(l * k + ids[a]) * nr + r] = psi.store(v.payload)
            object.__setattr__(self, "psi", psi)
        if self.eps_output is not None and foreign(self.eps_output):
            raise ValueError("empty-word output does not belong to the output monoid")
        values = [v.payload for v in psi.distinct]
        fold = m.fold_payloads if not psi.counted else (
            lambda cells: m.fold_counts([(values[c], n) for c, n in Counter(cells).items()]))
        object.__setattr__(self, "tables", (ids, *flats, psi.table, fold))


def evaluate(b: Bimachine, word) -> MonoidValue | None:
    """Run both passes over word and compose the positional outputs.

    The right automaton consumes the word reversed, recording the state
    reached after each suffix; the left automaton then scans forward,
    emitting psi(left state, symbol, state of the remaining suffix) at
    every position.  Returns None when any transition or output lookup
    is undefined; raises AlphabetError for symbols outside the alphabet.
    """
    ids, left, right, psi, fold = b.tables
    try:
        syms = list(map(ids.__getitem__, word))
    except KeyError as err:
        raise AlphabetError(f"symbol {err.args[0]!r} is not in the input alphabet") from None
    if not syms:
        return b.eps_output
    k, nr = len(ids), b.right.n_states
    # cells[i] = the psi offset of syms[i] and the right state after syms[i+1:]
    cells, r = [0] * len(syms), b.right.start
    for i in range(len(syms) - 1, -1, -1):
        a = syms[i]
        cells[i] = a * nr + r
        r = right[r * k + a]
        if r is None:
            return None
    # collect the payloads (or their codes) and multiply once at the
    # end: a running product would copy the growing output at every letter
    payloads = []
    kn, l = k * nr, b.left.start
    for a, cell in zip(syms, cells):
        if l is None:  # checked only when used: no left move after the last symbol
            return None
        v = psi[l * kn + cell]
        if v is None:
            return None
        payloads.append(v)
        l = left[l * k + a]
    return _trusted(b.monoid, fold(payloads))
