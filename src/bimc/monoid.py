"""Output monoids with computable most general equalizers.

A pair (m1, m2) is equalizable when some (x1, x2) satisfies
m1*x1 == m2*x2; a most general equalizer (mge) is an equalizer that
every other equalizer factors through on the right.  Every monoid here
is cancellative on both sides and provides eta(m1, m2) returning an
mge and solve_right(m, n) returning the c with m*c == n; that c is
unique because every instance is left cancellative (m*x == m*y implies
x == y), so one product checking m*c == n confirms a candidate c as
well as dividing again would.  Every "no solution" answer is None: eta's
on a pair with no equalizer, solve_right's when no c exists, gamma_n's
on a chain of mges that does not accumulate.  Instances supply
fold_payloads, solve_payload, check_payload and parse_payload; Monoid
derives the rest.

Four instances are available: free words over a finite alphabet,
non-negative rationals under addition, integers under addition, and
pairs combining any two of the above componentwise.
"""

from __future__ import annotations

import math
import numbers
import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


class DescriptorMismatch(TypeError):
    """Combined values belong to different monoids."""


class Monoid:
    """Base descriptor.  Subclasses supply fold_payloads, solve_payload,
    check_payload and parse_payload; op_payload (a + b), format_payload
    (str), the unit, eta_payload, gamma_payload and commutative are
    derived here.  The stored payloads of one instance are totally
    ordered by <, which the classical expansion uses to rank alternative
    moves.  Callers outside the engine go through the module-level
    functions on MonoidValue; the decision procedure and the compiler's
    output fill use the payload operations directly.  Commutative ones
    add fold_counts."""

    commutative = False

    def op_payload(self, a, b):
        """a + b: concatenates free words, adds numbers; PairOf overrides it."""
        return a + b

    def fold_payloads(self, payloads):
        """Product of a sequence of stored payloads, left to right, in
        one pass; the unit payload for an empty sequence."""
        raise NotImplementedError

    def solve_payload(self, a, b):
        """The payload c with a*c == b, or None when there is none."""
        raise NotImplementedError

    def eta_payload(self, a, b):
        """Mge of (a, b) as a payload pair, or None if not equalizable.
        Right division decides it in a cancellative, equidivisible monoid,
        where a*x1 == b*x2 implies b*c == a or a*c == b for some c; PairOf
        overrides it, as products are not equidivisible."""
        c = self.solve_payload(b, a)
        if c is not None:
            return (self.fold_payloads(()), c)
        c = self.solve_payload(a, b)
        return None if c is None else (c, self.fold_payloads(()))

    def gamma_payload(self, chain):
        """gamma_n on payloads: the chain's (x1, x2) mges accumulated into a
        tuple, re-aligned through eta_payload at each link, or None."""
        acc = list(chain[0]) if chain else [self.unit.payload]
        for x1, x2 in chain[1:]:
            h = self.eta_payload(acc[-1], x1)
            if h is None:
                return None
            acc = [self.op_payload(z, h[0]) for z in acc] + [self.op_payload(x2, h[1])]
        return tuple(acc)

    def check_payload(self, a):
        """Validate and normalize a raw payload, returning the stored form."""
        raise NotImplementedError

    def format_payload(self, a) -> str:
        """The literal str(a) of a number; FreeWords and PairOf override it."""
        return str(a)

    def parse_payload(self, text: str):
        raise NotImplementedError

    @cached_property
    def unit(self) -> MonoidValue:
        """The empty product, computed once per instance, outside equality and hash."""
        return _trusted(self, self.fold_payloads(()))


# characters that would break descriptor and value literal parsing
_FORBIDDEN_SYMBOL_CHARS = set('"(),')


@dataclass(frozen=True)
class FreeWords(Monoid):
    """Free monoid over a finite alphabet of single-character symbols.

    Payloads are plain strings; the unit is the empty word.  A pair of
    words is equalizable iff one is a prefix of the other, and the mge
    pads the shorter side with the leftover suffix.
    """

    alphabet: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if not self.alphabet:
            raise ValueError("free monoid needs a nonempty alphabet")
        seen = set()
        for c in self.alphabet:
            if not isinstance(c, str) or len(c) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {c!r}")
            if c.isspace() or c in _FORBIDDEN_SYMBOL_CHARS:
                raise ValueError(f"symbol not allowed in literals: {c!r}")
            if c in seen:
                raise ValueError(f"duplicate alphabet symbol {c!r}")
            seen.add(c)

    def fold_payloads(self, payloads):
        return "".join(payloads)

    def solve_payload(self, a, b):
        return b[len(a):] if b.startswith(a) else None

    def check_payload(self, a):
        if not isinstance(a, str):
            raise ValueError(f"free word payload must be str, got {type(a).__name__}")
        bad = set(a) - set(self.alphabet)
        if bad:
            raise ValueError(f"symbols outside the alphabet: {sorted(bad)!r}")
        return a

    def format_payload(self, a) -> str:
        return f'"{a}"'

    def parse_payload(self, text: str):
        if len(text) < 2 or text[0] != '"' or text[-1] != '"':
            raise ValueError(f"free word literal must be quoted, got {text!r}")
        return self.check_payload(text[1:-1])


_RAT_RE = re.compile(r"\d+(/\d+)?")
_INT_RE = re.compile(r"[+-]?\d+")


def _over_lcm(numerators):  # the sum of numerators[d]/d, one Fraction
    lcm = math.lcm(*numerators)
    return Fraction(sum(n * (lcm // d) for d, n in numerators.items()), lcm)


@dataclass(frozen=True)
class NonNegRationals(Monoid):
    """Non-negative rationals under addition, kept exact as Fractions.

    Any pair (m, n) is equalizable; the mge is (M - m, M - n) with
    M = max(m, n).  Only 0 is invertible.
    """

    commutative = True

    # most sums in a verdict add the unit, and a Fraction sum builds a new
    # Fraction through a gcd even then; the zero test is a small share of it
    def op_payload(self, a, b):
        if not a:
            return b
        if not b:
            return a
        return a + b

    # integer sums per denominator, then one Fraction over their lcm:
    # adding Fractions one by one normalizes by a gcd at every step
    def fold_payloads(self, payloads):
        numerators = defaultdict(int)
        for a in payloads:
            numerators[a.denominator] += a.numerator
        return _over_lcm(numerators)

    def fold_counts(self, pairs):
        numerators = defaultdict(int)
        for a, n in pairs:
            numerators[a.denominator] += n * a.numerator
        return _over_lcm(numerators)

    def solve_payload(self, a, b):
        return b - a if b >= a else None

    def check_payload(self, a):
        if isinstance(a, str):
            return self.parse_payload(a)
        if isinstance(a, bool) or not isinstance(a, numbers.Rational):
            raise ValueError(f"rational payload must be a Fraction, int or literal, got {a!r}")
        a = Fraction(a)
        if a < 0:
            raise ValueError(f"negative rational {a}")
        return a

    def parse_payload(self, text: str):
        if not _RAT_RE.fullmatch(text):
            raise ValueError(f"bad rational literal {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None


@dataclass(frozen=True)
class Integers(Monoid):
    """Integers under addition.  A group, so eta(g, h) = (0, g - h) and
    every element is invertible."""

    commutative = True

    def fold_payloads(self, payloads):
        return sum(payloads, 0)

    def fold_counts(self, pairs):
        return sum(n * a for a, n in pairs)

    def solve_payload(self, a, b):
        return b - a

    def check_payload(self, a):
        if isinstance(a, bool) or not isinstance(a, int):
            raise ValueError(f"integer payload expected, got {a!r}")
        return a

    def parse_payload(self, text: str):
        if not _INT_RE.fullmatch(text):
            raise ValueError(f"bad integer literal {text!r}")
        return int(text)


@dataclass(frozen=True)
class PairOf(Monoid):
    """Cartesian product of two component monoids, componentwise.

    A pair of pairs is equalizable iff both components are, and the mge
    pairs up the component mges.
    """

    left: Monoid
    right: Monoid

    commutative = property(lambda self: self.left.commutative and self.right.commutative)

    def op_payload(self, a, b):
        return (self.left.op_payload(a[0], b[0]), self.right.op_payload(a[1], b[1]))

    def fold_payloads(self, payloads):
        return (
            self.left.fold_payloads([p[0] for p in payloads]),
            self.right.fold_payloads([p[1] for p in payloads]),
        )

    def fold_counts(self, pairs):  # pairs: a list, read once per side
        left, right = self.left.fold_counts, self.right.fold_counts
        return (left([(p[0], n) for p, n in pairs]), right([(p[1], n) for p, n in pairs]))

    def eta_payload(self, a, b):
        el = self.left.eta_payload(a[0], b[0])
        if el is None:
            return None
        er = self.right.eta_payload(a[1], b[1])
        if er is None:
            return None
        return ((el[0], er[0]), (el[1], er[1]))

    def solve_payload(self, a, b):
        cl = self.left.solve_payload(a[0], b[0])
        cr = self.right.solve_payload(a[1], b[1])
        return None if cl is None or cr is None else (cl, cr)

    def check_payload(self, a):
        if not isinstance(a, tuple) or len(a) != 2:
            raise ValueError(f"pair payload must be a 2-tuple, got {a!r}")
        return (self.left.check_payload(a[0]), self.right.check_payload(a[1]))

    def format_payload(self, a) -> str:
        return f"({self.left.format_payload(a[0])},{self.right.format_payload(a[1])})"

    def parse_payload(self, text: str):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"pair literal must be parenthesized, got {text!r}")
        lt, rt = _split_top_level(text[1:-1], text)
        return (self.left.parse_payload(lt.strip()), self.right.parse_payload(rt.strip()))


@dataclass(frozen=True, slots=True)
class MonoidValue:
    """An element of a concrete monoid: descriptor plus raw payload.

    Constructing one validates the payload; Transducer does so for the
    raw payloads among its arcs.  Literals, which parse_payload
    validates, and values computed from valid values (products, folds,
    equalizers, quotients, units) are built by _trusted instead, so
    validation happens once, where data enters.
    """

    monoid: Monoid
    payload: object

    def __post_init__(self):
        object.__setattr__(self, "payload", self.monoid.check_payload(self.payload))

    def __mul__(self, other: MonoidValue) -> MonoidValue:
        return op(self, other)

    def __hash__(self):  # equal values have equal payloads; the descriptor is not rehashed
        return hash(self.payload)

    def __repr__(self):
        return f"MonoidValue({self.monoid.format_payload(self.payload)})"


_set_monoid = MonoidValue.monoid.__set__
_set_payload = MonoidValue.payload.__set__


def _trusted(m: Monoid, payload) -> MonoidValue:
    """A MonoidValue whose payload is known to be in stored form; skips
    check_payload.  Only for parsed literals and payloads computed from valid ones."""
    v = object.__new__(MonoidValue)
    _set_monoid(v, m)
    _set_payload(v, payload)
    return v


def _same_monoid(a: MonoidValue, b: MonoidValue) -> Monoid:
    m = a.monoid
    if m is not b.monoid and m != b.monoid:
        raise DescriptorMismatch(f"{m} vs {b.monoid}")
    return m


def op(a: MonoidValue, b: MonoidValue) -> MonoidValue:
    m = _same_monoid(a, b)
    return _trusted(m, m.op_payload(a.payload, b.payload))


def eta(a: MonoidValue, b: MonoidValue):
    """Most general equalizer of (a, b), or None when no equalizer exists.

    Equal arguments yield (e, e), through eta_payload.
    """
    m = _same_monoid(a, b)
    r = m.eta_payload(a.payload, b.payload)
    if r is None:
        return None
    return (_trusted(m, r[0]), _trusted(m, r[1]))


def solve_right(m: MonoidValue, n: MonoidValue):
    """The unique c with m*c == n, or None when no such c exists; each
    instance divides on raw payloads in solve_payload."""
    monoid = _same_monoid(m, n)
    c = monoid.solve_payload(m.payload, n.payload)
    return None if c is None else _trusted(monoid, c)


def gamma_n(pairs, monoid: Monoid):
    """Accumulate a chain of pairwise mges into a tuple mge, or None.

    pairs[i] must be an mge of some (n_i, n_i+1); the result then is the
    mge of the tuple (n_1..n_k), the componentwise-minimal (x_1..x_k)
    with all n_i*x_i equal, without ever touching the n_i themselves.
    The empty chain yields (e,) of monoid.  None, like eta, when an
    intermediate pair is not equalizable.  Monoid.gamma_payload computes it.
    """
    chain = []
    for x1, x2 in pairs:
        if _same_monoid(x1, x2) is not monoid and x1.monoid != monoid:
            raise DescriptorMismatch(f"{x1.monoid} vs {monoid}")
        chain.append((x1.payload, x2.payload))
    if not chain:
        return (monoid.unit,)
    acc = monoid.gamma_payload(chain)
    return None if acc is None else tuple(_trusted(monoid, z) for z in acc)


def _split_top_level(inner: str, whole: str) -> tuple[str, str]:
    """Split 'a,b' at the first comma outside parens.  Quotes need no state: FreeWords
    symbols exclude '"(),' and descriptors hold no '"', so valid quoted words hold none."""
    depth = 0
    for i, c in enumerate(inner):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            return inner[:i], inner[i + 1:]
    raise ValueError(f"expected a top-level comma in {whole!r}")


def parse_descriptor(text: str) -> Monoid:
    """Parse a descriptor literal: free:<alphabet>, nnrat, intgrp, or
    product(<d1>,<d2>)."""
    s = text.strip()
    if s == "nnrat":
        return NonNegRationals()
    if s == "intgrp":
        return Integers()
    if s.startswith("free:"):
        return FreeWords(tuple(s[len("free:"):]))
    if s.startswith("product(") and s.endswith(")"):
        lt, rt = _split_top_level(s[len("product("):-1], s)
        return PairOf(parse_descriptor(lt), parse_descriptor(rt))
    raise ValueError(f"bad monoid descriptor {text!r}")


def format_descriptor(m: Monoid) -> str:
    if isinstance(m, FreeWords):
        return "free:" + "".join(m.alphabet)
    if isinstance(m, NonNegRationals):
        return "nnrat"
    if isinstance(m, Integers):
        return "intgrp"
    if isinstance(m, PairOf):
        return f"product({format_descriptor(m.left)},{format_descriptor(m.right)})"
    raise ValueError(f"unknown descriptor {m!r}")


def parse_value(m: Monoid, text: str) -> MonoidValue:
    return _trusted(m, m.parse_payload(text.strip()))


def format_value(v: MonoidValue) -> str:
    return v.monoid.format_payload(v.payload)
