"""Monoid instances: laws, most general equalizers, accumulation."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bimc.bimachine import evaluate
from bimc.compiler import compile as build
from bimc.fsa import Transducer, enumerate_outputs
from bimc.functionality import test_functionality as functionality
from bimc.monoid import (
    DescriptorMismatch,
    FreeWords,
    Integers,
    Monoid,
    MonoidValue,
    NonNegRationals,
    PairOf,
    eta,
    format_descriptor,
    format_value,
    gamma_n,
    op,
    parse_descriptor,
    parse_value,
    solve_right,
)
from helpers import (
    all_words,
    brute_equalizers,
    candidate_values,
    eta_reference,
    inverse,
    is_instance_of,
    mu_n,
    random_value,
    unit_payload,
)

FREE = FreeWords(("a", "b", "c"))
RAT = NonNegRationals()
INT = Integers()
PROD = PairOf(FreeWords(("a", "b")), RAT)
NESTED = PairOf(FreeWords(("x", "y")), PairOf(RAT, INT))

ALL_MONOIDS = [FREE, RAT, INT, PROD, NESTED]


def fw(word, m=FREE):
    return MonoidValue(m, word)


def rat(x):
    return MonoidValue(RAT, Fraction(x))


def ig(x):
    return MonoidValue(INT, x)


free_values = st.text(alphabet="abc", max_size=5).map(lambda s: MonoidValue(FREE, s))
rat_values = st.fractions(min_value=0, max_value=20, max_denominator=6).map(
    lambda f: MonoidValue(RAT, f)
)
int_values = st.integers(-15, 15).map(lambda k: MonoidValue(INT, k))
prod_values = st.tuples(st.text(alphabet="ab", max_size=4), st.fractions(0, 10, max_denominator=4)).map(
    lambda p: MonoidValue(PROD, p)
)
nested_values = st.tuples(
    st.text(alphabet="xy", max_size=3),
    st.tuples(st.fractions(0, 8, max_denominator=3), st.integers(-8, 8)),
).map(lambda p: MonoidValue(NESTED, p))

INSTANCES = [
    (FREE, free_values),
    (RAT, rat_values),
    (INT, int_values),
    (PROD, prod_values),
    (NESTED, nested_values),
]

FREE_INT = PairOf(FreeWords(("a", "b")), INT)
free_int_values = st.tuples(st.text(alphabet="ab", max_size=4), st.integers(-8, 8)).map(
    lambda p: MonoidValue(FREE_INT, p)
)

# products of commutative components only, nested too
NUMERIC = PairOf(RAT, INT)
NUMERIC_NESTED = PairOf(INT, PairOf(RAT, RAT))
numeric_values = st.tuples(st.fractions(0, 10, max_denominator=6), st.integers(-8, 8)).map(
    lambda p: MonoidValue(NUMERIC, p)
)
numeric_nested_values = st.tuples(
    st.integers(-8, 8),
    st.tuples(st.fractions(0, 8, max_denominator=5), st.fractions(0, 8, max_denominator=7)),
).map(lambda p: MonoidValue(NUMERIC_NESTED, p))


# --- monoid laws -----------------------------------------------------------


@given(st.data())
def test_associativity_and_units(data):
    m, values = data.draw(st.sampled_from(INSTANCES))
    a, b, c = (data.draw(values) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert m.unit * a == a
    assert a * m.unit == a


@given(st.data())
def test_two_sided_cancellation(data):
    m, values = data.draw(st.sampled_from(INSTANCES))
    a, b, c = (data.draw(values) for _ in range(3))
    if a != b:
        assert c * a != c * b
        assert a * c != b * c


def test_mixing_monoids_is_rejected():
    with pytest.raises(DescriptorMismatch):
        op(fw("a"), rat(1))
    with pytest.raises(DescriptorMismatch):
        eta(ig(3), rat(3))


@given(st.data())
def test_fold_payloads_is_the_left_fold_of_op(data):
    m, values = data.draw(st.sampled_from(INSTANCES + [(FREE_INT, free_int_values)]))
    vals = data.draw(st.lists(values, max_size=8))
    want = m.unit
    for v in vals:
        want = op(want, v)
    got = m.fold_payloads([v.payload for v in vals])
    # repr also tells a Fraction from an int of the same value
    assert repr(got) == repr(want.payload)
    assert MonoidValue(m, got) == want  # in stored form


def test_fold_of_nothing_is_the_unit():
    for m in ALL_MONOIDS + [FREE_INT]:
        assert repr(m.fold_payloads([])) == repr(unit_payload(m))
        assert MonoidValue(m, m.fold_payloads([])) == m.unit


COMMUTATIVE = [
    (RAT, rat_values),
    (INT, int_values),
    (NUMERIC, numeric_values),
    (NUMERIC_NESTED, numeric_nested_values),
]


def test_commutative_flags():
    assert Monoid.commutative is False
    for m in (RAT, INT, NUMERIC, NUMERIC_NESTED):
        assert m.commutative is True, m
    # free words, and every product with a free component, keep their order
    for m in (FREE, PROD, NESTED, FREE_INT, PairOf(INT, FreeWords(("a",))), PairOf(NUMERIC, FREE)):
        assert m.commutative is False, m


@given(st.data())
def test_fold_counts_is_fold_payloads_of_the_expanded_list(data):
    m, values = data.draw(st.sampled_from(COMMUTATIVE))
    pool = [v.payload for v in data.draw(st.lists(values, min_size=1, max_size=4))]
    payloads = data.draw(st.lists(st.sampled_from(pool), max_size=12))  # with repeats
    counts = list(Counter(payloads).items())
    assert repr(m.fold_counts(counts)) == repr(m.fold_payloads(payloads))
    # one large count, beside the drawn ones
    big = counts + [(pool[0], 10**4)]
    assert repr(m.fold_counts(big)) == repr(m.fold_payloads(payloads + [pool[0]] * 10**4))


def test_fold_counts_of_nothing_is_the_unit():
    for m, _ in COMMUTATIVE:
        assert repr(m.fold_counts([])) == repr(unit_payload(m))


# --- eta -------------------------------------------------------------------


def test_eta_free_prefix_rule():
    assert eta(fw("a"), fw("ab")) == (fw("b"), fw(""))
    assert eta(fw("ab"), fw("a")) == (fw(""), fw("b"))
    assert eta(fw("ab"), fw("ba")) is None
    assert eta(fw("ab"), fw("ab")) == (fw(""), fw(""))


def test_eta_rationals_max_rule():
    assert eta(rat(2), rat(5)) == (rat(3), rat(0))
    assert eta(rat(Fraction(1, 2)), rat(Fraction(1, 3))) == (
        rat(0),
        rat(Fraction(1, 6)),
    )


def test_eta_integers_group_rule():
    assert eta(ig(3), ig(5)) == (ig(0), ig(-2))
    assert eta(ig(-4), ig(-4)) == (ig(0), ig(0))


def test_eta_product_componentwise():
    a = MonoidValue(PROD, ("a", Fraction(2)))
    b = MonoidValue(PROD, ("ab", Fraction(5)))
    assert eta(a, b) == (
        MonoidValue(PROD, ("b", Fraction(3))),
        MonoidValue(PROD, ("", Fraction(0))),
    )
    # one dead component kills the pair, the left one or the right one alone
    c = MonoidValue(PROD, ("ba", Fraction(5)))
    assert eta(a, c) is None
    words = PairOf(FreeWords(("x", "y")), FreeWords(("x", "y")))
    assert eta(MonoidValue(words, ("x", "x")), MonoidValue(words, ("x", "y"))) is None


@given(st.data())
def test_eta_on_equal_arguments_is_unit_pair(data):
    m, values = data.draw(st.sampled_from(INSTANCES))
    a = data.draw(values)
    assert eta(a, a) == (m.unit, m.unit)


@given(st.data())
def test_eta_matches_the_per_instance_rules(data):
    m, values = data.draw(st.sampled_from(INSTANCES + [(FREE_INT, free_int_values)]))
    a = data.draw(values)
    b = data.draw(st.one_of(values, st.just(a)))
    want = repr(eta_reference(a, b))
    assert repr(m.eta_payload(a.payload, b.payload)) == want
    r = eta(a, b)
    assert repr(None if r is None else (r[0].payload, r[1].payload)) == want


@given(st.data())
def test_eta_output_is_an_equalizer(data):
    _, values = data.draw(st.sampled_from(INSTANCES))
    a, b = data.draw(values), data.draw(values)
    r = eta(a, b)
    if r is not None:
        assert a * r[0] == b * r[1]


def test_eta_is_most_general_bounded_search():
    rng = random.Random(20240817)
    for m in ALL_MONOIDS:
        pool = candidate_values(m, 2)
        for _ in range(40):
            a, b = random_value(rng, m, 2), random_value(rng, m, 2)
            r = eta(a, b)
            found = brute_equalizers(a, b, pool)
            if r is None:
                assert not found
            else:
                assert a * r[0] == b * r[1]
                for k in found:
                    assert is_instance_of(r, k)


def test_non_equalizable_pair_has_no_equalizer_at_all():
    found = brute_equalizers(fw("ab"), fw("ba"), candidate_values(FREE, 3))
    assert found == []
    assert eta(fw("ab"), fw("ba")) is None


# --- inverse and solve_right ----------------------------------------------


def test_inverse_per_instance():
    assert inverse(fw("")) == fw("")
    assert inverse(fw("a")) is None
    assert inverse(rat(0)) == rat(0)
    assert inverse(rat(2)) is None
    assert inverse(ig(5)) == ig(-5)
    p = MonoidValue(PROD, ("", Fraction(0)))
    assert inverse(p) == p
    assert inverse(MonoidValue(PROD, ("a", Fraction(0)))) is None


def test_solve_right_examples():
    assert solve_right(fw("a"), fw("ab")) == fw("b")
    assert solve_right(fw("ab"), fw("a")) is None
    assert solve_right(ig(5), ig(3)) == ig(-2)
    assert solve_right(rat(3), rat(1)) is None
    assert solve_right(rat(1), rat(3)) == rat(2)


@given(st.data())
def test_solve_right_recovers_factor(data):
    _, values = data.draw(st.sampled_from(INSTANCES))
    m, x = data.draw(values), data.draw(values)
    assert solve_right(m, m * x) == x


@given(st.data())
def test_solve_right_matches_eta_inverse_derivation(data):
    _, values = data.draw(st.sampled_from(INSTANCES))
    m, x, n = data.draw(values), data.draw(values), data.draw(values)
    for target in (n, m * x):
        r = eta(m, target)
        x2i = None if r is None else inverse(r[1])
        want = None if x2i is None else r[0] * x2i
        got = solve_right(m, target)
        assert repr(None if got is None else got.payload) == repr(
            None if want is None else want.payload
        )


# --- mu_n and gamma_n ------------------------------------------------------


def test_mu_free_chain():
    got = mu_n((fw("a"), fw("ab"), fw("abc")))
    assert got == (fw("bc"), fw("c"), fw(""))


def test_mu_singleton_is_unit():
    assert mu_n((fw("abc"),)) == (fw(""),)


def test_mu_rationals():
    assert mu_n((rat(2), rat(5), rat(1))) == (rat(3), rat(0), rat(4))


def test_mu_not_equalizable():
    assert mu_n((fw("ab"), fw("ba"))) is None
    assert mu_n((fw("a"), fw("ab"), fw("ba"))) is None


def test_mu_result_equalizes_and_is_minimal():
    rng = random.Random(7)
    for m in ALL_MONOIDS:
        pool = candidate_values(m, 2)
        for _ in range(30):
            k = rng.randint(1, 4)
            vals = tuple(random_value(rng, m, 2) for _ in range(k))
            got = mu_n(vals)
            if got is None:
                continue
            targets = {v * x for v, x in zip(vals, got)}
            assert len(targets) == 1
            # any pointwise equalizer from the pool factors through
            if k == 2:
                for cand in brute_equalizers(vals[0], vals[1], pool):
                    assert is_instance_of((got[0], got[1]), cand)


def test_gamma_empty_chain_needs_monoid():
    assert gamma_n((), FREE) == (FREE.unit,)
    with pytest.raises(TypeError):  # the monoid is not optional
        gamma_n(())


def test_gamma_single_pair_is_identity():
    pair = (fw("b"), fw(""))
    assert gamma_n([pair], FREE) == pair


def test_gamma_unit_chain_stays_unit():
    for m in ALL_MONOIDS:
        e = m.unit
        for k in range(1, 5):
            assert gamma_n([(e, e)] * k, m) == tuple([e] * (k + 1))


def test_gamma_accumulation_failure():
    # like eta, a chain that does not accumulate answers None
    assert gamma_n([(fw(""), fw("a")), (fw("b"), fw(""))], FREE) is None

    def pair(word, q):
        return MonoidValue(PROD, (word, Fraction(q)))

    # the rational components always align, the free ones do not
    chain = [(pair("", 0), pair("a", 1)), (pair("b", 2), pair("", 0))]
    assert gamma_n(chain, PROD) is None
    assert gamma_n(chain[:1], PROD) == chain[0]


def test_gamma_over_eta_chain_matches_mu():
    rng = random.Random(99)
    for m in ALL_MONOIDS:
        for _ in range(60):
            k = rng.randint(2, 5)
            vals = tuple(random_value(rng, m, 2) for _ in range(k))
            mu = mu_n(vals)
            chain = []
            ok = True
            for x, y in zip(vals, vals[1:]):
                r = eta(x, y)
                if r is None:
                    ok = False
                    break
                chain.append(r)
            if not ok or mu is None:
                assert not ok or mu is None
                continue
            assert gamma_n(chain, m) == mu


# --- literals --------------------------------------------------------------


def test_descriptor_round_trip():
    for text in [
        "free:ab",
        "free:1",
        "nnrat",
        "intgrp",
        "product(free:ab,nnrat)",
        "product(free:xy,product(nnrat,intgrp))",
    ]:
        m = parse_descriptor(text)
        assert format_descriptor(m) == text
        assert parse_descriptor(format_descriptor(m)) == m


def test_descriptor_rejects_garbage():
    for text in ["free:", "rat", "product(nnrat)", "product(nnrat,nnrat,nnrat)", ""]:
        with pytest.raises(ValueError):
            parse_descriptor(text)
    with pytest.raises(ValueError, match="unknown descriptor"):
        format_descriptor(Monoid())


def test_value_literal_round_trip():
    cases = [
        (FREE, '"abc"'),
        (FREE, '""'),
        (RAT, "3/2"),
        (RAT, "7"),
        (INT, "-5"),
        (INT, "0"),
        (PROD, '("ab",3)'),
        (NESTED, '("xy",(1/2,-3))'),
    ]
    for m, text in cases:
        v = parse_value(m, text)
        assert format_value(v) == text
        assert parse_value(m, format_value(v)) == v


def test_value_literal_errors():
    with pytest.raises(ValueError):
        parse_value(RAT, "3/0")
    with pytest.raises(ValueError):
        parse_value(RAT, "-2")
    with pytest.raises(ValueError):
        parse_value(RAT, "1.5")
    with pytest.raises(ValueError):
        parse_value(FREE, "abc")
    with pytest.raises(ValueError):
        parse_value(FREE, '"xyz"')
    with pytest.raises(ValueError):
        parse_value(PROD, '("ab")')


def test_rational_arithmetic_stays_exact():
    third = parse_value(RAT, "1/3")
    assert third * third * third == rat(1)
    assert format_value(third * rat(Fraction(1, 6))) == "1/2"


def test_payload_validation():
    with pytest.raises(ValueError):
        MonoidValue(FREE, "zz")
    with pytest.raises(ValueError):
        MonoidValue(FreeWords(("a",)), "z")
    with pytest.raises(ValueError):
        MonoidValue(FREE, "az")
    with pytest.raises(ValueError):
        MonoidValue(RAT, -1)
    with pytest.raises(ValueError):
        MonoidValue(RAT, 0.5)
    with pytest.raises(ValueError):
        MonoidValue(INT, "3")
    # a string payload means what the literal means; bools are not numbers
    for payload in (True, None, "1.5", "1e3", " 1/2 ", "3/2\n"):
        with pytest.raises(ValueError):
            MonoidValue(RAT, payload)
    assert MonoidValue(RAT, "3/2") == rat(Fraction(3, 2))
    with pytest.raises(ValueError):
        INT.parse_payload("5\n")
    with pytest.raises(ValueError):
        FreeWords(("ab",))
    with pytest.raises(ValueError):
        FreeWords(("a", "a"))
    with pytest.raises(ValueError, match="not allowed in literals"):
        FreeWords(("a", "("))
    with pytest.raises(ValueError, match="must be str"):
        MonoidValue(FREE, 3)
    with pytest.raises(ValueError, match="2-tuple"):
        MonoidValue(PROD, "ab")


def test_values_are_hashable_and_comparable():
    s = {fw("a"), fw("a"), fw("b"), rat(1), ig(1)}
    assert len(s) == 4


def test_values_of_separately_built_equal_descriptors_hash_alike():
    nested = lambda: PairOf(FreeWords(("x", "y")), PairOf(NonNegRationals(), Integers()))
    for make, payload in (
        (lambda: FreeWords(("x", "y")), "xy"),
        (nested, ("yx", (Fraction(1, 2), -3))),
    ):
        a, b = MonoidValue(make(), payload), MonoidValue(make(), payload)
        assert a.monoid is not b.monoid
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    for m1, m2, payload in (
        (FreeWords(("x", "y")), FreeWords(("x", "y", "z")), "x"),
        (RAT, INT, 2),
        (PairOf(INT, INT), PairOf(RAT, INT), (1, 2)),
    ):
        a, b = MonoidValue(m1, payload), MonoidValue(m2, payload)
        assert a.payload == b.payload and hash(a) == hash(b)
        assert a != b and len({a, b}) == 2


# --- the Monoid contract ---------------------------------------------------


class Naturals(Monoid):
    """Non-negative ints under +, supplying only the four methods the base
    class does not derive."""

    def fold_payloads(self, payloads):
        return sum(payloads, 0)

    def solve_payload(self, a, b):
        return b - a if b >= a else None

    def check_payload(self, a):
        if isinstance(a, bool) or not isinstance(a, int) or a < 0:
            raise ValueError(f"natural payload expected, got {a!r}")
        return a

    def parse_payload(self, text: str):
        if not text.isdigit():
            raise ValueError(f"bad natural literal {text!r}")
        return int(text)


def test_a_monoid_supplying_four_methods_gets_the_rest():
    nat = Naturals()
    n = lambda k: MonoidValue(nat, k)
    assert op(n(2), n(3)) == n(2) * n(3) == n(5)
    assert format_value(n(7)) == "7" and parse_value(nat, "7") == n(7)
    assert nat.unit == n(0) and nat.commutative is False
    assert eta(n(4), n(4)) == (n(0), n(0))
    assert eta(n(2), n(5)) == (n(3), n(0))
    assert eta(n(5), n(2)) == (n(0), n(3))
    # the mges of (2, 5) and (5, 1) accumulate through eta(0, 0)
    assert gamma_n([(n(3), n(0)), (n(0), n(4))], nat) == (n(3), n(0), n(4))
    # two runs over a a* b that pay 2 early and late, and 1 per inner a
    t = Transducer(("a", "b"), nat, 4, {0}, {3}, [
        (0, "a", 2, 1), (1, "a", 1, 1), (1, "b", 0, 3),
        (0, "a", 0, 2), (2, "a", 1, 2), (2, "b", 2, 3),
    ])
    verdict = functionality(t)
    assert verdict.functional
    b = build(t, verdict)
    for word in all_words(t.alphabet, 5):
        outputs = enumerate_outputs(t, word)
        assert len(outputs) <= 1
        assert evaluate(b, word) == next(iter(outputs), None), word
