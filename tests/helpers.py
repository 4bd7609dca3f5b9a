"""Shared test utilities: brute-force oracles and random generators.

Everything here works directly on raw transitions or raw payload
enumeration, independent of the determinization, squaring, and compile
machinery under test; only functional_draws runs the functionality
test, as a filter on random draws, and functionality_reference borrows
its trim and ε gates, which come before the squaring it checks.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from fractions import Fraction

from bimc.fsa import Transducer, eps_closure, explore, reachable, trim
from bimc.functionality import eps_cycle_check, eps_language, test_functionality
from bimc.monoid import (
    DescriptorMismatch,
    FreeWords,
    Integers,
    MonoidValue,
    NonNegRationals,
    PairOf,
    eta,
    format_value,
    op,
    solve_right,
)
from bimc.squared import SquaredAutomaton


# random_transducer's own free words first, then the other output monoids
TRANSDUCER_MONOIDS = (
    None,
    NonNegRationals(),
    Integers(),
    PairOf(FreeWords(("x", "y")), PairOf(NonNegRationals(), Integers())),
)


def all_words(alphabet, max_len):
    """Every input word over alphabet up to max_len, shortest first."""
    for n in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=n):
            yield w


def random_value(rng, m, size=4):
    if isinstance(m, FreeWords):
        k = rng.randint(0, size)
        return MonoidValue(m, "".join(rng.choice(m.alphabet) for _ in range(k)))
    if isinstance(m, NonNegRationals):
        return MonoidValue(m, Fraction(rng.randint(0, 3 * size), rng.randint(1, size)))
    if isinstance(m, Integers):
        return MonoidValue(m, rng.randint(-3 * size, 3 * size))
    if isinstance(m, PairOf):
        return MonoidValue(
            m,
            (random_value(rng, m.left, size).payload, random_value(rng, m.right, size).payload),
        )
    raise TypeError(m)


def candidate_values(m, size=3):
    """A bounded but systematic pool of elements used for brute-force
    equalizer searches."""
    if isinstance(m, FreeWords):
        return [
            MonoidValue(m, "".join(w))
            for n in range(size + 1)
            for w in itertools.product(m.alphabet, repeat=n)
        ]
    if isinstance(m, NonNegRationals):
        pool = {Fraction(k, d) for d in (1, 2, 3) for k in range(0, 3 * size + 1)}
        return [MonoidValue(m, f) for f in sorted(pool)]
    if isinstance(m, Integers):
        return [MonoidValue(m, k) for k in range(-3 * size, 3 * size + 1)]
    if isinstance(m, PairOf):
        return [
            MonoidValue(m, (a.payload, b.payload))
            for a in candidate_values(m.left, max(1, size - 1))
            for b in candidate_values(m.right, max(1, size - 1))
        ]
    raise TypeError(m)


def brute_equalizers(m1, m2, candidates):
    """All (x1, x2) from the pool with m1*x1 == m2*x2."""
    return [(x1, x2) for x1 in candidates for x2 in candidates if m1 * x1 == m2 * x2]


def is_instance_of(mge, equalizer):
    """True when the equalizer factors through the mge on the right."""
    x1, x2 = mge
    k1, k2 = equalizer
    c = solve_right(x1, k1)
    return c is not None and x2 * c == k2


def inverse(v):
    """Two-sided inverse of v, or None when v is not invertible: in free
    words and the non-negative rationals only the unit is, in the
    integers every element, in a product a pair of invertibles.

    With eta it gives the reference derivation of solve_right: for
    (x1, x2) = eta(m, n), m*c == n has a solution iff x2 is invertible,
    and then c = x1 * inverse(x2).
    """

    def payload(m, a):
        if isinstance(m, FreeWords):
            return "" if a == "" else None
        if isinstance(m, NonNegRationals):
            return Fraction(0) if a == 0 else None
        if isinstance(m, Integers):
            return -a
        if isinstance(m, PairOf):
            left, right = payload(m.left, a[0]), payload(m.right, a[1])
            return None if left is None or right is None else (left, right)
        raise TypeError(m)

    r = payload(v.monoid, v.payload)
    return None if r is None else MonoidValue(v.monoid, r)


def unit_payload(m):
    """The unit payload of m, written out per instance."""
    if isinstance(m, FreeWords):
        return ""
    if isinstance(m, NonNegRationals):
        return Fraction(0)
    if isinstance(m, Integers):
        return 0
    if isinstance(m, PairOf):
        return (unit_payload(m.left), unit_payload(m.right))
    raise TypeError(m)


def op_reference(m, a, b):
    """The payload product a * b in m by each instance's own rule:
    concatenation in free words, the sum in the rationals and the
    integers, componentwise in products."""
    if isinstance(m, (FreeWords, NonNegRationals, Integers)):
        return a + b
    if isinstance(m, PairOf):
        return (op_reference(m.left, a[0], b[0]), op_reference(m.right, a[1], b[1]))
    raise TypeError(m)


def common_value(m, payloads):
    """The value that the mge equalizes the nonempty set payloads to, by
    each instance's own rule: the longest word in free words, where they
    must be prefixes of it, the largest rational, componentwise in a
    product.  Integers form a group, where any choice equalizes, so an
    integer component reads None.  Of a single payload: the payload,
    with its integer components as None."""
    if isinstance(m, FreeWords):
        top = max(payloads, key=len)
        assert all(top.startswith(w) for w in payloads), payloads
        return top
    if isinstance(m, NonNegRationals):
        return max(payloads)
    if isinstance(m, Integers):
        return None
    if isinstance(m, PairOf):
        return (
            common_value(m.left, {a for a, _ in payloads}),
            common_value(m.right, {b for _, b in payloads}),
        )
    raise TypeError(m)


def joint_view_outputs(t, word):
    """The joint view of the successful runs of the real-time t on word,
    by a direct walk over those runs: a list of len(word) + 1 payloads,
    item i the common_value of the outputs after i symbols of the runs,
    or None when no run on word succeeds.  A state at position i is kept
    when it reads the rest of word into a final state."""
    assert t.real_time
    m = t.monoid
    step = defaultdict(list)
    for tr in t.transitions:
        step[(tr.src, tr.inp)].append((tr.out.payload, tr.dst))
    alive = [set(t.final)]  # built backward: alive[i] reads word[i:] into a final state
    for sym in reversed(word):
        after = alive[-1]
        alive.append(
            {p for (p, s), ms in step.items() if s == sym and any(q in after for _, q in ms)}
        )
    alive.reverse()
    nodes = {(p, unit_payload(m)) for p in t.initial & alive[0]}
    if not nodes:
        return None
    views = [common_value(m, {out for _, out in nodes})]
    for i, sym in enumerate(word):
        nodes = {
            (q, op_reference(m, out, v))
            for p, out in nodes
            for v, q in step.get((p, sym), ())
            if q in alive[i + 1]
        }
        views.append(common_value(m, {out for _, out in nodes}))
    return views


def eta_reference(a, b):
    """Mge of the values (a, b) as a payload pair, or None, by each
    instance's own rule: the prefix rule in free words, the max rule in
    the non-negative rationals, (0, a - b) in the integers,
    componentwise in products."""

    def payloads(m, a, b):
        if isinstance(m, FreeWords):
            if b.startswith(a):
                return (b[len(a):], "")
            if a.startswith(b):
                return ("", a[len(b):])
            return None
        if isinstance(m, NonNegRationals):
            top = max(a, b)
            return (top - a, top - b)
        if isinstance(m, Integers):
            return (0, a - b)
        if isinstance(m, PairOf):
            left, right = payloads(m.left, a[0], b[0]), payloads(m.right, a[1], b[1])
            if left is None or right is None:
                return None
            return ((left[0], right[0]), (left[1], right[1]))
        raise TypeError(m)

    if a.monoid != b.monoid:
        raise DescriptorMismatch(f"{a.monoid} vs {b.monoid}")
    return payloads(a.monoid, a.payload, b.payload)


def mu_n(values):
    """Mge of a tuple of values: the componentwise-minimal (x1..xk) with
    all values[i]*xi equal.  None when the tuple is not equalizable.

    The oracle for gamma_n: built by extending the mge of the first k-1
    components with eta(values[-2], values[-1]), re-aligning through one
    more eta, so it works on the values themselves rather than on a
    chain of pairwise mges.
    """
    values = tuple(values)
    if not values:
        raise ValueError("mu_n of an empty tuple")
    m = values[0].monoid
    for v in values[1:]:
        if v.monoid != m:
            raise DescriptorMismatch(f"{m} vs {v.monoid}")
    if len(values) == 1:
        return (m.unit,)
    acc = eta(values[0], values[1])
    if acc is None:
        return None
    acc = list(acc)
    for i in range(1, len(values) - 1):
        w = eta(values[i], values[i + 1])
        if w is None:
            return None
        z = eta(acc[-1], w[0])
        if z is None:
            return None
        zx, zy = z
        acc = [x * zx for x in acc] + [w[1] * zy]
    return tuple(acc)


def dump_valuation(sq, val) -> str:
    """One line per squared pair with its rho (payloads) and nu (values),
    dashes for undefined entries."""

    def render(entry, fmt):
        if entry is None:
            return "-"
        return f"({fmt(entry[0])},{fmt(entry[1])})"

    lines = []
    for i, (p1, p2) in enumerate(sq.pairs):
        rho = render(val.rho.get(i), sq.monoid.format_payload)
        lines.append(f"(({p1},{p2})) rho={rho} nu={render(val.nu.get(i), format_value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def squared_reference(t):
    """The ordered squared automaton by the per-symbol walk: every pair
    (p, q) in both orientations; from each pair, every two moves on each
    input symbol in alphabet order, then each ε move of the second
    component, then of the first, the other waiting with the unit
    payload; arcs are labelled by payloads, none is swapped, and a
    repeated arc is dropped, the first one kept in place.  The oracle
    for squared, which builds each distinct arc once and only the pairs
    with p <= q (canonical_projection)."""
    moves = {key: [(out.payload, q) for out, q in ms] for key, ms in t.moves.items()}
    unit = t.monoid.unit.payload

    def successors(pair):
        p1, p2 = pair
        for sym in t.alphabet:
            for m1, q1 in moves.get((p1, sym), ()):
                for m2, q2 in moves.get((p2, sym), ()):
                    yield (m1, m2), (q1, q2)
        for m2, q2 in moves.get((p2, None), ()):
            yield (unit, m2), (p1, q2)
        for m1, q1 in moves.get((p1, None), ()):
            yield (m1, unit), (q1, p2)

    starts = [(p1, p2) for p1 in sorted(t.initial) for p2 in sorted(t.initial)]
    order, arcs = explore(starts, successors, "squared")
    transitions = dict.fromkeys((src, m1, m2, dst, False) for src, (m1, m2), dst in arcs)
    final = frozenset(
        i for i, (p1, p2) in enumerate(order) if p1 in t.final and p2 in t.final
    )
    initial = frozenset(range(len(starts)))
    return SquaredAutomaton(t.monoid, tuple(order), initial, final, tuple(transitions))


def canonical_projection(sq):
    """The pairs (p, q) with p <= q of an ordered squared automaton, such
    as squared_reference's, as a set, and the arcs out of them as a set
    of (src pair, m1, m2, dst pair, swapped), dst with p <= q and
    swapped when the ordered target had p > q: what squared builds."""
    pairs = {pair for pair in sq.pairs if pair[0] <= pair[1]}
    arcs = set()
    for src, m1, m2, dst, _ in sq.transitions:
        p, q = sq.pairs[dst]
        if sq.pairs[src] in pairs:
            arcs.add((sq.pairs[src], m1, m2, (min(p, q), max(p, q)), p > q))
    return pairs, arcs


def valuation_reference(sq, useful):
    """rho (payload pairs) and nu (value pairs) as dicts, by the per-pair
    rule: visit the useful pairs in discovery order, an initial one set
    to (e, e), and hand each pair's rho on along its arcs to the useful
    pairs not yet set, swapped along a swapped arc.  The oracle for
    squared.valuation's single scan of the arcs."""
    out_edges = defaultdict(list)
    for src, m1, m2, dst, swapped in sq.transitions:
        out_edges[src].append((m1, m2, dst, swapped))
    m = sq.monoid
    unit = m.unit
    rho = {}
    for i in range(len(sq.pairs)):
        if i not in useful:
            continue
        if i in sq.initial:
            rho[i] = (unit.payload, unit.payload)
        assert i in rho, "useful pair reached before its predecessors"
        x1, x2 = rho[i]
        for m1, m2, dst, swapped in out_edges[i]:
            if dst in useful and dst not in rho:
                y1, y2 = m.op_payload(x1, m1), m.op_payload(x2, m2)
                rho[dst] = (y2, y1) if swapped else (y1, y2)
    nu = {}
    for i, (x1, x2) in rho.items():
        nu_i = (unit, unit) if x1 == x2 else eta(MonoidValue(m, x1), MonoidValue(m, x2))
        if nu_i is not None:
            nu[i] = nu_i
    return rho, nu


def functionality_reference(t):
    """(functional, witness kind or None) by the ordered squared
    automaton: trim and the ε gates of test_functionality, then
    squared_reference, valuation_reference and the same three checks
    over every pair in both orientations: every useful pair equalizable,
    every useful arc balanced against its target's nu, every final pair
    balanced.  The oracle for test_functionality, which checks only the
    pairs with p <= q."""
    trimmed, _ = trim(t)
    eps_paths = eps_closure(trimmed)
    if eps_cycle_check(trimmed, eps_paths) is not None:
        return False, "eps-cycle"
    if len(eps_language(trimmed, eps_paths)) > 1:
        return False, "eps-language"
    sq = squared_reference(trimmed)
    useful = reachable(sq.final, [(dst, src) for src, _, _, dst, _ in sq.transitions])
    rho, nu = valuation_reference(sq, useful)
    if useful - nu.keys():
        return False, "unequalizable-pair"
    op = sq.monoid.op_payload
    for src, m1, m2, dst, _ in sq.transitions:
        if src in useful and dst in useful:
            (x1, x2), (y1, y2) = rho[src], nu[dst]
            if op(op(x1, m1), y1.payload) != op(op(x2, m2), y2.payload):
                return False, "transition-mismatch"
    unit = sq.monoid.unit
    if any(nu.get(f) != (unit, unit) for f in sq.final):
        return False, "final-imbalance"
    return True, None


def run_dfa(dfa, word):
    """The state dfa reaches reading word from its start, or None when
    a move is undefined."""
    q = dfa.start
    for sym in word:
        q = dfa.delta.get((q, sym))
        if q is None:
            return None
    return q


def eps_closure_reference(n_states, eps_arcs, unit):
    """(outof, into): outof as fsa.eps_closure returns it, by a separate
    breadth-first walk over (state, value) pairs from each state in
    turn, each with its own seen set, and into[q] the (start, value)
    pairs of the paths ending at q.  The oracle for eps_closure's one
    numbering of (start, state, value) nodes."""
    step = defaultdict(list)
    for src, value, dst in eps_arcs:
        step[src].append((value, dst))
    outof = []
    into = [[] for _ in range(n_states)]
    for q in range(n_states):
        items = [(q, unit)]
        seen = set(items)
        for p, v in items:  # items grows while it is read: breadth first
            into[p].append((q, v))
            for m, dst in step[p]:
                node = (dst, v * m)
                if node not in seen:
                    seen.add(node)
                    items.append(node)
        outof.append(items)
    return outof, into


def eps_cycle_reference(t):
    """The states on a nonunit closed ε walk, by a queue: label each
    strongly connected ε component from its smallest state, and return
    the frozenset of the states of every component where a second,
    different label reaches a state.  By left and right cancellation a
    label clashes exactly where a component holds a nonunit closed walk,
    and then every state of it lies on one."""
    eps_from = defaultdict(list)
    for tr in t.transitions:
        if tr.inp is None:
            eps_from[tr.src].append((tr.out, tr.dst))
    arcs = [(src, 1, dst) for src, moves in eps_from.items() for _, dst in moves]
    outof, into = eps_closure_reference(t.n_states, arcs, 1)
    placed, on_cycles = set(), set()
    for root in range(t.n_states):
        if root in placed:
            continue
        component = {p for p, _ in outof[root]} & {p for p, _ in into[root]}
        placed |= component
        label = {root: t.monoid.unit}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for out, v in eps_from[u]:
                if v not in component:
                    continue
                cand = label[u] * out
                if v not in label:
                    label[v] = cand
                    queue.append(v)
                elif label[v] != cand:
                    on_cycles |= component
    return frozenset(on_cycles)


def eps_diamond_chain(k=16):
    """k ε diamonds in a row, i -ε/a-> i+1 and i -ε/b-> i+1 for i < k,
    then k -x/""-> k+1: 2**k ε paths into state k, each with its own
    output, so the labelled ε closure numbers more than 2**k nodes while
    the transducer has k + 2 states."""
    arcs = [(i, None, out, i + 1) for i in range(k) for out in ("a", "b")]
    arcs.append((k, "x", "", k + 1))
    return Transducer(("x",), FreeWords(("a", "b")), k + 2, {0}, {k + 1}, arcs)


def pair_index(sq):
    """Position of each state pair in the squared automaton's pairs."""
    return {pair: i for i, pair in enumerate(sq.pairs)}


def random_transducer(
    rng,
    max_states=4,
    max_symbols=3,
    allow_eps=False,
    require_eps=False,
    out_symbols=("x", "y"),
    max_out_len=2,
    monoid=None,
):
    """Free words over out_symbols, unless another monoid is given."""
    n = rng.randint(1, max_states)
    sigma = ("a", "b", "c")[: rng.randint(1, max_symbols)]
    free = monoid is None
    if free:
        monoid = FreeWords(tuple(out_symbols))
    arcs = []
    for _ in range(rng.randint(1, n + 3)):
        src = rng.randrange(n)
        dst = rng.randrange(n)
        if allow_eps and rng.random() < 0.3:
            inp = None
        else:
            inp = rng.choice(sigma)
        if free:
            out = "".join(rng.choice(out_symbols) for _ in range(rng.randint(0, max_out_len)))
        else:
            out = random_value(rng, monoid, max_out_len)
        arcs.append((src, inp, out, dst))
    if require_eps and not any(a[1] is None for a in arcs):
        src, _, out, dst = arcs[rng.randrange(len(arcs))]
        arcs.append((src, None, out, dst))
    initial = set(rng.sample(range(n), rng.randint(1, min(2, n))))
    n_final = rng.choice([0, 1, 1, 1, 2])
    final = set(rng.sample(range(n), min(n_final, n)))
    return Transducer(sigma, monoid, n, initial, final, arcs)


def split_value(rng, v):
    """A random (u, w) with u * w == v, u not the unit where v allows
    it: a prefix of a word, a share of a rational, any integer but 0,
    componentwise in a product."""

    def payloads(m, a):
        if isinstance(m, FreeWords):
            k = rng.randint(1, len(a)) if a else 0
            return a[:k], a[k:]
        if isinstance(m, NonNegRationals):
            u = a * Fraction(rng.randint(1, 3), 3)
            return u, a - u
        if isinstance(m, Integers):
            u = rng.choice((-2, -1, 1, 2))
            return u, a - u
        if isinstance(m, PairOf):
            (ul, wl), (ur, wr) = payloads(m.left, a[0]), payloads(m.right, a[1])
            return (ul, ur), (wl, wr)
        raise TypeError(m)

    u, w = payloads(v.monoid, v.payload)
    return MonoidValue(v.monoid, u), MonoidValue(v.monoid, w)


def with_eps_detours(rng, t, share=0.5):
    """t with each symbol transition p -a/v-> q, with probability p,
    replaced by p -ε/u-> r -a/w-> q through a fresh state r, where
    u * w == v (split_value).  r has no other move and is neither
    initial nor final, so the relation is unchanged; the ε moves sit on
    the paths of the transition they split, so trimming keeps them
    wherever it keeps that transition."""
    arcs = []
    n = t.n_states
    for tr in t.transitions:
        if tr.inp is None or rng.random() >= share:
            arcs.append(tr)
            continue
        u, w = split_value(rng, tr.out)
        arcs += [(tr.src, None, u, n), (n, tr.inp, w, tr.dst)]
        n += 1
    return Transducer(t.alphabet, t.monoid, n, t.initial, t.final, arcs)


def functional_draws(rng, count, monoid=None, eps=False):
    """count (t, verdict) pairs of random_transducer draws over monoid
    that the functionality test accepts and whose trimmed transducer
    keeps a transition.  With eps, each draw requires an ε move and goes
    through with_eps_detours; without, it has no ε move."""
    draws = []
    while len(draws) < count:
        t = random_transducer(rng, allow_eps=eps, require_eps=eps, monoid=monoid)
        if eps:
            t = with_eps_detours(rng, t)
        verdict = test_functionality(t)
        if verdict.functional and verdict.trimmed.transitions:
            draws.append((t, verdict))
    return draws


def random_pseudo_det(
    rng, max_states=4, max_symbols=2, out_symbols=("x", "y"), max_out_len=2, monoid=None
):
    """Random transducer that is deterministic over (symbol, output)
    pairs: single initial state, distinct outputs per (state, symbol).
    Free words over out_symbols, unless another monoid is given."""
    n = rng.randint(1, max_states)
    sigma = ("a", "b", "c")[: rng.randint(1, max_symbols)]
    free = monoid is None
    if free:
        monoid = FreeWords(tuple(out_symbols))
    arcs = []
    for src in range(n):
        for sym in sigma:
            outs = set()
            for _ in range(rng.choice((0, 1, 1, 2))):
                if free:
                    out = "".join(
                        rng.choice(out_symbols) for _ in range(rng.randint(0, max_out_len))
                    )
                else:
                    out = random_value(rng, monoid, max_out_len).payload
                if out in outs:
                    continue
                outs.add(out)
                arcs.append((src, sym, out, rng.randrange(n)))
    final = set(rng.sample(range(n), rng.randint(0, min(2, n))))
    return Transducer(sigma, monoid, n, {rng.randrange(n)}, final, arcs)


def evaluate_reference(b, word):
    """bimachine.evaluate as a walk over the machine's own dicts, keyed by
    (state, symbol) and (left state, symbol, right state): the oracle for
    the evaluator's flat tables.  The positional outputs are multiplied
    one by one with op, so the product does not go through fold_payloads."""
    from bimc.bimachine import AlphabetError

    syms = tuple(word)
    unknown = set(syms).difference(b.alphabet)
    if unknown:
        s = next(s for s in syms if s in unknown)
        raise AlphabetError(f"symbol {s!r} is not in the input alphabet")
    if not syms:
        return b.eps_output
    outputs = positional_outputs(b, syms)
    if outputs is None:
        return None
    product = b.monoid.unit
    for v in outputs:
        product = op(product, v)
    return product


def positional_outputs(b, syms):
    """The psi values the machine emits along the nonempty symbol tuple
    syms, one per position, read off its dicts; None when a move or an
    entry is undefined (the left move after the last symbol may be)."""
    n = len(syms)
    # suffix[i] = right state after consuming syms[i:] backwards
    suffix = [0] * (n + 1)
    suffix[n] = b.right.start
    for i in range(n - 1, -1, -1):
        nxt = b.right.delta.get((suffix[i + 1], syms[i]))
        if nxt is None:
            return None
        suffix[i] = nxt
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
    return outputs


def random_bimachine(rng, max_states=4, max_symbols=3, out_symbols=("x", "y"), monoid=None):
    """A structurally valid bimachine with random partial tables, with
    free words over out_symbols unless another monoid is given.  One
    draw in four declares a symbol, z, that no row uses."""
    from bimc.bimachine import Bimachine
    from bimc.fsa import Dfa

    sigma = ("a", "b", "c")[: rng.randint(1, max_symbols)]
    alphabet = sigma + ("z",) if rng.random() < 0.25 else sigma
    if monoid is None:
        monoid = FreeWords(tuple(out_symbols))

    def rand_dfa():
        n = rng.randint(1, max_states)
        delta = {}
        for q in range(n):
            for s in sigma:
                if rng.random() < 0.8:
                    delta[(q, s)] = rng.randrange(n)
        return Dfa(n, rng.randrange(n), delta)

    left, right = rand_dfa(), rand_dfa()
    psi = {}
    for l in range(left.n_states):
        for s in sigma:
            for r in range(right.n_states):
                if rng.random() < 0.7:
                    psi[(l, s, r)] = random_value(rng, monoid, 2)
    eps = random_value(rng, monoid, 2) if rng.random() < 0.5 else None
    return Bimachine(monoid, alphabet, left, right, psi, eps)


def output_table(t, max_len, max_steps=None, node_cap=None, stop_on_conflict=False):
    """Map every input word up to max_len to its set of path outputs,
    walking raw transitions breadth-first.

    Only states that can still reach a final state are explored; every
    prefix of a successful path stays inside that set, so the table is
    unaffected and dead value-growing cycles cannot stall the walk.
    Paths longer than max_steps transitions are cut off; node_cap bounds
    the search frontier for inputs with value-growing cycles.  Returns
    (table, truncated).
    """
    if max_steps is None:
        max_steps = 2 * t.n_states * (max_len + 1)
    unit = t.monoid.unit
    into = defaultdict(set)
    for tr in t.transitions:
        into[tr.dst].add(tr.src)
    alive = set(t.final)
    stack = list(alive)
    while stack:
        for p in into[stack.pop()]:
            if p not in alive:
                alive.add(p)
                stack.append(p)
    eps_from = defaultdict(list)
    sym_from = defaultdict(list)
    for tr in t.transitions:
        if tr.dst not in alive:
            continue
        if tr.inp is None:
            eps_from[tr.src].append((tr.out, tr.dst))
        else:
            sym_from[tr.src].append((tr.inp, tr.out, tr.dst))
    table = defaultdict(set)
    queue = deque()
    seen = set()
    for i in sorted(t.initial & alive):
        node = (i, (), unit)
        seen.add(node)
        queue.append((node, 0))
    truncated = False
    while queue:
        (state, word, out), steps = queue.popleft()
        if state in t.final:
            table[word].add(out)
            if stop_on_conflict and len(table[word]) > 1:
                return dict(table), truncated
        succ = [(word, out * m, dst) for m, dst in eps_from[state]]
        if len(word) < max_len:
            succ += [(word + (sym,), out * m, dst) for sym, m, dst in sym_from[state]]
        for nword, nout, dst in succ:
            node = (dst, nword, nout)
            if node not in seen:
                if steps >= max_steps or (node_cap is not None and len(seen) >= node_cap):
                    truncated = True
                    continue
                seen.add(node)
                queue.append((node, steps + 1))
    return dict(table), truncated


def count_paths(t, word):
    """Number of successful paths consuming exactly word (real-time only)."""
    assert t.real_time
    by_step = defaultdict(list)
    for tr in t.transitions:
        by_step[(tr.src, tr.inp)].append(tr.dst)
    counts = {q: 1 for q in t.initial}
    for sym in word:
        nxt = defaultdict(int)
        for q, c in counts.items():
            for dst in by_step[(q, sym)]:
                nxt[dst] += c
        counts = nxt
    return sum(c for q, c in counts.items() if q in t.final)


def eps_free_steps(t):
    """The real-time transducer on t's states, initial and final sets with
    one arc per generalized path p ->eps* a eps*-> q, its output the
    product along the path, repeats dropped.  Every ε cycle of t must
    multiply to the unit, so each state's ε paths end in finitely many
    (state, output) pairs."""
    m = t.monoid
    eps_from = defaultdict(list)
    for tr in t.transitions:
        if tr.inp is None:
            eps_from[tr.src].append((tr.out.payload, tr.dst))
    closure = []  # closure[p]: the (end, output) pairs of the ε paths from p
    for p in range(t.n_states):
        items = [(p, unit_payload(m))]
        seen = set(items)
        for q, v in items:  # items grows while it is read
            for out, dst in eps_from[q]:
                node = (dst, op_reference(m, v, out))
                if node not in seen:
                    seen.add(node)
                    items.append(node)
        closure.append(items)
    arcs = {}  # as an ordered set
    for p in range(t.n_states):
        for q, v in closure[p]:
            for tr in t.transitions:
                if tr.src == q and tr.inp is not None:
                    before = op_reference(m, v, tr.out.payload)
                    for r, w in closure[tr.dst]:
                        arcs[p, tr.inp, op_reference(m, before, w), r] = None
    return Transducer(t.alphabet, m, t.n_states, t.initial, t.final, arcs)


def remove_eps_edges(t):
    """Naive epsilon removal on the input projection: an a-transition
    from p to w, with the unit output, for every generalized path
    p ->eps* a eps*-> w.  Initial and final states unchanged."""
    eps_next = defaultdict(set)
    step = defaultdict(set)
    for tr in t.transitions:
        if tr.inp is None:
            eps_next[tr.src].add(tr.dst)
        else:
            step[(tr.src, tr.inp)].add(tr.dst)
    closure = {}
    for q in range(t.n_states):
        seen = {q}
        stack = [q]
        while stack:
            u = stack.pop()
            for v in eps_next[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        closure[q] = seen
    edges = set()
    for p in range(t.n_states):
        for u in closure[p]:
            for sym in t.alphabet:
                for v in step[(u, sym)]:
                    for w in closure[v]:
                        edges.add((p, sym, w))
    arcs = [(p, sym, t.monoid.unit, w) for p, sym, w in sorted(edges)]
    return Transducer(t.alphabet, t.monoid, t.n_states, t.initial, t.final, arcs)
