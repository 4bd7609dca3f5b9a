"""Text formats for transducers and bimachines, plus the command line.

The transducer format is line based: `monoid <descriptor>`, `alphabet
<sym>...`, `states <count>`, `initial <idx>...`, `final <idx>...`, and
one `t <src> <sym> <value> <dst>` row per transition, where the input
symbol `-` stands for the empty input.  Full-line `#` comments and blank
lines are ignored.  Bimachines serialize to a `BIM v2` header and six
rows, which write out the machine's evaluation tables with explicit
state counts, so equal machines give identical text; the reader
requires exactly that layout, and checks every row's token count and
every number against its bound.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys
import warnings
from pathlib import Path

from ..benchmark import run_bench, to_csv, to_table
from ..bimachine import Bimachine, evaluate
from ..classical import check_pseudo_deterministic, classical_compile
from ..compiler import CompileError, compile as mge_compile
from ..fsa import (
    Dfa, OutputTable, StateLimitExceeded, Transducer, Transition, check_symbols,
    enumerate_outputs, output_cells, trusted_transducer,
)
from ..functionality import test_functionality
from ..monoid import (
    DescriptorMismatch,
    format_descriptor,
    format_value,
    parse_descriptor,
    parse_value,
)

EX_USAGE = 64   # bad command line
EX_DATAERR = 65  # well-formed command, malformed or unusable input data
EX_IOERR = 74   # file system trouble


class FormatError(ValueError):
    """Malformed transducer or bimachine text; messages carry 1-based line numbers."""


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split()


def _parsed(lineno, parse, *args):
    """parse(*args), with a ValueError reraised as a FormatError at lineno."""
    try:
        return parse(*args)
    except ValueError as err:
        raise FormatError(f"line {lineno}: {err}") from None


def _count(lineno, token, what):
    """token as a number, or a FormatError at lineno saying what was
    expected; its length is checked before int(), which refuses more
    digits than sys.get_int_max_str_digits() allows, a limit of at least
    640 where there is one."""
    if not token.isdecimal():
        raise FormatError(f"line {lineno}: {what}")
    if len(token) > 640 and 0 < sys.get_int_max_str_digits() < len(token):
        raise FormatError(f"line {lineno}: a number of {len(token)} digits is too long")
    return int(token)


def _declare(declared, name, lineno):
    """Record name as declared at lineno; a name may be declared once."""
    if name in declared:
        raise FormatError(f"line {lineno}: {name} already declared on line {declared[name]}")
    declared[name] = lineno


def parse_transducer(text: str) -> Transducer:
    """Read the line-based transducer format.

    Declarations may come in any order, each at most once; transitions
    are resolved after the whole file is read.  Duplicate transition
    rows collapse to one with a warning.  Every field is checked here,
    with its line number, so the constructor's checks are skipped.
    """
    monoid = alphabet = n_states = None
    rows = []
    state_lists = {}
    declared = {}  # line number of each declaration, which may appear once
    for lineno, tokens in _content_lines(text):
        kind, rest = tokens[0], tokens[1:]
        if kind in ("monoid", "alphabet", "states", "initial", "final"):
            _declare(declared, kind, lineno)
        if kind == "monoid":
            monoid = _parsed(lineno, parse_descriptor, " ".join(rest))
        elif kind == "alphabet":
            alphabet = _parsed(lineno, check_symbols, rest)
        elif kind == "states":  # joined, more than one token is not a number
            n_states = _count(lineno, " ".join(rest), "states needs one count")
        elif kind in ("initial", "final"):
            what = f"{kind} takes state indices"
            state_lists[kind] = frozenset(_count(lineno, x, what) for x in rest)
        elif kind == "t":
            what = "expected t <src> <sym> <value> <dst>"
            if len(rest) < 4:
                raise FormatError(f"line {lineno}: {what}")
            src, dst = _count(lineno, rest[0], what), _count(lineno, rest[-1], what)
            rows.append((lineno, src, rest[1], " ".join(rest[2:-1]), dst))
        else:
            raise FormatError(f"line {lineno}: unknown directive {kind!r}")
    for name, value in (("monoid", monoid), ("alphabet", alphabet), ("states", n_states)):
        if value is None:
            raise FormatError(f"missing {name} declaration")
    for kind, states in state_lists.items():
        for q in states:
            if q >= n_states:
                raise FormatError(
                    f"line {declared[kind]}: {kind} state {q} not among the {n_states} states"
                )
    transitions = {}  # as an ordered set
    literals = {}  # each distinct output literal is parsed once, at its first row
    for lineno, src, sym, literal, dst in rows:
        if src >= n_states or dst >= n_states:
            raise FormatError(f"line {lineno}: transition endpoint not among the {n_states} states")
        if sym != "-" and sym not in alphabet:
            raise FormatError(f"line {lineno}: undeclared symbol {sym!r}")
        value = literals.get(literal)
        if value is None:
            value = literals[literal] = _parsed(lineno, parse_value, monoid, literal)
        tr = Transition(src, None if sym == "-" else sym, value, dst)
        if tr in transitions:
            warnings.warn(f"line {lineno}: duplicate transition collapsed")
        transitions[tr] = None
    initial, final = (state_lists.get(kind, frozenset()) for kind in ("initial", "final"))
    return trusted_transducer(alphabet, monoid, n_states, initial, final, tuple(transitions))


def format_transducer(t: Transducer) -> str:
    lines = [
        f"monoid {format_descriptor(t.monoid)}",
        ("alphabet " + " ".join(t.alphabet)).rstrip(),
        f"states {t.n_states}",
        ("initial " + " ".join(str(q) for q in sorted(t.initial))).rstrip(),
        ("final " + " ".join(str(q) for q in sorted(t.final))).rstrip(),
    ]
    for tr in t.transitions:
        sym = "-" if tr.inp is None else tr.inp
        lines.append(f"t {tr.src} {sym} {format_value(tr.out)} {tr.dst}")
    return "\n".join(lines) + "\n"


def bimachine_to_text(b: Bimachine) -> str:
    """The BIM v2 text of b, its moves and output cells row by row in the
    layout of Bimachine.tables, so equal machines give identical text."""
    psi = b.psi
    eps = [] if b.eps_output is None else [b.eps_output.payload]
    values = sorted({v.payload for v in psi.distinct}.union(eps))
    number = {p: str(i) for i, p in enumerate(values)}
    label = {c if psi.counted else v.payload: number[v.payload] for c, v in enumerate(psi.distinct)}
    ids, k = psi.ids, len(psi.ids)
    rows = [("alphabet", *b.alphabet), ("values", *map(b.monoid.format_payload, values))]
    for side, dfa in (("left", b.left), ("right", b.right)):
        moves = ["-"] * (dfa.n_states * k)
        for (q, a), p in dfa.delta.items():
            moves[q * k + ids[a]] = str(p)
        rows.append((side, str(dfa.n_states), str(dfa.start), *moves))
    cells = ["-"] * (b.left.n_states * k * b.right.n_states)
    for i, x in psi.slots():
        cells[i] = label[x]
    rows += [("psi", *cells), ("eps", number[eps[0]] if eps else "-")]
    return "\n".join([f"BIM v2 {format_descriptor(b.monoid)}", *map(" ".join, rows)]) + "\n"


def _numbers(lineno, name, tokens, count, bound):
    """The count tokens after name on a row, as numbers below bound, with
    None for -; each distinct token is checked once, its length before int()."""
    if len(tokens) != count:
        raise FormatError(f"line {lineno}: token count {len(tokens)} after {name}, not {count}")
    numbers, width = {"-": None}, len(str(bound))
    for token in dict.fromkeys(tokens):
        if token != "-" and not (token.isdecimal() and len(token) <= width and int(token) < bound):
            shown = repr(token[:20]) + (f"... of {len(token)} characters" if token[20:] else "")
            raise FormatError(f"line {lineno}: {shown} is not - or a number below {bound}")
        numbers[token] = None if token == "-" else int(token)
    return [numbers[token] for token in tokens]


def bimachine_from_text(text: str) -> Bimachine:
    """Read a BIM v2 text: the header, then exactly the alphabet, values,
    left, right, psi and eps rows, in that order."""
    content = _content_lines(text)
    lineno, tokens = next(content, (None, None))
    if tokens is None:
        raise FormatError("empty input, expected a BIM v2 header")
    if tokens[:2] != ["BIM", "v2"] or len(tokens) < 3:
        raise FormatError(f"line {lineno}: expected a BIM v2 header")
    monoid = _parsed(lineno, parse_descriptor, " ".join(tokens[2:]))
    rows = []
    for name in ("alphabet", "values", "left", "right", "psi", "eps"):
        lineno, tokens = next(content, (lineno, None))
        if not tokens or tokens[0] != name:
            raise FormatError(f"line {lineno}: expected the {name} row")
        rows.append((lineno, tokens[1:]))
    if (extra := next(content, None)) is not None:
        raise FormatError(f"line {extra[0]}: unexpected row after eps")
    (line_a, symbols), (line_v, literals), *sides, (line_p, cells), (line_e, eps_row) = rows
    alphabet = _parsed(line_a, check_symbols, symbols)
    values = [_parsed(line_v, parse_value, monoid, literal) for literal in literals]
    k = len(alphabet)
    dfas = []
    for side, (lineno, tokens) in zip(("left", "right"), sides):
        what = f"expected {side} <states> <start> <next states>"
        n = _count(lineno, tokens[0] if tokens else "", what)
        start, *moves = _numbers(lineno, f"{side} {n}", tokens[1:], 1 + n * k, n)
        if start is None:
            raise FormatError(f"line {lineno}: {side} needs a start")
        keys = itertools.product(range(n), alphabet) if k else ()  # if k > 0, the count bounds n
        dfas.append(Dfa(n, start, {key: q for key, q in zip(keys, moves) if q is not None}))
    nl, nr = (dfa.n_states for dfa in dfas)
    numbers = _numbers(line_p, "psi", cells, nl * k * nr, len(values))
    if list(alphabet) != sorted(alphabet):  # the psi rows, nr cells each, in sorted symbol order
        order = sorted(range(k), key=alphabet.__getitem__)
        starts = ((l * k + i) * nr for l in range(nl) for i in order)
        numbers = [v for j in starts for v in numbers[j:j + nr]]
    psi = OutputTable(monoid, alphabet, nl, nr, len(numbers) - numbers.count(None))
    stored = {v: psi.store(values[v].payload) for v in dict.fromkeys(numbers) if v is not None}
    for i, v in enumerate(numbers):
        if v is not None:
            psi.table[i] = stored[v]
    (eps,) = _numbers(line_e, "eps", eps_row, 1, len(values))
    return Bimachine(monoid, alphabet, *dfas, psi, None if eps is None else values[eps])


class AmbiguousInputError(ValueError):
    """A raw input string that splits into alphabet symbols in more than
    one way; splits holds two of the ways.  The message shows only where
    they part: from their first different symbol to their next shared end."""

    def __init__(self, splits):
        self.splits = splits
        ends = [tuple(itertools.accumulate(map(len, w), initial=0)) for w in splits]
        k = next(i for i, (x, y) in enumerate(zip(*splits)) if x != y)
        start = ends[0][k]
        stop = min(e for e in set(ends[0]).intersection(ends[1]) if e > start)
        parts = [word[k:offsets.index(stop)] for word, offsets in zip(splits, ends)]
        shown = " and as ".join(repr(" ".join(p[:8])) + "..." * (len(p) > 8) for p in parts)
        super().__init__(f"ambiguous input: from character {start} it splits as {shown}")


@functools.lru_cache
def _prefix_code_pattern(alphabet: tuple):
    """A regex whose findall splits a string over alphabet, if no symbol is
    a proper prefix of another, else None.  Sorted, such a prefix would
    come just before a symbol that it begins."""
    symbols = sorted({sym for sym in alphabet if sym})
    if not symbols or any(b.startswith(a) for a, b in zip(symbols, symbols[1:])):
        return None

    def trie(words):  # sorted, and none a prefix of another
        if len(words) == 1:
            return re.escape(words[0])
        groups = itertools.groupby(words, key=lambda w: w[0])
        return "(?:" + "|".join(re.escape(c) + trie([w[1:] for w in g]) for c, g in groups) + ")"
    try:
        return re.compile(trie(symbols))
    except RecursionError:  # branch points nested hundreds deep: the DP splits these
        return None


def tokenize(raw: str, alphabet) -> tuple[str, ...] | None:
    """Split a raw input string into alphabet symbols (symbols may be
    several characters long); None when no segmentation exists.  A prefix
    code, with no symbol a prefix of another, splits in one regex scan.
    Another alphabet may split a string in several ways: then
    AmbiguousInputError shows where two of them part, since picking one
    would make the result depend on symbol order."""
    alphabet = tuple(alphabet)
    pattern = _prefix_code_pattern(alphabet)
    if pattern is not None:
        word = pattern.findall(raw)
        return tuple(word) if sum(map(len, word)) == len(raw) else None
    symbols = {sym for sym in alphabet if sym}
    lengths = sorted({len(sym) for sym in symbols})
    n = len(raw)
    # ways[i]: number of segmentations of raw[:i], capped at 2; back[i] and
    # alt[i]: the ends of the first and second segmented prefixes it extends
    ways = [1] + [0] * n
    back = [0] * (n + 1)
    alt = {}
    for j in range(n):
        w = ways[j]
        if not w:
            continue
        for k in lengths:
            i = j + k
            if i > n:
                break
            if raw[j:i] in symbols:
                if ways[i]:
                    ways[i] = 2
                    alt.setdefault(i, j)
                else:
                    ways[i] = w
                    back[i] = j
    if not ways[n]:
        return None
    splits = []
    for t in range(ways[n]):
        word = []
        i = n
        while i:
            j = back[i]
            if t and ways[j] == 1:
                j, t = alt[i], 0
            word.append(raw[j:i])
            i = j
        splits.append(tuple(reversed(word)))
    if len(splits) > 1:
        raise AmbiguousInputError(splits)
    return splits[0]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="bimc", description="functionality checks and bimachine compilers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether a transducer is functional")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("compile", help="compile a functional transducer to a bimachine")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--method", choices=("mge", "classical"), default="mge")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("run", help="evaluate a compiled bimachine on one input word")
    p.add_argument("file")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("bench-tn", help="state-count comparison on the T_n family")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--method", choices=("mge", "classical", "both"), default="both")
    p.add_argument("--format", choices=("csv", "table"), default="table")
    p.add_argument("--limit", type=int, help="replace the per-method safety limits")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("compare", help="cross-validate both compilers against a path walk")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, default=4)
    p.set_defaults(handler=_cmd_compare)
    return parser


def _read_verdict(path, rejections):
    """Parse the transducer file at path and test it; a rejection is
    printed to the rejections stream.  Returns (transducer, verdict)."""
    t = parse_transducer(Path(path).read_text(encoding="utf-8"))
    verdict = test_functionality(t)
    if not verdict.functional:
        w = verdict.witness
        print(f"not functional ({w.kind}: {w.detail})", file=rejections)
    return t, verdict


def _cmd_check(args):
    _, verdict = _read_verdict(args.file, sys.stdout)
    if verdict.functional:
        print("functional")
        return 0
    return 1


def _cmd_compile(args):
    t, verdict = _read_verdict(args.file, sys.stderr)
    if not verdict.functional:
        return 1
    if args.method == "classical":
        b = classical_compile(t)
    else:
        b = mge_compile(t, verdict=verdict)
    text = bimachine_to_text(b)  # first, so that a failure leaves no empty file
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    if args.stats:
        eps = "none" if b.eps_output is None else format_value(b.eps_output)
        sets = {m for *_, s, s2 in output_cells(b.left, b.right) for m in (s, s2)}
        print(
            f"left={b.left.n_states} right={b.right.n_states} "
            f"psi={len(b.psi)} slots={len(b.psi.table)} values={len(b.psi.distinct)} eps={eps} "
            f"squared={len(verdict.squared.pairs)} "
            f"useful={len(verdict.valuation.rho)} sets={len(sets)}"
        )
    return 0


def _cmd_run(args):
    b = bimachine_from_text(Path(args.file).read_text(encoding="utf-8"))
    word = tokenize(args.input, b.alphabet)
    out = evaluate(b, word) if word is not None else None
    if out is None:
        print("UNDEFINED")
        return 2
    print(format_value(out))
    return 0


def _cmd_bench(args):
    methods = ("mge", "classical") if args.method == "both" else (args.method,)
    rows = run_bench(args.max_n, methods=methods, limit=args.limit)
    print(to_csv(rows) if args.format == "csv" else to_table(rows))
    return 0


def _cmd_compare(args):
    t, verdict = _read_verdict(args.file, sys.stderr)
    if not verdict.functional:
        return 1
    machines = [("mge", mge_compile(t, verdict=verdict))]
    if check_pseudo_deterministic(t):
        machines.append(("classical", classical_compile(t)))
    else:
        print("classical skipped: not deterministic over (symbol, output) pairs")
    checked = domain = 0
    words = (itertools.product(t.alphabet, repeat=k) for k in range(args.max_len + 1))
    for word in itertools.chain.from_iterable(words):
        expected = enumerate_outputs(t, word)
        if len(expected) > 1:
            print(f"the path walk finds {len(expected)} outputs on {word!r}")
            return 1
        want = next(iter(expected), None)
        domain += want is not None
        checked += 1
        for name, b in machines:
            got = evaluate(b, word)
            if got != want:
                print(f"{name} disagrees on {word!r}: {got!r} vs {want!r}")
                return 1
    subject = "mge and classical agree" if len(machines) > 1 else "mge agrees"
    print(f"{subject} with the path walk on {checked} words ({domain} in the domain)")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for option, low in (("max_n", 1), ("max_len", 0), ("limit", 0)):
            if (value := getattr(args, option, None)) is not None and value < low:
                raise _UsageError(f"--{option.replace('_', '-')} must be at least {low}")
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EX_USAGE
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else EX_USAGE
    try:
        return args.handler(args)
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EX_IOERR
    except FormatError as err:
        print(f"format error: {err}", file=sys.stderr)
        return EX_DATAERR
    except (DescriptorMismatch, StateLimitExceeded, CompileError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EX_DATAERR


def main():
    sys.exit(cli_main())
