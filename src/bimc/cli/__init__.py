"""Text formats for transducers and bimachines, plus the command line.

The transducer format is line based: `monoid <descriptor>`, `alphabet
<sym>...`, `states <count>`, `initial <idx>...`, `final <idx>...`, and
one `t <src> <sym> <value> <dst>` row per transition, where the input
symbol `-` stands for the empty input.  Full-line `#` comments and blank
lines are ignored.  Bimachines serialize to a `BIM v1` block of sorted
rows after an alphabet row, so equal machines give identical text; the
reader requires that layout, and rejects repeated declarations,
conflicts and undeclared symbols.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import warnings
from collections import defaultdict
from pathlib import Path

from ..benchmark import run_bench
from ..bimachine import Bimachine, evaluate
from ..classical import check_pseudo_deterministic, classical_compile
from ..compiler import CompileError, compile as mge_compile
from ..fsa import (
    Dfa, StateLimitExceeded, Transducer, Transition, check_symbols, enumerate_outputs,
    output_cells, trusted_transducer,
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
        elif kind == "states":
            if len(rest) != 1 or not rest[0].isdecimal():
                raise FormatError(f"line {lineno}: states needs one count")
            n_states = int(rest[0])
        elif kind in ("initial", "final"):
            if not all(x.isdecimal() for x in rest):
                raise FormatError(f"line {lineno}: {kind} takes state indices")
            state_lists[kind] = frozenset(int(x) for x in rest)
        elif kind == "t":
            if len(rest) < 4 or not rest[0].isdecimal() or not rest[-1].isdecimal():
                raise FormatError(f"line {lineno}: expected t <src> <sym> <value> <dst>")
            rows.append((lineno, int(rest[0]), rest[1], " ".join(rest[2:-1]), int(rest[-1])))
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
    for lineno, src, sym, literal, dst in rows:
        if src >= n_states or dst >= n_states:
            raise FormatError(f"line {lineno}: transition endpoint not among the {n_states} states")
        if sym != "-" and sym not in alphabet:
            raise FormatError(f"line {lineno}: undeclared symbol {sym!r}")
        value = _parsed(lineno, parse_value, monoid, literal)
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
    """Serialize with the rows sorted, like the machine's alphabet, and the
    state counts implicit in the rows, so equal machines give identical text."""
    lines = [f"BIM v1 {format_descriptor(b.monoid)}", " ".join(("alphabet", *b.alphabet))]
    for name, dfa in (("LEFT", b.left), ("RIGHT", b.right)):
        lines.append(name)
        lines.append(f"start {dfa.start}")
        for (p, sym), q in sorted(dfa.delta.items()):
            lines.append(f"d {p} {sym} {q}")
    lines.append("PSI")
    for (l, sym, r), v in sorted(b.psi.items()):
        lines.append(f"o {l} {sym} {r} {format_value(v)}")
    if b.eps_output is not None:
        lines.append(f"EPS {format_value(b.eps_output)}")
    return "\n".join(lines) + "\n"


def bimachine_from_text(text: str) -> Bimachine:
    """Read a BIM v1 block: the header, the alphabet row, then the sections.
    A side's states are those that its start, moves and psi column name."""
    lines = _content_lines(text)
    lineno, tokens = next(lines, (None, None))
    if tokens is None:
        raise FormatError("empty input, expected a BIM v1 header")
    if tokens[:2] != ["BIM", "v1"] or len(tokens) < 3:
        raise FormatError(f"line {lineno}: expected a BIM v1 header")
    monoid = _parsed(lineno, parse_descriptor, " ".join(tokens[2:]))
    lineno, tokens = next(lines, (lineno, None))
    if not tokens or tokens[0] != "alphabet":
        raise FormatError(f"line {lineno}: expected the alphabet row after the header")
    alphabet = _parsed(lineno, check_symbols, tokens[1:])
    section = eps_output = None
    starts = {}
    deltas = {"LEFT": {}, "RIGHT": {}}
    psi = {}
    literals = {}  # each distinct psi literal is parsed once, at its first row
    declared = {}  # line number of each start and EPS row
    for lineno, tokens in lines:
        kind = tokens[0]
        if kind in ("d", "o") and len(tokens) >= 4 and tokens[2] not in alphabet:
            raise FormatError(f"line {lineno}: undeclared symbol {tokens[2]!r}")
        if kind in ("LEFT", "RIGHT", "PSI") and len(tokens) == 1:
            section = kind
        elif kind == "EPS":
            _declare(declared, "EPS", lineno)
            literal = " ".join(tokens[1:])
            eps_output = _parsed(lineno, parse_value, monoid, literal)
        elif section in ("LEFT", "RIGHT") and kind == "start" and len(tokens) == 2 and tokens[1].isdecimal():
            _declare(declared, f"{section} start", lineno)
            starts[section] = int(tokens[1])
        elif (
            section in ("LEFT", "RIGHT") and kind == "d" and len(tokens) == 4
            and tokens[1].isdecimal() and tokens[3].isdecimal()
        ):
            p, sym, q = int(tokens[1]), tokens[2], int(tokens[3])
            move = deltas[section].setdefault((p, sym), q)
            if move != q:
                raise FormatError(f"line {lineno}: conflicting moves for {p} on {sym!r}")
        elif (
            section == "PSI" and kind == "o" and len(tokens) >= 5
            and tokens[1].isdecimal() and tokens[3].isdecimal()
        ):
            cell = (int(tokens[1]), tokens[2], int(tokens[3]))
            literal = " ".join(tokens[4:])
            value = literals.get(literal)
            if value is None:
                value = literals[literal] = _parsed(lineno, parse_value, monoid, literal)
            if psi.setdefault(cell, value) != value:
                raise FormatError(f"line {lineno}: conflicting outputs for {cell}")
        else:
            raise FormatError(f"line {lineno}: unexpected row {' '.join(tokens)!r}")
    dfas = []
    for side, column in (("LEFT", 0), ("RIGHT", 2)):
        if side not in starts:
            raise FormatError(f"missing start declaration in {side}")
        delta = deltas[side]
        named = [starts[side], *(p for p, _ in delta), *delta.values(), *(c[column] for c in psi)]
        dfas.append(Dfa(max(named) + 1, starts[side], delta))
    return Bimachine(monoid, alphabet, *dfas, psi, eps_output)


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


def tokenize(raw: str, alphabet) -> tuple[str, ...] | None:
    """Split a raw input string into alphabet symbols (symbols may be
    several characters long); None when no segmentation exists.  Raises
    AmbiguousInputError, showing where two segmentations part, when there
    are several: picking one would make the result depend on symbol order."""
    by_len = defaultdict(set)
    for sym in alphabet:
        if sym:
            by_len[len(sym)].add(sym)
    lengths = sorted(by_len)
    n = len(raw)
    # ways[i]: number of segmentations of raw[:i], capped at 2; back[i]:
    # the end of the first segmented prefix that raw[:i] extends, and
    # more[i] the ends of the others
    ways = [0] * (n + 1)
    ways[0] = 1
    back = [0] * (n + 1)
    more = defaultdict(list)
    for j in range(n):
        w = ways[j]
        if not w:
            continue
        for k in lengths:
            i = j + k
            if i > n:
                break
            if raw[j:i] in by_len[k]:
                if ways[i]:
                    ways[i] = 2
                    more[i].append(j)
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
                j, t = more[i][0], 0
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
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(bimachine_to_text(b))
    if args.stats:
        eps = "none" if b.eps_output is None else format_value(b.eps_output)
        sets = {m for *_, s, l2, r in output_cells(b.left, b.right) for m in (s, l2 & r)}
        print(
            f"left={b.left.n_states} right={b.right.n_states} "
            f"psi={len(b.psi)} eps={eps} squared={len(verdict.squared.pairs)} "
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
    report = run_bench(args.max_n, methods=methods, limit=args.limit)
    print(report.to_csv() if args.format == "csv" else report.to_table())
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
    names = " and ".join(name for name, _ in machines)
    print(f"{names} agree with the path walk on {checked} words ({domain} in the domain)")
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
