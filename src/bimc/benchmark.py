"""The T_n family and the state-count comparison experiment.

T_n reads words over {a_1, ..., a_n} and outputs 1^{n * |word|}.  Its
domain is exactly the words of length at least two: a successful path
needs one step to leave the start state and a separate final step, so
neither the empty word nor single letters are accepted.  The family is
tuned so that the equalizer construction stays small (3 left states and
2^n + n right states) while the unambiguous expansion behind the
baseline construction pays a factorial price on the left.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .classical import unambiguous_expand
from .compiler import compile as mge_compile
from .fsa import StateLimitExceeded, Transducer, determinize, make_transducer, output_cells
from .monoid import FreeWords

CSV_COLUMNS = "n,method,left_states,right_states,intermediate_states,psi_entries,build_ms"

SAFETY_LIMITS = {"mge": 8, "classical": 7}


def make_tn(n: int) -> Transducer:
    """The n-th family member: states s=0, q_1..q_n, f=n+1 over the
    alphabet a1..an, with outputs free over the single letter 1.

    The first letter guesses q_i while paying 1^{i-1}, the middle
    letters shuffle the q-index and pay about 1^n each, and the last
    letter a_j may enter f only from a q_i with j <= i.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    monoid = FreeWords(("1",))
    sigma = tuple(f"a{j}" for j in range(1, n + 1))
    s, f = 0, n + 1
    arcs = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            arcs.append((s, f"a{j}", "1" * (i - 1), i))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == 1:
                arcs.append((i, f"a{j}", "1" * (n + j - 1), j))
            elif i == j:
                arcs.append((i, f"a{j}", "1" * (n - j + 1), 1))
            else:
                arcs.append((i, f"a{j}", "1" * n, i))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            arcs.append((i, f"a{j}", "1" * (2 * n - i + 1), f))
    return make_transducer(sigma, monoid, n + 2, {s}, {f}, arcs)


@dataclass(frozen=True)
class BenchRow:
    n: int
    method: str
    left_states: int | None = None
    right_states: int | None = None
    intermediate_states: int | None = None  # expanded transducer, classical only
    psi_entries: int | None = None
    build_ms: float | None = None
    skipped: str | None = None  # reason, when the row was not computed


def _cells(r: BenchRow, missing: str) -> list[str]:
    """The columns of CSV_COLUMNS for one row; a skipped row shows
    missing in every measured column."""
    if r.skipped:
        return [str(r.n), r.method] + [missing] * 5
    return [
        str(r.n),
        r.method,
        str(r.left_states),
        str(r.right_states),
        "" if r.intermediate_states is None else str(r.intermediate_states),
        str(r.psi_entries),
        f"{r.build_ms:.1f}",
    ]


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]

    def to_csv(self) -> str:
        lines = [CSV_COLUMNS] + [",".join(_cells(r, "")) for r in self.rows]
        return "\n".join(lines)

    def to_table(self) -> str:
        head = ("n", "method", "left", "right", "interm", "psi", "ms", "note")
        body = [
            (*_cells(r, "-"), f"skipped: {r.skipped}" if r.skipped else "") for r in self.rows
        ]
        widths = [max(len(row[i]) for row in [head] + body) for i in range(len(head))]
        lines = []
        for row in [head] + body:
            cells = [
                row[i].ljust(widths[i]) if i in (1, 7) else row[i].rjust(widths[i])
                for i in range(len(head))
            ]
            lines.append("  ".join(cells).rstrip())
        return "\n".join(lines)


def _measure(n: int, method: str) -> BenchRow:
    t = make_tn(n)
    start = time.perf_counter()
    if method == "mge":
        b = mge_compile(t, verify=True)
        ms = (time.perf_counter() - start) * 1000
        return BenchRow(n, "mge", b.left.n_states, b.right.n_states, None, len(b.psi), ms)
    tt = unambiguous_expand(t).transducer
    left, right = determinize(tt)
    entries = sum(1 for _ in output_cells(left, right))
    ms = (time.perf_counter() - start) * 1000
    return BenchRow(n, "classical", left.n_states, right.n_states, tt.n_states, entries, ms)


def run_bench(max_n: int, methods=("classical", "mge"), limit=None) -> BenchReport:
    """Measure the given constructions on T_1..T_max_n, rows in (n, method) order.

    Rows beyond a method's safety limit (or aborted by BIMC_MAX_STATES)
    are kept in the report but marked skipped; limit=9 or similar
    replaces the safety limit of every method.
    """
    methods = sorted(set(methods))
    for m in methods:
        if m not in SAFETY_LIMITS:
            raise ValueError(f"unknown method {m!r}")
    rows = []
    for n in range(1, max_n + 1):
        for method in methods:
            cap = SAFETY_LIMITS[method] if limit is None else limit
            if n > cap:
                rows.append(BenchRow(n, method, skipped=f"over the safety limit ({cap})"))
                continue
            try:
                rows.append(_measure(n, method))
            except StateLimitExceeded as err:
                rows.append(BenchRow(n, method, skipped=str(err)))
    return BenchReport(tuple(rows))
