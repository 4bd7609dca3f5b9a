"""Outside-in tracing of bimc.

The program has no trace record of its own, so the benchmark rebinds,
for the length of a traced pass, the module-level names that each
layer calls through (and the monoid payload checks on each monoid
class), and wraps its own calls into bimc.  Every wrapped call becomes
a span: name, start, end and parent.  Spans stay in memory (up to a
cap) and are written out when the run ends.

A layer's self time is a span's duration minus the time its child
spans cover; a span nested in one of the same name adds its self time
but not its duration, so recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

SPAN_CAP = 20_000


class Tracer:
    def __init__(self):
        self.stack = []  # [name, span id, time covered by children]
        self.open_names = Counter()
        self.ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self.dropped = 0
        self._ids = 0

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) as a span; count(result) may return
        {counter: amount} sizes to add."""
        self._ids += 1
        span_id = self._ids
        parent = self.stack[-1] if self.stack else None
        frame = [name, span_id, 0.0]
        self.stack.append(frame)
        self.open_names[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.open_names[name] -= 1
            dur = (end - start) * 1000.0
            self.calls[name] += 1
            if not self.open_names[name]:
                self.ms[name] += dur
            self.self_ms[name] += dur - frame[2]
            if parent is not None:
                parent[2] += dur
            if len(self.spans) < SPAN_CAP:
                self.spans.append((name, start, end, parent[1] if parent else 0, span_id))
            else:
                self.dropped += 1
        if count is not None:
            self.counts.update(count(result))
        return result

    def add(self, other: "Tracer", weight: float = 1.0):
        """Accumulate another tracer's totals, scaled by weight."""
        for mine, theirs in (
            (self.ms, other.ms),
            (self.self_ms, other.self_ms),
            (self.calls, other.calls),
            (self.counts, other.counts),
        ):
            for key, value in theirs.items():
                mine[key] += value * weight


# (module, attribute, span name, sizes taken from the result)
HOOKS = (
    ("bimc.functionality", "trim", "functionality.trim", None),
    ("bimc.functionality", "eps_cycle_check", "functionality.eps_gates", None),
    ("bimc.functionality", "eps_language", "functionality.eps_gates", None),
    ("bimc.functionality", "squared", "squared.build",
     lambda sq: {"squared.pairs": len(sq.pairs), "squared.transitions": len(sq.transitions)}),
    ("bimc.functionality", "squared_eps", "squared.build",
     lambda sq: {"squared.pairs": len(sq.pairs), "squared.transitions": len(sq.transitions)}),
    ("bimc.functionality", "coaccessible", "squared.coaccessible",
     lambda useful: {"squared.useful_pairs": len(useful)}),
    ("bimc.functionality", "valuation", "squared.valuation", None),
    ("bimc.compiler", "test_functionality", "functionality.verdict", None),
    ("bimc.compiler", "determinize", "fsa.determinize", None),
    ("bimc.compiler", "determinize_eps", "fsa.determinize", None),
    ("bimc.compiler", "set_mge", "compiler.phi", None),
    ("bimc.compiler", "generalized_transitions", "compiler.gen_transitions",
     lambda gen: {"compiler.gen_transitions": len(gen)}),
    ("bimc.compiler", "output_value", "compiler.fill",
     lambda c: {"compiler.cells_defined": c is not None}),
    ("bimc.compiler", "solve_right", "monoid.solve_right", None),
    ("bimc.compiler", "gamma_n", "monoid.gamma_n", None),
    ("bimc.compiler", "Bimachine", "bimachine.construct", None),
    ("bimc.classical", "unambiguous_expand", "classical.expand",
     lambda ex: {"classical.expanded_states": ex.transducer.n_states}),
    ("bimc.classical", "determinize", "fsa.determinize", None),
    ("bimc.classical", "Bimachine", "bimachine.construct", None),
    ("bimc.cli", "Bimachine", "bimachine.construct", None),
    ("bimc.monoid", "op", "monoid.op", None),
    ("bimc.monoid", "eta", "monoid.eta", None),
    ("bimc.squared", "eta", "monoid.eta", None),
    ("bimc.monoid", "MonoidValue.__post_init__", "monoid.values_built", None),
    ("bimc.monoid", "FreeWords.check_payload", "monoid.check_payload", None),
    ("bimc.monoid", "NonNegRationals.check_payload", "monoid.check_payload", None),
    ("bimc.monoid", "Integers.check_payload", "monoid.check_payload", None),
    ("bimc.monoid", "PairOf.check_payload", "monoid.check_payload", None),
)


def _resolve(module_name, attr):
    """(owner object, attribute name) for a hook, or None when the
    module, class or attribute no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if last not in vars(owner):
        return None
    return owner, last


def absent_hooks():
    return [f"{m}.{a}" for m, a, _, _ in HOOKS if _resolve(m, a) is None]


def _wrapper(tracer, name, fn, count):
    call = tracer.call

    def traced(*args, **kwargs):
        return call(name, fn, args, kwargs, count)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def hooked(tracer: Tracer):
    """Install every hook that still resolves for the body of the block,
    restoring the original bindings afterwards."""
    installed = []
    try:
        for module_name, attr, name, count in HOOKS:
            found = _resolve(module_name, attr)
            if found is None:
                continue
            owner, key = found
            original = vars(owner)[key]
            installed.append((owner, key, original))
            setattr(owner, key, _wrapper(tracer, name, original, count))
        yield tracer
    finally:
        for owner, key, original in reversed(installed):
            setattr(owner, key, original)


def write_spans(path, tracers):
    """One JSON line per span: [name, start, end, parent id, id]; ids
    are per tracer, and tracers are separated by a header line."""
    with open(path, "w", encoding="utf-8") as out:
        for label, tracer in tracers:
            out.write(json.dumps({"tracer": label, "spans": len(tracer.spans),
                                  "dropped": tracer.dropped}) + "\n")
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")
