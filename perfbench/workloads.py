"""The two workloads.

Each workload calls bimc's public functions from one thread in a closed
loop: one caller, and the next operation starts when the previous one
returns.  Work is grouped in passes; a pass goes once over the
workload's inputs, and every end-to-end timing is a median over passes.
Garbage is collected before every timed repetition.  Only calls into
bimc are inside timed regions: generating inputs is setup, and the
oracle runs outside every timing, setup_s included.

Why each workload:

- tn-compile-eval: the T_n family, where the known costs sit.  Verified
  compiles of T_5..T_9 and classical compiles of T_3..T_5, where the
  output-table fill, phi and determinization do almost all the work on
  short free words, with no empty input and no rejection; then short
  and long words through the `bimc run` path on T_3, T_9 and a
  product(nnrat,intgrp) lookahead machine compiled in setup, where the
  bimachine and monoid.op do the work, on free words (quadratic in the
  word length when this benchmark was written) and on numbers (linear).
- random-corpus: a fixed corpus of small random transducers over every
  monoid kind, with and without empty input, about a third functional.
  Parsing, the functionality verdict, squaring and the rejection path
  dominate.

The CPU speed of a small shared machine can drift by 2x over tens of
seconds, so runs are long and there are only two workloads: compiling
and long evaluation share one, with their timings kept apart.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from collections import defaultdict

import bimc
from bimc import cli as bimc_cli

import gen
from oracle import Walk, find_conflict, has_free, tn_output
from tracing import Tracer, absent_hooks, hooked

clock = time.perf_counter

# The CPU of a small shared machine can drift by up to 2x for tens of
# seconds, and bimc's timings drift with it: on the 2-core machine this
# was written on, a T_6 compile and the loop below both moved by 1.7x
# while their ratio stayed within about 10%.  So the run also times this
# fixed loop, outside the timed regions: around every pass and setup
# repetition, and before an operation at most every REFERENCE_EVERY
# seconds.  The end-to-end timings are scaled to the speed at which the
# loop takes REFERENCE_S; the unscaled medians are printed too.
REFERENCE_S = 0.002
REFERENCE_REPS = 2
REFERENCE_EVERY = 0.1  # seconds between reference samples within a pass


def _reference_loop():
    table = {}
    text = ""
    for i in range(3000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + 1
        text = text[-40:] + str(i)
    return len(table) + len(text)


def reference_times():
    out = []
    for _ in range(REFERENCE_REPS):
        t0 = clock()
        _reference_loop()
        out.append(clock() - t0)
    return out


SETUP_REPS = 3

# tn-compile-eval
TN_MGE = (5, 6, 7, 8, 9)
TN_CLASSICAL = (3, 4, 5)
TN_LENGTHS = (1, 2, 8, 64)  # words checked on every T_n machine; 1 and 2 straddle the domain edge
TN_WORD_SETS = 3
LE_TN = (3, 9)  # T_n machines evaluated on long words, besides the lookahead machine
LE_SHORT, LE_LONG = 250, 3000
LE_WORD_SETS = 4

# random-corpus
RC_SIZE = 1000
RC_SHORT, RC_LONG = 3, 12
RC_WORDS = 2  # words per length per accepted transducer
RC_CHECK_LEN = 5  # oracle words up to this length


def call(tr, name, fn, *args, count=None, **kwargs):
    """fn(*args, **kwargs), as a span when a tracer is given."""
    if tr is None:
        return fn(*args, **kwargs)
    return tr.call(name, fn, args, kwargs, count)


def _verdict_counts(v):
    if v.functional:
        return {}
    return {"functionality.rejections": 1, f"functionality.rejections.{v.witness.kind}": 1}


def _mge_counts(b):
    return {"fsa.left_states": b.left.n_states, "fsa.right_states": b.right.n_states}


def _classical_counts(b):
    return {**_mge_counts(b), "classical.cells": len(b.psi)}


def text_to_verdict(tr, text):
    t = call(tr, "cli.parse_transducer", bimc.parse_transducer, text)
    v = call(tr, "functionality.verdict", bimc.test_functionality, t, count=_verdict_counts)
    return t, v


def mge_compile(tr, t, v):
    return call(tr, "compiler.compile", bimc.compile, t, verdict=v, verify=True, count=_mge_counts)


def classical(tr, t):
    return call(tr, "classical.compile", bimc.classical_compile, t, count=_classical_counts)


class Pass:
    """Timings and outputs of one pass (or one setup repetition)."""

    def __init__(self):
        self.wall = 0.0  # seconds of a whole setup repetition
        self.time = 0.0  # seconds inside the timed regions of a pass
        self.ops = 0
        self.compile = 0.0
        self.classical = 0.0
        self.verdicts = []  # seconds, text to verdict
        # (length class, value class) -> [symbols, run-path s, evaluate s]
        self.evals = defaultdict(lambda: [0, 0.0, 0.0])
        self.states = 0
        self.cells = 0
        self.reference = []  # seconds of the reference loop, in and around the pass
        self._referenced = 0.0

    def calibrate(self, every=0.0):
        """Time the reference loop, unless it was timed less than `every`
        seconds ago."""
        if clock() - self._referenced >= every:
            self.reference += reference_times()
            self._referenced = clock()

    @property
    def scale(self):
        """Factor that brings this pass's timings to the reference speed."""
        return REFERENCE_S / statistics.median(self.reference)

    def machine(self, b):
        self.states += b.left.n_states + b.right.n_states
        self.cells += len(b.psi)

    def run_path(self, tr, b, raw, length_class, value_class):
        """The `bimc run` path on a raw string; the printed output or None."""
        t0 = clock()
        word = call(tr, "cli.tokenize", bimc_cli.tokenize, raw, b.alphabet)
        t1 = clock()
        out = None if word is None else call(tr, "bimachine.evaluate", bimc.evaluate, b, word)
        t2 = clock()
        text = None if out is None else call(tr, "cli.format_value", bimc.format_value, out)
        t3 = clock()
        if length_class is not None:
            acc = self.evals[(length_class, value_class)]
            acc[0] += len(word) if word is not None else 0
            acc[1] += t3 - t0
            acc[2] += t2 - t1
        return text

    def throughput(self, value_class):
        symbols, run_s, _ = self.evals.get(("long", value_class), (0, 0.0, 0.0))
        return symbols / run_s if run_s else None


class Outcome:
    """Operations attempted and failed, plus lines for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"FAILED: {what}")


def attempt(outcome, p, what, fn):
    """Run one operation of pass p, after collecting garbage so that
    every operation starts from the same collector state, and after
    timing the reference loop when it is due; fn returns its failure
    messages.  An exception fails the operation too."""
    gc.collect()
    p.calibrate(REFERENCE_EVERY)
    try:
        failures = fn()
    except Exception as err:  # any error is a failed operation, reported below
        failures = [f"{what}: {type(err).__name__}: {err}"]
    outcome.op(not failures, "; ".join(failures))


def length_class(length, short, long):
    return "short" if length == short else "long" if length == long else None


# ----------------------------------------------------------- tn-compile-eval


class TnCompileEval:
    name = "tn-compile-eval"

    def __init__(self, seed):
        self.seed = seed

    def setup(self, tr, rep: Pass):
        members = sorted(set(TN_MGE) | set(TN_CLASSICAL))
        texts = {n: gen.tn_spec(n).text() for n in members}
        rng = random.Random(f"tn-words:{self.seed}")
        words = {}
        for n in members:
            alphabet = [f"a{j}" for j in range(1, n + 1)]
            words[n] = [
                ["".join(gen.random_word(rng, alphabet, k)) for k in TN_LENGTHS]
                for _ in range(TN_WORD_SETS)
            ]
        specs = {f"T_{n}": gen.tn_spec(n) for n in LE_TN}
        specs["lookahead"] = gen.lookahead_spec()
        long_words = {
            name: [
                {k: "".join(gen.random_word(rng, spec.alphabet, k)) for k in (LE_SHORT, LE_LONG)}
                for _ in range(LE_WORD_SETS)
            ]
            for name, spec in specs.items()
        }
        machines = {}
        for name, spec in specs.items():
            t, v = text_to_verdict(tr, spec.text())
            b = mge_compile(tr, t, v)
            text_form = call(tr, "cli.bimachine_to_text", bimc.bimachine_to_text, b)
            machines[name] = call(tr, "cli.bimachine_from_text", bimc.bimachine_from_text,
                                  text_form)
            rep.machine(machines[name])
        return {"texts": texts, "words": words, "specs": specs, "long_words": long_words,
                "machines": machines}

    def check_setup(self, state, outcome):
        expected = {}
        for name, spec in state["specs"].items():
            walk = None if name.startswith("T_") else Walk(spec)
            for words in state["long_words"][name]:
                for raw in words.values():
                    if walk is None:
                        want = tn_output(int(name[2:]), len(raw) // 2)
                    else:
                        outs = walk.run(tuple(raw))
                        want = next(iter(outs)) if len(outs) == 1 else ("CONFLICT", outs)
                    expected[(name, raw)] = want
        state["expected"] = expected

    @staticmethod
    def _run_words(p, tr, b, words):
        return [p.run_path(tr, b, raw, None, None) for raw in words]

    @staticmethod
    def _check(label, n, outputs):
        failures = []
        for got, k in zip(outputs, TN_LENGTHS):
            want = tn_output(n, k)
            if got != want:
                failures.append(f"{label} on {k} letters: {got!r:.40} != {want!r:.40}")
        return failures

    def _mge_op(self, state, tr, p, n, words):
        p.ops += 1
        t0 = clock()
        t = call(tr, "cli.parse_transducer", bimc.parse_transducer, state["texts"][n])
        t1 = clock()
        v = call(tr, "functionality.verdict", bimc.test_functionality, t, count=_verdict_counts)
        t2 = clock()
        p.verdicts.append(t2 - t0)
        if not v.functional:
            p.time += t2 - t0
            return [f"T_{n} rejected ({v.witness.kind})"]
        b = mge_compile(tr, t, v)
        p.compile += clock() - t1
        outputs = self._run_words(p, tr, b, words)
        p.time += clock() - t0
        p.machine(b)
        return self._check(f"mge T_{n}", n, outputs)

    def _classical_op(self, state, tr, p, n, words):
        p.ops += 1
        t0 = clock()
        t = call(tr, "cli.parse_transducer", bimc.parse_transducer, state["texts"][n])
        t1 = clock()
        b = classical(tr, t)
        p.classical += clock() - t1
        outputs = self._run_words(p, tr, b, words)
        p.time += clock() - t0
        p.machine(b)
        return self._check(f"classical T_{n}", n, outputs)

    def _eval_op(self, state, tr, p, name, k, raw):
        p.ops += 1
        t0 = clock()
        got = p.run_path(tr, state["machines"][name], raw, length_class(k, LE_SHORT, LE_LONG),
                         "free" if name.startswith("T_") else "numeric")
        p.time += clock() - t0
        want = state["expected"][(name, raw)]
        return [] if got == want else [f"{name} on {k} letters: {got!r:.40} != {want!r:.40}"]

    def run_pass(self, state, tr, p: Pass, outcome, index):
        def words(n):
            return state["words"][n][index % TN_WORD_SETS]

        for n in TN_MGE:
            attempt(outcome, p, f"mge T_{n}", lambda: self._mge_op(state, tr, p, n, words(n)))
        for n in TN_CLASSICAL:
            attempt(outcome, p, f"classical T_{n}",
                    lambda: self._classical_op(state, tr, p, n, words(n)))
        for name in state["specs"]:
            for k, raw in state["long_words"][name][index % LE_WORD_SETS].items():
                attempt(outcome, p, f"{name} on {k} letters",
                        lambda: self._eval_op(state, tr, p, name, k, raw))

    def finish(self, state, outcome):
        pass


# ------------------------------------------------------------- random-corpus


class RandomCorpus:
    name = "random-corpus"

    def __init__(self, seed):
        self.seed = seed

    def setup(self, tr, rep: Pass):
        rng = random.Random(f"corpus-order:{self.seed}")
        specs = gen.corpus(RC_SIZE)
        rng.shuffle(specs)
        texts = [spec.text() for spec in specs]
        words = [
            [("".join(gen.domain_word(rng, spec, k)), k)
             for k in (RC_SHORT, RC_LONG) for _ in range(RC_WORDS)]
            for spec in specs
        ]
        return {"specs": specs, "texts": texts, "words": words, "first_machines": {},
                "unconfirmed": 0}

    def check_setup(self, state, outcome):
        conflicts, expected = [], []
        for spec, words in zip(state["specs"], state["words"]):
            conflicts.append(find_conflict(spec, RC_CHECK_LEN))
            walk = Walk(spec)
            expected.append([walk.run(tuple(raw)) for raw, _ in words])
        state["conflicts"], state["expected"] = conflicts, expected

    def _op(self, state, tr, p, i, first):
        spec = state["specs"][i]
        p.ops += 1
        t0 = clock()
        t = call(tr, "cli.parse_transducer", bimc.parse_transducer, state["texts"][i])
        t1 = clock()
        v = call(tr, "functionality.verdict", bimc.test_functionality, t, count=_verdict_counts)
        t2 = clock()
        p.verdicts.append(t2 - t0)
        machines, outputs = {}, []
        if v.functional:
            machines["mge"] = b = mge_compile(tr, t, v)
            p.compile += clock() - t1
            if spec.kind[0] == "free" and bimc.check_pseudo_deterministic(t):
                t3 = clock()
                machines["classical"] = classical(tr, t)
                p.classical += clock() - t3
            value_class = "free" if has_free(spec.kind) else "numeric"
            outputs = [
                p.run_path(tr, b, raw, length_class(k, RC_SHORT, RC_LONG), value_class)
                for raw, k in state["words"][i]
            ]
        p.time += clock() - t0

        conflict = state["conflicts"][i]
        if not v.functional:
            if first and conflict is None:
                state["unconfirmed"] += 1
            return []
        failures = []
        if conflict is not None:
            failures.append(f"member {i} accepted, but {conflict!r} has two outputs")
        for got, outs in zip(outputs, state["expected"][i]):
            want = next(iter(outs)) if outs else None
            if len(outs) <= 1 and got != want:
                failures.append(f"member {i}: {got!r} != {want!r}")
        for key, machine in machines.items():
            p.machine(machine)
            if first:
                state["first_machines"][(i, key)] = machine
        return failures

    def run_pass(self, state, tr, p: Pass, outcome, index):
        for i in range(len(state["texts"])):
            attempt(outcome, p, f"corpus member {i}",
                    lambda: self._op(state, tr, p, i, index == 0))

    def finish(self, state, outcome):
        """Every machine of the first pass against the walk on every word
        up to RC_CHECK_LEN letters; one failure per wrong machine."""
        tables = {}
        for (i, key), b in state["first_machines"].items():
            spec = state["specs"][i]
            if i not in tables:
                tables[i] = Walk(spec).table(spec.alphabet, RC_CHECK_LEN)
            bad = None
            layer = [()]
            for _ in range(RC_CHECK_LEN + 1):
                for word in layer:
                    outs = tables[i].get(word, set())
                    want = next(iter(outs)) if outs else None
                    out = bimc.evaluate(b, word)
                    got = None if out is None else bimc.format_value(out)
                    if len(outs) <= 1 and got != want and bad is None:
                        bad = f"{key} machine of member {i} on {word!r}: {got!r} != {want!r}"
                layer = [w + (a,) for w in layer for a in spec.alphabet]
            if bad is not None:
                outcome.failed += 1
                outcome.notes.append(f"FAILED: {bad}")
        outcome.notes.append(
            f"rejections with no conflict up to length {RC_CHECK_LEN} (unconfirmed, not errors): "
            f"{state['unconfirmed']}"
        )


WORKLOADS = {w.name: w for w in (TnCompileEval, RandomCorpus)}


# ------------------------------------------------------------------- running


def tail(samples):
    """(value, label): the highest of p99.9/p99/p95/p90/p75/p50 with at
    least ten samples beyond it, or the maximum when there are too few."""
    s = sorted(samples)
    n = len(s)
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10:
            return s[rank - 1], f"p{q:g} of {n} samples"
    return s[-1], f"max of {n} samples"


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, trace):
    """One run of a workload: (metrics, outcome, tracers), metrics as
    {name: (value, unit)}.

    Setup runs SETUP_REPS times and the passes use the last state.
    Traced, setup runs once more under the hooks, and traced passes
    alternate with untraced ones so that their ratio is the tracing
    overhead.
    """
    workload = WORKLOADS[name](seed)
    outcome = Outcome()

    def set_up(tr=None):
        gc.collect()
        rep = Pass()
        rep.calibrate()
        start = clock()
        state = workload.setup(tr, rep)
        rep.wall = clock() - start
        rep.calibrate()
        return state, rep

    setups = []
    for _ in range(SETUP_REPS):
        state, rep = set_up()
        setups.append(rep)
    workload.check_setup(state, outcome)
    setup_tracer = None
    if trace:
        setup_tracer = Tracer()
        with hooked(setup_tracer):
            set_up(setup_tracer)
    # the inputs and the oracle's tables live for the whole run; keep
    # the collector from walking them again on every collection
    gc.collect()
    gc.freeze()

    passes, traced = [], []
    deadline = clock() + seconds
    index = 0
    while True:
        tracer = Tracer() if trace and index % 2 == 1 else None
        p = Pass()
        gc.collect()
        p.calibrate()
        if tracer is None:
            workload.run_pass(state, None, p, outcome, index)
            passes.append(p)
        else:
            with hooked(tracer):
                workload.run_pass(state, tracer, p, outcome, index)
            traced.append((p, tracer))
        p.calibrate()
        index += 1
        if clock() >= deadline and (traced or not trace):
            break
    rss = peak_rss_mb()
    workload.finish(state, outcome)
    gc.unfreeze()

    if trace:
        metrics = layer_metrics(setup_tracer, traced, passes)
        return metrics, outcome, [("setup", setup_tracer), ("pass", traced[0][1])]
    return e2e_metrics(setups, passes, rss, outcome), outcome, []


def _timings(setups, passes):
    """{metric: per-repetition values in seconds or per second}, unscaled,
    with each repetition's scale; throughputs carry the scale inverted."""
    per_pass = {
        "compile_s": [(p.compile, p.scale) for p in passes],
        "classical_s": [(p.classical, p.scale) for p in passes],
        "eval_free_symbols_per_s": [(p.throughput("free"), 1 / p.scale) for p in passes],
        "eval_numeric_symbols_per_s": [(p.throughput("numeric"), 1 / p.scale) for p in passes],
        "verdict_ms_p50": [(v * 1000, p.scale) for p in passes for v in p.verdicts],
        # the tail of each pass, then the median over passes: a tail over
        # the whole run would rest on a few samples and follow the drift
        "verdict_ms_tail": [(tail(p.verdicts)[0] * 1000, p.scale) for p in passes if p.verdicts],
        "corpus_ops_per_s": [(p.ops / p.time, 1 / p.scale) for p in passes if p.time],
    }
    return {"setup_s": [(r.wall, r.scale) for r in setups], **per_pass}


def e2e_metrics(setups, passes, rss, outcome):
    scaled, unscaled = {}, {}
    for name, values in _timings(setups, passes).items():
        scaled[name] = _median(None if v is None else v * k for v, k in values)
        unscaled[name] = _median(v for v, _ in values)
    loop_ms = statistics.median(r for p in passes for r in p.reference) * 1e3
    outcome.notes.append(
        f"reference loop: median {loop_ms:.3f} ms against {REFERENCE_S * 1e3:g} ms; "
        "unscaled medians: "
        + ", ".join(f"{k}={v:.6g}" for k, v in unscaled.items())
    )
    outcome.notes.append(
        f"verdict_ms_tail is the median over passes of the {tail(passes[0].verdicts)[1]} of a pass"
    )
    units = {"setup_s": "s", "compile_s": "s", "classical_s": "s",
             "eval_free_symbols_per_s": "1/s", "eval_numeric_symbols_per_s": "1/s",
             "verdict_ms_p50": "ms", "verdict_ms_tail": "ms", "corpus_ops_per_s": "1/s"}
    metrics = {name: (scaled[name], unit) for name, unit in units.items()}
    metrics.update({
        "machine_states": (setups[-1].states + passes[0].states, "count"),
        "machine_cells": (setups[-1].cells + passes[0].cells, "count"),
        "peak_rss_mb": (rss, "MB"),
    })
    return metrics


def layer_metrics(setup_tracer, traced, untraced):
    """Per-layer numbers: the traced setup plus the mean traced pass."""
    agg = Tracer()
    agg.add(setup_tracer)
    for _, tracer in traced:
        agg.add(tracer, 1.0 / len(traced))
    ms, self_ms, calls, counts = agg.ms, agg.self_ms, agg.calls, agg.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "functionality.verdict.ms": (ms["functionality.verdict"], "ms"),
        "functionality.trim.ms": (ms["functionality.trim"], "ms"),
        "functionality.eps_gates.ms": (ms["functionality.eps_gates"], "ms"),
        "functionality.rejections": (counts["functionality.rejections"], "count"),
    }
    for kind in ("eps-cycle", "eps-language", "unequalizable-pair", "transition-mismatch",
                 "final-imbalance"):
        key = f"functionality.rejections.{kind}"
        m[key] = (counts[key], "count")
    m.update({
        "squared.build.ms": (ms["squared.build"], "ms"),
        "squared.coaccessible.ms": (ms["squared.coaccessible"], "ms"),
        "squared.valuation.ms": (ms["squared.valuation"], "ms"),
        "squared.pairs": (counts["squared.pairs"], "count"),
        "squared.useful_pairs": (counts["squared.useful_pairs"], "count"),
        "squared.transitions": (counts["squared.transitions"], "count"),
        "squared.useful_ratio": (ratio(counts["squared.useful_pairs"], counts["squared.pairs"]),
                                 "ratio"),
        "fsa.determinize.ms": (ms["fsa.determinize"], "ms"),
        "fsa.left_states": (counts["fsa.left_states"], "count"),
        "fsa.right_states": (counts["fsa.right_states"], "count"),
        "compiler.phi.ms": (ms["compiler.phi"], "ms"),
        "compiler.intersection_sets": (calls["compiler.phi"], "count"),
        "compiler.gen_transitions.ms": (ms["compiler.gen_transitions"], "ms"),
        "compiler.gen_transitions": (counts["compiler.gen_transitions"], "count"),
        "compiler.fill.ms": (ms["compiler.fill"], "ms"),
        "compiler.fill.self_ms": (self_ms["compiler.fill"], "ms"),
        "compiler.cells_tried": (calls["compiler.fill"], "count"),
        "compiler.cells_defined": (counts["compiler.cells_defined"], "count"),
        "compiler.cell_yield": (ratio(counts["compiler.cells_defined"], calls["compiler.fill"]),
                                "ratio"),
        "compiler.compile.self_ms": (self_ms["compiler.compile"], "ms"),
        "monoid.values_built": (calls["monoid.values_built"], "count"),
        "monoid.check_payload.ms": (ms["monoid.check_payload"], "ms"),
    })
    for op in ("op", "eta", "solve_right", "gamma_n"):
        m[f"monoid.{op}.calls"] = (calls[f"monoid.{op}"], "count")
        m[f"monoid.{op}.ms"] = (ms[f"monoid.{op}"], "ms")
    m["bimachine.evaluate.ms"] = (ms["bimachine.evaluate"], "ms")
    per_symbol = {}
    for length in ("short", "long"):
        for value_class in ("free", "numeric"):
            symbols = sum(p.evals[(length, value_class)][0] for p, _ in traced)
            seconds = sum(p.evals[(length, value_class)][2] for p, _ in traced)
            per_symbol[(length, value_class)] = ratio(seconds * 1e6, symbols)
            m[f"bimachine.us_per_symbol.{length}.{value_class}"] = (
                per_symbol[(length, value_class)], "us")
    for value_class in ("free", "numeric"):
        m[f"bimachine.growth.{value_class}"] = (
            ratio(per_symbol[("long", value_class)], per_symbol[("short", value_class)]), "ratio")
    m.update({
        "bimachine.construct.ms": (ms["bimachine.construct"], "ms"),
        "classical.expand.ms": (ms["classical.expand"], "ms"),
        "classical.expanded_states": (counts["classical.expanded_states"], "count"),
        "classical.fill.self_ms": (self_ms["classical.compile"], "ms"),
        "classical.cells": (counts["classical.cells"], "count"),
        "cli.parse_transducer.ms": (ms["cli.parse_transducer"], "ms"),
        "cli.bimachine_to_text.ms": (ms["cli.bimachine_to_text"], "ms"),
        "cli.bimachine_from_text.ms": (ms["cli.bimachine_from_text"], "ms"),
        "cli.tokenize.ms": (ms["cli.tokenize"], "ms"),
        "cli.format_value.ms": (ms["cli.format_value"], "ms"),
        "trace.overhead": (ratio(_median(p.time * p.scale for p, _ in traced),
                                 _median(p.time * p.scale for p in untraced)), "ratio"),
        "trace.hooks_absent": (len(absent_hooks()), "count"),
    })
    return m
