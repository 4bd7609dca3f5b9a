"""A behaviour digest: one line per input transducer with its verdict,
short hashes of the compiled machines' texts and the outputs on five
fixed words.  A refactor of the constructions must leave every line as
it is; after a deliberate change of behaviour, regenerate the golden
file with

    PYTHONPATH=src python tests/test_behaviour_digest.py

which first prints how many lines differ from the committed file in
each field, as a failing test does.
"""

import hashlib
import random
from collections import Counter
from pathlib import Path

from bimc.benchmark import make_tn
from bimc.bimachine import evaluate
from bimc.classical import check_pseudo_deterministic, classical_compile
from bimc.cli import bimachine_to_text
from bimc.compiler import compile
from bimc.functionality import test_functionality as functionality
from bimc.monoid import FreeWords, Integers, NonNegRationals, PairOf, format_value
from helpers import random_transducer

GOLDEN = Path(__file__).with_name("golden") / "behaviour.txt"
FREE = FreeWords(("x", "y"))
KINDS = (FREE, NonNegRationals(), Integers(), PairOf(FREE, Integers()))
FIELDS = ("name", "verdict", "detail", "mge", "classical", "outputs")


def inputs():
    """(name, transducer, whether to run the classical compiler)."""
    for n in range(1, 7):
        yield f"T_{n}", make_tn(n), n <= 5
    rng = random.Random(20180)
    for k in range(200):
        eps = k // 4 % 2 == 1
        t = random_transducer(rng, allow_eps=eps, require_eps=eps, monoid=KINDS[k % 4])
        yield f"random_{k}", t, check_pseudo_deterministic(t)


def machine_hash(b):
    return hashlib.sha256(bimachine_to_text(b).encode()).hexdigest()[:12]


def fixed_words(name, alphabet):
    rng = random.Random(name)
    return [tuple(rng.choice(alphabet) for _ in range(k)) for k in (0, 1, 2, 3, 5)]


def digest_line(name, t, classical):
    verdict = functionality(t)
    if verdict.functional:
        kind, detail = "functional", "-"
        b = compile(t, verdict=verdict)
        mge = machine_hash(b)
        outs = [evaluate(b, w) for w in fixed_words(name, t.alphabet)]
        shown = ";".join("undefined" if v is None else format_value(v) for v in outs)
    else:
        kind, detail = verdict.witness.kind, verdict.witness.detail
        mge = shown = "-"
    cls = machine_hash(classical_compile(t)) if classical else "-"
    return f"{name} | {kind} | {detail} | mge={mge} | classical={cls} | {shown}"


def digest():
    return [digest_line(*item) for item in inputs()]


def fields(line):
    """The FIELDS of one digest line; only the detail is free text."""
    name, verdict, rest = line.split(" | ", 2)
    return (name, verdict, *rest.rsplit(" | ", 3))


def field_report(want, got):
    """How many of the got lines differ from the want lines, in all and
    per field."""
    diff = Counter()
    for w, g in zip(want, got):
        diff["lines"] += w != g
        for field, a, b in zip(FIELDS, fields(w), fields(g)):
            diff[field] += a != b
    per_field = ", ".join(f"{field} {diff[field]}" for field in FIELDS)
    return f"{diff['lines']} of {len(got)} lines differ ({len(want)} committed): {per_field}"


def test_field_report_counts_each_field():
    want = [
        'T_1 | functional | - | mge=a | classical=b | "x"',
        "r | eps-cycle | a | b | mge=- | classical=- | -",
    ]
    got = ['T_1 | functional | - | mge=c | classical=b | "y"', want[1]]
    assert fields(want[1]) == ("r", "eps-cycle", "a | b", "mge=-", "classical=-", "-")
    assert field_report(want, got) == (
        "1 of 2 lines differ (2 committed): "
        "name 0, verdict 0, detail 0, mge 1, classical 0, outputs 1"
    )


def test_behaviour_digest_is_unchanged():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = digest()
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    report = field_report(want, got)
    assert len(got) == len(want) and not changed, f"{report}, first: {changed[:3]}"


# the digest stops at T_6; these pin the whole machine text of the larger
# members, which the output fill's delays and divisions all reach
TN_TEXT_SHA256 = {
    7: "67f16e323d9394b13f1e9cf8274b9921f79cd0e2f18dc9e5bf28abe158b2a887",
    8: "e11e5f5c977580e544755053029e44d2173705b75079e8758f940f60f01e53a7",
    9: "a9d73f40d11799080f0e87ace0aac69b576ecd9552e144c41024eea158668404",
}


def test_larger_tn_machine_texts_are_unchanged():
    for n, want in TN_TEXT_SHA256.items():
        text = bimachine_to_text(compile(make_tn(n)))
        assert hashlib.sha256(text.encode()).hexdigest() == want, n


if __name__ == "__main__":
    lines = digest()
    if GOLDEN.exists():
        print(field_report(GOLDEN.read_text(encoding="utf-8").splitlines(), lines))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
