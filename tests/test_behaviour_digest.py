"""A behaviour digest: one line per input transducer with its verdict,
short hashes of the compiled machines' texts and the outputs on five
fixed words.  A refactor of the constructions must leave every line as
it is; after a deliberate change of behaviour, regenerate the golden
file with

    PYTHONPATH=src python tests/test_behaviour_digest.py
"""

import hashlib
import random
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


def test_behaviour_digest_is_unchanged():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = digest()
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want)
    assert not changed, f"{len(changed)} lines differ, first: {changed[:3]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(digest()) + "\n", encoding="utf-8")
