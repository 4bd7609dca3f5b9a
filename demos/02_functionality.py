"""Deciding whether a transducer realizes a partial function."""

from bimc import FreeWords, Transducer, test_functionality

FREE = FreeWords(("x", "y"))

# arcs are (src, input, output, dst) with None as the empty input; the
# outputs are raw words, which Transducer wraps as MonoidValues and checks

# two paths for "ab", both emitting "xxy": functional despite the fork
diamond = Transducer(
    ("a", "b"), FREE, 4, {0}, {3},
    [(0, "a", "x", 1), (0, "a", "xx", 2), (1, "b", "xy", 3), (2, "b", "y", 3)],
)

# same shape but the outputs disagree
broken = Transducer(
    ("a", "b"), FREE, 4, {0}, {3},
    [(0, "a", "x", 1), (0, "a", "xx", 2), (1, "b", "y", 3), (2, "b", "y", 3)],
)

# an epsilon loop that pumps output on an accepting path
pump = Transducer(
    ("a",), FREE, 2, {0}, {1},
    [(0, None, "x", 0), (0, "a", "y", 1)],
)

for name, t in (("diamond", diamond), ("broken", broken), ("pump", pump)):
    verdict = test_functionality(t)
    if verdict.functional:
        print(f"{name}: functional")
    else:
        w = verdict.witness
        print(f"{name}: not functional ({w.kind}: {w.detail})")
