"""Compile a functional transducer to a bimachine and run it."""

from bimc import FreeWords, Transducer, bimachine_to_text, compile, evaluate

FREE = FreeWords(("x", "y"))

# both runs of "ab" emit "xxy", but one decides late; the bimachine has
# to commit to "xx" on the first letter, which is where the equalizer
# accumulation earns its keep; Transducer wraps and checks the raw output
# words of the (src, input, output, dst) arcs
t = Transducer(
    ("a", "b"), FREE, 4, {0}, {3},
    [(0, "a", "x", 1), (0, "a", "xx", 2), (1, "b", "xy", 3), (2, "b", "y", 3)],
)

b = compile(t)
print("serialized machine:")
print(bimachine_to_text(b))

for word in (("a", "b"), ("a",), ("b", "a")):
    out = evaluate(b, word)
    print("".join(word), "->", "undefined" if out is None else out)
