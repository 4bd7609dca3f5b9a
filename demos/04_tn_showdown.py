"""State counts of both constructions on the T_n family.

The equalizer-based compiler stays at 3 + (2^n + n) states while the
classical route through the unambiguous expansion grows factorially on
the left.  Build times are wall clock, measured per row, and the two
kinds of row time different work.  An mge row times compile(t), the
functionality verdict plus the verified compile, and its psi counts the
entries of the built output map.  A classical row times the expansion
and both subset automata, and its psi counts the output cells without
building any value (classical T_7 has 12.35 M cells, too many to hold).
"""

from bimc import compile, evaluate, make_tn, run_bench
from bimc.benchmark import to_table

print(to_table(run_bench(6)))

t = make_tn(3)
b = compile(t)
print()
print("T_3 compiled:", b.left.n_states, "left states,", b.right.n_states, "right states")
for word in (("a1", "a2"), ("a3", "a3", "a1")):
    print("".join(word), "->", evaluate(b, word))
