"""Tour of the four output monoids and the equalizer calculus."""

from bimc import (
    FreeWords,
    Integers,
    MonoidValue,
    NonNegRationals,
    PairOf,
    eta,
    gamma_n,
    solve_right,
)

free = FreeWords(("a", "b", "c"))
rat = NonNegRationals()
ints = Integers()
pair = PairOf(free, ints)


def v(m, payload):
    return MonoidValue(m, payload)


print("== products ==")
print(v(free, "ab") * v(free, "c"))
print(v(rat, "3/2") * v(rat, "1/2"))
print(v(pair, ("a", 1)) * v(pair, ("b", 2)))

print()
print("== most general equalizers ==")
# words equalize when one is a prefix of the other
print(eta(v(free, "ab"), v(free, "abc")))
print(eta(v(free, "ab"), v(free, "ba")))
# rationals always equalize by topping up to the max
print(eta(v(rat, 3), v(rat, 5)))
# in a group the second component absorbs the whole difference
print(eta(v(ints, 3), v(ints, 5)))

print()
print("== right division ==")
print(solve_right(v(free, "ab"), v(free, "abc")))
print(solve_right(v(free, "ab"), v(free, "a")))
print(solve_right(v(rat, 5), v(rat, 7)))

print()
print("== n-ary accumulation ==")
words = [v(free, "a"), v(free, "ab"), v(free, "abc")]
chain = [eta(words[i], words[i + 1]) for i in range(len(words) - 1)]
print("gamma over the eta chain:", gamma_n(chain, free))
