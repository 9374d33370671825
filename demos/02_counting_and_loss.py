#!/usr/bin/env python3
# Exact reachable-pattern counting for the 1D AND automaton, two ways,
# and the information loss that certifies it nonsurjective.  Each count
# record carries its loss: rec.lambda_qits = n - log2(out), and
# rec.ratio = log2(out)/n.

import math

from feketeca import (
    CellularAutomaton,
    find_orphan,
    make_builtin,
    out_size_transfer_1d,
    out_sizes_bruteforce,
)

and1d = make_builtin("and1d")   # q=2, neighbourhood (0, +1), f(a,b) = a*b

####
# 1. counts by brute force (every input enumerated) and by the image
#    automaton (subset-determinized de Bruijn graph) -- always equal
####

print("n  brute  transfer  full   loss(q-its)")
transfer = out_size_transfer_1d(and1d, 12)
for n in range(1, 13):
    (brute,) = out_sizes_bruteforce(and1d, [n])
    rec = transfer[n - 1]
    assert brute.out_size == rec.out_size
    print(f"{n:2d} {brute.out_size:6d} {rec.out_size:8d} {rec.full_size:6d}   {rec.lambda_qits:.5f}")

####
# 2. the first hole in the image: pattern 101 has no preimage
#    (101 forces its ends to come from 11, which makes the middle 1)
####

print()
cert = find_orphan(and1d, 3)
print("minimal orphan at n=3:", cert.pattern.cells, " code:", cert.pattern.code(2))
print("no orphan at n=2:", find_orphan(and1d, 2) is None)

####
# 3. counts grow like a power: Out(n+1)/Out(n) approaches the growth rate
#    2^0.8114 ~ 1.7549, so each new cell carries about 0.81 bits, not 1
####

print()
big = out_size_transfer_1d(and1d, 2000)
for n in (10, 100, 1000, 2000):
    print(f"n={n:5d}: log2(out)/n = {big[n - 1].ratio:.6f}")

####
# 4. exact big integers all the way: the n=2000 count has hundreds of
#    digits and is still exact
####

print()
print("digits in Out(2000):", len(str(big[-1].out_size)))

####
# 5. a gapped rule: offsets (2, -1) lie in one coset of 3Z, so the rule is
#    three interleaved copies of its reduced rule, offsets (1, 0), and
#    Out(n) is the product of the copies' counts at lengths ceil((n-r)/3)
####

print()
gapped = CellularAutomaton(1, 3, ((2,), (-1,)), [0, 1, 2, 1, 1, 0, 2, 0, 2])
reduced = CellularAutomaton(1, 3, ((1,), (0,)), gapped.rule_table)
counts = [1] + [r.out_size for r in out_sizes_bruteforce(reduced, range(1, 4))]
print("reduced counts Out'(k), k = 0..3:", counts)
print("n  Out(n)  product of the reduced counts  loss (q-its)")
for rec in out_size_transfer_1d(gapped, 9):
    n = rec.sides[0]
    factors = [counts[-(-(n - r) // 3)] for r in range(3)]
    assert rec.out_size == math.prod(factors)
    print(f"{n}  {rec.out_size:6d}  {' x '.join(map(str, factors)):>14}  {rec.lambda_qits:.5f}")

####
# 6. the same machinery in 2D (brute force only): the AND-of-three rule
#    first loses patterns on a 2x3 window
####

print()
and2d = make_builtin("and2d")
print("sides  out  full")
boxes = [(1, 1), (2, 2), (2, 3), (3, 3)]
for sides, rec in zip(boxes, out_sizes_bruteforce(and2d, boxes)):  # one enumeration, of 3x3
    mark = "  <- deficient" if rec.out_size < rec.full_size else ""
    print(f"{sides}  {rec.out_size:4d} {rec.full_size:5d}{mark}")
cert = find_orphan(and2d, (2, 3))
print("orphan pattern on 2x3:")
for row in cert.pattern.grid_rows():
    print("  ", *row)
