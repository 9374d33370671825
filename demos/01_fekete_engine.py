#!/usr/bin/env python3
# Tour of the standalone Fekete engine: checking coordinate-wise
# subadditivity, watching the ratio f(x)/volume(x) settle, and bracketing
# its directed-set limit.

import math

from feketeca import (
    SubadditiveFn,
    check_subadditivity,
    decomposition_bound,
    diagonal_schedule,
    geometric_schedule,
    running_infimum,
    subadditivity_triple_count,
)

####
# 1. an additive function: the ratio is constant, everything collapses
####

triple = SubadditiveFn(1, lambda x: 3.0 * x[0], name="3n")
print("== f(n) = 3n ==")
print("violations on box (20):", check_subadditivity(triple, (20,)))
est = running_infimum(triple, diagonal_schedule(1, 100))
print("running infimum:", est.running_inf, " bracket:", est.bracket)
print()

####
# 2. a genuinely 2D example: f(x,y) = xy + x + y
#    ratio = 1 + 1/x + 1/y, so the limit is 1 but no box attains it
####

prod_plus = SubadditiveFn(2, lambda x: float(x[0] * x[1] + x[0] + x[1]), name="xy+x+y")
print("== f(x,y) = xy + x + y ==")
print("triples on box (10,10):", subadditivity_triple_count((10, 10)))
print("violations:", check_subadditivity(prod_plus, (10, 10)))
for k in (10, 100, 1000):
    est = running_infimum(prod_plus, diagonal_schedule(2, k))
    print(f"diagonal to {k:4d}: inf = {est.running_inf:.6f}  bracket = "
          f"[{est.bracket[0]:.6f}, {est.bracket[1]:.6f}]")

# every evaluated ratio is a certified upper bound; bigger base, better bound
est = running_infimum(prod_plus, diagonal_schedule(2, 500))
for base in ((1, 1), (10, 10), (100, 100)):
    ratio = est.ratios[est.evaluated_boxes.index(base)]
    print(f"base {base}: certified upper bound f(base)/vol = {ratio:.4f}")
print()

####
# 3. the division decomposition: an explicit upper bound on f at any box,
#    assembled from values at a fixed base t and remainders
####

print("== decomposition bound ==")
print("f(5,5) =", prod_plus((5, 5)), "  bound via t=(2,2):",
      decomposition_bound(prod_plus, (2, 2), (5, 5)))
print("additive f: bound is exact:",
      decomposition_bound(triple, (5,), (13,)), "= f(13) =", triple((13,)))
print()

####
# 4. a function that is NOT subadditive gets caught, and negative values
#    are flagged separately (they already break the hypothesis)
####

square = SubadditiveFn(1, lambda x: float(x[0] ** 2), name="n^2")
bad = check_subadditivity(square, (10,))
print("== n^2 is superadditive ==")
print(f"{len(bad)} violations, first:", bad[0])

dipping = SubadditiveFn(1, lambda x: 5.0 - x[0])
kinds = {v.kind for v in check_subadditivity(dipping, (10,))}
print("f(n) = 5 - n violation kinds:", kinds)
print()

####
# 5. slow logarithmic correction: f(n) = n + ceil(log2(n+1)) along powers
#    of two; the infimum keeps creeping toward 1
####

log_ceil = SubadditiveFn(1, lambda x: x[0] + math.ceil(math.log2(x[0] + 1)))
est = running_infimum(log_ceil, geometric_schedule(1, 21))
print("== f(n) = n + ceil(log2(n+1)), powers of two to 2^20 ==")
print("running infimum:", est.running_inf, " (vs 1 + 21/2^20 =", 1 + 21 / 2**20, ")")
