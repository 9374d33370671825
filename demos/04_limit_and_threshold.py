#!/usr/bin/env python3
# The per-cell information limit and the loss-dominates-boundary
# threshold: a nonsurjective automaton eventually loses more than any
# fixed boundary can carry.

from feketeca import (
    diagonal_schedule,
    lambda_estimate,
    make_builtin,
    out_size_transfer_1d,
    theorem2_threshold,
)

####
# 1. lambda brackets: 1.0 exactly for surjective rules, strictly below
#    for AND (its limit is log2 of the dominant growth rate, ~0.81137)
####

for name in ("shift", "xor1d", "and1d"):
    ca = make_builtin(name)
    est = lambda_estimate(ca, diagonal_schedule(1, 2000))
    lo, hi = est.bracket
    print(f"{name:6s} lambda bracket: [{lo:.6f}, {hi:.6f}]"
          + ("   <- rules out surjectivity" if est.excludes_surjective else ""))

# 2D: brute-force counts up to (3,3) already push the certified upper
# bound below 1
and2d = make_builtin("and2d")
est = lambda_estimate(and2d, diagonal_schedule(2, 3))
print(f"and2d  lambda upper bound from (3,3): {est.bracket[1]:.6f}")

####
# 2. the threshold in 1D: one deficient count t proves loss(n) >= 3
#    (boundary widths (2,), K = 1) for every n >= T, not only inside the
#    search box.  Loss is superadditive, so loss(n) >= (n - t + 1) *
#    loss(t) / t, and that bound reaches 3 at T
####

print()
and1d = make_builtin("and1d")
report = theorem2_threshold(and1d, K=1, r=(2,), search_box=(64,))
t, T = report.t, report.T
print(f"and1d: from t = {tuple(t.sides)} (Out = {t.out_size}, loss {t.lambda_qits:.4f}),"
      f" loss >= 3 is proved for every box >= T = {tuple(T)}")

# the proof is not tight: the exact counts reach loss 3 a little earlier
out = {r.sides[0]: r.out_size for r in out_size_transfer_1d(and1d, 200)}
first = min(n for n in range(1, 201) if all(2 ** (m - 3) >= out[m] for m in range(n, 201)))
print(f"exact counts: loss >= 3 at every n from {first} to 200; at T the bound is"
      f" {(T[0] - t.sides[0] + 1) * t.lambda_qits / t.sides[0]:.4f}")

####
# 3. the threshold in 2D: widths (1, 1) and K = 0.  No box up to 2x2
#    loses anything, but the 3x3 count does, and it proves the
#    inequality on every box from (35, 35) on
####

print()
report2d = theorem2_threshold(and2d, K=0, r=(1, 1), search_box=(3, 3))
print(f"and2d: from t = {tuple(report2d.t.sides)} (Out = {report2d.t.out_size}),"
      f" loss >= boundary excess is proved for every box >= T = {tuple(report2d.T)}")
