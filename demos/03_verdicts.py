#!/usr/bin/env python3
# Surjectivity verdicts and the dimension split: dimension 1 is decided
# exactly (subset construction), dimension >= 2 is only ever refuted
# (orphan certificate) or left UNKNOWN with the cleared sizes.

from feketeca import (
    CellularAutomaton,
    VerdictStatus,
    decide_surjectivity_1d,
    make_builtin,
    surjectivity_report,
)

####
# 1. the four builtins
####

for name in ("shift", "xor1d", "and1d", "and2d"):
    ca = make_builtin(name)
    verdict = surjectivity_report(ca)
    line = f"{name:6s} -> {verdict.status.value}"
    if verdict.certificate is not None:
        cert = verdict.certificate
        line += f"  (orphan on sides {tuple(cert.sides)}: {cert.pattern.cells})"
    print(line)

####
# 2. the exact 1D decision returns None for a surjective rule, else a
#    certificate holding the lexicographically least shortest orphan
#    word; for AND that is 101
####

print()
print("xor1d certificate:", decide_surjectivity_1d(make_builtin("xor1d")))
cert = decide_surjectivity_1d(make_builtin("and1d"))
print("and1d orphan word:", cert.pattern.cells, " code:", cert.pattern.code(2))

# offsets (0, 19) are 19 interleaved copies of the span-2 rule on (0, 1):
# the decision runs on that reduced rule, and AND's orphan 101 comes back
# spread 19 cells apart, 39 cells long, while XOR stays surjective
and19 = CellularAutomaton(1, 2, ((0,), (19,)), (0, 0, 0, 1), name="and19")
cert = decide_surjectivity_1d(and19)
print("and19 orphan on", len(cert.pattern.cells), "cells, code:", cert.pattern.code(2))
xor19 = CellularAutomaton(1, 2, ((0,), (19,)), (0, 1, 1, 0), name="xor19")
print("xor19 ->", surjectivity_report(xor19).status.value)

####
# 3. a 2D rule with no orphan in reach: the scan clears sizes until the
#    budget wall and honestly reports UNKNOWN (never "surjective")
####

print()
shift2d = CellularAutomaton(2, 2, ((1, 0),), (0, 1), name="shift2d")
verdict = surjectivity_report(shift2d, budget=1 << 16)
print("shift2d ->", verdict.status.value)
print("cleared sizes:", [tuple(s) for s in verdict.cleared])
print("note:", verdict.note)
assert verdict.status is VerdictStatus.UNKNOWN

####
# 4. custom rules are one constructor call away: majority-of-three is
#    nonsurjective, and the decision hands over its witness
####

print()
maj = CellularAutomaton(
    1, 2, ((-1,), (0,), (1,)),
    tuple(int(a + b + c >= 2) for a in (0, 1) for b in (0, 1) for c in (0, 1)),
    name="majority3",
)
cert = decide_surjectivity_1d(maj)
print("majority3 orphan word:", cert.pattern.cells)
