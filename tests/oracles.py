"""Independent oracles for the test suite.

Everything here is deliberately dumb and self-contained: plain itertools
enumeration straight from the definitions, a hand-rolled recurrence, and
bisection on a cubic.  Nothing imports the package's counting or
analysis machinery, so these values can confront it.
"""

import itertools

# Frozen outputs of the enumeration oracles below (verified by the
# test_oracle_* self-checks before anything else trusts them).
AND1D_OUT = (2, 4, 7, 12, 21, 37, 65, 114)
AND2D_OUT = {
    (1, 1): 2, (1, 2): 4, (1, 3): 8,
    (2, 1): 4, (2, 2): 16, (2, 3): 58,
    (3, 1): 8, (3, 2): 58, (3, 3): 340,
}
# log2 of the real root of x^3 - 2x^2 + x - 1 (see dominant_growth_log2).
LOG2_DOMINANT_ROOT = 0.8113704627516503


def and1d_images(n):
    """All outputs of the 1D AND rule on n cells, over all 2^(n+1) inputs."""
    images = set()
    for bits in itertools.product((0, 1), repeat=n + 1):
        images.add(tuple(bits[i] & bits[i + 1] for i in range(n)))
    return images


def and1d_out_size(n):
    return len(and1d_images(n))


def enumeration_images(dim, q, neighborhood, rule, sides, origin=None):
    """All reachable output patterns straight from the definition.

    `rule` maps a tuple of neighbour states to a state.  The input cell
    set is built directly as {x + v} and every assignment on it is tried;
    outputs are tuples in row-major cell order.
    """
    if origin is None:
        origin = (0,) * dim
    support = list(
        itertools.product(*[range(o, o + s) for o, s in zip(origin, sides)])
    )
    in_cells = sorted(
        {tuple(c + v for c, v in zip(cell, off)) for cell in support for off in neighborhood}
    )
    pos = {c: i for i, c in enumerate(in_cells)}
    images = set()
    for assign in itertools.product(range(q), repeat=len(in_cells)):
        out = tuple(
            rule(tuple(assign[pos[tuple(c + v for c, v in zip(cell, off))]]
                       for off in neighborhood))
            for cell in support
        )
        images.add(out)
    return images


def enumeration_out_size(dim, q, neighborhood, rule, sides, origin=None):
    return len(enumeration_images(dim, q, neighborhood, rule, sides, origin))


def and1d_recurrence(n_max):
    """Output sizes of the 1D AND rule via a(n) = 2a(n-1) - a(n-2) + a(n-3).

    Seeded from the enumeration oracle; exact integers throughout.
    """
    a = {1: 2, 2: 4, 3: 7}
    for n in range(4, n_max + 1):
        a[n] = 2 * a[n - 1] - a[n - 2] + a[n - 3]
    return a


def dominant_growth_log2():
    """log2 of the growth rate of the AND-image language, by bisection.

    The count of reachable length-n words satisfies a cubic linear
    recurrence whose characteristic polynomial x^3 - 2x^2 + x - 1 has a
    single root above 1; p(1) < 0 < p(2) and p is increasing there.
    """
    import math

    p = lambda x: x**3 - 2 * x**2 + x - 1
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if p(mid) < 0:
            lo = mid
        else:
            hi = mid
    return math.log2((lo + hi) / 2)


# ------------------------------------------------ the bit-loop subset DFA
#
# The 1D subset DFA and its per-length count as the package ran them
# before its engine stepped packed rows in numpy: one subset by one label
# at a time over Python-int masks, and a length as a sum over every live
# subset.  Rules are plain data: q, the 1D offsets in neighbourhood order,
# and the table indexed big-endian by the neighbour states.


class BitLoopSubsetDFA:
    """Subsets of de Bruijn vertices as int masks, numbered in the order
    `succ` first reaches them from the full set (id 0); `parent[j]` is
    i * q + label of the step that first reached j, -1 for the full set."""

    def __init__(self, q, offsets, table):
        mn = min(offsets)
        m = max(offsets) - mn + 1
        n_states = q ** (m - 1)
        self.q = q
        self._targets = [[0] * q for _ in range(n_states)]
        for w in range(q**m):  # window w = u+c, its cells mn..mn+m-1 big-endian
            cells = [w // q ** (m - 1 - p) % q for p in range(m)]
            label = table[sum(cells[o - mn] * q ** (len(offsets) - 1 - i)
                              for i, o in enumerate(offsets))]
            self._targets[w // q][label] |= 1 << (w % n_states)
        full = (1 << n_states) - 1
        self.masks = [full]
        self.ids = {full: 0}
        self.parent = [-1]

    def succ(self, i, label):
        """Id of the subset that subset i steps to by one label; -1 if empty."""
        nxt = 0
        rest = self.masks[i]
        while rest:
            low = rest & -rest
            nxt |= self._targets[low.bit_length() - 1][label]
            rest ^= low
        if not nxt:
            return -1
        j = self.ids.get(nxt)
        if j is None:
            j = self.ids[nxt] = len(self.masks)
            self.masks.append(nxt)
            self.parent.append(i * self.q + label)
        return j


def bit_loop_counts(q, offsets, table, n_max, max_subsets=1 << 16):
    """([(out size, live subsets) for n = 1..], refusal): the refusal is
    (message, cost) when the live subsets pass max_subsets, else None.
    Each length sums its counts over every live subset."""
    dfa = BitLoopSubsetDFA(q, offsets, table)
    rows = []  # successor ids per stepped subset
    live, counts = [0], [1]
    out = []
    for n in range(1, n_max + 1):
        rows += [[dfa.succ(i, c) for c in range(q)] for i in range(len(rows), len(dfa.masks))]
        nxt = {}
        for s, c in zip(live, counts):
            for j in rows[s]:
                if j >= 0:
                    nxt[j] = nxt.get(j, 0) + c
        live = sorted(nxt)
        counts = [nxt[j] for j in live]
        if len(live) > max_subsets:
            message = f"subset construction reached {len(live)} live subsets at n={n}, cap is {max_subsets}"
            return out, (message, len(live))
        out.append((sum(counts), len(live)))
    return out, None


def bit_loop_decision(q, offsets, table, max_subsets=1 << 20):
    """("surjective",), ("orphan", word) with the least shortest orphan
    word, or ("refused", message, cost), by the one-step-at-a-time search."""
    dfa = BitLoopSubsetDFA(q, offsets, table)
    i = 0
    while i < len(dfa.masks):
        for label in range(q):
            if dfa.succ(i, label) < 0:
                word = [label]
                while dfa.parent[i] >= 0:
                    i, back = divmod(dfa.parent[i], q)
                    word.append(back)
                return ("orphan", tuple(word[::-1]))
            if len(dfa.masks) > max_subsets:
                message = f"subset search visited {len(dfa.masks)} subsets, cap is {max_subsets}"
                return ("refused", message, len(dfa.masks))
        i += 1
    return ("surjective",)


def reduced_decision(q, offsets, table, max_subsets=1 << 20):
    """`bit_loop_decision` of a rule read through its reduced rule.  With g
    the gcd of the offsets' differences (1 for one offset), the rule is g
    interleaved copies of the rule with offsets (o - min)/g: that rule is
    searched, and its orphan word w becomes w at cells 0, g, 2g, ... with
    zeros between.  With g = 1 this is `bit_loop_decision` itself."""
    import math

    g = math.gcd(*(o - min(offsets) for o in offsets)) or 1
    got = bit_loop_decision(q, [(o - min(offsets)) // g for o in offsets], table, max_subsets)
    if got[0] != "orphan":
        return got
    word = [0] * (g * (len(got[1]) - 1) + 1)
    word[::g] = got[1]
    return ("orphan", tuple(word))


# ------------------------------------------------ the lexsort sampled check
#
# The sampled mode of `check_subadditivity` as the package ran it before
# it keyed rows as integers: rows deduped by `np.lexsort`, one stable sort
# per column, and f called once per distinct point from a Python loop.
# Violations are plain tuples (kind, axis, x, y, lhs, rhs).


def _lexsort_unique_rows(a):
    import numpy as np

    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def lexsort_sampled_check(fn, box, seed=0, samples=10_000):
    """Violations of f(x with x_j + y) <= f(x) + f(x with y) on `samples`
    triples drawn from `random.Random(seed)` inside the box, each distinct
    triple tested once; `fn` takes a tuple of ints and is called once per
    distinct point."""
    import random

    import numpy as np

    def floor_below(u, n):
        return np.minimum((u * n).astype(np.int64), n - 1)

    def exceeds(lhs, rhs):
        return lhs > rhs + 1e-9 * np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))

    d = len(box)
    axes = [j for j, side in enumerate(box) if side >= 2]
    if samples <= 0 or not axes:
        return []
    raw = np.frombuffer(random.Random(seed).randbytes(8 * samples * (d + 2)), dtype="<u8")
    u = ((raw >> np.uint64(11)) * 2.0**-53).reshape(samples, d + 2)
    sides = np.array(box, dtype=np.int64)
    rows = np.arange(samples)
    axis = np.array(axes)[floor_below(u[:, 0], len(axes))]
    room = np.tile(sides, (samples, 1))
    room[rows, axis] -= 1
    x = 1 + floor_below(u[:, 1:d + 1], room)
    y = 1 + floor_below(u[:, d + 1], sides[axis] - x[rows, axis])
    triples, _ = _lexsort_unique_rows(np.column_stack([x, axis, y]))
    x, axis, y = triples[:, :d], triples[:, d], triples[:, d + 1]

    rows = np.arange(len(y))
    other, total = x.copy(), x.copy()
    other[rows, axis] = y
    total[rows, axis] += y
    coords, inv = _lexsort_unique_rows(np.concatenate([x, other, total]))
    vals = np.fromiter(
        (fn(c) for c in zip(*coords.T.tolist())), dtype=np.float64, count=len(coords)
    )
    xi, oi, ti = inv.reshape(3, -1)
    violations = [
        ("negative", -1, tuple(coords[i].tolist()), 0, vals[i].item(), 0.0)
        for i in np.flatnonzero(vals < 0)
    ]
    lhs, rhs = vals[ti], vals[xi] + vals[oi]
    bad = exceeds(lhs, rhs)
    violations += [
        ("subadditive", a, tuple(coords[i].tolist()), b, lo, hi)
        for i, a, b, lo, hi in zip(*(part[bad].tolist() for part in (xi, axis, y, lhs, rhs)))
    ]
    return violations


# ------------------------------------------------ rows one record at a time
#
# The CSV rows of `out-table` and `lambda` as the package wrote them before
# its counts came as columns: one log_q, one q**volume and one formatted
# line per record.  A record is plain data, (sides, out_size) or
# (sides, None) for a box refused at `cost`.


def log_base(n, q):
    """log_q of a positive int, exact when n is a power of q."""
    import math

    x = math.log(n) / math.log(q)
    k = round(x)
    if abs(x - k) <= 1e-9 * max(1, k) and q**k == n:
        return float(k)
    return x


def out_table_csv(dim, q, records, budget):
    """out-table's CSV for records (sides, out_size, cost), out_size None
    (and cost the budget cost) on a refused box."""
    lines = [",".join([f"x{i + 1}" for i in range(dim)]
                      + ["out_size", "full_size", "ratio", "lambda_qits", "status"])]
    for sides, out, cost in records:
        head = ",".join(map(str, sides))
        if out is None:
            lines.append(f"{head},,,,,refused: cost {cost} exceeds budget {budget}")
            continue
        volume = 1
        for s in sides:
            volume *= s
        log = log_base(out, q)
        lines.append(f"{head},{out},{q**volume},{log / volume:.12g},{volume - log:.12g},ok")
    return "\n".join(lines) + "\n"


def lambda_1d_stdout(name, q, counts):
    """`lambda`'s whole stdout for a 1D rule on the schedule diag:1..n, from
    its counts Out(1..n), when they show no subadditivity violation."""
    ratios = [log_base(out, q) / n for n, out in enumerate(counts, 1)]
    n = len(counts)
    inf = min(ratios)
    tail = log_base(counts[-1], q) - log_base(counts[-2], q) if n > 1 else ratios[-1]
    lo, hi = (min(max(v, 0.0), 1.0) for v in (min(tail, inf), inf))
    lines = [
        f"automaton: {name} (d=1, q={q})",
        f"lambda bracket: [{lo:.6f}, {hi:.6f}]",
        f"certified upper bound (running infimum): {inf:.12g}",
        f"boxes evaluated: {n}",
        "x1,out_size,ratio",
    ]
    lines += [f"{n},{out},{ratio:.12g}" for n, (out, ratio) in enumerate(zip(counts, ratios), 1)]
    return "\n".join(lines) + "\n"


# ------------------------------------------------ the slice-OR restriction
#
# A box bitmap restricted to a sub-box as the package ran it before it
# read trailing groups as machine words: each dropped group of cells is
# an `any` over the middle axis of a three-axis reshape, as OR-ed slices
# up to 16 of them.


def slice_or_restrict(seen, sides, sub, q):
    """The bitmap of box `sub` (same origin, sub <= sides) read off the
    flat bool bitmap of box `sides`, in row-major code order."""
    import math

    cur = list(sides)
    for k, keep in enumerate(sub):
        inner = math.prod(cur[k + 1:])
        group = (cur[k] - keep) * inner
        if group:
            for line in reversed(range(math.prod(cur[:k]))):
                before = (line * cur[k] + keep) * inner
                x = seen.reshape(q**before, q**group, -1)
                if x.shape[1] > 16:
                    seen = x.any(axis=1)
                else:
                    seen = x[:, 0].copy()
                    for g in range(1, x.shape[1]):
                        seen |= x[:, g]
            cur[k] = keep
    return seen.ravel()


# ------------------------------------------------ the per-key Fekete sweep
#
# `check_subadditivity_on_table` and `running_infimum` as the package ran
# them before boxes came as integer columns: a dict keyed by box, a numpy
# pass per line of 2+ keys in blocks of at most `pair_block` (x, total)
# pairs, and one ratio per box.  Boxes are tuples; violations are plain
# tuples (kind, axis, x, y, lhs, rhs).


def per_line_table_check(values, multiplicative=False, pair_block=1 << 12):
    """Every covered (axis, x, y) of the table {box: value}, as the
    per-line check found them, in table order of x, then axis, then y."""
    import operator

    import numpy as np

    table = {}
    for key, val in values.items():
        key = (key,) if isinstance(key, int) else tuple(key)
        table[key] = operator.index(val) if multiplicative else float(val)
    keys = list(table)
    if multiplicative:
        assert min(table.values()) >= 1
        vals = np.array(list(table.values()), dtype=object)
    else:
        vals = np.fromiter(table.values(), dtype=np.float64, count=len(table))
    coords = np.array(keys, dtype=np.int64)
    violations = [] if multiplicative else [
        ("negative", -1, keys[i], 0, vals[i].item(), 0.0) for i in np.flatnonzero(vals < 0)
    ]
    found = []
    for axis in range(coords.shape[1]):
        rest = coords[:, np.arange(coords.shape[1]) != axis]
        order = np.lexsort((coords[:, axis], *rest.T))
        rest = rest[order]
        cuts = [0, *np.flatnonzero((rest[1:] != rest[:-1]).any(axis=1)) + 1, len(order)]
        for idx in (order[a:b] for a, b in zip(cuts, cuts[1:]) if b - a > 1):
            pos, val = coords[idx, axis], vals[idx]
            block = max(1, pair_block // len(pos))
            for r0 in range(0, len(pos) - 1, block):
                xs = np.arange(r0, min(r0 + block, len(pos) - 1))
                ys = pos[r0 + 1:] - pos[xs, None]
                other = np.minimum(np.searchsorted(pos, ys), len(pos) - 1)
                row, col = np.nonzero(pos[other] == ys)
                xi, ti, oi, y = xs[row], col + r0 + 1, other[row, col], ys[row, col]
                if multiplicative:
                    lhs, rhs = val[ti], val[xi] * val[oi]
                    bad = lhs > rhs
                else:
                    lhs, rhs = val[ti], val[xi] + val[oi]
                    bad = lhs > rhs + 1e-9 * np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))
                if bad.any():
                    found.append((idx[xi[bad]], np.full(bad.sum(), axis), y[bad], lhs[bad], rhs[bad]))
    if found:
        xk, ax, y, lhs, rhs = (np.concatenate(part) for part in zip(*found))
        order = np.lexsort((y, ax, xk))
        violations += [
            ("subadditive", a, keys[i], b, lo, hi)
            for i, a, b, lo, hi in zip(*(part[order].tolist() for part in (xk, ax, y, lhs, rhs)))
        ]
    return violations


def per_box_running_infimum(fn, schedule):
    """(boxes, ratios, running_inf, last_ratio, tail_slope) of fn over the
    distinct boxes of the schedule, one box object at a time."""
    import math
    import operator

    boxes = list(dict.fromkeys(tuple(b) for b in schedule))
    values = [float(fn(b)) for b in boxes]
    volumes = list(map(math.prod, boxes))
    ratios = list(map(operator.truediv, values, volumes))
    k = boxes.index(max(boxes))
    last = boxes[k]
    if len(last) > 1:
        below = [i for i, b in enumerate(boxes) if i != k and all(map(operator.le, b, last))]
    else:
        below = [volumes.index(max(v for v in volumes if v < last[0]))] if len(boxes) > 1 else []
    tail_slope = ratios[k]
    if below:
        volume, _, i = max((volumes[i], boxes[i], i) for i in below)
        tail_slope = (values[k] - values[i]) / (volumes[k] - volume)
    return tuple(boxes), tuple(ratios), min(ratios), ratios[k], tail_slope
