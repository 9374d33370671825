"""Command-line front end.

Subcommands: out-table (exact count/loss CSV), decide (surjectivity
verdict with certificate, exit code 0/10/20), lambda (per-cell limit
bracket plus ratio CSV), fekete (standalone subadditivity check and
limit estimate).  Output is deterministic byte for byte given identical
inputs, flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .analysis import VerdictStatus, lambda_estimate, surjectivity_report
from .ca import CellularAutomaton, make_builtin
from .counting import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    OrphanCertificate,
    out_size_transfer_1d,
    out_sizes,
    out_sizes_bruteforce,
    _decimal,
)
from .subadditive import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    Boxes,
    MultiIndex,
    SubadditiveFn,
    check_subadditivity,
    check_subadditivity_on_table,
    running_infimum,
    subadditivity_triple_count,
    _grid,
    _int_array,
    _lex_last,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_NONSURJECTIVE = 10
EXIT_UNKNOWN = 20


class DescriptionError(Exception):
    """Invalid automaton description file; the message names the bad key."""


# a float to 12 significant digits, as format(value, ".12g") writes it
_fmt12 = "%.12g".__mod__


def parse_sides(token: str, dim: int | None = None) -> MultiIndex:
    """Sides like '3' or '2x3' or '2 x 3' ('x'-separated, locale-free)."""
    parts = token.replace(" ", "").split("x")
    try:
        sides = MultiIndex(int(p) for p in parts)
    except ValueError as exc:
        raise DescriptionError(f"bad sides {token!r}: {exc}") from None
    if dim is not None and sides.dim != dim:
        raise DescriptionError(
            f"sides {token!r} have dimension {sides.dim}, automaton has {dim}"
        )
    return sides


def _parsed(tokens: list[str], dim: int) -> np.ndarray | None:
    """The sides of each token, as `parse_sides` reads them, as the rows of
    one array parsed in one pass; None if some token is not `dim` sides."""
    parts = "x".join(tokens).replace(" ", "").split("x")
    if {tok.count("x") for tok in tokens} != {dim - 1}:
        return None
    try:
        coords = _int_array(list(map(int, parts)))
    except ValueError:
        return None
    return coords.reshape(-1, dim) if coords.min() >= 1 else None


def parse_schedule(text: str, dim: int) -> Boxes:
    """'diag:1..N' for the diagonal, or an explicit comma list of sides."""
    text = text.strip()
    if text.startswith("diag:"):
        spec = text[len("diag:"):]
        if ".." not in spec:
            raise DescriptionError(f"bad schedule {text!r}: expected diag:LO..HI")
        lo_s, hi_s = spec.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise DescriptionError(f"bad schedule {text!r}: bounds must be integers") from None
        if not 1 <= lo <= hi:
            raise DescriptionError(f"bad schedule {text!r}: need 1 <= LO <= HI")
        fits = hi < 1 << 62  # else exact ints, dtype object
        side = np.arange(lo, hi + 1, dtype=np.int64) if fits else _int_array(range(lo, hi + 1))
        return Boxes(np.repeat(side[:, None], dim, axis=1))
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise DescriptionError(f"bad schedule {text!r}: no sides given")
    coords = _parsed(tokens, dim)
    if coords is None:  # parse_sides names the first bad token
        coords = _int_array([parse_sides(tok, dim) for tok in tokens])
    return Boxes(coords)


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DescriptionError(f"no such file: {path}") from None
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise DescriptionError(f"not valid JSON: {exc}") from None


def _is_int(value) -> bool:
    """A JSON integer: json reads true/false as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_description(path: str) -> tuple[CellularAutomaton, dict | None]:
    """Parse a JSON automaton description.

    Keys: dimension, states (count or label list), neighborhood (ordered
    offset vectors; bare integers allowed in dimension 1) and rule
    (either {"table": [...q^n entries...]} or {"builtin": name}).  Labels
    are mapped to 0..q-1 in list order; the mapping is returned so the
    caller can report it.
    """
    data = _read_json(path)
    if not isinstance(data, dict):
        raise DescriptionError("top level must be an object")

    known = {"dimension", "states", "neighborhood", "rule", "name"}
    for key in data:
        if key not in known:
            raise DescriptionError(f"unknown key {key!r}")
    if not isinstance(data.get("name", ""), str):
        raise DescriptionError("key 'name': must be a string")
    if "dimension" in data and not (_is_int(data["dimension"]) and data["dimension"] >= 1):
        raise DescriptionError("key 'dimension': must be a positive integer")

    rule = data.get("rule")
    if rule is None:
        raise DescriptionError("key 'rule' is required")
    if not isinstance(rule, dict) or len(rule) != 1 or next(iter(rule)) not in ("table", "builtin"):
        raise DescriptionError("key 'rule' must be {\"table\": [...]} or {\"builtin\": name}")

    if "builtin" in rule:
        try:
            ca = make_builtin(rule["builtin"])
        except ValueError as exc:
            raise DescriptionError(f"key 'rule': {exc}") from None
        if "dimension" in data and data["dimension"] != ca.dimension:
            raise DescriptionError(
                f"key 'dimension': builtin {ca.name!r} has dimension {ca.dimension}"
            )
        if "states" in data and (not _is_int(data["states"]) or data["states"] != ca.state_count):
            raise DescriptionError(
                f"key 'states': builtin {ca.name!r} has {ca.state_count} states"
            )
        return ca, None

    for key in ("dimension", "states", "neighborhood"):
        if key not in data:
            raise DescriptionError(f"key {key!r} is required with a rule table")
    dim = data["dimension"]

    states = data["states"]
    labels = None
    if _is_int(states):
        q = states
    elif isinstance(states, list):
        if len(set(map(str, states))) != len(states):
            raise DescriptionError("key 'states': labels must be distinct")
        labels = {str(lab): i for i, lab in enumerate(states)}
        q = len(states)
    else:
        raise DescriptionError("key 'states': must be an integer or a label list")
    if q < 2:
        raise DescriptionError("key 'states': need at least two states")

    nbhd = data["neighborhood"]
    if not isinstance(nbhd, list) or not nbhd:
        raise DescriptionError("key 'neighborhood': must be a nonempty list")
    offsets = []
    for vec in nbhd:
        if _is_int(vec):
            vec = [vec]
        if not isinstance(vec, list) or len(vec) != dim or not all(map(_is_int, vec)):
            raise DescriptionError(
                f"key 'neighborhood': offset {vec!r} is not a {dim}-vector of integers"
            )
        offsets.append(tuple(vec))

    table = rule["table"]
    if not isinstance(table, list):
        raise DescriptionError("key 'rule': 'table' must be a list")
    if labels is not None:
        try:
            table = [labels[str(v)] for v in table]
        except KeyError as exc:
            raise DescriptionError(f"key 'rule': table entry {exc} is not a declared label") from None
    bad = [v for v in table if not _is_int(v)]
    if bad:
        raise DescriptionError(f"key 'rule': table entry {json.dumps(bad[0])} is not an integer")
    try:
        ca = CellularAutomaton(dim, q, tuple(offsets), tuple(table), name=data.get("name", ""))
    except ValueError as exc:
        raise DescriptionError(f"key 'rule'/'neighborhood': {exc}") from None
    return ca, labels


def _write(path: str | None, text: str) -> None:
    """Write text to stdout for None or "-", else to the file at path."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.write(text)


def _sides_for_table(args, ca: CellularAutomaton) -> list[MultiIndex] | None:
    """The boxes of an out-table; None for --max-sides by transfer (all lengths)."""
    if args.sides_list is not None:
        tokens = [tok for tok in args.sides_list.split(",") if tok.strip()]
        sides = [parse_sides(tok, ca.dimension) for tok in tokens]
        if not sides:
            raise DescriptionError(f"bad sides list {args.sides_list!r}: no sides given")
        return sides
    n = args.max_sides
    if n < 1:
        raise DescriptionError(f"--max-sides must be >= 1, got {n}")
    return None if args.method == "transfer" else _grid(MultiIndex._trusted((n,) * ca.dimension))


def cmd_out_table(args) -> int:
    ca, labels = load_description(args.file)
    sides_list = _sides_for_table(args, ca)
    method = args.method
    if method == "transfer" and ca.dimension != 1:
        raise DescriptionError("method 'transfer' requires a 1-dimensional automaton")
    if method == "auto":
        table = out_sizes(ca, sides_list, budget=args.budget)
    elif method == "brute":
        table = out_sizes_bruteforce(ca, sides_list, budget=args.budget)
    elif sides_list is None:  # a refusal propagates: error, exit 2
        table = out_size_transfer_1d(ca, args.max_sides)
    else:
        lengths = [s[0] for s in sides_list]
        table = out_size_transfer_1d(ca, max(lengths)).take([n - 1 for n in lengths])

    header = [f"x{i+1}" for i in range(ca.dimension)]
    header += ["out_size", "full_size", "ratio", "lambda_qits", "status"]
    vol, log = table.volumes, table.log_out
    fmt = "%d," * ca.dimension + "%d,%d,%.12g,%.12g,ok"
    # a refused row is written with count 1, then replaced
    columns = [*_axes(table, ca.dimension), table.filled(table.counts, 1)]
    full = _powers(ca.state_count, vol.tolist())
    columns += [full, (log / vol).tolist(), (vol - log).tolist()]
    lines = [",".join(header), *_csv_rows(fmt, columns)]
    for i in table.refused:
        refusal, head = table.counts[i], ",".join(map(str, table.sides[i]))
        if refusal.cost > args.budget:
            refusal = f"cost {_decimal(refusal.cost)} exceeds budget {args.budget}"
        lines[i + 1] = f"{head},,,,,refused: {refusal}"
    if labels:
        lines.insert(0, "# states: " + " ".join(f"{lab}={i}" for lab, i in labels.items()))
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _axes(table, dim: int) -> list:
    """The columns of the boxes' sides; in 1D, the lengths, which are the volumes."""
    return [table.volumes.tolist()] if dim == 1 else table.sides.coords.T.tolist()


def _csv_rows(fmt: str, columns: list) -> list[str]:
    """fmt % each row of the columns: no field holds a comma, a quote or a
    line break, so that is how csv writes it.  If an int passes `str`'s
    digit limit, every int is written by `_decimal`."""
    try:
        return list(map(fmt.__mod__, zip(*columns)))
    except ValueError:
        columns = [list(map(_decimal, c)) if type(c[0]) is int else c for c in columns]
        return list(map(fmt.replace("%d", "%s").__mod__, zip(*columns)))


def _powers(q: int, exponents: list[int]) -> list[int]:
    """q**e for each e, read off the powers up to the largest e, one
    product each, while that is at most twice the exponents' count."""
    powers = [1]
    for _ in range(min(max(exponents), 2 * len(exponents))):
        powers.append(powers[-1] * q)
    return [powers[e] if e < len(powers) else q**e for e in exponents]


def certificate_block(cert: OrphanCertificate, q: int) -> str:
    lines = ["```"]
    lines.append("sides: " + " x ".join(str(s) for s in cert.sides))
    for row in cert.pattern.grid_rows():
        lines.append(" ".join(str(v) for v in row))
    lines.append(f"code: {cert.pattern.code(q)}")
    lines.append("```")
    return "\n".join(lines)


def cmd_decide(args) -> int:
    ca, labels = load_description(args.file)
    verdict = surjectivity_report(ca, budget=args.budget)
    name = ca.name or args.file
    print(f"automaton: {name} (d={ca.dimension}, q={ca.state_count}, |N|={ca.neighborhood_size})")
    if labels:
        print("states: " + " ".join(f"{lab}={i}" for lab, i in labels.items()))
    print(f"verdict: {verdict.status.value}")
    if verdict.status is VerdictStatus.PROVED_SURJECTIVE:
        return EXIT_OK
    if verdict.status is VerdictStatus.NONSURJECTIVE:
        cert = verdict.certificate
        print(f"orphan pattern on sides {' x '.join(str(s) for s in cert.sides)}:")
        print("certificate:")
        print(certificate_block(cert, ca.state_count))
        return EXIT_NONSURJECTIVE
    if verdict.cleared:
        print("cleared sizes: " + ", ".join("x".join(str(s) for s in b) for b in verdict.cleared))
    if verdict.note:
        print(f"note: {verdict.note}")
    return EXIT_UNKNOWN


def cmd_lambda(args) -> int:
    ca, labels = load_description(args.file)
    if args.schedule:
        schedule = parse_schedule(args.schedule, ca.dimension)
    elif ca.dimension == 1:
        schedule = parse_schedule("diag:1..1000", 1)
    else:
        schedule = parse_schedule("diag:1..3", ca.dimension)
    est = lambda_estimate(ca, schedule, budget=args.budget)
    lo, hi = est.bracket
    name = ca.name or args.file
    print(f"automaton: {name} (d={ca.dimension}, q={ca.state_count})")
    if labels:
        print("states: " + " ".join(f"{lab}={i}" for lab, i in labels.items()))
    print(f"lambda bracket: [{lo:.6f}, {hi:.6f}]")
    print(f"certified upper bound (running infimum): {_fmt12(est.estimate.running_inf)}")
    print(f"boxes evaluated: {len(est.records)}")
    if est.subadditivity_violations:
        print(f"WARNING: {len(est.subadditivity_violations)} log-subadditivity violations")
    for note in est.notes:
        print(f"partial: {note}")
    header = ",".join([f"x{i+1}" for i in range(ca.dimension)] + ["out_size", "ratio"])
    columns = [*_axes(est.records, ca.dimension), est.records.counts, est.estimate.ratios]
    rows = _csv_rows("%d," * ca.dimension + "%d,%.12g", columns)
    _write(args.out, "\n".join([header, *rows]) + "\n")
    return EXIT_OK


class _Formula(SubadditiveFn):
    """A builtin f, one formula on the coordinates, that evaluates rows as
    array work: on int64 columns while every coordinate is below 2^31, so
    no product of two overflows, and on columns of exact ints past that.
    Either way each value is the float of the exact result, as one call
    of the formula gives."""

    def __init__(self, dim: int, formula, name: str):
        super().__init__(dim, lambda x: float(formula(x)), name)
        self.formula = formula

    def evaluate_rows(self, points: np.ndarray) -> np.ndarray:
        cols = points.T if points.max(initial=0) < 1 << 31 else points.T.astype(object)
        return np.asarray(self.formula(cols), dtype=np.float64)


_FEKETE_BUILTINS = {
    "3n": lambda: _Formula(1, lambda x: 3.0 * x[0], "3n"),
    "n^2": lambda: _Formula(1, lambda x: x[0] ** 2, "n^2"),
    "xy+x+y": lambda: _Formula(2, lambda x: x[0] * x[1] + x[0] + x[1], "xy+x+y"),
}


def load_fekete_table(path: str) -> tuple[np.ndarray, np.ndarray, dict]:
    """JSON table {"values": {"3": 5, "2x4": 7, ...}} with 'x'-separated
    keys of one dimension, as columns: the distinct keys as the rows of
    an integer array, parsed in one pass, their float64 values, and the
    row of each key as a tuple.  Two spellings of one key ("2x3" and
    "2 x 3") are one row, where the first stands, with the last's value."""
    data = _read_json(path)
    values = data.get("values") if isinstance(data, dict) else None
    if not isinstance(values, dict) or not values:
        raise DescriptionError("key 'values' must be a nonempty object")
    keys = list(values)
    dim = parse_sides(keys[0]).dim
    coords = _parsed(keys, dim)
    for key, val in values.items():  # the first bad entry raises
        if coords is None and (other := parse_sides(key).dim) != dim:
            raise DescriptionError(f"key 'values': keys mix dimensions ({dim} and {other})")
        if not (_is_int(val) or isinstance(val, float)):
            raise DescriptionError(f"key 'values': entry {key!r} is not a number")
        try:
            finite = math.isfinite(val)  # json reads NaN and Infinity
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise DescriptionError(f"key 'values': entry {key!r} is not finite")
    column = np.array(list(values.values()), dtype=np.float64)
    rows = dict(zip(map(tuple, coords.tolist()), range(len(keys))))
    if len(rows) < len(keys):
        last = list(rows.values())
        coords, column, rows = coords[last], column[last], dict(zip(rows, range(len(rows))))
    return coords, column, rows


def cmd_fekete(args) -> int:
    if bool(args.function) == bool(args.table):
        raise DescriptionError("exactly one of --function and --table is required")
    if args.function:
        try:
            f = _FEKETE_BUILTINS[args.function]()
        except KeyError:
            raise DescriptionError(
                f"unknown function {args.function!r}; known: "
                + ", ".join(sorted(_FEKETE_BUILTINS))
            ) from None
    else:
        coords, column, rows = load_fekete_table(args.table)
        f = SubadditiveFn(coords.shape[1], lambda x: column[rows[x]], name=args.table)

    schedule = parse_schedule(args.schedule, f.dim)
    boxes = schedule.coords
    base = parse_sides(args.base, f.dim) if args.base else schedule[_lex_last(boxes)]
    if args.table:
        for box in map(tuple, boxes.tolist()):
            if box not in rows:
                raise DescriptionError(
                    f"table is incomplete on the schedule: missing index "
                    + "x".join(str(s) for s in box)
                )
        if base not in rows:
            raise DescriptionError(f"base {args.base} is not a key of the table")
        try:
            violations = check_subadditivity_on_table((coords, column))
        except ValueError as exc:
            raise DescriptionError(str(exc)) from None
        scope = f"table ({len(rows)} entries)"
    else:
        box = MultiIndex._trusted(boxes.max(axis=0).tolist())
        count = subadditivity_triple_count(box)
        try:
            violations = check_subadditivity(
                f, box, exhaustive_limit=DEFAULT_EXHAUSTIVE_LIMIT, seed=args.seed
            )
        except ValueError as exc:
            raise DescriptionError(str(exc)) from None
        mode = "exhaustive" if count <= DEFAULT_EXHAUSTIVE_LIMIT else f"sampled (seed {args.seed})"
        scope = f"box {'x'.join(str(s) for s in box)}, {count} triples, {mode}"

    print(f"function: {f.name} (dimension {f.dim})")
    print(f"subadditivity check: {scope}")
    if violations:
        for v in violations[:20]:
            if v.kind == "negative":
                print(f"violation: negative value f{tuple(v.x)} = {_fmt12(v.lhs)}")
            else:
                print(
                    f"violation: axis {v.axis}, x={tuple(v.x)}, y={v.y}: "
                    f"lhs {_fmt12(v.lhs)} > rhs {_fmt12(v.rhs)}"
                )
        if len(violations) > 20:
            print(f"... and {len(violations) - 20} more")
        print(f"violations: {len(violations)}")
        print("estimate suppressed: the subadditivity hypothesis fails")
        return EXIT_VIOLATIONS

    print("violations: 0")
    est = running_infimum(f, Boxes(np.concatenate([boxes, _int_array([base])])))
    lo, hi = est.bracket
    print(f"boxes evaluated: {len(est.evaluated_boxes)}")
    print(f"running infimum: {_fmt12(est.running_inf)}")
    print(f"last ratio: {_fmt12(est.last_ratio)}")
    print(f"limit bracket: [{lo:.6f}, {hi:.6f}]")
    # every evaluated ratio bounds the limit from above; the base's is reported
    base_ratio = est.ratios[est.evaluated_boxes.index(base)]
    print(f"certified upper bound at base {'x'.join(map(str, base))}: {_fmt12(base_ratio)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feketeca",
        description=(
            "Exact reachable-pattern counts, information loss and "
            "surjectivity analysis for cellular automata; standalone "
            "multivariate Fekete engine."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("out-table", help="exact count/loss table as CSV")
    p.add_argument("file", help="automaton description (JSON)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--sides-list", help="comma list of sides, e.g. 1x1,2x2,3x3")
    g.add_argument("--max-sides", type=int, help="all sides up to N per axis")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--method", choices=("auto", "brute", "transfer"), default="auto")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("decide", help="surjectivity verdict (exit 0/10/20)")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("lambda", help="per-cell limit bracket plus ratio CSV")
    p.add_argument("file")
    p.add_argument("--schedule", help="diag:1..N or explicit sides list")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", help="write the CSV here instead of stdout")

    p = sub.add_parser("fekete", help="standalone subadditive-limit engine")
    p.add_argument("--function", help="builtin: " + ", ".join(sorted(_FEKETE_BUILTINS)))
    p.add_argument("--table", help="JSON value table, complete on the schedule")
    p.add_argument("--schedule", required=True)
    p.add_argument("--base", help="base box for the certified upper bound")
    p.add_argument("--seed", type=int, default=0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` builds on its first call and reuses after: it
    depends on nothing but this module."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a wrapper installed over a cmd_* name is used
    commands = {
        "out-table": cmd_out_table,
        "decide": cmd_decide,
        "lambda": cmd_lambda,
        "fekete": cmd_fekete,
    }
    try:
        return commands[args.command](args)
    except (DescriptionError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():  # console script
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away (`feketeca ... | head`): end as a process
        # killed by SIGPIPE would, without a traceback; stdout goes to
        # /dev/null so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
