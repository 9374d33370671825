import csv
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import feketeca
from feketeca import (
    analysis,
    cli,
    counting,
    lambda_estimate,
    make_builtin,
    out_size_transfer_1d,
    subadditive,
)
from feketeca.cli import (
    EXIT_NONSURJECTIVE,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    parse_schedule,
    parse_sides,
)


@pytest.fixture
def describe(tmp_path):
    def write(name, payload):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    return write


AND1D_TABLE_CSV = """\
x1,out_size,full_size,ratio,lambda_qits,status
1,2,2,1,0,ok
2,4,4,1,0,ok
3,7,8,0.935784974019,0.192645077942,ok
4,12,16,0.89624062518,0.415037499279,ok
5,21,32,0.878463484556,0.607682577221,ok
6,37,64,0.868242227605,0.790546634371,ok
"""


class TestParsers:
    def test_parse_sides(self):
        assert parse_sides("3") == (3,)
        assert parse_sides("2x3") == (2, 3)
        assert parse_sides("2 x 3 x 4") == (2, 3, 4)
        with pytest.raises(cli.DescriptionError):
            parse_sides("0x3")
        with pytest.raises(cli.DescriptionError):
            parse_sides("2x3", dim=1)

    def test_parse_schedule(self):
        assert parse_schedule("diag:1..3", 2) == [(1, 1), (2, 2), (3, 3)]
        assert parse_schedule("1x1,2x2", 2) == [(1, 1), (2, 2)]
        with pytest.raises(cli.DescriptionError):
            parse_schedule("diag:5..3", 1)
        with pytest.raises(cli.DescriptionError):
            parse_schedule("diag:x..3", 1)


class TestDescriptionFiles:
    def test_builtin_round_trip(self, describe):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        ca, labels = cli.load_description(path)
        assert ca.name == "and1d" and labels is None

    def test_explicit_table(self, describe):
        path = describe(
            "custom",
            {
                "dimension": 1,
                "states": 2,
                "neighborhood": [0, 1],
                "rule": {"table": [0, 0, 0, 1]},
            },
        )
        ca, _ = cli.load_description(path)
        assert ca.rule_table == (0, 0, 0, 1)

    def test_labelled_states(self, describe):
        path = describe(
            "labels",
            {
                "dimension": 1,
                "states": ["a", "b"],
                "neighborhood": [0, 1],
                "rule": {"table": ["a", "a", "a", "b"]},
            },
        )
        ca, labels = cli.load_description(path)
        assert ca.rule_table == (0, 0, 0, 1)
        assert labels == {"a": 0, "b": 1}

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({}, "rule"),
            ({"rule": {"builtin": "nope"}}, "rule"),
            ({"rule": {"table": [0, 0]}}, "dimension"),
            (
                {"dimension": 1, "states": 1, "neighborhood": [0], "rule": {"table": [0]}},
                "states",
            ),
            (
                {
                    "dimension": 1,
                    "states": 2,
                    "neighborhood": [0, 0],
                    "rule": {"table": [0, 0, 0, 1]},
                },
                "neighborhood",
            ),
            (
                {
                    "dimension": 1,
                    "states": 2,
                    "neighborhood": [0, 1],
                    "rule": {"table": [0, 0, 1]},
                },
                "rule",
            ),
            ({"rule": {"builtin": "and1d"}, "bogus": 1}, "bogus"),
        ],
    )
    def test_errors_name_the_offending_key(self, describe, payload, fragment):
        path = describe("bad", payload)
        with pytest.raises(cli.DescriptionError) as info:
            cli.load_description(path)
        assert fragment in str(info.value)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"rule": {"table": [0, 0.0, 0, 1.5]}}, "table entry 0.0 is not an integer"),
            ({"rule": {"table": [0, 0, 0, True]}}, "table entry true is not an integer"),
            ({"dimension": True}, "must be a positive integer"),
            (
                dict(dimension=True, states=None, neighborhood=None, rule={"builtin": "and1d"}),
                "must be a positive integer",
            ),
            ({"states": True}, "must be an integer or a label list"),
            (
                dict(states=2.0, dimension=None, neighborhood=None, rule={"builtin": "and1d"}),
                "builtin 'and1d' has 2 states",
            ),
            ({"neighborhood": [False, True]}, "offset False is not a 1-vector of integers"),
            ({"neighborhood": [0, 0.7]}, "offset 0.7 is not a 1-vector of integers"),
            ({"name": 5}, "must be a string"),
        ],
        ids=[
            "float-table", "bool-table", "bool-dimension", "bool-dimension-builtin",
            "bool-states", "float-states-builtin", "bool-offsets", "float-offset", "int-name",
        ],
    )
    def test_non_integers_and_booleans_are_usage_errors(self, describe, capsys, payload, message):
        doc = {"dimension": 1, "states": 2, "neighborhood": [0, 1], "rule": {"table": [0, 0, 0, 1]}}
        doc.update(payload)
        key = next(iter(payload))
        path = describe("bad", {k: v for k, v in doc.items() if v is not None})
        assert cli.main(["decide", path]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: key {key!r}: {message}\n")

    def test_parse_error_exit_code(self, describe, capsys):
        path = describe("bad", {"rule": {"builtin": "nope"}})
        assert cli.main(["decide", path]) == EXIT_USAGE
        assert "rule" in capsys.readouterr().err


class TestOutTable:
    def test_golden_and1d(self, describe, capsys):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        assert cli.main(["out-table", path, "--max-sides", "6"]) == EXIT_OK
        assert capsys.readouterr().out == AND1D_TABLE_CSV

    def test_methods_agree(self, describe, capsys):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        cli.main(["out-table", path, "--max-sides", "6", "--method", "brute"])
        brute = capsys.readouterr().out
        cli.main(["out-table", path, "--max-sides", "6", "--method", "transfer"])
        transfer = capsys.readouterr().out
        assert brute == transfer == AND1D_TABLE_CSV

    def test_byte_identical_across_runs(self, describe, capsys):
        path = describe("and2d", {"rule": {"builtin": "and2d"}})
        argv = ["out-table", path, "--sides-list", "1x1,2x2,3x3"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        assert capsys.readouterr().out == first
        assert "340" in first

    def test_sides_list_2d(self, describe, capsys):
        path = describe("and2d", {"rule": {"builtin": "and2d"}})
        cli.main(["out-table", path, "--sides-list", "2x3"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x1,x2,out_size,full_size,ratio,lambda_qits,status"
        assert out[1].startswith("2,3,58,64,")

    def test_refusal_row(self, describe, capsys):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        cli.main(
            ["out-table", path, "--sides-list", "3,40", "--budget", "1024", "--method", "brute"]
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("3,7,8,")
        assert "refused: cost 2199023255552 exceeds budget 1024" in lines[2]

    def test_out_file(self, describe, tmp_path, capsys):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        target = tmp_path / "table.csv"
        cli.main(["out-table", path, "--max-sides", "6", "--out", str(target)])
        assert capsys.readouterr().out == ""
        assert target.read_text() == AND1D_TABLE_CSV

    def test_label_mapping_reported(self, describe, capsys):
        path = describe(
            "labels",
            {
                "dimension": 1,
                "states": ["a", "b"],
                "neighborhood": [0, 1],
                "rule": {"table": ["a", "a", "a", "b"]},
            },
        )
        cli.main(["out-table", path, "--max-sides", "3"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "# states: a=0 b=1"

    def test_transfer_refusal(self, describe, capsys, monkeypatch, refused_transfer):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        # auto falls back to brute force
        assert cli.main(["out-table", path, "--max-sides", "6"]) == EXIT_OK
        assert capsys.readouterr() == (AND1D_TABLE_CSV, "")
        # the transfer method reports the refusal
        monkeypatch.setattr(cli, "out_size_transfer_1d", counting.out_size_transfer_1d)
        argv = ["out-table", path, "--max-sides", "6", "--method", "transfer"]
        assert cli.main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: subset construction refused\n")

    def test_a_bitmap_past_the_byte_cap_is_a_refusal_row(self, describe, capsys):
        # the budget admits 2^48 inputs, the host no 2^36-byte bitmap
        path = describe("and2d", {"rule": {"builtin": "and2d"}})
        argv = ["out-table", path, "--sides-list", "6x6,2x2", "--budget", str(1 << 50)]
        assert cli.main(argv) == EXIT_OK
        assert capsys.readouterr() == (
            "x1,x2,out_size,full_size,ratio,lambda_qits,status\n"
            f"6,6,,,,,refused: output bitmap of 2^36 bytes exceeds the {1 << 30}-byte cap\n"
            "2,2,16,16,1,0,ok\n",
            "",
        )

    def test_unpriceable_subset_table(self, describe, capsys):
        # span 20: 2^39 bits of target masks, over the subset DFA's cap
        path = describe(
            "span20",
            {
                "dimension": 1,
                "states": 2,
                "neighborhood": [0, 1, 19],
                "rule": {"table": [0, 1, 1, 0, 1, 0, 0, 1]},
            },
        )
        assert cli.main(["out-table", path, "--max-sides", "1"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "1,2,2,1,0,ok"
        assert cli.main(["decide", path]) == EXIT_UNKNOWN
        assert "note: decision refused: subset DFA vertex table needs" in capsys.readouterr().out
        argv = ["out-table", path, "--max-sides", "1", "--method", "transfer"]
        assert cli.main(argv) == EXIT_USAGE
        assert capsys.readouterr() == (
            "",
            "error: subset DFA vertex table needs 549755813888 bits of target masks, "
            "cap is 8589934592\n",
        )
        # offsets [0, 19] lie in one coset of 19Z: transfer counts them
        # through the span-2 reduced rule, byte for byte as brute force does
        path = describe(
            "gapped20",
            {"dimension": 1, "states": 2, "neighborhood": [0, 19], "rule": {"table": [0, 1, 1, 0]}},
        )
        tables = []
        for method in ("transfer", "brute"):
            argv = ["out-table", path, "--max-sides", "10", "--method", method]
            assert cli.main(argv) == EXIT_OK
            tables.append(capsys.readouterr())
        assert tables[0] == tables[1] and tables[0].err == ""
        assert tables[0].out.splitlines()[-1] == "10,1024,1024,1,0,ok"

    @pytest.mark.parametrize(
        "name, extra, top, rows",
        [
            ("and2d", ["--max-sides", "3"], (3, 3), 9),
            ("and1d", ["--method", "brute", "--max-sides", "8"], (8,), 8),
        ],
    )
    def test_one_enumeration_per_table(
        self, describe, capsys, enumerations, name, extra, top, rows
    ):
        path = describe(name, {"rule": {"builtin": name}})
        assert cli.main(["out-table", path, *extra]) == EXIT_OK
        assert enumerations == [top]
        assert len(capsys.readouterr().out.splitlines()) == 1 + rows


class TestEmptyBoxLists:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["out-table", "{and1d}", "--max-sides", "0"], "--max-sides must be >= 1, got 0"),
            (["out-table", "{and1d}", "--sides-list", ","], "bad sides list ',': no sides given"),
            (
                ["out-table", "{and1d}", "--max-sides", "-2", "--method", "brute"],
                "--max-sides must be >= 1, got -2",
            ),
            (["lambda", "{and1d}", "--schedule", ","], "bad schedule ',': no sides given"),
            (["fekete", "--function", "3n", "--schedule", ","], "bad schedule ',': no sides given"),
        ],
        ids=["max-sides-0", "sides-list-comma", "max-sides-negative-brute", "lambda", "fekete"],
    )
    def test_usage_error(self, describe, capsys, argv, message):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        assert cli.main([a.replace("{and1d}", path) for a in argv]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestDecide:
    def test_shift_exit_zero(self, describe, capsys):
        path = describe("shift", {"rule": {"builtin": "shift"}})
        assert cli.main(["decide", path]) == EXIT_OK
        assert "PROVED_SURJECTIVE" in capsys.readouterr().out

    def test_and1d_exit_ten_with_certificate(self, describe, capsys):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        assert cli.main(["decide", path]) == EXIT_NONSURJECTIVE
        out = capsys.readouterr().out
        assert "verdict: NONSURJECTIVE" in out
        block = "```\nsides: 3\n1 0 1\ncode: 5\n```"
        assert block in out

    def test_and2d_certificate_grid(self, describe, capsys):
        path = describe("and2d", {"rule": {"builtin": "and2d"}})
        assert cli.main(["decide", path]) == EXIT_NONSURJECTIVE
        out = capsys.readouterr().out
        assert "sides: 2 x 3" in out
        assert "code: " in out

    def test_and2d_small_budget_unknown(self, describe, capsys):
        path = describe("and2d", {"rule": {"builtin": "and2d"}})
        assert cli.main(["decide", path, "--budget", "100"]) == EXIT_UNKNOWN
        out = capsys.readouterr().out
        assert "verdict: UNKNOWN" in out
        assert "cleared sizes: 1x1" in out

    def test_xor_exit_zero(self, describe):
        path = describe("xor", {"rule": {"builtin": "xor1d"}})
        assert cli.main(["decide", path]) == EXIT_OK

    def test_a_gapped_rule_is_decided_through_its_reduced_rule(self, describe, capsys):
        # offsets [0, 19]: the span-2 reduced rule is decided, and AND's
        # orphan 101 is spread 19 cells apart, 39 cells and code 2^38 + 1
        doc = {"dimension": 1, "states": 2, "neighborhood": [0, 19]}
        path = describe("and20", {**doc, "rule": {"table": [0, 0, 0, 1]}})
        assert cli.main(["decide", path]) == EXIT_NONSURJECTIVE
        out = capsys.readouterr().out
        assert "orphan pattern on sides 39:" in out and "code: 274877906945" in out.splitlines()
        path = describe("xor20", {**doc, "rule": {"table": [0, 1, 1, 0]}})
        assert cli.main(["decide", path]) == EXIT_OK
        assert "verdict: PROVED_SURJECTIVE" in capsys.readouterr().out.splitlines()


class TestLambda:
    def test_each_box_is_coerced_at_most_once(self, describe, capsys, monkeypatch):
        calls = []
        real = subadditive.as_index

        def counted(value, dim=None):
            calls.append(tuple(value))
            return real(value, dim)

        for module in (subadditive, feketeca.ca, counting, analysis):
            monkeypatch.setattr(module, "as_index", counted)
        path = describe("and", {"rule": {"builtin": "and1d"}})
        assert cli.main(["lambda", path, "--schedule", "diag:1..2000"]) == EXIT_OK
        assert "boxes evaluated: 2000" in capsys.readouterr().out
        assert len(calls) == len(set(calls)) <= 2000

    def test_shift_bracket_line(self, describe, capsys):
        path = describe("shift", {"rule": {"builtin": "shift"}})
        assert cli.main(["lambda", path, "--schedule", "diag:1..50"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lambda bracket: [1.000000, 1.000000]" in out

    def test_xor_bracket_line(self, describe, capsys):
        path = describe("xor", {"rule": {"builtin": "xor1d"}})
        cli.main(["lambda", path, "--schedule", "diag:1..50"])
        assert "lambda bracket: [1.000000, 1.000000]" in capsys.readouterr().out

    def test_and1d_bracket_around_growth_rate(self, describe, capsys):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        assert cli.main(["lambda", path, "--schedule", "diag:1..2000"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lambda bracket: [0.811370, 0.811541]" in out
        assert "x1,out_size,ratio" in out

    def test_schedule_order_first_occurrence(self, describe, capsys):
        path = describe("and2d", {"rule": {"builtin": "and2d"}})
        assert cli.main(["lambda", path, "--schedule", "3x3,2x2,3x3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "boxes evaluated: 2" in out
        assert out.endswith("x1,x2,out_size,ratio\n3,3,340,0.934376770682\n2,2,16,1\n")

    def test_no_partial_line_when_bruteforce_recovers(self, describe, capsys, refused_transfer):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        assert cli.main(["lambda", path, "--schedule", "diag:1..8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "partial" not in out
        assert "boxes evaluated: 8" in out

    @pytest.mark.parametrize(
        "total, part, schedule, count", [(5, 1, "diag:1..8", 2), (2048, 1024, "3,1024,2048", 1)]
    )
    def test_warns_on_a_planted_overcount(
        self, describe, capsys, and1d, overcount, total, part, schedule, count
    ):
        out = out_size_transfer_1d(and1d, total - part)
        overcount[(total,)] = out[part - 1].out_size * out[-1].out_size + 1
        path = describe("and", {"rule": {"builtin": "and1d"}})
        assert cli.main(["lambda", path, "--schedule", schedule]) == EXIT_OK
        assert f"\nWARNING: {count} log-subadditivity violations\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, schedule", [("and1d", "diag:1..300"), ("and2d", "3x3,1x2,2x1,2x2,1x1,3x1,1x3")]
    )
    def test_ratio_column_is_the_loss_ratio(self, describe, capsys, name, schedule):
        path = describe(name, {"rule": {"builtin": name}})
        assert cli.main(["lambda", path, "--schedule", schedule]) == EXIT_OK
        rows = list(csv.reader(capsys.readouterr().out.split("out_size,ratio\n")[1].splitlines()))
        ca = make_builtin(name)
        records = lambda_estimate(ca, parse_schedule(schedule, ca.dimension)).records
        assert len(rows) == len(records) > 1
        for row, rec in zip(rows, records):
            assert row == [*map(str, rec.sides), str(rec.out_size), cli._fmt12(rec.ratio)]

    def test_deterministic(self, describe, capsys):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        cli.main(["lambda", path, "--schedule", "diag:1..100"])
        first = capsys.readouterr().out
        cli.main(["lambda", path, "--schedule", "diag:1..100"])
        assert capsys.readouterr().out == first


class TestFekete:
    def test_builtin_additive(self, capsys):
        assert cli.main(["fekete", "--function", "3n", "--schedule", "diag:1..100"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "violations: 0" in out
        assert "running infimum: 3" in out

    def test_builtin_product_plus(self, capsys):
        rc = cli.main(["fekete", "--function", "xy+x+y", "--schedule", "diag:1..1000"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "running infimum: 1.002" in out

    def test_violation_gate_suppresses_estimate(self, capsys):
        rc = cli.main(["fekete", "--function", "n^2", "--schedule", "diag:1..10"])
        assert rc == EXIT_VIOLATIONS
        out = capsys.readouterr().out
        assert "estimate suppressed" in out
        assert "running infimum" not in out

    def test_table_gate(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"values": {"1": 2, "2": 5, "3": 12}}))
        rc = cli.main(["fekete", "--table", str(path), "--schedule", "1,2,3"])
        assert rc == EXIT_VIOLATIONS
        assert "estimate suppressed" in capsys.readouterr().out

    def test_table_estimate(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"values": {"1": 3, "2": 6, "3": 9}}))
        rc = cli.main(["fekete", "--table", str(path), "--schedule", "1,2,3"])
        assert rc == EXIT_OK
        assert "running infimum: 3" in capsys.readouterr().out

    def test_incomplete_table_names_missing_index(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"values": {"1": 3, "2": 6}}))
        rc = cli.main(["fekete", "--table", str(path), "--schedule", "1,2,3"])
        assert rc == EXIT_USAGE
        assert "missing index 3" in capsys.readouterr().err

    def test_base_missing_from_table(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"values": {"1": 3, "2": 6, "3": 9}}))
        rc = cli.main(["fekete", "--table", str(path), "--schedule", "1,2", "--base", "5"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: base 5 is not a key of the table\n")

    def test_table_key_past_int64_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"values": {"1": 3, str(1 << 63): 6}}))
        rc = cli.main(["fekete", "--table", str(path), "--schedule", "1"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"error: the table check needs coordinates below 2^63, got ({1 << 63},)\n"
        )

    @pytest.mark.parametrize(
        "value, problem",
        [
            ("NaN", "is not finite"),
            ("Infinity", "is not finite"),
            ("-Infinity", "is not finite"),
            ("1" + "0" * 400, "is not finite"),
            ("true", "is not a number"),
            ("false", "is not a number"),
        ],
        ids=["nan", "inf", "-inf", "int-past-float", "true", "false"],
    )
    def test_table_value_must_be_a_finite_number(self, tmp_path, capsys, value, problem):
        path = tmp_path / "table.json"
        path.write_text('{"values": {"1": 3, "2": %s, "3": 9}}' % value)
        rc = cli.main(["fekete", "--table", str(path), "--schedule", "1,2,3"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: key 'values': entry '2' {problem}\n")

    @pytest.mark.parametrize(
        "document, message",
        [
            ('{"values": {"1": 1.0, "2x2": 3.0}}', "key 'values': keys mix dimensions (1 and 2)"),
            ('{"values": {"2x2": 3.0, "1": 1.0}}', "key 'values': keys mix dimensions (2 and 1)"),
            ('{"values": {"0": 1.0}}', "bad sides '0': coordinates must be >= 1, got (0,)"),
            ('{"values": {"1": 3, "-2": 6}}', "bad sides '-2': coordinates must be >= 1, got (-2,)"),
            ('{"values": {"1": 3, "2.0": 6}}',
             "bad sides '2.0': invalid literal for int() with base 10: '2.0'"),
            # the first bad entry in file order is named, a bad key or a bad value
            ('{"values": {"1": 3, "2x": NaN, "2": true}}',
             "bad sides '2x': invalid literal for int() with base 10: ''"),
            ('{"values": {"1": 3, "2": true, "0x1": 1}}', "key 'values': entry '2' is not a number"),
            ('{"values": {}}', "key 'values' must be a nonempty object"),
            ('[1, 2]', "key 'values' must be a nonempty object"),
        ],
        ids=["mixed-dimensions", "mixed-dimensions-2d-first", "zero-side", "negative-side",
             "float-side", "bad-key-first", "bad-value-first", "empty", "not-an-object"],
    )
    def test_bad_table_is_a_usage_error(self, tmp_path, capsys, document, message):
        path = tmp_path / "table.json"
        path.write_text(document)
        rc = cli.main(["fekete", "--table", str(path), "--schedule", "1"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "values, schedule, rc, out",
        [
            # two spellings of 2x1: one entry, where the first stands, with the last's value
            ('"2 x 1": 1, "1x1": 1, "3x1": 5, "2x1": 1.5', "1x1,3x1", 1,
             "table (3 entries)\n"
             "violation: axis 0, x=(2, 1), y=1: lhs 5 > rhs 2.5\n"
             "violation: axis 0, x=(1, 1), y=2: lhs 5 > rhs 2.5\n"
             "violations: 2\nestimate suppressed: the subadditivity hypothesis fails\n"),
            ('"1": 3, "+3": 9, "2": 6', "1,2,3", 0,
             "table (3 entries)\nviolations: 0\nboxes evaluated: 3\nrunning infimum: 3\n"
             "last ratio: 3\nlimit bracket: [3.000000, 3.000000]\n"
             "certified upper bound at base 3: 3\n"),
            ('"1": 3, "2": 6, "1_0": 30', "1,2,10", 0,
             "table (3 entries)\nviolations: 0\nboxes evaluated: 3\nrunning infimum: 3\n"
             "last ratio: 3\nlimit bracket: [3.000000, 3.000000]\n"
             "certified upper bound at base 10: 3\n"),
            ('" 1 ": 3, "\\t2": 6', "1,2", 0,
             "table (2 entries)\nviolations: 0\nboxes evaluated: 2\nrunning infimum: 3\n"
             "last ratio: 3\nlimit bracket: [3.000000, 3.000000]\n"
             "certified upper bound at base 2: 3\n"),
        ],
        ids=["two-spellings", "plus-sign", "underscore", "blanks"],
    )
    def test_table_keys_read_as_sides(self, tmp_path, capsys, values, schedule, rc, out):
        """Keys parse as `parse_sides` reads sides, as when the table was
        read one key at a time."""
        path = tmp_path / "table.json"
        path.write_text('{"values": {%s}}' % values)
        assert cli.main(["fekete", "--table", str(path), "--schedule", schedule]) == rc
        dim = 2 if "x1" in values else 1
        head = f"function: {path} (dimension {dim})\nsubadditivity check: "
        assert capsys.readouterr() == (head + out, "")

    def test_int_past_the_digit_limit_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text('{"values": {"1": 1%s}}' % ("0" * 5000))
        rc = cli.main(["fekete", "--table", str(path), "--schedule", "1"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_function_xor_table_exclusive(self, capsys):
        rc = cli.main(["fekete", "--schedule", "diag:1..5"])
        assert rc == EXIT_USAGE

    def test_sampling_label_follows_the_limit_in_use(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_EXHAUSTIVE_LIMIT", 44)
        rc = cli.main(["fekete", "--function", "n^2", "--schedule", "diag:1..10", "--seed", "3"])
        assert rc == EXIT_VIOLATIONS
        out = capsys.readouterr().out
        assert "subadditivity check: box 10, 45 triples, sampled (seed 3)\n" in out

    def test_box_past_int64_is_a_usage_error(self, capsys):
        rc = cli.main(["fekete", "--function", "3n", "--schedule", str(1 << 63)])
        assert rc == EXIT_USAGE
        assert "sampling needs box sides below 2^63" in capsys.readouterr().err


class TestLongCounts:
    """Counts past the interpreter's int-to-str digit limit (4300 digits
    by default, where the interpreter has one)."""

    @staticmethod
    def _digit_limit():
        get = getattr(sys, "get_int_max_str_digits", None)
        return get() if get else None

    def test_out_table_prints_every_digit(self, describe, capsys):
        path = describe("xor", {"rule": {"builtin": "xor1d"}})
        limit = self._digit_limit()
        argv = ["out-table", path, "--method", "transfer", "--sides-list", "15000"]
        assert cli.main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        row = out.splitlines()[1].split(",")
        assert row[0] == "15000" and row[-1] == "ok"
        assert Decimal(row[1]) == Decimal(row[2]) == 2**15000
        assert self._digit_limit() == limit

    def test_lambda_prints_every_digit(self, describe, capsys):
        path = describe("xor", {"rule": {"builtin": "xor1d"}})
        limit = self._digit_limit()
        assert cli.main(["lambda", path, "--schedule", "diag:14990..15000"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        rows = [row.split(",") for row in out.split("x1,out_size,ratio\n")[1].splitlines()]
        assert [(int(n), Decimal(count), ratio) for n, count, ratio in rows] == [
            (n, 2**n, "1") for n in range(14990, 15001)
        ]
        assert self._digit_limit() == limit

    def test_refused_cost_prints_every_digit(self, describe, capsys):
        # and2d on 150x150 reads 150*152 input cells: 2^22800 inputs
        path = describe("and2d", {"rule": {"builtin": "and2d"}})
        assert cli.main(["out-table", path, "--sides-list", "150x150"]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1]
        assert row == f"150,150,,,,,refused: cost {Decimal(2**22800)} exceeds budget {1 << 30}"


class TestParserReuse:
    """`main` builds its parser once per process and reuses it."""

    def test_built_once_and_build_parser_is_fresh(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()  # as in a fresh process
        for _ in range(3):
            assert cli.main(["fekete", "--function", "3n", "--schedule", "3"]) == EXIT_OK
        assert len(built) == 1
        assert real() is not real()

    def test_argparse_error_then_a_good_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["out-table"])
        assert exc.value.code == EXIT_USAGE
        assert "required" in capsys.readouterr().err
        assert cli.main(["fekete", "--function", "3n", "--schedule", "diag:1..5"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "running infimum: 3\n" in out and err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["out-table", "{and2d}", "--sides-list", "1x1,2x2,3x3,4x4", "--budget", "100000"],
            ["out-table", "{and1d}", "--max-sides", "8", "--method", "brute"],
            ["out-table", "{and1d}", "--sides-list", ","],
            ["decide", "{and1d}"],
            ["decide", "{and2d}", "--budget", "1000"],
            ["lambda", "{and2d}", "--schedule", "2x2,1x3,3x1"],
            ["lambda", "{and1d}", "--schedule", "diag:0..3"],
            ["fekete", "--function", "n^2", "--schedule", "diag:1..10"],
            ["fekete", "--function", "xy+x+y", "--schedule", "diag:1..20", "--base", "4x5"],
        ],
    )
    def test_every_subcommand_twice(self, describe, capsys, argv):
        paths = {f"{{{n}}}": describe(n, {"rule": {"builtin": n}}) for n in ("and1d", "and2d")}
        argv = [paths.get(a, a) for a in argv]
        runs = []
        for _ in range(2):
            rc = cli.main(argv)
            runs.append((rc, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][1] or runs[0][2]

    def test_command_is_looked_up_per_call(self, describe, capsys, monkeypatch):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        argv = ["lambda", path, "--schedule", "diag:1..5"]
        assert cli.main(argv) == EXIT_OK
        seen = []
        monkeypatch.setattr(cli, "cmd_lambda", lambda args: seen.append(args.schedule) or 7)
        assert cli.main(argv) == 7
        assert seen == ["diag:1..5"]


def _console_script(*argv, stdout):
    """Run `feketeca.cli.entrypoint`, as the installed console script does."""
    src = str(Path(feketeca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "from feketeca.cli import entrypoint; entrypoint()"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
    )


class TestConsoleScript:
    def test_exit_code_passes_through(self):
        proc = _console_script("fekete", "--function", "n^2", "--schedule", "diag:1..10",
                               stdout=subprocess.PIPE)
        assert proc.returncode == EXIT_VIOLATIONS
        assert proc.stdout.endswith(b"estimate suppressed: the subadditivity hypothesis fails\n")
        assert proc.stderr == b""

    def test_closed_pipe_exits_141_without_traceback(self, describe):
        path = describe("and", {"rule": {"builtin": "and1d"}})
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first line is written
        try:
            proc = _console_script("lambda", path, "--schedule", "diag:1..50", stdout=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")
