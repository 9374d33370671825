"""The package's export lists and the README's library tour."""

import ast
import math
import re
from pathlib import Path

import feketeca
from feketeca import analysis, ca, counting, subadditive

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_module_export_is_a_package_export():
    for module in (subadditive, ca, counting, analysis):
        missing = set(module.__all__) - set(feketeca.__all__)
        assert not missing, f"{module.__name__} exports {sorted(missing)}"


def test_every_package_export_resolves():
    for name in feketeca.__all__:
        assert hasattr(feketeca, name), name
    assert len(set(feketeca.__all__)) == len(feketeca.__all__)


def test_star_import():
    namespace = {}
    exec("from feketeca import *", namespace)
    assert set(feketeca.__all__) <= set(namespace)


def _literal(comment: str):
    """The comment's value when it is a Python literal and nothing else."""
    try:
        return True, ast.literal_eval(comment.strip())
    except (ValueError, SyntaxError):
        return False, None


def test_readme_tour_runs_and_its_literal_comments_hold():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        is_literal, want = _literal(comment[1:]) if comment.startswith("#") else (False, None)
        if isinstance(stmt, ast.Expr) and is_literal:
            got = eval(source, namespace)
            if isinstance(want, float):
                assert math.isclose(got, want, rel_tol=1e-9), source
            else:
                assert got == want, source
            checked += 1
        else:
            exec(source, namespace)
    assert checked >= 5
