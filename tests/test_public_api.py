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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports at top level and never reads or exports."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for stmt in tree.body
        if isinstance(stmt, (ast.Import, ast.ImportFrom))
        and not (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__")
        for alias in stmt.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
        ):
            read |= set(ast.literal_eval(stmt.value))
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    package = Path(feketeca.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not unused


def test_the_unused_import_check_sees_an_orphaned_import():
    assert _unused_imports("import itertools\nimport math\nmath.pi\n") == ["itertools"]
    assert _unused_imports("from .x import a, b\n__all__ = ['a']\n") == ["b"]
