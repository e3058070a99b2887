"""Every public name in listcolor has a caller outside the tests.

An AST scan, with no listcolor import: each public module-level function and
class under src/listcolor/, and each public method or property of such a
class, must be named somewhere in src/ (outside __init__.py, whose
re-exports call nothing), demos/ or bench/, or be the console entry point in
pyproject.toml.  A name counts when it appears as an identifier, an
attribute, an imported name, or a part of a string constant that is a
dotted name (bench/spans.py names what it wraps in strings).
"""

from __future__ import annotations

import ast
import re
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "listcolor"

# The judges' brute-force oracle: its callers are the tests that hold the
# exact solver to it.
EXEMPT = {"brute_force_colorable"}


def _references(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)*", node.value):
                names.update(node.value.split("."))
    return names


def _definitions(path: Path):
    """(name, bare name) of each public module-level function and class, and
    of each public method of such a class, named `Class.method`."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def _callers() -> set[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    names = set()
    for path in sources:
        names |= _references(path)
    # console entry points, `name = "module:function"`
    names.update(re.findall(r'= "[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    start = time.perf_counter()
    callers = _callers() | EXEMPT
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, bare in _definitions(path)
        if bare not in callers
    ]
    assert unused == [], f"public names that only tests use: {unused}"
    assert time.perf_counter() - start < 1.0
