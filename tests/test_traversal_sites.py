"""Every heap loop in the package is either a kernel or documented.

``docs/algorithms.md`` ("Traversal loops") has one row per
``heapq.heappop`` call in ``src/repro``: its module, its enclosing
function and why it is a shape of its own.  This test finds the calls
with :mod:`ast` and asserts the two sets are equal, so a new hand-rolled
loop fails until it is routed through :mod:`repro.network.dijkstra` or
given a row.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "algorithms.md"

_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*`([^`]+)`\s*\|")


def _is_heappop(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr == "heappop"
    return isinstance(func, ast.Name) and func.id == "heappop"


def heappop_sites() -> list[tuple[str, str]]:
    """``(module, qualified enclosing function)`` of each heappop call."""
    sites = []

    def visit(node: ast.AST, module: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and _is_heappop(child):
                sites.append((module, ".".join(scope) or "<module>"))
            visit(child, module, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), module, ())
    return sites


def documented_sites() -> list[tuple[str, str]]:
    """The rows of the "Traversal loops" table."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split("## Traversal loops", 1)[1].split("\n## ", 1)[0]
    return [
        match.groups()
        for match in map(_ROW.match, section.splitlines())
        if match is not None
    ]


def test_table_rows_are_unique():
    rows = documented_sites()
    assert rows
    assert len(rows) == len(set(rows))


def test_every_heappop_site_is_documented():
    found = heappop_sites()
    assert len(found) == len(set(found)), "one function holds two heap loops"
    assert set(found) == set(documented_sites())
