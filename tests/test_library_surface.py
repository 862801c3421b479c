"""The library holds only code that something besides the tests reaches.

A function or method defined in ``src/medlog`` must be named somewhere else:
in library code outside its own definition, in the benchmark harness
(``perfbench/*.py``), in README.md, or in ``medlog.__all__``.  Oracles that
only tests call belong in ``tests/oracles.py``.  Dunder methods are called
by Python itself and are exempt.
"""

import ast
import re
from pathlib import Path

import medlog

ROOT = Path(__file__).resolve().parent.parent


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """Every name a module reads or looks up as an attribute, with its line."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.end_lineno))
    return out


def unreached_definitions(src: Path, others: list[Path], exported) -> list[str]:
    """``module.name`` of each function or method under ``src`` that none of
    the places above names."""
    modules = {p: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    refs = {p: _references(tree) for p, tree in modules.items()}
    text = "\n".join(p.read_text() for p in others)
    unreached = []
    for path, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = any(n == name and not (p == path and node.lineno <= line <= node.end_lineno)
                          for p, found in refs.items() for n, line in found)
            if not (outside or name in exported or re.search(rf"\b{name}\b", text)):
                unreached.append(f"{path.stem}.{name}")
    return sorted(unreached)


def test_every_library_function_is_reached_outside_the_tests():
    others = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "README.md"]
    assert unreached_definitions(ROOT / "src" / "medlog", others, medlog.__all__) == []
