"""The library holds only code that something besides the tests reaches.

A function defined in ``src/medlog`` must be named somewhere else: in
library code outside its own definition, in the benchmark harness
(``perfbench/*.py``), in README.md, or in ``medlog.__all__``.  A method is
reached only as an attribute: ``.name`` in library code outside its own
definition, in the harness or in README.md, so a parameter or local variable
of the same name does not count.  Oracles that only tests call belong in
``tests/oracles.py``.  Dunder methods are called by Python itself and are
exempt, and so are the methods in ``CALLED_BY_PYTHON``.

Nor does a module of the library (``__init__.py`` aside, which re-exports)
or of the tests import a name it never reads.
"""

import ast
import re
from pathlib import Path

import medlog

ROOT = Path(__file__).resolve().parent.parent

# argparse calls its parser's ``error`` on a usage error
CALLED_BY_PYTHON = {"cli._Parser.error"}


def _references(tree: ast.AST) -> list[tuple[str, int, bool]]:
    """Every name a module reads or looks up as an attribute, with its line
    and whether it was an attribute."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.end_lineno, True))
    return out


def _definitions(tree: ast.AST):
    """``(qualified name, node, is_method)`` of each function in the module;
    a method is defined directly in a class body."""
    owners = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = owners.get(id(node))
            yield (f"{owner}.{node.name}" if owner else node.name), node, owner is not None


def unreached_definitions(src: Path, others: list[Path], exported) -> list[str]:
    """``module.name`` of each function, and ``module.Class.name`` of each
    method, under ``src`` that none of the places above names."""
    modules = {p: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    refs = {p: _references(tree) for p, tree in modules.items()}
    text = "\n".join(p.read_text() for p in others)
    unreached = []
    for path, tree in modules.items():
        for qualname, node, is_method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = any(n == name and (attr or not is_method)
                          and not (p == path and node.lineno <= line <= node.end_lineno)
                          for p, found in refs.items() for n, line, attr in found)
            pattern = rf"\.{name}\b" if is_method else rf"\b{name}\b"
            named = re.search(pattern, text) or (not is_method and name in exported)
            if not (outside or named):
                unreached.append(f"{path.stem}.{qualname}")
    return sorted(unreached)


def test_every_library_function_is_reached_outside_the_tests():
    others = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "README.md"]
    unreached = unreached_definitions(ROOT / "src" / "medlog", others, medlog.__all__)
    assert [name for name in unreached if name not in CALLED_BY_PYTHON] == []


def unread_imports(paths: list[Path]) -> list[str]:
    """``file:line name`` of each name imported by one of ``paths`` that the
    same file never reads; ``from __future__`` imports are directives."""
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unread


def test_no_module_imports_a_name_it_never_reads():
    src = [p for p in sorted((ROOT / "src" / "medlog").glob("*.py")) if p.name != "__init__.py"]
    assert unread_imports(src + sorted((ROOT / "tests").glob("*.py"))) == []
