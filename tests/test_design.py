"""Design rules of the package that a test can check.

``src/`` holds no function or class that only tests use: each one defined in
``src/physrel`` must be named, besides its definition, somewhere in the
package (the re-exports of ``__init__.py`` do not count), in a demo, in the
benchmark, or as a word of the README.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "physrel"


def definitions(tree: ast.AST) -> set[str]:
    """Names of the functions, methods and classes defined in ``tree``, dunders left out."""
    defined = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = {node.name for node in ast.walk(tree) if isinstance(node, defined)}
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def references(tree: ast.AST) -> set[str]:
    """Every name ``tree`` loads, stores or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    modules = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    callers = [tree for path, tree in modules.items() if path.name != "__init__.py"]
    callers += [parse(path) for folder in ("demos", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))]
    used = set().union(*map(references, callers))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    unused = [
        f"{path.stem}.{name}" for path, tree in modules.items() for name in sorted(definitions(tree) - used)
    ]
    assert unused == []
