"""Static checks of the package source: no module imports a name it never
uses, and ``ufrank.__all__`` lists each public name once, each one real."""

import ast
from collections import Counter
from pathlib import Path

import ufrank

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ufrank"


def imported_names(tree):
    """(bound name, line) for every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name the module reads, plus the names it exports by string in
    ``__all__`` (which is how a package __init__ uses its imports)."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules, f"no package modules under {SOURCE}"
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported_names(tree) if name not in used]
    assert unused == []


def test_every_public_name_is_listed_once_and_resolves():
    twice = [name for name, n in Counter(ufrank.__all__).items() if n > 1]
    assert twice == []
    missing = [name for name in ufrank.__all__ if not hasattr(ufrank, name)]
    assert missing == []
