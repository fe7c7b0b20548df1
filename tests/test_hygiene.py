"""Static checks of the package source: no module imports a name it never
uses, and ``ufrank.__all__`` lists each public name once, each one real.
The demos and scripts are read, not run: every package name they import
resolves, and every keyword they pass to a package callable is one of its
parameters."""

import ast
import importlib
import inspect
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


ROOT = SOURCE.parent.parent
SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py"))


def package_bindings(tree):
    """Local name -> package object for every ``import ufrank...`` and
    ``from ufrank... import name`` in a file, plus the names that do not
    resolve."""
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ufrank":
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or "ufrank"] = (
                        module if alias.asname else ufrank)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "ufrank"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    bound[alias.asname or alias.name] = getattr(module,
                                                                alias.name)
                else:
                    missing.append(f"{node.module}.{alias.name}")
    return bound, missing


def resolve(expr, bound):
    """The package object a call's callee names (``f``, ``mod.f``,
    ``Cls.method``), or None when it is not one."""
    if isinstance(expr, ast.Name):
        return bound.get(expr.id)
    if isinstance(expr, ast.Attribute):
        owner = resolve(expr.value, bound)
        return None if owner is None else getattr(owner, expr.attr, None)
    return None


def test_demos_and_scripts_use_only_real_names_and_keywords():
    assert SCRIPTS, f"no demos or scripts under {ROOT}"
    problems = []
    for path in SCRIPTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, missing = package_bindings(tree)
        problems += [f"{path.name}: no {name}" for name in missing]
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            target = resolve(call.func, bound)
            if target is None or not callable(target):
                continue
            params = inspect.signature(target).parameters.values()
            if any(p.kind is p.VAR_KEYWORD for p in params):
                continue
            names = {p.name for p in params}
            problems += [f"{path.name}:{call.lineno} {kw.arg}="
                         for kw in call.keywords
                         if kw.arg is not None and kw.arg not in names]
    assert problems == []
