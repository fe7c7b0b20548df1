"""Static checks of the package source: no module imports a name it never
uses, no private function, class or method goes unused by package code,
and ``ufrank.__all__`` lists each public name once, each one real. Every
np.add.reduceat sums integers, so float segments have one summation
order. One function, the CLI's writer, writes to stdout. The demos and
scripts are read, not run: every package name they import resolves, and
every keyword they pass to a package callable is one of its parameters.
One check runs the package in a fresh interpreter: importing it loads no
scipy module, and each command loads only the one it uses."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

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


def private_defs(tree):
    """Names of the private (``_name``, not dunder) functions and classes
    at module level, and of those classes' private methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, defs)]
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def referenced_names(tree):
    """Every name a module reads as a bare name or an attribute, or
    imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_private_def_is_used_by_package_code():
    # a private helper that only tests call is code the package does not
    # need; tests are not read here, so their calls do not count
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    used = set().union(*(referenced_names(t) for t in trees.values()))
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name in private_defs(tree) if name not in used]
    assert unused == []


def test_every_add_reduceat_sums_integers():
    # numpy's reduceat adds a float segment in an order of its own (first
    # row, then a pairwise sum); the package sums float segments with
    # segments.group_sums, in index order, and keeps reduceat for counts
    calls, untyped = 0, []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            func = call.func
            if not (isinstance(func, ast.Attribute) and func.attr == "reduceat"
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "add"):
                continue
            calls += 1
            dtype = next((ast.unparse(kw.value) for kw in call.keywords
                          if kw.arg == "dtype"), "")
            if not (dtype.startswith("np.") and np.issubdtype(
                    getattr(np, dtype[3:], float), np.integer)):
                untyped.append(f"{path.name}:{call.lineno}")
    assert calls > 0
    assert untyped == []


def writes_to_stdout(call):
    """Whether a call is ``sys.stdout.write(...)`` or ``print(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "print"
    return (isinstance(func, ast.Attribute) and func.attr == "write"
            and ast.unparse(func.value) == "sys.stdout")


def test_one_writer_writes_to_stdout():
    # a command writes its files under --out first and its JSON to stdout
    # last, in cli._write, so that a run that fails prints nothing
    writes = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            if writes_to_stdout(call):
                inside = [f for f in defs
                          if f.lineno <= call.lineno <= f.end_lineno]
                # the innermost enclosing function starts last
                owner = max(inside, key=lambda f: f.lineno, default=None)
                writes.append(f"{path.name}:"
                              f"{owner.name if owner else '<module>'}")
    assert writes == ["cli.py:_write"]


SCIPY_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in ("scipy.sparse", "scipy.spatial", "scipy.stats")
                  if m in sys.modules)
import ufrank.cli
steps = {"import": sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))}
from ufrank import (EnsembleConfig, SynthSpec, build, compare_methods, genie3,
                    make_planted, urelief)
d = make_planted(SynthSpec(m=40, n_informative=2, n_noise=3, seed=1))
genie3(build(d, EnsembleConfig(n_trees=4)))
steps["et-genie3"] = loaded()
urelief(d)
steps["urelief"] = loaded()
compare_methods([[0.1, 0.2], [0.3, 0.2]])
steps["compare"] = loaded()
print(json.dumps(steps))
"""


def test_import_loads_no_scipy_and_each_command_only_its_own():
    # one fresh interpreter, commands in order, so each step shows what it
    # added to the modules its predecessors loaded
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    steps = json.loads(proc.stdout)
    assert steps == {
        "import": [],
        "et-genie3": ["scipy.sparse"],
        "urelief": ["scipy.sparse", "scipy.spatial"],
        "compare": ["scipy.sparse", "scipy.spatial", "scipy.stats"],
    }
