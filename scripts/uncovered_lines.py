"""Print every statement of ``src/ufrank`` that the tests never execute.

Runs the test suite in this process under ``sys.settrace``, without
acceptance criterion 5 (its 200 fold builds take most of the suite's time
and reach no line the rest does not), and records each line executed in a
package file. A statement counts as executed when any line of its head ran:
from its first decorator or keyword up to its body, or all of a simple
statement. Docstrings and ``try:`` lines are not statements here.

Code that runs only in a pool worker process is not seen. Little does: at
one worker the package runs the same functions inline, which is how most
tests call it, and at two or more this process still computes chunk 0.

    python3 scripts/uncovered_lines.py            # whole suite
    python3 scripts/uncovered_lines.py tests/test_data.py

Prints ``path:line: source`` per unexecuted statement, then a count, and
exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ufrank"


def statements(source: str) -> dict[int, range]:
    """First line of each statement -> the lines of its head."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    out = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in docstrings
                or isinstance(node, (ast.Try, ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        inner = [getattr(s, "lineno", None) or s.pattern.lineno
                 for field in ("body", "orelse", "handlers", "finalbody",
                               "cases")
                 for s in getattr(node, field, [])]
        last = min(inner) - 1 if inner else node.end_lineno
        out[first] = range(first, max(first, last) + 1)
    return out


def main(argv: list[str]) -> int:
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # for the tests that run the CLI in a subprocess
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    prefix = str(PACKAGE)
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hit.setdefault(name, set()).add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "-k", "not criterion_05",
                            *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = hit.get(str(path), set())
        for first, head in sorted(statements(source).items()):
            if ran.isdisjoint(head):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: "
                      f"{lines[first - 1].strip()}")
    print(f"{missed} statements never executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
