"""List the lines of ``src/fltzlab`` that the tier-1 tests never run.

Runs tier-1 (pytest over ``tests/``) in this process under a
``sys.settrace`` line tracer, then prints each unreached executable line
of ``src/fltzlab`` as ``module:line: text``.  A line is executable when
the compiled module maps bytecode to it; docstring lines are left out.
Code that runs only in a subprocess (the CLI tests' ``python -m``) is
not traced.

Exits 1 if the tests fail or if a module named in ``COMPLETE`` has an
unreached line, and 0 otherwise.  Stdlib only, apart from pytest, which
runs the tests.  Not part of tier-1; it takes about 70 s on a shared
2-vCPU virtual machine, about three times tier-1's untraced time::

    python3 tools/line_audit.py
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fltzlab"
# modules every executable line of which some tier-1 test runs
COMPLETE = ("cohside", "fans", "zlin")


def executable_lines(source, filename):
    """The line numbers of ``source`` that carry bytecode, less its
    docstring lines."""
    code = compile(source, filename, "exec")
    lines, stack = set(), [code]
    while stack:
        c = stack.pop()
        lines.update(line for _, _, line in c.co_lines() if line is not None)
        stack.extend(k for k in c.co_consts if isinstance(k, type(code)))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def traced_tier1():
    """Run tier-1 under the tracer: ``(exit code, {path: lines run})``."""
    import pytest

    reached = {str(path): set() for path in PACKAGE.glob("*.py")}

    def tracer(hits):
        def local(frame, event, arg):
            hits.add(frame.f_lineno)
            return local
        return local

    tracers = {path: tracer(hits) for path, hits in reached.items()}

    def dispatch(frame, event, arg):
        local = tracers.get(frame.f_code.co_filename)
        return local and local(frame, event, arg)

    threading.settrace(dispatch)
    sys.settrace(dispatch)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, reached


def main():
    code, reached = traced_tier1()
    total = unreached = 0
    incomplete = []
    for path in sorted(reached):
        module = Path(path).stem
        source = Path(path).read_text()
        text = source.splitlines()
        lines = executable_lines(source, path)
        total += len(lines)
        missed = sorted(lines - reached[path])
        unreached += len(missed)
        if missed and module in COMPLETE:
            incomplete.append(module)
        for line in missed:
            print(f"{module}:{line}: {text[line - 1].strip()}")
    print(f"{unreached} of {total} executable lines unreached")
    if code != 0:
        print(f"tier-1 failed (pytest exit {int(code)})")
    if incomplete:
        print("unreached lines in " + ", ".join(incomplete))
    return 1 if code != 0 or incomplete else 0


if __name__ == "__main__":
    sys.exit(main())
