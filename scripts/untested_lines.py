"""List the package's statements that no test executes.

    PYTHONPATH=src:scripts python -m pytest -q -p untested_lines

A pytest plugin that uses only the standard library. Importing it starts
a line tracer (`sys.settrace`, and `threading.settrace` for threads
started later) that records the lines run in files under src/sparsam;
other frames are not traced. `-p` imports it before pytest collects the
tests, so before any test imports the package, and the package's
import-time statements are recorded too. At the end of the session it
prints each statement whose first line never ran, as `path:line:
source`, and their count. It is a report, not a gate: it leaves the
session's exit status alone. Code that only a child process runs, such
as `python -m sparsam.cli`, is not seen.

A statement counts when its first line has bytecode, so docstrings,
`pass` and `global` do not.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from types import CodeType

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparsam"

# Package file -> the lines run in it.
_ran: dict[Path, set[int]] = {}
# A code object's file name -> its set in _ran, or None outside the package.
_by_name: dict[str, set[int] | None] = {}


def _lines_run(filename: str) -> set[int] | None:
    path = Path(filename).resolve()
    return _ran.setdefault(path, set()) if PACKAGE in path.parents else None


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    try:
        lines = _by_name[filename]
    except KeyError:
        lines = _by_name[filename] = _lines_run(filename)
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _code_lines(code: CodeType) -> set[int]:
    """The lines that hold bytecode of `code` and of the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list[int]:
    """The first line of each statement in `path` that holds bytecode."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    firsts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    return sorted(firsts & _code_lines(compile(source, str(path), "exec")))


def untested() -> list[tuple[Path, int]]:
    """Each package statement whose first line never ran."""
    return [
        (path, line)
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in statements(path)
        if line not in _ran.get(path.resolve(), ())
    ]


def pytest_terminal_summary(terminalreporter) -> None:
    sys.settrace(None)
    threading.settrace(None)
    missed = untested()
    terminalreporter.section("statements no test executed")
    root = PACKAGE.parent.parent
    for path, line in missed:
        source = path.read_text().splitlines()[line - 1].strip()
        terminalreporter.write_line(f"{path.relative_to(root)}:{line}: {source}")
    terminalreporter.write_line(f"{len(missed)} untested statement(s) in {PACKAGE.relative_to(root)}")


sys.settrace(_trace)
threading.settrace(_trace)
