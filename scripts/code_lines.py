"""Count the code lines of the package, module by module.

    python3 scripts/code_lines.py [ROOT]

A code line holds at least one token other than a comment and lies
outside every module, class and function docstring; blank lines,
comment lines and docstrings do not count. A string that spans lines
counts on each of them. ROOT defaults to the checkout's src/sparsam.
The count uses only the standard library, so it runs before the
package's dependencies are installed.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparsam"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    skip = docstring_lines(ast.parse(source, filename=str(path)))
    lines: set[int] = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6,d}  {path.name}")
    print(f"{total:6,d}  total")


if __name__ == "__main__":
    main()
