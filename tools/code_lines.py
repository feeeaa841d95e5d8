"""Count the code lines of Python and C files.

    python3 tools/code_lines.py src/stablepac src/stablepac/experiment.py

In a Python file a line counts as code when it holds a token that is
neither a comment nor part of a module, class or function docstring; in a C
file, when it holds a character outside ``/* */`` and ``//`` comments that
is not white space.  Blank lines, comment-only lines and docstring lines do
not count.  Prints each file's code and physical line counts, then their
totals.  Directories are searched for ``*.py`` and ``*.c`` files.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# A C comment, string or character literal, or any other non-blank character.
_C_TOKEN = re.compile(r'/\*.*?\*/|//[^\n]*|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'|\S', re.S)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each module, class or function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str, suffix: str = ".py") -> tuple[int, int]:
    """Code lines and physical lines of one file's source, Python or, with
    ``suffix`` ".c", C."""
    lines = set()
    if suffix == ".c":
        for tok in _C_TOKEN.finditer(source):
            if not tok.group().startswith(("/*", "//")):
                first = source.count("\n", 0, tok.start()) + 1
                lines.update(range(first, first + tok.group().count("\n") + 1))
        return len(lines), len(source.splitlines())
    docstrings = _docstring_starts(ast.parse(source))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), len(source.splitlines())


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = {}  # a file named twice counts once
    for arg in argv:
        path = Path(arg)
        found = sorted([*path.rglob("*.py"), *path.rglob("*.c")]) if path.is_dir() else [path]
        files.update(dict.fromkeys(found))
    total_code = total_physical = 0
    print(f"{'code':>6} {'lines':>6}  file")
    for path in files:
        code, physical = count(path.read_text(encoding="utf-8"), path.suffix)
        total_code += code
        total_physical += physical
        print(f"{code:6d} {physical:6d}  {path}")
    print(f"{total_code:6d} {total_physical:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
