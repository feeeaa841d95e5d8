"""The code-line rules of ``tools/code_lines.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "suffix,source,code",
    [
        (".py", '"""Module\ndocstring."""\n\n# A comment.\n', 0),
        (".py", 'class A:\n    """Class docstring."""\n\n    def f(self):\n'
         '        """Function\n        docstring."""\n', 2),
        (".py", 'text = """a multi-line\nstring"""\n', 2),
        (".py", "y = 1  # a trailing comment\n", 1),
        (".c", "/* A block\n   comment. */\n\nint x;  /* trailing */\n/* a\n */ int y;\n", 2),
        (".c", "int f(void)\n{\n    return 1;  // one\n}\n// A line comment.\n", 4),
        (".c", 'char *s = "/*";\nint y;\nchar *t = "*/";  // "\n', 3),
    ],
    ids=["module-docstring-comment-blank", "class-function-docstrings",
         "multi-line-string", "trailing-comment", "c-block-comments", "c-line-comments",
         "c-comment-markers-in-strings"],
)
def test_count(suffix, source, code):
    assert _code_lines().count(source, suffix) == (code, len(source.splitlines()))
