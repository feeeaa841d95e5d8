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
    "source,code",
    [
        ('"""Module\ndocstring."""\n\n# A comment.\n', 0),
        ('class A:\n    """Class docstring."""\n\n    def f(self):\n'
         '        """Function\n        docstring."""\n', 2),
        ('text = """a multi-line\nstring"""\n', 2),
        ("y = 1  # a trailing comment\n", 1),
    ],
    ids=["module-docstring-comment-blank", "class-function-docstrings",
         "multi-line-string", "trailing-comment"],
)
def test_count(source, code):
    assert _code_lines().count(source) == (code, len(source.splitlines()))
