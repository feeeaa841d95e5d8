"""Every public function must have a user outside its own module.

A public (non-underscore) module-level function of a package module counts
as used when its name appears in another module of the package, in the
acceptance gate or in the shared test helpers, or when ``pyproject.toml``
names it as a script entry point.  Unit tests of the function itself do not
count: public API that only its own tests call is dead weight, and a helper
that only its own module calls is private.  Nor does the benchmark harness:
its trace table names functions to time, and a stale entry there would keep
a deleted function alive.  Classes are exempt, since they are the argument
and result types of the functions checked here.  Exported error classes
must be raised somewhere in the package: an exception that nothing raises
is dead weight too.  Every name a package module imports must be used in
that module, and no package module imports another's private (underscore)
name: what two modules share is public in its one home.
"""

import ast
import inspect
import re
import tomllib
from pathlib import Path

import stablepac
from stablepac.errors import StablepacError

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stablepac"


def _user_files():
    yield from PACKAGE.glob("*.py")
    yield ROOT / "tests" / "test_acceptance.py"
    yield ROOT / "tests" / "helpers.py"


def _public_functions(text):
    return [
        node.name
        for node in ast.parse(text).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _entry_points():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return {target.replace(":", ".") for target in scripts.values()}


def test_every_exported_function_has_a_user():
    texts = {path: path.read_text(encoding="utf-8") for path in _user_files()}
    entry_points = _entry_points()
    unused = []
    for own in sorted(PACKAGE.glob("*.py")):
        for name in _public_functions(texts[own]):
            qualified = f"stablepac.{own.stem}.{name}"
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            if qualified not in entry_points and not any(
                pattern.search(text)
                for path, text in texts.items()
                if path not in (own, PACKAGE / "__init__.py")
            ):
                unused.append(qualified)
    assert not unused, f"public but used only by its own module and tests: {unused}"


def test_every_exported_error_is_raised():
    text = "\n".join(path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py"))
    never_raised = []
    for name in stablepac.__all__:
        obj = getattr(stablepac, name)
        if not inspect.isclass(obj) or not issubclass(obj, StablepacError):
            continue
        if obj is not StablepacError and not re.search(rf"\braise {name}\b", text):
            never_raised.append(name)
    assert not never_raised, f"exported but never raised in the package: {never_raised}"


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        names = []
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [(a.asname or a.name).split(".")[0] for a in node.names]
                # blank the statement so its own names do not count as uses
                for i in range(node.lineno - 1, node.end_lineno):
                    lines[i] = "\n"
        body = "".join(lines)
        unused += [
            f"{path.name}: {name}"
            for name in names
            if not re.search(rf"\b{re.escape(name)}\b", body)
        ]
    assert not unused, f"imported but never used: {unused}"


def test_no_private_name_imported_across_modules():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "stablepac"
            ):
                private += [
                    f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")
                ]
    assert not private, f"private names imported from another package module: {private}"
