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
name: what two modules share is public in its one home.  No module but
``errors`` guards a scalar argument by hand: ``errors.check`` and its rules
decide every such guard, NaN, bool and non-integral values included.
"""

import ast
import inspect
import re
import tomllib
from pathlib import Path

import pytest

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
        # check(..., error=Name) raises Name too.
        if obj is not StablepacError and not re.search(rf"(\braise |\berror=){name}\b", text):
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


def _number_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _raises_error(body):
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id.endswith("Error"):
                return True
    return False


def _scalar_guards(source):
    """Lines of each ``if`` that compares a bare parameter of its function, or
    ``self.<field>`` inside ``__post_init__``, with a number literal and
    raises a named ``*Error``.  Only comparisons joined by and, or and
    not count: one inside a call such as ``np.all(...)`` is elementwise over
    an array, which ``check`` does not cover."""
    sites = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs} - {"self"}

        def bare(node):
            if isinstance(node, ast.Name):
                return node.id in params
            return (
                func.name == "__post_init__"
                and isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            )

        def guard(test):
            if isinstance(test, ast.BoolOp):
                return any(guard(v) for v in test.values)
            if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                return guard(test.operand)
            if isinstance(test, ast.Compare):
                operands = [test.left, *test.comparators]
                return any(map(bare, operands)) and any(map(_number_literal, operands))
            return False

        for node in ast.walk(func):
            if isinstance(node, ast.If) and guard(node.test) and _raises_error(node.body):
                sites.add((node.lineno, ast.get_source_segment(source, node.test)))
    return [f"{line}: {test}" for line, test in sorted(sites)]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "errors.py")
)
def test_scalar_arguments_checked_only_by_errors_check(module):
    # A hand-written guard decides NaN, bool and non-integral values for
    # itself; errors.check's rules decide them once for every argument.
    source = (PACKAGE / module).read_text(encoding="utf-8")
    sites = _scalar_guards(source)
    assert not sites, f"scalar guarded by hand instead of errors.check: {sites}"
