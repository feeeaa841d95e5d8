"""The rules of the tools under ``tools/``: code lines, output digests and output values."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
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
    assert _tool("code_lines").count(source, suffix) == (code, len(source.splitlines()))


def test_digests_start_with_the_provenance_header(monkeypatch, capsys, tmp_path):
    import numpy
    import orjson
    from numpy._core import _multiarray_umath as umath

    tool = _tool("output_digests")
    monkeypatch.setattr(tool, "digests", lambda cfg: {"summary.csv": "0123abcd"})
    assert tool.main(["grid"]) == 0
    header, line = capsys.readouterr().out.splitlines()
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]] or ["none"]
    core = tool.openblas_core()
    assert header.split() == [
        "#", "numpy", numpy.__version__, "orjson", orjson.__version__,
        "openblas", core, "simd", *simd,
    ]
    assert core.isalnum()
    if list(tool.NUMPY_LIBS.glob("libscipy_openblas64_*.so")):
        assert core != "unknown"
    assert line.split() == ["grid", "summary.csv", "0123abcd"]
    committed = (ROOT / "tools" / "output_digests.txt").read_text().splitlines()
    assert committed[0].startswith("# numpy ") and not committed[1].startswith("#")
    assert committed[0].split()[5] == "openblas"
    # No bundled OpenBLAS, or a library without the core-name symbol (the
    # ctypes extension module), reads "unknown".
    import _ctypes

    monkeypatch.setattr(tool, "NUMPY_LIBS", tmp_path)
    assert tool.openblas_core() == "unknown"
    (tmp_path / "libscipy_openblas64_none.so").symlink_to(_ctypes.__file__)
    assert tool.openblas_core() == "unknown"


def test_emulate_prints_each_setting_and_its_moved_lines(monkeypatch, capsys):
    tool = _tool("output_digests")
    monkeypatch.setattr(tool, "digests", lambda cfg: {"summary.csv": "0123abcd",
                                                      "generator.json": "8d18b341"})
    host_header = tool.header()
    calls = []

    def rerun(names, setting):
        calls.append((names, setting))
        moved = "fedc9876" if "OPENBLAS_CORETYPE" in setting else "0123abcd"
        return [f"# child {len(calls)}",
                f"{'grid':12s} {'summary.csv':24s} {moved}",
                f"{'grid':12s} {'generator.json':24s} 8d18b341"]

    monkeypatch.setattr(tool, "rerun", rerun)
    assert tool.main(["--emulate", "grid"]) == 0
    assert calls == [(["grid"], setting) for setting in tool.EMULATIONS]
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        host_header.split(),
        ["grid", "summary.csv", "0123abcd"],
        ["grid", "generator.json", "8d18b341"],
        ["#", "child", "1", "under", 'NPY_DISABLE_CPU_FEATURES="X86_V4', "AVX512_ICL",
         'AVX512_SPR"'],
        ["#", "child", "2", "under", 'NPY_DISABLE_CPU_FEATURES="X86_V4', "AVX512_ICL",
         "AVX512_SPR", 'X86_V3"'],
        ["#", "child", "3", "under", 'OPENBLAS_CORETYPE="Prescott"'],
        ["grid", "summary.csv", "fedc9876"],
    ]
    # Without the flag no child runs.
    assert tool.main(["grid"]) == 0
    assert len(calls) == 3


# The perfbench workloads, run once for both checks of their output files.
WORKLOADS = ["grid", "seed_sweep", "long_series"]
# Largest relative move of an output value that counts as the same value:
# 40 times the largest move measured under another host's SIMD or BLAS
# dispatch (2.3e-15, ROADMAP item 19).  It stays fixed: a change that needs it
# wider has changed the numbers.
VALUE_REL_TOL = 1e-13


@pytest.fixture(scope="module")
def workload_outputs():
    tool = _tool("output_digests")
    configs = tool.configs()
    return tool, {name: tool.outputs(configs[name]) for name in WORKLOADS}


def test_workload_outputs_match_the_committed_digests(workload_outputs):
    # The benchmark workloads' output files keep the bytes committed in
    # tools/output_digests.txt, where the host's header matches its first line.
    tool, outputs = workload_outputs
    committed = (ROOT / "tools" / "output_digests.txt").read_text().splitlines()
    if tool.header() != committed[0]:
        pytest.skip(f"digests were committed on {committed[0]!r}; this host is {tool.header()!r}")
    got = [[name, file, tool.digest(data)] for name, files in outputs.items()
           for file, data in files.items()]
    assert got == [line.split() for line in committed[1:] if line.split()[0] in WORKLOADS]


def _same_value(got: str, want: str) -> bool:
    """Equal text, or two numbers within VALUE_REL_TOL of each other."""
    try:
        return got == want or math.isclose(float(got), float(want), rel_tol=VALUE_REL_TOL)
    except ValueError:
        return False


def test_workload_outputs_match_the_committed_values(workload_outputs):
    # On every host, the workloads' output values are those committed in
    # tools/output_values.txt, each within VALUE_REL_TOL.
    tool, outputs = workload_outputs
    committed = (ROOT / "tools" / "output_values.txt").read_text().splitlines()
    want = [line.split() for line in committed[1:] if line.split()[0] in WORKLOADS]
    got = [line.split() for name, files in outputs.items() for file, data in files.items()
           for line in tool.value_lines(name, file, data)]
    assert [(g[:3], len(g)) for g in got] == [(w[:3], len(w)) for w in want]
    moved = [
        (g[:3], i, a, b) for g, w in zip(got, want) for i, (a, b) in enumerate(zip(g[3:], w[3:]))
        if not _same_value(a, b)
    ]
    assert not moved, f"{len(moved)} values moved, the first: {moved[:5]}"
