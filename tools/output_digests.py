"""Print a sha256 prefix of every output file of the benchmark experiments.

    python3 tools/output_digests.py                  # all four configurations
    python3 tools/output_digests.py grid long_series
    python3 tools/output_digests.py --emulate        # also as on older hosts
    python3 tools/output_digests.py --values > tools/output_values.txt

Runs each named configuration the way ``stablepac experiment`` does
(``run_experiment`` then ``write_outputs``) into a temporary directory and
prints one line per output file: the configuration, the file name and the
first 8 hex digits of its sha256.  A header line comes first: the versions
of numpy and orjson, the core that numpy's bundled OpenBLAS runs on, and the
SIMD targets of numpy's runtime dispatch that this host enables, on which
the output bytes depend.  ``grid``, ``seed_sweep`` and ``long_series`` are
the workloads of ``perfbench/run.py`` at base seed 0; ``default`` is
``ExperimentConfig()``.
The package is imported from the ``src`` directory of this checkout.

``--values`` prints the values of the same files in place of their digests,
one line per record: the configuration, the file name, the record's key and
its fields as the file writes them.  A CSV file's records are its lines,
keyed by line number from 0 for the header; a trajectory file gives every
``TRAJECTORY_STRIDE``-th line only.  A JSON file's records are its keys,
each with its value's numbers or text in order.  Where another host's SIMD
or BLAS kernels move values in their last bits, the digests differ but these
lines differ only within a small relative tolerance, so a test compares them
with ``tools/output_values.txt`` on every host.  With ``--emulate``, the
children print values too, and their moved lines are value lines.

``--emulate`` then reruns the same configurations in a child process under
each setting of ``EMULATIONS``: environment variables that make numpy's SIMD
dispatch and its OpenBLAS pick the kernels of an older host.  For each it
prints the child's header line, naming the setting, and the child's lines
whose digest differs from this run's.  Each rerun of all four configurations
takes several seconds.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import orjson
from numpy._core import _multiarray_umath as umath

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stablepac.experiment import ExperimentConfig, run_experiment, write_outputs  # noqa: E402

PREFIX_HEX = 8
# Lines of a trajectory file kept by --values: the header, then every 97th
# row, at offsets that vary within the writer's 1024-row chunks.
TRAJECTORY_STRIDE = 97
# numpy's bundled libraries, the OpenBLAS build among them.
NUMPY_LIBS = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
# Each acts only on the child process it is set for: an AVX2 host, an SSE4
# baseline host, and an OpenBLAS that runs its Katmai kernels.
_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
EMULATIONS = (
    {"NPY_DISABLE_CPU_FEATURES": _NO_AVX512},
    {"NPY_DISABLE_CPU_FEATURES": f"{_NO_AVX512} X86_V3"},
    {"OPENBLAS_CORETYPE": "Prescott"},
)


def _workloads() -> dict[str, dict]:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def configs() -> dict[str, ExperimentConfig]:
    """Each configuration by name: the perfbench workloads at base seed 0, then the default."""
    out = {
        name: ExperimentConfig.from_dict({**doc, "chain": {"base_seed": 0}})
        for name, doc in _workloads().items()
    }
    out["default"] = ExperimentConfig()
    return out


def openblas_core() -> str:
    """The core that numpy's bundled OpenBLAS picked for this host, such as
    SkylakeX; "unknown" when the library or its core-name symbol is absent."""
    import ctypes

    for lib in sorted(NUMPY_LIBS.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def header() -> str:
    """The provenance line: numpy's and orjson's versions, the OpenBLAS core,
    and numpy's dispatched SIMD targets that this host's CPU enables."""
    simd = " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))
    return (
        f"# numpy {numpy.__version__} orjson {orjson.__version__}"
        f" openblas {openblas_core()} simd {simd or 'none'}"
    )


def outputs(cfg: ExperimentConfig) -> dict[str, bytes]:
    """The bytes of each output file of one experiment, by file name."""
    with tempfile.TemporaryDirectory() as out:
        write_outputs(cfg, run_experiment(cfg), out)
        return {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:PREFIX_HEX]


def digests(cfg: ExperimentConfig) -> dict[str, str]:
    """sha256 prefix of each output file of one experiment, by file name."""
    return {file: digest(data) for file, data in outputs(cfg).items()}


def _leaves(value) -> list:
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def value_lines(name: str, file: str, data: bytes) -> list[str]:
    """The --values lines of one output file of configuration name."""
    if file.endswith(".json"):
        records = [(key, _leaves(value)) for key, value in json.loads(data).items()]
    else:
        rows = data.decode().splitlines()
        step = TRAJECTORY_STRIDE if file.startswith("trajectory") else 1
        records = [(i, rows[i].split(",")) for i in range(0, len(rows), step)]
    return [" ".join(map(str, [name, file, key, *fields])) for key, fields in records]


def rerun(names: list[str], setting: dict[str, str]) -> list[str]:
    """This tool's output lines for names, from a child process whose
    environment adds setting."""
    proc = subprocess.run(
        [sys.executable, __file__, *names], env={**os.environ, **setting},
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return proc.stdout.splitlines()


def main(argv: list[str]) -> int:
    emulate, values = "--emulate" in argv, "--values" in argv
    known = configs()
    names = [arg for arg in argv if arg not in ("--emulate", "--values")] or list(known)
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown configuration {unknown[0]!r}; choose from {', '.join(known)}",
              file=sys.stderr)
        return 2
    lines = [header()]
    print(lines[0], flush=True)
    for name in names:
        if values:
            new = [line for file, data in outputs(known[name]).items()
                   for line in value_lines(name, file, data)]
        else:
            new = [f"{name:12s} {file:24s} {d}" for file, d in digests(known[name]).items()]
        print("\n".join(new), flush=True)
        lines += new
    for setting in EMULATIONS if emulate else ():
        child_header, *child_lines = rerun(names + ["--values"] * values, setting)
        named = " ".join(f'{key}="{value}"' for key, value in setting.items())
        print(f"{child_header} under {named}", flush=True)
        for line in child_lines:
            if line not in lines:
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
