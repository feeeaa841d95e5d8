"""Test-session set-up shared by every test module.

pyproject's pytest ``pythonpath`` setting changes only this process's
``sys.path``.  Tests that run ``python -m stablepac.cli`` in a subprocess need
the package on ``PYTHONPATH`` as well, so ``src`` goes first on it.
"""

import os

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def pytest_configure(config):
    rest = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + rest if rest else "")
