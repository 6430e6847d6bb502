"""Package metadata for ``repro``: the library lives under ``src/``.

Install from a checkout with ``python setup.py develop`` (or
``pip install -e . --no-build-isolation`` where the ``wheel`` package is
available); the tests, examples and benchmarks also run uninstalled with
``PYTHONPATH=src``.  The version is read from ``src/repro/__init__.py``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Work-efficient parallel sparse matrix-sparse vector "
                "multiplication (Azad & Buluç, IPDPS 2017)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
