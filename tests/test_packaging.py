"""``setup.py`` declares the package it installs, at the library's own version."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_setup_py_declares_name_and_version():
    # Python 3.12+ no longer bundles setuptools; skip rather than stop the suite
    pytest.importorskip("setuptools")
    out = subprocess.run([sys.executable, "setup.py", "--name", "--version"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["repro", repro.__version__]
