"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import COOMatrix, CSCMatrix, SparseVector
from repro.parallel import backends

#: the process backend's production in-parent floor (gathered entries)
POOL_MIN_WORK = backends.POOL_MIN_WORK


@pytest.fixture(autouse=True)
def pool_for_every_call(monkeypatch):
    """Send every process-backend call to a worker, however small.

    The test problems gather far fewer than ``POOL_MIN_WORK`` entries, so at
    the production floor their calls would all run in the parent and the
    pool, comm-plane and fault suites would never reach a worker.
    """
    monkeypatch.setattr(backends, "POOL_MIN_WORK", 0)


@pytest.fixture
def production_floor(monkeypatch):
    """Opt a test back into the production ``POOL_MIN_WORK``."""
    monkeypatch.setattr(backends, "POOL_MIN_WORK", POOL_MIN_WORK)


def random_dense(m: int, n: int, density: float, seed: int = 0) -> np.ndarray:
    """A dense matrix with roughly the requested density of nonzeros."""
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < density
    return mask * (rng.random((m, n)) + 0.1)


def random_csc(m: int, n: int, density: float = 0.1, seed: int = 0) -> CSCMatrix:
    """A random CSC matrix built through the dense path (small sizes only)."""
    return CSCMatrix.from_dense(random_dense(m, n, density, seed))


def random_sparse_vector(n: int, nnz: int, seed: int = 0, *, sorted: bool = True
                         ) -> SparseVector:
    """A random sparse vector with exactly ``min(nnz, n)`` nonzero entries."""
    rng = np.random.default_rng(seed)
    nnz = min(nnz, n)
    idx = rng.choice(n, size=nnz, replace=False)
    if sorted:
        idx = np.sort(idx)
    vec = SparseVector(n, idx, rng.random(nnz) + 0.1, sorted=sorted)
    return vec


def row_map(mask: SparseVector) -> np.ndarray:
    """The dense row-membership map (1-D bool) of a SparseVector mask."""
    bitmap = np.zeros(mask.n, dtype=bool)
    bitmap[mask.indices] = True
    return bitmap


def malformed_maps(nrows: int) -> dict:
    """Row maps that must be rejected: wrong length, dtype, or dimension."""
    return {
        "short": np.zeros(nrows - 1, dtype=bool),
        "long": np.zeros(nrows + 1, dtype=bool),
        "uint8": np.zeros(nrows, dtype=np.uint8),
        "2d": np.zeros((1, nrows), dtype=bool),
    }


def random_coo(m: int, n: int, nnz: int, seed: int = 0, *, allow_dups: bool = True
               ) -> COOMatrix:
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.random(nnz) + 0.1
    return COOMatrix((m, n), rows, cols, vals)


@pytest.fixture
def small_matrix() -> CSCMatrix:
    """A fixed small matrix used by many unit tests."""
    dense = np.array([
        [0.0, 2.0, 0.0, 1.0],
        [3.0, 0.0, 0.0, 0.0],
        [0.0, 4.0, 5.0, 0.0],
        [0.0, 0.0, 0.0, 6.0],
        [7.0, 0.0, 8.0, 0.0],
    ])
    return CSCMatrix.from_dense(dense)


@pytest.fixture
def small_vector() -> SparseVector:
    """A sparse vector compatible with ``small_matrix`` (length 4)."""
    return SparseVector.from_dense(np.array([1.0, 0.0, 2.0, 0.0]))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
