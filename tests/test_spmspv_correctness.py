"""Correctness of every SpMSpV implementation against independent oracles.

Every algorithm, thread count, sortedness, and semiring combination must
produce exactly the same mathematical result (the paper's requirement that
the algorithm "works as-is for unsorted vectors" and preserves the input
format in the output).
"""

import numpy as np
import pytest

from repro.baselines import (
    spmspv_combblas_heap,
    spmspv_combblas_heap_reference,
    spmspv_combblas_spa,
    spmspv_combblas_spa_reference,
    spmspv_dict,
    spmspv_graphmat,
    spmspv_graphmat_reference,
    spmspv_scipy,
    spmspv_sequential_spa,
    spmspv_sort,
    spmspv_sort_reference,
)
from repro.core import spmspv, spmspv_bucket, spmspv_bucket_reference
from repro.core.dispatch import available_algorithms, get_algorithm
from repro.errors import DimensionMismatchError, NotSupportedError
from repro.formats import SparseVector
from repro.parallel import default_context
from repro.semiring import MAX_TIMES, MIN_PLUS, MIN_SELECT2ND, PLUS_TIMES

from conftest import random_csc, random_sparse_vector

ALGORITHMS = ["bucket", "combblas_spa", "combblas_heap", "graphmat", "sort"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("threads", [1, 2, 5, 8])
def test_matches_scipy_oracle(algorithm, threads):
    matrix = random_csc(40, 35, 0.12, seed=threads)
    x = random_sparse_vector(35, 9, seed=threads + 100)
    oracle = spmspv_scipy(matrix, x)
    result = spmspv(matrix, x, default_context(num_threads=threads), algorithm=algorithm)
    assert result.vector.equals(oracle), f"{algorithm} at t={threads} disagrees with scipy"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_matches_dict_oracle_min_plus(algorithm):
    matrix = random_csc(25, 25, 0.15, seed=7)
    x = random_sparse_vector(25, 6, seed=8)
    oracle = spmspv_dict(matrix, x, semiring=MIN_PLUS)
    result = spmspv(matrix, x, default_context(num_threads=3), algorithm=algorithm,
                    semiring=MIN_PLUS)
    assert result.vector.equals(oracle)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_matches_dict_oracle_max_times(algorithm):
    matrix = random_csc(20, 30, 0.2, seed=9)
    x = random_sparse_vector(30, 10, seed=10)
    oracle = spmspv_dict(matrix, x, semiring=MAX_TIMES)
    result = spmspv(matrix, x, default_context(num_threads=4), algorithm=algorithm,
                    semiring=MAX_TIMES)
    assert result.vector.equals(oracle)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_select2nd_semiring(algorithm):
    matrix = random_csc(30, 30, 0.15, seed=11)
    x = random_sparse_vector(30, 8, seed=12)
    oracle = spmspv_dict(matrix, x, semiring=MIN_SELECT2ND)
    result = spmspv(matrix, x, default_context(num_threads=2), algorithm=algorithm,
                    semiring=MIN_SELECT2ND)
    assert result.vector.equals(oracle)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_empty_input_vector(algorithm):
    matrix = random_csc(10, 10, 0.3, seed=13)
    x = SparseVector.empty(10)
    result = spmspv(matrix, x, default_context(num_threads=2), algorithm=algorithm)
    assert result.vector.nnz == 0
    assert result.vector.n == 10


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_empty_matrix(algorithm):
    from repro.formats import CSCMatrix

    matrix = CSCMatrix.empty((8, 8))
    x = random_sparse_vector(8, 3, seed=14)
    result = spmspv(matrix, x, default_context(num_threads=2), algorithm=algorithm)
    assert result.vector.nnz == 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_single_entry_vector(algorithm):
    matrix = random_csc(15, 15, 0.25, seed=15)
    x = SparseVector(15, [7], [2.5])
    oracle = spmspv_scipy(matrix, x)
    result = spmspv(matrix, x, default_context(num_threads=6), algorithm=algorithm)
    assert result.vector.equals(oracle)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_rectangular_matrix(algorithm):
    matrix = random_csc(50, 20, 0.15, seed=16)
    x = random_sparse_vector(20, 7, seed=17)
    oracle = spmspv_scipy(matrix, x)
    result = spmspv(matrix, x, default_context(num_threads=3), algorithm=algorithm)
    assert result.vector.equals(oracle)
    assert result.vector.n == 50


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fully_dense_input_vector(algorithm):
    matrix = random_csc(20, 18, 0.2, seed=18)
    x = SparseVector.from_dense(np.random.default_rng(19).random(18) + 0.1)
    oracle = spmspv_scipy(matrix, x)
    result = spmspv(matrix, x, default_context(num_threads=4), algorithm=algorithm)
    assert result.vector.equals(oracle)


def test_unsorted_input_gives_same_values():
    matrix = random_csc(30, 30, 0.2, seed=20)
    x_sorted = random_sparse_vector(30, 12, seed=21)
    x_unsorted = x_sorted.shuffled(np.random.default_rng(22))
    oracle = spmspv_scipy(matrix, x_sorted)
    ctx = default_context(num_threads=3, sorted_vectors=False)
    result = spmspv_bucket(matrix, x_unsorted, ctx, sorted_output=False)
    assert result.vector.equals(oracle)


def test_sorted_output_is_sorted():
    matrix = random_csc(60, 40, 0.1, seed=23)
    x = random_sparse_vector(40, 15, seed=24)
    result = spmspv_bucket(matrix, x, default_context(num_threads=4), sorted_output=True)
    assert result.vector.sorted
    assert np.all(np.diff(result.vector.indices) > 0)


def test_output_has_no_duplicate_indices():
    matrix = random_csc(45, 30, 0.25, seed=25)
    x = random_sparse_vector(30, 20, seed=26)
    for algorithm in ALGORITHMS:
        result = spmspv(matrix, x, default_context(num_threads=5), algorithm=algorithm)
        assert len(np.unique(result.vector.indices)) == result.vector.nnz


def test_mask_complement_drops_entries():
    matrix = random_csc(30, 30, 0.3, seed=27)
    x = random_sparse_vector(30, 10, seed=28)
    full = spmspv_bucket(matrix, x, default_context())
    mask = SparseVector.full_like_indices(30, full.vector.indices[:3], 1.0)
    masked = spmspv_bucket(matrix, x, default_context(), mask=mask, mask_complement=True)
    assert masked.vector.nnz == full.vector.nnz - 3
    assert not np.any(np.isin(masked.vector.indices, mask.indices))


def test_mask_keeps_only_masked_entries():
    matrix = random_csc(30, 30, 0.3, seed=29)
    x = random_sparse_vector(30, 10, seed=30)
    full = spmspv_bucket(matrix, x, default_context())
    mask = SparseVector.full_like_indices(30, full.vector.indices[:4], 1.0)
    masked = spmspv_bucket(matrix, x, default_context(), mask=mask, mask_complement=False)
    assert set(masked.vector.indices.tolist()) <= set(mask.indices.tolist())


def test_dimension_mismatch_raises():
    matrix = random_csc(10, 10, 0.2, seed=31)
    x = random_sparse_vector(12, 3, seed=32)
    for algorithm in ALGORITHMS:
        with pytest.raises(DimensionMismatchError):
            spmspv(matrix, x, algorithm=algorithm)


def test_unknown_algorithm_raises():
    matrix = random_csc(5, 5, 0.3, seed=33)
    x = random_sparse_vector(5, 2, seed=34)
    with pytest.raises(NotSupportedError):
        spmspv(matrix, x, algorithm="quantum")


def test_available_algorithms_and_auto():
    assert set(ALGORITHMS) <= set(available_algorithms())
    assert get_algorithm("bucket") is spmspv_bucket
    # there is no adaptive "auto" policy: it is an unknown kernel name
    assert "auto" not in available_algorithms()
    with pytest.raises(NotSupportedError):
        get_algorithm("auto")


# --------------------------------------------------------------------------- #
# reference (literal pseudocode) implementations agree with the vectorized ones
# --------------------------------------------------------------------------- #
def test_bucket_reference_matches():
    matrix = random_csc(30, 25, 0.2, seed=38)
    x = random_sparse_vector(25, 8, seed=39)
    oracle = spmspv_scipy(matrix, x)
    assert spmspv_bucket_reference(matrix, x, num_buckets=6).equals(oracle)
    assert spmspv_bucket_reference(matrix, x, num_buckets=1).equals(oracle)


def test_combblas_spa_reference_matches():
    matrix = random_csc(24, 20, 0.25, seed=40)
    x = random_sparse_vector(20, 7, seed=41)
    oracle = spmspv_scipy(matrix, x)
    assert spmspv_combblas_spa_reference(matrix, x, num_threads=3).equals(oracle)


def test_combblas_heap_reference_matches():
    matrix = random_csc(24, 20, 0.25, seed=42)
    x = random_sparse_vector(20, 7, seed=43)
    oracle = spmspv_scipy(matrix, x)
    assert spmspv_combblas_heap_reference(matrix, x, num_threads=4).equals(oracle)


def test_graphmat_reference_matches():
    matrix = random_csc(24, 20, 0.25, seed=44)
    x = random_sparse_vector(20, 7, seed=45)
    oracle = spmspv_scipy(matrix, x)
    assert spmspv_graphmat_reference(matrix, x, num_threads=2).equals(oracle)


def test_sort_reference_matches():
    matrix = random_csc(24, 20, 0.25, seed=46)
    x = random_sparse_vector(20, 7, seed=47)
    oracle = spmspv_scipy(matrix, x)
    assert spmspv_sort_reference(matrix, x).equals(oracle)


def test_sequential_spa_matches_and_is_serial():
    matrix = random_csc(30, 30, 0.2, seed=48)
    x = random_sparse_vector(30, 9, seed=49)
    oracle = spmspv_scipy(matrix, x)
    result = spmspv_sequential_spa(matrix, x)
    assert result.vector.equals(oracle)
    assert result.record.num_threads == 1
    assert result.record.phases[0].parallel is False
