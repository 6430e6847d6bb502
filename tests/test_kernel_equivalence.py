"""The cross-kernel equivalence matrix: every kernel, bit-identical.

All five production SpMSpV kernels compute the product from the same gathered
entry stream (columns in the input vector's storage order) and fold each
row's addends left to right in stream order through the same per-call sparse
accumulator (``repro.core.buckets.merge_rows``), which is the order of the
literal Algorithm 1 (``spmspv_bucket_reference``) and of the sequential SPA
algorithm, so their outputs are **bit-identical** — not merely numerically
close — across

    randomized graphs x all 5 kernels x all semirings
        x {no mask, mask, complement mask, row map} x sorted/unsorted inputs.

Each (row, value) pair is bitwise equal across kernels; only the *storage
order* of unsorted outputs is representation-specific (the bucket kernel
emits bucket-major first-touch order, the row-split baselines global first
touch, the heap merge always row-sorted), so unsorted outputs are compared
in canonical row order and sorted outputs additionally byte-for-byte as
stored.  The fused block kernel reproduces the bucket kernel pair-for-pair
*including storage order*, with early and with finalize-time masking.  This
suite is the single property-based home of those identities, superseding the
ad-hoc per-kernel spot checks scattered across the older test files; a
dictionary-accumulator oracle anchors the whole family to the mathematical
definition.

Mask handling is part of the contract: masks live in the matrix's row space,
and every kernel — per-vector and fused, early and late masking — rejects a
mask of any other length with :class:`repro.errors.DimensionError`.  A dense
row map (1-D bool array) is the same mask as the SparseVector of its member
rows, bit for bit; a map of the wrong length, dtype or dimension raises too.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import spmspv_dict, spmspv_sequential_spa
from repro.core import (SpMSpVEngine, spmspv_bucket, spmspv_bucket_block,
                        spmspv_bucket_reference)
from repro.formats import CSCMatrix
from repro.core.dispatch import get_algorithm
from repro.errors import DimensionError
from repro.formats import SparseVector
from repro.parallel import default_context
from repro.semiring import (
    MAX_SELECT2ND,
    MAX_TIMES,
    MIN_PLUS,
    MIN_SELECT1ST,
    MIN_SELECT2ND,
    OR_AND,
    PLUS_TIMES,
)

from conftest import malformed_maps, random_csc, row_map

KERNELS = ["bucket", "combblas_spa", "combblas_heap", "graphmat", "sort"]
ALL_SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_TIMES, OR_AND, MIN_SELECT2ND,
                 MAX_SELECT2ND, MIN_SELECT1ST]
MASK_MODES = ["none", "mask", "complement", "map"]

SETTINGS = dict(deadline=None, max_examples=12,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def problems(draw, max_m=45, max_n=40):
    """A random (matrix, vector, mask, threads, sortedness) problem instance."""
    m = draw(st.integers(5, max_m))
    n = draw(st.integers(5, max_n))
    density = draw(st.floats(0.05, 0.3))
    seed = draw(st.integers(0, 2**16))
    nnz_x = draw(st.integers(0, n))
    input_sorted = draw(st.booleans())
    threads = draw(st.sampled_from([1, 2, 4]))
    mask_nnz = draw(st.integers(0, m))
    rng = np.random.default_rng(seed)
    matrix = random_csc(m, n, density, seed=seed)
    idx = rng.choice(n, size=nnz_x, replace=False)
    if input_sorted:
        idx = np.sort(idx)
    x = SparseVector(n, idx, rng.random(nnz_x) + 0.1,
                     sorted=bool(nnz_x <= 1 or input_sorted), check=False)
    mask = SparseVector.full_like_indices(
        m, np.sort(rng.choice(m, size=mask_nnz, replace=False)), 1.0)
    return matrix, x, mask, threads


def as_semiring_input(x: SparseVector, semiring) -> SparseVector:
    """OR-AND works over booleans; every other semiring takes the floats."""
    if semiring is OR_AND:
        return SparseVector(x.n, x.indices, np.ones(x.nnz, dtype=bool),
                            sorted=x.sorted, check=False)
    return x


def mask_kwargs(mode: str, mask: SparseVector) -> dict:
    if mode == "none":
        return {"mask": None, "mask_complement": False}
    if mode == "map":  # the dense row map of the same set, in BFS's shape
        return {"mask": row_map(mask), "mask_complement": True}
    return {"mask": mask, "mask_complement": mode == "complement"}


def assert_bit_identical(a: SparseVector, b: SparseVector, label: str) -> None:
    """Byte-for-byte equality as stored (indices, values, in order)."""
    assert np.array_equal(a.indices, b.indices), f"{label}: indices differ"
    assert np.array_equal(a.values, b.values), f"{label}: values differ"


def assert_same_pairs(a: SparseVector, b: SparseVector, label: str) -> None:
    """Bitwise-equal (row, value) pairs, compared in canonical row order."""
    ao, bo = np.argsort(a.indices, kind="stable"), np.argsort(b.indices, kind="stable")
    assert np.array_equal(a.indices[ao], b.indices[bo]), f"{label}: rows differ"
    assert np.array_equal(a.values[ao], b.values[bo]), f"{label}: values differ"


# --------------------------------------------------------------------------- #
# the equivalence matrix
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("mask_mode", MASK_MODES)
@given(problems())
@settings(**SETTINGS)
def test_all_kernels_bit_identical(semiring, mask_mode, problem):
    matrix, x, mask, threads = problem
    x = as_semiring_input(x, semiring)
    ctx = default_context(num_threads=threads)
    kw = mask_kwargs(mask_mode, mask)
    # default output mode: pairs bitwise equal, order canonicalized
    reference = spmspv_bucket(matrix, x, ctx, semiring=semiring, **kw)
    if mask_mode == "map":  # a map is the same mask as its SparseVector
        as_vector = spmspv_bucket(matrix, x, ctx, semiring=semiring,
                                  **mask_kwargs("complement", mask))
        assert_bit_identical(as_vector.vector, reference.vector, "map")
    for name in KERNELS[1:]:
        result = get_algorithm(name)(matrix, x, ctx, semiring=semiring, **kw)
        assert_same_pairs(reference.vector, result.vector, name)
    # forced sorted output: identical storage bytes across every kernel
    reference = spmspv_bucket(matrix, x, ctx, semiring=semiring,
                              sorted_output=True, **kw)
    for name in KERNELS[1:]:
        result = get_algorithm(name)(matrix, x, ctx, semiring=semiring,
                                     sorted_output=True, **kw)
        assert_bit_identical(reference.vector, result.vector, f"{name} sorted")
        assert result.vector.sorted


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("mask_mode", MASK_MODES)
@given(problems())
@settings(**SETTINGS)
def test_fused_block_variants_bit_identical(semiring, mask_mode, problem):
    """Both fused variants (early and late masking) reproduce the per-vector kernel."""
    matrix, x, mask, threads = problem
    x = as_semiring_input(x, semiring)
    ctx = default_context(num_threads=threads)
    kw = mask_kwargs(mask_mode, mask)
    # a 3-wide block around x: itself, a shifted copy, and an empty vector
    shifted = SparseVector(x.n, x.indices[::-1].copy(), x.values[::-1].copy(),
                           sorted=x.nnz <= 1, check=False)
    xs = [x, shifted, SparseVector.empty(x.n, dtype=x.dtype)]
    refs = [spmspv_bucket(matrix, v, ctx, semiring=semiring, **kw) for v in xs]
    # in "map" mode the block mixes both forms of the same mask
    masks = None if kw["mask"] is None else [kw["mask"], mask, kw["mask"]]
    for early in (True, False):
        fused = spmspv_bucket_block(
            matrix, xs, ctx, semiring=semiring, masks=masks,
            mask_complement=kw["mask_complement"], early_mask=early)
        for ref, out in zip(refs, fused):
            assert_bit_identical(ref.vector, out.vector, f"fused early={early}")


def assert_same_bits(a: SparseVector, b: SparseVector, label: str) -> None:
    """Indices equal and values equal bit for bit as stored (so -0.0 != 0.0)."""
    assert np.array_equal(a.indices, b.indices), f"{label}: indices differ"
    assert a.values.dtype == b.values.dtype, f"{label}: dtypes differ"
    assert a.values.tobytes() == b.values.tobytes(), f"{label}: value bits differ"


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@given(problem=problems(), sorted_output=st.booleans())
@settings(**SETTINGS)
def test_bucket_kernel_is_the_literal_algorithm_bit_for_bit(semiring, problem,
                                                           sorted_output):
    """The vectorized kernel stores exactly what the line-by-line transcription
    of Algorithms 1 and 2 stores: each row's SPA value is its addends folded
    left to right in bucket stream order (a pairwise plus-times sum would
    differ in the last bits)."""
    matrix, x, _mask, threads = problem
    ctx = default_context(num_threads=threads)
    result = spmspv_bucket(matrix, x, ctx, semiring=semiring,
                           sorted_output=sorted_output)
    literal = spmspv_bucket_reference(matrix, x, ctx.num_buckets, semiring=semiring,
                                      sorted_output=sorted_output)
    assert_same_bits(literal, result.vector, "bucket vs literal")


@given(problems())
@settings(**SETTINGS)
def test_sequential_spa_is_the_bucket_kernel_bit_for_bit(problem):
    """The work-optimal sequential algorithm's persistent SPA combines a
    batch through the kernels' merge, so it folds in the same order."""
    matrix, x, _mask, threads = problem
    bucket = spmspv_bucket(matrix, x, default_context(num_threads=threads),
                           sorted_output=True)
    sequential = spmspv_sequential_spa(matrix, x, sorted_output=True)
    assert_same_bits(bucket.vector, sequential.vector, "sequential SPA")


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("kernel", KERNELS)
def test_integer_operands_keep_their_values_under_every_semiring(semiring, kernel):
    """An int64 matrix and vector: no dtype holds ``inf``, so a min or max
    SPA slot must start from its row's first addend, never from the identity
    cast to an integer (INT64_MIN)."""
    rng = np.random.default_rng(5)
    dense = random_csc(40, 36, 0.2, seed=5).to_dense()
    matrix = CSCMatrix.from_dense(np.where(dense != 0, rng.integers(1, 10, dense.shape), 0))
    idx = np.sort(rng.choice(36, size=14, replace=False))
    x = SparseVector(36, idx, rng.integers(1, 10, 14), check=False)
    assert matrix.dtype == np.int64 and x.dtype == np.int64
    oracle = spmspv_dict(matrix, x, semiring=semiring)
    for threads in (1, 3):
        y = get_algorithm(kernel)(matrix, x, default_context(num_threads=threads),
                                  semiring=semiring).vector
        assert np.array_equal(y.indices, oracle.indices)
        assert np.array_equal(y.values, oracle.values)
        assert y.values.dtype == (bool if semiring is OR_AND and kernel != "bucket"
                                  else np.int64)


@given(problems())
@settings(**SETTINGS)
def test_bucket_matches_dict_oracle(problem):
    """Anchor the family to the mathematical definition (tolerance compare)."""
    matrix, x, _mask, threads = problem
    oracle = spmspv_dict(matrix, x, semiring=PLUS_TIMES)
    result = spmspv_bucket(matrix, x, default_context(num_threads=threads))
    assert result.vector.equals(oracle)


@pytest.mark.parametrize("mask_mode", ["mask", "complement"])
def test_early_and_late_masking_bit_identical(mask_mode):
    """The scatter-time mask fold is indistinguishable from finalize masking."""
    matrix = random_csc(50, 45, 0.18, seed=77)
    rng = np.random.default_rng(77)
    idx = rng.choice(45, size=20, replace=False)  # unsorted input
    x = SparseVector(45, idx, rng.random(20) + 0.1, check=False)
    mask = SparseVector.full_like_indices(
        50, np.sort(rng.choice(50, size=23, replace=False)), 1.0)
    complement = mask_mode == "complement"
    ctx = default_context(num_threads=3)
    late = spmspv_bucket(matrix, x, ctx, mask=mask, mask_complement=complement,
                         early_mask=False)
    early = spmspv_bucket(matrix, x, ctx, mask=mask, mask_complement=complement,
                          early_mask=True)
    assert_bit_identical(late.vector, early.vector, "early vs late")
    assert early.record.info["early_mask"] and not late.record.info["early_mask"]
    # the fold is the work saving: the early record merges only surviving pairs
    assert early.record.info["df"] <= late.record.info["df"]


# --------------------------------------------------------------------------- #
# mask dimension validation (every kernel, every path)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("bad_len", [49, 51])
def test_all_kernels_reject_mask_of_wrong_dimension(kernel, bad_len):
    matrix = random_csc(50, 40, 0.15, seed=3)
    x = SparseVector.full_like_indices(40, np.arange(0, 12), 1.0)
    bad_mask = SparseVector.full_like_indices(bad_len, np.arange(5), 1.0)
    with pytest.raises(DimensionError):
        get_algorithm(kernel)(matrix, x, default_context(), mask=bad_mask)


@pytest.mark.parametrize("early_mask", [True, False])
def test_fused_block_rejects_mask_of_wrong_dimension(early_mask):
    matrix = random_csc(50, 40, 0.15, seed=4)
    xs = [SparseVector.full_like_indices(40, np.arange(i, i + 8), 1.0)
          for i in range(3)]
    bad_masks = [SparseVector.full_like_indices(40, np.arange(5), 1.0)] * 3
    with pytest.raises(DimensionError):
        spmspv_bucket_block(matrix, xs, default_context(), masks=bad_masks,
                            early_mask=early_mask)


@pytest.mark.parametrize("block_mode", ["fused", "looped"])
def test_multiply_many_rejects_mask_of_wrong_dimension(block_mode):
    matrix = random_csc(50, 50, 0.15, seed=5)
    engine = SpMSpVEngine(matrix, default_context(), algorithm="bucket")
    xs = [SparseVector.full_like_indices(50, np.arange(i, i + 10), 1.0)
          for i in range(4)]
    bad_masks = [SparseVector.full_like_indices(30, np.arange(5), 1.0)] * 4
    with pytest.raises(DimensionError):
        engine.multiply_many(xs, masks=bad_masks, block_mode=block_mode)


@pytest.mark.parametrize("bad", sorted(malformed_maps(50)))
def test_kernels_reject_malformed_row_map(bad):
    """A row map of the wrong length, dtype or dimension raises everywhere."""
    matrix = random_csc(50, 40, 0.15, seed=8)
    x = SparseVector.full_like_indices(40, np.arange(0, 12), 1.0)
    bad_map = malformed_maps(50)[bad]
    ctx = default_context()
    for kernel in KERNELS:
        with pytest.raises(DimensionError):
            get_algorithm(kernel)(matrix, x, ctx, mask=bad_map)
    for early in (True, False):
        with pytest.raises(DimensionError):
            spmspv_bucket(matrix, x, ctx, mask=bad_map, early_mask=early)
        with pytest.raises(DimensionError):
            spmspv_bucket_block(matrix, [x, x], ctx, masks=[None, bad_map],
                                early_mask=early)


def test_mask_list_length_mismatch_still_raises():
    matrix = random_csc(30, 30, 0.2, seed=6)
    xs = [SparseVector.full_like_indices(30, np.arange(5), 1.0)] * 3
    with pytest.raises(ValueError):
        spmspv_bucket_block(matrix, xs, default_context(),
                            masks=[SparseVector.empty(30)] * 2)
