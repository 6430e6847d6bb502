"""Hypothesis property-based tests for the core data structures and kernels."""

import os

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import spmspv_dict, spmspv_scipy
from repro.core import ShardedEngine, SharedSlab, SparseAccumulator, spmspv
from repro.core.vector_ops import ewise_add, ewise_mult
from repro.formats import COOMatrix, CSCMatrix, DCSCMatrix, SparseVector
from repro.graphs.generators import erdos_renyi, rmat
from repro.parallel import default_context
from repro.semiring import MIN_PLUS, PLUS_TIMES

SETTINGS = dict(deadline=None, max_examples=25,
                suppress_health_check=[HealthCheck.too_slow])

#: worker pools are expensive relative to these tiny problems, so the
#: backend-differential fuzz runs fewer (but structurally richer) examples
POOL_SETTINGS = dict(deadline=None, max_examples=8,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def coo_matrices(draw, max_dim=24, max_nnz=80):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(st.lists(st.integers(0, m - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    vals = draw(st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False),
                         min_size=nnz, max_size=nnz))
    return COOMatrix((m, n), np.array(rows, dtype=np.int64),
                     np.array(cols, dtype=np.int64), np.array(vals))


@st.composite
def sparse_vectors(draw, n, max_nnz=30):
    nnz = draw(st.integers(0, min(n, max_nnz)))
    indices = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz,
                            unique=True))
    vals = draw(st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                         min_size=nnz, max_size=nnz))
    return SparseVector(n, np.array(sorted(indices), dtype=np.int64), np.array(vals),
                        sorted=True, check=False)


@st.composite
def matrix_vector_pairs(draw):
    coo = draw(coo_matrices())
    x = draw(sparse_vectors(coo.shape[1]))
    return CSCMatrix.from_coo(coo), x


# --------------------------------------------------------------------------- #
# format round-trips
# --------------------------------------------------------------------------- #
@given(coo_matrices())
@settings(**SETTINGS)
def test_csc_round_trip_preserves_dense(coo):
    dense = coo.to_dense()
    np.testing.assert_allclose(CSCMatrix.from_coo(coo).to_dense(), dense, atol=1e-12)


@given(coo_matrices())
@settings(**SETTINGS)
def test_all_formats_agree(coo):
    csc = CSCMatrix.from_coo(coo)
    dcsc = DCSCMatrix.from_coo(coo)
    np.testing.assert_allclose(dcsc.to_dense(), csc.to_dense(), atol=1e-12)


@given(coo_matrices())
@settings(**SETTINGS)
def test_transpose_involution(coo):
    csc = CSCMatrix.from_coo(coo)
    np.testing.assert_allclose(csc.transpose().transpose().to_dense(), csc.to_dense(),
                               atol=1e-12)


@given(coo_matrices())
@settings(**SETTINGS)
def test_nzc_never_exceeds_columns_or_nnz(coo):
    csc = CSCMatrix.from_coo(coo)
    assert csc.nzc() <= min(csc.ncols, csc.nnz) or csc.nnz == 0
    assert DCSCMatrix.from_csc(csc).nzc == csc.nzc()


# --------------------------------------------------------------------------- #
# SpMSpV correctness over random inputs
# --------------------------------------------------------------------------- #
@given(matrix_vector_pairs(), st.sampled_from(["bucket", "combblas_spa", "combblas_heap",
                                               "graphmat", "sort"]),
       st.integers(1, 6))
@settings(**SETTINGS)
def test_spmspv_matches_dense_product(pair, algorithm, threads):
    matrix, x = pair
    result = spmspv(matrix, x, default_context(num_threads=threads), algorithm=algorithm)
    expected = matrix.to_dense() @ x.to_dense()
    np.testing.assert_allclose(result.vector.to_dense(), expected, atol=1e-9)


@given(matrix_vector_pairs(), st.integers(1, 4))
@settings(**SETTINGS)
def test_bucket_output_has_unique_indices_and_valid_range(pair, threads):
    matrix, x = pair
    result = spmspv(matrix, x, default_context(num_threads=threads), algorithm="bucket")
    y = result.vector
    assert y.n == matrix.nrows
    assert len(np.unique(y.indices)) == y.nnz
    if y.nnz:
        assert y.indices.min() >= 0 and y.indices.max() < matrix.nrows


@given(matrix_vector_pairs())
@settings(**SETTINGS)
def test_bucket_min_plus_matches_dict_oracle(pair):
    matrix, x = pair
    result = spmspv(matrix, x, default_context(num_threads=2), algorithm="bucket",
                    semiring=MIN_PLUS)
    oracle = spmspv_dict(matrix, x, semiring=MIN_PLUS)
    assert result.vector.equals(oracle)


@given(matrix_vector_pairs(), st.integers(1, 4))
@settings(**SETTINGS)
def test_bucket_work_is_thread_invariant(pair, threads):
    matrix, x = pair
    one = spmspv(matrix, x, default_context(num_threads=1), algorithm="bucket")
    many = spmspv(matrix, x, default_context(num_threads=threads), algorithm="bucket")
    # the matrix traffic of the bucketing phase is exactly the selected nonzeros,
    # independent of the number of threads
    assert one.record.phase("bucketing").total_work().matrix_nnz_reads == \
        many.record.phase("bucketing").total_work().matrix_nnz_reads


# --------------------------------------------------------------------------- #
# SPA and vector-op algebraic properties
# --------------------------------------------------------------------------- #
@given(st.lists(st.tuples(st.integers(0, 30), st.floats(-5, 5, allow_nan=False,
                                                        allow_infinity=False)),
                max_size=60))
@settings(**SETTINGS)
def test_spa_equals_dense_accumulation(pairs):
    spa = SparseAccumulator(31)
    spa.reset()
    dense = np.zeros(31)
    if pairs:
        idx = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs])
        spa.accumulate(idx, vals)
        np.add.at(dense, idx, vals)
    uind, uvals = spa.extract(sort=True)
    np.testing.assert_allclose(uvals, dense[uind], atol=1e-12)
    assert set(uind.tolist()) == set(np.flatnonzero(dense != 0).tolist()) | \
        (set(uind.tolist()) - set(np.flatnonzero(dense != 0).tolist()))


@given(sparse_vectors(25), sparse_vectors(25))
@settings(**SETTINGS)
def test_ewise_add_matches_dense(a, b):
    result = ewise_add(a, b)
    np.testing.assert_allclose(result.to_dense(), a.to_dense() + b.to_dense(), atol=1e-12)


@given(sparse_vectors(25), sparse_vectors(25))
@settings(**SETTINGS)
def test_ewise_mult_matches_dense(a, b):
    result = ewise_mult(a, b)
    np.testing.assert_allclose(result.to_dense(), a.to_dense() * b.to_dense(), atol=1e-12)


@given(sparse_vectors(40))
@settings(**SETTINGS)
def test_vector_sort_shuffle_preserve_content(x):
    rng = np.random.default_rng(0)
    assert x.shuffled(rng).sort().equals(x)
    np.testing.assert_allclose(x.shuffled(rng).to_dense(), x.to_dense())


# --------------------------------------------------------------------------- #
# execution-backend equivalence over random graphs, masks and shard counts
# --------------------------------------------------------------------------- #
@st.composite
def sharded_problems(draw):
    """A random (graph, frontier, mask, shards) sharded-execution problem.

    Graphs come from the generators the benchmarks use (Erdős–Rényi and the
    paper's RMAT class); shard counts intentionally range past ``nrows`` so
    empty strips land on real workers, and masks/sortedness/dtype are all
    drawn so the process backend sees the same structural variety as the
    emulated one.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        matrix = erdos_renyi(draw(st.integers(8, 48)),
                             draw(st.floats(0.5, 6.0)), seed=seed)
    else:
        matrix = rmat(draw(st.integers(3, 5)),
                      draw(st.integers(2, 8)), seed=seed)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    matrix.data = matrix.data.astype(dtype)
    shards = draw(st.integers(1, matrix.nrows + 3))
    rng = np.random.default_rng(seed)
    nnz = draw(st.integers(0, matrix.ncols))
    idx = rng.choice(matrix.ncols, size=nnz, replace=False)
    sorted_x = draw(st.booleans())
    x = SparseVector(matrix.ncols, np.sort(idx) if sorted_x else idx,
                     (rng.random(nnz) + 0.1).astype(dtype),
                     sorted=sorted_x, check=False)
    if draw(st.booleans()):
        keep = np.flatnonzero(rng.random(matrix.nrows) < draw(st.floats(0.0, 1.0)))
        mask = SparseVector.full_like_indices(matrix.nrows, keep, 1.0)
    else:
        mask = None
    return matrix, x, mask, shards, seed


@given(sharded_problems(), st.sampled_from(["bucket", "combblas_spa", "sort"]),
       st.booleans())
@settings(**POOL_SETTINGS)
def test_process_backend_fuzz_matches_emulated(problem, algorithm, complement):
    """Random graph x mask x shards: the two backends agree bit for bit."""
    matrix, x, mask, shards, _seed = problem
    complement = complement and mask is not None
    ctx = default_context(num_threads=2, backend="emulated")
    with ShardedEngine(matrix, shards, ctx, algorithm=algorithm) as emu, \
         ShardedEngine(matrix, shards,
                       ctx.with_backend("process", workers=2),
                       algorithm=algorithm) as proc:
        ref = emu.multiply(x, mask=mask, mask_complement=complement,
                           sorted_output=True)
        out = proc.multiply(x, mask=mask, mask_complement=complement,
                            sorted_output=True)
        assert np.array_equal(ref.vector.indices, out.vector.indices)
        assert np.array_equal(ref.vector.values, out.vector.values)
        assert ref.vector.values.dtype == out.vector.values.dtype
        assert ref.record.total_work().as_dict() == \
            out.record.total_work().as_dict()
        # fused blocks over the same strips agree too (k=2, one empty)
        refs = emu.multiply_many([x, SparseVector.empty(x.n)],
                                 block_mode="fused")
        outs = proc.multiply_many([x, SparseVector.empty(x.n)],
                                  block_mode="fused")
        for rv, ov in zip(refs, outs):
            assert np.array_equal(np.sort(rv.vector.indices),
                                  np.sort(ov.vector.indices))
            assert np.array_equal(rv.vector.values[np.argsort(rv.vector.indices,
                                                              kind="stable")],
                                  ov.vector.values[np.argsort(ov.vector.indices,
                                                              kind="stable")])


@given(st.integers(0, 2**31 - 1),
       st.sampled_from(["<f8", "<f4", "<i8", "<i4", "|b1"]),
       st.integers(0, 200))
@settings(**SETTINGS)
def test_shared_slab_round_trips_any_array(seed, dtype, size):
    """create() -> attach() reproduces every byte, for empty slabs too,
    and close()+unlink() leaves no segment behind."""
    rng = np.random.default_rng(seed)
    array = (rng.random(size) * 100).astype(np.dtype(dtype))
    owner = SharedSlab.create(array)
    try:
        name, shape, dt = owner.meta
        assert shape == array.shape and np.dtype(dt) == array.dtype
        view = SharedSlab.attach(name, shape, dt, untrack=True)
        try:
            assert view.array.dtype == array.dtype
            assert np.array_equal(view.array, array)
        finally:
            view.close()
    finally:
        owner.close()
        owner.unlink()
    assert not os.path.exists("/dev/shm/" + owner.name.lstrip("/"))


@given(st.integers(0, 2**31 - 1), st.sampled_from([np.float32, np.float64]))
@settings(**POOL_SETTINGS)
def test_process_strip_slabs_round_trip_through_workers(seed, dtype):
    """P > nrows: every strip (many of them empty) survives the trip into
    shared memory and back out through a worker, at both value dtypes."""
    rng = np.random.default_rng(seed)
    matrix = erdos_renyi(rng.integers(3, 10), 2.0, seed=seed)
    matrix.data = matrix.data.astype(dtype)
    shards = matrix.nrows + int(rng.integers(1, 5))
    idx = np.sort(rng.choice(matrix.ncols, size=max(1, matrix.ncols // 2),
                             replace=False))
    x = SparseVector(matrix.ncols, idx, np.ones(len(idx), dtype=dtype))
    with ShardedEngine(matrix, shards, default_context(backend="emulated"),
                       algorithm="bucket") as emu, \
         ShardedEngine(matrix, shards,
                       default_context(backend="process", backend_workers=2),
                       algorithm="bucket") as proc:
        ref = emu.multiply(x, sorted_output=True)
        out = proc.multiply(x, sorted_output=True)
        assert np.array_equal(ref.vector.indices, out.vector.indices)
        assert np.array_equal(ref.vector.values, out.vector.values)
        assert out.vector.values.dtype == np.dtype(dtype)
