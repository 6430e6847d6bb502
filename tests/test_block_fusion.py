"""Tests for the fused vector-block SpMSpV path.

Covers the contract of the block-execution stack:

* :class:`~repro.formats.vector_block.SparseVectorBlock` round-trips its
  vectors exactly — indices, values, *storage order* and sortedness flags —
  including unsorted and empty vectors (property-based);
* the fused kernel (:func:`~repro.core.spmspv_block.spmspv_bucket_block` /
  ``multiply_many(block_mode="fused")``) is **bit-identical** to per-vector
  ``multiply`` across every semiring, masked/unmasked, every
  ``sorted_output`` mode and sorted/unsorted inputs;
* batches loop unless the caller passes ``block_mode="fused"``, which takes
  the fused path and reuses the persistent block buffers; every other mode
  (``"auto"`` included) raises;
* blocked PageRank and multi-source BFS match their per-source runs through
  the fused path;
* ``detach()`` releases engine workspaces and compacts records.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs, bfs_multi_source, pagerank, pagerank_block
from repro.core import (ColumnShardedEngine, EngineGroup, ShardedEngine,
                        SpMSpVEngine, spmspv_bucket_block)
from repro.core.spmspv_bucket import spmspv_bucket
from repro.formats import CSCMatrix, SparseVector, SparseVectorBlock
from repro.graphs import erdos_renyi
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

from conftest import random_csc, random_sparse_vector

ALL_SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_TIMES, OR_AND, MIN_SELECT2ND,
                 MAX_SELECT2ND, MIN_SELECT1ST]

SETTINGS = dict(deadline=None, max_examples=30,
                suppress_health_check=[HealthCheck.too_slow])


def make_block_vectors(n, sizes, seed=0, *, sorted=True, dtype=np.float64):
    vecs = []
    for j, nnz in enumerate(sizes):
        x = random_sparse_vector(n, nnz, seed=seed * 100 + j, sorted=sorted)
        if dtype is not np.float64:
            x = SparseVector(n, x.indices, x.values.astype(dtype),
                             sorted=x.sorted, check=False)
        vecs.append(x)
    return vecs


# --------------------------------------------------------------------------- #
# SparseVectorBlock round-trip
# --------------------------------------------------------------------------- #
@st.composite
def vector_lists(draw, max_n=40, max_k=6, max_nnz=20):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    vecs = []
    for _ in range(k):
        nnz = draw(st.integers(0, min(n, max_nnz)))
        indices = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz,
                                unique=True))
        vals = draw(st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                             min_size=nnz, max_size=nnz))
        shuffle = draw(st.booleans())
        indices = np.array(indices, dtype=np.int64)
        vals = np.array(vals)
        if not shuffle:
            order = np.argsort(indices)
            indices, vals = indices[order], vals[order]
        vecs.append(SparseVector(n, indices, vals,
                                 sorted=bool(nnz <= 1 or not shuffle),
                                 check=False))
    return vecs


@given(vector_lists())
@settings(**SETTINGS)
def test_vector_block_round_trip_is_exact(vecs):
    block = SparseVectorBlock.from_vectors(vecs)
    block.validate()
    back = block.to_vectors()
    assert len(back) == len(vecs)
    for original, restored in zip(vecs, back):
        # exact round-trip: same indices in the same storage order, same values
        assert np.array_equal(original.indices, restored.indices)
        assert np.array_equal(original.values, restored.values)
        assert original.sorted == restored.sorted
    assert block.total_nnz == sum(v.nnz for v in vecs)
    assert block.union_nnz <= block.total_nnz or block.total_nnz == 0
    assert block.sharing_ratio() >= 1.0


def test_vector_block_basic_statistics():
    n = 20
    a = SparseVector.from_dense(np.array([1.0] * 10 + [0.0] * 10))
    b = SparseVector.from_dense(np.array([0.0] * 5 + [2.0] * 10 + [0.0] * 5))
    block = SparseVectorBlock.from_vectors([a, b])
    assert block.k == 2 and block.n == n
    assert block.union_nnz == 15 and block.total_nnz == 20
    assert block.sharing_ratio() == pytest.approx(20 / 15)
    assert block.density() == pytest.approx(20 / 40)
    assert np.array_equal(block.nnz_per_vector(), [10, 10])
    assert block.mask_for(0).sum() == 10
    assert block.all_sorted()


def test_vector_block_rejects_mismatched_lengths():
    from repro.errors import DimensionMismatchError
    with pytest.raises(DimensionMismatchError):
        SparseVectorBlock.from_vectors([SparseVector.empty(4), SparseVector.empty(5)])


def test_vector_block_round_trip_with_empty_members():
    """Demux with empty members (ISSUE 8 satellite): the serving layer's
    ``to_vectors`` unpack must slice zero-width members exactly — empty in
    the middle, at the ends, and the all-empty block."""
    n = 12
    dense = SparseVector.from_dense(np.arange(1.0, n + 1.0))
    sparse = random_sparse_vector(n, 3, seed=8)
    for vecs in (
        [SparseVector.empty(n), dense, sparse],
        [dense, SparseVector.empty(n), sparse],
        [dense, sparse, SparseVector.empty(n)],
        [SparseVector.empty(n), SparseVector.empty(n)],
        [SparseVector.empty(n)],
    ):
        block = SparseVectorBlock.from_vectors(vecs)
        block.validate()
        back = block.to_vectors()
        assert len(back) == len(vecs)
        for original, restored in zip(vecs, back):
            assert restored.n == n
            assert np.array_equal(original.indices, restored.indices)
            assert np.array_equal(original.values, restored.values)
        assert np.array_equal(block.nnz_per_vector(),
                              [v.nnz for v in vecs])


def test_fused_block_with_empty_input_and_empty_output_members():
    """A batch member with no input nonzeros (or one fully masked to an
    empty *output*) must demux to an empty result without disturbing its
    batchmates — the serving layer hits this whenever a query's frontier
    dies mid-batch."""
    matrix = random_csc(30, 30, density=0.15, seed=3)
    ctx = default_context()
    engine = SpMSpVEngine(matrix, ctx, algorithm="bucket")
    x_live = random_sparse_vector(30, 6, seed=1)
    x_empty = SparseVector.empty(30)
    # empty input member
    results = engine.multiply_many([x_live, x_empty, x_live],
                                   block_mode="fused")
    ref = engine.multiply(x_live)
    assert results[1].vector.nnz == 0
    for r in (results[0], results[2]):
        assert np.array_equal(r.vector.indices, ref.vector.indices)
        assert np.array_equal(r.vector.values, ref.vector.values)
    # empty output member: complement-mask away every row for one member
    all_rows = SparseVector.from_dense(np.ones(30))
    results = engine.multiply_many(
        [x_live, x_live], masks=[None, all_rows], mask_complement=True,
        block_mode="fused")
    assert np.array_equal(results[0].vector.values, ref.vector.values)
    assert results[1].vector.nnz == 0


# --------------------------------------------------------------------------- #
# fused kernel == per-vector kernel, across the whole combination matrix
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("sorted_output", [None, True, False])
@pytest.mark.parametrize("with_mask", [False, True])
def test_fused_block_is_bit_identical_to_per_vector(semiring, sorted_output, with_mask):
    rng = np.random.default_rng(7)
    for num_threads in (1, 3):
        ctx = default_context(num_threads=num_threads)
        for input_sorted in (True, False):
            matrix = random_csc(48, 45, 0.15, seed=5)
            dtype = bool if semiring is OR_AND else np.float64
            xs = make_block_vectors(45, (0, 3, 11, 25), seed=9,
                                    sorted=input_sorted, dtype=dtype)
            if semiring is OR_AND:
                xs = [SparseVector(45, x.indices, np.ones(x.nnz, dtype=bool),
                                   sorted=x.sorted, check=False) for x in xs]
            masks = None
            mask_complement = False
            if with_mask:
                masks = [SparseVector.full_like_indices(
                    48, np.sort(rng.choice(48, size=20, replace=False)), 1.0)
                    for _ in xs]
                mask_complement = True
            fused = spmspv_bucket_block(matrix, xs, ctx, semiring=semiring,
                                        sorted_output=sorted_output, masks=masks,
                                        mask_complement=mask_complement)
            for i, x in enumerate(xs):
                direct = spmspv_bucket(matrix, x, ctx, semiring=semiring,
                                       sorted_output=sorted_output,
                                       mask=masks[i] if masks else None,
                                       mask_complement=mask_complement)
                assert np.array_equal(fused[i].vector.indices, direct.vector.indices)
                assert np.array_equal(fused[i].vector.values, direct.vector.values)
                assert fused[i].vector.sorted == direct.vector.sorted
                assert fused[i].info["fused"]


def test_fused_block_through_engine_matches_engine_multiply():
    matrix = random_csc(60, 60, 0.12, seed=11)
    ctx = default_context(num_threads=2)
    xs = [random_sparse_vector(60, nnz, seed=40 + nnz) for nnz in (4, 9, 18, 33)]
    fused_engine = SpMSpVEngine(matrix, ctx, algorithm="bucket")
    fused = fused_engine.multiply_many(xs, block_mode="fused")
    looped_engine = SpMSpVEngine(matrix, ctx, algorithm="bucket")
    looped = looped_engine.multiply_many(xs, block_mode="looped")
    for f, l in zip(fused, looped):
        assert np.array_equal(f.vector.indices, l.vector.indices)
        assert np.array_equal(f.vector.values, l.vector.values)
    assert all(c.fused for c in fused_engine.history)
    assert not any(c.fused for c in looped_engine.history)


@given(vector_lists(max_n=30, max_k=5, max_nnz=15))
@settings(**SETTINGS)
def test_fused_block_bit_identity_property(vecs):
    matrix = random_csc(25, vecs[0].n, 0.2, seed=3)
    ctx = default_context(num_threads=2)
    fused = spmspv_bucket_block(matrix, vecs, ctx, semiring=PLUS_TIMES)
    for i, x in enumerate(vecs):
        direct = spmspv_bucket(matrix, x, ctx, semiring=PLUS_TIMES)
        assert np.array_equal(fused[i].vector.indices, direct.vector.indices)
        assert np.array_equal(fused[i].vector.values, direct.vector.values)


# --------------------------------------------------------------------------- #
# engine block dispatch
# --------------------------------------------------------------------------- #
def test_engine_takes_fused_path_for_dense_enough_blocks():
    matrix = random_csc(80, 80, 0.1, seed=21)
    engine = SpMSpVEngine(matrix, default_context(num_threads=2), algorithm="bucket")
    # a wide (k=8), dense-ish block through the fused kernel
    xs = [random_sparse_vector(80, 30, seed=s) for s in range(8)]
    results = engine.multiply_many(xs, block_mode="fused")
    assert all(r.info.get("fused") for r in results)
    assert all(c.fused and c.algorithm == "bucket_block" for c in engine.history)
    assert engine.summary()["fused_batches"] == 1
    # the persistent block buffers were created once and reused next batch
    capacity = engine.workspace.block.capacity
    engine.multiply_many(xs, block_mode="fused")
    assert engine.workspace.block.capacity == capacity
    assert engine.workspace.stats()["block_capacity"] == capacity


def test_engine_loops_narrow_disjoint_blocks():
    matrix = random_csc(80, 80, 0.1, seed=22)
    engine = SpMSpVEngine(matrix, default_context(num_threads=2), algorithm="bucket")
    # k=2 with disjoint supports: nothing to share, and the default loops
    a = SparseVector.full_like_indices(80, np.arange(0, 10), 1.0)
    b = SparseVector.full_like_indices(80, np.arange(40, 50), 1.0)
    engine.multiply_many([a, b])
    assert not any(c.fused for c in engine.history)


def test_block_mode_validation_and_mixed_dtype_fallback():
    matrix = random_csc(30, 30, 0.2, seed=23)
    engine = SpMSpVEngine(matrix, algorithm="bucket")
    xs = [random_sparse_vector(30, 5, seed=s) for s in (1, 2, 3, 4)]
    with pytest.raises(ValueError):
        engine.multiply_many(xs, block_mode="sideways")
    # mixed dtypes are ineligible: forced fused quietly loops instead
    mixed = [xs[0], SparseVector(30, xs[1].indices,
                                 xs[1].values.astype(np.float32),
                                 sorted=xs[1].sorted, check=False)]
    results = engine.multiply_many(mixed, block_mode="fused")
    assert not any(r.info.get("fused") for r in results)


def _all_engines(matrix, ctx):
    return [SpMSpVEngine(matrix, ctx, algorithm="bucket"),
            ShardedEngine(matrix, 2, ctx, algorithm="bucket"),
            ColumnShardedEngine(matrix, 2, ctx, algorithm="bucket")]


def test_block_mode_auto_is_rejected_everywhere():
    matrix = random_csc(40, 40, 0.15, seed=25)
    xs = [random_sparse_vector(40, 8, seed=s) for s in range(3)]
    block = SparseVectorBlock.from_vectors(xs)
    for engine in _all_engines(matrix, default_context()):
        with engine:
            with pytest.raises(ValueError):
                engine.multiply_many(xs, block_mode="auto")
            with pytest.raises(ValueError):
                engine.multiply_block(block, block_mode="auto")
    with EngineGroup([matrix]) as group:
        with pytest.raises(ValueError):
            group.multiply_many(0, xs, block_mode="auto")
    with pytest.raises(ValueError):
        bfs_multi_source(matrix, [0, 1], block_mode="auto")
    with pytest.raises(ValueError):
        pagerank_block(matrix, [np.array([0]), np.array([1])], block_mode="auto")


def test_batches_loop_unless_asked_to_fuse():
    # the wide, dense-ish k=8 block of the fused-path test above
    matrix = random_csc(80, 80, 0.1, seed=21)
    ctx = default_context(num_threads=2)
    xs = [random_sparse_vector(80, 30, seed=s) for s in range(8)]
    for engine in _all_engines(matrix, ctx):
        with engine:
            engine.multiply_many(xs)
            engine.multiply_block(SparseVectorBlock.from_vectors(xs))
            assert len(engine.history) == 16
            assert not any(c.fused for c in engine.history)
            summary = engine.summary()
            assert summary["batches"] == 2 and summary["fused_batches"] == 0
            assert "explored_calls" not in summary
    multi = bfs_multi_source(matrix, list(range(8)), ctx)
    blocked = pagerank_block(matrix, [np.array([s]) for s in range(8)], ctx)
    for result in (multi, blocked):
        assert not any(c.fused for c in result.engine.history)
        assert result.engine.summary()["fused_batches"] == 0
    for engine in (SpMSpVEngine(matrix, ctx, algorithm="bucket"),
                   ShardedEngine(matrix, 2, ctx, algorithm="bucket")):
        with engine:
            results = engine.multiply_many(xs, block_mode="fused")
            assert all(r.info.get("fused") for r in results)
            assert engine.summary()["fused_batches"] == 1


def test_explore_every_option_is_gone():
    matrix = random_csc(20, 20, 0.2, seed=26)
    with pytest.raises(TypeError):
        SpMSpVEngine(matrix, explore_every=8)
    with pytest.raises(TypeError):
        ShardedEngine(matrix, 2, explore_every=8)


# --------------------------------------------------------------------------- #
# algorithms through the fused path
# --------------------------------------------------------------------------- #
def test_multi_source_bfs_fused_matches_looped_and_single_runs():
    matrix = erdos_renyi(250, 5.0, seed=31)
    ctx = default_context(num_threads=2)
    sources = list(range(8))
    fused = bfs_multi_source(matrix, sources, ctx, block_mode="fused")
    looped = bfs_multi_source(matrix, sources, ctx, block_mode="looped")
    assert np.array_equal(fused.levels, looped.levels)
    assert np.array_equal(fused.parents, looped.parents)
    assert fused.engine.summary()["fused_batches"] > 0
    for k, source in enumerate(sources[:3]):
        single = bfs(matrix, source, ctx, algorithm="bucket")
        assert np.array_equal(fused.levels[k], single.levels)
        assert np.array_equal(fused.parents[k], single.parents)


def test_blocked_pagerank_matches_per_source_runs_exactly():
    matrix = erdos_renyi(150, 5.0, seed=32)
    ctx = default_context(num_threads=2)
    perss = [np.array([0, 5]), np.array([10]), np.array([20, 30, 40]),
             np.array([7, 70])]
    for mode in ("fused", "looped"):
        blocked = pagerank_block(matrix, perss, ctx, block_mode=mode)
        for i, p in enumerate(perss):
            single = pagerank(matrix, ctx, personalization=p)
            assert np.array_equal(blocked.scores[i], single.scores)
            assert blocked.iterations_per_source[i] == single.num_iterations


# --------------------------------------------------------------------------- #
# detach: summary-only results
# --------------------------------------------------------------------------- #
def test_detach_releases_engine_and_compacts_records():
    matrix = erdos_renyi(120, 4.0, seed=33)
    result = bfs(matrix, 0, default_context(num_threads=3))
    workspace = result.engine.workspace
    total_before = [r.total_work().as_dict() for r in result.records]
    assert result.detach() is result
    assert result.engine is None
    assert result.engine_summary["calls"] == len(result.records)
    assert result.engine_summary["workspace"]["bucket_capacity"] == \
        workspace.bucket_store.capacity
    # records are compacted to totals: per-thread lists gone, work preserved
    for record, before in zip(result.records, total_before):
        assert all(not p.thread_metrics for p in record.phases)
        assert record.total_work().as_dict() == before
    # levels/parents untouched
    assert result.levels[0] == 0


def test_spmspv_result_detach_keeps_vector_and_info():
    matrix = random_csc(40, 40, 0.15, seed=34)
    x = random_sparse_vector(40, 8, seed=34)
    result = spmspv_bucket(matrix, x, default_context(num_threads=4))
    indices = result.vector.indices.copy()
    work = result.record.total_work().as_dict()
    assert result.detach() is result
    assert np.array_equal(result.vector.indices, indices)
    assert result.record.total_work().as_dict() == work
    assert all(not p.thread_metrics for p in result.record.phases)


def test_blocked_pagerank_detach():
    matrix = erdos_renyi(80, 4.0, seed=35)
    result = pagerank_block(matrix, [np.array([0]), np.array([1])],
                            default_context(), block_mode="fused")
    assert result.engine is not None
    result.detach()
    assert result.engine is None
    assert result.engine_summary["batches"] >= result.num_iterations


# --------------------------------------------------------------------------- #
# block merge validation and early masking
# --------------------------------------------------------------------------- #
def test_block_merge_validation():
    matrix = random_csc(30, 30, 0.2, seed=52)
    engine = SpMSpVEngine(matrix, algorithm="bucket")
    xs = [random_sparse_vector(30, 5, seed=s) for s in (1, 2)]
    with pytest.raises(ValueError):
        engine.multiply_many(xs, block_mode="auto")
    with pytest.raises(ValueError):
        engine.multiply_block(SparseVectorBlock.from_vectors(xs),
                              block_mode="auto")


def test_fused_early_mask_skips_dead_pairs():
    """Masked fused calls never scatter (row, vector-id) pairs the mask kills."""
    matrix = random_csc(60, 60, 0.15, seed=53)
    ctx = default_context(num_threads=2)
    xs = [random_sparse_vector(60, 20, seed=60 + s) for s in range(4)]
    rng = np.random.default_rng(53)
    masks = [SparseVector.full_like_indices(
        60, np.sort(rng.choice(60, size=10, replace=False)), 1.0) for _ in xs]
    early = spmspv_bucket_block(matrix, xs, ctx, masks=masks, early_mask=True)
    late = spmspv_bucket_block(matrix, xs, ctx, masks=masks, early_mask=False)
    for e, l in zip(early, late):
        assert np.array_equal(e.vector.indices, l.vector.indices)
        assert np.array_equal(e.vector.values, l.vector.values)
        assert e.record.info["early_mask"] and not l.record.info["early_mask"]
    # the early-masked block merged strictly fewer pairs
    assert early[0].record.info["block_pairs"] < late[0].record.info["block_pairs"]


def test_workspace_sort_keys_allocated_lazily_and_reused():
    matrix = random_csc(50, 50, 0.15, seed=54)
    engine = SpMSpVEngine(matrix, default_context(num_threads=2), algorithm="bucket")
    xs = [random_sparse_vector(50, 15, seed=70 + s) for s in range(6)]
    # a looped batch never allocates the block buffers
    engine.multiply_many(xs)
    assert engine.workspace.block is None
    # the fused merge allocates its int16 staging slab once and reuses it
    engine.multiply_many(xs, block_mode="fused")
    keys = engine.workspace.block.sort_keys
    assert keys is not None and keys.dtype == np.int16
    engine.multiply_many(xs, block_mode="fused")
    assert engine.workspace.block.sort_keys is keys


def test_block_buffers_grow_geometrically():
    """A slowly rising pair count reallocates the block buffers rarely: 101
    acquisitions of 1,000 to 1,100 pairs allocate at most twice."""
    from repro.core.workspace import SpMSpVWorkspace

    workspace = SpMSpVWorkspace(100)
    for needed in range(1000, 1101):
        workspace.acquire_block(needed)
    assert workspace.acquisitions == 101
    assert workspace.allocations <= 2
    assert workspace.block.capacity >= 1100


# --------------------------------------------------------------------------- #
# restricted (masked) PageRank through the block path
# --------------------------------------------------------------------------- #
def test_restricted_pagerank_block_matches_per_source_runs():
    matrix = erdos_renyi(120, 5.0, seed=56)
    ctx = default_context(num_threads=2)
    rng = np.random.default_rng(56)
    region = np.sort(rng.choice(120, size=60, replace=False))
    perss = [region[:2], region[5:8], region[10:11], region[20:24]]
    for mode in ("fused", "looped"):
        blocked = pagerank_block(matrix, perss, ctx, block_mode=mode,
                                 restrict=region)
        for i, p in enumerate(perss):
            single = pagerank(matrix, ctx, personalization=p, restrict=region)
            assert np.array_equal(blocked.scores[i], single.scores)
            assert blocked.iterations_per_source[i] == single.num_iterations
    # the restriction actually confines the walk: no rank outside the region
    outside = np.setdiff1d(np.arange(120), region)
    teleport_only = pagerank(matrix, ctx, personalization=perss[0],
                             restrict=region)
    assert np.all(teleport_only.scores[outside] == 0.0)


def test_restricted_pagerank_validates_vertices():
    matrix = erdos_renyi(50, 4.0, seed=57)
    with pytest.raises(ValueError):
        pagerank(matrix, restrict=np.array([], dtype=np.int64))


@pytest.mark.parametrize("num_rows", [1, 7, 2**15 - 1, 2**15, 2**15 + 1,
                                      2**20, 2**30, 2**30 + 1])
def test_stable_row_argsort_matches_numpy_stable(num_rows):
    """The staged radix argsort is exactly np.argsort(kind='stable')."""
    from repro.core.buckets import stable_row_argsort

    rng = np.random.default_rng(num_rows % 9973)
    rows = rng.integers(0, num_rows, size=3000).astype(np.int64)
    rows = np.concatenate([rows, rows[:500]])  # guarantee duplicate keys
    expected = np.argsort(rows, kind="stable")
    assert np.array_equal(stable_row_argsort(rows, num_rows), expected)
    # staged variant reuses the caller's int16 scratch
    staging = np.empty(len(rows), dtype=np.int16)
    assert np.array_equal(stable_row_argsort(rows, num_rows, staging=staging),
                          expected)
    # degenerate lengths
    assert np.array_equal(stable_row_argsort(rows[:1], num_rows), [0])
    assert len(stable_row_argsort(rows[:0], num_rows)) == 0
