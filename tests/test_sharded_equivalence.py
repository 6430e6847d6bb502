"""The shard equivalence matrix: sharded execution, bit-identical.

A :class:`~repro.core.sharded.ShardedEngine` row-splits its matrix into P
strips and runs one independent kernel call per strip.  Strips partition the
row space, so each row's addend stream — the selected columns in the input
vector's storage order, restricted to the strip — is exactly the stream the
unsharded kernel reduces, and the concatenated outputs are **bit-identical**
to the monolithic engine across

    randomized problems x P ∈ {1, 2, 3, 7} x all 5 kernels x semirings
        x {no mask, mask, complement mask, row map} x sorted/unsorted inputs
        x fused / looped ``multiply_many``.

As in ``test_kernel_equivalence``, sorted outputs are compared byte-for-byte
as stored (per-strip sorted runs concatenate to the globally sorted order);
unsorted outputs are compared as bitwise-equal (row, value) pairs in
canonical row order, since first-touch storage order is bucket-layout
specific.  The same file locks down the ``single_pass`` fast path of the
bucket kernel — the lever that makes per-strip calls cheap — to be bit- and
*metric*-identical to the generic path, which is what entitles the sharded
engine to use it.  In the row-map mode the sharded side passes a dense
bool map and the monolithic reference the SparseVector of the same rows, so
every comparison also checks that the two mask forms are interchangeable.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs, bfs_multi_source, pagerank, pagerank_block
from repro.core import ColumnShardedEngine, ShardedEngine, SpMSpVEngine, spmspv_bucket
from repro.core.dispatch import get_algorithm
from repro.errors import DimensionError, DimensionMismatchError
from repro.formats import SparseVector
from repro.graphs.generators import erdos_renyi
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
SHARD_COUNTS = [1, 2, 3, 7]

SETTINGS = dict(deadline=None, max_examples=6,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def problems(draw, max_m=45, max_n=40):
    """A random (matrix, vector, mask, threads, shards) problem instance."""
    m = draw(st.integers(5, max_m))
    n = draw(st.integers(5, max_n))
    density = draw(st.floats(0.05, 0.3))
    seed = draw(st.integers(0, 2**16))
    nnz_x = draw(st.integers(0, n))
    input_sorted = draw(st.booleans())
    threads = draw(st.sampled_from([1, 2, 4]))
    shards = draw(st.sampled_from(SHARD_COUNTS))
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
    return matrix, x, mask, threads, shards


def as_semiring_input(x: SparseVector, semiring) -> SparseVector:
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


def reference_kwargs(mode: str, mask: SparseVector) -> dict:
    """The reference side's mask: a row map is checked against its SparseVector."""
    return mask_kwargs("complement" if mode == "map" else mode, mask)


def assert_bit_identical(a: SparseVector, b: SparseVector, label: str) -> None:
    assert np.array_equal(a.indices, b.indices), f"{label}: indices differ"
    assert np.array_equal(a.values, b.values), f"{label}: values differ"


def assert_same_pairs(a: SparseVector, b: SparseVector, label: str) -> None:
    ao, bo = np.argsort(a.indices, kind="stable"), np.argsort(b.indices, kind="stable")
    assert np.array_equal(a.indices[ao], b.indices[bo]), f"{label}: rows differ"
    assert np.array_equal(a.values[ao], b.values[bo]), f"{label}: values differ"


# --------------------------------------------------------------------------- #
# the shard equivalence matrix
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("mask_mode", MASK_MODES)
@given(problems())
@settings(**SETTINGS)
def test_sharded_all_kernels_bit_identical(semiring, mask_mode, problem):
    matrix, x, mask, threads, shards = problem
    x = as_semiring_input(x, semiring)
    ctx = default_context(num_threads=threads)
    kw = mask_kwargs(mask_mode, mask)
    ref_kw = reference_kwargs(mask_mode, mask)
    for name in KERNELS:
        ref = SpMSpVEngine(matrix, ctx, algorithm=name).multiply(
            x, semiring=semiring, **ref_kw)
        sharded = ShardedEngine(matrix, shards, ctx, algorithm=name).multiply(
            x, semiring=semiring, **kw)
        assert_same_pairs(ref.vector, sharded.vector, f"{name} P={shards}")
        # forced sorted output: identical storage bytes
        ref = SpMSpVEngine(matrix, ctx, algorithm=name).multiply(
            x, semiring=semiring, sorted_output=True, **ref_kw)
        sharded = ShardedEngine(matrix, shards, ctx, algorithm=name).multiply(
            x, semiring=semiring, sorted_output=True, **kw)
        assert_bit_identical(ref.vector, sharded.vector,
                             f"{name} P={shards} sorted")
        assert sharded.vector.sorted


@given(problems())
@settings(**SETTINGS)
def test_sharded_beyond_row_count_bit_identical(problem):
    """More shards than rows: empty strips contribute nothing, outputs match."""
    matrix, x, mask, threads, _shards = problem
    ctx = default_context(num_threads=threads)
    big_p = matrix.nrows + 13
    ref = SpMSpVEngine(matrix, ctx, algorithm="bucket").multiply(
        x, mask=mask, mask_complement=True, sorted_output=True)
    sharded = ShardedEngine(matrix, big_p, ctx, algorithm="bucket").multiply(
        x, mask=mask, mask_complement=True, sorted_output=True)
    assert_bit_identical(ref.vector, sharded.vector, f"P={big_p} > m={matrix.nrows}")


@pytest.mark.parametrize("mask_mode", MASK_MODES)
@given(problems())
@settings(**SETTINGS)
def test_sharded_fused_multiply_many_bit_identical(mask_mode, problem):
    """The sharded fused block path reproduces the unsharded engine per vector."""
    matrix, x, mask, threads, shards = problem
    ctx = default_context(num_threads=threads)
    kw = mask_kwargs(mask_mode, mask)
    shifted = SparseVector(x.n, x.indices[::-1].copy(), x.values[::-1].copy(),
                           sorted=x.nnz <= 1, check=False)
    xs = [x, shifted, SparseVector.empty(x.n, dtype=x.dtype)]
    masks = None if kw["mask"] is None else [kw["mask"]] * len(xs)
    refs = SpMSpVEngine(matrix, ctx, algorithm="bucket").multiply_many(
        xs, masks=None if masks is None else [mask] * len(xs),
        mask_complement=kw["mask_complement"], block_mode="fused")
    outs = ShardedEngine(matrix, shards, ctx, algorithm="bucket").multiply_many(
        xs, masks=masks, mask_complement=kw["mask_complement"],
        block_mode="fused")
    for i, (ref, out) in enumerate(zip(refs, outs)):
        assert_same_pairs(ref.vector, out.vector, f"fused vec {i} P={shards}")


@pytest.mark.parametrize("block_mode", ["fused", "looped"])
@given(problems())
@settings(**SETTINGS)
def test_sharded_fused_equals_sharded_looped(block_mode, problem):
    """Within the sharded engine, fused and looped batches are interchangeable."""
    matrix, x, mask, threads, shards = problem
    ctx = default_context(num_threads=threads)
    xs = [x, x.shuffled(np.random.default_rng(3))]
    ref = ShardedEngine(matrix, shards, ctx, algorithm="bucket").multiply_many(
        xs, masks=[mask] * 2, mask_complement=True, block_mode="looped",
        sorted_output=True)
    out = ShardedEngine(matrix, shards, ctx, algorithm="bucket").multiply_many(
        xs, masks=[mask] * 2, mask_complement=True, block_mode=block_mode,
        sorted_output=True)
    for a, b in zip(ref, out):
        assert_bit_identical(a.vector, b.vector, f"{block_mode} P={shards}")


# --------------------------------------------------------------------------- #
# the single-pass fast path (what makes per-strip calls cheap)
# --------------------------------------------------------------------------- #
def _record_signature(record):
    """Everything observable about a record except wall time."""
    return (record.algorithm, record.num_threads, dict(record.info),
            [(p.name, p.parallel, p.barriers, p.serial_metrics.as_dict(),
              [t.as_dict() for t in p.thread_metrics]) for p in record.phases])


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("mask_mode", MASK_MODES)
@given(problems())
@settings(**SETTINGS)
def test_single_pass_bucket_is_bit_and_metric_identical(semiring, mask_mode, problem):
    matrix, x, mask, _threads, _shards = problem
    x = as_semiring_input(x, semiring)
    ctx = default_context(num_threads=1)
    kw = mask_kwargs(mask_mode, mask)
    for early in (True, False):
        for so in (None, True, False):
            fast = spmspv_bucket(matrix, x, ctx, semiring=semiring,
                                 sorted_output=so, early_mask=early,
                                 single_pass=True, **kw)
            generic = spmspv_bucket(matrix, x, ctx, semiring=semiring,
                                    sorted_output=so, early_mask=early,
                                    single_pass=False, **kw)
            assert_bit_identical(generic.vector, fast.vector,
                                 f"single_pass early={early} sorted={so}")
            assert fast.vector.values.dtype == generic.vector.values.dtype
            assert _record_signature(fast.record) == _record_signature(generic.record)
            assert fast.info == generic.info


def test_single_pass_requires_single_thread():
    matrix = random_csc(20, 20, 0.2, seed=5)
    x = SparseVector.full_like_indices(20, np.arange(5), 1.0)
    with pytest.raises(ValueError):
        spmspv_bucket(matrix, x, default_context(num_threads=2), single_pass=True)


# --------------------------------------------------------------------------- #
# dimension validation through the sharded layer
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kernel", KERNELS)
def test_sharded_engine_rejects_mask_of_wrong_dimension(kernel):
    matrix = random_csc(50, 40, 0.15, seed=3)
    x = SparseVector.full_like_indices(40, np.arange(0, 12), 1.0)
    engine = ShardedEngine(matrix, 3, default_context(), algorithm=kernel)
    bad_mask = SparseVector.full_like_indices(49, np.arange(5), 1.0)
    with pytest.raises(DimensionError):
        engine.multiply(x, mask=bad_mask)


@pytest.mark.parametrize("block_mode", ["fused", "looped"])
def test_sharded_multiply_many_rejects_mask_of_wrong_dimension(block_mode):
    matrix = random_csc(50, 50, 0.15, seed=5)
    engine = ShardedEngine(matrix, 3, default_context(), algorithm="bucket")
    xs = [SparseVector.full_like_indices(50, np.arange(i, i + 10), 1.0)
          for i in range(4)]
    bad_masks = [SparseVector.full_like_indices(30, np.arange(5), 1.0)] * 4
    with pytest.raises(DimensionError):
        engine.multiply_many(xs, masks=bad_masks, block_mode=block_mode)


ENGINE_FACTORIES = {
    "whole": lambda matrix: SpMSpVEngine(matrix, default_context(),
                                         algorithm="bucket"),
    "row": lambda matrix: ShardedEngine(matrix, 3, default_context(),
                                        algorithm="bucket"),
    "column": lambda matrix: ColumnShardedEngine(matrix, 3, default_context(),
                                                 algorithm="bucket"),
}


@pytest.mark.parametrize("layout", sorted(ENGINE_FACTORIES))
def test_every_engine_rejects_malformed_row_map(layout):
    """Wrong length, dtype or dimension raises from multiply and multiply_many."""
    matrix = random_csc(50, 50, 0.15, seed=9)
    x = SparseVector.full_like_indices(50, np.arange(0, 12), 1.0)
    engine = ENGINE_FACTORIES[layout](matrix)
    try:
        for bad_map in malformed_maps(50).values():
            with pytest.raises(DimensionError):
                engine.multiply(x, mask=bad_map)
            modes = ("looped",) if layout == "column" else ("fused", "looped")
            for block_mode in modes:
                with pytest.raises(DimensionError):
                    engine.multiply_many([x, x, x, x], masks=[None, bad_map] * 2,
                                         block_mode=block_mode)
    finally:
        engine.close()


def test_sharded_engine_rejects_vector_of_wrong_length():
    matrix = random_csc(30, 30, 0.2, seed=6)
    engine = ShardedEngine(matrix, 2, default_context())
    with pytest.raises(DimensionMismatchError):
        engine.multiply(SparseVector.full_like_indices(20, np.arange(4), 1.0))


def test_sharded_engine_rejects_bad_shard_count():
    matrix = random_csc(10, 10, 0.2, seed=7)
    with pytest.raises(ValueError):
        ShardedEngine(matrix, 0, default_context())


# --------------------------------------------------------------------------- #
# algorithms routed through shards=
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("shards", [1, 3])
def test_bfs_with_shards_matches_unsharded(shards):
    matrix = erdos_renyi(200, 4.0, seed=11)
    ctx = default_context(num_threads=4)
    ref = bfs(matrix, 0, ctx)
    out = bfs(matrix, 0, ctx, shards=shards)
    assert np.array_equal(ref.levels, out.levels)
    assert np.array_equal(ref.parents, out.parents)
    assert out.engine.num_shards == shards


@pytest.mark.parametrize("block_mode", ["fused", "looped"])
def test_bfs_multi_source_with_shards_matches_unsharded(block_mode):
    matrix = erdos_renyi(180, 4.0, seed=12)
    ctx = default_context(num_threads=2)
    ref = bfs_multi_source(matrix, [0, 7, 19], ctx, block_mode=block_mode)
    out = bfs_multi_source(matrix, [0, 7, 19], ctx, block_mode=block_mode, shards=4)
    assert np.array_equal(ref.levels, out.levels)
    assert np.array_equal(ref.parents, out.parents)
    assert ref.iterations_per_source == out.iterations_per_source


def test_pagerank_with_shards_matches_unsharded():
    matrix = erdos_renyi(150, 5.0, seed=13)
    ctx = default_context(num_threads=2)
    ref = pagerank(matrix, ctx, restrict=np.arange(100))
    out = pagerank(matrix, ctx, restrict=np.arange(100), shards=3)
    assert np.array_equal(ref.scores, out.scores)
    assert ref.num_iterations == out.num_iterations


def test_sharded_engine_reports_like_the_monolithic_engine():
    from repro.analysis.reporting import format_engine_history, summarize_engine

    matrix = random_csc(40, 40, 0.25, seed=16)
    engine = ShardedEngine(matrix, 2, default_context(), algorithm="bucket")
    x = SparseVector.full_like_indices(40, np.arange(8), 1.0)
    result = engine.multiply(x)
    assert result.record.algorithm == "sharded[2]:spmspv_bucket"
    assert result.record.info["shards"] == 2
    assert result.record.info["shard_imbalance"] >= 1.0
    # the merged record prices like any other record
    assert result.simulated_time_ms() > 0
    assert "1 SpMSpV calls" in summarize_engine(engine)
    assert "bucket" in format_engine_history(engine)
    summary = engine.summary()
    assert summary["shards"] == 2 and summary["calls"] == 1
    # one-thread strips take the single pass, which fills no bucket store
    assert summary["workspace"]["acquisitions"] == 0
    assert 0.0 <= summary["workspace"]["reuse_fraction"] <= 1.0
    assert summary["nnz_balance"] >= 1.0


def test_sharded_records_conserve_total_work():
    """Strip records merged by the schedule keep the same work totals."""
    matrix = random_csc(50, 45, 0.2, seed=17)
    x = SparseVector.full_like_indices(45, np.arange(0, 45, 3), 1.0)
    for threads, shards in ((1, 4), (4, 2), (2, 7)):
        ctx = default_context(num_threads=threads)
        sharded = ShardedEngine(matrix, shards, ctx, algorithm="bucket").multiply(x)
        merged_total = sharded.record.total_work()
        # re-run the strips by hand and compare against their summed work
        engine = ShardedEngine(matrix, shards, ctx, algorithm="bucket")
        strip_totals = [
            spmspv_bucket(strip, x, engine.shard_ctx).record.total_work()
            for strip in engine.split.strips]
        for field in ("multiplications", "additions", "output_writes",
                      "bucket_writes", "spa_updates"):
            assert getattr(merged_total, field) == \
                sum(getattr(t, field) for t in strip_totals), field


def test_pagerank_block_with_shards_matches_unsharded():
    matrix = erdos_renyi(150, 5.0, seed=14)
    ctx = default_context(num_threads=2)
    seeds = [np.arange(4), np.arange(30, 36)]
    ref = pagerank_block(matrix, seeds, ctx, block_mode="fused")
    out = pagerank_block(matrix, seeds, ctx, block_mode="fused", shards=3)
    assert np.array_equal(ref.scores, out.scores)
    assert ref.iterations_per_source == out.iterations_per_source
    # detach survives the sharded engine (summary-only retention)
    out.detach()
    assert out.engine is None and out.engine_summary["shards"] == 3
