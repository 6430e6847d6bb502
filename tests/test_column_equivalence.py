"""The column-split equivalence matrix: DCSC strips + reduction, bit-identical.

A :class:`~repro.core.column_sharded.ColumnShardedEngine` column-splits its
matrix into P vertical DCSC strips, hands each strip only its private slice
of the frontier, and merges the strips' **unreduced** addend streams in a
parent-side reduction that folds every row's addends in exactly the
monolithic kernel's order (see :mod:`repro.core.spmspv_column`).  Outputs
are therefore **bit-identical** to the monolithic engine across

    randomized problems x P ∈ {1, 2, 3, 7} x all 5 kernels x semirings
        x {no mask, mask, complement mask, row map} x sorted/unsorted inputs
        x both execution backends x injected worker kills (chaos).

Column outputs are always row-sorted (the reduction sorts by construction),
so they are compared byte-for-byte against the monolithic engine's
``sorted_output=True`` storage, and pair-for-pair against its default
storage.  The same file locks down the scheme plumbing (context/env
resolution, algorithm entry points), the empty-strip edge cases
(``P > ncols``, all-empty DCSC strips) mirroring the row-split
``P > nrows`` tests, and the eager update compaction (including deletions —
the DCSC path must never serve a stale answer).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs, bfs_multi_source, pagerank, pagerank_block
from repro.core import (
    ColumnShardedEngine,
    ShardedEngine,
    SpMSpVEngine,
    make_sharded_engine,
)
from repro.errors import NotSupportedError
from repro.formats import SparseVector
from repro.formats.dcsc import DCSCMatrix
from repro.formats.partition import column_split
from repro.parallel import default_context
from repro.parallel.faults import ChaosBackend
from repro.semiring import (
    MAX_SELECT2ND,
    MAX_TIMES,
    MIN_PLUS,
    MIN_SELECT1ST,
    MIN_SELECT2ND,
    OR_AND,
    PLUS_TIMES,
)

from conftest import random_csc, row_map

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
    """Byte-identical storage when dtypes agree; value-identical otherwise.

    The column path stores outputs in ``result_type(A, x)`` — the bucket
    kernel's rule.  The four baseline kernels keep boolean semirings in the
    semiring's natural bool dtype instead (so do their monolithic runs),
    which is the one place byte comparison degrades to exact value
    comparison, matching the row-split suite's convention.
    """
    assert np.array_equal(a.indices, b.indices), f"{label}: indices differ"
    if a.values.dtype == b.values.dtype:
        assert a.values.tobytes() == b.values.tobytes(), f"{label}: values differ"
    else:
        assert np.array_equal(a.values, b.values), f"{label}: values differ"


# --------------------------------------------------------------------------- #
# the column equivalence matrix (emulated backend)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("mask_mode", MASK_MODES)
@given(problems())
@settings(**SETTINGS)
def test_column_all_kernels_bit_identical(semiring, mask_mode, problem):
    matrix, x, mask, threads, shards = problem
    x = as_semiring_input(x, semiring)
    ctx = default_context(num_threads=threads)
    kw = mask_kwargs(mask_mode, mask)
    ref_kw = reference_kwargs(mask_mode, mask)
    for name in KERNELS:
        ref = SpMSpVEngine(matrix, ctx, algorithm=name).multiply(
            x, semiring=semiring, sorted_output=True, **ref_kw)
        col = ColumnShardedEngine(matrix, shards, ctx, algorithm=name).multiply(
            x, semiring=semiring, **kw)
        assert_bit_identical(ref.vector, col.vector, f"{name} P={shards}")
        assert col.vector.sorted
        assert col.info["scheme"] == "column"


@given(problems())
@settings(**SETTINGS)
def test_column_matches_row_split_bit_identically(problem):
    """The two schemes are interchangeable answers for the same call."""
    matrix, x, mask, threads, shards = problem
    ctx = default_context(num_threads=threads)
    row = ShardedEngine(matrix, shards, ctx, algorithm="bucket").multiply(
        x, mask=mask, mask_complement=True, sorted_output=True)
    col = ColumnShardedEngine(matrix, shards, ctx, algorithm="bucket").multiply(
        x, mask=mask, mask_complement=True)
    assert_bit_identical(row.vector, col.vector, f"row vs column P={shards}")


@given(problems())
@settings(**SETTINGS)
def test_column_beyond_column_count_bit_identical(problem):
    """More strips than columns: empty strips contribute nothing (the
    column-space mirror of the row-split ``P > nrows`` test)."""
    matrix, x, mask, threads, _shards = problem
    ctx = default_context(num_threads=threads)
    big_p = matrix.ncols + 13
    engine = ColumnShardedEngine(matrix, big_p, ctx, algorithm="bucket")
    assert any(s.ncols == 0 or s.nnz == 0 for s in engine.split.strips)
    ref = SpMSpVEngine(matrix, ctx, algorithm="bucket").multiply(
        x, mask=mask, mask_complement=True, sorted_output=True)
    col = engine.multiply(x, mask=mask, mask_complement=True)
    assert_bit_identical(ref.vector, col.vector, f"P={big_p} > n={matrix.ncols}")


def test_empty_and_hypersparse_strips_round_trip():
    """DCSC round-trip and kernel entry survive zero-column/zero-nnz strips."""
    matrix = random_csc(17, 5, 0.3, seed=2)
    split = column_split(matrix, 9)  # more parts than columns
    assert any(hi == lo for lo, hi in split.col_ranges)
    for strip, (lo, hi) in zip(split.strips, split.col_ranges):
        d = DCSCMatrix.from_csc(strip)
        assert d.shape == strip.shape
        assert d.nnz == strip.nnz
        back = d.to_csc()
        assert np.array_equal(back.indptr, strip.indptr)
        assert np.array_equal(back.indices, strip.indices)
        assert np.array_equal(back.data, strip.data)
    # an all-empty strip (columns exist, no nonzeros)
    empty = random_csc(17, 6, 0.0, seed=3)
    d = DCSCMatrix.from_csc(empty)
    assert d.nnz == 0 and d.ncols == 6
    rows, vals, src = d.gather_columns(np.array([0, 3, 5]))
    assert len(rows) == 0 and len(vals) == 0 and len(src) == 0


# --------------------------------------------------------------------------- #
# blocked and update paths
# --------------------------------------------------------------------------- #
def test_column_multiply_many_loops_and_rejects_fused():
    matrix = random_csc(25, 30, 0.2, seed=4)
    rng = np.random.default_rng(4)
    xs = [SparseVector(30, np.sort(rng.choice(30, size=k, replace=False)),
                       rng.random(k) + 0.1) for k in (3, 7, 11)]
    ctx = default_context()
    mono = SpMSpVEngine(matrix, ctx, algorithm="bucket")
    engine = ColumnShardedEngine(matrix, 3, ctx, algorithm="bucket")
    outs = engine.multiply_many(xs)
    for x, out in zip(xs, outs):
        ref = mono.multiply(x, sorted_output=True)
        assert_bit_identical(ref.vector, out.vector, "multiply_many")
    with pytest.raises(NotSupportedError):
        engine.multiply_many(xs, block_mode="fused")


def test_column_rejects_kernel_kwargs():
    matrix = random_csc(10, 10, 0.3, seed=5)
    x = SparseVector(10, np.array([1, 4]), np.array([1.0, 2.0]))
    engine = ColumnShardedEngine(matrix, 2, default_context())
    with pytest.raises(NotSupportedError):
        engine.multiply(x, single_pass=True)


def test_column_updates_compact_eagerly_and_stay_exact():
    """Insertions AND deletions route to the owning strips and rebuild them:
    the DCSC path has no overlay, so it compacts — never a wrong answer."""
    matrix = random_csc(20, 24, 0.2, seed=6)
    rng = np.random.default_rng(6)
    x = SparseVector(24, np.sort(rng.choice(24, size=8, replace=False)),
                     rng.random(8) + 0.1)
    ctx = default_context()
    engine = ColumnShardedEngine(matrix, 4, ctx, algorithm="bucket")
    stats = engine.apply_updates([0, 5, 19], [0, 12, 23], [2.0, 3.0, 4.0])
    assert stats["compacted"] and stats["delta_entries"] == 0
    # delete one of the edges again — deletions are first-class here
    engine.apply_updates([5], [12])
    ref = SpMSpVEngine(engine.effective_matrix(), ctx,
                       algorithm="bucket").multiply(x, sorted_output=True)
    out = engine.multiply(x)
    assert_bit_identical(ref.vector, out.vector, "after updates")
    assert engine.delta_stats()["entries"] == 0  # nothing deferred


# --------------------------------------------------------------------------- #
# scheme resolution and algorithm entry points
# --------------------------------------------------------------------------- #
def test_make_sharded_engine_resolves_scheme(monkeypatch):
    matrix = random_csc(30, 30, 0.1, seed=7)  # avg degree 3
    ctx = default_context()
    assert isinstance(make_sharded_engine(matrix, 2, ctx), ShardedEngine)
    assert isinstance(make_sharded_engine(matrix, 2, ctx, scheme="column"),
                      ColumnShardedEngine)
    # context default and env variable flow through
    ctx_col = ctx.with_shard_scheme("column")
    assert isinstance(make_sharded_engine(matrix, 2, ctx_col),
                      ColumnShardedEngine)
    monkeypatch.setenv("REPRO_SHARD_SCHEME", "column")
    assert default_context().shard_scheme == "column"
    # only the two partitions exist: "auto" is an unknown scheme everywhere
    for bad in ("auto", "diagonal"):
        with pytest.raises(ValueError):
            make_sharded_engine(matrix, 2, ctx, scheme=bad)
        with pytest.raises(ValueError):
            ctx.with_shard_scheme(bad)
    monkeypatch.setenv("REPRO_SHARD_SCHEME", "auto")
    with pytest.raises(ValueError):
        default_context()


def test_bfs_with_column_scheme_matches_unsharded():
    graph = random_csc(40, 40, 0.12, seed=8)
    column = default_context(shard_scheme="column")
    ref = bfs(graph, 0)
    col = bfs(graph, 0, column, shards=3)
    assert isinstance(col.engine, ColumnShardedEngine)
    assert np.array_equal(ref.levels, col.levels)
    assert np.array_equal(ref.parents, col.parents)
    multi_ref = bfs_multi_source(graph, [0, 5, 11], block_mode="looped")
    multi_col = bfs_multi_source(graph, [0, 5, 11], column, shards=3)
    assert np.array_equal(multi_ref.levels, multi_col.levels)
    assert np.array_equal(multi_ref.parents, multi_col.parents)


def test_pagerank_with_column_scheme_matches_unsharded():
    graph = random_csc(35, 35, 0.15, seed=9)
    column = default_context(shard_scheme="column")
    ref = pagerank(graph, tol=1e-9)
    col = pagerank(graph, column, tol=1e-9, shards=3)
    assert isinstance(col.engine, ColumnShardedEngine)
    assert ref.num_iterations == col.num_iterations
    assert ref.scores.tobytes() == col.scores.tobytes()
    blk_ref = pagerank_block(graph, [np.array([0, 3]), np.array([7])],
                             tol=1e-9, block_mode="looped")
    blk_col = pagerank_block(graph, [np.array([0, 3]), np.array([7])], column,
                             tol=1e-9, shards=3)
    assert blk_ref.scores.tobytes() == blk_col.scores.tobytes()


# --------------------------------------------------------------------------- #
# process backend + chaos
# --------------------------------------------------------------------------- #
def test_column_process_backend_bit_identical():
    assert check_column_process_backend()["inline_calls"] == 0


def test_column_in_parent_bit_identical(production_floor):
    """The same calls at the production floor, all run in the parent."""
    stats = check_column_process_backend()
    assert stats["calls"] == 0 and stats["inline_calls"] > 0


def check_column_process_backend():
    """Partials and updates on the process backend; its stats."""
    matrix = random_csc(45, 50, 0.15, seed=10)
    rng = np.random.default_rng(10)
    x = SparseVector(50, np.sort(rng.choice(50, size=12, replace=False)),
                     rng.random(12) + 0.1)
    mask = SparseVector.full_like_indices(
        45, np.sort(rng.choice(45, size=15, replace=False)), 1.0)
    ctx = default_context(backend="process", backend_workers=2)
    mono = SpMSpVEngine(matrix, default_context(), algorithm="bucket")
    with ColumnShardedEngine(matrix, 4, ctx, algorithm="bucket") as engine:
        for semiring in (PLUS_TIMES, MIN_SELECT2ND):
            for kw in ({"mask": None, "mask_complement": False},
                       {"mask": mask, "mask_complement": True},
                       {"mask": row_map(mask), "mask_complement": True}):
                ref = mono.multiply(x, semiring=semiring, sorted_output=True,
                                    **kw)
                out = engine.multiply(x, semiring=semiring, **kw)
                assert_bit_identical(ref.vector, out.vector,
                                     f"process {semiring.name}")
        # updates propagate to the workers' shared-memory strips
        engine.apply_updates([1, 2], [1, 2], [9.0, 8.0])
        ref2 = SpMSpVEngine(engine.effective_matrix(), default_context(),
                            algorithm="bucket").multiply(x, sorted_output=True)
        out2 = engine.multiply(x)
        assert_bit_identical(ref2.vector, out2.vector, "process after update")
        return engine.backend.comm_stats()


def test_column_chaos_worker_kills_retried_bit_identically(monkeypatch):
    """Workers killed mid-reduction-feed are respawned and the retried strips
    reproduce the exact same bytes (kernels are pure functions)."""
    matrix = random_csc(45, 50, 0.15, seed=11)
    rng = np.random.default_rng(11)
    x = SparseVector(50, np.sort(rng.choice(50, size=14, replace=False)),
                     rng.random(14) + 0.1)
    ref = SpMSpVEngine(matrix, default_context(), algorithm="bucket").multiply(
        x, sorted_output=True)
    monkeypatch.setenv("REPRO_BACKEND_FAULTS", "seed=9,kill_mid=1.0")
    ctx = default_context(backend="process", backend_workers=2)
    with ColumnShardedEngine(matrix, 4, ctx, algorithm="bucket") as engine:
        assert isinstance(engine.backend, ChaosBackend)
        for _ in range(3):
            out = engine.multiply(x)
            assert_bit_identical(ref.vector, out.vector, "chaos kill_mid")
        health = engine.health_stats()
        assert health["respawns"] > 0 or health["retries"] > 0 \
            or health["fallback_calls"] > 0
