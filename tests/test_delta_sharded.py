"""Delta overlay and per-strip compaction on the sharded engine.

Two properties carry the production story:

* **Exactness across backends** — a sharded multiply against base ⊕ delta is
  bit-identical to a fresh sharded engine over the rebuilt matrix, on the
  emulated and the process backend alike, including updates that straddle
  strip boundaries.
* **Compaction locality** — when one strip's delta crosses the break-even
  threshold, only that strip is rebuilt: the other strips keep their matrix
  objects and their warm workspaces (asserted by object identity), and on
  the process backend only the affected strip's shared-memory slabs are
  replaced, guarded by the version handshake (a call dispatched against a
  stale strip version fails with a clear :class:`BackendError` instead of
  computing on torn state).
"""

import numpy as np
import pytest

from repro.core import ShardedEngine, SpMSpVEngine, make_sharded_engine
from repro.core.sharded import EngineGroup
from repro.errors import BackendError, FormatError, NotSupportedError
from repro.formats import DeltaLog, SparseVector, apply_delta, matrices_equal
from repro.parallel import default_context
from repro.parallel.backends import ExecutionBackend, ProcessBackend
from repro.semiring import MIN_SELECT2ND, PLUS_TIMES

from conftest import random_csc

BACKENDS = ["emulated", "process"]


def make_engine(matrix, shards, backend, *, threads=2):
    kwargs = {"backend_workers": 2} if backend == "process" else {}
    ctx = default_context(num_threads=threads, backend=backend, **kwargs)
    return ShardedEngine(matrix, shards, ctx, algorithm="bucket")


def straddling_updates(matrix, row_ranges, rng, per_strip=8):
    """Inserts/reweights hitting every strip, plus edges at each boundary."""
    n = matrix.ncols
    rows, cols = [], []
    for lo, hi in row_ranges:
        rows.extend(rng.integers(lo, hi, size=per_strip).tolist())
        cols.extend(rng.integers(0, n, size=per_strip).tolist())
        # pin the boundary rows themselves
        rows.extend([lo, hi - 1])
        cols.extend(rng.integers(0, n, size=2).tolist())
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    return rows, cols, rng.random(len(rows)) + 0.5


def assert_same_pairs(a: SparseVector, b: SparseVector, label: str) -> None:
    ao = np.argsort(a.indices, kind="stable")
    bo = np.argsort(b.indices, kind="stable")
    assert np.array_equal(a.indices[ao], b.indices[bo]), f"{label}: rows differ"
    assert np.array_equal(a.values[ao], b.values[bo]), f"{label}: values differ"


# --------------------------------------------------------------------------- #
# cross-backend overlay equivalence
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", [2, 3])
def test_overlay_bit_identical_across_strips(backend, shards):
    rng = np.random.default_rng(31)
    matrix = random_csc(46, 40, 0.15, seed=31)
    with make_engine(matrix, shards, backend) as engine:
        engine.compact_fraction = 1e9      # exercise the pure overlay path
        rows, cols, vals = straddling_updates(matrix, engine.split.row_ranges,
                                              rng)
        engine.apply_updates(rows, cols, vals)
        engine.apply_updates(rows[:5], cols[:5])   # then delete a few again
        rebuilt = engine.effective_matrix()
        idx = np.sort(rng.choice(40, size=14, replace=False))
        x = SparseVector(40, idx, rng.random(14) + 0.1)
        mask = SparseVector.full_like_indices(
            46, np.sort(rng.choice(46, size=20, replace=False)), 1.0)
        with make_engine(rebuilt, shards, backend) as ref:
            for kw in ({}, {"mask": mask}, {"mask": mask, "mask_complement": True}):
                got = engine.multiply(x, semiring=PLUS_TIMES,
                                      sorted_output=True, **kw)
                want = ref.multiply(x, semiring=PLUS_TIMES,
                                    sorted_output=True, **kw)
                assert np.array_equal(got.vector.indices, want.vector.indices)
                assert np.array_equal(got.vector.values, want.vector.values)


@pytest.mark.parametrize("backend", BACKENDS)
def test_overlay_multiply_many_and_async(backend):
    rng = np.random.default_rng(37)
    matrix = random_csc(42, 42, 0.15, seed=37)
    with make_engine(matrix, 3, backend) as engine:
        engine.compact_fraction = 1e9
        rows, cols, vals = straddling_updates(matrix, engine.split.row_ranges,
                                              rng, per_strip=5)
        engine.apply_updates(rows, cols, vals)
        rebuilt = engine.effective_matrix()
        xs = []
        for _ in range(4):
            idx = np.sort(rng.choice(42, size=9, replace=False))
            xs.append(SparseVector(42, idx, rng.random(9) + 0.1))
        with make_engine(rebuilt, 3, backend) as ref:
            for mode in ("fused", "looped"):
                got = engine.multiply_many(xs, semiring=MIN_SELECT2ND,
                                           sorted_output=True, block_mode=mode)
                want = ref.multiply_many(xs, semiring=MIN_SELECT2ND,
                                         sorted_output=True, block_mode=mode)
                for k, (g, w) in enumerate(zip(got, want)):
                    assert_same_pairs(g.vector, w.vector, f"{mode} member {k}")
            assert engine.summary()["fused_batches"] == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_compaction_end_to_end_matches_fresh_engine(backend):
    rng = np.random.default_rng(41)
    matrix = random_csc(40, 36, 0.12, seed=41)
    with make_engine(matrix, 2, backend) as engine:
        # default compact_fraction: a dense-enough batch must compact
        rows = rng.integers(0, 40, size=400)
        cols = rng.integers(0, 36, size=400)
        ack = engine.apply_updates(rows, cols, rng.random(400) + 0.5)
        assert ack["compacted"] and ack["compacted_strips"]
        assert all(d.is_empty for d in
                   (engine.deltas[s] for s in ack["compacted_strips"]))
        rebuilt = engine.effective_matrix()
        idx = np.sort(rng.choice(36, size=10, replace=False))
        x = SparseVector(36, idx, rng.random(10) + 0.1)
        with make_engine(rebuilt, 2, backend) as ref:
            got = engine.multiply(x, sorted_output=True)
            want = ref.multiply(x, sorted_output=True)
            assert np.array_equal(got.vector.indices, want.vector.indices)
            assert np.array_equal(got.vector.values, want.vector.values)


@pytest.mark.parametrize("layout", ["whole", "row", "column"])
def test_malformed_updates_raise_format_error_on_every_layout(layout):
    """A batch whose arrays differ in length is refused whole, before any
    strip records part of it — by every layout alike."""
    matrix = random_csc(12, 12, 0.2, seed=53)
    ctx = default_context(backend="emulated")
    engine = (SpMSpVEngine(matrix, ctx) if layout == "whole"
              else make_sharded_engine(matrix, 3, ctx, scheme=layout))
    with engine:
        for rows, cols, values in (
                ([0, 5, 11], [0, 5], [1.0, 2.0, 3.0]),   # rows longer
                ([0, 5], [0, 5, 11], [1.0, 2.0]),        # cols longer
                ([0, 5, 11], [0, 5, 11], [1.0, 2.0]),    # values shorter
                ([0, 5, 11], [0, 5], None)):             # a bad delete
            with pytest.raises(FormatError):
                engine.apply_updates(rows, cols, values)
            stats = engine.delta_stats()
            assert stats["entries"] == 0 and stats["compactions"] == 0
        assert matrices_equal(engine.effective_matrix(), matrix)


@pytest.mark.parametrize("layout", ["whole", "row", "column"])
def test_matrix_follows_compaction_on_every_layout(layout):
    """After compactions, ``engine.matrix`` holds the compacted strips on
    every layout, and the next call's record reports its nnz."""
    from repro.graphs.generators import erdos_renyi

    matrix = erdos_renyi(40, 4.0, seed=3)
    ctx = default_context(backend="emulated")
    engine = (SpMSpVEngine(matrix, ctx) if layout == "whole"
              else make_sharded_engine(matrix, 2, ctx, scheme=layout))
    rng = np.random.default_rng(0)
    expected = matrix.to_dense()
    with engine:
        for _ in range(300):
            rows, cols = rng.integers(0, 40, size=1), rng.integers(0, 40, size=1)
            engine.apply_updates(rows, cols, [1.0])
            expected[rows, cols] = 1.0
        assert engine.compactions > 0
        result = engine.multiply(SparseVector.full_like_indices(40, np.arange(40), 1.0))
        stored = sum(strip.nnz for strip in engine.strips)
        assert engine.matrix.nnz == stored
        assert result.record.info["nnz_A"] == stored
        engine.compact()  # fold what is still pending into the strips
        assert engine.matrix.nnz == engine.nnz == np.count_nonzero(expected)
        assert engine.matrix.sorted_within_columns
        assert np.array_equal(engine.matrix.to_dense(), expected)


# --------------------------------------------------------------------------- #
# compaction locality
# --------------------------------------------------------------------------- #

def test_compaction_never_rebuilds_unaffected_strip():
    matrix = random_csc(40, 30, 0.2, seed=43)
    with make_engine(matrix, 4, "emulated") as engine:
        before_strips = list(engine.split.strips)
        before_ws = list(engine.backend.workspaces)
        lo, hi = engine.split.row_ranges[1]
        rng = np.random.default_rng(43)
        rows = rng.integers(lo, hi, size=300)      # hammer strip 1 only
        cols = rng.integers(0, 30, size=300)
        ack = engine.apply_updates(rows, cols, rng.random(300))
        assert ack["compacted_strips"] == [1]
        for s in (0, 2, 3):
            # untouched strips keep their exact matrix objects...
            assert engine.split.strips[s] is before_strips[s]
            assert engine.backend.strips[s] is before_strips[s]
            # ...and their warm workspaces
            assert engine.backend.workspaces[s] is before_ws[s]
        assert engine.split.strips[1] is not before_strips[1]


def test_targeted_compact_only_touches_named_strip():
    matrix = random_csc(30, 30, 0.2, seed=47)
    with make_engine(matrix, 3, "emulated") as engine:
        engine.compact_fraction = 1e9
        lows = [lo for lo, _hi in engine.split.row_ranges]
        engine.apply_updates([lows[0], lows[2]], [1, 2], [5.0, 6.0])
        before = list(engine.split.strips)
        assert engine.compact(strip=0) is True
        assert engine.split.strips[0] is not before[0]
        assert engine.split.strips[2] is before[2]      # still pending
        assert not engine.deltas[0].entries and engine.deltas[2].entries == 1
        assert engine.compact() is True                 # folds the rest
        assert all(d.is_empty for d in engine.deltas)


# --------------------------------------------------------------------------- #
# backend update_strip surface
# --------------------------------------------------------------------------- #

def test_abstract_backend_refuses_update_strip():
    class Minimal(ExecutionBackend):
        name = "minimal"

        def run(self, op, args):  # pragma: no cover - never called
            raise AssertionError

    with pytest.raises(NotSupportedError, match="cannot update strips"):
        Minimal().update_strip(0, random_csc(4, 4, 0.5))


def test_emulated_update_strip_validates_shape():
    matrix = random_csc(20, 20, 0.2, seed=59)
    with make_engine(matrix, 2, "emulated") as engine:
        with pytest.raises(BackendError, match="rows"):
            engine.backend.update_strip(0, random_csc(3, 20, 0.5))


def test_process_update_strip_guard_rails():
    matrix = random_csc(24, 24, 0.2, seed=61)
    with make_engine(matrix, 2, "process") as engine:
        # under a chaos plan the pool is the ProcessBackend subclass
        backend = engine.backend
        assert isinstance(backend, ProcessBackend)
        with pytest.raises(BackendError, match="rows"):
            backend.update_strip(0, random_csc(3, 24, 0.5))
        # a genuinely in-flight backend call (submitted, not yet gathered)
        # blocks update_strip: its workers may read the strip slabs any moment
        x = SparseVector.from_dense(np.arange(24, dtype=np.float64))
        token = backend.submit(
            "multiply", algorithm="bucket", x=x, semiring=PLUS_TIMES,
            sorted_output=True, mask_slices=[None] * 2,
            mask_complement=False, kwargs={})
        with pytest.raises(BackendError, match="in flight"):
            backend.update_strip(0, engine.split.strips[0])
        backend.gather(token)
        backend.close()
        with pytest.raises(BackendError, match="closed"):
            backend.update_strip(0, engine.split.strips[0])


def test_process_version_mismatch_raises_clear_error():
    """A call dispatched with a stale strip version must fail loudly."""
    matrix = random_csc(24, 24, 0.2, seed=67)
    with make_engine(matrix, 2, "process") as engine:
        backend = engine.backend
        x = SparseVector.from_dense(np.arange(24, dtype=np.float64))
        engine.multiply(x)                               # warm the pool
        # simulate a compaction the worker never saw: the parent believes
        # strip 0 is at v1 while the worker still holds v0
        backend._strip_versions[0] += 1
        with pytest.raises(BackendError, match="version mismatch"):
            engine.multiply(x)
        backend._strip_versions[0] -= 1
        engine.multiply(x)                               # and recovers


def test_process_update_strip_replaces_only_affected_slabs():
    matrix = random_csc(30, 30, 0.2, seed=71)
    with make_engine(matrix, 3, "process") as engine:
        backend = engine.backend
        before = [list(slabs) for slabs in backend._strip_slabs]
        lo, hi = engine.split.row_ranges[1]
        new_strip = apply_delta(
            engine.split.strips[1],
            _delta_for(engine.split.strips[1], seed=71))
        backend.update_strip(1, new_strip)
        assert backend._strip_versions == [0, 1, 0]
        assert backend._strip_slabs[0] == before[0]
        assert backend._strip_slabs[2] == before[2]
        assert backend._strip_slabs[1] != before[1]
        # the pool keeps serving correct results against the new strip
        engine.split.strips[1] = new_strip
        x = SparseVector.from_dense(np.arange(30, dtype=np.float64))
        got = engine.multiply(x, sorted_output=True)
        with make_engine(engine.effective_matrix(), 3, "process") as ref:
            want = ref.multiply(x, sorted_output=True)
            assert np.array_equal(got.vector.indices, want.vector.indices)
            assert np.array_equal(got.vector.values, want.vector.values)


def _delta_for(strip, seed):
    rng = np.random.default_rng(seed)
    delta = DeltaLog(strip.shape)
    delta.set_edges(rng.integers(0, strip.nrows, 5),
                    rng.integers(0, strip.ncols, 5), rng.random(5) + 0.5)
    return delta


# --------------------------------------------------------------------------- #
# EngineGroup plumbing
# --------------------------------------------------------------------------- #

def test_engine_group_routes_updates_by_key():
    a = random_csc(16, 16, 0.25, seed=73)
    b = random_csc(12, 12, 0.25, seed=79)
    ctx = default_context(backend="emulated")
    with EngineGroup({"a": a, "b": b}, ctx, shards=2) as group:
        ack = group.apply_updates("a", [0, 15], [1, 2], [3.0, 4.0])
        assert ack["applied"] == 2
        assert group.engine("a").delta_stats()["entries"] == 2
        assert group.engine("b").delta_stats()["entries"] == 0
        eff = group.engine("a").effective_matrix()
        assert eff.to_dense()[0, 1] == 3.0 and eff.to_dense()[15, 2] == 4.0
        assert matrices_equal(group.engine("b").effective_matrix(), b)
