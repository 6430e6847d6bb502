"""Cross-backend differential suite: ProcessBackend ≡ EmulatedBackend, bit for bit.

The process backend runs the exact same kernel code on the exact same strip
arrays (shared-memory copies preserve every byte), so for any *fixed*
kernel/mode the two backends must agree **bit for bit** — output vectors
(sorted outputs byte-identical as stored, unsorted outputs identical as
(row, value) pairs), merged execution records, and every work-metric
counter.  This file holds the process backend to the standard
``test_sharded_equivalence`` established for emulated shards, across

    P ∈ {1, 2, 3, 7} x all 5 kernels x semirings x mask modes x
        sorted/unsorted inputs x fused / looped ``multiply_many``,

plus the failure contract: kernel exceptions propagate with the failing
strip id through ``multiply`` and ``EngineGroup``; a killed worker surfaces
exactly one ``BackendError`` and the pool recovers; closing (or
garbage-collecting) a process-backed engine releases every ``/dev/shm``
segment.

Pools are expensive relative to these tiny problems, so each parametrized
case builds ONE engine pair and drives the whole sub-grid through it
(``multiply(algorithm=...)`` overrides the per-call kernel), with
``backend_workers=2`` so strips outnumber workers and the round-robin
worker assignment is exercised even on single-core machines.
"""

import gc
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.core import EngineGroup, ShardedEngine, make_sharded_engine
from repro.errors import BackendError, DimensionError, NotSupportedError
from repro.formats import SparseVector
from repro.core.workspace import SpMSpVWorkspace
from repro.parallel import available_backends, backends, default_context
from repro.parallel.backends import (
    EmulatedBackend,
    ExecutionBackend,
    ProcessBackend,
    register_backend,
    run_strip,
)
from repro.semiring import (
    MAX_SELECT2ND,
    MAX_TIMES,
    MIN_PLUS,
    MIN_SELECT1ST,
    MIN_SELECT2ND,
    OR_AND,
    PLUS_TIMES,
    Semiring,
)

from conftest import malformed_maps, random_csc, row_map

#: the CI chaos job runs this suite under a seeded fault plan (the "chaos"
#: backend + resilience defaults absorb injected worker deaths), so
#: tests asserting the *unprotected* death contract are skipped there
FAULTS_ENV = bool(os.environ.get("REPRO_BACKEND_FAULTS"))

KERNELS = ["bucket", "combblas_spa", "combblas_heap", "graphmat", "sort"]
ALL_SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_TIMES, OR_AND, MIN_SELECT2ND,
                 MAX_SELECT2ND, MIN_SELECT1ST]
#: the cross-kernel sweep uses a reduced semiring set; the bucket kernel —
#: the one the fused/sharded fast paths specialize — runs all seven
CORE_SEMIRINGS = [PLUS_TIMES, MIN_SELECT2ND]
MASK_MODES = ["none", "mask", "complement", "map"]
SHARD_COUNTS = [1, 2, 3, 7]


def engine_pair(matrix, shards, *, threads=2):
    """One emulated and one process engine over the same matrix and context."""
    emu = ShardedEngine(matrix, shards,
                        default_context(num_threads=threads, backend="emulated"),
                        algorithm="bucket")
    proc = ShardedEngine(matrix, shards,
                         default_context(num_threads=threads, backend="process",
                                         backend_workers=2),
                         algorithm="bucket")
    return emu, proc


def problem(shards, seed):
    rng = np.random.default_rng(seed)
    m, n = 50 + shards, 45
    matrix = random_csc(m, n, 0.18, seed=seed)
    idx = rng.choice(n, size=12, replace=False)
    x_sorted = SparseVector(n, np.sort(idx), rng.random(12) + 0.1)
    x_unsorted = SparseVector(n, idx, rng.random(12) + 0.1,
                              sorted=False, check=False)
    mask = SparseVector.full_like_indices(
        m, np.sort(rng.choice(m, size=m // 2, replace=False)), 1.0)
    return matrix, x_sorted, x_unsorted, mask


def as_semiring_input(x: SparseVector, semiring: Semiring) -> SparseVector:
    if semiring is OR_AND:
        return SparseVector(x.n, x.indices, np.ones(x.nnz, dtype=bool),
                            sorted=x.sorted, check=False)
    return x


def mask_kwargs(mode, mask):
    if mode == "none":
        return {"mask": None, "mask_complement": False}
    if mode == "map":  # the dense row map of the same set, in BFS's shape
        return {"mask": row_map(mask), "mask_complement": True}
    return {"mask": mask, "mask_complement": mode == "complement"}


def reference_kwargs(mode, mask):
    """The emulated side's mask: a row map is checked against its SparseVector."""
    return mask_kwargs("complement" if mode == "map" else mode, mask)


def assert_bit_identical(a, b, label):
    assert np.array_equal(a.indices, b.indices), f"{label}: indices differ"
    assert np.array_equal(a.values, b.values), f"{label}: values differ"
    assert a.values.dtype == b.values.dtype, f"{label}: dtypes differ"


def assert_same_pairs(a, b, label):
    ao, bo = np.argsort(a.indices, kind="stable"), np.argsort(b.indices, kind="stable")
    assert np.array_equal(a.indices[ao], b.indices[bo]), f"{label}: rows differ"
    assert np.array_equal(a.values[ao], b.values[bo]), f"{label}: values differ"


def record_signature(record):
    """Everything observable about a merged record except wall time."""
    return (record.algorithm, record.num_threads, dict(record.info),
            [(p.name, p.parallel, p.barriers, p.serial_metrics.as_dict(),
              [t.as_dict() for t in p.thread_metrics]) for p in record.phases])


def assert_results_match(ref, out, label):
    assert_bit_identical(ref.vector, out.vector, label)
    assert record_signature(ref.record) == record_signature(out.record), \
        f"{label}: merged records differ"
    assert ref.info == out.info, f"{label}: result info differs"


# --------------------------------------------------------------------------- #
# the differential grid
# --------------------------------------------------------------------------- #
def test_backend_registry_exposes_both_backends():
    assert {"emulated", "process"} <= set(available_backends())
    matrix = random_csc(10, 10, 0.3, seed=1)
    emu, proc = engine_pair(matrix, 2)
    assert isinstance(emu.backend, EmulatedBackend)
    if FAULTS_ENV:  # "process" is rerouted to the chaos backend under faults
        from repro.parallel.faults import ChaosBackend
        assert isinstance(proc.backend, ChaosBackend)
    else:
        assert isinstance(proc.backend, ProcessBackend)
    proc.close()


class ReversedBackend(ExecutionBackend):
    """A backend that implements only ``run``: strips last to first."""

    name = "reversed"

    def __init__(self, *, strips, shard_ctx, dtype, workers=0, scheme="row"):
        self.strips = list(strips)
        self.shard_ctx = shard_ctx
        self.scheme = scheme
        self.workspaces = [SpMSpVWorkspace(s.nrows, dtype=dtype)
                           for s in self.strips]

    def run(self, op, args):
        out = {}
        for s in reversed(range(len(self.strips))):
            out[s] = run_strip(op, s, self.strips[s], self.shard_ctx,
                               self.workspaces[s], args)
        return [out[s] for s in range(len(self.strips))]


@pytest.mark.parametrize("scheme", ["row", "column"])
def test_backend_implementing_only_run_matches_emulated(scheme, monkeypatch):
    """One method is the whole contract: a registered backend with only
    ``run`` serves ``multiply``, looped and fused ``multiply_many`` and
    column partials bit-identically to the emulated backend."""
    monkeypatch.setattr(backends, "_BACKENDS", dict(backends._BACKENDS))
    register_backend("reversed", ReversedBackend)
    matrix, x_sorted, x_unsorted, mask = problem(3, seed=410)
    xs = [x_sorted, x_unsorted, SparseVector.empty(x_sorted.n)]
    with make_sharded_engine(matrix, 3,
                             default_context(num_threads=2, backend="emulated"),
                             scheme=scheme) as emu, \
         make_sharded_engine(matrix, 3,
                             default_context(num_threads=2, backend="reversed"),
                             scheme=scheme) as rev:
        assert isinstance(rev.backend, ReversedBackend)
        for semiring in CORE_SEMIRINGS:
            for mode in MASK_MODES:
                kw = mask_kwargs(mode, mask)
                for x in (x_sorted, x_unsorted):
                    label = f"{scheme}/{semiring.name}/{mode}/sorted={x.sorted}"
                    assert_results_match(emu.multiply(x, semiring=semiring, **kw),
                                         rev.multiply(x, semiring=semiring, **kw),
                                         label)
        # the column layout has no fused path
        for block_mode in ("fused", "looped") if scheme == "row" else ("looped",):
            for masks in (None, [mask, None, row_map(mask)]):
                refs = emu.multiply_many(xs, masks=masks, block_mode=block_mode)
                outs = rev.multiply_many(xs, masks=masks, block_mode=block_mode)
                for i, (ref, out) in enumerate(zip(refs, outs)):
                    assert_results_match(
                        ref, out, f"{scheme}/{block_mode}/masks="
                                  f"{masks is not None}/vec{i}")


def test_unknown_backend_is_rejected():
    matrix = random_csc(10, 10, 0.3, seed=1)
    with pytest.raises(NotSupportedError):
        ShardedEngine(matrix, 2, default_context(backend="quantum"))


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_process_backend_bit_identical_across_kernel_grid(shards):
    """P x kernels x semirings x mask modes x input/output sortedness.

    Sorted outputs must be byte-identical as stored; unsorted outputs are
    compared as (row, value) pairs, exactly the contract of the emulated
    equivalence suite.  Merged records (and so every work metric) must match
    field for field.
    """
    assert check_kernel_grid(shards)["inline_calls"] == 0


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_in_parent_calls_bit_identical_across_kernel_grid(shards,
                                                          production_floor):
    """The same grid at the production floor, where these small calls all
    skip the pool and run in the parent."""
    stats = check_kernel_grid(shards)
    assert stats["calls"] == 0 and stats["inline_calls"] > 0


def check_kernel_grid(shards):
    """Drive the kernel grid through one engine pair; the process comm stats."""
    matrix, x_sorted, x_unsorted, mask = problem(shards, seed=100 + shards)
    with ShardedEngine(matrix, shards,
                       default_context(num_threads=2, backend="emulated"),
                       algorithm="bucket") as emu, \
         ShardedEngine(matrix, shards,
                       default_context(num_threads=2, backend="process",
                                       backend_workers=2),
                       algorithm="bucket") as proc:
        for kernel in KERNELS:
            semirings = ALL_SEMIRINGS if kernel == "bucket" else CORE_SEMIRINGS
            for semiring in semirings:
                for mode in MASK_MODES:
                    kw = mask_kwargs(mode, mask)
                    ref_kw = reference_kwargs(mode, mask)
                    for x in (x_sorted, x_unsorted):
                        x = as_semiring_input(x, semiring)
                        label = f"{kernel}/{semiring.name}/{mode}/P={shards}" \
                                f"/sorted={x.sorted}"
                        ref = emu.multiply(x, algorithm=kernel,
                                           semiring=semiring, **ref_kw)
                        out = proc.multiply(x, algorithm=kernel,
                                            semiring=semiring, **kw)
                        assert_same_pairs(ref.vector, out.vector, label)
                        assert record_signature(ref.record) == \
                            record_signature(out.record), label
                    # forced sorted output: identical storage bytes
                    xs = as_semiring_input(x_sorted, semiring)
                    ref = emu.multiply(xs, algorithm=kernel, semiring=semiring,
                                       sorted_output=True, **ref_kw)
                    out = proc.multiply(xs, algorithm=kernel, semiring=semiring,
                                        sorted_output=True, **kw)
                    assert_results_match(ref, out, label + "/sorted_out")
                    assert out.vector.sorted
        return proc.backend.comm_stats()


@pytest.mark.parametrize("shards", [1, 3, 7])
def test_process_backend_fused_and_looped_blocks_bit_identical(shards):
    """multiply_many across backends: fused and looped, masked and unmasked."""
    assert check_blocks(shards)["inline_calls"] == 0


@pytest.mark.parametrize("shards", [1, 3, 7])
def test_in_parent_fused_and_looped_blocks_bit_identical(shards, production_floor):
    """The same blocks at the production floor, all run in the parent."""
    stats = check_blocks(shards)
    assert stats["calls"] == 0 and stats["inline_calls"] > 0


def check_blocks(shards):
    """Fused and looped blocks through one engine pair; process comm stats."""
    matrix, x_sorted, x_unsorted, mask = problem(shards, seed=300 + shards)
    xs = [x_sorted, x_unsorted, SparseVector.empty(x_sorted.n)]
    emu, proc = engine_pair(matrix, shards)
    try:
        for block_mode in ("fused", "looped"):
            bitmap = row_map(mask)
            for masks in (None, [mask] * len(xs), [mask, None, mask],
                          [bitmap, None, bitmap]):
                label = f"{block_mode}/P={shards}" \
                        f"/masks={masks is not None and type(masks[0]).__name__}"
                refs = emu.multiply_many(xs, masks=masks, block_mode=block_mode)
                outs = proc.multiply_many(xs, masks=masks, block_mode=block_mode)
                assert len(refs) == len(outs) == len(xs)
                for i, (ref, out) in enumerate(zip(refs, outs)):
                    assert_same_pairs(ref.vector, out.vector, f"{label}/vec{i}")
                    assert record_signature(ref.record) == \
                        record_signature(out.record), f"{label}/vec{i}"
        return proc.backend.comm_stats()
    finally:
        proc.close()


def test_process_backend_handles_empty_strips_and_vectors():
    """P > nrows (empty strips live on real workers) and empty inputs."""
    matrix = random_csc(6, 9, 0.3, seed=7)
    emu, proc = engine_pair(matrix, matrix.nrows + 5)
    try:
        x = SparseVector.full_like_indices(9, np.arange(4), 1.0)
        assert_results_match(emu.multiply(x, sorted_output=True),
                             proc.multiply(x, sorted_output=True), "P>m")
        empty = SparseVector.empty(9)
        assert_results_match(emu.multiply(empty, sorted_output=True),
                             proc.multiply(empty, sorted_output=True), "empty x")
    finally:
        proc.close()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_process_backend_preserves_value_dtype(dtype):
    matrix = random_csc(30, 28, 0.2, seed=9)
    matrix.data = matrix.data.astype(dtype)
    rng = np.random.default_rng(9)
    x = SparseVector(28, np.sort(rng.choice(28, 8, replace=False)),
                     (rng.random(8) + 0.1).astype(dtype))
    emu, proc = engine_pair(matrix, 3)
    try:
        ref = emu.multiply(x, sorted_output=True)
        out = proc.multiply(x, sorted_output=True)
        assert out.vector.values.dtype == np.dtype(dtype)
        assert_results_match(ref, out, f"dtype={dtype}")
    finally:
        proc.close()


@pytest.mark.parametrize("scheme", ["row", "column"])
def test_auto_is_rejected_before_any_strip_is_dispatched(scheme):
    """"auto" is an unknown kernel name: every entry point raises before a
    strip call reaches the pool (and construction before a pool starts)."""
    matrix = random_csc(40, 40, 0.2, seed=83)
    x = SparseVector.full_like_indices(40, np.arange(10), 1.0)
    ctx = default_context(backend="process", backend_workers=1)
    with pytest.raises(NotSupportedError):
        make_sharded_engine(matrix, 2, ctx, algorithm="auto", scheme=scheme)
    engine = make_sharded_engine(matrix, 2, ctx, scheme=scheme)
    try:
        calls = engine.backend.comm_stats()["calls"]
        with pytest.raises(NotSupportedError):
            engine.multiply(x, algorithm="auto")
        with pytest.raises(NotSupportedError):
            engine.multiply_many([x, x], algorithm="auto")
        assert engine.backend.comm_stats()["calls"] == calls
        assert engine.total_calls == 0
        ref = make_sharded_engine(matrix, 2, default_context(backend="emulated"),
                                  scheme=scheme).multiply(x)
        assert_results_match(ref, engine.multiply(x), "after auto")
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# EngineGroup
# --------------------------------------------------------------------------- #
def test_engine_group_process_backend_matches_emulated():
    matrices = {name: random_csc(40 + i, 36, 0.2, seed=50 + i)
                for i, name in enumerate(["a", "b", "c"])}
    x = SparseVector.full_like_indices(36, np.arange(0, 36, 4), 1.0)
    with EngineGroup(matrices, default_context(backend="emulated"),
                     shards=2) as emu_group, \
         EngineGroup(matrices,
                     default_context(backend="process", backend_workers=2),
                     shards=2) as proc_group:
        for key in matrices:
            assert_same_pairs(emu_group.multiply(key, x).vector,
                              proc_group.multiply(key, x).vector, f"{key}")
            refs = emu_group.multiply_many(key, [x, x], sorted_output=True)
            outs = proc_group.multiply_many(key, [x, x], sorted_output=True)
            for i, (ref, out) in enumerate(zip(refs, outs)):
                assert_bit_identical(ref.vector, out.vector, f"{key} many {i}")


def test_engine_group_close_shuts_down_process_pools():
    matrix = random_csc(20, 20, 0.2, seed=60)
    group = EngineGroup([matrix],
                        default_context(backend="process", backend_workers=1),
                        shards=2)
    backend = group.engine(0).backend
    segments = backend.segment_names()
    assert all(os.path.exists("/dev/shm/" + name) for name in segments)
    group.close()
    group.close()  # idempotent
    assert backend.closed
    assert not any(os.path.exists("/dev/shm/" + name) for name in segments)


# --------------------------------------------------------------------------- #
# fault paths
# --------------------------------------------------------------------------- #
def test_worker_exception_propagates_with_strip_id_through_multiply():
    matrix = random_csc(30, 30, 0.2, seed=70)
    x = SparseVector.full_like_indices(30, np.arange(5), 1.0)
    emu, proc = engine_pair(matrix, 3)
    try:
        with pytest.raises(TypeError) as proc_err:
            proc.multiply(x, bogus_kernel_kwarg=True)
        with pytest.raises(TypeError) as emu_err:
            emu.multiply(x, bogus_kernel_kwarg=True)
        # both backends annotate the failing strip (lowest strip raises first)
        assert getattr(proc_err.value, "strip_id", None) == 0
        assert getattr(emu_err.value, "strip_id", None) == 0
        # the pool survives a kernel exception: next call runs normally
        assert_results_match(emu.multiply(x, sorted_output=True),
                             proc.multiply(x, sorted_output=True),
                             "after exception")
    finally:
        proc.close()


def test_worker_exception_propagates_through_engine_group():
    matrix = random_csc(25, 25, 0.25, seed=72)
    x = SparseVector.full_like_indices(25, np.arange(4), 1.0)
    with EngineGroup([matrix],
                     default_context(backend="process", backend_workers=1),
                     shards=2) as group:
        with pytest.raises(TypeError) as err:
            group.multiply(0, x, bogus_kernel_kwarg=1)
        assert getattr(err.value, "strip_id", None) == 0
        with pytest.raises(TypeError) as err:
            group.multiply_many(0, [x, x], bogus_kernel_kwarg=1)
        assert getattr(err.value, "strip_id", None) == 0
        assert group.multiply(0, x).vector.nnz >= 0  # the pool survived


def test_invalid_operands_raise_parent_side_before_any_worker_runs():
    matrix = random_csc(30, 30, 0.2, seed=73)
    engine = ShardedEngine(matrix, 2,
                           default_context(backend="process",
                                           backend_workers=1))
    try:
        with pytest.raises(DimensionError):
            engine.multiply(SparseVector.full_like_indices(30, [0], 1.0),
                            mask=SparseVector.full_like_indices(29, [0], 1.0))
        for bad_map in malformed_maps(30).values():
            with pytest.raises(DimensionError):
                engine.multiply(SparseVector.full_like_indices(30, [0], 1.0),
                                mask=bad_map)
        with pytest.raises(Exception):
            engine.multiply(SparseVector.full_like_indices(17, [0], 1.0))
    finally:
        engine.close()


def test_unregistered_semiring_is_rejected_with_clear_message():
    matrix = random_csc(20, 20, 0.3, seed=74)
    x = SparseVector.full_like_indices(20, np.arange(3), 1.0)
    custom = Semiring("my_custom", np.add, 0.0, lambda a, b: a * b)
    engine = ShardedEngine(matrix, 2,
                           default_context(backend="process",
                                           backend_workers=1))
    try:
        with pytest.raises(NotSupportedError):
            engine.multiply(x, semiring=custom)
        # the pool is still healthy afterwards
        assert engine.multiply(x).vector.nnz >= 0
    finally:
        engine.close()


@pytest.mark.skipif(FAULTS_ENV, reason="chaos resilience defaults absorb "
                    "worker deaths instead of raising BackendError")
def test_killed_worker_raises_backend_error_once_then_recovers():
    matrix = random_csc(40, 36, 0.2, seed=75)
    x = SparseVector.full_like_indices(36, np.arange(8), 1.0)
    emu, proc = engine_pair(matrix, 3)
    try:
        ref = emu.multiply(x, sorted_output=True)
        assert_bit_identical(ref.vector,
                             proc.multiply(x, sorted_output=True).vector, "warm")
        victim = proc.backend.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:  # wait until the kill lands
            try:
                os.kill(victim, 0)
            except OSError:
                break
            time.sleep(0.01)
        with pytest.raises(BackendError):
            proc.multiply(x)
        # exactly one failure: the respawned pool serves the next call
        out = proc.multiply(x, sorted_output=True)
        assert_bit_identical(ref.vector, out.vector, "after recovery")
        assert victim not in proc.backend.worker_pids()
    finally:
        proc.close()


@pytest.mark.skipif(FAULTS_ENV, reason="chaos resilience defaults absorb "
                    "worker deaths instead of raising BackendError")
def test_killed_worker_mid_gather_clears_queue_and_recovers():
    """A worker killed while a call is in flight (between the backend's
    submit and gather halves) fails that call once; the pool recovers, and
    the failed call is released once its late replies drain."""
    matrix = random_csc(30, 30, 0.2, seed=76)
    x = SparseVector.full_like_indices(30, np.arange(6), 1.0)
    engine = ShardedEngine(matrix, 2,
                           default_context(backend="process",
                                           backend_workers=2))
    try:
        ref = engine.multiply(x, sorted_output=True)  # warm pool
        backend = engine.backend
        victim = backend.worker_pids()[0]
        os.kill(victim, signal.SIGSTOP)  # it cannot answer before it dies
        token = backend.submit(
            "multiply", algorithm="bucket", x=x, semiring=PLUS_TIMES,
            sorted_output=True, mask_slices=[None, None],
            mask_complement=False, kwargs={})
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(BackendError):
            backend.gather(token)
        assert_bit_identical(ref.vector,
                             engine.multiply(x, sorted_output=True).vector,
                             "after recovery")
        assert backend.comm_stats()["inflight"] == 0
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# shared-memory lifecycle
# --------------------------------------------------------------------------- #
def test_close_releases_every_shared_memory_segment():
    matrix = random_csc(30, 30, 0.2, seed=80)
    engine = ShardedEngine(matrix, 4,
                           default_context(backend="process",
                                           backend_workers=2))
    engine.multiply(SparseVector.full_like_indices(30, np.arange(5), 1.0))
    segments = engine.backend.segment_names()
    # indptr/indices/data per strip, plus the input slab arena and one
    # output slab arena per strip (idle arenas hold exactly one segment).
    assert len(segments) == 3 * 4 + 1 + 4
    assert all(os.path.exists("/dev/shm/" + name) for name in segments)
    engine.close()
    assert not any(os.path.exists("/dev/shm/" + name) for name in segments)
    engine.close()  # idempotent
    with pytest.raises(BackendError):
        engine.multiply(SparseVector.full_like_indices(30, np.arange(5), 1.0))


def test_garbage_collected_engine_releases_shared_memory():
    """Like the PR 3 detach test: no reachable engine, no leaked segment."""
    matrix = random_csc(25, 25, 0.25, seed=81)
    engine = ShardedEngine(matrix, 3,
                           default_context(backend="process",
                                           backend_workers=1))
    engine.multiply(SparseVector.full_like_indices(25, np.arange(4), 1.0))
    segments = engine.backend.segment_names()
    assert all(os.path.exists("/dev/shm/" + name) for name in segments)
    del engine
    gc.collect()
    assert not any(os.path.exists("/dev/shm/" + name) for name in segments)


def test_workspace_stats_reflect_remote_reuse():
    matrix = random_csc(40, 40, 0.2, seed=82)
    xs = [SparseVector.full_like_indices(40, np.arange(lo, lo + 10), 1.0)
          for lo in (0, 5)]
    # the workers' block buffers serve these 4 fused batches; only
    # (re)allocations a call triggers count against reuse
    engine = ShardedEngine(matrix, 2,
                           default_context(backend="process", backend_workers=1),
                           algorithm="bucket")
    try:
        before = engine.workspace_stats()
        assert before["acquisitions"] == 0  # fresh-workspace placeholder
        assert before["allocations"] == 0
        for _ in range(4):
            engine.multiply_many(xs, block_mode="fused")
        after = engine.workspace_stats()
        assert after["acquisitions"] > 0
        assert after["allocations_saved"] > 0  # genuine reuse
        assert after["block_capacity"] > 0
        summary = engine.summary()
        assert summary["shards"] == 2 and summary["calls"] == 8
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# algorithms across backends (the shards= entry points)
# --------------------------------------------------------------------------- #
def test_algorithms_match_across_backends():
    from repro.algorithms import bfs, bfs_multi_source, pagerank, pagerank_block
    from repro.graphs.generators import erdos_renyi

    matrix = erdos_renyi(120, 4.0, seed=33)
    ctx = default_context(num_threads=2, backend="emulated")
    pool = ctx.with_backend("process")

    ref = bfs(matrix, 0, ctx, shards=3)
    out = bfs(matrix, 0, pool, shards=3)
    assert np.array_equal(ref.levels, out.levels)
    assert np.array_equal(ref.parents, out.parents)
    out.engine.close()

    ref_ms = bfs_multi_source(matrix, [0, 5, 11], ctx, shards=3,
                              block_mode="fused")
    out_ms = bfs_multi_source(matrix, [0, 5, 11], pool, shards=3,
                              block_mode="fused")
    assert np.array_equal(ref_ms.levels, out_ms.levels)
    assert np.array_equal(ref_ms.parents, out_ms.parents)
    assert ref_ms.iterations_per_source == out_ms.iterations_per_source
    out_ms.engine.close()

    ref_pr = pagerank(matrix, ctx, shards=2, restrict=np.arange(80))
    out_pr = pagerank(matrix, pool, shards=2, restrict=np.arange(80))
    assert np.array_equal(ref_pr.scores, out_pr.scores)
    assert ref_pr.num_iterations == out_pr.num_iterations
    out_pr.engine.close()

    seeds = [np.arange(3), np.arange(40, 44)]
    ref_pb = pagerank_block(matrix, seeds, ctx, shards=2, block_mode="fused")
    out_pb = pagerank_block(matrix, seeds, pool, shards=2, block_mode="fused")
    assert np.array_equal(ref_pb.scores, out_pb.scores)
    assert ref_pb.iterations_per_source == out_pb.iterations_per_source
    out_pb.engine.close()


# --------------------------------------------------------------------------- #
# comm plane: slab overflow, broadcast-once blocks
# --------------------------------------------------------------------------- #
def test_output_slab_overflow_regrows_and_stays_bit_identical(monkeypatch):
    """Tiny slabs force the overflow -> re-grant -> flush retry on every call;
    the results must still match the emulated backend bit for bit, and the
    grant hint must adapt so a repeated frontier stops overflowing."""
    monkeypatch.setenv("REPRO_BACKEND_INPUT_SLAB", "256")
    monkeypatch.setenv("REPRO_BACKEND_OUTPUT_SLAB", "256")
    matrix, x_sorted, x_unsorted, mask = problem(3, seed=90)
    emu, proc = engine_pair(matrix, 3)
    try:
        for label, x, kw in [("sorted", x_sorted, {}),
                             ("unsorted", x_unsorted, {}),
                             ("masked", x_sorted, {"mask": mask})]:
            assert_results_match(emu.multiply(x, **kw),
                                 proc.multiply(x, **kw),
                                 f"overflow/{label}")
        stats = proc.backend.comm_stats()
        assert stats["output_overflows"] > 0   # flush-retry path was taken
        assert stats["output_grows"] > 0       # 256-byte arenas had to grow
        assert stats["input_grows"] > 0
        before = proc.backend.comm_stats()["output_overflows"]
        assert_results_match(emu.multiply(x_sorted), proc.multiply(x_sorted),
                             "post-grow repeat")
        if not FAULTS_ENV:  # chaos overflow storms re-clamp the grant hints
            # same frontier again: the adapted hint grants enough up front
            assert proc.backend.comm_stats()["output_overflows"] == before
    finally:
        proc.close()


def test_fused_block_is_broadcast_once_through_the_input_slab():
    """A fused multiply_many packs the block's arrays into the input arena
    exactly once per call — workers share the region via descriptors instead
    of receiving per-strip pickled copies."""
    from repro.core.workspace import packed_nbytes
    from repro.formats.vector_block import SparseVectorBlock

    matrix, x_sorted, x_unsorted, _mask = problem(2, seed=91)
    rng = np.random.default_rng(91)
    xs = [x_sorted, x_unsorted,
          SparseVector.full_like_indices(
              x_sorted.n, np.sort(rng.choice(x_sorted.n, 8, replace=False)),
              2.0)]
    emu, proc = engine_pair(matrix, 4)
    try:
        before = proc.backend.comm_stats()
        ref = emu.multiply_many(xs, block_mode="fused")
        out = proc.multiply_many(xs, block_mode="fused")
        for i, (r, o) in enumerate(zip(ref, out)):
            assert_results_match(r, o, f"fused block vec {i}")
        after = proc.backend.comm_stats()
        _meta, arrays = SparseVectorBlock.from_vectors(xs).pack_arrays()
        # one packed copy of the block — not one per worker or per strip
        assert after["slab_bytes_in"] - before["slab_bytes_in"] == \
            packed_nbytes(arrays)
        assert after["calls"] - before["calls"] == 1
    finally:
        proc.close()


# --------------------------------------------------------------------------- #
# exception transport fallbacks
# --------------------------------------------------------------------------- #
def _raise_on_load():
    raise RuntimeError("refusing to be reconstructed")


class _UnloadableError(Exception):
    """Pickles fine worker-side; reconstruction raises parent-side."""

    def __reduce__(self):
        return (_raise_on_load, ())


def _kernel_raises_unpicklable(matrix, x, ctx, **kwargs):
    class LocalError(Exception):  # local class: pickle.dumps fails
        pass
    raise LocalError("cannot leave the worker")


def _kernel_raises_unloadable(matrix, x, ctx, **kwargs):
    raise _UnloadableError()


def test_unpicklable_worker_exceptions_degrade_to_backend_error():
    """Both halves of the exception-transport guard: dumps failing worker-side
    and loads failing parent-side each surface a BackendError carrying the
    strip id and the worker traceback, and the pool stays usable."""
    from multiprocessing import get_all_start_methods

    from repro.core.dispatch import register_algorithm

    if os.environ.get("REPRO_BACKEND_START",
                      "fork" if "fork" in get_all_start_methods()
                      else "spawn") != "fork":
        pytest.skip("test kernels reach the workers by fork inheritance")
    from repro.core import dispatch

    register_algorithm("_test_raise_unpicklable", _kernel_raises_unpicklable,
                       overwrite=True)
    register_algorithm("_test_raise_unloadable", _kernel_raises_unloadable,
                       overwrite=True)
    matrix, x_sorted, _x_unsorted, _mask = problem(2, seed=93)
    proc = ShardedEngine(matrix, 2,
                         default_context(backend="process",
                                         backend_workers=2),
                         algorithm="bucket")
    try:
        with pytest.raises(BackendError, match="unpicklable") as ei:
            proc.multiply(x_sorted, algorithm="_test_raise_unpicklable")
        assert ei.value.strip_id == 0
        assert "LocalError" in "".join(getattr(ei.value, "__notes__", []))
        with pytest.raises(BackendError,
                           match="could not be reconstructed") as ei:
            proc.multiply(x_sorted, algorithm="_test_raise_unloadable")
        assert "UnloadableError" in "".join(getattr(ei.value, "__notes__", []))
        assert proc.multiply(x_sorted).nnz >= 0  # pool survived both
    finally:
        proc.close()
        dispatch._REGISTRY.pop("_test_raise_unpicklable", None)
        dispatch._REGISTRY.pop("_test_raise_unloadable", None)


class _Unpicklable:
    """A kernel argument the pool cannot ship: pickling it raises."""

    def __reduce__(self):
        raise pickle.PicklingError("stays in the parent")


def _kernel_tagged(matrix, x, ctx=None, *, tag=None, **kwargs):
    from repro.core.dispatch import get_algorithm

    return get_algorithm("bucket")(matrix, x, ctx, **kwargs)


def test_call_failing_before_dispatch_is_released():
    """A call whose kernel kwargs do not pickle raises in the parent before
    any worker sees it.  It must leave nothing registered: no call in
    flight, every slab region back, and a later compaction goes through."""
    from repro.core import dispatch
    from repro.core.dispatch import register_algorithm
    from repro.graphs.generators import erdos_renyi

    dispatch.get_algorithm("bucket")  # populate the lazy registry first
    register_algorithm("_test_tagged", _kernel_tagged, overwrite=True)
    matrix = erdos_renyi(60, 4.0, seed=1)
    x = SparseVector.full_like_indices(60, np.arange(0, 60, 7), 1.0)
    try:
        with ShardedEngine(matrix, 2,
                           default_context(backend="process", backend_workers=2),
                           algorithm="bucket") as engine:
            with pytest.raises(pickle.PicklingError):
                engine.multiply(x, algorithm="_test_tagged", tag=_Unpicklable())
            assert engine.backend.comm_stats()["inflight"] == 0
            assert all(a.outstanding == 0 for a in engine.backend._arenas)
            engine.apply_updates([0], [1], [2.0])
            assert engine.compact()
            ref = make_sharded_engine(engine.effective_matrix(), 2,
                                      default_context(backend="emulated"))
            assert_bit_identical(ref.multiply(x, sorted_output=True).vector,
                                 engine.multiply(x, sorted_output=True).vector,
                                 "after compaction")
    finally:
        dispatch._REGISTRY.pop("_test_tagged", None)


def test_call_interrupted_after_send_keeps_its_regions_until_the_reply():
    """An interrupt that lands once a call message is on the pipe abandons
    the call: the worker still reads its input region and writes its output
    region, so both stay held until its late reply drains."""
    from repro.graphs.generators import erdos_renyi

    matrix = erdos_renyi(60, 4.0, seed=1)
    x = SparseVector.full_like_indices(60, np.arange(0, 60, 7), 1.0)
    with ShardedEngine(matrix, 2,
                       default_context(backend="process", backend_workers=2),
                       algorithm="bucket") as engine:
        backend = engine.backend
        send = backend._send

        def send_then_interrupt(w, payload):
            send(w, payload)
            del backend._send  # interrupt only the first send
            raise KeyboardInterrupt

        backend._send = send_then_interrupt
        with pytest.raises(KeyboardInterrupt):
            engine.multiply(x)
        assert backend.comm_stats()["inflight"] == 1
        assert any(a.outstanding for a in backend._arenas)
        ref = make_sharded_engine(matrix, 2, default_context(backend="emulated"))
        assert_bit_identical(ref.multiply(x, sorted_output=True).vector,
                             engine.multiply(x, sorted_output=True).vector,
                             "after the interrupted call")
        assert backend.comm_stats()["inflight"] == 0
        assert all(a.outstanding == 0 for a in backend._arenas)
