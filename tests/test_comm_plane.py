"""Unit tests for the zero-copy comm plane (PR 6).

The process backend's data plane is built from three pieces in
``repro.core.workspace`` — :class:`SharedSlab` (one named segment),
:class:`SlabArena` (owner-side bump allocator with generations) and
:class:`SlabReader` (attach-side generation-pruned cache) — plus the
``pack_arrays``/``unpack_arrays`` region codec and the block transport
(:meth:`SparseVectorBlock.pack_arrays`).  The differential suite proves the
assembled plane is bit-identical to in-process execution; this file pins the
pieces' contracts directly, failure paths first:

* a ``create`` that fails midway must not leak a ``/dev/shm`` block,
* ``close``/``unlink``/``destroy`` are idempotent,
* attaching to a vanished segment raises ``BackendError``, not a bare
  ``FileNotFoundError``,
* arenas recycle in place under FIFO use, grow geometrically otherwise, and
  retire superseded generations as soon as they drain.
"""

import os

import numpy as np
import pytest

from repro.core.workspace import (
    SharedSlab,
    SlabArena,
    SlabReader,
    _SLAB_ALIGN,
    pack_arrays,
    packed_nbytes,
    unpack_arrays,
)
from repro.errors import BackendError
from repro.formats import SparseVector
from repro.formats.vector_block import SparseVectorBlock


def shm_names():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platforms
        pytest.skip("no /dev/shm on this platform")


# --------------------------------------------------------------------------- #
# SharedSlab
# --------------------------------------------------------------------------- #
def test_slab_create_attach_round_trip():
    src = np.arange(37, dtype=np.int64)
    owner = SharedSlab.create(src)
    try:
        name, shape, dtype = owner.meta
        worker = SharedSlab.attach(name, shape, dtype)
        assert np.array_equal(worker.array, src)
        assert worker.array.dtype == src.dtype
        owner.array[3] = 99  # same physical pages, both directions
        assert worker.array[3] == 99
        worker.close()
    finally:
        owner.close()
        owner.unlink()


def test_slab_create_failure_midway_leaks_no_segment(monkeypatch):
    """If viewing/copying fails after the segment was allocated, the segment
    must be released before the exception propagates."""
    before = shm_names()

    def boom(*args, **kwargs):
        raise RuntimeError("mapping failed")

    monkeypatch.setattr(np, "frombuffer", boom)
    with pytest.raises(RuntimeError, match="mapping failed"):
        SharedSlab.create(np.arange(10, dtype=np.float64))
    with pytest.raises(RuntimeError, match="mapping failed"):
        SharedSlab.alloc(4096)
    monkeypatch.undo()
    assert shm_names() == before


def test_slab_close_and_unlink_are_idempotent():
    slab = SharedSlab.create(np.ones(5))
    name = slab.name
    slab.close()
    slab.close()  # second close: no error
    assert not os.path.exists("/dev/shm/" + name) or True  # unlink not yet run
    slab.unlink()
    slab.unlink()  # second unlink: no error
    assert not os.path.exists("/dev/shm/" + name)


def test_attach_to_vanished_segment_raises_backend_error():
    slab = SharedSlab.create(np.arange(4, dtype=np.float64))
    name, shape, dtype = slab.meta
    slab.close()
    slab.unlink()
    with pytest.raises(BackendError, match="vanished"):
        SharedSlab.attach(name, shape, dtype)


def test_try_close_reports_lingering_views_then_succeeds():
    slab = SharedSlab.alloc(256)
    view = slab.array[:16]  # exported pointer keeps the mapping open
    assert slab.try_close() is False
    del view
    assert slab.try_close() is True
    slab.unlink()


# --------------------------------------------------------------------------- #
# pack/unpack codec
# --------------------------------------------------------------------------- #
def test_pack_unpack_round_trip_mixed_dtypes():
    arrays = [np.arange(11, dtype=np.int64),
              np.linspace(0, 1, 7),
              np.array([], dtype=np.float64),
              np.array([True, False, True]),
              np.arange(6, dtype=np.float32).reshape(2, 3)]
    region = np.zeros(packed_nbytes(arrays), dtype=np.uint8)
    descs = pack_arrays(region, arrays)
    assert all(offset % _SLAB_ALIGN == 0 for offset, _, _ in descs)
    out = unpack_arrays(region, descs)
    for src, dst in zip(arrays, out):
        assert np.array_equal(src, dst)
        assert src.dtype == dst.dtype and src.shape == dst.shape
    # the views are zero-copy: writing the region shows through
    region[descs[0][0]:descs[0][0] + 8] = 0
    assert out[0][0] == 0


def test_pack_arrays_rejects_undersized_region():
    arrays = [np.arange(100, dtype=np.float64)]
    region = np.zeros(64, dtype=np.uint8)
    with pytest.raises(ValueError, match="cannot hold"):
        pack_arrays(region, arrays)


# --------------------------------------------------------------------------- #
# SlabArena
# --------------------------------------------------------------------------- #
def test_arena_recycles_in_place_under_fifo_use():
    arena = SlabArena("t0", 256)
    try:
        seen_offsets = set()
        for _ in range(10):  # 10 x 192B through a 256B arena: no growth
            region = arena.reserve(192)
            seen_offsets.add((region[0], region[1]))
            arena.release(region)
        assert arena.grow_count == 0
        assert arena.generation == 0
        assert seen_offsets == {(0, 0)}  # same bytes recycled every call
        assert len(arena.segment_names()) == 1
    finally:
        arena.destroy()


def test_arena_grows_geometrically_and_retires_old_generations():
    arena = SlabArena("t1", 256)
    try:
        held = arena.reserve(192)
        names0 = set(arena.segment_names())
        grown = arena.reserve(192)  # does not fit behind `held`: new gen
        assert arena.grow_count == 1 and arena.generation == 1
        assert grown[0] == 1
        assert arena.capacity == 512
        assert len(arena.segment_names()) == 2  # old gen still has `held`
        arena.release(grown)
        arena.release(held)  # last region of gen 0 drains -> retired
        remaining = set(arena.segment_names())
        assert len(remaining) == 1 and not (remaining & names0)
        assert arena.outstanding == 0
        big = arena.reserve(10_000)  # oversized reservation: capacity jumps
        assert arena.capacity >= 10_000
        arena.release(big)
    finally:
        arena.destroy()


def test_arena_ref_view_and_reader_round_trip():
    arena = SlabArena("t2", 1 << 12)
    reader = SlabReader()
    try:
        payload = np.arange(50, dtype=np.int64)
        region = arena.reserve(packed_nbytes([payload]))
        descs = pack_arrays(arena.view(region), [payload])
        remote = unpack_arrays(reader.region(arena.ref(region)), descs)[0]
        assert np.array_equal(remote, payload)
        # same generation: the cached attachment is reused, not re-attached
        region2 = arena.reserve(packed_nbytes([payload]))
        first = reader._slabs["t2"][1]
        reader.region(arena.ref(region2))
        assert reader._slabs["t2"][1] is first
        arena.release(region)
        arena.release(region2)
    finally:
        reader.close()
        arena.destroy()


def test_reader_reattaches_on_newer_generation_and_sweeps_graveyard():
    arena = SlabArena("t3", 256)
    reader = SlabReader()
    try:
        held = arena.reserve(192)
        view = reader.region(arena.ref(held))  # attach gen 0
        grown = arena.reserve(192)  # forces gen 1
        new_view = reader.region(arena.ref(grown))  # re-attach, old -> graveyard
        assert reader._slabs["t3"][0] == 1
        assert view.nbytes == 192 and new_view.nbytes == 192
        assert len(reader._graveyard) == 1  # gen-0 mapping pinned by `view`
        del view, new_view  # the lingering views drain; next re-attach sweeps
        arena.release(held)
        arena.release(grown)
        bigger = arena.reserve(4096)  # forces gen 2 -> re-attach -> sweep
        reader.region(arena.ref(bigger))
        assert reader._graveyard == []
        arena.release(bigger)
    finally:
        reader.close()
        arena.destroy()


def test_arena_destroy_is_idempotent_and_releases_segments():
    arena = SlabArena("t4", 512)
    region = arena.reserve(100)
    names = arena.segment_names()
    assert all(os.path.exists("/dev/shm/" + n) for n in names)
    arena.destroy()
    arena.destroy()  # idempotent
    assert not any(os.path.exists("/dev/shm/" + n) for n in names)
    with pytest.raises(BackendError, match="closed"):
        arena.reserve(64)
    arena.release(region)  # releasing after destroy is a harmless no-op


# --------------------------------------------------------------------------- #
# block transport
# --------------------------------------------------------------------------- #
def test_vector_block_pack_arrays_round_trips_through_a_region():
    rng = np.random.default_rng(7)
    xs = [SparseVector(40, np.sort(rng.choice(40, 9, replace=False)),
                       rng.random(9) + 0.5),
          SparseVector(40, rng.choice(40, 5, replace=False),
                       rng.random(5) + 0.5, sorted=False, check=False),
          SparseVector(40, np.array([], dtype=np.int64),
                       np.array([], dtype=np.float64))]
    block = SparseVectorBlock.from_vectors(xs)
    meta, arrays = block.pack_arrays()
    region = np.zeros(packed_nbytes(arrays), dtype=np.uint8)
    descs = pack_arrays(region, arrays)
    rebuilt = SparseVectorBlock.from_arrays(meta, unpack_arrays(region, descs))
    assert np.array_equal(rebuilt.indices, block.indices)
    assert np.array_equal(rebuilt.values, block.values)
    assert np.array_equal(rebuilt.member, block.member)
    assert rebuilt.sorted_flags == block.sorted_flags
    for a, b in zip(rebuilt.positions, block.positions):
        assert np.array_equal(a, b)
    for src, out in zip(xs, rebuilt.to_vectors()):
        assert np.array_equal(src.indices, out.indices)
        assert np.array_equal(src.values, out.values)
        assert src.sorted == out.sorted


# --------------------------------------------------------------------------- #
# abandoning a call under in-flight faults: segment/region accounting
# --------------------------------------------------------------------------- #
def _process_backend(shards=4, workers=2, seed=3):
    """A bare ProcessBackend (no chaos rerouting) plus a matching frontier."""
    import signal  # noqa: F401  (used by the tests below)

    from conftest import random_csc, random_sparse_vector
    from repro.formats.partition import row_split
    from repro.parallel.backends import ProcessBackend
    from repro.parallel.context import default_context

    matrix = random_csc(60, 55, 0.2, seed=seed)
    x = random_sparse_vector(55, 14, seed=seed)
    split = row_split(matrix, shards)
    ctx = default_context(backend="process", backend_workers=workers)
    backend = ProcessBackend(strips=split.strips, shard_ctx=ctx,
                             dtype=np.float64, workers=workers)
    return backend, x


def _submit(backend, x):
    from repro.semiring import PLUS_TIMES

    return backend.submit(
        "multiply", algorithm="bucket", x=x, semiring=PLUS_TIMES,
        sorted_output=True, mask_slices=[None] * backend.num_strips,
        mask_complement=False, kwargs={})


def _drain_until(backend, predicate, timeout=10.0):
    import time

    end = time.monotonic() + timeout
    while time.monotonic() < end:
        backend._drain_ready()
        if predicate():
            return True
        time.sleep(0.005)
    return False


def test_abandon_with_dead_worker_releases_all_regions():
    """Abandoning a token whose worker was killed mid-call must release the
    input region and every granted output region, including the dead
    worker's — nothing can ever write them again."""
    import signal

    backend, x = _process_backend()
    try:
        token = _submit(backend, x)
        os.kill(backend.worker_pids()[0], signal.SIGKILL)
        assert _drain_until(
            backend, lambda: token.lost or backend._workers[0] is None)
        backend._finalize(token)
        # surviving workers' late replies drain; all regions come home
        assert _drain_until(
            backend,
            lambda: all(a.outstanding == 0 for a in backend._arenas))
        assert token.finalized or token.abandoned
    finally:
        backend.close()
    # close() unlinked every segment regardless of the mid-call death
    for name in list(backend.segment_names()):
        assert not os.path.exists("/dev/shm/" + name)


def test_abandon_mid_overflow_flush_releases_all_regions():
    """Abandoning while a strip is mid grow->flush round-trip must release
    the re-granted regions once the flush reply drains."""
    backend, x = _process_backend(seed=5)
    try:
        # clamp the grants so every strip overflows and takes the flush path
        backend._grant_hint["multiply"] = [64] * backend.num_strips
        token = _submit(backend, x)
        # wait until at least one worker is mid-flush (or already done —
        # on a fast box the flush may complete between drains; both orders
        # must end with zero outstanding regions)
        _drain_until(backend, lambda: token.flushing or token.complete)
        backend._finalize(token)
        assert _drain_until(
            backend,
            lambda: all(a.outstanding == 0 for a in backend._arenas))
        assert backend.comm_stats()["output_overflows"] >= 1
    finally:
        backend.close()


def test_abandon_then_close_with_unfinished_call_leaks_no_segment():
    """Even if replies never drain (we close immediately after abandoning),
    close() owns every segment and unlinks them all."""
    backend, x = _process_backend(seed=7)
    token = _submit(backend, x)
    names = list(backend.segment_names())
    backend._finalize(token)
    backend.close()
    for name in names:
        assert not os.path.exists("/dev/shm/" + name)
