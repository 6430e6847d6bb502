"""Persistent per-matrix workspaces: the §III-A "Memory allocation" optimization.

The paper preallocates the bucket storage once and reuses it across the
hundreds of SpMSpV calls an iterative graph algorithm performs ("all memory
needed ... allocated at the beginning ... reused"), instead of paying an
allocation per multiplication.  :class:`SpMSpVWorkspace` holds the buffers
a kernel writes, and only those:

* a :class:`~repro.core.buckets.BucketStore` for the bucket algorithm's
  scaled-entry scatter (Step 1 of Algorithm 1), which the kernel fills at
  ``num_threads > 1``;
* the fused block kernel's :class:`BlockBuffers`, built on its first call.

Every kernel merges its gathered entries through
:func:`~repro.core.buckets.merge_rows`, whose sparse accumulator is built per
call and is not a workspace buffer, so the one-thread bucket pass, the column
split and the baselines write no workspace buffer at all.

A workspace is bound to a row dimension ``m`` (the matrix it serves); its
buffers regrow geometrically or change dtype lazily, and every acquisition
/ reallocation is counted so :mod:`repro.analysis.reporting` can report how
much allocation traffic the reuse saved.
"""

from __future__ import annotations

from multiprocessing import shared_memory as _shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._typing import INDEX_DTYPE
from ..errors import BackendError, DimensionMismatchError
from .buckets import BucketStore


class SharedSlab:
    """A named, shared-memory-backed array slab (one ndarray, one segment).

    This is the unit the process backend ships strip data with: the owning
    process :meth:`create`\\ s a slab per strip array (CSC ``indptr`` /
    ``indices`` / ``data``), workers :meth:`attach` by name and wrap the
    same physical pages in a zero-copy ndarray view, so a strip is paid for
    once at engine build no matter how many calls the workers serve.
    Lifecycle: every process that opened a slab calls :meth:`close`; the
    owner additionally calls :meth:`unlink` (idempotent) to release the
    segment — :class:`~repro.parallel.backends.ProcessBackend` does both on
    shutdown and from a gc finalizer, so no ``/dev/shm`` block outlives the
    engine.
    """

    __slots__ = ("shm", "array", "owner", "_meta")

    def __init__(self, shm: _shared_memory.SharedMemory, array: np.ndarray,
                 owner: bool):
        self.shm = shm
        self.array = array
        self.owner = owner
        self._meta = (shm.name, tuple(array.shape), array.dtype.str)

    @classmethod
    def create(cls, array: np.ndarray) -> "SharedSlab":
        """Copy ``array`` into a fresh named segment (size >= 1 byte: empty
        arrays get a minimal segment so their names still round-trip).

        If viewing or copying fails after the segment was allocated, the
        segment is released before the exception propagates — a half-built
        slab never leaks a ``/dev/shm`` block.
        """
        array = np.ascontiguousarray(array)
        shm = _shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
        try:
            view = np.frombuffer(shm.buf, dtype=array.dtype,
                                 count=array.size).reshape(array.shape)
            view[...] = array
        except BaseException:
            view = None
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            raise
        return cls(shm, view, owner=True)

    @classmethod
    def alloc(cls, nbytes: int) -> "SharedSlab":
        """Allocate a raw zero-initialized byte segment (viewed as ``uint8``).

        This is the constructor the comm-plane arenas use: the segment is a
        blank canvas regions are packed into, not a copy of one array.
        """
        nbytes = max(int(nbytes), 1)
        shm = _shared_memory.SharedMemory(create=True, size=nbytes)
        try:
            view = np.frombuffer(shm.buf, dtype=np.uint8, count=nbytes)
        except BaseException:  # pragma: no cover - mirrors create()
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            raise
        return cls(shm, view, owner=True)

    @classmethod
    def attach(cls, name: str, shape: Sequence[int], dtype: str, *,
               untrack: bool = False) -> "SharedSlab":
        """Attach to an existing segment and view it as ``(shape, dtype)``.

        ``untrack`` unregisters the segment from this process's
        ``resource_tracker``: an attaching worker must not trigger the
        tracker's destroy-on-exit behaviour for a segment the owner is still
        serving (CPython registers on attach as well as on create).

        A segment that no longer exists (its owner unlinked it or died)
        raises :class:`~repro.errors.BackendError` with the segment name —
        attaching is a backend-plumbing operation and its failure mode should
        say so, not surface as a bare ``FileNotFoundError``.
        """
        try:
            shm = _shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            raise BackendError(
                f"shared-memory segment {name!r} has vanished (its owner "
                f"unlinked it or died); the attaching side holds a stale "
                f"reference") from None
        if untrack:
            try:
                from multiprocessing import resource_tracker
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals moved
                pass
        dt = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if len(shape) else 1
        array = np.frombuffer(shm.buf, dtype=dt, count=count).reshape(tuple(shape))
        return cls(shm, array, owner=False)

    @property
    def meta(self) -> Tuple[str, Tuple[int, ...], str]:
        """``(segment name, shape, dtype.str)`` — everything attach() needs."""
        return self._meta

    @property
    def name(self) -> str:
        return self._meta[0]

    def close(self) -> None:
        """Drop this process's view and mapping (idempotent, reference-safe)."""
        self.array = None
        try:
            self.shm.close()
        except BufferError:  # a caller still holds a view; the fd stays open
            pass

    def try_close(self) -> bool:
        """Like :meth:`close`, but report whether the mapping actually closed.

        Callers that *expect* lingering views (a :class:`SlabReader`
        retiring a superseded generation while the old call's vectors are
        still in scope) use this to retry later instead of abandoning the
        mapping to a noisy ``SharedMemory.__del__``.
        """
        self.array = None
        try:
            self.shm.close()
        except BufferError:
            return False
        return True

    def unlink(self) -> None:
        """Release the segment itself (owner side; idempotent)."""
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


#: byte alignment of every array packed into an arena region (cache line)
_SLAB_ALIGN = 64


def _align_up(nbytes: int) -> int:
    return (int(nbytes) + _SLAB_ALIGN - 1) & ~(_SLAB_ALIGN - 1)


def packed_nbytes(arrays: Sequence[np.ndarray]) -> int:
    """Bytes needed to pack ``arrays`` back to back at slab alignment."""
    return sum(_align_up(np.asarray(a).nbytes) for a in arrays)


def pack_arrays(region: np.ndarray, arrays: Sequence[np.ndarray]
                ) -> List[Tuple[int, str, Tuple[int, ...]]]:
    """Copy ``arrays`` into a ``uint8`` region view; return their descriptors.

    Each descriptor is ``(offset_within_region, dtype.str, shape)`` — exactly
    what :func:`unpack_arrays` needs to rebuild zero-copy views on the other
    side of a shared-memory segment.  Raises ``ValueError`` when the region
    is too small (callers size regions with :func:`packed_nbytes`).
    """
    descs: List[Tuple[int, str, Tuple[int, ...]]] = []
    offset = 0
    for array in arrays:
        array = np.ascontiguousarray(array)
        end = offset + array.nbytes
        if end > region.nbytes:
            raise ValueError(
                f"region of {region.nbytes} bytes cannot hold "
                f"{packed_nbytes(arrays)} packed bytes")
        if array.nbytes:
            region[offset:end] = array.view(np.uint8).reshape(-1)
        descs.append((offset, array.dtype.str, tuple(array.shape)))
        offset = _align_up(end)
    return descs


def unpack_arrays(region: np.ndarray,
                  descs: Sequence[Tuple[int, str, Tuple[int, ...]]]
                  ) -> List[np.ndarray]:
    """Rebuild zero-copy array views from :func:`pack_arrays` descriptors."""
    out: List[np.ndarray] = []
    for offset, dtype, shape in descs:
        dt = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if len(shape) else 1
        nbytes = count * dt.itemsize
        view = region[offset:offset + nbytes].view(dt).reshape(tuple(shape))
        out.append(view)
    return out


class SlabArena:
    """Owner-side bump allocator over a chain of shared-memory segments.

    This is the growth/ring API of the process backend's zero-copy comm
    plane: per call, the parent :meth:`reserve`\\ s a region (for the packed
    frontier going out, or as a per-strip output grant workers write into),
    ships the region's transportable :meth:`ref`, and :meth:`release`\\ s it
    once the call's data has been consumed.  Allocation is a bump cursor
    that resets to 0 whenever the current segment has no outstanding
    regions — with the FIFO consumption pattern of pipelined calls the same
    bytes are recycled call after call.  When a reservation does not fit, the
    arena grows **geometrically** into a fresh segment (a new *generation*);
    superseded generations are retired (closed + unlinked) as soon as their
    last outstanding region is released, so steady-state footprint is one
    segment.  Attach-side, :class:`SlabReader` caches one attachment per
    arena and re-attaches when a ref carries a newer generation.
    """

    __slots__ = ("arena_id", "capacity", "generation", "grow_count",
                 "bytes_reserved", "_segments", "_outstanding", "_cursor",
                 "_closed")

    def __init__(self, arena_id: str, initial_bytes: int = 1 << 16):
        self.arena_id = arena_id
        self.capacity = max(_align_up(initial_bytes), _SLAB_ALIGN)
        self.generation = 0
        self.grow_count = 0
        self.bytes_reserved = 0
        self._segments: Dict[int, SharedSlab] = {0: SharedSlab.alloc(self.capacity)}
        self._outstanding: Dict[int, int] = {0: 0}
        self._cursor = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    def reserve(self, nbytes: int) -> Tuple[int, int, int]:
        """Reserve a region of >= ``nbytes``; returns ``(gen, offset, size)``."""
        if self._closed:
            raise BackendError(f"arena {self.arena_id!r} is closed")
        size = max(_align_up(nbytes), _SLAB_ALIGN)
        gen = self.generation
        if self._cursor + size > self.capacity:
            if self._outstanding[gen] == 0 and size <= self.capacity:
                self._cursor = 0  # segment fully consumed: recycle in place
            else:
                new_cap = max(self.capacity * 2, size)
                self.generation = gen = gen + 1
                self.grow_count += 1
                self._segments[gen] = SharedSlab.alloc(new_cap)
                self._outstanding[gen] = 0
                self.capacity = new_cap
                self._cursor = 0
                self._retire()
        offset = self._cursor
        self._cursor += size
        self._outstanding[gen] += 1
        self.bytes_reserved += size
        return (gen, offset, size)

    def release(self, region: Tuple[int, int, int]) -> None:
        """Return a region to the arena (the FIFO consumption side)."""
        gen = region[0]
        if self._closed or gen not in self._outstanding:
            return
        self._outstanding[gen] -= 1
        if self._outstanding[gen] == 0:
            if gen == self.generation:
                self._cursor = 0
            else:
                self._retire()

    def _retire(self) -> None:
        """Unlink superseded generations with no outstanding regions."""
        for gen in [g for g, n in self._outstanding.items()
                    if n == 0 and g != self.generation]:
            slab = self._segments.pop(gen)
            slab.close()
            slab.unlink()
            del self._outstanding[gen]

    # ------------------------------------------------------------------ #
    def ref(self, region: Tuple[int, int, int]) -> Tuple[str, int, str, int, int, int]:
        """Transportable handle: everything :class:`SlabReader` needs."""
        gen, offset, size = region
        slab = self._segments[gen]
        return (self.arena_id, gen, slab.name, slab.array.nbytes, offset, size)

    def view(self, region: Tuple[int, int, int]) -> np.ndarray:
        """Owner-side ``uint8`` view of a reserved region."""
        gen, offset, size = region
        return self._segments[gen].array[offset:offset + size]

    def segment_names(self) -> List[str]:
        return [slab.name for slab in self._segments.values()]

    @property
    def outstanding(self) -> int:
        return sum(self._outstanding.values())

    def destroy(self) -> None:
        """Close + unlink every segment (idempotent; owner-side shutdown)."""
        if self._closed:
            return
        self._closed = True
        for slab in self._segments.values():
            slab.close()
            slab.unlink()
        self._segments.clear()
        self._outstanding.clear()


class SlabReader:
    """Attach-side cache of arena segments, pruned by generation.

    Workers hold one reader for every arena they see (the engine input arena
    plus their strips' output arenas).  Refs arrive inside control records;
    the reader attaches each arena's segment once and re-attaches only when
    a ref names a newer generation — the parent's allocation is monotone per
    arena, and per-worker pipe FIFO guarantees a worker never sees an older
    generation after a newer one.  Superseded attachments go to a graveyard
    whose closes are retried lazily: at supersession time the worker's own
    frame typically still holds views into the old mapping (the previous
    call's vectors), so an eager ``close()`` would fail with ``BufferError``
    and leave the orphaned ``SharedMemory`` to spray "exception ignored"
    tracebacks from ``__del__`` at gc time.  One call later those views are
    gone and the deferred close succeeds quietly.
    """

    __slots__ = ("_slabs", "_graveyard")

    def __init__(self):
        #: arena_id -> (generation, SharedSlab)
        self._slabs: Dict[str, Tuple[int, SharedSlab]] = {}
        #: superseded attachments whose mappings may still have live views
        self._graveyard: List[SharedSlab] = []

    def _sweep(self) -> None:
        self._graveyard = [slab for slab in self._graveyard
                           if not slab.try_close()]

    def region(self, ref: Tuple[str, int, str, int, int, int]) -> np.ndarray:
        """The ``uint8`` view of a region ref (attaching/pruning as needed)."""
        arena_id, gen, name, seg_nbytes, offset, size = ref
        cached = self._slabs.get(arena_id)
        if cached is None or cached[0] < gen:
            if cached is not None:
                self._graveyard.append(cached[1])
            self._sweep()
            slab = SharedSlab.attach(name, (seg_nbytes,), np.dtype(np.uint8).str)
            self._slabs[arena_id] = (gen, slab)
        else:
            slab = cached[1]
        return slab.array[offset:offset + size]

    def close(self) -> None:
        for _gen, slab in self._slabs.values():
            slab.close()
        self._slabs.clear()
        for slab in self._graveyard:
            slab.close()
        self._graveyard.clear()


class BlockBuffers:
    """Reusable flat buffers for the fused block kernel's (row, vector-id) pairs.

    The fused kernel (:mod:`repro.core.spmspv_block`) expands the shared
    column-union gather into one flat array of (row, vector-id, value) pairs —
    its single masked scatter — and merges them per (vector, bucket) segment.
    These parallel arrays back that expansion; like the
    :class:`~repro.core.buckets.BucketStore` they are allocated once and
    regrown geometrically, so iterative batched workloads (multi-source BFS,
    blocked PageRank) perform zero per-iteration slab allocations.
    ``sort_keys`` (the int16 digit-staging slab of
    :func:`~repro.core.buckets.stable_row_argsort` — NumPy radix-sorts only
    keys this narrow, wider stable sorts fall back to comparison sorting) is
    allocated lazily, the first time a merge asks for it.
    """

    __slots__ = ("capacity", "rows", "values", "sort_keys")

    def __init__(self, capacity: int, dtype=np.float64, *,
                 sort_keys: bool = False):
        self.capacity = max(int(capacity), 1)
        self.rows = np.empty(self.capacity, dtype=INDEX_DTYPE)
        self.values = np.empty(self.capacity, dtype=dtype)
        self.sort_keys = np.empty(self.capacity, dtype=np.int16) if sort_keys else None

    def ensure_capacity(self, needed: int, dtype=None, *,
                        sort_keys: bool = False) -> bool:
        """Grow/retype the backing arrays; returns True if a reallocation happened."""
        if needed > self.capacity or (dtype is not None
                                      and np.dtype(dtype) != self.values.dtype):
            if needed > self.capacity:  # geometric: a rising need reallocates rarely
                self.capacity = max(needed, 2 * self.capacity)
            self.rows = np.empty(self.capacity, dtype=INDEX_DTYPE)
            self.values = np.empty(self.capacity,
                                   dtype=dtype if dtype is not None else self.values.dtype)
            if sort_keys or self.sort_keys is not None:
                self.sort_keys = np.empty(self.capacity, dtype=np.int16)
            return True
        if sort_keys and self.sort_keys is None:
            self.sort_keys = np.empty(self.capacity, dtype=np.int16)
            return True
        return False


class SpMSpVWorkspace:
    """The buffers SpMSpV kernels write, preallocated once per matrix.

    Pass a workspace to any kernel's ``workspace=`` parameter — or, more
    conveniently, run through an :class:`~repro.core.engine.SpMSpVEngine`,
    which owns one workspace and threads it through every call.
    """

    def __init__(self, nrows: int, *, capacity: int = 1, dtype=np.float64):
        self.nrows = int(nrows)
        self.bucket_store = BucketStore(max(int(capacity), 1), dtype=dtype)
        #: block-expansion buffers, created lazily on the first fused block call
        #: so single-vector workloads never pay for them
        self.block: Optional[BlockBuffers] = None
        #: buffer (re)allocations an acquisition triggered (growth, retyping,
        #: the lazy block buffers); the bucket store built above is not counted
        self.allocations = 0
        #: kernel calls served from already-allocated buffers
        self.acquisitions = 0

    # ------------------------------------------------------------------ #
    def check_rows(self, m: int) -> None:
        if m != self.nrows:
            raise DimensionMismatchError(
                f"workspace is bound to {self.nrows} rows but the matrix has {m}")

    def acquire_buckets(self, needed: int, dtype=None) -> BucketStore:
        """The bucket store, grown/retyped if this multiplication needs it."""
        self.acquisitions += 1
        if self.bucket_store.ensure_capacity(needed, dtype=dtype):
            self.allocations += 1
        return self.bucket_store

    def acquire_block(self, needed: int, dtype=None, *,
                      sort_keys: bool = False) -> BlockBuffers:
        """The fused-kernel pair buffers, grown/retyped for this block multiply."""
        self.acquisitions += 1
        if self.block is None:
            self.block = BlockBuffers(needed, dtype=dtype if dtype is not None
                                      else np.float64, sort_keys=sort_keys)
            self.allocations += 1
        elif self.block.ensure_capacity(needed, dtype=dtype,
                                        sort_keys=sort_keys):
            self.allocations += 1
        return self.block

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """Reuse statistics for the reporting layer."""
        saved = max(self.acquisitions - self.allocations, 0)
        return {
            "acquisitions": self.acquisitions,
            "allocations": self.allocations,
            "allocations_saved": saved,
            "reuse_fraction": saved / self.acquisitions if self.acquisitions else 0.0,
            "bucket_capacity": self.bucket_store.capacity,
            "block_capacity": self.block.capacity if self.block is not None else 0,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"SpMSpVWorkspace(nrows={self.nrows}, "
                f"acquisitions={self.acquisitions}, allocations={self.allocations})")
