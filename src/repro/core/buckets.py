"""Buckets, the ESTIMATE-BUCKETS step (Algorithm 2) and the row merge (Step 2).

Step 1 of the SpMSpV-bucket algorithm stores every scaled matrix entry
``(i, x(j)·A(i,j))`` in the bucket responsible for row ``i``
(``bucket = ⌊i·nb/m⌋``).  Several threads may target the same bucket, so the
paper first runs the ESTIMATE-BUCKETS pass (Algorithm 2) to count, for every
(thread, bucket) pair, how many entries the thread will insert.  An exclusive
prefix sum of those counts then gives each thread a private, disjoint write
region inside each bucket, making Step 1 lock-free.

:class:`BucketStore` is preallocated once (its capacity is bounded by
``nnz(A)``, §III-A "Memory allocation") and reused across multiplications.

Step 2 merges each bucket's entries by row through a sparse accumulator
(SPA): each row's addends are folded into its slot in stream order, in time
linear in the entries, and only the unique rows are ordered.
:func:`merge_rows` is that merge for every kernel in the package, with a
per-call SPA, and :func:`merge_work` its per-thread work counts, derived from
the segment sizes the merge reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._typing import INDEX_DTYPE, as_index_array
from ..errors import ReproError
from ..machine.cache import estimate_scatter_misses
from ..parallel.metrics import COL, NUM_FIELDS
from ..semiring import Semiring


def bucket_of_rows(rows: np.ndarray, num_buckets: int, num_rows: int) -> np.ndarray:
    """Vectorized ``⌊i·nb/m⌋`` destination-bucket computation (Algorithm 1, line 5)."""
    rows = as_index_array(rows)
    if num_rows <= 0:
        return np.zeros(len(rows), dtype=INDEX_DTYPE)
    return (rows * num_buckets) // num_rows


#: digit width of the staged radix argsort: 15 bits keeps every digit value
#: inside a *signed* int16, the widest integer key NumPy still radix-sorts
_DIGIT_BITS = 15
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1


def stable_row_argsort(rows: np.ndarray, num_rows: int,
                       staging: np.ndarray | None = None) -> np.ndarray:
    """Stable argsort of row ids, radix-sorted by staged 15-bit digits.

    NumPy dispatches ``kind="stable"`` to a linear-time radix sort only for
    integer keys of at most 16 bits; wider keys fall back to timsort — the
    O(p·log p) comparison sorting the bucket algorithm's merges exist to
    avoid.  Row ids are bounded by the matrix's row count, so they are
    sorted as one int16 digit when ``num_rows`` fits in 15 bits, or as two
    staged LSB radix passes (low digit, then high digit of the partially
    ordered keys) up to 30 bits; beyond that the plain stable argsort is
    used.  A stable sort's permutation is unique, so every path returns
    exactly ``np.argsort(rows, kind="stable")``.

    ``staging`` is an optional reusable int16 scratch array of at least
    ``len(rows)`` elements (see
    :attr:`repro.core.workspace.BlockBuffers.sort_keys`).
    """
    p = len(rows)
    if p <= 1:
        return np.arange(p, dtype=np.intp)
    if num_rows > (1 << (2 * _DIGIT_BITS)):
        return np.argsort(rows, kind="stable")
    if staging is None or len(staging) < p:
        staging = np.empty(p, dtype=np.int16)
    digits = staging[:p]
    if num_rows <= (1 << _DIGIT_BITS):
        digits[:] = rows
        return np.argsort(digits, kind="stable")
    digits[:] = rows & _DIGIT_MASK
    order = np.argsort(digits, kind="stable")
    digits[:] = rows[order] >> _DIGIT_BITS
    return order[np.argsort(digits, kind="stable")]


def bucket_row_ranges(num_buckets: int, num_rows: int) -> List[Tuple[int, int]]:
    """The half-open row range covered by each bucket (inverse of :func:`bucket_of_rows`)."""
    ranges = []
    for k in range(num_buckets):
        lo = -(-k * num_rows // num_buckets)           # ceil(k*m/nb)
        hi = -(-(k + 1) * num_rows // num_buckets)     # ceil((k+1)*m/nb)
        ranges.append((lo, hi))
    return ranges


#: :func:`merge_rows` accumulates into a SPA over the whole row space while
#: the row space is at most this many times the stream length; a sparser
#: (hypersparse) stream is renumbered densely first, so that its SPA spans
#: only the rows it touches
SPA_ROWS_PER_ENTRY = 2


@functools.lru_cache(maxsize=None)
def _spa_seed(add: np.ufunc, identity, dtype: np.dtype):
    """The value a SPA slot of ``dtype`` starts from, or None if there is none.

    A slot may start from the semiring's identity only where folding an
    addend into it gives that addend bit for bit: ``add`` must map two
    ``dtype`` operands to ``dtype`` (``np.logical_or`` on floats does not)
    and ``dtype`` must hold the identity exactly (an integer holds no
    ``inf``; a bool holds no ``-inf``).  A floating-point plus starts from
    ``-0.0``, IEEE 754's exact additive identity (``0.0 + -0.0`` is
    ``+0.0``).  Without a seed, each slot starts from its first addend.
    """
    probe = np.zeros(1, dtype=dtype)
    if add(probe, probe).dtype != dtype:
        return None
    with np.errstate(invalid="ignore", over="ignore"):
        seed = np.array(identity).astype(dtype)
    if seed != identity:
        return None
    if add is np.add and dtype.kind in "fc":
        return -probe[0]
    return seed[()]


def _first_addends(slots: np.ndarray, space: int) -> np.ndarray:
    """Stream position of each slot's first addend (``len(slots)`` if none)."""
    first = np.full(space, len(slots), dtype=np.intp)
    np.minimum.at(first, slots, np.arange(len(slots)))
    return first


@functools.lru_cache(maxsize=256)
def _bucket_bounds(num_buckets: int, num_rows: int) -> np.ndarray:
    """Each bucket's first row, then ``num_rows`` (read-only, shared)."""
    bounds = np.array([lo for lo, _hi in bucket_row_ranges(num_buckets, num_rows)]
                      + [num_rows], dtype=INDEX_DTYPE)
    bounds.flags.writeable = False
    return bounds


def merge_rows(rows: np.ndarray, values: np.ndarray, semiring: Semiring,
               num_rows: int, *,
               sorted_output: bool = True, num_buckets: int = 1,
               staging: Optional[np.ndarray] = None):
    """Step 2 of Algorithm 1: combine a gathered (row, value) stream by row.

    The merge is a SPA built per call (Algorithm 1, lines 11-18): each row's
    value is the left fold of its addends in stream order, starting from its
    first addend (``semiring.accumulate_at`` into slots seeded by
    :func:`_spa_seed`, or by each slot's first addend where the dtype holds
    no exact seed).  That is what
    :func:`~repro.core.spmspv_bucket.spmspv_bucket_reference` computes, and
    every kernel merges through here, so two kernels that feed the same
    stream get the same bits.  While ``num_rows`` is at most
    :data:`SPA_ROWS_PER_ENTRY` times the stream length the SPA spans the row
    space, and one ``np.bincount`` yields the unique rows already ascending;
    a hypersparse stream is renumbered densely by one stable row sort
    (:func:`stable_row_argsort`, which ``staging`` is passed on to) and
    accumulated over its unique rows only.  Buckets are ascending row
    ranges, so each bucket is a contiguous run of the unique rows.

    Returns ``(uind, merged, sizes, uniques)``: the unique rows and their
    values (of ``values``' dtype) in output order (rows ascending; with
    ``sorted_output`` false, buckets ascending and each bucket's rows in
    first-touch order, the unsorted variant's order), and each of the
    ``num_buckets`` buckets' entry and unique-row counts for
    :func:`merge_work`.
    """
    p = len(rows)
    if p == 0:
        empty = np.zeros(num_buckets, dtype=INDEX_DTYPE)
        return rows, values, empty, empty
    seed = _spa_seed(semiring.add, semiring.add_identity, values.dtype)
    bounds = _bucket_bounds(num_buckets, num_rows) if num_buckets > 1 else None
    # slots[k] is the SPA slot of addend vals[k]; heads the position in vals
    # of each touched slot's first addend, listed in the order of `touched`;
    # before[b] the entries in rows below bounds[b]
    if num_rows <= SPA_ROWS_PER_ENTRY * p:
        # the SPA spans the row space: every row is its own slot
        counts = np.bincount(rows, minlength=num_rows)
        uind = np.flatnonzero(counts)
        slots, vals, touched, space = rows, values, uind, uind[-1] + 1
        first = heads = (_first_addends(rows, num_rows)[uind]
                         if seed is None or not sorted_output else None)
        if bounds is not None:
            before = np.zeros(num_rows + 1, dtype=INDEX_DTYPE)
            np.cumsum(counts, out=before[1:])
            before = before[bounds]
    else:
        # hypersparse: renumber the rows densely in stable row order, which
        # keeps each row's addends in stream order
        order = stable_row_argsort(rows, num_rows, staging=staging)
        sr = rows[order]
        head = np.empty(p, dtype=bool)
        head[0] = True
        np.not_equal(sr[1:], sr[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        uind = sr[heads]
        slots = head.cumsum()
        slots -= 1
        vals, touched, space, first = values[order], slice(None), len(uind), order[heads]
        if bounds is not None:
            before = np.searchsorted(sr, bounds)
    if seed is not None:
        spa = np.full(space, seed, dtype=values.dtype)
        semiring.accumulate_at(spa, slots, vals)
    else:
        spa = np.empty(space, dtype=values.dtype)
        spa[touched] = vals[heads]
        rest = np.ones(p, dtype=bool)
        rest[heads] = False
        semiring.accumulate_at(spa, slots[rest], vals[rest])
    merged = spa[touched]
    if bounds is None:
        sizes, uniques = np.array([p]), np.array([len(uind)])
    else:
        cuts = np.searchsorted(uind, bounds)
        sizes, uniques = before[1:] - before[:-1], cuts[1:] - cuts[:-1]
    if not sorted_output:
        # rank unique rows by (bucket, position of their first addend)
        if num_buckets > 1:
            first = bucket_of_rows(uind, num_buckets, num_rows) * (p + 1) + first
        perm = np.argsort(first, kind="stable")
        uind, merged = uind[perm], merged[perm]
    return uind, merged, sizes, uniques


def merge_work(sizes: Sequence[int], uniques: Sequence[int],
               items_per_thread: Sequence[Sequence[int]], *,
               sorted_output, num_rows: int, num_buckets: int,
               cache_kb: float) -> np.ndarray:
    """Each thread's Step-2 work, from the segments it merges.

    Segment ``s`` (one bucket, or one bucket of one vector of a block)
    holds ``sizes[s]`` entries over ``uniques[s]`` distinct rows;
    ``items_per_thread`` is the schedule's assignment of segments to
    threads, and ``sorted_output`` one flag or one flag per segment.  A
    segment costs one SPA stamp and one SPA visit per entry (Algorithm 1,
    lines 11-18), one addition per entry that meets its row again, one
    append per unique row, a radix sort of its unique rows when the output
    is sorted (§III-B: a linear integer sort, two moves per element), and
    the scattered SPA writes into the bucket's ⌈m/nb⌉-row span, which is
    what keeps the merge cache resident (§III).  Returns the thread rows of
    the phase's record matrix, ``(len(items_per_thread), NUM_FIELDS)``.
    """
    sizes = np.asarray(sizes).tolist()
    uniques = np.asarray(uniques).tolist()
    flags = (list(sorted_output) if isinstance(sorted_output, (list, np.ndarray))
             else [sorted_output] * len(sizes))
    span_rows = max(1, -(-num_rows // num_buckets))
    work = np.zeros((len(items_per_thread), NUM_FIELDS), dtype=np.int64)
    for tid, items in enumerate(items_per_thread):
        entries = uniq = ordered = missed = 0
        for s in items:
            entries += sizes[s]
            uniq += uniques[s]
            if flags[s]:
                ordered += uniques[s]
            missed += estimate_scatter_misses(2 * sizes[s], span_rows, cache_kb)
        row = work[tid]
        row[COL.spa_inits] = entries
        row[COL.spa_updates] = entries
        row[COL.additions] = entries - uniq
        row[COL.buffer_writes] = uniq
        row[COL.sort_elements] = 2 * ordered
        row[COL.cache_line_misses] = missed
    return work


@dataclass
class BucketOffsets:
    """Output of ESTIMATE-BUCKETS: per-(thread, bucket) counts and write offsets."""

    #: counts[i, k] = number of entries thread i will insert into bucket k (Boffset of Alg. 2)
    counts: np.ndarray
    #: bucket_starts[k] = position where bucket k starts in the flat bucket store
    bucket_starts: np.ndarray
    #: write_starts[i, k] = first flat position thread i writes inside bucket k
    write_starts: np.ndarray

    @property
    def num_threads(self) -> int:
        return self.counts.shape[0]

    @property
    def num_buckets(self) -> int:
        return self.counts.shape[1]

    @property
    def total_entries(self) -> int:
        return int(self.counts.sum())

    def bucket_sizes(self) -> np.ndarray:
        """Total entries per bucket (summed over threads)."""
        return self.counts.sum(axis=0).astype(INDEX_DTYPE)

    def bucket_slice(self, k: int) -> Tuple[int, int]:
        """Flat half-open range ``[lo, hi)`` occupied by bucket ``k``."""
        lo = int(self.bucket_starts[k])
        hi = int(self.bucket_starts[k + 1]) if k + 1 < len(self.bucket_starts) \
            else int(self.total_entries)
        return lo, hi


def compute_offsets(counts: np.ndarray) -> BucketOffsets:
    """Turn per-(thread, bucket) counts into disjoint write regions.

    The layout places buckets contiguously (bucket 0 first) and, inside each
    bucket, thread regions in thread order — matching the prefix-sum
    construction the paper uses to avoid synchronization.
    """
    counts = np.asarray(counts, dtype=INDEX_DTYPE)
    if counts.ndim != 2:
        raise ReproError("counts must be a (threads x buckets) matrix")
    per_bucket = counts.sum(axis=0)
    bucket_starts = np.zeros(len(per_bucket) + 1, dtype=INDEX_DTYPE)
    np.cumsum(per_bucket, out=bucket_starts[1:])
    # exclusive prefix over threads within each bucket
    within = np.zeros_like(counts)
    if counts.shape[0] > 1:
        within[1:, :] = np.cumsum(counts[:-1, :], axis=0)
    write_starts = within + bucket_starts[:-1][None, :]
    return BucketOffsets(counts=counts, bucket_starts=bucket_starts[:-1],
                         write_starts=write_starts)


class BucketStore:
    """Preallocated storage for the (row index, scaled value) pairs of all buckets."""

    __slots__ = ("capacity", "rows", "values", "offsets", "filled")

    def __init__(self, capacity: int, dtype=np.float64):
        self.capacity = int(capacity)
        self.rows = np.empty(self.capacity, dtype=INDEX_DTYPE)
        self.values = np.empty(self.capacity, dtype=dtype)
        self.offsets: BucketOffsets | None = None
        self.filled = 0

    def ensure_capacity(self, needed: int, dtype=None) -> bool:
        """Grow/retype the backing arrays; returns True if a reallocation happened."""
        if needed > self.capacity or (dtype is not None
                                      and np.dtype(dtype) != self.values.dtype):
            if needed > self.capacity:  # geometric: a rising need reallocates rarely
                self.capacity = max(needed, 2 * self.capacity)
            self.rows = np.empty(self.capacity, dtype=INDEX_DTYPE)
            self.values = np.empty(self.capacity,
                                   dtype=dtype if dtype is not None else self.values.dtype)
            return True
        return False

    def attach_offsets(self, offsets: BucketOffsets, dtype=None) -> None:
        """Bind the ESTIMATE-BUCKETS result for the upcoming multiplication."""
        self.ensure_capacity(offsets.total_entries, dtype=dtype)
        self.offsets = offsets
        self.filled = offsets.total_entries

    def write_thread_entries(self, thread_id: int, bucket_ids: np.ndarray,
                             rows: np.ndarray, values: np.ndarray) -> int:
        """Write one thread's entries into its private regions (lock-free insertion).

        ``bucket_ids[k]`` is the destination bucket of entry ``k``.  Entries
        are laid out bucket-by-bucket inside the thread's disjoint regions, so
        no other thread can touch the same positions.  Returns the number of
        entries written.
        """
        if self.offsets is None:
            raise ReproError("attach_offsets must be called before writing entries")
        if len(bucket_ids) == 0:
            return 0
        order = np.argsort(bucket_ids, kind="stable")
        b_sorted = bucket_ids[order]
        counts = np.bincount(b_sorted, minlength=self.offsets.num_buckets).astype(INDEX_DTYPE)
        expected = self.offsets.counts[thread_id]
        if not np.array_equal(counts, expected):
            raise ReproError(
                "bucket counts differ from the ESTIMATE-BUCKETS preprocessing result; "
                "lock-free insertion would race")
        first_pos = np.zeros(self.offsets.num_buckets, dtype=INDEX_DTYPE)
        np.cumsum(counts[:-1], out=first_pos[1:])
        local_rank = np.arange(len(b_sorted), dtype=INDEX_DTYPE) - first_pos[b_sorted]
        dest = self.offsets.write_starts[thread_id][b_sorted] + local_rank
        self.rows[dest] = rows[order]
        self.values[dest] = values[order]
        return int(len(dest))

    def bucket_entries(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return views of the (rows, values) stored in bucket ``k``."""
        if self.offsets is None:
            raise ReproError("no offsets attached")
        lo, hi = self.offsets.bucket_slice(k)
        return self.rows[lo:hi], self.values[lo:hi]

    def __repr__(self) -> str:  # pragma: no cover
        nb = self.offsets.num_buckets if self.offsets is not None else 0
        return f"BucketStore(capacity={self.capacity}, filled={self.filled}, buckets={nb})"
