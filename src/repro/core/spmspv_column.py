"""Column-split SpMSpV: per-strip partial products plus a reduction phase.

The paper's work-efficiency argument (§II-F, Table II) is that row-split
SpMSpV forces every thread to scan the whole input vector, while
**column-split** is work-efficient: the matrix is cut into ``t`` vertical
strips, each thread reads only its private slice of ``x``, and the partial
outputs are merged in a synchronized reduction phase.  This module provides
the two halves of that scheme as pure functions:

* :func:`column_partial` — everything a strip can do privately: gather the
  DCSC columns selected by its frontier slice, early-mask the scattered
  rows against the shared row map, scale under the semiring, and row-sort
  the stream.  The result is an
  **unreduced** ``(rows, values, gpos)`` stream — ``gpos`` is each addend's
  position in the *global* frontier's storage order.
* :func:`reduce_partials` — the reduction phase: concatenate the strip
  streams in the order of the monolithic kernel's single gather stream and
  combine them with the row merge every kernel uses
  (:func:`~repro.core.buckets.merge_rows`, a per-call SPA).

Shipping unreduced streams is what makes the scheme bit-identical to the
monolithic engine: the merge folds each row's addends left to right in
stream order, so the same stream gives the same bits.  Had each strip pre-reduced its own
addends, the parent would have to re-reduce partial sums — a different
association of a floating-point sum, and a different answer in the last ulp.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._typing import INDEX_DTYPE
from ..formats.dcsc import DCSCMatrix
from ..formats.sparse_vector import SparseVector
from ..parallel.context import ExecutionContext
from ..parallel.metrics import (
    COL,
    NUM_FIELDS,
    ExecutionRecord,
    PhaseRecord,
    WorkMetrics,
    merge_records,
)
from ..semiring import Semiring
from .buckets import merge_rows, stable_row_argsort
from .vector_ops import finalize_output, mask_keep

__all__ = ["ColumnPartial", "column_partial", "reduce_partials",
           "slice_frontier", "merge_partial_records"]


@dataclass
class ColumnPartial:
    """One strip's unreduced contribution to a column-split SpMSpV.

    ``rows``/``vals``/``gpos`` are parallel arrays sorted by ``rows``
    (stably, so equal rows keep their gather order); ``gpos[k]`` is the
    position of addend ``k``'s frontier entry in the **global** input
    vector's storage, which is what lets the reduction phase restore the
    monolithic addend order even for unsorted frontiers.
    """

    nrows: int
    rows: np.ndarray
    vals: np.ndarray
    gpos: np.ndarray
    record: ExecutionRecord
    info: Dict = field(default_factory=dict)


def slice_frontier(x: SparseVector, col_ranges: Sequence[Tuple[int, int]]
                   ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Slice a frontier by column range: ``(local_idx, values, gpos)`` per strip.

    Each strip sees only the frontier entries that fall inside its column
    range — the private ``x`` slice of the paper's column-split scheme —
    with indices rebased to the strip's local column space and ``gpos``
    recording each entry's position in the global storage order.
    """
    slices = []
    for lo, hi in col_ranges:
        if x.nnz == 0 or lo >= hi:
            slices.append((np.empty(0, dtype=INDEX_DTYPE),
                           np.empty(0, dtype=x.dtype),
                           np.empty(0, dtype=INDEX_DTYPE)))
            continue
        sel = (x.indices >= lo) & (x.indices < hi)
        gpos = np.flatnonzero(sel).astype(INDEX_DTYPE)
        slices.append(((x.indices[gpos] - lo).astype(INDEX_DTYPE),
                       x.values[gpos], gpos))
    return slices


#: a strip partial's phase table: gather, scale and row-sort on one thread
_PARTIAL_PHASES = tuple((name, True, 1, 1) for name in ("gather", "scale", "strip_sort"))


def column_partial(strip: DCSCMatrix,
                   xs_idx: np.ndarray, xs_vals: np.ndarray, xs_gpos: np.ndarray,
                   ctx: ExecutionContext, *,
                   semiring: Semiring,
                   out_dtype,
                   algorithm: str = "bucket",
                   bitmap: Optional[np.ndarray] = None,
                   mask_complement: bool = False) -> ColumnPartial:
    """The private (pre-reduction) half of one column strip's SpMSpV.

    Gathers the row ids of the strip's DCSC columns selected by the
    frontier slice, early-masks them against the dense row map ``bitmap``
    (whole rows drop, so surviving addend streams are untouched — the same
    argument that keeps early masking bit-identical in the monolithic
    kernels), reads values for the survivors only, scales under the semiring
    through ``out_dtype`` (the *global* ``result_type(A, x)``, fixed by the
    caller so every strip casts exactly like the monolithic stream), and
    stably row-sorts.  ``algorithm`` names the kernel family in the
    record's label; the gather/mask/scale/sort core here is
    the part all five kernels share — their differences (SPA vs heap vs
    bucket merge) live entirely in the merge, which column-split moves into
    the parent's reduction phase.
    """
    t_start = time.perf_counter()
    m = strip.nrows
    f = int(len(xs_idx))
    # the record's matrix: each phase's thread row, then its serial row
    counts = np.zeros((2 * len(_PARTIAL_PHASES), NUM_FIELDS), dtype=np.int64)
    gather, scale, sort = counts[0], counts[2], counts[4]

    if f and strip.nnz:
        positions, src = strip.gather_positions(xs_idx)
        rows = strip.ir[positions]
        gather[COL.vector_reads] = f
        gather[COL.colptr_reads] = f
        gather[COL.matrix_nnz_reads] = len(rows)
        keep = mask_keep(bitmap, rows, complement=mask_complement)
        if keep is not None:
            gather[COL.bitmap_probes] = len(rows)
            live = np.flatnonzero(keep)
            rows, positions, src = rows[live], positions[live], src[live]
        vals = strip.num[positions]
    else:
        rows = np.empty(0, dtype=INDEX_DTYPE)
        vals = np.empty(0, dtype=strip.dtype)
        src = np.empty(0, dtype=INDEX_DTYPE)
    total = len(rows)

    if total:
        scaled = np.asarray(semiring.multiply(vals, xs_vals[src])) \
            .astype(out_dtype, copy=False)
        gpos = xs_gpos[src].astype(INDEX_DTYPE, copy=False)
        scale[COL.multiplications] = total
        scale[COL.buffer_writes] = total
        order = stable_row_argsort(rows, m)
        rows, scaled, gpos = rows[order], scaled[order], gpos[order]
        sort[COL.sort_elements] = total
        sort[COL.output_writes] = total
    else:
        scaled = np.empty(0, dtype=out_dtype)
        gpos = np.empty(0, dtype=INDEX_DTYPE)

    record = ExecutionRecord(
        f"column_partial:{algorithm}", 1, table=_PARTIAL_PHASES, counts=counts,
        info={"m": m, "n": strip.ncols, "nnz_A": strip.nnz, "f": f, "df": total},
        wall_time_s=time.perf_counter() - t_start)
    return ColumnPartial(nrows=m, rows=rows, vals=scaled, gpos=gpos,
                         record=record, info={"df": total})


def reduce_partials(partials: Sequence[ColumnPartial], *,
                    semiring: Semiring, nrows: int, x_sorted: bool,
                    out_dtype) -> Tuple[SparseVector, WorkMetrics]:
    """The reduction phase: merge strip streams into the output vector.

    The merge must see each row's addends in the monolithic kernel's order,
    ascending global frontier position (``gpos``).  A sorted frontier's
    strips cover ascending column ranges, so their concatenated streams
    already hold every row's addends in that order; an unsorted frontier's
    streams are stably sorted by ``gpos`` first.  The row merge then folds
    every row's addends into a per-call SPA in that order, exactly once.

    Returns the finalized output (identities pruned; masking already
    happened strip-side) and the reduction phase's work metrics:
    ``sync_events`` charges the per-strip synchronization the paper's
    Table II attributes to column-split.
    """
    streams = [p for p in partials if len(p.rows)]
    if not streams:
        empty = SparseVector(nrows, np.empty(0, dtype=INDEX_DTYPE),
                             np.empty(0, dtype=out_dtype), sorted=True, check=False)
        return finalize_output(empty, semiring), WorkMetrics(sync_events=len(partials))
    rows = np.concatenate([p.rows for p in streams])
    vals = np.concatenate([p.vals for p in streams]).astype(out_dtype, copy=False)
    if not x_sorted:
        by_pos = np.argsort(np.concatenate([p.gpos for p in streams]), kind="stable")
        rows, vals = rows[by_pos], vals[by_pos]
    uind, merged = merge_rows(rows, vals, semiring, nrows)[:2]
    y = SparseVector(nrows, uind.astype(INDEX_DTYPE),
                     np.asarray(merged).astype(out_dtype, copy=False),
                     sorted=True, check=False)
    return finalize_output(y, semiring), WorkMetrics(
        sync_events=len(partials), sort_elements=len(rows),
        additions=len(rows) - len(uind), output_writes=len(uind))


def merge_partial_records(records: Sequence[ExecutionRecord], *,
                          algorithm: str, num_strips: int,
                          reduce_metrics: WorkMetrics,
                          wall_time_s: float = 0.0) -> ExecutionRecord:
    """Combine per-strip partial records into one column-split record.

    Per-strip phases of the same name become one parallel phase with a
    thread row per strip that has it, holding that strip's total
    (:func:`~repro.parallel.metrics.merge_records`); the reduction phase is
    appended as a serial phase behind one barrier (the synchronization
    point the row-split scheme avoids and column-split pays for).
    """
    names = list(dict.fromkeys(entry[0] for rec in records for entry in rec.table))
    merged = merge_records(
        records, names, barriers=0, algorithm=f"column[{num_strips}]:{algorithm}",
        num_threads=max(num_strips, 1), wall_time_s=wall_time_s,
        info={"df": sum(rec.info.get("df", 0) for rec in records), "scheme": "column"})
    merged.add_phase(PhaseRecord("reduce", parallel=False,
                                 serial_metrics=reduce_metrics, barriers=1))
    return merged
