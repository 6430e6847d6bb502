"""Plain-text reporting helpers for the benchmark harness.

The benchmark modules regenerate the paper's tables and figure series as
monospace text (printed to stdout and written into ``EXPERIMENTS.md`` /
``bench_output.txt``).  These helpers format rows and series consistently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.engine import SpMSpVEngine
    from ..core.workspace import SpMSpVWorkspace


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], *,
                 title: Optional[str] = None, floatfmt: str = "{:.4g}") -> str:
    """Render a list of rows as an aligned monospace table."""
    str_rows: List[List[str]] = []
    for row in rows:
        str_rows.append([floatfmt.format(c) if isinstance(c, float) else str(c) for c in row])
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[object], ys: Sequence[float], *,
                  x_label: str = "x", y_label: str = "y",
                  floatfmt: str = "{:.4g}") -> str:
    """Render one figure series as ``name: (x1, y1) (x2, y2) ...`` pairs."""
    pairs = " ".join(f"({x}, {floatfmt.format(float(y))})" for x, y in zip(xs, ys))
    return f"{name} [{x_label} -> {y_label}]: {pairs}"


def format_speedups(times_by_threads: Dict[int, float], *, floatfmt: str = "{:.2f}"
                    ) -> str:
    """Render a {threads: time_ms} mapping as a speedup summary line."""
    if not times_by_threads:
        return "(no data)"
    threads = sorted(times_by_threads)
    base = times_by_threads[threads[0]]
    parts = []
    for t in threads:
        speedup = base / times_by_threads[t] if times_by_threads[t] > 0 else float("inf")
        parts.append(f"t={t}: {floatfmt.format(times_by_threads[t])} ms "
                     f"({floatfmt.format(speedup)}x)")
    return ", ".join(parts)


def ratio(a: float, b: float) -> float:
    """Safe a/b ratio (inf when b == 0)."""
    return a / b if b else float("inf")


def banner(text: str, *, char: str = "=") -> str:
    """A separator banner used between experiments in the bench output."""
    line = char * max(len(text) + 4, 40)
    return f"\n{line}\n  {text}\n{line}"


# --------------------------------------------------------------------------- #
# engine / workspace reporting
# --------------------------------------------------------------------------- #
def format_engine_history(engine: "SpMSpVEngine", *,
                          title: Optional[str] = None,
                          max_rows: Optional[int] = None) -> str:
    """Render an engine's per-call history as a table.

    One row per SpMSpV call: which kernel ran, at what frontier
    size/density, its measured wall time, and whether it was fused or part
    of a batch.
    """
    calls = engine.history
    clipped = 0
    if max_rows is not None and len(calls) > max_rows:
        clipped = len(calls) - max_rows
        calls = calls[:max_rows]
    rows = [[c.index, c.algorithm, c.f, float(c.density), float(c.wall_ms),
             "fused" if c.fused else ("batch" if c.batch is not None else "")]
            for c in calls]
    text = format_table(
        ["call", "algorithm", "nnz(x)", "density", "wall (ms)", "note"], rows,
        title=title if title is not None else "Engine call history")
    if clipped:
        text += f"\n... ({clipped} more calls)"
    return text


def format_workspace_stats(workspace: "SpMSpVWorkspace", *,
                           title: Optional[str] = None) -> str:
    """Render a workspace's allocation-reuse statistics (§III-A savings)."""
    stats = workspace.stats()
    rows = [[key, stats[key]] for key in
            ("acquisitions", "allocations", "allocations_saved",
             "reuse_fraction", "bucket_capacity", "block_capacity")]
    return format_table(["workspace metric", "value"], rows,
                        title=title if title is not None
                        else "Workspace reuse (the §III-A memory-allocation optimization)")


def summarize_engine(engine: "SpMSpVEngine") -> str:
    """One-paragraph summary of an engine's lifetime: choices, switches, reuse."""
    summary = engine.summary()
    ws = summary["workspace"]
    per_algo: Dict[str, int] = {}
    for call in engine.history:
        per_algo[call.algorithm] = per_algo.get(call.algorithm, 0) + 1
    mix = ", ".join(f"{name}: {count}" for name, count in per_algo.items()) or "(none)"
    return (f"{summary['calls']} SpMSpV calls ({mix}); "
            f"{summary['switches']} algorithm switch(es); "
            f"wall total {summary['total_wall_ms']:.4f} ms; "
            f"workspace served {ws['acquisitions']} acquisitions with "
            f"{ws['allocations']} allocations "
            f"({100 * ws['reuse_fraction']:.0f}% reused)")
