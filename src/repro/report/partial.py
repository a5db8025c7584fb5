"""Streaming views of a partially completed sweep.

The aggregation side of a resumable sweep: as jobs finish (in
completion order), the completed :class:`~repro.experiments.runner
.BatchItem` records accumulate, and these helpers render the partial
view — a plain-text table for terminals and a JSON snapshot for
pollers (:func:`partial_writer` keeps it on disk) — without waiting
for the sweep to end.

Both views are pure functions of the completed items plus the total,
so they are as deterministic as the sweep itself; the JSON snapshot is
exactly the merged-so-far slice of the final ``BatchResult`` plus
``done``/``total``/``failed`` counters, which makes "watch a sweep" a
matter of re-reading one atomic file.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from .tables import format_table

__all__ = [
    "item_status",
    "partial_payload",
    "partial_writer",
    "render_partial_table",
]


def _ordered(items: Iterable[Any]) -> List[Any]:
    return sorted(items, key=lambda item: item.index)


def partial_payload(items: Iterable[Any], total: int) -> Dict[str, Any]:
    """The JSON snapshot of a sweep in flight.

    ``items`` is every completed :class:`BatchItem` so far, any order;
    the snapshot lists them in input order, exactly as the final merge
    will, so a consumer of ``partial.json`` never has to reconcile two
    formats.
    """
    ordered = _ordered(items)
    return {
        "done": len(ordered),
        "total": total,
        "failed": sum(1 for item in ordered if item.error is not None),
        "items": [item.to_dict() for item in ordered],
    }


def partial_writer(checkpoint_dir: str) -> Callable[[Any, int, int, str], None]:
    """A ``run_batch`` ``on_item`` hook that keeps ``partial.json`` current.

    After every job the complete snapshot so far is republished,
    atomically, to *checkpoint_dir*'s ``partial.json``: what ``repro
    report DIR`` renders while ``repro serve`` or a checkpointing study
    is still running.
    """
    from ..jobs.store import JobStore

    store = JobStore(checkpoint_dir)
    completed: List[Any] = []

    def on_item(item: Any, done: int, total: int, source: str) -> None:
        completed.append(item)
        store.write_partial(partial_payload(completed, total))

    return on_item


def item_status(item: Any, source: Optional[str]) -> str:
    """How a finished job reads in a progress line or a table cell."""
    if item.error is not None:
        return "error: %s" % item.error.get("type", "Error")
    if source == "checkpoint":
        return "ok (checkpoint)"
    if source == "duplicate":
        return "ok (duplicate)"
    return "ok"


def render_partial_table(
    items: Iterable[Any],
    total: int,
    sources: Optional[Mapping[int, str]] = None,
    title: Optional[str] = None,
) -> str:
    """An aligned table of a sweep's completed jobs, plus the tail count.

    *sources* optionally maps item index → how the result was obtained
    (``"run"``/``"checkpoint"``/``"duplicate"``), so a resumed sweep's
    table shows what was replayed versus re-run.
    """
    ordered = _ordered(items)
    rows = [
        [
            item.index,
            item.experiment,
            item.label or "-",
            item_status(item, sources.get(item.index) if sources else None),
        ]
        for item in ordered
    ]
    table = format_table(
        ["job", "experiment", "label", "status"],
        rows,
        title=title or "sweep progress (%d/%d)" % (len(ordered), total),
    )
    pending = total - len(ordered)
    if pending:
        table += "\n(%d job%s pending)" % (pending, "" if pending == 1 else "s")
    return table
