"""Streaming views of a partially completed sweep.

The aggregation side of a resumable sweep: as jobs finish (in
completion order), each finished :class:`~repro.experiments.runner
.BatchItem` becomes one small **row** — ``index``, ``experiment``,
``label``, ``source`` (``run`` / ``checkpoint`` / ``duplicate``),
``key`` (the key of the job's record under ``results/``) and ``error``
(its ``type`` and ``message``, or ``None``).  One list of rows per sweep
feeds every partial view: a plain-text table for terminals and a JSON
status snapshot for pollers (:func:`partial_writer` keeps it on disk
as ``partial.json``), without waiting for the sweep to end.

A row points at its job's checkpoint instead of copying the result,
and each row is encoded once, so republishing the snapshot after every
job copies a few hundred bytes per finished job and re-encodes only the
newest row.  Both views are pure functions of the rows plus
the total, so they are as deterministic as the sweep itself.  A
snapshot written by an earlier commit, whose items are whole
``BatchItem`` dicts, carries ``index``, ``experiment``, ``label`` and
``error`` too, and renders through the same code.
"""

from __future__ import annotations

from bisect import bisect
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..jobs.store import JobStore, job_key
from ..storage import encode_payload
from .tables import format_table

__all__ = [
    "partial_payload",
    "partial_row",
    "partial_writer",
    "render_partial_table",
    "row_status",
]

Row = Dict[str, Any]


def partial_row(item: Any, source: str) -> Row:
    """The row of one finished :class:`BatchItem`, obtained as *source*."""
    error = item.error
    return {
        "index": item.index,
        "experiment": item.experiment,
        "label": item.label,
        "source": source,
        "key": job_key(item.experiment, item.spec),
        "error": None if error is None else {
            "type": error.get("type"), "message": error.get("message"),
        },
    }


def _ordered(rows: Iterable[Row]) -> List[Row]:
    return sorted(rows, key=itemgetter("index"))


def partial_payload(rows: Iterable[Row], total: int) -> Dict[str, Any]:
    """The JSON snapshot of a sweep in flight: counters and rows.

    ``rows`` is every finished job's row so far, any order; the
    snapshot lists them in input order, as the final merge will.
    """
    ordered = _ordered(rows)
    failed = sum(1 for row in ordered if row["error"] is not None)
    return _snapshot(len(ordered), total, failed, ordered)


def _snapshot(done: int, total: int, failed: int, items: List[Any]) -> Dict[str, Any]:
    # partial_writer splices the encoded rows in before the last two
    # bytes of this dict's compact JSON (encode_payload), ``]}``: "items"
    # must stay the last key.
    return {"done": done, "total": total, "failed": failed, "items": items}


def partial_writer(
    checkpoint_dir: Optional[str], rows: List[Row]
) -> Callable[[Any, int, int, str], None]:
    """A ``run_batch`` ``on_item`` hook that appends each job's row to *rows*.

    With a *checkpoint_dir*, the snapshot of *rows* (empty at the
    start) is then republished, atomically, to its ``partial.json``:
    what ``repro report DIR`` renders while ``repro serve`` or a
    checkpointing study is still running.  Each row is encoded once;
    a write joins the encodings, so it costs a copy of the file, not
    a re-encoding of every row, and the bytes are those of
    :func:`partial_payload`'s snapshot.
    """
    store = JobStore(checkpoint_dir) if checkpoint_dir else None
    # Snapshot order: (index, arrival) keys, and each row's JSON beside its key.
    order: List[Tuple[int, int]] = []
    encoded: List[bytes] = []
    failed = 0

    def on_item(item: Any, done: int, total: int, source: str) -> None:
        nonlocal failed
        row = partial_row(item, source)
        rows.append(row)
        if store is None:
            return
        key = (row["index"], len(order))
        at = bisect(order, key)
        order.insert(at, key)
        encoded.insert(at, encode_payload(row))
        if row["error"] is not None:
            failed += 1
        # The counters, then the rows spliced into the empty item list.
        head = encode_payload(_snapshot(len(order), total, failed, []))
        store.write_partial(b"".join((head[:-2], b",".join(encoded), head[-2:])))

    return on_item


def row_status(row: Row) -> str:
    """How a finished job reads in a progress line or a table cell."""
    if row["error"] is not None:
        return "error: %s" % row["error"].get("type", "Error")
    source = row.get("source")
    if source in ("checkpoint", "duplicate"):
        return "ok (%s)" % source
    return "ok"


def render_partial_table(
    rows: Iterable[Row], total: int, title: Optional[str] = None
) -> str:
    """An aligned table of a sweep's finished jobs, plus the tail count.

    A job's status names how its result was obtained, so a resumed
    sweep's table shows what was reused versus re-run.
    """
    ordered = _ordered(rows)
    table = format_table(
        ["job", "experiment", "label", "status"],
        [
            [row["index"], row["experiment"], row.get("label") or "-",
             row_status(row)]
            for row in ordered
        ],
        title=title or "sweep progress (%d/%d)" % (len(ordered), total),
    )
    pending = total - len(ordered)
    if pending:
        table += "\n(%d job%s pending)" % (pending, "" if pending == 1 else "s")
    return table
