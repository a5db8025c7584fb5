"""The ``partial.json`` writer publishes exactly the snapshot of its rows."""

from __future__ import annotations

import json
import os
import random

from repro.experiments.runner import BatchItem
from repro.jobs import JobStore
from repro.report.partial import partial_payload, partial_writer
from repro.storage import encode_payload


def _items(count):
    """*count* finished jobs in a shuffled completion order: every third
    fails, labels are absent, plain or non-ASCII, sources vary."""
    items = []
    for index in range(count):
        error = None
        if index % 3 == 2:
            error = {"type": "ValueError", "message": "job %d: bad γ" % index,
                     "traceback": "Traceback ..."}
        label = (None, "point-%d" % index, "réseau %d" % index)[index % 3]
        items.append((
            BatchItem(index=index, experiment="test-flaky", label=label,
                      spec={"value": index % 7}, result={} if error else {"value": index},
                      error=error),
            ("run", "checkpoint", "duplicate")[index // 2 % 3],
        ))
    random.Random(7).shuffle(items)
    return items


def _read(directory):
    with open(os.path.join(directory, "partial.json"), "rb") as handle:
        return handle.read()


def test_each_snapshot_is_the_whole_payload_encoded_afresh(tmp_path):
    """After every job the published file is byte for byte what encoding
    the whole snapshot of the rows so far writes."""
    ours, reference = str(tmp_path / "ours"), str(tmp_path / "reference")
    rows = []
    on_item = partial_writer(ours, rows)
    items = _items(40)
    for done, (item, source) in enumerate(items, 1):
        on_item(item, done, len(items), source)
        snapshot = partial_payload(rows, len(items))
        JobStore(reference).write_partial(encode_payload(snapshot))
        assert _read(ours) == _read(reference), done
        # The body is the snapshot's compact JSON, as a whole-dict encoder writes it.
        body = _read(ours).split(b"\n", 1)[1]
        assert body == json.dumps(snapshot, separators=(",", ":")).encode("utf-8"), done
    assert [row["index"] for row in JobStore(ours).read_partial()["items"]] == list(range(40))

