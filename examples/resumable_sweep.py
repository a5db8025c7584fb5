#!/usr/bin/env python3
"""Resumable sweeps: per-job checkpoints, streaming progress, cheap re-runs.

Runs a small trace sweep twice against one checkpoint directory.  The
first pass computes every job and checkpoints each result as it
finishes; the second pass — the same call again, as after a crash, a
Ctrl-C or just a re-submission — serves every job from disk and
recomputes nothing.  Both passes produce byte-identical merged output,
which is the whole contract: checkpoints change *when* work happens,
never what the sweep returns.  The same workflow runs from the shell
via::

    repro serve specs.json --checkpoint ckpt --workers 4 --out merged.json
    # ... killed at any point? finish it:
    repro resume specs.json --checkpoint ckpt --out merged.json

Run:  PYTHONPATH=src python examples/resumable_sweep.py
"""

from __future__ import annotations

import json
import shutil
import tempfile

from repro import BatchJob, run_batch
from repro.experiments import TraceConfig
from repro.units import seconds


def sweep(jobs, checkpoint_dir: str):
    def on_item(item, done, total, source):
        print("  [%d/%d] %-14s %s" % (done, total, item.label,
                                      "ok" if source == "run"
                                      else "ok (%s)" % source))

    batch = run_batch(jobs, workers=2, base_seed=11,
                      checkpoint_dir=checkpoint_dir, on_item=on_item)
    counts = batch.checkpoint
    print("  -> %d reused / %d computed / %d duplicate(s)"
          % (counts["reused"], counts["computed"], counts["duplicates"]))
    return batch


def main() -> None:
    jobs = [
        BatchJob(
            "trace",
            TraceConfig(bottleneck_distance=distance,
                        duration=seconds(0.4)),
            label="distance=%d" % distance,
        )
        for distance in (1, 2, 3)
    ]

    checkpoint_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
    try:
        print("first pass (cold checkpoint directory):")
        first = sweep(jobs, checkpoint_dir)
        print("\nsecond pass (same sweep re-submitted):")
        second = sweep(jobs, checkpoint_dir)
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)

    first_text = json.dumps(first.to_dict(), sort_keys=True)
    second_text = json.dumps(second.to_dict(), sort_keys=True)
    print("\nmerged outputs byte-identical:", first_text == second_text)
    for item in first.items:
        result = item.result_object()
        print("  %-14s final cwnd %2d cells (optimal %d)" % (
            item.label, result.final_cwnd_cells, result.optimal_cwnd_cells))


if __name__ == "__main__":
    main()
