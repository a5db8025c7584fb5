"""CLI tests for ``repro serve`` / ``repro resume`` and dry-run keys."""

from __future__ import annotations

import json
import os

import pytest

import _sweep_exps
from repro.cli import main
from repro.experiments import encode
from repro.jobs import JobStore, job_key

#: A three-job sweep (``specs.json``) and the ``results/`` directory
#: ``repro serve`` wrote for it at the last commit whose ``JobTask``
#: still carried a run-context element.  Regenerate only when a spec
#: of ``optimal``, ``trace`` or ``netscale`` changes shape on purpose.
PARENT_CHECKPOINT = os.path.join(
    os.path.dirname(__file__), "golden", "parent_checkpoint"
)


@pytest.fixture(autouse=True)
def probe_experiments():
    _sweep_exps.install()
    yield
    _sweep_exps.uninstall()


def _write_specs(tmp_path, jobs, name="specs.json"):
    path = tmp_path / name
    path.write_text(json.dumps(jobs))
    return str(path)


FLAKY_JOBS = [
    {"experiment": "test-flaky", "label": "a", "spec": {"value": 1}},
    {"experiment": "test-flaky", "label": "b", "spec": {"value": 2}},
]


def test_serve_requires_a_checkpoint_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CHECKPOINT", raising=False)
    path = _write_specs(tmp_path, FLAKY_JOBS)
    assert main(["serve", path]) == 2
    assert "--checkpoint DIR or set REPRO_CHECKPOINT" in capsys.readouterr().err


def test_resume_requires_an_existing_directory(tmp_path, capsys):
    path = _write_specs(tmp_path, FLAKY_JOBS)
    code = main(["resume", path, "--checkpoint", str(tmp_path / "missing")])
    assert code == 2
    assert "nothing to resume" in capsys.readouterr().err


def test_serve_then_resume_byte_identical_with_partial_snapshot(
        tmp_path, capsys):
    path = _write_specs(tmp_path, FLAKY_JOBS)
    ckpt = str(tmp_path / "ckpt")
    served = str(tmp_path / "served.json")
    resumed = str(tmp_path / "resumed.json")
    plain = str(tmp_path / "plain.json")

    assert main(["serve", path, "--checkpoint", ckpt, "--out", served]) == 0
    err = capsys.readouterr().err
    assert "[1/2]" in err and "[2/2]" in err  # progress streamed
    assert "0 reused / 2 computed" in err

    # The streaming snapshot is complete and input-ordered.
    partial = JobStore(ckpt).read_partial()
    assert partial["done"] == 2 and partial["total"] == 2
    assert [item["label"] for item in partial["items"]] == ["a", "b"]

    assert main(["resume", path, "--checkpoint", ckpt, "--out", resumed]) == 0
    assert "2 reused / 0 computed" in capsys.readouterr().err
    assert main(["batch", path, "--out", plain]) == 0
    served_text = open(served).read()
    assert served_text == open(resumed).read()
    assert served_text == open(plain).read()


#: Every key of a ``partial.json`` row.
ROW_KEYS = {"index", "experiment", "label", "source", "key", "error"}


def test_partial_rows_name_each_jobs_checkpoint(tmp_path, capsys):
    """A row points at its job's ``results/`` entry; it copies no result."""
    path = _write_specs(tmp_path, FLAKY_JOBS + [
        {"experiment": "test-flaky", "label": "twin", "spec": {"value": 1}},
        {"experiment": "test-flaky", "label": "boom",
         "spec": {"value": 3, "fail": True}},
    ])
    ckpt = str(tmp_path / "ckpt")
    assert main(["serve", path, "--checkpoint", ckpt]) == 1
    capsys.readouterr()
    store = JobStore(ckpt)
    partial = store.read_partial()
    assert (partial["done"], partial["total"], partial["failed"]) == (4, 4, 1)
    rows = partial["items"]
    assert all(set(row) == ROW_KEYS for row in rows)
    assert [(row["index"], row["label"], row["source"]) for row in rows] == [
        (0, "a", "run"), (1, "b", "run"), (2, "twin", "duplicate"),
        (3, "boom", "run"),
    ]
    assert rows[2]["key"] == rows[0]["key"]
    for row in rows[:3]:
        assert row["error"] is None
        assert store.get(row["key"])["experiment"] == "test-flaky"
    assert rows[3]["error"] == {"type": "ValueError",
                                "message": "flaky job told to fail (value=3)"}

    # A re-run reuses what is on disk, and its rows say so.
    assert main(["serve", path, "--checkpoint", ckpt,
                 "--progress", "none"]) == 1
    capsys.readouterr()
    assert [row["source"] for row in store.read_partial()["items"]] == [
        "checkpoint", "checkpoint", "checkpoint", "run",
    ]
    assert main(["report", ckpt]) == 0
    out = capsys.readouterr().out
    assert "(4/4 done, 1 failed)" in out
    assert out.count("ok (checkpoint)") == 3
    assert "error: ValueError" in out


def test_report_renders_a_snapshot_of_whole_items(tmp_path, capsys):
    """Earlier commits wrote each finished job's whole ``BatchItem``."""
    ckpt = str(tmp_path / "ckpt")
    JobStore(ckpt).write_partial({
        "done": 2, "total": 3, "failed": 1,
        "items": [
            {"index": 0, "experiment": "test-flaky", "label": "a",
             "spec": {"value": 1}, "result": {"value": 2}, "error": None},
            {"index": 2, "experiment": "test-flaky", "label": None,
             "spec": {"value": 3}, "result": {},
             "error": {"type": "ValueError", "message": "boom",
                       "traceback": "..."}},
        ],
    })
    assert main(["report", ckpt]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "checkpointed sweep %s (2/3 done, 1 failed)" % ckpt
    assert [line.split()[-1] for line in lines if "test-flaky" in line] == [
        "ok", "ValueError",
    ]
    assert lines[-1] == "(1 job pending)"


def test_progress_table_lists_every_job_as_it_finishes(tmp_path, capsys):
    path = _write_specs(tmp_path, FLAKY_JOBS)
    assert main(["batch", path, "--progress", "table",
                 "--out", str(tmp_path / "out.json")]) == 0
    err = capsys.readouterr().err
    tables = err.split("sweep progress ")
    assert [table.splitlines()[0] for table in tables[1:]] == ["(1/2)", "(2/2)"]
    assert "(1 job pending)" in tables[1]
    last = tables[-1]
    assert "pending" not in last
    assert [line.split()[:4] for line in last.splitlines()
            if "test-flaky" in line] == [
        ["0", "test-flaky", "a", "ok"], ["1", "test-flaky", "b", "ok"],
    ]


def test_batch_reports_failures_and_exits_1(tmp_path, capsys):
    path = _write_specs(tmp_path, [
        {"experiment": "test-flaky", "label": "ok", "spec": {"value": 1}},
        {"experiment": "test-flaky", "label": "boom",
         "spec": {"value": 2, "fail": True}},
    ])
    out = str(tmp_path / "out.json")
    assert main(["batch", path, "--out", out]) == 1
    captured = capsys.readouterr()
    assert "job 1 failed (test-flaky [boom], spec " in captured.err
    assert "ValueError: flaky job told to fail" in captured.err
    merged = json.load(open(out))
    assert merged["items"][0]["error"] is None
    assert merged["items"][1]["error"]["type"] == "ValueError"


@pytest.mark.parametrize("verb", ["batch", "serve", "resume"])
def test_out_in_a_missing_directory_is_refused_before_any_job_runs(
        tmp_path, capsys, verb):
    path = _write_specs(tmp_path, FLAKY_JOBS)
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    out = str(tmp_path / "no" / "such" / "out.json")
    argv = [verb, path, "--out", out, "--progress", "none"]
    assert main(argv + ["--checkpoint", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "cannot write --out %s: %s is not a directory"
        % (out, os.path.dirname(out))
    ]
    assert captured.out == ""
    assert os.listdir(str(ckpt)) == []  # no job ran, nothing checkpointed


def test_out_that_cannot_be_written_at_the_end_is_one_line(tmp_path, capsys):
    path = _write_specs(tmp_path, FLAKY_JOBS)
    out = tmp_path / "taken"
    out.mkdir()  # the parent exists; the path itself is a directory
    assert main(["batch", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith(
        "cannot write --out %s: " % out
    )
    assert "Traceback" not in captured.err and captured.out == ""


def test_report_out_in_a_missing_directory_is_refused(tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "report.md")
    assert main(["report", "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "cannot write --out %s: %s is not a directory"
        % (out, os.path.dirname(out))
    ]


def test_dry_run_reports_runtime_matching_keys(tmp_path, capsys):
    path = _write_specs(tmp_path, FLAKY_JOBS)
    assert main(["batch", path, "--dry-run"]) == 0
    out = capsys.readouterr().out
    for job in FLAKY_JOBS:
        spec = _sweep_exps.FlakySpec.from_dict(job["spec"])
        expected = job_key(job["experiment"], encode(spec))
        assert "key=%s" % expected in out
    # ... and those keys are exactly the checkpoint filenames a serve
    # of the same file produces.
    ckpt = str(tmp_path / "ckpt")
    assert main(["serve", path, "--checkpoint", ckpt,
                 "--progress", "none"]) == 0
    capsys.readouterr()
    stored = set(JobStore(ckpt).keys())
    for job in FLAKY_JOBS:
        spec = _sweep_exps.FlakySpec.from_dict(job["spec"])
        assert job_key(job["experiment"], encode(spec)) in stored


def test_dry_run_keys_include_base_seed(tmp_path, capsys):
    jobs = [{"experiment": "test-fuse", "spec": {"value": 1}}]
    path = _write_specs(tmp_path, jobs)
    assert main(["batch", path, "--dry-run"]) == 0
    unseeded = capsys.readouterr().out
    assert main(["batch", path, "--dry-run", "--base-seed", "9"]) == 0
    seeded = capsys.readouterr().out
    key_of = lambda text: text.split("key=")[1].split()[0]  # noqa: E731
    assert key_of(unseeded) != key_of(seeded)


def test_parent_written_checkpoint_resumes_with_zero_jobs_executed(
        tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    store = JobStore(str(ckpt))
    # A checkpoint is served only to the code that wrote it, so each
    # parent payload is re-published as ours, under its file name: what
    # is left to disagree on is the key, which is what dropping the
    # context element from the task tuple must not have moved.
    parent = {}
    results = os.path.join(PARENT_CHECKPOINT, "results")
    for name in sorted(os.listdir(results)):
        with open(os.path.join(results, name)) as handle:
            payload = json.load(handle)["payload"]
        assert store.put(name[:-len(".json")], payload["experiment"],
                         payload["spec"], payload["result"])
        parent[payload["experiment"]] = payload
    out = str(tmp_path / "out.json")
    assert main(["resume", os.path.join(PARENT_CHECKPOINT, "specs.json"),
                 "--checkpoint", str(ckpt), "--out", out,
                 "--progress", "none"]) == 0
    assert "3 reused / 0 computed" in capsys.readouterr().err
    items = json.load(open(out))["items"]
    assert [item["experiment"] for item in items] == [
        "optimal", "trace", "netscale"
    ]
    for item in items:
        assert item["spec"] == parent[item["experiment"]]["spec"]
        assert item["result"] == parent[item["experiment"]]["result"]


# ----------------------------------------------------------------------
# A sweep that stops early: one mapping to exit codes, for every verb
# ----------------------------------------------------------------------


def test_interrupt_during_the_prefill_is_a_pause_too(
        tmp_path, capsys, monkeypatch):
    from repro.experiments.runner import run_batch
    from repro.jobs import SweepInterrupted

    path = _write_specs(tmp_path, FLAKY_JOBS)
    ckpt = str(tmp_path / "ckpt")
    run_batch(FLAKY_JOBS, checkpoint_dir=ckpt)

    # Ctrl-C lands in the prefill, between two checkpoint reads.
    real_get = JobStore.get
    reads = []

    def get(self, key):
        reads.append(key)
        if len(reads) == 2:
            raise KeyboardInterrupt
        return real_get(self, key)

    monkeypatch.setattr(JobStore, "get", get)
    with pytest.raises(SweepInterrupted) as pause:
        run_batch(FLAKY_JOBS, checkpoint_dir=ckpt, resume=True)
    assert [(outcome.index, outcome.source)
            for outcome in pause.value.outcomes] == [(0, "checkpoint")]
    assert pause.value.total == 2

    reads.clear()
    assert main(["resume", path, "--checkpoint", ckpt]) == 130
    assert capsys.readouterr().err.splitlines() == [
        "[1/2] job 0: test-flaky [a] ok (checkpoint)",
        "interrupted: 1 of 2 jobs finished and checkpointed",
        "resume with: repro resume %s --checkpoint %s" % (path, ckpt),
    ]


#: argv of a study sweep, and whether it checkpoints (only
#: ``adversity-study`` has the knob).
STUDY_SWEEPS = (
    (["churn-study", "--rates", "2"], False),
    (["adversity-study", "--loss-rates", "0.02", "--mttfs", "4"], False),
    (["adversity-study", "--loss-rates", "0.02", "--mttfs", "4"], True),
)


@pytest.mark.parametrize(
    "study_argv, checkpointed", STUDY_SWEEPS,
    ids=("churn-study", "adversity-study", "adversity-study-checkpointed"),
)
@pytest.mark.parametrize("stop, code, line", (
    ("SweepInterrupted", 130, "interrupted: 0 of 3 jobs finished"),
    ("SweepBroken", 3, "sweep broken: a sweep worker died: 0 of 3 jobs "
     "completed (checkpointed jobs survive; resume to finish)"),
), ids=("interrupted", "broken"))
def test_study_verbs_report_a_stopped_sweep_like_the_sweep_verbs(
        tmp_path, capsys, monkeypatch, study_argv, checkpointed, stop, code,
        line):
    import repro.jobs
    from repro.experiments import study

    def stopped_sweep(jobs, **kwargs):
        raise getattr(repro.jobs, stop)([], 3)

    monkeypatch.setattr(study, "run_batch", stopped_sweep)
    argv = study_argv + ["--workers", "2", "--circuits", "4", "--relays", "6"]
    expected = [line]
    if checkpointed:
        argv += ["--checkpoint", str(tmp_path / "ckpt")]
        hint = "re-run the same command"
        if code == 130:
            expected = [line + " and checkpointed", hint]
        else:
            expected.append("completed jobs are checkpointed; " + hint)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == expected
    assert captured.out == ""
