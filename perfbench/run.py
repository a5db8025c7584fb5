#!/usr/bin/env python3
"""One ruler for host-time performance: four workloads, five end-to-end
metrics and a per-layer ledger.  See README.md in this directory.

Driver contract (``BENCHMARK.json``)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``.

Other modes: ``--suite`` (N seeds per workload, each run in a fresh
process, plus one traced run each; ``--out`` writes the report),
``--compare A.json B.json``, ``--smoke`` and ``--update-expected``.

This is a simulator: every number is *host* time unless it says
"simulated".  Simulated statistics and work counts repeat exactly, so
they are checked, not timed.
"""

from __future__ import annotations

import time

# The set-up clock starts before the program under test is imported.
_T0 = time.perf_counter()

import argparse
import contextlib
import cProfile
import gc
import heapq
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
#: Scratch space, inside the checkout and ignored by git.
WORK = os.path.join(BENCH_DIR, ".work")
RESULTS = os.path.join(BENCH_DIR, "results")

#: Timed passes per run never drop below this, whatever ``--seconds`` says.
MIN_PASSES = 5
#: Fresh-process repeats of the set-up, besides the run's own.
SETUP_PROBES = 2
#: What one calibration slice takes on the reference box when it is quiet.
#: Time-based end-to-end metrics are reported at this host speed.
CALIBRATION_REFERENCE_S = 0.35

#: ``repro/<package>`` (or top-level module) -> ledger bucket.
LAYERS = (
    "sim", "net", "transport", "tor", "scenario", "experiments", "jobs",
    "core", "analysis", "serialize", "storage",
)


def load_program() -> Tuple[Any, Any]:
    """Import the program under test and the benchmark's own modules."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("perfbench: no program to measure: %s is missing" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bench_layers
    import bench_workloads

    return bench_workloads, bench_layers


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Host noise and provenance
# ----------------------------------------------------------------------


class _Slot:
    __slots__ = ("count", "level")

    def __init__(self) -> None:
        self.count = 0
        self.level = 0.0


def _touch(slot: _Slot, value: int) -> None:
    slot.count += value
    slot.level = slot.level * 0.5 + value


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop: the host-speed probe.

    480 k heap pushes with the pops, dict stores and calls of an event
    loop, none of it the program's code.  One slice takes about
    :data:`CALIBRATION_REFERENCE_S`; a 25 ms loop proved too short to
    follow this host's speed.
    """
    start = time.perf_counter()
    heap: List[Tuple[float, int, Any, _Slot]] = []
    seen: Dict[int, int] = {}
    slot = _Slot()
    push, pop = heapq.heappush, heapq.heappop
    for i in range(480_000):
        push(heap, (i * 7919 % 10007 * 1e-3, i, _touch, slot))
        seen[i & 1023] = i
        if len(heap) > 64:
            entry = pop(heap)
            entry[2](entry[3], entry[1])
    return time.perf_counter() - start


def noise_ratio(samples: Sequence[float]) -> Optional[float]:
    """p90 / min of the calibration slices (1.0 on a quiet host)."""
    if len(samples) < 2:
        return None
    ordered = sorted(samples)
    p90 = ordered[min(len(ordered) - 1, int(round(0.9 * (len(ordered) - 1))))]
    return p90 / ordered[0]


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ("git",) + args, cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> Dict[str, Any]:
    """Where and on what these numbers were measured."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "commit": commit.strip() if commit else None,
        "clean": None if status is None else status.strip() == "",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@contextlib.contextmanager
def workdir() -> Iterator[str]:
    """A scratch directory of this process, removed on the way out."""
    os.makedirs(WORK, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-%d-" % os.getpid(), dir=WORK)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def one_pass(workload: Any, scratch: str, default_cache: Any) -> Tuple[float, Any]:
    """Reset caches, run one pass, time it; checks run after the clock stops."""
    default_cache.clear()
    gc.collect()
    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=scratch)
    start = time.perf_counter()
    outcome = workload.run_pass(pass_dir)
    seconds = time.perf_counter() - start
    workload.check(outcome)
    # Keep only the facts: a retained result tree would make every later
    # pass pay for it in garbage-collector traversals.
    outcome.text = ""
    outcome.raw = None
    shutil.rmtree(pass_dir, ignore_errors=True)
    return seconds, outcome


def set_up(name: str, seed: int, smoke: bool, scratch: str) -> Tuple[Any, float]:
    """Import, generate inputs, warm up.  Returns the workload and set-up seconds.

    The warm-up pass runs the same code at smoke size: there is no JIT
    to warm, only lazy imports and per-process memos to fill, and a
    full-size warm-up would cost a timed pass in every run.
    """
    workloads, _ = load_program()
    from repro.scenario.cache import DEFAULT_CACHE

    workload = workloads.WORKLOADS[name](seed, smoke=smoke)
    warm = workload if smoke else workloads.WORKLOADS[name](seed, smoke=True)
    one_pass(warm, scratch, DEFAULT_CACHE)
    return workload, time.perf_counter() - _T0


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds as a fresh process measures them on itself."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % done.stderr.strip())
    return float(done.stdout.strip().splitlines()[-1])


def expected_for(name: str) -> Optional[Dict[str, Any]]:
    try:
        with open(EXPECTED) as handle:
            return json.load(handle).get(name)
    except OSError:
        return None


def judge(workload: Any, outcomes: Sequence[Any], smoke: bool) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over a run's passes.

    Any failed check fails every op of its pass; a check across passes
    (one digest for all, the pinned digest at the default seed) fails
    every op of the run.
    """
    problems: List[str] = []
    digests = {outcome.facts["digest"] for outcome in outcomes}
    if len(digests) != 1:
        problems.append("passes disagree: %d distinct digests" % len(digests))
    pinned = expected_for(workload.name)
    if pinned and workload.seed == pinned["seed"] and not smoke:
        if digests != {pinned["digest"]}:
            problems.append("digest differs from expected.json")
        if workload.cell_hops != pinned["cell_hops"]:
            problems.append(
                "planned cell-hops %d, expected.json says %d"
                % (workload.cell_hops, pinned["cell_hops"])
            )
    run_failed = bool(problems)
    attempted = failed = 0
    for outcome in outcomes:
        attempted += outcome.ops
        if run_failed or outcome.problems:
            failed += outcome.ops
        problems.extend(outcome.problems)
    return attempted, failed, problems


def run_timed(name: str, seed: int, seconds: float, smoke: bool = False,
              probes: int = SETUP_PROBES) -> Dict[str, Any]:
    """``--trace 0``: set up, then timed passes with tracing and profiling off."""
    with workdir() as scratch:
        workload, own_setup = set_up(name, seed, smoke, scratch)
        from repro.scenario.cache import DEFAULT_CACHE

        setups = [own_setup] + [probe_setup(name, seed) for _ in range(probes)]
        walls: List[float] = []
        slices: List[float] = []
        outcomes = []
        floor = 1 if smoke else MIN_PASSES
        began = time.perf_counter()
        while len(walls) < floor or time.perf_counter() - began < seconds:
            slices.append(calibration_loop())
            wall, outcome = one_pass(workload, scratch, DEFAULT_CACHE)
            walls.append(wall)
            outcomes.append(outcome)
        slices.append(calibration_loop())
    attempted, failed, problems = judge(workload, outcomes, smoke)
    # This host's speed shifts by tens of percent for minutes at a time,
    # and the mean of the interleaved calibration slices shifts with it
    # (r = 0.9): between two suites of one commit the raw ten-run medians
    # moved by up to 38 %, the divided ones by at most 10 %.  The mean,
    # not the median: slowdowns come in bursts, which a pass integrates
    # and a median of slices rejects.
    speed = statistics.mean(slices) / CALIBRATION_REFERENCE_S
    q1, wall_raw, q3 = quartiles(walls)
    wall_s = wall_raw / speed
    jobs = outcomes[0].ops
    facts = outcomes[0].facts
    return {
        "workload": name,
        "seed": seed,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": statistics.median(setups) / speed,
            "wall_s": wall_s,
            "cell_hops_per_s": workload.cell_hops / wall_s,
            "jobs_per_s": jobs / wall_s,
            "peak_rss_mb": peak_rss_mb(),
        },
        "detail": {
            "passes": len(walls),
            "host_speed_factor": speed,
            "wall_s_raw": wall_raw,
            "wall_s_raw_q1": q1,
            "wall_s_raw_q3": q3,
            "walls": walls,
            "setups": setups,
            "calibration": slices,
            "host_noise_ratio": noise_ratio(slices),
            "jobs": jobs,
            "cell_hops": workload.cell_hops,
            "events_executed": facts["events_executed"],
            "digest": facts["digest"],
        },
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


class Spans:
    """In-memory spans around the benchmark's own calls into each layer."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        row = {
            "id": len(self.rows),
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus what its child spans cover."""
        covered: Dict[int, float] = {}
        for row in self.rows:
            if row["parent"] is not None:
                covered[row["parent"]] = (
                    covered.get(row["parent"], 0.0) + row["end"] - row["start"]
                )
        totals: Dict[str, float] = {}
        for row in self.rows:
            own = row["end"] - row["start"] - covered.get(row["id"], 0.0)
            totals[row["name"]] = totals.get(row["name"], 0.0) + own
        return totals


def profile_buckets(profile: cProfile.Profile) -> Dict[str, float]:
    """cProfile ``tottime`` bucketed by ``repro/<package>`` and stdlib family."""
    marker = os.sep + "repro" + os.sep
    buckets: Dict[str, float] = {layer: 0.0 for layer in LAYERS + ("misc",)}
    buckets.update({"py.heapq": 0.0, "py.json": 0.0, "py.hashlib": 0.0,
                    "py.builtins": 0.0, "py.other": 0.0})
    for (filename, _line, function), row in pstats.Stats(profile).stats.items():
        tottime = row[2]
        if marker in filename:
            head = filename.split(marker, 1)[1].split(os.sep)[0]
            if head.endswith(".py"):
                head = head[:-3]
            buckets[head if head in LAYERS else "misc"] += tottime
        elif "heapq" in function or "heapq" in filename:
            buckets["py.heapq"] += tottime
        elif "json" in function or os.sep + "json" + os.sep in filename:
            buckets["py.json"] += tottime
        elif "hashlib" in function or "sha256" in function or "hashlib" in filename:
            buckets["py.hashlib"] += tottime
        elif filename == "~":
            buckets["py.builtins"] += tottime
        else:
            buckets["py.other"] += tottime
    return buckets


def traced_pass(workload: Any, scratch: str, default_cache: Any,
                profiled: bool) -> Tuple[float, Spans, int, Optional[cProfile.Profile]]:
    """The pass decomposed into layer calls, under spans and maybe cProfile."""
    default_cache.clear()
    gc.collect()
    pass_dir = tempfile.mkdtemp(prefix="trace-", dir=scratch)
    spans = Spans(workload.name)
    profile = cProfile.Profile() if profiled else None
    start = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        with spans.span("pass"):
            events = workload.trace_body(spans, pass_dir)
    finally:
        if profile is not None:
            profile.disable()
    seconds = time.perf_counter() - start
    shutil.rmtree(pass_dir, ignore_errors=True)
    return seconds, spans, events, profile


def run_traced(name: str, seed: int, smoke: bool = False,
               ledger: Optional[Dict[str, float]] = None) -> Dict[str, Any]:
    """``--trace 1``: one plain pass for the exact counts, one traced and
    profiled pass for spans and self-time shares, then the layer ledger
    (measured here unless the caller already has it)."""
    with workdir() as scratch:
        workload, _ = set_up(name, seed, smoke, scratch)
        _, layers = load_program()
        from repro.scenario.cache import DEFAULT_CACHE

        plain_s, outcome = one_pass(workload, scratch, DEFAULT_CACHE)
        cache_counters = outcome.facts.get("plan_cache") or DEFAULT_CACHE.stats()
        if workload.trace_is_full:
            reference_s = plain_s
            reference_events = outcome.facts["events_executed"]
        else:
            reference_s, _, reference_events, _ = traced_pass(
                workload, scratch, DEFAULT_CACHE, profiled=False
            )
        traced_s, spans, traced_events, profile = traced_pass(
            workload, scratch, DEFAULT_CACHE, profiled=True
        )
        if ledger is None:
            ledger = layers.measure_layers(scratch, smoke=smoke)

    attempted, _, problems = judge(workload, [outcome], smoke)
    if traced_events != reference_events:
        problems.append(
            "traced pass executed %d events, untraced %d"
            % (traced_events, reference_events)
        )

    metrics: Dict[str, float] = dict(ledger)
    metrics["sim.events_per_cell_hop"] = (
        outcome.facts["events_executed"] / workload.cell_hops
    )
    counters = outcome.facts.get("transport_counters", {})
    sent = sum(row["cells_sent"] for row in counters.values())
    metrics["transport.retx_ratio"] = (
        sum(row["retransmissions"] for row in counters.values()) / sent if sent else 0.0
    )
    metrics["transport.timeouts"] = sum(row["timeouts"] for row in counters.values())
    for counter, value in cache_counters.items():
        metrics["scenario.cache." + counter] = value
    if "checkpoint_bytes" in outcome.facts:
        # The exact figure from the real sweep replaces the ledger's.
        metrics["jobs.checkpoint_bytes_per_job"] = (
            outcome.facts["checkpoint_bytes"] / outcome.ops
        )
    buckets = profile_buckets(profile)
    profiled_total = sum(buckets.values())
    for bucket, self_s in buckets.items():
        if bucket.startswith("py."):
            metrics[bucket + "_share"] = self_s / profiled_total
        else:
            metrics[bucket + ".self_s"] = self_s
            metrics[bucket + ".self_share"] = self_s / profiled_total
    metrics["trace_overhead_ratio"] = traced_s / reference_s
    by_name = spans.self_seconds()
    for span_name in ("pass", "plan", "simulate.with", "simulate.without",
                      "encode", "hash", "checkpoint_put", "resume_get"):
        metrics["span.%s_s" % span_name] = by_name.get(span_name, 0.0)

    os.makedirs(RESULTS, exist_ok=True)
    trace_path = os.path.join(RESULTS, "trace-%s-%d.json" % (name, seed))
    with open(trace_path, "w") as handle:
        json.dump({"workload": name, "seed": seed, "spans": spans.rows}, handle)

    return {
        "workload": name,
        "seed": seed,
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "problems": problems,
        "metrics": metrics,
        "detail": {
            "plain_s": plain_s,
            "reference_s": reference_s,
            "traced_s": traced_s,
            "spans": len(spans.rows),
            "trace_file": os.path.relpath(trace_path, ROOT),
            "digest": outcome.facts["digest"],
            "events_executed": outcome.facts["events_executed"],
            "cell_hops": workload.cell_hops,
        },
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def metric_table(manifest: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {
        row["name"]: row
        for row in manifest["end_to_end"] + manifest["per_layer"]
    }


def result_line(report: Dict[str, Any], table: Dict[str, Dict[str, Any]]) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics."""
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": table[name]["unit"]}
            for name, value in report["metrics"].items()
        },
    })


def print_report(report: Dict[str, Any], table: Dict[str, Dict[str, Any]]) -> None:
    print("# workload %s  seed %d" % (report["workload"], report["seed"]))
    for name, value in report["metrics"].items():
        print("%-40s %16.6f %s" % (name, value, table[name]["unit"]))
    for problem in report["problems"]:
        print("PROBLEM: %s" % problem)
    stamp = dict(provenance(), **report["detail"])
    print("DETAIL " + json.dumps(stamp, sort_keys=True))
    print(result_line(report, table))


def check_names(report: Dict[str, Any], rows: Sequence[Dict[str, Any]]) -> List[str]:
    """Metric names emitted against the manifest section they must equal."""
    wanted = {row["name"] for row in rows}
    emitted = set(report["metrics"])
    problems = []
    if wanted - emitted:
        problems.append("not emitted: %s" % ", ".join(sorted(wanted - emitted)))
    if emitted - wanted:
        problems.append("not in BENCHMARK.json: %s" % ", ".join(sorted(emitted - wanted)))
    return problems


# ----------------------------------------------------------------------
# --suite, --compare, --smoke, --update-expected
# ----------------------------------------------------------------------


def child_run(name: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    """One driver-mode run in a fresh process; its result and detail lines."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError("run failed (%s seed %d): %s" % (name, seed, done.stderr))
    lines = done.stdout.strip().splitlines()
    detail = next(line[7:] for line in lines if line.startswith("DETAIL "))
    return {"result": json.loads(lines[-1]), "detail": json.loads(detail)}


def suite(manifest: Dict[str, Any], seed: int, runs: int, out: Optional[str]) -> int:
    """*runs* seeds per workload, each in its own process, plus one traced run."""
    seconds = manifest["run_seconds"]
    report: Dict[str, Any] = {"provenance": provenance(), "workloads": {}}
    noise: List[float] = []
    ok = True
    for workload in manifest["workloads"]:
        name = workload["name"]
        rows = [child_run(name, seed + i, seconds, 0) for i in range(runs)]
        traced = child_run(name, seed, seconds, 1)
        for row in rows:
            noise.extend(row["detail"]["calibration"])
        entry: Dict[str, Any] = {
            "correct": all(r["result"]["correct"] for r in rows + [traced]),
            "attempted": sum(r["result"]["attempted"] for r in rows),
            "failed": sum(r["result"]["failed"] for r in rows),
            "end_to_end": {},
            "exact": {
                str(seed + i): {
                    key: row["detail"][key]
                    for key in ("digest", "cell_hops", "events_executed", "jobs")
                }
                for i, row in enumerate(rows)
            },
            "walls": {str(seed + i): row["detail"]["walls"] for i, row in enumerate(rows)},
            "per_layer": traced["result"]["metrics"],
        }
        ok = ok and entry["correct"]
        print("## %s: %d runs, %d ops attempted, %d failed, correct=%s"
              % (name, runs, entry["attempted"], entry["failed"], entry["correct"]))
        for metric in manifest["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in rows]
            q1, median, q3 = quartiles(values)
            share = (q3 - q1) / median
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "values": values,
                "q1": q1, "median": median, "q3": q3, "spread": share,
            }
            print("%-18s median %14.4f %-6s q1 %14.4f q3 %14.4f spread %.4f (bound %.2f)"
                  % (metric["name"], median, metric["unit"], q1, q3,
                     share, metric["bound"]))
        for layer_metric, row in traced["result"]["metrics"].items():
            print("  %-40s %16.6f %s" % (layer_metric, row["value"], row["unit"]))
        report["workloads"][name] = entry
    report["provenance"]["host_noise_ratio"] = noise_ratio(noise)
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    return 0 if ok else 1


def compare(manifest: Dict[str, Any], path_a: str, path_b: str) -> int:
    """One row per (workload, metric): ok, worse or unresolved.  B against A;
    a positive change is B worse than A, whatever the metric's direction."""
    with open(path_a) as handle:
        before = json.load(handle)["workloads"]
    with open(path_b) as handle:
        after = json.load(handle)["workloads"]
    worse = False
    for workload in manifest["workloads"]:
        name = workload["name"]
        for metric in manifest["end_to_end"]:
            a = before[name]["end_to_end"][metric["name"]]
            b = after[name]["end_to_end"][metric["name"]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (b["median"] - a["median"]) / a["median"]
            if sign > 0:
                all_better = max(b["values"]) < min(a["values"])
            else:
                all_better = min(b["values"]) > max(a["values"])
            if max(a["spread"], b["spread"]) > metric["bound"] and not all_better:
                verdict = "unresolved"
            elif change > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            worse = worse or verdict == "worse"
            print("%-16s %-16s %-10s A %12.4f  B %12.4f  change %+7.2f%%  "
                  "spread A %.3f B %.3f  bound %.2f"
                  % (name, metric["name"], verdict, a["median"], b["median"],
                     100 * change, a["spread"], b["spread"], metric["bound"]))
        same = before[name]["exact"] == after[name]["exact"]
        both_correct = before[name]["correct"] and after[name]["correct"]
        verdict = "ok" if same and both_correct else "worse"
        worse = worse or verdict == "worse"
        print("%-16s %-16s %-10s digests and exact counts %s; correct A=%s B=%s"
              % (name, "exact", verdict, "identical" if same else "DIFFER",
                 before[name]["correct"], after[name]["correct"]))
    return 1 if worse else 0


def smoke(manifest: Dict[str, Any], seed: int) -> int:
    """Every workload at ~1/10 size, both modes, names checked against the manifest."""
    problems: List[str] = []
    names = [row["name"] for row in manifest["workloads"]]
    workloads, layers = load_program()
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    # The ledger does not depend on the workload: once is enough here.
    with workdir() as scratch:
        ledger = layers.measure_layers(scratch, smoke=True)
    for name in names:
        timed = run_timed(name, seed, 0.0, smoke=True, probes=0)
        traced = run_traced(name, seed, smoke=True, ledger=ledger)
        problems += ["%s: %s" % (name, p) for p in timed["problems"] + traced["problems"]]
        problems += ["%s: %s" % (name, p) for p in check_names(timed, manifest["end_to_end"])]
        problems += ["%s: %s" % (name, p) for p in check_names(traced, manifest["per_layer"])]
        shares = sum(
            value for key, value in traced["metrics"].items() if key.endswith("_share")
        )
        if abs(shares - 1.0) > 0.01:
            problems.append("%s: self-time shares sum to %.4f" % (name, shares))
        print("smoke %-16s wall %.3f s  traced %.3f s  shares %.4f"
              % (name, timed["metrics"]["wall_s"], traced["detail"]["traced_s"], shares))
    for problem in problems:
        print("PROBLEM: %s" % problem)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def update_expected(manifest: Dict[str, Any]) -> int:
    """Re-pin the default-seed digests; refuses when ``src/`` is dirty."""
    status = _git("status", "--porcelain", "--", "src")
    if status is None:
        sys.exit("perfbench: --update-expected needs a git checkout")
    if status.strip():
        sys.exit("perfbench: src/ has uncommitted changes; commit or stash them first")
    workloads, _ = load_program()
    from repro.scenario.cache import DEFAULT_CACHE

    pinned = {}
    with workdir() as scratch:
        for row in manifest["workloads"]:
            workload = workloads.WORKLOADS[row["name"]](workloads.DEFAULT_SEED)
            _, outcome = one_pass(workload, scratch, DEFAULT_CACHE)
            if outcome.problems:
                sys.exit("perfbench: %s: %s" % (row["name"], outcome.problems))
            pinned[row["name"]] = {
                "seed": workloads.DEFAULT_SEED,
                "cell_hops": workload.cell_hops,
                "digest": outcome.facts["digest"],
            }
            print("%-16s cell_hops %8d  digest %s"
                  % (row["name"], workload.cell_hops, outcome.facts["digest"]))
    with open(EXPECTED, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, help="default: 2018, the pinned seed")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--update-expected", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        with workdir() as scratch:
            print(repr(set_up(args.workload, args.seed, False, scratch)[1]))
        return 0
    manifest = load_manifest()
    if args.compare:
        return compare(manifest, *args.compare)
    if args.seed is None:
        args.seed = load_program()[0].DEFAULT_SEED
    if args.smoke:
        return smoke(manifest, args.seed)
    if args.update_expected:
        return update_expected(manifest)
    if args.suite or not args.workload:
        return suite(manifest, args.seed, args.runs, args.out)
    seconds = manifest["run_seconds"] if args.seconds is None else args.seconds
    if args.trace:
        report = run_traced(args.workload, args.seed)
    else:
        report = run_timed(args.workload, args.seed, seconds)
    print_report(report, metric_table(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
