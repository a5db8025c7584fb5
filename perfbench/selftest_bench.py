"""Smoke test of the benchmark harness.

Not collected by the tier-1 suite (``testpaths = tests``); run it by
explicit path::

    python -m pytest perfbench/selftest_bench.py -q
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def _run(*args, **kwargs):
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True,
        timeout=300, **kwargs
    )


def test_smoke_runs_every_workload_and_names_match_the_manifest():
    done = _run("--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith("smoke: ok")


def test_compare_flags_a_regression_and_an_unresolved_spread(tmp_path):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        manifest = json.load(handle)

    def report(scale, jitter):
        values = [scale * (1.0 + jitter * (i - 4.5) / 4.5) for i in range(10)]
        ordered = sorted(values)
        row = {"values": values, "median": scale, "q1": ordered[2], "q3": ordered[7],
               "spread": (ordered[7] - ordered[2]) / scale}
        return {"workloads": {
            w["name"]: {
                "correct": True, "exact": {},
                "end_to_end": {m["name"]: dict(row, unit=m["unit"])
                               for m in manifest["end_to_end"]},
            }
            for w in manifest["workloads"]
        }}

    paths = {}
    for name, (scale, jitter) in {
        "base": (1.0, 0.01), "same": (1.02, 0.01),
        "slow": (1.5, 0.01), "noisy": (1.5, 0.9),
    }.items():
        paths[name] = str(tmp_path / (name + ".json"))
        with open(paths[name], "w") as handle:
            json.dump(report(scale, jitter), handle)

    same = _run("--compare", paths["base"], paths["same"])
    assert same.returncode == 0 and "worse" not in same.stdout
    slow = _run("--compare", paths["base"], paths["slow"])
    assert slow.returncode == 1 and "wall_s           worse" in slow.stdout
    noisy = _run("--compare", paths["base"], paths["noisy"])
    assert noisy.returncode == 0 and "unresolved" in noisy.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bare / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "sweep-tiny",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
