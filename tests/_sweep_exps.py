"""Throwaway experiments for the resumable-sweep tests.

Lives outside the test modules so a *subprocess* driver (the
workers=1 kill-and-resume test SIGKILLs a whole serial sweep process)
can import and register the exact same experiments the in-process
assertions use.  Each experiment is deterministic given its spec, so
checkpointed, resumed and re-run sweeps can be compared byte for byte:

* ``test-fuse``   — SIGKILLs its own process the first time it runs
  (marker-file armed), then computes normally: the crash-resume probe.
* ``test-trip``   — raises ``KeyboardInterrupt`` the first time
  (marker-file armed): the Ctrl-C-is-a-pause probe.
* ``test-flaky``  — raises ``ValueError`` when told to: the per-job
  structured-failure probe.

Registration is explicit (:func:`install` / :func:`uninstall`) so the
global registry stays exactly the built-in set for every other test.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Optional

from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ExperimentSpec,
    RunContext,
)
from repro.experiments.registry import _REGISTRY, register_experiment


def _arm(marker: Optional[str]) -> bool:
    """True exactly once per marker path: create it, report it was new."""
    if not marker or os.path.exists(marker):
        return False
    with open(marker, "w") as handle:
        handle.write("armed\n")
    return True


@dataclass(frozen=True)
class FuseSpec(ExperimentSpec):
    value: int = 1
    seed: int = 0
    #: Path of the one-shot fuse: first run creates it and SIGKILLs
    #: its own process; later runs (the resume) compute normally.
    kill_marker: Optional[str] = None


@dataclass
class FuseResult(ExperimentResult):
    value: int
    seed: int


class FuseExperiment(Experiment):
    name = "test-fuse"
    help = "test probe: SIGKILLs its own worker once, then computes"
    spec_type = FuseSpec
    result_type = FuseResult

    def run(
        self, spec: FuseSpec, ctx: RunContext = RunContext()
    ) -> FuseResult:
        if _arm(spec.kill_marker):
            os.kill(os.getpid(), signal.SIGKILL)
        return FuseResult(value=spec.value * 3 + 1, seed=spec.seed)


@dataclass(frozen=True)
class TripSpec(ExperimentSpec):
    value: int = 1
    seed: int = 0
    #: One-shot Ctrl-C stand-in: first run raises KeyboardInterrupt.
    trip_marker: Optional[str] = None


@dataclass
class TripResult(ExperimentResult):
    value: int
    seed: int


class TripExperiment(Experiment):
    name = "test-trip"
    help = "test probe: raises KeyboardInterrupt once, then computes"
    spec_type = TripSpec
    result_type = TripResult

    def run(
        self, spec: TripSpec, ctx: RunContext = RunContext()
    ) -> TripResult:
        if _arm(spec.trip_marker):
            raise KeyboardInterrupt
        return TripResult(value=spec.value + 10, seed=spec.seed)


@dataclass(frozen=True)
class FlakySpec(ExperimentSpec):
    value: int = 1
    fail: bool = False


@dataclass
class FlakyResult(ExperimentResult):
    value: int


class FlakyExperiment(Experiment):
    name = "test-flaky"
    help = "test probe: fails with a deterministic ValueError on demand"
    spec_type = FlakySpec
    result_type = FlakyResult

    def run(
        self, spec: FlakySpec, ctx: RunContext = RunContext()
    ) -> FlakyResult:
        if spec.fail:
            raise ValueError("flaky job told to fail (value=%d)" % spec.value)
        return FlakyResult(value=spec.value * 2)


TEST_EXPERIMENTS = (FuseExperiment, TripExperiment, FlakyExperiment)


def install() -> None:
    """Register the probe experiments (idempotent)."""
    for cls in TEST_EXPERIMENTS:
        if cls.name not in _REGISTRY:
            register_experiment(cls)


def uninstall() -> None:
    """Remove the probe experiments, restoring the built-in registry."""
    for cls in TEST_EXPERIMENTS:
        _REGISTRY.pop(cls.name, None)
