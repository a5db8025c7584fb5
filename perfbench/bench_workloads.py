"""The four benchmark workloads: inputs, the timed pass body, and checks.

Each workload builds its inputs from the seed alone, runs one *pass*
(what ``repro <verb> --json`` or ``repro serve`` does after import: the
public entry point, then ``json.dumps(result.to_dict(), sort_keys=True)``)
and checks the pass's output.  The program only ever sees the generated
specs.

Why the seed does not feed the spec seed directly
-------------------------------------------------
The planned size of a scenario depends on its seed: the bulk/interactive
mix of 40 circuits moves planned cell-hops by +-10 %, and a metric that
moves 10 % with the input cannot resolve a 10 % regression.  So every
workload holds its *size* fixed and lets the seed pick the *instance*:
candidate spec seeds are drawn from a chain derived from ``--seed`` and
the first one whose planned cell-hops match the default-seed instance is
used (planning costs ~1 ms per candidate).  The default seed is its own
first candidate, so it reproduces the instance ``expected.json`` pins.

``adversity-point`` cannot be matched by planning: with 2 % loss the
go-back-N transport is chaotic, and executed events range 0.98-4.0 M at
equal planned size across spec seeds (0.98-2.0 M across a 5 % jitter of
the loss rate alone).  Its seed therefore indexes a pool of loss rates,
found by search on the seed-2018 network (1.90-2.08 % in steps of
0.001 %), whose executed events lie within 1.8 % of the reference
instance and whose retransmission counts all differ.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.experiments import get_experiment
from repro.experiments.adversity import AdversityStudyConfig
from repro.experiments.churn_study import ChurnStudyConfig
from repro.experiments.netgen import NetworkConfig
from repro.experiments.netscale import NetScaleConfig
from repro.experiments.runner import run_batch
from repro.jobs.store import JobStore, job_key
from repro.scenario import plan_scenario, run_planned, run_scenario, spec_hash
from repro.scenario.cache import DEFAULT_CACHE, PlanCache, attached_disk_tier
from repro.serialize import encode
from repro.sim.rand import derive_seed
from repro.storage import content_hash
from repro.units import kib

DEFAULT_SEED = 2018

#: Loss rates for ``adversity-point`` (see the module docstring).  Index
#: 0 is the reference instance of the issue: 2 % loss.
ADVERSITY_LOSS_POOL: Tuple[float, ...] = (
    0.02, 0.01997, 0.01985, 0.02001, 0.02002, 0.01992,
    0.01991, 0.01989, 0.01995, 0.0199, 0.0197, 0.01973,
)

#: How many candidate spec seeds a size match may try before giving up.
_MATCH_LIMIT = 5000


def matched_seed(
    seed: int, label: str, size_of: Callable[[int], int], tolerance: float
) -> int:
    """The first spec seed derived from *seed* whose size matches the default's.

    The chain is ``seed, derive_seed(seed, label[1]), ...``; the target
    is the size of the default-seed instance, so the default seed always
    matches at once.
    """
    target = size_of(DEFAULT_SEED)
    candidate = seed
    for attempt in range(1, _MATCH_LIMIT + 1):
        if abs(size_of(candidate) - target) <= tolerance * target:
            return candidate
        candidate = derive_seed(seed, "%s[%d]" % (label, attempt))
    raise RuntimeError(
        "%s: no spec seed within %.1f%% of %d cell-hops in %d candidates"
        % (label, 100 * tolerance, target, _MATCH_LIMIT)
    )


def strip_events(value: Any) -> Any:
    """*value* with every ``events_executed`` key removed, recursively.

    ROADMAP items 4(c) and 5 move or change ``events_executed``; the
    pinned digests must survive that, so they never cover it.
    """
    if isinstance(value, dict):
        return {
            key: strip_events(item)
            for key, item in value.items()
            if key != "events_executed"
        }
    if isinstance(value, list):
        return [strip_events(item) for item in value]
    return value


def sum_events(value: Any) -> int:
    """Total of every ``events_executed`` table found in *value*."""
    if isinstance(value, dict):
        total = 0
        for key, item in value.items():
            if key == "events_executed" and isinstance(item, dict):
                total += sum(item.values())
            else:
                total += sum_events(item)
        return total
    if isinstance(value, list):
        return sum(sum_events(item) for item in value)
    return 0


def payload_digest(text: str) -> str:
    """SHA-256 of the result payload without its ``events_executed``."""
    return content_hash(strip_events(json.loads(text)))


@dataclass
class PassOutcome:
    """What one pass produced, for the untimed checks that follow it."""

    #: The serialized result (cold run for sweeps).
    text: str
    #: Ops attempted: 1 for a simulation pass, the job count for a sweep.
    ops: int
    #: Human-readable check failures; any entry fails every op of the pass.
    problems: List[str] = field(default_factory=list)
    #: Exact, deterministic counters read off the result.
    facts: Dict[str, Any] = field(default_factory=dict)
    #: Whatever :meth:`Workload.check` needs from the pass, unserialized.
    raw: Any = None


class Workload:
    """One named workload.  Subclasses fill in the four hooks."""

    name = ""
    why = ""
    #: Whether the traced body runs the whole input (simulation
    #: workloads) or a prefix of the job list (sweeps).
    trace_is_full = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.cell_hops = 0
        self.build()

    # --- hooks ------------------------------------------------------------

    def build(self) -> None:
        """Generate the inputs from ``self.seed``; set ``self.cell_hops``."""
        raise NotImplementedError

    def run_pass(self, workdir: str) -> PassOutcome:
        """The timed body.  Checks that cost time belong in :meth:`check`."""
        raise NotImplementedError

    def check(self, outcome: PassOutcome) -> None:
        """Untimed: fill ``outcome.facts`` and append to ``outcome.problems``."""
        outcome.facts["digest"] = payload_digest(outcome.text)
        outcome.facts["events_executed"] = sum_events(json.loads(outcome.text))

    def trace_body(self, spans: Any, workdir: str) -> int:
        """The pass decomposed into layer calls, one span around each.

        Returns the events executed, to hold against the untraced pass.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------


def _trace_scenario(spans: Any, scenario: Any) -> int:
    """plan -> simulate per kind -> encode, with a span around each call."""
    events = 0
    with spans.span("hash"):
        spec_hash(scenario)
    with spans.span("plan"):
        plan = plan_scenario(scenario, cache=DEFAULT_CACHE)
    for kind in scenario.kinds:
        with spans.span("simulate." + kind):
            result = run_planned(plan, kinds=[kind])
        with spans.span("encode"):
            json.dumps(result.to_dict(), sort_keys=True)
        events += result.events_executed[kind]
    return events


class NetscaleWave(Workload):
    name = "netscale-wave"
    why = (
        "lossless one-shot wave of 40 circuits: sim+net+transport+tor fast "
        "path, planning ~1 ms, fault hook bypassed"
    )

    def _spec(self, spec_seed: int) -> NetScaleConfig:
        return NetScaleConfig(
            circuit_count=4 if self.smoke else 40,
            seed=spec_seed,
            network=NetworkConfig(30, 30, 30),
        )

    def _planned(self, spec_seed: int) -> int:
        plan = plan_scenario(self._spec(spec_seed).to_scenario())
        return plan.estimated_cost()["cell_hops"]

    def build(self) -> None:
        self.experiment = get_experiment("netscale")
        spec_seed = matched_seed(self.seed, self.name, self._planned, 0.0)
        self.spec = self._spec(spec_seed)
        self.cell_hops = self._planned(spec_seed)

    def run_pass(self, workdir: str) -> PassOutcome:
        result = self.experiment.run(self.spec)
        text = json.dumps(result.to_dict(), sort_keys=True)
        return PassOutcome(text=text, ops=1)

    def trace_body(self, spans: Any, workdir: str) -> int:
        return _trace_scenario(spans, self.spec.to_scenario())


class AdversityPoint(Workload):
    name = "adversity-point"
    why = (
        "2 % link loss + relay churn on the reliable profile: fault hook "
        "armed, go-back-N, RTO timers and cancels, teardown cascades"
    )

    def build(self) -> None:
        pool = ADVERSITY_LOSS_POOL
        loss = pool[(self.seed - DEFAULT_SEED) % len(pool)]
        config = (
            AdversityStudyConfig(
                circuit_count=4, horizon=2.0, bulk_payload_bytes=kib(100)
            )
            if self.smoke
            else AdversityStudyConfig()
        )
        self.scenario = config.point_scenario(loss, 4.0)
        self.cell_hops = plan_scenario(self.scenario).estimated_cost()["cell_hops"]

    def run_pass(self, workdir: str) -> PassOutcome:
        result = run_scenario(self.scenario, cache=DEFAULT_CACHE)
        text = json.dumps(result.to_dict(), sort_keys=True)
        return PassOutcome(text=text, ops=1)

    def check(self, outcome: PassOutcome) -> None:
        super().check(outcome)
        counters = json.loads(outcome.text)["transport_counters"]
        outcome.facts["transport_counters"] = counters

    def trace_body(self, spans: Any, workdir: str) -> int:
        return _trace_scenario(spans, self.scenario)


# ----------------------------------------------------------------------
# Sweep workloads
# ----------------------------------------------------------------------


class _Sweep(Workload):
    """cold ``run_batch`` with checkpoint + plan-cache dirs, then resume."""

    workers = 1
    trace_is_full = False
    #: How many leading jobs the traced body runs.
    trace_jobs = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.specs: List[NetScaleConfig] = []
        super().__init__(seed, smoke)

    def _planned_total(self, specs: Sequence[NetScaleConfig]) -> int:
        # The jobs of a sweep share one network; a cache of this call's
        # own generates it once instead of once per job.
        cache = PlanCache()
        return sum(
            plan_scenario(spec.to_scenario(), cache=cache).estimated_cost()["cell_hops"]
            for spec in specs
        )

    def run_pass(self, workdir: str) -> PassOutcome:
        jobs = [("netscale", spec) for spec in self.specs]
        dirs = dict(
            plan_cache_dir=tempfile.mkdtemp(prefix="plans-", dir=workdir),
            checkpoint_dir=tempfile.mkdtemp(prefix="ckpt-", dir=workdir),
        )
        cold = run_batch(jobs, workers=self.workers, **dirs)
        cold_text = json.dumps(cold.to_dict(), sort_keys=True)
        replay = run_batch(jobs, workers=self.workers, resume=True, **dirs)
        replay_text = json.dumps(replay.to_dict(), sort_keys=True)
        outcome = PassOutcome(text=cold_text, ops=len(jobs))
        outcome.raw = (cold, replay, replay_text, dirs["checkpoint_dir"])
        return outcome

    def check(self, outcome: PassOutcome) -> None:
        super().check(outcome)
        cold, replay, replay_text, checkpoint_dir = outcome.raw
        count = outcome.ops
        if replay_text != outcome.text:
            outcome.problems.append("replayed output differs from cold output")
        if cold.failures() or replay.failures():
            outcome.problems.append("error records in the sweep output")
        if cold.checkpoint["computed"] != count:
            outcome.problems.append(
                "cold run computed %r of %d jobs"
                % (cold.checkpoint["computed"], count)
            )
        if replay.checkpoint["reused"] != count:
            outcome.problems.append(
                "replay reused %r of %d jobs" % (replay.checkpoint["reused"], count)
            )
        outcome.facts["plan_cache"] = dict(cold.plan_cache)
        results = os.path.join(checkpoint_dir, "results")
        outcome.facts["checkpoint_bytes"] = sum(
            os.path.getsize(os.path.join(results, name))
            for name in os.listdir(results)
        )

    def trace_body(self, spans: Any, workdir: str) -> int:
        """What ``execute_task`` does per job, layer call by layer call."""
        events = 0
        store = JobStore(tempfile.mkdtemp(prefix="trace-ckpt-", dir=workdir))
        plans = tempfile.mkdtemp(prefix="trace-plans-", dir=workdir)
        keys = []
        with attached_disk_tier(DEFAULT_CACHE, plans):
            for index, spec in enumerate(self.specs[: self.trace_jobs]):
                with spans.span("hash"):
                    spec_data = encode(spec)
                    key = job_key("netscale", spec_data)
                with spans.span("checkpoint_put"):
                    store.lease(key, "netscale", index)
                with spans.span("plan"):
                    plan = plan_scenario(spec.to_scenario(), cache=DEFAULT_CACHE)
                result_data = {}
                for kind in spec.kinds:
                    with spans.span("simulate." + kind):
                        result = run_planned(plan, kinds=[kind])
                    with spans.span("encode"):
                        result_data[kind] = encode(result)
                        json.dumps(result_data[kind], sort_keys=True)
                    events += result.events_executed[kind]
                with spans.span("checkpoint_put"):
                    store.put(key, "netscale", spec_data, result_data)
                    store.release(key)
                keys.append(key)
        for key in keys:
            with spans.span("resume_get"):
                if store.get(key) is None:
                    raise RuntimeError("checkpoint %s did not read back" % key)
        return events


class ChurnSweep(_Sweep):
    name = "churn-sweep"
    why = (
        "the repro-serve shape: 4 churn points over a 2-worker pool, one "
        "shared network, per-job checkpoints, then an all-checkpoint replay"
    )
    workers = 2

    def _specs(self, spec_seed: int) -> List[NetScaleConfig]:
        config = ChurnStudyConfig(
            rates=(1, 2, 4, 8),
            circuit_count=4 if self.smoke else 8,
            bulk_payload_bytes=kib(100 if self.smoke else 300),
            horizon=2.5 if self.smoke else 4,
            seed=spec_seed,
            network=NetworkConfig(20, 20, 20),
        )
        return [config.point_config(rate) for rate in config.rates]

    def build(self) -> None:
        spec_seed = matched_seed(
            self.seed, self.name,
            lambda candidate: self._planned_total(self._specs(candidate)),
            0.01,
        )
        self.specs = self._specs(spec_seed)
        self.cell_hops = self._planned_total(self.specs)


class SweepTiny(_Sweep):
    name = "sweep-tiny"
    why = (
        "hundreds of ~7 ms jobs in one process: per-job host work (network "
        "instantiation, planning, serialize, hashing, checkpoint I/O) is "
        "35-40 % of the time"
    )
    trace_jobs = 100

    def build(self) -> None:
        # bulk_fraction=1.0: every job shares the seed (that is what
        # makes them share one network), so the workload-mix draw is the
        # same in all of them and would otherwise move the whole sweep's
        # size 3x with the seed.
        count = 30 if self.smoke else 300
        self.trace_jobs = min(self.trace_jobs, count)
        self.specs = [
            NetScaleConfig(
                circuit_count=2,
                bulk_fraction=1.0,
                bulk_payload_bytes=kib(4) + index,
                seed=self.seed,
                network=NetworkConfig(8, 4, 4),
            )
            for index in range(count)
        ]
        self.cell_hops = self._planned_total(self.specs)


WORKLOADS = {
    cls.name: cls for cls in (NetscaleWave, AdversityPoint, ChurnSweep, SweepTiny)
}
