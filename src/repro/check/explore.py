"""Exhaustive interleaving enumeration with partial-order reduction.

The enumerator runs a depth-first search over
:class:`~repro.check.model.ModelState` transitions, asserting the
:mod:`~repro.check.invariants` catalog in every reached state.  Two
classic techniques keep small instances tractable:

**State hashing.**  States are cached by their canonical projection
(:meth:`ModelState.canonical`); an execution that reconverges onto a
seen state stops there.

**Sleep sets.**  A sound partial-order reduction: after exploring
action *a* from a state, any sibling *b* that is *independent* of *a*
need not be re-explored in *a*'s subtree (the commuted execution
reaches the same states through the sibling branch).  Independence is
structural and state-independent: every action touches a fixed set of
"ports" — a channel's head, a channel's tail, a node's protocol state
— and two actions are independent iff their port sets are disjoint.
Head and tail of the same FIFO are distinct ports (pop-head and
push-tail commute whenever the pop is enabled, which enabledness
guarantees).  Actions with global effect (RTO, which may break the
circuit; close) are dependent on everything.  Crucially, sleep sets
prune *transitions*, never states, so an invariant checked on every
reached state is checked on exactly the same set of states with the
reduction on or off — ``tests/test_check_explore.py`` pins this by
cross-checking against ``por=False``.

The state cache stores, per state, the accumulated sleep set it has
been explored with (sleep sets with state caching): a revisit with
sleep set *s* explores only the *delta* actions ``stored & ~s`` — the
ones no prior visit covered — and lowers the stored mask to the
intersection.  A revisit whose delta is empty is skipped outright.
Sleep sets are represented as bitmasks over the (tiny) action
alphabet, so all the set algebra on the hot path is integer arithmetic.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..serialize import Serializable
from .invariants import state_violations, terminal_violations
from .model import (
    Action,
    CheckConfig,
    InvariantViolationError,
    ModelState,
)
from .schedule import Schedule

__all__ = ["CheckResult", "CheckStats", "Counterexample", "check_bounds", "explore"]


# ----------------------------------------------------------------------
# Independence via structural footprints
# ----------------------------------------------------------------------

Port = Tuple[Any, ...]


def _footprint(action: Action, config: CheckConfig) -> Optional[FrozenSet[Port]]:
    """The ports *action* may read or write, or ``None`` for global.

    Conservative and state-independent (a requirement for sleep-set
    soundness): the footprint covers everything the action could touch
    in *any* state, e.g. a delivery includes the downstream pump's
    pushes even when the window would not release anything.
    """
    kind, i = action
    if kind in ("rto", "close"):
        # An RTO may exhaust the retransmission budget and tear the
        # whole circuit down; close always does.  Global.
        return None
    if kind == "cell":
        ports = {("fwd", i, "head"), ("node", i + 1), ("rev", i, "tail")}
        if i + 1 < config.hops:
            ports.add(("fwd", i + 1, "tail"))
        return frozenset(ports)
    if kind == "feedback":
        ports = {("rev", i, "head"), ("node", i), ("fwd", i, "tail")}
        if i > 0:
            ports.add(("rev", i - 1, "tail"))
        return frozenset(ports)
    if kind in ("lose_cell", "lose_feedback"):
        channel = "fwd" if kind == "lose_cell" else "rev"
        ports = {(channel, i, "head")}
        if config.loss_budget is not None:
            # A shared budget couples every loss action's enabledness.
            ports.add(("loss-budget",))
        return frozenset(ports)
    raise ValueError("unknown action kind %r" % (kind,))


def _independent(a: Action, b: Action, config: CheckConfig) -> bool:
    fa = _footprint(a, config)
    if fa is None:
        return False
    fb = _footprint(b, config)
    if fb is None:
        return False
    return not (fa & fb)


def _independence_masks(
    config: CheckConfig,
) -> Tuple[Dict[Action, int], Dict[Action, int]]:
    """Bitmask encoding of the independence relation.

    The alphabet has at most ``6 * hops`` actions, so a sleep *set* fits
    in a machine int: ``action_bit[a]`` is a's bit, ``indep_mask[a]``
    has the bits of every action independent of *a*.  Set union,
    membership and subset tests on the DFS hot path then collapse to
    ``|``, ``&`` and mask comparisons.
    """
    kinds = ("cell", "feedback", "lose_cell", "lose_feedback", "rto", "close")
    alphabet = [(kind, i) for kind in kinds for i in range(config.hops)]
    action_bit = {a: 1 << n for n, a in enumerate(alphabet)}
    indep_mask = {
        a: sum(action_bit[b] for b in alphabet if _independent(a, b, config))
        for a in alphabet
    }
    return action_bit, indep_mask


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample(Serializable):
    """One invariant violation plus the schedule that reaches it."""

    invariant: str
    detail: str
    schedule: Schedule


@dataclass
class CheckStats(Serializable):
    """Exploration statistics."""

    states: int = 0
    transitions: int = 0
    revisits: int = 0
    sleep_skips: int = 0
    terminals: int = 0
    max_depth_reached: int = 0
    elapsed_seconds: float = 0.0
    por: bool = True
    symmetry: bool = False
    truncated: bool = False


@dataclass
class CheckResult(Serializable):
    """Outcome of one exhaustive check."""

    config: CheckConfig
    stats: CheckStats
    violations: List[Counterexample] = field(default_factory=list)
    #: Reservoir-sampled complete (terminal) schedules, for replay.
    samples: List[Schedule] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def exhaustive(self) -> bool:
        return not self.stats.truncated


# ----------------------------------------------------------------------
# The enumerator
# ----------------------------------------------------------------------


class _Frame:
    __slots__ = ("state", "enabled", "index", "sleep", "explored")

    def __init__(self, state: ModelState, enabled: List[Action],
                 sleep: int) -> None:
        self.state = state
        self.enabled = enabled
        self.index = 0
        self.sleep = sleep      # bitmask over the action alphabet
        self.explored = 0       # bitmask of siblings already explored


def check_bounds(
    max_states: Optional[int], max_depth: Optional[int], sample_schedules: int
) -> None:
    """Refuse exploration bounds under which nothing would be checked.

    A state bound below 1 or a negative depth bound would explore the
    initial state alone and pass; a negative replay count is no count.
    """
    if max_states is not None and max_states < 1:
        raise ValueError("state bound must be at least 1, got %d" % max_states)
    if max_depth is not None and max_depth < 0:
        raise ValueError("depth bound must be non-negative, got %d" % max_depth)
    if sample_schedules < 0:
        raise ValueError(
            "replay count must be non-negative, got %d" % sample_schedules
        )


def explore(
    config: CheckConfig,
    por: bool = True,
    symmetry: bool = False,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    sample_schedules: int = 0,
    seed: int = 0,
    max_violations: int = 20,
    _injected_bug: str = "",
) -> CheckResult:
    """Enumerate every interleaving of *config*'s instance.

    Parameters
    ----------
    por:
        Enable the sleep-set reduction.  ``False`` explores the full
        transition graph (same states, more transitions) — the
        cross-check mode.
    symmetry:
        Hash states through
        :meth:`~repro.check.model.ModelState.canonical_symmetric`:
        permutations of structurally identical interior hops share one
        cache entry.  A heuristic quotient (see that method's caveat),
        so it is opt-in; with fewer than three hops it changes
        nothing.
    max_states / max_depth:
        Optional exploration bounds; hitting either sets
        ``stats.truncated`` (the verdict is then a bounded check, not
        a proof).
    sample_schedules:
        Reservoir-sample this many *complete* (terminal) schedules for
        engine replay.
    seed:
        Reservoir RNG seed (sampling only — exploration itself is
        deterministic).
    max_violations:
        Stop after this many counterexamples.
    _injected_bug:
        Tests only: plant a model fault (``ModelState.injected_bug``)
        so the checker's teeth — that it actually catches violations —
        can themselves be tested.
    """
    check_bounds(max_states, max_depth, sample_schedules)
    started = time.monotonic()
    stats = CheckStats(por=por, symmetry=symmetry)
    canonical_key = (ModelState.canonical_symmetric if symmetry
                     else ModelState.canonical)
    violations: List[Counterexample] = []
    samples: List[Schedule] = []
    rng = random.Random(seed)
    terminal_arrivals = 0
    if por:
        action_bit, indep_mask = _independence_masks(config)
    else:
        action_bit, indep_mask = {}, {}

    def record_violation(name: str, detail: str, actions: List[Action]) -> None:
        violations.append(Counterexample(
            invariant=name,
            detail=detail,
            schedule=Schedule.from_actions(
                config, actions, note="counterexample: %s" % name
            ),
        ))

    def record_terminal(actions: List[Action]) -> None:
        # Reservoir sampling; the Schedule object is only materialized
        # for accepted slots (expected O(k log n) constructions, not n).
        nonlocal terminal_arrivals
        terminal_arrivals += 1
        if sample_schedules <= 0:
            return
        if len(samples) < sample_schedules:
            slot = len(samples)
            samples.append(None)
        else:
            slot = rng.randrange(terminal_arrivals)
            if slot >= sample_schedules:
                return
        samples[slot] = Schedule.from_actions(
            config, actions, note="sampled terminal schedule (seed=%d)" % seed
        )

    # State cache: canonical key -> accumulated sleep-set bitmask.  The
    # invariant is "this state's subtree has been explored with sleep
    # set seen[key]" — i.e. every enabled action OUTSIDE the mask has a
    # fully explored subtree.  A revisit with sleep s therefore only
    # needs the *delta* actions (stored & ~s): exploring exactly those
    # yields the coverage of a fresh visit with sleep stored ∩ s, which
    # becomes the new accumulated mask (Godefroid's sleep sets with
    # state caching).  States are never pruned, only transitions, so
    # the reached-state set is identical with POR on or off.
    seen: Dict[Tuple[Any, ...], int] = {}

    # Hot-loop counters live in locals (the loop runs millions of
    # times; attribute stores on the stats dataclass are measurable).
    n_states = n_transitions = n_revisits = n_skips = n_terminals = 0
    max_depth_reached = 0

    root = ModelState.initial(config)
    root.injected_bug = _injected_bug
    path: List[Action] = []
    stack: List[_Frame] = []
    seen[canonical_key(root)] = 0
    n_states += 1
    for name, detail in state_violations(root):
        record_violation(name, detail, path)
    enabled = root.enabled_actions()
    if enabled:
        stack.append(_Frame(root, enabled, 0))
    else:
        n_terminals += 1
        for name, detail in terminal_violations(root):
            record_violation(name, detail, path)
        record_terminal(path)

    seen_get = seen.get

    while stack:
        if len(violations) >= max_violations:
            stats.truncated = True
            break
        if max_states is not None and n_states >= max_states:
            stats.truncated = True
            break
        frame = stack[-1]
        index = frame.index
        if index >= len(frame.enabled):
            stack.pop()
            if path:
                path.pop()
            continue
        action = frame.enabled[index]
        frame.index = index + 1
        if por:
            bit = action_bit[action]
            if bit & frame.sleep:
                continue
        if max_depth is not None and len(stack) > max_depth:
            stats.truncated = True
            stack.pop()
            if path:
                path.pop()
            continue
        n_transitions += 1
        child = frame.state.clone_for(action)
        try:
            # clone_for left the write-set caches invalid, so the
            # trusted (no re-invalidation) transition is safe here.
            child._apply_trusted(action)
        except InvariantViolationError as err:
            record_violation(err.invariant, err.detail, path + [action])
            if por:
                frame.explored |= bit
            continue
        if por:
            # sleep(child) = (sleep ∪ explored-before-action) ∩ indep(action)
            child_sleep = (frame.sleep | frame.explored) & indep_mask[action]
            frame.explored |= bit
        else:
            child_sleep = 0
        path.append(action)
        depth = len(path)
        if depth > max_depth_reached:
            max_depth_reached = depth
        # --- child arrival, inlined (once per transition). ---
        key = canonical_key(child)
        stored = seen_get(key)
        if stored is None:
            n_states += 1
            for name, detail in state_violations(child):
                record_violation(name, detail, path)
            seen[key] = child_sleep
            child_enabled = child.enabled_actions()
            if child_enabled:
                stack.append(_Frame(child, child_enabled, child_sleep))
            else:
                n_terminals += 1
                for name, detail in terminal_violations(child):
                    record_violation(name, detail, path)
                record_terminal(path)
                path.pop()
        else:
            n_revisits += 1
            delta = stored & ~child_sleep
            if not delta:
                # stored ⊆ child_sleep: the prior visits already cover
                # everything this one would explore.
                n_skips += 1
                path.pop()
            else:
                # Explore only the delta actions; everything outside
                # `stored` was fully explored by prior visits, so it
                # joins the frame's sleep set (and thereby the
                # children's, where independent).
                child_enabled = child.enabled_actions()
                delta_actions = [
                    a for a in child_enabled if action_bit[a] & delta
                ]
                seen[key] = stored & child_sleep
                if delta_actions:
                    frame_sleep = 0
                    for a in child_enabled:
                        bit2 = action_bit[a]
                        if not (bit2 & delta):
                            frame_sleep |= bit2
                    stack.append(
                        _Frame(child, delta_actions, frame_sleep)
                    )
                else:
                    if not child_enabled:
                        record_terminal(path)
                    path.pop()

    stats.states = n_states
    stats.transitions = n_transitions
    stats.revisits = n_revisits
    stats.sleep_skips = n_skips
    stats.terminals = n_terminals
    stats.max_depth_reached = max_depth_reached
    stats.elapsed_seconds = time.monotonic() - started
    return CheckResult(
        config=config, stats=stats, violations=violations, samples=samples
    )
