"""Tests for the interleaving enumerator (repro.check.search)."""

from __future__ import annotations

import pytest

from repro.check import CheckConfig, CheckResult, explore
from repro.check.search import _footprint, _independence_masks, _independent
from repro.serialize import decode, encode


# ----------------------------------------------------------------------
# Structural independence
# ----------------------------------------------------------------------


def test_rto_and_close_are_global():
    cfg = CheckConfig(hops=2, reliable=True, allow_close=True)
    assert _footprint(("rto", 0), cfg) is None
    assert _footprint(("close", 0), cfg) is None
    assert not _independent(("rto", 0), ("cell", 1), cfg)
    assert not _independent(("close", 0), ("feedback", 1), cfg)


def test_deliveries_on_distant_hops_commute():
    cfg = CheckConfig(hops=3)
    assert _independent(("cell", 0), ("cell", 2), cfg)
    # Delivering hop 0's cell updates node 1's protocol state (receiver
    # 0 and the relay sender it feeds); so does delivering feedback for
    # hop 1.  Shared port -> dependent.
    assert not _independent(("cell", 0), ("feedback", 1), cfg)


def test_head_and_tail_of_one_fifo_are_distinct_ports():
    # Delivering hop 1's cell pushes feedback onto rev[1]'s tail;
    # delivering hop 1's feedback pops rev[1]'s head.  Pop-head and
    # push-tail commute when the pop is enabled — dependent only if
    # they shared a port.
    cfg = CheckConfig(hops=2)
    fp_cell = _footprint(("cell", 1), cfg)
    fp_fb = _footprint(("feedback", 1), cfg)
    assert ("rev", 1, "tail") in fp_cell
    assert ("rev", 1, "head") in fp_fb
    assert _independent(("cell", 1), ("feedback", 1), cfg)


def test_loss_budget_couples_all_loss_actions():
    free = CheckConfig(hops=3, reliable=True)
    capped = CheckConfig(hops=3, reliable=True, loss_budget=1)
    assert _independent(("lose_cell", 0), ("lose_cell", 2), free)
    assert not _independent(("lose_cell", 0), ("lose_cell", 2), capped)


def test_independence_masks_match_pairwise_relation():
    cfg = CheckConfig(hops=2, reliable=True, allow_close=True)
    action_bit, indep_mask = _independence_masks(cfg)
    for a, bit_a in action_bit.items():
        for b, bit_b in action_bit.items():
            assert bool(indep_mask[a] & bit_b) == _independent(a, b, cfg)
            # Independence is symmetric.
            assert bool(indep_mask[a] & bit_b) == bool(indep_mask[b] & bit_a)


# ----------------------------------------------------------------------
# Exhaustive exploration: pinned instances
# ----------------------------------------------------------------------


def test_lossless_two_hop_instance_pinned():
    result = explore(CheckConfig(hops=2, cells=3))
    assert result.ok and result.exhaustive
    assert result.stats.states == 49
    assert result.stats.terminals == 1   # lossless: unique final state


def test_single_hop_single_cell_smallest_instance():
    result = explore(CheckConfig(hops=1, cells=1))
    assert result.ok
    # send -> deliver -> ack: three states on one line.
    assert result.stats.states == 3
    assert result.stats.transitions == 2


def test_reliable_instance_is_exhaustive_and_clean():
    result = explore(CheckConfig(hops=2, cells=2, reliable=True,
                                 max_retransmission_rounds=1))
    assert result.ok and result.exhaustive
    assert result.stats.states == 40500
    assert result.stats.terminals == 22


# ----------------------------------------------------------------------
# POR soundness: the reduction prunes transitions, never states
# ----------------------------------------------------------------------


POR_CROSS_CHECK_CONFIGS = [
    CheckConfig(hops=2, cells=3),
    CheckConfig(hops=3, cells=2),
    CheckConfig(hops=2, cells=2, window_mode="double", max_cwnd=8),
    CheckConfig(hops=2, cells=2, allow_close=True),
    CheckConfig(hops=1, cells=3, reliable=True, max_retransmission_rounds=2),
    CheckConfig(hops=2, cells=2, reliable=True, max_retransmission_rounds=1,
                loss_budget=1),
    CheckConfig(hops=2, cells=2, reliable=True, max_retransmission_rounds=1,
                allow_close=True),
]


@pytest.mark.parametrize("cfg", POR_CROSS_CHECK_CONFIGS,
                         ids=lambda c: "h%dc%d%s%s%s" % (
                             c.hops, c.cells,
                             "r" if c.reliable else "",
                             "x" if c.allow_close else "",
                             "d" if c.window_mode == "double" else ""))
def test_por_reaches_exactly_the_full_state_set(cfg):
    with_por = explore(cfg, por=True)
    without = explore(cfg, por=False)
    assert with_por.stats.states == without.stats.states
    assert with_por.stats.terminals == without.stats.terminals
    assert with_por.ok == without.ok
    assert len(with_por.violations) == len(without.violations)
    # The point of the reduction: strictly fewer transitions explored.
    assert with_por.stats.transitions < without.stats.transitions


# ----------------------------------------------------------------------
# Teeth: planted bugs must be caught, with usable counterexamples
# ----------------------------------------------------------------------


def test_planted_duplicate_acceptance_is_caught():
    cfg = CheckConfig(hops=2, cells=2, reliable=True,
                      max_retransmission_rounds=1)
    result = explore(cfg, _injected_bug="accept-duplicates",
                     max_violations=3)
    assert not result.ok
    assert {v.invariant for v in result.violations} == {"in-order-delivery"}


def test_planted_close_leak_is_caught():
    cfg = CheckConfig(hops=2, cells=2, allow_close=True)
    result = explore(cfg, _injected_bug="leak-outstanding-on-close",
                     max_violations=10)
    assert not result.ok
    names = {v.invariant for v in result.violations}
    assert "conservation" in names
    assert "quiescence-after-close" in names


def test_counterexample_schedule_reproduces_the_violation():
    cfg = CheckConfig(hops=2, cells=2, allow_close=True)
    result = explore(cfg, _injected_bug="leak-outstanding-on-close",
                     max_violations=1)
    ce = result.violations[0]
    # Replaying the counterexample on a faithful model shows no leak...
    clean = ce.schedule.run_model()
    assert all(h.outstanding == len(h.inflight) for h in clean.hops)
    # ...and on the buggy model reproduces it.
    from repro.check import ModelState
    buggy = ModelState.initial(cfg)
    buggy.injected_bug = "leak-outstanding-on-close"
    for action in ce.schedule.actions:
        buggy.apply(action)
    assert any(h.outstanding != len(h.inflight) for h in buggy.hops)


def test_planted_bugs_found_with_and_without_por():
    # The reduction must not prune the states that expose a bug.
    cfg = CheckConfig(hops=2, cells=2, allow_close=True)
    for por in (True, False):
        result = explore(cfg, por=por,
                         _injected_bug="leak-outstanding-on-close",
                         max_violations=1)
        assert not result.ok, "por=%s missed the planted bug" % por


# ----------------------------------------------------------------------
# Bounds, sampling, serialization
# ----------------------------------------------------------------------


def test_max_states_truncates_and_flags():
    result = explore(CheckConfig(hops=2, cells=3, reliable=True,
                                 max_retransmission_rounds=1),
                     max_states=500)
    assert result.stats.truncated
    assert not result.exhaustive
    assert result.stats.states <= 501


def test_max_depth_truncates_and_flags():
    result = explore(CheckConfig(hops=2, cells=3), max_depth=4)
    assert result.stats.truncated
    assert result.stats.max_depth_reached <= 5


def test_sampled_schedules_are_complete_and_deterministic():
    cfg = CheckConfig(hops=2, cells=2, allow_close=True)
    a = explore(cfg, sample_schedules=6, seed=7)
    b = explore(cfg, sample_schedules=6, seed=7)
    assert [s.actions for s in a.samples] == [s.actions for s in b.samples]
    assert 0 < len(a.samples) <= 6
    for sched in a.samples:
        final = sched.run_model()
        assert final.enabled_actions() == []  # complete: runs to a terminal


def test_result_round_trips_through_serialize():
    result = explore(CheckConfig(hops=1, cells=2), sample_schedules=2)
    back = decode(CheckResult, encode(result))
    assert back.stats.states == result.stats.states
    assert back.config == result.config
    assert len(back.samples) == len(result.samples)


# ----------------------------------------------------------------------
# Symmetry reduction over identical interior hops
# ----------------------------------------------------------------------


def test_symmetric_key_is_identity_below_three_hops():
    from repro.check import ModelState

    cfg = CheckConfig(hops=2, cells=2)
    state = ModelState.initial(cfg)
    assert state.canonical_symmetric() == state.canonical()


def test_symmetry_reduces_states_on_wide_instances():
    cfg = CheckConfig(hops=4, cells=2)
    plain = explore(cfg)
    reduced = explore(cfg, symmetry=True)
    assert not plain.stats.symmetry and reduced.stats.symmetry
    # The point of the quotient: strictly fewer represented states.
    assert reduced.stats.states < plain.stats.states
    assert plain.ok and reduced.ok
    assert plain.exhaustive and reduced.exhaustive


def test_symmetry_matches_unreduced_on_two_hop_instances():
    # No interior hop pair below three hops: the quotient must
    # degenerate to the identity, byte for byte — same states, same
    # transitions, same terminals.
    cfg = CheckConfig(hops=2, cells=2, allow_close=True)
    plain = explore(cfg)
    reduced = explore(cfg, symmetry=True)
    assert reduced.stats.states == plain.stats.states
    assert reduced.stats.transitions == plain.stats.transitions
    assert reduced.stats.terminals == plain.stats.terminals
    assert plain.ok and reduced.ok


def test_symmetry_keeps_detection_power_on_two_hop_teeth():
    # The 2-hop teeth instances: every planted bug caught without the
    # reduction is caught with it, with the same invariant names.
    duplicate_cfg = CheckConfig(hops=2, cells=2, reliable=True,
                                max_retransmission_rounds=1)
    leak_cfg = CheckConfig(hops=2, cells=2, allow_close=True)
    for cfg, bug in ((duplicate_cfg, "accept-duplicates"),
                     (leak_cfg, "leak-outstanding-on-close")):
        plain = explore(cfg, _injected_bug=bug, max_violations=5)
        reduced = explore(cfg, symmetry=True, _injected_bug=bug,
                          max_violations=5)
        assert not plain.ok and not reduced.ok
        assert ({v.invariant for v in plain.violations}
                == {v.invariant for v in reduced.violations})
