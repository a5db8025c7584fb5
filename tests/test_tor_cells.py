"""Unit tests for Tor cells (repro.tor.cells)."""

from __future__ import annotations

import pytest

from repro.tor.cells import (
    Cell,
    CellKind,
    DataCell,
    DestroyCell,
    FeedbackCell,
    cells_for_transfer,
)
from repro.transport.config import CELL_PAYLOAD, CELL_SIZE, FEEDBACK_SIZE


def test_data_cell_is_fixed_size():
    cell = DataCell(1, stream_id=1, offset=0, payload_bytes=100)
    assert cell.size == CELL_SIZE == 512
    assert cell.kind is CellKind.DATA


def test_data_cell_payload_bounds():
    with pytest.raises(ValueError):
        DataCell(1, 1, 0, 0)
    with pytest.raises(ValueError):
        DataCell(1, 1, 0, CELL_PAYLOAD + 1)
    with pytest.raises(ValueError):
        DataCell(1, 1, -5, 10)


def test_feedback_cell_is_small():
    cell = FeedbackCell(1, acked_seq=7)
    assert cell.size == FEEDBACK_SIZE
    assert cell.size < CELL_SIZE
    assert cell.acked_seq == 7
    assert cell.kind is CellKind.FEEDBACK


def test_feedback_cell_rejects_negative_seq():
    with pytest.raises(ValueError):
        FeedbackCell(1, acked_seq=-1)


def test_control_cells_kinds():
    cell = DestroyCell(1)
    assert cell.kind is CellKind.DESTROY
    assert cell.size == CELL_SIZE


def test_hop_seq_starts_unassigned():
    cell = DataCell(1, 1, 0, 10)
    assert cell.hop_seq == -1


def test_cell_size_must_be_positive():
    with pytest.raises(ValueError):
        Cell(1, CellKind.DATA, 0)


@pytest.mark.parametrize("size", [0.5, 1.5, 511.25, -0.5, float("nan"), float("inf")])
def test_a_cell_size_that_is_not_a_positive_whole_number_is_rejected(size):
    # 0.5 used to be kept as a float size.
    with pytest.raises(ValueError, match="positive whole number"):
        Cell(1, CellKind.DATA, size)


def test_an_integral_float_cell_size_is_stored_as_an_int():
    size = Cell(1, CellKind.DATA, 512.0).size
    assert size == 512 and type(size) is int


def test_cells_for_transfer_splits_payload():
    cells = cells_for_transfer(9, CELL_PAYLOAD * 2 + 10)
    assert len(cells) == 3
    assert [c.payload_bytes for c in cells] == [CELL_PAYLOAD, CELL_PAYLOAD, 10]
    assert [c.offset for c in cells] == [0, CELL_PAYLOAD, CELL_PAYLOAD * 2]
    assert all(c.circuit_id == 9 for c in cells)


def test_cells_for_transfer_marks_last():
    cells = cells_for_transfer(1, CELL_PAYLOAD + 1)
    assert [c.is_last for c in cells] == [False, True]


def test_cells_for_transfer_total_matches():
    total = 123456
    cells = cells_for_transfer(1, total)
    assert sum(c.payload_bytes for c in cells) == total


def test_cells_for_transfer_empty():
    assert cells_for_transfer(1, 0) == []


def test_cells_for_transfer_negative_rejected():
    with pytest.raises(ValueError):
        cells_for_transfer(1, -1)
