"""The detector's connected-component labeler against ``scipy.ndimage.label``.

``_label_blobs`` returns the raster indices of a mask's true cells and a
label per cell; scattered into a dense array, they must equal
``ndimage.label`` with a 3 x 3 structure on every cell, numbering included,
because ``detect`` emits its boxes in label order.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotrack.detector import _label_blobs
from oracle_utils import ndimage_labels


def dense_labels(mask: np.ndarray) -> np.ndarray:
    cells, labels = _label_blobs(mask)
    assert np.array_equal(cells, np.flatnonzero(mask))
    dense = np.zeros(mask.size, dtype=int)
    dense[cells] = labels
    return dense.reshape(mask.shape)


def assert_labels_match(mask: np.ndarray):
    assert np.array_equal(dense_labels(mask), ndimage_labels(mask))


def spiral(size: int) -> np.ndarray:
    """A one-cell-wide square spiral path, one empty cell between its turns."""
    mask = np.zeros((size, size), dtype=bool)
    r = c = 0
    mask[r, c] = True
    steps = [size - 1] * 3 + [n for k in range(size - 3, 0, -2) for n in (k, k)]
    for turn, n in enumerate(steps):
        dr, dc = [(0, 1), (1, 0), (0, -1), (-1, 0)][turn % 4]
        for _ in range(n):
            r, c = r + dr, c + dc
            mask[r, c] = True
    return mask


@given(st.integers(1, 40), st.integers(1, 50), st.floats(0.05, 0.8), st.integers(0, 2**32 - 1))
def test_random_masks_match_ndimage(rows, cols, density, seed):
    mask = np.random.default_rng(seed).random((rows, cols)) < density
    assert_labels_match(mask)


@pytest.mark.parametrize("shape", [(1, 1), (7, 9), (40, 50)])
def test_empty_and_full_masks(shape):
    empty = np.zeros(shape, dtype=bool)
    cells, labels = _label_blobs(empty)
    assert len(cells) == len(labels) == 0
    assert_labels_match(empty)
    full = np.ones(shape, dtype=bool)
    assert_labels_match(full)
    assert set(dense_labels(full).ravel()) == {1}


def test_runs_do_not_join_across_a_row_wrap():
    # (0, 5) and (1, 0) are neighbours in raster order but not on the grid.
    mask = np.zeros((3, 6), dtype=bool)
    mask[0, 3:] = True
    mask[1, :2] = True
    mask[2, 5] = True
    assert_labels_match(mask)
    assert dense_labels(mask)[[0, 1, 2], [5, 0, 5]].tolist() == [1, 2, 3]


def test_edge_runs_join_their_own_rows_neighbours():
    mask = np.zeros((4, 5), dtype=bool)
    mask[:, 0] = True  # a left-edge column
    mask[1:3, 4] = True  # a right-edge column
    mask[3, 3] = True  # diagonal to the right-edge column
    assert_labels_match(mask)
    assert dense_labels(mask)[[0, 1, 3], [0, 4, 3]].tolist() == [1, 2, 2]


@pytest.mark.parametrize("flip", [False, True], ids=["diagonal", "anti-diagonal"])
def test_diagonal_chains_are_one_component(flip):
    mask = np.eye(12, 15, k=2, dtype=bool)
    mask = mask[:, ::-1] if flip else mask
    assert_labels_match(mask)
    assert set(dense_labels(mask)[mask]) == {1}


def test_a_u_joins_only_at_its_base():
    # Each arm is its own run in every row above the base, so the arms'
    # labels meet only once the base's joins are resolved.
    mask = np.zeros((10, 9), dtype=bool)
    mask[:, 1] = mask[:, 7] = True
    mask[9, 1:8] = True
    mask[0, 4] = True  # a separate dot between the arms' tops
    assert_labels_match(mask)
    labels = dense_labels(mask)
    assert labels[0, 1] == labels[0, 7] == 1 and labels[0, 4] == 2


def test_a_comb_joins_every_tooth_through_its_back():
    # The back joins all teeth at once; hooking sends it to the first tooth
    # and the other teeth follow in a later round.
    mask = np.zeros((8, 21), dtype=bool)
    mask[:7, ::2] = True
    mask[7] = True
    assert_labels_match(mask)
    assert set(dense_labels(mask)[mask]) == {1}


@pytest.mark.parametrize("size", [5, 9, 16, 31])
def test_a_spiral_is_one_component(size):
    mask = spiral(size)
    assert_labels_match(mask)
    assert set(dense_labels(mask)[mask]) == {1}
