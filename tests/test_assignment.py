import numpy as np
import pytest

from cotrack.assignment import solve_assignment
from cotrack.errors import NumericError, ShapeMismatchError
from oracle_utils import brute_force_assignment


class TestSolveAssignment:
    def test_single_entry(self):
        assert solve_assignment([[7.0]]) == [(0, 0)]

    def test_two_by_two_prefers_global_optimum(self):
        # Brute force: (0,0)+(1,1) costs 5, (0,1)+(1,0) costs 4.
        assert solve_assignment([[1.0, 2.0], [2.0, 4.0]]) == [(0, 1), (1, 0)]

    def test_empty_matrix(self):
        assert solve_assignment(np.zeros((0, 0))) == []
        assert solve_assignment(np.zeros((0, 3))) == []
        assert solve_assignment(np.zeros((3, 0))) == []

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            solve_assignment([[1.0, np.inf], [0.0, 1.0]])

    def test_non_2d_rejected(self):
        for cost in ([1.0, 2.0], np.zeros((2, 2, 2)), 3.0):
            with pytest.raises(ShapeMismatchError):
                solve_assignment(cost)

    def test_rectangular_wide(self):
        pairs = solve_assignment([[5.0, 1.0, 9.0]])
        assert pairs == [(0, 1)]

    def test_rectangular_tall(self):
        pairs = solve_assignment([[5.0], [1.0], [9.0]])
        assert pairs == [(1, 0)]

    def test_random_five_by_five_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            cost = rng.uniform(0, 10, size=(5, 5))
            pairs = solve_assignment(cost)
            total = sum(cost[r, c] for r, c in pairs)
            expected, _ = brute_force_assignment(cost)
            assert total == expected

    def test_all_shapes_up_to_six_match_brute_force(self):
        rng = np.random.default_rng(3)
        for n in range(1, 7):
            for m in range(1, 7):
                for _ in range(4):
                    cost = rng.uniform(-5, 5, size=(n, m))
                    pairs = solve_assignment(cost)
                    assert len(pairs) == min(n, m)
                    rows = [r for r, _ in pairs]
                    cols = [c for _, c in pairs]
                    assert len(set(rows)) == len(rows)
                    assert len(set(cols)) == len(cols)
                    total = sum(cost[r, c] for r, c in pairs)
                    expected, _ = brute_force_assignment(cost)
                    assert total == pytest.approx(expected, abs=1e-9)

    def test_tie_break_lowest_row_then_column(self):
        assert solve_assignment(np.zeros((2, 2))) == [(0, 0), (1, 1)]
        assert solve_assignment([[1.0, 2.0], [1.0, 2.0]]) == [(0, 0), (1, 1)]
        # Row 0 prefers column 0 even though both optima share the same cost.
        assert solve_assignment([[5.0, 5.0]]) == [(0, 0)]
        assert solve_assignment([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]) == [(0, 0), (1, 1)]

    def test_tie_break_matches_brute_force_on_integer_matrices(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            cost = rng.integers(0, 3, size=(n, m)).astype(float)
            _, expected_pairs = brute_force_assignment(cost)
            assert solve_assignment(cost) == expected_pairs

    def test_negative_costs(self):
        cost = np.array([[-3.0, -1.0], [-2.0, -4.0]])
        pairs = solve_assignment(cost)
        assert pairs == [(0, 0), (1, 1)]
