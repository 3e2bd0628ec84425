import re

import numpy as np
import pytest

from fittedq import matrix_game

PENNIES = [[1.0, -1.0], [-1.0, 1.0]]
RPS = [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]


class TestSolve:
    def test_matching_pennies(self):
        sol = matrix_game.solve(PENNIES)
        assert abs(sol.value) <= 1e-10
        assert np.allclose(sol.row_strategy, 0.5, atol=1e-10)
        assert np.allclose(sol.col_strategy, 0.5, atol=1e-10)

    def test_rock_paper_scissors(self):
        sol = matrix_game.solve(RPS)
        assert abs(sol.value) <= 1e-10
        assert np.allclose(sol.row_strategy, 1 / 3, atol=1e-10)
        assert np.allclose(sol.col_strategy, 1 / 3, atol=1e-10)

    def test_asymmetric_mixture(self):
        # [[3,1],[0,2]]: equalizing row mixture (p, 1-p) solves
        # 3p = 1p + 2(1-p) -> p = 0.5, value 1.5; verified against a fine
        # grid search over row mixtures below.
        sol = matrix_game.solve([[3.0, 1.0], [0.0, 2.0]])
        assert abs(sol.value - 1.5) <= 1e-9
        assert np.allclose(sol.row_strategy, 0.5, atol=1e-9)
        m = np.array([[3.0, 1.0], [0.0, 2.0]])
        best = max(min((np.array([p, 1 - p]) @ m)) for p in np.linspace(0, 1, 2001))
        assert abs(sol.value - best) <= 1e-3

    def test_all_equal_payoffs_uniform(self):
        sol = matrix_game.solve(np.full((3, 4), 2.5))
        assert sol.value == 2.5
        assert np.allclose(sol.row_strategy, 1 / 3)
        assert np.allclose(sol.col_strategy, 1 / 4)

    def test_single_row_and_column(self):
        sol = matrix_game.solve([[4.0, -1.0, 2.0]])
        assert sol.value == -1.0
        assert sol.col_strategy.tolist() == [0.0, 1.0, 0.0]
        sol = matrix_game.solve([[4.0], [-1.0], [7.0]])
        assert sol.value == 7.0
        assert sol.row_strategy.tolist() == [0.0, 0.0, 1.0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            matrix_game.solve(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            matrix_game.solve([[np.inf, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            matrix_game.solve([1.0, 2.0])
        with pytest.raises(ValueError, match="max - min \\+ 1 overflows"):
            matrix_game.solve([[1e308, -1e308], [-1e308, 1e308]])

    @pytest.mark.parametrize("payoff, gap", [([[1e307, -1e307], [-1e307, 1e307]], "0.000e+00"),
                                             ([[3e15, -1e16], [-2e16, 5e15]], "1.500e+16")],
                             ids=["roundoff-value", "roundoff-gap"])
    def test_roundoff_fails_the_solution_check(self, payoff, gap):
        # Each range fits in a double, but the simplex loses the value (the
        # guarantees agree, the value does not) or the gap to roundoff.
        with pytest.raises(matrix_game.MatrixGameError,
                           match=re.escape(f"solution check failed: gap={gap}, ")):
            matrix_game.solve(payoff)

    @pytest.mark.parametrize("function", [
        matrix_game.solve,
        lambda payoff: matrix_game.best_response_value(payoff, [0.5, 0.5], "row"),
    ], ids=["solve", "best_response_value"])
    @pytest.mark.parametrize("payoff, message", [
        ([[1.0, "a"]], None),
        ([], "nonempty 2-D matrix"),
        ([[1.0, 2.0], [3.0]], None),
        ([[]], "nonempty 2-D matrix"),
        ([[1.0, np.nan], [0.0, 1.0]], "non-finite entries"),
        ([[1e308, -1e308], [-1e308, 1e308]], "max - min \\+ 1 overflows"),
    ], ids=["string", "empty", "ragged", "empty-row", "non-finite", "range-past-a-double"])
    def test_payoff_that_is_not_a_finite_matrix_is_rejected(self, function, payoff, message):
        # Both entry points share the check; a string or ragged payoff fails
        # in numpy's conversion, the rest in the check's own messages.
        with pytest.raises(ValueError, match=message):
            function(payoff)


class TestBestResponseValue:
    def test_uniform_vs_pennies(self):
        assert matrix_game.best_response_value(PENNIES, [0.5, 0.5], "row") == 0.0

    def test_pure_row_vs_asymmetric(self):
        assert matrix_game.best_response_value([[3.0, 1.0], [0.0, 2.0]],
                                               [1.0, 0.0], "row") == 1.0

    def test_solution_strategies_achieve_value(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = rng.normal(size=(4, 5))
            sol = matrix_game.solve(m)
            assert abs(matrix_game.best_response_value(m, sol.row_strategy, "row")
                       - sol.value) <= 1e-8
            assert abs(matrix_game.best_response_value(m, sol.col_strategy, "col")
                       - sol.value) <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matrix_game.best_response_value(PENNIES, [0.5, 0.25, 0.25], "row")
        with pytest.raises(ValueError):
            matrix_game.best_response_value(PENNIES, [0.5, 0.5], "diagonal")

    @pytest.mark.parametrize("side", ["row", "col"])
    @pytest.mark.parametrize("strategy", [[1.5, -0.5], [0.5, 0.4], [0.6, 0.6]],
                             ids=["negative-entry", "sum-below-one", "sum-above-one"])
    def test_strategy_off_the_simplex_is_rejected(self, side, strategy):
        with pytest.raises(ValueError, match=f"{side} strategy is not on the simplex"):
            matrix_game.best_response_value(PENNIES, strategy, side)


class TestInvariants:
    def test_strong_duality_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n_a = int(rng.integers(1, 11))
            n_b = int(rng.integers(1, 11))
            m = rng.uniform(-5, 5, size=(n_a, n_b))
            sol = matrix_game.solve(m)
            row_guarantee = matrix_game.best_response_value(m, sol.row_strategy, "row")
            col_guarantee = matrix_game.best_response_value(m, sol.col_strategy, "col")
            assert col_guarantee - row_guarantee <= 1e-8
            assert sol.value - row_guarantee <= 1e-8
            assert col_guarantee - sol.value <= 1e-8

    def test_shift_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = rng.normal(size=(3, 4))
            base = matrix_game.solve(m)
            for shift in (-2.0, 0.5, 3.0):
                shifted = matrix_game.solve(m + shift)
                assert abs(shifted.value - (base.value + shift)) <= 1e-9
                assert np.allclose(shifted.row_strategy, base.row_strategy, atol=1e-9)
                assert np.allclose(shifted.col_strategy, base.col_strategy, atol=1e-9)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.normal(size=(4, 3))
            base = matrix_game.solve(m)
            for alpha in (0.25, 2.0, 10.0):
                scaled = matrix_game.solve(alpha * m)
                assert abs(scaled.value - alpha * base.value) <= 1e-8 * max(1, alpha)

    def test_strategies_on_simplex(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = rng.normal(size=(int(rng.integers(2, 8)), int(rng.integers(2, 8))))
            sol = matrix_game.solve(m)
            for strategy in (sol.row_strategy, sol.col_strategy):
                assert strategy.min() >= -1e-10
                assert abs(strategy.sum() - 1.0) <= 1e-10
            assert m.min() - 1e-12 <= sol.value <= m.max() + 1e-12

    def test_solver_deterministic(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6))
        a = matrix_game.solve(m)
        b = matrix_game.solve(m)
        assert a.value == b.value
        assert np.array_equal(a.row_strategy, b.row_strategy)
        assert np.array_equal(a.col_strategy, b.col_strategy)


def linprog_value(payoff):
    """Game value by an independent LP solver: maximize v subject to
    ``x' M[:, j] >= v`` for every column j, x on the simplex."""
    optimize = pytest.importorskip("scipy.optimize")
    m = np.asarray(payoff, dtype=np.float64)
    n_a, n_b = m.shape
    result = optimize.linprog(
        c=np.r_[np.zeros(n_a), -1.0],
        A_ub=np.c_[-m.T, np.ones(n_b)], b_ub=np.zeros(n_b),
        A_eq=np.r_[np.ones(n_a), 0.0][None, :], b_eq=[1.0],
        bounds=[(0, None)] * n_a + [(None, None)], method="highs")
    assert result.status == 0, result.message
    return -result.fun


class TestLinprogOracle:
    """``solve`` against scipy's LP solver, which shares no code with it."""

    def test_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            shape = tuple(int(k) for k in rng.integers(1, 7, size=2))
            m = rng.uniform(-5, 5, size=shape)
            assert abs(matrix_game.solve(m).value - linprog_value(m)) <= 1e-8

    @pytest.mark.parametrize("payoff", [
        np.full((3, 4), -1.25),
        [[4.0, -1.0, 2.0, 0.5]],
        [[4.0], [-1.0], [7.0], [0.25]],
        [[2.0]],
    ], ids=["constant", "one-row", "one-column", "one-cell"])
    def test_degenerate_shapes(self, payoff):
        assert abs(matrix_game.solve(payoff).value - linprog_value(payoff)) <= 1e-8
