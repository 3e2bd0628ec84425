"""Exact zero-sum matrix games via a dense primal simplex.

The row player maximizes ``x' M y`` over mixed strategies.  After shifting
the payoffs positive, one simplex run on the bounded form

    maximize 1'z   subject to   M'z <= 1,  z >= 0

yields the column strategy from the optimal basis and the row strategy
from the dual values under the slack columns; the game value is the
reciprocal of the optimal objective, shifted back.  Bland's smallest-index
entering/leaving rule makes the pivot sequence cycle-free and the returned
strategies a deterministic function of the payoff matrix.

The lab's stage games are tiny (at most a few actions per player), so the
pivot loop runs on Python float lists: at that size numpy's per-call
overhead costs more than the arithmetic.  Each element update is the same
IEEE operation a numpy row update does, so the results are bit-identical;
the finishing sums, normalisations and the solution check stay in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Pivot threshold: entries below this are treated as zero during pricing
# and ratio tests.  Payoffs at desk scale are O(100), so this is far above
# roundoff yet far below any genuine coefficient.
_PIVOT_EPS = 1e-11

# Solution check: the strategies' guarantees must agree with each other and
# with the value to within this absolute tolerance.
_CHECK_TOL = 1e-8

_MAX_PIVOTS = 100_000


class MatrixGameError(RuntimeError):
    """Simplex failed its cycling guard or a solution check."""


@dataclass(frozen=True)
class MatrixGameSolution:
    """Value and mixed minimax strategies of a zero-sum matrix game."""

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


def _validate_payoff(payoff):
    payoff = np.asarray(payoff, dtype=np.float64)
    if payoff.ndim != 2 or payoff.shape[0] < 1 or payoff.shape[1] < 1:
        raise ValueError(f"payoff must be a nonempty 2-D matrix, got shape {payoff.shape}")
    if not math.isfinite(float(payoff.max()) - float(payoff.min()) + 1.0):   # solve's shift
        raise ValueError("payoff contains non-finite entries" if not np.isfinite(payoff).all()
                         else "payoff range max - min + 1 overflows a double")
    return payoff


def _simplex_max(a, b, c):
    """Maximize ``c x`` s.t. ``a x <= b`` (b >= 0), ``x >= 0``; ``b`` and
    ``c`` are float lists.

    Returns (x, duals).  Bland's rule: entering column is the lowest index
    with positive reduced cost; the leaving row breaks ratio ties by the
    lowest basic-variable index.  The tableau is a list of float rows.
    """
    m, n = a.shape
    width = n + m
    tableau = [[-v for v in c] + [0.0] * (m + 1)]
    for i, (row, rhs) in enumerate(zip(a.tolist(), b)):
        slack = [0.0] * m
        slack[i] = 1.0
        tableau.append(row + slack + [rhs])
    basis = list(range(n, width))
    eps = _PIVOT_EPS

    for _ in range(_MAX_PIVOTS):
        costs = tableau[0]
        entering = -1
        for j in range(width):
            if costs[j] < -eps:
                entering = j
                break
        if entering < 0:
            break
        best_ratio = math.inf
        leaving = -1
        for i in range(m):
            row = tableau[i + 1]
            if row[entering] > eps:
                ratio = row[-1] / row[entering]
                if (ratio < best_ratio - eps
                        or (abs(ratio - best_ratio) <= eps
                            and (leaving < 0 or basis[i] < basis[leaving]))):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise MatrixGameError("linear program unbounded")
        pivot_row = leaving + 1
        pivot = tableau[pivot_row][entering]
        pivot_values = [x / pivot for x in tableau[pivot_row]]
        tableau[pivot_row] = pivot_values
        for i, row in enumerate(tableau):
            factor = row[entering]
            if i != pivot_row and factor != 0.0:
                tableau[i] = [x - factor * p for x, p in zip(row, pivot_values)]
        basis[leaving] = entering
    else:
        raise MatrixGameError("pivot limit exceeded (cycling guard)")

    x = [0.0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i + 1][-1]
    return np.array(x), np.array(tableau[0][n:width])


def _pure(n, index):
    out = np.zeros(n)
    out[index] = 1.0
    return out


def solve(payoff):
    """Value and optimal mixed strategies of the zero-sum game ``payoff``.

    Degenerate cases are handled outside the LP: all-equal matrices return
    uniform strategies (a documented canonical choice among the equilibria)
    and single-row/column games return the exact pure best response, so
    downstream reductions to plain max/min are free of LP roundoff.
    """
    m = _validate_payoff(payoff)
    n_a, n_b = m.shape
    low = m.min()
    if m.max() == low:
        return MatrixGameSolution(float(m[0, 0]), np.full(n_a, 1.0 / n_a),
                                  np.full(n_b, 1.0 / n_b))
    if n_a == 1:
        j = int(np.argmin(m[0]))
        return MatrixGameSolution(float(m[0, j]), np.ones(1), _pure(n_b, j))
    if n_b == 1:
        i = int(np.argmax(m[:, 0]))
        return MatrixGameSolution(float(m[i, 0]), _pure(n_a, i), np.ones(1))

    shift = 1.0 - low
    shifted = m + shift
    z, duals = _simplex_max(shifted, [1.0] * n_a, [1.0] * n_b)
    z_total = z.sum()
    u_total = duals.sum()
    if z_total <= 0.0 or u_total <= 0.0:
        raise MatrixGameError("simplex returned a degenerate optimum")
    col_strategy = np.maximum(z, 0.0)
    col_strategy /= col_strategy.sum()
    row_strategy = np.maximum(duals, 0.0)
    row_strategy /= row_strategy.sum()
    value = 1.0 / z_total - shift

    row_guarantee = float((row_strategy @ m).min())
    col_guarantee = float((m @ col_strategy).max())
    gap = col_guarantee - row_guarantee
    if (gap > _CHECK_TOL or abs(value - row_guarantee) > _CHECK_TOL
            or abs(col_guarantee - value) > _CHECK_TOL):
        raise MatrixGameError(
            f"solution check failed: gap={gap:.3e}, value={value:.6g}, "
            f"guarantees=({row_guarantee:.6g}, {col_guarantee:.6g})")
    return MatrixGameSolution(float(value), row_strategy, col_strategy)


def _validate_strategy(strategy, size, side):
    strategy = np.asarray(strategy, dtype=np.float64)
    if strategy.shape != (size,):
        raise ValueError(f"{side} strategy has shape {strategy.shape}, expected ({size},)")
    if np.any(strategy < -1e-12) or abs(strategy.sum() - 1.0) > 1e-8:
        raise ValueError(f"{side} strategy is not on the simplex")
    return strategy


def best_response_value(payoff, strategy, side):
    """Guaranteed payoff of a strategy against a best-responding opponent.

    side="row": the minimum over columns of ``M' x``.
    side="col": the maximum over rows of ``M y``.
    """
    m = _validate_payoff(payoff)
    if side == "row":
        x = _validate_strategy(strategy, m.shape[0], side)
        return float((x @ m).min())
    if side == "col":
        y = _validate_strategy(strategy, m.shape[1], side)
        return float((m @ y).max())
    raise ValueError(f"side must be 'row' or 'col', got {side!r}")
