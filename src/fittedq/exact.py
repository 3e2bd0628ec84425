"""Exact Bellman machinery on tabular models.

Dense dynamic programming for :class:`~fittedq.envs.TabularMDP` and
:class:`~fittedq.envs.TabularMarkovGame`: Bellman operators, value
iteration, policy evaluation by direct linear solve, greedy and
equilibrium policies, and best responses.  Everything here is
deterministic and serves as the ground-truth oracle for the approximate
algorithms.

Q tables are plain ndarrays of shape ``(S, *action_shape)``: (S, A) for
MDPs and (S, A, B) for games; policies are row-stochastic (S, A) arrays.
A game is an MDP over joint actions whose per-state value is the stage
matrix-game value instead of ``max``; :func:`reduce_table`,
:func:`optimal_q` and :func:`policy_value` are the only places that pick
one or the other.  :func:`reduce_table` gives a table's per-state values
and its output policy (greedy, or the per-state equilibrium) from one
pass, and every backup goes through :func:`backup_from_values`.  Where
the stage value does not enter, the game is that MDP:
:func:`joint_policy_evaluation` is :func:`policy_evaluation` on
:func:`~fittedq.envs.joint_action_mdp`.
Argmax ties always break toward the lowest index so greedy policies are
functions of their input.

Policy evaluation solves the dense system ``(I - gamma P^pi) Q = r`` over
the flat cells ``s * A + a``.  The system is built as its transpose, one
row per cell ``(s', a')``, and handed to LAPACK as the Fortran-ordered
view ``.T``, so the solve makes no transposing copy; each entry is the
IEEE result of ``np.eye(n) - gamma * (P * pi)``.  Policy evaluation on
MDPs, best responses and joint evaluations all go through it.

Best responses come from Howard policy iteration: a few exact policy
evaluations in place of hundreds of value-iteration sweeps, whose greedy
policy stays the reference they are tested against.

:func:`optimal_q` solves each model once per process: it keeps the last
few results in a table keyed by the model's content digest and ``tol``,
so the seeds of a run, which rebuild the same model, share one solve.
The table holds only successful solves and hands out copies; with
``--jobs`` each worker process has its own.  :func:`value_iteration` and
:func:`nash_value_iteration` always iterate.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from . import matrix_game
from .envs import TabularMDP, joint_action_mdp


class SolverError(RuntimeError):
    """Iteration budget exhausted; carries the final residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class JointPolicy(NamedTuple):
    """Per-state mixed strategies for both players of a zero-sum game."""

    p1: np.ndarray
    p2: np.ndarray


def _is_game(model):
    return len(model.action_shape) == 2


def _check_q_shape(model, q):
    q = np.asarray(q, dtype=np.float64)
    expected = (model.n_states, *model.action_shape)
    if q.shape != expected:
        raise ValueError(f"Q table has shape {q.shape}, expected {expected}")
    return q


def _check_policy(policy, n_states, n_actions, label="policy"):
    policy = np.asarray(policy, dtype=np.float64)
    if policy.shape != (n_states, n_actions):
        raise ValueError(f"{label} has shape {policy.shape}, "
                         f"expected {(n_states, n_actions)}")
    if np.any(policy < 0.0) or np.abs(policy.sum(axis=1) - 1.0).max() > 1e-12:
        raise ValueError(f"{label} rows are not probability vectors")
    return policy


def bellman_optimality(mdp, q):
    """One application of the optimality backup
    ``(TQ)(s,a) = r(s,a) + gamma * E[max_a' Q(S',a')]``."""
    q = _check_q_shape(mdp, q)
    return backup_from_values(mdp, q.max(axis=1))


def bellman_policy(mdp, q, policy):
    """Policy backup ``(T^pi Q)(s,a) = r(s,a) + gamma * E[Q(S', A'~pi)]``."""
    q = _check_q_shape(mdp, q)
    policy = _check_policy(policy, mdp.n_states, mdp.n_actions)
    return _policy_backup(mdp, q, policy)


def _policy_backup(mdp, q, policy):
    return backup_from_values(mdp, (policy * q).sum(axis=1))


def greedy_policy(q):
    """Deterministic policy on the lowest-index maximizer of each row."""
    q = np.asarray(q, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        raise ValueError("Q table contains non-finite entries")
    best = q.argmax(axis=1)
    policy = np.zeros_like(q)
    policy[np.arange(q.shape[0]), best] = 1.0
    return policy


def reduce_table(model, q):
    """``(state values, output policy)`` of a Q table, from one pass over
    its states: ``max`` and the greedy policy on an MDP; on a game one
    :func:`~fittedq.matrix_game.solve` per state, whose solution gives the
    state's value and its rows of the equilibrium :class:`JointPolicy`.
    A caller that needs both, or needs them more than once, keeps the
    pair instead of reducing the table again."""
    q = _check_q_shape(model, q)
    if not _is_game(model):
        return q.max(axis=1), greedy_policy(q)
    values = np.zeros(model.n_states)
    p1 = np.zeros((model.n_states, model.n_actions_p1))
    p2 = np.zeros((model.n_states, model.n_actions_p2))
    for s in range(model.n_states):
        solution = matrix_game.solve(q[s])
        values[s] = solution.value
        p1[s] = solution.row_strategy
        p2[s] = solution.col_strategy
    return values, JointPolicy(p1, p2)


def backup_from_values(model, values):
    """``r(s, a) + gamma * E[values(S')]`` for per-state ``values`` of the
    next state, such as those :func:`reduce_table` returns."""
    return model.reward_mean + model.gamma * (model.transition @ values)


def _iterate_to_fixed_point(apply_op, model, tol, max_iters):
    # Stop once ||Q_{k+1} - Q_k||_inf <= tol*(1-gamma)/(2*gamma): then both
    # ||Q - Q*||_inf <= tol/2 and the returned residual ||TQ - Q||_inf <= tol.
    if tol <= 0:
        raise ValueError("tol must be positive")
    gamma = model.gamma
    threshold = tol * (1.0 - gamma) / (2.0 * gamma) if gamma > 0 else np.inf
    q = np.zeros((model.n_states, *model.action_shape))
    delta = np.inf
    for iteration in range(1, max_iters + 1):
        q_next = apply_op(q)
        delta = np.abs(q_next - q).max()
        q = q_next
        if delta <= threshold:
            return q, iteration
    raise SolverError(
        f"no convergence within {max_iters} iterations "
        f"(last step {delta:.3e}, threshold {threshold:.3e})",
        residual=float(delta), iterations=max_iters)


def value_iteration(mdp, tol=1e-10, max_iters=100_000):
    """Iterate the optimality backup from zero until ``||TQ - Q||_inf <= tol``.

    Returns (Q, iterations).  Raises :class:`SolverError` if the budget is
    exhausted first.
    """
    return _iterate_to_fixed_point(lambda q: bellman_optimality(mdp, q),
                                   mdp, tol, max_iters)


def policy_evaluation(mdp, policy):
    """Fixed point of ``T^pi`` by direct dense solve of
    ``(I - gamma P^pi) Q = r``; exactness matters for oracle duty."""
    return _evaluate_policy(mdp, _check_policy(policy, mdp.n_states, mdp.n_actions))


def _policy_system(mdp, policy):
    """``I - gamma P^pi`` over the cells, as the Fortran-ordered view of
    its transpose (see the module docstring).  Off the diagonal each entry
    is ``0.0 - k``, not ``-k``, so that a zero ``k`` gives ``+0.0``, as
    ``np.eye(n) - k`` does."""
    n_states = mdp.n_states
    n = n_states * mdp.n_actions
    # order="C": numpy would otherwise lay the product out after the
    # transposed operand's strides where the policy's axes are length one.
    kernel_t = np.multiply(policy[:, :, None],
                           mdp.transition.reshape(n, n_states).T[:, None, :],
                           order="C").reshape(n, n)
    kernel_t *= mdp.gamma
    diagonal = 1.0 - kernel_t.diagonal()
    np.subtract(0.0, kernel_t, out=kernel_t)
    np.fill_diagonal(kernel_t, diagonal)
    return kernel_t.T


def _evaluate_policy(mdp, policy):
    """:func:`policy_evaluation` of a policy whose rows the caller checked."""
    n = mdp.n_states * mdp.n_actions
    try:
        q = np.linalg.solve(_policy_system(mdp, policy), mdp.reward_mean.reshape(n))
    except np.linalg.LinAlgError as exc:  # unreachable for gamma < 1
        raise SolverError(f"singular policy-evaluation system: {exc}") from exc
    q = q.reshape(mdp.n_states, mdp.n_actions)
    residual = np.abs(_policy_backup(mdp, q, policy) - q).max()
    if residual > 1e-9:
        raise SolverError(f"policy evaluation residual {residual:.3e} exceeds 1e-9",
                          residual=float(residual))
    return q


def game_bellman_optimality(game, q):
    """Zero-sum optimality backup: lookahead through each next state's
    matrix-game value."""
    return backup_from_values(game, reduce_table(game, q)[0])


def nash_value_iteration(game, tol=1e-10, max_iters=100_000):
    """Value iteration with the zero-sum backup; converges to the minimax
    Q-function of the game."""
    return _iterate_to_fixed_point(lambda q: game_bellman_optimality(game, q),
                                   game, tol, max_iters)


def equilibrium_joint_policy(game, q):
    """Per-state equilibrium strategies of the matrix games ``Q(s, :, :)``."""
    return reduce_table(game, q)[1]


def induced_opponent_mdp(game, policy_p1):
    """MDP faced by player two once player one commits to ``policy_p1``.

    Player two maximizes its own reward, the negation of player one's.
    """
    policy_p1 = _check_policy(policy_p1, game.n_states, game.n_actions_p1,
                              label="player-one policy")
    transition = np.einsum("sa,sabt->sbt", policy_p1, game.transition)
    reward = -np.einsum("sa,sab->sb", policy_p1, game.reward_mean)
    return TabularMDP(game.n_states, game.n_actions_p2, transition, reward,
                      game.gamma, game.r_max, game.reward_noise_halfwidth)


# Policy evaluations one best response may run.  Strict improvement ends in
# a handful on the lab's models; the budget only stops a runaway.
_BEST_RESPONSE_MAX_EVALUATIONS = 1_000


def best_response_policy(game, policy_p1, tol=1e-10):
    """Optimal player-two policy against a fixed player-one policy, by
    Howard policy iteration on :func:`induced_opponent_mdp`.

    Starts from action 0 in every state and evaluates each policy by
    :func:`policy_evaluation`'s dense solve.  ``tol`` is the improvement
    threshold: a state switches to its best action only where that beats
    the current one by more than ``tol``, so roundoff between tied actions
    cannot make the iteration cycle.  When no state switches, the last Q is
    within ``gamma * tol / (1 - gamma)`` of the optimum, and each state
    plays the lowest-index action within ``tol`` of its best: exact ties,
    which the solve may split by roundoff, go to the lowest index, as in
    :func:`value_iteration`'s greedy policy.  Raises :class:`SolverError`
    after ``_BEST_RESPONSE_MAX_EVALUATIONS`` evaluations without that.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mdp = induced_opponent_mdp(game, policy_p1)
    states = np.arange(mdp.n_states)
    actions = np.zeros(mdp.n_states, dtype=np.intp)
    for _ in range(_BEST_RESPONSE_MAX_EVALUATIONS):
        policy = np.zeros((mdp.n_states, mdp.n_actions))
        policy[states, actions] = 1.0
        q = _evaluate_policy(mdp, policy)
        best = q.max(axis=1)
        switch = best - q[states, actions] > tol
        if not switch.any():
            return greedy_policy(q >= best[:, None] - tol)
        actions[switch] = q[switch].argmax(axis=1)
    raise SolverError(f"best response: policy iteration still improving after "
                      f"{_BEST_RESPONSE_MAX_EVALUATIONS} policy evaluations",
                      iterations=_BEST_RESPONSE_MAX_EVALUATIONS)


def joint_policy_evaluation(game, policy_p1, policy_p2):
    """Fixed point of ``T^{pi,nu}`` (player one's payoff): the
    :func:`policy_evaluation` of the joint policy on the joint-action MDP.
    Each factor's rows are checked; their product's rows are not, since
    its row sums may drift past the check's tolerance."""
    policy_p1 = _check_policy(policy_p1, game.n_states, game.n_actions_p1,
                              label="player-one policy")
    policy_p2 = _check_policy(policy_p2, game.n_states, game.n_actions_p2,
                              label="player-two policy")
    joint = policy_p1[:, :, None] * policy_p2[:, None, :]
    q = _evaluate_policy(joint_action_mdp(game), joint.reshape(game.n_states, -1))
    return q.reshape(game.n_states, *game.action_shape)


_OPTIMAL_Q_MEMO_SIZE = 8
# (model content digest, tol) -> (Q*, iterations), oldest first
_optimal_q_memo = OrderedDict()


def optimal_q(model, tol=1e-10):
    """Q* and the iteration count: value iteration on an MDP, Nash value
    iteration on a game.  Memoised by the model's content and ``tol``;
    the returned table is the caller's own copy."""
    key = (model.content_digest, tol)
    if key not in _optimal_q_memo:
        solver = nash_value_iteration if _is_game(model) else value_iteration
        _optimal_q_memo[key] = solver(model, tol=tol)
        while len(_optimal_q_memo) > _OPTIMAL_Q_MEMO_SIZE:
            _optimal_q_memo.popitem(last=False)
    q, iterations = _optimal_q_memo[key]
    return q.copy(), iterations


def policy_value(model, policy):
    """Q-function of player one's ``policy`` against a best-responding
    opponent; on an MDP, which has no opponent, the plain policy value."""
    if _is_game(model):
        best_response = best_response_policy(model, policy)
        return joint_policy_evaluation(model, policy, best_response)
    return policy_evaluation(model, policy)
