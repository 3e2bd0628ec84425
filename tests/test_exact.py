import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fittedq import envs, exact, matrix_game


def zero_discount(mdp):
    """Copy of the model at the undiscounted boundary."""
    return dataclasses.replace(mdp, gamma=0.0)


@pytest.fixture(scope="module")
def random_mdp():
    return envs.make_random_mdp(6, 3, 0.9, 1.0, seed=13)


@pytest.fixture(scope="module")
def random_game():
    return envs.make_random_game(3, 2, 2, 0.9, 1.0, seed=5)


class TestBellmanOptimality:
    def test_zero_discount_returns_rewards(self, random_mdp):
        mdp = zero_discount(random_mdp)
        q = np.random.default_rng(0).normal(size=(6, 3))
        assert np.array_equal(exact.bellman_optimality(mdp, q), mdp.reward_mean)

    def test_fixed_point_at_optimum(self, random_mdp):
        q_star, _ = exact.value_iteration(random_mdp, tol=1e-12)
        residual = np.abs(exact.bellman_optimality(random_mdp, q_star) - q_star)
        assert residual.max() <= 1e-10

    def test_two_state_chain_zero_q(self):
        transition = np.zeros((2, 1, 2))
        transition[0, 0, 1] = 1.0
        transition[1, 0, 1] = 1.0
        mdp = envs.TabularMDP(2, 1, transition, np.array([[0.3], [-0.2]]), 0.9, 1.0)
        assert np.array_equal(exact.bellman_optimality(mdp, np.zeros((2, 1))),
                              mdp.reward_mean)

    def test_shape_mismatch(self, random_mdp):
        with pytest.raises(ValueError):
            exact.bellman_optimality(random_mdp, np.zeros((2, 2)))


class TestBellmanPolicy:
    def test_greedy_policy_recovers_optimality_backup(self, random_mdp):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = rng.normal(size=(6, 3))
            pi = exact.greedy_policy(q)
            assert np.allclose(exact.bellman_policy(random_mdp, q, pi),
                               exact.bellman_optimality(random_mdp, q),
                               atol=1e-12)

    def test_dominated_by_optimality_backup(self, random_mdp):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = rng.normal(size=(6, 3))
            pi = rng.dirichlet(np.ones(3), size=6)
            gap = (exact.bellman_optimality(random_mdp, q)
                   - exact.bellman_policy(random_mdp, q, pi))
            assert gap.min() >= -1e-12

    def test_zero_discount(self, random_mdp):
        mdp = zero_discount(random_mdp)
        pi = np.full((6, 3), 1 / 3)
        q = np.ones((6, 3))
        assert np.array_equal(exact.bellman_policy(mdp, q, pi), mdp.reward_mean)


class TestValueIteration:
    def test_absorbing_state_geometric_series(self):
        mdp = envs.TabularMDP(1, 1, np.ones((1, 1, 1)), np.ones((1, 1)), 0.9, 1.0)
        q, _ = exact.value_iteration(mdp, tol=1e-10)
        assert abs(q[0, 0] - 10.0) <= 1e-9

    def test_two_cell_gridworld_fixed_point(self):
        mdp = envs.make_gridworld(2, 1, (1, 0), -0.1, 1.0, 0.0, 0.9)
        q, _ = exact.value_iteration(mdp, tol=1e-12)
        east = envs.GRID_ACTIONS.index((1, 0))
        assert abs(q[0, east] - 1.0) <= 1e-10
        assert exact.greedy_policy(q)[0, east] == 1.0

    def test_linear_rate(self, random_mdp):
        q_star, _ = exact.value_iteration(random_mdp, tol=1e-13)
        q = np.zeros((6, 3))
        err = np.abs(q - q_star).max()
        for _ in range(40):
            q = exact.bellman_optimality(random_mdp, q)
            new_err = np.abs(q - q_star).max()
            if err <= 1e-12:
                break
            assert new_err <= random_mdp.gamma * err + 1e-12
            err = new_err

    def test_budget_exhaustion_reports_residual(self, random_mdp):
        with pytest.raises(exact.SolverError) as info:
            exact.value_iteration(random_mdp, tol=1e-12, max_iters=3)
        assert info.value.residual is not None
        assert info.value.iterations == 3

    def test_rejects_bad_tol(self, random_mdp):
        with pytest.raises(ValueError):
            exact.value_iteration(random_mdp, tol=0.0)


class TestGreedyPolicy:
    def test_picks_maximizer(self):
        policy = exact.greedy_policy(np.array([[1.0, 3.0, 2.0]]))
        assert policy.tolist() == [[0.0, 1.0, 0.0]]

    def test_tie_breaks_low_index(self):
        policy = exact.greedy_policy(np.array([[2.0, 2.0]]))
        assert policy.tolist() == [[1.0, 0.0]]

    def test_matches_exhaustive_policy_search(self):
        import itertools
        mdp = envs.make_gridworld(2, 2, (1, 1), -0.1, 1.0, 0.0, 0.9)
        q_star, _ = exact.value_iteration(mdp, tol=1e-12)
        greedy = exact.greedy_policy(q_star)
        greedy_value = (greedy * exact.policy_evaluation(mdp, greedy)).sum()
        best_value = -np.inf
        for actions in itertools.product(range(4), repeat=4):
            pi = np.zeros((4, 4))
            pi[np.arange(4), actions] = 1.0
            value = (pi * exact.policy_evaluation(mdp, pi)).sum()
            best_value = max(best_value, value)
        assert greedy_value >= best_value - 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            exact.greedy_policy(np.array([[np.nan, 1.0]]))


class TestPolicyEvaluation:
    def test_zero_discount(self, random_mdp):
        mdp = zero_discount(random_mdp)
        pi = np.full((6, 3), 1 / 3)
        assert np.allclose(exact.policy_evaluation(mdp, pi), mdp.reward_mean,
                           atol=1e-12)

    def test_greedy_of_q_star_reaches_q_star(self, random_mdp):
        q_star, _ = exact.value_iteration(random_mdp, tol=1e-12)
        q_pi = exact.policy_evaluation(random_mdp, exact.greedy_policy(q_star))
        assert np.abs(q_pi - q_star).max() <= 1e-8

    def test_uniform_policy_single_state_closed_form(self):
        mdp = envs.TabularMDP(1, 2, np.ones((1, 2, 1)),
                              np.array([[0.0, 1.0]]), 0.9, 1.0)
        q = exact.policy_evaluation(mdp, np.array([[0.5, 0.5]]))
        expected = mdp.reward_mean + 0.9 * 0.5 / (1 - 0.9)
        assert np.allclose(q, expected, atol=1e-10)

    def test_residual_bound(self, random_mdp):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pi = rng.dirichlet(np.ones(3), size=6)
            q = exact.policy_evaluation(random_mdp, pi)
            residual = np.abs(exact.bellman_policy(random_mdp, q, pi) - q)
            assert residual.max() <= 1e-9


def parent_policy_evaluation(mdp, policy):
    """The dense solve as it was before the system was built transposed:
    the reference :func:`exact.policy_evaluation` must match bit for bit."""
    n = mdp.n_states * mdp.n_actions
    kernel = mdp.gamma * (mdp.transition[:, :, :, None] * policy[None, None, :, :])
    system = np.eye(n) - kernel.reshape(n, n)
    q = np.linalg.solve(system, mdp.reward_mean.reshape(n))
    return q.reshape(mdp.n_states, mdp.n_actions)


def with_zeros(rows, keep):
    """``rows`` with the entries where ``keep`` is False set to exact
    zeros, each row keeping its largest entry, then renormalised."""
    keep = keep | (rows == rows.max(axis=-1, keepdims=True))
    rows = np.where(keep, rows, 0.0)
    return rows / rows.sum(axis=-1, keepdims=True)


@st.composite
def mdps_with_policies(draw):
    """A random MDP of 1-5 states and 1-4 actions whose rows may hold exact
    zeros, or the joint-action MDP of a random game, with a deterministic,
    Dirichlet or zero-holding policy, so that zero products occur."""
    gamma = draw(st.sampled_from([0.5, 0.9, 0.99]))
    n_states = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        game = envs.make_random_game(n_states, draw(st.integers(1, 2)),
                                     draw(st.integers(1, 2)), gamma, 1.0,
                                     seed=int(rng.integers(2**32)))
        mdp = envs.joint_action_mdp(game)
    else:
        mdp = envs.make_random_mdp(n_states, draw(st.integers(1, 4)), gamma, 1.0,
                                   seed=int(rng.integers(2**32)))
        if draw(st.booleans()):
            transition = with_zeros(mdp.transition, rng.random(mdp.transition.shape) < 0.5)
            mdp = dataclasses.replace(mdp, transition=transition)
    shape = (mdp.n_states, mdp.n_actions)
    kind = draw(st.sampled_from(["deterministic", "dirichlet", "zero-holding"]))
    if kind == "deterministic":
        policy = np.eye(mdp.n_actions)[rng.integers(mdp.n_actions, size=mdp.n_states)]
    else:
        policy = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
        if kind == "zero-holding":
            policy = with_zeros(policy, rng.random(shape) < 0.5)
    return mdp, policy


class TestPolicySystem:
    @settings(max_examples=150, deadline=None)
    @given(case=mdps_with_policies())
    def test_system_is_the_subtraction_bit_for_bit(self, case):
        mdp, policy = case
        n = mdp.n_states * mdp.n_actions
        want = np.eye(n) - mdp.gamma * (mdp.transition[:, :, :, None]
                                        * policy[None, None, :, :]).reshape(n, n)
        system = exact._policy_system(mdp, policy)
        # tobytes() reads in C order, so the layouts do not enter; the bytes
        # tell +0.0 from -0.0, which == would not.
        assert system.tobytes() == want.tobytes()
        assert system.flags.f_contiguous

    @settings(max_examples=150, deadline=None)
    @given(case=mdps_with_policies())
    def test_policy_evaluation_matches_the_parent_solve_bit_for_bit(self, case):
        mdp, policy = case
        got = exact.policy_evaluation(mdp, policy)
        assert got.tobytes() == parent_policy_evaluation(mdp, policy).tobytes()


class TestGameBellman:
    def test_degenerate_opponent_reduces_to_mdp(self):
        game = envs.make_random_game(4, 3, 1, 0.9, 1.0, seed=8)
        induced = envs.joint_action_mdp(game)
        rng = np.random.default_rng(3)
        q = rng.normal(size=(4, 3, 1))
        backed = exact.game_bellman_optimality(game, q)
        reference = exact.bellman_optimality(induced, q.reshape(4, 3))
        assert np.abs(backed.reshape(4, 3) - reference).max() <= 1e-12

    def test_zero_discount(self, random_game):
        import dataclasses
        game = dataclasses.replace(random_game, gamma=0.0)
        q = np.random.default_rng(0).normal(size=(3, 2, 2))
        assert np.array_equal(exact.game_bellman_optimality(game, q),
                              game.reward_mean)

    def test_antisymmetric_lookahead_vanishes(self, random_game):
        pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
        q = np.broadcast_to(pennies, (3, 2, 2)).copy()
        backed = exact.game_bellman_optimality(random_game, q)
        assert np.abs(backed - random_game.reward_mean).max() <= 1e-12


class TestNashValueIteration:
    def test_single_column_matches_mdp_solver(self):
        game = envs.make_random_game(4, 3, 1, 0.9, 1.0, seed=2)
        q_game, _ = exact.nash_value_iteration(game, tol=1e-11)
        q_mdp, _ = exact.value_iteration(envs.joint_action_mdp(game), tol=1e-11)
        assert np.abs(q_game.reshape(4, 3) - q_mdp).max() <= 1e-10

    def test_matching_pennies_stage_value(self):
        game = envs.make_matching_pennies_game(gamma=0.9)
        q, _ = exact.nash_value_iteration(game, tol=1e-12)
        assert np.abs(q[0] - game.reward_mean[0]).max() <= 1e-10

    def test_residual_after_reapplication(self, random_game):
        q, _ = exact.nash_value_iteration(random_game, tol=1e-9)
        residual = np.abs(exact.game_bellman_optimality(random_game, q) - q)
        assert residual.max() <= 1e-9


class TestEquilibriumJointPolicy:
    def test_matching_pennies_mixes_evenly(self):
        game = envs.make_matching_pennies_game()
        q, _ = exact.nash_value_iteration(game, tol=1e-12)
        joint = exact.equilibrium_joint_policy(game, q)
        assert np.allclose(joint.p1, 0.5, atol=1e-10)
        assert np.allclose(joint.p2, 0.5, atol=1e-10)

    def test_dominant_entries_give_pure_strategies(self):
        q = np.array([[[5.0, 4.0], [1.0, 0.0]]])
        game = envs.TabularMarkovGame(1, 2, 2, np.ones((1, 2, 2, 1)),
                                      np.zeros((1, 2, 2)), 0.9, 1.0)
        joint = exact.equilibrium_joint_policy(game, q)
        assert joint.p1[0].tolist() == [1.0, 0.0]
        assert joint.p2[0].tolist() == [0.0, 1.0]

    def test_random_matrices_are_unexploitable(self):
        rng = np.random.default_rng(9)
        game = envs.TabularMarkovGame(1, 3, 3, np.ones((1, 3, 3, 1)),
                                      np.zeros((1, 3, 3)), 0.9, 10.0)
        for _ in range(25):
            q = rng.normal(size=(1, 3, 3))
            joint = exact.equilibrium_joint_policy(game, q)
            value = matrix_game.solve(q[0]).value
            row_guarantee = matrix_game.best_response_value(q[0], joint.p1[0], "row")
            col_guarantee = matrix_game.best_response_value(q[0], joint.p2[0], "col")
            assert value - row_guarantee <= 1e-8
            assert col_guarantee - value <= 1e-8


def with_last_column_copying_first(game):
    """Copy of a game in which player two's last action repeats its first."""
    transition = game.transition.copy()
    reward = game.reward_mean.copy()
    transition[:, :, -1] = transition[:, :, 0]
    reward[:, :, -1] = reward[:, :, 0]
    return dataclasses.replace(game, transition=transition, reward_mean=reward)


@st.composite
def games_with_player_one_policy(draw):
    """A random game of 1-5 states and 1-3 actions per player, whose last
    player-two column may copy its first, and a player-one policy that is
    Dirichlet-mixed or deterministic."""
    n_states, n_a, n_b = (draw(st.integers(1, 5)), draw(st.integers(1, 3)),
                          draw(st.integers(1, 3)))
    game = envs.make_random_game(n_states, n_a, n_b,
                                 draw(st.sampled_from([0.5, 0.9, 0.99])), 1.0,
                                 seed=draw(st.integers(0, 2**32 - 1)))
    if n_b > 1 and draw(st.booleans()):
        game = with_last_column_copying_first(game)
    if draw(st.booleans()):
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pi = gen.dirichlet(np.ones(n_a), size=n_states)
    else:
        moves = draw(st.lists(st.integers(0, n_a - 1), min_size=n_states,
                              max_size=n_states))
        pi = np.eye(n_a)[moves]
    return game, pi


class TestBestResponse:
    def test_single_action_opponent(self):
        game = envs.make_random_game(3, 2, 1, 0.9, 1.0, seed=4)
        pi = np.full((3, 2), 0.5)
        nu = exact.best_response_policy(game, pi)
        assert np.array_equal(nu, np.ones((3, 1)))

    def test_equilibrium_policy_is_unexploitable(self, random_game):
        q_star, _ = exact.nash_value_iteration(random_game, tol=1e-11)
        joint = exact.equilibrium_joint_policy(random_game, q_star)
        nu = exact.best_response_policy(random_game, joint.p1, tol=1e-11)
        q_adv = exact.joint_policy_evaluation(random_game, joint.p1, nu)
        assert np.abs(q_adv - q_star).max() <= 1e-7

    def test_dominance_for_arbitrary_policies(self, random_game):
        q_star, _ = exact.nash_value_iteration(random_game, tol=1e-11)
        rng = np.random.default_rng(7)
        for _ in range(10):
            pi = rng.dirichlet(np.ones(2), size=3)
            nu = exact.best_response_policy(random_game, pi, tol=1e-11)
            q_adv = exact.joint_policy_evaluation(random_game, pi, nu)
            assert (q_adv - q_star).max() <= 1e-8

    @settings(max_examples=150, deadline=None)
    @given(game=games_with_player_one_policy())
    def test_equals_value_iteration_greedy_policy(self, game):
        """Policy iteration returns value iteration's greedy policy.

        Exact ties go to the lowest index, as value iteration's greedy
        policy breaks them; the duplicated player-two columns drawn here
        make such ties.  Actions whose optimal values differ by less than
        ``tol`` may split the two methods, which stop ``tol``-close to Q*
        by different routes, so draws with a gap below 1e-7 that is not
        an exact tie are kept out."""
        game, pi = game
        q_star, _ = exact.value_iteration(exact.induced_opponent_mdp(game, pi))
        gaps = np.diff(np.sort(q_star, axis=1), axis=1)
        assume(not np.any((gaps > 0.0) & (gaps < 1e-7)))
        assert np.array_equal(exact.best_response_policy(game, pi),
                              exact.greedy_policy(q_star))

    def test_duplicated_columns_go_to_the_lowest_index(self):
        """Player two's columns are copies, so it is indifferent in every
        state; the dense solve splits that tie by roundoff on this game."""
        game = with_last_column_copying_first(
            envs.make_random_game(4, 2, 2, 0.9, 1.0, seed=0))
        nu = exact.best_response_policy(game, np.full((4, 2), 0.5))
        assert np.array_equal(nu, [[1.0, 0.0]] * 4)

    def test_fully_indifferent_opponent_ends(self):
        """Against (0.5, 0.5) in matching pennies both of player two's
        actions are worth the same, so no action improves on action 0."""
        game = envs.make_matching_pennies_game()
        nu = exact.best_response_policy(game, [[0.5, 0.5]])
        assert np.array_equal(nu, [[1.0, 0.0]])

    def test_budget_exhaustion_names_the_best_response(self, monkeypatch):
        game = envs.make_matching_pennies_game()
        heads = [[1.0, 0.0]]            # player two's best reply is action 1
        monkeypatch.setattr(exact, "_BEST_RESPONSE_MAX_EVALUATIONS", 1)
        with pytest.raises(exact.SolverError,
                           match="best response.* after 1 policy evaluations"):
            exact.best_response_policy(game, heads)
        monkeypatch.setattr(exact, "_BEST_RESPONSE_MAX_EVALUATIONS", 2)
        assert np.array_equal(exact.best_response_policy(game, heads), [[0.0, 1.0]])

    def test_rejects_bad_tol(self, random_game):
        with pytest.raises(ValueError):
            exact.best_response_policy(random_game, np.full((3, 2), 0.5), tol=0.0)


class TestJointPolicyEvaluation:
    def test_zero_discount(self, random_game):
        import dataclasses
        game = dataclasses.replace(random_game, gamma=0.0)
        pi = np.full((3, 2), 0.5)
        nu = np.full((3, 2), 0.5)
        assert np.allclose(exact.joint_policy_evaluation(game, pi, nu),
                           game.reward_mean, atol=1e-12)

    def test_equilibrium_pair_recovers_q_star(self, random_game):
        q_star, _ = exact.nash_value_iteration(random_game, tol=1e-11)
        joint = exact.equilibrium_joint_policy(random_game, q_star)
        q = exact.joint_policy_evaluation(random_game, joint.p1, joint.p2)
        assert np.abs(q - q_star).max() <= 1e-7

    def test_single_state_closed_form(self):
        game = envs.TabularMarkovGame(1, 2, 2, np.ones((1, 2, 2, 1)),
                                      np.array([[[1.0, -1.0], [-0.5, 0.5]]]),
                                      0.9, 1.0)
        pi = np.array([[0.5, 0.5]])
        nu = np.array([[0.5, 0.5]])
        q = exact.joint_policy_evaluation(game, pi, nu)
        # stage expectation is zero, so the continuation vanishes
        assert np.allclose(q, game.reward_mean, atol=1e-10)

    def test_accepts_factors_whose_product_rows_drift(self):
        """Each factor passes the 1e-12 row-sum check; the product of the
        two rows sums to 1 + 1.8e-12, which the check alone would reject."""
        game = envs.make_random_game(2, 2, 2, 0.9, 1.0, seed=1)
        drifted = np.array([[0.5, 0.5 + 0.9e-12]] * 2)
        joint = drifted[:, :, None] * drifted[:, None, :]
        assert np.abs(joint.reshape(2, -1).sum(axis=1) - 1.0).max() > 1e-12
        q = exact.joint_policy_evaluation(game, drifted, drifted)
        uniform = np.full((2, 2), 0.5)
        reference = exact.joint_policy_evaluation(game, uniform, uniform)
        assert np.abs(q - reference).max() <= 1e-9

    def test_still_checks_each_factor(self):
        game = envs.make_random_game(2, 2, 2, 0.9, 1.0, seed=1)
        uniform = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="player-two policy rows"):
            exact.joint_policy_evaluation(game, uniform, [[0.5, 0.5 + 2e-12]] * 2)


class TestOperatorProperties:
    def test_contraction_of_all_operators(self, random_mdp, random_game):
        rng = np.random.default_rng(11)
        pi = rng.dirichlet(np.ones(3), size=6)
        for _ in range(100):
            q1 = rng.normal(scale=3.0, size=(6, 3))
            q2 = rng.normal(scale=3.0, size=(6, 3))
            gap = np.abs(q1 - q2).max()
            t_gap = np.abs(exact.bellman_optimality(random_mdp, q1)
                           - exact.bellman_optimality(random_mdp, q2)).max()
            assert t_gap <= random_mdp.gamma * gap + 1e-12
            pi_gap = np.abs(exact.bellman_policy(random_mdp, q1, pi)
                            - exact.bellman_policy(random_mdp, q2, pi)).max()
            assert pi_gap <= random_mdp.gamma * gap + 1e-12
        for _ in range(100):
            q1 = rng.normal(scale=3.0, size=(3, 2, 2))
            q2 = rng.normal(scale=3.0, size=(3, 2, 2))
            gap = np.abs(q1 - q2).max()
            t_gap = np.abs(exact.game_bellman_optimality(random_game, q1)
                           - exact.game_bellman_optimality(random_game, q2)).max()
            assert t_gap <= random_game.gamma * gap + 1e-9

    def test_monotone_transition_operator(self, random_mdp):
        rng = np.random.default_rng(12)
        pi = rng.dirichlet(np.ones(3), size=6)
        for _ in range(50):
            f2 = rng.normal(size=(6, 3))
            f1 = f2 + rng.uniform(0, 1, size=(6, 3))
            b1 = exact.bellman_policy(random_mdp, f1, pi)
            b2 = exact.bellman_policy(random_mdp, f2, pi)
            assert (b1 - b2).min() >= -1e-12

    def test_solver_outputs_bounded(self, random_mdp, random_game):
        q, _ = exact.value_iteration(random_mdp, tol=1e-10)
        assert np.abs(q).max() <= random_mdp.v_max + 1e-10
        qg, _ = exact.nash_value_iteration(random_game, tol=1e-10)
        assert np.abs(qg).max() <= random_game.v_max + 1e-10


@pytest.mark.usefixtures("empty_optimal_q_memo")
class TestOptimalQMemo:

    @pytest.mark.parametrize("make, oracle", [
        (lambda: envs.make_random_mdp(6, 3, 0.9, 1.0, seed=13), exact.value_iteration),
        (lambda: envs.make_random_game(3, 2, 2, 0.9, 1.0, seed=5),
         exact.nash_value_iteration),
    ])
    def test_warm_result_equals_cold_oracle(self, make, oracle):
        model = make()
        cold_q, cold_iterations = oracle(model, tol=1e-10)
        exact.optimal_q(model, tol=1e-10)
        warm_q, warm_iterations = exact.optimal_q(model, tol=1e-10)
        assert len(exact._optimal_q_memo) == 1
        assert warm_q.tobytes() == cold_q.tobytes()
        assert warm_q.shape == cold_q.shape
        assert warm_iterations == cold_iterations

    def test_model_rebuilt_from_same_spec_hits(self, count_calls):
        calls = count_calls(exact, "nash_value_iteration")
        first, _ = exact.optimal_q(envs.make_random_game(3, 2, 2, 0.9, 1.0, seed=5))
        second, _ = exact.optimal_q(envs.make_random_game(3, 2, 2, 0.9, 1.0, seed=5))
        assert len(calls) == 1
        assert first.tobytes() == second.tobytes()

    def test_content_changes_miss(self, count_calls, random_mdp, random_game):
        mdp_calls = count_calls(exact, "value_iteration")
        game_calls = count_calls(exact, "nash_value_iteration")
        reward = random_mdp.reward_mean.copy()
        reward[2, 1] = np.nextafter(reward[2, 1], 1.0)
        variants = [random_mdp,
                    dataclasses.replace(random_mdp, reward_mean=reward),
                    dataclasses.replace(random_mdp, gamma=0.8)]
        for model in variants:
            exact.optimal_q(model, tol=1e-10)
        exact.optimal_q(random_mdp, tol=1e-9)
        assert len(mdp_calls) == 4
        exact.optimal_q(random_game, tol=1e-10)
        flat_q, _ = exact.optimal_q(envs.joint_action_mdp(random_game), tol=1e-10)
        assert len(game_calls) == 1 and len(mdp_calls) == 5
        assert flat_q.shape == (3, 4)
        for model in variants:
            exact.optimal_q(model, tol=1e-10)
        assert len(mdp_calls) == 5

    def test_callers_cannot_corrupt_the_table(self, random_game):
        first, _ = exact.optimal_q(random_game)
        expected = first.tobytes()
        first[:] = 7.0
        second, _ = exact.optimal_q(random_game)
        assert second.tobytes() == expected
        second[0, 0, 0] = -7.0
        assert exact.optimal_q(random_game)[0].tobytes() == expected

    def test_solver_errors_are_not_cached(self, monkeypatch, count_calls, random_mdp):
        monkeypatch.setattr(exact, "value_iteration",
                            functools.partial(exact.value_iteration, max_iters=3))
        calls = count_calls(exact, "value_iteration")
        for _ in range(2):
            with pytest.raises(exact.SolverError, match="no convergence within 3"):
                exact.optimal_q(random_mdp)
        assert len(calls) == 2
        assert len(exact._optimal_q_memo) == 0

    def test_table_stays_within_its_bound(self, count_calls):
        calls = count_calls(exact, "value_iteration")
        size = exact._OPTIMAL_Q_MEMO_SIZE
        models = [envs.make_random_mdp(2, 2, 0.5, 1.0, seed=seed)
                  for seed in range(size + 3)]
        for model in models:
            exact.optimal_q(model, tol=1e-6)
            assert len(exact._optimal_q_memo) <= size
        assert len(exact._optimal_q_memo) == size
        exact.optimal_q(models[-1], tol=1e-6)      # newest: still held
        assert len(calls) == size + 3
        exact.optimal_q(models[0], tol=1e-6)       # oldest: evicted first
        assert len(calls) == size + 4
