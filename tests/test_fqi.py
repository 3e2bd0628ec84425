import dataclasses

import numpy as np
import pytest

from fittedq import diagnostics, envs, exact, fqi, matrix_game
from fittedq.approximators import TrainerConfig, ZeroQ
from fittedq.envs import TransitionSample


@pytest.fixture(scope="module")
def mdp():
    return envs.make_random_mdp(6, 3, 0.9, 1.0, seed=21)


@pytest.fixture(scope="module")
def game():
    return envs.make_random_game(3, 2, 2, 0.9, 1.0, seed=6)


@pytest.fixture(scope="module")
def continuous_model():
    return envs.make_random_continuous_mdp(2, 2, 0.9, 1.0, seed=42)


def exhaustive_batch(mdp):
    """One transition per cell with the mean reward and the modal next
    state; only used for target-shape tests."""
    out = []
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            out.append(TransitionSample(s, a, float(mdp.reward_mean[s, a]),
                                        int(mdp.transition[s, a].argmax())))
    return out


class TestComputeTargets:
    def test_zero_discount_returns_rewards(self, mdp):
        batch = exhaustive_batch(mdp)
        q = ZeroQ(mdp.n_actions)
        targets = fqi.compute_targets(batch, q, 0.0)
        assert np.array_equal(targets, [b.reward for b in batch])

    def test_zero_function_returns_rewards(self, mdp):
        batch = exhaustive_batch(mdp)
        targets = fqi.compute_targets(batch, ZeroQ(mdp.n_actions), mdp.gamma)
        assert np.array_equal(targets, [b.reward for b in batch])

    def test_empty_batch_gives_no_targets(self, mdp):
        table = fqi.build_approximator(fqi.TabularSpec(), mdp, None)
        next_values, _ = exact.reduce_table(mdp, table.values)
        for q, values in ((ZeroQ(mdp.n_actions), None), (table, next_values)):
            targets = fqi.compute_targets([], q, mdp.gamma, values)
            assert targets.dtype == np.float64 and targets.shape == (0,)

    def test_q_star_targets_reproduce_backup(self, mdp):
        q_star, _ = exact.value_iteration(mdp, tol=1e-12)
        table = fqi.build_approximator(fqi.TabularSpec(), mdp, None)
        table.values = q_star.copy()
        deterministic = dataclasses.replace(
            mdp, transition=np.eye(mdp.n_states)[mdp.transition.argmax(axis=-1)])
        batch = exhaustive_batch(deterministic)
        next_values, _ = exact.reduce_table(mdp, q_star)
        targets = fqi.compute_targets(batch, table, mdp.gamma, next_values)
        expected = exact.bellman_optimality(deterministic, q_star).reshape(-1)
        assert np.abs(targets - expected).max() <= 1e-9


class TestRewardsAndNextStates:
    def test_tabular_batch_gives_float_rewards_and_int_next_states(self, mdp):
        batch = [envs.sample_transition(mdp, s, a, rng=np.random.default_rng(s))
                 for s in range(mdp.n_states) for a in range(mdp.n_actions)]
        rewards, next_states = fqi._rewards_and_next_states(batch)
        assert rewards.dtype == np.float64
        assert rewards.tobytes() == np.array([b.reward for b in batch]).tobytes()
        assert type(next_states) is tuple
        assert next_states == tuple(b.next_state for b in batch)
        assert all(type(s) is int for s in next_states)

    def test_continuous_batch_gives_a_tuple_of_state_arrays(self, continuous_model):
        rng = np.random.default_rng(3)
        batch = [envs.sample_transition(continuous_model, rng.uniform(size=2), a, rng=rng)
                 for a in (0, 1, 1)]
        rewards, next_states = fqi._rewards_and_next_states(batch)
        assert rewards.tobytes() == np.array([b.reward for b in batch]).tobytes()
        assert type(next_states) is tuple and len(next_states) == 3
        for got, sample in zip(next_states, batch):
            assert got is sample.next_state

    def test_empty_batch_gives_an_empty_float_array_and_no_states(self):
        rewards, next_states = fqi._rewards_and_next_states([])
        assert rewards.dtype == np.float64 and rewards.shape == (0,)
        assert next_states == ()


class TestComputeMinimaxTargets:
    def test_degenerate_second_player_matches_max(self, game):
        thin = envs.make_random_game(3, 2, 1, 0.9, 1.0, seed=2)
        # With one second-player action the joint action (a, 0) is a.
        batch = [TransitionSample(s, a, 0.5, (s + 1) % 3)
                 for s in range(3) for a in range(2)]
        q = fqi.build_approximator(fqi.TabularSpec(), thin, None)
        q.values = np.random.default_rng(0).normal(size=(3, 2, 1))
        got = fqi.compute_minimax_targets(batch, q, 0.9,
                                          exact.reduce_table(thin, q.values)[0])
        flat_mdp = envs.joint_action_mdp(thin)
        flat = fqi.build_approximator(fqi.TabularSpec(), flat_mdp, None)
        flat.values = q.values.reshape(3, 2)
        expected = fqi.compute_targets(batch, flat, 0.9,
                                       exact.reduce_table(flat_mdp, flat.values)[0])
        assert np.abs(got - expected).max() <= 1e-12

    def test_antisymmetric_matrix_value_zero(self, game):
        pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
        q = fqi.build_approximator(fqi.TabularSpec(), game, None)
        q.values = np.broadcast_to(pennies, (3, 2, 2)).copy()
        batch = [TransitionSample(0, 0 * 2 + 1, 0.25, s) for s in range(3)]
        targets = fqi.compute_minimax_targets(batch, q, game.gamma,
                                              exact.reduce_table(game, q.values)[0])
        assert np.abs(targets - 0.25).max() <= 1e-10

    def test_table_without_state_values_is_refused(self, game):
        q = fqi.build_approximator(fqi.TabularSpec(), game, None)
        batch = [TransitionSample(0, 0, 0.25, 1)]
        with pytest.raises(ValueError, match="per-state values"):
            fqi.compute_minimax_targets(batch, q, game.gamma, None)

    def test_q_star_is_fixed_point(self, game):
        q_star, _ = exact.nash_value_iteration(game, tol=1e-12)
        q = fqi.build_approximator(fqi.TabularSpec(), game, None)
        q.values = q_star.copy()
        backup = exact.game_bellman_optimality(game, q_star)
        assert np.abs(backup - q_star).max() <= 1e-8


class TestStageGameSolves:
    @pytest.mark.parametrize("exact_regression", [False, True],
                             ids=["sampled", "exact-regression"])
    def test_each_iterate_is_solved_once(self, game, monkeypatch, exact_regression):
        """Targets, residual backups, traced suboptimality and the returned
        policy share one solve per state of each of the K+1 iterates."""
        exact.optimal_q(game)  # the suboptimality oracle, memoised per model
        solve = matrix_game.solve
        calls = []

        def counting_solve(payoff, *args, **kwargs):
            calls.append(1)
            return solve(payoff, *args, **kwargs)

        monkeypatch.setattr(matrix_game, "solve", counting_solve)
        iterations = 4
        result = fqi.run_minimax_fqi(game, fqi.FqiConfig(
            iterations=iterations, n_samples=60, seed=3,
            exact_regression=exact_regression))
        assert all(r.suboptimality_1mu is not None for r in result.trace.records)
        assert len(calls) == (iterations + 1) * game.n_states


class TestRunFqi:
    def test_exact_regression_equals_value_iteration(self, mdp):
        result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=50,
                                                exact_regression=True,
                                                track_diagnostics=False))
        q = np.zeros((6, 3))
        for k in range(50):
            q = exact.bellman_optimality(mdp, q)
            assert np.abs(result.q_tables[k + 1] - q).max() <= 1e-10

    def test_zero_iterations_edge(self, mdp):
        result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=0))
        assert isinstance(result.q_final, ZeroQ)
        assert len(result.trace) == 0
        assert np.array_equal(result.policy[:, 0], np.ones(6))

    def test_algorithmic_error_bound_under_exact_regression(self, mdp):
        mu = np.full((6, 3), 1.0 / 18)
        result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=20,
                                                exact_regression=True,
                                                mu_weights=mu))
        gamma, r_max = mdp.gamma, mdp.r_max
        for record in result.trace.records:
            k = record.k + 1
            bound = 4 * gamma ** (k + 1) * r_max / (1 - gamma) ** 2
            assert record.suboptimality_1mu <= bound + 1e-9

    def test_determinism_bit_for_bit(self, mdp):
        config = fqi.FqiConfig(iterations=6, n_samples=40, seed=3)
        a = fqi.run_fqi(mdp, config)
        b = fqi.run_fqi(mdp, config)
        for ta, tb in zip(a.q_tables, b.q_tables):
            assert np.array_equal(ta, tb)
        assert [r.empirical_mse for r in a.trace.records] == \
               [r.empirical_mse for r in b.trace.records]

    def test_trace_has_one_record_per_iteration(self, mdp):
        result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=7, n_samples=10,
                                                seed=0))
        assert len(result.trace) == 7
        assert [r.k for r in result.trace.records] == list(range(7))

    def test_sandwich_inequalities_along_noisy_runs(self):
        noisy = envs.make_random_mdp(5, 2, 0.9, 1.0, seed=3,
                                     reward_noise_halfwidth=0.3)
        for seed in range(5):
            result = fqi.run_fqi(noisy, fqi.FqiConfig(iterations=6,
                                                      n_samples=30, seed=seed))
            report = diagnostics.verify_sandwich(noisy, result.q_tables,
                                                 result.rho_tables)
            assert report.max_violation <= 1e-9

    def test_fixed_dataset_reuse_mode(self, mdp):
        config = fqi.FqiConfig(iterations=4, n_samples=25, seed=9,
                               fresh_samples_per_iteration=False)
        result = fqi.run_fqi(mdp, config)
        assert len(result.trace) == 4

    def test_sampling_kinds(self, mdp):
        weights = np.full(18, 1.0 / 18)
        for sampling in (fqi.SamplingDistribution("uniform-state-action"),
                         fqi.SamplingDistribution("explicit-weights",
                                                  weights=weights),
                         fqi.SamplingDistribution("on-policy-mixture",
                                                  uniform_mix=0.4)):
            config = fqi.FqiConfig(iterations=2, n_samples=30, seed=1,
                                   sampling=sampling, track_diagnostics=False)
            result = fqi.run_fqi(mdp, config)
            assert len(result.trace) == 2

    def test_rejects_game_model(self, game):
        with pytest.raises(TypeError):
            fqi.run_fqi(game, fqi.FqiConfig(iterations=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            fqi.FqiConfig(iterations=-1)
        with pytest.raises(ValueError):
            fqi.FqiConfig(iterations=1, n_samples=0)
        with pytest.raises(ValueError):
            fqi.SamplingDistribution("explicit-weights")
        with pytest.raises(ValueError):
            fqi.SamplingDistribution("nonsense")


class TestRunMinimaxFqi:
    def test_exact_regression_equals_nash_value_iteration(self, game):
        result = fqi.run_minimax_fqi(game, fqi.FqiConfig(
            iterations=8, exact_regression=True, track_diagnostics=False))
        q = np.zeros((3, 2, 2))
        for k in range(8):
            q = exact.game_bellman_optimality(game, q)
            assert np.abs(result.q_tables[k + 1] - q).max() <= 1e-9

    def test_degenerate_game_matches_plain_fqi_trace(self):
        thin = envs.make_random_game(4, 3, 1, 0.9, 1.0, seed=12,
                                     reward_noise_halfwidth=0.1)
        flat = envs.joint_action_mdp(thin)
        config = fqi.FqiConfig(iterations=5, n_samples=30, seed=7,
                               track_diagnostics=False)
        game_run = fqi.run_minimax_fqi(thin, config)
        mdp_run = fqi.run_fqi(flat, config)
        for tg, tm in zip(game_run.q_tables, mdp_run.q_tables):
            assert np.abs(tg.reshape(tm.shape) - tm).max() <= 1e-12
        game_errors = [r.one_step_error_sigma for r in game_run.trace.records]
        mdp_errors = [r.one_step_error_sigma for r in mdp_run.trace.records]
        assert np.allclose(game_errors, mdp_errors, atol=1e-12)

    def test_suboptimality_decays_geometrically(self, game):
        mu = np.full((3, 2, 2), 1.0 / 12)
        result = fqi.run_minimax_fqi(game, fqi.FqiConfig(
            iterations=12, exact_regression=True, mu_weights=mu))
        gamma, r_max = game.gamma, game.r_max
        for record in result.trace.records:
            k = record.k + 1
            bound = 4 * gamma ** (k + 1) * r_max / (1 - gamma) ** 2
            assert record.suboptimality_1mu <= bound + 1e-9

    def test_rejects_mdp(self, mdp):
        with pytest.raises(TypeError):
            fqi.run_minimax_fqi(mdp, fqi.FqiConfig(iterations=1))


class TestRecordedOneStepError:
    @pytest.mark.parametrize("model_name, engine, exact_regression", [
        ("mdp", fqi.run_fqi, False),
        ("game", fqi.run_minimax_fqi, False),
        ("mdp", fqi.run_fqi, True),
    ], ids=["sampled-mdp", "sampled-game", "exact-regression"])
    def test_matches_uniform_l2_of_backup_gap(self, request, model_name, engine,
                                              exact_regression):
        """Under uniform sampling, each recorded error is the uniform-weight
        l2 norm of ``T Q_k - Q_{k+1}`` over the run's own tables."""
        model = request.getfixturevalue(model_name)
        result = engine(model, fqi.FqiConfig(
            iterations=5, n_samples=40, seed=3, exact_regression=exact_regression,
            track_diagnostics=False))
        backup = (exact.game_bellman_optimality if model_name == "game"
                  else exact.bellman_optimality)
        oracles = []
        for k, record in enumerate(result.trace.records):
            gap = backup(model, result.q_tables[k]) - result.q_tables[k + 1]
            oracles.append(float(np.sqrt(np.mean(gap ** 2))))
            assert abs(record.one_step_error_sigma - oracles[-1]) <= 1e-12
        assert len(oracles) == 5
        if exact_regression:
            assert all(r.one_step_error_sigma == 0.0 for r in result.trace.records)
        else:
            assert min(oracles) > 0.0


class TestRunFqiProjectedSgd:
    @pytest.mark.parametrize("field, value", [
        ("sgd_steps", 0), ("sgd_steps", -1), ("sgd_eta", 0.0), ("sgd_eta", -0.5)])
    def test_config_rejects_nonpositive_steps_and_eta(self, field, value):
        with pytest.raises(ValueError, match=field):
            fqi.FqiConfig(iterations=1, approximator=fqi.NtkSpec(m=4), **{field: value})

    def test_iterates_stay_in_ball(self, continuous_model):
        config = fqi.FqiConfig(iterations=2, approximator=fqi.NtkSpec(
            m=32, ball_radius=0.05), sgd_steps=200, seed=3)
        result = fqi.run_fqi_projected_sgd(continuous_model, config)
        assert result.q_final.distance_from_anchor() <= 0.05 + 1e-12

    def test_error_decreases_with_width(self, continuous_model):
        medians = []
        for m in (64, 256, 1024):
            errors = []
            for seed in range(5):
                config = fqi.FqiConfig(iterations=2,
                                       approximator=fqi.NtkSpec(m=m,
                                                                ball_radius=2.0),
                                       seed=seed)
                result = fqi.run_fqi_projected_sgd(continuous_model, config)
                estimate = diagnostics.monte_carlo_one_step_error(
                    result.q_final, result.q_penultimate, continuous_model,
                    n_points=600, n_noise=16, rng=np.random.default_rng(77))
                errors.append(estimate.value)
            medians.append(float(np.median(errors)))
        assert medians[0] >= medians[1] >= medians[2]

    def test_requires_continuous_model_and_ntk(self, continuous_model, mdp):
        with pytest.raises(TypeError):
            fqi.run_fqi_projected_sgd(mdp, fqi.FqiConfig(
                iterations=1, approximator=fqi.NtkSpec(m=4)))
        with pytest.raises(TypeError):
            fqi.run_fqi_projected_sgd(continuous_model, fqi.FqiConfig(iterations=1))


class TestWarmStart:
    """A warm start fits a copy of the previous iterate: the iterate the
    targets were computed from stays frozen, and ``q_penultimate`` is the
    iterate before ``q_final``."""

    def test_tabular_penultimate_is_the_previous_table(self, mdp):
        result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=3, n_samples=40,
                                                warm_start=True, seed=2))
        assert result.q_penultimate is not result.q_final
        assert np.array_equal(fqi.tabulate(result.q_penultimate, mdp),
                              result.q_tables[-2])
        assert np.array_equal(fqi.tabulate(result.q_final, mdp), result.q_tables[-1])
        assert not np.array_equal(result.q_tables[-2], result.q_tables[-1])

    @pytest.mark.parametrize("spec", [fqi.LinearSpec(), fqi.ReluSpec(hidden=(8,))],
                             ids=["linear", "relu"])
    def test_vector_penultimate_is_the_previous_fit(self, continuous_model, spec):
        def run(iterations):
            return fqi.run_fqi(continuous_model, fqi.FqiConfig(
                iterations=iterations, n_samples=60, approximator=spec,
                trainer=TrainerConfig(epochs=20), warm_start=True, seed=3))
        one, two = run(1), run(2)
        assert two.q_penultimate is not two.q_final
        states = np.random.default_rng(9).uniform(0.0, 1.0, (25, 2))

        def values(q):
            return np.array([q.evaluate_all(state) for state in states])
        assert np.array_equal(values(two.q_penultimate), values(one.q_final))
        assert not np.array_equal(values(two.q_final), values(one.q_final))


class TestDivergenceHandling:
    def test_diverged_fit_aborts_with_partial_trace(self, continuous_model):
        # a tiny divergence threshold trips the guard on the first epoch
        config = fqi.FqiConfig(
            iterations=5, n_samples=20,
            approximator=fqi.ReluSpec(hidden=(8,), v_max=None),
            trainer=TrainerConfig(epochs=50, divergence_threshold=1e-12),
            seed=2)
        result = fqi.run_fqi(continuous_model, config)
        assert result.diverged
        assert len(result.trace) == 1  # aborted after the flagged iteration
        assert result.trace.records[0].empirical_mse >= 0.0


class TestBoundedness:
    def test_truncated_network_iterates_bounded(self):
        model = envs.make_random_continuous_mdp(2, 2, 0.9, 1.0, seed=4)
        config = fqi.FqiConfig(
            iterations=2, n_samples=50,
            approximator=fqi.ReluSpec(hidden=(8,), v_max="auto"),
            trainer=TrainerConfig(epochs=40), seed=5)
        result = fqi.run_fqi(model, config)
        v_max = model.r_max / (1 - model.gamma)
        rng = np.random.default_rng(6)
        for _ in range(50):
            state = rng.uniform(0, 1, 2)
            assert abs(result.q_final.evaluate_all(state)[int(rng.integers(2))]) \
                <= v_max
