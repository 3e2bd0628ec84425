import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fittedq import dqn, envs, exact, fqi, matrix_game
from fittedq.approximators import TabularQ
from fittedq.envs import TransitionSample


@pytest.fixture(scope="module")
def gridworld():
    return envs.make_gridworld(3, 3, (2, 2), -0.05, 1.0, 0.1, 0.9)


def transition(tag, action=None):
    """A transition whose every field but a given (joint) action is derived
    from ``tag``."""
    return TransitionSample(tag, tag % 3 if action is None else action, -0.5 * tag,
                            tag + 1)


def flat_cells(states, actions, table_shape):
    """Flat indices into a table of ``table_shape`` of the cells (state,
    action); on a game the action is the joint action."""
    n_actions = int(np.prod(table_shape[1:]))
    return np.ravel_multi_index((states, actions), (table_shape[0], n_actions))


def push(buffer, item, table_shape):
    """Store a :class:`TransitionSample` under its flat table cell."""
    cell = flat_cells(item.state, item.action, table_shape)
    buffer.push(int(cell), item.next_state, item.reward)


class ListReplayBuffer:
    """The list-of-transitions ring the array buffer replaced: the
    reference for what a read returns."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._ring = [None] * capacity
        self._next = 0
        self._size = 0

    def push(self, item):
        self._ring[self._next] = item
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, idx):
        return [self._ring[i] for i in idx]


def as_arrays(batch, table_shape):
    """A list of transitions as the array buffer's (cells, next states,
    rewards)."""
    flat = flat_cells(np.array([s.state for s in batch], dtype=np.int64),
                      np.array([s.action for s in batch], dtype=np.int64), table_shape)
    return (flat, np.array([s.next_state for s in batch], dtype=np.int64),
            np.array([s.reward for s in batch]))


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestReplayBuffer:
    def test_never_exceeds_capacity_and_evicts_fifo(self):
        shape = (20, 3)
        buf = dqn.ReplayBuffer(5)
        for tag in range(12):
            push(buf, transition(tag), shape)
            assert len(buf) <= 5
        # the oldest surviving transition is 7
        idx = np.random.default_rng(0).integers(len(buf), size=1000)
        got = buf.sample(idx)
        tags = got[1] - 1
        assert set(tags.tolist()) == set(range(7, 12))
        assert_same_arrays(got, as_arrays([transition(t) for t in tags], shape))

    def test_uniform_sampling_frequencies(self):
        buf = dqn.ReplayBuffer(8)
        for tag in range(8):
            push(buf, transition(tag), (20, 3))
        rng = np.random.default_rng(0)
        n = 100_000
        _, next_states, _ = buf.sample(dqn._replay_block(rng, len(buf), 1, 8, n)[0])
        counts = np.bincount(next_states - 1, minlength=8) / n
        sigma = np.sqrt((1 / 8) * (7 / 8) / n)
        assert np.abs(counts - 1 / 8).max() <= 3 * sigma

    def test_empty_buffer_rejects_sampling(self):
        with pytest.raises(ValueError):
            dqn.ReplayBuffer(3).sample(np.zeros(1, dtype=np.int64))

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            dqn.ReplayBuffer(0)

    def test_capacity_one_returns_latest(self):
        shape = (5, 3, 2)
        buf = dqn.ReplayBuffer(1)
        push(buf, transition(1, action=1 * 2 + 0), shape)
        push(buf, transition(2, action=2 * 2 + 1), shape)
        idx = dqn._replay_block(np.random.default_rng(0), 2, 1, 1, 16)[0]
        cells, next_states, rewards = buf.sample(idx)
        assert cells.tolist() == [(2 * 3 + 2) * 2 + 1] * 16
        assert next_states.tolist() == [3] * 16
        assert rewards.tolist() == [-1.0] * 16

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 12), game=st.booleans(),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_list_of_transitions(self, capacity, game, seed, data):
        shape = (51, 51, 51) if game else (51, 51)
        buf = dqn.ReplayBuffer(capacity)
        reference = ListReplayBuffer(capacity)
        rng = np.random.default_rng(seed)
        index = st.integers(0, 50)
        action = st.integers(0, 51 * 51 - 1) if game else index
        for _ in range(data.draw(st.integers(1, 3 * capacity + 5))):
            item = TransitionSample(
                data.draw(index), data.draw(action),
                data.draw(st.floats(-1e3, 1e3, allow_subnormal=False)),
                data.draw(index))
            push(buf, item, shape)
            reference.push(item)
            assert len(buf) == reference._size
            idx = rng.integers(len(buf), size=data.draw(st.integers(1, 10)))
            assert_same_arrays(buf.sample(idx), as_arrays(reference.sample(idx), shape))


class TestReplayBlock:
    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 300), minibatch_size=st.integers(1, 70),
           first_step=st.integers(1, 600), n_steps=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1))
    @example(capacity=50, minibatch_size=32, first_step=40, n_steps=30, seed=0)
    @example(capacity=1, minibatch_size=7, first_step=1, n_steps=5, seed=1)
    def test_equals_per_step_draws(self, capacity, minibatch_size, first_step,
                                   n_steps, seed):
        """Also across the step at which the buffer fills, and at capacity one."""
        block_rng, step_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = dqn._replay_block(block_rng, first_step, n_steps, capacity, minibatch_size)
        assert block.shape == (n_steps, minibatch_size)
        for row, t in zip(block, range(first_step, first_step + n_steps)):
            expected = step_rng.integers(min(t, capacity), size=minibatch_size)
            assert row.dtype == expected.dtype
            assert np.array_equal(row, expected)
        assert block_rng.bit_generator.state == step_rng.bit_generator.state

    def test_block_stays_within_bound(self):
        minibatch_size = 32
        steps = max(1, dqn._REPLAY_BLOCK_INDICES // minibatch_size)
        block = dqn._replay_block(np.random.default_rng(0), 1, steps, 10_000,
                                  minibatch_size)
        assert block.nbytes <= 64 * 1024


class TestEpsilonGreedy:
    def make_q(self, row):
        q = TabularQ(1, len(row))
        q.values[0] = row
        return q

    def test_zero_epsilon_always_argmax(self):
        q = self.make_q([0.0, 5.0, 2.0])
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert dqn.epsilon_greedy_action(q, 0, 0.0, rng) == 1

    def test_full_exploration_uniform(self):
        q = self.make_q([0.0, 5.0])
        rng = np.random.default_rng(1)
        n = 100_000
        counts = np.bincount([dqn.epsilon_greedy_action(q, 0, 1 - 1e-12, rng)
                              for _ in range(n)], minlength=2) / n
        sigma = np.sqrt(0.25 / n)
        assert np.abs(counts - 0.5).max() <= 3 * sigma

    def test_half_epsilon_mixture_frequency(self):
        q = self.make_q([0.0, 5.0])
        rng = np.random.default_rng(2)
        n = 100_000
        hits = sum(dqn.epsilon_greedy_action(q, 0, 0.5, rng) == 1
                   for _ in range(n)) / n
        # P(action 1) = 0.5 (greedy) + 0.5 * 0.5 (uniform) = 0.75
        sigma = np.sqrt(0.75 * 0.25 / n)
        assert abs(hits - 0.75) <= 3 * sigma


class TestDrawStart:
    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0, 7.0]),
                            min_size=1, max_size=12).filter(any),
           seed=st.integers(0, 2**32 - 1))
    def test_draws_as_generator_choice(self, weights, seed):
        """The cached cdf gives ``rng.choice``'s draws and leaves the
        generator in the same state."""
        p = np.array(weights) / sum(weights)
        model = envs.make_random_mdp(len(p), 2, 0.9, 1.0, seed=0)
        config = dqn.DqnConfig(total_steps=0, start_distribution=p)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        start_cdf = dqn._start_cdf(model, config, fast)
        for _ in range(20):
            assert (dqn._draw_start(model, start_cdf, fast)
                    == int(slow.choice(len(p), p=p)))
            assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("p", [[0.5, 0.6, 0.0, 0.0], [0.5, 0.5], [1.5, -0.5, 0.0, 0.0]],
                             ids=["not-summing-to-1", "wrong-length", "negative"])
    def test_bad_start_distribution_raises(self, p):
        model = envs.make_random_mdp(4, 2, 0.9, 1.0, seed=0)
        config = dqn.DqnConfig(total_steps=5, start_distribution=np.array(p))
        with pytest.raises(ValueError):
            dqn.dqn_train(model, config)


class CloneCountingQ(TabularQ):
    clones = 0

    def clone(self):
        type(self).clones += 1
        out = CloneCountingQ(*self.values.shape)
        out.values = self.values.copy()
        return out


class TestDqnTrain:
    def test_no_sync_before_period(self, gridworld):
        config = dqn.DqnConfig(total_steps=49, target_sync_period=50, seed=0,
                               minibatch_size=4)
        result = dqn.dqn_train(gridworld, config)
        assert result.trace.summary["sync_count"] == 0

    def test_sync_counter_exact(self, gridworld):
        config = dqn.DqnConfig(total_steps=230, target_sync_period=50, seed=0,
                               minibatch_size=4)
        result = dqn.dqn_train(gridworld, config)
        assert result.trace.summary["sync_count"] == 230 // 50

    def test_target_cloned_only_on_sync(self, gridworld, monkeypatch):
        CloneCountingQ.clones = 0
        monkeypatch.setattr("fittedq.fqi.TabularQ", TabularQ)

        def build(spec, model, rng):
            return CloneCountingQ(model.n_states, model.n_actions)

        monkeypatch.setattr("fittedq.dqn.build_approximator", build)
        config = dqn.DqnConfig(total_steps=120, target_sync_period=50, seed=0,
                               minibatch_size=4)
        dqn.dqn_train(gridworld, config)
        # one clone at initialization plus one per sync
        assert CloneCountingQ.clones == 1 + 120 // 50

    def test_capacity_one_buffer_trains_on_latest(self, gridworld):
        config = dqn.DqnConfig(total_steps=30, buffer_capacity=1, seed=1,
                               minibatch_size=8)
        result = dqn.dqn_train(gridworld, config)
        assert len(result.losses) == 30

    def test_coverage_of_state_actions(self):
        mdp = envs.make_random_mdp(3, 2, 0.9, 1.0, seed=4)
        seen = set()
        rng = np.random.default_rng(0)
        from fittedq.envs import sample_transition
        state = 0
        from fittedq.approximators import TabularQ as TQ
        q = TQ(3, 2)
        for _ in range(2000):
            action = dqn.epsilon_greedy_action(q, state, 0.5, rng)
            seen.add((state, action))
            state = sample_transition(mdp, state, action, rng=rng).next_state
        assert seen == {(s, a) for s in range(3) for a in range(2)}

    def test_determinism(self, gridworld):
        config = dqn.DqnConfig(total_steps=200, seed=11, minibatch_size=8)
        a = dqn.dqn_train(gridworld, config)
        b = dqn.dqn_train(gridworld, config)
        assert np.array_equal(a.q_final.values, b.q_final.values)
        assert a.losses == b.losses

    def test_learns_small_gridworld(self, gridworld):
        config = dqn.DqnConfig(total_steps=6000, minibatch_size=16,
                               epsilon=0.25, target_sync_period=50,
                               learning_rate=0.3, seed=1,
                               buffer_capacity=2000)
        result = dqn.dqn_train(gridworld, config)
        q_star, _ = exact.value_iteration(gridworld, tol=1e-10)
        v_star = (exact.greedy_policy(q_star) * q_star).sum(axis=1).mean()
        assert result.trace.summary["eval_value"] >= 0.9 * v_star

    def test_config_validation(self):
        with pytest.raises(ValueError):
            dqn.DqnConfig(total_steps=10, epsilon=0.0)
        with pytest.raises(ValueError):
            dqn.DqnConfig(total_steps=10, epsilon=1.0)
        with pytest.raises(ValueError):
            dqn.DqnConfig(total_steps=10, target_sync_period=0)


class TestMinimaxDqnTrain:
    def test_degenerate_second_player_reduces_to_dqn(self):
        # |B| = 1: the stage matrices are single-column, so their values are
        # row maxima and Minimax-DQN is DQN on the joint-action MDP, bit
        # for bit.  epsilon ~ 1 keeps both trainers on the uniform draw, the
        # one action draw they share.
        game = envs.make_random_game(3, 2, 1, 0.9, 1.0, seed=8,
                                     reward_noise_halfwidth=0.2)
        eps = 1 - 1e-12
        config = dqn.DqnConfig(total_steps=300, minibatch_size=8, epsilon=eps,
                               target_sync_period=40, learning_rate=0.2, seed=5)
        game_run = dqn.minimax_dqn_train(game, config, np.ones((3, 1)))
        mdp_run = dqn.dqn_train(envs.joint_action_mdp(game), config)
        assert (game_run.q_final.values[:, :, 0].tobytes()
                == mdp_run.q_final.values.tobytes())
        assert game_run.losses == mdp_run.losses

    def test_matching_pennies_value_near_zero(self):
        game = envs.make_matching_pennies_game(gamma=0.9)
        opponent = np.full((1, 2), 0.5)
        config = dqn.DqnConfig(total_steps=4000, minibatch_size=16,
                               epsilon=0.2, target_sync_period=50,
                               learning_rate=0.1, seed=2)
        result = dqn.minimax_dqn_train(game, config, opponent)
        learned_value = matrix_game.solve(result.q_final.values[0]).value
        assert abs(learned_value) <= 0.05

    def test_sync_counter_exact(self):
        game = envs.make_random_game(2, 2, 2, 0.9, 1.0, seed=3)
        config = dqn.DqnConfig(total_steps=170, target_sync_period=60, seed=0,
                               minibatch_size=4)
        result = dqn.minimax_dqn_train(game, config, np.full((2, 2), 0.5))
        assert result.trace.summary["sync_count"] == 170 // 60

    def test_opponent_policy_rows_checked_at_unvisited_states(self):
        # A 5-step run with seed 0 never visits state 1, so only the
        # up-front check sees its row, which sums to 1.4.
        game = envs.make_random_game(3, 2, 2, 0.9, 1.0, seed=1)
        config = dqn.DqnConfig(total_steps=5, minibatch_size=2, seed=0)
        opponent = np.full((3, 2), 0.5)
        opponent[1] = [0.7, 0.7]
        with pytest.raises(ValueError, match="opponent policy rows are not probability"):
            dqn.minimax_dqn_train(game, config, opponent)
        with pytest.raises(ValueError, match="opponent policy has shape"):
            dqn.minimax_dqn_train(game, config, np.full((3, 3), 1 / 3))

    def test_online_loops_name_the_tabular_requirement(self):
        game = envs.make_random_game(2, 2, 2, 0.9, 1.0, seed=3)
        config = dqn.DqnConfig(total_steps=10, seed=0,
                               approximator=fqi.ReluSpec())
        with pytest.raises(TypeError, match="tabular models use TabularSpec"):
            dqn.minimax_dqn_train(game, config, np.full((2, 2), 0.5))
        with pytest.raises(TypeError, match="tabular models use TabularSpec"):
            dqn.dqn_train(envs.joint_action_mdp(game), config)

    def test_opponent_policy_is_over_player_twos_actions(self):
        game = envs.make_random_game(2, 2, 3, 0.9, 1.0, seed=3)
        config = dqn.DqnConfig(total_steps=10, minibatch_size=4, seed=0)
        result = dqn.minimax_dqn_train(game, config, np.full((2, 3), 1 / 3))
        assert result.q_final.values.shape == (2, 2, 3)
        with pytest.raises(ValueError, match=r"expected \(2, 3\)"):
            dqn.minimax_dqn_train(game, config, np.full((2, 2), 0.5))

    @pytest.mark.parametrize("trainer", ["dqn", "minimax-dqn"])
    def test_overflowing_sync_names_the_step(self, trainer):
        config = dqn.DqnConfig(total_steps=10, learning_rate=1.7e308,
                               target_sync_period=1, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                FloatingPointError, match="diverged at step 1"):
            if trainer == "dqn":
                dqn.dqn_train(envs.make_random_mdp(3, 2, 0.9, 1.0, seed=1), config)
            else:
                dqn.minimax_dqn_train(envs.make_random_game(3, 2, 2, 0.9, 1.0, seed=1),
                                      config, np.full((3, 2), 0.5))

    def test_rejects_bad_opponent_shape(self):
        game = envs.make_random_game(2, 2, 2, 0.9, 1.0, seed=3)
        config = dqn.DqnConfig(total_steps=10, seed=0)
        with pytest.raises(ValueError):
            dqn.minimax_dqn_train(game, config, np.full((3, 2), 0.5))
