import copy
import dataclasses
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fittedq import envs, fqi
from fittedq.approximators import RegressionDataset, TabularQ


def uniform_rng(seed=0):
    return np.random.default_rng(seed)


class TestMakeRandomMdp:
    def test_single_cell_is_point_mass(self):
        mdp = envs.make_random_mdp(1, 1, 0.9, 1.0, seed=0)
        assert mdp.transition.tolist() == [[[1.0]]]

    def test_seed_determinism(self):
        a = envs.make_random_mdp(3, 2, 0.9, 1.0, seed=7)
        b = envs.make_random_mdp(3, 2, 0.9, 1.0, seed=7)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.reward_mean, b.reward_mean)

    def test_rows_stochastic(self):
        mdp = envs.make_random_mdp(5, 3, 0.95, 1.0, concentration=0.5, seed=1)
        sums = mdp.transition.sum(axis=-1)
        assert np.abs(sums - 1.0).max() <= 1e-12
        assert np.all(mdp.transition >= 0)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.1, 1.2])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError):
            envs.make_random_mdp(2, 2, gamma, 1.0)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            envs.make_random_mdp(0, 2, 0.9, 1.0)
        with pytest.raises(ValueError):
            envs.make_random_mdp(2, 0, 0.9, 1.0)

    def test_rewards_within_bound(self):
        mdp = envs.make_random_mdp(6, 4, 0.9, 0.5, seed=3)
        assert np.abs(mdp.reward_mean).max() <= 0.5


class TestGridworld:
    def test_single_cell_goal_self_loops(self):
        mdp = envs.make_gridworld(1, 1, (0, 0), -0.1, 1.0, 0.0, 0.9)
        assert np.array_equal(mdp.transition, np.ones((1, 4, 1)))
        assert np.array_equal(mdp.reward_mean, np.zeros((1, 4)))

    def test_two_cell_structure(self):
        mdp = envs.make_gridworld(2, 1, (1, 0), -0.1, 1.0, 0.0, 0.9)
        east = envs.GRID_ACTIONS.index((1, 0))
        assert mdp.transition[0, east, 1] == 1.0
        assert mdp.reward_mean[0, east] == 1.0
        # bumping west keeps position and pays the step reward
        west = envs.GRID_ACTIONS.index((-1, 0))
        assert mdp.transition[0, west, 0] == 1.0
        assert mdp.reward_mean[0, west] == -0.1

    def test_slippery_rows_stochastic(self):
        mdp = envs.make_gridworld(5, 5, (4, 4), -0.04, 1.0, 0.1, 0.9)
        assert np.abs(mdp.transition.sum(axis=-1) - 1.0).max() <= 1e-12

    def test_mean_reward_stays_within_r_max_despite_roundoff(self):
        # Each non-goal row mixes arrival rewards of -1000 with weights
        # that sum to 1 only up to roundoff, which once overshot -r_max.
        mdp = envs.make_gridworld(3, 3, (2, 2), -1000.0, 1.0, 0.1, 0.9)
        assert mdp.r_max == 1000.0
        assert mdp.reward_mean.min() == -1000.0

    def test_rejects_bad_goal_and_slip(self):
        with pytest.raises(ValueError):
            envs.make_gridworld(2, 2, (2, 0), -0.1, 1.0, 0.0, 0.9)
        with pytest.raises(ValueError):
            envs.make_gridworld(2, 2, (0, 0), -0.1, 1.0, 1.0, 0.9)


class TestMakeRandomGame:
    def test_point_mass(self):
        game = envs.make_random_game(1, 1, 1, 0.9, 1.0, seed=0)
        assert game.transition.tolist() == [[[[1.0]]]]

    def test_seed_determinism(self):
        a = envs.make_random_game(2, 2, 2, 0.9, 1.0, seed=3)
        b = envs.make_random_game(2, 2, 2, 0.9, 1.0, seed=3)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.reward_mean, b.reward_mean)

    def test_rows_stochastic(self):
        game = envs.make_random_game(3, 2, 2, 0.95, 1.0, seed=9)
        assert np.abs(game.transition.sum(axis=-1) - 1.0).max() <= 1e-12


class TestSampleTransition:
    def test_deterministic_mdp_exact(self):
        transition = np.zeros((2, 1, 2))
        transition[0, 0, 1] = 1.0
        transition[1, 0, 0] = 1.0
        mdp = envs.TabularMDP(2, 1, transition, np.array([[0.25], [-0.5]]),
                              0.9, 1.0)
        sample = envs.sample_transition(mdp, 0, 0, rng=uniform_rng())
        assert sample.reward == 0.25
        assert sample.next_state == 1

    def test_empirical_frequencies_multinomial(self):
        mdp = envs.make_random_mdp(4, 2, 0.9, 1.0, seed=5)
        rng = uniform_rng(11)
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            counts[envs.sample_transition(mdp, 1, 0, rng=rng).next_state] += 1
        p = mdp.transition[1, 0]
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts / n - p) <= 3 * sigma + 1e-12)

    def test_continuous_states_stay_in_cube(self):
        model = envs.make_random_continuous_mdp(3, 2, 0.9, 1.0, seed=2)
        rng = uniform_rng(4)
        state = np.array([0.5, 0.5, 0.5])
        for _ in range(200):
            sample = envs.sample_transition(model, state, 1, rng=rng)
            state = sample.next_state
            assert state.shape == (3,)
            assert np.all(state >= 0.0) and np.all(state <= 1.0)
            assert abs(sample.reward) <= model.r_max

    def test_continuous_transition_is_the_one_row_batch_law(self):
        # The sampler has no reward or transition law of its own, so the
        # batched laws the diagnostics read score the model it ran.
        model = envs.make_random_continuous_mdp(3, 2, 0.9, 1.0, seed=2)
        states = np.random.default_rng(4).uniform(0.0, 1.0, size=(4, 3))
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for state, action in zip(states, (0, 1, 1, 0)):
            sample = envs.sample_transition(model, state, action, rng=rng)
            noise = twin.uniform(-1.0, 1.0, size=3)
            assert sample.reward == model.reward_batch(state[None], action)[0]
            assert np.array_equal(sample.next_state,
                                  model.next_state_batch(state[None], action, noise)[0])

    def test_reward_noise_clipped(self):
        mdp = envs.make_random_mdp(2, 2, 0.9, 1.0, seed=0,
                                   reward_noise_halfwidth=5.0)
        rng = uniform_rng(3)
        rewards = [envs.sample_transition(mdp, 0, 0, rng=rng).reward
                   for _ in range(500)]
        assert max(abs(r) for r in rewards) <= mdp.r_max

    def test_bit_reproducible(self):
        mdp = envs.make_random_mdp(4, 2, 0.9, 1.0, seed=5,
                                   reward_noise_halfwidth=0.2)
        runs = []
        for _ in range(2):
            rng = uniform_rng(123)
            runs.append([(s.next_state, s.reward) for s in
                         (envs.sample_transition(mdp, 2, 1, rng=rng)
                          for _ in range(50))])
        assert runs[0] == runs[1]

    def test_index_errors(self):
        mdp = envs.make_random_mdp(2, 2, 0.9, 1.0)
        with pytest.raises(IndexError):
            envs.sample_transition(mdp, 5, 0, rng=uniform_rng())
        game = envs.make_random_game(2, 2, 2, 0.9, 1.0)
        with pytest.raises(IndexError):
            envs.sample_transition(game, 0, 2 * 2, rng=uniform_rng())

    def test_empirical_total_variation(self):
        mdp = envs.make_random_mdp(6, 2, 0.9, 1.0, seed=8, concentration=0.7)
        rng = uniform_rng(21)
        n = 20_000
        counts = np.zeros(6)
        for _ in range(n):
            counts[envs.sample_transition(mdp, 3, 1, rng=rng).next_state] += 1
        tv = 0.5 * np.abs(counts / n - mdp.transition[3, 1]).sum()
        assert tv <= 3.0 * np.sqrt(6 / n)


def reference_transition(model, state, action, rng):
    """The per-sample draw the cached-cdf sampler must reproduce:
    ``rng.choice`` over the row, then ``rng.uniform`` noise and ``np.clip``.
    On a game ``action`` is the joint action."""
    cell = (state, *np.unravel_index(action, model.action_shape))
    next_state = int(rng.choice(model.n_states, p=model.transition[cell]))
    mean = model.reward_mean[cell]
    halfwidth = model.reward_noise_halfwidth
    if halfwidth == 0.0:
        reward = float(mean)
    else:
        noise = rng.uniform(-halfwidth, halfwidth)
        reward = float(np.clip(mean + noise, -model.r_max, model.r_max))
    return envs.TransitionSample(state, action, reward, next_state)


@st.composite
def tabular_models(draw, games=st.booleans()):
    """Small MDPs and games whose rows may hold zeros anywhere, with and
    without reward noise; ``games`` draws whether the model is a game.

    ``r_max`` and the noise halfwidth may be ints, as a JSON config's
    ``"r_max": 1`` reaches the sampler, and some means lie within a
    halfwidth of ``-r_max`` or ``r_max``, so that noise clips at both ends."""
    n_states = draw(st.integers(1, 5))
    actions = (draw(st.integers(1, 3)),)
    if draw(games):
        actions += (draw(st.integers(1, 3)),)
    n_rows = int(np.prod(actions)) * n_states
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    rows = []
    for _ in range(n_rows):
        row = np.array(draw(st.lists(weight, min_size=n_states, max_size=n_states)))
        if row.sum() == 0.0:
            row[draw(st.integers(0, n_states - 1))] = 1.0
        rows.append(row / row.sum())
    shape = (n_states, *actions)
    transition = np.array(rows).reshape(shape + (n_states,))
    r_max = draw(st.one_of(st.floats(0.1, 2.0), st.integers(1, 3)))
    halfwidth = draw(st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.integers(0, 3)))
    inside = st.floats(-1.0, 1.0).map(lambda x: x * r_max)
    edge = st.builds(lambda sign, x: sign * (r_max - x * min(halfwidth, r_max)),
                     st.sampled_from([-1, 1]), st.floats(0.0, 1.0))
    reward = np.array(draw(st.lists(st.one_of(inside, edge), min_size=n_rows,
                                    max_size=n_rows)), dtype=np.float64).reshape(shape)
    if len(actions) == 1:
        return envs.TabularMDP(n_states, actions[0], transition, reward, 0.9,
                               r_max, halfwidth)
    return envs.TabularMarkovGame(n_states, *actions, transition, reward, 0.9,
                                  r_max, halfwidth)


class TestCachedCdfSampler:
    @settings(max_examples=200, deadline=None)
    @given(model=tabular_models(), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_matches_per_sample_choice_draw(self, model, seed, data):
        n_actions = int(np.prod(model.action_shape))
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(data.draw(st.integers(1, 30))):
            state = data.draw(st.integers(0, model.n_states - 1))
            action = data.draw(st.integers(0, n_actions - 1))
            if data.draw(st.booleans()):  # cells as numpy indexing hands them out
                state, action = np.int64(state), np.int64(action)
            got = envs.sample_transition(model, state, action, rng=fast)
            want = reference_transition(model, state, action, slow)
            # == would let -0.0 pass for 0.0 and 1 for 1.0.
            assert type(got) is envs.TransitionSample
            assert tuple(map(type, got)) == (int, int, float, int)
            assert ((got.state, got.action, got.next_state)
                    == (want.state, want.action, want.next_state))
            assert got.reward.hex() == want.reward.hex()
        assert fast.bit_generator.state == slow.bit_generator.state
        # Generator.choice's own cdf: cumsum, then divide by the last entry.
        cdf = model.transition.cumsum(axis=-1)
        assert np.array_equal(model.transition_cdf, cdf / cdf[..., -1:])

    @settings(max_examples=50, deadline=None)
    @given(model=tabular_models())
    def test_sampler_cells_hold_the_cdf_rows_and_mean_rewards_exactly(self, model):
        rows, means = zip(*model.sampler[2])
        assert np.array(rows).tobytes() == model.transition_cdf.tobytes()
        assert np.array(means).tobytes() == model.reward_mean.tobytes()

    def test_zero_draw_skips_leading_zero_probability_states(self):
        class ZeroDraw:
            def random(self):
                return 0.0

        transition = np.array([[[0.0, 0.0, 1.0], [0.0, 0.5, 0.5]]] * 3)
        mdp = envs.TabularMDP(3, 2, transition, np.zeros((3, 2)), 0.9, 1.0)
        assert envs.sample_transition(mdp, 0, 0, rng=ZeroDraw()).next_state == 2
        assert envs.sample_transition(mdp, 0, 1, rng=ZeroDraw()).next_state == 1

    @pytest.mark.parametrize("duplicate", [lambda model: pickle.loads(pickle.dumps(model)),
                                           copy.deepcopy], ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("make, cell", [
        (lambda: envs.make_random_mdp(3, 2, 0.9, 1.0, seed=1, reward_noise_halfwidth=0.2),
         (1, 0)),
        (lambda: envs.make_random_game(3, 2, 2, 0.9, 1.0, seed=1, reward_noise_halfwidth=0.2),
         (1, 0 * 2 + 1)),
        # An int r_max and half-width, with rewards that clip at both ends.
        (lambda: envs.TabularMDP(1, 1, np.ones((1, 1, 1)), np.zeros((1, 1)), 0.9, 1, 2),
         (0, 0)),
    ], ids=["mdp", "game", "int-bounds"])
    def test_sampled_model_copies_and_samples_the_same_stream(self, duplicate, make, cell):
        model = make()
        envs.sample_transition(model, *cell, rng=uniform_rng())
        twin = duplicate(model)
        assert "sampler" in vars(twin)
        streams = [[envs.sample_transition(m, *cell, rng=rng) for _ in range(50)]
                   for m, rng in ((model, uniform_rng(5)), (twin, uniform_rng(5)))]
        assert streams[0] == streams[1]
        assert all(type(sample.reward) is float for sample in streams[1])

    @pytest.mark.parametrize("r_max, halfwidth", [(1, 2), (2, 3), (1, 2.0), (1.0, 2)])
    def test_int_bounds_give_the_float_rewards_of_the_inline_clip(self, r_max, halfwidth):
        """Rewards as the sampler computed them from the model's fields on
        each call: ``-h + (h - -h) * u``, compared with the bounds as given,
        clipped to ``float(-r_max)`` or ``float(r_max)``."""
        def inline_clip(mean, u):
            reward = mean + (-halfwidth + (halfwidth - -halfwidth) * u)
            if reward < -r_max:
                return float(-r_max)
            if reward > r_max:
                return float(r_max)
            return reward

        class Draws:
            def __init__(self, values):
                self.values = iter(values)

            def random(self):
                return next(self.values)

        means = (-r_max + 0.25, 0.0, r_max - 0.25)
        model = envs.TabularMDP(1, 3, np.ones((1, 3, 1)), np.array([means]), 0.9,
                                r_max, halfwidth)
        # 0.0 and the largest double below 1.0 clip at each end; 0.5 is no noise.
        top = float(np.nextafter(1.0, 0.0))
        for u in (0.0, 0.5, 0.25, 0.75, top):
            for action, mean in enumerate(means):
                reward = envs.sample_transition(model, 0, action, rng=Draws([0.5, u])).reward
                assert type(reward) is float
                assert reward.hex() == inline_clip(mean, u).hex()
        low = envs.sample_transition(model, 0, 0, rng=Draws([0.5, 0.0])).reward
        high = envs.sample_transition(model, 0, 2, rng=Draws([0.5, top])).reward
        assert (low, high) == (float(-r_max), float(r_max))

    def test_transition_sample_fields_are_read_only(self):
        sample = envs.sample_transition(envs.make_random_mdp(2, 2, 0.9, 1.0), 0, 1,
                                        rng=uniform_rng())
        with pytest.raises(AttributeError):
            sample.reward = 0.5


class TestJointActionIndex:
    """A game is sampled, and its table fit, as the MDP over its joint
    actions ``a*B + b``."""

    @settings(max_examples=60, deadline=None)
    @given(game=tabular_models(games=st.just(True)), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_game_is_its_joint_action_mdp(self, game, seed, data):
        mdp = envs.joint_action_mdp(game)
        S, A, B = game.n_states, *game.action_shape
        on_game, on_mdp = np.random.default_rng(seed), np.random.default_rng(seed)
        for state in range(S):
            for action in range(A * B):
                for _ in range(2):
                    assert (envs.sample_transition(game, state, action, rng=on_game)
                            == envs.sample_transition(mdp, state, action, rng=on_mdp))
                assert on_game.bit_generator.state == on_mdp.bit_generator.state

        n = data.draw(st.integers(1, 40))
        setup = np.random.default_rng([seed, 1])
        states, actions = setup.integers(S, size=n), setup.integers(A * B, size=n)
        dataset = RegressionDataset(states, actions, setup.normal(size=n))
        game_q, mdp_q = TabularQ(S, A, B), TabularQ(S, A * B)
        # Fortran order: the fit's (S, A*B) view of it is a copy.
        game_q.values = np.asfortranarray(setup.normal(size=(S, A, B)))
        mdp_q.values = game_q.values.reshape(S, A * B).copy()
        assert game_q.fit(dataset) == mdp_q.fit(dataset)
        assert game_q.values.tobytes() == mdp_q.values.reshape(S, A, B).tobytes()

        with pytest.raises(TypeError):
            envs.sample_transition(mdp, 0, 0, 0, rng=on_mdp)
        with pytest.raises(TypeError):
            RegressionDataset(states, actions // B, dataset.targets, actions % B)


class TestFqiBatchDraw:
    """``fqi._draw_batch`` draws a tabular batch's doubles with one
    ``Generator.random(k)`` call and must match one sampler call per
    transition on a ``Generator``."""

    @settings(max_examples=60, deadline=None)
    @given(model=tabular_models(), kind=st.sampled_from(fqi.SAMPLING_KINDS),
           n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_call_sampling(self, model, kind, n, seed):
        if len(model.action_shape) == 2 and kind == "on-policy-mixture":
            kind = "uniform-state-action"
        setup = np.random.default_rng(seed)
        q = TabularQ(model.n_states, *model.action_shape)
        q.values = setup.normal(size=q.values.shape)
        weights = (setup.dirichlet(np.ones(q.values.size)).reshape(q.values.shape)
                   if kind == "explicit-weights" else None)
        sampling = fqi.SamplingDistribution(kind=kind, weights=weights)
        sample, env, ref_sample, ref_env = (np.random.default_rng([seed, i])
                                            for i in (0, 1, 0, 1))
        states, actions, got = fqi._draw_batch(model, sampling, n, sample, env, q)
        ref_states, ref_actions = fqi._draw_inputs(model, sampling, n, ref_sample, q)
        assert got == [envs.sample_transition(model, int(s), int(a), rng=ref_env)
                       for s, a in zip(ref_states, ref_actions)]
        # The regression inputs are the drawn cells, as int64 arrays.
        for drawn, ref, column in ((states, ref_states, 0), (actions, ref_actions, 1)):
            assert drawn.dtype == np.int64
            assert np.array_equal(drawn, ref)
            assert drawn.tolist() == [sample[column] for sample in got]
        assert sample.bit_generator.state == ref_sample.bit_generator.state
        assert env.bit_generator.state == ref_env.bit_generator.state

    @pytest.fixture
    def noisy_mdp(self):
        return envs.make_random_mdp(3, 2, 0.9, 1.0, seed=1, reward_noise_halfwidth=0.2)

    def draw(self, model):
        return fqi._draw_batch(model, fqi.SamplingDistribution(), 10, uniform_rng(0),
                               uniform_rng(1), None)

    def test_sampler_reading_one_more_double_raises(self, noisy_mdp, monkeypatch):
        def reads_one_more(model, *cell, rng):
            sample = envs.sample_transition(model, *cell, rng=rng)
            rng.random()
            return sample

        monkeypatch.setattr(fqi, "sample_transition", reads_one_more)
        with pytest.raises(RuntimeError, match="read more than the 20 doubles"):
            self.draw(noisy_mdp)

    def test_sampler_reading_one_less_double_raises(self, noisy_mdp, monkeypatch):
        noiseless = dataclasses.replace(noisy_mdp, reward_noise_halfwidth=0.0)

        def reads_one_less(model, *cell, rng):
            return envs.sample_transition(noiseless, *cell, rng=rng)

        monkeypatch.setattr(fqi, "sample_transition", reads_one_less)
        with pytest.raises(RuntimeError, match="read fewer than the 20 doubles"):
            self.draw(noisy_mdp)


class TestModelValidation:
    def test_rejects_non_stochastic_rows(self):
        bad = np.full((2, 1, 2), 0.6)
        with pytest.raises(ValueError):
            envs.TabularMDP(2, 1, bad, np.zeros((2, 1)), 0.9, 1.0)

    def test_rejects_reward_above_bound(self):
        transition = np.full((1, 1, 1), 1.0)
        with pytest.raises(ValueError):
            envs.TabularMDP(1, 1, transition, np.array([[2.0]]), 0.9, 1.0)

    @pytest.mark.parametrize("field, value", [
        ("transition", np.array([[[np.nan, 1.0]], [[0.5, 0.5]]])),
        ("reward_mean", np.array([[0.0], [np.nan]])),
        ("r_max", np.nan),
        ("r_max", np.inf),
        ("reward_noise_halfwidth", np.nan),
    ])
    @pytest.mark.parametrize("game", [False, True], ids=["mdp", "game"])
    def test_rejects_non_finite_fields_by_name(self, field, value, game):
        fields = {"transition": np.full((2, 1, 2), 0.5), "reward_mean": np.zeros((2, 1)),
                  "gamma": 0.9, "r_max": 1.0, "reward_noise_halfwidth": 0.0, field: value}
        if game:
            fields = {**fields, "transition": fields["transition"][:, :, None],
                      "reward_mean": fields["reward_mean"][:, :, None]}
            make = functools.partial(envs.TabularMarkovGame, 2, 1, 1)
        else:
            make = functools.partial(envs.TabularMDP, 2, 1)
        with pytest.raises(ValueError, match=field):
            make(**fields)

    @pytest.mark.parametrize("r_max", [np.nan, np.inf, 0.0])
    def test_continuous_rejects_r_max_not_positive_and_finite(self, r_max):
        model = envs.make_random_continuous_mdp(2, 2, 0.9, 1.0)
        with pytest.raises(ValueError, match="r_max"):
            dataclasses.replace(model, r_max=r_max)

    def test_models_frozen(self):
        mdp = envs.make_random_mdp(2, 2, 0.9, 1.0)
        with pytest.raises(ValueError):
            mdp.transition[0, 0, 0] = 0.5


class TestSerialization:
    def test_mdp_round_trip_bit_exact(self, tmp_path):
        mdp = envs.make_random_mdp(4, 3, 0.9, 1.0, seed=17,
                                   reward_noise_halfwidth=0.125)
        path = tmp_path / "model.json"
        envs.save_model(mdp, path)
        loaded = envs.load_model(path)
        assert np.array_equal(loaded.transition, mdp.transition)
        assert np.array_equal(loaded.reward_mean, mdp.reward_mean)
        assert loaded.gamma == mdp.gamma
        assert loaded.reward_noise_halfwidth == mdp.reward_noise_halfwidth

    def test_game_round_trip_bit_exact(self, tmp_path):
        game = envs.make_random_game(3, 2, 2, 0.95, 2.0, seed=4)
        path = tmp_path / "game.json"
        envs.save_model(game, path)
        loaded = envs.load_model(path)
        assert np.array_equal(loaded.transition, game.transition)
        assert np.array_equal(loaded.reward_mean, game.reward_mean)

    def test_continuous_model_not_file_serializable(self):
        model = envs.make_random_continuous_mdp(2, 2, 0.9, 1.0)
        with pytest.raises(TypeError):
            envs.model_to_dict(model)


class TestJointActionMdp:
    def test_flattening_matches_game(self):
        game = envs.make_random_game(3, 2, 3, 0.9, 1.0, seed=6)
        flat = envs.joint_action_mdp(game)
        assert flat.n_actions == 6
        for a in range(2):
            for b in range(3):
                joint = a * 3 + b
                assert np.array_equal(flat.transition[:, joint, :],
                                      game.transition[:, a, b, :])
                assert np.array_equal(flat.reward_mean[:, joint],
                                      game.reward_mean[:, a, b])
