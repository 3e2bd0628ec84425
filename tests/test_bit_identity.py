"""Bit-identity guards for the tabular engines.

The digests pin the exact float64 bits each engine produces from a fixed
``(model, config, seed)``.  They were recorded with the per-sample
implementations (``Generator.choice`` draws and one target per sample),
so any change to a random stream, to the number of draws consumed, or to
the arithmetic of the targets shows up here.  Minimax DQN is covered only
by these tests.

The target tests keep the per-sample loops as the reference and require
``np.array_equal``, not a tolerance.
"""

import hashlib

import numpy as np
import pytest

from fittedq import dqn, envs, fqi, matrix_game
from fittedq.approximators import TabularQ
from fittedq.envs import TransitionSample


def digest(*arrays):
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.float64)
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def noisy_mdp():
    return envs.make_random_mdp(8, 3, 0.9, 1.0, seed=21,
                                reward_noise_halfwidth=0.2)


@pytest.fixture(scope="module")
def noisy_game():
    return envs.make_random_game(5, 3, 2, 0.9, 1.0, seed=6,
                                 reward_noise_halfwidth=0.2)


FQI_DIGESTS = {
    "uniform-state-action":
        "a268422bf819b047bf1431a5dac2374eb6083e1d3df7fd8fd0aac13b7e7bd79a",
    "on-policy-mixture":
        "5aceb9ae91858dc90e65d4f6494027a46d20be6caa2ed988fa30ee6a4056478c",
}


@pytest.mark.parametrize("kind", sorted(FQI_DIGESTS))
def test_run_fqi_digest(noisy_mdp, kind):
    config = fqi.FqiConfig(iterations=6, n_samples=300, seed=5,
                           sampling=fqi.SamplingDistribution(kind=kind))
    result = fqi.run_fqi(noisy_mdp, config)
    assert digest(result.q_tables[-1], np.stack(result.q_tables)) == FQI_DIGESTS[kind]


def test_run_minimax_fqi_digest(noisy_game):
    config = fqi.FqiConfig(iterations=5, n_samples=200, seed=2)
    result = fqi.run_minimax_fqi(noisy_game, config)
    assert (digest(result.q_tables[-1], np.stack(result.q_tables))
            == "c9a2358547715d0b9a956c0c47e6a288d77ad42ba71536466078c51bb9b8bf9b")


DQN_CASES = {
    "gridworld": (lambda: envs.make_gridworld(3, 3, (2, 2), -0.05, 1.0, 0.1, 0.9),
                  "bd5cbf6fd562a0dff5cbfb5ed2e9681cc9ca3bfbe39146e7148ea1dc3d78865a"),
    "noisy-mdp": (lambda: envs.make_random_mdp(6, 3, 0.9, 1.0, seed=4,
                                               reward_noise_halfwidth=0.3),
                  "971bbb35b3ac69bbe14207cd1ccb123d93f4ea3833007c639c0e71d9a0ccfe4b"),
}


@pytest.mark.parametrize("name", sorted(DQN_CASES))
def test_dqn_train_digest(name):
    make_model, expected = DQN_CASES[name]
    config = dqn.DqnConfig(total_steps=600, minibatch_size=8,
                           target_sync_period=50, seed=1, max_episode_steps=40)
    result = dqn.dqn_train(make_model(), config)
    assert digest(result.q_final.values) == expected


def test_minimax_dqn_train_digest(noisy_game):
    opponent = np.full((noisy_game.n_states, noisy_game.n_actions_p1),
                       1.0 / noisy_game.n_actions_p1)
    config = dqn.DqnConfig(total_steps=400, minibatch_size=8,
                           target_sync_period=40, seed=3)
    result = dqn.minimax_dqn_train(noisy_game, config, opponent)
    assert (digest(result.q_final.values)
            == "56e9b23459584b04d6862183ada8c39a5d04e5f5123c6095325eeb264133038f")


def reference_targets(batch, q, gamma):
    return np.array([s.reward + gamma * float(np.max(q.evaluate_all(s.next_state)))
                     for s in batch])


def reference_minimax_targets(batch, q, gamma):
    return np.array([s.reward + gamma
                     * matrix_game.solve(np.asarray(q.evaluate_all(s.next_state))).value
                     for s in batch])


def test_tabular_targets_equal_per_sample_loop(noisy_mdp):
    rng = np.random.default_rng(7)
    q = TabularQ(noisy_mdp.n_states, noisy_mdp.n_actions)
    q.values = rng.normal(size=q.values.shape)
    batch = [envs.sample_transition(noisy_mdp, int(s), int(a), rng=rng)
             for s, a in zip(rng.integers(8, size=500), rng.integers(3, size=500))]
    got = fqi.compute_targets(batch, q, noisy_mdp.gamma)
    assert np.array_equal(got, reference_targets(batch, q, noisy_mdp.gamma))


def test_tabular_minimax_targets_equal_per_sample_loop(noisy_game):
    rng = np.random.default_rng(8)
    q = TabularQ(noisy_game.n_states, 3, 2)
    q.values = rng.normal(size=q.values.shape)
    batch = [TransitionSample(0, 0, float(r), int(s), action2=0)
             for r, s in zip(rng.uniform(-1, 1, size=300),
                             rng.integers(noisy_game.n_states, size=300))]
    got = fqi.compute_minimax_targets(batch, q, noisy_game.gamma)
    assert np.array_equal(got, reference_minimax_targets(batch, q, noisy_game.gamma))
