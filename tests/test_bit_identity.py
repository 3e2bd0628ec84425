"""Bit-identity guards for the tabular engines, the ReLU trainer and
projected-SGD fitted Q-iteration.

The digests pin the exact float64 bits each engine produces from a fixed
``(model, config, seed)``.  They were recorded with the per-sample
implementations (``Generator.choice`` draws and one target per sample),
so any change to a random stream, to the number of draws consumed, or to
the arithmetic of the targets shows up here.  Minimax DQN is covered only
by these tests.  The DQN digests cover the per-step losses as well as the
final table; the loss digests were recorded with the replay buffer that
kept a list of transitions and the minibatch step that accumulated its
gradient with ``np.add.at``; the wrapping-buffer digests were recorded
with one ``rng.integers`` replay draw per step, before the draws came in
blocks.  The ReLU digests were recorded with the
trainer that ran a separate forward pass before each backward pass and
allocated its batches and activations anew in every epoch.  The matrix-game
digests were recorded with the simplex that pivoted a numpy tableau one
numpy row operation at a time; a frozen copy of that solver is kept below
as the reference for the scalar pivot loop.

The target tests keep the per-sample loops as the reference and require
``np.array_equal``, not a tolerance.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fittedq import dqn, envs, exact, fqi, matrix_game, runner, serialize
from fittedq.approximators import RegressionDataset, SparseReluQ, TabularQ, TrainerConfig
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


def test_run_fqi_noiseless_digest():
    """One environment double per transition.  Recorded while the sampler
    still drew each double with its own ``Generator.random()`` call."""
    mdp = envs.make_random_mdp(8, 3, 0.9, 1.0, seed=21)
    result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=6, n_samples=300, seed=5))
    assert (digest(result.q_tables[-1], np.stack(result.q_tables))
            == "dc8e7e77d23db0f502cff418c5083c64c8ac61f3910ea7d77f84fc88793c0197")


def test_run_fqi_explicit_weights_reused_batch_digest(noisy_mdp):
    """One batch drawn for every iteration, from explicit weights.  Recorded
    with the same per-call sampler as the noiseless digest."""
    weights = np.random.default_rng(3).dirichlet(np.ones(24)).reshape(8, 3)
    sampling = fqi.SamplingDistribution(kind="explicit-weights", weights=weights)
    config = fqi.FqiConfig(iterations=6, n_samples=300, seed=5, sampling=sampling,
                           fresh_samples_per_iteration=False)
    result = fqi.run_fqi(noisy_mdp, config)
    assert (digest(result.q_tables[-1], np.stack(result.q_tables))
            == "df287e41bdd1ffdc1241965d116805cf814a65691d9ae26cc004b1ff8ebbd6d9")


def test_run_minimax_fqi_digest(noisy_game):
    config = fqi.FqiConfig(iterations=5, n_samples=200, seed=2)
    result = fqi.run_minimax_fqi(noisy_game, config)
    assert (digest(result.q_tables[-1], np.stack(result.q_tables))
            == "c9a2358547715d0b9a956c0c47e6a288d77ad42ba71536466078c51bb9b8bf9b")


def test_run_minimax_fqi_suboptimality_digest(noisy_game):
    config = fqi.FqiConfig(iterations=5, n_samples=200, seed=2)
    result = fqi.run_minimax_fqi(noisy_game, config)
    trace = np.array([record.suboptimality_1mu for record in result.trace.records])
    assert (digest(trace)
            == "25b647290e7a0c6eb773cea6ac5cc9ecc55d839afdb79da89ad30cb4d6c13157")


# The digests from here to the Nash value-iteration digest were recorded
# while each tabular iterate's stage games were solved three times: for the
# output policy, again for the next iteration's targets and again for the
# regression residual's backup.


def test_run_minimax_fqi_rho_sigma_and_policy_digests(noisy_game):
    config = fqi.FqiConfig(iterations=5, n_samples=200, seed=2)
    result = fqi.run_minimax_fqi(noisy_game, config)
    sigma = np.array([record.one_step_error_sigma for record in result.trace.records])
    assert (digest(np.stack(result.rho_tables))
            == "f5327dbafa6ca253fc72ac6c7e72e1cb1f1d3393fdeec60b312b1dc4471ace4c")
    assert (digest(sigma)
            == "af2148c423b0a2a488283be05fa390e94a2aee1da454d96ce0519c0c8f5c4614")
    assert (digest(result.policy.p1, result.policy.p2)
            == "5c4320d2dcae956a83af2043165c7ee2ee850c009e3274b966e0a29dbabd9af3")


def tabular_run_digest(result):
    """Every iterate, residual, traced error and suboptimality, and the
    returned policy (both players' rows on a game)."""
    records = result.trace.records
    policy = result.policy
    return digest(np.stack(result.q_tables), np.stack(result.rho_tables),
                  np.array([record.one_step_error_sigma for record in records]),
                  np.array([record.suboptimality_1mu for record in records]),
                  *(policy if isinstance(policy, exact.JointPolicy) else (policy,)))


# name: (engine, model fixture, FqiConfig keywords, digest)
TABULAR_RUN_CASES = {
    "fqi-exact-regression": (
        "run_fqi", "noisy_mdp", {"iterations": 6, "exact_regression": True},
        "8094a60fc5585039dd65afabc58446926fd0c7596b3adf4d9b01dda42a2dae7c"),
    "minimax-fqi-exact-regression": (
        "run_minimax_fqi", "noisy_game", {"iterations": 5, "exact_regression": True},
        "dd31da49837e9e510cc8bb45e458198f3a6b0302096c345a94de59a4b134c8b3"),
    "fqi-warm-start": (
        "run_fqi", "noisy_mdp",
        {"iterations": 6, "n_samples": 300, "seed": 5, "warm_start": True},
        "5797ec72622af1035cd47711bcd01fa3dc76ed87396824a7aca5574a0577fbf4"),
    "minimax-fqi-warm-start": (
        "run_minimax_fqi", "noisy_game",
        {"iterations": 5, "n_samples": 200, "seed": 2, "warm_start": True},
        "7c7c752c3031b9df8ed089da328d574c173bd6ac8ff45212131c88a7d57c872d"),
}


@pytest.mark.parametrize("name", sorted(TABULAR_RUN_CASES))
def test_tabular_run_digest(name, request):
    engine, model_fixture, config_kw, expected = TABULAR_RUN_CASES[name]
    model = request.getfixturevalue(model_fixture)
    result = getattr(fqi, engine)(model, fqi.FqiConfig(**config_kw))
    assert tabular_run_digest(result) == expected


def test_nash_value_iteration_digest(noisy_game):
    q_star, iterations = exact.nash_value_iteration(noisy_game)
    policy = exact.equilibrium_joint_policy(noisy_game, q_star)
    assert iterations == 236
    assert (digest(q_star)
            == "e6abc4dd936d7b99a3f1fb8ebbd2de259c1c3d6def981ee45cf7c9b0211903b1")
    assert (digest(policy.p1, policy.p2)
            == "d1c03808f4c24b1587e7fb1a486e6c42facc4aa578dea10f1e25ad2d0d96fafc")


def test_random_3x3_games_digest():
    rng = np.random.default_rng(33)
    solutions = [matrix_game.solve(rng.normal(size=(3, 3))) for _ in range(100)]
    assert (digest(np.array([s.value for s in solutions]),
                   np.stack([s.row_strategy for s in solutions]),
                   np.stack([s.col_strategy for s in solutions]))
            == "dcdd4eee8e853309ce0400530f21ec5e1c15dd2081acd3f5f59361db6374bcfd")


def reference_simplex_max(a, b, c):
    """``matrix_game._simplex_max`` as it was written on a numpy tableau."""
    m, n = a.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[0, :n] = -c
    tableau[1:, :n] = a
    tableau[1:, n:n + m] = np.eye(m)
    tableau[1:, -1] = b
    basis = list(range(n, n + m))
    eps = matrix_game._PIVOT_EPS
    for _ in range(matrix_game._MAX_PIVOTS):
        costs = tableau[0, :n + m]
        entering = -1
        for j in range(n + m):
            if costs[j] < -eps:
                entering = j
                break
        if entering < 0:
            break
        column = tableau[1:, entering]
        rhs = tableau[1:, -1]
        best_ratio = np.inf
        leaving = -1
        for i in range(m):
            if column[i] > eps:
                ratio = rhs[i] / column[i]
                if (ratio < best_ratio - eps
                        or (abs(ratio - best_ratio) <= eps
                            and (leaving < 0 or basis[i] < basis[leaving]))):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise matrix_game.MatrixGameError("linear program unbounded")
        pivot_row = leaving + 1
        tableau[pivot_row] /= tableau[pivot_row, entering]
        for i in range(m + 1):
            if i != pivot_row and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[pivot_row]
        basis[leaving] = entering
    else:
        raise matrix_game.MatrixGameError("pivot limit exceeded (cycling guard)")
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i + 1, -1]
    return x, tableau[0, n:n + m].copy()


def reference_solve(payoff, tol=1e-8):
    """``matrix_game.solve`` as it was written over :func:`reference_simplex_max`."""
    m = matrix_game._validate_payoff(payoff)
    n_a, n_b = m.shape
    if np.ptp(m) == 0.0:
        return matrix_game.MatrixGameSolution(float(m[0, 0]), np.full(n_a, 1.0 / n_a),
                                              np.full(n_b, 1.0 / n_b))
    if n_a == 1:
        j = int(np.argmin(m[0]))
        return matrix_game.MatrixGameSolution(float(m[0, j]), np.ones(1),
                                              matrix_game._pure(n_b, j))
    if n_b == 1:
        i = int(np.argmax(m[:, 0]))
        return matrix_game.MatrixGameSolution(float(m[i, 0]), matrix_game._pure(n_a, i),
                                              np.ones(1))
    shift = 1.0 - m.min()
    shifted = m + shift
    z, duals = reference_simplex_max(shifted, np.ones(n_a), np.ones(n_b))
    z_total = z.sum()
    u_total = duals.sum()
    if z_total <= 0.0 or u_total <= 0.0:
        raise matrix_game.MatrixGameError("simplex returned a degenerate optimum")
    col_strategy = np.maximum(z, 0.0)
    col_strategy /= col_strategy.sum()
    row_strategy = np.maximum(duals, 0.0)
    row_strategy /= row_strategy.sum()
    value = 1.0 / z_total - shift
    row_guarantee = float((row_strategy @ m).min())
    col_guarantee = float((m @ col_strategy).max())
    gap = col_guarantee - row_guarantee
    if gap > tol or abs(value - row_guarantee) > tol or abs(col_guarantee - value) > tol:
        raise matrix_game.MatrixGameError(
            f"solution check failed: gap={gap:.3e}, value={value:.6g}, "
            f"guarantees=({row_guarantee:.6g}, {col_guarantee:.6g})")
    return matrix_game.MatrixGameSolution(float(value), row_strategy, col_strategy)


def outcome(solve, payoff):
    """The solution's exact bits, or the exception's type and message."""
    try:
        sol = solve(payoff)
    except (ValueError, matrix_game.MatrixGameError) as exc:
        return type(exc), str(exc)
    return (np.float64(sol.value).tobytes(), sol.row_strategy.tobytes(),
            sol.col_strategy.tobytes())


PAYOFF_KINDS = {
    "normal": lambda rng, shape: rng.normal(size=shape),
    "ties": lambda rng, shape: rng.integers(-2, 3, size=shape).astype(float),
    "binary": lambda rng, shape: rng.integers(0, 2, size=shape).astype(float),
    "constant": lambda rng, shape: np.full(shape, rng.normal()),
    "tiny": lambda rng, shape: 1e-6 * rng.normal(size=shape),
    "large": lambda rng, shape: 1e3 * rng.uniform(-1.0, 1.0, size=shape),
    # Roundoff at this scale fails most solution checks: the exception path.
    "huge": lambda rng, shape: 1e8 * rng.normal(size=shape),
    "rounded": lambda rng, shape: np.round(rng.normal(size=shape), 1),
}


@settings(max_examples=400, deadline=None)
@given(n_a=st.integers(1, 10), n_b=st.integers(1, 10),
       kind=st.sampled_from(sorted(PAYOFF_KINDS)), seed=st.integers(0, 2**32 - 1))
def test_solve_equals_numpy_tableau_reference(n_a, n_b, kind, seed):
    """Same value and strategy bits (``tobytes`` tells -0.0 from 0.0), or the
    same exception, as the solver that pivoted a numpy tableau."""
    payoff = PAYOFF_KINDS[kind](np.random.default_rng(seed), (n_a, n_b))
    assert outcome(matrix_game.solve, payoff) == outcome(reference_solve, payoff)


# name: (model, DqnConfig keywords, digest of the final table, digest of the
# per-step losses).  The short runs never fill the 10,000-transition buffer.
# The wrapping runs use a buffer smaller than the run, so the ring evicts, and
# a minibatch size whose replay block (``dqn._REPLAY_BLOCK_INDICES`` indices)
# neither divides ``total_steps`` nor lines up with ``target_sync_period``;
# "noisy-mdp-wrapping" fills its buffer inside its second block.
SHORT_RUN = dict(total_steps=600, minibatch_size=8, target_sync_period=50, seed=1,
                 max_episode_steps=40)
DQN_CASES = {
    "gridworld": (lambda: envs.make_gridworld(3, 3, (2, 2), -0.05, 1.0, 0.1, 0.9),
                  SHORT_RUN,
                  "bd5cbf6fd562a0dff5cbfb5ed2e9681cc9ca3bfbe39146e7148ea1dc3d78865a",
                  "e9909e019fd75b5dabc81184290a55ee46f392f2d3b59a286f111c0dc83f3dd8"),
    "noisy-mdp": (lambda: envs.make_random_mdp(6, 3, 0.9, 1.0, seed=4,
                                               reward_noise_halfwidth=0.3),
                  SHORT_RUN,
                  "971bbb35b3ac69bbe14207cd1ccb123d93f4ea3833007c639c0e71d9a0ccfe4b",
                  "1dcc883b24751ecb64304c879bff313cf3d2e2511855aaaa1b452ce15483e829"),
    "gridworld-wrapping": (
        lambda: envs.make_gridworld(3, 3, (2, 2), -0.05, 1.0, 0.1, 0.9),
        dict(total_steps=1000, minibatch_size=24, target_sync_period=45,
             buffer_capacity=150, seed=2, max_episode_steps=40),
        "1281ce8600c52af7e3bd34443a97e9ac27872aed0b81d55957f765313c9846e1",
        "a4b62672a166c762c177e77d9db80ddde82bee66554d7f27631a762cc408f226"),
    "noisy-mdp-wrapping": (
        lambda: envs.make_random_mdp(6, 3, 0.9, 1.0, seed=4, reward_noise_halfwidth=0.3),
        dict(total_steps=1100, minibatch_size=20, target_sync_period=70,
             buffer_capacity=500, seed=3),
        "b0b38ed0b79d12b7779c15b4bae1d344f57073bd27560d8c2a11e707059a26e5",
        "0b3ec7e057a247f6f0ccfecff3ea5a7136f3681ad056c1b1f1f834a54c6e6956"),
}


def step_losses(result):
    return np.array(result.losses)


@pytest.mark.parametrize("name", sorted(DQN_CASES))
def test_dqn_train_digest(name):
    make_model, config_kw, expected, expected_losses = DQN_CASES[name]
    result = dqn.dqn_train(make_model(), dqn.DqnConfig(**config_kw))
    assert digest(result.q_final.values) == expected
    assert digest(step_losses(result)) == expected_losses


def minimax_dqn_digests(game, **config_kw):
    opponent = np.full((game.n_states, game.n_actions_p2), 1.0 / game.n_actions_p2)
    result = dqn.minimax_dqn_train(game, dqn.DqnConfig(**config_kw), opponent)
    return digest(result.q_final.values), digest(step_losses(result))


def test_minimax_dqn_train_digest(noisy_game):
    assert minimax_dqn_digests(noisy_game, total_steps=400, minibatch_size=8,
                               target_sync_period=40, seed=3) == (
        "75d5b1991a3b5b035ecbf0072f19c4e89b5780df3e7f1d57f051fbebccc69129",
        "22f050c563e304015f159124c7c988e8fb0dab1a55f05da2d89afd6d5fe55e84")


def test_minimax_dqn_train_wrapping_buffer_digest(noisy_game):
    """The buffer fills inside the first replay block and the last block
    is partial."""
    assert minimax_dqn_digests(noisy_game, total_steps=900, minibatch_size=12,
                               target_sync_period=35, buffer_capacity=300,
                               seed=5) == (
        "7879d8fdf0e375e2197b66cbb720a47b44491668bc4c5665cf2e854c19b1fdc2",
        "9525ad54ec953fb2ce36b905125dc214fdf54c23edb4c9013d38cf7f4f461475")


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
    got = fqi.compute_targets(batch, q, noisy_mdp.gamma,
                              exact.reduce_table(noisy_mdp, q.values)[0])
    assert np.array_equal(got, reference_targets(batch, q, noisy_mdp.gamma))


def test_tabular_minimax_targets_equal_per_sample_loop(noisy_game):
    rng = np.random.default_rng(8)
    q = TabularQ(noisy_game.n_states, 3, 2)
    q.values = rng.normal(size=q.values.shape)
    batch = [TransitionSample(0, 0, float(r), int(s))
             for r, s in zip(rng.uniform(-1, 1, size=300),
                             rng.integers(noisy_game.n_states, size=300))]
    got = fqi.compute_minimax_targets(batch, q, noisy_game.gamma,
                                      exact.reduce_table(noisy_game, q.values)[0])
    assert np.array_equal(got, reference_minimax_targets(batch, q, noisy_game.gamma))


def reference_minibatch_step(q, dataset, learning_rate):
    """The step as it was written with ``np.add.at`` and ``np.mean``, on
    the table's (S, A*B) view."""
    values = q.values.reshape(len(q.values), -1)
    idx = dataset.states, dataset.actions
    residual = dataset.targets - values[idx]
    grad = np.zeros_like(values)
    np.add.at(grad, idx, residual)
    values += learning_rate * grad / len(dataset)
    return float(np.mean(residual ** 2))


@pytest.mark.parametrize("shape", [(4, 3), (3, 2, 3)], ids=["mdp", "game"])
def test_minibatch_step_equals_add_at_reference(shape):
    """Batches far larger than the table, so most cells repeat."""
    rng = np.random.default_rng(9)
    q, reference = TabularQ(*shape), TabularQ(*shape)
    q.values = rng.normal(size=shape)
    reference.values = q.values.copy()
    for _ in range(200):
        n = int(rng.integers(1, 64))
        cells = [rng.integers(size, size=n) for size in shape]
        dataset = RegressionDataset(cells[0], np.ravel_multi_index(cells[1:], shape[1:]),
                                    rng.normal(scale=3.0, size=n))
        learning_rate = float(rng.uniform(0.01, 1.0))
        loss = q.minibatch_step(np.ravel_multi_index(cells, shape), dataset.targets,
                                learning_rate)
        assert loss == reference_minibatch_step(reference, dataset, learning_rate)
        assert np.array_equal(q.values, reference.values)


def relu_digest(net, *extra):
    params = [p for head in net.heads for p in head.weights + head.biases]
    return digest(*params, *extra)


def relu_dataset(n, state_dim, seed=0):
    """Two actions; ``state_dim=1`` gives a flat state vector."""
    rng = np.random.default_rng(seed)
    states = rng.uniform(0.0, 1.0, (n, state_dim))
    actions = rng.integers(2, size=n)
    targets = np.sin(3.0 * states.sum(axis=1)) + 0.5 * actions
    if state_dim == 1:
        states = states[:, 0]
    return RegressionDataset(states, actions, targets)


# name: (network keywords, dataset keywords, trainer keywords, digest)
RELU_FIT_CASES = {
    "full-batch": (
        {"state_dim": 2, "hidden": (32, 32)}, {"state_dim": 2},
        {"epochs": 40},
        "05e7af42cafbfe8743452c19c411ff1e5724834f4b42cb148b0f37662e31df56"),
    "minibatch": (
        {"state_dim": 2, "hidden": (32, 32)}, {"state_dim": 2},
        {"epochs": 40, "batch_size": 16},
        "2fee9741c2bca26b92d1f5a4c8659110032962d9dd5820c0b0ebd0830f793a78"),
    "sparsity": (
        {"state_dim": 2, "hidden": (8, 8), "sparsity": 50}, {"state_dim": 2},
        {"epochs": 40, "learning_rate": 5e-2},
        "87f013c9ed91fa4a86c2ec7e3eb6410dc6e31f69b6ab9faabffd513795cfc562"),
    "unequal-widths": (
        {"state_dim": 1, "hidden": (5, 4)}, {"state_dim": 1},
        {"epochs": 40, "batch_size": 30},
        "3b38625fd9d1b46c85228c7d8a9ef4fe221a2539c022b5c1e6f9cb53baadbb34"),
    "diverged": (
        {"state_dim": 2, "hidden": (6, 6)}, {"state_dim": 2},
        {"epochs": 40, "divergence_threshold": 1e-3},
        "f0c612b221c4fba61a184dd32d57994efe9582bea2eb03595f71b9c12e18b94e"),
    # Groups of 132 and 108 rows: one head draws minibatches of 120, the
    # other trains on its fixed batch of all its rows.
    "mixed": (
        {"state_dim": 2, "hidden": (8, 6)}, {"state_dim": 2, "seed": 3},
        {"epochs": 40, "batch_size": 120},
        "46d10b5f25f42019b886f0e39fe5f544e8af55102f8e81e8b1a53e9b6e29b9c1"),
    # The step overflows to inf, the clip maps it to +-1, the velocity then
    # turns NaN, and the NaN weights stop the fit at the divergence check.
    "nan-divergence": (
        {"state_dim": 2, "hidden": (6, 6)}, {"state_dim": 2},
        {"epochs": 40, "learning_rate": 1e308},
        "e4a0f76ff0df09ff118061b9faa7fbdc08aa7cbbbf3f9ff38130e820f998890d"),
}


@pytest.mark.parametrize("name", sorted(RELU_FIT_CASES))
def test_sparse_relu_fit_digest(name):
    net_kw, data_kw, trainer_kw, expected = RELU_FIT_CASES[name]
    net = SparseReluQ(n_actions=2, v_max=3.0, rng=np.random.default_rng(11), **net_kw)
    with np.errstate(over="ignore", invalid="ignore"):
        report = net.fit(relu_dataset(240, **data_kw), trainer=TrainerConfig(**trainer_kw),
                         rng=np.random.default_rng(12))
    summary = np.array([report.final_mse, report.epochs_run, report.diverged])
    assert relu_digest(net, summary) == expected


def test_run_fqi_relu_digest():
    model = envs.make_random_continuous_mdp(2, 2, 0.9, 1.0, seed=42)
    config = fqi.FqiConfig(iterations=3, n_samples=300, seed=4,
                           approximator=fqi.ReluSpec(hidden=(16, 16)),
                           trainer=TrainerConfig(epochs=60))
    result = fqi.run_fqi(model, config)
    mse = np.array([record.empirical_mse for record in result.trace.records])
    assert (relu_digest(result.q_final, mse)
            == "f0d2c5ee777628075ee5ab5c0fd2a62fb26d2a8b700d5dd6eff9366451306a5b")


# name: (iterations, NtkSpec keywords, FqiConfig keywords, digest).  Recorded
# with the projected-SGD engine that ran its own loop: one sample, one
# target and one step at a time, on a network built once per run.
PROJECTED_SGD_CASES = {
    "default-steps": (
        3, {"m": 32}, {"seed": 4},
        "742e05e3d26172a78a31ac969c0db3dbd27fb875acbbf87a8b8322b9b6f4dc7d"),
    "steps-and-eta": (
        3, {"m": 16}, {"sgd_steps": 50, "sgd_eta": 0.3, "seed": 1},
        "df8c7ef798c2dfbe2310441e62242419bc168a62a49a177d5c49435ff8593c9a"),
    "small-ball": (
        2, {"m": 32, "ball_radius": 0.05}, {"sgd_steps": 200, "seed": 3},
        "df94c3c2a36239a823e8d85be9230b436b8d12eaf436497ac9754a19335299a2"),
}


@pytest.mark.parametrize("name", sorted(PROJECTED_SGD_CASES))
def test_run_fqi_projected_sgd_digest(name):
    iterations, spec_kw, config_kw, expected = PROJECTED_SGD_CASES[name]
    model = envs.make_random_continuous_mdp(2, 2, 0.9, 1.0, seed=42)
    config = fqi.FqiConfig(iterations=iterations, approximator=fqi.NtkSpec(**spec_kw),
                           **config_kw)
    result = fqi.run_fqi_projected_sgd(model, config)
    mse = np.array([record.empirical_mse for record in result.trace.records])
    assert digest(result.q_final.w, result.q_final.w0, result.q_penultimate.w,
                  mse) == expected


# name: (run command document without output_dir and seeds, digest of the
# trace CSVs with their timing columns dropped, digest of the per-seed
# metrics).  They pin the bytes the runner writes: every CSV column of both
# engines (the DQN epsilon, synced and eval_value cells included), the empty
# cells of a continuous FQI trace, and each seed's summary.  Recorded while a
# DQN run kept one record per step and the runner had a cell writer per type.
RUN_CASES = {
    "run-dqn-gridworld-eval": (
        {"command": "run-dqn",
         "model": {"kind": "gridworld", "width": 3, "height": 3, "goal": [2, 2],
                   "step_reward": -0.05, "goal_reward": 1.0, "slip_prob": 0.1,
                   "gamma": 0.9},
         "algorithm": {"total_steps": 600, "minibatch_size": 8, "epsilon": 0.3,
                       "target_sync_period": 45, "learning_rate": 0.25,
                       "eval_period": 150, "max_episode_steps": 40}},
        "f796d3799f9c34ce854f425039b4fe0d700882d41a9c6bb718c7aadfe5d635e0",
        "9a6121d78d4da6030dab9c9c37aec03c6994ac6b3cf38e049ac7d686ec586709"),
    "run-minimax-dqn": (
        {"command": "run-minimax-dqn",
         "model": {"kind": "random-game", "n_states": 3, "n_actions": 2,
                   "n_actions2": 3, "gamma": 0.9, "r_max": 1.0, "seed": 4,
                   "reward_noise_halfwidth": 0.2},
         "algorithm": {"total_steps": 300, "minibatch_size": 8,
                       "target_sync_period": 40}},
        "767301b30ff6d4bdedd57f38d0b37d6ed8b413ea7fc85901229706e5498f1681",
        "db3b77826d9161d678ee030026213aafecc717d05066ae957e809d479678e138"),
    "run-fqi-continuous": (
        {"command": "run-fqi",
         "model": {"kind": "random-continuous", "state_dim": 2, "n_actions": 2,
                   "gamma": 0.9, "r_max": 1.0, "seed": 42},
         "algorithm": {"iterations": 2, "n_samples": 60,
                       "approximator": {"kind": "relu", "hidden": [8]},
                       "trainer": {"epochs": 30}}},
        "cb6375c33322090ef09b19bc599557feb52984ee66bb829fd08e4f13bbfa6871",
        "ffb7c4ba96c531b45d91d57cf6245f5d462058dfa32943a173cb443be3a574e4"),
}


def strip_timing_columns(csv_text):
    rows = [line.split(",") for line in csv_text.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in runner.TIMING_COLUMNS]
    return "\n".join(",".join(row[i] for i in keep) for row in rows)


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_run_artifacts_digest(name, tmp_path):
    document, expected_csv, expected_metrics = RUN_CASES[name]
    text = serialize.dumps({**document, "output_dir": "out", "seeds": [0, 1]})
    report = runner.run_experiment(runner.parse_config(text, base_dir=tmp_path))
    csvs = "\n".join(strip_timing_columns(Path(e["trace_csv"]).read_text(encoding="utf-8"))
                     for e in report.per_seed)
    metrics = serialize.dumps([e["metrics"] for e in report.per_seed])
    assert (hashlib.sha256(csvs.encode()).hexdigest(),
            hashlib.sha256(metrics.encode()).hexdigest()) == (expected_csv, expected_metrics)
