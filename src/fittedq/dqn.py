"""Online Q-learning with experience replay and a periodic target network.

``dqn_train`` runs the single-agent loop on a simulatable MDP;
``minimax_dqn_train`` runs the second-player loop on a zero-sum Markov
game, where greedy actions sample the equilibrium mixed strategy of the
current network and targets solve a matrix game on the frozen one.

The target network is frozen between syncs, so its next-state values are
computed from the table at each sync (``max``) or at most once per state
and sync (the stage-game value), not once per replayed sample; the
targets keep the bits of the per-sample computation.  Both loops step a
dense table and accept only the tabular approximator.

The training loops are continuing; tabular models with absorbing states
(detected as states whose every action self-loops) reset to the start
distribution on absorption so exploration stays meaningful.  The stepsize
schedule is a constant unless a callable ``t -> alpha_t`` is supplied.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import exact, matrix_game
from .approximators import RegressionDataset, TabularQ
from .diagnostics import DiagnosticsTrace
from .envs import TabularMDP, TabularMarkovGame, sample_transition
from .fqi import TabularSpec, build_approximator, table_targets
from .rng import rng_stream


class ReplayBuffer:
    """Fixed-capacity FIFO of transitions with uniform sampling
    (with replacement) over the current contents."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring = [None] * capacity
        self._next = 0
        self._size = 0

    def push(self, item):
        self._ring[self._next] = item
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, n, rng):
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(self._size, size=n)
        return [self._ring[i] for i in idx]

    def __len__(self):
        return self._size

    def __contains__(self, item):
        for stored in self._ring[:self._size]:
            if stored is item:
                return True
            try:
                if stored == item:
                    return True
            except ValueError:  # array-valued fields compare elementwise
                continue
        return False


@dataclass(frozen=True)
class DqnConfig:
    """Settings for one online training run."""

    total_steps: int
    minibatch_size: int = 32
    epsilon: float = 0.1
    target_sync_period: int = 100
    learning_rate: object = 0.1          # constant or callable t -> alpha_t
    buffer_capacity: int = 10_000
    approximator: object = field(default_factory=TabularSpec)
    seed: int = 0
    start_distribution: np.ndarray | None = None
    eval_period: int | None = None
    max_episode_steps: int | None = None

    def __post_init__(self):
        if self.total_steps < 0:
            raise ValueError("total_steps must be nonnegative")
        if self.minibatch_size < 1:
            raise ValueError("minibatch_size must be positive")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.target_sync_period < 1:
            raise ValueError("target_sync_period must be at least 1")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be positive")


@dataclass
class StepRecord:
    t: int
    loss: float
    epsilon: float
    synced: int
    eval_value: float | None = None


@dataclass
class DqnResult:
    q_final: object
    policy: object
    trace: DiagnosticsTrace
    step_records: list
    sync_count: int


def epsilon_greedy_action(q, state, epsilon, rng):
    """Uniform with probability epsilon, else the lowest-index argmax."""
    values = np.asarray(q.evaluate_all(state))
    if rng.random() < epsilon:
        return int(rng.integers(len(values)))
    return int(np.argmax(values))


def _stepsize(config, t):
    lr = config.learning_rate
    return float(lr(t)) if callable(lr) else float(lr)


def _absorbing_states(mdp):
    self_loop = mdp.transition[np.arange(mdp.n_states), :, np.arange(mdp.n_states)]
    return set(np.nonzero((self_loop == 1.0).all(axis=1))[0].tolist())


def _draw_start(model, config, rng):
    if config.start_distribution is not None:
        return int(rng.choice(model.n_states, p=config.start_distribution))
    return int(rng.integers(model.n_states))


def _require_tabular(config, caller):
    if not isinstance(config.approximator, TabularSpec):
        raise TypeError(f"{caller} needs the tabular approximator, got "
                        f"{type(config.approximator).__name__}: its target "
                        "values and minibatch steps read TabularQ.values")


def _start_values(mdp, config, q_table):
    """Expected greedy-policy value over the start distribution."""
    policy = exact.greedy_policy(q_table)
    q_pi = exact.policy_evaluation(mdp, policy)
    v_pi = (policy * q_pi).sum(axis=1)
    if config.start_distribution is not None:
        return float(config.start_distribution @ v_pi)
    return float(v_pi.mean())


def dqn_train(model, config):
    """Single-agent loop: act epsilon-greedily, replay a minibatch, step
    toward targets from the frozen network, sync it periodically."""
    if not isinstance(model, TabularMDP):
        raise TypeError("dqn_train needs a simulatable tabular MDP")
    _require_tabular(config, "dqn_train")
    rng_env = rng_stream(config.seed, "dqn.env")
    rng_explore = rng_stream(config.seed, "dqn.explore")
    rng_replay = rng_stream(config.seed, "dqn.replay")
    rng_init = rng_stream(config.seed, "dqn.init")

    q = build_approximator(config.approximator, model, rng_init)
    target = q.clone()
    next_values = target.values.max(axis=1)
    buffer = ReplayBuffer(config.buffer_capacity)
    absorbing = _absorbing_states(model)
    state = _draw_start(model, config, rng_env)
    sync_count = 0
    episode_len = 0
    records = []
    t_start = time.perf_counter()
    for t in range(1, config.total_steps + 1):
        action = epsilon_greedy_action(q, state, config.epsilon, rng_explore)
        transition = sample_transition(model, state, action, rng=rng_env)
        buffer.push(transition)

        batch = buffer.sample(config.minibatch_size, rng_replay)
        targets = table_targets(batch, next_values, model.gamma)
        dataset = RegressionDataset(
            states=np.array([tr.state for tr in batch]),
            actions=np.array([tr.action for tr in batch]),
            targets=targets)
        loss = q.minibatch_step(dataset, _stepsize(config, t))
        if not np.isfinite(loss):
            raise FloatingPointError(f"training loss diverged at step {t}")

        synced = 1 if t % config.target_sync_period == 0 else 0
        if synced:
            target = q.clone()
            next_values = target.values.max(axis=1)
            sync_count += 1

        episode_len += 1
        hit_cap = (config.max_episode_steps is not None
                   and episode_len >= config.max_episode_steps)
        if transition.next_state in absorbing or hit_cap:
            state = _draw_start(model, config, rng_env)
            episode_len = 0
        else:
            state = transition.next_state

        eval_value = None
        if config.eval_period and t % config.eval_period == 0:
            eval_value = _start_values(model, config, _to_table(q, model))
        records.append(StepRecord(t, float(loss), config.epsilon, synced, eval_value))

    table = _to_table(q, model)
    trace = DiagnosticsTrace(summary={
        "final_loss": records[-1].loss if records else 0.0,
        "sync_count": sync_count,
        "eval_value": _start_values(model, config, table),
        "wall_ms": (time.perf_counter() - t_start) * 1e3,
    })
    return DqnResult(q_final=q, policy=exact.greedy_policy(table), trace=trace,
                     step_records=records, sync_count=sync_count)


def _to_table(q, model):
    if isinstance(q, TabularQ):
        return q.values.copy()
    from .fqi import tabulate
    return tabulate(q, model)


def second_player_strategy(payoff, tol=1e-8):
    """Maximizing mixed strategy of the second player when ``payoff`` holds
    its own values indexed (a, b): solve the transposed game."""
    return matrix_game.solve(np.asarray(payoff).T, tol=tol)


def minimax_dqn_train(game, config, opponent_policy):
    """Second-player loop on a zero-sum Markov game.

    The network approximates the second player's action values (the
    negated game reward).  Greedy actions sample the equilibrium strategy
    of the current network's stage matrix; targets take the max-min value
    of the frozen network's matrix at the next state.
    """
    if not isinstance(game, TabularMarkovGame):
        raise TypeError("minimax_dqn_train needs a TabularMarkovGame")
    _require_tabular(config, "minimax_dqn_train")
    opponent_policy = np.asarray(opponent_policy, dtype=np.float64)
    if opponent_policy.shape != (game.n_states, game.n_actions_p1):
        raise ValueError("opponent policy has the wrong shape")

    rng_env = rng_stream(config.seed, "dqn.env")
    rng_explore = rng_stream(config.seed, "dqn.explore")
    rng_replay = rng_stream(config.seed, "dqn.replay")
    rng_init = rng_stream(config.seed, "dqn.init")
    rng_opponent = rng_stream(config.seed, "dqn.opponent")

    q = build_approximator(config.approximator, game, rng_init)
    target = q.clone()
    next_values = {}            # stage-game values of the target, per state
    buffer = ReplayBuffer(config.buffer_capacity)
    state = _draw_start(game, config, rng_env)
    sync_count = 0
    records = []
    t_start = time.perf_counter()
    for t in range(1, config.total_steps + 1):
        if rng_explore.random() < config.epsilon:
            action2 = int(rng_explore.integers(game.n_actions_p2))
        else:
            strategy = second_player_strategy(q.evaluate_all(state)).row_strategy
            action2 = int(rng_explore.choice(game.n_actions_p2, p=strategy))
        action1 = int(rng_opponent.choice(game.n_actions_p1, p=opponent_policy[state]))
        transition = sample_transition(game, state, action1, action2, rng=rng_env)
        buffer.push(transition)

        batch = buffer.sample(config.minibatch_size, rng_replay)
        targets = np.empty(len(batch))
        for i, tr in enumerate(batch):
            if tr.next_state not in next_values:
                next_values[tr.next_state] = second_player_strategy(
                    target.evaluate_all(tr.next_state)).value
            targets[i] = -tr.reward + game.gamma * next_values[tr.next_state]
        dataset = RegressionDataset(
            states=np.array([tr.state for tr in batch]),
            actions=np.array([tr.action for tr in batch]),
            actions2=np.array([tr.action2 for tr in batch]),
            targets=targets)
        loss = q.minibatch_step(dataset, _stepsize(config, t))
        if not np.isfinite(loss):
            raise FloatingPointError(f"training loss diverged at step {t}")

        synced = 1 if t % config.target_sync_period == 0 else 0
        if synced:
            target = q.clone()
            next_values.clear()
            sync_count += 1
        state = transition.next_state
        records.append(StepRecord(t, float(loss), config.epsilon, synced))

    table = _to_table(q, game)
    joint = [second_player_strategy(table[s]) for s in range(game.n_states)]
    policy = exact.JointPolicy(
        p1=np.stack([sol.col_strategy for sol in joint]),
        p2=np.stack([sol.row_strategy for sol in joint]))
    trace = DiagnosticsTrace(summary={
        "final_loss": records[-1].loss if records else 0.0,
        "sync_count": sync_count,
        "wall_ms": (time.perf_counter() - t_start) * 1e3,
    })
    return DqnResult(q_final=q, policy=policy, trace=trace,
                     step_records=records, sync_count=sync_count)
