"""Online Q-learning with experience replay and a periodic target network.

One replay loop serves both trainers: act, store the transition, replay a
uniform minibatch, step a dense table toward ``r + gamma * value(s')``
from the frozen target table, and sync that table every
``target_sync_period`` steps.  Values and the output policy come from
:func:`~fittedq.exact.reduce_table`: ``max`` and greedy on an MDP, the
stage matrix game's value and equilibrium on a zero-sum Markov game, once
per sync, not once per replayed sample.  Each sync also discounts the
values once, so the targets read ``gamma * value`` of the latest sync.
``dqn_train`` acts epsilon-greedily on an MDP.  ``minimax_dqn_train``
(Minimax-DQN) learns
the max player's values: player one samples the equilibrium strategy of
the current table with epsilon exploration, against player two's fixed
policy.  Both trainers accept only the tabular approximator.

The replay buffer keeps each transition's flat table cell, next state and
reward in three arrays, and a push writes through memoryviews of them.
The loop pushes exactly once before each replay, so step ``t`` replays
from ``min(t, buffer_capacity)`` transitions.  The minibatch indices of a
block of steps are drawn with one ``rng.integers`` call over those
per-step bounds.  numpy draws each bounded integer from the generator's
stream one element at a time, so the block hands every step the indices,
and leaves the generator in the state, of one call per step.  A minibatch
is three fancy-indexed reads, its targets are ``rewards +
discounted[next_states]`` (each element the same product ``gamma *
value`` that discounting per sample computes), and the table step takes
the flat cells and the targets as they are, with no regression dataset
built.

The loop is continuing.  ``dqn_train`` restarts from the start
distribution on absorbing states (states whose every action self-loops),
so exploration stays meaningful, and after ``max_episode_steps`` steps,
and it records the start-state value of its greedy policy every
``eval_period`` steps; ``minimax_dqn_train`` has neither.  The stepsize
is a constant.  The target syncs at each step ``t`` with ``t %
target_sync_period == 0``.  A run returns every step's loss and its
evaluations keyed by step.  A non-finite loss or synced table stops the
run with a :class:`FloatingPointError` that names the step; numpy's
overflow warnings are silenced in the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact, matrix_game
from .diagnostics import DiagnosticsTrace
from .envs import TabularMDP, TabularMarkovGame, cdf_rows, sample_transition
from .fqi import TabularSpec, build_approximator
from .rng import rng_stream


# Minibatch indices drawn per rng.integers call: blocks of
# max(1, _REPLAY_BLOCK_INDICES // minibatch_size) steps, 64 KB or less unless
# one minibatch is larger.  Drawing a whole run at once would cost megabytes.
_REPLAY_BLOCK_INDICES = 8192


class ReplayBuffer:
    """Fixed-capacity FIFO of tabular transitions.

    A ring of three arrays holds the transitions: the int64 flat index of
    each one's table cell (``state*A + a`` on an MDP, ``state*A*B + a*B +
    b`` on a game), its int64 next state and its float64 reward.  The
    caller draws the uniform minibatch indices below ``len(buffer)``;
    :meth:`sample` reads the transitions at them.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._columns = (np.zeros(capacity, dtype=np.int64),
                         np.zeros(capacity, dtype=np.int64), np.zeros(capacity))
        # Element writes through memoryviews: numpy item assignment costs
        # several times as much.
        self._views = tuple(memoryview(column) for column in self._columns)
        self._next = 0
        self._size = 0

    def push(self, cell, next_state, reward):
        """Store one transition, evicting the oldest when full."""
        i = self._next
        cells, next_states, rewards = self._views
        cells[i] = cell
        next_states[i] = next_state
        rewards[i] = reward
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, idx):
        """The transitions at ring positions ``idx``: three arrays of their
        flat cells, next states and rewards."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        cells, next_states, rewards = self._columns
        return cells[idx], next_states[idx], rewards[idx]

    def __len__(self):
        return self._size


def _replay_block(rng, first_step, n_steps, capacity, minibatch_size):
    """Minibatch indices of steps ``first_step .. first_step + n_steps - 1``,
    one row per step, with one ``rng.integers`` call.  Row ``j`` and the
    final state of ``rng`` are those of the per-step draws
    ``rng.integers(min(t, capacity), size=minibatch_size)``."""
    sizes = np.minimum(np.arange(first_step, first_step + n_steps), capacity)
    return rng.integers(sizes[:, None], size=(n_steps, minibatch_size))


@dataclass(frozen=True)
class DqnConfig:
    """Settings for one online training run."""

    total_steps: int
    minibatch_size: int = 32
    epsilon: float = 0.1
    target_sync_period: int = 100
    learning_rate: float = 0.1
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
class DqnResult:
    """``losses[t - 1]`` is step ``t``'s minibatch loss; ``evaluations``
    maps each step that recorded the start-state value to that value."""

    q_final: object
    policy: object
    trace: DiagnosticsTrace
    losses: list
    evaluations: dict


def epsilon_greedy_action(q, state, epsilon, rng):
    """Uniform with probability epsilon, else the lowest-index argmax."""
    values = q.evaluate_all(state)
    if rng.random() < epsilon:
        return int(rng.integers(len(values)))
    return int(values.argmax())


def _absorbing_states(mdp):
    self_loop = mdp.transition[np.arange(mdp.n_states), :, np.arange(mdp.n_states)]
    return set(np.nonzero((self_loop == 1.0).all(axis=1))[0].tolist())


def _start_cdf(model, config, rng):
    """The cdf ``rng.choice(n_states, p=start_distribution)`` draws from,
    built once per run (None for uniform starts).  The empty ``choice``
    validates ``p`` without advancing ``rng``."""
    p = config.start_distribution
    if p is None:
        return None
    rng.choice(model.n_states, size=0, p=p)
    return cdf_rows(p)


def _draw_start(model, start_cdf, rng):
    """A start state, drawn as ``Generator.choice`` would draw it."""
    if start_cdf is not None:
        return int(start_cdf.searchsorted(rng.random(), side="right"))
    return int(rng.integers(model.n_states))


def _start_value(mdp, config, q_table):
    """Expected greedy-policy value over the start distribution."""
    policy = exact.greedy_policy(q_table)
    q_pi = exact.policy_evaluation(mdp, policy)
    v_pi = (policy * q_pi).sum(axis=1)
    if config.start_distribution is not None:
        return float(config.start_distribution @ v_pi)
    return float(v_pi.mean())


@np.errstate(over="ignore", invalid="ignore")   # the divergence checks report
def _train(model, config, act, absorbing=frozenset(), start_value=None):
    """The replay loop of both trainers.

    ``act(q, state)`` returns the next action, on a game the joint action
    ``a*B + b``.  Reaching a state in ``absorbing`` restarts the episode.
    ``start_value(table)``, when given, is recorded every ``eval_period``
    steps and in the summary.
    """
    rng_env = rng_stream(config.seed, "dqn.env")
    rng_replay = rng_stream(config.seed, "dqn.replay")
    rng_init = rng_stream(config.seed, "dqn.init")
    learning_rate = float(config.learning_rate)

    total_steps, sync_period = config.total_steps, config.target_sync_period
    eval_period, capacity = config.eval_period, config.buffer_capacity
    minibatch_size = config.minibatch_size
    episode_cap = (math.inf if config.max_episode_steps is None
                   else config.max_episode_steps)

    q = build_approximator(config.approximator, model, rng_init)
    target = q.clone()
    # gamma * value(s') of the frozen table, so a step's targets are one add.
    discounted = model.gamma * exact.reduce_table(model, target.values)[0]
    buffer = ReplayBuffer(capacity)
    block_steps = max(1, _REPLAY_BLOCK_INDICES // minibatch_size)
    start_cdf = _start_cdf(model, config, rng_env)
    n_actions = model.n_joint_actions
    state = _draw_start(model, start_cdf, rng_env)
    episode_len = 0
    losses = []
    evaluations = {}
    for t in range(1, total_steps + 1):
        action = act(q, state)
        _, _, reward, next_state = sample_transition(model, state, action, rng=rng_env)
        buffer.push(state * n_actions + action, next_state, reward)

        row = (t - 1) % block_steps
        if row == 0:
            block = _replay_block(rng_replay, t, min(block_steps, total_steps - t + 1),
                                  capacity, minibatch_size)
        cells, next_states, rewards = buffer.sample(block[row])
        loss = q.minibatch_step(cells, rewards + discounted[next_states], learning_rate)
        if not math.isfinite(loss):
            raise FloatingPointError(f"training loss diverged at step {t}")
        losses.append(loss)

        if t % sync_period == 0:
            target = q.clone()
            if not np.isfinite(target.values).all():
                raise FloatingPointError(f"Q table diverged at step {t}: the synced "
                                         "table has non-finite entries")
            discounted = model.gamma * exact.reduce_table(model, target.values)[0]

        episode_len += 1
        if next_state in absorbing or episode_len >= episode_cap:
            state = _draw_start(model, start_cdf, rng_env)
            episode_len = 0
        else:
            state = next_state

        if eval_period and t % eval_period == 0:
            evaluations[t] = start_value(q.values)

    table = q.values.copy()
    summary = {"final_loss": losses[-1] if losses else 0.0,
               "sync_count": total_steps // sync_period}
    if start_value:
        summary["eval_value"] = start_value(table)
    return DqnResult(q_final=q, policy=exact.reduce_table(model, table)[1],
                     trace=DiagnosticsTrace(summary=summary),
                     losses=losses, evaluations=evaluations)


def dqn_train(model, config):
    """Single-agent loop: act epsilon-greedily, replay a minibatch, step
    toward targets from the frozen network, sync it periodically."""
    if not isinstance(model, TabularMDP):
        raise TypeError("dqn_train needs a simulatable tabular MDP")
    rng_explore = rng_stream(config.seed, "dqn.explore")

    def act(q, state):
        return epsilon_greedy_action(q, state, config.epsilon, rng_explore)

    return _train(model, config, act, absorbing=_absorbing_states(model),
                  start_value=lambda table: _start_value(model, config, table))


def minimax_dqn_train(game, config, opponent_policy):
    """Minimax-DQN on a zero-sum Markov game: learn player one's values.

    The network approximates the max player's action values ``Q(s, a,
    b)``.  Player one samples the equilibrium row strategy of the current
    network's stage matrix, uniform with probability epsilon; player two
    follows ``opponent_policy``, an (S, B) policy over its own actions.
    Targets take the stage-game value of the frozen network at the next
    state.  The loop has no episodes and no evaluations: ``eval_period``
    and ``max_episode_steps`` must be None.
    """
    if not isinstance(game, TabularMarkovGame):
        raise TypeError("minimax_dqn_train needs a TabularMarkovGame")
    for name in ("eval_period", "max_episode_steps"):
        if getattr(config, name) is not None:
            raise ValueError(f"minimax_dqn_train does not implement {name}")
    n_a, n_b = game.action_shape
    opponent_policy = exact._check_policy(opponent_policy, game.n_states, n_b,
                                          "opponent policy")
    rng_explore = rng_stream(config.seed, "dqn.explore")
    rng_opponent = rng_stream(config.seed, "dqn.opponent")

    def act(q, state):
        if rng_explore.random() < config.epsilon:
            a = int(rng_explore.integers(n_a))
        else:
            strategy = matrix_game.solve(q.evaluate_all(state)).row_strategy
            a = int(rng_explore.choice(n_a, p=strategy))
        b = int(rng_opponent.choice(n_b, p=opponent_policy[state]))
        return a * n_b + b

    return _train(game, config, act)
