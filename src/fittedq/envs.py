"""Decision-process models: tabular MDPs, zero-sum Markov games, and a
continuous-state family.

Tabular models carry dense transition tensors so Bellman operators can be
applied exactly; the continuous family backs the neural experiments where
only sampling is available.  Models are immutable after construction and
safe for concurrent read-only use.  All sampling goes through a
caller-owned ``numpy.random.Generator``.

Reward distributions are mean plus clipped uniform noise: the mean tensor
stays exact for the dynamic-programming oracles while realized rewards
remain inside ``[-r_max, r_max]``.

A tabular cell is ``(state, action)``; on a game the action is the joint
action ``a*B + b`` of :func:`joint_action_mdp`, so a game samples as that MDP.

Tabular sampling draws from cached cumulative transition rows, built the
way ``Generator.choice`` builds them, and reads nothing of its rng but
``rng.random()``: one double for the next state, and one for the reward
noise when there is any (:func:`draws_per_transition`).  That is the same
stream, bit for bit, as ``rng.choice(n, p=row)`` followed by
``rng.uniform(-h, h)``, and it lets fitted Q-iteration draw a whole
batch's doubles with one ``Generator.random(k)`` call.  A cell's row is an
``array('d')`` kept beside its mean reward as a float, so a sample is
scalar work in one Python frame: ``bisect_right`` on the row gives what
``searchsorted(u, side="right")`` gives, the noise and its clip are
inline arithmetic, and the :class:`TransitionSample` is built by
``tuple.__new__``.  The rows are built on first use, so models that only
the exact solvers read never pay for them.

The continuous family's reward and transition laws are each one method
over a batch of states; :func:`sample_transition` calls them on one row
and the diagnostics on many, so the diagnostics score the sampled model.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import serialize

ROW_SUM_TOL = 1e-12


def _frozen(array, dtype=np.float64):
    out = np.ascontiguousarray(np.asarray(array, dtype=dtype))
    out.setflags(write=False)
    return out


def cdf_rows(p):
    """Normalised cumulative rows of ``p`` over its last axis, the cdf that
    ``Generator.choice`` builds from ``p``: cumsum, then divide by the
    last entry."""
    cdf = np.cumsum(np.asarray(p, dtype=np.float64), axis=-1)
    return _frozen(cdf / cdf[..., -1:])


def _check_gamma_and_r_max(gamma, r_max):
    # gamma == 0 is accepted at the type level so the Bellman operators can
    # be exercised at the undiscounted boundary; the random generators below
    # still insist on gamma in (0, 1).  Each check is written so that NaN,
    # which fails every comparison, fails it.
    if not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if not 0 < r_max < np.inf:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")


class TabularModel:
    """Base of the tabular models: a dense transition tensor of shape
    ``(n_states, *action_shape, n_states)`` and mean rewards of shape
    ``(n_states, *action_shape)``, where ``action_shape`` is ``(A,)`` on an
    MDP and ``(A, B)`` on a game, plus the checks both must pass."""

    def __post_init__(self):
        cells = (self.n_states, *self.action_shape)
        if min(cells) < 1:
            raise ValueError("state and action counts must be positive")
        _check_gamma_and_r_max(self.gamma, self.r_max)
        if not 0 <= self.reward_noise_halfwidth < np.inf:   # NaN fails it too
            raise ValueError("reward_noise_halfwidth must be nonnegative and "
                             f"finite, got {self.reward_noise_halfwidth}")
        transition = _frozen(self.transition)
        reward = _frozen(self.reward_mean)
        if transition.shape != cells + (self.n_states,):
            raise ValueError(f"transition has shape {transition.shape}, "
                             f"expected {cells + (self.n_states,)}")
        if reward.shape != cells:
            raise ValueError(f"reward_mean has shape {reward.shape}, expected {cells}")
        if not np.all(transition >= 0.0):
            raise ValueError("transition: negative or NaN transition probability")
        err = np.abs(transition.sum(axis=-1) - 1.0).max()
        if err > ROW_SUM_TOL:
            raise ValueError(f"transition: row sums deviate from 1 by {err:.3e}")
        if not np.abs(reward).max() <= self.r_max + 1e-15:
            raise ValueError("reward_mean must lie within [-r_max, r_max]")
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "reward_mean", reward)

    @property
    def v_max(self):
        return self.r_max / (1.0 - self.gamma)

    @cached_property
    def n_joint_actions(self):
        """Actions per state in a cell ``(state, action)``: ``A`` on an MDP,
        ``A*B`` on a game, whose joint action ``(a, b)`` is ``a*B + b``."""
        return math.prod(self.action_shape)

    @cached_property
    def transition_cdf(self):
        """Cumulative next-state rows used by :func:`sample_transition`."""
        return cdf_rows(self.transition)

    @cached_property
    def sampler_cells(self):
        """Per flat cell ``state * n_joint_actions + action``, its
        :attr:`transition_cdf` row as an ``array('d')``, which pickles where
        a memoryview would not, and its mean reward as a float."""
        rows = self.transition_cdf.reshape(-1, self.n_states)
        return list(zip((array("d", row) for row in rows),
                        self.reward_mean.reshape(-1).tolist()))

    @cached_property
    def content_digest(self):
        """sha256 of everything Q* depends on: the shape ``(S,
        *action_shape, S)``, ``gamma``, ``transition`` and ``reward_mean``.
        A game and its joint-action MDP hold the same bytes, so the shape
        is part of it."""
        digest = hashlib.sha256(repr((self.transition.shape, float(self.gamma))).encode())
        digest.update(self.transition.tobytes())
        digest.update(self.reward_mean.tobytes())
        return digest.hexdigest()


@dataclass(frozen=True)
class TabularMDP(TabularModel):
    """Finite MDP with dense transition tensor and bounded mean rewards.

    Attributes
    ----------
    n_states, n_actions : int
    transition : ndarray, shape (S, A, S)
        Row-stochastic next-state distributions.
    reward_mean : ndarray, shape (S, A)
        Mean rewards, all within ``[-r_max, r_max]``.
    gamma : float
        Discount factor.
    r_max : float
        Uniform bound on realized rewards.
    reward_noise_halfwidth : float
        Half-width of the additive uniform reward noise; realized rewards
        are clipped back into ``[-r_max, r_max]``.
    """

    n_states: int
    n_actions: int
    transition: np.ndarray
    reward_mean: np.ndarray
    gamma: float
    r_max: float
    reward_noise_halfwidth: float = 0.0

    @property
    def action_shape(self):
        return (self.n_actions,)


@dataclass(frozen=True)
class TabularMarkovGame(TabularModel):
    """Two-player zero-sum Markov game over joint actions.

    ``transition`` has shape (S, A, B, S) and ``reward_mean`` (player one's
    mean payoff; player two receives its negation) has shape (S, A, B).
    """

    n_states: int
    n_actions_p1: int
    n_actions_p2: int
    transition: np.ndarray
    reward_mean: np.ndarray
    gamma: float
    r_max: float
    reward_noise_halfwidth: float = 0.0

    @property
    def action_shape(self):
        return (self.n_actions_p1, self.n_actions_p2)


@dataclass(frozen=True)
class ContinuousMDP:
    """MDP on the unit cube ``[0, 1]^state_dim`` with finitely many actions.

    Rewards are a deterministic tanh-squashed mixture of Gaussian bumps per
    action, so they are smooth and strictly inside ``[-r_max, r_max]``.
    Transitions apply a contractive affine map plus uniform noise and clip
    back into the cube.  Each law is one method over a batch of states;
    one transition is a one-row batch.
    """

    state_dim: int
    n_actions: int
    gamma: float
    r_max: float
    bump_weights: np.ndarray     # (A, n_bumps)
    bump_centers: np.ndarray     # (A, n_bumps, state_dim)
    bump_widths: np.ndarray      # (A, n_bumps)
    trans_matrix: np.ndarray     # (A, state_dim, state_dim)
    trans_offset: np.ndarray     # (A, state_dim)
    noise_scale: float

    def __post_init__(self):
        if self.state_dim < 1 or self.n_actions < 1:
            raise ValueError("state_dim and n_actions must be positive")
        _check_gamma_and_r_max(self.gamma, self.r_max)
        for name in ("bump_weights", "bump_centers", "bump_widths",
                     "trans_matrix", "trans_offset"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def v_max(self):
        return self.r_max / (1.0 - self.gamma)

    @property
    def action_shape(self):
        return (self.n_actions,)

    @cached_property
    def _action_laws(self):
        """Per action, the constants its two laws read: bump centres, bump
        weights, ``2 * widths**2``, the drift matrix transposed and the offset."""
        return list(zip(self.bump_centers, self.bump_weights, 2.0 * self.bump_widths ** 2,
                        self.trans_matrix.transpose(0, 2, 1), self.trans_offset))

    def reward_batch(self, states, action):
        """Deterministic rewards in (-r_max, r_max) of an (n, state_dim)
        batch of states under ``action``."""
        centers, weights, two_var, _, _ = self._action_laws[action]
        diff = np.asarray(states, dtype=np.float64)[:, None, :] - centers
        sq = (diff * diff).sum(axis=2)
        z = (weights * np.exp(-sq / two_var)).sum(axis=1)
        return self.r_max * np.tanh(z)

    def next_state_batch(self, states, action, noise):
        """Affine drift plus scaled noise, clipped into the unit cube, of an
        (n, state_dim) batch of states under ``action``."""
        _, _, _, matrix_t, offset = self._action_laws[action]
        raw = np.asarray(states, dtype=np.float64) @ matrix_t + offset
        raw = raw + self.noise_scale * np.asarray(noise, dtype=np.float64)
        return np.clip(raw, 0.0, 1.0)


class TransitionSample(NamedTuple):
    """One observed transition; on a game ``action`` is the joint action."""

    state: object
    action: int
    reward: float
    next_state: object


def _random_tables(n_states, action_shape, gamma, r_max, concentration, seed):
    """Dirichlet rows, then uniform mean rewards, over ``(n_states, *action_shape)``."""
    cells = (n_states, *action_shape)
    if min(cells) < 1:
        raise ValueError("state and action counts must be positive")
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    gen = np.random.default_rng(seed)
    transition = gen.dirichlet(np.full(n_states, float(concentration)), size=cells)
    return transition, gen.uniform(-r_max, r_max, size=cells)


def make_random_mdp(n_states, n_actions, gamma, r_max, concentration=1.0,
                    seed=0, reward_noise_halfwidth=0.0):
    """Random MDP: Dirichlet transition rows, uniform mean rewards."""
    transition, reward = _random_tables(n_states, (n_actions,), gamma, r_max,
                                        concentration, seed)
    return TabularMDP(n_states, n_actions, transition, reward, gamma, r_max,
                      reward_noise_halfwidth)


GRID_ACTIONS = ((0, -1), (0, 1), (1, 0), (-1, 0))  # N, S, E, W


def make_gridworld(width, height, goal, step_reward, goal_reward,
                   slip_prob, gamma):
    """Four-action gridworld with an absorbing goal.

    Arriving at the goal pays ``goal_reward``, every other arrival pays
    ``step_reward``, and the goal self-loops with zero reward; the mean
    reward tensor carries the arrival expectation under slip, clipped to
    ``r_max`` against roundoff.  With probability ``slip_prob`` the chosen
    action is replaced by a uniformly random one.  Bumping into a wall
    leaves the position unchanged.  The goal is the cell ``(x, y)``.
    """
    gx, gy = goal
    if not (0 <= gx < width and 0 <= gy < height):
        raise ValueError(f"goal cell {tuple(goal)} outside {width}x{height} grid")
    if not (0.0 <= slip_prob < 1.0):
        raise ValueError(f"slip_prob must lie in [0, 1), got {slip_prob}")
    n_states = width * height
    n_actions = 4
    goal_state = gy * width + gx
    transition = np.zeros((n_states, n_actions, n_states))
    arrival = np.full(n_states, float(step_reward))
    arrival[goal_state] = float(goal_reward)

    def move(x, y, dx, dy):
        nx, ny = x + dx, y + dy
        if not (0 <= nx < width and 0 <= ny < height):
            return x, y
        return nx, ny

    for y in range(height):
        for x in range(width):
            s = y * width + x
            if s == goal_state:
                transition[s, :, s] = 1.0
                continue
            for a in range(n_actions):
                for eff, (dx, dy) in enumerate(GRID_ACTIONS):
                    prob = slip_prob / n_actions + (1.0 - slip_prob) * (eff == a)
                    nx, ny = move(x, y, dx, dy)
                    transition[s, a, ny * width + nx] += prob

    r_max = max(abs(step_reward), abs(goal_reward), 1e-12)
    reward_mean = np.clip(transition @ arrival, -r_max, r_max)
    reward_mean[goal_state, :] = 0.0
    return TabularMDP(n_states, n_actions, transition, reward_mean, gamma, r_max)


def make_random_game(n_states, n_actions, n_actions2, gamma, r_max,
                     seed=0, concentration=1.0, reward_noise_halfwidth=0.0):
    """Random zero-sum Markov game with ``n_actions`` moves for player one
    and ``n_actions2`` for player two: :func:`make_random_mdp`'s tables over
    the joint actions, from the same draws."""
    transition, reward = _random_tables(n_states, (n_actions, n_actions2), gamma,
                                        r_max, concentration, seed)
    return TabularMarkovGame(n_states, n_actions, n_actions2, transition,
                             reward, gamma, r_max, reward_noise_halfwidth)


def make_matching_pennies_game(gamma=0.9):
    """Single-state repeated matching pennies; the stage value is zero."""
    payoff = np.array([[1.0, -1.0], [-1.0, 1.0]])
    transition = np.ones((1, 2, 2, 1))
    return TabularMarkovGame(1, 2, 2, transition, payoff[None, :, :], gamma, 1.0)


def make_random_continuous_mdp(state_dim, n_actions, gamma, r_max, seed=0,
                               n_bumps=4, noise_scale=0.1):
    """Continuous-state MDP with smooth bump rewards and affine dynamics
    whose linear parts have spectral norm 0.5."""
    if state_dim < 1 or n_actions < 1:
        raise ValueError("state_dim and n_actions must be positive")
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    gen = np.random.default_rng(seed)
    weights = gen.uniform(-2.0, 2.0, size=(n_actions, n_bumps))
    centers = gen.uniform(0.0, 1.0, size=(n_actions, n_bumps, state_dim))
    widths = gen.uniform(0.15, 0.45, size=(n_actions, n_bumps))
    mats = gen.uniform(-1.0, 1.0, size=(n_actions, state_dim, state_dim))
    for a in range(n_actions):
        norm = np.linalg.norm(mats[a], 2)
        if norm > 0:
            mats[a] *= 0.5 / norm
    offsets = gen.uniform(0.15, 0.55, size=(n_actions, state_dim))
    return ContinuousMDP(state_dim, n_actions, gamma, r_max, weights, centers,
                         widths, mats, offsets, float(noise_scale))


def draws_per_transition(model):
    """Doubles :func:`sample_transition` reads from ``rng.random()`` per
    transition of a tabular model: one for the next state, and one for the
    reward noise when the model has any."""
    return 1 if model.reward_noise_halfwidth == 0.0 else 2


def sample_transition(model, state, action, *, rng):
    """Draw one transition from the model's law.

    On a Markov game ``action`` is the joint action ``a*B + b``.  For
    tabular models the reward is mean plus clipped uniform noise, and
    ``rng`` is read only through ``rng.random()``,
    :func:`draws_per_transition` times, so any object whose ``random``
    returns doubles will do; fitted Q-iteration passes one that hands out
    a batch's doubles drawn in one call.  For the continuous family the
    reward is deterministic and the transition noise is uniform on
    ``[-1, 1]^state_dim`` before scaling.
    """
    if isinstance(model, TabularModel):
        n_actions = model.n_joint_actions
        if not (0 <= state < model.n_states and 0 <= action < n_actions):
            raise IndexError(f"state/action ({state}, {action}) out of range")
        row, reward = model.sampler_cells[state * n_actions + action]
        next_state = bisect_right(row, rng.random())
        h = model.reward_noise_halfwidth
        if h != 0.0:
            # The arithmetic of rng.uniform(-h, h), on the same draw, then
            # min(max(x, -r_max), r_max) without two builtin calls; float()
            # because r_max may be an int.
            reward = reward + (-h + (h - -h) * rng.random())
            r_max = model.r_max
            if reward < -r_max:
                reward = float(-r_max)
            elif reward > r_max:
                reward = float(r_max)
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        return tuple.__new__(TransitionSample, (int(state), int(action), reward, next_state))
    if isinstance(model, ContinuousMDP):
        state = np.asarray(state, dtype=np.float64)
        if state.shape != (model.state_dim,):
            raise IndexError(f"state has shape {state.shape}")
        if not (0 <= action < model.n_actions):
            raise IndexError(f"action {action} out of range")
        reward = float(model.reward_batch(state[None], action)[0])
        noise = rng.uniform(-1.0, 1.0, size=model.state_dim)
        # A copy, so the sample holds one array and not a view of its batch.
        next_state = model.next_state_batch(state[None], action, noise)[0].copy()
        return TransitionSample(state, int(action), reward, next_state)
    raise TypeError(f"cannot sample from {type(model).__name__}")


def joint_action_mdp(game):
    """Flatten a zero-sum game into an MDP over joint actions a*B + b."""
    n_joint = game.n_joint_actions
    transition = game.transition.reshape(game.n_states, n_joint, game.n_states)
    reward = game.reward_mean.reshape(game.n_states, n_joint)
    return TabularMDP(game.n_states, n_joint, transition, reward, game.gamma,
                      game.r_max, game.reward_noise_halfwidth)


_MODEL_FILE_KINDS = {"mdp": (TabularMDP, ("n_actions",)),
                     "game": (TabularMarkovGame, ("n_actions", "n_actions2"))}


def model_to_dict(model):
    """Serializable document for a tabular model (continuous models are
    reconstructed from their generator seed instead)."""
    if not isinstance(model, TabularModel):
        raise TypeError(f"cannot serialize {type(model).__name__} to a model file")
    kind = "mdp" if len(model.action_shape) == 1 else "game"
    return {"kind": kind, "n_states": model.n_states,
            **dict(zip(_MODEL_FILE_KINDS[kind][1], model.action_shape)),
            "gamma": model.gamma, "r_max": model.r_max,
            "transition": model.transition.tolist(),
            "reward_mean": model.reward_mean.tolist(), "noise": model.reward_noise_halfwidth}


def model_from_dict(doc):
    """The model of a :func:`model_to_dict` document; ``kind`` picks class and keys."""
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_FILE_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    cls, action_keys = _MODEL_FILE_KINDS[kind]
    return cls(doc["n_states"], *(doc[key] for key in action_keys),
               np.asarray(doc["transition"]), np.asarray(doc["reward_mean"]),
               doc["gamma"], doc["r_max"], doc.get("noise", 0.0))


def save_model(model, path):
    serialize.dump(model_to_dict(model), path)


def load_model(path):
    return model_from_dict(serialize.load(path))
