"""Batch fitted Q-iteration engines.

Three variants share one loop skeleton and differ only in their targets
and their regression step: plain fitted Q-iteration on an MDP, its
minimax extension on a zero-sum Markov game (targets solve a matrix game
per next state), and a projected-SGD variant whose regression step is
:meth:`NtkQ.fit`, single-sample updates of an overparametrized two-layer
network restarted from a shared symmetric initialization.

Every run starts from the zero Q-function, draws fresh i.i.d. data per
iteration by default, refits a fresh approximator per iteration unless
warm-started (a warm start fits a copy of the previous iterate, which
stays frozen), and is bit-reproducible from (config, seed).  On tabular
models the engine tabulates every iterate and reduces the table once
(:func:`~fittedq.exact.reduce_table`: per-state ``max`` or matrix-game
values, and the greedy or equilibrium policy).  That one reduction feeds
the next iteration's targets, indexed per sample with the same bits as
the per-sample loop, the backup in the exact regression residual, the
traced suboptimality and the returned policy.  The engine records the
residuals, so downstream diagnostics can verify the one-step error
sandwich without re-deriving anything.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field, replace
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from . import exact
from .approximators import (
    LinearQ,
    NtkQ,
    RegressionDataset,
    SparseReluQ,
    TabularQ,
    TrainerConfig,
    ZeroQ,
    fit_least_squares,
    symmetric_init,
)
from .diagnostics import (
    DiagnosticsTrace,
    IterationRecord,
    WeightedNorm,
    suboptimality,
    weighted_lp_norm,
)
from .envs import (
    ContinuousMDP,
    TabularMarkovGame,
    TabularModel,
    draws_per_transition,
    sample_transition,
)
from .rng import rng_stream

SAMPLING_KINDS = ("uniform-state-action", "explicit-weights", "on-policy-mixture")


@dataclass(frozen=True)
class SamplingDistribution:
    """Where the regression inputs come from.

    ``uniform-state-action`` covers the whole cell space (or the unit cube
    times the action set); ``explicit-weights`` uses the given joint
    weights; ``on-policy-mixture`` mixes uniform draws with the discounted
    occupancy of the current greedy policy, sampled by geometric-horizon
    rollouts from uniform starts.
    """

    kind: str = "uniform-state-action"
    weights: np.ndarray | None = None
    uniform_mix: float = 0.5
    require_full_support: bool = False

    def __post_init__(self):
        if self.kind not in SAMPLING_KINDS:
            raise ValueError(f"unknown sampling kind {self.kind!r}")
        if self.kind == "explicit-weights":
            if self.weights is None:
                raise ValueError("explicit-weights sampling needs weights")
            weights = np.asarray(self.weights, dtype=np.float64)
            if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
                raise ValueError("sampling weights must be a probability vector")
            if self.require_full_support and np.any(weights == 0.0):
                raise ValueError("sampling weights lack full support")
            object.__setattr__(self, "weights", weights)
        if not (0.0 <= self.uniform_mix <= 1.0):
            raise ValueError("uniform_mix must lie in [0, 1]")


@dataclass(frozen=True)
class TabularSpec:
    """Dense table; the regression step is the exact per-cell mean."""


@dataclass(frozen=True)
class LinearSpec:
    """Per-action linear heads on vector states."""


@dataclass(frozen=True)
class ReluSpec:
    """Per-action sparse ReLU heads on vector states.

    ``v_max='auto'`` clamps outputs at r_max/(1-gamma); ``sparsity=None``
    leaves the nonzero budget at the parameter count.
    """

    hidden: tuple = (32, 32)
    v_max: object = "auto"
    sparsity: int | None = None


@dataclass(frozen=True)
class NtkSpec:
    """Symmetric-initialization two-layer network of width 2m."""

    m: int = 256
    ball_radius: float = 10.0


@dataclass(frozen=True)
class FqiConfig:
    """Settings for one batch run.

    ``exact_regression`` replaces sampling with one exactly backed-up
    target per cell (tabular models only): the fitted iterate then equals
    the corresponding value-iteration iterate and the one-step error is
    zero.  ``iterations=0`` is allowed and returns the zero Q-function.
    """

    iterations: int
    n_samples: int = 1
    approximator: object = field(default_factory=TabularSpec)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    sampling: SamplingDistribution = field(default_factory=SamplingDistribution)
    seed: int = 0
    fresh_samples_per_iteration: bool = True
    exact_regression: bool = False
    warm_start: bool = False
    track_diagnostics: bool = True
    mu_weights: np.ndarray | None = None
    sgd_steps: int | None = None
    sgd_eta: float | None = None

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.sgd_steps is not None and self.sgd_steps < 1:
            raise ValueError("sgd_steps must be positive")
        if self.sgd_eta is not None and self.sgd_eta <= 0:
            raise ValueError("sgd_eta must be positive")


@dataclass
class FqiResult:
    """Final estimate, derived policy, and the per-iteration trace.

    On tabular models ``q_tables`` holds the tabulated iterates (length
    K+1, starting at zero) and ``rho_tables`` the exact regression
    residuals ``T Q_k - Q_{k+1}`` (length K).
    """

    q_final: object
    policy: object
    trace: DiagnosticsTrace
    q_tables: list | None = None
    rho_tables: list | None = None
    q_penultimate: object = None
    diverged: bool = False


def build_approximator(spec, model, rng):
    """Fresh approximator matched to the model's input space."""
    tabular = isinstance(model, TabularModel)
    if isinstance(spec, TabularSpec):
        if not tabular:
            raise TypeError("tabular approximator needs a tabular model")
        return TabularQ(model.n_states, *model.action_shape)
    if tabular:
        raise TypeError(f"{type(spec).__name__} needs vector states; "
                        "tabular models use TabularSpec")
    if isinstance(spec, LinearSpec):
        return LinearQ(model.state_dim, model.n_actions)
    if isinstance(spec, ReluSpec):
        v_max = model.v_max if spec.v_max == "auto" else spec.v_max
        return SparseReluQ(model.state_dim, model.n_actions, hidden=tuple(spec.hidden),
                           v_max=v_max, sparsity=spec.sparsity, rng=rng)
    if isinstance(spec, NtkSpec):
        return symmetric_init(spec.m, model.state_dim, model.n_actions, rng,
                              ball_radius=spec.ball_radius)
    raise TypeError(f"unknown approximator spec {type(spec).__name__}")


def tabulate(q, model):
    """Dense table of a Q-function over a tabular model's cells."""
    if not isinstance(model, TabularModel):
        raise TypeError("tabulation needs a tabular model")
    return np.stack([np.asarray(q.evaluate_all(s), dtype=np.float64)
                     for s in range(model.n_states)])


def _rewards_and_next_states(batch):
    """The batch's rewards as a float array and its next states as a
    tuple, each read by field with no transpose of the whole batch."""
    rewards = np.fromiter(map(itemgetter(2), batch), np.float64, len(batch))
    return rewards, tuple(map(itemgetter(3), batch))


def table_targets(batch, next_values, gamma):
    """``r_i + gamma * next_values[s'_i]`` for a per-state value table; the
    same bits as computing each target on its own."""
    rewards, next_states = _rewards_and_next_states(batch)
    return rewards + gamma * next_values[np.fromiter(next_states, np.int64, len(batch))]


def _targets(batch, q, gamma, next_values, state_value=None):
    """``y_i = r_i + gamma * next_values[s'_i]``, or the rewards alone for
    the zero function or ``gamma == 0``.  A table's ``next_values`` are the
    first half of its :func:`~fittedq.exact.reduce_table`, which the loop
    computes once per iterate and shares with the residual backup, the
    traced suboptimality and the returned policy.  Any other approximator
    is evaluated at each sample's next state through ``state_value``."""
    if isinstance(q, ZeroQ) or gamma == 0.0:
        return _rewards_and_next_states(batch)[0]
    if next_values is not None:
        return table_targets(batch, next_values, gamma)
    if isinstance(q, TabularQ) or state_value is None:
        raise ValueError(f"targets of a {type(q).__name__} need its per-state "
                         "values; see exact.reduce_table")
    return np.array([sample.reward + gamma * state_value(q.evaluate_all(sample.next_state))
                     for sample in batch])


def compute_targets(batch, q, gamma, next_values=None):
    """Regression targets ``y_i = r_i + gamma * max_a Q(s'_i, a)``; a
    table's per-state maxima come in ``next_values``."""
    return _targets(batch, q, gamma, next_values, lambda values: float(np.max(values)))


def compute_minimax_targets(batch, q, gamma, next_values):
    """Targets through the matrix-game value of ``Q(s'_i, :, :)``, given for
    every state in ``next_values``."""
    return _targets(batch, q, gamma, next_values)


def _uniform_state(model, rng):
    if isinstance(model, TabularModel):
        return int(rng.integers(model.n_states))
    return rng.uniform(0.0, 1.0, size=model.state_dim)


def _greedy_rollout_cell(model, q, gamma, rng):
    """One draw from the discounted occupancy of the greedy policy."""
    horizon = rng.geometric(1.0 - gamma) - 1
    state = _uniform_state(model, rng)
    for _ in range(horizon):
        action = int(np.argmax(q.evaluate_all(state)))
        state = sample_transition(model, state, action, rng=rng).next_state
    return state, int(np.argmax(q.evaluate_all(state)))


def _draw_inputs(model, sampling, n, rng, q_current):
    """n cells ``(state, action)`` distributed according to the sampling
    spec, as their states and their actions: int64 arrays on a tabular
    model, tuples of vectors and ints otherwise.  On a game the action is
    the joint action ``a*B + b``."""
    if len(model.action_shape) == 2 and sampling.kind == "on-policy-mixture":
        raise ValueError("on-policy-mixture sampling is defined for MDPs only")
    if isinstance(model, TabularModel) and sampling.kind != "on-policy-mixture":
        n_cells = model.n_states * model.n_joint_actions
        if sampling.kind == "uniform-state-action":
            flat = rng.integers(n_cells, size=n)
        else:
            flat = rng.choice(n_cells, size=n, p=sampling.weights.reshape(-1))
        return np.divmod(flat, model.n_joint_actions)
    if sampling.kind == "explicit-weights":
        raise ValueError("explicit weights are defined for tabular models only")
    out = []
    for _ in range(n):
        if sampling.kind == "on-policy-mixture" and rng.random() >= sampling.uniform_mix:
            out.append(_greedy_rollout_cell(model, q_current, model.gamma, rng))
        else:
            state = _uniform_state(model, rng)
            out.append((state, int(rng.integers(model.n_actions))))
    states, actions = zip(*out)
    if isinstance(model, TabularModel):
        return np.array(states), np.array(actions)
    return states, actions


def _draw_batch(model, sampling, n, rng_sample, rng_env, q_current):
    """The states and actions :func:`_draw_inputs` draws, and one sampled
    transition per cell."""
    states, actions = _draw_inputs(model, sampling, n, rng_sample, q_current)
    if not isinstance(model, TabularModel):
        return states, actions, [sample_transition(model, s, a, rng=rng_env)
                                 for s, a in zip(states, actions)]
    # The tabular sampler reads only rng.random(), so the batch's doubles
    # come from one call: the same doubles, in the same order, and the
    # same final generator state as one call per double.
    drawn = n * draws_per_transition(model)
    doubles = iter(rng_env.random(drawn).tolist())
    rng = SimpleNamespace(random=doubles.__next__)
    try:
        batch = [sample_transition(model, s, a, rng=rng)
                 for s, a in zip(states.tolist(), actions.tolist())]
    except StopIteration:
        raise RuntimeError(f"sample_transition read more than the {drawn} doubles that "
                           f"draws_per_transition gives for {n} transitions") from None
    if next(doubles, None) is not None:
        raise RuntimeError(f"sample_transition read fewer than the {drawn} doubles that "
                           f"draws_per_transition gives for {n} transitions")
    return states, actions, batch


def _all_cells_dataset(target_table):
    states, actions = np.divmod(np.arange(target_table.size), target_table[0].size)
    return RegressionDataset(states, actions, target_table.reshape(-1))


def _sigma_weights(model, sampling):
    """Tabular weights matching the sampling distribution, for the traced
    sigma-norm; the on-policy mixture varies over time so uniform weights
    stand in for it."""
    shape = (model.n_states, *model.action_shape)
    if sampling.kind == "explicit-weights":
        return sampling.weights.reshape(shape)
    return np.full(shape, 1.0 / np.prod(shape))


def _run_batch_loop(model, config, make_targets):
    tabular = isinstance(model, TabularModel)
    if config.exact_regression and not tabular:
        raise TypeError("exact regression needs a tabular model")
    rng_sample = rng_stream(config.seed, "fqi.sampling")
    rng_env = rng_stream(config.seed, "fqi.env")
    rng_init = rng_stream(config.seed, "fqi.init")
    rng_train = rng_stream(config.seed, "fqi.trainer")

    q_prev = ZeroQ(*model.action_shape)
    trace = DiagnosticsTrace()
    q_tables = rho_tables = None
    sigma_norm = mu = None
    values = policy = None  # exact.reduce_table of q_tables[-1]
    if tabular:
        q_tables = [tabulate(q_prev, model)]
        values, policy = exact.reduce_table(model, q_tables[0])
        rho_tables = []
        sigma_norm = WeightedNorm(_sigma_weights(model, config.sampling), p=2.0)
        if config.track_diagnostics:
            mu = (np.asarray(config.mu_weights, dtype=np.float64)
                  if config.mu_weights is not None
                  else np.full(q_tables[0].shape, 1.0 / q_tables[0].size))

    approx = None
    batch = None
    diverged = False
    q_penultimate = q_prev
    for k in range(config.iterations):
        t_start = time.perf_counter()
        if tabular:
            backup = exact.backup_from_values(model, values)
        if config.exact_regression:
            dataset = _all_cells_dataset(backup)
        else:
            if batch is None or config.fresh_samples_per_iteration:
                states, actions, batch = _draw_batch(model, config.sampling,
                                                     config.n_samples, rng_sample,
                                                     rng_env, q_prev)
            dataset = RegressionDataset(np.asarray(states), actions,
                                        make_targets(batch, q_prev, model.gamma, values))
        if approx is None or not config.warm_start:
            approx = build_approximator(config.approximator, model, rng_init)
        else:
            approx = copy.deepcopy(approx)  # q_prev stays frozen
        report = fit_least_squares(approx, dataset, trainer=config.trainer,
                                   rng=rng_train)
        wall_ms = (time.perf_counter() - t_start) * 1e3
        record = IterationRecord(k=k, empirical_mse=report.final_mse,
                                 wall_ms=wall_ms)
        if tabular:
            table = tabulate(approx, model)
            values, policy = exact.reduce_table(model, table)
            rho = backup - table
            q_tables.append(table)
            rho_tables.append(rho)
            record.one_step_error_sigma = weighted_lp_norm(rho, sigma_norm)
            if config.track_diagnostics:
                record.suboptimality_1mu = suboptimality(
                    model, policy.p1 if isinstance(policy, exact.JointPolicy) else policy, mu)
        trace.append(record)
        q_penultimate = q_prev
        q_prev = approx
        if report.diverged:
            diverged = True
            break

    trace.summary = _summarize(trace)
    return FqiResult(q_final=q_prev, policy=policy, trace=trace,
                     q_tables=q_tables, rho_tables=rho_tables,
                     q_penultimate=q_penultimate, diverged=diverged)


def _summarize(trace):
    summary = {}
    if trace.records:
        last = trace.records[-1]
        summary["iterations"] = len(trace.records)
        summary["final_empirical_mse"] = last.empirical_mse
        if last.one_step_error_sigma is not None:
            summary["final_one_step_error_sigma"] = last.one_step_error_sigma
            summary["eps_max"] = trace.eps_max()
        if last.suboptimality_1mu is not None:
            summary["final_suboptimality_1mu"] = last.suboptimality_1mu
    return summary


def run_fqi(model, config):
    """Fitted Q-iteration; the returned policy is greedy for the final
    iterate on tabular models."""
    if isinstance(model, TabularMarkovGame):
        raise TypeError("run_fqi takes an MDP; use run_minimax_fqi for games")
    return _run_batch_loop(model, config, compute_targets)


def run_minimax_fqi(game, config):
    """Minimax fitted Q-iteration; the returned policy is the equilibrium
    joint policy of the final iterate."""
    if not isinstance(game, TabularMarkovGame):
        raise TypeError("run_minimax_fqi needs a TabularMarkovGame")
    return _run_batch_loop(game, config, compute_minimax_targets)


def run_fqi_projected_sgd(model, config):
    """Fitted Q-iteration with projected single-sample SGD per regression.

    The batch loop draws ``sgd_steps`` samples per iteration.  The network
    is built once and warm-started, and each fit (:meth:`NtkQ.fit`)
    restarts it at the shared symmetric initialization, takes one
    projected step per sample and adopts the averaged weight iterate.
    Defaults follow ``steps = m`` and
    ``eta = 0.1 / sqrt(steps)`` and are overridable through the config.
    """
    if not isinstance(model, ContinuousMDP):
        raise TypeError("projected-SGD fitted Q-iteration needs a ContinuousMDP")
    if not isinstance(config.approximator, NtkSpec):
        raise TypeError("projected-SGD fitted Q-iteration needs an NtkSpec")
    steps = config.approximator.m if config.sgd_steps is None else config.sgd_steps
    eta = 0.1 / math.sqrt(steps) if config.sgd_eta is None else config.sgd_eta
    return _run_batch_loop(model, replace(config, n_samples=steps, warm_start=True,
                                          trainer=TrainerConfig(learning_rate=eta)),
                           compute_targets)
