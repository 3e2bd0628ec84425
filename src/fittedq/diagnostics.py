"""Measurement of the theoretical quantities behind fitted Q-iteration.

Weighted norms, one-step Bellman errors, suboptimality gaps, concentration
coefficients of policy pushforwards, and the closed-form error-propagation
bound they plug into.  Tabular quantities are exact; continuous-state
norms are Monte Carlo estimates with reported standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact

EXHAUSTIVE_SEQUENCE_LIMIT = 10**6
# Monte-Carlo sequences pushed through the kernel together; a block holds
# MONTE_CARLO_BLOCK * m * S * A doubles of policies.
MONTE_CARLO_BLOCK = 256


@dataclass(frozen=True)
class WeightedNorm:
    """An l_p norm weighted by a probability measure over the table cells."""

    weights: np.ndarray
    p: float = 2.0

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if np.any(weights < 0):
            raise ValueError("norm weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"norm weights sum to {weights.sum()!r}, not 1")
        if self.p < 1:
            raise ValueError("norm order p must be at least 1")
        object.__setattr__(self, "weights", weights)


def weighted_lp_norm(values, norm):
    """Exact weighted norm ``(sum_i w_i |f_i|^p)^(1/p)`` of a table."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != norm.weights.shape:
        raise ValueError(f"table shape {values.shape} does not match "
                         f"weight shape {norm.weights.shape}")
    return float((norm.weights * np.abs(values) ** norm.p).sum() ** (1.0 / norm.p))


@dataclass(frozen=True)
class NormEstimate:
    value: float
    standard_error: float
    n_samples: int


def _norm_estimate(powers, p):
    """``l_p`` norm from draws of ``|f|^p``, with the delta-method standard
    error of the mean carried through the ``1/p`` power."""
    n = len(powers)
    mean = powers.mean()
    sd = powers.std(ddof=1) / math.sqrt(n)
    value = mean ** (1.0 / p)
    stderr = sd * value / (p * mean) if mean > 0 else 0.0
    return NormEstimate(float(value), float(stderr), n)


def monte_carlo_one_step_error(q_next, q_prev, model, n_points=2000,
                               n_noise=64, rng=None):
    """Sampled ``|| T Q_prev - Q_next ||_2`` for a continuous-state model.

    Evaluation points draw states uniformly on the cube and actions
    uniformly; the inner expectation over transition noise uses
    ``n_noise`` draws per point.
    """
    rng = rng or np.random.default_rng(0)
    states = rng.uniform(0.0, 1.0, size=(n_points, model.state_dim))
    actions = rng.integers(model.n_actions, size=n_points)
    noise = rng.uniform(-1.0, 1.0, size=(n_points, n_noise, model.state_dim))
    gaps = np.empty(n_points)
    for action in range(model.n_actions):
        rows = np.nonzero(actions == action)[0]
        if len(rows) == 0:
            continue
        chunk = states[rows]
        flat_next = model.next_state_batch(
            np.repeat(chunk, n_noise, axis=0), action,
            noise[rows].reshape(-1, model.state_dim))
        best_next = q_prev.evaluate_states(flat_next).max(axis=1)
        lookahead = best_next.reshape(len(rows), n_noise).mean(axis=1)
        backup = model.reward_batch(chunk, action) + model.gamma * lookahead
        predicted = q_next.evaluate_states(chunk)[:, action]
        gaps[rows] = np.abs(backup - predicted) ** 2.0
    return _norm_estimate(gaps, 2.0)


@dataclass(frozen=True)
class KappaResult:
    value: float
    mode: str
    is_lower_bound: bool
    n_sequences: int


def _pushforward(mdp, dists, policies):
    """Push (n, S, A) measures one step: each through the kernel, then
    through its policy, an (S, A) matrix of action probabilities."""
    state_marginals = np.einsum("nsa,sat->nt", dists, mdp.transition)
    return state_marginals[:, :, None] * policies


def _kappa_of(dists, sigma):
    """Largest L2(sigma) norm of the densities of the measures ``dists[i]``,
    each shaped like ``sigma``; infinite if one has mass where sigma is 0."""
    if np.any(dists[:, sigma == 0.0].sum(axis=1) > 0.0):
        return math.inf
    # Off sigma's support every measure is 0 here, so its square already
    # holds the 0 the quotient would have; dividing in place saves a copy.
    ratio_sq = dists * dists
    np.divide(ratio_sq, sigma, out=ratio_sq, where=sigma > 0.0)
    return math.sqrt(ratio_sq.reshape(len(dists), -1).sum(axis=1).max())


def enumeration_excess(mdp, m):
    """Unless exhaustive kappa(m) forms at most EXHAUSTIVE_SEQUENCE_LIMIT
    state marginals, |Pi|^(m-1) = A^(S(m-1)), a message with their number."""
    base, exponent = mdp.n_actions, mdp.n_states * (m - 1)
    if base ** min(exponent, 64) <= EXHAUSTIVE_SEQUENCE_LIMIT:   # 2^64 is past it
        return None
    count = f"{base}^{exponent}" if exponent * math.log2(base) > 64 else base ** exponent
    return f"{count} state marginals exceed the enumeration limit {EXHAUSTIVE_SEQUENCE_LIMIT}"


def concentration_coefficient(mdp, mu, sigma, m, mode="exhaustive",
                              n_sequences=10_000, rng=None):
    """m-th concentration coefficient of ``mu`` relative to ``sigma``.

    The coefficient is the supremum, over length-m policy sequences, of
    the L2(sigma) norm of the density of the pushforward of ``mu``
    through the m-step kernel.  The supremum of this convex functional
    over the product of policy simplices is attained at deterministic
    sequences, and exhaustive mode covers all of them in closed form:
    the first state marginal ``t = mu P`` is the same under every policy,
    each of the m-1 policies in between maps every marginal through its
    kernel, and the last policy puts each state's mass on its lightest
    ``sigma`` action, so it contributes ``sum_s t(s)^2 / min_a sigma(s, a)``.
    Monte Carlo mode samples random sequences (deterministic, plus a
    quarter stochastic as a cross-check) and is therefore a lower bound.

    If ``sigma`` misses support where the pushforward has mass the
    coefficient is infinite and reported as such.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    shape = (mdp.n_states, mdp.n_actions)
    if mu.shape != shape or sigma.shape != shape:
        raise ValueError(f"mu and sigma must have shape {shape}")
    if mode == "exhaustive":
        too_many = enumeration_excess(mdp, m)
        if too_many:
            raise ValueError(f"{too_many}; use mode='monte-carlo'")
        marginals = np.einsum("sa,sat->t", mu, mdp.transition)[None]
        for _ in range(m - 1):
            # Row i * |Pi| + j is marginal i pushed through policy j, the
            # policies in itertools.product order: state s picks digit s.
            pushed = np.zeros((len(marginals), 1, mdp.n_states))
            for s, kernel in enumerate(mdp.transition):
                step = marginals[:, s, None, None, None] * kernel
                pushed = (pushed[:, :, None] + step).reshape(len(marginals), -1,
                                                             mdp.n_states)
            marginals = pushed.reshape(-1, mdp.n_states)
        return KappaResult(_kappa_of(marginals, sigma.min(axis=1)), "exhaustive",
                           False, mdp.n_actions ** (mdp.n_states * m))
    if mode == "monte-carlo":
        best = _monte_carlo_kappa(mdp, mu, sigma, m, n_sequences,
                                  rng or np.random.default_rng(0))
        return KappaResult(float(best), "monte-carlo", True, n_sequences)
    raise ValueError(f"unknown mode {mode!r}")


def _monte_carlo_kappa(mdp, mu, sigma, m, n_sequences, rng):
    """Largest kappa of ``n_sequences`` random policy sequences.  Each
    sequence draws, in turn, one double that makes it stochastic with
    probability 1/4, then its m policies; blocks of MONTE_CARLO_BLOCK
    sequences are then pushed and scored together."""
    shape = (mdp.n_states, mdp.n_actions)
    eye = np.eye(mdp.n_actions)
    best = 0.0
    for start in range(0, n_sequences, MONTE_CARLO_BLOCK):
        size = min(MONTE_CARLO_BLOCK, n_sequences - start)
        policies = np.empty((m, size, *shape))
        for i in range(size):
            stochastic = rng.random() < 0.25
            for depth in range(m):
                if stochastic:
                    policies[depth, i] = rng.dirichlet(np.ones(mdp.n_actions),
                                                       size=mdp.n_states)
                else:
                    policies[depth, i] = eye[rng.integers(mdp.n_actions,
                                                          size=mdp.n_states)]
        dists = np.broadcast_to(mu, (size, *shape))
        for policy in policies:
            dists = _pushforward(mdp, dists, policy)
        best = max(best, _kappa_of(dists, sigma))
    return best


@dataclass(frozen=True)
class PhiEstimate:
    """Truncated discounted kappa sum plus a separately reported tail bound.

    ``phi_truncated`` sums the computed kappas over m <= m_max: exact in
    exhaustive mode, a lower bound in Monte-Carlo mode.  ``tail_bound``
    sums the rest with every kappa replaced by the cap of
    :func:`_kappa_cap`, which bounds kappa(m) for every m, so in
    exhaustive mode ``total`` bounds phi from above.
    """

    phi_truncated: float
    tail_bound: float
    kappas: tuple

    @property
    def total(self):
        return self.phi_truncated + self.tail_bound


def _kappa_cap(mdp, sigma):
    """``sqrt(max_s' pbar(s') / min_a sigma(s', a))`` with ``pbar(s') =
    max_{s,a} P(s'|s,a)``, infinite when some ``s'`` with ``pbar(s') > 0``
    has a ``sigma``-null action.  Every pushforward's state marginal ``t``
    is a mixture of transition rows, so ``t <= pbar``, and ``kappa(m)^2 <=
    sum_s' t(s') pbar(s') / min_a sigma(s', a)`` is at most the cap squared."""
    reach = mdp.transition.max(axis=(0, 1))
    floor = sigma.min(axis=1)
    if np.any((reach > 0.0) & (floor == 0.0)):
        return math.inf
    ratio = np.divide(reach, floor, out=np.zeros_like(reach), where=reach > 0.0)
    return math.sqrt(ratio.max())


def phi_estimate(mdp, mu, sigma, m_max, mode="exhaustive", seed=0):
    """Discounted, normalized sum ``(1-gamma)^2 sum_m gamma^(m-1) m kappa(m)``
    truncated at ``m_max``, and the bound on the rest of the sum.  In
    Monte-Carlo mode each kappa(m) draws from a fresh ``default_rng(seed)``."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    gamma = mdp.gamma
    kappas = [concentration_coefficient(mdp, mu, sigma, m, mode=mode,
                                        rng=np.random.default_rng(seed))
              for m in range(1, m_max + 1)]
    weight = (1.0 - gamma) ** 2
    phi_truncated = weight * sum(gamma ** (m - 1) * m * k.value
                                 for m, k in enumerate(kappas, start=1))
    # sum_{m=1}^{M} gamma^(m-1) m = (1 - gamma^M (1 + M(1-gamma))) / (1-gamma)^2
    partial = (1.0 - gamma ** m_max * (1.0 + m_max * (1.0 - gamma))) / (1.0 - gamma) ** 2
    tail_weight = 1.0 / (1.0 - gamma) ** 2 - partial
    tail_bound = weight * _kappa_cap(mdp, np.asarray(sigma, dtype=np.float64)) * tail_weight
    return PhiEstimate(float(phi_truncated), float(tail_bound),
                       tuple(k.value for k in kappas))


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the closed-form error-propagation bound."""

    eps_max: float
    phi: float
    gamma: float
    iterations: int
    r_max: float

    def __post_init__(self):
        if self.eps_max < 0 or self.phi < 0 or self.r_max < 0:
            raise ValueError("bound inputs must be nonnegative")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")


def error_propagation_bound(inputs):
    """``2 phi gamma eps_max / (1-gamma)^2 + 4 gamma^(K+1) R_max / (1-gamma)^2``."""
    denom = (1.0 - inputs.gamma) ** 2
    statistical = 2.0 * inputs.phi * inputs.gamma * inputs.eps_max / denom
    # gamma**(K+1) is 0.0 from K+1 = 2**63 on, and a larger int has no float
    algorithmic = 4.0 * inputs.gamma ** min(inputs.iterations + 1, 2**63) * inputs.r_max / denom
    return statistical + algorithmic


def suboptimality(model, policy, mu):
    """``|| Q* - Q^pi ||_{1, mu}`` via the exact solver oracles.

    On a game ``policy`` is player one's and ``Q^pi`` is its value against
    a best-responding opponent, so the gap is to the minimax value.
    """
    q_star, _ = exact.optimal_q(model)
    q_pi = exact.policy_value(model, policy)
    return weighted_lp_norm(q_star - q_pi, WeightedNorm(mu, p=1.0))


@dataclass(frozen=True)
class SandwichReport:
    max_violation: float
    per_iteration: tuple

    @property
    def holds(self):
        return all(v <= 1e-9 for v in self.per_iteration)


def _apply_p_pi(mdp, policy, table):
    """(P^pi f)(s,a) = E[ f(S', A'~pi) ]."""
    value_under_policy = (policy * table).sum(axis=1)
    return mdp.transition @ value_under_policy


def verify_sandwich(mdp, q_tables, rho_tables):
    """Check the one-step error sandwich along a fitted-Q trajectory.

    For each iteration k, writing ``e_k = Q* - Q_k`` and ``rho_{k+1}`` for
    the recorded regression error ``T Q_k - Q_{k+1}``, both inequalities

        gamma P^{pi*} e_k + rho_{k+1} >= e_{k+1} >= gamma P^{pi_k} e_k + rho_{k+1}

    must hold elementwise (``pi_k`` greedy for ``Q_k``, ``pi*`` greedy for
    ``Q*``).  The report carries the worst violation per iteration, so a
    trace whose ``Q_{k+1}`` was perturbed without updating ``rho_{k+1}``
    is flagged with a positive violation.
    """
    if len(rho_tables) != len(q_tables) - 1:
        raise ValueError("need one rho table per transition between Q tables")
    q_star, _ = exact.optimal_q(mdp, tol=1e-12)
    pi_star = exact.greedy_policy(q_star)
    violations = []
    for k in range(len(rho_tables)):
        q_k = np.asarray(q_tables[k], dtype=np.float64)
        q_next = np.asarray(q_tables[k + 1], dtype=np.float64)
        rho = np.asarray(rho_tables[k], dtype=np.float64)
        error_k = q_star - q_k
        error_next = q_star - q_next
        upper = mdp.gamma * _apply_p_pi(mdp, pi_star, error_k) + rho
        lower = mdp.gamma * _apply_p_pi(mdp, exact.greedy_policy(q_k), error_k) + rho
        violation = max(float((error_next - upper).max()),
                        float((lower - error_next).max()))
        violations.append(violation)
    return SandwichReport(max(violations) if violations else 0.0,
                          tuple(violations))


@dataclass
class IterationRecord:
    """Per-iteration diagnostics of one batch-RL run."""

    k: int
    empirical_mse: float
    one_step_error_sigma: float | None = None
    suboptimality_1mu: float | None = None
    wall_ms: float = 0.0


@dataclass
class DiagnosticsTrace:
    """Ordered per-iteration records plus run-level summary scalars."""

    records: list[IterationRecord] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def append(self, record):
        if self.records and record.k <= self.records[-1].k:
            raise ValueError("iteration index must increase monotonically")
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def eps_max(self):
        errors = [r.one_step_error_sigma for r in self.records
                  if r.one_step_error_sigma is not None]
        return max(errors) if errors else None
