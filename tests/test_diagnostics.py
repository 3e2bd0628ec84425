import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fittedq import diagnostics as dg
from fittedq import envs, exact, fqi


def uniform_weights(shape):
    return np.full(shape, 1.0 / int(np.prod(shape)))


@pytest.fixture(scope="module")
def mdp():
    return envs.make_random_mdp(4, 2, 0.9, 1.0, seed=15)


class TestWeightedNorm:
    def test_constant_function_any_order(self):
        for p in (1.0, 2.0, 3.0):
            norm = dg.WeightedNorm(uniform_weights((3, 2)), p=p)
            table = np.full((3, 2), -2.5)
            assert abs(dg.weighted_lp_norm(table, norm) - 2.5) <= 1e-12

    def test_l1_of_signed_table(self):
        norm = dg.WeightedNorm(uniform_weights((1, 2)), p=1.0)
        assert dg.weighted_lp_norm(np.array([[1.0, -1.0]]), norm) == 1.0

    def test_l2_matches_naive_summation(self):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(5, 4))
        norm = dg.WeightedNorm(uniform_weights((5, 4)), p=2.0)
        naive = 0.0
        for i in range(5):
            for j in range(4):
                naive += abs(table[i, j]) ** 2 / 20
        assert abs(dg.weighted_lp_norm(table, norm) - naive ** 0.5) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            dg.WeightedNorm(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            dg.WeightedNorm(np.array([-0.5, 1.5]))
        with pytest.raises(ValueError):
            dg.WeightedNorm(np.array([0.5, 0.5]), p=0.5)

    def test_norm_estimate_of_constant_draws(self):
        est = dg._norm_estimate(np.full(500, 9.0), 2.0)
        assert est.value == 3.0
        assert est.standard_error == 0.0


class TestConcentrationCoefficient:
    def test_uniform_transitions_two_actions(self):
        mdp = envs.TabularMDP(3, 2, np.full((3, 2, 3), 1 / 3),
                              np.zeros((3, 2)), 0.9, 1.0)
        mu = uniform_weights((3, 2))
        for m in (1, 2, 3):
            result = dg.concentration_coefficient(mdp, mu, mu, m)
            assert abs(result.value - np.sqrt(2.0)) <= 1e-8

    def test_stationary_single_action_is_one(self):
        mdp = envs.TabularMDP(4, 1, np.full((4, 1, 4), 0.25),
                              np.zeros((4, 1)), 0.9, 1.0)
        mu = uniform_weights((4, 1))
        result = dg.concentration_coefficient(mdp, mu, mu, 2)
        assert abs(result.value - 1.0) <= 1e-10

    def test_monte_carlo_never_exceeds_exhaustive(self):
        mdp = envs.make_random_mdp(2, 2, 0.9, 1.0, seed=1)
        mu = uniform_weights((2, 2))
        exhaustive = dg.concentration_coefficient(mdp, mu, mu, 2)
        mc = dg.concentration_coefficient(mdp, mu, mu, 2, mode="monte-carlo",
                                          n_sequences=10_000,
                                          rng=np.random.default_rng(0))
        assert mc.is_lower_bound
        assert mc.value <= exhaustive.value + 1e-12

    def test_off_support_is_infinite(self):
        mdp = envs.make_random_mdp(2, 2, 0.9, 1.0, seed=2)
        mu = uniform_weights((2, 2))
        sigma = np.zeros((2, 2))
        sigma[0, 0] = 1.0
        result = dg.concentration_coefficient(mdp, mu, sigma, 1)
        assert result.value == np.inf

    def test_enumeration_guard(self):
        mdp = envs.make_random_mdp(8, 4, 0.9, 1.0, seed=3)
        mu = uniform_weights((8, 4))
        with pytest.raises(ValueError):
            dg.concentration_coefficient(mdp, mu, mu, 5)

    def test_guard_counts_the_marginals_formed(self):
        # 16 policies: m = 5 forms 16^4 marginals, within the limit, and
        # m = 6 would form 16^5.
        mdp = envs.make_random_mdp(4, 2, 0.9, 1.0, seed=3)
        mu = uniform_weights((4, 2))
        assert dg.concentration_coefficient(mdp, mu, mu, 5).n_sequences == 16 ** 5
        with pytest.raises(ValueError, match=f"{16 ** 5} state marginals"):
            dg.concentration_coefficient(mdp, mu, mu, 6)


class TestPhiEstimate:
    def test_normalization_with_unit_kappa(self):
        mdp = envs.TabularMDP(4, 1, np.full((4, 1, 4), 0.25),
                              np.zeros((4, 1)), 0.9, 1.0)
        mu = uniform_weights((4, 1))
        estimate = dg.phi_estimate(mdp, mu, mu, m_max=5)
        assert np.allclose(estimate.kappas, 1.0, atol=1e-10)
        assert abs(estimate.total - 1.0) <= 1e-10

    def test_single_term_truncation(self, mdp):
        mu = uniform_weights((4, 2))
        estimate = dg.phi_estimate(mdp, mu, mu, m_max=1)
        expected = (1 - mdp.gamma) ** 2 * estimate.kappas[0]
        assert abs(estimate.phi_truncated - expected) <= 1e-12

    def test_truncation_nondecreasing_in_m_max(self):
        mdp = envs.make_random_mdp(2, 2, 0.9, 1.0, seed=4)
        mu = uniform_weights((2, 2))
        values = [dg.phi_estimate(mdp, mu, mu, m_max=m).phi_truncated
                  for m in (1, 2, 3, 4)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def distributions(size, count=1):
    """``count`` probability vectors of length ``size`` with zeros anywhere."""
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))

    def normalise(rows):
        rows = np.array(rows)
        rows[rows.sum(axis=1) == 0.0, 0] = 1.0
        return rows / rows.sum(axis=1, keepdims=True)

    row = st.lists(weight, min_size=size, max_size=size)
    return st.lists(row, min_size=count, max_size=count).map(normalise)


@st.composite
def mdp_mu_sigma(draw):
    n_states = draw(st.integers(2, 3))
    transition = draw(distributions(n_states, 2 * n_states)).reshape(n_states, 2, n_states)
    mdp = envs.TabularMDP(n_states, 2, transition, np.zeros((n_states, 2)), 0.9, 1.0)
    mu, sigma = (draw(distributions(2 * n_states)).reshape(n_states, 2) for _ in range(2))
    return mdp, mu, sigma


def reference_kappa(mdp, mu, sigma, m):
    """``concentration_coefficient(mode="exhaustive")`` as it was written: a
    recursion over all |Pi|^m deterministic policy sequences, each pushed
    one step at a time.  Returns ``(kappa, n_sequences)``."""
    policies = [np.array(acts) for acts in
                itertools.product(range(mdp.n_actions), repeat=mdp.n_states)]
    best = 0.0
    count = 0

    def pushforward(dist, policy_actions):
        state_marginal = np.einsum("sa,sat->t", dist, mdp.transition)
        out = np.zeros_like(dist)
        out[np.arange(mdp.n_states), policy_actions] = state_marginal
        return out

    def kappa_of(dist):
        if dist[sigma == 0.0].sum() > 0.0:
            return math.inf
        ratio_sq = np.divide(dist * dist, sigma, out=np.zeros_like(dist),
                             where=sigma > 0.0)
        return math.sqrt(ratio_sq.sum())

    def recurse(dist, depth):
        nonlocal best, count
        if depth == m:
            count += 1
            best = max(best, kappa_of(dist))
            return
        for actions in policies:
            recurse(pushforward(dist, actions), depth + 1)

    recurse(mu, 0)
    return float(best), count


@settings(max_examples=60, deadline=None)
@given(case=mdp_mu_sigma(), m=st.integers(1, 4))
def test_exhaustive_kappa_matches_the_recursion(case, m):
    mdp, mu, sigma = case
    expected, count = reference_kappa(mdp, mu, sigma, m)
    result = dg.concentration_coefficient(mdp, mu, sigma, m)
    assert result.n_sequences == count
    if math.isinf(expected):
        assert result.value == expected
    else:
        assert abs(result.value - expected) <= 1e-14 * expected


def reference_monte_carlo_kappa(mdp, mu, sigma, m, n_sequences, rng):
    """``concentration_coefficient(mode="monte-carlo")`` as it was written:
    each sequence drawn, pushed and scored on its own."""
    best = 0.0
    for _ in range(n_sequences):
        dist = mu
        stochastic = rng.random() < 0.25
        for _ in range(m):
            if stochastic:
                policy = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
            else:
                policy = np.eye(mdp.n_actions)[rng.integers(mdp.n_actions,
                                                            size=mdp.n_states)]
            dist = np.einsum("sa,sat->t", dist, mdp.transition)[:, None] * policy
        dists = dist[None]
        if np.any(dists[:, sigma == 0.0].sum(axis=1) > 0.0):
            kappa = math.inf
        else:
            ratio_sq = dists * dists
            np.divide(ratio_sq, sigma, out=ratio_sq, where=sigma > 0.0)
            kappa = math.sqrt(ratio_sq.reshape(1, -1).sum(axis=1).max())
        best = max(best, kappa)
    return dg.KappaResult(float(best), "monte-carlo", True, n_sequences)


@st.composite
def mdp_mu_sigma_wide(draw):
    """MDPs of 2-7 states and 1-4 actions; mu and sigma may hold zeros."""
    n_states, n_actions = draw(st.integers(2, 7)), draw(st.integers(1, 4))
    cells = n_states * n_actions
    transition = draw(distributions(n_states, cells)).reshape(n_states, n_actions,
                                                              n_states)
    mdp = envs.TabularMDP(n_states, n_actions, transition,
                          np.zeros((n_states, n_actions)), 0.9, 1.0)
    mu, sigma = (draw(distributions(cells)).reshape(n_states, n_actions)
                 for _ in range(2))
    return mdp, mu, sigma


@settings(max_examples=60, deadline=None)
@given(case=mdp_mu_sigma_wide(), m=st.integers(1, 4), n_sequences=st.integers(0, 40),
       block=st.sampled_from([1, 3, 8, dg.MONTE_CARLO_BLOCK]),
       seed=st.integers(0, 2**32 - 1))
def test_monte_carlo_kappa_matches_one_sequence_at_a_time(case, m, n_sequences,
                                                           block, seed):
    mdp, mu, sigma = case
    batched, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(dg, "MONTE_CARLO_BLOCK", block):
        got = dg.concentration_coefficient(mdp, mu, sigma, m, mode="monte-carlo",
                                           n_sequences=n_sequences, rng=batched)
    assert got == reference_monte_carlo_kappa(mdp, mu, sigma, m, n_sequences, one_by_one)
    assert batched.bit_generator.state == one_by_one.bit_generator.state


class TestKappaCap:
    @settings(max_examples=60, deadline=None)
    @given(case=mdp_mu_sigma(), m=st.integers(1, 6))
    def test_caps_every_exhaustive_kappa(self, case, m):
        mdp, mu, sigma = case
        kappa = dg.concentration_coefficient(mdp, mu, sigma, m).value
        assert kappa <= dg._kappa_cap(mdp, sigma) * (1.0 + 1e-12)

    def test_tail_bounds_a_sparse_model_whose_kappa_rises_past_m_max(self):
        # Dirichlet concentration 0.1; kappa(1..6) = 3.30, 5.56, 6.48, 9.56,
        # 9.57, 9.94 against a cap of 10.01.
        mdp = envs.make_random_mdp(3, 2, 0.5, 1.0, concentration=0.1, seed=20118)
        gen = np.random.default_rng(20118)
        mu, sigma = (gen.dirichlet(np.ones(6)).reshape(3, 2) for _ in range(2))
        estimate = dg.phi_estimate(mdp, mu, sigma, m_max=3)
        # 5.838887530600791, the sum over all 8^6 policy sequences.
        exhaustive_to_6 = dg.phi_estimate(mdp, mu, sigma, m_max=6).phi_truncated
        # The tail that froze kappa at its largest computed value fell short.
        frozen_tail = estimate.tail_bound * max(estimate.kappas) / dg._kappa_cap(mdp, sigma)
        assert estimate.phi_truncated + frozen_tail < exhaustive_to_6 <= estimate.total

    def test_is_infinite_where_a_reachable_state_has_an_unsampled_action(self):
        mdp = envs.TabularMDP(2, 2, np.array([[[1.0, 0.0]] * 2, [[1.0, 0.0]] * 2]),
                              np.zeros((2, 2)), 0.9, 1.0)
        assert dg._kappa_cap(mdp, np.array([[0.5, 0.5], [0.0, 0.0]])) == 2.0 ** 0.5
        assert dg._kappa_cap(mdp, np.array([[1.0, 0.0], [0.0, 0.0]])) == np.inf


class TestErrorPropagationBound:
    def test_zero_statistical_error(self):
        bound = dg.error_propagation_bound(dg.BoundInputs(0.0, 1.0, 0.9, 10, 1.0))
        assert abs(bound - 4 * 0.9 ** 11 / 0.01) <= 1e-12

    def test_direct_arithmetic(self):
        # 2*phi*gamma*eps/(1-gamma)^2 + 4*gamma^(K+1)*R/(1-gamma)^2
        # = 18.0 + 125.52423843600... for these inputs (recomputed here).
        bound = dg.error_propagation_bound(dg.BoundInputs(0.1, 1.0, 0.9, 10, 1.0))
        expected = 2 * 1.0 * 0.9 * 0.1 / 0.01 + 4 * 0.9 ** 11 * 1.0 / 0.01
        assert abs(bound - expected) <= 1e-12
        assert abs(expected - (18.0 + 125.524238436)) <= 1e-9

    def test_large_horizon_limit(self):
        limit = 2 * 1.0 * 0.9 * 0.1 / 0.01
        bound = dg.error_propagation_bound(dg.BoundInputs(0.1, 1.0, 0.9, 5000, 1.0))
        assert abs(bound - limit) <= 1e-12
        # An exponent past the double range: gamma**(K+1) is 0.0 all the same.
        huge = dg.error_propagation_bound(dg.BoundInputs(0.1, 1.0, 0.9, 10**400, 1.0))
        assert huge == dg.error_propagation_bound(dg.BoundInputs(0.1, 1.0, 0.9, 2**62, 1.0))
        assert abs(huge - limit) <= 1e-12

    def test_monotonicity(self):
        base = dg.BoundInputs(0.1, 1.0, 0.9, 10, 1.0)
        value = dg.error_propagation_bound(base)
        import dataclasses
        assert dg.error_propagation_bound(
            dataclasses.replace(base, eps_max=0.2)) > value
        assert dg.error_propagation_bound(
            dataclasses.replace(base, phi=2.0)) > value
        assert dg.error_propagation_bound(
            dataclasses.replace(base, r_max=2.0)) > value
        assert dg.error_propagation_bound(
            dataclasses.replace(base, iterations=11)) < value

    def test_validation(self):
        with pytest.raises(ValueError):
            dg.BoundInputs(-0.1, 1.0, 0.9, 10, 1.0)
        with pytest.raises(ValueError):
            dg.BoundInputs(0.1, 1.0, 1.0, 10, 1.0)


class TestSuboptimality:
    def test_optimal_policy_is_zero(self, mdp):
        q_star, _ = exact.value_iteration(mdp, tol=1e-12)
        mu = uniform_weights((4, 2))
        gap = dg.suboptimality(mdp, exact.greedy_policy(q_star), mu)
        assert gap <= 1e-7

    def test_two_state_constant_policy_hand_computed(self):
        # Deterministic 2-state chain: action 0 self-loops with reward 0,
        # action 1 moves to the other state with reward 1.
        transition = np.zeros((2, 2, 2))
        transition[0, 0, 0] = 1.0
        transition[0, 1, 1] = 1.0
        transition[1, 0, 1] = 1.0
        transition[1, 1, 0] = 1.0
        reward = np.array([[0.0, 1.0], [0.0, 1.0]])
        mdp2 = envs.TabularMDP(2, 2, transition, reward, 0.5, 1.0)
        # Optimal: always act 1: Q*(s,1) = 1/(1-gamma) = 2, Q*(s,0) = 0 + g*2.
        # Constant policy 0: Q^pi(s,0) = 0, Q^pi(s,1) = 1 + 0.
        mu = uniform_weights((2, 2))
        gap = dg.suboptimality(mdp2, np.array([[1.0, 0.0], [1.0, 0.0]]), mu)
        expected = ((2 * 0.5 - 0.0) + (2.0 - 1.0)) / 2  # mean over cells
        assert abs(gap - expected) <= 1e-9

    def test_nonnegative_for_random_policies(self, mdp):
        rng = np.random.default_rng(2)
        mu = uniform_weights((4, 2))
        for _ in range(10):
            pi = rng.dirichlet(np.ones(2), size=4)
            assert dg.suboptimality(mdp, pi, mu) >= -1e-9


@pytest.fixture(scope="module")
def game():
    return envs.make_random_game(3, 2, 2, 0.9, 1.0, seed=5)


class TestGameSuboptimality:

    def test_equilibrium_policy_is_zero(self, game):
        q_star, _ = exact.nash_value_iteration(game, tol=1e-11)
        joint = exact.equilibrium_joint_policy(game, q_star)
        mu = uniform_weights((3, 2, 2))
        assert dg.suboptimality(game, joint.p1, mu) <= 1e-6

    def test_single_column_reduces_to_mdp(self):
        game = envs.make_random_game(3, 2, 1, 0.9, 1.0, seed=6)
        mu3 = uniform_weights((3, 2, 1))
        mu2 = uniform_weights((3, 2))
        rng = np.random.default_rng(1)
        pi = rng.dirichlet(np.ones(2), size=3)
        flat = envs.joint_action_mdp(game)
        # player two has one action, so its best response is vacuous and the
        # adversarial value equals the plain policy value
        gap_game = dg.suboptimality(game, pi, mu3)
        gap_mdp = dg.suboptimality(flat, pi, mu2)
        assert abs(gap_game - gap_mdp) <= 1e-8

    def test_nonnegative(self, game):
        rng = np.random.default_rng(3)
        mu = uniform_weights((3, 2, 2))
        for _ in range(5):
            pi = rng.dirichlet(np.ones(2), size=3)
            assert dg.suboptimality(game, pi, mu) >= -1e-9


class TestVerifySandwich:
    def test_exact_regression_trace_has_no_violation(self, mdp):
        result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=10,
                                                exact_regression=True,
                                                track_diagnostics=False))
        report = dg.verify_sandwich(mdp, result.q_tables, result.rho_tables)
        assert report.max_violation <= 1e-9
        assert report.holds

    def test_noisy_runs_hold(self):
        noisy = envs.make_random_mdp(4, 2, 0.9, 1.0, seed=9,
                                     reward_noise_halfwidth=0.25)
        for seed in range(20):
            result = fqi.run_fqi(noisy, fqi.FqiConfig(iterations=5,
                                                      n_samples=25, seed=seed,
                                                      track_diagnostics=False))
            report = dg.verify_sandwich(noisy, result.q_tables,
                                        result.rho_tables)
            assert report.max_violation <= 1e-9

    def test_corrupted_trace_detected(self, mdp):
        result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=6, n_samples=30,
                                                seed=1,
                                                track_diagnostics=False))
        tampered = [t.copy() for t in result.q_tables]
        tampered[3] = tampered[3] + 0.05
        report = dg.verify_sandwich(mdp, tampered, result.rho_tables)
        assert report.max_violation > 1e-9

    def test_requires_matching_lengths(self, mdp):
        result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=3, n_samples=10,
                                                seed=0,
                                                track_diagnostics=False))
        with pytest.raises(ValueError):
            dg.verify_sandwich(mdp, result.q_tables, result.rho_tables[:-1])


class TestDiagnosticsTrace:
    def test_monotone_iteration_index_enforced(self):
        trace = dg.DiagnosticsTrace()
        trace.append(dg.IterationRecord(k=0, empirical_mse=1.0))
        trace.append(dg.IterationRecord(k=1, empirical_mse=0.5,
                                        one_step_error_sigma=0.3))
        with pytest.raises(ValueError):
            trace.append(dg.IterationRecord(k=1, empirical_mse=0.2))
        assert trace.eps_max() == 0.3
