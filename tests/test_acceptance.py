"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, none are calibrated at run time.
"""

import copy
import time

import numpy as np

from fittedq import diagnostics as dg
from fittedq import dqn, envs, exact, fqi, matrix_game, runner, serialize
from fittedq.approximators import TrainerConfig, symmetric_init


def report(criterion, passed, detail):
    line = f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'}  {detail}"
    print(line)
    assert passed, line


def uniform_weights(shape):
    return np.full(shape, 1.0 / int(np.prod(shape)))


def polished_fixed_point(mdp):
    """Iterate the backup until it stops moving in floating point, so the
    oracle's own residual is at roundoff level."""
    q, _ = exact.value_iteration(mdp, tol=1e-13)
    for _ in range(200):
        q_next = exact.bellman_optimality(mdp, q)
        if np.array_equal(q_next, q):
            break
        q = q_next
    return q


def test_criterion_01_contraction_and_value_iteration():
    # Ratios are checked down to an error floor of 1e-4: below it the
    # oracle's residual (~1e-14) would dominate the 1e-9 slack.
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_ratio = 0.0
    checked = 0
    for trial in range(20):
        n_states = int(rng.integers(2, 21))
        n_actions = int(rng.integers(2, 5))
        gamma = float(rng.choice([0.8, 0.9, 0.95]))
        mdp = envs.make_random_mdp(n_states, n_actions, gamma, 1.0,
                                   seed=1000 + trial)
        q_star = polished_fixed_point(mdp)
        q = np.zeros((n_states, n_actions))
        err = np.abs(q - q_star).max()
        while err > 1e-4:
            q = exact.bellman_optimality(mdp, q)
            new_err = np.abs(q - q_star).max()
            ratio = new_err / err
            worst_ratio = max(worst_ratio, ratio - gamma)
            checked += 1
            assert ratio <= gamma + 1e-9
            err = new_err
    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0,
           f"error ratios within gamma+1e-9 over {checked} iterations "
           f"(worst excess {worst_ratio:.2e}) on 20 MDPs in {elapsed:.2f}s")


def test_criterion_02_fqi_equals_value_iteration():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(10):
        mdp = envs.make_random_mdp(6, 3, 0.9, 1.0, seed=2000 + trial)
        result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=50,
                                                exact_regression=True,
                                                track_diagnostics=False))
        q = np.zeros((6, 3))
        for k in range(50):
            q = exact.bellman_optimality(mdp, q)
            worst = max(worst, np.abs(result.q_tables[k + 1] - q).max())
    elapsed = time.perf_counter() - start
    report(2, worst <= 1e-9 and elapsed < 10.0,
           f"max deviation from value-iteration iterates {worst:.2e} "
           f"on 10 MDPs in {elapsed:.2f}s")


def test_criterion_03_algorithmic_error_decay():
    start = time.perf_counter()
    worst_excess = -np.inf
    for trial, gamma in enumerate([0.8, 0.9, 0.95, 0.9, 0.8]):
        mdp = envs.make_random_mdp(5, 3, gamma, 1.0, seed=3000 + trial)
        mu = uniform_weights((5, 3))
        result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=30,
                                                exact_regression=True,
                                                mu_weights=mu))
        for record in result.trace.records:
            k = record.k + 1
            bound = 4 * gamma ** (k + 1) * mdp.r_max / (1 - gamma) ** 2
            worst_excess = max(worst_excess, record.suboptimality_1mu - bound)
    elapsed = time.perf_counter() - start
    report(3, worst_excess <= 1e-9 and elapsed < 10.0,
           f"suboptimality within 4*gamma^(K+1)*Rmax/(1-gamma)^2 for all "
           f"K<=30 (worst excess {worst_excess:.2e}) in {elapsed:.2f}s")


def test_criterion_04_error_propagation_sandwich():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        mdp = envs.make_random_mdp(5, 2, 0.9, 1.0, seed=4000 + seed,
                                   reward_noise_halfwidth=0.3)
        result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=6, n_samples=30,
                                                seed=seed,
                                                track_diagnostics=False))
        check = dg.verify_sandwich(mdp, result.q_tables, result.rho_tables)
        worst = max(worst, check.max_violation)
    # negative control: perturb one iterate without updating its residual
    mdp = envs.make_random_mdp(5, 2, 0.9, 1.0, seed=4100,
                               reward_noise_halfwidth=0.3)
    result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=6, n_samples=30, seed=0,
                                            track_diagnostics=False))
    tampered = [t.copy() for t in result.q_tables]
    tampered[3] = tampered[3] + 0.05
    control = dg.verify_sandwich(mdp, tampered, result.rho_tables)
    elapsed = time.perf_counter() - start
    report(4, worst <= 1e-9 and control.max_violation > 1e-9 and elapsed < 20.0,
           f"max violation {worst:.2e} over 20 noisy runs; corrupted trace "
           f"flagged at {control.max_violation:.2e} in {elapsed:.2f}s")


def test_criterion_05_bound_consistency():
    start = time.perf_counter()
    worst_excess = -np.inf
    for trial in range(6):
        gamma = [0.8, 0.9][trial % 2]
        mdp = envs.make_random_mdp(3, 2, gamma, 1.0, seed=5000 + trial,
                                   reward_noise_halfwidth=0.2)
        mu = uniform_weights((3, 2))
        phi = dg.phi_estimate(mdp, mu, mu, m_max=6)
        for seed in range(3):
            result = fqi.run_fqi(mdp, fqi.FqiConfig(iterations=10,
                                                    n_samples=40, seed=seed,
                                                    mu_weights=mu))
            eps_max = result.trace.eps_max()
            k = len(result.trace)
            bound = dg.error_propagation_bound(dg.BoundInputs(
                eps_max, phi.total, gamma, k, mdp.r_max))
            measured = result.trace.records[-1].suboptimality_1mu
            worst_excess = max(worst_excess, measured - bound)
    elapsed = time.perf_counter() - start
    report(5, worst_excess <= 1e-6,
           f"measured suboptimality within the evaluated bound "
           f"(worst excess {worst_excess:.2e}) in {elapsed:.2f}s")


def test_criterion_06_matrix_game_lp():
    start = time.perf_counter()
    rng = np.random.default_rng(601)
    worst_gap = 0.0
    for _ in range(200):
        n_a = int(rng.integers(1, 11))
        n_b = int(rng.integers(1, 11))
        payoff = rng.uniform(-5, 5, size=(n_a, n_b))
        sol = matrix_game.solve(payoff)
        row = matrix_game.best_response_value(payoff, sol.row_strategy, "row")
        col = matrix_game.best_response_value(payoff, sol.col_strategy, "col")
        worst_gap = max(worst_gap, col - row, sol.value - row, col - sol.value)
    pennies = matrix_game.solve([[1.0, -1.0], [-1.0, 1.0]])
    rps = matrix_game.solve([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0],
                             [-1.0, 1.0, 0.0]])
    named_ok = (abs(pennies.value) <= 1e-10
                and np.abs(pennies.row_strategy - 0.5).max() <= 1e-10
                and np.abs(pennies.col_strategy - 0.5).max() <= 1e-10
                and abs(rps.value) <= 1e-10
                and np.abs(rps.row_strategy - 1 / 3).max() <= 1e-10
                and np.abs(rps.col_strategy - 1 / 3).max() <= 1e-10)
    elapsed = time.perf_counter() - start
    report(6, worst_gap <= 1e-8 and named_ok and elapsed < 5.0,
           f"duality gap and exploitability <= {worst_gap:.2e} on 200 "
           f"matrices; named games exact in {elapsed:.2f}s")


def test_criterion_07_minimax_fqi_equals_nash_vi():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(5):
        n_states = int(np.random.default_rng(7000 + trial).integers(2, 6))
        game = envs.make_random_game(n_states, 3, 3, 0.9, 1.0,
                                     seed=7100 + trial)
        result = fqi.run_minimax_fqi(game, fqi.FqiConfig(
            iterations=10, exact_regression=True, track_diagnostics=False))
        q = np.zeros((n_states, 3, 3))
        for k in range(10):
            q = exact.game_bellman_optimality(game, q)
            worst = max(worst, np.abs(result.q_tables[k + 1] - q).max())
    elapsed = time.perf_counter() - start
    report(7, worst <= 1e-8 and elapsed < 30.0,
           f"max deviation from Nash value-iteration iterates {worst:.2e} "
           f"on 5 games in {elapsed:.2f}s")


def test_criterion_08_best_response_dominance():
    start = time.perf_counter()
    rng = np.random.default_rng(801)
    worst_dominance = -np.inf
    worst_equilibrium_gap = 0.0
    for trial in range(50):
        game = envs.make_random_game(3, 2, 2, 0.9, 1.0, seed=8000 + trial)
        q_star, _ = exact.nash_value_iteration(game, tol=1e-11)
        pi = rng.dirichlet(np.ones(2), size=3)
        nu = exact.best_response_policy(game, pi, tol=1e-11)
        q_adv = exact.joint_policy_evaluation(game, pi, nu)
        worst_dominance = max(worst_dominance, (q_adv - q_star).max())
        if trial % 10 == 0:
            joint = exact.equilibrium_joint_policy(game, q_star)
            nu_eq = exact.best_response_policy(game, joint.p1, tol=1e-11)
            q_eq = exact.joint_policy_evaluation(game, joint.p1, nu_eq)
            worst_equilibrium_gap = max(worst_equilibrium_gap,
                                        np.abs(q_eq - q_star).max())
    elapsed = time.perf_counter() - start
    report(8, worst_dominance <= 1e-8 and worst_equilibrium_gap <= 1e-6,
           f"Q^(pi,best-response) <= Q* (worst excess {worst_dominance:.2e}); "
           f"equality at equilibrium within {worst_equilibrium_gap:.2e} "
           f"in {elapsed:.2f}s")


def test_criterion_09_concentration_coefficient():
    mdp = envs.TabularMDP(3, 2, np.full((3, 2, 3), 1 / 3), np.zeros((3, 2)),
                          0.9, 1.0)
    mu = uniform_weights((3, 2))
    kappa_errors = [abs(dg.concentration_coefficient(mdp, mu, mu, m).value
                        - np.sqrt(2.0)) for m in (1, 2, 3)]
    stationary = envs.TabularMDP(4, 1, np.full((4, 1, 4), 0.25),
                                 np.zeros((4, 1)), 0.9, 1.0)
    u = uniform_weights((4, 1))
    stationary_err = abs(dg.concentration_coefficient(stationary, u, u, 2).value
                         - 1.0)
    random_mdp = envs.make_random_mdp(2, 2, 0.9, 1.0, seed=901)
    w = uniform_weights((2, 2))
    exhaustive = dg.concentration_coefficient(random_mdp, w, w, 2).value
    mc = dg.concentration_coefficient(random_mdp, w, w, 2, mode="monte-carlo",
                                      n_sequences=10_000,
                                      rng=np.random.default_rng(0)).value
    ok = (max(kappa_errors) <= 1e-8 and stationary_err <= 1e-10
          and mc <= exhaustive + 1e-12)
    report(9, ok,
           f"kappa=sqrt(2) within {max(kappa_errors):.2e}; stationary kappa=1 "
           f"within {stationary_err:.2e}; monte-carlo {mc:.6f} <= "
           f"exhaustive {exhaustive:.6f}")


def test_criterion_10_projected_sgd_invariants():
    rng = np.random.default_rng(1001)
    net = symmetric_init(64, 3, 2, rng, ball_radius=0.5)
    probe = np.random.default_rng(1)
    init_values = [net.evaluate(probe.uniform(0, 1, 3), int(probe.integers(2)))
                   for _ in range(100)]
    init_zero = all(v == 0.0 for v in init_values)

    from fittedq.approximators import projected_sgd_step
    sample_rng = np.random.default_rng(2)
    max_distance = 0.0
    for _ in range(10_000):
        state = sample_rng.uniform(0, 1, 3)
        action = int(sample_rng.integers(2))
        target = sample_rng.normal(scale=2.0)
        projected_sgd_step(net, (state, action, target), 0.05)
        max_distance = max(max_distance, net.distance_from_anchor())
    ball_ok = max_distance <= net.ball_radius + 1e-12

    # gradient check for the two-layer network
    check = symmetric_init(8, 3, 2, np.random.default_rng(3), ball_radius=5.0)
    check.w = check.w + np.random.default_rng(4).normal(0, 0.05, check.w.shape)
    state = np.random.default_rng(5).uniform(0, 1, 3)
    _, grad = check.value_and_gradient(state, 1)
    h = 1e-6
    fd = np.zeros_like(check.w)
    shifted = copy.deepcopy(check)
    for i in range(check.w.shape[0]):
        for j in range(check.w.shape[1]):
            up = check.w.copy()
            up[i, j] += h
            down = check.w.copy()
            down[i, j] -= h
            shifted.w = up
            f_up = shifted.evaluate(state, 1)
            shifted.w = down
            fd[i, j] = (f_up - shifted.evaluate(state, 1)) / (2 * h)
    rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
    report(10, init_zero and ball_ok and rel <= 1e-5,
           f"init exactly zero on 100 inputs: {init_zero}; ball excess "
           f"{max_distance - net.ball_radius:.2e} over 10k steps; gradient "
           f"rel err {rel:.2e}")


def test_criterion_11_neural_fqi_monotone_improvement():
    start = time.perf_counter()
    model = envs.make_random_continuous_mdp(2, 2, 0.9, 1.0, seed=42)
    medians = []
    for n in (100, 400, 1600):
        errors = []
        for seed in range(10):
            config = fqi.FqiConfig(
                iterations=3, n_samples=n,
                approximator=fqi.ReluSpec(hidden=(32, 32)),
                trainer=TrainerConfig(learning_rate=1e-2, epochs=600),
                seed=seed)
            result = fqi.run_fqi(model, config)
            estimate = dg.monte_carlo_one_step_error(
                result.q_final, result.q_penultimate, model,
                n_points=1500, n_noise=32, rng=np.random.default_rng(1234))
            errors.append(estimate.value)
        medians.append(float(np.median(errors)))
    elapsed = time.perf_counter() - start
    monotone = medians[0] >= medians[1] >= medians[2]
    report(11, monotone and elapsed < 300.0,
           f"median one-step error over 10 seeds non-increasing in n: "
           f"{[round(m, 5) for m in medians]} in {elapsed:.1f}s")


def test_criterion_12_dqn_toy_benchmark():
    start = time.perf_counter()
    grid = envs.make_gridworld(5, 5, (4, 4), -0.04, 1.0, 0.1, 0.9)
    q_star, _ = exact.value_iteration(grid, tol=1e-10)
    start_dist = np.zeros(25)
    start_dist[0] = 1.0
    v_star = float((exact.greedy_policy(q_star) * q_star).sum(axis=1)[0])
    wins = 0
    values = []
    for seed in range(10):
        config = dqn.DqnConfig(total_steps=15_000, minibatch_size=32,
                               epsilon=0.3, target_sync_period=100,
                               learning_rate=0.25, buffer_capacity=10_000,
                               seed=seed, start_distribution=start_dist)
        result = dqn.dqn_train(grid, config)
        value = result.trace.summary["eval_value"]
        values.append(round(value, 4))
        wins += value >= 0.9 * v_star
    elapsed = time.perf_counter() - start
    report(12, wins >= 8 and elapsed < 120.0,
           f"{wins}/10 seeds reach 0.9*V*(start)={0.9 * v_star:.4f}; "
           f"values {values} in {elapsed:.1f}s")


def test_criterion_13_determinism(tmp_path):
    def run(out_dir):
        text = serialize.dumps({
            "command": "run-fqi",
            "model": {"kind": "random-mdp", "n_states": 5, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0, "seed": 13,
                      "reward_noise_halfwidth": 0.2},
            "algorithm": {"iterations": 8, "n_samples": 50},
            "output_dir": str(out_dir),
            "seeds": [0, 1, 2],
        })
        runner.run_experiment(runner.parse_config(text))

    run(tmp_path / "first")
    run(tmp_path / "second")

    def strip_timing(text):
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        keep = [i for i, name in enumerate(header)
                if name not in runner.TIMING_COLUMNS]
        return "\n".join(",".join(line.split(",")[i] for i in keep)
                         for line in lines)

    identical = all(
        strip_timing((tmp_path / "first" / f"trace_seed{s}.csv").read_text())
        == strip_timing((tmp_path / "second" / f"trace_seed{s}.csv").read_text())
        for s in (0, 1, 2))

    first = serialize.load(tmp_path / "first" / "report.json")
    second = serialize.load(tmp_path / "second" / "report.json")
    for doc, base in ((first, tmp_path / "first"), (second, tmp_path / "second")):
        doc.pop("total_wall_ms")
        doc["config"].pop("output_dir")
        doc["per_seed"] = [{k: v for k, v in e.items() if k != "trace_csv"}
                           for e in doc["per_seed"]]
        doc.pop("artifacts")
    report(13, identical and first == second,
           "byte-identical CSV traces (excluding timing columns) and "
           "matching reports across reruns")


def test_criterion_14_minimax_dqn_converges_to_nash_q_star():
    # The paper's §6 Minimax-DQN theorem: the max player's Q-function,
    # learned with stage-game values of a target network as targets,
    # approaches the Nash Q* up to an algorithmic error that shrinks with
    # training and a statistical floor.  Here the floor is set by the
    # constant step size.  The Nash gap of player one's equilibrium policy
    # is reported, not gated on: it does not fall monotonically.
    start = time.perf_counter()
    errors, gaps = [], []
    for seed in (8000, 8001, 8002):
        game = envs.make_random_game(3, 2, 2, 0.9, 1.0, seed=seed,
                                     reward_noise_halfwidth=0.2)
        q_star, _ = exact.optimal_q(game)
        per_game = []
        for steps in (2000, 8000):
            config = dqn.DqnConfig(total_steps=steps, minibatch_size=32,
                                   epsilon=0.3, target_sync_period=100,
                                   learning_rate=0.1, seed=0)
            result = dqn.minimax_dqn_train(game, config, np.full((3, 2), 0.5))
            per_game.append(float(np.abs(result.q_final.values - q_star).max()))
        errors.append(per_game)
        gaps.append(dg.suboptimality(game, result.policy.p1,
                                     uniform_weights((3, 2, 2))))
    elapsed = time.perf_counter() - start
    passed = all(late <= 0.15 and late <= early / 4 for early, late in errors)
    report(14, passed and elapsed < 60.0,
           f"max |Q - Q*| at 2000 -> 8000 steps "
           f"{[(round(e, 3), round(l, 3)) for e, l in errors]}; player one's "
           f"Nash gap at 8000 {[round(g, 4) for g in gaps]} in {elapsed:.1f}s")
