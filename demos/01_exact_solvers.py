"""Exact tabular machinery: models, Bellman operators, value iteration.

Builds a random MDP and a small gridworld, solves both exactly, and shows
the two facts everything else in the library leans on: the optimality
backup is a gamma-contraction, and its fixed point is the optimal
action-value function.
"""

import numpy as np

from fittedq import envs, exact

mdp = envs.make_random_mdp(n_states=8, n_actions=3, gamma=0.9, r_max=1.0,
                           seed=7)
print(f"random MDP: {mdp.n_states} states, {mdp.n_actions} actions, "
      f"gamma={mdp.gamma}")

q_star, iterations = exact.value_iteration(mdp, tol=1e-10)
residual = np.abs(exact.bellman_optimality(mdp, q_star) - q_star).max()
print(f"value iteration: {iterations} iterations, "
      f"fixed-point residual {residual:.2e}")

print("\ncontraction of the optimality backup on random Q pairs:")
rng = np.random.default_rng(0)
for _ in range(5):
    q1, q2 = rng.normal(size=(2, 8, 3))
    before = np.abs(q1 - q2).max()
    after = np.abs(exact.bellman_optimality(mdp, q1)
                   - exact.bellman_optimality(mdp, q2)).max()
    print(f"  ||Q1-Q2||={before:.4f}  ->  ||TQ1-TQ2||={after:.4f}  "
          f"(ratio {after / before:.3f} <= gamma={mdp.gamma})")

print("\nper-iteration convergence is linear at rate gamma:")
q = np.zeros((8, 3))
err = np.abs(q - q_star).max()
for k in range(1, 6):
    q = exact.bellman_optimality(mdp, q)
    new_err = np.abs(q - q_star).max()
    print(f"  k={k}: ||Q_k - Q*|| = {new_err:.6f} (ratio {new_err / err:.3f})")
    err = new_err

print("\ngreedy policy of Q* evaluated exactly recovers Q*:")
policy = exact.greedy_policy(q_star)
q_pi = exact.policy_evaluation(mdp, policy)
print(f"  ||Q^pi - Q*|| = {np.abs(q_pi - q_star).max():.2e}")
print(f"  ||T^pi Q^pi - Q^pi|| = "
      f"{np.abs(exact.bellman_policy(mdp, q_pi, policy) - q_pi).max():.2e}")

print("\ntwo-cell gridworld sanity check (goal pays 1 on arrival):")
grid = envs.make_gridworld(width=2, height=1, goal=(1, 0),
                           step_reward=-0.1, goal_reward=1.0,
                           slip_prob=0.0, gamma=0.9)
q_grid, _ = exact.value_iteration(grid, tol=1e-12)
east = envs.GRID_ACTIONS.index((1, 0))
print(f"  Q*((0,0), east) = {q_grid[0, east]:.6f} (expected 1.0)")
print(f"  greedy action at (0,0): "
      f"{['N', 'S', 'E', 'W'][int(np.argmax(q_grid[0]))]}")
