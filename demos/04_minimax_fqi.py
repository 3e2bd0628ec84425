"""Minimax fitted Q-iteration on a zero-sum Markov game.

Targets solve a matrix game at every sampled next state; with exact
regression the iterates reproduce Nash value iteration, and the final
equilibrium joint policy is unexploitable: the opponent's best response
cannot push player one below the minimax value.
"""

import numpy as np

from fittedq import diagnostics, envs, exact, fqi

game = envs.make_random_game(n_states=4, n_actions=2, n_actions2=3,
                             gamma=0.9, r_max=1.0, seed=5)
print(f"game: {game.n_states} states, {game.n_actions_p1}x{game.n_actions_p2} "
      f"joint actions, gamma={game.gamma}")

q_star, iterations = exact.nash_value_iteration(game, tol=1e-10)
print(f"Nash value iteration: {iterations} iterations")

result = fqi.run_minimax_fqi(game, fqi.FqiConfig(iterations=10,
                                                 exact_regression=True,
                                                 track_diagnostics=False))
q = np.zeros((4, 2, 3))
worst = 0.0
for k in range(10):
    q = exact.game_bellman_optimality(game, q)
    worst = max(worst, np.abs(result.q_tables[k + 1] - q).max())
print(f"max deviation from Nash-VI iterates over 10 steps: {worst:.2e}")

joint = exact.equilibrium_joint_policy(game, result.q_tables[-1])
print("\nequilibrium joint policy at the final iterate (state 0):")
print(f"  player one mixes {np.round(joint.p1[0], 4)}")
print(f"  player two mixes {np.round(joint.p2[0], 4)}")

mu = np.full((4, 2, 3), 1.0 / 24)
gap = diagnostics.suboptimality(game, joint.p1, mu)
print(f"\nexploitability of player one's policy ||Q* - Q^(pi,best response)||"
      f"_(1,mu) = {gap:.2e}")

print("\nbest-response dominance for a deliberately bad policy:")
lazy = np.zeros((4, 2))
lazy[:, 0] = 1.0
gap_lazy = diagnostics.suboptimality(game, lazy, mu)
print(f"  always playing action 0 concedes {gap_lazy:.6f}")
