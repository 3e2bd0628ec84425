"""Online DQN with experience replay and a periodic target network.

A tabular Q-network learns a slippery gridworld from single transitions:
act epsilon-greedily, store into the replay ring, regress a uniform
minibatch toward targets from the frozen network, and sync the frozen
copy every ``target_sync_period`` steps.  The exact solver provides the
yardstick V*.
"""

import numpy as np

from fittedq import dqn, envs, exact

grid = envs.make_gridworld(width=5, height=5, goal=(4, 4),
                           step_reward=-0.04, goal_reward=1.0,
                           slip_prob=0.1, gamma=0.9)
start = np.zeros(25)
start[0] = 1.0

q_star, _ = exact.value_iteration(grid, tol=1e-10)
v_star = float((exact.greedy_policy(q_star) * q_star).sum(axis=1)[0])
print(f"5x5 gridworld, start at (0,0): V*(start) = {v_star:.4f}")

config = dqn.DqnConfig(total_steps=15_000, minibatch_size=32, epsilon=0.3,
                       target_sync_period=100, learning_rate=0.25,
                       buffer_capacity=10_000, seed=0,
                       start_distribution=start, eval_period=3000)
result = dqn.dqn_train(grid, config)

print(f"\ntrained for {config.total_steps} steps "
      f"({result.sync_count} target syncs)")
print("periodic greedy-policy evaluations:")
for record in result.step_records:
    if record.eval_value is not None:
        print(f"  t={record.t:6d}: start-state value {record.eval_value:.4f}")
final = result.trace.summary["eval_value"]
print(f"\nfinal greedy policy start value: {final:.4f} "
      f"({final / v_star:.1%} of optimal)")

print("\ngreedy action per cell (rows are y, G marks the absorbing goal):")
arrows = {0: "^", 1: "v", 2: ">", 3: "<"}
for y in range(5):
    row = "".join("G" if (x, y) == (4, 4)
                  else arrows[int(np.argmax(result.policy[y * 5 + x]))]
                  for x in range(5))
    print(f"  {row}")
