"""The four benchmark workloads and the configs they generate.

A workload turns a workload seed into one ``run-*`` config document, the
same JSON a user hands to ``fittedq run``.  The workload seed derives the
model seed (where the model family has one) and the run seeds; the
program sees only the generated config.  Sizes follow the Baseline
profiles in ROADMAP.md so the two can be cross-checked.

This module imports nothing from numpy or fittedq: the harness process
uses it before any worker starts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 0


def derive(workload_seed, label):
    """A 31-bit seed from (workload seed, label); stable across runs."""
    digest = hashlib.sha256(f"{workload_seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFF_FFFF


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    seeds_per_run: int      # seeds in one runner call (one report.json)
    traced_seeds: int       # leading seeds of that list run under the tracer
    work_per_seed: int      # transitions fitted (FQI) or environment steps (DQN)
    work_unit: str
    gap_source: str         # where result_gap comes from, see worker.result_gaps
    why: str

    def model(self, workload_seed):
        return MODELS[self.name](derive(workload_seed, f"{self.name}/model"))

    def run_seeds(self, workload_seed):
        return [derive(workload_seed, f"{self.name}/run{i}")
                for i in range(self.seeds_per_run)]

    def config(self, workload_seed, output_dir, seeds=None):
        return {
            "command": self.command,
            "model": self.model(workload_seed),
            "algorithm": ALGORITHMS[self.name],
            "output_dir": output_dir,
            "seeds": self.run_seeds(workload_seed) if seeds is None else seeds,
        }


MODELS = {
    "fqi-tabular": lambda seed: {
        "kind": "random-mdp", "n_states": 50, "n_actions": 4, "gamma": 0.9,
        "r_max": 1.0, "seed": seed, "reward_noise_halfwidth": 0.2},
    "minimax-fqi": lambda seed: {
        "kind": "random-game", "n_states": 20, "n_actions": 3, "n_actions2": 3,
        "gamma": 0.9, "r_max": 1.0, "seed": seed, "reward_noise_halfwidth": 0.2},
    # Criterion 12's gridworld has no seed.
    "dqn-gridworld": lambda seed: {
        "kind": "gridworld", "width": 5, "height": 5, "goal": [4, 4],
        "step_reward": -0.04, "goal_reward": 1.0, "slip_prob": 0.1, "gamma": 0.9},
    # Criterion 11's model is fixed at seed 42; only the run seeds vary.
    "relu-fqi": lambda seed: {
        "kind": "random-continuous", "state_dim": 2, "n_actions": 2,
        "gamma": 0.9, "r_max": 1.0, "seed": 42},
}

ALGORITHMS = {
    "fqi-tabular": {"iterations": 20, "n_samples": 2000,
                    "approximator": {"kind": "tabular"},
                    "track_diagnostics": True},
    "minimax-fqi": {"iterations": 10, "n_samples": 1000,
                    "approximator": {"kind": "tabular"},
                    "track_diagnostics": True},
    "dqn-gridworld": {"total_steps": 15_000, "minibatch_size": 32,
                      "epsilon": 0.3, "target_sync_period": 100,
                      "learning_rate": 0.25, "buffer_capacity": 10_000,
                      "start_distribution": [1.0] + [0.0] * 24},
    "relu-fqi": {"iterations": 3, "n_samples": 1600,
                 "approximator": {"kind": "relu", "hidden": [32, 32]},
                 "trainer": {"learning_rate": 1e-2, "epochs": 600}},
}

WORKLOADS = {w.name: w for w in (
    Workload("fqi-tabular", "run-fqi", seeds_per_run=4, traced_seeds=2,
             work_per_seed=20 * 2000, work_unit="transitions",
             gap_source="final_suboptimality_1mu",
             why="per-sample tabular sampler and targets dominate; "
                 "matrix_game is idle, the control for solver changes"),
    Workload("minimax-fqi", "run-minimax-fqi", seeds_per_run=4, traced_seeds=2,
             work_per_seed=10 * 1000, work_unit="transitions",
             gap_source="final_suboptimality_1mu",
             why="matrix_game.solve dominates with many repeated payoffs; "
                 "the sampler share checks sampler changes on games"),
    Workload("dqn-gridworld", "run-dqn", seeds_per_run=2, traced_seeds=1,
             work_per_seed=15_000, work_unit="steps",
             gap_source="eval_value",
             why="one sample, one replay write and 33 table reads per step: "
                 "the one-at-a-time path batched changes must not slow"),
    Workload("relu-fqi", "run-fqi", seeds_per_run=2, traced_seeds=2,
             work_per_seed=3 * 1600, work_unit="transitions",
             gap_source="monte_carlo_one_step_error",
             why="the only workload where ReLU heads and BLAS dominate; "
                 "the tabular layers are idle"),
)}


def expected_calls(workload, config, n_seeds):
    """Span counts the config implies for a traced run of ``n_seeds`` seeds.

    A wrapper installed only where a function is defined, and not where
    another module imported it by name, shows up here as a zero count.
    """
    algo = config["algorithm"]
    if workload.command == "run-dqn":
        steps = algo["total_steps"]
        syncs = steps // algo["target_sync_period"]
        return {
            "envs.sample_transition": n_seeds * steps,
            "dqn.dqn_train": n_seeds,
            "fqi.build_approximator": n_seeds,
            "dqn.ReplayBuffer.push": n_seeds * steps,
            "dqn.ReplayBuffer.sample": n_seeds * steps,
            "dqn.epsilon_greedy_action": n_seeds * steps,
            "approximators.TabularQ.minibatch_step": n_seeds * steps,
            "approximators.TabularQ.clone": n_seeds * (1 + syncs),
            "matrix_game.solve": 0,
            "fqi.compute_targets": 0,
        }
    k, n = algo["iterations"], algo["n_samples"]
    minimax = workload.command == "run-minimax-fqi"
    targets = ["fqi.compute_targets", "fqi.compute_minimax_targets"]
    if minimax:
        targets.reverse()
    counts = {
        "envs.sample_transition": n_seeds * k * n,
        "fqi.build_approximator": n_seeds * k,
        "approximators.fit_least_squares": n_seeds * k,
        targets[0]: n_seeds * k,
        targets[1]: 0,
        "runner.run_single_seed": n_seeds,
        "runner.build_model": n_seeds,
        "runner.emit_report": 1,
        "dqn.dqn_train": 0,
        "approximators.TabularQ.minibatch_step": 0,
    }
    if algo["approximator"]["kind"] == "relu":
        epochs = algo["trainer"]["epochs"]
        heads = config["model"]["n_actions"]
        counts.update({
            "approximators.ReluHead.forward_backward": n_seeds * k * epochs * heads,
            "approximators.enforce_constraints": n_seeds * k * (epochs + 1),
            "matrix_game.solve": 0,
            "approximators.TabularQ.evaluate_all": 0,
        })
    else:
        counts.update({
            "fqi.tabulate": n_seeds * (k + 1),
            "approximators.ReluHead.forward": 0,
        })
        if not minimax:
            counts["matrix_game.solve"] = 0
    return counts
