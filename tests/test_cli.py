import subprocess
import sys

import pytest

from fittedq import envs, runner, serialize
from fittedq.cli import main

MDP = {"kind": "random-mdp", "n_states": 3, "n_actions": 2, "gamma": 0.9, "r_max": 1.0}


# A valid run-fqi config with one number left to fill in: r_max.
NON_FINITE_CONFIG = (b'{"command": "run-fqi", "model": {"kind": "random-mdp", '
                     b'"n_states": 3, "n_actions": 2, "gamma": 0.9, "r_max": %s}, '
                     b'"algorithm": {"iterations": 1}, "output_dir": "out"}')


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(serialize.dumps(doc))
    return path


class TestCli:
    def test_run_fqi_writes_report(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "command": "run-fqi",
            "model": {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0, "seed": 1},
            "algorithm": {"iterations": 2, "n_samples": 10},
            "output_dir": "out",
            "seeds": [0],
        })
        assert main(["run-fqi", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "trace_seed0.csv").exists()

    def test_seed_and_out_overrides(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "run-fqi",
            "model": {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0, "seed": 1},
            "algorithm": {"iterations": 1, "n_samples": 5},
        })
        rc = main(["run-fqi", "--config", str(path),
                   "--out", str(tmp_path / "elsewhere"), "--seeds", "7,8"])
        assert rc == 0
        names = sorted(p.name for p in (tmp_path / "elsewhere").glob("*.csv"))
        assert names == ["trace_seed7.csv", "trace_seed8.csv"]

    def test_invalid_config_exit_code_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "command": "run-fqi",
            "model": {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                      "gamma": 2.0, "r_max": 1.0},
            "algorithm": {"iterations": 1},
        })
        assert main(["run-fqi", "--config", str(path)]) == 1
        assert "gamma" in capsys.readouterr().err

    def test_zero_sgd_steps_exit_code_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "command": "run-fqi-sgd",
            "model": {"kind": "random-continuous", "state_dim": 2, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0},
            "algorithm": {"iterations": 1, "approximator": {"kind": "ntk", "m": 4},
                          "sgd_steps": 0},
            "output_dir": "out",
        })
        assert main(["run-fqi-sgd", "--config", str(path)]) == 1
        assert "algorithm/sgd_steps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_command_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "run-dqn",
            "model": {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0},
            "algorithm": {"total_steps": 1},
        })
        assert main(["run-fqi", "--config", str(path)]) == 1

    @pytest.mark.parametrize("text, config, extra, message", [
        (b"{bad", "config.json", [], "not valid JSON: "),
        (b"\x80{}", "config.json", [], "not valid JSON: "),
        (None, "missing.json", [], "missing.json does not exist"),
        (None, "config.json", ["--seeds", "1,x"],
         "--seeds: '1,x' is not a comma-separated integer list"),
        (None, ".", [], "--config: file "),
        (None, "config.json", ["--jobs", "0"], "--jobs: 0 is not a positive integer"),
        (None, "config.json", ["--jobs", "-1"], "--jobs: -1 is not a positive integer"),
        (NON_FINITE_CONFIG % b"NaN", "config.json", [], "not valid JSON: "),
        (NON_FINITE_CONFIG % b"Infinity", "config.json", [], "not valid JSON: "),
        (NON_FINITE_CONFIG % b"1e999", "config.json", [], "not valid JSON: "),
        (None, "config.json", ["--seeds", "0,0"], "seeds: [0, 0] has non-unique elements"),
    ], ids=["malformed-json", "not-utf8", "missing-file", "non-integer-seed",
            "directory", "zero-jobs", "negative-jobs", "nan-token",
            "infinity-token", "overflowing-number", "repeated-seed"])
    def test_bad_cli_input_exit_code_1(self, tmp_path, capsys, text, config,
                                       extra, message):
        path = write_config(tmp_path, {
            "command": "run-fqi",
            "model": {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0},
            "algorithm": {"iterations": 1},
            "output_dir": "out",
        })
        if text is not None:
            path.write_bytes(text)
        assert main(["run-fqi", "--config", str(tmp_path / config), *extra]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_seeds_in_config_exit_code_1(self, tmp_path, capsys):
        # Each seed writes trace_seed<seed>.csv, so a repeated seed overwrote
        # its own trace and counted twice in the report's medians.
        path = write_config(tmp_path, {
            "command": "run-fqi",
            "model": {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0},
            "algorithm": {"iterations": 1},
            "output_dir": "out",
            "seeds": [0, 0, -1],
        })
        assert main(["run-fqi", "--config", str(path)]) == 1
        assert "seeds: [0, 0, -1] has non-unique elements" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, error", [
        (["diagnose", "kappa", "--seeds", "-1"],
         {"command": "diagnose-kappa", "m": 2, "mode": "monte-carlo", "n_sequences": 10},
         "seeds/0: -1 is less than the minimum of 0"),
        (["run-fqi"],
         {"command": "run-fqi", "algorithm": {"iterations": 1}, "seeds": [2**63]},
         "seeds/0: 9223372036854775808 is greater than the maximum of 9223372036854775807"),
    ], ids=["diagnose-kappa-negative", "run-fqi-past-63-bits"])
    def test_seed_outside_the_stream_range_exit_code_1(self, tmp_path, capsys, command,
                                                       config, error):
        # Seeds were masked to 63 bits, so -1 drew the streams of 2**63 - 1,
        # and Monte-Carlo kappa failed at run time on -1 with exit code 2.
        path = write_config(tmp_path, {
            **config, "model": {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                                "gamma": 0.9, "r_max": 1.0},
            "output_dir": "out"})
        assert main([*command, "--config", str(path)]) == 1
        assert error in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_dqn_relu_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "command": "run-dqn",
            "model": {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0},
            "algorithm": {"total_steps": 10, "approximator": {"kind": "relu"}},
            "output_dir": "out",
        })
        assert main(["run-dqn", "--config", str(path)]) == 1
        assert "algorithm/approximator/kind" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, approximator, where", [
        ({"kind": ["x"]}, {"kind": "tabular"}, "model/kind"),
        ({"kind": "random-mdp", "n_states": 3, "n_actions": 2, "gamma": 0.9,
          "r_max": 1.0}, {"kind": [1]}, "algorithm/approximator/kind"),
    ], ids=["model", "approximator"])
    def test_kind_that_is_not_a_string_exit_code_1(self, tmp_path, capsys, model,
                                                   approximator, where):
        path = write_config(tmp_path, {
            "command": "run-fqi", "model": model, "output_dir": "out",
            "algorithm": {"iterations": 1, "approximator": approximator},
        })
        assert main(["run-fqi", "--config", str(path)]) == 1
        assert f"{where}: unknown kind" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_runtime_failure_exit_code_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "command": "run-dqn", "model": MDP,
            "algorithm": {"total_steps": 2, "learning_rate": 1.7e308,
                          "target_sync_period": 1},
            "output_dir": "out",
        })
        assert main(["run-dqn", "--config", str(path)]) == 2
        assert "Q table diverged at step 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-fqi", "run-minimax-fqi", "diagnose-sandwich"])
    def test_zero_weight_with_full_support_exit_code_1(self, tmp_path, capsys, command):
        # Each of these passed parsing, then failed every seed with "sampling
        # weights lack full support" (exit 2).
        model = (MDP if command != "run-minimax-fqi" else
                 {"kind": "random-game", "n_states": 3, "n_actions": 2, "n_actions2": 1,
                  "gamma": 0.9, "r_max": 1.0})
        sampling = {"kind": "explicit-weights", "weights": [0.0] + [0.2] * 5,
                    "require_full_support": True}
        path = write_config(tmp_path, {
            "command": command, "model": model, "output_dir": "out",
            "algorithm": {"iterations": 1, "n_samples": 5, "sampling": sampling},
        })
        args = ["diagnose", "sandwich"] if command == "diagnose-sandwich" else [command]
        assert main([*args, "--config", str(path)]) == 1
        assert ("algorithm/sampling/weights: require_full_support is true, but a "
                "weight is 0") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_fqi_on_a_game_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "command": "run-fqi",
            "model": {"kind": "random-game", "n_states": 2, "n_actions": 2,
                      "n_actions2": 2, "gamma": 0.9, "r_max": 1.0},
            "algorithm": {"iterations": 1},
            "output_dir": "out",
        })
        assert main(["run-fqi", "--config", str(path)]) == 1
        assert ("model/kind: run-fqi needs a tabular MDP or a continuous MDP, "
                "got 'random-game'") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_solve_matrix_payoff_file(self, tmp_path, capsys):
        payoff = tmp_path / "payoff.json"
        payoff.write_text("[[3.0, 1.0], [0.0, 2.0]]\n")
        rc = main(["solve-matrix", "--payoff", str(payoff),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1.5" in out

    @pytest.mark.parametrize("payoff", [[[1, "a"]], [], [[1, 2], [3]], [[]], [[True]]],
                             ids=["string", "empty", "ragged", "empty-row", "boolean"])
    @pytest.mark.parametrize("inline", [True, False], ids=["payoff", "payoff_path"])
    def test_solve_matrix_bad_payoff_exit_code_1(self, tmp_path, capsys, payoff, inline):
        if inline:
            path = write_config(tmp_path, {"command": "solve-matrix", "payoff": payoff,
                                           "output_dir": "out"})
            args = ["--config", str(path)]
        else:
            args = ["--payoff", str(write_config(tmp_path, payoff, "payoff.json")),
                    "--out", "out"]
        assert main(["solve-matrix", *args]) == 1
        where = "payoff" if inline else "payoff_path"
        assert (f"{where}: expected a nonempty rectangular 2-D array of numbers"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("inline", [True, False], ids=["payoff", "payoff_path"])
    def test_solve_matrix_payoff_beyond_double_range_exit_code_1(self, tmp_path, capsys,
                                                                 inline):
        payoff = [[1.0, 10**400], [0.0, 2.0]]
        if inline:
            path = write_config(tmp_path, {"command": "solve-matrix", "payoff": payoff,
                                           "output_dir": "out"})
            args = ["--config", str(path)]
        else:
            args = ["--payoff", str(write_config(tmp_path, payoff, "payoff.json")),
                    "--out", "out"]
        assert main(["solve-matrix", *args]) == 1
        where = "payoff" if inline else "payoff_path"
        assert (f"{where}: expected a nonempty rectangular 2-D array of numbers that fit "
                "in a double" in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("inline", [True, False], ids=["payoff", "payoff_path"])
    def test_solve_matrix_payoff_range_past_a_double_exit_code_1(self, tmp_path, capsys,
                                                                  inline):
        # Each entry fits, but solve's shift by 1 - min would overflow.
        payoff = [[1e308, -1e308], [-1e308, 1e308]]
        if inline:
            path = write_config(tmp_path, {"command": "solve-matrix", "payoff": payoff,
                                           "output_dir": "out"})
            args = ["--config", str(path)]
        else:
            args = ["--payoff", str(write_config(tmp_path, payoff, "payoff.json")),
                    "--out", "out"]
        assert main(["solve-matrix", *args]) == 1
        where = "payoff" if inline else "payoff_path"
        assert (f"{where}: payoff range max - min + 1 overflows a double"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payoff, gap", [([[1e307, -1e307], [-1e307, 1e307]], "0.000e+00"),
                                             ([[3e15, -1e16], [-2e16, 5e15]], "1.500e+16")],
                             ids=["roundoff-value", "roundoff-gap"])
    @pytest.mark.parametrize("inline", [True, False], ids=["payoff", "payoff_path"])
    def test_solve_matrix_uncertified_payoff_exit_code_1(self, tmp_path, capsys, payoff, gap,
                                                         inline):
        # Each range fits, but the simplex's roundoff fails the solution check.
        if inline:
            path = write_config(tmp_path, {"command": "solve-matrix", "payoff": payoff,
                                           "output_dir": "out"})
            args = ["--config", str(path)]
        else:
            args = ["--payoff", str(write_config(tmp_path, payoff, "payoff.json")),
                    "--out", "out"]
        assert main(["solve-matrix", *args]) == 1
        where = "payoff" if inline else "payoff_path"
        err = capsys.readouterr().err
        assert f"{where}: solution check failed: gap={gap}" in err
        assert "not certified at tol 1e-08, so a larger tol may accept it" in err
        assert not (tmp_path / "out").exists()
        loose = write_config(tmp_path, {"command": "solve-matrix", "payoff": payoff,
                                        "tol": 1e292, "output_dir": "out"}, "loose.json")
        assert main(["solve-matrix", "--config", str(loose)]) == 0

    @pytest.mark.parametrize("command, algorithm", [("run-dqn", {"total_steps": 1}),
                                                    ("solve-exact", None)],
                             ids=["run-dqn", "solve-exact"])
    @pytest.mark.parametrize("goal", [[5, 5], [-1, 0], [0, 3]],
                             ids=["beyond", "negative", "past-last-row"])
    def test_gridworld_goal_off_the_grid_exit_code_1(self, tmp_path, capsys, command,
                                                     algorithm, goal):
        doc = {"command": command,
               "model": {"kind": "gridworld", "width": 3, "height": 3, "goal": goal,
                         "step_reward": -0.1, "goal_reward": 1.0, "slip_prob": 0.1,
                         "gamma": 0.9},
               "output_dir": "out"}
        if algorithm is not None:
            doc["algorithm"] = algorithm
        assert main([command, "--config", str(write_config(tmp_path, doc))]) == 1
        assert (f"model/goal: cell {goal} lies outside the 3x3 grid"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_diagnose_bound(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "command": "diagnose-bound",
            "eps_max": 0.0, "phi": 1.0, "gamma": 0.9, "iterations": 10,
            "r_max": 1.0, "output_dir": str(tmp_path / "out"),
        })
        assert main(["diagnose", "bound", "--config", str(path)]) == 0
        assert "bound" in capsys.readouterr().out

    def test_diagnose_bound_with_iterations_past_a_double(self, tmp_path):
        # gamma**(K+1) is 0.0 there; the bound is its statistical term alone.
        path = write_config(tmp_path, {
            "command": "diagnose-bound", "eps_max": 0.1, "phi": 1.0, "gamma": 0.5,
            "iterations": 10**400, "r_max": 1.0, "output_dir": "out"})
        assert main(["diagnose", "bound", "--config", str(path)]) == 0
        assert serialize.load(tmp_path / "out" / "report.json")["result"] == {"bound": 0.4}

    def test_diagnose_bound_that_overflows_exit_code_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "command": "diagnose-bound", "eps_max": 1e308, "phi": 1e308, "gamma": 0.9,
            "iterations": 10, "r_max": 1.0, "output_dir": "out"})
        assert main(["diagnose", "bound", "--config", str(path)]) == 1
        assert ("<root>: the error-propagation bound overflows a double"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_run_dqn_subcommand(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "run-dqn",
            "model": {"kind": "gridworld", "width": 2, "height": 2,
                      "goal": [1, 1], "step_reward": -0.1, "goal_reward": 1.0,
                      "slip_prob": 0.0, "gamma": 0.9},
            "algorithm": {"total_steps": 50, "minibatch_size": 4},
            "output_dir": "out",
            "seeds": [0],
        })
        assert main(["run-dqn", "--config", str(path)]) == 0
        header = (tmp_path / "out" / "trace_seed0.csv").read_text().splitlines()[0]
        assert header == "t,loss,epsilon,synced,eval_value"

    def test_sweep_subcommand(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "sweep",
            "parameter": "algorithm.n_samples",
            "values": [5, 20],
            "experiment": {
                "command": "run-fqi",
                "model": {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                          "gamma": 0.9, "r_max": 1.0, "seed": 1},
                "algorithm": {"iterations": 2, "n_samples": 5},
            },
            "output_dir": "sweep_out",
            "seeds": [0, 1],
        })
        assert main(["sweep", "--config", str(path)]) == 0
        from fittedq import serialize as ser
        doc = ser.load(tmp_path / "sweep_out" / "report.json")
        assert [entry["value"] for entry in doc["sweep"]] == [5, 20]

    @pytest.mark.parametrize("parameter, value, command, algorithm", [
        ("algorithm.n_samples", 0, "run-fqi", {"iterations": 1}),
        ("algorithm.eval_period", 5, "run-minimax-dqn", {"total_steps": 10}),
    ], ids=["rejected-value", "ignored-field"])
    def test_sweep_values_are_validated(self, tmp_path, capsys, parameter,
                                        value, command, algorithm):
        model = ({"kind": "matching-pennies"} if command == "run-minimax-dqn"
                 else {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                       "gamma": 0.9, "r_max": 1.0})
        path = write_config(tmp_path, {
            "command": "sweep",
            "parameter": parameter,
            "values": [value],
            "experiment": {"command": command, "model": model,
                           "algorithm": algorithm},
            "output_dir": "out",
        })
        assert main(["sweep", "--config", str(path)]) == 1
        assert f"values/0/{parameter.replace('.', '/')}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("diagnostic", ["kappa", "phi", "subopt", "sandwich"])
    def test_mdp_diagnostics_reject_games(self, tmp_path, capsys, diagnostic):
        path = write_config(tmp_path, {
            "command": f"diagnose-{diagnostic}",
            "model": {"kind": "matching-pennies"},
            **{"kappa": {"m": 1}, "phi": {"m_max": 1},
               "subopt": {"policy": [[0.5, 0.5]]},
               "sandwich": {"algorithm": {"iterations": 1}}}[diagnostic],
        })
        assert main(["diagnose", diagnostic, "--config", str(path)]) == 1
        assert "model/kind: " in capsys.readouterr().err

    def test_sampling_weights_of_wrong_length(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "command": "run-fqi",
            "model": {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0},
            "algorithm": {"iterations": 1, "sampling": {
                "kind": "explicit-weights", "weights": [0.5, 0.5]}},
        })
        assert main(["run-fqi", "--config", str(path)]) == 1
        assert ("algorithm/sampling/weights: expected 6 entries, got 2"
                in capsys.readouterr().err)

    def test_run_dqn_rejects_opponent_policy(self, tmp_path, capsys):
        experiment = {
            "command": "run-dqn",
            "model": {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0},
            "algorithm": {"total_steps": 10, "opponent_policy": [[1.0]]},
            "output_dir": "out",
        }
        path = write_config(tmp_path, experiment)
        assert main(["run-dqn", "--config", str(path)]) == 1
        assert "algorithm/opponent_policy: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # A sweep re-parses the default-filled experiment, which carries
        # the default value.
        del experiment["algorithm"]["opponent_policy"]
        runner.parse_config(serialize.dumps({
            "command": "sweep", "parameter": "algorithm.total_steps",
            "values": [5, 10], "experiment": experiment}))

    def test_minimax_dqn_opponent_policy_is_player_twos(self, tmp_path, capsys):
        # On a 2x3 game player two has 3 actions: the policy is (S, B).
        def run(opponent_policy):
            path = write_config(tmp_path, {
                "command": "run-minimax-dqn",
                "model": {"kind": "random-game", "n_states": 2, "n_actions": 2,
                          "n_actions2": 3, "gamma": 0.9, "r_max": 1.0},
                "algorithm": {"total_steps": 20, "minibatch_size": 4,
                              "opponent_policy": opponent_policy},
                "output_dir": "out",
            })
            return main(["run-minimax-dqn", "--config", str(path)])

        assert run([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]]) == 0
        assert run([[0.5, 0.5], [0.5, 0.5]]) == 1
        assert ("algorithm/opponent_policy: expected an array of shape (2, 3)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("model, sampling, where", [
        ({"kind": "random-mdp", "n_states": 3, "n_actions": 2, "gamma": 0.9,
          "r_max": 1.0}, {"kind": "explicit-weights"},
         "algorithm/sampling/weights"),
        ({"kind": "random-continuous", "state_dim": 2, "n_actions": 2,
          "gamma": 0.9, "r_max": 1.0},
         {"kind": "explicit-weights", "weights": [0.5, 0.5]},
         "algorithm/sampling/kind"),
        ({"kind": "random-game", "n_states": 2, "n_actions": 2, "n_actions2": 2,
          "gamma": 0.9, "r_max": 1.0}, {"kind": "on-policy-mixture"},
         "algorithm/sampling/kind"),
        ({"kind": "matching-pennies"}, {"kind": "on-policy-mixture"},
         "algorithm/sampling/kind"),
    ], ids=["weights-missing", "weights-on-continuous", "mixture-on-random-game",
            "mixture-on-matching-pennies"])
    def test_sampling_the_model_cannot_use(self, tmp_path, capsys, model,
                                           sampling, where):
        command = ("run-minimax-fqi" if model["kind"] in ("random-game",
                                                          "matching-pennies")
                   else "run-fqi")
        approximator = {"kind": ("relu" if model["kind"] == "random-continuous"
                                 else "tabular")}
        path = write_config(tmp_path, {
            "command": command, "model": model, "output_dir": "out",
            "algorithm": {"iterations": 1, "n_samples": 4, "sampling": sampling,
                          "approximator": approximator},
        })
        assert main([command, "--config", str(path)]) == 1
        assert f"{where}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("diagnostic, field", [
        ("kappa", "mu"), ("kappa", "sigma"), ("phi", "mu"), ("phi", "sigma"),
        ("subopt", "mu")])
    def test_diagnostic_weights_of_wrong_length(self, tmp_path, capsys,
                                                diagnostic, field):
        path = write_config(tmp_path, {
            "command": f"diagnose-{diagnostic}",
            "model": {"kind": "random-mdp", "n_states": 2, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0},
            field: [0.5, 0.5],
            **{"kappa": {"m": 1}, "phi": {"m_max": 1},
               "subopt": {"policy": [[1.0, 0.0], [1.0, 0.0]]}}[diagnostic],
        })
        assert main(["diagnose", diagnostic, "--config", str(path)]) == 1
        assert f"{field}: expected 4 entries, got 2" in capsys.readouterr().err

    def test_sweep_repeated_values_exit_code_1(self, tmp_path, capsys):
        # Both runs of a repeated value wrote to one directory, and report.json
        # listed each of their traces twice.
        path = write_config(tmp_path, {
            "command": "sweep", "parameter": "algorithm.n_samples", "values": [5, 5],
            "experiment": {"command": "run-fqi", "model": MDP,
                           "algorithm": {"iterations": 1}},
            "output_dir": "out", "seeds": [0, 1],
        })
        assert main(["sweep", "--config", str(path)]) == 1
        assert "values: [5, 5] has non-unique elements" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, error", [
        ({"command": "diagnose-kappa", "m": 1, "n_sequences": 50},
         'n_sequences: diagnose-kappa does not use n_sequences with mode "exhaustive"'),
        ({"command": "diagnose-kappa", "m": 1, "seeds": [3]},
         'seeds: diagnose-kappa does not use seeds with mode "exhaustive"'),
        ({"command": "diagnose-phi", "m_max": 1, "seeds": [3]},
         'seeds: diagnose-phi does not use seeds with mode "exhaustive"'),
        ({"command": "diagnose-bound", "eps_max": 0.0, "phi": 1.0, "gamma": 0.9,
          "iterations": 1, "r_max": 1.0, "seeds": [3]},
         "seeds: diagnose-bound does not use seeds;"),
        ({"command": "diagnose-subopt", "policy": [[1.0, 0.0]] * 3, "seeds": [3]},
         "seeds: diagnose-subopt does not use seeds;"),
        ({"command": "solve-exact", "seeds": [3]}, "seeds: solve-exact does not use seeds;"),
        ({"command": "solve-matrix", "payoff": [[1.0]], "seeds": [3]},
         "seeds: solve-matrix does not use seeds;"),
        ({"command": "diagnose-sandwich", "algorithm": {"iterations": 1}, "seeds": [0, 1]},
         "seeds: [0, 1] is too long"),
        ({"command": "diagnose-kappa", "m": 1, "mode": "monte-carlo", "seeds": [0, 1]},
         "seeds: [0, 1] is too long"),
        ({"command": "diagnose-phi", "m_max": 1, "mode": "monte-carlo", "seeds": [0, 1]},
         "seeds: [0, 1] is too long"),
    ], ids=["kappa-exhaustive-n-sequences", "kappa-exhaustive-seeds",
            "phi-exhaustive-seeds", "bound-seeds", "subopt-seeds", "solve-exact-seeds",
            "solve-matrix-seeds", "sandwich-two-seeds", "kappa-monte-carlo-two-seeds",
            "phi-monte-carlo-two-seeds"])
    def test_field_the_command_ignores_exit_code_1(self, tmp_path, capsys, config, error):
        # Each of these exited 0: the command read no seed or n_sequences,
        # or read seeds[0] alone.
        command = config["command"]
        doc = {**config, "output_dir": "out"}
        if command not in ("diagnose-bound", "solve-matrix"):
            doc["model"] = MDP
        args = (["diagnose", command.removeprefix("diagnose-")]
                if command.startswith("diagnose-") else [command])
        assert main([*args, "--config", str(write_config(tmp_path, doc))]) == 1
        assert error in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_model_file_in_utf16_runs(self, tmp_path):
        # A UTF-16 config parsed, but a UTF-16 model file it named failed every
        # seed: 'utf-8' codec can't decode byte 0xff.
        envs.save_model(envs.make_random_mdp(3, 2, 0.9, 1.0), tmp_path / "model.json")
        model = tmp_path / "model.json"
        model.write_text(model.read_text(encoding="utf-8"), encoding="utf-16")
        path = write_config(tmp_path, {
            "command": "run-fqi", "model": {"path": "model.json"},
            "algorithm": {"iterations": 1, "n_samples": 5}, "output_dir": "out",
        })
        assert main(["run-fqi", "--config", str(path)]) == 0
        report = serialize.load(tmp_path / "out" / "report.json")
        assert [entry["status"] for entry in report["per_seed"]] == ["ok"]

    def test_payoff_file_in_utf16_is_read(self, tmp_path, capsys):
        payoff = tmp_path / "payoff.json"
        payoff.write_text("[[3.0, 1.0], [0.0, 2.0]]\n", encoding="utf-16")
        assert main(["solve-matrix", "--payoff", str(payoff),
                     "--out", str(tmp_path / "out")]) == 0
        assert serialize.loads(capsys.readouterr().out.splitlines()[0])["value"] == 1.5

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "fittedq.cli", "--help"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "solve-exact" in result.stdout
