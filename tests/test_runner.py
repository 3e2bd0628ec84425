import concurrent.futures
import inspect
import itertools

import numpy as np
import pytest

from fittedq import diagnostics, dqn, envs, exact, fqi, runner, serialize
from fittedq.rng import MAX_SEED, rng_stream, stream_key


def fqi_config_text(out_dir, seeds=(0, 1, 2), noise=0.1, iterations=5):
    return serialize.dumps({
        "command": "run-fqi",
        "model": {"kind": "random-mdp", "n_states": 4, "n_actions": 2,
                  "gamma": 0.9, "r_max": 1.0, "seed": 3,
                  "reward_noise_halfwidth": noise},
        "algorithm": {"iterations": iterations, "n_samples": 40},
        "output_dir": str(out_dir),
        "seeds": list(seeds),
    })


def strip_timing(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header)
            if name not in runner.TIMING_COLUMNS]
    return "\n".join(",".join(line.split(",")[i] for i in keep)
                     for line in lines)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        config = runner.parse_config(fqi_config_text(tmp_path))
        algo = config.document["algorithm"]
        assert algo["approximator"] == {"kind": "tabular"}
        assert algo["trainer"]["learning_rate"] == 1e-2
        assert algo["sampling"]["kind"] == "uniform-state-action"
        assert config.document["seeds"] == [0, 1, 2]

    def test_all_violations_reported_with_paths(self):
        text = serialize.dumps({
            "command": "run-fqi",
            "model": {"kind": "random-mdp", "n_states": 4, "n_actions": 2,
                      "gamma": 1.2, "r_max": 1.0, "bogus": 1},
            "algorithm": {"iterations": -3},
            "seeds": [],
        })
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text)
        messages = "\n".join(info.value.errors)
        assert "model/gamma" in messages
        assert "bogus" in messages
        assert "algorithm/iterations" in messages
        assert "seeds" in messages
        assert len(info.value.errors) >= 4

    @pytest.mark.parametrize("gamma", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_rejected(self, tmp_path, gamma):
        text = fqi_config_text(tmp_path).replace('"gamma": 0.90000000000000002',
                                                 f'"gamma": {gamma}')
        assert gamma in text
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text)
        assert info.value.errors[0].startswith("not valid JSON: ")

    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = serialize.loads(fqi_config_text(tmp_path))
        doc["surprise"] = 1
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(serialize.dumps(doc))
        assert any("surprise" in e for e in info.value.errors)

    def test_non_object_model_and_approximator_reported_once(self):
        text = serialize.dumps({"command": "run-fqi", "model": 5,
                                "algorithm": {"iterations": 1, "approximator": 7}})
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text)
        assert sorted(info.value.errors) == [
            "algorithm/approximator: 7 is not of type 'object'",
            "model: 5 is not of type 'object'"]

    def test_unknown_command_rejected(self):
        with pytest.raises(runner.ConfigError):
            runner.parse_config('{"command": "run-everything"}')

    def test_changing_a_parsed_document_leaves_the_defaults_alone(self):
        text = serialize.dumps({"command": "run-fqi", "model": {
            "kind": "random-continuous", "state_dim": 2, "n_actions": 2, "gamma": 0.9,
            "r_max": 1.0}, "algorithm": {"iterations": 1, "approximator": {"kind": "relu"}}})
        first = runner.parse_config(text).document
        first["seeds"].append(7)
        first["algorithm"]["approximator"]["hidden"][0] = 5
        second = runner.parse_config(text).document
        assert second["seeds"] == [0]
        assert second["algorithm"]["approximator"]["hidden"] == [32, 32]

    def test_round_trip_idempotent(self, tmp_path):
        first = runner.parse_config(fqi_config_text(tmp_path))
        second = runner.parse_config(serialize.dumps(first.document))
        assert first.document == second.document

    def test_missing_model_file_reported(self, tmp_path):
        text = serialize.dumps({
            "command": "run-fqi",
            "model": {"path": "missing.json"},
            "algorithm": {"iterations": 1},
        })
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text, base_dir=tmp_path)
        assert any("does not exist" in e for e in info.value.errors)

    def test_model_file_accepted(self, tmp_path):
        envs.save_model(envs.make_random_mdp(3, 2, 0.9, 1.0, seed=1),
                        tmp_path / "m.json")
        text = serialize.dumps({
            "command": "run-fqi",
            "model": {"path": "m.json"},
            "algorithm": {"iterations": 1},
            "output_dir": str(tmp_path / "out"),
        })
        config = runner.parse_config(text, base_dir=tmp_path)
        report = runner.run_experiment(config)
        assert report.per_seed[0]["status"] == "ok"

    @pytest.mark.parametrize("command", ["run-dqn", "run-minimax-dqn"])
    def test_online_engines_reject_non_tabular_approximator(self, command):
        model = ({"kind": "gridworld", "width": 2, "height": 2, "goal": [1, 1],
                  "step_reward": -0.1, "goal_reward": 1.0, "slip_prob": 0.0,
                  "gamma": 0.9}
                 if command == "run-dqn" else {"kind": "matching-pennies"})
        text = serialize.dumps({
            "command": command,
            "model": model,
            "algorithm": {"total_steps": 10, "approximator": {"kind": "relu"}},
        })
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text)
        assert info.value.errors == [
            f"algorithm/approximator/kind: {command} supports only 'tabular', "
            "got 'relu'"]

    @pytest.mark.parametrize("field", ["eval_period", "max_episode_steps"])
    def test_minimax_dqn_rejects_fields_it_does_not_implement(self, field):
        text = serialize.dumps({
            "command": "run-minimax-dqn",
            "model": {"kind": "matching-pennies"},
            "algorithm": {"total_steps": 10, field: 5},
        })
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text)
        assert len(info.value.errors) == 1
        assert info.value.errors[0].startswith(f"algorithm/{field}: ")


    @pytest.mark.parametrize("model, command, cells", [
        ({"kind": "random-mdp", "n_states": 3, "n_actions": 2, "gamma": 0.9,
          "r_max": 1.0}, "run-fqi", 6),
        ({"kind": "gridworld", "width": 2, "height": 3, "goal": [1, 2],
          "step_reward": -0.1, "goal_reward": 1.0, "slip_prob": 0.1,
          "gamma": 0.9}, "run-fqi", 24),
        ({"kind": "random-game", "n_states": 2, "n_actions": 2,
          "n_actions2": 3, "gamma": 0.9, "r_max": 1.0}, "run-minimax-fqi", 12),
        ({"kind": "matching-pennies"}, "run-minimax-fqi", 4),
    ], ids=["random-mdp", "gridworld", "random-game", "matching-pennies"])
    def test_sampling_weights_need_one_entry_per_cell(self, tmp_path, model,
                                                      command, cells):
        def config(n_weights):
            return serialize.dumps({
                "command": command, "model": model,
                "algorithm": {"iterations": 1, "n_samples": 10, "sampling": {
                    "kind": "explicit-weights",
                    "weights": [1.0 / n_weights] * n_weights}},
                "output_dir": str(tmp_path / "out"),
            })
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(config(cells + 1))
        assert info.value.errors == [
            f"algorithm/sampling/weights: expected {cells} entries, got {cells + 1}"]
        report = runner.run_experiment(runner.parse_config(config(cells)))
        assert [entry["status"] for entry in report.per_seed] == ["ok"]

    @pytest.mark.parametrize("kind", ["random-game", "random-continuous"])
    def test_mdp_diagnostics_name_the_model_kind(self, kind):
        model = {"kind": kind, "n_actions": 2, "gamma": 0.9, "r_max": 1.0,
                 **({"n_states": 2, "n_actions2": 2} if kind == "random-game"
                    else {"state_dim": 2})}
        text = serialize.dumps({"command": "diagnose-kappa", "model": model, "m": 1})
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text)
        assert info.value.errors == [
            f"model/kind: diagnose-kappa needs a tabular MDP, got {kind!r}"]

    def test_mdp_diagnostic_on_a_game_file_names_itself(self, tmp_path):
        envs.save_model(envs.make_matching_pennies_game(), tmp_path / "game.json")
        text = serialize.dumps({"command": "diagnose-phi",
                                "model": {"path": "game.json"}, "m_max": 1})
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text, base_dir=tmp_path)
        assert info.value.errors == [
            "model/path: diagnose-phi needs a tabular MDP, got a tabular game"]

    def test_sweep_rejects_unknown_parameter_path(self):
        text = serialize.dumps({
            "command": "sweep", "parameter": "algorithm.no_such_field",
            "values": [1, 2],
            "experiment": {"command": "run-fqi", "model": {
                "kind": "random-mdp", "n_states": 2, "n_actions": 2,
                "gamma": 0.9, "r_max": 1.0}, "algorithm": {"iterations": 1}},
        })
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text)
        assert info.value.errors == [
            f"values/{i}/algorithm/no_such_field: parameter path not found in "
            "experiment" for i in range(2)]

    @pytest.mark.parametrize("v_max", [2.5, "auto", None])
    def test_relu_v_max_accepts_a_bound_auto_or_none(self, v_max):
        config = runner.parse_config(serialize.dumps({
            "command": "run-fqi", "model": MATRIX_MODELS["random-continuous"],
            "algorithm": {"iterations": 1,
                          "approximator": {"kind": "relu", "v_max": v_max}}}))
        assert config.document["algorithm"]["approximator"]["v_max"] == v_max


MATRIX_MODELS = {
    "random-mdp": {"kind": "random-mdp", "n_states": 2, "n_actions": 2,
                   "gamma": 0.9, "r_max": 1.0},
    "gridworld": {"kind": "gridworld", "width": 2, "height": 1, "goal": [1, 0],
                  "step_reward": -0.1, "goal_reward": 1.0, "slip_prob": 0.1,
                  "gamma": 0.9},
    "random-game": {"kind": "random-game", "n_states": 2, "n_actions": 2,
                    "n_actions2": 2, "gamma": 0.9, "r_max": 1.0},
    "matching-pennies": {"kind": "matching-pennies"},
    "random-continuous": {"kind": "random-continuous", "state_dim": 2,
                          "n_actions": 2, "gamma": 0.9, "r_max": 1.0},
}
MATRIX_CELLS = {"random-mdp": 4, "gridworld": 8, "random-game": 8,
                "matching-pennies": 4, "random-continuous": 1}
MATRIX_APPROXIMATORS = {"tabular": {"kind": "tabular"}, "linear": {"kind": "linear"},
                        "relu": {"kind": "relu", "hidden": [4]},
                        "ntk": {"kind": "ntk", "m": 4}}


def matrix_configs():
    """(command, model kind, approximator kind, config) for every command
    that reads a generated model, with every approximator and sampling
    kind; a non-default sampling kind is set even where the command has
    no sampling field."""
    for model in MATRIX_MODELS:
        yield "solve-exact", model, None, {"command": "solve-exact",
                                           "model": MATRIX_MODELS[model]}
    for command, model, approximator, sampling in itertools.product(
            runner.RUN_COMMANDS, MATRIX_MODELS, MATRIX_APPROXIMATORS,
            fqi.SAMPLING_KINDS):
        online = command in ("run-dqn", "run-minimax-dqn")
        algorithm = ({"total_steps": 4, "minibatch_size": 2} if online
                     else {"iterations": 1, "n_samples": 2})
        algorithm["approximator"] = MATRIX_APPROXIMATORS[approximator]
        if approximator == "relu":
            algorithm["trainer"] = {"epochs": 5}
        if sampling == "explicit-weights":
            cells = MATRIX_CELLS[model]
            algorithm["sampling"] = {"kind": sampling, "weights": [1.0 / cells] * cells}
        elif sampling != "uniform-state-action":
            algorithm["sampling"] = {"kind": sampling}
        if command == "run-fqi-sgd":
            del algorithm["n_samples"]
        yield command, model, approximator, {"command": command,
                                             "model": MATRIX_MODELS[model],
                                             "algorithm": algorithm}


class TestModelKinds:
    @pytest.mark.parametrize("kind", sorted(runner.MODEL_KINDS))
    def test_generator_parameters_are_the_schema_fields(self, kind):
        parameters = inspect.signature(runner.MODEL_KINDS[kind]).parameters
        fields = set(runner.MODEL_SCHEMAS[kind]["properties"]) - {"kind"}
        assert set(parameters) == fields


class TestEngineTable:
    def test_every_combination_is_rejected_at_a_field_or_runs(self, tmp_path):
        accepted, failures = set(), []
        for i, (command, model, approximator, doc) in enumerate(matrix_configs()):
            doc = {**doc, "output_dir": str(tmp_path / str(i)), "seeds": [0]}
            try:
                config = runner.parse_config(serialize.dumps(doc))
            except runner.ConfigError as exc:
                failures.extend((doc, error) for error in exc.errors
                                if not error.startswith(("model/kind: ", "algorithm")))
                continue
            accepted.add((command, model, approximator))
            if command == "solve-exact":
                runner.solve_exact(config)
                continue
            report = runner.run_experiment(config)
            failures.extend((doc, entry.get("error")) for entry in report.per_seed
                            if entry["status"] != "ok")
        assert failures == []
        assert accepted == {
            ("run-fqi", "random-mdp", "tabular"), ("run-fqi", "gridworld", "tabular"),
            ("run-fqi", "random-continuous", "linear"),
            ("run-fqi", "random-continuous", "relu"),
            ("run-minimax-fqi", "random-game", "tabular"),
            ("run-minimax-fqi", "matching-pennies", "tabular"),
            ("run-fqi-sgd", "random-continuous", "ntk"),
            ("run-dqn", "random-mdp", "tabular"), ("run-dqn", "gridworld", "tabular"),
            ("run-minimax-dqn", "random-game", "tabular"),
            ("run-minimax-dqn", "matching-pennies", "tabular"),
            *(("solve-exact", model, None) for model in (
                "random-mdp", "gridworld", "random-game", "matching-pennies")),
        }

    @pytest.mark.parametrize("command, model, fields, where", [
        ("run-fqi", "random-mdp", {"sgd_steps": 5}, "algorithm/sgd_steps"),
        ("run-fqi-sgd", "random-continuous", {"n_samples": 5}, "algorithm/n_samples"),
        ("run-fqi-sgd", "random-continuous", {"trainer": {"epochs": 5}},
         "algorithm/trainer"),
        ("run-fqi-sgd", "random-continuous",
         {"sampling": {"kind": "on-policy-mixture"}}, "algorithm/sampling"),
        ("run-fqi", "random-continuous", {"exact_regression": True},
         "algorithm/exact_regression"),
        ("run-fqi", "random-mdp", {"sampling": {"weights": [0.25] * 4}},
         "algorithm/sampling/weights"),
        ("run-fqi", "random-mdp", {"sampling": {"uniform_mix": 0.2}},
         "algorithm/sampling/uniform_mix"),
        ("run-fqi", "random-mdp",
         {"sampling": {"kind": "explicit-weights", "weights": [1.0] * 4}},
         "algorithm/sampling/weights"),
        ("run-fqi", "random-continuous", {"approximator": {"kind": "relu"}, "trainer": 5},
         "algorithm/trainer"),
        ("run-minimax-dqn", "matching-pennies", {"opponent_policy": "best-response"},
         "algorithm/opponent_policy"),
        ("run-minimax-dqn", "matching-pennies", {"opponent_policy": [[1.0]]},
         "algorithm/opponent_policy"),
        ("run-minimax-dqn", "random-game",
         {"opponent_policy": [[0.5, 0.5], [0.5, 0.4]]}, "algorithm/opponent_policy"),
        ("run-dqn", "random-mdp", {"start_distribution": [1.0]},
         "algorithm/start_distribution"),
        ("run-fqi", "random-mdp", {"trainer": {"learning_rate": 0.5}},
         "algorithm/trainer"),
        ("run-fqi", "random-continuous", {"trainer": {"epochs": 5}},
         "algorithm/trainer"),
        ("run-minimax-fqi", "random-game", {"trainer": {"epochs": 5}},
         "algorithm/trainer"),
        ("diagnose-sandwich", "random-mdp", {"trainer": {"momentum": 0.5}},
         "algorithm/trainer"),
        ("run-fqi", "random-mdp", {"exact_regression": True, "n_samples": 50},
         "algorithm/n_samples"),
        ("run-minimax-fqi", "random-game",
         {"exact_regression": True, "sampling": {"kind": "explicit-weights",
                                                 "weights": [0.125] * 8}},
         "algorithm/sampling"),
        ("diagnose-sandwich", "random-mdp",
         {"exact_regression": True, "fresh_samples_per_iteration": False},
         "algorithm/fresh_samples_per_iteration"),
        ("run-fqi-sgd", "random-continuous", {"sgd_steps": 0}, "algorithm/sgd_steps"),
        ("run-fqi-sgd", "random-continuous", {"sgd_steps": -1}, "algorithm/sgd_steps"),
        ("run-fqi-sgd", "random-continuous", {"sgd_eta": 0}, "algorithm/sgd_eta"),
        ("run-fqi-sgd", "random-continuous", {"sgd_eta": -0.5}, "algorithm/sgd_eta"),
        ("run-fqi", "random-continuous", {"approximator": {"kind": "relu", "v_max": "big"}},
         "algorithm/approximator/v_max"),
        ("run-fqi", "random-continuous", {"approximator": {"kind": "relu", "v_max": 0}},
         "algorithm/approximator/v_max"),
        ("run-fqi", "random-continuous", {"approximator": {"kind": "relu", "sparsity": -3}},
         "algorithm/approximator/sparsity"),
        ("run-fqi", "random-continuous",
         {"approximator": {"kind": "relu"}, "trainer": {"batch_size": -2}},
         "algorithm/trainer/batch_size"),
        ("run-fqi", "random-continuous",
         {"approximator": {"kind": "relu"}, "trainer": {"batch_size": 0}},
         "algorithm/trainer/batch_size"),
        ("run-dqn", "random-mdp", {"eval_period": -5}, "algorithm/eval_period"),
        ("run-dqn", "random-mdp", {"max_episode_steps": -1}, "algorithm/max_episode_steps"),
        ("run-dqn", "random-mdp", {"max_episode_steps": 0}, "algorithm/max_episode_steps"),
    ], ids=["sgd-field-on-fqi", "n_samples-on-sgd", "trainer-on-sgd",
            "sampling-on-sgd", "exact-regression-on-continuous",
            "weights-without-explicit-weights", "uniform-mix-without-mixture",
            "weights-not-a-distribution",
            "trainer-not-an-object", "opponent-by-name", "opponent-of-wrong-shape",
            "opponent-row-not-a-distribution", "start-distribution-of-wrong-length",
            "trainer-on-tabular", "trainer-on-linear", "trainer-on-minimax-tabular",
            "trainer-on-sandwich", "n_samples-under-exact-regression",
            "sampling-under-exact-regression",
            "fresh-samples-under-exact-regression", "sgd-steps-zero",
            "sgd-steps-negative", "sgd-eta-zero", "sgd-eta-negative", "v-max-word",
            "v-max-zero", "sparsity-negative", "batch-size-negative", "batch-size-zero",
            "eval-period-negative", "max-episode-steps-negative",
            "max-episode-steps-zero"])
    def test_fields_the_engine_cannot_use_are_rejected(self, command, model,
                                                       fields, where):
        key = "total_steps" if command in ("run-dqn", "run-minimax-dqn") else "iterations"
        if model == "random-continuous":
            fields = {"approximator": {"kind": "ntk" if command == "run-fqi-sgd"
                                       else "linear"}, **fields}
        text = serialize.dumps({"command": command, "model": MATRIX_MODELS[model],
                                "algorithm": {key: 1, **fields}})
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text)
        assert [error.split(": ")[0] for error in info.value.errors] == [where]

    @pytest.mark.parametrize("model, approximator, where", [
        ({"kind": ["x"]}, {"kind": "tabular"}, "model/kind"),
        (MATRIX_MODELS["random-mdp"], {"kind": [1]}, "algorithm/approximator/kind"),
        (MATRIX_MODELS["random-mdp"], {"kind": {"name": "relu"}},
         "algorithm/approximator/kind"),
    ], ids=["model-kind-list", "approximator-kind-list", "approximator-kind-object"])
    def test_kind_that_is_not_a_string_is_reported(self, model, approximator, where):
        text = serialize.dumps({"command": "run-fqi", "model": model,
                                "algorithm": {"iterations": 1,
                                              "approximator": approximator}})
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text)
        assert [error.split(": ")[0] for error in info.value.errors] == [where]

    def test_opponent_policy_array_runs(self, tmp_path):
        text = serialize.dumps({
            "command": "run-minimax-dqn", "model": MATRIX_MODELS["random-game"],
            "algorithm": {"total_steps": 6, "minibatch_size": 2,
                          "opponent_policy": [[0.3, 0.7], [1.0, 0.0]]},
            "output_dir": str(tmp_path / "out"),
        })
        report = runner.run_experiment(runner.parse_config(text))
        assert [entry["status"] for entry in report.per_seed] == ["ok"]

    def test_model_file_rules_out_what_no_family_fits(self, tmp_path):
        envs.save_model(envs.make_random_mdp(2, 2, 0.9, 1.0), tmp_path / "m.json")
        text = serialize.dumps({
            "command": "run-fqi", "model": {"path": "m.json"},
            "algorithm": {"iterations": 1, "approximator": {"kind": "ntk"}},
        })
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text, base_dir=tmp_path)
        assert info.value.errors == [
            "algorithm/approximator/kind: run-fqi supports only 'tabular' on a "
            "tabular MDP, got 'ntk'"]

    def test_diagnostic_weights_must_be_a_distribution(self):
        text = serialize.dumps({
            "command": "diagnose-kappa", "model": MATRIX_MODELS["random-mdp"],
            "m": 1, "mu": [[1.0, 1.0], [1.0, 1.0]],
        })
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text)
        assert info.value.errors == [
            "mu: probabilities must be nonnegative and sum to 1"]

    def test_subopt_policy_needs_one_row_per_state(self):
        text = serialize.dumps({
            "command": "diagnose-subopt", "model": MATRIX_MODELS["gridworld"],
            "policy": [[1.0, 0.0], [1.0, 0.0]],
        })
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text)
        assert info.value.errors == [
            "policy: expected an array of shape (2, 4) of probabilities"]

    @pytest.mark.parametrize("command, kind, fields, where", [
        ("run-fqi", "random-game", {"algorithm": {"iterations": 1}}, "model/kind"),
        ("run-dqn", "random-game", {"algorithm": {"total_steps": 1}}, "model/kind"),
        ("run-minimax-fqi", "random-mdp", {"algorithm": {"iterations": 1}}, "model/kind"),
        ("diagnose-phi", "random-game", {"m_max": 1}, "model/kind"),
        ("run-fqi", "random-mdp", {"algorithm": {"iterations": 1, "sampling": {
            "kind": "explicit-weights", "weights": [0.2] * 5}}},
         "algorithm/sampling/weights"),
        ("run-minimax-fqi", "random-game", {"algorithm": {"iterations": 1, "sampling": {
            "kind": "explicit-weights", "weights": [0.25] * 4}}},
         "algorithm/sampling/weights"),
        ("diagnose-kappa", "random-mdp", {"m": 1, "mu": [0.5, 0.5]}, "mu"),
        ("diagnose-subopt", "random-mdp", {"policy": [[1.0, 0.0]]}, "policy"),
        ("run-dqn", "random-mdp", {"algorithm": {
            "total_steps": 1, "start_distribution": [1.0, 0.0, 0.0]}},
         "algorithm/start_distribution"),
        ("run-minimax-dqn", "random-game", {"algorithm": {
            "total_steps": 1, "opponent_policy": [[1.0, 0.0]]}},
         "algorithm/opponent_policy"),
        ("run-minimax-fqi", "random-game", {"algorithm": {
            "iterations": 1, "sampling": {"kind": "on-policy-mixture"}}},
         "algorithm/sampling/kind"),
    ], ids=["fqi-on-game", "dqn-on-game", "minimax-fqi-on-mdp", "phi-on-game",
            "weights-mdp", "weights-game", "mu", "policy", "start-distribution",
            "opponent-policy", "mixture-on-game"])
    def test_a_model_file_is_checked_as_the_model_it_holds(self, tmp_path, command,
                                                            kind, fields, where):
        model = runner.build_model(MATRIX_MODELS[kind])
        envs.save_model(model, tmp_path / "m.json")
        errors = {}
        for source, spec in (("kind", MATRIX_MODELS[kind]), ("path", {"path": "m.json"})):
            with pytest.raises(runner.ConfigError) as info:
                runner.parse_config(serialize.dumps({"command": command, "model": spec,
                                                     **fields}), base_dir=tmp_path)
            errors[source] = info.value.errors
        assert [error.split(": ")[0] for error in errors["kind"]] == [where]
        family = runner.FAMILIES[type(model)].name
        assert errors["path"] == [
            error.replace("model/kind:", "model/path:").replace(
                f"got {kind!r}", f"got a {family}") for error in errors["kind"]]

    def test_a_model_file_that_fails_to_load_is_a_config_error(self, tmp_path,
                                                               broken_model):
        text = serialize.dumps({"command": "run-fqi", "model": {"path": broken_model},
                                "algorithm": {"iterations": 1}})
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text, base_dir=tmp_path)
        assert info.value.errors == [
            "model/path: cannot build the model: ValueError: transition: row sums "
            "deviate from 1 by 5.000e-01"]

    def test_a_generated_model_that_fails_to_build_is_a_config_error(self):
        text = serialize.dumps({"command": "run-fqi", "model": {
            **MATRIX_MODELS["random-mdp"], "r_max": 1.7e308}, "algorithm": {"iterations": 1}})
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(text)
        assert [error.split(": ")[:3] for error in info.value.errors] == [
            ["model", "cannot build the model", "OverflowError"]]

    @pytest.mark.parametrize("command, depth, m, model, count", [
        ("diagnose-kappa", "m", 2, {"n_states": 50, "n_actions": 4}, "4^50"),
        ("diagnose-phi", "m_max", 6, {"n_states": 4, "n_actions": 2}, "1048576"),
    ], ids=["kappa", "phi"])
    def test_exhaustive_kappa_past_the_enumeration_limit_is_rejected(
            self, command, depth, m, model, count):
        doc = {"command": command, depth: m, "model": {**MATRIX_MODELS["random-mdp"], **model}}
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(serialize.dumps(doc))
        assert info.value.errors == [
            f"{depth}: {count} state marginals exceed the enumeration limit "
            '1000000; use mode "monte-carlo"']
        runner.parse_config(serialize.dumps({**doc, "mode": "monte-carlo"}))
        runner.parse_config(serialize.dumps({**doc, depth: m - 1}))


class TestRunExperiment:
    def test_file_count_contract(self, tmp_path):
        config = runner.parse_config(fqi_config_text(tmp_path / "out"))
        runner.run_experiment(config)
        csvs = sorted((tmp_path / "out").glob("trace_seed*.csv"))
        assert len(csvs) == 3
        assert (tmp_path / "out" / "report.json").exists()

    def test_csv_header_golden(self, tmp_path):
        config = runner.parse_config(fqi_config_text(tmp_path / "out",
                                                     seeds=(0,)))
        runner.run_experiment(config)
        text = (tmp_path / "out" / "trace_seed0.csv").read_text()
        assert text.splitlines()[0] == \
            "k,empirical_mse,one_step_error_sigma,suboptimality_1mu,wall_ms"

    def test_determinism_excluding_timing(self, tmp_path):
        for name in ("a", "b"):
            config = runner.parse_config(fqi_config_text(tmp_path / name))
            runner.run_experiment(config)
        for seed in (0, 1, 2):
            a = strip_timing((tmp_path / "a" / f"trace_seed{seed}.csv").read_text())
            b = strip_timing((tmp_path / "b" / f"trace_seed{seed}.csv").read_text())
            assert a == b

    def test_report_contents(self, tmp_path):
        config = runner.parse_config(fqi_config_text(tmp_path / "out",
                                                     seeds=(0, 1)))
        report = runner.run_experiment(config)
        doc = serialize.load(tmp_path / "out" / "report.json")
        assert doc["tool_version"] == report.tool_version
        assert doc["config"] == config.document
        assert len(doc["per_seed"]) == 2
        assert "final_suboptimality_1mu" in doc["aggregate"]
        assert set(doc["aggregate"]["final_suboptimality_1mu"]) == {"median", "iqr"}

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = runner.parse_config(fqi_config_text(tmp_path / "serial"))
        parallel = runner.parse_config(fqi_config_text(tmp_path / "parallel"))
        runner.run_experiment(serial, jobs=1)
        runner.run_experiment(parallel, jobs=3)
        for seed in (0, 1, 2):
            a = strip_timing((tmp_path / "serial" / f"trace_seed{seed}.csv").read_text())
            b = strip_timing((tmp_path / "parallel" / f"trace_seed{seed}.csv").read_text())
            assert a == b

    @pytest.mark.parametrize("jobs, seeds, pools", [
        (64, (0, 1), [2]), (5000, (0,), []), (2, (0, 1, 2), [2]), (1, (0, 1), [])])
    def test_pool_has_no_more_workers_than_seeds(self, tmp_path, monkeypatch,
                                                 jobs, seeds, pools):
        # A fork-started pool starts all max_workers processes on the first
        # submit.  The stand-in records max_workers and runs each task at
        # once, so no process starts here.
        built = []

        class InlinePool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        config = runner.parse_config(fqi_config_text(tmp_path / "out", seeds=seeds))
        report = runner.run_experiment(config, jobs=jobs)
        assert built == pools
        assert [entry["status"] for entry in report.per_seed] == ["ok"] * len(seeds)

    def test_sweep_aggregates_per_value(self, tmp_path):
        text = serialize.dumps({
            "command": "sweep",
            "parameter": "algorithm.n_samples",
            "values": [10, 40, 160],
            "experiment": serialize.loads(fqi_config_text(tmp_path / "out",
                                                          seeds=(0, 1, 2))),
            "output_dir": str(tmp_path / "sweep"),
            "seeds": [0, 1, 2],
        })
        config = runner.parse_config(text)
        report = runner.run_experiment(config)
        assert [entry["value"] for entry in report.sweep] == [10, 40, 160]
        for entry in report.sweep:
            assert "final_suboptimality_1mu" in entry["aggregate"]
            assert "median" in entry["aggregate"]["final_suboptimality_1mu"]

    def test_report_is_self_describing(self, tmp_path):
        config = runner.parse_config(fqi_config_text(tmp_path / "original",
                                                     seeds=(0,)))
        runner.run_experiment(config)
        doc = serialize.load(tmp_path / "original" / "report.json")
        # re-running from the report's own config echo reproduces the trace
        replay = dict(doc["config"])
        replay["output_dir"] = str(tmp_path / "replay")
        runner.run_experiment(runner.parse_config(serialize.dumps(replay)))
        original = strip_timing(
            (tmp_path / "original" / "trace_seed0.csv").read_text())
        replayed = strip_timing(
            (tmp_path / "replay" / "trace_seed0.csv").read_text())
        assert original == replayed

    def test_full_support_demand_enforced(self, tmp_path):
        from fittedq import fqi as fqi_module
        weights = np.zeros(8)
        weights[0] = 1.0
        with pytest.raises(ValueError):
            fqi_module.SamplingDistribution("explicit-weights", weights=weights,
                                            require_full_support=True)

    def test_run_minimax_fqi_command(self, tmp_path):
        text = serialize.dumps({
            "command": "run-minimax-fqi",
            "model": {"kind": "random-game", "n_states": 2, "n_actions": 2,
                      "n_actions2": 2, "gamma": 0.9, "r_max": 1.0, "seed": 4},
            "algorithm": {"iterations": 3, "n_samples": 20},
            "output_dir": str(tmp_path / "out"),
            "seeds": [0],
        })
        report = runner.run_experiment(runner.parse_config(text))
        assert report.per_seed[0]["status"] == "ok"
        assert "final_one_step_error_sigma" in report.per_seed[0]["metrics"]

    @pytest.mark.usefixtures("empty_optimal_q_memo")
    def test_seeds_share_one_nash_solve(self, tmp_path, monkeypatch, count_calls):
        """The seeds of a run rebuild one model and share its Q*; clearing
        the memo before every seed changes no output."""
        solves = count_calls(exact, "nash_value_iteration")

        def run(name):
            out = tmp_path / name
            runner.run_experiment(runner.parse_config(serialize.dumps({
                "command": "run-minimax-fqi",
                "model": {"kind": "random-game", "n_states": 4, "n_actions": 2,
                          "n_actions2": 3, "gamma": 0.9, "r_max": 1.0, "seed": 8,
                          "reward_noise_halfwidth": 0.2},
                "algorithm": {"iterations": 3, "n_samples": 40,
                              "track_diagnostics": True},
                "output_dir": str(out),
                "seeds": [0, 1, 2],
            })))
            report = serialize.loads((out / "report.json").read_text()
                                     .replace(str(out), "<out>"))
            report.pop("total_wall_ms")
            return report, [strip_timing((out / f"trace_seed{seed}.csv").read_text())
                            for seed in (0, 1, 2)]

        shared = run("shared")
        assert len(solves) == 1
        assert "final_suboptimality_1mu" in shared[0]["aggregate"]

        seed_run = runner.run_single_seed

        def cold_seed(*args, **kwargs):
            exact._optimal_q_memo.clear()
            return seed_run(*args, **kwargs)
        monkeypatch.setattr(runner, "run_single_seed", cold_seed)
        assert run("cold") == shared
        assert len(solves) == 4

    def test_run_fqi_sgd_command(self, tmp_path):
        text = serialize.dumps({
            "command": "run-fqi-sgd",
            "model": {"kind": "random-continuous", "state_dim": 2,
                      "n_actions": 2, "gamma": 0.9, "r_max": 1.0, "seed": 1},
            "algorithm": {"iterations": 2,
                          "approximator": {"kind": "ntk", "m": 16},
                          "sgd_steps": 30},
            "output_dir": str(tmp_path / "out"),
            "seeds": [0],
        })
        report = runner.run_experiment(runner.parse_config(text))
        assert report.per_seed[0]["status"] == "ok"
        csv = (tmp_path / "out" / "trace_seed0.csv").read_text()
        assert csv.splitlines()[0] == runner.FQI_CSV_HEADER
        # continuous models track no tabular diagnostics: those cells empty
        assert csv.splitlines()[1].split(",")[2] == ""

    def test_run_minimax_dqn_command(self, tmp_path):
        text = serialize.dumps({
            "command": "run-minimax-dqn",
            "model": {"kind": "matching-pennies"},
            "algorithm": {"total_steps": 40, "minibatch_size": 4},
            "output_dir": str(tmp_path / "out"),
            "seeds": [0],
        })
        report = runner.run_experiment(runner.parse_config(text))
        assert report.per_seed[0]["status"] == "ok"
        assert report.per_seed[0]["metrics"]["sync_count"] == 0

    def test_diverged_run_still_emits_artifacts(self, tmp_path):
        text = serialize.dumps({
            "command": "run-fqi",
            "model": {"kind": "random-continuous", "state_dim": 2,
                      "n_actions": 2, "gamma": 0.9, "r_max": 1.0, "seed": 1},
            "algorithm": {"iterations": 4, "n_samples": 20,
                          "approximator": {"kind": "relu", "hidden": [8]},
                          "trainer": {"epochs": 30,
                                      "divergence_threshold": 1e-12}},
            "output_dir": str(tmp_path / "out"),
            "seeds": [0],
        })
        report = runner.run_experiment(runner.parse_config(text))
        entry = report.per_seed[0]
        assert entry["status"] == "ok"
        assert entry["metrics"]["diverged"] is True
        assert (tmp_path / "out" / "report.json").exists()
        csv = (tmp_path / "out" / "trace_seed0.csv").read_text()
        assert csv.splitlines()[0] == runner.FQI_CSV_HEADER

    def test_csv_cells_tolerate_non_finite(self):
        assert runner._cell(float("nan")) == ""
        assert runner._cell(float("inf")) == ""
        assert runner._cell(float("-inf")) == ""
        assert runner._cell(None) == ""
        assert runner._cell(3) == "3"
        assert runner._cell(-0.0) == "-0"

    def test_dqn_lines_are_csv_cells(self):
        """Each DQN row is the cells ``_cell`` writes: the step, its loss,
        the run's epsilon, the sync rule's flag and the step's evaluation."""
        nan, inf = float("nan"), float("inf")
        losses = [4.0, 0.1 + 0.2, nan, -0.0, inf]
        evaluations = {2: 2.5e-300, 3: -inf, 4: 1e17, 5: nan}
        config = dqn.DqnConfig(total_steps=len(losses), epsilon=0.3,
                               target_sync_period=2)
        result = dqn.DqnResult(None, None, None, losses, evaluations)
        assert runner._dqn_lines(result, config) == [
            ",".join(map(runner._cell, (t, loss, 0.3, t % 2 == 0, evaluations.get(t))))
            for t, loss in enumerate(losses, 1)]
        assert runner._dqn_lines(dqn.DqnResult(None, None, None, [], {}), config) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_seeds_failing_raises(self, tmp_path):
        text = serialize.dumps({
            "command": "run-dqn",
            "model": MATRIX_MODELS["random-mdp"],
            "algorithm": {"total_steps": 2, "learning_rate": 1.7e308,
                          "target_sync_period": 1},
            "output_dir": str(tmp_path / "out"),
            "seeds": [0, 1],
        })
        config = runner.parse_config(text, base_dir=tmp_path)
        with pytest.raises(RuntimeError, match="Q table diverged at step 1"):
            runner.run_experiment(config)
        doc = serialize.load(tmp_path / "out" / "report.json")
        assert all(e["status"] == "error" for e in doc["per_seed"])


class TestEmitReport:
    def test_empty_metrics_skeleton(self, tmp_path):
        report = runner.RunReport(config={}, per_seed=[], aggregate={},
                                  artifacts=[])
        paths = runner.emit_report(report, tmp_path)
        doc = serialize.load(paths[0])
        assert doc["per_seed"] == []
        assert doc["aggregate"] == {}

    def test_round_trip(self, tmp_path):
        report = runner.RunReport(config={"command": "run-fqi"},
                                  per_seed=[{"seed": 0, "status": "ok",
                                             "metrics": {"m": 0.5},
                                             "trace_csv": "x.csv"}],
                                  aggregate={"m": {"median": 0.5, "iqr": 0.0}},
                                  artifacts=["x.csv"], total_wall_ms=1.0)
        paths = runner.emit_report(report, tmp_path)
        doc = serialize.load(paths[0])
        assert doc == report.to_dict()


class TestSolveHandlers:
    def test_solve_exact_mdp(self, tmp_path):
        text = serialize.dumps({
            "command": "solve-exact",
            "model": {"kind": "gridworld", "width": 2, "height": 1,
                      "goal": [1, 0], "step_reward": -0.1, "goal_reward": 1.0,
                      "slip_prob": 0.0, "gamma": 0.9},
        })
        result = runner.solve_exact(runner.parse_config(text))
        east = envs.GRID_ACTIONS.index((1, 0))
        assert abs(result["q_star"][0][east] - 1.0) <= 1e-10
        assert result["residual"] <= 1e-10

    def test_solve_exact_game(self):
        text = serialize.dumps({
            "command": "solve-exact",
            "model": {"kind": "matching-pennies", "gamma": 0.9},
        })
        result = runner.solve_exact(runner.parse_config(text))
        assert abs(result["q_star"][0][0][0] - 1.0) <= 1e-8
        assert np.allclose(result["policy"]["p1"], 0.5, atol=1e-8)

    def test_solve_matrix_inline(self):
        text = serialize.dumps({
            "command": "solve-matrix",
            "payoff": [[1.0, -1.0], [-1.0, 1.0]],
        })
        result = runner.solve_matrix(runner.parse_config(text))
        assert abs(result["value"]) <= 1e-10

    def test_diagnose_kappa(self):
        text = serialize.dumps({
            "command": "diagnose-kappa",
            "model": {"kind": "random-mdp", "n_states": 2, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0, "seed": 1},
            "m": 2,
        })
        result = runner.diagnose(runner.parse_config(text))
        assert result["kappa"] >= 1.0
        assert result["mode"] == "exhaustive"

    @pytest.mark.parametrize("mode", ["exhaustive", "monte-carlo"])
    def test_diagnose_phi_says_what_it_computed(self, mode):
        model = {"kind": "random-mdp", "n_states": 2, "n_actions": 2,
                 "gamma": 0.9, "r_max": 1.0, "seed": 1}
        config = runner.parse_config(serialize.dumps({
            "command": "diagnose-phi", "model": model, "m_max": 2, "mode": mode}))
        result = runner.diagnose(config)
        uniform = np.full((2, 2), 0.25)
        estimate = diagnostics.phi_estimate(runner.build_model(model), uniform, uniform,
                                            2, mode=mode)
        assert (result["phi_truncated"], result["tail_bound"], result["kappas"]) == (
            estimate.phi_truncated, estimate.tail_bound, list(estimate.kappas))
        assert (result["mode"], result["is_lower_bound"]) == (mode, mode == "monte-carlo")
        if mode == "monte-carlo":
            assert "phi_truncated + tail_bound is not a bound" in result["note"]
        else:
            assert "phi_truncated + tail_bound bounds phi from above" in result["note"]

    def test_diagnose_phi_monte_carlo_draws_from_the_seed(self):
        # A non-uniform sigma makes kappa(2) depend on the last policy too, so
        # 10,000 draws cannot cover all 729^2 sequences.
        model = {"kind": "random-mdp", "n_states": 6, "n_actions": 3, "gamma": 0.9,
                 "r_max": 1.0, "seed": 1, "concentration": 0.2}
        sigma = [i / 171 for i in range(1, 19)]

        def diagnose(seed, **fields):
            return runner.diagnose(runner.parse_config(serialize.dumps({
                "model": model, "sigma": sigma, "mode": "monte-carlo",
                "seeds": [seed], **fields})))

        phis = {seed: diagnose(seed, command="diagnose-phi", m_max=2)["kappas"]
                for seed in (0, 5)}
        assert phis[0] != phis[5]
        for seed, kappas in phis.items():
            assert kappas == [diagnose(seed, command="diagnose-kappa", m=m)["kappa"]
                              for m in (1, 2)]

    def test_diagnose_weights_count_nested_entries(self):
        def kappa(mu):
            text = serialize.dumps({
                "command": "diagnose-kappa",
                "model": {"kind": "random-mdp", "n_states": 2, "n_actions": 2,
                          "gamma": 0.9, "r_max": 1.0, "seed": 1},
                "m": 2, "mu": mu, "sigma": [0.1, 0.2, 0.3, 0.4],
            })
            return runner.diagnose(runner.parse_config(text))["kappa"]
        assert kappa([[0.25, 0.25], [0.25, 0.25]]) == kappa([0.25] * 4)

    def test_diagnose_sandwich(self, tmp_path):
        text = serialize.dumps({
            "command": "diagnose-sandwich",
            "model": {"kind": "random-mdp", "n_states": 3, "n_actions": 2,
                      "gamma": 0.9, "r_max": 1.0, "seed": 2,
                      "reward_noise_halfwidth": 0.2},
            "algorithm": {"iterations": 4, "n_samples": 20},
        })
        result = runner.diagnose(runner.parse_config(text))
        assert result["holds"]
        assert result["max_violation"] <= 1e-9


class TestRngStream:
    @pytest.mark.parametrize("seed", [-1, MAX_SEED + 1, 2**70])
    def test_seed_outside_the_range_is_rejected(self, seed):
        # The seed used to be masked to 63 bits, so -1 drew the streams of
        # 2**63 - 1, and 2**70 those of 0.
        with pytest.raises(ValueError, match="outside"):
            rng_stream(seed, "fqi.env")

    @pytest.mark.parametrize("seed", [0, 1, 12345, MAX_SEED])
    def test_seed_in_range_keeps_its_stream(self, seed):
        reference = np.random.default_rng(
            np.random.SeedSequence([seed, stream_key("fqi.env")]))
        assert np.array_equal(rng_stream(seed, "fqi.env").random(4), reference.random(4))
