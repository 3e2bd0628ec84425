"""Config validation: the schema checker in ``fittedq.runner``.

The checker covers the subset of JSON Schema that runner's schemas use.
Its messages are pinned here, one per keyword, so the CLI's output does
not depend on an installed library.  jsonschema is kept as a frozen
reference, the way the numpy simplex is kept for ``matrix_game``: a
hypothesis test mutates valid documents of every schema and compares the
error paths.  The one declared difference is that an integer field takes
an int only, never an integral float such as ``50.0``.
"""

import copy
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fittedq
from fittedq import dqn, fqi, runner
from fittedq.approximators import TrainerConfig
from fittedq.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCHEMAS = {
    **{f"TOP_SCHEMAS[{name}]": schema for name, schema in runner.TOP_SCHEMAS.items()},
    **{f"MODEL_SCHEMAS[{name}]": schema for name, schema in runner.MODEL_SCHEMAS.items()},
    **{f"APPROXIMATOR_SCHEMAS[{name}]": schema
       for name, schema in runner.APPROXIMATOR_SCHEMAS.items()},
    "TRAINER_SCHEMA": runner.TRAINER_SCHEMA,
    "SAMPLING_SCHEMA": runner.SAMPLING_SCHEMA,
    "FQI_ALGO_SCHEMA": runner.FQI_ALGO_SCHEMA,
    "DQN_ALGO_SCHEMA": runner.DQN_ALGO_SCHEMA,
}

MDP = {"kind": "random-mdp", "n_states": 2, "n_actions": 2, "gamma": 0.9, "r_max": 1.0}
GRID = {"kind": "gridworld", "width": 2, "height": 1, "goal": [1, 0],
        "step_reward": -0.1, "goal_reward": 1.0, "slip_prob": 0.1, "gamma": 0.9}
GAME = {"kind": "random-game", "n_states": 2, "n_actions": 2, "n_actions2": 2,
        "gamma": 0.9, "r_max": 1.0}
CONTINUOUS = {"kind": "random-continuous", "state_dim": 2, "n_actions": 2,
              "gamma": 0.9, "r_max": 1.0}

# Valid configs that between them reach every schema of runner except
# the model file's, which has no integer field.
CONFIGS = [
    {"command": "run-fqi", "model": MDP, "algorithm": {"iterations": 1}},
    {"command": "run-fqi", "model": GRID, "algorithm": {"iterations": 1}},
    {"command": "run-fqi", "model": CONTINUOUS,
     "algorithm": {"iterations": 1, "approximator": {"kind": "relu"}}},
    {"command": "run-fqi", "model": CONTINUOUS,
     "algorithm": {"iterations": 1, "approximator": {"kind": "linear"}}},
    {"command": "run-minimax-fqi", "model": GAME, "algorithm": {"iterations": 1}},
    {"command": "run-fqi-sgd", "model": CONTINUOUS,
     "algorithm": {"iterations": 1, "approximator": {"kind": "ntk"}}},
    {"command": "run-dqn", "model": MDP, "algorithm": {"total_steps": 1}},
    {"command": "run-minimax-dqn", "model": {"kind": "matching-pennies"},
     "algorithm": {"total_steps": 1}},
    {"command": "solve-exact", "model": MDP},
    {"command": "solve-matrix", "payoff": [[1.0, 0.0]]},
    {"command": "diagnose-kappa", "model": MDP, "m": 1},
    {"command": "diagnose-phi", "model": MDP, "m_max": 1},
    {"command": "diagnose-bound", "eps_max": 0.1, "phi": 1.0, "gamma": 0.9,
     "iterations": 2, "r_max": 1.0},
    {"command": "diagnose-subopt", "model": MDP, "policy": [[1.0, 0.0], [1.0, 0.0]]},
    {"command": "diagnose-sandwich", "model": MDP, "algorithm": {"iterations": 1}},
    {"command": "sweep", "parameter": "algorithm.iterations", "values": [1],
     "experiment": {"command": "run-fqi", "model": MDP, "algorithm": {"iterations": 1}}},
]


def schema_name(schema):
    return next(name for name, known in SCHEMAS.items() if known is schema)


def parts(document, path=(), schema=None):
    """(path, schema) of each part of a parsed config that one of runner's
    schemas validates: the command's schema, each object schema nested in
    it, and the model and approximator schemas that their kinds pick."""
    schema = schema or runner.TOP_SCHEMAS[document["command"]]
    yield path, schema
    for name, sub in schema["properties"].items():
        if "properties" in sub:
            yield from parts(document, (*path, name), sub)
    if not path and "model" in document:
        yield ("model",), runner.MODEL_SCHEMAS[document["model"]["kind"]]
    if not path and "algorithm" in document:
        yield (("algorithm", "approximator"),
               runner.APPROXIMATOR_SCHEMAS[document["algorithm"]["approximator"]["kind"]])


def integer_fields(schema, value=..., path=()):
    """Paths of the fields whose type includes "integer", with ``"*"`` for
    each array item; given a ``value``, the paths it holds.  An object
    property with properties of its own is a part of its own (``parts``)."""
    types = schema.get("type", [])
    if "integer" in ([types] if isinstance(types, str) else types):
        yield path
    for name, sub in schema.get("properties", {}).items():
        if "properties" in sub:
            continue
        if value is ...:
            yield from integer_fields(sub, ..., (*path, name))
        elif name in value:
            yield from integer_fields(sub, value[name], (*path, name))
    if "items" in schema and value is ...:
        yield from integer_fields(schema["items"], ..., (*path, "*"))
    elif "items" in schema and isinstance(value, list):
        for i, item in enumerate(value):
            yield from integer_fields(schema["items"], item, (*path, i))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def keys(where):
    """The path of an error location such as ``"seeds/0"``."""
    return [int(key) if key.isdigit() else key for key in where.split("/")]


def with_field(config, where, value):
    doc = copy.deepcopy(config)
    *path, last = keys(where)
    at(doc, path)[last] = value
    return doc


def integral_float_cases():
    """(config with one integer field set to an integral float, its path,
    the field as (schema name, pattern)) for every integer field that a
    parsed config of CONFIGS holds."""
    for config in CONFIGS:
        document = runner.parse_config(json.dumps(config)).document
        for prefix, schema in parts(document):
            for path in integer_fields(schema, at(document, prefix)):
                doc = copy.deepcopy(document)
                parent = at(doc, (*prefix, *path[:-1]))
                old = parent[path[-1]]
                parent[path[-1]] = float(old) if isinstance(old, int) else 2.0
                pattern = tuple("*" if isinstance(p, int) else p for p in path)
                yield doc, "/".join(map(str, (*prefix, *path))), (schema_name(schema), pattern)


CASES = list(integral_float_cases())


class TestIntegerFields:
    def test_cases_reach_every_integer_field_of_every_schema(self):
        every = {(name, path) for name, schema in SCHEMAS.items()
                 for path in integer_fields(schema)}
        assert len(every) > 30
        assert {field for _, _, field in CASES} == every

    @pytest.mark.parametrize("doc, where", [(doc, where) for doc, where, _ in CASES],
                             ids=[f"{doc['command']}:{where}" for doc, where, _ in CASES])
    def test_integral_float_is_rejected_at_its_path(self, doc, where):
        value = at(doc, keys(where))
        with pytest.raises(runner.ConfigError) as info:
            runner.parse_config(json.dumps(doc))
        assert any(error.startswith(f"{where}: {value!r} is not of type ")
                   for error in info.value.errors), info.value.errors

    @pytest.mark.parametrize("config, where", [
        (CONFIGS[0], "model/n_states"), (CONFIGS[1], "model/width"),
        (CONFIGS[0], "algorithm/iterations"), (CONFIGS[0], "algorithm/n_samples"),
        (CONFIGS[6], "algorithm/total_steps"), (CONFIGS[6], "algorithm/minibatch_size"),
        (CONFIGS[2], "algorithm/trainer/epochs"), (CONFIGS[0], "seeds/0"),
    ])
    @pytest.mark.parametrize("number", ["50.0", "1e2"])
    def test_cli_rejects_integral_float_that_used_to_fail_every_seed(
            self, tmp_path, capsys, config, where, number):
        doc = with_field(runner.parse_config(json.dumps(config)).document, where, "NUMBER")
        doc["output_dir"] = "out"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc).replace('"NUMBER"', number))
        assert main([doc["command"], "--config", str(path)]) == 1
        assert f"{where}: {float(number)!r} is not of type 'integer'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [CONFIGS[0], CONFIGS[4], CONFIGS[3]],
                         ids=["random-mdp", "random-game", "random-continuous"])
def test_negative_model_seed_is_rejected(config):
    # numpy's generators take only seeds >= 0; -1 used to fail every seed.
    assert config_errors(with_field(config, "model/seed", -1)) == [
        "model/seed: -1 is less than the minimum of 0"]


def config_errors(config):
    with pytest.raises(runner.ConfigError) as info:
        runner.parse_config(json.dumps(config))
    return info.value.errors


RUN_FQI, RUN_DQN, KAPPA = CONFIGS[0], CONFIGS[6], CONFIGS[10]


class TestMessages:
    @pytest.mark.parametrize("config, error", [
        (with_field(RUN_FQI, "model/n_states", 50.0),
         "model/n_states: 50.0 is not of type 'integer'"),
        (with_field(RUN_FQI, "algorithm/fresh_samples_per_iteration", 1),
         "algorithm/fresh_samples_per_iteration: 1 is not of type 'boolean'"),
        (with_field(RUN_DQN, "algorithm/eval_period", 2.5),
         "algorithm/eval_period: 2.5 is not of type 'integer', 'null'"),
        (with_field(KAPPA, "mode", "exact"),
         "mode: 'exact' is not one of ['exhaustive', 'monte-carlo']"),
        (with_field(KAPPA, "mu", "all"),
         "mu: 'all' is not valid under any of the given schemas"),
        (with_field(RUN_FQI, "algorithm/iterations", -1),
         "algorithm/iterations: -1 is less than the minimum of 0"),
        (with_field(RUN_FQI, "algorithm/sampling",
                    {"kind": "on-policy-mixture", "uniform_mix": 1.5}),
         "algorithm/sampling/uniform_mix: 1.5 is greater than the maximum of 1"),
        (with_field(RUN_FQI, "model/r_max", 0),
         "model/r_max: 0 is less than or equal to the minimum of 0"),
        (with_field(RUN_FQI, "model/gamma", 1),
         "model/gamma: 1 is greater than or equal to the maximum of 1"),
        (with_field(RUN_FQI, "seeds", []), "seeds: [] should be non-empty"),
        (with_field(CONFIGS[1], "model/goal", [1]), "model/goal: [1] is too short"),
        (with_field(CONFIGS[1], "model/goal", [1, 0, 0]),
         "model/goal: [1, 0, 0] is too long"),
        (with_field(RUN_FQI, "seeds", [3, 0, 3]), "seeds: [3, 0, 3] has non-unique elements"),
        ({**RUN_FQI, "model": {k: v for k, v in MDP.items() if k != "r_max"}},
         "model: 'r_max' is a required property"),
        (with_field(RUN_FQI, "seeds", [-1]), "seeds/0: -1 is less than the minimum of 0"),
        (with_field(RUN_FQI, "seeds", [0, 2**63]),
         "seeds/1: 9223372036854775808 is greater than the maximum of 9223372036854775807"),
        (with_field(KAPPA, "seeds", [2**70]),
         "seeds/0: 1180591620717411303424 is greater than the maximum of "
         "9223372036854775807"),
        ({**KAPPA, "bogus": 1},
         "<root>: Additional properties are not allowed ('bogus' was unexpected)"),
        ({**KAPPA, "m": 1, "zz": 1, "aa": 2},
         "<root>: Additional properties are not allowed ('aa', 'zz' were unexpected)"),
    ], ids=["type", "type-boolean", "type-list", "enum", "anyOf", "minimum", "maximum",
            "exclusiveMinimum", "exclusiveMaximum", "minItems-1", "minItems-2",
            "maxItems", "uniqueItems", "required", "seed-minimum", "seed-maximum",
            "seed-2**70", "additionalProperties-one",
            "additionalProperties-two"])
    def test_golden_config_error(self, config, error):
        assert config_errors(config) == [error]

    def test_golden_const(self):
        # A kind picks its schema, so only a schema checked directly shows const.
        assert runner._schema_errors(runner.MODEL_SCHEMAS["gridworld"],
                                     {**GRID, "kind": "random-mdp"}, ("model",)) == [
            "model/kind: 'gridworld' was expected"]

    def test_errors_sort_by_path_and_keep_schema_order_within_one(self):
        doc = {"kind": "random-mdp", "n_states": -1.5, "n_actions": 2, "gamma": 0.9,
               "bogus": 1}
        assert runner._schema_errors(runner.MODEL_SCHEMAS["random-mdp"], doc) == [
            "<root>: 'r_max' is a required property",
            "<root>: Additional properties are not allowed ('bogus' was unexpected)",
            "n_states: -1.5 is not of type 'integer'",
            "n_states: -1.5 is less than the minimum of 1",
        ]

    def test_one_walk_reports_the_algorithm_with_the_top_level(self):
        # The command's schema nests the algorithm's, trainer included; the
        # model and approximator schemas, picked by kind, and the engine follow.
        config = {**RUN_FQI, "model": {**MDP, "gamma": 2}, "seeds": [-1], "algorithm": {
            "iterations": -1, "trainer": {"epochs": 0},
            "approximator": {"kind": "tabular", "x": 1}}}
        assert config_errors(config) == [
            "algorithm/iterations: -1 is less than the minimum of 0",
            "algorithm/trainer/epochs: 0 is less than the minimum of 1",
            "seeds/0: -1 is less than the minimum of 0",
            "model/gamma: 2 is greater than or equal to the maximum of 1",
            "algorithm/approximator: Additional properties are not allowed "
            "('x' was unexpected)",
            'algorithm/trainer: run-fqi does not use trainer with approximator "tabular"; '
            "leave it at its default"]

    def test_schemas_use_only_the_supported_keywords(self):
        def keywords(schema):
            yield from schema
            for sub in [*schema.get("properties", {}).values(), *schema.get("anyOf", ())]:
                yield from keywords(sub)
            if "items" in schema:
                yield from keywords(schema["items"])
        used = {key for schema in SCHEMAS.values() for key in keywords(schema)}
        assert used == {"type", "const", "enum", "anyOf", "minimum", "maximum",
                        "exclusiveMinimum", "exclusiveMaximum", "items", "minItems",
                        "maxItems", "uniqueItems", "properties", "required",
                        "additionalProperties", "default"}


def valid(schema):
    """A document ``schema`` accepts: its default where it has one, else
    every property set and the smallest value each keyword allows."""
    if "default" in schema:
        return copy.deepcopy(schema["default"])
    if "const" in schema:
        return schema["const"]
    if "enum" in schema:
        return schema["enum"][0]
    if "anyOf" in schema:
        return valid(schema["anyOf"][0])
    kind = schema.get("type")
    kind = kind[0] if isinstance(kind, list) else kind
    if kind == "object":
        return {name: valid(sub) for name, sub in schema.get("properties", {}).items()}
    if kind == "array":
        return [valid(schema.get("items", {})) for _ in range(schema.get("minItems", 1))]
    if kind == "integer":
        return schema.get("minimum", 1)
    if kind == "number":
        low = schema.get("minimum", schema.get("exclusiveMinimum", 0))
        high = schema.get("maximum", schema.get("exclusiveMaximum", low + 2))
        return (low + high) / 2
    return {"string": "s", "boolean": False, "null": None}.get(kind, 0)


# Wrong types, bools, values at and past every bound the schemas use, and
# arrays and objects of several shapes.
POOL = [None, True, False, 0, 1, -1, 2, 10**400, 0.0, -0.0, 0.5, 1.0, 1.5, 2.0,
        -0.5, 1e300, "", "x", "uniform", "auto", "tabular", "exhaustive", [], [0],
        [1, 2, 3], [0.5, "x"], {}, {"kind": "relu"}]


def locations(doc, path=()):
    yield path
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from locations(child, (*path, key))


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    schema = SCHEMAS[name]
    doc = valid(schema)
    pool = st.sampled_from(POOL).map(copy.deepcopy)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(locations(doc))))
        node = at(doc, path)
        mutations = ["replace"] + (["add key", "drop key"] if isinstance(node, dict) else [])
        mutations += ["shorten", "lengthen"] if isinstance(node, list) else []
        mutation = draw(st.sampled_from(mutations))
        if mutation == "replace" and not path:
            doc = draw(pool)
        elif mutation == "replace":
            at(doc, path[:-1])[path[-1]] = draw(pool)
        elif mutation == "add key":
            keys = ["bogus", "kind", "path", *schema.get("properties", {})]
            node[draw(st.sampled_from(keys))] = draw(pool)
        elif mutation == "drop key" and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif mutation == "shorten" and node:
            node.pop()
        elif mutation == "lengthen":
            node.append(copy.deepcopy(node[-1]) if node and draw(st.booleans())
                        else draw(pool))
    return name, doc


@pytest.fixture(scope="module")
def reference():
    """jsonschema's Draft 2020-12 validator with the one declared
    difference: "integer" is an int, not a bool or an integral float."""
    jsonschema = pytest.importorskip("jsonschema")
    base = jsonschema.Draft202012Validator
    checker = base.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool))
    return jsonschema.validators.extend(base, type_checker=checker)


@settings(max_examples=1000, deadline=None)
@given(case=mutated_documents())
def test_error_paths_match_jsonschema(reference, case):
    name, doc = case
    errors = sorted(reference(SCHEMAS[name]).iter_errors(doc),
                    key=lambda e: list(e.absolute_path))
    expected = ["/".join(map(str, e.absolute_path)) or "<root>" for e in errors]
    ours = [error.split(": ", 1)[0] for error in runner._schema_errors(SCHEMAS[name], doc)]
    assert ours == expected


def test_valid_documents_pass_both(reference):
    for name, schema in SCHEMAS.items():
        doc = valid(schema)
        assert runner._schema_errors(schema, doc) == [], name
        assert list(reference(schema).iter_errors(doc)) == [], name


def test_parsing_loads_no_jsonschema():
    script = f"""
import importlib.util, json, sys
import fittedq.cli
from fittedq import runner
spec = importlib.util.spec_from_file_location("workloads", {str(PERFBENCH / "workloads.py")!r})
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
for workload in workloads.WORKLOADS.values():
    runner.parse_config(json.dumps(workload.config(workloads.DEFAULT_SEED, "out")))
print(len(workloads.WORKLOADS), sorted(m for m in sys.modules if m.startswith("jsonschema")))
"""
    src = str(Path(fittedq.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert (result.returncode, result.stdout.split()) == (0, ["4", "[]"]), result.stderr


def test_package_has_no_jsonschema_reference():
    package = Path(fittedq.__file__).resolve().parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if "jsonschema" in path.read_text(encoding="utf-8")] == []


# Each schema beside the API that takes its filled fields, whose own
# defaults must be the schema's.
DEFAULTS_OF = {
    "FQI_ALGO_SCHEMA": fqi.FqiConfig,
    "DQN_ALGO_SCHEMA": dqn.DqnConfig,
    "TRAINER_SCHEMA": TrainerConfig,
    "SAMPLING_SCHEMA": fqi.SamplingDistribution,
    "APPROXIMATOR_SCHEMAS[relu]": fqi.ReluSpec,
    "APPROXIMATOR_SCHEMAS[ntk]": fqi.NtkSpec,
    **{f"MODEL_SCHEMAS[{kind}]": make for kind, make in runner.MODEL_KINDS.items()},
}
# Schema defaults with no API default: minimax_dqn_train takes the opponent
# as a required argument, and run_single_seed expands "uniform".
NO_API_DEFAULT = {("DQN_ALGO_SCHEMA", "opponent_policy")}


def api_defaults(api):
    """Name -> default of each field of a dataclass, or parameter of a
    function, that has one; a field's default factory is called."""
    if dataclasses.is_dataclass(api):
        return {f.name: f.default if f.default_factory is dataclasses.MISSING
                else f.default_factory()
                for f in dataclasses.fields(api)
                if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING}
    return {name: p.default for name, p in inspect.signature(api).parameters.items()
            if p.default is not p.empty}


def as_document(value):
    """``value`` as a filled config holds it: a tuple as a list, and an
    approximator spec or a settings dataclass as its filled object."""
    if isinstance(value, tuple):
        return [as_document(item) for item in value]
    if dataclasses.is_dataclass(value):
        kind = {spec: kind for kind, spec in runner.APPROXIMATOR_SPECS.items()}.get(type(value))
        return {**({"kind": kind} if kind else {}),
                **{f.name: as_document(getattr(value, f.name))
                   for f in dataclasses.fields(value)}}
    return value


def schema_defaults(schema):
    """The filled defaults of ``schema``; the approximator's default is
    filled by the schema its kind picks."""
    filled = runner._fill_defaults(schema, {})
    if "approximator" in filled:
        filled["approximator"] = runner._fill_defaults(
            runner.APPROXIMATOR_SCHEMAS[filled["approximator"]["kind"]],
            filled["approximator"])
    return filled


def test_every_schema_with_defaults_is_paired_with_an_api():
    with_defaults = {name for name, schema in SCHEMAS.items()
                     if not name.startswith("TOP_SCHEMAS")
                     and any("default" in sub for sub in schema["properties"].values())}
    assert with_defaults <= set(DEFAULTS_OF)


@pytest.mark.parametrize("name", sorted(DEFAULTS_OF))
def test_schema_defaults_are_the_api_defaults(name):
    schema = SCHEMAS[name]
    ours = {key: value for key, value in schema_defaults(schema).items()
            if (name, key) not in NO_API_DEFAULT}
    theirs = {key: as_document(value) for key, value in api_defaults(DEFAULTS_OF[name]).items()
              if key in schema["properties"]}
    assert ours == theirs
