"""Experiment orchestration: strict config parsing, seeded sweeps, and
persistent reports.

Configs are JSON documents checked in two stages, each reporting every
violation it finds: per-command schemas, which reject unknown keys and fill
in defaults so a parsed config re-emits canonically, then ENGINES and
UNREAD_TOP on the built model.  Each seed writes one CSV trace; a run writes
one JSON report that, with the model file, reproduces the run.  All numeric
output is 17-significant-digit text, so identical configs produce
byte-identical artifacts apart from wall-clock columns.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import operator
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, diagnostics, dqn, envs, exact, fqi, matrix_game, serialize
from .approximators import TrainerConfig
from .rng import MAX_SEED

RUN_COMMANDS = ("run-fqi", "run-minimax-fqi", "run-fqi-sgd", "run-dqn",
                "run-minimax-dqn")
DIAGNOSE_COMMANDS = ("diagnose-kappa", "diagnose-phi", "diagnose-bound",
                     "diagnose-subopt", "diagnose-sandwich")
ALL_COMMANDS = RUN_COMMANDS + DIAGNOSE_COMMANDS + ("sweep", "solve-exact",
                                                   "solve-matrix")

FQI_CSV_HEADER = "k,empirical_mse,one_step_error_sigma,suboptimality_1mu,wall_ms"
DQN_CSV_HEADER = "t,loss,epsilon,synced,eval_value"

# Columns whose values are timing noise, excluded from determinism checks.
TIMING_COLUMNS = ("wall_ms",)


class ConfigError(ValueError):
    """Invalid experiment config; ``errors`` lists every violation."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


# --------------------------------------------------------------------------
# Schemas

def _obj(properties, required=(), **keywords):
    return {
        "type": "object",
        "properties": properties,
        "required": list(required),
        "additionalProperties": False,
        **keywords,
    }


_NUMBER = {"type": "number"}
_POS_INT = {"type": "integer", "minimum": 1}
_POS_INT_OR_NULL = {"type": ["integer", "null"], "minimum": 1, "default": None}
_GAMMA = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_MODEL_SEED = {"type": "integer", "minimum": 0, "default": 0}    # numpy seeds are >= 0
_UNIFORM_OR_ARRAY = {"anyOf": [{"const": "uniform"}, {"type": "array"}],
                     "default": "uniform"}

MODEL_SCHEMAS = {
    "path": _obj({"path": {"type": "string"}}, required=("path",)),
    "random-mdp": _obj({
        "kind": {"const": "random-mdp"},
        "n_states": _POS_INT, "n_actions": _POS_INT,
        "gamma": _GAMMA, "r_max": {"type": "number", "exclusiveMinimum": 0},
        "concentration": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "seed": _MODEL_SEED,
        "reward_noise_halfwidth": {"type": "number", "minimum": 0, "default": 0.0},
    }, required=("kind", "n_states", "n_actions", "gamma", "r_max")),
    "gridworld": _obj({
        "kind": {"const": "gridworld"},
        "width": _POS_INT, "height": _POS_INT,
        "goal": {"type": "array", "items": {"type": "integer"}, "minItems": 2,
                 "maxItems": 2},
        "step_reward": _NUMBER, "goal_reward": _NUMBER,
        "slip_prob": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "gamma": _GAMMA,
    }, required=("kind", "width", "height", "goal", "step_reward",
                 "goal_reward", "slip_prob", "gamma")),
    "random-game": _obj({
        "kind": {"const": "random-game"},
        "n_states": _POS_INT, "n_actions": _POS_INT, "n_actions2": _POS_INT,
        "gamma": _GAMMA, "r_max": {"type": "number", "exclusiveMinimum": 0},
        "concentration": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "seed": _MODEL_SEED,
        "reward_noise_halfwidth": {"type": "number", "minimum": 0, "default": 0.0},
    }, required=("kind", "n_states", "n_actions", "n_actions2", "gamma", "r_max")),
    "matching-pennies": _obj({
        "kind": {"const": "matching-pennies"},
        "gamma": {**_GAMMA, "default": 0.9},
    }, required=("kind",)),
    "random-continuous": _obj({
        "kind": {"const": "random-continuous"},
        "state_dim": _POS_INT, "n_actions": _POS_INT,
        "gamma": _GAMMA, "r_max": {"type": "number", "exclusiveMinimum": 0},
        "seed": _MODEL_SEED,
        "n_bumps": {**_POS_INT, "default": 4},
        "noise_scale": {"type": "number", "minimum": 0, "default": 0.1},
    }, required=("kind", "state_dim", "n_actions", "gamma", "r_max")),
}

APPROXIMATOR_SCHEMAS = {
    "tabular": _obj({"kind": {"const": "tabular"}}, required=("kind",)),
    "linear": _obj({"kind": {"const": "linear"}}, required=("kind",)),
    "relu": _obj({
        "kind": {"const": "relu"},
        "hidden": {"type": "array", "items": _POS_INT, "default": [32, 32]},
        "v_max": {"anyOf": [{"type": "number", "exclusiveMinimum": 0},
                            {"const": "auto"}, {"type": "null"}], "default": "auto"},
        "sparsity": {"type": ["integer", "null"], "minimum": 0, "default": None},
    }, required=("kind",)),
    "ntk": _obj({
        "kind": {"const": "ntk"},
        "m": {**_POS_INT, "default": 256},
        "ball_radius": {"type": "number", "exclusiveMinimum": 0, "default": 10.0},
    }, required=("kind",)),
}

TRAINER_SCHEMA = _obj({
    "learning_rate": {"type": "number", "exclusiveMinimum": 0, "default": 1e-2},
    "epochs": {**_POS_INT, "default": 2000},
    "batch_size": _POS_INT_OR_NULL,
    "momentum": {"type": "number", "minimum": 0, "exclusiveMaximum": 1,
                 "default": 0.9},
    "divergence_threshold": {"type": "number", "exclusiveMinimum": 0,
                             "default": 1e8},
}, default={})

SAMPLING_SCHEMA = _obj({
    "kind": {"enum": list(fqi.SAMPLING_KINDS), "default": "uniform-state-action"},
    "weights": {"type": ["array", "null"],
                "items": {"type": "number", "minimum": 0}, "default": None},
    "uniform_mix": {"type": "number", "minimum": 0, "maximum": 1, "default": 0.5},
    "require_full_support": {"type": "boolean", "default": False},
}, default={})

FQI_ALGO_SCHEMA = _obj({
    "iterations": {"type": "integer", "minimum": 0},
    "n_samples": {**_POS_INT, "default": 1},
    "approximator": {"type": "object", "default": {"kind": "tabular"}},
    "trainer": TRAINER_SCHEMA,
    "sampling": SAMPLING_SCHEMA,
    "fresh_samples_per_iteration": {"type": "boolean", "default": True},
    "exact_regression": {"type": "boolean", "default": False},
    "warm_start": {"type": "boolean", "default": False},
    "track_diagnostics": {"type": "boolean", "default": True},
    "sgd_steps": _POS_INT_OR_NULL,
    "sgd_eta": {"type": ["number", "null"], "exclusiveMinimum": 0, "default": None},
}, required=("iterations",))

DQN_ALGO_SCHEMA = _obj({
    "total_steps": {"type": "integer", "minimum": 0},
    "minibatch_size": {**_POS_INT, "default": 32},
    "epsilon": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1,
                "default": 0.1},
    "target_sync_period": {**_POS_INT, "default": 100},
    "learning_rate": {"type": "number", "exclusiveMinimum": 0, "default": 0.1},
    "buffer_capacity": {**_POS_INT, "default": 10000},
    "approximator": {"type": "object", "default": {"kind": "tabular"}},
    "eval_period": _POS_INT_OR_NULL,
    "max_episode_steps": _POS_INT_OR_NULL,
    "start_distribution": {"type": ["array", "null"], "default": None},
    "opponent_policy": _UNIFORM_OR_ARRAY,
}, required=("total_steps",))

_COMMON_TOP = {
    "command": {"enum": list(ALL_COMMANDS)},
    "output_dir": {"type": "string", "default": "out"},
    "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0,
                                         "maximum": MAX_SEED},
              "minItems": 1, "uniqueItems": True, "default": [0]},
}


def _top(required=(), **properties):
    return _obj({**_COMMON_TOP, **properties}, required=("command", *required))


_OBJECT = {"type": "object"}
_MODE = {"enum": ["exhaustive", "monte-carlo"], "default": "exhaustive"}
_NONNEGATIVE = {"type": "number", "minimum": 0}
_ONE_SEED = {**_COMMON_TOP["seeds"], "maxItems": 1}   # for commands that read seeds[0]

TOP_SCHEMAS = {
    **{command: _top(("model", "algorithm"), model=_OBJECT, algorithm=(
        DQN_ALGO_SCHEMA if command.endswith("dqn") else FQI_ALGO_SCHEMA))
       for command in RUN_COMMANDS},
    "sweep": _top(("parameter", "values", "experiment"), parameter={"type": "string"},
                  values={"type": "array", "minItems": 1, "uniqueItems": True},
                  experiment=_OBJECT),
    "solve-exact": _top(("model",), model=_OBJECT, tol={
        "type": "number", "exclusiveMinimum": 0, "default": 1e-10}),
    "solve-matrix": _top(payoff={"type": "array"}, payoff_path={"type": "string"}, tol={
        "type": "number", "exclusiveMinimum": 0, "default": 1e-8}),
    "diagnose-kappa": _top(("model", "m"), seeds=_ONE_SEED, model=_OBJECT, m=_POS_INT,
                           mu=_UNIFORM_OR_ARRAY, sigma=_UNIFORM_OR_ARRAY, mode=_MODE,
                           n_sequences={**_POS_INT, "default": 10000}),
    "diagnose-phi": _top(("model", "m_max"), seeds=_ONE_SEED, model=_OBJECT, m_max=_POS_INT,
                         mu=_UNIFORM_OR_ARRAY, sigma=_UNIFORM_OR_ARRAY, mode=_MODE),
    "diagnose-bound": _top(("eps_max", "phi", "gamma", "iterations", "r_max"),
                           eps_max=_NONNEGATIVE, phi=_NONNEGATIVE, gamma=_GAMMA,
                           iterations={"type": "integer", "minimum": 0},
                           r_max=_NONNEGATIVE),
    "diagnose-subopt": _top(("model", "policy"), model=_OBJECT, policy={"type": "array"},
                            mu=_UNIFORM_OR_ARRAY),
    "diagnose-sandwich": _top(("model", "algorithm"), seeds=_ONE_SEED, model=_OBJECT,
                              algorithm=FQI_ALGO_SCHEMA),
}


# --------------------------------------------------------------------------
# Parsing

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "integer": int, "number": (int, float)}


def _is_type(value, name):
    """JSON Schema's type test, except that an integral float such as 50.0
    is no "integer"; a bool is only a "boolean"."""
    return isinstance(value, _TYPES[name]) and (name == "boolean" or not isinstance(value, bool))


# bound keyword -> (violated, wording)
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}


def _json_equal(one, two):
    """JSON Schema's equality: a bool equals only itself, 1 equals 1.0, and
    arrays and objects compare item by item."""
    if isinstance(one, bool) or isinstance(two, bool):
        return one is two
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_json_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return one.keys() == two.keys() and all(_json_equal(one[k], two[k]) for k in one)
    return one == two


def _violations(schema, value, path=()):
    """(path, message) of each way ``value`` breaks ``schema``, keyword by
    keyword in schema order.  The schemas above use only the JSON Schema
    keywords below and ``default``, with string ``const`` and ``enum``
    values; tests/test_config_schema.py checks that."""
    for key, arg in schema.items():
        if key == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_is_type(value, name) for name in types):
                yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif key == "const":
            if value != arg:
                yield path, f"{arg!r} was expected"
        elif key == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif key == "anyOf":
            if all(next(_violations(sub, value, path), None) for sub in arg):
                yield path, f"{value!r} is not valid under any of the given schemas"
        elif key in _BOUNDS:
            violated, wording = _BOUNDS[key]
            if _is_type(value, "number") and violated(value, arg):
                yield path, f"{value!r} is {wording} {arg!r}"
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _violations(arg, item, (*path, i))
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems":
            if isinstance(value, list) and len(value) > arg:
                yield path, f"{value!r} is too long"
        elif key == "uniqueItems":
            if arg and isinstance(value, list) and any(
                    _json_equal(item, earlier)
                    for i, item in enumerate(value) for earlier in value[:i]):
                yield path, f"{value!r} has non-unique elements"
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        yield from _violations(sub, value[name], (*path, name))
        elif key == "required":
            if isinstance(value, dict):
                yield from ((path, f"{name!r} is a required property")
                            for name in arg if name not in value)
        elif key == "additionalProperties":
            extras = (sorted(value.keys() - schema.get("properties", {}))
                      if isinstance(value, dict) and arg is False else ())
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(map(repr, extras))} {verb} unexpected)")


def _schema_errors(schema, doc, path=()):
    """Each violation as ``"<path>: <message>"``, sorted by path; ``path``
    is where ``doc`` sits in its config."""
    return [f"{'/'.join(map(str, where)) or '<root>'}: {message}"
            for where, message in sorted(_violations(schema, doc, path), key=lambda v: v[0])]


def _fill_defaults(schema, doc):
    """Materialize schema defaults into a fresh dict with schema key order,
    and so into each object property that has properties of its own; a
    default is copied, so changing the result leaves the schema alone."""
    filled = {}
    for key, sub in schema.get("properties", {}).items():
        if key in doc or "default" in sub:
            value = doc[key] if key in doc else copy.deepcopy(sub["default"])
            nested = "properties" in sub and isinstance(value, dict)
            filled[key] = _fill_defaults(sub, value) if nested else value
    return filled


def _validate_kinded(doc, schemas, ctx, errors, default_kind=None):
    kind = doc.get("kind", default_kind)
    if "path" in doc and ctx == "model":
        errors.extend(_schema_errors(schemas["path"], doc, (ctx,)))
        return dict(doc)
    if not isinstance(kind, str) or kind not in schemas:
        errors.append(f"{ctx}/kind: unknown kind {kind!r} "
                      f"(choose from {sorted(schemas)})")
        return doc
    doc = {**doc, "kind": kind}
    errors.extend(_schema_errors(schemas[kind], doc, tuple(ctx.split("/"))))
    return _fill_defaults(schemas[kind], doc)


# --------------------------------------------------------------------------
# What each command runs on

TABULAR_MDP, TABULAR_GAME, CONTINUOUS_MDP = "tabular MDP", "tabular game", "continuous MDP"

# The generator of each model kind; its parameters are the spec's fields.
MODEL_KINDS = {
    "random-mdp": envs.make_random_mdp,
    "gridworld": envs.make_gridworld,
    "random-game": envs.make_random_game,
    "matching-pennies": envs.make_matching_pennies_game,
    "random-continuous": envs.make_random_continuous_mdp,
}


class Family(NamedTuple):
    name: str               # as ENGINES names it
    sampling: tuple         # the sampling kinds a model of the family can draw


# Explicit weights need a table of cells; greedy rollouts need an MDP.
FAMILIES = {
    envs.TabularMDP: Family(TABULAR_MDP, fqi.SAMPLING_KINDS),
    envs.TabularMarkovGame: Family(TABULAR_GAME, ("uniform-state-action", "explicit-weights")),
    envs.ContinuousMDP: Family(CONTINUOUS_MDP, ("uniform-state-action", "on-policy-mixture")),
}


class Engine(NamedTuple):
    approximators: dict     # model family read -> approximator kinds fitted on it
    unread: tuple = ()      # algorithm fields the engine never reads
    unread_by: dict = {}    # (setting, value) -> algorithm fields it leaves unread; a setting is a
                            # field, the approximator or sampling kind or the "model" family


# Unread fields must keep their schema default, so that a filled document
# (report.json records it, a sweep re-parses it) still passes.
_FQI = ("sgd_steps", "sgd_eta")
# A table's fit is the per-cell mean and a linear head's is a ridge solve:
# only gradient-trained approximators read the trainer.  Exact regression
# backs up every cell instead of drawing samples; a continuous MDP has no
# cells to back up or to trace diagnostics on.  Each sampling kind reads its own fields.
_WEIGHTS = ("sampling/weights", "sampling/require_full_support")
_FQI_UNREAD_BY = {
    ("model", CONTINUOUS_MDP): ("exact_regression", "track_diagnostics"),
    ("approximator", "tabular"): ("trainer",), ("approximator", "linear"): ("trainer",),
    ("exact_regression", True): ("n_samples", "sampling", "fresh_samples_per_iteration"),
    ("sampling", "uniform-state-action"): (*_WEIGHTS, "sampling/uniform_mix"),
    ("sampling", "explicit-weights"): ("sampling/uniform_mix",),
    ("sampling", "on-policy-mixture"): _WEIGHTS}
ENGINES = {
    "run-fqi": Engine({TABULAR_MDP: ("tabular",), CONTINUOUS_MDP: ("linear", "relu")},
                      _FQI, _FQI_UNREAD_BY),
    "run-minimax-fqi": Engine({TABULAR_GAME: ("tabular",)}, _FQI, _FQI_UNREAD_BY),
    "run-fqi-sgd": Engine({CONTINUOUS_MDP: ("ntk",)}, (
        "n_samples", "trainer", "sampling", "fresh_samples_per_iteration",
        "exact_regression", "warm_start", "track_diagnostics")),
    "run-dqn": Engine({TABULAR_MDP: ("tabular",)}, ("opponent_policy",)),
    "run-minimax-dqn": Engine({TABULAR_GAME: ("tabular",)},
                              ("eval_period", "max_episode_steps")),
    "solve-exact": Engine({TABULAR_MDP: (), TABULAR_GAME: ()}),
    **{command: Engine({TABULAR_MDP: ()})
       for command in ("diagnose-kappa", "diagnose-phi", "diagnose-subopt")},
    "diagnose-sandwich": Engine({TABULAR_MDP: ("tabular",)}, _FQI, _FQI_UNREAD_BY),
}

# The top-level fields that a command, in a mode (None: it has no modes),
# never reads; they too must keep their default.  A command that reads
# seeds[0] alone takes one seed.
UNREAD_TOP = {
    **{(command, None): ("seeds",) for command in (
        "solve-exact", "solve-matrix", "diagnose-bound", "diagnose-subopt")},
    ("diagnose-kappa", "exhaustive"): ("n_sequences", "seeds"),
    ("diagnose-phi", "exhaustive"): ("seeds",),
}


def _entries(value):
    """The entries of a possibly nested JSON array, in order."""
    return [x for item in value for x in _entries(item)] if isinstance(value, list) else [value]


def _probability_errors(where, value, shape):
    """Unless an array ``value`` has ``shape`` and probabilities along its
    last axis; a None in ``shape`` is a size no built model fixes."""
    if not isinstance(value, list):
        return []
    try:
        table = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):     # ragged, or not numbers
        table = None
    if table is None or table.ndim != len(shape) or any(
            n not in (None, m) for n, m in zip(shape, table.shape)):
        dims = ", ".join("n" if n is None else str(n) for n in shape)
        return [f"{where}: expected an array of shape ({dims}) of probabilities"]
    if np.any(table < 0) or np.any(np.abs(table.sum(axis=-1) - 1.0) > 1e-12):
        return [f"{where}: probabilities must be nonnegative and sum to 1"]
    return []


def _unread_errors(command, unread, document, defaults):
    """An error for each path in ``unread`` (-> the words naming what leaves
    it unread) whose field is off its default and below no such field."""
    def at(doc, path):
        return functools.reduce(operator.getitem, path.split("/"), doc)
    off = [path for path in unread if at(document, path) != at(defaults, path)]
    return [f"{path}: {command} does not use {path.rpartition('/')[2]}{unread[path]}; "
            "leave it at its default"
            for path in off if not any(path.startswith(f"{above}/") for above in off)]


def _engine_errors(command, document, defaults, model):
    """What ENGINES rules out on the built ``model``: a family the command
    does not read, an approximator it does not fit there, a sampling kind
    the family cannot draw, an unread field off its default, too many
    marginals for exhaustive kappa, and arrays that are not probabilities
    over the model's states or cells."""
    engine, family = ENGINES[command], FAMILIES[type(model)]
    if family.name not in engine.approximators:
        spec = document["model"]
        got = repr(spec["kind"]) if "kind" in spec else f"a {family.name}"
        return [f"model/{'kind' if 'kind' in spec else 'path'}: {command} needs a "
                f"{' or a '.join(engine.approximators)}, got {got}"]
    shape = (getattr(model, "n_states", None), *model.action_shape)
    cells = None if None in shape else math.prod(shape)
    algo = document.get("algorithm", {})
    sampling = algo.get("sampling", {})
    settings = {**algo, "model": family.name, **{
        name: algo[name]["kind"] for name in ("approximator", "sampling") if name in algo}}
    errors, kinds = [], engine.approximators[family.name]
    if "approximator" in algo and settings["approximator"] not in kinds:
        on = f" on a {family.name}" if len(engine.approximators) > 1 else ""
        errors.append(f"algorithm/approximator/kind: {command} supports only "
                      f"{' or '.join(map(repr, kinds))}{on}, got {settings['approximator']!r}")
    unread = {f"algorithm/{name}": "" for name in engine.unread}
    for (setting, value), names in engine.unread_by.items():
        if settings.get(setting) == value:
            for name in names:
                unread.setdefault(f"algorithm/{name}", f" on a {value}" if setting == "model"
                                  else f" with {setting} {serialize.dumps(value).strip()}")
    errors.extend(_unread_errors(command, unread, document, defaults))
    if sampling and "algorithm/sampling" not in unread:
        if sampling["kind"] not in family.sampling:
            errors.append(f"algorithm/sampling/kind: a {family.name} cannot draw "
                          f"{sampling['kind']!r} samples")
        explicit = sampling["weights"] if sampling["kind"] == "explicit-weights" else []
        if explicit is None:
            errors.append("algorithm/sampling/weights: explicit-weights sampling needs weights")
        elif sampling["require_full_support"] and 0 in _entries(explicit):
            errors.append("algorithm/sampling/weights: require_full_support is true, "
                          "but a weight is 0")
    for where, weights in (("mu", document.get("mu")), ("sigma", document.get("sigma")),
                           ("algorithm/sampling/weights", sampling.get("weights"))):
        entries = _entries(weights) if isinstance(weights, list) else []
        if entries and cells and len(entries) != cells:
            errors.append(f"{where}: expected {cells} entries, got {len(entries)}")
        elif entries:
            errors.extend(_probability_errors(where, entries, (None,)))
    errors.extend(_probability_errors("policy", document.get("policy"), shape[:2]))
    errors.extend(_probability_errors("algorithm/start_distribution",
                                      algo.get("start_distribution"), shape[:1]))
    if "algorithm/opponent_policy" not in unread:
        errors.extend(_probability_errors("algorithm/opponent_policy",
                                          algo.get("opponent_policy"), (shape[0], shape[-1])))
    depth = {"diagnose-kappa": "m", "diagnose-phi": "m_max"}.get(command)
    if depth and document["mode"] == "exhaustive":
        too_many = diagnostics.enumeration_excess(model, document[depth])
        errors.extend([f'{depth}: {too_many}; use mode "monte-carlo"'] if too_many else [])
    return errors


@dataclass
class ExperimentConfig:
    """Validated, default-filled experiment description."""

    command: str
    document: dict
    base_dir: Path = field(default_factory=Path)
    variants: list = field(default_factory=list)    # a sweep's parsed experiments

    @property
    def seeds(self):
        return self.document["seeds"]

    @property
    def output_dir(self):
        return self.document["output_dir"]


def parse_document(text):
    """The JSON object that ``text`` holds, a str or bytes in a UTF
    encoding; anything else is a ConfigError."""
    try:
        doc = serialize.loads(text)
    except ValueError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])
    return doc


def parse_config(text, base_dir="."):
    """Parse and validate a config document in two stages: the schemas
    (``TOP_SCHEMAS`` and the model and approximator schemas their kinds pick),
    then, on a document that passes them all, the rules of ``UNREAD_TOP`` and
    ``ENGINES`` on the built model, the sweep's values, the payoff and the
    bound.  Each stage reports every violation it finds; a model that cannot
    be built is reported alone."""
    base_dir = Path(base_dir)
    doc = parse_document(text)
    command = doc.get("command")
    if command not in ALL_COMMANDS:
        raise ConfigError([f"command: unknown or missing command {command!r} "
                           f"(choose from {sorted(ALL_COMMANDS)})"])
    schema = TOP_SCHEMAS[command]
    errors = _schema_errors(schema, doc)
    filled, defaults = _fill_defaults(schema, doc), _fill_defaults(schema, {"algorithm": {}})
    if isinstance(filled.get("model"), dict):   # else the command schema reports it
        filled["model"] = _validate_kinded(filled["model"], MODEL_SCHEMAS, "model", errors)
    algo = filled.get("algorithm")
    if isinstance(algo, dict) and isinstance(algo["approximator"], dict):
        algo["approximator"] = _validate_kinded(algo["approximator"], APPROXIMATOR_SCHEMAS,
                                                "algorithm/approximator", errors, "tabular")
    if errors:
        raise ConfigError(errors)

    spec = filled.get("model", {})
    goal = spec.get("goal")     # a gridworld's
    if goal and not (0 <= goal[0] < spec["width"] and 0 <= goal[1] < spec["height"]):
        raise ConfigError([f"model/goal: cell {goal} lies outside the "
                           f"{spec['width']}x{spec['height']} grid"])
    try:
        model = _make_model(spec, base_dir) if spec else None
    except FileNotFoundError:
        raise ConfigError([f"model/path: file {base_dir / spec['path']} does not exist"]) from None
    except Exception as exc:  # noqa: BLE001 - any build failure is the spec's
        raise ConfigError([f"{'model/path' if 'path' in spec else 'model'}: cannot build "
                           f"the model: {type(exc).__name__}: {exc}"]) from exc
    mode = filled.get("mode")
    on = f" with mode {serialize.dumps(mode).strip()}" if mode else ""
    errors = _unread_errors(command, dict.fromkeys(UNREAD_TOP.get((command, mode), ()), on),
                            filled, defaults)
    if command in ENGINES:
        errors.extend(_engine_errors(command, filled, defaults, model))
    variants = []
    if command == "sweep":
        inner = filled["experiment"]
        if inner.get("command") not in RUN_COMMANDS:
            errors.append("experiment/command: sweep needs a run-* experiment")
        else:
            inner.setdefault("seeds", filled["seeds"])
            inner.setdefault("output_dir", filled["output_dir"])
            try:
                filled["experiment"] = parse_config(json.dumps(inner), base_dir).document
            except ConfigError as exc:
                errors.extend(f"experiment/{e}" for e in exc.errors)
            else:
                variants = _sweep_variants(filled, base_dir, errors)
    if command == "solve-matrix":
        errors.extend(_payoff_errors(doc, base_dir, filled["tol"]))
    if command == "diagnose-bound" and not math.isfinite(_bound(filled)):
        errors.append("<root>: the error-propagation bound overflows a double")
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(command=command, document=filled, base_dir=base_dir,
                            variants=variants)


def _payoff_errors(doc, base_dir, tol):
    """Unless exactly one of ``payoff`` and ``payoff_path`` is given and it
    holds a nonempty rectangular 2-D array of numbers that fit in a double,
    which matrix_game solves and certifies at ``tol``."""
    if ("payoff" in doc) == ("payoff_path" in doc):
        return ["solve-matrix needs exactly one of payoff, payoff_path"]
    where = "payoff" if "payoff" in doc else "payoff_path"
    rows = doc[where]
    if where == "payoff_path":
        try:
            rows = serialize.load(base_dir / rows)
        except (OSError, ValueError) as exc:    # missing, unreadable or not JSON
            return [f"payoff_path: cannot read {doc[where]}: {exc}"]
    if not (isinstance(rows, list) and rows and all(
            isinstance(row, list) and len(row) == len(rows[0]) > 0
            and all(type(x) in (int, float) and abs(x) <= sys.float_info.max
                    for x in row) for row in rows)):
        return [f"{where}: expected a nonempty rectangular 2-D array of numbers "
                "that fit in a double"]
    try:
        matrix_game.solve(rows, tol=tol)
    except ValueError as exc:   # a range that overflows
        return [f"{where}: {exc}"]
    except matrix_game.MatrixGameError as exc:
        return [f"{where}: {exc}; the solution is not certified at tol {tol!r}, "
                "so a larger tol may accept it"]
    return []


def _set_by_path(doc, dotted, value):
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError([f"{dotted.replace('.', '/')}: parameter path not "
                           "found in experiment"])
    node[keys[-1]] = value


def _sweep_variants(document, base_dir, errors):
    """The experiment once per swept value, each parsed as a config of its
    own, so a value the experiment's schema rejects is a config error."""
    variants = []
    for i, value in enumerate(document["values"]):
        variant = copy.deepcopy(document["experiment"])
        try:
            _set_by_path(variant, document["parameter"], value)
            variants.append(parse_config(json.dumps(variant), base_dir).document)
        except ConfigError as exc:
            errors.extend(f"values/{i}/{e}" for e in exc.errors)
    return variants


# --------------------------------------------------------------------------
# Model / algorithm builders

def _make_model(spec, base_dir):
    """A model file, or the generator of the filled spec's kind called with its fields."""
    if "path" in spec:
        return envs.load_model(Path(base_dir) / spec["path"])
    fields = {key: value for key, value in spec.items() if key != "kind"}
    return MODEL_KINDS[spec["kind"]](**fields)


def build_model(spec, base_dir="."):
    """The model a filled spec names, built for a run (``parse_config`` calls ``_make_model``)."""
    return _make_model(spec, base_dir)


APPROXIMATOR_SPECS = {"tabular": fqi.TabularSpec, "linear": fqi.LinearSpec,
                      "relu": fqi.ReluSpec, "ntk": fqi.NtkSpec}

# The builders below take filled documents, whose keys are the field names
# of the dataclasses they build.


def build_approximator_spec(doc):
    fields = {key: tuple(value) if isinstance(value, list) else value
              for key, value in doc.items() if key != "kind"}
    return APPROXIMATOR_SPECS[doc["kind"]](**fields)


def build_fqi_config(algo, seed):
    return fqi.FqiConfig(**{
        **algo, "seed": seed,
        "approximator": build_approximator_spec(algo["approximator"]),
        "trainer": TrainerConfig(**algo["trainer"]),
        "sampling": fqi.SamplingDistribution(**algo["sampling"])})


def build_dqn_config(algo, seed):
    """The opponent policy is ``minimax_dqn_train``'s own argument."""
    start = algo["start_distribution"]
    fields = {key: value for key, value in algo.items() if key != "opponent_policy"}
    return dqn.DqnConfig(**{
        **fields, "seed": seed,
        "approximator": build_approximator_spec(algo["approximator"]),
        "start_distribution": None if start is None else np.asarray(start, dtype=np.float64)})


# --------------------------------------------------------------------------
# Execution

def _cell(value):
    """Empty for None or a non-finite value (diverged runs still produce
    parseable files), else 17 significant digits."""
    if value is None or not math.isfinite(value):
        return ""
    return format(value, serialize.FLOAT_FORMAT)


def _write_csv(path, header, lines):
    Path(path).write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")


def _fqi_lines(trace):
    return [",".join(map(_cell, (r.k, r.empirical_mse, r.one_step_error_sigma,
                                 r.suboptimality_1mu, r.wall_ms)))
            for r in trace.records]


def _dqn_lines(result, config):
    """One row per step ``t``: its loss, the run's epsilon, whether the
    target synced (``t % target_sync_period == 0``, the loop's rule) and
    the evaluation recorded at ``t``, if any."""
    epsilon, period = _cell(config.epsilon), config.target_sync_period
    evaluations = {t: _cell(value) for t, value in result.evaluations.items()}
    return [f"{t},{_cell(loss)},{epsilon},{int(t % period == 0)},{evaluations.get(t, '')}"
            for t, loss in enumerate(result.losses, 1)]


def run_single_seed(command, model_doc, algo_doc, seed, csv_path, base_dir="."):
    """Execute one seeded run and write its CSV trace; returns the summary
    metrics.  Top-level so seed workers can pickle it."""
    model = build_model(model_doc, base_dir)
    if command in ("run-fqi", "run-minimax-fqi", "run-fqi-sgd"):
        config = build_fqi_config(algo_doc, seed)
        if command == "run-fqi":
            result = fqi.run_fqi(model, config)
        elif command == "run-minimax-fqi":
            result = fqi.run_minimax_fqi(model, config)
        else:
            result = fqi.run_fqi_projected_sgd(model, config)
        _write_csv(csv_path, FQI_CSV_HEADER, _fqi_lines(result.trace))
        summary = {k: v if math.isfinite(v) else None
                   for k, v in result.trace.summary.items()}
        summary["diverged"] = bool(result.diverged)
        return summary
    if command in ("run-dqn", "run-minimax-dqn"):
        config = build_dqn_config(algo_doc, seed)
        if command == "run-dqn":
            result = dqn.dqn_train(model, config)
        else:
            opponent = algo_doc["opponent_policy"]
            if opponent == "uniform":
                opponent = np.full((model.n_states, model.n_actions_p2),
                                   1.0 / model.n_actions_p2)
            result = dqn.minimax_dqn_train(model, config, opponent)
        _write_csv(csv_path, DQN_CSV_HEADER, _dqn_lines(result, config))
        return result.trace.summary
    raise ValueError(f"not a per-seed command: {command}")


def _aggregate(per_seed):
    """Median and interquartile range per metric over successful seeds."""
    metrics = {}
    for entry in per_seed:
        if entry["status"] != "ok":
            continue
        for key, value in entry["metrics"].items():
            if (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and np.isfinite(value)):
                metrics.setdefault(key, []).append(float(value))
    out = {}
    for key, values in sorted(metrics.items()):
        arr = np.asarray(values)
        q25, q50, q75 = np.percentile(arr, [25, 50, 75])
        out[key] = {"median": float(q50), "iqr": float(q75 - q25)}
    return out


@dataclass
class RunReport:
    config: dict
    per_seed: list
    aggregate: dict
    artifacts: list
    sweep: list | None = None
    tool_version: str = __version__
    total_wall_ms: float = 0.0

    def to_dict(self):
        doc = {
            "tool_version": self.tool_version,
            "config": self.config,
            "per_seed": self.per_seed,
            "aggregate": self.aggregate,
            "artifacts": self.artifacts,
            "total_wall_ms": self.total_wall_ms,
        }
        if self.sweep is not None:
            doc["sweep"] = self.sweep
        return doc


def emit_report(report, out_dir):
    """Write the JSON report; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    doc = report.to_dict() if isinstance(report, RunReport) else report
    serialize.dump(doc, path)
    return [str(path)]


def _run_seeds(command, document, out_dir, jobs, base_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(command, document["model"], document["algorithm"], seed,
              str(out_dir / f"trace_seed{seed}.csv"), str(base_dir))
             for seed in document["seeds"]]
    workers = min(jobs, len(tasks))     # a fork pool starts them all at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_single_seed, *task) for task in tasks]
            return [_seed_entry(task, future.result)
                    for task, future in zip(tasks, futures)]
    return [_seed_entry(task, functools.partial(run_single_seed, *task))
            for task in tasks]


def _seed_entry(task, metrics):
    """The per-seed report entry of ``task``; ``metrics()`` returns the
    seed's metrics or raises its failure."""
    seed, path = task[3], task[4]
    try:
        return {"seed": seed, "status": "ok", "metrics": metrics(),
                "trace_csv": path}
    except Exception as exc:  # noqa: BLE001 - per-seed failures recorded
        return {"seed": seed, "status": "error", "metrics": {},
                "error": str(exc), "trace_csv": None}


def run_experiment(config, jobs=1):
    """Execute a parsed config; returns the RunReport (also written to the
    output directory together with per-seed CSV traces)."""
    t_start = time.perf_counter()
    document = config.document
    out_dir = Path(config.base_dir) / config.output_dir
    sweep_entries = None
    if config.command == "sweep":
        sweep_entries = []
        per_seed = []
        for value, variant in zip(document["values"], config.variants):
            sub_dir = out_dir / f"{document['parameter'].replace('.', '_')}={value}"
            entries = _run_seeds(variant["command"], variant, sub_dir, jobs,
                                 config.base_dir)
            per_seed.extend(entries)
            sweep_entries.append({
                "value": value,
                "aggregate": _aggregate(entries),
                "per_seed": entries,
            })
    elif config.command in RUN_COMMANDS:
        per_seed = _run_seeds(config.command, document, out_dir, jobs,
                              config.base_dir)
    else:
        raise ValueError(f"run_experiment does not handle {config.command}; "
                         "use the dedicated CLI handler")
    report = RunReport(
        config=document,
        per_seed=per_seed,
        aggregate=_aggregate(per_seed),
        artifacts=sorted(str(e["trace_csv"]) for e in per_seed
                         if e.get("trace_csv")),
        sweep=sweep_entries,
        total_wall_ms=(time.perf_counter() - t_start) * 1e3,
    )
    emit_report(report, out_dir)
    if per_seed and all(e["status"] == "error" for e in per_seed):
        raise RuntimeError("all seeds failed:\n" + "\n".join(
            f"  seed {e['seed']}: {e['error']}" for e in per_seed))
    return report


# --------------------------------------------------------------------------
# Non-seeded commands (exact solves and diagnostics)

def _tabular_weights(spec, shape):
    if spec == "uniform":
        return np.full(shape, 1.0 / int(np.prod(shape)))
    return np.asarray(spec, dtype=np.float64).reshape(shape)


def solve_exact(config):
    """Q*, the induced policy, residual, and iteration count of a model."""
    document = config.document
    model = build_model(document["model"], config.base_dir)
    q_star, iterations = exact.optimal_q(model, tol=document["tol"])
    values, policy = exact.reduce_table(model, q_star)
    residual = float(np.abs(exact.backup_from_values(model, values) - q_star).max())
    return {
        "q_star": q_star.tolist(),
        "policy": ({name: p.tolist() for name, p in policy._asdict().items()}
                   if isinstance(policy, exact.JointPolicy) else policy.tolist()),
        "residual": residual,
        "iterations": iterations,
    }


def solve_matrix(config):
    document = config.document
    payoff = (serialize.load(Path(config.base_dir) / document["payoff_path"])
              if "payoff_path" in document else document["payoff"])
    solution = matrix_game.solve(payoff, tol=document["tol"])
    return {
        "value": solution.value,
        "row_strategy": solution.row_strategy.tolist(),
        "col_strategy": solution.col_strategy.tolist(),
    }


def _bound(document):
    """The error-propagation bound of a diagnose-bound document."""
    return diagnostics.error_propagation_bound(diagnostics.BoundInputs(**{
        name: document[name] for name in ("eps_max", "phi", "gamma", "iterations", "r_max")}))


def diagnose(config):
    document = config.document
    command = config.command
    if command == "diagnose-bound":
        return {"bound": _bound(document)}
    model = build_model(document["model"], config.base_dir)
    mu, sigma = (_tabular_weights(document[name], model.reward_mean.shape)
                 if name in document else None for name in ("mu", "sigma"))
    if command == "diagnose-kappa":
        result = diagnostics.concentration_coefficient(
            model, mu, sigma, document["m"], mode=document["mode"],
            n_sequences=document["n_sequences"],
            rng=np.random.default_rng(config.seeds[0]))
        return {"kappa": result.value, "mode": result.mode,
                "is_lower_bound": result.is_lower_bound,
                "n_sequences": result.n_sequences}
    if command == "diagnose-phi":
        estimate = diagnostics.phi_estimate(model, mu, sigma,
                                            document["m_max"],
                                            mode=document["mode"],
                                            seed=config.seeds[0])
        sampled = document["mode"] == "monte-carlo"
        return {"phi_truncated": estimate.phi_truncated,
                "tail_bound": estimate.tail_bound,
                "kappas": list(estimate.kappas),
                "mode": document["mode"], "is_lower_bound": sampled,
                "note": ("every kappa is a Monte-Carlo lower bound, so "
                         "phi_truncated + tail_bound is not a bound on phi" if sampled
                         else "every kappa is exact and tail_bound caps the rest, so "
                              "phi_truncated + tail_bound bounds phi from above")}
    if command == "diagnose-subopt":
        policy = np.asarray(document["policy"], dtype=np.float64)
        return {"suboptimality": diagnostics.suboptimality(model, policy, mu)}
    if command == "diagnose-sandwich":
        result = fqi.run_fqi(model, build_fqi_config(document["algorithm"],
                                                     config.seeds[0]))
        report = diagnostics.verify_sandwich(model, result.q_tables,
                                             result.rho_tables)
        return {"max_violation": report.max_violation,
                "per_iteration": list(report.per_iteration),
                "holds": bool(report.holds)}
    raise ValueError(f"unknown diagnose command {command}")
