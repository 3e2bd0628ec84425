"""Experiment orchestration: strict config parsing, seeded sweeps, and
persistent reports.

Configs are JSON documents validated against per-command schemas: unknown
keys are rejected, every violation is reported (not just the first), and
defaults are materialized so a parsed config re-emits canonically.  Each
seed writes one CSV trace; a run writes one JSON report that, together
with the model file, suffices to reproduce the experiment.  All numeric
output is 17-significant-digit text, so identical configs produce
byte-identical artifacts apart from wall-clock columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

try:
    import jsonschema
except ImportError as _exc:  # pragma: no cover
    jsonschema = None
    _jsonschema_error = _exc

from . import __version__, diagnostics, dqn, envs, exact, fqi, matrix_game, serialize
from .approximators import TrainerConfig

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

def _obj(properties, required=()):
    return {
        "type": "object",
        "properties": properties,
        "required": list(required),
        "additionalProperties": False,
    }


_NUMBER = {"type": "number"}
_POS_INT = {"type": "integer", "minimum": 1}
_GAMMA = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_WEIGHTS = {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1}

MODEL_SCHEMAS = {
    "path": _obj({"path": {"type": "string"}}, required=("path",)),
    "random-mdp": _obj({
        "kind": {"const": "random-mdp"},
        "n_states": _POS_INT, "n_actions": _POS_INT,
        "gamma": _GAMMA, "r_max": {"type": "number", "exclusiveMinimum": 0},
        "concentration": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "seed": {"type": "integer", "default": 0},
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
        "seed": {"type": "integer", "default": 0},
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
        "seed": {"type": "integer", "default": 0},
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
        "v_max": {"type": ["number", "string", "null"], "default": "auto"},
        "sparsity": {"type": ["integer", "null"], "default": None},
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
    "batch_size": {"type": ["integer", "null"], "default": None},
    "momentum": {"type": "number", "minimum": 0, "exclusiveMaximum": 1,
                 "default": 0.9},
    "divergence_threshold": {"type": "number", "exclusiveMinimum": 0,
                             "default": 1e8},
})

SAMPLING_SCHEMA = _obj({
    "kind": {"enum": list(fqi.SAMPLING_KINDS), "default": "uniform-state-action"},
    "weights": {"type": ["array", "null"],
                "items": {"type": "number", "minimum": 0}, "default": None},
    "uniform_mix": {"type": "number", "minimum": 0, "maximum": 1, "default": 0.5},
    "require_full_support": {"type": "boolean", "default": False},
})

FQI_ALGO_SCHEMA = _obj({
    "iterations": {"type": "integer", "minimum": 0},
    "n_samples": {**_POS_INT, "default": 1},
    "approximator": {"type": "object", "default": {"kind": "tabular"}},
    "trainer": {"type": "object", "default": {}},
    "sampling": {"type": "object", "default": {}},
    "fresh_samples_per_iteration": {"type": "boolean", "default": True},
    "exact_regression": {"type": "boolean", "default": False},
    "warm_start": {"type": "boolean", "default": False},
    "track_diagnostics": {"type": "boolean", "default": True},
    "sgd_steps": {"type": ["integer", "null"], "default": None},
    "sgd_eta": {"type": ["number", "null"], "default": None},
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
    "eval_period": {"type": ["integer", "null"], "default": None},
    "max_episode_steps": {"type": ["integer", "null"], "default": None},
    "start_distribution": {"type": ["array", "null"], "default": None},
    "opponent_policy": {"type": ["string", "array"], "default": "uniform"},
}, required=("total_steps",))

_COMMON_TOP = {
    "command": {"enum": list(ALL_COMMANDS)},
    "output_dir": {"type": "string", "default": "out"},
    "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1,
              "default": [0]},
}

TOP_SCHEMAS = {}
for _cmd in RUN_COMMANDS:
    TOP_SCHEMAS[_cmd] = _obj({
        **_COMMON_TOP,
        "model": {"type": "object"},
        "algorithm": {"type": "object"},
    }, required=("command", "model", "algorithm"))
TOP_SCHEMAS["sweep"] = _obj({
    **_COMMON_TOP,
    "parameter": {"type": "string"},
    "values": {"type": "array", "minItems": 1},
    "experiment": {"type": "object"},
}, required=("command", "parameter", "values", "experiment"))
TOP_SCHEMAS["solve-exact"] = _obj({
    **_COMMON_TOP,
    "model": {"type": "object"},
    "tol": {"type": "number", "exclusiveMinimum": 0, "default": 1e-10},
}, required=("command", "model"))
TOP_SCHEMAS["solve-matrix"] = _obj({
    **_COMMON_TOP,
    "payoff": {"type": "array"},
    "payoff_path": {"type": "string"},
    "tol": {"type": "number", "exclusiveMinimum": 0, "default": 1e-8},
}, required=("command",))
TOP_SCHEMAS["diagnose-kappa"] = _obj({
    **_COMMON_TOP,
    "model": {"type": "object"},
    "m": _POS_INT,
    "mu": {"type": ["string", "array"], "default": "uniform"},
    "sigma": {"type": ["string", "array"], "default": "uniform"},
    "mode": {"enum": ["exhaustive", "monte-carlo"], "default": "exhaustive"},
    "n_sequences": {**_POS_INT, "default": 10000},
}, required=("command", "model", "m"))
TOP_SCHEMAS["diagnose-phi"] = _obj({
    **_COMMON_TOP,
    "model": {"type": "object"},
    "m_max": _POS_INT,
    "mu": {"type": ["string", "array"], "default": "uniform"},
    "sigma": {"type": ["string", "array"], "default": "uniform"},
    "mode": {"enum": ["exhaustive", "monte-carlo"], "default": "exhaustive"},
}, required=("command", "model", "m_max"))
TOP_SCHEMAS["diagnose-bound"] = _obj({
    **_COMMON_TOP,
    "eps_max": {"type": "number", "minimum": 0},
    "phi": {"type": "number", "minimum": 0},
    "gamma": _GAMMA,
    "iterations": {"type": "integer", "minimum": 0},
    "r_max": {"type": "number", "minimum": 0},
}, required=("command", "eps_max", "phi", "gamma", "iterations", "r_max"))
TOP_SCHEMAS["diagnose-subopt"] = _obj({
    **_COMMON_TOP,
    "model": {"type": "object"},
    "policy": {"type": "array"},
    "mu": {"type": ["string", "array"], "default": "uniform"},
}, required=("command", "model", "policy"))
TOP_SCHEMAS["diagnose-sandwich"] = _obj({
    **_COMMON_TOP,
    "model": {"type": "object"},
    "algorithm": {"type": "object"},
}, required=("command", "model", "algorithm"))


# --------------------------------------------------------------------------
# Parsing

def _schema_errors(schema, doc, prefix=""):
    validator = jsonschema.Draft202012Validator(schema)
    out = []
    for err in sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path)):
        path = "/".join(str(p) for p in err.absolute_path)
        where = f"{prefix}{path}" if path else (prefix.rstrip("/") or "<root>")
        out.append(f"{where}: {err.message}")
    return out


def _fill_defaults(schema, doc):
    """Materialize schema defaults into a fresh dict with schema key order."""
    filled = {}
    for key, sub in schema.get("properties", {}).items():
        if key in doc:
            filled[key] = doc[key]
        elif "default" in sub:
            filled[key] = sub["default"]
    return filled


def _validate_kinded(doc, schemas, ctx, errors, default_kind=None):
    if not isinstance(doc, dict):
        errors.append(f"{ctx}: expected an object")
        return doc
    kind = doc.get("kind", default_kind)
    if "path" in doc and ctx == "model":
        schema = schemas["path"]
        errors.extend(_schema_errors(schema, doc, prefix=f"{ctx}/"))
        return dict(doc)
    if kind not in schemas:
        errors.append(f"{ctx}/kind: unknown kind {kind!r} "
                      f"(choose from {sorted(schemas)})")
        return doc
    doc = {**doc, "kind": kind}
    errors.extend(_schema_errors(schemas[kind], doc, prefix=f"{ctx}/"))
    return _fill_defaults(schemas[kind], doc)


# The diagnostics that read an MDP's (S, A) tables.
MDP_DIAGNOSTICS = ("diagnose-kappa", "diagnose-phi", "diagnose-subopt",
                   "diagnose-sandwich")


def _cell_count(model):
    """State-action cells of a generated tabular model; None for a model
    file or a continuous model."""
    kind = model.get("kind")
    if kind == "random-mdp":
        return model["n_states"] * model["n_actions"]
    if kind == "gridworld":
        return model["width"] * model["height"] * len(envs.GRID_ACTIONS)
    if kind == "random-game":
        return model["n_states"] * model["n_actions"] * model["n_actions2"]
    if kind == "matching-pennies":
        return 4    # one state, two actions per player
    return None


def _entry_count(value):
    """Numbers in a possibly nested JSON array."""
    return sum(map(_entry_count, value)) if isinstance(value, list) else 1


def _model_errors(command, document):
    """What the validated model rules out: games and continuous models in
    the MDP diagnostics, sampling kinds the model cannot draw from, and
    sampling or diagnostic weights that do not give one entry per cell."""
    errors = []
    model = document["model"]
    kind = model.get("kind")
    if command in MDP_DIAGNOSTICS and kind not in (None, "random-mdp", "gridworld"):
        errors.append(f"model/kind: {command} needs a tabular MDP, got {kind!r}")
    algo = document.get("algorithm")
    sampling = algo.get("sampling") if isinstance(algo, dict) else None
    weight_arrays = {name: document.get(name) for name in ("mu", "sigma")}
    if isinstance(sampling, dict):
        sampling_kind = sampling.get("kind")
        if sampling_kind == "explicit-weights" and sampling.get("weights") is None:
            errors.append("algorithm/sampling/weights: explicit-weights "
                          "sampling needs weights")
        if sampling_kind == "explicit-weights" and kind == "random-continuous":
            errors.append("algorithm/sampling/kind: explicit-weights sampling "
                          f"is defined for tabular models only, got {kind!r}")
        if sampling_kind == "on-policy-mixture" and kind in ("random-game",
                                                             "matching-pennies"):
            errors.append("algorithm/sampling/kind: on-policy-mixture sampling "
                          f"is defined for MDPs only, got {kind!r}")
        weight_arrays["algorithm/sampling/weights"] = sampling.get("weights")
    cells = _cell_count(model)
    for where, weights in weight_arrays.items():
        count = _entry_count(weights)
        if isinstance(weights, list) and cells is not None and count != cells:
            errors.append(f"{where}: expected {cells} entries, got {count}")
    return errors


def _online_engine_errors(command, algo):
    """What the online engines cannot run: both step a dense table, the
    single-player loop has no opponent, and the second-player loop has no
    evaluation or episode cap."""
    errors = []
    approximator = algo.get("approximator")
    kind = approximator.get("kind") if isinstance(approximator, dict) else None
    if kind in APPROXIMATOR_SCHEMAS and kind != "tabular":
        errors.append(f"algorithm/approximator/kind: {command} supports only "
                      f"'tabular', got {kind!r}")
    if command == "run-dqn" and algo.get("opponent_policy", "uniform") != "uniform":
        # The default stays in the filled document (report.json records it),
        # so only a value other than the default can have been set on purpose.
        errors.append(f"algorithm/opponent_policy: {command} has no second "
                      "player; remove opponent_policy")
    if command == "run-minimax-dqn":
        errors.extend(f"algorithm/{name}: {command} does not implement "
                      f"{name}; leave it null"
                      for name in ("eval_period", "max_episode_steps")
                      if algo.get(name) is not None)
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
        return self.document.get("seeds", [0])

    @property
    def output_dir(self):
        return self.document.get("output_dir", "out")


def parse_config(text, base_dir="."):
    """Parse and validate a config document, collecting every violation."""
    if jsonschema is None:  # pragma: no cover
        raise RuntimeError(f"jsonschema is required for config parsing: {_jsonschema_error}")
    base_dir = Path(base_dir)
    try:
        doc = serialize.loads(text)
    except ValueError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])
    command = doc.get("command")
    if command not in ALL_COMMANDS:
        raise ConfigError([f"command: unknown or missing command {command!r} "
                           f"(choose from {sorted(ALL_COMMANDS)})"])
    errors = _schema_errors(TOP_SCHEMAS[command], doc)
    filled = _fill_defaults(TOP_SCHEMAS[command], doc)
    variants = []

    model_ok = False
    if "model" in filled:
        n_errors = len(errors)
        filled["model"] = _validate_kinded(filled["model"], MODEL_SCHEMAS,
                                           "model", errors)
        model_ok = len(errors) == n_errors
        if isinstance(filled["model"], dict) and "path" in filled["model"]:
            model_path = base_dir / filled["model"]["path"]
            if not model_path.exists():
                errors.append(f"model/path: file {model_path} does not exist")
    if "algorithm" in filled and isinstance(filled["algorithm"], dict):
        algo_schema = (DQN_ALGO_SCHEMA if command in ("run-dqn", "run-minimax-dqn")
                       else FQI_ALGO_SCHEMA)
        errors.extend(_schema_errors(algo_schema, filled["algorithm"],
                                     prefix="algorithm/"))
        algo = _fill_defaults(algo_schema, filled["algorithm"])
        if "approximator" in algo:
            algo["approximator"] = _validate_kinded(
                algo["approximator"], APPROXIMATOR_SCHEMAS,
                "algorithm/approximator", errors, default_kind="tabular")
        if "trainer" in algo:
            errors.extend(_schema_errors(TRAINER_SCHEMA, algo["trainer"],
                                         prefix="algorithm/trainer/"))
            algo["trainer"] = _fill_defaults(TRAINER_SCHEMA, algo["trainer"])
        if "sampling" in algo:
            errors.extend(_schema_errors(SAMPLING_SCHEMA, algo["sampling"],
                                         prefix="algorithm/sampling/"))
            algo["sampling"] = _fill_defaults(SAMPLING_SCHEMA, algo["sampling"])
        filled["algorithm"] = algo
        if command in ("run-dqn", "run-minimax-dqn"):
            errors.extend(_online_engine_errors(command, algo))
    if model_ok:
        errors.extend(_model_errors(command, filled))
    if command == "sweep":
        inner = filled["experiment"]
        if not isinstance(inner, dict) or inner.get("command") not in RUN_COMMANDS:
            errors.append("experiment/command: sweep needs a run-* experiment")
        else:
            inner.setdefault("seeds", filled["seeds"])
            inner.setdefault("output_dir", filled["output_dir"])
            try:
                filled["experiment"] = parse_config(serialize.dumps(inner),
                                                    base_dir).document
            except ConfigError as exc:
                errors.extend(f"experiment/{e}" for e in exc.errors)
            else:
                variants = _sweep_variants(filled, base_dir, errors)
    if command == "solve-matrix":
        if ("payoff" in doc) == ("payoff_path" in doc):
            errors.append("solve-matrix needs exactly one of payoff, payoff_path")
        if "payoff_path" in doc and not (base_dir / doc["payoff_path"]).exists():
            errors.append(f"payoff_path: file {doc['payoff_path']} does not exist")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(command=command, document=filled, base_dir=base_dir,
                            variants=variants)


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
    parameter, values = document.get("parameter"), document.get("values")
    if not isinstance(parameter, str) or not isinstance(values, list):
        return []
    variants = []
    for i, value in enumerate(values):
        variant = serialize.loads(serialize.dumps(document["experiment"]))
        try:
            _set_by_path(variant, parameter, value)
            variants.append(parse_config(serialize.dumps(variant), base_dir).document)
        except ConfigError as exc:
            errors.extend(f"values/{i}/{e}" for e in exc.errors)
    return variants


# --------------------------------------------------------------------------
# Model / algorithm builders

def build_model(spec, base_dir="."):
    if "path" in spec:
        return envs.load_model(Path(base_dir) / spec["path"])
    kind = spec["kind"]
    if kind == "random-mdp":
        return envs.make_random_mdp(
            spec["n_states"], spec["n_actions"], spec["gamma"], spec["r_max"],
            concentration=spec["concentration"], seed=spec["seed"],
            reward_noise_halfwidth=spec["reward_noise_halfwidth"])
    if kind == "gridworld":
        return envs.make_gridworld(
            spec["width"], spec["height"], tuple(spec["goal"]),
            spec["step_reward"], spec["goal_reward"], spec["slip_prob"],
            spec["gamma"])
    if kind == "random-game":
        return envs.make_random_game(
            spec["n_states"], spec["n_actions"], spec["n_actions2"],
            spec["gamma"], spec["r_max"], seed=spec["seed"],
            concentration=spec["concentration"],
            reward_noise_halfwidth=spec["reward_noise_halfwidth"])
    if kind == "matching-pennies":
        return envs.make_matching_pennies_game(spec["gamma"])
    if kind == "random-continuous":
        return envs.make_random_continuous_mdp(
            spec["state_dim"], spec["n_actions"], spec["gamma"], spec["r_max"],
            seed=spec["seed"], n_bumps=spec["n_bumps"],
            noise_scale=spec["noise_scale"])
    raise ConfigError([f"model/kind: unknown kind {kind!r}"])


def build_approximator_spec(doc):
    kind = doc["kind"]
    if kind == "tabular":
        return fqi.TabularSpec()
    if kind == "linear":
        return fqi.LinearSpec()
    if kind == "relu":
        return fqi.ReluSpec(hidden=tuple(doc["hidden"]), v_max=doc["v_max"],
                            sparsity=doc["sparsity"])
    if kind == "ntk":
        return fqi.NtkSpec(m=doc["m"], ball_radius=doc["ball_radius"])
    raise ConfigError([f"approximator/kind: unknown kind {kind!r}"])


def build_fqi_config(algo, seed):
    sampling_doc = algo["sampling"]
    weights = sampling_doc.get("weights")
    sampling = fqi.SamplingDistribution(
        kind=sampling_doc["kind"],
        weights=None if weights is None else np.asarray(weights, dtype=np.float64),
        uniform_mix=sampling_doc["uniform_mix"],
        require_full_support=sampling_doc["require_full_support"])
    trainer = TrainerConfig(
        learning_rate=algo["trainer"]["learning_rate"],
        epochs=algo["trainer"]["epochs"],
        batch_size=algo["trainer"]["batch_size"],
        momentum=algo["trainer"]["momentum"],
        divergence_threshold=algo["trainer"]["divergence_threshold"])
    return fqi.FqiConfig(
        iterations=algo["iterations"], n_samples=algo["n_samples"],
        approximator=build_approximator_spec(algo["approximator"]),
        trainer=trainer, sampling=sampling, seed=seed,
        fresh_samples_per_iteration=algo["fresh_samples_per_iteration"],
        exact_regression=algo["exact_regression"],
        warm_start=algo["warm_start"],
        track_diagnostics=algo["track_diagnostics"],
        sgd_steps=algo["sgd_steps"], sgd_eta=algo["sgd_eta"])


def build_dqn_config(algo, seed):
    start = algo["start_distribution"]
    return dqn.DqnConfig(
        total_steps=algo["total_steps"], minibatch_size=algo["minibatch_size"],
        epsilon=algo["epsilon"], target_sync_period=algo["target_sync_period"],
        learning_rate=algo["learning_rate"],
        buffer_capacity=algo["buffer_capacity"],
        approximator=build_approximator_spec(algo["approximator"]),
        seed=seed,
        start_distribution=None if start is None else np.asarray(start, dtype=np.float64),
        eval_period=algo["eval_period"],
        max_episode_steps=algo["max_episode_steps"])


# --------------------------------------------------------------------------
# Execution

def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if not np.isfinite(value):  # diverged runs still produce parseable files
        return ""
    return serialize.format_float(value)


def _write_csv(path, header, rows):
    lines = [header]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fqi_rows(trace):
    return [(r.k, r.empirical_mse, r.one_step_error_sigma, r.suboptimality_1mu,
             r.wall_ms) for r in trace.records]


def _dqn_rows(records):
    return [(r.t, r.loss, r.epsilon, r.synced, r.eval_value) for r in records]


def _finite_or_none(value):
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


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
        _write_csv(csv_path, FQI_CSV_HEADER, _fqi_rows(result.trace))
        summary = {k: _finite_or_none(v) for k, v in result.trace.summary.items()}
        summary["diverged"] = bool(result.diverged)
        return summary
    if command in ("run-dqn", "run-minimax-dqn"):
        config = build_dqn_config(algo_doc, seed)
        if command == "run-dqn":
            result = dqn.dqn_train(model, config)
        else:
            opponent = algo_doc["opponent_policy"]
            if isinstance(opponent, str):
                opponent = np.full((model.n_states, model.n_actions_p1),
                                   1.0 / model.n_actions_p1)
            else:
                opponent = np.asarray(opponent, dtype=np.float64)
            result = dqn.minimax_dqn_train(model, config, opponent)
        _write_csv(csv_path, DQN_CSV_HEADER, _dqn_rows(result.step_records))
        summary = {k: v for k, v in result.trace.summary.items() if k != "wall_ms"}
        return summary
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
    model_doc = document["model"]
    algo_doc = document["algorithm"]
    seeds = document.get("seeds", [0])
    tasks = [(seed, out_dir / f"trace_seed{seed}.csv") for seed in seeds]
    per_seed = []
    if jobs and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [(seed, path, pool.submit(
                run_single_seed, command, model_doc, algo_doc, seed,
                str(path), str(base_dir))) for seed, path in tasks]
            for seed, path, future in futures:
                per_seed.append(_seed_entry(seed, path, future))
    else:
        for seed, path in tasks:
            try:
                metrics = run_single_seed(command, model_doc, algo_doc, seed,
                                          str(path), str(base_dir))
                per_seed.append({"seed": seed, "status": "ok",
                                 "metrics": metrics, "trace_csv": str(path)})
            except Exception as exc:  # noqa: BLE001 - per-seed failures recorded
                per_seed.append({"seed": seed, "status": "error",
                                 "metrics": {}, "error": str(exc),
                                 "trace_csv": None})
    return per_seed


def _seed_entry(seed, path, future):
    try:
        metrics = future.result()
        return {"seed": seed, "status": "ok", "metrics": metrics,
                "trace_csv": str(path)}
    except Exception as exc:  # noqa: BLE001
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
    if isinstance(spec, str):
        if spec != "uniform":
            raise ConfigError([f"unknown weight spec {spec!r}"])
        return np.full(shape, 1.0 / int(np.prod(shape)))
    weights = np.asarray(spec, dtype=np.float64).reshape(shape)
    return weights


def solve_exact(config):
    """Q*, the induced policy, residual, and iteration count of a model."""
    document = config.document
    model = build_model(document["model"], config.base_dir)
    q_star, iterations = exact.optimal_q(model, tol=document.get("tol", 1e-10))
    residual = float(np.abs(exact.optimality_backup(model, q_star) - q_star).max())
    policy = exact.output_policy(model, q_star)
    return {
        "q_star": q_star.tolist(),
        "policy": ({name: p.tolist() for name, p in policy._asdict().items()}
                   if isinstance(policy, exact.JointPolicy) else policy.tolist()),
        "residual": residual,
        "iterations": iterations,
    }


def solve_matrix(config):
    document = config.document
    if "payoff_path" in document:
        payoff = np.asarray(serialize.load(
            Path(config.base_dir) / document["payoff_path"]))
    else:
        payoff = np.asarray(document["payoff"], dtype=np.float64)
    solution = matrix_game.solve(payoff, tol=document.get("tol", 1e-8))
    return {
        "value": solution.value,
        "row_strategy": solution.row_strategy.tolist(),
        "col_strategy": solution.col_strategy.tolist(),
    }


def diagnose(config):
    document = config.document
    command = config.command
    if command == "diagnose-bound":
        inputs = diagnostics.BoundInputs(
            eps_max=document["eps_max"], phi=document["phi"],
            gamma=document["gamma"], iterations=document["iterations"],
            r_max=document["r_max"])
        return {"bound": diagnostics.error_propagation_bound(inputs)}
    model = build_model(document["model"], config.base_dir)
    if not isinstance(model, envs.TabularMDP):
        raise TypeError(f"{command} needs a tabular MDP, got a {type(model).__name__}")
    shape = (model.n_states, model.n_actions)
    if command == "diagnose-kappa":
        mu = _tabular_weights(document["mu"], shape)
        sigma = _tabular_weights(document["sigma"], shape)
        result = diagnostics.concentration_coefficient(
            model, mu, sigma, document["m"], mode=document["mode"],
            n_sequences=document["n_sequences"],
            rng=np.random.default_rng(config.seeds[0]))
        return {"kappa": result.value, "mode": result.mode,
                "is_lower_bound": result.is_lower_bound,
                "n_sequences": result.n_sequences}
    if command == "diagnose-phi":
        mu = _tabular_weights(document["mu"], shape)
        sigma = _tabular_weights(document["sigma"], shape)
        estimate = diagnostics.phi_estimate(model, mu, sigma,
                                            document["m_max"],
                                            mode=document["mode"])
        return {"phi_truncated": estimate.phi_truncated,
                "tail_bound": estimate.tail_bound,
                "kappas": list(estimate.kappas)}
    if command == "diagnose-subopt":
        mu = _tabular_weights(document["mu"], shape)
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
