"""Outside-in span tracer for the fittedq modules.

The tracer wraps public functions and methods from the benchmark's own
files; nothing in ``src/`` changes.  Every wrapped call records one span
(name, start, end, parent span) in flat arrays, so a DQN seed's million
spans cost about 28 bytes each.  Seed ids, self times and the phase split
are derived from the spans after the run.

A function that another module imported by name (``from .envs import
sample_transition``) is called through that module's own reference, so
the same wrapper is installed at each import site as well as where the
function is defined.  Methods are wrapped on their class.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (module, function or Class.method, modules that import it by name)
TRACED = (
    ("envs", "sample_transition", ("fqi", "dqn")),
    ("fqi", "run_fqi", ()),
    ("fqi", "run_minimax_fqi", ()),
    ("fqi", "compute_targets", ()),
    ("fqi", "compute_minimax_targets", ()),
    ("fqi", "tabulate", ()),
    ("fqi", "build_approximator", ("dqn",)),
    ("dqn", "dqn_train", ()),
    ("dqn", "ReplayBuffer.push", ()),
    ("dqn", "ReplayBuffer.sample", ()),
    ("dqn", "epsilon_greedy_action", ()),
    ("matrix_game", "solve", ()),
    ("exact", "value_iteration", ()),
    ("exact", "nash_value_iteration", ()),
    ("exact", "bellman_optimality", ()),
    ("exact", "game_bellman_optimality", ()),
    ("exact", "policy_evaluation", ()),
    ("exact", "joint_policy_evaluation", ()),
    ("exact", "best_response_policy", ()),
    ("exact", "equilibrium_joint_policy", ()),
    ("exact", "greedy_policy", ()),
    ("approximators", "fit_least_squares", ("fqi",)),
    ("approximators", "TabularQ.fit", ()),
    ("approximators", "TabularQ.evaluate_all", ()),
    ("approximators", "TabularQ.minibatch_step", ()),
    ("approximators", "TabularQ.clone", ()),
    ("approximators", "SparseReluQ.fit", ()),
    ("approximators", "SparseReluQ.evaluate_all", ()),
    ("approximators", "SparseReluQ.evaluate_states", ()),
    ("approximators", "ReluHead.forward", ()),
    ("approximators", "ReluHead.forward_backward", ()),
    ("approximators", "enforce_constraints", ()),
    ("diagnostics", "weighted_lp_norm", ("fqi",)),
    ("diagnostics", "monte_carlo_one_step_error", ()),
    ("runner", "parse_config", ()),
    ("runner", "build_model", ()),
    ("runner", "run_single_seed", ()),
    ("runner", "emit_report", ()),
)
NAMES = tuple(f"{module}.{attr}" for module, attr, _ in TRACED)
SEED_ROOT = "runner.run_single_seed"

PHASES = ("sample", "target", "fit", "diag", "io", "loop")
# A span without an entry here belongs to the phase of its caller, so the
# phases partition each seed's wall time: a solve inside the targets is
# target time, the same solve inside Nash value iteration is diag time.
_OWN_PHASE = {
    "envs.sample_transition": "sample",
    "dqn.ReplayBuffer.push": "sample",
    "dqn.ReplayBuffer.sample": "sample",
    "fqi.compute_targets": "target",
    "fqi.compute_minimax_targets": "target",
    "approximators.fit_least_squares": "fit",
    "approximators.TabularQ.minibatch_step": "fit",
    "fqi.tabulate": "diag",
    "fqi.run_fqi": "loop",
    "fqi.run_minimax_fqi": "loop",
    "dqn.dqn_train": "loop",
}
for _name in NAMES:
    if _name.startswith(("exact.", "diagnostics.")):
        _OWN_PHASE[_name] = "diag"
    elif _name.startswith("runner."):
        _OWN_PHASE[_name] = "io"


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.payoffs = set()        # distinct matrix_game.solve inputs
        self._stack = [-1]
        self._restore = []

    def _wrapper(self, name_id, fn):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        if NAMES[name_id] == "matrix_game.solve":
            fn = self._recording_payoffs(fn)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _recording_payoffs(self, solve):
        """``solve`` that also records its payoff matrix, inside the span so
        the caller's self time does not grow."""
        payoffs = self.payoffs

        def recording(payoff, *args, **kwargs):
            arr = np.ascontiguousarray(payoff, dtype=np.float64)
            payoffs.add((arr.shape, arr.tobytes()))
            return solve(payoff, *args, **kwargs)
        return recording

    def install(self):
        for name_id, (module, attr, sites) in enumerate(TRACED):
            mod = importlib.import_module(f"fittedq.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, meth, self._wrapper(name_id, owner.__dict__[meth]))
                continue
            wrapped = self._wrapper(name_id, getattr(mod, attr))
            for site in (module, *sites):
                self._patch(importlib.import_module(f"fittedq.{site}"), attr, wrapped)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def spans(self):
        """Spans as arrays, with seed id (index of the enclosing
        ``run_single_seed`` span, -1 outside seeds) and self time."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child],
                              minlength=len(name))
        root_id = NAMES.index(SEED_ROOT)
        seed = _inherit(np.where(name == root_id, np.arange(len(name)), -1), parent)
        own = np.array([PHASES.index(_OWN_PHASE[n]) if n in _OWN_PHASE else -1
                        for n in NAMES], dtype=np.int64)
        phase = _inherit(own[name], parent)
        return {"name": name, "parent": parent, "start": start, "end": end,
                "seed": seed, "self": duration - covered, "phase": phase}


def _inherit(values, parent):
    """Give each span without a value (-1) its nearest ancestor's value.

    Each pass copies from parents that already have one, so the loop ends
    within the call depth; spans with no valued ancestor keep -1.
    """
    out = values.copy()
    while True:
        todo = (out < 0) & (parent >= 0)
        todo[todo] = out[parent[todo]] >= 0
        if not todo.any():
            return out
        out[todo] = out[parent[todo]]
