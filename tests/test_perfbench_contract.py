"""The names the benchmark's tracer wraps still exist where it looks.

``perfbench/tracer.py`` wraps functions and methods of ``fittedq`` by
name, where they are defined and in every module that imports them by
name.  Renaming or moving one of them breaks the benchmark; this test
finds that in well under a second, without running a workload.  It loads
the tracer from its file and does not change it.

The parsed config documents of the benchmark's workloads are pinned too:
a parser change that alters one would change the benchmark's reference
fingerprints, which ``perfbench/test_tracer.py`` checks only outside the
default test run.  So are the call counts the benchmark's traced run
requires (``workloads.expected_calls``), on shrunken copies of the
workloads that run in about a second under the tracer.
"""

import hashlib
import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from fittedq import runner, serialize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 of each workload's parsed config document (workload seed 0,
# output_dir "out").  report.json echoes that document, so the benchmark's
# reference fingerprints change whenever one of these does.
WORKLOAD_DOCUMENTS = {
    "dqn-gridworld": "da94d57edd8a6b72a288cb4aa67717d4001f68c4c632a47f71daf0cb464dcbb0",
    "fqi-tabular": "09c6077867be8a2b4c2579ef4e6fb5a38bbc049a6fa975af313267502368b98e",
    "minimax-fqi": "06361949cc91a899d237d68a06ad21997510b5db9d5e920ba9bd63861c1d595b",
    "relu-fqi": "f6dec476e1aa3f38f064c053a54588bce7359af22994c5730cadfb98d37259bd",
}


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


def traced_sites(tracer):
    """(owner, attribute) of every place a traced name is wrapped."""
    for module, attr, importers in tracer.TRACED:
        if "." in attr:
            cls_name, method = attr.split(".")
            yield getattr(importlib.import_module(f"fittedq.{module}"), cls_name), method
            continue
        for site in (module, *importers):
            yield importlib.import_module(f"fittedq.{site}"), attr


def test_install_wraps_every_traced_name_and_uninstall_restores_it():
    tracer = load_tracer()
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr in traced_sites(tracer)}
    assert all(callable(fn) for fn in originals.values())
    spans = tracer.Tracer()
    spans.install()
    try:
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        spans.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def test_workload_documents_are_unchanged():
    workloads = load_perfbench("workloads")
    digests = {
        name: hashlib.sha256(serialize.dumps(runner.parse_config(serialize.dumps(
            workload.config(workloads.DEFAULT_SEED, "out"))).document).encode()).hexdigest()
        for name, workload in workloads.WORKLOADS.items()}
    assert digests == WORKLOAD_DOCUMENTS


def test_parsing_a_workload_calls_no_build_model(count_calls):
    """The benchmark pins ``runner.build_model`` at one call per seed, and
    its traced run parses its config under the tracer, so parsing must
    build the model it checks without that function."""
    workloads = load_perfbench("workloads")
    calls = count_calls(runner, "build_model")
    for workload in workloads.WORKLOADS.values():
        runner.parse_config(serialize.dumps(workload.config(workloads.DEFAULT_SEED, "out")))
    assert calls == []


# Algorithm fields that shrink each workload; every other field, and so the
# code path, is the workload's own.
SHRUNKEN = {
    "dqn-gridworld": {"total_steps": 300},
    "fqi-tabular": {"iterations": 3, "n_samples": 100},
    "minimax-fqi": {"iterations": 3, "n_samples": 100},
    "relu-fqi": {"iterations": 2, "n_samples": 100,
                 "trainer": {"learning_rate": 1e-2, "epochs": 4}},
}


@pytest.mark.parametrize("name", sorted(SHRUNKEN))
def test_traced_shrunken_workload_makes_the_expected_calls(name, tmp_path,
                                                           empty_optimal_q_memo):
    """A change to the per-call structure of a traced layer (a call added,
    skipped or moved to a name the tracer does not wrap) fails here, in the
    default test run, as it fails the benchmark's traced run."""
    tracer, workloads = load_tracer(), load_perfbench("workloads")
    workload = workloads.WORKLOADS[name]
    seeds = workload.run_seeds(workloads.DEFAULT_SEED)[:workload.traced_seeds]
    doc = workload.config(workloads.DEFAULT_SEED, str(tmp_path), seeds)
    doc["algorithm"] = {**doc["algorithm"], **SHRUNKEN[name]}
    spans = tracer.Tracer()
    spans.install()
    try:
        report = runner.run_experiment(runner.parse_config(json.dumps(doc)))
    finally:
        spans.uninstall()
    assert [entry["status"] for entry in report.per_seed] == ["ok"] * len(seeds)
    calls = Counter(spans.name)     # name index -> spans
    expected = workloads.expected_calls(workload, doc, len(seeds))
    assert {key: calls[tracer.NAMES.index(key)] for key in expected} == expected
