"""The names the benchmark's tracer wraps still exist where it looks.

``perfbench/tracer.py`` wraps functions and methods of ``fittedq`` by
name, where they are defined and in every module that imports them by
name.  Renaming or moving one of them breaks the benchmark; this test
finds that in well under a second, without running a workload.  It loads
the tracer from its file and does not change it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


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
