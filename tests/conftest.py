from collections import OrderedDict

import pytest

from fittedq import envs, exact, serialize


@pytest.fixture
def broken_model(tmp_path):
    """A model file, relative to ``tmp_path``, that passes config parsing
    and fails when it loads: one transition row sums to 0.5."""
    path = tmp_path / "broken.json"
    envs.save_model(envs.make_random_mdp(2, 2, 0.9, 1.0, seed=1), path)
    doc = serialize.load(path)
    doc["transition"][0][0] = [0.5, 0.0]
    serialize.dump(doc, path)
    return path.name


@pytest.fixture
def empty_optimal_q_memo(monkeypatch):
    """An empty ``exact.optimal_q`` memo for the test; the process's own
    table is restored afterwards."""
    monkeypatch.setattr(exact, "_optimal_q_memo", OrderedDict())


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` replaces ``module.name`` by a wrapper
    that records the positional arguments of each call, and returns the
    list of records."""
    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
        return calls
    return install
