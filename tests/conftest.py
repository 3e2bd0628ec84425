import pytest

from fittedq import envs, serialize


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
