"""The ReLU targets and the ReLU trainer's step against frozen copies of
their per-row and reduction forms, byte for byte.

``compute_targets`` on a :class:`SparseReluQ` runs each head's forward pass
over the next states stacked as ``(m, 1, d)``, so every state is still one
vector-matrix product.  ``ReluHead.forward_backward`` sums each bias
gradient with ``einsum`` where the layer is wider than one unit.  The
references below are the forms those replaced: one ``evaluate_all`` per
sample, and ``np.add.reduce`` over the rows.  ``enforce_constraints``
clips with the array method, checked against ``np.clip``.  Every
comparison is of bytes, so a -0.0 that reads +0.0, or a NaN that changes
its payload, fails it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fittedq import approximators, fqi
from fittedq.approximators import (
    RegressionDataset,
    ReluHead,
    ReluWorkspace,
    SparseReluQ,
    TrainerConfig,
    ZeroQ,
)
from fittedq.envs import TransitionSample

HIDDEN = [(32, 32), (5, 4), (16,), (3, 7, 2), (), (1,), (4, 1, 3)]


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- targets

def reference_compute_targets(batch, q, gamma):
    """``compute_targets`` with one ``evaluate_all`` per sample."""
    if isinstance(q, ZeroQ) or gamma == 0.0:
        return np.fromiter((sample.reward for sample in batch), np.float64, len(batch))
    return np.array([sample.reward + gamma * float(np.max(q.evaluate_all(sample.next_state)))
                     for sample in batch])


def relu_batch(rng, n, state_dim, n_actions):
    """Transitions whose next states reach outside the unit cube, so that
    clamped and unclamped outputs both occur."""
    next_states = rng.uniform(-3.0, 3.0, size=(n, state_dim))
    rewards = rng.uniform(-1.0, 1.0, size=n)
    return [TransitionSample(next_states[i], int(rng.integers(n_actions)), float(rewards[i]),
                             next_states[i].copy())
            for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(hidden=st.sampled_from(HIDDEN), state_dim=st.integers(1, 3),
       n_actions=st.integers(1, 3), n=st.sampled_from([1, 127, 128, 129, 1600]),
       v_max=st.sampled_from([None, "auto", 0.05]), gamma=st.sampled_from([0.0, 0.5, 0.9]),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_targets_match_per_row_targets(hidden, state_dim, n_actions, n, v_max, gamma,
                                               seed):
    rng = np.random.default_rng(seed)
    # "auto" is r_max / (1 - gamma) at r_max = 1 and gamma = 0.9.
    bound = 10.0 if v_max == "auto" else v_max
    q = SparseReluQ(state_dim, n_actions, hidden=hidden, v_max=bound, rng=rng)
    batch = relu_batch(rng, n, state_dim, n_actions)
    got = fqi.compute_targets(batch, q, gamma)
    assert same_bytes(got, reference_compute_targets(batch, q, gamma))


@pytest.mark.parametrize("gamma", [0.0, 0.9])
def test_zero_function_targets_match_per_row_targets(gamma):
    rng = np.random.default_rng(5)
    batch = relu_batch(rng, 129, 2, 2)
    got = fqi.compute_targets(batch, ZeroQ(2), gamma)
    assert same_bytes(got, reference_compute_targets(batch, ZeroQ(2), gamma))


def test_stacked_targets_keep_signed_zeros_and_nan():
    """Heads that read exactly +-0.0 or NaN at some states: the row maximum
    of the stack picks the same zero, and the same NaN, as the per-row max."""
    q = SparseReluQ(1, 3, hidden=(), rng=np.random.default_rng(0))
    q.heads[0].weights[0][...] = 0.0       # +0.0 everywhere
    q.heads[1].weights[0][...] = -1.0      # -0.0 at the state 0.0, NaN at NaN
    q.heads[2].weights[0][...] = 1.0       # +-0.0 at the states +-0.0
    states = [0.0, -0.0, np.nan, 1.0, -1.0, np.inf]
    batch = [TransitionSample(0, 0, -0.0, np.array([s])) for s in states]
    with np.errstate(invalid="ignore"):
        got = fqi.compute_targets(batch, q, 0.5)
        expected = reference_compute_targets(batch, q, 0.5)
    assert same_bytes(got, expected)


def test_stacked_targets_reject_a_wrong_state_dimension():
    q = SparseReluQ(2, 2, hidden=(4,), rng=np.random.default_rng(0))
    batch = [TransitionSample(0, 0, 0.0, np.zeros(3))]
    with pytest.raises(ValueError, match="dimension 3, expected 2"):
        fqi.compute_targets(batch, q, 0.9)


def test_relu_targets_make_no_per_row_evaluate_all_call(count_calls):
    q = SparseReluQ(2, 2, hidden=(8,), rng=np.random.default_rng(0))
    batch = relu_batch(np.random.default_rng(1), 300, 2, 2)
    per_row = count_calls(SparseReluQ, "evaluate_all")
    forwards = count_calls(ReluHead, "forward")
    fqi.compute_targets(batch, q, 0.9)
    assert per_row == []
    # Three stacks of at most 128 rows, one forward pass per head each.
    assert len(forwards) == 3 * 2


# ------------------------------------------------------- forward_backward

def reference_forward_backward(self, x, y, workspace):
    """``ReluHead.forward_backward`` with ``np.add.reduce`` for the bias
    gradients."""
    n = len(x)
    activations = [x]
    h = x
    for layer in range(len(self.biases)):
        h, _ = workspace.views(layer, n)
        np.matmul(activations[-1], self.weights[layer].T, out=h)
        h += self.biases[layer]
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    residual = (h @ self.weights[-1].T)[:, 0] - y
    grads_w, grads_b = workspace.grad_w, workspace.grad_b
    delta = (2.0 * residual / n)[:, None]
    np.matmul(delta.T, h, out=grads_w[-1])
    for layer in range(len(self.biases) - 1, -1, -1):
        out, mask = workspace.views(layer, n)
        np.greater(out, 0, out=mask)
        if layer == len(self.biases) - 1:
            np.einsum("ik,kj->ij", delta, self.weights[-1], out=out)
        else:
            np.matmul(delta, self.weights[layer + 1], out=out)
        np.multiply(out, mask, out=out)
        delta = out
        np.matmul(delta.T, activations[layer], out=grads_w[layer])
        np.add.reduce(delta, axis=0, out=grads_b[layer])
    return residual, grads_w, grads_b


def kill_units(head, rng):
    """Zero the weights into some hidden units and make their biases
    negative: they never fire, so their delta columns are all +-0.0."""
    for weights, biases in zip(head.weights, head.biases):
        dead = rng.random(len(biases)) < 0.4
        weights[dead] = 0.0
        biases[dead] = -0.5


@pytest.mark.parametrize("hidden", HIDDEN)
@settings(max_examples=30, deadline=None)
@given(state_dim=st.integers(1, 3),
       n=st.sampled_from([1, 15, 16, 17, 800, 801]), dead=st.booleans(),
       special=st.sampled_from([None, np.inf, -np.inf, np.nan]),
       special_in=st.sampled_from(["x", "y"]), seed=st.integers(0, 2**32 - 1))
def test_forward_backward_matches_reduce_form(hidden, state_dim, n, dead, special,
                                                 special_in, seed):
    rng = np.random.default_rng(seed)
    widths = (state_dim, *hidden, 1)
    head = ReluHead(widths, rng)
    if dead:
        kill_units(head, rng)
    x = rng.uniform(-1.0, 1.0, size=(n, state_dim))
    y = rng.normal(size=n)
    if special is not None:
        row = int(rng.integers(n))
        if special_in == "x":
            x[row, int(rng.integers(state_dim))] = special
        else:
            y[row] = special
    # Room for more rows than this call uses, as in a fit.
    workspace = ReluWorkspace(widths, n + 3)
    reference = ReluWorkspace(widths, n + 3)
    with np.errstate(invalid="ignore", over="ignore"):
        got = head.forward_backward(x, y, workspace)
        expected = reference_forward_backward(head, x, y, reference)
    assert same_bytes(got[0], expected[0])
    assert same_bytes(workspace.grad, reference.grad)


@pytest.mark.parametrize("hidden", [(32, 32), (5, 4), (16,), (1,), ()])
@pytest.mark.parametrize("batch_size", [None, 17])
def test_fit_matches_reduce_form(monkeypatch, hidden, batch_size):
    """Four epochs of :meth:`SparseReluQ.fit` leave every head's ``flat``
    with the bytes the ``np.add.reduce`` form gives."""
    rng = np.random.default_rng(3)
    states = rng.uniform(0.0, 1.0, size=(300, 2))
    dataset = RegressionDataset(states, rng.integers(2, size=300),
                                np.sin(3.0 * states.sum(axis=1)))
    trainer = TrainerConfig(epochs=4, batch_size=batch_size)

    def fitted():
        net = SparseReluQ(2, 2, hidden=hidden, v_max=3.0, sparsity=40,
                          rng=np.random.default_rng(11))
        report = net.fit(dataset, trainer=trainer, rng=np.random.default_rng(12))
        return [head.flat.copy() for head in net.heads], report

    got, got_report = fitted()
    monkeypatch.setattr(ReluHead, "forward_backward", reference_forward_backward)
    expected, expected_report = fitted()
    assert all(same_bytes(a, b) for a, b in zip(got, expected))
    assert got_report == expected_report


# ---------------------------------------------------- enforce_constraints

def reference_enforce_constraints(net):
    """``enforce_constraints`` with the ``np.clip`` function."""
    clipped = 0
    pruned = 0
    for head in net.heads:
        flat = head.flat
        clipped += np.count_nonzero(np.abs(flat) > 1.0)
        np.clip(flat, -1.0, 1.0, out=flat)
        if net.sparsity is None:
            continue
        nonzero = np.flatnonzero(flat)
        excess = len(nonzero) - net.sparsity
        if excess <= 0:
            continue
        order = np.argsort(np.abs(flat[nonzero]), kind="stable")
        flat[nonzero[order[:excess]]] = 0.0
        pruned += excess
    return approximators.EnforcementReport(clipped_count=int(clipped), pruned_count=pruned)


@settings(max_examples=60, deadline=None)
@given(hidden=st.sampled_from(HIDDEN), sparsity=st.sampled_from([None, 1, 7, 40, 10**6]),
       seed=st.integers(0, 2**32 - 1))
def test_enforce_constraints_matches_np_clip(hidden, sparsity, seed):
    rng = np.random.default_rng(seed)
    net = SparseReluQ(2, 2, hidden=hidden, sparsity=sparsity, rng=rng)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1.5, -1e300, 5e-324])
    for head in net.heads:
        head.flat[...] = rng.normal(scale=2.0, size=head.flat.size)
        picks = rng.random(head.flat.size) < 0.3
        head.flat[picks] = rng.choice(specials, size=int(picks.sum()))
    twin = SparseReluQ(2, 2, hidden=hidden, sparsity=sparsity, rng=rng)
    for head, copy in zip(net.heads, twin.heads):
        copy.flat[...] = head.flat
    report = approximators.enforce_constraints(net)
    assert report == reference_enforce_constraints(twin)
    assert all(same_bytes(a.flat, b.flat) for a, b in zip(net.heads, twin.heads))
