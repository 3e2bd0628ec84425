"""Function-approximation backends behind a common Q-function contract.

Every Q-function has ``evaluate_all(state)``, the values of all actions
at one state.  The three families below add ``fit(dataset)``, which
raises ``IndexError`` on an out-of-range cell before it changes a weight;
:class:`ZeroQ` and the two networks also have ``evaluate_states``,
``evaluate_all`` over a batch of vector states, which the Monte-Carlo
diagnostics read.  The initial estimate :class:`ZeroQ` and the table
:class:`TabularQ` take an action shape, ``(A,)`` on an MDP or ``(A, B)``
on a game; the networks read vector states and have one value per action.

* :class:`TabularQ` -- a dense table whose least-squares fit is the exact
  per-cell mean of the targets; its ``minibatch_step`` and ``clone`` are
  the DQN step and target copy.
* :class:`SparseReluQ` -- one scalar ReLU network per action trained by
  hand-rolled backpropagation, with weights clipped to ``[-1, 1]``, a
  global nonzero budget enforced by magnitude pruning, and outputs
  optionally clamped to ``[-v_max, v_max]``.
* :class:`NtkQ` -- a width-``2m`` two-layer ReLU network under the
  symmetric initialization (mirrored signs and duplicated rows), whose
  fit restarts at the anchor weights, takes one projected single-sample
  SGD step per row inside a Frobenius ball around them, and adopts the
  averaged iterate.  At initialization it is exactly the zero function.
  One evaluation, or one SGD step's gradient, is a one-row batch.

Gradients are written out explicitly; there is no autodiff anywhere.
Networks are single-owner mutable objects while training and safe for
concurrent reads once training stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class TrainerConfig:
    """Gradient-descent settings for the trainable backends.

    ``batch_size=None`` means full-batch; the defaults were fixed by one
    calibration run on the sine regression task and are overridable
    everywhere a trainer is accepted.
    """

    learning_rate: float = 1e-2
    epochs: int = 2000
    batch_size: int | None = None
    momentum: float = 0.9
    divergence_threshold: float = 1e8


@dataclass
class FitReport:
    final_mse: float
    epochs_run: int
    diverged: bool = False


@dataclass
class EnforcementReport:
    clipped_count: int
    pruned_count: int


@dataclass(frozen=True)
class RegressionDataset:
    """Supervised pairs for one fitted-Q regression step.

    ``states`` is an int vector for tabular models or an (n, d) float
    matrix for vector states.  On a game ``actions`` holds the joint
    actions ``a*B + b``.
    """

    states: np.ndarray
    actions: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        targets = np.asarray(self.targets, dtype=np.float64)
        actions = np.asarray(self.actions, dtype=np.int64)
        if not len(self.states) == len(actions) == len(targets):
            raise ValueError("states, actions and targets have different lengths")
        if len(targets) and not np.isfinite(targets).all():
            raise ValueError("targets contain non-finite values")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "actions", actions)

    def __len__(self):
        return len(self.targets)


def _check_range(name, index, bound):
    """Raise ``IndexError`` unless every entry of ``index`` is in ``[0, bound)``."""
    low, high = int(index.min()), int(index.max())
    if low < 0 or high >= bound:
        raise IndexError(f"{name} {low if low < 0 else high} out of range [0, {bound})")


class ZeroQ:
    """The constant-zero Q-function used as the initial fitted-Q estimate."""

    def __init__(self, *action_shape):
        self._shape = action_shape

    def evaluate_all(self, state):
        return np.zeros(self._shape)

    def evaluate_states(self, states):
        return np.zeros((len(states), *self._shape))


class TabularQ:
    """Dense Q table over (S, A) or (S, A, B), fit on its (S, A*B) view."""

    def __init__(self, n_states, *action_shape):
        self.values = np.zeros((n_states, *action_shape))

    def evaluate_all(self, state):
        return self.values[state].copy()

    def fit(self, dataset, trainer=None):
        """Exact empirical minimizer: each touched cell becomes the mean of
        its targets; untouched cells keep their current value.

        ``np.bincount`` sums each cell's targets in dataset order, as
        ``np.add.at`` into a zero table does, so the bits are the same.
        """
        if len(dataset) == 0:
            raise ValueError("cannot fit an empty dataset")
        values = self.values.reshape(len(self.values), -1)  # (S, A*B)
        idx = np.asarray(dataset.states, dtype=np.int64), dataset.actions
        _check_range("state", idx[0], values.shape[0])
        _check_range("action", idx[1], values.shape[1])
        flat = idx[0] * values.shape[1] + idx[1]
        sums = np.bincount(flat, dataset.targets, minlength=values.size).reshape(values.shape)
        counts = np.bincount(flat, minlength=values.size).reshape(values.shape)
        touched = counts > 0
        values[touched] = sums[touched] / counts[touched]
        mse = float(np.mean((dataset.targets - values[idx]) ** 2))
        # A view of values unless a caller assigned a non-contiguous table.
        self.values = values.reshape(self.values.shape)
        return FitReport(final_mse=mse, epochs_run=1)

    def minibatch_step(self, flat_cells, targets, learning_rate):
        """One semi-gradient step on the mean squared error of ``targets``
        at the cells whose flat indices into ``values`` are ``flat_cells``.

        ``np.bincount`` sums each cell's residuals in batch order, as
        ``np.add.at`` into a zero table does, so the bits are the same.
        """
        residual = targets - self.values.reshape(-1)[flat_cells]
        grad = np.bincount(flat_cells, residual, minlength=self.values.size)
        grad *= learning_rate
        grad /= len(targets)
        self.values += grad.reshape(self.values.shape)
        residual *= residual
        return float(np.add.reduce(residual)) / len(targets)

    def clone(self):
        out = TabularQ(*self.values.shape)
        out.values = self.values.copy()
        return out


def _arena(widths):
    """A new float64 array for the parameters of a network with layer
    widths ``widths``, and its ``(weights, biases)`` as C-contiguous views
    that tile it in the order ``weights + biases``: ``weights[l]`` is
    ``(d_{l+1}, d_l)``, ``biases[l]`` is ``(d_{l+1},)`` for the hidden
    layers."""
    n_layers = len(widths) - 1
    shapes = [(widths[l + 1], widths[l]) for l in range(n_layers)]
    shapes += [(width,) for width in widths[1:-1]]
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.empty(sum(sizes))
    views = [part.reshape(shape)
             for part, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    return flat, views[:n_layers], views[n_layers:]


class ReluHead:
    """One scalar ReLU network ``x -> W_{L+1} relu(... relu(W_1 x + v_1))``.

    Hidden layers carry biases; the output layer does not.  ``weights[l]``
    maps width ``d_l`` to ``d_{l+1}``, ``biases[l]`` exists for hidden
    layers only.  All parameters live in one float64 array ``flat``;
    ``weights`` and ``biases`` are views into it, in the order
    ``weights + biases``, so a write through either is a write to
    ``flat``.  Assign into them (``p[...] = values``), never rebind them.
    """

    def __init__(self, widths, rng):
        # widths = (d_0, d_1, ..., d_L, 1)
        self.widths = tuple(widths)
        self.flat, self.weights, self.biases = _arena(self.widths)
        n_layers = len(widths) - 1
        for layer in range(n_layers):
            fan_in = widths[layer]
            scale = min(1.0, math.sqrt(2.0 / fan_in))
            w = rng.normal(0.0, scale, size=(widths[layer + 1], widths[layer]))
            np.clip(w, -1.0, 1.0, out=self.weights[layer])
            if layer < n_layers - 1:
                # Nonzero bias init spreads the ReLU kinks over the input
                # range; with zero biases the net starts piecewise linear
                # around the origin and full-batch descent stalls there.
                bound = min(1.0, 1.0 / math.sqrt(fan_in))
                self.biases[layer][...] = rng.uniform(-bound, bound, size=widths[layer + 1])

    def __getstate__(self):
        # Copies and pickles rebuild the views on their own copy of flat.
        return {"widths": self.widths, "flat": self.flat}

    def __setstate__(self, state):
        self.widths = state["widths"]
        self.flat, self.weights, self.biases = _arena(self.widths)
        self.flat[...] = state["flat"]

    def forward(self, x):
        """Batched raw forward pass; x has shape (n, d_0)."""
        h = x
        for layer in range(len(self.weights) - 1):
            h = np.maximum(h @ self.weights[layer].T + self.biases[layer], 0.0)
        return (h @ self.weights[-1].T)[:, 0]

    def forward_backward(self, x, y, workspace):
        """One forward and one backward pass of the mean squared error.

        Returns ``(residual, grads_w, grads_b)``: ``residual = pred - y``
        per sample, a new array, and the gradients of
        ``mean(residual ** 2)`` with respect to ``weights`` and
        ``biases``.  The gradients are views of ``workspace.grad``, laid
        out as ``flat`` is, and the next call overwrites them.  The hidden
        activations, deltas and ReLU masks are written into ``workspace``,
        a :class:`ReluWorkspace` with room for ``len(x)`` rows.
        """
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
        delta = (2.0 * residual / n)[:, None]            # (n, 1)
        np.matmul(delta.T, h, out=grads_w[-1])
        for layer in range(len(self.biases) - 1, -1, -1):
            # Once its ReLU mask is taken, the layer's activation buffer
            # receives its delta, computed from the delta of the layer above.
            # A 0.0/1.0 mask: a float multiply is cheaper than a
            # float-by-bool one, and the products are the same.
            out, mask = workspace.views(layer, n)
            np.greater(out, 0, out=mask)
            if layer == len(self.biases) - 1:
                # The width-1 output layer gives an outer product.  Like a
                # K=1 matmul, einsum adds each product to a zero, so a -0.0
                # product reads +0.0; a broadcast multiply would keep -0.0.
                np.einsum("ik,kj->ij", delta, self.weights[-1], out=out)
            else:
                np.matmul(delta, self.weights[layer + 1], out=out)
            np.multiply(out, mask, out=out)
            delta = out
            np.matmul(delta.T, activations[layer], out=grads_w[layer])
            if out.shape[1] > 1:
                # Sums the rows in order, as the reduction does, in half the
                # time.  On one column the reduction is over contiguous
                # memory and pairwise, and einsum's order differs from it.
                np.einsum("ij->j", delta, out=grads_b[layer])
            else:
                np.add.reduce(delta, axis=0, out=grads_b[layer])
        return residual, grads_w, grads_b


class ReluWorkspace:
    """Scratch arrays for :meth:`ReluHead.forward_backward` on up to
    ``rows`` samples of a network with layer widths ``widths``.

    Each hidden layer has one buffer, which holds its activations in the
    forward pass and its delta in the backward pass, and one more buffer
    holds a ReLU mask as float 0.0/1.0.  Every view is a C-contiguous
    ``(n, width)`` reshape of a buffer's prefix, the layout of a freshly
    allocated array, so BLAS and the reductions see the same strides and
    produce the same bits.  ``grad`` holds one head's gradient in the
    layout of ``ReluHead.flat``; ``grad_w`` and ``grad_b`` are its views.
    """

    def __init__(self, widths, rows):
        self.hidden = tuple(widths[1:-1])
        self._layers = [np.empty(rows * width) for width in self.hidden]
        self._mask = np.empty(rows * max(self.hidden, default=0))
        self.grad, self.grad_w, self.grad_b = _arena(widths)
        self._views = {}

    def views(self, layer, n):
        """``(n, width)`` views of hidden layer ``layer``'s buffer and of
        the mask buffer, made once per ``(layer, n)``."""
        pair = self._views.get((layer, n))
        if pair is None:
            width = self.hidden[layer]
            pair = self._views[layer, n] = (
                self._layers[layer][:n * width].reshape(n, width),
                self._mask[:n * width].reshape(n, width))
        return pair


class SparseReluQ:
    """Per-action sparse ReLU heads with a shared architecture.

    Each head obeys three constraints after every enforcement pass: every
    weight and bias lies in ``[-1, 1]``, the head's total nonzero count is
    at most ``sparsity``, and (when ``v_max`` is set) evaluated outputs
    are clamped to ``[-v_max, v_max]``.  Training minimizes the empirical
    mean squared error of the raw (unclamped) output; the clamp applies at
    evaluation time.  Each head keeps its parameters in one flat array
    (:class:`ReluHead`), which training, enforcement and copies work on.
    """

    def __init__(self, state_dim, n_actions, hidden=(32, 32), v_max=None,
                 sparsity=None, rng=None):
        rng = rng or np.random.default_rng(0)
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.v_max = v_max
        self.sparsity = sparsity
        widths = (state_dim, *hidden, 1)
        self.heads = [ReluHead(widths, rng) for _ in range(n_actions)]
        enforce_constraints(self)

    def _clamp(self, raw):
        if self.v_max is None:
            return raw
        return np.clip(raw, -self.v_max, self.v_max)

    def evaluate_all(self, state):
        x = np.asarray(state, dtype=np.float64).reshape(1, -1)
        if x.shape[1] != self.state_dim:
            raise ValueError(f"state has dimension {x.shape[1]}, expected {self.state_dim}")
        return self._clamp(np.array([head.forward(x)[0] for head in self.heads]))

    def evaluate_states(self, states):
        """``evaluate_all`` over an (n, d) batch of states, to rounding.

        One matrix product per layer rounds differently from the
        vector-matrix product of one state: on 64,000 states, 16,958 to
        90,571 of the 128,000 outputs of four 2-action networks differed
        in the low bits.  A path that must keep ``evaluate_all``'s bits
        stacks the states as ``(n, 1, d)`` (``fqi._relu_state_values``)."""
        states = np.asarray(states, dtype=np.float64)
        raw = np.stack([head.forward(states) for head in self.heads], axis=1)
        return self._clamp(raw)

    def fit(self, dataset, trainer=None, rng=None):
        """Minibatch gradient descent per head, constraints enforced after
        every epoch.  Reports the post-enforcement empirical MSE."""
        if len(dataset) == 0:
            raise ValueError("cannot fit an empty dataset")
        _check_range("action", dataset.actions, len(self.heads))
        trainer = trainer or TrainerConfig()
        rng = rng or np.random.default_rng(0)
        states = np.asarray(dataset.states, dtype=np.float64)
        if states.ndim == 1:
            states = states[:, None]
        groups = [np.nonzero(dataset.actions == h)[0] for h in range(len(self.heads))]
        batch_size = trainer.batch_size
        # A group no larger than the batch trains on all its rows in every
        # epoch, so its batch is built once; larger groups draw a fresh
        # minibatch per epoch.
        fixed = [(states[rows], dataset.targets[rows])
                 if batch_size is None or batch_size >= len(rows) else None
                 for rows in groups]
        rows_max = max(len(rows) if batch is not None else batch_size
                       for rows, batch in zip(groups, fixed))
        workspace = ReluWorkspace(self.heads[0].widths, rows_max)
        grad = workspace.grad
        velocity = [np.zeros_like(head.flat) for head in self.heads]
        diverged = False
        epochs_run = 0
        for _ in range(trainer.epochs):
            epochs_run += 1
            epoch_loss = 0.0
            for head, rows, batch, vel in zip(self.heads, groups, fixed, velocity):
                if len(rows) == 0:
                    continue
                if batch is None:
                    rows = rng.choice(rows, size=batch_size, replace=False)
                    batch = states[rows], dataset.targets[rows]
                residual = head.forward_backward(*batch, workspace)[0]
                epoch_loss += float(residual @ residual)
                grad *= trainer.learning_rate      # the products lr * g, in place
                vel *= trainer.momentum
                vel -= grad
                head.flat += vel
            enforce_constraints(self)
            if not np.isfinite(epoch_loss) or epoch_loss > trainer.divergence_threshold:
                diverged = True
                break
        preds = np.zeros(len(dataset))
        for h, rows in enumerate(groups):
            if len(rows):
                preds[rows] = self.heads[h].forward(states[rows])
        mse = float(np.mean((dataset.targets - self._clamp(preds)) ** 2))
        return FitReport(final_mse=mse, epochs_run=epochs_run, diverged=diverged)


def enforce_constraints(net):
    """Project a :class:`SparseReluQ` back into its constraint set.

    Every weight is clipped to ``[-1, 1]`` (a NaN stays NaN and is not
    counted); if a head's nonzero count exceeds the budget, the
    smallest-magnitude entries are zeroed first (ties broken by parameter
    order).  One pass over each head's ``flat`` array.  Returns counts of
    touched entries.
    """
    clipped = 0
    pruned = 0
    for head in net.heads:
        flat = head.flat
        clipped += np.count_nonzero(np.abs(flat) > 1.0)
        # The method reaches the clip ufunc without np.clip's dispatch.
        flat.clip(-1.0, 1.0, out=flat)
        if net.sparsity is None:
            continue
        nonzero = np.flatnonzero(flat)
        excess = len(nonzero) - net.sparsity
        if excess <= 0:
            continue
        order = np.argsort(np.abs(flat[nonzero]), kind="stable")
        flat[nonzero[order[:excess]]] = 0.0
        pruned += excess
    return EnforcementReport(clipped_count=int(clipped), pruned_count=pruned)


class NtkQ:
    """Two-layer ReLU network of width 2m with frozen mirrored output signs.

    Inputs pack the state with a one-hot action and are scaled by
    ``1/sqrt(state_dim + 1)`` so their Euclidean norm never exceeds one.
    Only the input weights ``w`` train; ``w0`` anchors the Frobenius ball
    of radius ``ball_radius`` that every projected step returns into.
    The mirrored halves are summed pairwise so the initial network output
    is exactly zero in floating point, not merely close to it.  Every
    evaluation and gradient packs its inputs by :meth:`_inputs` and
    reduces them by :meth:`_outputs`, both over batches.
    """

    def __init__(self, state_dim, n_actions, m, signs, w, ball_radius):
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.m = m
        self.signs = signs
        self.w = w
        self.w0 = w.copy()
        self.ball_radius = float(ball_radius)
        self._input_scale = 1.0 / math.sqrt(state_dim + 1)
        self._norm = 1.0 / math.sqrt(2 * m)

    def _inputs(self, states, action):
        """The packed inputs of an (n, state_dim) batch of states: each
        state beside the one-hot ``action``, scaled by ``1/sqrt(state_dim
        + 1)``."""
        x = np.zeros((len(states), self.state_dim + self.n_actions))
        x[:, :self.state_dim] = states
        x[:, self.state_dim + action] = 1.0
        x *= self._input_scale
        return x

    def _outputs(self, pre):
        """The network outputs of an (n, 2m) batch of hidden
        pre-activations ``x @ w``, the mirrored halves summed pairwise."""
        contrib = np.maximum(pre, 0.0)
        contrib *= self.signs
        return self._norm * (contrib[:, :self.m] + contrib[:, self.m:]).sum(axis=1)

    def evaluate(self, state, action):
        return float(self._outputs(self._inputs([state], action) @ self.w)[0])

    def evaluate_all(self, state):
        return self.evaluate_states([state])[0]

    def evaluate_states(self, states):
        """Vectorized ``evaluate_all`` over an (n, state_dim) batch."""
        return np.stack([self._outputs(self._inputs(states, action) @ self.w)
                         for action in range(self.n_actions)], axis=1)

    def value_and_gradient(self, state, action):
        """The output and d(output)/d(w) from one vector-matrix product:
        column j of the gradient is ``sign_j 1{w_j'x > 0} x / sqrt(2m)``."""
        x = self._inputs([state], action)
        pre = x @ self.w
        grad = self._norm * np.outer(x, self.signs * (pre[0] > 0.0))
        return float(self._outputs(pre)[0]), grad

    def distance_from_anchor(self):
        return float(np.linalg.norm(self.w - self.w0))

    def fit(self, dataset, trainer=None):
        """Projected SGD from the anchor: one step per row, in dataset
        order, with ``eta = trainer.learning_rate``; the network then
        adopts the averaged iterate.  Reports the mean squared error of the
        predictions made before each step."""
        if len(dataset) == 0:
            raise ValueError("cannot fit an empty dataset")
        _check_range("action", dataset.actions, self.n_actions)
        eta = (trainer or TrainerConfig()).learning_rate
        self.w = self.w0.copy()
        weight_sum = np.zeros_like(self.w0)
        mse_sum = 0.0
        for state, action, target in zip(dataset.states, dataset.actions.tolist(),
                                         dataset.targets.tolist()):
            prediction, distance = projected_sgd_step(self, (state, action, target), eta)
            mse_sum += (target - prediction) ** 2
            if distance > self.ball_radius + 1e-12:
                raise AssertionError(f"projection violated the weight ball: "
                                     f"{distance} > {self.ball_radius}")
            weight_sum += self.w
        self.w = weight_sum / len(dataset)
        return FitReport(final_mse=mse_sum / len(dataset), epochs_run=1)


def symmetric_init(m, state_dim, n_actions, rng, ball_radius=10.0):
    """Width-2m network that is identically zero at initialization.

    Signs are uniform on {-1, +1} with the second half negated; input rows
    are N(0, I/d) with the second half duplicated, so mirrored units cancel
    exactly on every input.
    """
    if m < 1:
        raise ValueError("m must be positive")
    d = state_dim + n_actions
    half_signs = rng.choice([-1.0, 1.0], size=m)
    half_w = rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, m))
    signs = np.concatenate([half_signs, -half_signs])
    w = np.concatenate([half_w, half_w], axis=1)
    return NtkQ(state_dim, n_actions, m, signs, w, ball_radius)


def projected_sgd_step(net, sample, eta):
    """Single-sample squared-loss descent step followed by projection onto
    the Frobenius ball around the anchor weights.  Returns the prediction
    before the step and the distance from the anchor after it."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    state, action, target = sample
    prediction, grad = net.value_and_gradient(state, action)
    residual = target - prediction
    if residual != 0.0:
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError("non-finite gradient in projected SGD step")
        net.w = net.w + eta * residual * grad
    distance = float(np.linalg.norm(net.w - net.w0))
    if distance > net.ball_radius:
        net.w = net.w0 + (net.ball_radius / distance) * (net.w - net.w0)
        distance = net.distance_from_anchor()
    return prediction, distance


def fit_least_squares(q, dataset, trainer=None, rng=None):
    """Least-squares fit dispatched to the approximator's own routine."""
    if isinstance(q, SparseReluQ):
        return q.fit(dataset, trainer=trainer, rng=rng)
    return q.fit(dataset, trainer=trainer)

