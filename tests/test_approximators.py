import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fittedq import approximators as ap


def relu_reference(head, x):
    """Straight-line re-implementation of the head forward pass, kept
    independent of the library code path."""
    h = list(x)
    for layer in range(len(head.weights) - 1):
        w = head.weights[layer]
        b = head.biases[layer]
        nxt = []
        for i in range(w.shape[0]):
            acc = b[i]
            for j in range(w.shape[1]):
                acc += w[i, j] * h[j]
            nxt.append(acc if acc > 0 else 0.0)
        h = nxt
    w = head.weights[-1]
    acc = 0.0
    for j in range(w.shape[1]):
        acc += w[0, j] * h[j]
    return acc


class TestReluForward:
    def test_zero_weights_give_zero(self):
        net = ap.SparseReluQ(2, 2, hidden=(4,), v_max=None,
                             rng=np.random.default_rng(0))
        for head in net.heads:
            head.flat[...] = 0.0
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert net.evaluate_all(rng.uniform(0, 1, 2))[1] == 0.0

    def test_single_unit_identity(self):
        net = ap.SparseReluQ(1, 1, hidden=(1,), v_max=None,
                             rng=np.random.default_rng(0))
        head = net.heads[0]
        head.weights[0][...] = 1.0
        head.biases[0][...] = 0.0
        head.weights[1][...] = 1.0
        assert net.evaluate_all([0.5])[0] == 0.5
        assert net.evaluate_all([-0.3])[0] == 0.0

    def test_agrees_with_independent_interpreter(self):
        net = ap.SparseReluQ(3, 2, hidden=(5, 4), v_max=None,
                             rng=np.random.default_rng(42))
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.uniform(-1, 1, 3)
            a = int(rng.integers(2))
            expected = relu_reference(net.heads[a], x)
            assert abs(net.evaluate_all(x)[a] - expected) <= 1e-12

    def test_dimension_mismatch(self):
        net = ap.SparseReluQ(3, 2, hidden=(4,), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.evaluate_all([0.1, 0.2])

    def test_output_truncation(self):
        net = ap.SparseReluQ(1, 1, hidden=(1,), v_max=0.25,
                             rng=np.random.default_rng(0))
        head = net.heads[0]
        head.weights[0][...] = 1.0
        head.biases[0][...] = 1.0
        head.weights[1][...] = 1.0
        assert net.evaluate_all([1.0])[0] == 0.25
        assert np.all(np.abs(net.evaluate_states(np.linspace(0, 1, 7)[:, None]))
                      <= 0.25)


class TestFitLeastSquares:
    def test_tabular_mean_of_targets(self):
        q = ap.TabularQ(2, 2)
        ds = ap.RegressionDataset(states=np.array([0, 0]),
                                  actions=np.array([1, 1]),
                                  targets=np.array([3.0, 5.0]))
        ap.fit_least_squares(q, ds)
        assert q.values[0, 1] == 4.0
        assert q.values[1, 0] == 0.0  # untouched cell keeps its value

    @settings(max_examples=100, deadline=None)
    @given(shape=st.one_of(st.tuples(st.integers(1, 4), st.integers(1, 3)),
                           st.tuples(st.integers(1, 4), st.integers(1, 3),
                                     st.integers(1, 3))),
           n=st.integers(1, 60), fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_tabular_fit_equals_add_at_reference(self, shape, n, fortran, seed):
        """Datasets larger than the table, so cells repeat, with targets of
        mixed magnitudes, so a change in summation order would show."""
        rng = np.random.default_rng(seed)
        q = ap.TabularQ(*shape)
        q.values = rng.normal(size=shape)
        if fortran:  # its (S, A*B) view is a copy on a game
            q.values = np.asfortranarray(q.values)
        cells = [rng.integers(size, size=n) for size in shape]
        targets = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
        dataset = ap.RegressionDataset(cells[0], np.ravel_multi_index(cells[1:], shape[1:]),
                                       targets)
        # TabularQ.fit as it was written with np.add.at.
        values = q.values.reshape(shape[0], -1).copy()
        idx = dataset.states, dataset.actions
        sums, counts = np.zeros_like(values), np.zeros_like(values)
        np.add.at(sums, idx, dataset.targets)
        np.add.at(counts, idx, 1.0)
        touched = counts > 0
        values[touched] = sums[touched] / counts[touched]
        mse = float(np.mean((dataset.targets - values[idx]) ** 2))

        assert q.fit(dataset) == ap.FitReport(final_mse=mse, epochs_run=1)
        assert q.values.shape == shape
        assert q.values.reshape(shape[0], -1).tobytes() == values.tobytes()

    def test_tabular_is_exact_minimizer(self):
        rng = np.random.default_rng(3)
        q = ap.TabularQ(3, 2)
        states = rng.integers(3, size=200)
        actions = rng.integers(2, size=200)
        targets = rng.normal(size=200)
        ap.fit_least_squares(q, ap.RegressionDataset(states=states,
                                                     actions=actions,
                                                     targets=targets))
        for s in range(3):
            for a in range(2):
                mask = (states == s) & (actions == a)
                if mask.any():
                    assert abs(q.values[s, a] - targets[mask].mean()) <= 1e-15

    def test_relu_sine_regression_golden_config(self):
        # Golden config: width-32 depth-2 heads, default trainer
        # (lr 1e-2, momentum 0.9, 2000 full-batch epochs).
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 1, (500, 1))
        ys = np.sin(2 * np.pi * xs[:, 0])
        net = ap.SparseReluQ(1, 1, hidden=(32, 32), v_max=None,
                             rng=np.random.default_rng(8))
        report = net.fit(ap.RegressionDataset(states=xs,
                                              actions=np.zeros(500, dtype=int),
                                              targets=ys),
                         ap.TrainerConfig(), rng=np.random.default_rng(9))
        assert report.final_mse <= 1e-2
        assert not report.diverged

    def test_empty_dataset_rejected(self):
        q = ap.TabularQ(2, 2)
        ds = ap.RegressionDataset(states=np.array([], dtype=int),
                                  actions=np.array([], dtype=int),
                                  targets=np.array([]))
        with pytest.raises(ValueError):
            ap.fit_least_squares(q, ds)

    @pytest.mark.parametrize("states", [np.zeros(3, dtype=int), np.zeros((3, 2)),
                                        np.zeros((7, 2))], ids=["tabular", "vector", "long"])
    def test_states_length_mismatch_rejected(self, states):
        # NtkQ.fit zipped the three arrays and SparseReluQ.fit ignored the
        # extra states, so a mismatch trained on the wrong rows.
        with pytest.raises(ValueError, match="different lengths"):
            ap.RegressionDataset(states=states, actions=np.zeros(5, dtype=int),
                                 targets=np.ones(5))

    def test_non_finite_targets_rejected(self):
        with pytest.raises(ValueError):
            ap.RegressionDataset(states=np.array([0]), actions=np.array([0]),
                                 targets=np.array([np.nan]))

    @pytest.mark.parametrize("bad", [-1, 2])
    @pytest.mark.parametrize("kind", ["tabular", "relu", "ntk"])
    def test_out_of_range_cell_rejected_before_any_weight_changes(self, kind, bad):
        # Unchecked, fancy indexing would wrap -1 to the last action or state,
        # and a network would train its in-range rows before meeting the bad one.
        rng = np.random.default_rng(4)
        vectors = rng.uniform(0, 1, (3, 2))
        q, states = {
            "tabular": lambda: (ap.TabularQ(2, 2), np.array([0, 1, 1])),
            "relu": lambda: (ap.SparseReluQ(2, 2, hidden=(4,), rng=rng), vectors),
            "ntk": lambda: (ap.symmetric_init(4, 2, 2, rng), vectors),
        }[kind]()

        def parameters():
            arrays = [getattr(q, name) for name in ("values", "weights", "w")
                      if hasattr(q, name)]
            return np.concatenate([np.ravel(a) for a in arrays]
                                  + [head.flat for head in getattr(q, "heads", [])])

        before = parameters()
        targets = [1.0, 2.0, 3.0]
        with pytest.raises(IndexError, match=f"action {bad} out of range"):
            ap.fit_least_squares(q, ap.RegressionDataset(states, [0, bad, 1], targets))
        if kind == "tabular":
            with pytest.raises(IndexError, match=f"state {bad} out of range"):
                ap.fit_least_squares(q, ap.RegressionDataset([0, bad, 1], [0, 1, 1],
                                                             targets))
        assert np.array_equal(parameters(), before)


class TestEnforceConstraints:
    def make_net(self):
        return ap.SparseReluQ(2, 1, hidden=(3,), v_max=None, sparsity=None,
                              rng=np.random.default_rng(2))

    def test_no_op_when_satisfied(self):
        net = self.make_net()
        report = ap.enforce_constraints(net)
        assert report.clipped_count == 0
        assert report.pruned_count == 0

    def test_clips_oversized_weight(self):
        net = self.make_net()
        net.heads[0].weights[0][0, 0] = 2.5
        report = ap.enforce_constraints(net)
        assert report.clipped_count == 1
        assert net.heads[0].weights[0][0, 0] == 1.0

    def test_nan_is_left_and_large_weight_clipped(self):
        net = self.make_net()
        head = net.heads[0]
        head.weights[0][0, 0] = np.nan
        head.biases[0][1] = 2.5
        report = ap.enforce_constraints(net)
        assert np.isnan(head.weights[0][0, 0])
        assert head.biases[0][1] == 1.0
        assert report.clipped_count == 1
        assert report.pruned_count == 0

    def test_prunes_to_budget_keeping_largest(self):
        net = ap.SparseReluQ(2, 1, hidden=(3,), v_max=None, sparsity=4,
                             rng=np.random.default_rng(2))
        head = net.heads[0]
        # 12 parameter slots; make exactly 10 nonzero with distinct magnitudes
        values = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
                           0.0, 0.0])
        head.weights[0][...] = values[:6].reshape(3, 2)
        head.biases[0][...] = values[6:9]
        head.weights[1][...] = values[9:12].reshape(1, 3)
        report = ap.enforce_constraints(net)
        flat = np.concatenate([p.ravel() for p in head.weights + head.biases])
        assert np.count_nonzero(flat) == 4
        assert report.pruned_count == 6
        assert sorted(v for v in flat if v != 0.0) == [0.7, 0.8, 0.9, 1.0]

    def test_constraints_hold_after_every_epoch(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 1, (64, 2))
        ys = rng.normal(size=64) * 3
        net = ap.SparseReluQ(2, 2, hidden=(8,), v_max=1.0, sparsity=20,
                             rng=np.random.default_rng(3))
        ds = ap.RegressionDataset(states=xs, actions=rng.integers(2, size=64),
                                  targets=ys)
        net.fit(ds, ap.TrainerConfig(epochs=50, learning_rate=0.05),
                rng=np.random.default_rng(4))
        for head in net.heads:
            assert np.abs(head.flat).max() <= 1.0
            assert np.count_nonzero(head.flat) <= net.sparsity


class TestSymmetricInit:
    def test_exactly_zero_on_random_inputs(self):
        rng = np.random.default_rng(0)
        net = ap.symmetric_init(64, 4, 3, rng)
        probe = np.random.default_rng(1)
        for _ in range(100):
            value = net.evaluate(probe.uniform(0, 1, 4), int(probe.integers(3)))
            assert value == 0.0

    def test_one_evaluation_is_a_one_row_batch(self):
        net = ap.symmetric_init(16, 3, 2, np.random.default_rng(2))
        probe = np.random.default_rng(3)
        net.w = net.w + probe.normal(0.0, 0.1, net.w.shape)
        states = probe.uniform(0, 1, (5, 3))
        for state in states:
            row = net.evaluate_states(state[None])[0]
            assert np.array_equal(net.evaluate_all(state), row)
            for action in range(2):
                assert net.evaluate(state, action) == row[action]
                assert net.value_and_gradient(state, action)[0] == row[action]

    def test_seed_determinism(self):
        a = ap.symmetric_init(16, 2, 2, np.random.default_rng(5))
        b = ap.symmetric_init(16, 2, 2, np.random.default_rng(5))
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.signs, b.signs)

    def test_weight_variance_matches_dimension(self):
        d = 8
        net = ap.symmetric_init(4096, d - 2, 2, np.random.default_rng(9))
        variance = net.w[:, :4096].var()
        assert abs(variance - 1.0 / d) <= 0.2 / d

    def test_mirror_structure(self):
        net = ap.symmetric_init(8, 2, 2, np.random.default_rng(3))
        assert np.array_equal(net.signs[8:], -net.signs[:8])
        assert np.array_equal(net.w[:, 8:], net.w[:, :8])


class TestProjectedSgdStep:
    def make_net(self, m=8, radius=5.0):
        return ap.symmetric_init(m, 3, 2, np.random.default_rng(11),
                                 ball_radius=radius)

    def test_zero_residual_leaves_weights(self):
        net = self.make_net()
        net.w = net.w + 0.01
        state = np.array([0.2, 0.4, 0.6])
        target = net.evaluate(state, 1)
        before = net.w.copy()
        ap.projected_sgd_step(net, (state, 1, target), 0.5)
        assert np.array_equal(net.w, before)

    def test_projection_rescales_to_radius(self):
        net = self.make_net(radius=2.0)
        direction = np.ones_like(net.w)
        net.w = net.w0 + 4.0 * direction / np.linalg.norm(direction)
        state = np.array([0.1, 0.2, 0.3])
        ap.projected_sgd_step(net, (state, 0, net.evaluate(state, 0)), 1e-12)
        assert abs(net.distance_from_anchor() - 2.0) <= 1e-12

    def test_gradient_matches_central_differences(self):
        net = self.make_net()
        rng = np.random.default_rng(4)
        net.w = net.w + rng.normal(0, 0.05, net.w.shape)
        state = rng.uniform(0, 1, 3)
        action = 1
        value, grad = net.value_and_gradient(state, action)
        assert value == net.evaluate(state, action)
        h = 1e-6
        fd = np.zeros_like(net.w)
        shifted = copy.deepcopy(net)
        for i in range(net.w.shape[0]):
            for j in range(net.w.shape[1]):
                up = net.w.copy()
                up[i, j] += h
                down = net.w.copy()
                down[i, j] -= h
                shifted.w = up
                f_up = shifted.evaluate(state, action)
                shifted.w = down
                fd[i, j] = (f_up - shifted.evaluate(state, action)) / (2 * h)
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(grad - fd).max() / scale <= 1e-5

    def test_rejects_nonpositive_step(self):
        net = self.make_net()
        with pytest.raises(ValueError):
            ap.projected_sgd_step(net, (np.zeros(3), 0, 1.0), 0.0)

    def test_fit_restarts_at_anchor_and_adopts_the_average(self):
        rng = np.random.default_rng(4)
        data = ap.RegressionDataset(rng.uniform(0, 1, (30, 3)), rng.integers(2, size=30),
                                    rng.uniform(-1, 1, 30))
        walk = self.make_net(radius=0.3)
        iterates, errors = [], []
        for state, action, target in zip(data.states, data.actions, data.targets):
            errors.append((target - walk.evaluate(state, action)) ** 2)
            ap.projected_sgd_step(walk, (state, action, target), 0.5)
            iterates.append(walk.w)
        net = self.make_net(radius=0.3)
        net.w = net.w + 1.0
        report = net.fit(data, ap.TrainerConfig(learning_rate=0.5))
        assert np.abs(net.w - np.mean(iterates, axis=0)).max() <= 1e-12
        assert report.final_mse == pytest.approx(np.mean(errors), rel=1e-12)
        assert report.epochs_run == 1
        first = net.w.copy()
        net.fit(data, ap.TrainerConfig(learning_rate=0.5))
        assert np.array_equal(net.w, first)


class TestBackpropGradients:
    def test_relu_head_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        net = ap.SparseReluQ(2, 1, hidden=(5, 4), v_max=None,
                             rng=np.random.default_rng(3))
        head = net.heads[0]
        x = rng.uniform(0, 1, (6, 2))
        y = rng.normal(size=6)

        def loss():
            pred = head.forward(x)
            return float(np.mean((pred - y) ** 2))

        workspace = ap.ReluWorkspace(head.widths, len(x))
        residual, grads_w, grads_b = head.forward_backward(x, y, workspace)
        assert np.array_equal(residual, head.forward(x) - y)
        h = 1e-6
        worst = 0.0
        for params, grads in ((head.weights, grads_w), (head.biases, grads_b)):
            for p, g in zip(params, grads):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = p[idx]
                    p[idx] = orig + h
                    up = loss()
                    p[idx] = orig - h
                    down = loss()
                    p[idx] = orig
                    fd = (up - down) / (2 * h)
                    denom = max(abs(fd), abs(g[idx]), 1e-10)
                    if denom > 1e-8:
                        worst = max(worst, abs(fd - g[idx]) / denom)
        assert worst <= 1e-5


def assert_arena(head):
    """``weights`` then ``biases`` are C-contiguous views that tile
    ``head.flat`` in the order ``weights + biases``."""
    base = head.flat.__array_interface__["data"][0]
    offset = 0
    for p in head.weights + head.biases:
        assert p.flags.c_contiguous
        assert np.shares_memory(p, head.flat)
        assert p.__array_interface__["data"][0] == base + offset * head.flat.itemsize
        offset += p.size
    assert offset == head.flat.size


class TestReluArena:
    def make_net(self):
        return ap.SparseReluQ(2, 3, hidden=(5, 4), v_max=2.0, sparsity=40,
                              rng=np.random.default_rng(13))

    def test_parameters_are_views_after_init(self):
        for head in self.make_net().heads:
            assert_arena(head)

    def test_parameters_are_views_after_clone(self):
        net = self.make_net()
        for head, original in zip(copy.deepcopy(net).heads, net.heads):
            assert_arena(head)
            assert not np.shares_memory(head.flat, original.flat)
            assert np.array_equal(head.flat, original.flat)

    def test_parameters_are_views_after_pickle(self):
        net = self.make_net()
        loaded = pickle.loads(pickle.dumps(net))
        for head, original in zip(loaded.heads, net.heads):
            assert_arena(head)
            assert np.array_equal(head.flat, original.flat)

    def test_mutating_a_clone_leaves_the_original(self):
        net = self.make_net()
        before = [head.flat.copy() for head in net.heads]
        twin = copy.deepcopy(net)
        for head in twin.heads:
            head.weights[0][...] = 0.5
            head.biases[-1][...] = -0.5
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 1, (32, 2))
        twin.fit(ap.RegressionDataset(xs, rng.integers(3, size=32), rng.normal(size=32)),
                 ap.TrainerConfig(epochs=5), rng=np.random.default_rng(2))
        for head, flat in zip(net.heads, before):
            assert np.array_equal(head.flat, flat)


class TestZeroQ:
    def test_zero_everywhere(self):
        q = ap.ZeroQ(3)
        assert q.evaluate_all(None).tolist() == [0.0, 0.0, 0.0]
        assert q.evaluate_states(np.zeros((4, 2))).tolist() == [[0.0] * 3] * 4
        game_q = ap.ZeroQ(2, 3)
        assert game_q.evaluate_all(None).shape == (2, 3)
