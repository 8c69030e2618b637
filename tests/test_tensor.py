import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hospgnn import losses, tensor as T
from hospgnn.data import (make_rng, sample_episode, stack_episodes,
                          synth_benchmark)
from hospgnn.errors import NumericError, ShapeError
from hospgnn.model import ModelConfig, forward, init_params


def t(data, grad=True):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def run_backward(build):
    with T.Tape() as tape:
        loss = build()
        tape.backward(loss)
    return loss


class TestForwardValues:
    def test_matmul_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        eye = t(np.eye(2), grad=False)
        assert np.array_equal(T.matmul(a, eye).data, a.data)

    def test_matmul_against_loops(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        got = T.matmul(t(a), t(b)).data
        want = [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(2)]
                for i in range(3)]
        assert np.allclose(got, want, atol=1e-12)

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeError):
            T.matmul(t([[1.0, 2.0]]), t([[1.0, 2.0]]))
        with pytest.raises(ShapeError):
            T.matmul(t([1.0, 2.0]), t([[1.0], [2.0]]))

    def test_softmax_uniform(self):
        out = T.softmax(t([0.0, 0.0, 0.0])).data
        assert np.allclose(out, [1 / 3] * 3, atol=1e-12)

    def test_softmax_log2_offset(self):
        c = 7.3
        out = T.softmax(t([c, c + np.log(2.0)])).data
        assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-12)

    def test_softmax_small_logits(self):
        out = T.softmax(t([0.9, 0.1])).data
        assert np.allclose(out, [0.690, 0.310], atol=1e-3)

    def test_softmax_rejects_nan(self):
        with pytest.raises(NumericError):
            T.softmax(t([0.0, np.nan]))

    def test_sigmoid_center_and_moderate_range(self):
        assert T.sigmoid(t([0.0])).data[0] == 0.5
        out = T.sigmoid(t([-8.0, -1.0, 1.0, 8.0])).data
        assert np.all(out > 0) and np.all(out < 1)

    def test_sigmoid_saturation_stays_finite(self):
        out = T.sigmoid(t([-500.0, 500.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] >= 0.0 and out[1] <= 1.0

    def test_leaky_relu_definition(self):
        out = T.leaky_relu(t([-1.0, 2.0]), 0.01).data
        assert np.allclose(out, [-0.01, 2.0])
        # max(x, slope x) and its factors are the np.where form bit for
        # bit, both ways, for every slope in [0, 1], -0.0 included
        x = np.array([-2.5, -1e-300, -0.0, 0.0, 1e-300, 3.0])
        g = np.random.default_rng(15).normal(size=x.shape)
        for slope in (0.0, 0.01, 1.0):
            xt = t(x)
            with T.Tape() as tape:
                out = T.leaky_relu(xt, slope)
                tape.backward(T.tensor_sum(T.mul(out, t(g, False))))
            want = np.where(x >= 0, x, slope * x)
            assert out.data.tobytes() == want.tobytes()
            want = np.where(x >= 0, g, slope * g)
            assert xt.grad.tobytes() == want.tobytes()
        for slope in (-0.01, 1.01):
            with pytest.raises(ValueError, match="slope"):
                T.leaky_relu(t(x), slope)

    def test_concat_feature_axis(self):
        a, b = t(np.ones((3, 2))), t(np.zeros((3, 4)))
        assert T.concat([a, b], axis=1).shape == (3, 6)

    def test_division_by_zero_raises(self):
        with pytest.raises(NumericError):
            T.div(t([1.0]), t([0.0]))

    def test_log_domain(self):
        with pytest.raises(NumericError):
            T.log(t([0.0]))

    def test_sqrt_domain(self):
        with pytest.raises(NumericError):
            T.sqrt(t([-1.0]))

    def test_take_last_forward(self):
        a = t(np.arange(24.0).reshape(2, 3, 4))
        assert np.array_equal(T.take_last(a, 1).data, a.data[..., 1])
        with pytest.raises(ShapeError):
            T.take_last(a, 4)


class TestBackward:
    def test_sum_gives_ones(self):
        x = t(np.random.default_rng(2).normal(size=(3, 4)))
        run_backward(lambda: T.tensor_sum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gives_two_x(self):
        x = t(np.random.default_rng(3).normal(size=(5,)))
        run_backward(lambda: T.tensor_sum(T.mul(x, x)))
        assert np.allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = t(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            with T.Tape() as tape:
                y = T.mul(x, x)
                tape.backward(y)

    def test_loss_must_be_on_tape(self):
        x = t(np.ones(3))
        loss = T.tensor_sum(x)
        with pytest.raises(ValueError):
            T.Tape().backward(loss)

    def test_grad_accumulates_across_backward_calls(self):
        x = t(np.ones(3))
        for _ in range(2):
            run_backward(lambda: T.tensor_sum(T.mul(x, x)))
        assert np.allclose(x.grad, 4 * x.data)

    def test_offpath_tensor_gets_zero_grad(self):
        x, y = t(np.ones(3)), t(np.ones(3))
        with T.Tape() as tape:
            used = T.tensor_sum(x)
            _unused = T.mul(y, 2.0)
            tape.backward(used)
        assert np.array_equal(y.grad, np.zeros(3))

    def test_shared_gradient_array_is_never_written_in_place(self):
        # add's VJP hands one array to both inputs; x then receives a
        # second contribution, which must not reach y's gradient
        x, y = t(np.ones(3)), t(np.ones(3))
        w = t([1.0, 2.0, 3.0], grad=False)
        with T.Tape() as tape:
            first = T.mul(x, 2.0)   # recorded first, replayed last
            both = T.add(x, y)
            tape.backward(T.tensor_sum(T.mul(T.add(both, first), w)))
        assert np.array_equal(y.grad, w.data)
        assert np.array_equal(x.grad, 3.0 * w.data)

    def test_repeated_backward_is_bitwise_identical(self):
        rng = np.random.default_rng(4)
        x = t(rng.normal(size=(4, 4)))
        w = t(rng.normal(size=(4, 4)))

        def once():
            x.grad = w.grad = None
            run_backward(
                lambda: T.tensor_sum(T.softmax(T.matmul(x, w), axis=-1))
            )
            return x.grad.copy(), w.grad.copy()

        g1, g2 = once(), once()
        assert all(np.array_equal(a, b) for a, b in zip(g1, g2))

    def test_no_tape_records_nothing(self):
        x = t(np.ones(3))
        y = T.mul(x, x)
        assert y._tape is None and y.requires_grad is False

    def test_one_tape_records_per_thread(self):
        x = t(np.ones(3))
        seen = []

        def worker():
            seen.append((T.active_tape(), T.mul(x, x).requires_grad))

        with T.Tape() as tape:
            with pytest.raises(RuntimeError, match="already recording"):
                with T.Tape():
                    pass
            assert T.active_tape() is tape
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            tape.backward(T.tensor_sum(T.mul(x, x)))
        assert seen == [(None, False)]
        assert T.active_tape() is None
        assert np.array_equal(x.grad, 2 * x.data)

    def test_finished_tape_freed_without_cycle_collector(self):
        # outputs refer to their tape weakly, so dropping the tape and
        # the loss frees every recorded activation by reference counting
        x = t(np.ones(3))
        enabled = gc.isenabled()
        gc.disable()
        try:
            with T.Tape() as tape:
                loss = T.tensor_sum(T.mul(x, x))
                tape.backward(loss)
            tape_ref = weakref.ref(tape)
            del tape, loss
            assert tape_ref() is None
        finally:
            if enabled:
                gc.enable()


def dense_scores(x, weights, slope, margin):
    """The unfused score net: one tape node per op."""
    w0, b0, w1, b1, w2, b2 = weights
    h = T.leaky_relu(T.add(T.matmul(x, w0), b0), slope)
    h = T.leaky_relu(T.add(T.matmul(h, w1), b1), slope)
    out = T.sigmoid(T.add(T.matmul(h, w2), b2))
    return T.reshape(T.add(margin, T.mul(1.0 - 2.0 * margin, out)), (-1,))


def score_weights(rng, d_in, hidden, dtype=np.float64):
    shapes = [(d_in, hidden), (hidden,), (hidden, hidden), (hidden,),
              (hidden, 1), (1,)]
    return [T.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
            for s in shapes]


def near_rows(rng, m, d):
    """Random rows with row 1 a 1e-6 step from row 0 and the last row a
    copy of row 2."""
    a = rng.normal(size=(m, d))
    a[1] = a[0] + 1e-6 * rng.normal(size=d)
    a[-1] = a[2]
    return a


class TestPairOps:
    def test_pair_index_order(self):
        p = T.pair_index(4)
        assert p.rows.tolist() == [0, 0, 0, 1, 1, 2]
        assert p.cols.tolist() == [1, 2, 3, 2, 3, 3]
        assert np.array_equal(p.upper, p.rows * 4 + p.cols)
        assert np.array_equal(p.lower, p.cols * 4 + p.rows)
        assert p.diag.tolist() == [0, 5, 10, 15]
        assert T.pair_index(4) is p
        assert not p.upper.flags.writeable

    def test_pair_distances_and_symmetric_round_trip(self):
        s = np.arange(7.0)
        full = T.symmetric_from_pairs(t(s), 4).data
        assert np.array_equal(full, full.T)
        assert np.array_equal(np.diag(full), [6.0] * 4)
        assert full[1, 3] == s[4]
        a = np.random.default_rng(1).normal(size=(4, 3))
        col = T.pair_distances(t(a)).data
        p = T.pair_index(4)
        want = np.sqrt(((a[p.rows] - a[p.cols]) ** 2).sum(axis=1))
        assert col.shape == (7, 1) and col[-1, 0] == 0.0
        assert np.abs(col[:-1, 0] - want).max() < 1e-14
        spread = T.symmetric_from_pairs(t(col), 4).data
        assert np.array_equal(spread[p.rows, p.cols], col[:-1, 0])
        assert np.array_equal(spread, spread.T)
        assert np.array_equal(np.diag(spread), np.zeros(4))

    def test_pair_absdiff_rows(self):
        a = np.random.default_rng(1).normal(size=(4, 3))
        out = T.pair_absdiff(t(a)).data
        p = T.pair_index(4)
        assert out.shape == (7, 3)
        assert np.array_equal(out[:-1], np.abs(a[p.rows] - a[p.cols]))
        assert np.array_equal(out[-1], np.zeros(3))

    def test_grad_checks(self):
        rng = np.random.default_rng(2)
        a = t(near_rows(rng, 5, 3))
        b = t(rng.normal(size=(5, 3)))
        s = t(rng.normal(size=11))
        cases = [
            # steps below the 1e-6 gap: no absolute difference flips sign
            (T.pair_absdiff, a, (11, 3), 1e-8),
            (T.pair_distances, b, (11, 1), 1e-6),
            (lambda v: T.symmetric_from_pairs(v, 5), s, (5, 5), 1e-6),
        ]
        for op, x, shape, eps in cases:
            w = t(rng.normal(size=shape), grad=False)
            err = T.grad_check_groups(
                lambda: T.tensor_sum(T.mul(op(x), w)), {"x": x}, epsilon=eps)
            assert err["x"] < 1e-6

    def test_mlp_scores_grad_check(self):
        rng = np.random.default_rng(3)
        x = t(near_rows(rng, 6, 3))
        weights = score_weights(rng, 3, 5)
        err = T.grad_check_groups(
            lambda: T.tensor_sum(T.mul(T.mlp_scores(x, *weights, slope=0.1,
                                                     margin=1e-7),
                                       t(np.arange(6.0), False))),
            {str(i): p for i, p in enumerate([x] + weights)})
        assert max(err.values()) < 1e-6, err

    @pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
    def test_mlp_scores_matches_unfused_chain(self, slope):
        # three row blocks, the last one partial
        n = 2 * T.BLOCK_ROWS + 37
        rng = np.random.default_rng(4)
        x = t(rng.normal(size=(n, 3)))
        weights = score_weights(rng, 3, 8)
        g = rng.normal(size=n)
        outs, grads = [], []
        for fn in (lambda: T.mlp_scores(x, *weights, slope=slope,
                                        margin=1e-7),
                   lambda: dense_scores(x, weights, slope, 1e-7)):
            for p in [x] + weights:
                p.grad = None
            with T.Tape() as tape:
                out = fn()
                tape.backward(T.tensor_sum(T.mul(out, t(g, False))))
            outs.append(out.data)
            grads.append([p.grad for p in [x] + weights])
        assert np.abs(outs[0] - outs[1]).max() <= 1e-12
        for a, b in zip(*grads):
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())

    def test_float32_in_float32_out(self):
        rng = np.random.default_rng(5)
        a = T.Tensor(rng.normal(size=(4, 3)).astype(np.float32),
                     requires_grad=True)
        weights = score_weights(rng, 4, 5, dtype=np.float32)
        with T.Tape() as tape:
            x = T.concat([T.pair_absdiff(a), T.pair_distances(a)], axis=1)
            s = T.mlp_scores(x, *weights, slope=0.01, margin=1e-7)
            full = T.symmetric_from_pairs(s, 4)
            tape.backward(T.tensor_sum(full))
        assert {x.dtype, s.dtype, full.dtype, a.grad.dtype} == {
            np.dtype(np.float32)}
        assert all(w.grad.dtype == np.float32 for w in weights)


def stored_scores(x, w0, b0, w1, b1, w2, b2, slope=0.01, margin=0.0):
    """``T.mlp_scores`` as it was when a recorded call kept its (N, h)
    hidden activations and their sign masks for backward: the reference
    the rebuilding kernel must match bit for bit."""
    x, w0, b0, w1, b1, w2, b2 = inputs = tuple(
        T._as_tensor(v) for v in (x, w0, b0, w1, b1, w2, b2))
    rows_x = x.data.reshape(-1, x.shape[-1])
    n, dtype = rows_x.shape[0], x.dtype
    layers = ((w0, b0), (w1, b1))
    widths = [w.shape[1] for w, _ in layers]
    block = min(n, T.BLOCK_ROWS)
    temp = [np.empty((block, k), dtype=dtype) for k in widths]
    hidden = [np.empty((n, k), dtype=dtype) for k in widths]
    negative = [np.empty((n, k), dtype=bool) for k in widths]
    z = np.empty(n, dtype=dtype)
    for rows in T.row_blocks(n):
        h, size = rows_x[rows], rows.stop - rows.start
        for k, (w, b) in enumerate(layers):
            out = hidden[k][rows]
            np.dot(h, w.data, out=out)
            out += b.data
            np.less(out, 0, out=negative[k][rows])
            np.maximum(out, np.multiply(out, slope, out=temp[k][:size]),
                       out=out)
            h = out
        np.dot(h, w2.data[:, 0], out=z[rows])
    z += b2.data
    head = T._sigmoid_values(z)
    squeeze = 1.0 - 2.0 * margin
    data = (margin + squeeze * head).reshape(x.shape[:-1])

    def vjp(g):
        gz = ((g.reshape(-1) * squeeze) * head * (1.0 - head))[:, None]
        grads = [np.zeros_like(v.data) for v in inputs[1:]]
        gw0, gb0, gw1, gb1, gw2, gb2 = grads
        gx = np.empty_like(rows_x) if x.requires_grad else None
        ones = np.ones(block, dtype=gz.dtype)
        grad_buf, factor_buf = (
            [np.empty((block, k), dtype=gz.dtype) for k in widths]
            for _ in range(2))
        for rows in T.row_blocks(n):
            size = rows.stop - rows.start
            g, one = gz[rows], ones[:size]
            gw2 += np.dot(hidden[1][rows].T, g)
            g1 = np.dot(g, w2.data.T, out=grad_buf[1][:size])
            g1 *= T._leaky_factors(negative[1][rows], slope,
                                   factor_buf[1][:size])
            gw1 += np.dot(hidden[0][rows].T, g1)
            gb1 += np.dot(one, g1)
            g0 = np.dot(g1, w1.data.T, out=grad_buf[0][:size])
            g0 *= T._leaky_factors(negative[0][rows], slope,
                                   factor_buf[0][:size])
            gw0 += np.dot(rows_x[rows].T, g0)
            gb0 += np.dot(one, g0)
            if gx is not None:
                np.dot(g0, w0.data.T, out=gx[rows])
        gb2 += gz.sum()
        return (None if gx is None else gx.reshape(x.shape), *grads)

    return T._emit(data, inputs, vjp)


def scores_and_grads(kernel, x, weights, g, slope, edit=None):
    """Values of ``kernel`` on (x, weights) and the gradients of
    sum(out * g) for all seven inputs; ``edit`` runs between the forward
    and backward."""
    for p in [x] + weights:
        p.grad = None
    with T.Tape() as tape:
        out = kernel(x, *weights, slope=slope, margin=1e-7)
        if edit is not None:
            edit()
        tape.backward(T.tensor_sum(T.mul(out, t(g, False))))
    return out.data, [p.grad for p in [x] + weights]


class TestRebuiltActivations:
    """``mlp_scores`` rebuilds its hidden activations in backward; the
    result must be what keeping them gave, bit for bit."""

    @pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("d", [1, 5])
    def test_equals_stored_activation_kernel_bitwise(self, slope, d):
        # three row blocks, the last one partial
        n = 2 * T.BLOCK_ROWS + 37
        rng = np.random.default_rng(6)
        x = t(rng.normal(size=(n, d)))
        weights = score_weights(rng, d, 8)
        g = rng.normal(size=n)
        got, got_grads = scores_and_grads(T.mlp_scores, x, weights, g, slope)
        want, want_grads = scores_and_grads(stored_scores, x, weights, g,
                                            slope)
        assert np.array_equal(got, want)
        assert len(got_grads) == 7
        for a, b in zip(got_grads, want_grads):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_in_place_weight_edit_leaves_gradient(self):
        n = T.BLOCK_ROWS + 5
        rng = np.random.default_rng(7)
        x = t(rng.normal(size=(n, 3)))
        weights = score_weights(rng, 3, 8)
        g = rng.normal(size=n)
        _, want = scores_and_grads(T.mlp_scores, x, weights, g, 0.01)

        def edit():
            for w in weights:
                w.data *= -2.0

        _, got = scores_and_grads(T.mlp_scores, x, weights, g, 0.01,
                                  edit=edit)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("metric_input", ["distance", "absdiff"])
    @pytest.mark.parametrize("shape,count", [((2, 5, 3), 4), ((5, 1, 15), 1),
                                             ((8, 5, 15), 1)])
    def test_model_step_gradients_bitwise(self, monkeypatch, metric_input,
                                          shape, count):
        # a stacked group of four M = 16 episodes, then M = 80 and 160
        ds, _, _ = synth_benchmark(20, 8, 8, per_class=30, dim=16, sep=6.0,
                                   seed=1)
        cfg = ModelConfig(feature_dim=16, hidden_dim=32, use_encoder=False,
                          metric_hidden=32, standardize_vertex=True,
                          aggregate_self=True, metric_input=metric_input)
        rng = make_rng(7, 0)
        episodes = [sample_episode(ds, *shape, rng=rng) for _ in range(count)]
        episode = stack_episodes(episodes) if count > 1 else episodes[0]
        params = init_params(cfg, seed=3)

        def step_grads():
            params.zero_grads()
            with T.Tape() as tape:
                graph = forward(episode, params)
                total = losses.total_loss(losses.episodic_ce(graph, episode),
                                          losses.manifold_loss(graph), 1e-5)
                tape.backward(T.tensor_sum(total))
            return {n: params.t(n).grad.copy() for n in params.names()}

        got = step_grads()
        monkeypatch.setattr(T, "mlp_scores", stored_scores)
        want = step_grads()
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), name


def compare_with_chain(fused, chain, inputs, weights=None):
    """Values and input gradients of ``fused()`` against ``chain()``
    under the loss sum(out * weights), or out itself when scalar; both
    must agree to 1e-12 relative to the reference's scale."""
    results = []
    for fn in (fused, chain):
        for x in inputs:
            x.grad = None
        with T.Tape() as tape:
            out = fn()
            loss = out if weights is None else T.tensor_sum(T.mul(out, weights))
            tape.backward(loss)
        results.append((out.data, [x.grad for x in inputs]))
    (got, got_grads), (want, want_grads) = results
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    for a, b in zip(got_grads, want_grads):
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


EPS = 1e-12


def chain_stack(parts, complement):
    return T.concat([T.reshape(T.sub(1.0, p) if k in complement else p,
                               p.shape + (1,))
                     for k, p in enumerate(parts)], axis=-1)


def chain_normalize(e):
    sums = T.tensor_sum(e, axis=2, keepdims=True)
    dead = sums.data < EPS
    keep = T.Tensor((~dead).astype(e.dtype))
    return T.div(T.mul(e, keep), T.add(sums, T.Tensor(dead.astype(e.dtype))))


def chain_rescale(a, e):
    row_mass = T.tensor_sum(e, axis=1, keepdims=True)
    scaled = T.mul(a, e)
    mean = T.div(T.tensor_sum(scaled, axis=1, keepdims=True), row_mass)
    return T.div(scaled, mean)


def chain_pool(w, sources, tail):
    parts = [T.matmul(T.take_last(w, c), src) for c, src in enumerate(sources)]
    return T.concat(parts + [tail], axis=1)


def chain_standardize(x, gain, shift):
    mean = T.tensor_mean(x, axis=0, keepdims=True)
    centered = T.sub(x, mean)
    var = T.tensor_mean(T.mul(centered, centered), axis=0, keepdims=True)
    unit = T.div(centered, T.sqrt(T.add(var, 1e-5)))
    return T.add(T.mul(unit, gain), shift)


def chain_readout_ce(edges, queries, channel, indicator, truth, complement):
    picker = np.zeros((queries.size, edges.shape[0]), dtype=edges.dtype)
    picker[np.arange(queries.size), queries] = 1.0
    plane = T.take_last(edges, channel)
    if complement:
        plane = T.sub(1.0, plane)
    logits = T.matmul(T.matmul(T.Tensor(picker), plane), T.Tensor(indicator))
    rows = T.softmax(logits, axis=-1)
    onehot = np.zeros(rows.shape, dtype=rows.dtype)
    onehot[np.arange(truth.size), truth] = 1.0
    picked = T.tensor_sum(T.mul(rows, T.Tensor(onehot)), axis=1)
    return T.mul(T.tensor_mean(T.log(picked)), -1.0)


def readout_task(m, n_way):
    """Queries, visible-support indicator and truth for m vertices: the
    first 2 * n_way are supports (one of them hidden), the rest queries."""
    slots = np.arange(m) % n_way
    queries = np.arange(2 * n_way, m)
    indicator = np.zeros((m, n_way))
    visible = np.arange(1, 2 * n_way)
    indicator[visible, slots[visible]] = 1.0
    return queries, indicator, slots[queries]


M = 6


def fused_cases(rng, c, dtype=np.float64, dead=True):
    """(name, fused op, per-op chain, inputs, loss weights) for C = c
    channels. With ``dead`` the edge-like inputs carry one all-zero
    pair."""
    def tensor(shape, low=None, high=None):
        data = (rng.normal(size=shape) if low is None
                else rng.uniform(low, high, size=shape))
        return T.Tensor(data.astype(dtype), requires_grad=True)

    def weights(shape):
        return T.Tensor(rng.normal(size=shape).astype(dtype))

    def edges():
        e = tensor((M, M, c), 0.1, 1.0)
        if dead:
            e.data[1, 3] = 0.0
        return e

    x, y = tensor((M, M), 0.1, 0.9), tensor((M, M), 0.1, 0.9)
    parts, complement = [x, y, y][:c], (c - 1,)
    norm_e = edges()
    aff, resc_e = tensor((M, M, c), 0.1, 0.9), edges()
    pool_w = edges()
    u, v, tail = tensor((M, 3)), tensor((M, 2)), tensor((M, 4))
    sources = [v, u, u][:c]
    ce_edges = edges()
    queries, indicator, truth = readout_task(M, 2)
    ce_args = dict(queries=queries, channel=c - 1,
                   indicator=indicator.astype(dtype), truth=truth,
                   complement=c == 3)
    return [
        ("stack_last", lambda: T.stack_last(parts, complement),
         lambda: chain_stack(parts, complement), list(dict.fromkeys(parts)),
         weights((M, M, c))),
        ("normalize_last", lambda: T.normalize_last(norm_e, EPS),
         lambda: chain_normalize(norm_e), [norm_e], weights((M, M, c))),
        ("edge_rescale",
         lambda: T.edge_rescale(aff, resc_e, ("x",) * c, EPS),
         lambda: chain_rescale(aff, resc_e), [aff, resc_e],
         weights((M, M, c))),
        ("pool_channels", lambda: T.pool_channels(pool_w, sources, tail),
         lambda: chain_pool(pool_w, sources, tail),
         [pool_w, *dict.fromkeys(sources), tail],
         weights((M, sum(s.shape[1] for s in sources) + 4))),
        ("readout_ce", lambda: T.readout_ce(ce_edges, **ce_args),
         lambda: chain_readout_ce(ce_edges, **ce_args), [ce_edges], None),
    ]


def standardize_case(rng, dtype=np.float64):
    x = rng.normal(size=(7, 4))
    x[:, 2] = 0.3    # a constant column: zero variance
    x, gain, shift = (T.Tensor(a.astype(dtype), requires_grad=True)
                      for a in (x, rng.normal(size=4), rng.normal(size=4)))
    return (lambda: T.standardize(x, gain, shift, 1e-5),
            lambda: chain_standardize(x, gain, shift), [x, gain, shift],
            T.Tensor(rng.normal(size=(7, 4)).astype(dtype)))


FUSED = ["stack_last", "normalize_last", "edge_rescale", "pool_channels",
         "readout_ce"]


class TestFusedLayerOps:
    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("name", FUSED)
    def test_matches_per_op_chain(self, name, c):
        case = {n: rest for n, *rest in fused_cases(
            np.random.default_rng(20 + c), c)}[name]
        compare_with_chain(*case)

    def test_standardize_matches_per_op_chain(self):
        compare_with_chain(*standardize_case(np.random.default_rng(21)))

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("name", FUSED)
    def test_grad_check(self, name, c):
        # no dead pair: a step off an all-zero pair revives it
        case = {n: rest for n, *rest in fused_cases(
            np.random.default_rng(30 + c), c, dead=False)}[name]
        fused, _, inputs, weights = case
        loss = (fused if weights is None
                else lambda: T.tensor_sum(T.mul(fused(), weights)))
        err = T.grad_check_groups(loss, dict(enumerate(inputs)))
        assert max(err.values()) < 1e-6, err

    def test_standardize_grad_check(self):
        fused, _, inputs, weights = standardize_case(
            np.random.default_rng(31))
        err = T.grad_check_groups(
            lambda: T.tensor_sum(T.mul(fused(), weights)),
            dict(enumerate(inputs)))
        assert max(err.values()) < 1e-6, err

    def test_float32_in_float32_out(self):
        rng = np.random.default_rng(32)
        cases = [rest for _, *rest in fused_cases(rng, 3, np.float32)]
        cases.append(standardize_case(rng, np.float32))
        for fused, _, inputs, _ in cases:
            for x in inputs:
                x.grad = None
            with T.Tape() as tape:
                out = fused()
                tape.backward(T.tensor_sum(out))
            assert out.dtype == np.float32
            assert all(x.grad.dtype == np.float32 for x in inputs)


PRIMITIVES = [
    ("add", lambda x, y: T.tensor_sum(T.add(x, y))),
    ("sub", lambda x, y: T.tensor_sum(T.sub(x, y))),
    ("mul", lambda x, y: T.tensor_sum(T.mul(x, y))),
    ("div", lambda x, y: T.tensor_sum(T.div(x, T.add(T.mul(y, y), 1.0)))),
    ("matmul", lambda x, y: T.tensor_sum(T.matmul(x, T.reshape(y, (3, 4))))),
    ("exp", lambda x, y: T.tensor_sum(T.exp(x))),
    ("log", lambda x, y: T.tensor_sum(T.log(T.add(T.mul(x, x), 0.5)))),
    ("sqrt", lambda x, y: T.tensor_sum(T.sqrt(T.add(T.mul(x, x), 0.1)))),
    ("sigmoid", lambda x, y: T.tensor_sum(T.sigmoid(x))),
    ("leaky", lambda x, y: T.tensor_sum(T.leaky_relu(x, 0.05))),
    ("abs", lambda x, y: T.tensor_sum(T.absval(x))),
    ("mean", lambda x, y: T.tensor_mean(x)),
    ("mean_axis", lambda x, y: T.tensor_sum(T.tensor_mean(x, axis=0))),
    ("sum_axis", lambda x, y: T.tensor_sum(T.tensor_sum(x, axis=1))),
    ("reshape", lambda x, y: T.tensor_sum(T.reshape(x, (-1,)))),
    ("concat", lambda x, y: T.tensor_sum(T.concat([x, y], axis=0))),
    ("stack", lambda x, y: T.tensor_sum(T.stack_last([x, y]))),
    ("take", lambda x, y: T.tensor_sum(T.take_last(T.stack_last([x, y]), 0))),
    ("softmax", lambda x, y: T.tensor_sum(
        T.mul(T.softmax(x, axis=-1), T.exp(y)))),
]


@pytest.mark.parametrize("name,fn", PRIMITIVES, ids=[p[0] for p in PRIMITIVES])
def test_every_primitive_passes_grad_check(name, fn):
    rng = np.random.default_rng(hash(name) % (2**32))
    x = t(rng.normal(size=(4, 3)))
    y = t(rng.normal(size=(4, 3)))
    err = T.grad_check(lambda: fn(x, y), [x, y])
    assert err < 1e-4, f"{name}: {err}"


@pytest.mark.parametrize("shape, axis, reduce", [
    ((5, 5, 3), 1, "sum"),
    ((5, 5, 3), 2, "sum"),
    ((5, 5, 3), (0, 1), "sum"),
    ((5, 5, 3), (0, 1), "mean"),
    ((2, 5, 5, 3), (-3, -2), "sum"),
    ((2, 5, 5, 3), (-3, -2), "mean"),
], ids=["1", "2", "pairs-sum", "pairs-mean", "stacked-pairs-sum",
        "stacked-pairs-mean"])
def test_channel_last_sums_match_numpy(shape, axis, reduce):
    # (..., M, M, C) sums and means over axis 1 or 2, or over both pair
    # axes, run as products with ones
    op = {"sum": T.tensor_sum, "mean": T.tensor_mean}[reduce]
    x = t(np.random.default_rng(12).normal(size=shape))
    got = op(x, axis=axis, keepdims=True).data
    want = getattr(x.data, reduce)(axis=axis, keepdims=True)
    assert np.allclose(got, want, rtol=0, atol=1e-14)
    assert op(x, axis=axis).shape == got.squeeze(axis).shape
    scale = t(np.random.default_rng(13).normal(size=got.shape), grad=False)
    err = T.grad_check(lambda: T.tensor_sum(T.div(x, T.add(T.mul(
        op(x, axis=axis, keepdims=True), scale), 10.0))), [x])
    assert err < 1e-6


@pytest.mark.parametrize("axis", [2, 3, -1, -2])
def test_stacked_channel_last_sums_match_numpy(axis):
    # a stacked (B, M, M, C) edge array takes the product-with-ones path
    # over its last two axes too: numpy's sum to rounding, relative to
    # the summed magnitudes
    x = np.random.default_rng(14).normal(size=(2, 5, 5, 3))
    got = T._sum_kept(x, axis)
    want = x.sum(axis=axis, keepdims=True)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want)
                  <= 1e-15 * np.abs(x).sum(axis=axis, keepdims=True))


def test_broadcast_gradients_reduce_correctly():
    x = t(np.random.default_rng(7).normal(size=(4, 3)))
    row = t(np.random.default_rng(8).normal(size=(3,)))
    col = t(np.random.default_rng(9).normal(size=(4, 1)))
    err = T.grad_check(
        lambda: T.tensor_sum(T.div(T.mul(T.add(x, row), col),
                                   T.add(T.mul(col, col), 2.0))),
        [x, row, col],
    )
    assert err < 1e-4


def test_grad_check_groups_returns_per_parameter_errors():
    x = t(np.random.default_rng(10).normal(size=(3, 3)))
    y = t(np.random.default_rng(11).normal(size=(3,)))
    errs = T.grad_check_groups(
        lambda: T.tensor_sum(T.sigmoid(T.add(T.matmul(x, x), y))),
        {"x": x, "y": y},
    )
    assert set(errs) == {"x", "y"}
    assert all(v < 1e-6 for v in errs.values())


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
@settings(max_examples=200, deadline=None)
def test_softmax_is_distribution(vals):
    out = T.softmax(t(vals)).data
    assert np.all(out > 0) and np.all(out <= 1)
    assert abs(out.sum() - 1.0) < 1e-12


@given(
    st.integers(2, 6), st.integers(1, 5),
    st.floats(-10, 10, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_sigmoid_complement_symmetry(rows, cols, shift):
    rng = np.random.default_rng(abs(hash((rows, cols))) % (2**32))
    x = rng.normal(size=(rows, cols)) + shift
    a = T.sigmoid(t(x)).data
    b = T.sigmoid(t(-x)).data
    assert np.allclose(a + b, 1.0, atol=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_unbroadcast_matches_full_jacobian_on_random_shapes(seed):
    rng = np.random.default_rng(seed)
    x = t(rng.normal(size=(3, 4)))
    bias = t(rng.normal(size=(4,)))
    err = T.grad_check(
        lambda: T.tensor_sum(T.mul(T.add(x, bias), T.add(x, bias))),
        [x, bias], epsilon=1e-6,
    )
    assert err < 1e-3


def test_float32_tensors_stay_float32_through_scalar_ops():
    x = T.Tensor(np.ones((2, 2), dtype=np.float32))
    out = T.div(T.mul(T.add(x, 1.0), 0.5), 2.0)
    assert out.dtype == np.float32
