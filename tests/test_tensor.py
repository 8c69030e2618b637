import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hospgnn import losses, tensor as T
from hospgnn.data import (make_rng, sample_episode, stack_episodes,
                          synth_benchmark)
from hospgnn.errors import NumericError, ShapeError
from hospgnn.graph import stack_channels
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

    def test_replaying_a_tape_adds_one_gradient_per_replay(self):
        # the first replay leaves no gradient on a node output, so the
        # second adds exactly 2x again: 4x in all, not 6x
        x = t(np.random.default_rng(5).normal(size=(3,)))
        with T.Tape() as tape:
            loss = T.tensor_sum(T.mul(x, x))
            tape.backward(loss)
            tape.backward(loss)
        assert np.array_equal(x.grad, 4 * x.data)

    def test_only_leaves_keep_a_gradient(self):
        x, y = t(np.ones(3)), t([1.0, 2.0, 3.0])
        with T.Tape() as tape:
            hidden = T.exp(T.mul(x, y))
            _unused = T.mul(y, 2.0)
            tape.backward(T.tensor_sum(T.mul(hidden, x)))
        assert len(tape) == 5
        assert all(out.grad is None for out, _, _ in tape._nodes)
        assert x.grad is not None and y.grad is not None

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


def assert_matches_stored(x, weights, g, slope, tol=1e-12):
    """Values and all seven gradients of ``mlp_scores`` equal those of
    ``stored_scores`` within ``tol`` times max(1, |reference|), in the
    reference's dtypes and shapes."""
    got, got_grads = scores_and_grads(T.mlp_scores, x, weights, g, slope)
    want, want_grads = scores_and_grads(stored_scores, x, weights, g, slope)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= tol
    assert len(got_grads) == 7
    for a, b in zip(got_grads, want_grads):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())


class TestRebuiltActivations:
    """``mlp_scores``' block kernel rebuilds its hidden activations in
    backward; the result must be what keeping them gave, bit for bit.
    Rows one wide run on the piece table instead, which must give it
    within ``assert_matches_stored``' bound."""

    @pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("d", [1, 5])
    def test_equals_stored_activation_kernel_bitwise(self, slope, d):
        # rows one wide take the piece table at every size, here a
        # stacked group of eight M = 16 episodes' pair rows, one block;
        # wider rows take the block kernel, here in three row blocks, the
        # last one partial
        rng = np.random.default_rng(6)
        if d == 1:
            x = t(rng.normal(size=(8, T.pair_rows(16), 1)))
            weights = score_weights(rng, 1, 8)
            assert_matches_stored(x, weights, rng.normal(size=x.shape[:-1]),
                                  slope)
            return
        n = 2 * T.BLOCK_ROWS + 37
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
        # two row blocks: the block kernel on rows three wide, the piece
        # table on rows one wide
        n = T.BLOCK_ROWS + 5
        rng = np.random.default_rng(7)
        for d in (3, 1):
            x = t(rng.normal(size=(n, d)))
            weights = score_weights(rng, d, 8)
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
        # a stacked group of four M = 16 episodes, then M = 80 and 160;
        # distances run on the piece table at every size, which matches
        # the stored-activation kernel to rounding only
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
                total = losses.report_losses(graph, episode, 1e-5)[0]
                tape.backward(T.tensor_sum(total))
            return {n: params.t(n).grad.copy() for n in params.names()}

        got = step_grads()
        monkeypatch.setattr(T, "mlp_scores", stored_scores)
        want = step_grads()
        assert got.keys() == want.keys()
        for name in want:
            if metric_input == "distance":
                bound = 1e-12 * max(1.0, np.abs(want[name]).max())
                assert np.abs(got[name] - want[name]).max() <= bound, name
            else:
                assert np.array_equal(got[name], want[name]), name


class TestPieceTable:
    """Rows one wide run on a table of the net's linear pieces, whatever
    their count; it must agree with the block kernel to rounding, kinks
    included."""

    @pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
    def test_matches_stored_activation_kernel(self, slope):
        # three row blocks, one M = 16 episode's pair rows, one block
        rng = np.random.default_rng(11)
        for n in (2 * T.BLOCK_ROWS + 37, T.pair_rows(16), T.BLOCK_ROWS):
            x = t(rng.normal(size=(n, 1)))
            weights = score_weights(rng, 1, 8)
            assert_matches_stored(x, weights, rng.normal(size=n), slope)

    @pytest.mark.parametrize("slope", [0.0, 0.01])
    def test_zero_bias_net_on_zero_rows(self, slope):
        # init_params' zero biases put every layer-0 kink at x = 0, where
        # the zero row of each stacked episode's diagonal sits: that row
        # must take the factors of a pre-activation of exactly 0, which
        # those of the pieces on either side of it (both hold rows) miss.
        # Three episodes of 700 rows, then 121 rows (one M = 16 episode)
        # and 8 x 128 (one block)
        rng = np.random.default_rng(12)
        for shape in [(3, 700), (1, T.pair_rows(16)), (8, T.BLOCK_ROWS // 8)]:
            x = rng.normal(size=shape + (1,))
            x[:, -1] = 0.0
            x[len(x) // 2, :50] = 0.0
            weights = score_weights(rng, 1, 8)
            for b in weights[1:4:2]:
                b.data[:] = 0.0
            assert_matches_stored(t(x), weights, rng.normal(size=shape),
                                  slope)

    def test_zero_input_weight_and_duplicate_kinks(self):
        rng = np.random.default_rng(13)
        n = T.BLOCK_ROWS + 300
        weights = score_weights(rng, 1, 8)
        w0, b0, w1, b1 = (w.data for w in weights[:4])
        w0[0, 1], b0[1] = 2.0 * w0[0, 0], 2.0 * b0[0]  # one layer-0 kink twice
        w0[0, 2] = 0.0                                   # a unit without kink
        w1[:, 1], b1[1] = w1[:, 0], b1[0]                # layer-1 unit twice
        x = rng.normal(size=(n, 1))
        kinks = -b0[[0, 3, 4]] / w0[0, [0, 3, 4]]
        x[:3, 0] = kinks                                 # rows on kinks
        assert_matches_stored(t(x), weights, rng.normal(size=n), 0.01)

    def test_float32_in_float32_out(self):
        n = 2 * T.BLOCK_ROWS + 37
        rng = np.random.default_rng(14)
        x = rng.normal(size=(n, 1))
        weights = score_weights(rng, 1, 8)
        g = rng.normal(size=n)
        want, want_grads = scores_and_grads(T.mlp_scores, t(x), weights, g,
                                            0.01)
        x32 = T.Tensor(x.astype(np.float32), requires_grad=True)
        w32 = [T.Tensor(w.data.astype(np.float32), requires_grad=True)
               for w in weights]
        got, got_grads = scores_and_grads(T.mlp_scores, x32, w32, g, 0.01)
        assert got.dtype == np.float32
        assert np.abs(got - want).max() <= 1e-5
        for a, b in zip(got_grads, want_grads):
            assert a.dtype == np.float32 and a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-4 * max(1.0, np.abs(b).max())

    def test_selection_reads_the_shape_only(self, monkeypatch):
        def block_kernel(*args, **kwargs):
            raise AssertionError("block kernel")

        monkeypatch.setattr(T, "_hidden_blocks", block_kernel)
        rng = np.random.default_rng(15)
        # rows one wide take the table at any count, wider rows the block
        # kernel at any count
        for shape, table in [((T.BLOCK_ROWS + 1, 1), True),
                             ((2, T.BLOCK_ROWS // 2 + 1, 1), True),
                             ((T.BLOCK_ROWS, 1), True),
                             ((2, T.BLOCK_ROWS // 2, 1), True),
                             ((1, 1), True),
                             ((T.BLOCK_ROWS + 1, 2), False),
                             ((4, 2), False),
                             ((5, 3), False)]:
            x = t(rng.normal(size=shape))
            weights = score_weights(rng, shape[-1], 4)
            g = rng.normal(size=shape[:-1])
            if table:
                scores_and_grads(T.mlp_scores, x, weights, g, 0.01)
            else:
                with pytest.raises(AssertionError, match="block kernel"):
                    scores_and_grads(T.mlp_scores, x, weights, g, 0.01)

    def test_non_finite_rows_score_nan_and_leave_the_others(self):
        # the table spans the finite rows; a NaN or infinite row scores
        # NaN, as the block kernel's arithmetic scores it
        rng = np.random.default_rng(16)
        x = 3.0 * np.abs(rng.normal(size=2000))
        weights = tuple(w.data for w in score_weights(rng, 1, 8))
        bad = [5, 700, 1999]
        for value in (np.nan, np.inf, -np.inf):
            rows = x.copy()
            rows[bad] = value
            good = np.isfinite(rows)
            got = T._table_scores(rows, weights, 0.01)[0]
            # the block kernel's inf - inf raises "invalid value"
            with np.errstate(invalid="ignore"):
                want = T._block_scores(rows[:, None], weights, 0.01)[0]
            assert np.isnan(got[bad]).all() and np.isnan(want[bad]).all()
            assert np.abs(got[good] - want[good]).max() <= 1e-12 * max(
                1.0, np.abs(want[good]).max())

    def test_non_finite_rows_give_nan_gradients_without_warnings(self):
        rng = np.random.default_rng(17)
        x = 3.0 * np.abs(rng.normal(size=(T.BLOCK_ROWS + 9, 1)))
        x[3] = np.nan
        weights = score_weights(rng, 1, 8)
        scores, grads = scores_and_grads(T.mlp_scores, t(x), weights,
                                         rng.normal(size=x.shape[0]), 0.01)
        assert np.isnan(scores[3]) and np.isfinite(np.delete(scores, 3)).all()
        assert all(np.isnan(g).any() for g in grads[1:])

    def test_table_key_rounds_the_range_out_to_powers_of_two(self):
        assert [T._range_end(v) for v in (0.0, 1.0, 3.0, 4.0, 0.3, -5.0)] \
            == [0.0, 1.0, 4.0, 4.0, 0.5, -8.0]
        assert T._range_end(1e308) == np.finfo(np.float64).max

    def test_warm_table_gives_the_cold_tables_values_bitwise(self):
        rng = np.random.default_rng(18)
        weights = score_weights(rng, 1, 8)
        n = 2 * T.BLOCK_ROWS + 37
        # 3.0 and 2.5 times |normal| share a range, [0, 16]; 0.1 times
        # it does not
        x = [np.abs(rng.normal(size=(n, 1))) * s for s in (3.0, 2.5, 0.1)]
        g = rng.normal(size=n)
        cold = []
        for rows in x:
            T._piece_table.cache_clear()
            cold.append(scores_and_grads(T.mlp_scores, t(rows), weights, g,
                                         0.01))
        T._piece_table.cache_clear()
        for _ in range(2):
            for rows, (want, want_grads) in zip(x, cold):
                got, got_grads = scores_and_grads(T.mlp_scores, t(rows),
                                                  weights, g, 0.01)
                assert np.array_equal(got, want)
                for a, b in zip(got_grads, want_grads):
                    assert np.array_equal(a, b)
        info = T._piece_table.cache_info()
        assert (info.misses, info.hits) == (2, 4)

    def test_in_place_weight_edit_changes_the_next_calls_scores(self):
        rng = np.random.default_rng(19)
        x = t(np.abs(rng.normal(size=(T.BLOCK_ROWS + 5, 1))))
        weights = score_weights(rng, 1, 8)
        before = T.mlp_scores(x, *weights).data
        for w in weights:
            w.data[...] *= 0.5
        after = T.mlp_scores(x, *weights).data
        want = stored_scores(x, *weights).data
        assert not np.array_equal(after, before)
        assert np.abs(after - want).max() <= 1e-12
        # and back: the first table's scores again, bitwise
        for w in weights:
            w.data[...] *= 2.0
        assert np.array_equal(T.mlp_scores(x, *weights).data, before)

    def test_threads_get_their_single_thread_results(self):
        # more threads than cores, each cycling through more tables than
        # the cache keeps
        rng = np.random.default_rng(20)
        nets = [score_weights(rng, 1, 8)
                for _ in range(2 * T.TABLE_CACHE_SIZE)]
        x = [t(np.abs(rng.normal(size=(T.BLOCK_ROWS + 11, 1))) * s)
             for s in (1.0, 5.0, 0.2)]
        T._piece_table.cache_clear()
        want = [[T.mlp_scores(rows, *w).data for w in nets] for rows in x]
        got = [None] * len(x)

        def score(k):
            got[k] = [[T.mlp_scores(x[k], *w).data for w in nets]
                      for _ in range(3)]

        threads = [threading.Thread(target=score, args=(k,))
                   for k in range(len(x))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for runs, expected in zip(got, want):
            for run in runs:
                assert all(np.array_equal(a, b) for a, b in zip(run, expected))
        assert T._piece_table.cache_info().currsize <= T.TABLE_CACHE_SIZE


def explicit_distances(x):
    """``pair_distances``' values on the (..., M, d) rows ``x``, flat,
    from the explicit row-difference kernel alone: each pair, then the
    diagonal as row 0 against itself."""
    p = T.pair_index(x.shape[-2])
    return T._explicit_distances(x[..., np.append(p.rows, 0), :],
                                 x[..., np.append(p.cols, 0), :]).reshape(-1)


def gram_bound(d):
    """The relative error ``pair_distances``' docstring bounds a Gram
    distance by, plus the explicit kernel's own rounding."""
    eps = 2.0 ** -53
    gamma = d * eps / (1 - d * eps)
    return (2 * gamma + 3 * eps) / T.NEAR_PAIR / 2 + gamma + 2 * eps


def clustered_rows(rng, m, d, offset):
    """m rows of unit spread around four centres about ``offset`` from
    the origin and from each other: for a large offset, pairs within a
    cluster are near and pairs across clusters are not."""
    centres = offset * rng.normal(size=(4, d))
    return centres[rng.integers(4, size=m)] + rng.normal(size=(m, d))


def record_explicit(monkeypatch):
    """Patches the explicit kernel to record the pairs of rows of every
    call, each as the bytes of its two rows; returns the list of
    records."""
    calls, kernel = [], T._explicit_distances

    def recording(left, right):
        d = left.shape[-1]
        calls.extend((a.tobytes(), b.tobytes()) for a, b in
                     zip(left.reshape(-1, d), right.reshape(-1, d)))
        return kernel(left, right)

    monkeypatch.setattr(T, "_explicit_distances", recording)
    return calls


def row_pairs(x, rows, cols):
    """The pairs (rows[k], cols[k]) of each (M, d) episode of ``x``, in
    the form ``record_explicit`` records, sorted."""
    return sorted((a.tobytes(), b.tobytes())
                  for f in x.reshape((-1,) + x.shape[-2:])
                  for a, b in zip(f[rows], f[cols]))


def sent_pairs(calls, x):
    """The pairs of ``x``'s rows that reached the explicit kernel, sorted,
    leaving out each episode's diagonal row (row 0 against itself)."""
    diagonal = set(row_pairs(x, [0], [0]))
    return sorted(pair for pair in calls if pair not in diagonal)


class TestGramDistances:
    """Pair distances come from one Gram product per episode, at every
    size, with near pairs recomputed from explicit row differences."""

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e8])
    @pytest.mark.parametrize("d", [1, 16, 32, 64])
    def test_multi_block_values_within_bound(self, d, offset):
        # pairs of several row blocks (M = 50), a single pair (M = 2, the
        # smallest call), M = 8, and a stacked one-block group of four
        # M = 16 episodes
        rng = np.random.default_rng(d)
        assert T.pair_rows(50) > T.BLOCK_ROWS >= 4 * T.pair_rows(16)
        for count, m in [(1, 50), (1, 2), (1, 8), (4, 16)]:
            x = clustered_rows(rng, count * m, d, offset)
            if count > 1:
                x = x.reshape(count, m, d)
            got = T.pair_distances(t(x)).data
            assert got.shape == x.shape[:-2] + (T.pair_rows(m), 1)
            want = explicit_distances(x)
            assert np.all(np.abs(got.reshape(-1) - want)
                          <= gram_bound(d) * want)

    def test_float32_within_float32_rounding(self, monkeypatch):
        # several row blocks of pairs, then a stacked one-block group
        calls = record_explicit(monkeypatch)
        rng = np.random.default_rng(21)
        for shape in [(50, 32), (4, 16, 32)]:
            calls.clear()
            x = rng.normal(size=shape).astype(np.float32)
            got = T.pair_distances(T.Tensor(x)).data.reshape(-1)
            assert got.dtype == np.float32
            assert sent_pairs(calls, x) == []
            want = explicit_distances(x.astype(np.float64))
            assert np.all(np.abs(got - want) <= 2.0 ** -23 * want)

    def test_duplicate_rows_zero_and_close_rows_explicit(self):
        rng = np.random.default_rng(22)
        x = clustered_rows(rng, 50, 32, 1e3)
        x[7] = x[3]
        x[20] = x[10] + 1e-7 * rng.normal(size=32)
        got = T.pair_distances(t(x)).data[:, 0]
        want = explicit_distances(x)
        p = T.pair_index(50)
        same = np.flatnonzero((p.rows == 3) & (p.cols == 7))
        close = np.flatnonzero((p.rows == 10) & (p.cols == 20))
        assert got[same] == 0.0
        assert got[close].view(np.uint64) == want[close].view(np.uint64)

    def test_selection(self, monkeypatch):
        # one block, flat or stacked, and more than one block: well
        # separated rows send no pair to the explicit kernel, and one
        # duplicated row exactly the pairs the near rule flags
        calls = record_explicit(monkeypatch)
        rng = np.random.default_rng(23)
        for shape in [(40, 8), (4, 16, 8), (50, 32)]:
            calls.clear()
            x = rng.normal(size=shape)
            T.pair_distances(t(x))
            assert sent_pairs(calls, x) == []
            calls.clear()
            x[..., 7, :] = x[..., 3, :]
            T.pair_distances(t(x))
            p = T.pair_index(shape[-2])
            for f in x.reshape((-1,) + shape[-2:]):
                norms = (f * f).sum(axis=1)
                total = norms[p.rows] + norms[p.cols]
                s = ((f[p.rows] - f[p.cols]) ** 2).sum(axis=1)
                flagged = np.flatnonzero(~(s > T.NEAR_PAIR * total))
                assert flagged.tolist() == [np.flatnonzero(
                    (p.rows == 3) & (p.cols == 7))[0]]
            assert sent_pairs(calls, x) == row_pairs(x, [3], [7])

    def test_near_pass_runs_in_row_blocks(self):
        # every pair of 400 coincident rows is near; recomputed in one
        # pass, they would take three (P, 32) temporaries of 20 MB each
        x = t(np.tile(np.random.default_rng(27).normal(size=32), (400, 1)))
        T.pair_index(400)   # cached first: the index is not the near pass's
        tracemalloc.start()
        try:
            got = T.pair_distances(x).data
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not got.any()
        assert peak < 8e6

    @pytest.mark.parametrize("dtype,value", [
        (np.float64, np.nan), (np.float64, np.inf), (np.float64, 1e200),
        (np.float32, np.nan), (np.float32, np.inf), (np.float32, 1e20)])
    def test_non_finite_and_overflowing_rows_explicit(self, dtype, value):
        # rows 0 (the diagonal's row) and 5 hold the value, so pairs of
        # one and of two such rows occur: theirs and the diagonal must be
        # the explicit kernel's bitwise, NaN payloads included. M = 50
        # spans several row blocks of pairs, M = 16 one
        rng = np.random.default_rng(24)
        for m in (50, 16):
            x = rng.normal(size=(m, 8)).astype(dtype)
            x[[0, 5], 2] = value
            with np.errstate(over="ignore", invalid="ignore"):
                got = T.pair_distances(T.Tensor(x)).data[:, 0]
                want = explicit_distances(x)
                want64 = explicit_distances(x.astype(np.float64))
            assert got.dtype == want.dtype == dtype
            p = T.pair_index(m)
            hit = np.append(np.isin(p.rows, [0, 5]) | np.isin(p.cols, [0, 5]),
                            True)
            bits = np.uint64 if dtype == np.float64 else np.uint32
            assert np.array_equal(got[hit].view(bits), want[hit].view(bits))
            bound = gram_bound(8) if dtype == np.float64 else 2.0 ** -23
            got, want64 = got[~hit], want64[~hit]
            assert np.all(np.abs(got - want64) <= bound * want64)

    def test_grad_check_multi_block(self):
        rng = np.random.default_rng(25)
        x = t(rng.normal(size=(50, 3)))
        w = t(rng.normal(size=(T.pair_rows(50), 1)), grad=False)
        err = T.grad_check_groups(
            lambda: T.tensor_sum(T.mul(T.pair_distances(x), w)), {"x": x},
            epsilon=1e-6)
        assert err["x"] < 1e-6

    def test_stacked_matches_each_episode(self):
        rng = np.random.default_rng(26)
        x = np.stack([clustered_rows(rng, 30, 16, 1e3) for _ in range(3)])
        got = T.pair_distances(t(x)).data
        assert got.shape == (3, T.pair_rows(30), 1)
        assert 3 * T.pair_rows(30) > T.BLOCK_ROWS >= T.pair_rows(30)
        for one, rows in zip(got, x):
            want = T.pair_distances(t(rows)).data
            assert np.all(np.abs(one - want) <= gram_bound(16) * want)


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
    sums = T.tensor_sum(e, axis=-1, keepdims=True)
    dead = sums.data < EPS
    keep = T.Tensor((~dead).astype(e.dtype))
    return T.div(T.mul(e, keep), T.add(sums, T.Tensor(dead.astype(e.dtype))))


def chain_rescale(a, e):
    row_mass = T.tensor_sum(e, axis=-2, keepdims=True)
    scaled = T.mul(a, e)
    mean = T.div(T.tensor_sum(scaled, axis=-2, keepdims=True), row_mass)
    return T.div(scaled, mean)


def chain_evolve(parts, complement, e):
    return chain_normalize(chain_rescale(chain_stack(parts, complement), e))


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


def chain_pair_mean_product(a, b):
    return T.tensor_mean(T.mul(a, b), axis=(-3, -2))


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
    norm_e, evolve_e = edges(), edges()
    pool_w = edges()
    u, v, tail = tensor((M, 3)), tensor((M, 2)), tensor((M, 4))
    sources = [v, u, u][:c]
    ce_edges = edges()
    queries, indicator, truth = readout_task(M, 2)
    ce_args = dict(queries=queries, channel=c - 1,
                   indicator=indicator.astype(dtype), truth=truth,
                   complement=c == 3)
    pmp_a, pmp_e = tensor((M, M, c), 0.1, 0.9), edges()
    return [
        ("stack_last", lambda: T.stack_last(parts, complement),
         lambda: chain_stack(parts, complement), list(dict.fromkeys(parts)),
         weights((M, M, c))),
        ("normalize_last", lambda: T.normalize_last(norm_e, EPS),
         lambda: chain_normalize(norm_e), [norm_e], weights((M, M, c))),
        ("evolve_edges",
         lambda: T.evolve_edges(parts, evolve_e, complement, ("x",) * c, EPS),
         lambda: chain_evolve(parts, complement, evolve_e),
         [*dict.fromkeys(parts), evolve_e], weights((M, M, c))),
        ("pool_channels", lambda: T.pool_channels(pool_w, sources, tail),
         lambda: chain_pool(pool_w, sources, tail),
         [pool_w, *dict.fromkeys(sources), tail],
         weights((M, sum(s.shape[1] for s in sources) + 4))),
        ("readout_ce", lambda: T.readout_ce(ce_edges, **ce_args),
         lambda: chain_readout_ce(ce_edges, **ce_args), [ce_edges], None),
        ("pair_mean_product", lambda: T.pair_mean_product(pmp_a, pmp_e),
         lambda: chain_pair_mean_product(pmp_a, pmp_e), [pmp_a, pmp_e],
         weights((c,))),
    ]


def standardize_case(rng, dtype=np.float64):
    x = rng.normal(size=(7, 4))
    x[:, 2] = 0.3    # a constant column: zero variance
    x, gain, shift = (T.Tensor(a.astype(dtype), requires_grad=True)
                      for a in (x, rng.normal(size=4), rng.normal(size=4)))
    return (lambda: T.standardize(x, gain, shift, 1e-5),
            lambda: chain_standardize(x, gain, shift), [x, gain, shift],
            T.Tensor(rng.normal(size=(7, 4)).astype(dtype)))


FUSED = ["stack_last", "normalize_last", "evolve_edges", "pool_channels",
         "readout_ce", "pair_mean_product"]


class TestFusedLayerOps:
    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("name", FUSED)
    def test_matches_per_op_chain(self, name, c):
        case = {n: rest for n, *rest in fused_cases(
            np.random.default_rng(20 + c), c)}[name]
        compare_with_chain(*case)

    def test_standardize_matches_per_op_chain(self):
        compare_with_chain(*standardize_case(np.random.default_rng(21)))

    @pytest.mark.parametrize("c", [1, 2, 3])
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


    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_evolve_edges_float32_in_float32_out(self, c):
        case = {n: rest for n, *rest in fused_cases(
            np.random.default_rng(33 + c), c, np.float32)}["evolve_edges"]
        fused, _, inputs, _ = case
        with T.Tape() as tape:
            out = fused()
            tape.backward(T.tensor_sum(out))
        assert out.dtype == np.float32
        assert all(x.grad.dtype == np.float32 for x in inputs)


CHANNEL_NAMES = ("relative", "similar", "dissimilar")


def evolve_inputs(rng, lead, m, channel_first=False):
    """Relative and pair scores and three-channel edges over ``lead``
    episodes of m vertices: the edges channel-last, or a channel-last
    view of a channel-first array, as a layer's output is."""
    rel, pair = (t(rng.uniform(0.05, 0.95, size=lead + (m, m)))
                 for _ in "rp")
    raw = rng.uniform(0.1, 1.0, size=lead + (3, m, m))
    raw[..., 1, 3] = 0.0   # a dead pair
    e = (np.moveaxis(raw, -3, -1) if channel_first
         else np.ascontiguousarray(np.moveaxis(raw, -3, -1)))
    return [rel, pair, pair], t(e)


class TestEvolveEdges:
    @pytest.mark.parametrize("channel_first", [False, True],
                             ids=["channel_last", "channel_first"])
    @pytest.mark.parametrize("lead,m", [((), 80), ((), 160), ((3,), 24)],
                             ids=["m80", "m160", "stacked"])
    def test_matches_chain(self, lead, m, channel_first):
        rng = np.random.default_rng(40 + m)
        parts, e = evolve_inputs(rng, lead, m, channel_first)
        weights = T.Tensor(rng.normal(size=e.shape))
        compare_with_chain(
            lambda: T.evolve_edges(parts, e, (2,), CHANNEL_NAMES, EPS),
            lambda: chain_evolve(parts, (2,), e), [parts[0], parts[1], e],
            weights)

    @pytest.mark.parametrize("what", ["mass", "affinity"])
    def test_stacked_failure_names_the_episode(self, what):
        parts, e = evolve_inputs(np.random.default_rng(43), (3,), 9)
        if what == "mass":
            e.data[2, 4, :, 1] = 0.0
            message = ("edge update: zero total weight on episode 2, row 4, "
                       "channel 'similar'")
        else:
            parts[1].data[2, 4] = 1e-15
            message = ("edge update: vanishing affinity mass on episode 2, "
                       "row 4, channel 'similar'")
        with pytest.raises(NumericError, match=f"^{message}$"):
            T.evolve_edges(parts, e, (2,), CHANNEL_NAMES, EPS)

    def test_output_is_a_channel_last_view_of_its_planes(self):
        parts, e = evolve_inputs(np.random.default_rng(44), (2,), 7)
        out = T.evolve_edges(parts, e, (2,), CHANNEL_NAMES, EPS).data
        assert out.shape == e.shape
        planes = T._channel_planes(out)
        assert planes.flags.c_contiguous
        assert np.shares_memory(planes, out)

    def test_recorded_call_keeps_no_full_size_array_but_its_output(self):
        parts, e = evolve_inputs(np.random.default_rng(45), (2,), 9)
        with T.Tape() as tape:
            out = T.evolve_edges(parts, e, (2,), CHANNEL_NAMES, EPS)
        kept = closure_arrays(tape)
        assert kept
        assert all(arr.size < e.size or np.shares_memory(arr, out.data)
                   for arr in kept)


C5_CFG = ModelConfig(feature_dim=16, hidden_dim=32, use_encoder=False,
                     metric_hidden=32, standardize_vertex=True,
                     aggregate_self=True)
# a stacked group of four M = 16 episodes, then M = 80 and 160
STEP_SHAPES = pytest.mark.parametrize(
    "shape,count", [((2, 5, 3), 4), ((5, 1, 15), 1), ((8, 5, 15), 1)],
    ids=["m16x4", "m80", "m160"])


def step_episode(shape, count):
    ds, _, _ = synth_benchmark(20, 8, 8, per_class=30, dim=16, sep=6.0,
                               seed=1)
    rng = make_rng(7, 0)
    episodes = [sample_episode(ds, *shape, label_fraction=0.4, rng=rng)
                for _ in range(count)]
    return stack_episodes(episodes) if count > 1 else episodes[0]


def taped_step(episode, params):
    """Parameter gradients of one taped step, and its tape."""
    params.zero_grads()
    with T.Tape() as tape:
        graph = forward(episode, params)
        total = losses.report_losses(graph, episode, 1e-5)[0]
        tape.backward(T.tensor_sum(total))
    return {n: params.t(n).grad.copy() for n in params.names()}, tape


def closure_arrays(tape):
    """The arrays the VJP of a one-node tape keeps beside its inputs'
    data."""
    (_, inputs, vjp), = tape._nodes
    own = {id(x.data) for x in inputs}
    return [cell.cell_contents for cell in vjp.__closure__
            if isinstance(cell.cell_contents, np.ndarray)
            and id(cell.cell_contents) not in own]


class TestReleasedGradients:
    @STEP_SHAPES
    def test_taped_step_leaves_gradients_on_parameters_only(self, shape,
                                                            count):
        grads, tape = taped_step(step_episode(shape, count),
                                 init_params(C5_CFG, seed=3))
        assert all(out.grad is None for out, _, _ in tape._nodes)
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    @STEP_SHAPES
    def test_structure_term_matches_chain_bitwise(self, shape, count):
        graph = forward(step_episode(shape, count),
                        init_params(C5_CFG, seed=3))
        rng = np.random.default_rng(9)
        for (rel, pair), edges in zip(graph.scores, graph.edges):
            stack = stack_channels(graph.channels, rel, pair)
            w = T.Tensor(rng.normal(size=stack.shape[:-3] + stack.shape[-1:]))
            results = []
            for op in (T.pair_mean_product, chain_pair_mean_product):
                a, b = t(stack.data), t(edges.data)
                with T.Tape() as tape:
                    out = op(a, b)
                    tape.backward(T.tensor_sum(T.mul(out, w)))
                results.append([out.data, a.grad, b.grad])
            for got, want in zip(*results):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @STEP_SHAPES
    def test_step_gradients_match_chain_structure_term_bitwise(
            self, monkeypatch, shape, count):
        episode = step_episode(shape, count)
        params = init_params(C5_CFG, seed=3)
        got, _ = taped_step(episode, params)
        monkeypatch.setattr(T, "pair_mean_product", chain_pair_mean_product)
        want, _ = taped_step(episode, params)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    @STEP_SHAPES
    def test_pool_channels_gradients_bitwise(self, shape, count):
        # gradients with the planes the VJP rebuilds are those with the
        # planes the forward pooled with
        m = shape[0] * (shape[1] + shape[2])
        lead = (count,) if count > 1 else ()
        rng = np.random.default_rng(11)
        w = t(rng.uniform(0.1, 1.0, size=lead + (m, m, 3)))
        u, v = t(rng.normal(size=lead + (m, 5))), t(rng.normal(size=lead + (m, 4)))
        sources, tail = [v, u, u], t(rng.normal(size=lead + (m, 6)))
        g = rng.normal(size=lead + (m, 20))
        with T.Tape() as tape:
            out = T.pool_channels(w, sources, tail)
            tape.backward(T.tensor_sum(T.mul(out, T.Tensor(g))))
        planes = np.ascontiguousarray(np.moveaxis(w.data, -1, -3))
        bounds = (0, 4, 9, 14, 20)
        parts = [g[..., bounds[c]:bounds[c + 1]] for c in range(4)]
        want_w = np.empty_like(w.data)
        back = []
        for c, src in enumerate(sources):
            want_w[..., c] = parts[c] @ np.swapaxes(src.data, -1, -2)
            back.append(np.swapaxes(planes[..., c, :, :], -1, -2) @ parts[c])
        assert w.grad.tobytes() == want_w.tobytes()
        assert v.grad.tobytes() == back[0].tobytes()
        assert u.grad.tobytes() == np.add(back[1], back[2]).tobytes()
        assert tail.grad.tobytes() == parts[3].tobytes()

    def test_recorded_ops_keep_no_full_size_array(self):
        rng = np.random.default_rng(12)
        a, b = (t(rng.uniform(0.1, 1.0, size=(2, 9, 9, 3))) for _ in "ab")
        with T.Tape() as tape:
            T.pair_mean_product(a, b)
        assert closure_arrays(tape) == []
        sources = [t(rng.normal(size=(2, 9, 4))) for _ in range(3)]
        with T.Tape() as tape:
            T.pool_channels(a, sources)
        assert all(arr.size < a.size for arr in closure_arrays(tape))


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
