import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hospgnn import tensor as T
from hospgnn.errors import NumericError, ShapeError


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
