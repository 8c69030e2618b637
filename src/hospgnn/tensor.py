"""Dense tensors with reverse-mode automatic differentiation.

Values live in numpy arrays (float64 by default, float32 selectable).
Gradients come from an explicit tape: every primitive applied while a
:class:`Tape` is active appends one node, and ``backward`` replays the
recorded adjoints in reverse order. Replay order is the recording order,
so repeated backward passes over identical inputs accumulate gradients
in the same sequence and produce bitwise-identical results.

Outside any tape (or when no input requires gradients) the primitives
skip recording entirely, which doubles as the fast inference path used
by finite-difference checks and evaluation.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from .errors import NumericError, ShapeError

DEFAULT_DTYPE = np.float64
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_tls = threading.local()


def _tape_stack():
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape():
    """The innermost active tape in this thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A dense array plus gradient bookkeeping.

    ``grad`` is populated (same shape as ``data``) by ``backward`` for
    every tensor with ``requires_grad`` that took part in the recorded
    computation; it accumulates across backward passes until reset.
    ``_tape`` is a weak reference to the recording tape: the tape holds
    its outputs, so a strong back-reference would make every taped
    computation a cycle that only the cyclic collector frees.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def numpy(self):
        """A defensive copy of the values."""
        return np.array(self.data, copy=True)

    def zero_grad(self):
        self.grad = None

    # arithmetic operators delegate to the module-level primitives
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive operations for one backward pass."""

    def __init__(self):
        self._nodes = []
        self._ref = weakref.ref(self)

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("tape stack corrupted (exited out of order)")
        stack.pop()
        return False

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss):
        """Populate grads of every participating tensor from a scalar loss."""
        if not isinstance(loss, Tensor):
            raise TypeError("loss must be a Tensor")
        if loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is None or loss._tape() is not self:
            raise ValueError("loss was not recorded on this tape")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        for out, inputs, vjp in reversed(self._nodes):
            g = out.grad
            if g is None:
                continue
            for t, gt in zip(inputs, vjp(g)):
                if gt is None or not t.requires_grad:
                    continue
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += gt
        # every recorded requires_grad tensor ends with a defined grad,
        # including ones off the path to the loss
        for out, inputs, _ in self._nodes:
            for t in (out, *inputs):
                if t.requires_grad and t.grad is None:
                    t.grad = np.zeros_like(t.data)


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _coerce_pair(a, b):
    """Wrap plain scalars/arrays with the dtype of the Tensor operand so
    mixed expressions never silently promote a float32 graph."""
    if isinstance(a, Tensor):
        return a, _as_tensor(b, like=a)
    if isinstance(b, Tensor):
        return _as_tensor(a, like=b), b
    return _as_tensor(a), _as_tensor(b)


def _emit(data, inputs, vjp):
    """Wrap an op result, recording the adjoint when a tape wants it."""
    tape = active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out._tape = tape._ref
        tape._nodes.append((out, inputs, vjp))
    return out


def _unbroadcast(g, shape):
    """Sum a gradient down to the shape the operand actually had."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    if g.shape != shape:
        g = g.reshape(shape)
    return g


def add(a, b):
    a, b = _coerce_pair(a, b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit(data, (a, b), vjp)


def sub(a, b):
    a, b = _coerce_pair(a, b)
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _emit(data, (a, b), vjp)


def mul(a, b):
    a, b = _coerce_pair(a, b)
    data = a.data * b.data
    ad, bd = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return _emit(data, (a, b), vjp)


def div(a, b):
    a, b = _coerce_pair(a, b)
    if np.any(b.data == 0):
        raise NumericError("division by zero")
    data = a.data / b.data
    ad, bd = a.data, b.data

    def vjp(g):
        return (
            _unbroadcast(g / bd, a.shape),
            _unbroadcast(-g * ad / (bd * bd), b.shape),
        )

    return _emit(data, (a, b), vjp)


def neg(a):
    a = _as_tensor(a)

    def vjp(g):
        return (-g,)

    return _emit(-a.data, (a,), vjp)


def matmul(a, b):
    a, b = _coerce_pair(a, b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} by {b.shape}"
        )
    data = a.data @ b.data
    ad, bd = a.data, b.data

    def vjp(g):
        return g @ bd.T, ad.T @ g

    return _emit(data, (a, b), vjp)


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _expand_like(g, shape, axes, keepdims):
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tensor_sum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    axes = _axis_tuple(axis, a.ndim)
    data = a.data.sum(axis=axes if axes else None, keepdims=keepdims)
    shape = a.shape

    def vjp(g):
        return (_expand_like(g, shape, axes, keepdims).copy(),)

    return _emit(data, (a,), vjp)


def tensor_mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    axes = _axis_tuple(axis, a.ndim)
    data = a.data.mean(axis=axes if axes else None, keepdims=keepdims)
    shape = a.shape
    count = 1
    for ax in axes:
        count *= shape[ax]

    def vjp(g):
        return (_expand_like(g, shape, axes, keepdims) / count,)

    return _emit(data, (a,), vjp)


def reshape(a, shape):
    a = _as_tensor(a)
    orig = a.shape
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(orig),)

    return _emit(data, (a,), vjp)


def concat(tensors, axis=0):
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of an empty sequence")
    axis = axis % ts[0].ndim
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]

    def vjp(g):
        pieces = []
        start = 0
        for s in sizes:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + s)
            pieces.append(g[tuple(sl)])
            start += s
        return tuple(pieces)

    return _emit(data, tuple(ts), vjp)


def stack_last(tensors):
    """Stack same-shape tensors along a fresh trailing axis."""
    ts = [_as_tensor(t) for t in tensors]
    return concat([reshape(t, t.shape + (1,)) for t in ts], axis=-1)


def take_last(a, index):
    """Select one slice along the trailing axis, dropping that axis."""
    a = _as_tensor(a)
    if a.ndim < 1:
        raise ShapeError("take_last needs at least one axis")
    n = a.shape[-1]
    if not (0 <= index < n):
        raise ShapeError(f"index {index} out of range for trailing axis of {n}")
    data = np.ascontiguousarray(a.data[..., index])
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[..., index] = g
        return (full,)

    return _emit(data, (a,), vjp)


def exp(a):
    a = _as_tensor(a)
    data = np.exp(a.data)

    def vjp(g):
        return (g * data,)

    return _emit(data, (a,), vjp)


def log(a):
    a = _as_tensor(a)
    if np.any(a.data <= 0):
        raise NumericError("log of a non-positive value")
    data = np.log(a.data)
    ad = a.data

    def vjp(g):
        return (g / ad,)

    return _emit(data, (a,), vjp)


def sqrt(a):
    a = _as_tensor(a)
    if np.any(a.data < 0):
        raise NumericError("sqrt of a negative value")
    data = np.sqrt(a.data)

    def vjp(g):
        # zero subgradient at 0; exact zeros only arise from identically
        # zero inputs (self-distances), whose true contribution is zero
        return (np.where(data > 0, g * 0.5 / np.where(data > 0, data, 1.0), 0.0),)

    return _emit(data, (a,), vjp)


def absval(a):
    a = _as_tensor(a)
    data = np.abs(a.data)
    sign = np.sign(a.data)

    def vjp(g):
        return (g * sign,)

    return _emit(data, (a,), vjp)


def sigmoid(a):
    a = _as_tensor(a)
    x = a.data
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    data[~pos] = ex / (1.0 + ex)

    def vjp(g):
        return (g * data * (1.0 - data),)

    return _emit(data, (a,), vjp)


def leaky_relu(a, slope=0.01):
    a = _as_tensor(a)
    x = a.data
    data = np.where(x >= 0, x, slope * x)

    def vjp(g):
        return (np.where(x >= 0, g, slope * g),)

    return _emit(data, (a,), vjp)


def softmax(a, axis=-1):
    """Numerically stable softmax along one axis.

    The max shift is treated as a constant; that leaves both the value and
    the gradient unchanged and keeps the tape free of a max primitive.
    """
    a = _as_tensor(a)
    if np.any(np.isnan(a.data)):
        raise NumericError("softmax of NaN input")
    shift = Tensor(np.max(a.data, axis=axis, keepdims=True))
    e = exp(sub(a, shift))
    return div(e, tensor_sum(e, axis=axis, keepdims=True))


def _central_differences(f, params, epsilon):
    """Analytic and central-difference gradients of ``f`` for each
    tensor in ``params``, as two lists of flat float64 arrays.

    ``f`` evaluates the scalar loss from the current parameter values and
    must be deterministic. Parameter grads are restored afterwards.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    saved = [p.grad for p in params]
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = [
        np.zeros(p.size) if p.grad is None
        else p.grad.reshape(-1).astype(np.float64)
        for p in params
    ]
    for p, g in zip(params, saved):
        p.grad = g

    numeric = []
    for p in params:
        flat = p.data.reshape(-1)
        num = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            hi = float(f().data)
            flat[i] = orig - epsilon
            lo = float(f().data)
            flat[i] = orig
            num[i] = (hi - lo) / (2.0 * epsilon)
        numeric.append(num)
    return analytic, numeric


def grad_check_groups(f, named_params, epsilon=1e-5):
    """Per-parameter relative gradient error against central differences.

    For each named parameter the error is the norm of the analytic minus
    numeric gradient over the norm of the numeric one. The vector form
    is robust where individual coordinates have near-zero derivatives,
    whose per-coordinate ratios measure only roundoff.
    Returns {name: relative error}.
    """
    named_params = dict(named_params)
    analytic, numeric = _central_differences(
        f, list(named_params.values()), epsilon)
    return {
        name: float(np.linalg.norm(ana - num)
                    / max(1e-8, np.linalg.norm(num)))
        for name, ana, num in zip(named_params, analytic, numeric)
    }


def grad_check(f, params, epsilon=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``f`` evaluates the scalar loss from the current parameter values and
    must be deterministic. Error per coordinate is
    ``|analytic - numeric| / max(1e-8, |numeric|)``.
    """
    analytic, numeric = _central_differences(f, list(params), epsilon)
    ana, num = np.concatenate(analytic), np.concatenate(numeric)
    return float(np.max(np.abs(ana - num) / np.maximum(1e-8, np.abs(num)),
                        initial=0.0))
