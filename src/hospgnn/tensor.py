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

import collections
import functools
import math
import threading
import weakref

import numpy as np

from .errors import NumericError, ShapeError

DEFAULT_DTYPE = np.float64
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_tls = threading.local()


def active_tape():
    """The tape recording in this thread, or None."""
    return getattr(_tls, "tape", None)


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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive operations for one backward pass."""

    def __init__(self):
        self._nodes = []
        self._ref = weakref.ref(self)

    def __enter__(self):
        if active_tape() is not None:
            raise RuntimeError("a tape is already recording in this thread")
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.tape = None
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
                if gt is not None and t.requires_grad:
                    t.grad = _accumulate(t.grad, gt, t.data)
        # every recorded requires_grad tensor ends with a defined grad,
        # including ones off the path to the loss
        for out, inputs, _ in self._nodes:
            for t in (out, *inputs):
                if t.requires_grad and t.grad is None:
                    t.grad = np.zeros_like(t.data)


def _accumulate(grad, g, data):
    """``grad + g`` as a gradient of ``data``, never written in place: a
    VJP may hand one array to several inputs (``add``) or return an
    output's own gradient, so a stored gradient can be shared. The first
    gradient is stored as is when it has the shape and dtype of
    ``data``; otherwise, and for every later one, the sum goes to a
    fresh array of that shape and dtype."""
    if grad is None:
        if (type(g) is np.ndarray and g.shape == data.shape
                and g.dtype == data.dtype):
            return g
        out = np.empty_like(data)
        np.copyto(out, g, casting="same_kind")
        return out
    return np.add(grad, g, out=np.empty_like(data))


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
    """Wrap an op result, recording the adjoint when a tape is recording
    in this thread and some input requires gradients."""
    tape = active_tape()
    if tape is not None and not any(t.requires_grad for t in inputs):
        tape = None
    out = Tensor(data, requires_grad=tape is not None)
    if tape is not None:
        out._tape = tape._ref
        tape._nodes.append((out, inputs, vjp))
    return out


def _sum_kept(x, axis):
    """``x.sum(axis, keepdims=True)`` over one axis.

    Over the last two axes of a channel-last (..., M, M, C) array each
    output sums a few strided values, where numpy's reduction loop costs
    about 13 times more per element than a product with a ones vector;
    those cases run as the product.
    """
    axis %= x.ndim
    if x.ndim >= 3 and axis >= x.ndim - 2:
        ones = np.ones(x.shape[axis], dtype=x.dtype)
        last = axis == x.ndim - 1
        return np.expand_dims(x @ ones if last else ones @ x, axis)
    return x.sum(axis=axis, keepdims=True)


def _unbroadcast(g, shape):
    """Sum a gradient down to the shape the operand actually had."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = _sum_kept(g, ax)
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


def matmul(a, b):
    """``a @ b`` for an (..., n, k) ``a`` and a (k, p) ``b``."""
    a, b = _coerce_pair(a, b)
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects (..., n, k) by (k, p) operands, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} by {b.shape}"
        )
    data = a.data @ b.data
    ad, bd = a.data, b.data

    def vjp(g):
        rows = ad.reshape(-1, bd.shape[0])
        return g @ bd.T, rows.T @ g.reshape(rows.shape[0], -1)

    return _emit(data, (a, b), vjp)


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _reduce(a, axis, keepdims, mean):
    """The sum of ``a`` over ``axis`` (every axis when None), or with
    ``mean`` that sum over the count of the values summed, as one node
    that reduces axis by axis through ``_sum_kept``. A sum divides by a
    count of 1, which leaves every value as it is."""
    a = _as_tensor(a)
    axes = _axis_tuple(axis, a.ndim)
    shape = a.shape
    count = math.prod(shape[ax] for ax in axes) if mean else 1
    data = functools.reduce(_sum_kept, axes, a.data)
    kept = data.shape
    if not keepdims:
        data = data.squeeze(axes)
    data = data / count

    def vjp(g):
        return (np.broadcast_to(g.reshape(kept), shape) / count,)

    return _emit(data, (a,), vjp)


def tensor_sum(a, axis=None, keepdims=False):
    return _reduce(a, axis, keepdims, mean=False)


def tensor_mean(a, axis=None, keepdims=False):
    return _reduce(a, axis, keepdims, mean=True)


def reshape(a, shape):
    """``a`` in a new shape. No model path uses it: the fused-op tests
    build their per-op reference chains from it."""
    a = _as_tensor(a)
    orig = a.shape
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(orig),)

    return _emit(data, (a,), vjp)


def concat(tensors, axis=0):
    """Join tensors along one axis. No model path uses it: the tests of
    ``pool_channels`` build their per-op reference chain from it."""
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


def stack_last(tensors, complement=()):
    """Stack same-shape tensors along a fresh trailing axis, as one node.
    Slice k holds ``1 - tensors[k]`` for each k in ``complement``; a
    tensor may appear more than once."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts or any(t.shape != ts[0].shape for t in ts):
        raise ShapeError(
            f"stack_last needs same-shape tensors, got {[t.shape for t in ts]}")
    data = np.empty(ts[0].shape + (len(ts),),
                    dtype=np.result_type(*(t.data for t in ts)))
    for k, t in enumerate(ts):
        if k in complement:
            np.subtract(1.0, t.data, out=data[..., k])
        else:
            data[..., k] = t.data

    def vjp(g):
        return tuple(-g[..., k] if k in complement else g[..., k]
                     for k in range(len(ts)))

    return _emit(data, tuple(ts), vjp)


def take_last(a, index):
    """Select one slice along the trailing axis, dropping that axis. No
    model path uses it: the tests of ``pool_channels`` build their
    per-op reference chain from it."""
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
    """Natural logarithm. No model path uses it: the tests of
    ``readout_ce`` build their per-op reference chain from it."""
    a = _as_tensor(a)
    if np.any(a.data <= 0):
        raise NumericError("log of a non-positive value")
    data = np.log(a.data)
    ad = a.data

    def vjp(g):
        return (g / ad,)

    return _emit(data, (a,), vjp)


def sqrt(a):
    """Square root. No model path uses it: the tests of the distance and
    standardisation ops build their per-op reference chains from it."""
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
    """|a|. No model path uses it: the fused pair-op tests build their
    per-op reference chains from it."""
    a = _as_tensor(a)
    data = np.abs(a.data)
    sign = np.sign(a.data)

    def vjp(g):
        return (g * sign,)

    return _emit(data, (a,), vjp)


def _sigmoid_values(x):
    """Logistic function without overflow: each sign takes the branch
    whose exponential stays below one."""
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    data[~pos] = ex / (1.0 + ex)
    return data


def sigmoid(a):
    """The logistic function as its own node. The model runs it inside
    ``mlp_scores``; the fused-op tests build their per-op reference
    chains from this one."""
    a = _as_tensor(a)
    data = _sigmoid_values(a.data)

    def vjp(g):
        return (g * data * (1.0 - data),)

    return _emit(data, (a,), vjp)


def leaky_relu(a, slope=0.01):
    """``max(a, slope a)``, the leaky ReLU for 0 <= slope <= 1."""
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky slope must be in [0, 1], got {slope}")
    a = _as_tensor(a)
    x = a.data
    data = np.maximum(x, slope * x)

    def vjp(g):
        return (g * _leaky_factors(x < 0, slope, np.empty_like(x)),)

    return _emit(data, (a,), vjp)


PairIndex = collections.namedtuple("PairIndex",
                                   "rows cols upper lower diag spread")


def pair_rows(m):
    """The rows the pair ops emit for m vertices: the P = m(m - 1)/2
    unordered pairs, then one for the diagonal."""
    return m * (m - 1) // 2 + 1


@functools.lru_cache(maxsize=64)
def pair_index(m):
    """The unordered vertex pairs of an (m, m) matrix, as a PairIndex.

    ``rows``/``cols`` are the strict upper triangle (i < j) in row-major
    order, ``upper`` and ``lower`` the flat positions of (i, j) and
    (j, i) in that pair order, ``diag`` the flat diagonal. ``spread``
    maps each flat position to its pair, and the diagonal to P, one past
    the last pair. Cached per size; the arrays are read-only, so
    evaluation threads share them.
    """
    rows, cols = np.triu_indices(m, 1)
    upper, lower, diag = rows * m + cols, cols * m + rows, np.arange(m) * (m + 1)
    spread = np.empty(m * m, dtype=rows.dtype)
    spread[upper] = spread[lower] = np.arange(rows.size)
    spread[diag] = rows.size
    index = PairIndex(rows, cols, upper, lower, diag, spread)
    for arr in index:
        arr.flags.writeable = False
    return index


def pair_absdiff(a):
    """|a_i - a_j| for every unordered pair of rows of an (..., M, d)
    tensor, as (..., P + 1, d) rows in ``pair_index`` order plus one zero
    row for the diagonal (|a_i - a_i| = 0). The value is symmetric in
    (i, j) bitwise, since a difference and its negation share one
    magnitude."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"pair_absdiff expects (..., M, d) rows, got {a.shape}")
    lead, (m, d) = a.shape[:-2], a.shape[-2:]
    pairs = pair_index(m)
    diff = np.take(a.data, pairs.rows, axis=-2)
    diff -= np.take(a.data, pairs.cols, axis=-2)
    data = np.zeros(lead + (pair_rows(m), d), dtype=a.dtype)
    np.abs(diff, out=data[..., :-1, :])
    sign = np.sign(diff)

    def vjp(g):
        per_pair = np.zeros(lead + (m * m, d), dtype=g.dtype)
        per_pair[..., pairs.upper, :] = g[..., :-1, :] * sign
        per_pair = per_pair.reshape(lead + (m, m, d))
        return (per_pair.sum(axis=-2) - per_pair.sum(axis=-3),)

    return _emit(data, (a,), vjp)


@functools.lru_cache(maxsize=64)
def _stacked_pairs(m, count):
    """The ``rows`` and ``cols`` of ``pair_index(m)``, then one pair (0,
    0) for the diagonal, for each of ``count`` (m, d) blocks stacked into
    one (count * m, d) array, block after block."""
    pairs = pair_index(m)
    offsets = np.arange(count)[:, None] * m
    out = tuple((np.append(idx, 0) + offsets).reshape(-1)
                for idx in (pairs.rows, pairs.cols))
    for arr in out:
        arr.flags.writeable = False
    return out


def pair_distances(a):
    """Euclidean distance between every unordered pair of rows of an
    (..., M, d) tensor, in the layout of ``pair_absdiff``: (..., P + 1, 1)
    rows in ``pair_index`` order plus one zero row for the diagonal.
    Built from explicit row differences, as the inner-product identity
    loses precision catastrophically near zero.

    Backward forms ``sum_j c_ij (a_i - a_j)``, c_ij = c_ji = g_p / d_ij
    for pair p = (i, j), as one product with the (M, M) matrix c; its
    rounding error relative to the gradient is about eps |a| / d_ij, what
    a rounding-level change of the inputs moves (a_i - a_j) / d_ij by. A
    pair at distance zero has zero subgradient, as ``sqrt`` gives.
    """
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"pair_distances expects (..., M, d) rows, got {a.shape}")
    lead, (m, d) = a.shape[:-2], a.shape[-2:]
    count = math.prod(lead)
    pairs = pair_index(m)
    left, right = _stacked_pairs(m, count)
    f = a.data.reshape(count, m, d)
    flat = f.reshape(count * m, d)
    # the (0, 0) pair closing each episode's rows is the exact zero of
    # the diagonal: a row minus itself
    dist = np.empty(left.size, dtype=f.dtype)
    block = min(dist.size, BLOCK_ROWS)
    diff, other = np.empty((2, block, d), dtype=f.dtype)
    # mode="clip" because the indices are valid and "raise" would copy
    # each block through a temporary
    for rows in row_blocks(dist.size):
        size = rows.stop - rows.start
        np.take(flat, left[rows], axis=0, out=diff[:size], mode="clip")
        np.take(flat, right[rows], axis=0, out=other[:size], mode="clip")
        np.subtract(diff[:size], other[:size], out=diff[:size])
        np.multiply(diff[:size], diff[:size], out=diff[:size])
        np.sum(diff[:size], axis=1, out=dist[rows])
    np.sqrt(dist, out=dist)

    def vjp(g):
        per_pair = np.zeros_like(dist)
        np.divide(g.reshape(-1), dist, out=per_pair, where=dist > 0)
        c = np.take(per_pair.reshape(count, -1), pairs.spread,
                    axis=-1).reshape(count, m, m)
        grad = c.sum(axis=-1)[..., None] * f - c @ f
        return (grad.reshape(a.shape),)

    return _emit(dist.reshape(lead + (pair_rows(m), 1)), (a,), vjp)


def symmetric_from_pairs(s, m):
    """The symmetric (..., m, m) matrices whose (i, j) and (j, i) entries
    are pair value p of ``s`` (``pair_index`` order) and whose diagonal
    is its last value. ``s`` holds P + 1 values along its last axis, as
    ``mlp_scores`` gives for ``pair_absdiff`` or ``pair_distances`` rows,
    or along the axis before a trailing axis of one, as those rows do.
    Backward folds g + g^T onto the pairs and the trace onto the last."""
    s = _as_tensor(s)
    pairs = pair_index(m)
    n = pair_rows(m)
    if s.shape[-1:] == (n,):
        lead = s.shape[:-1]
    elif s.shape[-2:] == (n, 1):
        lead = s.shape[:-2]
    else:
        raise ShapeError(f"{m} vertices need {n} pair values, got {s.shape}")
    values = s.data.reshape(lead + (n,))
    data = np.take(values, pairs.spread, axis=-1)

    def vjp(g):
        flat = g.reshape(lead + (m * m,))
        out = np.empty_like(values)
        np.add(np.take(flat, pairs.upper, axis=-1),
               np.take(flat, pairs.lower, axis=-1), out=out[..., :-1])
        out[..., -1] = np.take(flat, pairs.diag, axis=-1).sum(axis=-1)
        return (out.reshape(s.shape),)

    return _emit(data.reshape(lead + (m, m)), (s,), vjp)


# rows of an (N, h) activation the pair kernels handle at once: their
# scratch stays small and is reused, where whole (N, h) temporaries are
# fresh pages on every call, whose page faults can cost more than the
# arithmetic on them. ``mlp_scores`` keeps no (N, h) array for backward
# either: its VJP rebuilds each block's hidden activations in scratch.
BLOCK_ROWS = 1024


def row_blocks(n):
    """Slices covering range(n) in blocks of BLOCK_ROWS."""
    return [slice(start, min(start + BLOCK_ROWS, n))
            for start in range(0, n, BLOCK_ROWS)]


def _leaky_factors(negative, slope, out):
    """Leaky-ReLU derivative from the mask of negative inputs: ``slope``
    there and 1 elsewhere, written into ``out`` (exact, unlike
    ``1 + (slope - 1) * mask``, and far faster than a masked ufunc)."""
    np.multiply(negative, slope, out=out)
    out += ~negative
    return out


def _hidden_blocks(rows_x, layers, slope, hidden, temp, negative=None):
    """For each row block of ``rows_x``, writes the two leaky-ReLU layers'
    activations into the first rows of the (BLOCK_ROWS, h) scratch
    ``hidden`` (and their masks of negative inputs into ``negative``,
    when given) and yields the block's slice and size. Forward and
    backward both run this, so the rebuilt activations are the forward's
    bit for bit."""
    for rows in row_blocks(rows_x.shape[0]):
        h, size = rows_x[rows], rows.stop - rows.start
        for k, (w, b) in enumerate(layers):
            out = hidden[k][:size]
            # np.dot, not matmul: numpy runs a product with an inner or
            # outer dimension of 1 (the distance input, the one-unit
            # head) in its own loop, several times slower than BLAS
            np.dot(h, w, out=out)
            out += b
            if negative is not None:
                np.less(out, 0, out=negative[k][:size])
            # max(h, slope h) is the leaky ReLU for slopes in [0, 1]
            np.maximum(out, np.multiply(out, slope, out=temp[k][:size]),
                       out=out)
            h = out
        yield rows, size


def mlp_scores(x, w0, b0, w1, b1, w2, b2, slope=0.01, margin=0.0):
    """A three-layer score net on the rows of ``x``, as one tape node.

    Two leaky-ReLU layers (0 <= slope <= 1) and a sigmoid head with a
    single output unit; each (..., N) score of the (..., N, d) rows is
    squeezed affinely into [margin, 1 - margin]. Values and gradients
    equal those of the same net built from
    ``matmul``/``add``/``leaky_relu``/``sigmoid``/``mul`` up to
    rounding. The rows of all leading axes together are processed in
    blocks of BLOCK_ROWS, through block scratch only.

    For backward a recorded call keeps the input rows, the head values
    and a copy of the six weights, nothing of size N times a hidden
    width. The VJP rebuilds each block's two hidden activations and
    their masks of negative inputs from these, bit for bit as the
    forward computed them; the copy keeps an in-place weight edit made
    before backward out of the gradient.
    """
    inputs = tuple(_as_tensor(t) for t in (x, w0, b0, w1, b1, w2, b2))
    x, head_w = inputs[0], inputs[5]
    if x.ndim < 2 or head_w.shape[1:] != (1,):
        raise ShapeError(
            f"mlp_scores expects (..., N, d) rows and a one-unit head, got "
            f"{x.shape} and {head_w.shape}")
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky slope must be in [0, 1], got {slope}")
    rows_x = x.data.reshape(-1, x.shape[-1])
    n, dtype = rows_x.shape[0], x.dtype
    w0, b0, w1, b1, w2, b2 = (t.data.copy() for t in inputs[1:])
    layers = ((w0, b0), (w1, b1))
    widths = [w.shape[1] for w, _ in layers]
    block = min(n, BLOCK_ROWS)

    def scratch(dtype, sets):
        """``sets`` lists of one (block, k) buffer per hidden layer."""
        return [[np.empty((block, k), dtype=dtype) for k in widths]
                for _ in range(sets)]

    hidden, temp = scratch(dtype, 2)
    z = np.empty(n, dtype=dtype)
    for rows, size in _hidden_blocks(rows_x, layers, slope, hidden, temp):
        np.dot(hidden[1][:size], w2[:, 0], out=z[rows])
    z += b2
    head = _sigmoid_values(z)
    squeeze = 1.0 - 2.0 * margin
    data = (margin + squeeze * head).reshape(x.shape[:-1])

    def vjp(g):
        gz = ((g.reshape(-1) * squeeze) * head * (1.0 - head))[:, None]
        grads = [np.zeros_like(t.data) for t in inputs[1:]]
        gw0, gb0, gw1, gb1, gw2, gb2 = grads
        gx = np.empty_like(rows_x) if x.requires_grad else None
        ones = np.ones(block, dtype=gz.dtype)
        # one set of block buffers per call, reused by every block: the
        # rebuild's temporaries turn into the leaky-ReLU factors, and each
        # layer's back-propagated gradient overwrites its activation once
        # that has gone into the weight gradient
        hidden, factor = scratch(dtype, 2)
        negative, = scratch(bool, 1)
        for rows, size in _hidden_blocks(rows_x, layers, slope, hidden,
                                         factor, negative):
            g, one = gz[rows], ones[:size]
            h0, h1 = hidden[0][:size], hidden[1][:size]
            gw2 += np.dot(h1.T, g)
            g1 = np.dot(g, w2.T, out=h1)
            g1 *= _leaky_factors(negative[1][:size], slope, factor[1][:size])
            gw1 += np.dot(h0.T, g1)
            gb1 += np.dot(one, g1)
            g0 = np.dot(g1, w1.T, out=h0)
            g0 *= _leaky_factors(negative[0][:size], slope, factor[0][:size])
            gw0 += np.dot(rows_x[rows].T, g0)
            gb0 += np.dot(one, g0)
            if gx is not None:
                np.dot(g0, w0.T, out=gx[rows])
        gb2 += gz.sum()
        return (None if gx is None else gx.reshape(x.shape), *grads)

    return _emit(data, inputs, vjp)


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


def normalize_last(a, eps):
    """Scale each trailing-axis vector of an (..., M, M, C) tensor to sum
    to one, as one node. A vector summing below ``eps`` maps to zeros
    instead, with zero gradient.

    Backward: (g - sum_c g_c y_c) / s on every live vector, y the output
    and s the vector's sum.
    """
    a = _as_tensor(a)
    if a.ndim < 3:
        raise ShapeError(f"normalize_last expects (..., M, M, C), got {a.shape}")
    sums = _sum_kept(a.data, -1)
    dead = sums < eps
    any_dead = bool(np.any(dead))
    if any_dead:
        sums = np.where(dead, 1.0, sums)
        live = ~dead
        data = np.zeros_like(a.data)
        np.divide(a.data, sums, out=data, where=live)
    else:
        data = a.data / sums

    def vjp(g):
        grad = g - _sum_kept(g * data, -1)
        grad /= sums
        if any_dead:
            grad *= live
        return (grad,)

    return _emit(data, (a,), vjp)


def edge_rescale(affinity, edges, channels, eps):
    """``s * mass / sum_j s`` for (..., M, M, C) tensors, with ``s =
    affinity * edges`` and ``mass = sum_j edges``, as one node: every row
    of every channel is reweighted by its affinities and keeps the mass
    it had.

    A row whose mass, or whose affinity-weighted mean ``sum_j s / mass``,
    is below ``eps`` in some channel is a NumericError naming the row
    and the channel (``channels`` names the trailing axis), and, with
    leading axes, the episode: the flat index over them.

    Backward, with q = sum_j g y / mass per row and channel (y the
    output) and mean = sum_j s / mass: the gradient of s is
    (g - q) / mean, and ``edges`` also receives q along its row.
    """
    a, e = _coerce_pair(affinity, edges)
    if a.ndim < 3 or a.shape != e.shape:
        raise ShapeError(f"edge_rescale expects two equal (..., M, M, C) "
                         f"tensors, got {a.shape} and {e.shape}")

    def require(values, what):
        if np.any(values < eps):
            flat = values.reshape((-1,) + values.shape[-3:])
            b, i, _, c = np.unravel_index(int(np.argmin(flat)), flat.shape)
            episode = f"episode {b}, " if values.ndim > 3 else ""
            raise NumericError(f"edge update: {what} on {episode}row {i}, "
                               f"channel {channels[c]!r}")

    mass = _sum_kept(e.data, -2)
    require(mass, "zero total weight")
    scaled = a.data * e.data
    mean = _sum_kept(scaled, -2) / mass
    require(mean, "vanishing affinity mass")
    data = scaled / mean

    def vjp(g):
        q = _sum_kept(g * data, -2)
        q /= mass
        gs = g - q
        gs /= mean
        return (gs * e.data if a.requires_grad else None,
                gs * a.data + q if e.requires_grad else None)

    return _emit(data, (a, e), vjp)


def pool_channels(weights, sources, tail=None):
    """``concat_c(weights[..., c] @ sources[c])`` along the feature axis,
    then ``tail`` as it is, as one node: each vertex pools every source
    with its own channel's (M, M) weights. ``weights`` is (..., M, M, C),
    ``sources`` holds C (..., M, d_c) tensors (one may appear more than
    once), ``tail`` is None or an (..., M, d) tensor.
    """
    w = _as_tensor(weights)
    srcs = [_as_tensor(t) for t in sources]
    if tail is not None:
        srcs.append(_as_tensor(tail))
    n_pooled = len(sources)
    if w.ndim < 3 or w.shape[-1] != n_pooled:
        raise ShapeError(f"pool_channels: weights {w.shape} for "
                         f"{n_pooled} sources")
    rows = w.shape[:-2]
    if any(t.shape[:-1] != rows for t in srcs):
        raise ShapeError(f"pool_channels expects sources of shape {rows} "
                         f"+ (d,), got {[t.shape for t in srcs]}")
    # one (M, M) plane per channel, each contiguous for BLAS
    planes = np.ascontiguousarray(np.moveaxis(w.data, -1, -3))
    bounds = np.cumsum([0] + [t.shape[-1] for t in srcs])
    data = np.empty(rows + (bounds[-1],),
                    dtype=np.result_type(w.data, *(t.data for t in srcs)))
    for c, t in enumerate(srcs):
        data[..., bounds[c]:bounds[c + 1]] = (
            planes[..., c, :, :] @ t.data if c < n_pooled else t.data)

    def vjp(g):
        gw = np.empty_like(w.data) if w.requires_grad else None
        grads = []
        for c, t in enumerate(srcs):
            gc = g[..., bounds[c]:bounds[c + 1]]
            if c == n_pooled:
                grads.append(gc)
                continue
            if gw is not None:
                gw[..., c] = gc @ np.swapaxes(t.data, -1, -2)
            grads.append(np.swapaxes(planes[..., c, :, :], -1, -2) @ gc
                         if t.requires_grad else None)
        return (gw, *grads)

    return _emit(data, (w, *srcs), vjp)


def standardize(a, gain, shift, eps):
    """Each column of an (..., N, d) tensor minus its mean over the N
    rows, over the root of its population variance plus ``eps``, then
    times ``gain`` plus ``shift`` ((d,) each), as one node.

    Backward, with h = g gain and x^ the standardised input:
    (h - mean(h) - x^ mean(h x^)) / sd per column.
    """
    a, gain, shift = inputs = tuple(_as_tensor(t) for t in (a, gain, shift))
    if a.ndim < 2 or gain.shape != a.shape[-1:] or shift.shape != gain.shape:
        raise ShapeError(f"standardize expects (..., N, d) rows with (d,) "
                         f"gain and shift, got {a.shape}, {gain.shape}, "
                         f"{shift.shape}")
    centered = a.data - a.data.mean(axis=-2, keepdims=True)
    sd = np.sqrt((centered * centered).mean(axis=-2, keepdims=True) + eps)
    unit = centered / sd
    data = unit * gain.data + shift.data

    def vjp(g):
        h = g * gain.data
        grad = h - h.mean(axis=-2, keepdims=True)
        grad -= unit * (h * unit).mean(axis=-2, keepdims=True)
        grad /= sd
        d = gain.shape[0]
        return (grad, (g * unit).reshape(-1, d).sum(axis=0),
                g.reshape(-1, d).sum(axis=0))

    return _emit(data, inputs, vjp)


def readout_probs(edges, queries, channel, indicator, complement=False):
    """Class probabilities read from one channel of an (..., M, M, C)
    edge array, as a plain (..., Q, n) array: the softmax (bitwise
    ``softmax``'s) of row q's class scores, which sum the edge values
    from vertex ``queries[q]`` to the vertices the (..., M, n)
    ``indicator`` assigns to each class. ``complement`` reads each value
    as one minus it. ``readout_ce`` differentiates this same rule."""
    plane = np.take(edges[..., channel], queries, axis=-2)
    if complement:
        plane = 1.0 - plane
    logits = plane @ indicator
    if np.any(np.isnan(logits)):
        raise NumericError("readout of NaN edge values")
    exps = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    return exps / np.sum(exps, axis=-1, keepdims=True)


def readout_ce(edges, queries, channel, indicator, truth, complement=False):
    """Softmax cross-entropy of the ``readout_probs`` rows against the
    (..., Q) class indices ``truth``, meaned over queries, as one node
    of shape (...): one loss per episode.

    Backward: the logits receive g (p - onehot(truth)) / Q, p the
    softmax rows, which flow back to the read edge values through the
    indicator.
    """
    edges = _as_tensor(edges)
    probs = readout_probs(edges.data, queries, channel, indicator, complement)
    truth = np.expand_dims(truth, -1)
    picked = np.take_along_axis(probs, truth, axis=-1)[..., 0]
    if np.any(picked <= 0):
        raise NumericError("log of a non-positive value")
    data = -np.log(picked).mean(axis=-1)

    def vjp(g):
        glogits = probs.copy()
        np.put_along_axis(glogits, truth, picked[..., None] - 1.0, axis=-1)
        glogits *= (g / len(queries))[..., None, None]
        plane = glogits @ np.swapaxes(indicator, -1, -2)
        grad = np.zeros_like(edges.data)
        grad[..., channel][..., queries, :] = -plane if complement else plane
        return (grad,)

    return _emit(data, (edges,), vjp)


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
