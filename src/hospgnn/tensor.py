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
    every leaf, a tensor with ``requires_grad`` that the recorded
    computation read but no recorded node produced; it accumulates
    across backward passes until reset. A node output's gradient lives
    only while backward replays: it is taken off the output when its
    node's adjoint runs, so the output's ``grad`` is None afterwards.
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
    """Ordered record of primitive operations, which ``backward``
    replays in reverse."""

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
        """Add the gradients of a scalar loss to the ``grad`` of every
        leaf the recorded computation read.

        Each node output's gradient is released as soon as its adjoint
        has run, so backward holds only the gradients still to be
        propagated, and a second replay of the tape starts from nothing
        left by the first: it adds exactly one more gradient to each
        leaf. Node outputs end with ``grad`` None; a leaf off the path to
        the loss ends with a zero one.
        """
        if not isinstance(loss, Tensor):
            raise TypeError("loss must be a Tensor")
        if loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is None or loss._tape() is not self:
            raise ValueError("loss was not recorded on this tape")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        for out, inputs, vjp in reversed(self._nodes):
            g, out.grad = out.grad, None
            if g is None:
                continue
            for t, gt in zip(inputs, vjp(g)):
                if gt is not None and t.requires_grad:
                    t.grad = _accumulate(t.grad, gt, t.data)
        for _, inputs, _ in self._nodes:
            for t in inputs:
                if (t.requires_grad and t.grad is None
                        and t._tape is not self._ref):
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


def _reduced(x, axes, keepdims, count):
    """The sum of the array ``x`` over ``axes``, reduced axis by axis
    through ``_sum_kept``, over ``count``; and the shape of the sum with
    every axis kept."""
    data = functools.reduce(_sum_kept, axes, x)
    kept = data.shape
    if not keepdims:
        data = data.squeeze(axes)
    return data / count, kept


def _reduce(a, axis, keepdims, mean):
    """The sum of ``a`` over ``axis`` (every axis when None), or with
    ``mean`` that sum over the count of the values summed, as one node.
    A sum divides by a count of 1, which leaves every value as it is."""
    a = _as_tensor(a)
    axes = _axis_tuple(axis, a.ndim)
    shape = a.shape
    count = math.prod(shape[ax] for ax in axes) if mean else 1
    data, kept = _reduced(a.data, axes, keepdims, count)

    def vjp(g):
        return (np.broadcast_to(g.reshape(kept), shape) / count,)

    return _emit(data, (a,), vjp)


def tensor_sum(a, axis=None, keepdims=False):
    return _reduce(a, axis, keepdims, mean=False)


def tensor_mean(a, axis=None, keepdims=False):
    return _reduce(a, axis, keepdims, mean=True)


def pair_mean_product(a, b):
    """The mean of ``a * b`` over the pair axes of (..., M, M, C)
    operands, (..., C), as one node: ``tensor_mean(mul(a, b), axis=(-3,
    -2))`` bit for bit, values and gradients. The product lives only
    while the forward reduces it; backward multiplies the other operand
    by the (..., 1, 1, C) output gradient over the count."""
    a, b = _coerce_pair(a, b)
    ad, bd = a.data, b.data
    product = ad * bd
    if product.ndim < 3:
        raise ShapeError(f"pair_mean_product expects (..., M, M, C) "
                         f"operands, got {a.shape} and {b.shape}")
    axes = (product.ndim - 3, product.ndim - 2)
    count = product.shape[-3] * product.shape[-2]
    data, kept = _reduced(product, axes, False, count)

    def vjp(g):
        scaled = g.reshape(kept) / count
        return (_unbroadcast(scaled * bd, a.shape) if a.requires_grad else None,
                _unbroadcast(scaled * ad, b.shape) if b.requires_grad else None)

    return _emit(data, (a, b), vjp)


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
    the last pair. Cached per size; the arrays are read-only, so every
    caller can share them.
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


# a pair whose squared distance s is at most this share of its rows'
# summed squared norms n_i + n_j is near: the Gram product's cancellation
# error, a few eps (n_i + n_j), would be a large share of s there
NEAR_PAIR = 2.0 ** -6


def pair_distances(a):
    """Euclidean distance between every unordered pair of rows of an
    (..., M, d) tensor, in the layout of ``pair_absdiff``: (..., P + 1, 1)
    rows in ``pair_index`` order plus one zero row for the diagonal.

    Every call takes s = n_i + n_j - 2 G_ij from each episode's norms n
    and Gram matrix G, both in float64 (float32 inputs are widened; their
    products are exact there). That identity loses precision
    catastrophically as s nears 0, so a pair is near, and is recomputed
    from explicit row differences one row block at a time, unless
    s > NEAR_PAIR (n_i + n_j) and n_i + n_j is at most a quarter of the
    input dtype's largest value. Written so, NaN, infinite and
    overflowing pairs are near too, and near, non-finite and diagonal
    rows are bitwise the explicit kernel's; duplicate rows give exactly
    0. Any other pair gets sqrt(s) cast to the input dtype, with
    |error of s| <= (2 gamma_d + 3 eps) (n_i + n_j) <= (2 gamma_d +
    3 eps) / NEAR_PAIR * s, gamma_d = d eps / (1 - d eps), eps = 2**-53:
    about 5e-13 relative on s and 2.4e-13 on the distance for d = 32,
    barring underflow of the products, which the explicit kernel suffers
    too.

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
    f = a.data.reshape(count, m, d)
    dist = np.empty((count, pair_rows(m)), dtype=f.dtype)
    far = _gram_distances(f, pairs, dist[:, :-1])
    episode, pair = divmod(np.flatnonzero(~far), pairs.rows.size)
    for rows in row_blocks(pair.size):
        e, p = episode[rows], pair[rows]
        dist[e, p] = _explicit_distances(f[e, pairs.rows[p]],
                                         f[e, pairs.cols[p]])
    # the (0, 0) pair closing each episode's rows: a row minus itself
    dist[:, -1] = _explicit_distances(f[:, 0], f[:, 0])

    def vjp(g):
        per_pair = np.zeros_like(dist)
        np.divide(g.reshape(dist.shape), dist, out=per_pair, where=dist > 0)
        c = np.take(per_pair, pairs.spread, axis=-1).reshape(count, m, m)
        grad = c.sum(axis=-1)[..., None] * f - c @ f
        return (grad.reshape(a.shape),)

    return _emit(dist.reshape(lead + (pair_rows(m), 1)), (a,), vjp)


def _explicit_distances(left, right):
    """The distance between each (..., d) row of ``left`` and the one
    at its place in ``right``, from explicit row differences. A row and
    itself give exactly 0 when finite."""
    diff = left - right
    np.multiply(diff, diff, out=diff)
    return np.sqrt(np.sum(diff, axis=-1))


def _gram_distances(f, pairs, out):
    """Writes into ``out``, (count, P), the distances of the pairs of the
    (count, m, d) rows ``f`` that the Gram identity gives; returns the
    (count, P) mask of the pairs that are not near, leaving the near ones
    for the explicit kernel."""
    c = f.astype(np.float64, copy=False)
    # non-finite and overflowing rows make NaN or inf here, which the
    # near test catches; the explicit kernel warns about them as before.
    # In place where it can be: each fresh (count, P) temporary raised an
    # M = 160 evaluation's peak RSS
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("cmd,cmd->cm", c, c)
        s = np.take(np.matmul(c, c.transpose(0, 2, 1)).reshape(len(c), -1),
                    pairs.upper, axis=1)
        s *= -2.0
        total = np.take(norms, pairs.rows, axis=1)
        total += np.take(norms, pairs.cols, axis=1)
        s += total
        far = total <= np.finfo(f.dtype).max / 4
        total *= NEAR_PAIR
        far &= s > total
        np.sqrt(s, out=s)
        out[...] = s
    return far


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


# rows of an (N, h) activation, or pairs of rows, the pair kernels
# handle at once: their temporaries stay small, where whole (N, h)
# temporaries are fresh pages on every call, whose page faults can cost
# more than the arithmetic on them. It sizes memory only, never picks a
# kernel: ``mlp_scores``' block kernel reuses a (BLOCK_ROWS, h) scratch
# and its VJP rebuilds each block's hidden activations there;
# ``pair_distances`` recomputes its near pairs one block at a time; and
# ``episode_groups`` stacks about one block of pairs into a group.
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


def _block_scores(rows_x, weights, slope):
    """The net's head inputs z on the (N, d) ``rows_x``, block by block,
    and the VJP from their gradient to those of the rows and weights."""
    w0, b0, w1, b1, w2, b2 = weights
    layers = ((w0, b0), (w1, b1))
    widths = [w.shape[1] for w, _ in layers]
    n, dtype = rows_x.shape[0], rows_x.dtype
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

    def vjp(gz, want_x):
        gz = gz[:, None]
        grads = [np.zeros_like(w) for w in weights]
        gw0, gb0, gw1, gb1, gw2, gb2 = grads
        gx = np.empty_like(rows_x) if want_x else None
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
        return gx, grads

    return z, vjp


def _kinks(a, c, lo, hi):
    """The zeros -c/a of the affine maps a x + c with a != 0 that lie in
    [lo, hi]."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = -c / a
    return t[(a != 0) & (lo <= t) & (t <= hi)]


def _distinct(values):
    """The distinct ``values``, sorted. Not np.unique: its first call
    imports numpy.ma, a megabyte of resident memory."""
    values = np.sort(values)
    return values[np.diff(values, prepend=-np.inf) > 0]


def _cells(points, lo, hi):
    """The cells that the sorted ``points`` cut [lo, hi] into, in order:
    the piece below the first point, the point itself, the next piece,
    and so on. Cell k spans [bounds[k], bounds[k + 1]] and is read at
    reads[k], its middle, which for a point cell is the point."""
    bounds = np.concatenate([[lo], np.repeat(points, 2), [hi]])
    return bounds, bounds[:-1] + 0.5 * (bounds[1:] - bounds[:-1])


def _factors(negative, slope):
    """The leaky-ReLU factors of a mask of negative pre-activations."""
    return _leaky_factors(negative, slope, np.empty(negative.shape))


def _layer1(f0, net):
    """The layer-1 pre-activation a x + c on cells whose layer-0 factors
    are the rows of ``f0``."""
    w0, b0, w1, b1 = net[:4]
    return (f0 * w0) @ w1, (f0 * b0) @ w1 + b1


def _pieces(reads, net, slope):
    """The scalar-input net read at each of ``reads``: both layers' masks
    of negative pre-activations, whose factors follow the block kernel's
    rule (``slope`` below 0, 1 elsewhere), and the layer-1 pre-activation
    as a x + c, exact over the cell around each read where those masks
    hold."""
    w0, b0 = net[:2]
    negative0 = np.outer(reads, w0) + b0 < 0
    a, c = _layer1(_factors(negative0, slope), net)
    return negative0, a, c, a * reads[:, None] + c < 0


def _row_cells(rows, points):
    """Each row's cell among ``_cells(points, ...)``: a row equal to a
    point is that point's cell, any other the piece it lies in."""
    cells = np.searchsorted(points, rows)
    on = np.append(points, np.nan)[cells] == rows
    cells *= 2
    cells += on
    return cells


def _range_end(v):
    """0, or the power of two of ``v``'s sign at or beyond ``v`` (the
    largest float beyond 2^1023): the ends of a table's range."""
    if v == 0:
        return 0.0
    m, e = math.frexp(abs(v))   # |v| = m 2^e with 0.5 <= m < 1
    if m == 0.5:
        e -= 1
    end = math.ldexp(1.0, e) if e < 1024 else np.finfo(np.float64).max
    return math.copysign(end, v)


# a table's cut points, each cell's z = alpha x + beta in the rows'
# dtype, and each cell's masks of negative layer-0 and layer-1
# pre-activations, which with the weights give every (cells, h) array
# the VJP needs
PieceTable = collections.namedtuple(
    "PieceTable", ["points", "alpha", "beta", "negative0", "negative1"])

# piece tables kept for reuse, least recently used out first. A model
# scoring episodes reads one table per metric net (two per layer) and
# range, and a stacked group's rows share one range: a three-layer model
# read 7 to 10 tables over 20 ``evaluate`` calls at M = 16 (stacked
# groups), 80 and 160, which this bound keeps warm. A table of C cells
# holds 2 C h bytes of masks and its key the weights' bytes, about
# 8 h^2: some 15 kB a table at h = 32.
TABLE_CACHE_SIZE = 16


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _piece_table(slope, lo, hi, dtype, *net):
    """The ``PieceTable`` of the net whose six float64 arrays (layer-0
    weights and biases, layer-1 weights and biases, head weights and
    bias) have the bytes ``net``, over the rows' range [lo, hi], with
    alpha and beta in ``dtype``: a pure function of its arguments, so a
    call's table does not depend on the calls before it.

    Two leaky-ReLU layers make the net piecewise linear in its input.
    The layer-0 kinks, and the layer-1 kinks within each layer-0 cell,
    cut [lo, hi] into cells; each kink is a cell of its own, as a row on
    it (the zero row of the diagonal when all layer-0 biases are 0)
    takes the factors of a pre-activation of exactly 0."""
    w0, b0, w1, b1, w2, b2 = (np.frombuffer(b) for b in net)
    net = w0, b0, w1.reshape(w0.size, b1.size), b1, w2, b2[0]
    first = _distinct(_kinks(w0, b0, lo, hi))
    bounds, reads = _cells(first, lo, hi)
    _, a, c, _ = _pieces(reads, net, slope)
    points = _distinct(np.concatenate(
        [first, _kinks(a, c, bounds[:-1, None], bounds[1:, None])]))
    reads = _cells(points, lo, hi)[1]
    negative0, a, c, negative1 = _pieces(reads, net, slope)
    f1 = _factors(negative1, slope)
    table = PieceTable(points, ((f1 * a) @ w2).astype(dtype),
                       ((f1 * c) @ w2 + b2[0]).astype(dtype), negative0,
                       negative1)
    # every call with this key reads these arrays
    for array in table:
        array.flags.writeable = False
    return table


def _table_scores(rows, weights, slope):
    """``_block_scores`` for (N,) scalar ``rows``, from the
    ``_piece_table`` of the net's linear pieces over the rows' range
    rounded out to powers of two. On cell k, z = alpha[k] x + beta[k],
    and the VJP sums the output gradient per cell to get every weight
    gradient from (cells, h) tables. A non-finite row scores NaN, as in
    the block kernel, and the table spans the finite rows."""
    net = tuple(np.asarray(w, dtype=np.float64) for w in (
        weights[0][0], *weights[1:4], weights[4][:, 0], weights[5][0]))
    lo, hi, finite = rows.min(), rows.max(), None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        finite = np.isfinite(rows)
        rows = np.where(finite, rows, 0)
        lo, hi = rows.min(), rows.max()
    table = _piece_table(slope, _range_end(float(min(lo, 0))),
                         _range_end(float(max(hi, 0))), rows.dtype.str,
                         *(w.tobytes() for w in net))
    cells = _row_cells(rows, table.points)
    z = table.alpha[cells]
    z *= rows
    z += table.beta[cells]
    if finite is not None:
        z[~finite] = np.nan

    def vjp(gz, want_x):
        # per cell, the sums of gz and of gz x; on cell k the layer-1
        # activation is f1 (a x + c), and a row's gradient with respect
        # to the layer-1 (layer-0) pre-activation is gz q (gz r)
        w0, b0, w1, _, w2, _ = net
        g = np.bincount(cells, weights=gz, minlength=table.alpha.size)
        gh = np.bincount(cells, weights=gz * rows, minlength=g.size)
        f0 = _factors(table.negative0, slope)
        f1 = _factors(table.negative1, slope)
        a, c = _layer1(f0, net)
        q = f1 * w2
        r = f0 * (q @ w1.T)
        grads = (gh @ r, g @ r,
                 (f0 * (np.outer(gh, w0) + np.outer(g, b0))).T @ q, g @ q,
                 (f1 * (gh[:, None] * a + g[:, None] * c)).sum(axis=0),
                 gz.sum())
        grads = [np.asarray(v, dtype=w.dtype).reshape(w.shape)
                 for v, w in zip(grads, weights)]
        gx = (gz * table.alpha[cells])[:, None] if want_x else None
        return gx, grads

    return z, vjp


def mlp_scores(x, w0, b0, w1, b1, w2, b2, slope=0.01, margin=0.0):
    """A three-layer score net on the rows of ``x``, as one tape node.

    Two leaky-ReLU layers (0 <= slope <= 1) and a sigmoid head with a
    single output unit; each (..., N) score of the (..., N, d) rows is
    squeezed affinely into [margin, 1 - margin]. Values and gradients
    equal those of the same net built from
    ``matmul``/``add``/``leaky_relu``/``sigmoid``/``mul`` up to
    rounding. The rows of all leading axes together take one of two
    paths, chosen by their width alone:

    - rows one wide (the pair distance) run on a table of the net's
      linear pieces (``_table_scores``): per row, one search for its cell
      and one multiply-add, so the cost grows with N, not N times h
      squared;
    - wider rows (the absolute difference) run the block kernel
      (``_block_scores``) through block scratch only.

    A table is keyed by value: the six weights' bytes, ``slope``, the
    rows' dtype, and the rows' range rounded out to powers of two, 0
    included. Each process keeps the TABLE_CACHE_SIZE tables it read
    last, so calls with the same weights (a fixed model scoring
    episodes) build each table once, and a call's values do not depend
    on the calls before it. The table path scores a non-finite row NaN,
    as the block kernel does unless every infinity in the net shares a
    sign, and reads the other rows on the finite rows' range.

    For backward a recorded call keeps the input rows, the head values
    and a copy of the six weights, nothing of size N times a hidden
    width; the table path also keeps each row's cell (N integers) and
    the table, and its VJP rebuilds a few (cells, h) arrays from the
    table's masks and the weights. The block kernel's VJP rebuilds each
    block's two hidden activations and their masks of negative inputs,
    bit for bit as the forward computed them. The copy keeps an
    in-place weight edit made before backward out of the gradient.
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
    weights = tuple(t.data.copy() for t in inputs[1:])
    if x.shape[-1] == 1:
        z, backward = _table_scores(rows_x[:, 0], weights, slope)
    else:
        z, backward = _block_scores(rows_x, weights, slope)
    head = _sigmoid_values(z)
    squeeze = 1.0 - 2.0 * margin
    data = (margin + squeeze * head).reshape(x.shape[:-1])

    def vjp(g):
        gz = (g.reshape(-1) * squeeze) * head * (1.0 - head)
        gx, grads = backward(gz, x.requires_grad)
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
    instead, with zero gradient: its sum is taken as +inf, and dividing
    by it gives both.

    Backward: (g - sum_c g_c y_c) / s, y the output and s the vector's
    sum.
    """
    a = _as_tensor(a)
    if a.ndim < 3:
        raise ShapeError(f"normalize_last expects (..., M, M, C), got {a.shape}")
    sums = _sum_kept(a.data, -1)
    sums[sums < eps] = np.inf
    data = a.data / sums

    def vjp(g):
        grad = g - _sum_kept(g * data, -1)
        grad /= sums
        return (grad,)

    return _emit(data, (a,), vjp)


def _plane_view(x):
    """The (..., C, M, M) view of an (..., M, M, C) array. Two axis swaps
    instead of ``np.moveaxis``, whose Python-level axis checks cost more
    than the arithmetic on small episodes."""
    return x.swapaxes(-1, -3).swapaxes(-1, -2)


def _channel_last_view(x):
    """The (..., M, M, C) view of an (..., C, M, M) array, the inverse of
    ``_plane_view``."""
    return x.swapaxes(-3, -1).swapaxes(-3, -2)


def evolve_edges(sources, edges, complement, channels, eps):
    """The edge layer's tail as one node: each row of each channel of
    the (..., M, M, C) ``edges`` reweighted by fresh affinities, keeping
    its mass, then each pair normalised over the channels.

    Channel c's affinity a_c is the (..., M, M) ``sources[c]``, or one
    minus it for c in ``complement`` (a tensor may appear more than
    once). With s = a e, mass = sum_j e and mean = sum_j s / mass, r =
    s / mean; the output is r over Z = sum_c r, and zeros with zero
    gradient where Z is below ``eps`` (taken as +inf, as in
    ``normalize_last``). A row whose mass or mean is below ``eps`` in
    some channel is a NumericError naming the row, the channel
    (``channels`` names the trailing axis) and, with leading axes, the
    episode: the flat index over them.

    The work runs on (..., C, M, M) planes, so row sums are contiguous,
    and the output is a channel-last view of that channel-first buffer.
    A recorded call keeps the row masses and means, Z and the output.
    Backward, with G the output gradient and y the output: w = G -
    sum_c G_c y_c, q = sum_j w y / mass, and s receives (w / Z - q) /
    mean, which flows to a times e and to e times a (rebuilt from
    ``sources``), e also receiving q along its row.
    """
    srcs = [_as_tensor(t) for t in sources]
    e = _as_tensor(edges)
    if (e.ndim < 3 or e.shape[-1] != len(srcs)
            or any(t.shape != e.shape[:-1] for t in srcs)):
        raise ShapeError(f"evolve_edges expects (..., M, M, C) edges and C "
                         f"(..., M, M) sources, got {e.shape} and "
                         f"{[t.shape for t in srcs]}")
    inputs = (*dict.fromkeys(srcs), e)

    def require(values, what):
        if np.any(values < eps):
            flat = values[..., 0].swapaxes(-1, -2).reshape(
                (-1,) + e.shape[-2:])
            b, i, c = np.unravel_index(int(np.argmin(flat)), flat.shape)
            episode = f"episode {b}, " if e.ndim > 3 else ""
            raise NumericError(f"edge update: {what} on {episode}row {i}, "
                               f"channel {channels[c]!r}")

    planes = _plane_view(e.data)
    y = np.empty(planes.shape, np.result_type(*(t.data for t in inputs)))
    for c, t in enumerate(srcs):
        plane = y[..., c, :, :]
        if c in complement:
            np.subtract(1.0, t.data, out=plane)
            plane *= planes[..., c, :, :]
        else:
            np.multiply(t.data, planes[..., c, :, :], out=plane)
    mass = _sum_kept(planes, -1)
    require(mass, "zero total weight")
    mean = _sum_kept(y, -1)
    mean /= mass
    require(mean, "vanishing affinity mass")
    y /= mean
    sums = _sum_kept(y, -3)
    sums[sums < eps] = np.inf
    y /= sums

    def vjp(g):
        gp = _plane_view(g)
        scratch = gp * y
        w = gp - _sum_kept(scratch, -3)
        q = _sum_kept(np.multiply(w, y, out=scratch), -1)
        q /= mass
        w /= sums
        w -= q
        w /= mean
        if any(t.requires_grad for t in srcs):
            ga = np.multiply(w, _plane_view(e.data), out=scratch)
            for c in complement:
                np.negative(ga[..., c, :, :], out=ga[..., c, :, :])
        grads = [functools.reduce(np.add, (ga[..., c, :, :] for c, s
                                           in enumerate(srcs) if s is t))
                 if t.requires_grad else None for t in inputs[:-1]]
        if not e.requires_grad:
            return (*grads, None)
        for c, t in enumerate(srcs):
            w[..., c, :, :] *= 1.0 - t.data if c in complement else t.data
        w += q
        return (*grads, _channel_last_view(w))

    return _emit(_channel_last_view(y), inputs, vjp)


def _channel_planes(x):
    """The (..., C, M, M) planes of an (..., M, M, C) array, one per
    channel, each contiguous for BLAS: a copy of a channel-last array,
    and the buffer itself, no copy, for a channel-last view of a
    channel-first one (the edges ``evolve_edges`` returns)."""
    return np.ascontiguousarray(_plane_view(x))


def pool_channels(weights, sources, tail=None):
    """``concat_c(weights[..., c] @ sources[c])`` along the feature axis,
    then ``tail`` as it is, as one node: each vertex pools every source
    with its own channel's (M, M) weights. ``weights`` is (..., M, M, C),
    ``sources`` holds C (..., M, d_c) tensors (one may appear more than
    once), ``tail`` is None or an (..., M, d) tensor. Layer edges are
    channel-last views of channel-first buffers, so their planes are
    read in place; other weights are copied to planes first.

    A recorded call keeps no copy of the weights: its VJP rebuilds the
    channel planes from them.
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
    planes = _channel_planes(w.data)
    bounds = np.cumsum([0] + [t.shape[-1] for t in srcs])
    data = np.empty(rows + (bounds[-1],),
                    dtype=np.result_type(w.data, *(t.data for t in srcs)))
    for c, t in enumerate(srcs):
        data[..., bounds[c]:bounds[c + 1]] = (
            planes[..., c, :, :] @ t.data if c < n_pooled else t.data)

    def vjp(g):
        gw = np.empty_like(w.data) if w.requires_grad else None
        planes = _channel_planes(w.data)
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
