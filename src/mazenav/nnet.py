"""Dense-tensor kernels with exact reverse-mode gradients.

A tiny tape-based autodiff layer over numpy float64 arrays: enough to
express an embedding, LSTM cells, valid convolution, channel attention,
softmax and cross-entropy, with Adam and global-norm clipping for the
update step. Kernels are pure functions of their inputs; the tape is
rebuilt on every forward pass, so backpropagation through time falls out
of replaying the recurrence.

The LSTM cell is one fused kernel, and parameter gradients, their norm,
clipping and Adam are updated in place. Every fused or in-place expression
keeps the per-element operation order of the plain composition of
primitives, so results are bit-identical to it (tests/test_nnet.py keeps
that composition as the reference).

One exception: the rank-1 products that matmul and the LSTM cell add to a
Param's gradient (one per use of a weight matrix on a vector) are recorded
during the backward sweep and summed by one GEMM per Param when the sweep
ends. The GEMM adds them in its own order, so a weight gradient can differ
in the last bits from adding the products one step at a time
(tests/test_nnet.py keeps that per-step sum as the reference).
"""

from __future__ import annotations

import functools
import math
import random
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

_GRAD_ENABLED = True

# Work space for the gradient products that are added to an existing
# gradient (a rank-1 product into a non-leaf tensor, or a Param's summed
# products when the Param already holds a gradient), the gradient norm and
# the optimizer update. It grows to the largest request (one array of the
# largest parameter's size, or Adam's two block buffers) and is shared by
# every caller, so this module is not thread-safe.
_SCRATCH = np.empty(0)

# The rank-1 weight-gradient products of the running backward pass, as the
# factor lists (us, vs) of each Param; None outside a backward pass.
_OUTER: Optional[dict["Param", tuple[list, list]]] = None

# Adam updates a parameter this many elements at a time, so its two work
# arrays stay small and in cache.
_ADAM_BLOCK = 32768


def _scratch(shape: tuple[int, ...], count: int = 1) -> np.ndarray:
    """`count` disjoint C-contiguous arrays of `shape`, stacked on axis 0."""
    global _SCRATCH
    size = count * math.prod(shape)
    if _SCRATCH.size < size:
        _SCRATCH = np.empty(size)
    return _SCRATCH[:size].reshape((count, *shape))


@contextmanager
def no_grad():
    """Disable tape recording (inference / finite-difference evaluations)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """Array node; `parents` and `backward_fn` record the computation."""

    __slots__ = ("data", "grad", "parents", "backward_fn", "requires_grad")

    def __init__(self, data, parents: tuple = (), backward_fn=None,
                 requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # g + 0.0 rounds exactly as zeros + g, with one pass fewer.
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def item(self) -> float:
        return float(self.data)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Param(Tensor):
    """Named trainable tensor with Adam moment buffers and step counter.

    The gradient lives in a buffer kept across steps: zero_grad sets `grad`
    to None and the next backward pass overwrites the buffer, so a gradient
    array is only valid until then.
    """

    __slots__ = ("name", "m", "v", "t", "_grad_buffer")

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        if not self.data.flags.c_contiguous:  # adam_step updates through flat views
            self.data = self.data.copy(order="C")
        self.name = name
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.t = 0
        self._grad_buffer: Optional[np.ndarray] = None

    def _buffer(self) -> np.ndarray:
        if self._grad_buffer is None:
            self._grad_buffer = np.empty_like(self.data)
        return self._grad_buffer

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.add(g, 0.0, out=self._buffer())
        else:
            self.grad += g

    def accumulate_outers(self, us: Sequence[np.ndarray],
                          vs: Sequence[np.ndarray]) -> None:
        """grad += sum over k of outer(us[k], vs[k]), as one GEMM."""
        u, v = np.stack(us).T, np.stack(vs)
        if self.grad is None:
            self.grad = np.matmul(u, v, out=self._buffer())
        else:
            self.grad += np.matmul(u, v, out=_scratch(self.data.shape)[0])


def _node(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    if not _GRAD_ENABLED or not any(p.requires_grad for p in parents):
        return Tensor(data)
    return Tensor(data, parents, backward_fn)


def constant(data) -> Tensor:
    return Tensor(data)


def _accumulate_outer(t: Tensor, u: np.ndarray, v: np.ndarray) -> None:
    """t.grad += outer(u, v).

    During a backward pass a Param only records the pair; backward adds the
    recorded products with one GEMM when the sweep ends, so u and v must not
    be overwritten before then (node gradients and forward data are not;
    scratch arrays are). Any other tensor's gradient is read later in the
    sweep, so it gets the product at once, formed in the scratch array:
    einsum forms each u[i]*v[j] with one rounding, as np.outer does, at
    about twice the speed of a broadcast multiply on the model's shapes.
    """
    if _OUTER is not None and isinstance(t, Param):
        us, vs = _OUTER.setdefault(t, ([], []))
        us.append(u)
        vs.append(v)
    else:
        t.accumulate(np.einsum("i,j->ij", u, v, out=_scratch(t.data.shape)[0]))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(out.grad, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(out.grad * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ValueError("matmul requires arrays of rank >= 1")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}"
        )
    out_data = a.data @ b.data

    def backward(out: Tensor) -> None:
        g = out.grad
        if a.requires_grad:
            if b.data.ndim == 1:
                if a.data.ndim == 2:
                    _accumulate_outer(a, g, b.data)
                else:
                    a.accumulate(g * b.data)
            else:
                a.accumulate(np.atleast_1d(g) @ b.data.T)
        if b.requires_grad:
            if a.data.ndim == 1:
                if b.data.ndim == 2:
                    _accumulate_outer(b, a.data, g)
                else:
                    b.accumulate(g * a.data)
            else:
                b.accumulate(a.data.T @ np.atleast_1d(g))

    return _node(out_data, (a, b), backward)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def backward(out: Tensor) -> None:
        offset = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                idx = [slice(None)] * out.grad.ndim
                idx[axis] = slice(offset, offset + size)
                p.accumulate(out.grad[tuple(idx)])
            offset += size

    return _node(out_data, tuple(parts), backward)


def narrow(t: Tensor, start: int, length: int, axis: int = 0) -> Tensor:
    idx = [slice(None)] * t.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out_data = t.data[idx]

    def backward(out: Tensor) -> None:
        if t.requires_grad:
            g = np.zeros_like(t.data)
            g[idx] = out.grad
            t.accumulate(g)

    return _node(out_data, (t,), backward)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = t.data.reshape(shape)

    def backward(out: Tensor) -> None:
        if t.requires_grad:
            t.accumulate(out.grad.reshape(t.data.shape))

    return _node(out_data, (t,), backward)


def relu(t: Tensor) -> Tensor:
    mask = t.data > 0
    out_data = np.where(mask, t.data, 0.0)

    def backward(out: Tensor) -> None:
        if t.requires_grad:
            t.accumulate(out.grad * mask)

    return _node(out_data, (t,), backward)


def _logistic(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)) into `out`; where exp overflows the result is the
    exact limit 0, so the overflow is not reported."""
    with np.errstate(over="ignore"):
        np.negative(a, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def sigmoid(t: Tensor) -> Tensor:
    out_data = _logistic(t.data, np.empty_like(t.data))

    def backward(out: Tensor) -> None:
        if t.requires_grad:
            t.accumulate(out.grad * out_data * (1.0 - out_data))

    return _node(out_data, (t,), backward)


def tanh(t: Tensor) -> Tensor:
    out_data = np.tanh(t.data)

    def backward(out: Tensor) -> None:
        if t.requires_grad:
            t.accumulate(out.grad * (1.0 - out_data * out_data))

    return _node(out_data, (t,), backward)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a C-contiguous array. Each row is
    summed on its own along contiguous memory, so a row of a matrix comes
    out bit-identical to the same values as a vector."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(t: Tensor) -> Tensor:
    """Softmax over the last axis; strictly positive, sums to 1."""
    out_data = _softmax_rows(t.data)

    def backward(out: Tensor) -> None:
        if t.requires_grad:
            dot = (out.grad * out_data).sum(axis=-1, keepdims=True)
            t.accumulate(out_data * (out.grad - dot))

    return _node(out_data, (t,), backward)


CE_EPSILON = 1e-12


def cross_entropy(dist: Tensor, target_index: int) -> Tensor:
    """Negative log-probability of `target_index` under distribution `dist`.

    The probability is floored at 1e-12 before the log; this is the only
    place a log-of-zero guard exists.
    """
    if dist.data.ndim != 1:
        raise ValueError(f"cross_entropy expects a 1-D distribution, got {dist.shape}")
    p = max(float(dist.data[target_index]), CE_EPSILON)
    out_data = np.asarray(-np.log(p))

    def backward(out: Tensor) -> None:
        if dist.requires_grad:
            g = np.zeros_like(dist.data)
            g[target_index] = -float(out.grad) / p
            dist.accumulate(g)

    return _node(out_data, (dist,), backward)


def linear(W: Tensor, x: Tensor, b: Optional[Tensor] = None) -> Tensor:
    y = matmul(W, x)
    return add(y, b) if b is not None else y


def embed(We: Tensor, indices: Sequence[int]) -> Tensor:
    """Row lookup: (vocab, E) gathered at `indices` -> (len(indices), E)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("embed expects a nonempty 1-D index list")
    out_data = We.data[idx]

    def backward(out: Tensor) -> None:
        if We.requires_grad:
            g = np.zeros_like(We.data)
            np.add.at(g, idx, out.grad)
            We.accumulate(g)

    return _node(out_data, (We,), backward)


def _lstm_gates(gates: np.ndarray, hidden: int) -> tuple[np.ndarray, ...]:
    """Activate pre-activation gates (..., 4*hidden) in place: sigmoid for
    the input, forget and output gates, tanh for the candidate. Returns
    views of the activated i, f, g, o."""
    candidate = np.tanh(gates[..., 2 * hidden:3 * hidden])
    _logistic(gates, out=gates)  # one call for i, f and o; g is overwritten next
    gates[..., 2 * hidden:3 * hidden] = candidate
    return tuple(gates[..., k * hidden:(k + 1) * hidden] for k in range(4))


def _lstm_update(i: np.ndarray, f: np.ndarray, g: np.ndarray, o: np.ndarray,
                 c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The new cell f*c_prev + i*g, its tanh, and the new hidden state."""
    c = f * c_prev
    c += i * g
    tc = np.tanh(c)
    return c, tc, o * tc


def lstm_cell(W: Tensor, b: Tensor, x: Tensor,
              state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """Standard 4-gate LSTM cell (input, forget, candidate, output).

    W has shape (4H, D+H) applied to [x; h_prev]; gate rows are ordered
    i, f, g, o. Sigmoid gates, tanh candidate and output squashing, no
    peepholes.

    Fused kernel: the tape gets three nodes (activated gates, c, h) whose
    hand-written backward passes evaluate, element by element, the same
    expressions in the same order as the composition of concat, linear,
    narrow, sigmoid, tanh, mul and add, so values and gradients are
    bit-identical to it.
    """
    h_prev, c_prev = state
    hidden = h_prev.data.shape[0]
    in_dim = x.data.shape[0]
    if W.data.shape != (4 * hidden, in_dim + hidden):
        raise ValueError(
            f"lstm_cell weight shape {W.data.shape} does not match "
            f"input {in_dim} + hidden {hidden}"
        )
    z = np.concatenate([x.data, h_prev.data])
    gates = W.data @ z
    gates += b.data
    i, f, g, o = _lstm_gates(gates, hidden)
    c_data, tc, h_data = _lstm_update(i, f, g, o, c_prev.data)

    def gates_grad() -> np.ndarray:
        if act.grad is None:
            act.grad = np.zeros_like(gates)
        return act.grad

    def act_backward(out: Tensor) -> None:
        # d(activated gates) -> d(pre-activation gates), in place.
        d = out.grad
        d_if, d_g, d_o = d[:2 * hidden], d[2 * hidden:3 * hidden], d[3 * hidden:]
        d_if *= gates[:2 * hidden]
        d_if *= 1.0 - gates[:2 * hidden]
        d_g *= 1.0 - g * g
        d_o *= o
        d_o *= 1.0 - o
        if b.requires_grad:
            b.accumulate(d)
        if W.requires_grad:
            _accumulate_outer(W, d, z)
        if x.requires_grad or h_prev.requires_grad:
            dz = W.data.T @ d
            if x.requires_grad:
                x.accumulate(dz[:in_dim])
            if h_prev.requires_grad:
                h_prev.accumulate(dz[in_dim:])

    def cell_backward(out: Tensor) -> None:
        dc = out.grad
        if act.requires_grad:
            d = gates_grad()
            np.multiply(dc, g, out=d[:hidden])
            np.multiply(dc, c_prev.data, out=d[hidden:2 * hidden])
            np.multiply(dc, i, out=d[2 * hidden:3 * hidden])
        if c_prev.requires_grad:
            c_prev.accumulate(dc * f)

    def hidden_backward(out: Tensor) -> None:
        dh = out.grad
        if act.requires_grad:
            np.multiply(dh, tc, out=gates_grad()[3 * hidden:])
        if c.requires_grad:
            c.accumulate(dh * o * (1.0 - tc * tc))

    act = _node(gates, (W, b, x, h_prev), act_backward)
    c = _node(c_data, (act, c_prev), cell_backward)
    h = _node(h_data, (act, c), hidden_backward)
    return h, c


@functools.lru_cache(maxsize=32)
def _im2col_index(rows: int, cols: int, cin: int, kh: int, kw: int) -> np.ndarray:
    """Positions in a flattened (rows, cols, cin) array of every valid
    kh x kw window: one row per window, in (channel, di, dj) order."""
    oh, ow = rows - kh + 1, cols - kw + 1
    r = np.arange(oh).reshape(oh, 1, 1, 1, 1) + np.arange(kh).reshape(1, 1, 1, kh, 1)
    q = np.arange(ow).reshape(1, ow, 1, 1, 1) + np.arange(kw).reshape(1, 1, 1, 1, kw)
    index = (r * cols + q) * cin + np.arange(cin).reshape(1, 1, cin, 1, 1)
    index = index.reshape(oh * ow, cin * kh * kw)
    index.flags.writeable = False
    return index


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Window matrix of a valid convolution: (..., rows, cols, cin) ->
    C-contiguous (..., oh*ow, cin*kh*kw), the values and layout of
    sliding_window_view(x, (kh, kw), axis=(-3, -2)) reshaped, gathered
    through a cached index in a fraction of the time."""
    *lead, rows, cols, cin = x.shape
    return np.take(x.reshape(*lead, rows * cols * cin),
                   _im2col_index(rows, cols, cin, kh, kw), axis=-1)


def _filter_matrix(filters: np.ndarray) -> np.ndarray:
    """(kh, kw, cin, cout) filters as the (cin*kh*kw, cout) matrix that
    multiplies _im2col's window rows."""
    kh, kw, cin, cout = filters.shape
    return filters.transpose(2, 0, 1, 3).reshape(cin * kh * kw, cout)


def conv2d_valid(filters: Tensor, x: Tensor) -> Tensor:
    """Valid (no padding) cross-correlation.

    x: (rows, cols, inChannels); filters: (kh, kw, inChannels, outChannels);
    output: (rows-kh+1, cols-kw+1, outChannels).
    """
    kh, kw, cin, cout = filters.data.shape
    rows, cols, xc = x.data.shape
    if xc != cin:
        raise ValueError(f"conv2d_valid channel mismatch: input {xc}, filters {cin}")
    if kh > rows or kw > cols:
        raise ValueError(f"kernel ({kh},{kw}) larger than input ({rows},{cols})")
    oh, ow = rows - kh + 1, cols - kw + 1
    win_mat = _im2col(x.data, kh, kw)
    out_data = (win_mat @ _filter_matrix(filters.data)).reshape(oh, ow, cout)

    def backward(out: Tensor) -> None:
        g = out.grad.reshape(oh * ow, cout)
        if filters.requires_grad:
            gf = (win_mat.T @ g).reshape(cin, kh, kw, cout).transpose(1, 2, 0, 3)
            filters.accumulate(gf)
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            go = out.grad
            for di in range(kh):
                for dj in range(kw):
                    # filters[di, dj]: (cin, cout)
                    gx[di:di + oh, dj:dj + ow, :] += go @ filters.data[di, dj].T
            x.accumulate(gx)

    return _node(out_data, (filters, x), backward)


# ---------------------------------------------------------------------------
# Backward pass and optimization


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; accumulates Param gradients.

    Each Param's rank-1 products are added after the sweep, one GEMM per
    Param. A sweep that raises adds none of them: they are dropped, and the
    Params keep whatever the sweep had added before it raised.
    """
    global _OUTER
    if loss.data.ndim != 0:
        raise ValueError("backward expects a scalar loss")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    loss.accumulate(np.ones_like(loss.data))
    _OUTER = outers = {}
    try:
        for node in reversed(topo):
            if node.backward_fn is not None:
                node.backward_fn(node)
        for p, (us, vs) in outers.items():
            p.accumulate_outers(us, vs)
    finally:
        _OUTER = None


def zero_grad(params: Iterable[Param]) -> None:
    for p in params:
        p.grad = None


def global_grad_norm(params: Iterable[Param]) -> float:
    """L2 norm of all gradients together.

    Squares that overflow are ignored at first; if the sum is then infinite
    although every gradient is finite, the norm is recomputed from the
    gradients divided by their largest magnitude, so it stays finite.
    """
    grads = [p.grad for p in params if p.grad is not None]
    total = 0.0
    with np.errstate(over="ignore"):
        for g in grads:
            square = np.multiply(g, g, out=_scratch(g.shape)[0])
            total += float(square.sum())
    if total == math.inf and all(np.isfinite(g).all() for g in grads):
        return _rescaled_norm(grads)
    return float(np.sqrt(total))


def _rescaled_norm(grads: Sequence[np.ndarray]) -> float:
    """max|g| * ||g / max|g|||, for finite gradients whose squares overflow."""
    top = max(float(np.abs(g).max(initial=0.0)) for g in grads)
    total = 0.0
    for g in grads:
        scaled = np.divide(g, top, out=_scratch(g.shape)[0])
        scaled *= scaled
        total += float(scaled.sum())
    return top * math.sqrt(total)


def clip_global_norm(params: Sequence[Param], threshold: float = 5.0) -> float:
    """Scale all gradients by threshold/norm when the global L2 norm
    exceeds the threshold; returns the scale applied (1.0 when inactive).

    A non-finite norm leaves the gradients as they are: no scale makes
    them finite, and the caller's check on the norm sees them unchanged.
    """
    norm = global_grad_norm(params)
    if norm <= threshold or norm == 0.0 or not math.isfinite(norm):
        return 1.0
    scale = threshold / norm
    for p in params:
        if p.grad is not None:
            p.grad *= scale
    return scale


def _flat(a: np.ndarray) -> np.ndarray:
    """1-D view of a C-contiguous array, for in-place updates through it."""
    if not a.flags.c_contiguous:
        raise ValueError(f"expected a C-contiguous array, got strides {a.strides}")
    return a.reshape(-1)


def adam_step(params: Sequence[Param], lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Bias-corrected Adam update; parameters without gradients are skipped.

    Runs in place, block by block, in the order of the textbook expressions
    m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*(g*g),
    data -= (lr*m_hat) / (sqrt(v_hat) + eps), so it rounds exactly as they do.
    """
    for p in params:
        if p.grad is None:
            continue
        p.t += 1
        m_corr, v_corr = 1.0 - beta1 ** p.t, 1.0 - beta2 ** p.t
        data, m, v = _flat(p.data), _flat(p.m), _flat(p.v)
        grad = p.grad.reshape(-1)
        for lo in range(0, data.size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, data.size)
            g, mb, vb = grad[lo:hi], m[lo:hi], v[lo:hi]
            s, u = _scratch((hi - lo,), 2)
            mb *= beta1
            mb += np.multiply(g, 1.0 - beta1, out=s)
            vb *= beta2
            np.multiply(g, g, out=s)
            s *= 1.0 - beta2
            vb += s
            np.divide(vb, v_corr, out=s)
            np.sqrt(s, out=s)
            s += eps
            np.divide(mb, m_corr, out=u)
            u *= lr
            u /= s
            data[lo:hi] -= u


# ---------------------------------------------------------------------------
# Finite-difference verification


def finite_diff_check(model, instance, h: float = 1e-5, tol: float = 1e-4,
                      samples_per_param: Optional[int] = 8,
                      seed: int = 0) -> dict:
    """Compare backprop gradients against central finite differences.

    `model` must expose params() and sequence_loss(instance). For each
    parameter a deterministic sample of entries (all entries when
    samples_per_param is None) is perturbed by ±h and the loss difference
    compared with the recorded gradient. Relative error uses
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-6) so that
    near-zero gradient pairs are compared absolutely.

    Returns {"pass": bool, "maxRelError": float, "perParam": {name: err}}.
    """
    params = list(model.params())
    zero_grad(params)
    loss = model.sequence_loss(instance)
    backward(loss)
    grads = {p.name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for p in params}

    rng = random.Random(seed)
    per_param: dict[str, float] = {}
    worst = 0.0
    with no_grad():
        for p in params:
            size = p.data.size
            if samples_per_param is None or samples_per_param >= size:
                entries = range(size)
            else:
                entries = rng.sample(range(size), samples_per_param)
            flat = p.data.reshape(-1)
            err = 0.0
            for k in entries:
                orig = flat[k]
                flat[k] = orig + h
                up = float(model.sequence_loss(instance).data)
                flat[k] = orig - h
                down = float(model.sequence_loss(instance).data)
                flat[k] = orig
                numeric = (up - down) / (2.0 * h)
                analytic = float(grads[p.name].reshape(-1)[k])
                denom = max(abs(analytic), abs(numeric), 1e-6)
                err = max(err, abs(analytic - numeric) / denom)
            per_param[p.name] = err
            worst = max(worst, err)
    return {"pass": worst < tol, "maxRelError": worst, "perParam": per_param}
