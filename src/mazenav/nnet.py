"""Array kernels of the navigation model, its gradient assembly, and the
optimizer.

navmodel runs the model on numpy float64 arrays, one hypothesis or decoder
step per row, with a hand-written reverse pass. It calls these kernels by
their module names, so a tracer that wraps them sees every call of training
and decoding:
- lstm_cell, the LSTM cell over rows (one GEMV per row);
- conv2d_valid, a valid convolution of a stack of images (one GEMM per
  image);
- backward, which ends the reverse pass: it forms each Param's gradient
  from the stacked per-step terms that navmodel collects;
- global_grad_norm, clip_global_norm and adam_step.
The private kernels (the LSTM gates and update and their reverse, the window
matrix, softmax rows, and the reverses of softmax and of the convolution)
are shared by navmodel's forward and backward passes.

There is no autodiff tape here. tests/tape.py keeps one, composed of plain
primitives, as the reference: the model's loss, decoder rows and every
gradient equal the tape's bit for bit, so every in-place or fused
expression here keeps the per-element operation order of the tape's.

A training step whose parameters hold _HELPER_MIN elements or more, with
two or more usable CPUs, runs part of its work on one persistent helper
thread (see _helper_for): a share of Adam's blocks, and the largest Param's
gradient while the rest of the reverse pass runs. The helper runs only this
module's private code and numpy and changes no result: every element
takes the same operations on either thread.

Three kernels are exact rewrites that round differently, and the tests
keep the plain form of each as the reference:
- a weight matrix's gradient, the sum of one rank-1 product per use of the
  matrix on a vector, is formed by one GEMM over the stacked factors, not
  added one step at a time;
- the gradient norm sums one BLAS dot product per gradient, not the sum
  of its elementwise squares;
- Adam takes Kingma & Ba's efficient form (arXiv 1412.6980, end of
  section 2), which folds both bias corrections into a step size and an
  epsilon, not the textbook bias-corrected moments.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools
import math
import os
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # imported when first used: it takes 12 ms and 0.6 MB
    from concurrent.futures import ThreadPoolExecutor

# Adam updates a parameter this many elements at a time, so its work array
# stays small and in cache.
_ADAM_BLOCK = 32768

# A step uses the helper thread only when its parameters hold at least this
# many elements. In-process train_on medians (2 CPUs, one BLAS thread, 180
# DEFAULT_MIX steps a side, alternating), two rounds on a shared host (the
# first with Adam's blocks cut in fixed halves): the helper saved 14-25% of
# a default-size step (945k elements) and 5-14% at 409k; at 331k it saved
# 1% in one round and cost 9% in the other, and at 259k and the
# criterion-10 size (180k) the rounds ranged from a 5% gain to a 7% loss.
_HELPER_MIN = 400_000

# The helper thread, a one-worker executor started by the first step that
# uses it; a forked child drops its copy, whose thread did not survive the
# fork, and starts its own.
_HELPER: Optional[ThreadPoolExecutor] = None


def _drop_helper() -> None:
    global _HELPER
    _HELPER = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helper_for(size: int) -> Optional[ThreadPoolExecutor]:
    """The helper thread for a step whose parameters hold `size` elements,
    started on first use, or None when the step runs inline: below
    _HELPER_MIN elements, or with fewer than two usable CPUs."""
    global _HELPER
    if size < _HELPER_MIN or _usable_cpus() < 2:
        return None
    if _HELPER is None:
        from concurrent.futures import ThreadPoolExecutor

        _HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="nnet-helper")
    return _HELPER


@contextlib.contextmanager
def _alongside(helper: Optional[ThreadPoolExecutor], fn: Callable, *args):
    """Run fn(*args) alongside the body of the with statement: on the helper
    thread, in a copy of the caller's context (numpy's error state is a
    context variable), or inline before the body when helper is None.

    If the helper has not started fn when the body ends, the caller takes
    it back and runs it, so a helper that is busy or not yet scheduled does
    not hold the step up. The statement ends only when fn has finished or
    been withdrawn; a failure of the body, or else of fn, then propagates.
    fn's operands must not be written, nor its output read, in the body."""
    if helper is None:
        fn(*args)
        yield
        return
    future = helper.submit(contextvars.copy_context().run, fn, *args)
    try:
        yield
    except BaseException:
        if not future.cancel():
            future.exception()  # waits for fn to finish; the body's failure wins
        raise
    if future.cancel():
        fn(*args)
    else:
        future.result()


class Param:
    """Named trainable array with its gradient, Adam moment buffers and
    step counter.

    The gradient lives in a buffer kept across steps: zero_grad sets `grad`
    to None and the next backward pass overwrites the buffer, so a gradient
    array is only valid until then.
    """

    __slots__ = ("name", "data", "grad", "m", "v", "t", "_grad_buffer")

    def __init__(self, name: str, data):
        self.data = np.asarray(data, dtype=np.float64)
        if not self.data.flags.c_contiguous:  # adam_step updates through flat views
            self.data = self.data.copy(order="C")
        self.name = name
        self.grad: Optional[np.ndarray] = None
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.t = 0
        self._grad_buffer: Optional[np.ndarray] = None

    def _buffer(self) -> np.ndarray:
        if self._grad_buffer is None:
            self._grad_buffer = np.empty_like(self.data)
        return self._grad_buffer


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape`."""
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _logistic(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)) into `out`; where exp overflows the result is the
    exact limit 0, so the overflow is not reported."""
    with np.errstate(over="ignore"):
        np.negative(a, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a C-contiguous array. Each row is
    summed on its own along contiguous memory, so a row of a matrix comes
    out bit-identical to the same values as a vector."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a softmax's input from its output p and the output's
    gradient g."""
    dot = np.add.reduce(g * p, axis=-1, keepdims=True)
    return p * (g - dot)


# The cross-entropy floors the gold action's probability here before the log.
CE_EPSILON = 1e-12


def _embedding_grad(indices: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient of an embedding table from the gradients `rows` of its rows
    gathered at `indices`, each added in order into `out`."""
    out.fill(0.0)
    np.add.at(out, indices, rows)
    return out


# ---------------------------------------------------------------------------
# LSTM cell


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


def lstm_cell(weights: Sequence[np.ndarray], bias: np.ndarray, z: np.ndarray,
              c_prev: np.ndarray, out: Optional[np.ndarray] = None,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Standard 4-gate LSTM cell (input, forget, candidate, output) over
    rows: row j is one cell, with input z[j] = [x; h_prev] and previous cell
    c_prev[j].

    weights[j], of shape (4H, D+H), multiplies row j, one GEMV per row, so
    each row's result is the same whatever the other rows hold; gate rows
    are ordered i, f, g, o. bias is (4H,) or one row per cell. Sigmoid
    gates, tanh candidate and output squashing, no peepholes.

    Returns the activated gates (written into `out` when given), the new
    cell, its tanh and the new hidden state, one row each.
    """
    n, hidden = c_prev.shape
    gates = np.empty((n, 4 * hidden)) if out is None else out
    for j in range(n):
        np.matmul(weights[j], z[j], out=gates[j])
    gates += bias
    i, f, g, o = _lstm_gates(gates, hidden)
    return (gates, *_lstm_update(i, f, g, o, c_prev))


def _lstm_grad_factors(gates: np.ndarray, c_prev: np.ndarray,
                       tc: np.ndarray) -> tuple[np.ndarray, ...]:
    """The terms of _lstm_grad that do not depend on the incoming gradient,
    for cells stacked on the leading axes: the activated gates, c_prev and
    tc as given, the gates with g replaced by 1 - g*g, one minus the gates
    with g's replaced by 1 (a factor that changes nothing), and 1 - tc*tc."""
    hidden = tc.shape[-1]
    g = gates[..., 2 * hidden:3 * hidden]
    m1 = gates.copy()
    m1[..., 2 * hidden:3 * hidden] = 1.0 - g * g
    m2 = 1.0 - gates
    m2[..., 2 * hidden:3 * hidden] = 1.0
    return gates, c_prev, tc, m1, m2, 1.0 - tc * tc


def _lstm_grad(dh: np.ndarray, dc_later: Optional[np.ndarray], gates: np.ndarray,
               c_prev: np.ndarray, tc: np.ndarray, m1: np.ndarray, m2: np.ndarray,
               one_minus_tc2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Reverse of lstm_cell's activation and update for a cell, or for cells
    side by side on the leading axes; the arguments after dc_later are one
    cell's _lstm_grad_factors.

    dh is the new hidden state's gradient and dc_later the new cell's
    gradient from the next cell (None for none). Writes the pre-activation
    gates' gradient into `out` and returns c_prev's gradient. Every element
    is formed by the expressions of the tape's sigmoid, tanh, mul and add
    backward functions, in the order its sweep reaches them, so the results
    are bit-identical to the tape's.
    """
    hidden = dh.shape[-1]
    i, f, g, o = (gates[..., k * hidden:(k + 1) * hidden] for k in range(4))
    np.multiply(dh, tc, out=out[..., 3 * hidden:])
    dc = dh * o
    dc *= one_minus_tc2
    if dc_later is not None:
        dc += dc_later
    np.multiply(dc, g, out=out[..., :hidden])
    np.multiply(dc, c_prev, out=out[..., hidden:2 * hidden])
    np.multiply(dc, i, out=out[..., 2 * hidden:3 * hidden])
    out *= m1  # (d_i, d_f, d_g, d_o) * (i, f, 1 - g*g, o)
    out *= m2  # then d_i, d_f, d_o * (1 - i, 1 - f, 1 - o)
    return dc * f


# ---------------------------------------------------------------------------
# Valid convolution


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


def conv2d_valid(x: np.ndarray, filt: np.ndarray, bias: np.ndarray,
                 kernel: tuple[int, int], windows: Optional[list] = None) -> np.ndarray:
    """Valid (no padding) cross-correlation plus bias of every image in x.

    x: (n, rows, cols, inChannels); filt: the (inChannels*kh*kw,
    outChannels) matrix of _filter_matrix for a kernel of (kh, kw) =
    `kernel`; bias: (outChannels,). Returns the (n, rows-kh+1, cols-kw+1,
    outChannels) output, one GEMM per image, so each image's output is the
    same whatever the others hold. A `windows` list receives the window
    matrix, which the filter gradient needs.
    """
    kh, kw = kernel
    n, rows, cols, cin = x.shape
    if filt.shape[0] != cin * kh * kw:
        raise ValueError(f"conv2d_valid channel mismatch: input {cin}, "
                         f"filters {filt.shape[0] // (kh * kw)}")
    if kh > rows or kw > cols:
        raise ValueError(f"kernel ({kh},{kw}) larger than input ({rows},{cols})")
    win = _im2col(x, kh, kw)
    if windows is not None:
        windows.append(win)
    out = np.empty((n, win.shape[1], filt.shape[1]))
    for j in range(n):
        np.matmul(win[j], filt, out=out[j])
    out += bias
    return out.reshape(n, rows - kh + 1, cols - kw + 1, filt.shape[1])


def _conv_filter_grad(windows: Sequence[np.ndarray], grads: Sequence[np.ndarray],
                      out: np.ndarray) -> np.ndarray:
    """Filter gradient of a valid convolution applied at several steps,
    written into `out` (shaped like the (kh, kw, cin, cout) filters): the
    sum, in the order given, of each step's window matrix (one image's, from
    _im2col) transposed times the (oh, ow, cout) gradient of its output."""
    kh, kw, cin, cout = out.shape
    total = None
    for win, g in zip(windows, grads):
        term = win.T @ g.reshape(-1, cout)
        if total is None:
            total = term
        else:
            total += term
    out[...] = total.reshape(cin, kh, kw, cout).transpose(1, 2, 0, 3)
    return out


@functools.lru_cache(maxsize=32)
def _col2im_index(oh: int, ow: int, cin: int, kh: int, kw: int) -> np.ndarray:
    """Positions in a flattened (oh+kh-1, ow+kw-1, cin) input of every
    (di, dj, row, col, channel) product of a valid convolution's input
    gradient, in that order."""
    cols = ow + kw - 1
    r = np.arange(oh).reshape(1, 1, oh, 1, 1) + np.arange(kh).reshape(kh, 1, 1, 1, 1)
    q = np.arange(ow).reshape(1, 1, 1, ow, 1) + np.arange(kw).reshape(1, kw, 1, 1, 1)
    index = ((r * cols + q) * cin + np.arange(cin).reshape(1, 1, 1, 1, cin)).reshape(-1)
    index.flags.writeable = False
    return index


def _conv_input_grad(g: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Input gradient of a valid convolution from the (oh, ow, cout)
    gradient of its output: for each filter offset (di, dj) in turn, the
    product g @ filters[di, dj].T is added into the input window it covers,
    with one batched matmul and one bincount that sums in that order."""
    kh, kw, cin, cout = filters.shape
    oh, ow, _ = g.shape
    # filters[di, dj].T for every offset: (kh*kw, 1, cout, cin)
    per_offset = filters.reshape(kh * kw, cin, cout).transpose(0, 2, 1)[:, None]
    products = np.matmul(g, per_offset)
    gx = np.bincount(_col2im_index(oh, ow, cin, kh, kw), weights=products.reshape(-1),
                     minlength=(oh + kh - 1) * (ow + kw - 1) * cin)
    return gx.reshape(oh + kh - 1, ow + kw - 1, cin)


# ---------------------------------------------------------------------------
# Gradients and optimization


def backward(params: Sequence[Param], terms: Iterable[tuple]) -> None:
    """Write each Param's gradient from its term, replacing what it held; a
    Param without a term gets none (grad None).

    `terms` yields (param, reduce, *operands), and the gradient is
    reduce(*operands, out=...) formed in param's gradient buffer: np.matmul
    of the stacked factors of a weight matrix's rank-1 products (their sum
    as one GEMM), np.add.reduce(stack, 0) of a bias's stacked per-step terms
    (their sum in order), _conv_filter_grad for convolution filters, or
    _embedding_grad for an embedding table.

    `terms` may be a generator that runs the rest of a reverse pass as it is
    drawn. When the step uses the helper thread (see _helper_for), the
    largest Param's term is formed there while the terms after it are drawn
    and formed here.
    """
    zero_grad(params)
    helper = _helper_for(sum(p.data.size for p in params))
    largest = max(params, key=lambda p: p.data.size, default=None)
    with contextlib.ExitStack() as pending:
        for par, reduce, *operands in terms:
            par.grad = par._buffer()
            form = functools.partial(reduce, *operands, out=par.grad)
            if par is largest:
                pending.enter_context(_alongside(helper, form))
            else:
                form()


def zero_grad(params: Iterable[Param]) -> None:
    for p in params:
        p.grad = None


def global_grad_norm(params: Iterable[Param]) -> float:
    """L2 norm of all gradients together, from one BLAS dot product of
    each gradient with itself (it rounds differently from summing the
    squares, which the tests keep as the reference).

    Squares that overflow are ignored at first; if the sum is then infinite
    although every gradient is finite, the norm is recomputed from the
    gradients divided by their largest magnitude, so it stays finite. A
    non-finite gradient gives a non-finite norm.
    """
    grads = [p.grad for p in params if p.grad is not None]
    total = 0.0
    with np.errstate(over="ignore"):
        for g in grads:
            flat = g.reshape(-1)
            total += float(np.dot(flat, flat))
    if total == math.inf and all(np.isfinite(g).all() for g in grads):
        return _rescaled_norm(grads)
    return float(np.sqrt(total))


def _rescaled_norm(grads: Sequence[np.ndarray]) -> float:
    """max|g| * ||g / max|g|||, for finite gradients whose squares overflow."""
    top = max(float(np.abs(g).max(initial=0.0)) for g in grads)
    total = 0.0
    for g in grads:
        scaled = g / top
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

    Runs in place, block by block. The moments follow the textbook
    expressions m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*(g*g) in
    their operation order, so they round exactly as those do. The update
    takes Kingma & Ba's efficient form, data -= alpha * m / (sqrt(v) + eps_hat)
    with alpha = lr*sqrt(1-beta2**t)/(1-beta1**t) and
    eps_hat = eps*sqrt(1-beta2**t), which equals the textbook
    lr*m_hat / (sqrt(v_hat) + eps) but skips two divisions per element and
    rounds differently (the tests keep the textbook form as the reference).

    When the step uses the helper thread (see _helper_for), the caller and
    the helper take blocks from one queue until it is empty, so each does
    as many as it gets to, and none waits on a helper that starts late.
    Each element takes the same operations on either thread, so the results
    are bit-identical.
    """
    todo = collections.deque()
    total = 0
    for p in params:
        if p.grad is None:
            continue
        p.t += 1
        root_v_corr = math.sqrt(1.0 - beta2 ** p.t)
        alpha = lr * root_v_corr / (1.0 - beta1 ** p.t)
        eps_hat = eps * root_v_corr
        data, m, v = _flat(p.data), _flat(p.m), _flat(p.v)
        grad = p.grad.reshape(-1)
        total += data.size
        for lo in range(0, data.size, _ADAM_BLOCK):
            hi = lo + _ADAM_BLOCK
            todo.append((data[lo:hi], m[lo:hi], v[lo:hi], grad[lo:hi], alpha, eps_hat))
    with _alongside(_helper_for(total), _adam_blocks, todo, beta1, beta2):
        _adam_blocks(todo, beta1, beta2)


def _adam_blocks(todo: collections.deque, beta1: float, beta2: float) -> None:
    """adam_step's update of (data, m, v, grad, alpha, eps_hat) blocks, in
    place, taken from the front of `todo` until it is empty. A call takes
    its own block-sized work array with its first block. Popping from a
    deque is thread-safe, so the caller and the helper can share one
    queue."""
    buffer = None
    while True:
        try:
            data, mb, vb, g, alpha, eps_hat = todo.popleft()
        except IndexError:  # every block is taken
            return
        if buffer is None:
            buffer = np.empty(_ADAM_BLOCK, dtype=g.dtype)
        s = buffer[:g.size]
        mb *= beta1
        mb += np.multiply(g, 1.0 - beta1, out=s)
        vb *= beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - beta2
        vb += s
        np.sqrt(vb, out=s)
        s += eps_hat
        np.divide(mb, s, out=s)
        s *= alpha
        data -= s
