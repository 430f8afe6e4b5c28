"""The navigation model on a small autodiff tape: the reference that the
package's array code is tested against.

mazenav runs its model on arrays with a hand-written reverse pass
(mazenav.navmodel). This module writes the same model a second way, as a
composition of primitives that record a tape, and differentiates it by
sweeping the tape backward. test_nnet.py checks every primitive's backward
pass against finite differences; the array model's loss, decoder rows and
gradients must equal this model's bit for bit. The LSTM cell is the plain
composition of primitives. The convolution, the logistic, softmax and the
reverses of softmax and of the convolution share mazenav.nnet's kernels.

A weight matrix's rank-1 gradient products are recorded during the sweep
and summed by one GEMM per trainable leaf when it ends, as the array
backward sums them; test_nnet.py compares that with a per-step sum.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from mazenav import nnet
from mazenav.navmodel import _gold_steps
from mazenav.percept import encode_bof, encode_grid
from mazenav.worldsim import ACTION_INDEX, Action, Pose, WorldMap

# The rank-1 weight-gradient products of the running sweep, as the factor
# lists (us, vs) of each trainable leaf; None outside a sweep.
_OUTER: Optional[dict] = None


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
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


class Var(Tensor):
    """A named trainable leaf; the sweep accumulates its gradient in `grad`."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name


class Leaf(Var):
    """The tape's view of an nnet.Param: the sweep accumulates the gradient
    into the nnet.Param's grad, in its gradient buffer, where the array
    backward writes it."""

    __slots__ = ("param",)

    def __init__(self, param: nnet.Param):
        super().__init__(param.name, param.data)
        self.param = param

    def accumulate(self, g: np.ndarray) -> None:
        p = self.param
        if p.grad is None:
            p.grad = np.add(g, 0.0, out=p._buffer())
        else:
            p.grad += g


def _node(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    if not any(p.requires_grad for p in parents):
        return Tensor(data)
    return Tensor(data, parents, backward_fn)


def constant(data) -> Tensor:
    return Tensor(data)


def _accumulate_outer(t: Tensor, u: np.ndarray, v: np.ndarray) -> None:
    """t.grad += outer(u, v).

    During a sweep a trainable leaf only records the pair; backward adds the
    recorded products with one GEMM when the sweep ends. Any other tensor's
    gradient is read later in the sweep, so it gets the product at once.
    """
    if _OUTER is not None and isinstance(t, Var):
        us, vs = _OUTER.setdefault(t, ([], []))
        us.append(u)
        vs.append(v)
    else:
        t.accumulate(np.einsum("i,j->ij", u, v))


# ---------------------------------------------------------------------------
# Primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            a.accumulate(nnet._unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b.accumulate(nnet._unbroadcast(out.grad, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            a.accumulate(nnet._unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(nnet._unbroadcast(out.grad * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ValueError("matmul requires arrays of rank >= 1")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
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


def sigmoid(t: Tensor) -> Tensor:
    out_data = nnet._logistic(t.data, np.empty_like(t.data))

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


def softmax(t: Tensor) -> Tensor:
    """Softmax over the last axis; strictly positive, sums to 1."""
    out_data = nnet._softmax_rows(t.data)

    def backward(out: Tensor) -> None:
        if t.requires_grad:
            t.accumulate(nnet._softmax_grad(out_data, out.grad))

    return _node(out_data, (t,), backward)


def cross_entropy(dist: Tensor, target_index: int) -> Tensor:
    """Negative log-probability of `target_index` under distribution `dist`,
    with the probability floored at nnet.CE_EPSILON before the log."""
    if dist.data.ndim != 1:
        raise ValueError(f"cross_entropy expects a 1-D distribution, got {dist.shape}")
    p = max(float(dist.data[target_index]), nnet.CE_EPSILON)
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


def lstm_cell(W: Tensor, b: Tensor, x: Tensor,
              state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """Standard 4-gate LSTM cell composed of primitives: W (4H, D+H) applied
    to [x; h_prev], gate rows ordered i, f, g, o."""
    h_prev, c_prev = state
    hidden = h_prev.data.shape[0]
    gates = linear(W, concat([x, h_prev]), b)
    i = sigmoid(narrow(gates, 0, hidden))
    f = sigmoid(narrow(gates, hidden, hidden))
    g = tanh(narrow(gates, 2 * hidden, hidden))
    o = sigmoid(narrow(gates, 3 * hidden, hidden))
    c_new = add(mul(f, c_prev), mul(i, g))
    h_new = mul(o, tanh(c_new))
    return h_new, c_new


def conv2d_valid(filters: Tensor, x: Tensor) -> Tensor:
    """Valid (no padding) cross-correlation of one image.

    x: (rows, cols, inChannels); filters: (kh, kw, inChannels, outChannels);
    output: (rows-kh+1, cols-kw+1, outChannels).
    """
    kh, kw, cin, cout = filters.data.shape
    rows, cols, xc = x.data.shape
    if xc != cin:
        raise ValueError(f"conv2d_valid channel mismatch: input {xc}, filters {cin}")
    oh, ow = rows - kh + 1, cols - kw + 1
    win_mat = nnet._im2col(x.data, kh, kw)
    out_data = (win_mat @ nnet._filter_matrix(filters.data)).reshape(oh, ow, cout)

    def backward(out: Tensor) -> None:
        if filters.requires_grad:
            filters.accumulate(nnet._conv_filter_grad(
                [win_mat], [out.grad], np.empty_like(filters.data)))
        if x.requires_grad:
            x.accumulate(nnet._conv_input_grad(out.grad, filters.data))

    return _node(out_data, (filters, x), backward)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; accumulates the trainable
    leaves' gradients.

    Each leaf's rank-1 products are added after the sweep, one GEMM per
    leaf. A sweep that raises adds none of them: they are dropped, and the
    leaves keep whatever the sweep had added before it raised.
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
        for leaf, (us, vs) in outers.items():
            leaf.accumulate(np.stack(us).T @ np.stack(vs))
    finally:
        _OUTER = None


# ---------------------------------------------------------------------------
# The model


class TapeModel:
    """A NavModel's forward pass composed of tape primitives, over the
    NavModel's own Params: each is one Leaf, so a sweep from sequence_loss
    writes every Param's grad, as NavModel.backward does. Build it after the
    last change that replaces a Param's array (load_state_dict does)."""

    def __init__(self, model):
        self.config = model.config
        self.vocab = model.vocab
        self.p = {par.name: Leaf(par) for par in model.params()}

    def encode(self, token_indices: Sequence[int]) -> tuple[Tensor, Tensor]:
        """Both encoder directions; returns (h, cell), each of size 2H."""
        if len(token_indices) == 0:
            raise ValueError("cannot encode an empty instruction")
        E, H = self.config.embed_dim, self.config.encoder_hidden
        xs = embed(self.p["token_embedding"], token_indices)
        rows = [reshape(narrow(xs, t, 1), (E,)) for t in range(len(token_indices))]
        zero = constant(np.zeros(H))
        h_f, c_f = zero, zero
        for x in rows:
            h_f, c_f = lstm_cell(self.p["enc_fwd_W"], self.p["enc_fwd_b"], x, (h_f, c_f))
        h_b, c_b = zero, zero
        for x in reversed(rows):
            h_b, c_b = lstm_cell(self.p["enc_bwd_W"], self.p["enc_bwd_b"], x, (h_b, c_b))
        return concat([h_f, h_b]), concat([c_f, c_b])

    def attend(self, s_prev: Tensor) -> Tensor:
        """Channel attention from the previous decoder hidden state alone."""
        hidden = tanh(linear(self.p["attn_W1"], s_prev, self.p["attn_b1"]))
        return softmax(linear(self.p["attn_W2"], hidden, self.p["attn_b2"]))

    def perceive(self, grid: np.ndarray, beta: Tensor) -> Tensor:
        """Attention-weighted CNN over the 5x20x20 grid; flattened vector."""
        x = constant(grid.astype(np.float64))
        feat = relu(add(conv2d_valid(self.p["conv0_filters"], x), self.p["conv0_bias"]))
        feat = mul(feat, beta)  # broadcast over the channel axis
        n_extra = len(self.config.extra_convs)
        for i in range(1, n_extra + 1):
            feat = add(conv2d_valid(self.p[f"conv{i}_filters"], feat), self.p[f"conv{i}_bias"])
            feat = sigmoid(feat) if i == n_extra else relu(feat)
        return reshape(feat, (int(np.prod(feat.shape)),))

    def percept_vector(self, world: WorldMap, pose: Pose,
                       state: tuple[Tensor, Tensor]) -> Optional[Tensor]:
        """Variant dispatch for the percept input c_t (None for languageOnly)."""
        if self.config.variant == "languageOnly":
            return None
        if self.config.variant == "bagOfFeatures":
            return constant(encode_bof(world, pose).astype(np.float64))
        return self.perceive(encode_grid(world, pose), self.attend(state[0]))

    def decode_step(self, state: tuple[Tensor, Tensor], c_t: Optional[Tensor],
                    prev_action: Action) -> tuple[tuple[Tensor, Tensor], Tensor]:
        """One decoder step; returns the new state and P over the 4 actions."""
        onehot = np.zeros(self.config.action_count)
        onehot[ACTION_INDEX[prev_action]] = 1.0
        prev = constant(onehot)
        x = prev if c_t is None else concat([c_t, prev])
        h, c = lstm_cell(self.p["dec_W"], self.p["dec_b"], x, state)
        o = linear(self.p["out_W1"], h, self.p["out_b"])
        if c_t is not None:
            o = add(o, matmul(self.p["out_W2"], c_t))
        return (h, c), softmax(o)

    def sequence_loss(self, instance) -> Tensor:
        """Summed NLL of the gold actions with teacher forcing."""
        state = self.encode(self.vocab.encode(instance.instruction))
        loss = constant(np.asarray(0.0))
        for pose, prev, action in _gold_steps(instance):
            c_t = self.percept_vector(instance.world, pose, state)
            state, dist = self.decode_step(state, c_t, prev)
            loss = add(loss, cross_entropy(dist, ACTION_INDEX[action]))
        return loss


def tape_train_on(model, instance, lr: float = 1e-3,
                  clip_threshold: float = 5.0) -> tuple[float, float]:
    """NavModel.train_on with the gradients taken on the tape: a sweep from
    TapeModel.sequence_loss in place of the model's own forward and
    backward."""
    params = model.params()
    nnet.zero_grad(params)
    loss = TapeModel(model).sequence_loss(instance)
    if not np.isfinite(loss.data):
        raise FloatingPointError(f"non-finite loss on instance {instance.id}")
    backward(loss)
    nnet.clip_global_norm(params, clip_threshold)
    post_norm = nnet.global_grad_norm(params)
    if not math.isfinite(post_norm):
        raise FloatingPointError(f"non-finite gradient norm on instance {instance.id}")
    nnet.adam_step(params, lr=lr)
    return float(loss.data), post_norm
