"""Sequence-to-sequence navigation model.

A bidirectional LSTM encodes the instruction into h (concatenation of the
forward LSTM's last state and the backward LSTM's first state). At each
decoding step the previous decoder state produces softmax attention
weights over the first convolution layer's output channels; the attended
percept is convolved further, squashed with a sigmoid, flattened, and fed
with the previous action into the decoder LSTM, whose state and the
percept vector jointly score the four actions.

Variants: "full" (grid percepts through the attention CNN),
"languageOnly" (no percepts at all), "bagOfFeatures" (order-free 74-bit
world summary instead of the CNN output).

The model is written once, on numpy arrays with one hypothesis or step
per row: encode, attend, perceive and decode_step, chained by Rollout.
Beam search decodes through Rollout, stepping all live hypotheses of a
member together, and it stops advancing a hypothesis once it can no
longer win (exact pruning, see beam_search). Training runs the same code:
sequence_loss runs the decoder as one Rollout row along the gold poses,
recording each step's intermediates, and `backward` is a hand-written
reverse pass over those arrays, whose gradients nnet.backward forms.
tests/tape.py writes the model again on an autodiff tape as the
reference: the loss, every decoder row and every gradient equal the
tape's bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
import random
import zipfile
from dataclasses import dataclass, field, fields, asdict
from operator import itemgetter
from typing import Iterator, Optional, Sequence

import numpy as np

from . import nnet
from .datastore import Vocabulary, atomic_write
from .langgen import Instance
from .percept import BOF_BITS, CELL_BITS, GRID_COLS, GRID_ROWS, encode_bof, encode_grid
from .worldsim import (
    ACTION_INDEX,
    ACTIONS,
    Action,
    InvalidPathError,
    Pose,
    WorldMap,
    step,
)

VARIANTS = ("full", "languageOnly", "bagOfFeatures")


@dataclass
class ModelConfig:
    vocab_size: int = 0  # set when a model is built against a vocabulary
    embed_dim: int = 64
    encoder_hidden: int = 128
    attention_hidden: int = 64
    conv_width: int = 5
    conv_channels: int = 64
    extra_convs: tuple[tuple[int, int, int], ...] = ((5, 5, 32),)
    action_count: int = 4
    variant: str = "full"
    beam_width: int = 4
    max_actions: int = 35

    @property
    def decoder_hidden(self) -> int:
        return 2 * self.encoder_hidden

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be set (>= 2) before building a model")
        if not (1 <= self.conv_width <= GRID_COLS):
            raise ValueError("conv filter width out of range")
        for key in ("embed_dim", "encoder_hidden", "attention_hidden", "conv_channels",
                    "beam_width", "max_actions"):
            if getattr(self, key) < 1:
                raise ValueError(f"model-config key {key!r} must be >= 1, "
                                 f"got {getattr(self, key)}")
        if any(n < 1 for kernel in self.extra_convs for n in kernel):
            raise ValueError(f"model-config key 'extra_convs' must hold sizes >= 1, "
                             f"got {[list(k) for k in self.extra_convs]}")
        if self.action_count != len(ACTIONS):
            # beam_search splits a row's flat scores into actions by len(ACTIONS)
            raise ValueError(f"model-config key 'action_count' must be {len(ACTIONS)}, "
                             f"the number of actions, got {self.action_count}")

    def percept_dim(self) -> int:
        """Length of the flattened percept vector fed to the decoder."""
        if self.variant == "languageOnly":
            return 0
        if self.variant == "bagOfFeatures":
            return BOF_BITS
        rows, cols = GRID_ROWS, GRID_COLS - self.conv_width + 1
        channels = self.conv_channels
        for kh, kw, ch in self.extra_convs:
            rows, cols, channels = rows - kh + 1, cols - kw + 1, ch
            if rows < 1 or cols < 1:
                raise ValueError("extra conv kernels exhaust the feature map")
        return rows * cols * channels

    def to_dict(self) -> dict:
        d = asdict(self)
        d["extra_convs"] = [list(k) for k in self.extra_convs]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """The config a JSON object describes; a key it leaves out keeps its
        default. Raises ValueError for a value that is not an object, one
        with keys ModelConfig does not have, or a value of another type
        than its default's: an int that is not a bool, a str for `variant`,
        and for `extra_convs` a list of [height, width, channels] int lists.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a model config is a JSON object, not {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown model-config keys {unknown}")
        data = dict(data)
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            if f.name == "extra_convs":
                if not (isinstance(value, (list, tuple)) and all(
                        isinstance(k, (list, tuple)) and len(k) == 3
                        and all(type(n) is int for n in k) for k in value)):
                    raise ValueError(f"model-config key 'extra_convs' must be a list of "
                                     f"[height, width, channels] int lists, got {value!r}")
                data[f.name] = tuple(tuple(k) for k in value)
            elif type(value) is not type(f.default):
                raise ValueError(f"model-config key {f.name!r} must be of type "
                                 f"{type(f.default).__name__}, got {value!r}")
        return cls(**data)


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...],
                  fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def _gold_steps(instance: Instance) -> Iterator[tuple[Pose, Action, Action]]:
    """The pose, previous action and gold action of each teacher-forced step.

    Poses come from the simulator after each gold action, so the decoder
    always sees the pose the gold prefix produces. A gold action into a wall
    raises InvalidPathError.
    """
    prev = Action.STOP
    pose = instance.start
    for action in instance.actions:
        yield pose, prev, action
        pose = step(instance.world, pose, action)
        if pose is None:
            raise InvalidPathError(f"gold action hits a wall in instance {instance.id}")
        prev = action


@dataclass
class ForwardRecord:
    """One instance's teacher-forced forward pass, kept for NavModel.backward:
    the instruction's token indices, the encoder's record (see
    NavModel.encode), each decoder step's Rollout record and gold action
    index, and the summed loss."""
    tokens: np.ndarray
    encoder: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    steps: list[dict] = field(default_factory=list)
    golds: list[int] = field(default_factory=list)
    loss: float = 0.0


class NavModel:
    """One trainable model instance (an ensemble is a list of these)."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, seed: int = 0):
        config.validate()
        if config.vocab_size != len(vocab):
            raise ValueError(
                f"config vocab_size {config.vocab_size} != vocabulary {len(vocab)}"
            )
        self.config = config
        self.vocab = vocab
        rng = np.random.default_rng(seed)
        E, H, A = config.embed_dim, config.encoder_hidden, config.attention_hidden
        D = config.decoder_hidden
        d1 = config.conv_channels
        n_act = config.action_count
        p: dict[str, nnet.Param] = {}

        def par(name: str, shape: tuple[int, ...], fan_in: int) -> None:
            p[name] = nnet.Param(name, _uniform_init(rng, shape, fan_in))

        par("token_embedding", (config.vocab_size, E), E)
        par("enc_fwd_W", (4 * H, E + H), E + H)
        p["enc_fwd_b"] = nnet.Param("enc_fwd_b", np.zeros(4 * H))
        par("enc_bwd_W", (4 * H, E + H), E + H)
        p["enc_bwd_b"] = nnet.Param("enc_bwd_b", np.zeros(4 * H))

        if config.variant == "full":
            par("attn_W1", (A, D), D)
            p["attn_b1"] = nnet.Param("attn_b1", np.zeros(A))
            par("attn_W2", (d1, A), A)
            p["attn_b2"] = nnet.Param("attn_b2", np.zeros(d1))
            par("conv0_filters", (1, config.conv_width, CELL_BITS, d1),
                config.conv_width * CELL_BITS)
            p["conv0_bias"] = nnet.Param("conv0_bias", np.zeros(d1))
            ch_in = d1
            for i, (kh, kw, ch) in enumerate(config.extra_convs, start=1):
                par(f"conv{i}_filters", (kh, kw, ch_in, ch), kh * kw * ch_in)
                p[f"conv{i}_bias"] = nnet.Param(f"conv{i}_bias", np.zeros(ch))
                ch_in = ch

        c_dim = config.percept_dim()
        par("dec_W", (4 * D, c_dim + n_act + D), c_dim + n_act + D)
        p["dec_b"] = nnet.Param("dec_b", np.zeros(4 * D))
        par("out_W1", (n_act, D), D)
        if c_dim > 0:
            par("out_W2", (n_act, c_dim), c_dim)
        p["out_b"] = nnet.Param("out_b", np.zeros(n_act))
        self._params = p

    def params(self) -> list[nnet.Param]:
        return list(self._params.values())

    def param(self, name: str) -> nnet.Param:
        return self._params[name]

    # -- forward pieces ----------------------------------------------------
    # Each piece works on arrays with one row per hypothesis or step.
    # Rollout.step chains attend, perceive and decode_step, and both
    # decoding and teacher-forced training run every step through it.

    def encode(self, tokens: Sequence[int]) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Run both encoder directions; returns h and the cell, each of
        size 2H, and the encoder's record for `backward`.

        h concatenates the forward LSTM's final hidden state with the
        backward LSTM's state at the first token; initial states are zero.
        The cell concatenation initializes the decoder's cell state.

        The two directions run side by side as the two rows of one
        nnet.lstm_cell call per token, the backward one over the tokens in
        reverse. The record holds, at [direction, step], the cell input
        z = [x; h_prev], the activated gates and tanh of the new cell, and a
        (2, T + 1, H) array of cells whose [direction, step] is that step's
        previous cell.
        """
        if len(tokens) == 0:
            raise ValueError("cannot encode an empty instruction")
        E, H = self.config.embed_dim, self.config.encoder_hidden
        T = len(tokens)
        p = self._params
        weights = (p["enc_fwd_W"].data, p["enc_bwd_W"].data)
        bias = np.stack([p["enc_fwd_b"].data, p["enc_bwd_b"].data])
        xs = p["token_embedding"].data[np.asarray(tokens, dtype=np.intp)]
        z = np.zeros((2, T, E + H))
        z[0, :, :E] = xs
        z[1, :, :E] = xs[::-1]
        gates = np.empty((2, T, 4 * H))
        cells = np.zeros((2, T + 1, H))
        tcs = np.empty((2, T, H))
        for s in range(T):
            if s:
                z[:, s, E:] = h
            _, cells[:, s + 1], tcs[:, s], h = nnet.lstm_cell(weights, bias, z[:, s],
                                                              cells[:, s], out=gates[:, s])
        return h.reshape(-1), cells[:, T].reshape(-1), (z, gates, cells, tcs)

    def attend(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Channel attention from each row's previous decoder hidden state
        alone: returns the attention's hidden layer and beta, a softmax over
        the first conv layer's channels, one row each."""
        p = self._params
        hidden = _gemv_rows(p["attn_W1"].data, h)
        hidden += p["attn_b1"].data
        np.tanh(hidden, out=hidden)
        scores = _gemv_rows(p["attn_W2"].data, hidden)
        scores += p["attn_b2"].data
        return hidden, nnet._softmax_rows(scores)

    def perceive(self, grids: np.ndarray, beta: np.ndarray, convs: Sequence[tuple],
                 record: Optional[dict] = None) -> np.ndarray:
        """Attention-weighted CNN over each row's 5x20x20 grid; returns the
        flattened percepts, one row each.

        convs holds each conv layer's filter matrix, bias and kernel size,
        as Rollout prepares them. A `record` dict receives each layer's
        window matrix and activation, the first layer's before the row's
        beta scales it.
        """
        windows = acts = None
        if record is not None:
            windows, acts = [], []
            record.update(windows=windows, acts=acts)
        feat = nnet.conv2d_valid(grids, *convs[0], windows)
        feat = np.where(feat > 0, feat, 0.0)
        if acts is not None:
            acts.append(feat.copy())
        feat *= beta[:, None, None, :]  # broadcast over the channel axis
        for layer in range(1, len(convs)):
            feat = nnet.conv2d_valid(feat, *convs[layer], windows)
            if layer == len(convs) - 1:
                nnet._logistic(feat, out=feat)
            else:
                feat = np.where(feat > 0, feat, 0.0)
            if acts is not None:
                acts.append(feat)
        return feat.reshape(len(feat), -1)

    def decode_step(self, z: np.ndarray, c: np.ndarray, percept: Optional[np.ndarray] = None,
                    record: Optional[dict] = None,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One decoder step for every row: the LSTM over the inputs
        z = [percept; previous action one-hot; h_prev] and the cells c, then
        the output head, which scores the actions from the new h and the
        percept (None for languageOnly). Returns the new h and c and P over
        the actions, one row each. A `record` dict receives z, the activated
        gates, the previous cell, tanh of the new cell, the new h and P.
        """
        p = self._params
        gates, c_new, tc, h = nnet.lstm_cell((p["dec_W"].data,) * len(z), p["dec_b"].data, z, c)
        logits = _gemv_rows(p["out_W1"].data, h)
        logits += p["out_b"].data
        if percept is not None:
            logits += _gemv_rows(p["out_W2"].data, percept)
        dist = nnet._softmax_rows(logits)
        if record is not None:
            record.update(z=z, gates=gates, c_prev=c, tc=tc, h=h, dist=dist)
        return h, c_new, dist

    # -- losses and training ------------------------------------------------

    def sequence_loss(self, instance: Instance) -> ForwardRecord:
        """Summed NLL of the gold actions with teacher forcing, as the
        returned record's `loss`. The encoder runs once and the decoder as
        one Rollout row along the gold poses, the code that decoding runs;
        the record keeps each step's intermediates for `backward`.
        """
        tokens = np.asarray(self.vocab.encode(instance.instruction), dtype=np.intp)
        h, c, encoder = self.encode(tokens)
        record = ForwardRecord(tokens, encoder)
        h, c = h[None], c[None]
        rollout = Rollout(self, Percepts(instance.world))
        for pose, prev, action in _gold_steps(instance):
            step_record: dict = {}
            h, c, dist = rollout.step(h, c, [pose], [ACTION_INDEX[prev]], step_record)
            gold = ACTION_INDEX[action]
            # summed in step order from 0.0, as the tape adds the cross-entropies
            record.loss += -np.log(max(float(dist[0, gold]), nnet.CE_EPSILON))
            record.steps.append(step_record)
            record.golds.append(gold)
        return record

    def backward(self, record: ForwardRecord) -> None:
        """Write the gradient of record.loss into every Param's grad,
        replacing what it held: nnet.backward forms each from the terms of
        the hand-written reverse pass over the recorded arrays."""
        nnet.backward(self.params(), self._gradient_terms(record))

    def _gradient_terms(self, record: ForwardRecord) -> Iterator[tuple]:
        """The reverse pass over a ForwardRecord, yielding nnet.backward's
        (param, reduce, *operands) terms as it goes.

        Every gradient is the tape's (tests/tape.py) bit for bit: each
        node's gradient is formed by the same expressions, and a gradient
        with several terms adds them in the order the tape's sweep reaches
        them. The output head's terms come in step order, every other
        Param's in reverse step order, and a decoder state h with three
        consumers adds the output head's term, then the next LSTM cell's,
        then the next attention's. A weight matrix's rank-1 products are
        stacked in that order for one GEMM, as the tape sums them, and a
        bias's terms are stacked to be summed in order. dec_W's term comes
        as soon as the decoder's reverse is done, so the helper thread can
        form it while the attention's and the encoder's reverse run.
        """
        if not record.steps:
            return  # no gold action: the loss is a constant, and no Param gets a gradient
        p = self._params
        cfg = self.config
        c_dim = cfg.percept_dim()
        h_at = c_dim + cfg.action_count  # where h_prev starts in the decoder input z
        full = cfg.variant == "full"
        steps = record.steps
        T = len(steps)
        rev = steps[::-1]  # the tape's order for all but the output head

        def stacked(key: str, part=slice(None), order=steps) -> np.ndarray:
            return np.concatenate([s[key][:, part] for s in order])

        # Cross-entropy, softmax and the output head; row k is step k.
        dists = stacked("dist")
        at_gold = np.arange(T), np.asarray(record.golds)
        d_dists = np.zeros_like(dists)
        d_dists[at_gold] = -1.0 / np.maximum(dists[at_gold], nnet.CE_EPSILON)
        d_logits = nnet._softmax_grad(dists, d_dists)
        yield p["out_b"], np.add.reduce, d_logits, 0
        yield p["out_W1"], np.matmul, d_logits.T, stacked("h")
        if c_dim:
            yield p["out_W2"], np.matmul, d_logits.T, stacked("z", slice(c_dim))

        # The decoder, last step first: row j of each array is step T-1-j.
        factors = nnet._lstm_grad_factors(stacked("gates"), stacked("c_prev"), stacked("tc"))
        d = np.empty((T, 4 * cfg.decoder_hidden))
        if full:
            d_scores = np.empty((T, cfg.conv_channels))
            d_hidden = np.empty((T, cfg.attention_hidden))
            conv_grads: list[list] = [[] for _ in range(1 + len(cfg.extra_convs))]
        dec_W, out_W1 = p["dec_W"].data, p["out_W1"].data
        dh_cell = dh_attn = dc = None  # h and c gradients from the step after
        for j, k in enumerate(reversed(range(T))):
            dh = out_W1.T @ d_logits[k]
            if dh_cell is not None:
                dh += dh_cell
            if dh_attn is not None:
                dh += dh_attn
            dc = nnet._lstm_grad(dh, dc, *(f[k] for f in factors), out=d[j])
            dz = dec_W.T @ d[j]
            dh_cell = dz[h_at:]
            if full:
                d_percept = p["out_W2"].data.T @ d_logits[k]
                d_percept += dz[:c_dim]
                dh_attn = self._percept_backward(steps[k], d_percept, d_scores[j],
                                                 d_hidden[j], conv_grads)
        yield p["dec_b"], np.add.reduce, d, 0
        yield p["dec_W"], np.matmul, d.T, stacked("z", order=rev)
        if full:
            for layer, grads in enumerate(conv_grads):
                bias = p[f"conv{layer}_bias"]
                yield bias, np.add.reduce, np.stack(
                    [nnet._unbroadcast(g, bias.data.shape) for g in grads]), 0
                yield (p[f"conv{layer}_filters"], nnet._conv_filter_grad,
                       [s["windows"][layer][0] for s in rev], grads)
            yield p["attn_b2"], np.add.reduce, d_scores, 0
            yield p["attn_W2"], np.matmul, d_scores.T, stacked("hidden", order=rev)
            yield p["attn_b1"], np.add.reduce, d_hidden, 0
            yield p["attn_W1"], np.matmul, d_hidden.T, stacked("z", slice(h_at, None), rev)
        yield from self._encoder_terms(record, dh_cell if dh_attn is None else dh_cell + dh_attn,
                                       dc)

    def _encoder_terms(self, record: ForwardRecord, dh: np.ndarray,
                       dc: np.ndarray) -> Iterator[tuple]:
        """Reverse of both encoder directions side by side, from the
        gradients dh and dc of the decoder's first state: yields the
        encoder's and the token embedding's terms."""
        p = self._params
        E, H = self.config.embed_dim, self.config.encoder_hidden
        z, gates, cells, tcs = record.encoder
        n = z.shape[1]
        factors = nnet._lstm_grad_factors(gates, cells[:, :n], tcs)
        weights = (p["enc_fwd_W"].data, p["enc_bwd_W"].data)
        d = np.empty((2, n, 4 * H))  # [direction, j]: step n-1-j's gates
        dz = np.empty((2, n, E + H))  # [direction, s]: step s's input gradient
        dh, dc = dh.reshape(2, H), dc.reshape(2, H)
        for j, s in enumerate(reversed(range(n))):
            dc = nnet._lstm_grad(dh, dc, *(f[:, s] for f in factors), out=d[:, j])
            for side in (0, 1):
                np.matmul(weights[side].T, d[side, j], out=dz[side, s])
            dh = dz[:, s, E:]
        for side, name in enumerate(("enc_fwd", "enc_bwd")):
            yield p[name + "_b"], np.add.reduce, d[side], 0
            yield p[name + "_W"], np.matmul, d[side].T, z[side, ::-1]
        # each token's two terms, one from each direction
        yield (p["token_embedding"], nnet._embedding_grad, record.tokens,
               dz[0, :, :E] + dz[1, ::-1, :E])

    def _percept_backward(self, step_record: dict, d_percept: np.ndarray,
                          d_scores: np.ndarray, d_hidden: np.ndarray,
                          conv_grads: list[list]) -> np.ndarray:
        """Reverse of the full variant's percept at one step: the conv stack
        and the channel attention. Appends each conv layer's output gradient
        to conv_grads[layer], writes the attention scores' and hidden
        layer's gradients, and returns the gradient it sends to h_prev."""
        p = self._params
        acts = step_record["acts"]
        last = len(acts) - 1
        g = d_percept.reshape(acts[last].shape[1:])
        for layer in range(last, -1, -1):
            act = acts[layer][0]
            if layer == 0:
                # the relu, then the attention's scale of each channel
                beta = step_record["beta"][0]
                d_beta = nnet._unbroadcast(g * act, beta.shape)
                g = g * beta * (act > 0)
            elif layer == last:
                g = g * act * (1.0 - act)  # the sigmoid
            else:
                g = g * (act > 0)  # the relu
            conv_grads[layer].append(g)
            if layer:
                g = nnet._conv_input_grad(g, p[f"conv{layer}_filters"].data)
        d_scores[:] = nnet._softmax_grad(beta, d_beta)
        hidden = step_record["hidden"][0]
        np.matmul(p["attn_W2"].data.T, d_scores, out=d_hidden)
        d_hidden *= 1.0 - hidden * hidden  # the tanh
        return p["attn_W1"].data.T @ d_hidden

    def train_on(self, instance: Instance, lr: float = 1e-3,
                 clip_threshold: float = 5.0) -> tuple[float, float]:
        """Single-instance update: forward, backward, clip at 5, Adam.

        Returns (loss, post-clip gradient norm). A non-finite loss or
        gradient norm raises FloatingPointError before any parameter moves.
        """
        params = self.params()
        record = self.sequence_loss(instance)
        if not np.isfinite(record.loss):
            raise FloatingPointError(f"non-finite loss on instance {instance.id}")
        self.backward(record)
        nnet.clip_global_norm(params, clip_threshold)
        post_norm = nnet.global_grad_norm(params)
        if not math.isfinite(post_norm):
            raise FloatingPointError(f"non-finite gradient norm on instance {instance.id}")
        nnet.adam_step(params, lr=lr)
        return float(record.loss), post_norm

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, p in self._params.items():
            if name not in state:
                raise ValueError(f"checkpoint missing parameter {name!r}")
            if state[name].shape != p.data.shape:
                raise ValueError(
                    f"checkpoint shape {state[name].shape} for {name!r} "
                    f"does not match model {p.data.shape}")
            p.data = np.asarray(state[name], dtype=np.float64).copy()
        extras = set(state) - set(self._params)
        if extras:
            raise ValueError(f"checkpoint has unknown parameters {sorted(extras)}")


@dataclass
class TrainResult:
    best_state: dict[str, np.ndarray]
    best_dev_success: float
    history: list[dict] = field(default_factory=list)
    epochs_run: int = 0


def train(model: NavModel, train_set: Sequence[Instance],
          dev_set: Sequence[Instance], max_epochs: int = 200,
          patience: int = 10, lr: float = 1e-3, seed: int = 0,
          log_path: Optional[str] = None) -> TrainResult:
    """Epoch loop with per-instance updates and dev-based early stopping.

    The training order is reshuffled each epoch. Dev success (greedy
    decoding, single-sentence criterion) is measured after every epoch;
    training stops after `patience` consecutive epochs without
    improvement and the best-scoring parameters are restored.
    """
    from .evalbench import evaluate_ensemble  # circular at import time only

    rng = random.Random(seed)
    order = list(range(len(train_set)))
    best = TrainResult(best_state=model.state_dict(), best_dev_success=-1.0)
    stale = 0
    for epoch in range(1, max_epochs + 1):
        rng.shuffle(order)
        total_loss = 0.0
        for i in order:
            loss, _ = model.train_on(train_set[i], lr=lr)
            total_loss += loss
        dev_success = evaluate_ensemble([model], dev_set, beam_width=1)
        record = {"epoch": epoch,
                  "trainLoss": total_loss / max(len(train_set), 1),
                  "devSuccess": dev_success}
        best.history.append(record)
        best.epochs_run = epoch
        if dev_success > best.best_dev_success:
            best.best_dev_success = dev_success
            best.best_state = model.state_dict()
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    model.load_state_dict(best.best_state)
    if log_path:
        with atomic_write(log_path, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["epoch", "trainLoss", "devSuccess"])
            writer.writeheader()
            writer.writerows(best.history)
    return best


# ---------------------------------------------------------------------------
# Beam-search inference


def _gemv_rows(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W @ x[j] for every row j of x, one GEMV each."""
    out = np.empty((x.shape[0], W.shape[0]))
    for j in range(x.shape[0]):
        np.matmul(W, x[j], out=out[j])
    return out


class Percepts:
    """The percept inputs of one world's poses for one decode: each pose's
    grid and bag-of-features vector are encoded once and shared by every
    member and hypothesis that visits it."""

    def __init__(self, world: WorldMap):
        self.world = world
        self._grids: dict[Pose, np.ndarray] = {}
        self._bofs: dict[Pose, np.ndarray] = {}

    def grid(self, pose: Pose) -> np.ndarray:
        grid = self._grids.get(pose)
        if grid is None:
            grid = self._grids[pose] = encode_grid(self.world, pose).astype(np.float64)
        return grid

    def bof(self, pose: Pose) -> np.ndarray:
        bof = self._bofs.get(pose)
        if bof is None:
            bof = self._bofs[pose] = encode_bof(self.world, pose).astype(np.float64)
        return bof


class Rollout:
    """One model's decoder, stepped for a batch of hypotheses.

    Row j of the (n, D) state arrays `h` and `c` is hypothesis j's state.
    A step runs the model's attend, perceive and decode_step over every row:
    one GEMV per row for each matrix-vector product, one GEMM per row for
    each convolution, and transcendentals and softmax sums over contiguous
    rows. Every row's result is therefore the same whatever the other rows
    hold. The model's parameters must not change while a Rollout is in use.
    """

    def __init__(self, model: NavModel, percepts: Percepts):
        self.model = model
        self.config = model.config
        self.percepts = percepts
        self.c_dim = model.config.percept_dim()
        self.convs = []
        if self.config.variant == "full":
            kernels = [(1, self.config.conv_width)]
            kernels += [(kh, kw) for kh, kw, _ in self.config.extra_convs]
            self.convs = [(nnet._filter_matrix(model.param(f"conv{i}_filters").data),
                           model.param(f"conv{i}_bias").data, kernel)
                          for i, kernel in enumerate(kernels)]

    def _percept_rows(self, h: np.ndarray, poses: Sequence[Pose],
                      record: Optional[dict] = None) -> np.ndarray:
        if self.config.variant == "bagOfFeatures":
            return np.stack([self.percepts.bof(pose) for pose in poses])
        hidden, beta = self.model.attend(h)
        if record is not None:
            record.update(hidden=hidden, beta=beta)
        grids = np.stack([self.percepts.grid(pose) for pose in poses])
        return self.model.perceive(grids, beta, self.convs, record)

    def step(self, h: np.ndarray, c: np.ndarray, poses: Sequence[Pose],
             prev: Sequence[int], record: Optional[dict] = None,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every row: row j stands at poses[j] after the action of
        index prev[j]. Returns the new h and c and P over the actions, one
        row each.

        A `record` dict receives the step's intermediates for
        NavModel.backward: decode_step's and, for the full variant, the
        attention's hidden layer and beta and perceive's.
        """
        n, D = h.shape
        n_act = self.config.action_count
        c_dim = self.c_dim
        z = np.zeros((n, c_dim + n_act + D))
        percept = None
        if c_dim:
            percept = self._percept_rows(h, poses, record)
            z[:, :c_dim] = percept
        z[np.arange(n), c_dim + np.asarray(prev, dtype=np.intp)] = 1.0
        z[:, c_dim + n_act:] = h
        return self.model.decode_step(z, c, percept, record)


def beam_search(world: WorldMap, start: Pose, instruction: Sequence[str],
                models: Sequence[NavModel], beam_width: Optional[int] = None,
                max_actions: Optional[int] = None) -> list[Action]:
    """Ensemble beam search over the action sequences for one instruction.

    Candidate scores are sums of log of the ensemble-averaged action
    probabilities, with no length normalization. A hypothesis ends when it
    emits STOP, walks into a wall (kept only as a last resort if every
    hypothesis fails), or uses up `max_actions`. Ties break toward the
    lower action index, so beam_width=1 reproduces a greedy argmax rollout
    exactly.

    The live hypotheses are rows: row j has score scores[j], stands at
    poses[j] after the actions paths[j], and is row j of every member's
    Rollout state, which it advances exactly as it would on its own.

    The best finished entry's path is returned. Once one has finished,
    every live row scoring at or below the bar (the best finished score) is
    dropped after each step's selection, and the search ends when no row is
    left (Huang, Zhao & Ma 2017, "When to Finish? Optimal Beam Search for
    Neural Text Generation"). The pruning is exact. A step adds the log of
    a mean of softmax rows, which is <= 0, and rounding is monotone, so a
    dropped row's descendants all end at or below the bar; one that ties
    the bar ends later than the entry it ties, so the stable reverse sort
    puts it after that entry. Every candidate above the bar outranks every
    descendant of a dropped row, so it keeps its rank in each step's
    selection: the rows that stay live and the best finished entry are the
    same as without pruning. At width 1 nothing has finished while a row is
    live, so greedy decoding never prunes. While a finished score is NaN,
    nothing is pruned; a NaN row is never at or below the bar, so it is
    never dropped.
    """
    if not models:
        raise ValueError("beam_search needs at least one model")
    config = models[0].config
    width = beam_width if beam_width is not None else config.beam_width
    budget = max_actions if max_actions is not None else config.max_actions
    if width < 1:
        raise ValueError(f"beam_width must be at least 1, got {width}")
    if budget < 1:
        raise ValueError(f"max_actions must be at least 1, got {budget}")

    percepts = Percepts(world)
    rollouts = [Rollout(m, percepts) for m in models]
    states = []
    for m in models:
        h, c, _ = m.encode(m.vocab.encode(instruction))
        states.append((h[None], c[None]))
    n_act = len(ACTIONS)
    scores = np.zeros(1)
    poses = [start]
    paths: list[list[Action]] = [[]]
    prev = np.full(1, ACTION_INDEX[Action.STOP])
    finished: list[tuple[float, list[Action]]] = []
    failed: list[tuple[float, list[Action]]] = []
    for _ in range(budget):
        if not poses:
            break
        dists = []
        for k, rollout in enumerate(rollouts):
            h, c, dist = rollout.step(*states[k], poses, prev)
            states[k] = (h, c)
            dists.append(dist)
        totals = (scores[:, None] + np.log(np.mean(dists, axis=0))).ravel()
        # Best first; the stable sort breaks ties by row, then action.
        best = np.argsort(-totals, kind="stable")[:width]
        live = []  # (flat index, pose, path) of the candidates that stay live
        for flat in best.tolist():
            row, a_idx = divmod(flat, n_act)
            action = ACTIONS[a_idx]
            pose = step(world, poses[row], action)
            path = paths[row] + [action]
            if action is Action.STOP:
                finished.append((totals[flat], path))
            elif pose is None:
                failed.append((totals[flat], path))
            else:
                live.append((flat, pose, path))
        if live and finished:
            ends = [score for score, _ in finished]
            if not any(map(math.isnan, ends)):
                bar = max(ends)
                live = [entry for entry in live if not totals[entry[0]] <= bar]
        kept = [flat for flat, _, _ in live]
        rows, prev = np.divmod(np.array(kept, dtype=np.intp), n_act)
        scores = totals[kept]
        poses = [pose for _, pose, _ in live]
        paths = [path for _, _, path in live]
        states = [(h[rows], c[rows]) for h, c in states]
    finished += zip(scores, paths)  # ran out of the action budget
    # reverse=True keeps hypotheses of equal score in the order they ended;
    # the first step ends or keeps at least one, so the list is never empty
    return sorted(finished or failed, key=itemgetter(0), reverse=True)[0][1]


# ---------------------------------------------------------------------------
# Checkpoints


CHECKPOINT_VERSION = 2
# The npz entry that holds the config and vocabulary; no Param name starts
# with "_", so it cannot collide with a parameter.
METADATA_ENTRY = "__checkpoint__"


def checkpoint_file(handle: str) -> str:
    """The file a checkpoint handle names: `run/m` and `run/m.npz` both
    name `run/m.npz`."""
    return handle if handle.endswith(".npz") else handle + ".npz"


def save_checkpoint(model: NavModel, handle: str) -> None:
    """Write one npz, atomically: the parameters, plus a 0-d string entry
    holding the version, config and vocabulary as JSON."""
    metadata = json.dumps({"version": CHECKPOINT_VERSION,
                           "config": model.config.to_dict(),
                           "vocab": model.vocab.to_list()})
    with atomic_write(checkpoint_file(handle), binary=True) as fh:
        np.savez(fh, **model.state_dict(), **{METADATA_ENTRY: np.array(metadata)})


def load_checkpoint(handle: str) -> NavModel:
    """Load a checkpoint by either form of its handle.

    A file that is missing, corrupt (zip checks each entry's CRC-32), not
    an npz, or not a checkpoint of this version raises ValueError naming
    the handle and the file.
    """
    path = checkpoint_file(handle)
    try:
        data = np.load(path)  # allow_pickle=False: pickled data raises ValueError
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an npz archive")
        with data:
            state = {name: data[name] for name in data.files}
        entry = state.pop(METADATA_ENTRY, None)
        if entry is None:
            raise ValueError(
                f"no {METADATA_ENTRY!r} entry, so not a version-{CHECKPOINT_VERSION} "
                f"checkpoint; version 1, which kept its config and vocabulary in a "
                f"separate JSON file, is not read any more")
        metadata = json.loads(str(entry[()]))
        version = metadata.get("version") if isinstance(metadata, dict) else None
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        model = NavModel(ModelConfig.from_dict(metadata.get("config")),
                         Vocabulary.from_list(metadata.get("vocab")), seed=0)
        model.load_state_dict(state)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        cause = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise ValueError(f"checkpoint {handle!r}: {path}: {cause}") from exc
    return model
