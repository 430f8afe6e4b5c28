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

The model is written on nnet's tape (encode, attend, perceive,
decode_step, sequence_loss), which stays as the reference that the rest is
tested against. Beam search decodes through Rollout, which steps all live
hypotheses of a member without a tape and reproduces the tape's numbers bit
for bit, and it stops advancing a hypothesis once it can no longer win
(exact pruning, see beam_search). Training does not build a tape:
`forward` runs the encoder as arrays and the decoder as one Rollout row
along the gold poses, recording
each step's intermediates, and `backward` is a hand-written reverse pass
over those arrays. Its loss and every gradient equal sequence_loss's and
nnet.backward's bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field, asdict
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

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
        data = dict(data)
        data["extra_convs"] = tuple(tuple(k) for k in data.get("extra_convs", ()))
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


def _set_grad(par: nnet.Param, reduce, *operands) -> None:
    """par.grad = reduce(*operands), formed in par's gradient buffer."""
    par.grad = reduce(*operands, out=par._buffer())


@dataclass
class ForwardRecord:
    """One instance's teacher-forced forward pass, kept for NavModel.backward:
    the instruction's token indices, the encoder's record (see
    NavModel._encode_rows), each decoder step's Rollout record and gold
    action index, and the summed loss."""
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

    def encode(self, token_indices: Sequence[int]) -> tuple[nnet.Tensor, nnet.Tensor]:
        """Run both encoder directions; returns (h, cell) each of size 2H.

        h concatenates the forward LSTM's final hidden state with the
        backward LSTM's state at the first token; initial states are zero.
        The cell concatenation initializes the decoder's cell state.
        """
        if len(token_indices) == 0:
            raise ValueError("cannot encode an empty instruction")
        E, H = self.config.embed_dim, self.config.encoder_hidden
        xs = nnet.embed(self._params["token_embedding"], token_indices)
        rows = [nnet.reshape(nnet.narrow(xs, t, 1), (E,))
                for t in range(len(token_indices))]
        zero = nnet.constant(np.zeros(H))
        h_f, c_f = zero, zero
        for x in rows:
            h_f, c_f = nnet.lstm_cell(self._params["enc_fwd_W"],
                                      self._params["enc_fwd_b"], x, (h_f, c_f))
        h_b, c_b = zero, zero
        for x in reversed(rows):
            h_b, c_b = nnet.lstm_cell(self._params["enc_bwd_W"],
                                      self._params["enc_bwd_b"], x, (h_b, c_b))
        return nnet.concat([h_f, h_b]), nnet.concat([c_f, c_b])

    def attend(self, s_prev: nnet.Tensor) -> nnet.Tensor:
        """Channel attention from the previous decoder hidden state alone."""
        hidden = nnet.tanh(nnet.linear(self._params["attn_W1"], s_prev,
                                       self._params["attn_b1"]))
        scores = nnet.linear(self._params["attn_W2"], hidden,
                             self._params["attn_b2"])
        return nnet.softmax(scores)

    def perceive(self, grid: np.ndarray, beta: nnet.Tensor) -> nnet.Tensor:
        """Attention-weighted CNN over the 5x20x20 grid; flattened vector."""
        x = nnet.constant(grid.astype(np.float64))
        feat = nnet.relu(nnet.add(
            nnet.conv2d_valid(self._params["conv0_filters"], x),
            self._params["conv0_bias"]))
        feat = nnet.mul(feat, beta)  # broadcast over the channel axis
        n_extra = len(self.config.extra_convs)
        for i in range(1, n_extra + 1):
            feat = nnet.add(
                nnet.conv2d_valid(self._params[f"conv{i}_filters"], feat),
                self._params[f"conv{i}_bias"])
            feat = nnet.sigmoid(feat) if i == n_extra else nnet.relu(feat)
        return nnet.reshape(feat, (int(np.prod(feat.shape)),))

    def percept_vector(self, world: WorldMap, pose: Pose,
                       state: tuple[nnet.Tensor, nnet.Tensor]) -> Optional[nnet.Tensor]:
        """Variant dispatch for the percept input c_t (None for languageOnly)."""
        if self.config.variant == "languageOnly":
            return None
        if self.config.variant == "bagOfFeatures":
            return nnet.constant(encode_bof(world, pose).astype(np.float64))
        beta = self.attend(state[0])
        return self.perceive(encode_grid(world, pose), beta)

    def decode_step(self, state: tuple[nnet.Tensor, nnet.Tensor],
                    c_t: Optional[nnet.Tensor],
                    prev_action: Action) -> tuple[tuple[nnet.Tensor, nnet.Tensor], nnet.Tensor]:
        """One decoder step; returns the new state and P over the 4 actions."""
        onehot = np.zeros(self.config.action_count)
        onehot[ACTION_INDEX[prev_action]] = 1.0
        prev = nnet.constant(onehot)
        x = prev if c_t is None else nnet.concat([c_t, prev])
        h, c = nnet.lstm_cell(self._params["dec_W"], self._params["dec_b"],
                              x, state)
        o = nnet.linear(self._params["out_W1"], h, self._params["out_b"])
        if c_t is not None:
            o = nnet.add(o, nnet.matmul(self._params["out_W2"], c_t))
        return (h, c), nnet.softmax(o)

    # -- losses and training ------------------------------------------------

    def sequence_loss(self, instance: Instance) -> nnet.Tensor:
        """Summed NLL of the gold actions with teacher forcing, on nnet's tape.

        It is the reference that `forward` and `backward` reproduce, and the
        finite-difference check's loss.
        """
        state = self.encode(self.vocab.encode(instance.instruction))
        loss = nnet.constant(np.asarray(0.0))
        for pose, prev, action in _gold_steps(instance):
            c_t = self.percept_vector(instance.world, pose, state)
            state, dist = self.decode_step(state, c_t, prev)
            loss = nnet.add(loss, nnet.cross_entropy(dist, ACTION_INDEX[action]))
        return loss

    def _encode_rows(self, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        """`encode` without a tape, bit for bit: returns h and the cell as
        arrays, and the encoder's record for `backward`.

        The two directions run side by side as the rows of each array, the
        backward direction over the tokens in reverse. The record holds, at
        [direction, step], the cell input z = [x; h_prev], the activated
        gates and tanh of the new cell, and a (2, T + 1, H) array of cells
        whose [direction, step] is that step's previous cell.
        """
        if len(tokens) == 0:
            raise ValueError("cannot encode an empty instruction")
        E, H = self.config.embed_dim, self.config.encoder_hidden
        T = len(tokens)
        p = self._params
        weights = (p["enc_fwd_W"].data, p["enc_bwd_W"].data)
        bias = np.stack([p["enc_fwd_b"].data, p["enc_bwd_b"].data])
        xs = p["token_embedding"].data[tokens]
        z = np.zeros((2, T, E + H))
        z[0, :, :E] = xs
        z[1, :, :E] = xs[::-1]
        gates = np.empty((2, T, 4 * H))
        cells = np.zeros((2, T + 1, H))
        tcs = np.empty((2, T, H))
        for s in range(T):
            if s:
                z[:, s, E:] = h
            for side in (0, 1):
                np.matmul(weights[side], z[side, s], out=gates[side, s])
            step_gates = gates[:, s]
            step_gates += bias
            i, f, g, o = nnet._lstm_gates(step_gates, H)
            cells[:, s + 1], tcs[:, s], h = nnet._lstm_update(i, f, g, o, cells[:, s])
        return h.reshape(-1), cells[:, T].reshape(-1), (z, gates, cells, tcs)

    def forward(self, instance: Instance) -> "ForwardRecord":
        """The teacher-forced loss of `sequence_loss`, bit for bit, without a
        tape: the encoder runs as arrays and the decoder as one Rollout row
        along the gold poses. The intermediates are recorded for `backward`.
        """
        tokens = np.asarray(self.vocab.encode(instance.instruction), dtype=np.intp)
        h, c, encoder = self._encode_rows(tokens)
        record = ForwardRecord(tokens, encoder)
        h, c = h[None], c[None]
        rollout = Rollout(self, Percepts(instance.world))
        for pose, prev, action in _gold_steps(instance):
            step_record: dict = {}
            h, c, dist = rollout.step(h, c, [pose], [ACTION_INDEX[prev]], step_record)
            gold = ACTION_INDEX[action]
            # summed in step order from 0.0, as sequence_loss's tape adds them
            record.loss += -np.log(max(float(dist[0, gold]), nnet.CE_EPSILON))
            record.steps.append(step_record)
            record.golds.append(gold)
        return record

    def backward(self, record: "ForwardRecord") -> None:
        """Write the gradient of record.loss into every Param's grad,
        replacing what it held, by a hand-written reverse pass over the
        recorded arrays.

        Every gradient is the tape's (`nnet.backward` of `sequence_loss`) bit
        for bit: each node's gradient is formed by the same expressions, and
        a gradient with several terms adds them in the order the tape's sweep
        reaches them. The output head's terms come in step order, every
        other Param's in reverse step order, and a decoder state h with three
        consumers adds the output head's term, then the next LSTM cell's, then
        the next attention's. A weight matrix's rank-1 products are stacked
        in that order and summed by one GEMM into its gradient buffer, as
        nnet.backward does, and a bias's stacked terms are summed in order.
        """
        p = self._params
        nnet.zero_grad(p.values())
        if not record.steps:
            return  # no gold action: the loss is a constant, and no Param gets a gradient
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
        _set_grad(p["out_b"], np.add.reduce, d_logits, 0)
        _set_grad(p["out_W1"], np.matmul, d_logits.T, stacked("h"))
        if c_dim:
            _set_grad(p["out_W2"], np.matmul, d_logits.T, stacked("z", slice(c_dim)))

        # The decoder, last step first: row j of each array is step T-1-j.
        factors = nnet._lstm_grad_factors(stacked("gates"), stacked("c_prev"), stacked("tc"))
        d = np.empty((T, 4 * cfg.decoder_hidden))
        if full:
            d_scores = np.empty((T, cfg.conv_channels))
            d_hidden = np.empty((T, cfg.attention_hidden))
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
                dh_attn = self._percept_backward(steps[k], d_percept, d_scores[j], d_hidden[j])
        _set_grad(p["dec_b"], np.add.reduce, d, 0)
        # dec_W's GEMM, the largest of the pass, runs on nnet's helper thread
        # when the step uses it, while the attention and encoder reverse run
        # here; nothing below writes its operands or reads its gradient.
        dec_W_grad = p["dec_W"].grad = p["dec_W"]._buffer()
        helper = nnet._helper_for(sum(par.data.size for par in p.values()))
        with nnet._alongside(helper, np.matmul, d.T, stacked("z", order=rev), dec_W_grad):
            if full:
                _set_grad(p["attn_b2"], np.add.reduce, d_scores, 0)
                _set_grad(p["attn_W2"], np.matmul, d_scores.T, stacked("hidden", order=rev))
                _set_grad(p["attn_b1"], np.add.reduce, d_hidden, 0)
                _set_grad(p["attn_W1"], np.matmul, d_hidden.T,
                          stacked("z", slice(h_at, None), rev))
            self._encoder_backward(record, dh_cell if dh_attn is None else dh_cell + dh_attn,
                                   dc)

    def _encoder_backward(self, record: "ForwardRecord", dh: np.ndarray,
                          dc: np.ndarray) -> None:
        """Reverse of both encoder directions side by side, from the
        gradients dh and dc of the decoder's first state: writes the
        encoder's and the token embedding's gradients."""
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
            _set_grad(p[name + "_b"], np.add.reduce, d[side], 0)
            _set_grad(p[name + "_W"], np.matmul, d[side].T, z[side, ::-1])
        # each token's two terms, one from each direction
        d_xs = dz[0, :, :E] + dz[1, ::-1, :E]
        embedding = p["token_embedding"]
        embedding.grad = embedding._buffer()
        embedding.grad.fill(0.0)
        np.add.at(embedding.grad, record.tokens, d_xs)

    def _percept_backward(self, step_record: dict, d_percept: np.ndarray,
                          d_scores: np.ndarray, d_hidden: np.ndarray) -> np.ndarray:
        """Reverse of the full variant's percept: the conv stack and the
        channel attention. Adds the conv layers' gradients, writes the
        attention scores' and hidden layer's, and returns the gradient it
        sends to h_prev."""
        p = self._params
        acts, windows = step_record["acts"], step_record["windows"]
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
            filters, bias = p[f"conv{layer}_filters"], p[f"conv{layer}_bias"]
            bias.accumulate(nnet._unbroadcast(g, bias.data.shape))
            filters.accumulate(nnet._conv_filter_grad(windows[layer][0], g,
                                                      filters.data.shape))
            if layer:
                g = nnet._conv_input_grad(g, filters.data)
        d_scores[:] = nnet._softmax_grad(beta, d_beta)
        hidden = step_record["hidden"][0]
        np.matmul(p["attn_W2"].data.T, d_scores, out=d_hidden)
        d_hidden *= 1.0 - hidden * hidden  # the tanh
        return p["attn_W1"].data.T @ d_hidden

    def action_accuracy(self, instances: Iterable[Instance]) -> float:
        """Per-action greedy teacher-forced accuracy (training diagnostics)."""
        correct = total = 0
        for inst in instances:
            record = self.forward(inst)
            for step_record, gold in zip(record.steps, record.golds):
                correct += int(np.argmax(step_record["dist"][0]) == gold)
                total += 1
        return correct / max(total, 1)

    def train_on(self, instance: Instance, lr: float = 1e-3,
                 clip_threshold: float = 5.0) -> tuple[float, float]:
        """Single-instance update: forward, backward, clip at 5, Adam.

        Returns (loss, post-clip gradient norm). A non-finite loss or
        gradient norm raises FloatingPointError before any parameter moves.
        """
        params = self.params()
        record = self.forward(instance)
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
    """One model's decoder, stepped for a batch of hypotheses without a tape.

    Row j of the (n, D) state arrays `h` and `c` is hypothesis j's state.
    A step computes percept_vector + decode_step for every row with the
    same numpy operations on the same operands: one GEMV per row for each
    matrix-vector product, one GEMM per row for each convolution, and
    transcendentals and softmax sums over contiguous rows. Every row is
    therefore bit-identical to the tape path, whatever the other rows hold.
    The model's parameters must not change while a Rollout is in use.
    """

    def __init__(self, model: NavModel, percepts: Percepts):
        self.config = model.config
        self.percepts = percepts
        self.c_dim = model.config.percept_dim()
        self.p = {name: par.data for name, par in model._params.items()}
        self.convs = []
        if self.config.variant == "full":
            kernels = [(1, self.config.conv_width)]
            kernels += [(kh, kw) for kh, kw, _ in self.config.extra_convs]
            self.convs = [(nnet._filter_matrix(self.p[f"conv{i}_filters"]),
                           self.p[f"conv{i}_bias"], kh, kw)
                          for i, (kh, kw) in enumerate(kernels)]

    def _conv(self, layer: int, x: np.ndarray,
              record: Optional[dict] = None) -> np.ndarray:
        """Valid convolution plus bias of every (rows, cols, cin) image in x,
        one GEMM each."""
        filt, bias, kh, kw = self.convs[layer]
        n, rows, cols, _ = x.shape
        windows = nnet._im2col(x, kh, kw)
        if record is not None:
            record["windows"].append(windows)
        out = np.empty((n, windows.shape[1], filt.shape[1]))
        for j in range(n):
            np.matmul(windows[j], filt, out=out[j])
        out += bias
        return out.reshape(n, rows - kh + 1, cols - kw + 1, filt.shape[1])

    def _percept_rows(self, h: np.ndarray, poses: Sequence[Pose],
                      record: Optional[dict] = None) -> np.ndarray:
        if self.config.variant == "bagOfFeatures":
            return np.stack([self.percepts.bof(pose) for pose in poses])
        p = self.p
        hidden = _gemv_rows(p["attn_W1"], h)
        hidden += p["attn_b1"]
        np.tanh(hidden, out=hidden)
        scores = _gemv_rows(p["attn_W2"], hidden)
        scores += p["attn_b2"]
        beta = nnet._softmax_rows(scores)
        if record is not None:
            record.update(hidden=hidden, beta=beta, windows=[], acts=[])
        feat = self._conv(0, np.stack([self.percepts.grid(pose) for pose in poses]), record)
        feat = np.where(feat > 0, feat, 0.0)
        if record is not None:
            record["acts"].append(feat.copy())  # before the attention scales it
        feat *= beta[:, None, None, :]  # broadcast over the channel axis
        for layer in range(1, len(self.convs)):
            feat = self._conv(layer, feat, record)
            if layer == len(self.convs) - 1:
                nnet._logistic(feat, out=feat)
            else:
                feat = np.where(feat > 0, feat, 0.0)
            if record is not None:
                record["acts"].append(feat)
        return feat.reshape(len(poses), -1)

    def step(self, h: np.ndarray, c: np.ndarray, poses: Sequence[Pose],
             prev: Sequence[int], record: Optional[dict] = None,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every row: row j stands at poses[j] after the action of
        index prev[j]. Returns the new h and c and P over the actions, one
        row each.

        A `record` dict receives the step's intermediates for
        NavModel.backward: the decoder input z, the activated gates, the
        previous cell, tanh of the new cell, the new h and P and, for the
        full variant, the attention's hidden layer and beta, each conv
        layer's window matrix and its activation (the first layer's before
        beta scales it).
        """
        n, D = h.shape
        n_act = self.config.action_count
        p = self.p
        c_dim = self.c_dim
        z = np.zeros((n, c_dim + n_act + D))
        if c_dim:
            percept = self._percept_rows(h, poses, record)
            z[:, :c_dim] = percept
        z[np.arange(n), c_dim + np.asarray(prev, dtype=np.intp)] = 1.0
        z[:, c_dim + n_act:] = h
        gates = _gemv_rows(p["dec_W"], z)
        gates += p["dec_b"]
        i, f, g, o = nnet._lstm_gates(gates, D)
        c_new, tc, h_new = nnet._lstm_update(i, f, g, o, c)
        logits = _gemv_rows(p["out_W1"], h_new)
        logits += p["out_b"]
        if c_dim:
            logits += _gemv_rows(p["out_W2"], percept)
        dist = nnet._softmax_rows(logits)
        if record is not None:
            record.update(z=z, gates=gates, c_prev=c, tc=tc, h=h_new, dist=dist)
        return h_new, c_new, dist


def beam_search(world: WorldMap, start: Pose, sentences: Sequence[Sequence[str]],
                models: Sequence[NavModel], beam_width: Optional[int] = None,
                max_actions: Optional[int] = None) -> list[Action]:
    """Ensemble beam search over action sequences, chained across sentences.

    Candidate scores are sums of log of the ensemble-averaged action
    probabilities, with no length normalization. A hypothesis ends when it
    emits STOP, walks into a wall (kept only as a last resort if every
    hypothesis fails), or uses up `max_actions` for the current sentence.
    Between sentences the surviving poses and scores are kept and the next
    sentence is freshly encoded. Ties break toward the lower action index,
    so beam_width=1 reproduces a greedy argmax rollout exactly.

    The live hypotheses are rows: row j has score scores[j], stands at
    poses[j] after the actions paths[j], and is row j of every member's
    Rollout state, whose rows equal percept_vector + decode_step bit for bit.

    A sentence's result is decided by its `decisive` best finished entries:
    the first on the last sentence, whose path is returned, and the
    `width` carried over to the next sentence before it. Once that many
    have finished, every live row scoring at or below the bar (the
    `decisive`-th best finished score) is dropped after each step's
    selection, and the sentence ends when no row is left (Huang, Zhao & Ma
    2017, "When to Finish? Optimal Beam Search for Neural Text
    Generation"). The pruning is exact. A step adds the log of a mean of
    softmax rows, which is <= 0, and rounding is monotone, so a dropped
    row's descendants all end at or below the bar; one that ties the bar
    ends later than the entries it ties, so the stable reverse sort puts
    it after them, and no descendant enters the decisive entries. Every
    candidate above the bar outranks every descendant of a dropped row, so
    it keeps its rank in each step's selection: the rows that stay live,
    the decisive entries and their order are the same as without pruning.
    At width 1 nothing has finished while a row is live, so greedy decoding
    never prunes. While a finished score is NaN, nothing is pruned; a NaN
    row is never at or below the bar, so it is never dropped.
    """
    if not models:
        raise ValueError("beam_search needs at least one model")
    if not sentences:
        raise ValueError("beam_search needs at least one sentence")
    config = models[0].config
    width = beam_width if beam_width is not None else config.beam_width
    budget = max_actions if max_actions is not None else config.max_actions
    if width < 1:
        raise ValueError(f"beam_width must be at least 1, got {width}")
    if budget < 1:
        raise ValueError(f"max_actions must be at least 1, got {budget}")

    percepts = Percepts(world)
    rollouts = [Rollout(m, percepts) for m in models]
    n_act = len(ACTIONS)
    scores = np.zeros(1)
    poses = [start]
    paths: list[list[Action]] = [[]]
    with nnet.no_grad():
        for n, sentence in enumerate(sentences):
            decisive = 1 if n == len(sentences) - 1 else width
            states = []
            for m in models:
                h, c = m.encode(m.vocab.encode(list(sentence)))
                states.append((np.tile(h.data, (len(poses), 1)),
                               np.tile(c.data, (len(poses), 1))))
            prev = np.full(len(poses), ACTION_INDEX[Action.STOP])
            finished: list[tuple[float, Pose, list[Action]]] = []
            failed: list[tuple[float, Pose, list[Action]]] = []
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
                        finished.append((totals[flat], poses[row], path))
                    elif pose is None:
                        failed.append((totals[flat], poses[row], path))
                    else:
                        live.append((flat, pose, path))
                if live and len(finished) >= decisive:
                    ends = sorted(score for score, _, _ in finished)
                    if not any(map(math.isnan, ends)):
                        bar = ends[-decisive]
                        live = [entry for entry in live if not totals[entry[0]] <= bar]
                kept = [flat for flat, _, _ in live]
                rows, prev = np.divmod(np.array(kept, dtype=np.intp), n_act)
                scores = totals[kept]
                poses = [pose for _, pose, _ in live]
                paths = [path for _, _, path in live]
                states = [(h[rows], c[rows]) for h, c in states]
            finished += zip(scores, poses, paths)  # ran out of the per-sentence budget
            # reverse=True keeps hypotheses of equal score in the order they ended
            pool = sorted(finished or failed, key=itemgetter(0), reverse=True)[:width]
            if not pool:
                raise RuntimeError("beam search lost every hypothesis")
            scores = np.array([score for score, _, _ in pool])
            poses = [pose for _, pose, _ in pool]
            paths = [path for _, _, path in pool]
    return paths[0]


# ---------------------------------------------------------------------------
# Checkpoints


CHECKPOINT_VERSION = 1


def checkpoint_paths(handle: str) -> tuple[str, str, str]:
    """Files of the checkpoint saved or loaded as `handle`; `run/m` and
    `run/m.npz` name the same checkpoint. Returns the weights `run/m.npz`,
    the sidecar `run/m.npz.json`, and `run/m.json`, where a bare handle's
    sidecar used to go (a name that could be, say, a model-config file)."""
    base = handle[:-len(".npz")] if handle.endswith(".npz") else handle
    return base + ".npz", base + ".npz.json", base + ".json"


def _sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def save_checkpoint(model: NavModel, path: str) -> None:
    """Write parameters as npz, then a JSON sidecar with the config, the
    vocabulary and the npz's sha256, each file atomically. A crash between
    the two leaves a pair whose digest does not match."""
    npz_path, sidecar_path, _ = checkpoint_paths(path)
    with atomic_write(npz_path, binary=True) as fh:
        np.savez(fh, **model.state_dict())
    sidecar = {
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "vocab": model.vocab.to_list(),
        "npz_sha256": _sha256_of(npz_path),
    }
    with atomic_write(sidecar_path) as fh:
        json.dump(sidecar, fh, indent=2)


def load_checkpoint(path: str) -> NavModel:
    """Load a checkpoint by either form of its handle.

    The sidecar is read from its current name or else from the older
    `run/m.json`; a JSON file there without a "version" key is not a
    checkpoint sidecar and is passed over. A sidecar that records the
    npz's sha256 must match the npz; one without it (older checkpoints)
    is not checked.
    """
    npz_path, *candidates = checkpoint_paths(path)
    sidecar = None
    for candidate in candidates:
        if os.path.exists(candidate):
            with open(candidate, encoding="utf-8") as fh:
                sidecar = json.load(fh)
            if isinstance(sidecar, dict) and "version" in sidecar:
                break
            sidecar = None
    if sidecar is None:
        raise FileNotFoundError(
            f"checkpoint {path!r}: no sidecar at {' or '.join(candidates)}")
    if sidecar["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {sidecar['version']}")
    digest = sidecar.get("npz_sha256")
    if digest is not None and _sha256_of(npz_path) != digest:
        raise ValueError(
            f"checkpoint {path!r}: {npz_path} does not match the sha256 "
            f"recorded in {candidate}; the pair was not saved together")
    config = ModelConfig.from_dict(sidecar["config"])
    vocab = Vocabulary.from_list(sidecar["vocab"])
    model = NavModel(config, vocab, seed=0)
    with np.load(npz_path) as data:
        model.load_state_dict({k: data[k] for k in data.files})
    return model
