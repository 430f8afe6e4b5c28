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
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field, asdict
from typing import Iterable, Optional, Sequence

import numpy as np

from . import nnet
from .datastore import Vocabulary
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
        """Summed NLL of the gold actions with teacher forcing.

        Percepts are recomputed from the simulator after each gold action,
        so the decoder always sees the pose the gold prefix produces.
        """
        tokens = self.vocab.encode(instance.instruction)
        h, cell = self.encode(tokens)
        state = (h, cell)
        prev = Action.STOP
        pose = instance.start
        loss = nnet.constant(np.asarray(0.0))
        for action in instance.actions:
            c_t = self.percept_vector(instance.world, pose, state)
            state, dist = self.decode_step(state, c_t, prev)
            loss = nnet.add(loss, nnet.cross_entropy(dist, ACTION_INDEX[action]))
            result = step(instance.world, pose, action)
            if result.kind == "wall_hit":
                raise InvalidPathError(
                    f"gold action hits a wall in instance {instance.id}")
            pose = result.pose
            prev = action
        return loss

    def action_accuracy(self, instances: Iterable[Instance]) -> float:
        """Per-action greedy teacher-forced accuracy (training diagnostics)."""
        correct = total = 0
        with nnet.no_grad():
            for inst in instances:
                tokens = self.vocab.encode(inst.instruction)
                state = self.encode(tokens)
                prev = Action.STOP
                pose = inst.start
                for action in inst.actions:
                    c_t = self.percept_vector(inst.world, pose, state)
                    state, dist = self.decode_step(state, c_t, prev)
                    correct += int(np.argmax(dist.data) == ACTION_INDEX[action])
                    total += 1
                    pose = step(inst.world, pose, action).pose
                    prev = action
        return correct / max(total, 1)

    def train_on(self, instance: Instance, lr: float = 1e-3,
                 clip_threshold: float = 5.0) -> tuple[float, float]:
        """Single-instance update: backward, clip at 5, Adam.

        Returns (loss, post-clip gradient norm). A non-finite loss or
        gradient norm raises FloatingPointError before any parameter moves.
        """
        params = self.params()
        nnet.zero_grad(params)
        loss = self.sequence_loss(instance)
        if not np.isfinite(loss.data):
            raise FloatingPointError(f"non-finite loss on instance {instance.id}")
        nnet.backward(loss)
        nnet.clip_global_norm(params, clip_threshold)
        post_norm = nnet.global_grad_norm(params)
        if not math.isfinite(post_norm):
            raise FloatingPointError(f"non-finite gradient norm on instance {instance.id}")
        nnet.adam_step(params, lr=lr)
        return float(loss.data), post_norm

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
    from .evalbench import success  # circular at import time only

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
        dev_success = 0.0
        if dev_set:
            wins = 0
            for inst in dev_set:
                predicted = beam_search(inst.world, inst.start,
                                        [inst.instruction], [model],
                                        beam_width=1,
                                        max_actions=model.config.max_actions)
                wins += int(success(inst, predicted, "singleSentence"))
            dev_success = wins / len(dev_set)
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
        with open(log_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["epoch", "trainLoss", "devSuccess"])
            writer.writeheader()
            writer.writerows(best.history)
    return best


# ---------------------------------------------------------------------------
# Beam-search inference


@dataclass
class _Hypothesis:
    pose: Pose
    score: float
    actions: list[Action]
    states: list[tuple[nnet.Tensor, nnet.Tensor]]
    prev: Action
    outcome: Optional[str] = None  # None while live; "stopped"/"wall_hit"/"exhausted"


def _ensemble_distribution(models: Sequence[NavModel], hyp: _Hypothesis,
                           world: WorldMap) -> tuple[np.ndarray, list]:
    """Average P(a|s,c) over the ensemble; also returns the advanced states."""
    dists = []
    new_states = []
    for model, state in zip(models, hyp.states):
        c_t = model.percept_vector(world, hyp.pose, state)
        new_state, dist = model.decode_step(state, c_t, hyp.prev)
        dists.append(dist.data)
        new_states.append(new_state)
    return np.mean(dists, axis=0), new_states


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
    """
    if not models:
        raise ValueError("beam_search needs at least one model")
    if not sentences:
        raise ValueError("beam_search needs at least one sentence")
    config = models[0].config
    width = beam_width if beam_width is not None else config.beam_width
    budget = max_actions if max_actions is not None else config.max_actions

    beam = [_Hypothesis(start, 0.0, [], [], Action.STOP)]
    with nnet.no_grad():
        for sentence in sentences:
            encoded = [m.encode(m.vocab.encode(list(sentence))) for m in models]
            for hyp in beam:
                hyp.states = [(h, c) for h, c in encoded]
                hyp.prev = Action.STOP
                hyp.outcome = None
            finished: list[_Hypothesis] = []
            failed: list[_Hypothesis] = []
            live = beam
            for _ in range(budget):
                if not live:
                    break
                candidates: list[tuple[float, int, int, _Hypothesis, list]] = []
                for hyp_idx, hyp in enumerate(live):
                    avg_p, new_states = _ensemble_distribution(models, hyp, world)
                    for a_idx in range(len(ACTIONS)):
                        score = hyp.score + float(np.log(avg_p[a_idx]))
                        candidates.append((score, hyp_idx, a_idx, hyp, new_states))
                candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
                next_live: list[_Hypothesis] = []
                taken = 0
                for score, _, a_idx, hyp, new_states in candidates:
                    if taken >= width:
                        break
                    taken += 1
                    action = ACTIONS[a_idx]
                    result = step(world, hyp.pose, action)
                    new_hyp = _Hypothesis(result.pose, score,
                                          hyp.actions + [action], new_states,
                                          action)
                    if result.kind == "stopped":
                        new_hyp.outcome = "stopped"
                        finished.append(new_hyp)
                    elif result.kind == "wall_hit":
                        new_hyp.outcome = "wall_hit"
                        failed.append(new_hyp)
                    else:
                        next_live.append(new_hyp)
                live = next_live
            for hyp in live:  # ran out of the per-sentence budget
                hyp.outcome = "exhausted"
                finished.append(hyp)
            pool = finished if finished else failed
            pool.sort(key=lambda h: -h.score)
            beam = pool[:width]
            if not beam:
                raise RuntimeError("beam search lost every hypothesis")
    return beam[0].actions


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


def save_checkpoint(model: NavModel, path: str) -> None:
    """Write parameters as npz plus a JSON sidecar (config + vocabulary)."""
    npz_path, sidecar_path, _ = checkpoint_paths(path)
    np.savez(npz_path, **model.state_dict())
    sidecar = {
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "vocab": model.vocab.to_list(),
    }
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)


def load_checkpoint(path: str) -> NavModel:
    """Load a checkpoint by either form of its handle.

    The sidecar is read from its current name or else from the older
    `run/m.json`; a JSON file there without a "version" key is not a
    checkpoint sidecar and is passed over.
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
    config = ModelConfig.from_dict(sidecar["config"])
    vocab = Vocabulary.from_list(sidecar["vocab"])
    model = NavModel(config, vocab, seed=0)
    with np.load(npz_path) as data:
        model.load_state_dict({k: data[k] for k in data.files})
    return model
