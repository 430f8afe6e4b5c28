"""Model architecture, training loop, and beam-search tests."""

import dataclasses
import json
import math
import multiprocessing
import re
from collections import Counter

import numpy as np
import pytest

from mazenav import langgen, nnet
from mazenav.datastore import Vocabulary, build_vocab
from mazenav.evalbench import evaluate_ensemble
from mazenav.langgen import TaskCategory, generate_dataset
from mazenav.navmodel import (
    METADATA_ENTRY,
    VARIANTS,
    ModelConfig,
    NavModel,
    Percepts,
    Rollout,
    beam_search,
    load_checkpoint,
    save_checkpoint,
    train,
)
from mazenav.worldsim import ACTION_INDEX, ACTIONS, Action, WorldConfig, step
from oracles import action_accuracy
from tape import TapeModel, tape_train_on
from tape import backward as tape_backward
from test_nnet import (  # noqa: F401 (fresh_helper is a fixture)
    crit10_training,
    fresh_helper,
)


def tiny_config(variant="full", vocab_size=0, **overrides):
    base = dict(
        vocab_size=vocab_size,
        embed_dim=8,
        encoder_hidden=8,
        attention_hidden=8,
        conv_width=3,
        conv_channels=4,
        extra_convs=((3, 3, 4),),
        variant=variant,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def lo_instances():
    mix = {TaskCategory.LANGUAGE_ONLY: 1.0}
    return list(generate_dataset(mix, 12, master_seed=77,
                                 config=WorldConfig(width=5, height=5)))


@pytest.fixture(scope="module")
def shared_vocab(lo_instances):
    return build_vocab(lo_instances)


def make_model(vocab, variant="full", seed=0, **overrides):
    cfg = tiny_config(variant=variant, vocab_size=len(vocab), **overrides)
    return NavModel(cfg, vocab, seed=seed)


def zero_model(model):
    model.load_state_dict(
        {k: np.zeros_like(v) for k, v in model.state_dict().items()})
    return model


class TestConfig:
    def test_decoder_hidden_doubles_encoder(self):
        assert ModelConfig(encoder_hidden=96).decoder_hidden == 192

    def test_validate_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            ModelConfig(vocab_size=5, variant="bagOfWords").validate()

    def test_validate_requires_vocab(self):
        with pytest.raises(ValueError, match="vocab_size"):
            ModelConfig(vocab_size=0).validate()

    @pytest.mark.parametrize("count", [3, 5])
    def test_validate_requires_one_output_per_action(self, count):
        # beam_search reads a row's scores as len(ACTIONS) wide
        ModelConfig(vocab_size=5).validate()
        with pytest.raises(ValueError, match="'action_count' must be 4, .* got " + str(count)):
            ModelConfig(vocab_size=5, action_count=count).validate()

    def test_percept_dim_by_variant(self):
        assert tiny_config("languageOnly", 5).percept_dim() == 0
        assert tiny_config("bagOfFeatures", 5).percept_dim() == 74
        # m=3 -> 5x18x4 map, one 3x3x4 extra conv -> 3x16x4
        assert tiny_config("full", 5).percept_dim() == 3 * 16 * 4

    def test_dict_round_trip(self):
        cfg = tiny_config("full", 9)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert isinstance(again.extra_convs[0], tuple)
        assert ModelConfig.from_dict({"embed_dim": 8}) == ModelConfig(embed_dim=8)


def first_step(model, inst, record=None):
    """The first decoder step from inst's start, through a Rollout row."""
    h, c, _ = model.encode(model.vocab.encode(inst.instruction))
    rollout = Rollout(model, Percepts(inst.world))
    return rollout.step(h[None], c[None], [inst.start], [ACTION_INDEX[Action.STOP]], record)


class TestForward:
    def test_encode_shapes(self, shared_vocab):
        model = make_model(shared_vocab)
        h, cell, _ = model.encode([1, 2, 3])
        assert h.shape == (16,) and cell.shape == (16,)

    def test_encode_empty_rejected(self, shared_vocab):
        with pytest.raises(ValueError, match="empty"):
            make_model(shared_vocab).encode([])

    def test_encode_is_order_sensitive(self, shared_vocab):
        model = make_model(shared_vocab)
        h1, _, _ = model.encode([1, 2, 3, 4])
        h2, _, _ = model.encode([4, 3, 2, 1])
        assert not np.allclose(h1, h2)

    def test_attention_is_a_distribution_over_channels(self, shared_vocab):
        model = make_model(shared_vocab)
        _, beta = model.attend(np.linspace(-1, 1, 16)[None])
        assert beta.shape == (1, 4)
        assert (beta > 0).all()
        assert abs(beta.sum() - 1.0) < 1e-12

    def test_attention_uniform_for_zero_weights(self, shared_vocab):
        model = zero_model(make_model(shared_vocab))
        _, beta = model.attend(np.ones((1, 16)))
        assert np.allclose(beta, 0.25)

    def test_first_conv_layer_shape(self, shared_vocab, lo_instances, monkeypatch):
        model = make_model(shared_vocab, conv_width=5)
        shapes = []
        original = nnet.conv2d_valid

        def spy(*args):
            out = original(*args)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(nnet, "conv2d_valid", spy)
        first_step(model, lo_instances[0])
        assert shapes[0] == (1, 5, 16, 4)  # one row: a 5x16 map of 4 channels

    def test_attention_gates_channels(self, shared_vocab, lo_instances):
        # with no extra convs the percept is the beta-scaled first layer,
        # so a one-hot beta must silence every other channel
        from mazenav.percept import encode_grid

        model = make_model(shared_vocab, extra_convs=())
        inst = lo_instances[0]
        grid = encode_grid(inst.world, inst.start).astype(np.float64)
        onehot = np.zeros((1, 4))
        onehot[0, 2] = 1.0
        convs = Rollout(model, Percepts(inst.world)).convs
        out = model.perceive(grid[None], onehot, convs).reshape(5, 18, 4)
        assert np.allclose(out[:, :, [0, 1, 3]], 0.0)
        assert out[:, :, 2].max() > 0.0

    def test_perceive_output_matches_config(self, shared_vocab, lo_instances):
        from mazenav.percept import encode_grid

        model = make_model(shared_vocab)
        inst = lo_instances[0]
        grid = encode_grid(inst.world, inst.start).astype(np.float64)
        _, beta = model.attend(model.encode([1, 2])[0][None])
        out = model.perceive(grid[None], beta, Rollout(model, Percepts(inst.world)).convs)
        assert out.shape == (1, model.config.percept_dim())
        # final extra conv is squashed through a sigmoid
        assert (out > 0).all() and (out < 1).all()

    def test_decode_step_distribution(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab)
        h, _, dist = first_step(model, lo_instances[0])
        assert dist.shape == (1, 4)
        assert abs(dist.sum() - 1.0) < 1e-12
        assert h.shape == (1, 16)

    def test_language_only_has_no_percept(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab, variant="languageOnly")
        names = {p.name for p in model.params()}
        assert not any(n.startswith(("attn_", "conv")) for n in names)
        assert "out_W2" not in names
        record = {}
        _, _, dist = first_step(model, lo_instances[0], record)
        assert record["z"].shape == (1, 4 + 16)  # the previous action and h alone
        assert abs(dist.sum() - 1.0) < 1e-12

    def test_bag_of_features_percept(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab, variant="bagOfFeatures")
        names = {p.name for p in model.params()}
        assert not any(n.startswith(("attn_", "conv")) for n in names)
        assert model.param("out_W2").data.shape == (4, 74)
        record = {}
        first_step(model, lo_instances[0], record)
        c_t = record["z"][:, :74]
        assert set(np.unique(c_t)) <= {0.0, 1.0}

    def test_vocab_size_mismatch_rejected(self, shared_vocab):
        cfg = tiny_config("full", vocab_size=len(shared_vocab) + 3)
        with pytest.raises(ValueError, match="vocab"):
            NavModel(cfg, shared_vocab)


class TestTraining:
    def test_zeroed_model_loss_is_uniform(self, shared_vocab, lo_instances):
        model = zero_model(make_model(shared_vocab))
        inst = lo_instances[0]
        loss = model.sequence_loss(inst).loss
        assert loss == pytest.approx(len(inst.actions) * math.log(4), abs=1e-12)

    def test_train_on_reports_clipped_norm(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab)
        loss, post_norm = model.train_on(lo_instances[0])
        assert np.isfinite(loss) and loss > 0
        assert post_norm <= 5.0 + 1e-9

    def test_train_on_rejects_nonfinite(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab)
        model.param("token_embedding").data[:] = np.nan
        with pytest.raises(FloatingPointError):
            model.train_on(lo_instances[0])

    def test_train_on_clips_finite_gradient_whose_square_overflows(
            self, shared_vocab, lo_instances, monkeypatch):
        model = make_model(shared_vocab)
        before = model.state_dict()
        backward = NavModel.backward

        def backward_with_huge(self, record):
            backward(self, record)
            self.param("dec_b").grad[0] = 1e200

        monkeypatch.setattr(NavModel, "backward", backward_with_huge)
        loss, post_norm = model.train_on(lo_instances[0])
        assert math.isfinite(loss)
        assert post_norm == pytest.approx(5.0, rel=1e-12)
        after = model.state_dict()
        assert all(np.isfinite(after[k]).all() for k in after)
        assert not np.array_equal(before["dec_b"], after["dec_b"])

    def test_optimizer_scratch_bounded_by_adam_block(self, shared_vocab,
                                                     lo_instances, monkeypatch):
        # The norm takes no scratch and Adam works in blocks, so the shared
        # scratch holds one Adam block, not an array of the largest parameter.
        monkeypatch.setattr(nnet, "_SCRATCH", np.empty(0))
        model = make_model(shared_vocab, encoder_hidden=64)
        largest = max(p.data.size for p in model.params())
        assert largest > 2 * nnet._ADAM_BLOCK
        model.train_on(lo_instances[0])
        assert nnet._SCRATCH.size == nnet._ADAM_BLOCK

    def test_train_on_rejects_nonfinite_gradient(self, shared_vocab, lo_instances,
                                                 monkeypatch):
        model = make_model(shared_vocab)
        inst = lo_instances[0]
        before = model.state_dict()
        backward = NavModel.backward

        def backward_with_inf(self, record):
            backward(self, record)
            self.param("dec_b").grad[0] = np.inf  # the loss itself stays finite

        monkeypatch.setattr(NavModel, "backward", backward_with_inf)
        with pytest.raises(FloatingPointError, match=re.escape(str(inst.id))):
            model.train_on(inst)
        after = model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        assert all(p.t == 0 for p in model.params())

    def test_repeated_updates_reduce_loss(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab, variant="languageOnly")
        inst = lo_instances[0]
        first = model.sequence_loss(inst).loss
        for _ in range(150):
            model.train_on(inst, lr=3e-3)
        last = model.sequence_loss(inst).loss
        assert last < first * 0.2

    def test_patience_stops_training(self, shared_vocab, lo_instances):
        # an empty dev set pins dev success at 0.0, so the best score is set
        # on epoch 1 and training must halt after `patience` stale epochs
        model = make_model(shared_vocab, variant="languageOnly")
        result = train(model, lo_instances[:2], [], max_epochs=50,
                       patience=3, seed=1)
        assert result.epochs_run == 4
        assert len(result.history) == 4

    def test_train_restores_best_state(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab, variant="languageOnly", seed=3)
        result = train(model, lo_instances[:6], lo_instances[:6],
                       max_epochs=60, patience=20, lr=3e-3, seed=2)
        assert result.best_dev_success >= 0.5
        restored = model.state_dict()
        best = result.best_state
        assert all(np.array_equal(restored[k], best[k]) for k in best)
        assert result.best_dev_success == evaluate_ensemble([model], lo_instances[:6],
                                                            beam_width=1)

    def test_history_csv(self, shared_vocab, lo_instances, tmp_path):
        model = make_model(shared_vocab, variant="languageOnly")
        log = tmp_path / "history.csv"
        result = train(model, lo_instances[:2], [], max_epochs=3,
                       patience=10, seed=0, log_path=str(log))
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "epoch,trainLoss,devSuccess"
        assert len(lines) == 1 + result.epochs_run


def tape_gradients(model, inst):
    """The loss and every Param's gradient from a tape sweep of
    TapeModel.sequence_loss; None for a Param the tape gives no gradient."""
    params = model.params()
    nnet.zero_grad(params)
    loss = TapeModel(model).sequence_loss(inst)
    tape_backward(loss)
    return float(loss.data), {p.name: None if p.grad is None else p.grad.copy()
                              for p in params}


def own_gradients(model, inst):
    """The same from the model's recorded forward and its own backward."""
    record = model.sequence_loss(inst)
    model.backward(record)
    return record.loss, {p.name: None if p.grad is None else p.grad.copy()
                         for p in model.params()}


def vary(inst, **changes):
    return dataclasses.replace(inst, **changes)


class TestBackward:
    """NavModel.sequence_loss and NavModel.backward against the tape: the
    loss and every gradient are the tape's, bit for bit, on each variant,
    conv stack and edge case."""

    def check(self, model, instances):
        for inst in instances:
            loss, grads = own_gradients(model, inst)
            ref_loss, ref_grads = tape_gradients(model, inst)
            assert loss == ref_loss, inst.id
            assert grads.keys() == ref_grads.keys()
            for name, ref in ref_grads.items():
                assert ref is not None, name  # every Param is used
                assert np.array_equal(grads[name], ref), (inst.id, name)

    # The full variant with no conv layer after the attention, a sigmoid
    # layer, or a relu layer and then a sigmoid one.
    @pytest.mark.parametrize("variant, extra_convs", [
        ("full", ()), ("full", ((3, 3, 4),)), ("full", ((3, 3, 4), (1, 3, 2))),
        ("languageOnly", ()), ("bagOfFeatures", ())])
    def test_gradients_match_tape(self, shared_vocab, lo_instances, variant, extra_convs):
        model = make_model(shared_vocab, variant=variant, seed=13, extra_convs=extra_convs)
        self.check(model, lo_instances)

    @pytest.mark.parametrize("variant", ["full", "bagOfFeatures"])
    def test_gradients_match_tape_at_default_size(self, lo_instances, variant):
        vocab = build_vocab(lo_instances)
        model = NavModel(ModelConfig(vocab_size=len(vocab), variant=variant), vocab, seed=3)
        self.check(model, lo_instances[:2])

    @pytest.mark.parametrize("variant", ["full", "languageOnly", "bagOfFeatures"])
    def test_edge_cases(self, shared_vocab, lo_instances, variant):
        inst = lo_instances[2]
        word, other = inst.instruction[0], inst.instruction[-1]
        cases = [
            vary(inst, instruction=[word, other, word, word]),  # a repeated token
            vary(inst, instruction=[other]),  # one token
            vary(inst, actions=[Action.STOP]),  # a STOP-only gold path
            vary(inst, instruction=[word], actions=[Action.STOP]),
        ]
        assert len(set(cases[0].instruction)) < len(cases[0].instruction)
        self.check(make_model(shared_vocab, variant=variant, seed=15), cases)

    def test_empty_gold_path_gives_no_gradient(self, shared_vocab, lo_instances):
        # a dataset line may hold no actions; as on the tape, the loss is 0
        # and no Param gets a gradient, so train_on moves nothing
        model = make_model(shared_vocab, seed=19)
        inst = vary(lo_instances[0], actions=[])
        assert own_gradients(model, inst) == tape_gradients(model, inst)
        before = model.state_dict()
        assert model.train_on(inst) == (0.0, 0.0)
        assert all(np.array_equal(before[k], v) for k, v in model.state_dict().items())
        assert all(p.t == 0 for p in model.params())

    @pytest.mark.parametrize("variant", ["full", "languageOnly"])
    def test_gold_probability_below_the_cross_entropy_floor(self, shared_vocab,
                                                             lo_instances, variant):
        model = make_model(shared_vocab, variant=variant, seed=16)
        inst = lo_instances[3]
        first = ACTION_INDEX[inst.actions[0]]
        model.param("out_b").data[first] = -80.0
        record = model.sequence_loss(inst)
        assert record.steps[0]["dist"][0, first] < nnet.CE_EPSILON
        self.check(model, [inst])

    def test_encoder_rows_equal_encode(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab, seed=17)
        tape_model = TapeModel(model)
        for inst in lo_instances:
            tokens = model.vocab.encode(inst.instruction)
            for seq in (tokens, tokens[:1], tokens + tokens[::-1]):
                h, c, _ = model.encode(seq)
                ref_h, ref_c = tape_model.encode(seq)
                assert np.array_equal(h, ref_h.data) and np.array_equal(c, ref_c.data)

    def test_action_accuracy_matches_tape(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab, seed=18)
        tape_model = TapeModel(model)
        correct = total = 0
        for inst in lo_instances:
            state = tape_model.encode(model.vocab.encode(inst.instruction))
            pose, prev = inst.start, Action.STOP
            for action in inst.actions:
                c_t = tape_model.percept_vector(inst.world, pose, state)
                state, dist = tape_model.decode_step(state, c_t, prev)
                correct += int(np.argmax(dist.data) == ACTION_INDEX[action])
                total += 1
                pose, prev = step(inst.world, pose, action), action
        assert action_accuracy(model, lo_instances) == correct / total

    def test_training_matches_tape_training(self):
        # train_on's gradients are the tape's, so 50 updates equal those of a
        # model trained on the tape, bit for bit
        losses, model = crit10_training(50)()
        ref_losses, ref_model = crit10_training(50, tape_train_on)()
        assert losses == ref_losses
        for p, ref in zip(model.params(), ref_model.params()):
            assert p.t == ref.t == 50
            for a, r in ((p.data, ref.data), (p.m, ref.m), (p.v, ref.v)):
                assert np.array_equal(a, r), p.name


@pytest.fixture(scope="module")
def default_stream():
    """The default model config and a 50-instance DEFAULT_MIX stream."""
    bank = langgen.TemplateBank.load_default()
    vocab = Vocabulary(bank.vocabulary())
    data = list(generate_dataset(langgen.DEFAULT_MIX, 50, master_seed=3, bank=bank))
    return ModelConfig(vocab_size=len(vocab)), vocab, data


def step_in_child(model, inst, conn):
    conn.send((model.train_on(inst), nnet._HELPER is not None))
    conn.close()


class TestHelperThread:
    """Training with nnet's helper thread (a share of Adam's blocks, and
    backward's decoder weight GEMM) equals training inline, bit for bit."""

    def test_default_size_training_matches_inline(self, monkeypatch, fresh_helper,
                                                  default_stream):
        monkeypatch.setattr(nnet, "_usable_cpus", lambda: 2)
        config, vocab, data = default_stream

        def train():
            model = NavModel(config, vocab, seed=0)
            return [model.train_on(inst) for inst in data], model

        results, model = train()
        assert nnet._HELPER is not None  # the default size is above _HELPER_MIN
        monkeypatch.setattr(nnet, "_HELPER_MIN", math.inf)
        ref_results, ref_model = train()
        assert results == ref_results  # every loss and post-clip norm
        for p, ref in zip(model.params(), ref_model.params()):
            assert p.t == ref.t == len(data)
            for a, r in ((p.data, ref.data), (p.m, ref.m), (p.v, ref.v)):
                assert np.array_equal(a, r), p.name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradients_match_tape_with_helper(self, monkeypatch, fresh_helper,
                                              shared_vocab, lo_instances, variant):
        monkeypatch.setattr(nnet, "_HELPER_MIN", 0)
        monkeypatch.setattr(nnet, "_usable_cpus", lambda: 2)
        config = ModelConfig(vocab_size=len(shared_vocab), embed_dim=32,
                             encoder_hidden=64, attention_hidden=32, conv_width=5,
                             conv_channels=16, extra_convs=((5, 5, 8),), variant=variant)
        TestBackward().check(NavModel(config, shared_vocab, seed=21), lo_instances[:4])
        assert nnet._HELPER is not None

    def test_forked_child_starts_its_own_helper(self, monkeypatch, fresh_helper,
                                                default_stream):
        # The parent's helper thread does not survive a fork; a child that
        # reused it would wait for it forever.
        monkeypatch.setattr(nnet, "_usable_cpus", lambda: 2)
        config, vocab, data = default_stream
        model = NavModel(config, vocab, seed=0)
        model.train_on(data[0])
        assert nnet._HELPER is not None
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=step_in_child, args=(model, data[1], writer))
        child.start()
        writer.close()
        returned = reader.poll(60)
        if not returned:
            child.kill()
        child.join(timeout=60)
        assert returned, "train_on in the forked child did not return"
        result, started = reader.recv()
        reader.close()
        assert not child.is_alive() and child.exitcode == 0
        assert started
        assert result == model.train_on(data[1])


def greedy_rollout(model, inst, budget):
    """Independent argmax rollout on the tape, the beam_width=1 oracle."""
    tape_model = TapeModel(model)
    state = tape_model.encode(model.vocab.encode(inst.instruction))
    prev = Action.STOP
    pose = inst.start
    out = []
    for _ in range(budget):
        c_t = tape_model.percept_vector(inst.world, pose, state)
        state, dist = tape_model.decode_step(state, c_t, prev)
        action = ACTIONS[int(np.argmax(dist.data))]
        out.append(action)
        pose = step(inst.world, pose, action)
        if pose is None or action is Action.STOP:
            break
        prev = action
    return out


def oracle_beam_search(world, start, instruction, models, width, budget):
    """Independent per-hypothesis beam search: each hypothesis keeps its own
    per-member states and is advanced through the tape's percept_vector +
    decode_step, one member at a time. The reference that beam_search must
    match."""
    tape_models = [TapeModel(m) for m in models]
    encoded = [tm.encode(tm.vocab.encode(list(instruction))) for tm in tape_models]
    live = [(start, 0.0, [], encoded, Action.STOP)]  # pose, score, actions, states, prev
    finished, failed = [], []
    for _ in range(budget):
        if not live:
            break
        candidates = []
        for k, (pose, score, _, states, prev) in enumerate(live):
            dists, advanced = [], []
            for tape_model, state in zip(tape_models, states):
                c_t = tape_model.percept_vector(world, pose, state)
                new_state, dist = tape_model.decode_step(state, c_t, prev)
                dists.append(dist.data)
                advanced.append(new_state)
            avg = np.mean(dists, axis=0)
            for a in range(len(ACTIONS)):
                candidates.append((score + float(np.log(avg[a])), k, a, advanced))
        candidates.sort(key=lambda cand: (-cand[0], cand[1], cand[2]))
        next_live = []
        for score, k, a, advanced in candidates[:width]:
            pose, acts = live[k][0], live[k][2]
            nxt = step(world, pose, ACTIONS[a])
            hyp = (nxt or pose, score, acts + [ACTIONS[a]], advanced, ACTIONS[a])
            if ACTIONS[a] is Action.STOP:
                finished.append(hyp)
            elif nxt is None:
                failed.append(hyp)
            else:
                next_live.append(hyp)
        live = next_live
    finished.extend(live)  # ran out of the action budget
    pool = finished if finished else failed
    pool.sort(key=lambda hyp: -hyp[1])
    return pool[0][2]


def steer(model):
    """Sharpen the output layer and make STOP unlikely, so that beams run
    for the whole budget and the best hypothesis depends on every step."""
    for p in model.params():
        if p.name in ("out_W1", "out_W2"):
            p.data *= 10.0
    model.param("out_b").data[ACTION_INDEX[Action.STOP]] = -4.0
    return model


class TestBeamOracle:
    """beam_search returns the oracle's actions, variant by variant, for
    single members and ensembles; each case runs with the models as
    initialized (beams end after a step or two) and steered (the oracle's
    beams, which are never pruned, use the whole budget)."""

    def check(self, models, instances, width, steered, budget=10):
        if steered:
            models = [steer(m) for m in models]
        for inst in instances:
            expected = oracle_beam_search(inst.world, inst.start, inst.instruction, models,
                                          width, budget)
            got = beam_search(inst.world, inst.start, inst.instruction, models,
                              beam_width=width, max_actions=budget)
            assert got == expected, inst.id

    @pytest.mark.parametrize("steered", [False, True])
    @pytest.mark.parametrize("width", [1, 2, 4])
    @pytest.mark.parametrize("variant", ["full", "languageOnly", "bagOfFeatures"])
    @pytest.mark.parametrize("seeds", [(21,), (22, 23)], ids=["single", "pair"])
    def test_members(self, shared_vocab, lo_instances, seeds, variant, width, steered):
        models = [make_model(shared_vocab, variant=variant, seed=s) for s in seeds]
        self.check(models, lo_instances, width, steered)

    @pytest.mark.parametrize("steered", [False, True])
    @pytest.mark.parametrize("width", [1, 2, 4])
    @pytest.mark.parametrize("variant", ["full", "languageOnly", "bagOfFeatures"])
    def test_zeroed_members_tie_exactly(self, shared_vocab, lo_instances, variant, width,
                                        steered):
        # A pair of identical zeroed members gives every row the same
        # distribution, so candidates tie within and across rows and the
        # order of the ties alone decides the beam.
        models = [zero_model(make_model(shared_vocab, variant=variant, seed=s))
                  for s in (28, 29)]
        self.check(models, lo_instances, width, steered)

    @pytest.mark.parametrize("steered", [False, True])
    @pytest.mark.parametrize("width", [1, 4])
    def test_mixed_variant_ensemble(self, shared_vocab, lo_instances, width, steered):
        models = [make_model(shared_vocab, variant="full", seed=24),
                  make_model(shared_vocab, variant="bagOfFeatures", seed=25)]
        self.check(models, lo_instances, width, steered)

    @pytest.mark.parametrize("steered", [False, True])
    @pytest.mark.parametrize("width", [2, 4])
    def test_nan_member(self, shared_vocab, lo_instances, width, steered):
        # every score is NaN: nothing is pruned, and the beam keeps the
        # order the oracle gives the NaN candidates
        models = [make_model(shared_vocab, variant="full", seed=s) for s in (32, 33)]
        models[1].param("out_b").data[0] = np.nan
        self.check(models, lo_instances, width, steered)

    def test_default_size_members(self, lo_instances):
        # the default widths (64 attention channels, 256-wide decoder) reduce
        # over more elements than the tiny configs do
        vocab = build_vocab(lo_instances)
        models = [NavModel(ModelConfig(vocab_size=len(vocab)), vocab, seed=s) for s in (0, 1)]
        self.check(models, lo_instances[:3], 4, steered=True, budget=6)


class TestRollout:
    """Each row of a Rollout's step equals the tape's percept_vector +
    decode_step for that row alone, bit for bit: first for one to four
    sibling poses sharing one state, then for a second step from the rows'
    now different states. Both sides run here, so no float digest is
    pinned."""

    def check(self, model, inst):
        tape_model = TapeModel(model)
        state = tape_model.encode(model.vocab.encode(inst.instruction))
        siblings = [step(inst.world, inst.start, a) or inst.start for a in ACTIONS]
        prev = [Action.STOP, Action.MOVE, Action.RIGHT, Action.LEFT]
        for n in range(1, 5):
            rollout = Rollout(model, Percepts(inst.world))
            h = np.tile(state[0].data, (n, 1))
            c = np.tile(state[1].data, (n, 1))
            tape_states = [state] * n
            for depth in range(2):
                h, c, dist = rollout.step(h, c, siblings[:n],
                                          [ACTION_INDEX[a] for a in prev[:n]])
                assert dist.shape == (n, 4)
                assert h.shape == c.shape == (n, state[0].shape[0])
                for j in range(n):
                    c_t = tape_model.percept_vector(inst.world, siblings[j], tape_states[j])
                    tape_states[j], dist_ref = tape_model.decode_step(tape_states[j], c_t,
                                                                      prev[j])
                    where = (n, depth, j)
                    assert np.array_equal(dist[j], dist_ref.data), where
                    assert np.array_equal(h[j], tape_states[j][0].data), where
                    assert np.array_equal(c[j], tape_states[j][1].data), where

    @pytest.mark.parametrize("variant", ["full", "languageOnly", "bagOfFeatures"])
    def test_rows_match_tape_step(self, shared_vocab, lo_instances, variant):
        for seed, inst in enumerate(lo_instances[:4]):
            self.check(make_model(shared_vocab, variant=variant, seed=seed), inst)

    @pytest.mark.parametrize("extra_convs", [(), ((3, 3, 4), (1, 3, 2))])
    def test_rows_match_tape_step_for_other_conv_stacks(self, shared_vocab, lo_instances,
                                                         extra_convs):
        # no layer after the attention, or a relu layer before the sigmoid one
        model = make_model(shared_vocab, seed=9, extra_convs=extra_convs)
        for inst in lo_instances[:2]:
            self.check(model, inst)

    @pytest.mark.parametrize("variant", ["full", "bagOfFeatures"])
    def test_rows_match_tape_step_at_default_size(self, lo_instances, variant):
        vocab = build_vocab(lo_instances)
        model = NavModel(ModelConfig(vocab_size=len(vocab), variant=variant), vocab, seed=3)
        for inst in lo_instances[:2]:
            self.check(model, inst)


class TestBeamSearch:
    def test_beam_one_equals_greedy(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab, seed=5)
        for inst in lo_instances:
            predicted = beam_search(inst.world, inst.start, inst.instruction,
                                    [model], beam_width=1, max_actions=10)
            assert predicted == greedy_rollout(model, inst, 10)

    def test_identical_ensemble_matches_single(self, shared_vocab, lo_instances):
        # averaging k identical distributions is bit-exact for power-of-two k
        model = make_model(shared_vocab, seed=6)
        for inst in lo_instances[:6]:
            single = beam_search(inst.world, inst.start, inst.instruction,
                                 [model], beam_width=4, max_actions=8)
            duo = beam_search(inst.world, inst.start, inst.instruction,
                              [model, model], beam_width=4, max_actions=8)
            quad = beam_search(inst.world, inst.start, inst.instruction,
                               [model] * 4, beam_width=4, max_actions=8)
            assert duo == single
            assert quad == single

    def test_wide_beam_is_exhaustive(self, shared_vocab, lo_instances):
        """With width >= 4^budget the beam must find the global optimum."""
        model = make_model(shared_vocab, variant="languageOnly", seed=7)
        budget = 4
        inst = lo_instances[1]

        def brute_force():
            best = (-np.inf, None)
            fallback = (-np.inf, None)
            tape_model = TapeModel(model)
            enc = tape_model.encode(model.vocab.encode(inst.instruction))
            stack = [(inst.start, enc, Action.STOP, 0.0, [])]
            while stack:
                pose, state, prev, score, acts = stack.pop()
                if len(acts) == budget:
                    best = max(best, (score, acts))
                    continue
                new_state, dist = tape_model.decode_step(state, None, prev)
                for idx, action in enumerate(ACTIONS):
                    s = score + math.log(dist.data[idx])
                    nxt = step(inst.world, pose, action)
                    seq = acts + [action]
                    if action is Action.STOP:
                        best = max(best, (s, seq))
                    elif nxt is None:
                        fallback = max(fallback, (s, seq))
                    else:
                        stack.append((nxt, new_state, action, s, seq))
            return best if best[1] is not None else fallback

        expected_score, expected = brute_force()
        got = beam_search(inst.world, inst.start, inst.instruction, [model],
                          beam_width=300, max_actions=budget)
        assert got == expected

    @pytest.mark.parametrize("name, value", [("beam_width", 0), ("beam_width", -2),
                                             ("max_actions", 0), ("max_actions", -1)])
    def test_nonpositive_width_or_budget_rejected(self, shared_vocab, lo_instances,
                                                  name, value):
        inst = lo_instances[0]
        model = make_model(shared_vocab)
        message = f"{name} must be at least 1, got {value}"
        with pytest.raises(ValueError, match=message):
            beam_search(inst.world, inst.start, inst.instruction, [model],
                        **{name: value})
        # the same check applies to the model config's defaults
        model = make_model(shared_vocab, **{name: value})
        with pytest.raises(ValueError, match=message):
            beam_search(inst.world, inst.start, inst.instruction, [model])

    def test_requires_models_and_sentences(self, shared_vocab, lo_instances):
        inst = lo_instances[0]
        model = make_model(shared_vocab)
        with pytest.raises(ValueError):
            beam_search(inst.world, inst.start, inst.instruction, [])
        with pytest.raises(ValueError, match="empty instruction"):
            beam_search(inst.world, inst.start, [], [model])


@pytest.fixture
def step_calls(monkeypatch):
    """The number of Rollout.step calls made so far, as a one-item list."""
    calls = [0]
    real_step = Rollout.step

    def counting_step(self, *args, **kwargs):
        calls[0] += 1
        return real_step(self, *args, **kwargs)

    monkeypatch.setattr(Rollout, "step", counting_step)
    return calls


def first_step_mean(models, inst):
    """The ensemble's mean distribution over the first action, from the tape."""
    dists = []
    for model in models:
        tape_model = TapeModel(model)
        state = tape_model.encode(model.vocab.encode(inst.instruction))
        c_t = tape_model.percept_vector(inst.world, inst.start, state)
        dists.append(tape_model.decode_step(state, c_t, Action.STOP)[1].data)
    return np.mean(dists, axis=0)


class TestBeamPruning:
    """beam_search stops advancing rows that can no longer win, and only those."""

    @pytest.mark.parametrize("variant", ["full", "languageOnly", "bagOfFeatures"])
    def test_settled_search_makes_one_step(self, shared_vocab, lo_instances, step_calls,
                                           variant):
        # STOP as the first step's top candidate finishes with the best score
        # any hypothesis can reach, so every live row is dropped at once
        models = [make_model(shared_vocab, variant=variant, seed=s) for s in (40, 41)]
        settled = [inst for inst in lo_instances
                   if np.argmax(first_step_mean(models, inst)) == ACTION_INDEX[Action.STOP]]
        assert settled
        for inst in settled:
            step_calls[0] = 0
            got = beam_search(inst.world, inst.start, inst.instruction, models,
                              beam_width=4, max_actions=10)
            assert got == [Action.STOP]
            assert step_calls[0] == len(models), inst.id

    @pytest.mark.parametrize("variant", ["full", "languageOnly", "bagOfFeatures"])
    def test_unsettled_search_runs_to_the_budget(self, shared_vocab, lo_instances,
                                                 step_calls, variant):
        # Steered members that all but rule out STOP and MOVE: the first
        # step's STOP finishes near -40, far below every row, and rows that
        # only turn never hit a wall, so nothing may end the search early.
        models = [steer(make_model(shared_vocab, variant=variant, seed=s)) for s in (40, 41)]
        for model in models:
            bias = model.param("out_b").data
            bias[ACTION_INDEX[Action.STOP]] = bias[ACTION_INDEX[Action.MOVE]] = -40.0
        budget = 10
        for inst in lo_instances:
            step_calls[0] = 0
            got = beam_search(inst.world, inst.start, inst.instruction, models,
                              beam_width=4, max_actions=budget)
            assert len(got) == budget
            assert step_calls[0] == budget * len(models), inst.id


# The model's functions that the benchmark's tracer wraps, looked up by
# these names at call time.
TRACED_NAMES = [(nnet, "lstm_cell"), (nnet, "conv2d_valid"), (nnet, "backward"),
                (NavModel, "encode"), (NavModel, "attend"), (NavModel, "perceive"),
                (NavModel, "decode_step"), (NavModel, "sequence_loss")]


def test_traced_names_run_in_training_and_decoding(monkeypatch, shared_vocab, lo_instances):
    # A training step runs every traced name and forms its gradients in one
    # backward; decoding runs every one but the loss and backward.
    calls = Counter()
    for owner, name in TRACED_NAMES:
        key = f"{owner.__name__}.{name}"

        def counted(*args, _key=key, _original=owner.__dict__[name], **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    model = make_model(shared_vocab, seed=42)
    inst = lo_instances[0]
    model.train_on(inst)
    trained = calls.copy()
    calls.clear()
    beam_search(inst.world, inst.start, inst.instruction, [model], beam_width=4)
    decoded = calls.copy()
    assert trained["mazenav.nnet.backward"] == 1
    for owner, name in TRACED_NAMES:
        key = f"{owner.__name__}.{name}"
        assert trained[key] > 0, key
        training_only = key in ("mazenav.nnet.backward", "NavModel.sequence_loss")
        assert (decoded[key] == 0) if training_only else (decoded[key] > 0), key


class TestCheckpoints:
    def test_round_trip(self, shared_vocab, lo_instances, tmp_path):
        model = make_model(shared_vocab, seed=11)
        model.train_on(lo_instances[0])
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert again.config == model.config
        assert again.vocab.to_list() == model.vocab.to_list()
        for name, value in model.state_dict().items():
            assert np.array_equal(again.state_dict()[name], value)

    def test_loaded_model_predicts_identically(self, shared_vocab, lo_instances,
                                               tmp_path):
        model = make_model(shared_vocab, seed=12)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        inst = lo_instances[2]
        mine = beam_search(inst.world, inst.start, inst.instruction, [model],
                           beam_width=4, max_actions=8)
        theirs = beam_search(inst.world, inst.start, inst.instruction,
                             [again], beam_width=4, max_actions=8)
        assert mine == theirs

    def test_load_state_dict_validation(self, shared_vocab):
        model = make_model(shared_vocab)
        state = model.state_dict()
        missing = dict(state)
        del missing["out_b"]
        with pytest.raises(ValueError, match="missing"):
            model.load_state_dict(missing)
        extra = dict(state)
        extra["bogus"] = np.zeros(3)
        with pytest.raises(ValueError, match="unknown"):
            model.load_state_dict(extra)
        bad_shape = dict(state)
        bad_shape["out_b"] = np.zeros(7)
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(bad_shape)

    def test_failed_save_keeps_previous_pair(self, shared_vocab, tmp_path, monkeypatch):
        # the one checkpoint file is replaced whole or not at all
        model = make_model(shared_vocab, seed=4)
        save_checkpoint(model, str(tmp_path / "m"))
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())

        def broken_savez(fh, **arrays):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(make_model(shared_vocab, seed=5), str(tmp_path / "m"))
        monkeypatch.undo()
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before
        again = load_checkpoint(str(tmp_path / "m"))
        assert np.array_equal(again.param("dec_W").data, model.param("dec_W").data)

    def test_version_guard(self, shared_vocab, tmp_path):
        path = str(tmp_path / "model.npz")
        save_checkpoint(make_model(shared_vocab), path)
        rewrite_metadata(path, version=99)
        with pytest.raises(ValueError, match="unsupported checkpoint version 99"):
            load_checkpoint(path)


def rewrite_metadata(path, **changes):
    """Rewrite the npz at `path` with `changes` made to its metadata entry."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    metadata = json.loads(str(arrays[METADATA_ENTRY][()]))
    metadata.update(changes)
    arrays[METADATA_ENTRY] = np.array(json.dumps(metadata))
    np.savez(path, **arrays)
