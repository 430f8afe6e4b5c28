"""Model architecture, training loop, and beam-search tests."""

import itertools
import math
import re

import numpy as np
import pytest

from mazenav import langgen, nnet
from mazenav.datastore import Vocabulary, build_vocab
from mazenav.langgen import TaskCategory, generate_dataset
from mazenav.navmodel import (
    ModelConfig,
    NavModel,
    beam_search,
    load_checkpoint,
    save_checkpoint,
    train,
)
from mazenav.worldsim import ACTION_INDEX, ACTIONS, Action, WorldConfig, step


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


class TestForward:
    def test_encode_shapes(self, shared_vocab):
        model = make_model(shared_vocab)
        h, cell = model.encode([1, 2, 3])
        assert h.shape == (16,) and cell.shape == (16,)

    def test_encode_empty_rejected(self, shared_vocab):
        with pytest.raises(ValueError, match="empty"):
            make_model(shared_vocab).encode([])

    def test_encode_is_order_sensitive(self, shared_vocab):
        model = make_model(shared_vocab)
        h1, _ = model.encode([1, 2, 3, 4])
        h2, _ = model.encode([4, 3, 2, 1])
        assert not np.allclose(h1.data, h2.data)

    def test_attention_is_a_distribution_over_channels(self, shared_vocab):
        model = make_model(shared_vocab)
        beta = model.attend(nnet.constant(np.linspace(-1, 1, 16)))
        assert beta.shape == (4,)
        assert (beta.data > 0).all()
        assert abs(beta.data.sum() - 1.0) < 1e-12

    def test_attention_uniform_for_zero_weights(self, shared_vocab):
        model = zero_model(make_model(shared_vocab))
        beta = model.attend(nnet.constant(np.ones(16)))
        assert np.allclose(beta.data, 0.25)

    def test_first_conv_layer_shape(self, shared_vocab, lo_instances, monkeypatch):
        model = make_model(shared_vocab, conv_width=5)
        shapes = []
        original = nnet.conv2d_valid

        def spy(filters, x):
            out = original(filters, x)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(nnet, "conv2d_valid", spy)
        inst = lo_instances[0]
        state = model.encode([1])
        model.percept_vector(inst.world, inst.start, state)
        assert shapes[0] == (5, 16, 4)

    def test_attention_gates_channels(self, shared_vocab, lo_instances):
        # with no extra convs the percept is the beta-scaled first layer,
        # so a one-hot beta must silence every other channel
        from mazenav.percept import encode_grid

        model = make_model(shared_vocab, extra_convs=())
        inst = lo_instances[0]
        grid = encode_grid(inst.world, inst.start)
        onehot = np.zeros(4)
        onehot[2] = 1.0
        out = model.perceive(grid, nnet.constant(onehot)).data.reshape(5, 18, 4)
        assert np.allclose(out[:, :, [0, 1, 3]], 0.0)
        assert out[:, :, 2].max() > 0.0

    def test_perceive_output_matches_config(self, shared_vocab, lo_instances):
        from mazenav.percept import encode_grid

        model = make_model(shared_vocab)
        inst = lo_instances[0]
        grid = encode_grid(inst.world, inst.start)
        beta = model.attend(model.encode([1, 2])[0])
        out = model.perceive(grid, beta)
        assert out.shape == (model.config.percept_dim(),)
        # final extra conv is squashed through a sigmoid
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_decode_step_distribution(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab)
        inst = lo_instances[0]
        state = model.encode(model.vocab.encode(inst.instruction))
        c_t = model.percept_vector(inst.world, inst.start, state)
        new_state, dist = model.decode_step(state, c_t, Action.STOP)
        assert dist.shape == (4,)
        assert abs(dist.data.sum() - 1.0) < 1e-12
        assert new_state[0].shape == (16,)

    def test_language_only_has_no_percept(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab, variant="languageOnly")
        names = {p.name for p in model.params()}
        assert not any(n.startswith(("attn_", "conv")) for n in names)
        assert "out_W2" not in names
        inst = lo_instances[0]
        state = model.encode([1])
        assert model.percept_vector(inst.world, inst.start, state) is None
        _, dist = model.decode_step(state, None, Action.STOP)
        assert abs(dist.data.sum() - 1.0) < 1e-12

    def test_bag_of_features_percept(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab, variant="bagOfFeatures")
        names = {p.name for p in model.params()}
        assert not any(n.startswith(("attn_", "conv")) for n in names)
        assert model.param("out_W2").data.shape == (4, 74)
        inst = lo_instances[0]
        c_t = model.percept_vector(inst.world, inst.start, model.encode([1]))
        assert c_t.shape == (74,)
        assert set(np.unique(c_t.data)) <= {0.0, 1.0}

    def test_vocab_size_mismatch_rejected(self, shared_vocab):
        cfg = tiny_config("full", vocab_size=len(shared_vocab) + 3)
        with pytest.raises(ValueError, match="vocab"):
            NavModel(cfg, shared_vocab)


class TestTraining:
    def test_zeroed_model_loss_is_uniform(self, shared_vocab, lo_instances):
        model = zero_model(make_model(shared_vocab))
        inst = lo_instances[0]
        loss = float(model.sequence_loss(inst).data)
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
        backward = nnet.backward

        def backward_with_huge(loss):
            backward(loss)
            model.param("dec_b").grad[0] = 1e200

        monkeypatch.setattr(nnet, "backward", backward_with_huge)
        loss, post_norm = model.train_on(lo_instances[0])
        assert math.isfinite(loss)
        assert post_norm == pytest.approx(5.0, rel=1e-12)
        after = model.state_dict()
        assert all(np.isfinite(after[k]).all() for k in after)
        assert not np.array_equal(before["dec_b"], after["dec_b"])

    def test_optimizer_scratch_bounded_by_largest_parameter(self, shared_vocab,
                                                            lo_instances, monkeypatch):
        # Adam works in blocks, so the shared scratch holds one array of the
        # largest parameter, not the two it would take whole.
        monkeypatch.setattr(nnet, "_SCRATCH", np.empty(0))
        model = make_model(shared_vocab, encoder_hidden=64)
        largest = max(p.data.size for p in model.params())
        assert largest > 2 * nnet._ADAM_BLOCK
        model.train_on(lo_instances[0])
        assert nnet._SCRATCH.size == largest

    def test_train_on_rejects_nonfinite_gradient(self, shared_vocab, lo_instances,
                                                 monkeypatch):
        model = make_model(shared_vocab)
        inst = lo_instances[0]
        before = model.state_dict()
        backward = nnet.backward

        def backward_with_inf(loss):
            backward(loss)
            model.param("dec_b").grad[0] = np.inf  # the loss itself stays finite

        monkeypatch.setattr(nnet, "backward", backward_with_inf)
        with pytest.raises(FloatingPointError, match=re.escape(str(inst.id))):
            model.train_on(inst)
        after = model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        assert all(p.t == 0 for p in model.params())

    def test_repeated_updates_reduce_loss(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab, variant="languageOnly")
        inst = lo_instances[0]
        first = float(model.sequence_loss(inst).data)
        for _ in range(150):
            model.train_on(inst, lr=3e-3)
        with nnet.no_grad():
            last = float(model.sequence_loss(inst).data)
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

    def test_history_csv(self, shared_vocab, lo_instances, tmp_path):
        model = make_model(shared_vocab, variant="languageOnly")
        log = tmp_path / "history.csv"
        result = train(model, lo_instances[:2], [], max_epochs=3,
                       patience=10, seed=0, log_path=str(log))
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "epoch,trainLoss,devSuccess"
        assert len(lines) == 1 + result.epochs_run


def greedy_rollout(model, inst, budget):
    """Independent argmax rollout used as the beam_width=1 oracle."""
    with nnet.no_grad():
        state = model.encode(model.vocab.encode(inst.instruction))
        prev = Action.STOP
        pose = inst.start
        out = []
        for _ in range(budget):
            c_t = model.percept_vector(inst.world, pose, state)
            state, dist = model.decode_step(state, c_t, prev)
            action = ACTIONS[int(np.argmax(dist.data))]
            out.append(action)
            result = step(inst.world, pose, action)
            if result.kind in ("stopped", "wall_hit"):
                break
            pose = result.pose
            prev = action
    return out


class TestBeamSearch:
    def test_beam_one_equals_greedy(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab, seed=5)
        for inst in lo_instances:
            predicted = beam_search(inst.world, inst.start, [inst.instruction],
                                    [model], beam_width=1, max_actions=10)
            assert predicted == greedy_rollout(model, inst, 10)

    def test_identical_ensemble_matches_single(self, shared_vocab, lo_instances):
        # averaging k identical distributions is bit-exact for power-of-two k
        model = make_model(shared_vocab, seed=6)
        for inst in lo_instances[:6]:
            single = beam_search(inst.world, inst.start, [inst.instruction],
                                 [model], beam_width=4, max_actions=8)
            duo = beam_search(inst.world, inst.start, [inst.instruction],
                              [model, model], beam_width=4, max_actions=8)
            quad = beam_search(inst.world, inst.start, [inst.instruction],
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
            with nnet.no_grad():
                enc = model.encode(model.vocab.encode(inst.instruction))
                stack = [(inst.start, enc, Action.STOP, 0.0, [])]
                while stack:
                    pose, state, prev, score, acts = stack.pop()
                    if len(acts) == budget:
                        best = max(best, (score, acts))
                        continue
                    new_state, dist = model.decode_step(state, None, prev)
                    for idx, action in enumerate(ACTIONS):
                        s = score + math.log(dist.data[idx])
                        result = step(inst.world, pose, action)
                        seq = acts + [action]
                        if result.kind == "stopped":
                            best = max(best, (s, seq))
                        elif result.kind == "wall_hit":
                            fallback = max(fallback, (s, seq))
                        else:
                            stack.append((result.pose, new_state, action, s, seq))
            return best if best[1] is not None else fallback

        expected_score, expected = brute_force()
        got = beam_search(inst.world, inst.start, [inst.instruction], [model],
                          beam_width=300, max_actions=budget)
        assert got == expected

    def test_multi_sentence_chains_poses(self, shared_vocab, lo_instances):
        model = make_model(shared_vocab, seed=8)
        a, b = lo_instances[0], lo_instances[1]
        combined = beam_search(a.world, a.start,
                               [a.instruction, b.instruction], [model],
                               beam_width=2, max_actions=6)
        assert len(combined) <= 12
        assert all(isinstance(x, Action) for x in combined)

    def test_requires_models_and_sentences(self, shared_vocab, lo_instances):
        inst = lo_instances[0]
        model = make_model(shared_vocab)
        with pytest.raises(ValueError):
            beam_search(inst.world, inst.start, [inst.instruction], [])
        with pytest.raises(ValueError):
            beam_search(inst.world, inst.start, [], [model])


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
        mine = beam_search(inst.world, inst.start, [inst.instruction], [model],
                           beam_width=4, max_actions=8)
        theirs = beam_search(inst.world, inst.start, [inst.instruction],
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

    def test_version_guard(self, shared_vocab, tmp_path):
        import json

        model = make_model(shared_vocab)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        sidecar = json.loads((tmp_path / "model.npz.json").read_text())
        sidecar["version"] = 99
        (tmp_path / "model.npz.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)
