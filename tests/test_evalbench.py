"""Success metrics, prequential benchmark, and golden-section tests."""

import dataclasses
import math

import numpy as np
import pytest

from mazenav import evalbench
from mazenav.datastore import build_vocab
from mazenav.evalbench import (
    GOLDEN_RATIO,
    EfficiencyReport,
    ModelRunner,
    evaluate_ensemble,
    gold_final_pose,
    golden_section,
    learning_efficiency,
    run_fixed_experiment,
    success,
)
from mazenav.langgen import TaskCategory, generate_dataset
from mazenav.navmodel import ModelConfig, NavModel
from mazenav.worldsim import Action, Direction, WorldConfig, execute
from oracles import oracle_crossing_batch

SMALL_WORLD = WorldConfig(width=5, height=5)
LO_MIX = {TaskCategory.LANGUAGE_ONLY: 1.0}


@pytest.fixture(scope="module")
def instances():
    return list(generate_dataset(None, 30, master_seed=99, config=SMALL_WORLD))


class TestSuccess:
    def test_gold_actions_always_succeed(self, instances):
        for inst in instances:
            assert success(inst, inst.actions, "singleSentence")
            assert success(inst, inst.actions, "paragraph")

    def test_orientation_matters_only_for_single_sentence(self, instances):
        for inst in instances[:10]:
            # spinning in place before stopping keeps the position but
            # rotates the final heading
            spun = list(inst.actions[:-1]) + [Action.RIGHT, Action.STOP]
            assert not success(inst, spun, "singleSentence")
            assert success(inst, spun, "paragraph")

    def test_missing_stop_fails(self, instances):
        inst = instances[0]
        assert not success(inst, list(inst.actions[:-1]), "singleSentence")
        assert not success(inst, [], "paragraph")

    def test_wall_hit_fails(self, instances):
        inst = instances[0]
        pose = inst.start
        node = (pose.x, pose.y)
        blocked = next(d for d in Direction
                       if inst.world.neighbor_toward(node, d) is None)
        turns = (blocked - pose.dir) % 4
        spin = [Action.RIGHT] * turns
        assert not success(inst, spin + [Action.MOVE, Action.STOP], "paragraph")

    def test_unknown_mode_rejected(self, instances):
        with pytest.raises(ValueError, match="mode"):
            success(instances[0], [], "sentence")

    def test_gold_final_pose_requires_clean_stop(self, instances):
        inst = instances[0]
        pose = gold_final_pose(inst)
        final, _ = execute(inst.world, inst.start, inst.actions)
        assert pose == final
        broken = dataclasses.replace(inst, actions=list(inst.actions[:-1]))
        with pytest.raises(ValueError, match="stop"):
            gold_final_pose(broken)


class _Oracle:
    """Perfect predictor; records the order of evaluation and training."""

    def __init__(self):
        self.log = []

    def predict(self, instance):
        self.log.append(("eval", instance.id))
        return list(instance.actions)

    def train_on(self, instance):
        self.log.append(("train", instance.id))
        return 0.0


class _Hopeless:
    def predict(self, instance):
        return []

    def train_on(self, instance):
        return 0.0


class _Lossy:
    """Never succeeds; returns a different loss per instance and keeps them."""

    def __init__(self):
        self.losses = []

    def predict(self, instance):
        return []

    def train_on(self, instance):
        self.losses.append(0.1 * (instance.id % 7) + 1.0 / 3.0)
        return self.losses[-1]


class TestLearningEfficiency:
    def test_oracle_crossing_closed_form(self):
        assert oracle_crossing_batch(0.90) == 45
        for threshold in (0.5, 0.8, 0.9, 0.99):
            k = oracle_crossing_batch(threshold)
            assert 1 - 0.95 ** k >= threshold
            assert 1 - 0.95 ** (k - 1) < threshold

    def test_oracle_reaches_threshold_at_batch_45(self):
        oracle = _Oracle()
        report = learning_efficiency(lambda: oracle, LO_MIX, threshold=0.90,
                                     cap=10000, eval_batch=10, seed=4,
                                     world_config=SMALL_WORLD, mix_id="lo")
        assert report.instances_to_threshold == 45 * 10
        assert not report.cap_exceeded
        assert len(report.ma_trace) == 45
        for k, ma in enumerate(report.ma_trace, start=1):
            assert ma == pytest.approx(1 - 0.95 ** k, abs=1e-12)
        assert all(acc == 1.0 for acc in report.accuracy_trace)

    def test_moving_average_starts_at_zero(self):
        report = learning_efficiency(_Oracle, LO_MIX, threshold=0.99,
                                     cap=20, eval_batch=10, seed=4,
                                     world_config=SMALL_WORLD)
        assert report.ma_trace[0] == pytest.approx(0.05)

    def test_eval_strictly_precedes_training(self):
        oracle = _Oracle()
        learning_efficiency(lambda: oracle, LO_MIX, threshold=0.90,
                            cap=30, eval_batch=10, seed=4,
                            world_config=SMALL_WORLD)
        first_train = oracle.log.index(("train", oracle.log[0][1]))
        # the whole first batch is evaluated before any training happens
        assert all(kind == "eval" for kind, _ in oracle.log[:10])
        evaluated, trained = set(), set()
        for kind, iid in oracle.log:
            if kind == "train":
                assert iid in evaluated
                trained.add(iid)
            else:
                assert iid not in trained
                evaluated.add(iid)
        assert first_train == 10

    def test_crossing_batch_is_not_trained_on(self):
        oracle = _Oracle()
        learning_efficiency(lambda: oracle, LO_MIX, threshold=0.90,
                            cap=10000, eval_batch=10, seed=4,
                            world_config=SMALL_WORLD)
        trained = [e for e in oracle.log if e[0] == "train"]
        assert len(trained) == 44 * 10

    def test_cap_exceeded_without_learning(self):
        report = learning_efficiency(_Hopeless, LO_MIX, threshold=0.90,
                                     cap=25, eval_batch=10, seed=4,
                                     world_config=SMALL_WORLD)
        assert report.cap_exceeded
        assert report.instances_to_threshold is None
        # 10 + 10 + 5: the last batch is truncated to respect the cap
        assert len(report.accuracy_trace) == 3
        assert all(a == 0.0 for a in report.accuracy_trace)
        assert max(report.ma_trace) == 0.0

    def test_code_length_sums_returned_losses(self):
        lossy = _Lossy()
        report = learning_efficiency(lambda: lossy, LO_MIX, threshold=0.90,
                                     cap=25, eval_batch=10, seed=4,
                                     world_config=SMALL_WORLD)
        assert len(lossy.losses) == 25
        assert report.code_length == sum(lossy.losses)
        assert report.to_dict()["codeLength"] == report.code_length
        perfect = learning_efficiency(_Oracle, LO_MIX, threshold=0.90,
                                      cap=10000, eval_batch=10, seed=4,
                                      world_config=SMALL_WORLD)
        assert perfect.instances_to_threshold == 450
        assert perfect.code_length == 0.0

    def test_on_batch_callback(self):
        seen = []
        learning_efficiency(_Oracle, LO_MIX, threshold=0.90, cap=30,
                            eval_batch=10, seed=4, world_config=SMALL_WORLD,
                            on_batch=lambda c, a, m: seen.append((c, a, m)))
        assert [c for c, _, _ in seen] == [10, 20, 30]
        assert seen[0][1] == 1.0
        assert seen[0][2] == pytest.approx(0.05)

    def test_stream_repeating_a_trained_instance_raises(self, monkeypatch):
        first = list(generate_dataset(LO_MIX, 10, 4, config=SMALL_WORLD))

        def repeating(mix, count, seed, config=None, bank=None):
            yield from first
            yield first[3]  # already trained on with the first batch

        monkeypatch.setattr(evalbench, "generate_dataset", repeating)
        oracle = _Oracle()
        with pytest.raises(RuntimeError, match=f"instance {first[3].id} "):
            learning_efficiency(lambda: oracle, LO_MIX, threshold=0.90, cap=30,
                                eval_batch=10, seed=4, world_config=SMALL_WORLD)
        # the repeat is rejected before it is evaluated a second time
        assert oracle.log == ([("eval", inst.id) for inst in first]
                              + [("train", inst.id) for inst in first])

    def test_report_round_trip(self, tmp_path):
        import json

        report = EfficiencyReport("mix", 0.9, 100, 10, 50, False,
                                  [0.05], [1.0], 12.5)
        path = tmp_path / "report.json"
        report.save(str(path))
        data = json.loads(path.read_text())
        assert data["instancesToThreshold"] == 50
        assert data["maTrace"] == [0.05]
        assert data["capExceeded"] is False
        assert data["codeLength"] == 12.5


class TestModelRunner:
    def test_wraps_model_predict_and_train(self, instances):
        vocab = build_vocab(instances)
        cfg = ModelConfig(vocab_size=len(vocab), embed_dim=8,
                          encoder_hidden=8, variant="languageOnly")
        runner = ModelRunner(NavModel(cfg, vocab, seed=0), beam_width=1,
                             max_actions=6)
        predicted = runner.predict(instances[0])
        assert predicted and all(isinstance(a, Action) for a in predicted)
        loss = runner.train_on(instances[0])
        assert np.isfinite(loss) and loss > 0


class TestGoldenSection:
    def test_ratio_constant(self):
        assert GOLDEN_RATIO == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)

    def test_quadratic_minimum(self):
        calls = []

        def f(x):
            calls.append(x)
            return (x - 3.0) ** 2

        result = golden_section(f, 0.0, 10.0, tol=1e-3)
        assert result.converged
        assert result.x == pytest.approx(3.0, abs=1e-3)
        assert result.evals == len(calls)
        assert result.evals < 30

    def test_asymmetric_minimum(self):
        result = golden_section(lambda x: abs(x - math.e), 0.0, 4.0, tol=1e-4)
        assert result.converged
        assert result.x == pytest.approx(math.e, abs=1e-4)

    def test_monotone_goes_to_boundary(self):
        result = golden_section(lambda x: x, 0.0, 2.0, tol=1e-3)
        assert result.converged
        assert result.x == pytest.approx(0.0, abs=1e-3)

    def test_interval_shrinks_by_golden_ratio(self):
        widths = []
        xs = []

        def f(x):
            xs.append(x)
            return (x - 0.4) ** 2

        golden_section(f, 0.0, 1.0, tol=1e-2)
        # probe spacing: first two probes split [0,1] at 1-r and r
        assert xs[0] == pytest.approx(1 - GOLDEN_RATIO)
        assert xs[1] == pytest.approx(GOLDEN_RATIO)

    def test_budget_exhaustion_returns_best_seen(self):
        def f(x):
            return (x - 3.0) ** 2

        result = golden_section(f, 0.0, 10.0, tol=1e-9, max_evals=5)
        assert not result.converged
        assert result.evals == 5
        assert result.value == pytest.approx((result.x - 3.0) ** 2)
        assert abs(result.x - 3.0) < 5.0

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            golden_section(lambda x: x, 2.0, 2.0)

    @pytest.mark.parametrize("max_evals", [0, 1])
    def test_budget_below_two_probes_rejected_before_probing(self, max_evals):
        probes = []
        with pytest.raises(ValueError, match=f"max_evals >= 2, got {max_evals}"):
            golden_section(probes.append, 0.0, 1.0, max_evals=max_evals)
        assert probes == []


class TestFixedExperiment:
    def test_small_grid_run(self, instances, tmp_path):
        csv_path = tmp_path / "scores.csv"
        cfg = ModelConfig(embed_dim=8, encoder_hidden=8,
                          variant="languageOnly")
        rows = run_fixed_experiment(instances, variants=("languageOnly",),
                                    n_models=2, seed=1, config=cfg,
                                    max_epochs=2, csv_path=str(csv_path))
        assert len(rows) == 1
        row = rows[0]
        assert row["variant"] == "languageOnly"
        assert row["models"] == 2
        for key in ("devAvg", "devEnsemble", "testAvg", "testEnsemble"):
            assert 0.0 <= row[key] <= 1.0
        header = csv_path.read_text().splitlines()[0]
        assert header == "variant,models,devAvg,devEnsemble,testAvg,testEnsemble"

    def test_ensemble_of_empty_set_scores_zero(self, instances):
        vocab = build_vocab(instances)
        cfg = ModelConfig(vocab_size=len(vocab), embed_dim=8,
                          encoder_hidden=8, variant="languageOnly")
        model = NavModel(cfg, vocab, seed=0)
        assert evaluate_ensemble([model], []) == 0.0
