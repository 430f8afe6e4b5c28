"""Success metrics, streaming learning-efficiency benchmark, and search.

The efficiency protocol is prequential: every fresh batch is evaluated
before the model trains on it, so the moving-average success rate always
reflects unseen data.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence

from . import navmodel
from .datastore import atomic_write, build_vocab, split_dataset
from .langgen import Instance, TaskCategory, generate_dataset
from .worldsim import Action, Outcome, Pose, WorldConfig, execute

SUCCESS_MODES = ("singleSentence", "paragraph")


def gold_final_pose(instance: Instance) -> Pose:
    pose, outcome = execute(instance.world, instance.start, instance.actions)
    if outcome is not Outcome.STOPPED:
        raise ValueError(f"gold actions of instance {instance.id} do not stop cleanly")
    return pose


def success(instance: Instance, predicted: Sequence[Action], mode: str) -> bool:
    """Execute `predicted` in the instance's world and compare end states.

    singleSentence requires the final position and orientation to match
    the gold path's; paragraph requires the position only. A wall hit or
    a sequence that never stops is a failure in both modes.
    """
    if mode not in SUCCESS_MODES:
        raise ValueError(f"unknown success mode {mode!r}")
    gold = gold_final_pose(instance)
    pose, outcome = execute(instance.world, instance.start, list(predicted))
    if outcome is not Outcome.STOPPED:
        return False
    if mode == "paragraph":
        return (pose.x, pose.y) == (gold.x, gold.y)
    return pose == gold


class ModelRunner:
    """Adapter giving a NavModel the predict/train_on interface the
    benchmark loop consumes. Any object with the same two methods works
    (e.g. a frozen oracle)."""

    def __init__(self, model, beam_width: Optional[int] = None,
                 max_actions: Optional[int] = None):
        self._model = model
        self.beam_width = beam_width  # None: beam_search takes the model's default
        self.max_actions = max_actions

    def predict(self, instance: Instance) -> list[Action]:
        return navmodel.beam_search(instance.world, instance.start,
                                    instance.instruction, [self._model],
                                    beam_width=self.beam_width,
                                    max_actions=self.max_actions)

    def train_on(self, instance: Instance) -> float:
        loss, _ = self._model.train_on(instance)
        return loss


@dataclass
class EfficiencyReport:
    mix_id: str
    threshold: float
    cap: int
    eval_batch: int
    instances_to_threshold: Optional[int]
    cap_exceeded: bool
    ma_trace: list[float] = field(default_factory=list)
    accuracy_trace: list[float] = field(default_factory=list)
    # Prequential code length in nats: the sum over the trained instances of
    # the loss train_on returns, each taken before that instance's update.
    code_length: float = 0.0

    def to_dict(self) -> dict:
        return {
            "mixId": self.mix_id,
            "threshold": self.threshold,
            "cap": self.cap,
            "evalBatch": self.eval_batch,
            "instancesToThreshold": self.instances_to_threshold,
            "capExceeded": self.cap_exceeded,
            "maTrace": self.ma_trace,
            "accuracyTrace": self.accuracy_trace,
            "codeLength": self.code_length,
        }

    def save(self, path: str) -> None:
        with atomic_write(path) as fh:
            json.dump(self.to_dict(), fh, indent=2)


def learning_efficiency(model_factory: Callable[[], object],
                        mix: Optional[dict[TaskCategory, float]],
                        threshold: float = 0.90, cap: int = 250000,
                        eval_batch: int = 100, seed: int = 0,
                        world_config: Optional[WorldConfig] = None,
                        mix_id: str = "", bank=None,
                        on_batch: Optional[Callable[[int, float, float], None]] = None,
                        ) -> EfficiencyReport:
    """Prequential test-then-train over a fresh instance stream.

    Per batch: measure single-sentence success on `eval_batch` unseen
    instances, fold it into the moving average
    ma = 0.95*ma + 0.05*accuracy (ma starts at 0), then train on exactly
    those instances. Stops once ma >= threshold or `cap` instances have
    been consumed. The losses that train_on returns are summed into the
    report's code_length.
    """
    model = model_factory()
    stream = generate_dataset(mix, cap, seed, config=world_config, bank=bank)
    report = EfficiencyReport(mix_id, threshold, cap, eval_batch, None, False)
    ma = 0.0
    consumed = 0
    trained_ids: set[int] = set()
    while consumed < cap:
        batch = list(islice(stream, min(eval_batch, cap - consumed)))
        if not batch:
            break
        wins = 0
        for inst in batch:
            if inst.id in trained_ids:
                raise RuntimeError(f"instance {inst.id} was trained on before its "
                                   "evaluation; evaluation must precede training")
            wins += int(success(inst, model.predict(inst), "singleSentence"))
        acc = wins / len(batch)
        ma = 0.95 * ma + 0.05 * acc
        consumed += len(batch)
        report.accuracy_trace.append(acc)
        report.ma_trace.append(ma)
        if on_batch is not None:
            on_batch(consumed, acc, ma)
        if ma >= threshold:
            report.instances_to_threshold = consumed
            return report
        for inst in batch:
            report.code_length += model.train_on(inst)
            trained_ids.add(inst.id)
    report.cap_exceeded = True
    return report


# ---------------------------------------------------------------------------
# Golden-section search


GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class SearchResult:
    x: float
    value: float
    evals: int
    converged: bool


def golden_section(objective: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-3, max_evals: int = 100) -> SearchResult:
    """Minimize a unimodal objective on [lo, hi] by golden-section search.

    Interval width shrinks by (sqrt(5)-1)/2 per iteration. On convergence
    the interval midpoint is returned; if the evaluation budget runs out
    first, the best point seen so far is returned with converged=False.
    """
    if not lo < hi:
        raise ValueError("golden_section requires lo < hi")
    if max_evals < 2:  # the first two probes are always taken
        raise ValueError(f"golden_section needs max_evals >= 2, got {max_evals}")
    a, b = float(lo), float(hi)
    x1 = b - GOLDEN_RATIO * (b - a)
    x2 = a + GOLDEN_RATIO * (b - a)
    f1, f2 = objective(x1), objective(x2)
    evals = 2
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    while b - a > tol:
        if evals >= max_evals:
            return SearchResult(best_x, best_f, evals, False)
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN_RATIO * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN_RATIO * (b - a)
            f2 = objective(x2)
        evals += 1
        if f1 < best_f:
            best_x, best_f = x1, f1
        if f2 < best_f:
            best_x, best_f = x2, f2
    mid = 0.5 * (a + b)
    return SearchResult(mid, min(f1, f2), evals, True)


# ---------------------------------------------------------------------------
# Fixed-dataset experiment (Table-style score grid)


def evaluate_ensemble(models: Sequence, instances: Iterable[Instance],
                      mode: str = "singleSentence",
                      beam_width: Optional[int] = None,
                      max_actions: Optional[int] = None) -> float:
    """Success rate of an ensemble (averaged distributions) on a set."""
    instances = list(instances)
    if not instances:
        return 0.0
    wins = 0
    for inst in instances:
        predicted = navmodel.beam_search(inst.world, inst.start, inst.instruction,
                                         models, beam_width=beam_width,
                                         max_actions=max_actions)
        wins += int(success(inst, predicted, mode))
    return wins / len(instances)


def run_fixed_experiment(instances: Sequence[Instance],
                         variants: Sequence[str] = ("languageOnly", "bagOfFeatures", "full"),
                         n_models: int = 10, seed: int = 0,
                         config=None, max_epochs: int = 200,
                         dev_limit: Optional[int] = None,
                         test_limit: Optional[int] = None,
                         csv_path: Optional[str] = None) -> list[dict]:
    """Train `n_models` per variant on a fixed 70/15/15 split and score them.

    Reports per-variant mean single-model success and ensemble success on
    dev and test (single-sentence criterion). `dev_limit`/`test_limit`
    cap the scored subset for desk-scale runs. Returns the score rows and
    optionally writes them as CSV.
    """
    split = split_dataset(instances, seed=seed)
    by_id = {inst.id: inst for inst in instances}
    train_set = [by_id[i] for i in split.train]
    dev_set = [by_id[i] for i in split.dev]
    test_set = [by_id[i] for i in split.test]
    vocab = build_vocab(train_set)
    dev_eval = dev_set[:dev_limit] if dev_limit else dev_set
    test_eval = test_set[:test_limit] if test_limit else test_set

    base = config if config is not None else navmodel.ModelConfig()
    rows = []
    for variant in variants:
        cfg = replace(base, variant=variant, vocab_size=len(vocab))
        models = []
        for k in range(n_models):
            model = navmodel.NavModel(cfg, vocab, seed=seed * 1000 + k)
            navmodel.train(model, train_set, dev_eval, max_epochs=max_epochs, seed=seed * 1000 + k)
            models.append(model)
        dev_single = [evaluate_ensemble([m], dev_eval) for m in models]
        test_single = [evaluate_ensemble([m], test_eval) for m in models]
        rows.append({
            "variant": variant,
            "models": n_models,
            "devAvg": sum(dev_single) / n_models,
            "devEnsemble": evaluate_ensemble(models, dev_eval),
            "testAvg": sum(test_single) / n_models,
            "testEnsemble": evaluate_ensemble(models, test_eval),
        })
    if csv_path:
        with atomic_write(csv_path, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return rows
