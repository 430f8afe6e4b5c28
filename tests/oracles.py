"""Reference helpers that only the tests use: closed forms and independent
computations that the package's results are checked against.

- segment_path splits a gold action sequence into its turn/move runs;
- bfs_distances gives hop distances by the package's breadth-first search;
- action_accuracy scores a model's teacher-forced argmax actions;
- finite_diff_check compares a model's gradients with central differences;
- oracle_crossing_batch is the closed form of the moving average's
  crossing point.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Optional, Sequence

import numpy as np

from mazenav.langgen import Instance, Segment, _segments
from mazenav.worldsim import Action, Node, WorldMap, _grid, _reached


def segment_path(actions: Sequence[Action]) -> list[Segment]:
    """Split an action sequence into maximal turn/move runs.

    A trailing STOP is stripped; STOP anywhere else is rejected.
    """
    body = list(actions)
    if Action.STOP in body[:-1]:
        raise ValueError("STOP before end of action sequence")
    return list(_segments(body))


def bfs_distances(world: WorldMap, start: Node, stop_at: Node | None = None) -> dict[Node, int]:
    """Hop distances from `start` to every reachable node. With `stop_at`, the
    search ends once that node is reached, so farther nodes may be missing."""
    width = world.width
    parent = _reached(world, start[1] * width + start[0],
                      None if stop_at is None else stop_at[1] * width + stop_at[0])
    hops = {}
    for i, j in parent.items():
        hops[i] = hops[j] + 1 if i != j else 0
    nodes = _grid(width, world.height).nodes
    return {nodes[i]: d for i, d in hops.items()}


def action_accuracy(model, instances: Iterable[Instance]) -> float:
    """Per-action greedy teacher-forced accuracy of `model`: the share of
    gold actions that are the argmax of the model's distribution at their
    step."""
    correct = total = 0
    for inst in instances:
        record = model.sequence_loss(inst)
        for step_record, gold in zip(record.steps, record.golds):
            correct += int(np.argmax(step_record["dist"][0]) == gold)
            total += 1
    return correct / max(total, 1)


def finite_diff_check(model, instance, h: float = 1e-5, tol: float = 1e-4,
                      samples_per_param: Optional[int] = 8,
                      seed: int = 0) -> dict:
    """Compare backprop gradients against central finite differences.

    `model` must expose params(), sequence_loss(instance), whose result
    holds the loss as `loss`, and backward(result), which writes the
    gradients that training applies into each Param's grad. For each
    parameter a deterministic sample of entries (all entries when
    samples_per_param is None) is perturbed by ±h and the difference of
    the loss is compared with that gradient. Relative error uses
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-6) so that
    near-zero gradient pairs are compared absolutely.

    Returns {"pass": bool, "maxRelError": float, "perParam": {name: err}}.
    """
    params = list(model.params())
    model.backward(model.sequence_loss(instance))
    grads = {p.name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for p in params}

    rng = random.Random(seed)
    per_param: dict[str, float] = {}
    worst = 0.0
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
            up = float(model.sequence_loss(instance).loss)
            flat[k] = orig - h
            down = float(model.sequence_loss(instance).loss)
            flat[k] = orig
            numeric = (up - down) / (2.0 * h)
            analytic = float(grads[p.name].reshape(-1)[k])
            denom = max(abs(analytic), abs(numeric), 1e-6)
            err = max(err, abs(analytic - numeric) / denom)
        per_param[p.name] = err
        worst = max(worst, err)
    return {"pass": worst < tol, "maxRelError": worst, "perParam": per_param}


def oracle_crossing_batch(threshold: float = 0.90) -> int:
    """Closed form: smallest k with 1 - 0.95**k >= threshold."""
    return math.ceil(math.log(1.0 - threshold) / math.log(0.95))
