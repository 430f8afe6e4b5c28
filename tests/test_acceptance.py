"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Each test checks the documented property and its wall-clock budget, then
prints a single summary line. Criterion 11 runs the scaled three-variant
comparison and is marked `extended` (deselected by default; run it with
`pytest -m extended`).
"""

import json
import math
import random
import time
from collections import Counter, deque
from itertools import islice

import numpy as np
import pytest

from mazenav import langgen, percept, worldsim
from mazenav.datastore import (
    Vocabulary,
    build_vocab,
    instance_to_dict,
    read_instances,
    write_instances,
)
from mazenav.evalbench import (
    ModelRunner,
    evaluate_ensemble,
    learning_efficiency,
    run_fixed_experiment,
    success,
)
from mazenav.langgen import (
    DEFAULT_MIX,
    TaskCategory,
    generate_dataset,
    match_pattern,
)
from mazenav.navmodel import ModelConfig, NavModel, beam_search
from mazenav.worldsim import (
    ACTION_INDEX,
    ACTIONS,
    Action,
    Outcome,
    WorldConfig,
    execute,
    generate_maze,
    sample_endpoints,
    shortest_path,
    step,
)
from oracles import (
    action_accuracy,
    bfs_distances,
    finite_diff_check,
    oracle_crossing_batch,
    segment_path,
)
from tape import TapeModel


def report(num, name, ok, detail):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module")
def audited_10k():
    """10^4 Table-1-mix instances generated once, with every accepted
    endpoint pair independently re-checked against the BFS oracle."""
    original = worldsim.sample_endpoints
    violations = [0]

    def audited(world, rng, min_dist=4, max_attempts=64):
        path = original(world, rng, min_dist, max_attempts)
        start, goal = path[0], path[-1]
        hops = bfs_distances(world, start, stop_at=goal).get(goal)
        if hops is None or hops < 4:
            violations[0] += 1
        return path

    langgen.sample_endpoints = audited
    try:
        started = time.time()
        instances = list(generate_dataset(DEFAULT_MIX, 10_000, master_seed=100))
        elapsed = time.time() - started
    finally:
        langgen.sample_endpoints = original
    return instances, violations[0], elapsed


def test_criterion_01_maze_correctness():
    started = time.time()
    rng = random.Random(10)
    failures = 0
    for _ in range(1000):
        edges = generate_maze(8, 8, rng)
        if len(edges) != 63:
            failures += 1
            continue
        adjacency = {}
        for a, b in edges:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        seen = {(0, 0)}
        queue = deque([(0, 0)])
        while queue:
            node = queue.popleft()
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        # 64 reachable nodes with 63 edges <=> connected and acyclic
        if len(seen) != 64:
            failures += 1
    elapsed = time.time() - started
    report(1, "perfect mazes", failures == 0 and elapsed < 5.0,
           f"1000 mazes, {failures} failures, {elapsed:.2f}s < 5s")


def test_criterion_02_path_optimality():
    started = time.time()
    rng = random.Random(11)
    mismatches = 0
    checked = 0
    while checked < 1000:
        world = worldsim.generate_world(rng, WorldConfig())
        for _ in range(4):
            if checked >= 1000:
                break
            sampled = sample_endpoints(world, rng, min_dist=1)
            start, goal = sampled[0], sampled[-1]
            path = shortest_path(world, start, goal)
            oracle = bfs_distances(world, start, stop_at=goal)[goal]
            if len(path) - 1 != oracle or sampled != path:
                mismatches += 1
            checked += 1
    elapsed = time.time() - started
    report(2, "optimal paths", mismatches == 0 and elapsed < 5.0,
           f"1000 triples, {mismatches} mismatches, {elapsed:.2f}s < 5s")


def test_criterion_03_generator_soundness(audited_10k):
    instances, endpoint_violations, gen_elapsed = audited_10k
    started = time.time()
    failures = []
    for inst in instances:
        pose, outcome = execute(inst.world, inst.start, inst.actions)
        if outcome is not Outcome.STOPPED:
            failures.append((inst.id, "execution"))
            continue
        segments = segment_path(inst.actions)
        binding = match_pattern(inst.category, inst.world, inst.start, segments)
        if binding is None or binding.category is not inst.category:
            failures.append((inst.id, "category"))
    elapsed = gen_elapsed + (time.time() - started)
    ok = (not failures and endpoint_violations == 0 and elapsed < 120
          and len(instances) == 10_000)
    report(3, "generator soundness", ok,
           f"10000 instances, {len(failures)} oracle failures, "
           f"{endpoint_violations} endpoint-distance violations, "
           f"{elapsed:.1f}s < 120s")


def test_criterion_04_balance_control():
    started = time.time()
    counts = Counter()
    for inst in generate_dataset(DEFAULT_MIX, 100_000, master_seed=101):
        counts[inst.category] += 1
    elapsed = time.time() - started
    worst = 0.0
    for category, weight in DEFAULT_MIX.items():
        achieved = counts[category] / 100_000
        worst = max(worst, abs(achieved - weight / sum(DEFAULT_MIX.values())))
    ok = worst < 0.015 and elapsed < 600
    report(4, "category balance", ok,
           f"100000 instances, worst deviation {100 * worst:.2f} pts < 1.5, "
           f"{elapsed:.0f}s < 600s")


def test_criterion_05_grid_invariants():
    started = time.time()
    rng = random.Random(12)
    bad = 0
    checked = 0
    while checked < 10_000:
        world = worldsim.generate_world(rng, WorldConfig())
        for _ in range(50):
            if checked >= 10_000:
                break
            pose = worldsim.Pose(rng.randrange(8), rng.randrange(8),
                                 worldsim.Direction(rng.randrange(4)))
            grid = percept.encode_grid(world, pose)
            ok = grid.shape == (5, 20, 20) and grid.dtype == np.uint8
            ok = ok and np.array_equal(grid[4], grid[0])
            # cell structure: exactly one of node/hall/blocked per cell
            flags = grid[:, :, 17].astype(int) + grid[:, :, 18] + grid[:, :, 19]
            ok = ok and (flags == 1).all()
            node_cells = grid[:, :, 17] == 1
            hall_cells = grid[:, :, 18] == 1
            blocked = grid[:, :, 19] == 1
            ok = ok and (grid[:, :, 6:17][node_cells] == 0).all()
            ok = ok and (grid[:, :, 0:6][hall_cells] == 0).all()
            ok = ok and (grid[:, :, 0:17][blocked] == 0).all()
            ok = ok and (grid[:, :, 0:6][node_cells].sum(axis=1) <= 1).all()
            ok = ok and (grid[:, :, 6:14][hall_cells].sum(axis=1) == 1).all()
            ok = ok and (grid[:, :, 14:17][hall_cells].sum(axis=1) == 1).all()
            # column 0 of every row is the agent's own node
            ok = ok and (grid[:, 0, 17] == 1).all()
            # quarter turn right == cyclic row shift (row 4 mirrors row 0)
            turned = percept.encode_grid(
                world, worldsim.Pose(pose.x, pose.y, pose.dir.clockwise(1)))
            for i in range(4):
                ok = ok and np.array_equal(turned[i], grid[(i + 1) % 4])
            bad += int(not ok)
            checked += 1
    elapsed = time.time() - started
    report(5, "grid invariants", bad == 0 and elapsed < 30,
           f"10000 encodings, {bad} violations, {elapsed:.1f}s < 30s")


def test_criterion_06_gradient_exactness():
    started = time.time()
    instances = list(generate_dataset(None, 10, master_seed=102))
    vocab = build_vocab(instances)
    config = ModelConfig(vocab_size=len(vocab), embed_dim=8, encoder_hidden=8,
                         attention_hidden=8, conv_width=3, conv_channels=4,
                         extra_convs=((3, 3, 8),), variant="full")
    model = NavModel(config, vocab, seed=0)
    worst = 0.0
    for k, inst in enumerate(instances):
        result = finite_diff_check(model, inst, h=1e-5, tol=1e-4,
                                   samples_per_param=4, seed=k)
        worst = max(worst, result["maxRelError"])
    elapsed = time.time() - started
    report(6, "gradient exactness", worst < 1e-4 and elapsed < 60,
           f"10 instances, max rel error {worst:.2e} < 1e-4, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_07_conv_shape():
    instances = list(generate_dataset(None, 1, master_seed=103))
    vocab = build_vocab(instances)
    config = ModelConfig(vocab_size=len(vocab), embed_dim=8, encoder_hidden=8,
                         attention_hidden=8, conv_width=5, conv_channels=12,
                         extra_convs=((5, 5, 8),), variant="full")
    model = NavModel(config, vocab, seed=0)
    from mazenav import nnet

    shapes = []
    original = nnet.conv2d_valid

    def spy(*args):
        out = original(*args)
        shapes.append(out.shape)
        return out

    nnet.conv2d_valid = spy
    try:
        inst = instances[0]
        beam_search(inst.world, inst.start, inst.instruction, [model],
                    beam_width=1, max_actions=1)
    finally:
        nnet.conv2d_valid = original
    # one decoder row, so one image: its output is (5, 16, d1)
    ok = shapes and shapes[0] == (1, 5, 16, 12)
    report(7, "conv shape trace", ok,
           f"layer-1 output {shapes[0] if shapes else None} == (1, 5, 16, d1)")


def test_criterion_08_optimization_smoke():
    started = time.time()
    instances = list(generate_dataset(DEFAULT_MIX, 50, master_seed=20))
    vocab = build_vocab(instances)
    config = ModelConfig(vocab_size=len(vocab), embed_dim=16,
                         encoder_hidden=32, attention_hidden=16,
                         conv_width=5, conv_channels=8,
                         extra_convs=((5, 5, 8),), variant="full")
    model = NavModel(config, vocab, seed=0)
    rng = random.Random(0)
    order = list(range(len(instances)))
    max_norm = 0.0
    reached_at = None
    accuracy = 0.0
    for epoch in range(1, 101):
        rng.shuffle(order)
        for i in order:
            _, post_norm = model.train_on(instances[i])
            max_norm = max(max_norm, post_norm)
        accuracy = action_accuracy(model, instances)
        if accuracy >= 0.99:
            reached_at = epoch
            break
    elapsed = time.time() - started
    ok = reached_at is not None and max_norm <= 5.0 + 1e-9 and elapsed < 300
    report(8, "optimization smoke", ok,
           f"accuracy {accuracy:.3f} at epoch {reached_at}, "
           f"max post-clip norm {max_norm:.3f} <= 5, {elapsed:.0f}s < 300s")


class _PerfectOracle:
    def predict(self, instance):
        return list(instance.actions)

    def train_on(self, instance):
        return 0.0


def test_criterion_09_protocol_arithmetic():
    closed_form = oracle_crossing_batch(0.90)
    report_obj = learning_efficiency(
        _PerfectOracle, {TaskCategory.LANGUAGE_ONLY: 1.0}, threshold=0.90,
        cap=10_000, eval_batch=10, seed=13,
        world_config=WorldConfig(width=5, height=5))
    batches = len(report_obj.ma_trace)
    ok = (closed_form == 45 and batches == 45
          and report_obj.instances_to_threshold == 45 * 10
          and report_obj.ma_trace[-1] >= 0.90
          and report_obj.ma_trace[-2] < 0.90)
    report(9, "protocol arithmetic", ok,
           f"closed form {closed_form} == empirical {batches} == 45")


# Budget fixed by a pilot run of this exact configuration: the moving
# average crossed 0.90 after 5500 streamed instances in 52 s (floor is
# 4500, the perfect-oracle crossing), so a 16k cap gives ~3x headroom
# while staying far inside the 250k cap.
CRITERION_10_CAP = 16_000


def test_criterion_10_desk_scale_trainability():
    started = time.time()
    from mazenav.langgen import TemplateBank

    bank = TemplateBank.load_default()
    vocab = Vocabulary(bank.vocabulary())
    config = ModelConfig(vocab_size=len(vocab), embed_dim=32,
                         encoder_hidden=64, attention_hidden=32,
                         conv_width=5, conv_channels=16,
                         extra_convs=((5, 5, 8),), variant="full")

    def factory():
        return ModelRunner(NavModel(config, vocab, seed=0), beam_width=1,
                           max_actions=35)

    result = learning_efficiency(
        factory, {TaskCategory.LANGUAGE_ONLY: 1.0}, threshold=0.90,
        cap=CRITERION_10_CAP, eval_batch=100, seed=0, bank=bank,
        mix_id="languageOnly")
    elapsed = time.time() - started
    crossed = result.instances_to_threshold
    ok = (not result.cap_exceeded and crossed is not None
          and crossed <= CRITERION_10_CAP and elapsed < 1800)
    report(10, "desk-scale trainability", ok,
           f"ma >= 0.90 after {crossed} instances "
           f"(cap {CRITERION_10_CAP} << 250000), {elapsed:.0f}s < 1800s")


@pytest.mark.extended
def test_criterion_11_variant_ordering():
    # Each model trains to dev convergence (patience 10); the epoch cap is
    # a runaway guard, not the stopping rule.
    started = time.time()
    instances = list(generate_dataset(DEFAULT_MIX, 10_000, master_seed=7))
    config = ModelConfig(embed_dim=24, encoder_hidden=48, attention_hidden=24,
                         conv_width=5, conv_channels=12,
                         extra_convs=((5, 5, 8),))
    wins = 0
    details = []
    for seed in range(5):
        rows = run_fixed_experiment(
            instances, variants=("languageOnly", "bagOfFeatures", "full"),
            n_models=2, seed=seed, config=config, max_epochs=25,
            dev_limit=300)
        scores = {row["variant"]: row["testEnsemble"] for row in rows}
        ordered = (scores["full"] > scores["bagOfFeatures"] > scores["languageOnly"])
        wins += int(ordered)
        details.append(f"seed {seed}: full={scores['full']:.3f} "
                       f"bof={scores['bagOfFeatures']:.3f} "
                       f"lo={scores['languageOnly']:.3f} "
                       f"{'ordered' if ordered else 'unordered'}")
    elapsed = time.time() - started
    report(11, "variant ordering (scaled surrogate)", wins >= 4,
           f"full > bof > lo in {wins}/5 seeds, {elapsed / 3600:.1f}h; "
           + "; ".join(details))


def test_criterion_12_beam_and_ensemble_identities():
    started = time.time()
    instances = list(generate_dataset(DEFAULT_MIX, 200, master_seed=104))
    vocab = build_vocab(instances)
    config = ModelConfig(vocab_size=len(vocab), embed_dim=16,
                         encoder_hidden=32, attention_hidden=16,
                         conv_width=5, conv_channels=8,
                         extra_convs=((5, 5, 8),), variant="full",
                         max_actions=8)
    model = NavModel(config, vocab, seed=9)

    tape_model = TapeModel(model)

    def greedy(inst):
        state = tape_model.encode(model.vocab.encode(inst.instruction))
        prev = Action.STOP
        pose = inst.start
        out = []
        for _ in range(config.max_actions):
            c_t = tape_model.percept_vector(inst.world, pose, state)
            state, dist = tape_model.decode_step(state, c_t, prev)
            action = ACTIONS[int(np.argmax(dist.data))]
            out.append(action)
            pose = step(inst.world, pose, action)
            if pose is None or action is Action.STOP:
                break
            prev = action
        return out

    beam_mismatches = 0
    ensemble_mismatches = 0
    for inst in instances:
        one = beam_search(inst.world, inst.start, inst.instruction, [model],
                          beam_width=1)
        if one != greedy(inst):
            beam_mismatches += 1
        single = beam_search(inst.world, inst.start, inst.instruction,
                             [model], beam_width=4)
        duo = beam_search(inst.world, inst.start, inst.instruction,
                          [model, model], beam_width=4)
        if duo != single:
            ensemble_mismatches += 1
    rate_single = evaluate_ensemble([model], instances[:50], beam_width=4)
    rate_duo = evaluate_ensemble([model, model], instances[:50], beam_width=4)
    elapsed = time.time() - started
    ok = (beam_mismatches == 0 and ensemble_mismatches == 0
          and rate_single == rate_duo and elapsed < 60)
    report(12, "beam/ensemble identities", ok,
           f"200 instances, {beam_mismatches} beam!=greedy, "
           f"{ensemble_mismatches} ensemble!=single, scores "
           f"{rate_single:.3f}=={rate_duo:.3f}, {elapsed:.1f}s < 60s")


def test_criterion_13_serialization(audited_10k, tmp_path):
    instances, _, _ = audited_10k
    started = time.time()
    path = tmp_path / "round.jsonl"
    write_instances(instances, str(path))
    recovered = list(read_instances(str(path)))
    mismatches = sum(
        instance_to_dict(a) != instance_to_dict(b)
        for a, b in zip(instances, recovered))
    mismatches += abs(len(recovered) - len(instances))

    def dataset_bytes(seed):
        return "\n".join(
            json.dumps(instance_to_dict(inst), separators=(",", ":"))
            for inst in generate_dataset(DEFAULT_MIX, 500, master_seed=seed)
        ).encode()

    regen_identical = dataset_bytes(55) == dataset_bytes(55)
    seeds_differ = dataset_bytes(55) != dataset_bytes(56)
    elapsed = time.time() - started
    ok = mismatches == 0 and regen_identical and seeds_differ and elapsed < 60
    report(13, "serialization", ok,
           f"10000 round-tripped, {mismatches} mismatches, byte-identical "
           f"regeneration {regen_identical}, {elapsed:.1f}s < 60s")
