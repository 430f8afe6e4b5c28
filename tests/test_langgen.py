"""Instruction generation tests: templates, segmentation, pattern matching,
realization, and the rejection-sampling dataset loop.

Soundness is checked with the execution oracle (gold actions must stop at
the bound endpoint) plus re-matching the emitted category against the
emitted segments, which must succeed deterministically.
"""

import hashlib
import json
import random

import pytest

from mazenav.langgen import (
    COUNT_WORDS,
    DEFAULT_MIX,
    GenerationError,
    Instance,
    Segment,
    TaskCategory,
    Template,
    TemplateBank,
    TemplateError,
    derive_seed,
    generate_dataset,
    generate_instance,
    match_pattern,
    parse_templates,
    realize,
    realize_binding,
    segment_actions,
)
from mazenav.worldsim import (
    Action,
    Direction,
    Outcome,
    Pose,
    WorldConfig,
    execute,
    generate_world,
)
from oracles import bfs_distances, segment_path

BANK = TemplateBank.load_default()


class TestTemplates:
    def test_default_bank_parses(self):
        assert len(BANK.templates) > 30

    def test_every_category_has_at_least_four_templates(self):
        by_cat = {}
        for t in BANK.templates:
            by_cat.setdefault(t.category, []).append(t)
        for cat in TaskCategory:
            assert len(by_cat.get(cat, [])) >= 4, cat

    def test_comment_and_blank_lines_skipped(self):
        text = "# comment\n\nLanguageOnly\tlo_turn\tturn {side}\n"
        templates = parse_templates(text)
        assert len(templates) == 1
        assert templates[0].pattern == "lo_turn"

    def test_bad_column_count_rejected(self):
        with pytest.raises(TemplateError, match="line 1"):
            parse_templates("LanguageOnly\tlo_turn\n")

    def test_unknown_category_rejected(self):
        with pytest.raises(TemplateError, match="line 2"):
            parse_templates("# ok\nNopeCategory\tx\tgo\n")

    def test_unknown_slot_rejected(self):
        with pytest.raises(TemplateError, match="slot"):
            parse_templates("LanguageOnly\tlo_turn\tturn {sideways}\n")

    def test_empty_file_rejected(self):
        with pytest.raises(TemplateError):
            parse_templates("# nothing\n")

    def test_realize_resolves_alternation_and_slots(self):
        t = Template(TaskCategory.LANGUAGE_ONLY, "p", "{move|go} {count} {step}")
        tokens = realize(t, {"count": "two", "step": "steps"}, random.Random(0))
        assert tokens[0] in ("move", "go")
        assert tokens[1:] == ["two", "steps"]

    def test_realize_unbound_slot_errors(self):
        t = Template(TaskCategory.LANGUAGE_ONLY, "p", "take {count} {step}")
        with pytest.raises(TemplateError, match="unbound"):
            realize(t, {"count": "two"}, random.Random(0))

    def test_realize_deterministic_per_seed(self):
        t = Template(TaskCategory.LANGUAGE_ONLY, "p", "{a|b|c} {x|y} stop")
        out = [realize(t, {}, random.Random(42)) for _ in range(3)]
        assert out[0] == out[1] == out[2]

    def test_empty_alternative_allowed(self):
        t = Template(TaskCategory.TURN_AND_MOVE_TO_X, "p", "{turn and |}go to the {item}")
        seen = set()
        for seed in range(20):
            seen.add(tuple(realize(t, {"item": "sofa"}, random.Random(seed))))
        assert ("go", "to", "the", "sofa") in seen
        assert ("turn", "and", "go", "to", "the", "sofa") in seen

    def test_vocabulary_closure(self):
        vocab = set(BANK.vocabulary())
        # spot checks: literals, alternation words, and slot fillers
        for word in ("turn", "left", "sofa", "gravel", "butterfly", "seven",
                     "intersection", "steps", "wall"):
            assert word in vocab
        # realized instructions stay inside the closure
        rng = random.Random(7)
        for cat in TaskCategory:
            inst = generate_instance(cat, WorldConfig(), rng, bank=BANK)
            assert set(inst.instruction) <= vocab


class TestSegmentation:
    def test_alternating_maximal_runs(self):
        actions = [Action.RIGHT, Action.LEFT, Action.MOVE, Action.MOVE,
                   Action.RIGHT, Action.MOVE, Action.STOP]
        segs = segment_path(actions)
        assert [(s.kind, len(s.actions)) for s in segs] == [
            ("turn", 2), ("move", 2), ("turn", 1), ("move", 1)]
        for a, b in zip(segs, segs[1:]):
            assert a.kind != b.kind

    def test_trailing_stop_stripped_and_restored(self):
        actions = [Action.MOVE, Action.STOP]
        segs = segment_path(actions)
        assert segment_actions(segs) == actions

    def test_midstream_stop_rejected(self):
        with pytest.raises(ValueError):
            segment_path([Action.MOVE, Action.STOP, Action.MOVE])

    def test_empty_sequence(self):
        assert segment_path([Action.STOP]) == []
        assert segment_actions([]) == [Action.STOP]


# Computed from the matchers before their table-driven rewrite.
BINDINGS_SHA256 = "ca224fde1e82015dd4fd8e135a75d05eb10f5c3c239c4764b82dc61d4add66e0"


def _canonical(binding):
    """Category, segment count, options in order (slots sorted), subs."""
    if binding is None:
        return None
    return [binding.category.value, binding.n_segments,
            [[o.pattern, sorted(o.slots.items())] for o in binding.options],
            [_canonical(sub) for sub in binding.subs]]


def _find_instating(category, seed=0, config=None):
    rng = random.Random(seed)
    return generate_instance(category, config or WorldConfig(), rng, bank=BANK)


class TestMatching:
    def test_match_is_deterministic(self):
        rng = random.Random(1)
        for cat in TaskCategory:
            inst = generate_instance(cat, WorldConfig(), rng, bank=BANK)
            segs = segment_path(inst.actions)
            b1 = match_pattern(cat, inst.world, inst.start, segs)
            b2 = match_pattern(cat, inst.world, inst.start, segs)
            assert b1 is not None and b2 is not None
            assert [o.pattern for o in b1.options] == [o.pattern for o in b2.options]
            assert [o.slots for o in b1.options] == [o.slots for o in b2.options]

    def test_language_only_counts_agree(self):
        rng = random.Random(2)
        for _ in range(40):
            inst = generate_instance(TaskCategory.LANGUAGE_ONLY, WorldConfig(),
                                     rng, bank=BANK)
            moves = sum(1 for a in inst.actions if a is Action.MOVE)
            if moves:
                count_words = [w for w in inst.instruction if w in COUNT_WORDS]
                if count_words:
                    assert count_words[0] == COUNT_WORDS[moves - 1]
                else:
                    # one-step phrasings spell the count as "a step"
                    assert moves == 1
                assert ("steps" in inst.instruction) == (moves > 1 and "step" not in inst.instruction) or moves == 1

    def test_turn_category_gold_is_turns_only(self):
        rng = random.Random(3)
        for _ in range(25):
            inst = generate_instance(TaskCategory.TURN_TO_X, WorldConfig(), rng,
                                     bank=BANK)
            assert all(a in (Action.RIGHT, Action.LEFT) for a in inst.actions[:-1])
            assert inst.actions[-1] is Action.STOP

    def test_move_to_item_is_first_hit_along_run(self):
        rng = random.Random(4)
        checked = 0
        for _ in range(150):
            inst = generate_instance(TaskCategory.MOVE_TO_X, WorldConfig(), rng,
                                     bank=BANK)
            names = [w for w in inst.instruction
                     if w in ("barstool", "chair", "easel", "hatrack", "lamp", "sofa")]
            if not names:
                continue  # dead-end phrasing
            item = names[0]
            pose = inst.start
            hops = [a for a in inst.actions if a is Action.MOVE]
            node = (pose.x, pose.y)
            seen_early = False
            for i in range(len(hops)):
                node = inst.world.neighbor_toward(node, pose.dir)
                if i < len(hops) - 1 and inst.world.items.get(node) == item:
                    seen_early = True
            assert inst.world.items.get(node) == item
            assert not seen_early
            checked += 1
        assert checked >= 5

    def test_description_gold_is_stop_only(self):
        rng = random.Random(5)
        for _ in range(25):
            inst = generate_instance(TaskCategory.DESCRIPTION, WorldConfig(), rng,
                                     bank=BANK)
            assert inst.actions == [Action.STOP]

    def test_any_combination_has_two_segments(self):
        rng = random.Random(6)
        for _ in range(25):
            inst = generate_instance(TaskCategory.ANY_COMBINATION, WorldConfig(),
                                     rng, bank=BANK)
            assert len(segment_path(inst.actions)) == 2

    def test_orient_instruction_never_says_front(self):
        rng = random.Random(7)
        for _ in range(25):
            inst = generate_instance(TaskCategory.ORIENT, WorldConfig(), rng,
                                     bank=BANK)
            assert "front" not in inst.instruction

    def test_no_match_returns_none(self):
        # a move run cannot bind the turn-toward category
        world = generate_world(random.Random(0))
        segs = [Segment("move", (Action.MOVE,))]
        pose = Pose(0, 0, Direction.EAST)
        assert match_pattern(TaskCategory.TURN_TO_X, world, pose, segs) is None

    def test_bindings_are_pinned(self):
        # The generator fingerprint pins only the option each instance
        # draws; this pins every option list, in order, since rng.choice
        # indexes into it. Segment lists include ones no shortest path
        # yields: turns of three actions, moves into walls.
        rng = random.Random(20240607)
        digest = hashlib.sha256()
        bound = dict.fromkeys(TaskCategory, 0)
        for _ in range(2000):
            world = generate_world(rng)
            pose = Pose(rng.randrange(world.width), rng.randrange(world.height),
                        Direction(rng.randrange(4)))
            segs = []
            for _ in range(rng.randrange(4)):
                if rng.random() < 0.5:
                    turns = rng.randint(1, 3)
                    segs.append(Segment("turn", tuple(rng.choice((Action.RIGHT, Action.LEFT))
                                                      for _ in range(turns))))
                else:
                    segs.append(Segment("move", (Action.MOVE,) * rng.randint(1, 5)))
            for cat in TaskCategory:
                binding = match_pattern(cat, world, pose, segs)
                if binding is not None:
                    bound[cat] += 1
                digest.update(json.dumps(_canonical(binding)).encode() + b"\n")
        assert min(bound.values()) > 0, bound
        assert digest.hexdigest() == BINDINGS_SHA256


class TestGeneration:
    def test_gold_ends_stopped_at_bound_endpoint(self):
        rng = random.Random(8)
        for cat in TaskCategory:
            for _ in range(10):
                inst = generate_instance(cat, WorldConfig(), rng, bank=BANK)
                assert inst.actions[-1] is Action.STOP
                pose, outcome = execute(inst.world, inst.start, inst.actions)
                assert outcome is Outcome.STOPPED

    def test_instruction_nonempty_lowercase(self):
        rng = random.Random(9)
        for cat in TaskCategory:
            inst = generate_instance(cat, WorldConfig(), rng, bank=BANK)
            assert inst.instruction
            assert all(w == w.lower() for w in inst.instruction)

    def test_generation_error_names_category(self):
        rng = random.Random(10)
        with pytest.raises(GenerationError, match="TurnToX"):
            generate_instance(TaskCategory.TURN_TO_X, WorldConfig(), rng,
                              bank=BANK, max_attempts=0)

    def test_dataset_deterministic_per_master_seed(self):
        a = list(generate_dataset(DEFAULT_MIX, 30, master_seed=77))
        b = list(generate_dataset(DEFAULT_MIX, 30, master_seed=77))
        for x, y in zip(a, b):
            assert x.instruction == y.instruction
            assert x.actions == y.actions
            assert x.seed == y.seed
            assert x.world.edge_attrs == y.world.edge_attrs

    def test_dataset_seed_changes_content(self):
        a = list(generate_dataset(DEFAULT_MIX, 20, master_seed=1))
        b = list(generate_dataset(DEFAULT_MIX, 20, master_seed=2))
        assert any(x.instruction != y.instruction for x, y in zip(a, b))

    def test_derive_seed_mixing(self):
        seeds = {derive_seed(5, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(5, 3) != derive_seed(3, 5)

    def test_unrestricted_mix(self):
        insts = list(generate_dataset(None, 40, master_seed=4))
        assert len(insts) == 40
        for inst in insts:
            pose, outcome = execute(inst.world, inst.start, inst.actions)
            assert outcome is Outcome.STOPPED
        assert len({i.category for i in insts}) >= 3

    def test_category_mix_respected_roughly(self):
        from collections import Counter
        counts = Counter(i.category for i in
                         generate_dataset(DEFAULT_MIX, 1500, master_seed=12))
        freq = counts[TaskCategory.LANGUAGE_ONLY] / 1500
        assert abs(freq - 0.317) < 0.05

    def test_full_path_endpoints_at_least_min_dist(self, monkeypatch):
        # the sampled path behind every instance spans >= min_dist hops
        import mazenav.langgen as lg
        recorded = []
        original = lg.sample_endpoints

        def spy(world, rng, min_dist=4, max_attempts=64):
            path = original(world, rng, min_dist, max_attempts)
            recorded.append((world, path))
            return path

        monkeypatch.setattr(lg, "sample_endpoints", spy)
        list(lg.generate_dataset(DEFAULT_MIX, 50, master_seed=3))
        assert recorded
        for world, path in recorded:
            assert bfs_distances(world, path[0])[path[-1]] >= 4

    def test_gold_path_is_searched_once(self, monkeypatch):
        # sample_endpoints returns the path it found, so generation never
        # runs a second search for the gold path
        import mazenav.langgen as lg

        def spy(*args, **kwargs):
            raise AssertionError("langgen.shortest_path was called")

        monkeypatch.setattr(lg, "shortest_path", spy)
        assert len(list(lg.generate_dataset(DEFAULT_MIX, 50, master_seed=3))) == 50
        assert len(list(lg.generate_dataset(None, 50, master_seed=4))) == 50
