"""Instruction generation: paths to natural-language commands with gold actions.

A sampled shortest path is segmented into maximal runs of turns and moves.
A task category tries to bind a prefix of those segments to one of its
patterns (e.g. "the node reached by this move run holds the only sofa seen
along the run"), and a template realizes the binding as a token sequence.
Instances are produced by rejection: sample a world and a path, try to
match, resample on failure.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Iterator, NamedTuple, Optional, Sequence

from .worldsim import (
    Action,
    Direction,
    MapResampleNeeded,
    Pose,
    WorldConfig,
    WorldMap,
    generate_world,
    norm_edge,
    path_to_actions,
    sample_endpoints,
    shortest_path,
)


class TaskCategory(Enum):
    LANGUAGE_ONLY = "LanguageOnly"
    TURN_TO_X = "TurnToX"
    MOVE_TO_X = "MoveToX"
    TURN_AND_MOVE_TO_X = "TurnAndMoveToX"
    ORIENT = "Orient"
    DESCRIPTION = "Description"
    MOVE_UNTIL = "MoveUntil"
    ANY_COMBINATION = "AnyCombination"


# Empirical category frequencies of the corpus this generator imitates.
DEFAULT_MIX: dict[TaskCategory, float] = {
    TaskCategory.LANGUAGE_ONLY: 0.3170,
    TaskCategory.TURN_TO_X: 0.0701,
    TaskCategory.MOVE_TO_X: 0.1338,
    TaskCategory.TURN_AND_MOVE_TO_X: 0.0173,
    TaskCategory.ORIENT: 0.0516,
    TaskCategory.DESCRIPTION: 0.0964,
    TaskCategory.MOVE_UNTIL: 0.0871,
    TaskCategory.ANY_COMBINATION: 0.2267,
}

COUNT_WORDS = (
    "one", "two", "three", "four", "five", "six",
    "seven", "eight", "nine", "ten", "eleven", "twelve",
)

_SLOT_FILLERS: dict[str, tuple[str, ...]] = {
    "item": ("barstool", "chair", "easel", "hatrack", "lamp", "sofa"),
    "floor": ("blue", "brick", "concrete", "flower", "grass", "gravel", "wood", "yellow"),
    "floor2": ("blue", "brick", "concrete", "flower", "grass", "gravel", "wood", "yellow"),
    "wall": ("butterfly", "fish", "tower"),
    "side": ("left", "right", "back"),
    "count": COUNT_WORDS,
    "step": ("step", "steps"),
    "end": ("end", "wall"),
    "first": (),
    "second": (),
}


class TemplateError(ValueError):
    """Malformed template file or unbound slot during realization."""


class GenerationError(RuntimeError):
    """No instance of the requested category found within the attempt budget."""


@dataclass(frozen=True)
class Segment:
    """Maximal run of same-kind actions; kind is "turn" or "move"."""

    kind: str
    actions: tuple[Action, ...]


@dataclass(frozen=True)
class Template:
    category: TaskCategory
    pattern: str
    text: str


class Option(NamedTuple):
    """One way a prefix can be phrased: a pattern id plus its slot values."""

    pattern: str
    slots: dict[str, str]


@dataclass
class Binding:
    """Result of matching a segment prefix against a category."""

    category: TaskCategory
    n_segments: int
    options: list[Option]
    subs: tuple["Binding", ...] = ()


@dataclass
class Instance:
    id: int
    seed: int
    category: TaskCategory
    world: WorldMap
    start: Pose
    instruction: list[str]
    actions: list[Action]


# ---------------------------------------------------------------------------
# Templates


_GROUP_RE = re.compile(r"\{([^{}]*)\}")


def parse_templates(text: str) -> list[Template]:
    """Parse the line-oriented template format; '#' starts a comment line."""
    templates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise TemplateError(f"line {lineno}: expected 3 tab-separated fields")
        cat_name, pattern, body = parts
        try:
            category = TaskCategory(cat_name)
        except ValueError as exc:
            raise TemplateError(f"line {lineno}: unknown category {cat_name!r}") from exc
        for group in _GROUP_RE.findall(body):
            if "|" not in group and group not in _SLOT_FILLERS:
                raise TemplateError(f"line {lineno}: unknown slot {{{group}}}")
        templates.append(Template(category, pattern.strip(), body.strip()))
    if not templates:
        raise TemplateError("template file defines no templates")
    return templates


class TemplateBank:
    """Loaded templates indexed by pattern id."""

    def __init__(self, templates: Sequence[Template]):
        self.templates = list(templates)
        self.by_pattern: dict[str, list[Template]] = {}
        for t in self.templates:
            self.by_pattern.setdefault(t.pattern, []).append(t)

    @classmethod
    def load_default(cls) -> "TemplateBank":
        text = resources.files("mazenav.data").joinpath("templates.txt").read_text("utf-8")
        return cls(parse_templates(text))

    @classmethod
    def load_file(cls, path: str) -> "TemplateBank":
        with open(path, encoding="utf-8") as fh:
            return cls(parse_templates(fh.read()))

    def vocabulary(self) -> list[str]:
        """Every token any realization can emit, sorted."""
        words: set[str] = set()
        for t in self.templates:
            def repl(m: re.Match) -> str:
                group = m.group(1)
                if "|" in group:
                    words.update(w for alt in group.split("|") for w in alt.split())
                else:
                    words.update(_SLOT_FILLERS[group])
                return " "
            literal = _GROUP_RE.sub(repl, t.text)
            words.update(literal.split())
        return sorted(words)


def realize(template: Template, slots: dict[str, str], rng: random.Random) -> list[str]:
    """Expand alternations (uniform choice) and slots into lowercase tokens."""

    def repl(m: re.Match) -> str:
        group = m.group(1)
        if "|" in group:
            return rng.choice(group.split("|"))
        if group not in slots:
            raise TemplateError(
                f"pattern {template.pattern!r}: unbound slot {{{group}}}"
            )
        return slots[group]

    return _GROUP_RE.sub(repl, template.text).lower().split()


# ---------------------------------------------------------------------------
# Path segmentation

def segment_path(actions: Sequence[Action]) -> list[Segment]:
    """Split an action sequence into maximal turn/move runs.

    A trailing STOP is stripped; STOP anywhere else is rejected.
    """
    body = list(actions)
    if body and body[-1] is Action.STOP:
        body.pop()
    if Action.STOP in body:
        raise ValueError("STOP before end of action sequence")
    segments: list[Segment] = []
    run: list[Action] = []
    kind = ""
    for act in body:
        act_kind = "turn" if act is Action.RIGHT or act is Action.LEFT else "move"
        if act_kind != kind:
            if run:
                segments.append(Segment(kind, tuple(run)))
            run, kind = [], act_kind
        run.append(act)
    if run:
        segments.append(Segment(kind, tuple(run)))
    return segments


def segment_actions(segments: Sequence[Segment]) -> list[Action]:
    """Flatten segments back to actions, appending the terminating STOP."""
    out = [a for seg in segments for a in seg.actions]
    out.append(Action.STOP)
    return out


def _apply_turns(direction: Direction, seg: Segment) -> Direction:
    for act in seg.actions:
        direction = direction.clockwise() if act is Action.RIGHT else direction.counterclockwise()
    return direction


def _pose_after(world: WorldMap, pose: Pose, segments: Sequence[Segment]) -> Optional[Pose]:
    """Pose after executing segments; None if a move crosses a missing edge."""
    x, y, d = pose.x, pose.y, pose.dir
    for seg in segments:
        if seg.kind == "turn":
            d = _apply_turns(d, seg)
        else:
            for _ in seg.actions:
                nxt = world.neighbor_toward((x, y), d)
                if nxt is None:
                    return None
                x, y = nxt
    return Pose(x, y, d)


# ---------------------------------------------------------------------------
# Category matchers

_RELATIVE_SIDES = ("front", "right", "back", "left")


def _relative_side(facing: Direction, toward: Direction) -> str:
    return _RELATIVE_SIDES[(int(toward) - int(facing)) % 4]


def _run_nodes(world: WorldMap, node: tuple[int, int], facing: Direction,
               count: int) -> Optional[list[tuple[int, int]]]:
    nodes = [node]
    for _ in range(count):
        nxt = world.neighbor_toward(nodes[-1], facing)
        if nxt is None:
            return None
        nodes.append(nxt)
    return nodes


def _item_unique_at_hop1(world: WorldMap, node: tuple[int, int],
                         item: str, facing: Direction) -> bool:
    for d in Direction:
        if d is facing:
            continue
        nb = world.neighbor_toward(node, d)
        if nb is not None and world.items.get(nb) == item:
            return False
    return True


def _attr_unique_at_node(world: WorldMap, node: tuple[int, int], value: str,
                         facing: Direction, index: int) -> bool:
    """True if no incident edge other than the facing one carries `value`.

    index selects the attribute: 0 floor, 1 wall painting.
    """
    for d in Direction:
        if d is facing:
            continue
        nb = world.neighbor_toward(node, d)
        if nb is not None and world.edge_attrs[norm_edge(node, nb)][index] == value:
            return False
    return True


def _turn_target_options(world: WorldMap, node: tuple[int, int],
                         facing: Direction) -> list[Option]:
    """Phrasings for "turn toward X" where X sits one hop ahead after the turn."""
    ahead = world.neighbor_toward(node, facing)
    if ahead is None:
        return []
    opts = []
    item = world.items.get(ahead)
    if item is not None and _item_unique_at_hop1(world, node, item, facing):
        opts.append(Option("turn_item", {"item": item}))
    floor, wall = world.edge_attrs[norm_edge(node, ahead)]
    if _attr_unique_at_node(world, node, floor, facing, 0):
        opts.append(Option("turn_floor", {"floor": floor}))
    if _attr_unique_at_node(world, node, wall, facing, 1):
        opts.append(Option("turn_wall", {"wall": wall}))
    return opts


def _move_target_options(world: WorldMap, node: tuple[int, int], facing: Direction,
                         count: int, until: bool) -> list[Option]:
    """Phrasings for a straight move run ending at a describable node.

    Target conditions must first hold at the run's final node so that a
    follower walking forward stops exactly there: the goal item may not
    appear earlier in the run, a crossing floor may not be incident to an
    earlier run node, and an intersection ends the run before any other.
    """
    nodes = _run_nodes(world, node, facing, count)
    if nodes is None:
        return []
    end = nodes[-1]
    opts = []
    item = world.items.get(end)
    if item is not None and all(world.items.get(n) != item for n in nodes[:-1]):
        opts.append(Option("until_item" if until else "move_item", {"item": item}))
    at_dead_end = world.neighbor_toward(end, facing) is None
    if at_dead_end:
        opts.append(Option("until_end" if until else "move_end", {"end": "end"}))
    if until:
        run_floor = world.edge_attrs[norm_edge(nodes[0], nodes[1])][0]
        crossing = sorted({
            world.edge_attrs[norm_edge(end, nb)][0]
            for nb in world.neighbors[end]
        } - {run_floor})
        for fl in crossing:
            seen_before = any(
                world.edge_attrs[norm_edge(n, nb)][0] == fl
                for n in nodes[:-1] for nb in world.neighbors[n]
            )
            if not seen_before:
                opts.append(Option("until_floor", {"floor": fl}))
        if world.degree(end) >= 3 and all(world.degree(n) <= 2 for n in nodes[1:-1]):
            opts.append(Option("until_intersection", {}))
    return opts


def _orient_options(world: WorldMap, node: tuple[int, int],
                    facing: Direction) -> list[Option]:
    """Phrasings that pin down the final heading by a landmark's relative side.

    "front" relations are left to the turn-toward category, so sides here
    are back/left/right only.
    """
    opts = []
    missing = [d for d in Direction if world.neighbor_toward(node, d) is None]
    if len(missing) == 1:
        side = _relative_side(facing, missing[0])
        if side != "front":
            opts.append(Option("orient_wall", {"side": side}))
    for d in Direction:
        nb = world.neighbor_toward(node, d)
        if nb is None:
            continue
        item = world.items.get(nb)
        if item is not None and _item_unique_at_hop1(world, node, item, d):
            side = _relative_side(facing, d)
            if side != "front":
                opts.append(Option("orient_item", {"item": item, "side": side}))
        floor = world.edge_attrs[norm_edge(node, nb)][0]
        if _attr_unique_at_node(world, node, floor, d, 0):
            side = _relative_side(facing, d)
            if side != "front":
                opts.append(Option("orient_floor", {"floor": floor, "side": side}))
    return opts


def _description_options(world: WorldMap, pose: Pose) -> list[Option]:
    node = (pose.x, pose.y)
    opts = []
    floors = sorted({
        world.edge_attrs[norm_edge(node, nb)][0] for nb in world.neighbors[node]
    })
    if len(floors) >= 2:
        pattern = "desc_intersection" if world.degree(node) >= 3 else "desc_corner"
        opts.append(Option(pattern, {"floor": floors[0], "floor2": floors[1]}))
    item = world.items.get(node)
    if item is not None:
        opts.append(Option("desc_item_here", {"item": item}))
    ahead = world.neighbor_toward(node, pose.dir)
    if ahead is None:
        opts.append(Option("desc_dead_end", {"end": "end"}))
    elif world.items.get(ahead) is not None:
        opts.append(Option("desc_item_ahead", {"item": world.items[ahead]}))
    return opts


def _language_only_options(segments: Sequence[Segment]) -> list[Option]:
    """Literal phrasings; counts beyond the number-word table cannot match."""

    def turn_slots(seg: Segment) -> Optional[tuple[str, dict[str, str]]]:
        if len(seg.actions) == 1:
            side = "right" if seg.actions[0] is Action.RIGHT else "left"
            return "turn", {"side": side}
        if len(seg.actions) == 2:
            return "around", {}
        return None

    def move_slots(seg: Segment) -> Optional[dict[str, str]]:
        k = len(seg.actions)
        if k > len(COUNT_WORDS):
            return None
        return {"count": COUNT_WORDS[k - 1], "step": "step" if k == 1 else "steps"}

    if len(segments) == 1:
        seg = segments[0]
        if seg.kind == "turn":
            t = turn_slots(seg)
            if t is None:
                return []
            return [Option("lo_turn_around" if t[0] == "around" else "lo_turn", t[1])]
        m = move_slots(seg)
        if m is None:
            return []
        opts = [Option("lo_move", m)]
        if len(seg.actions) == 1:
            opts.append(Option("lo_move_one", {}))
        return opts

    if len(segments) == 2:
        kinds = (segments[0].kind, segments[1].kind)
        if kinds == ("turn", "move"):
            t, m = turn_slots(segments[0]), move_slots(segments[1])
            if t is None or m is None:
                return []
            if t[0] == "around":
                return [Option("lo_around_move", m)]
            return [Option("lo_turn_move", {**t[1], **m})]
        if kinds == ("move", "turn"):
            m, t = move_slots(segments[0]), turn_slots(segments[1])
            if t is None or m is None:
                return []
            if t[0] == "around":
                return [Option("lo_move_around", m)]
            return [Option("lo_move_turn", {**t[1], **m})]
    return []


def _is_perceptual(pattern: str) -> bool:
    return not pattern.startswith("lo_")


def _combo_sub_binding(world: WorldMap, pose: Pose, seg: Segment) -> Optional[Binding]:
    """Bind one segment as a combination clause: literal or perceptual."""
    opts = list(_language_only_options([seg]))
    if seg.kind == "turn":
        after = _apply_turns(pose.dir, seg)
        opts.extend(_turn_target_options(world, (pose.x, pose.y), after))
    else:
        opts.extend(_move_target_options(world, (pose.x, pose.y), pose.dir,
                                         len(seg.actions), until=False))
        opts.extend(_move_target_options(world, (pose.x, pose.y), pose.dir,
                                         len(seg.actions), until=True))
    if not opts:
        return None
    return Binding(TaskCategory.ANY_COMBINATION, 1, opts)


def match_pattern(category: TaskCategory, world: WorldMap, start: Pose,
                  segments: Sequence[Segment]) -> Optional[Binding]:
    """Try to bind a prefix of `segments` to `category`; deterministic.

    Returns None when the category's conditions do not hold. The number of
    segments consumed is fixed by the category (for variable-length
    categories the caller controls it by truncating `segments`).
    """
    node = (start.x, start.y)

    if category is TaskCategory.DESCRIPTION:
        opts = _description_options(world, start)
        return Binding(category, 0, opts) if opts else None

    if category is TaskCategory.LANGUAGE_ONLY:
        segs = list(segments[:2])
        if not segs:
            return None
        opts = _language_only_options(segs)
        return Binding(category, len(segs), opts) if opts else None

    if category is TaskCategory.TURN_TO_X:
        if not segments or segments[0].kind != "turn":
            return None
        after = _apply_turns(start.dir, segments[0])
        opts = _turn_target_options(world, node, after)
        return Binding(category, 1, opts) if opts else None

    if category is TaskCategory.MOVE_TO_X:
        if not segments or segments[0].kind != "move":
            return None
        opts = _move_target_options(world, node, start.dir,
                                    len(segments[0].actions), until=False)
        return Binding(category, 1, opts) if opts else None

    if category is TaskCategory.MOVE_UNTIL:
        if not segments or segments[0].kind != "move":
            return None
        opts = _move_target_options(world, node, start.dir,
                                    len(segments[0].actions), until=True)
        return Binding(category, 1, opts) if opts else None

    if category is TaskCategory.TURN_AND_MOVE_TO_X:
        if len(segments) < 2 or segments[0].kind != "turn" or segments[1].kind != "move":
            return None
        after = _apply_turns(start.dir, segments[0])
        moves = _move_target_options(world, node, after,
                                     len(segments[1].actions), until=False)
        rename = {"move_item": "tm_item", "move_end": "tm_end"}
        opts = [Option(rename[o.pattern], o.slots) for o in moves]
        return Binding(category, 2, opts) if opts else None

    if category is TaskCategory.ORIENT:
        if not segments or segments[0].kind != "turn":
            return None
        after = _apply_turns(start.dir, segments[0])
        opts = _orient_options(world, node, after)
        return Binding(category, 1, opts) if opts else None

    if category is TaskCategory.ANY_COMBINATION:
        if len(segments) < 2:
            return None
        first = _combo_sub_binding(world, start, segments[0])
        if first is None:
            return None
        mid = _pose_after(world, start, segments[:1])
        if mid is None:
            return None
        second = _combo_sub_binding(world, mid, segments[1])
        if second is None:
            return None
        if not any(_is_perceptual(o.pattern) for o in first.options + second.options):
            return None
        return Binding(category, 2, [Option("combo", {})], subs=(first, second))

    raise ValueError(f"unknown category {category!r}")


# ---------------------------------------------------------------------------
# Realization of bindings


def _pick_combo_options(first: Binding, second: Binding,
                        rng: random.Random) -> tuple[Option, Option]:
    """Pick one option per clause such that at least one is perceptual."""
    o1 = rng.choice(first.options)
    o2 = rng.choice(second.options)
    if _is_perceptual(o1.pattern) or _is_perceptual(o2.pattern):
        return o1, o2
    p1 = [o for o in first.options if _is_perceptual(o.pattern)]
    p2 = [o for o in second.options if _is_perceptual(o.pattern)]
    if p1 and p2:
        if rng.random() < 0.5:
            p2 = []
        else:
            p1 = []
    if p1:
        o1 = rng.choice(p1)
    else:
        o2 = rng.choice(p2)
    return o1, o2


def realize_binding(binding: Binding, bank: TemplateBank,
                    rng: random.Random) -> list[str]:
    """Choose an option and a template for it, then expand to tokens."""
    if binding.subs:
        o1, o2 = _pick_combo_options(*binding.subs, rng)
        first = realize(rng.choice(bank.by_pattern[o1.pattern]), o1.slots, rng)
        second = realize(rng.choice(bank.by_pattern[o2.pattern]), o2.slots, rng)
        template = rng.choice(bank.by_pattern["combo"])
        return realize(template, {"first": " ".join(first),
                                  "second": " ".join(second)}, rng)
    opt = rng.choice(binding.options)
    pool = bank.by_pattern.get(opt.pattern)
    if not pool:
        raise TemplateError(f"no templates for pattern {opt.pattern!r}")
    return realize(rng.choice(pool), opt.slots, rng)


# ---------------------------------------------------------------------------
# Instance generation


def generate_instance(category: TaskCategory, config: WorldConfig,
                      rng: random.Random, bank: Optional[TemplateBank] = None,
                      max_attempts: int = 500, instance_id: int = 0,
                      seed: int = 0) -> Instance:
    """Rejection-sample a world and path until `category` binds a prefix.

    Single-turn prefixes are preferred (p=0.7) over two-segment ones for
    the literal category; combination always uses two segments.
    """
    if bank is None:
        bank = _default_bank()
    for _ in range(max_attempts):
        world = generate_world(rng, config)
        try:
            s, g = sample_endpoints(world, rng, config.min_dist)
        except MapResampleNeeded:
            continue
        start = Pose(s[0], s[1], Direction(rng.randrange(4)))
        path = shortest_path(world, s, g)
        actions = path_to_actions(path, start.dir)
        segments = segment_path(actions)
        if category is TaskCategory.LANGUAGE_ONLY:
            want = 1 if rng.random() < 0.7 else 2
            prefix = segments[:min(want, len(segments))]
        elif category is TaskCategory.DESCRIPTION:
            prefix = []
        else:
            prefix = segments
        binding = match_pattern(category, world, start, prefix)
        if binding is None:
            continue
        used = segments[:binding.n_segments]
        gold = segment_actions(used)
        tokens = realize_binding(binding, bank, rng)
        return Instance(
            id=instance_id,
            seed=seed,
            category=category,
            world=world,
            start=start,
            instruction=tokens,
            actions=gold,
        )
    raise GenerationError(
        f"no {category.value} instance in {max_attempts} attempts"
    )


_BANK_CACHE: Optional[TemplateBank] = None


def _default_bank() -> TemplateBank:
    global _BANK_CACHE
    if _BANK_CACHE is None:
        _BANK_CACHE = TemplateBank.load_default()
    return _BANK_CACHE


def _splitmix64(x: int) -> int:
    mask = 0xFFFFFFFFFFFFFFFF
    x = (x + 0x9E3779B97F4A7C15) & mask
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-instance seed: splitmix64 counter stream keyed by master.

    Asymmetric in (master_seed, index), so swapping them gives a
    different stream.
    """
    mask = 0xFFFFFFFFFFFFFFFF
    state = (_splitmix64(master_seed & mask)
             + (index + 1) * 0x9E3779B97F4A7C15) & mask
    return _splitmix64(state)


def _pick_category(mix: dict[TaskCategory, float], rng: random.Random) -> TaskCategory:
    cats = list(mix)
    total = sum(mix.values())
    r = rng.random() * total
    acc = 0.0
    for c in cats:
        acc += mix[c]
        if r < acc:
            return c
    return cats[-1]


def generate_dataset(mix: Optional[dict[TaskCategory, float]], count: int,
                     master_seed: int, config: Optional[WorldConfig] = None,
                     bank: Optional[TemplateBank] = None) -> Iterator[Instance]:
    """Yield `count` instances, each reproducible from (master_seed, index).

    Categories are drawn i.i.d. from `mix`. A None mix means unrestricted:
    each attempt tries the categories in a shuffled order and keeps the
    first one that binds.
    """
    if config is None:
        config = WorldConfig()
    if bank is None:
        bank = _default_bank()
    for index in range(count):
        seed = derive_seed(master_seed, index)
        rng = random.Random(seed)
        if mix is None:
            inst = _generate_unrestricted(config, rng, bank, index, seed)
        else:
            category = _pick_category(mix, rng)
            inst = generate_instance(category, config, rng, bank,
                                     instance_id=index, seed=seed)
        yield inst


def _generate_unrestricted(config: WorldConfig, rng: random.Random,
                           bank: TemplateBank, instance_id: int,
                           seed: int, max_attempts: int = 500) -> Instance:
    categories = list(TaskCategory)
    for _ in range(max_attempts):
        world = generate_world(rng, config)
        try:
            s, g = sample_endpoints(world, rng, config.min_dist)
        except MapResampleNeeded:
            continue
        start = Pose(s[0], s[1], Direction(rng.randrange(4)))
        path = shortest_path(world, s, g)
        segments = segment_path(path_to_actions(path, start.dir))
        order = categories[:]
        rng.shuffle(order)
        for category in order:
            if category is TaskCategory.LANGUAGE_ONLY:
                want = 1 if rng.random() < 0.7 else 2
                prefix = segments[:min(want, len(segments))]
            elif category is TaskCategory.DESCRIPTION:
                prefix = []
            else:
                prefix = segments
            binding = match_pattern(category, world, start, prefix)
            if binding is None:
                continue
            gold = segment_actions(segments[:binding.n_segments])
            tokens = realize_binding(binding, bank, rng)
            return Instance(instance_id, seed, category, world, start, tokens, gold)
    raise GenerationError(f"no instance in {max_attempts} attempts")
