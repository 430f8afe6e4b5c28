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
from itertools import groupby, islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .worldsim import (
    DELTAS,
    FLOORS,
    ITEMS,
    WALL_PAINTINGS,
    Action,
    Direction,
    MapResampleNeeded,
    Outcome,
    Pose,
    WorldConfig,
    WorldMap,
    execute,
    generate_world,
    norm_edge,
    path_to_actions,
    randbelow,
    sample_endpoints,
    shortest_path,  # unused here; perfbench's tracer wraps langgen.shortest_path
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
    "item": ITEMS,
    "floor": FLOORS,
    "floor2": FLOORS,
    "wall": WALL_PAINTINGS,
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

# The segment kind of each action; STOP ends the segments.
_KINDS = {Action.MOVE: "move", Action.RIGHT: "turn", Action.LEFT: "turn", Action.STOP: None}


def _segments(actions: Iterable[Action]) -> Iterator[Segment]:
    """The maximal turn/move runs of `actions` up to the first STOP, in
    order, each made only when it is asked for."""
    for kind, run in groupby(actions, _KINDS.__getitem__):
        if kind is None:
            return
        yield Segment(kind, tuple(run))


def segment_actions(segments: Sequence[Segment]) -> list[Action]:
    """Flatten segments back to actions, appending the terminating STOP."""
    out = [a for seg in segments for a in seg.actions]
    out.append(Action.STOP)
    return out


def _apply_turns(direction: Direction, seg: Segment) -> Direction:
    for act in seg.actions:
        direction = direction.clockwise() if act is Action.RIGHT else direction.counterclockwise()
    return direction


# ---------------------------------------------------------------------------
# Category matchers

_RELATIVE_SIDES = ("front", "right", "back", "left")

# What a view entry holds, by index; each name is also its option's slot.
_LANDMARKS = ("item", "floor", "wall")

# Categories that bind a fixed run of segment kinds: the kinds, and the
# pattern-id prefix of the options the last segment yields. Leading
# segments are turns, which only change the heading.
_SEGMENT_CATEGORIES: dict[TaskCategory, tuple[tuple[str, ...], str]] = {
    TaskCategory.TURN_TO_X: (("turn",), "turn"),
    TaskCategory.ORIENT: (("turn",), "orient"),
    TaskCategory.MOVE_TO_X: (("move",), "move"),
    TaskCategory.MOVE_UNTIL: (("move",), "until"),
    TaskCategory.TURN_AND_MOVE_TO_X: (("turn", "move"), "tm"),
}

# Literal patterns by the phrase of each segment: "turn" (one turn action),
# "around" (two) or "move".
_LITERAL_PATTERNS = {
    ("turn",): "lo_turn",
    ("around",): "lo_turn_around",
    ("move",): "lo_move",
    ("turn", "move"): "lo_turn_move",
    ("around", "move"): "lo_around_move",
    ("move", "turn"): "lo_move_turn",
    ("move", "around"): "lo_move_around",
}

_View = list[Optional[tuple[Optional[str], str, str]]]


def _relative_side(facing: Direction, toward: Direction) -> str:
    return _RELATIVE_SIDES[(int(toward) - int(facing)) % 4]


def _around(world: WorldMap, node: tuple[int, int]) -> _View:
    """One entry per direction, N, E, S, W: None for a wall, else the item
    at the neighbour (or None) and the floor and wall of the edge to it."""
    x, y = node
    view = []
    for dx, dy in DELTAS.values():
        nb = (x + dx, y + dy)
        attrs = world.edge_attrs.get(norm_edge(node, nb))
        view.append(None if attrs is None else (world.items.get(nb), *attrs))
    return view


def _unique(view: _View, d: Direction, index: int) -> bool:
    """True if no direction but `d` shows landmark `index` of view[d]."""
    value = view[d][index]
    return all(e is None or e[index] != value for k, e in enumerate(view) if k != d)


def _run_nodes(world: WorldMap, node: tuple[int, int], facing: Direction,
               count: int) -> Optional[list[tuple[int, int]]]:
    nodes = [node]
    for _ in range(count):
        nxt = world.neighbor_toward(nodes[-1], facing)
        if nxt is None:
            return None
        nodes.append(nxt)
    return nodes


def _turn_target_options(view: _View, facing: Direction) -> list[Option]:
    """Phrasings for "turn toward X" where X sits one hop ahead after the turn."""
    ahead = view[facing]
    if ahead is None:
        return []
    return [Option(f"turn_{name}", {name: ahead[i]}) for i, name in enumerate(_LANDMARKS)
            if ahead[i] is not None and _unique(view, facing, i)]


def _move_target_options(world: WorldMap, node: tuple[int, int], facing: Direction,
                         count: int, prefix: str) -> list[Option]:
    """Phrasings for a straight move run ending at a describable node; the
    "until" prefix adds the crossing-floor and intersection phrasings.

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
        opts.append(Option(f"{prefix}_item", {"item": item}))
    if world.neighbor_toward(end, facing) is None:
        opts.append(Option(f"{prefix}_end", {"end": "end"}))
    if prefix == "until":
        views = [_around(world, n) for n in nodes]
        run_floor = views[0][facing][1]
        earlier = {e[1] for view in views[:-1] for e in view if e is not None}
        crossing = sorted({e[1] for e in views[-1] if e is not None} - {run_floor})
        opts.extend(Option("until_floor", {"floor": fl}) for fl in crossing if fl not in earlier)
        if views[-1].count(None) <= 1 and all(v.count(None) >= 2 for v in views[1:-1]):
            opts.append(Option("until_intersection", {}))
    return opts


def _orient_options(view: _View, facing: Direction) -> list[Option]:
    """Phrasings that pin down the final heading by a landmark's relative side.

    "front" relations are left to the turn-toward category, so sides here
    are back/left/right only.
    """
    opts = []
    walls = [d for d in Direction if view[d] is None]
    if len(walls) == 1:
        side = _relative_side(facing, walls[0])
        if side != "front":
            opts.append(Option("orient_wall", {"side": side}))
    for d in Direction:
        side = _relative_side(facing, d)
        if view[d] is None or side == "front":
            continue
        # items and floors; "orient_wall" names the blocked side, not a painting
        for i, name in enumerate(_LANDMARKS[:2]):
            if view[d][i] is not None and _unique(view, d, i):
                opts.append(Option(f"orient_{name}", {name: view[d][i], "side": side}))
    return opts


def _segment_options(world: WorldMap, node: tuple[int, int], facing: Direction,
                     seg: Segment, prefix: str) -> list[Option]:
    """Perceptual phrasings of `seg`, begun at `node` facing `facing`, whose
    pattern ids start with `prefix`."""
    if seg.kind == "move":
        return _move_target_options(world, node, facing, len(seg.actions), prefix)
    options = _orient_options if prefix == "orient" else _turn_target_options
    return options(_around(world, node), _apply_turns(facing, seg))


def _description_options(world: WorldMap, pose: Pose) -> list[Option]:
    node = (pose.x, pose.y)
    view = _around(world, node)
    opts = []
    floors = sorted({e[1] for e in view if e is not None})
    if len(floors) >= 2:
        pattern = "desc_intersection" if view.count(None) <= 1 else "desc_corner"
        opts.append(Option(pattern, {"floor": floors[0], "floor2": floors[1]}))
    item = world.items.get(node)
    if item is not None:
        opts.append(Option("desc_item_here", {"item": item}))
    ahead = view[pose.dir]
    if ahead is None:
        opts.append(Option("desc_dead_end", {"end": "end"}))
    elif ahead[0] is not None:
        opts.append(Option("desc_item_ahead", {"item": ahead[0]}))
    return opts


def _language_only_options(segments: Sequence[Segment]) -> list[Option]:
    """Literal phrasings; counts beyond the number-word table cannot match."""
    phrases, slots = [], {}
    for seg in segments:
        k = len(seg.actions)
        if seg.kind == "move" and k <= len(COUNT_WORDS):
            phrases.append("move")
            slots.update(count=COUNT_WORDS[k - 1], step="step" if k == 1 else "steps")
        elif seg.kind == "turn" and k == 1:
            phrases.append("turn")
            slots["side"] = "right" if seg.actions[0] is Action.RIGHT else "left"
        elif seg.kind == "turn" and k == 2:
            phrases.append("around")
        else:
            return []
    pattern = _LITERAL_PATTERNS.get(tuple(phrases))
    if pattern is None:
        return []
    if pattern == "lo_move" and k == 1:
        return [Option(pattern, slots), Option("lo_move_one", {})]
    return [Option(pattern, slots)]


def _is_perceptual(pattern: str) -> bool:
    return not pattern.startswith("lo_")


def _combo_sub_binding(world: WorldMap, pose: Pose, seg: Segment) -> Optional[Binding]:
    """Bind one segment as a combination clause: literal or perceptual."""
    opts = _language_only_options([seg])
    for prefix in ("turn",) if seg.kind == "turn" else ("move", "until"):
        opts.extend(_segment_options(world, (pose.x, pose.y), pose.dir, seg, prefix))
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

    if category in _SEGMENT_CATEGORIES:
        kinds, prefix = _SEGMENT_CATEGORIES[category]
        n = len(kinds)
        if tuple(seg.kind for seg in segments[:n]) != kinds:
            return None
        facing = start.dir
        for seg in segments[:n - 1]:
            facing = _apply_turns(facing, seg)
        opts = _segment_options(world, node, facing, segments[n - 1], prefix)
        return Binding(category, n, opts) if opts else None

    if category is TaskCategory.ANY_COMBINATION:
        if len(segments) < 2:
            return None
        first = _combo_sub_binding(world, start, segments[0])
        if first is None:
            return None
        mid, outcome = execute(world, start, segments[0].actions)
        if outcome is Outcome.WALL_HIT:
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


def generate_instance(category: Optional[TaskCategory], config: WorldConfig,
                      rng: random.Random, bank: Optional[TemplateBank] = None,
                      max_attempts: int = 500, instance_id: int = 0,
                      seed: int = 0) -> Instance:
    """Rejection-sample a world and path until `category` binds a prefix.

    A None category is unrestricted: each attempt tries the categories in a
    freshly shuffled order and keeps the first one that binds.
    Single-turn prefixes are preferred (p=0.7) over two-segment ones for
    the literal category; combination always uses two segments.
    """
    if bank is None:
        bank = _default_bank()
    for _ in range(max_attempts):
        world = generate_world(rng, config)
        try:
            path = sample_endpoints(world, rng, config.min_dist)
        except MapResampleNeeded:
            continue
        start = Pose(path[0][0], path[0][1], Direction(randbelow(rng, 4)))
        # No category binds more than two segments (match_pattern), so only
        # the first two are made.
        segments = list(islice(_segments(path_to_actions(path, start.dir)), 2))
        if category is None:
            order = list(TaskCategory)
            rng.shuffle(order)
        else:
            order = [category]
        for cat in order:
            if cat is TaskCategory.LANGUAGE_ONLY:
                want = 1 if rng.random() < 0.7 else 2
                prefix = segments[:min(want, len(segments))]
            elif cat is TaskCategory.DESCRIPTION:
                prefix = []
            else:
                prefix = segments
            binding = match_pattern(cat, world, start, prefix)
            if binding is None:
                continue
            gold = segment_actions(segments[:binding.n_segments])
            tokens = realize_binding(binding, bank, rng)
            return Instance(instance_id, seed, cat, world, start, tokens, gold)
    raise GenerationError(f"no instance in {max_attempts} attempts" if category is None else
                          f"no {category.value} instance in {max_attempts} attempts")


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
        category = None if mix is None else _pick_category(mix, rng)
        yield generate_instance(category, config, rng, bank, instance_id=index, seed=seed)
