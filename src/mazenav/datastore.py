"""Instance serialization (JSONL), stratified splitting, and vocabulary."""

from __future__ import annotations

import contextlib
import functools
import json
import os
import random
import secrets
import stat
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

from .langgen import Instance, TaskCategory
from .worldsim import (Action, Direction, Lookup, Pose, WorldMap, world_from_dict,
                       world_to_dict)

UNK = "<unk>"
UNK_INDEX = 0


class DatasetError(ValueError):
    """Malformed dataset file; message names the offending line."""


def instance_to_dict(inst: Instance) -> dict:
    """JSON-ready form with stable key order (reproducible byte output)."""
    return {
        "id": inst.id,
        "seed": inst.seed,
        "category": inst.category.value,
        "start": {"x": inst.start.x, "y": inst.start.y, "dir": inst.start.dir.name},
        "instruction": list(inst.instruction),
        "actions": [a.value for a in inst.actions],
        "map": world_to_dict(inst.world),
    }


_CATEGORIES = Lookup({c.value: c for c in TaskCategory}, "unknown category {!r}".format)
_DIRECTIONS = Lookup({d.name: d for d in Direction}, "unknown direction {!r}".format)
_ACTIONS = Lookup({a.value: a for a in Action}, "unknown action {!r}".format)
# Poses are immutable, so read instances share them.
_pose = functools.lru_cache(maxsize=4096)(Pose)


def instance_from_dict(data: dict) -> Instance:
    """Inverse of instance_to_dict; ValueError names a start pose off the map,
    an unknown category, direction or action, or what world_from_dict finds
    wrong with the map."""
    world = world_from_dict(data["map"])
    start = data["start"]
    x, y = start["x"], start["y"]
    category = _CATEGORIES[data["category"]]
    heading = _DIRECTIONS[start["dir"]]
    actions = list(map(_ACTIONS.__getitem__, data["actions"]))
    if type(x) is not int or type(y) is not int or not world.in_bounds((x, y)):
        raise ValueError(f"start ({x!r}, {y!r}) is outside the "
                         f"{world.width}x{world.height} map")
    return Instance(
        id=data["id"],
        seed=data["seed"],
        category=category,
        world=world,
        start=_pose(x, y, heading),
        instruction=list(data["instruction"]),
        actions=actions,
    )


@contextlib.contextmanager
def atomic_write(path: str, newline: str | None = None,
                 binary: bool = False) -> Iterator[IO]:
    """A file whose contents replace the file `path` names only once the
    `with` block completes; a UTF-8 text file, or a binary one if `binary`.

    The data goes to a temporary file beside the target (through any
    symlinks), which then replaces it in one step with the old file's
    permissions: a failure partway leaves an existing file as it was and
    no new one. A target that is not a regular file, such as a device, is
    written in place.
    """
    def open_file(name: str, mode: str) -> IO:
        if binary:
            return open(name, mode + "b")
        return open(name, mode, encoding="utf-8", newline=newline)

    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open_file(target, "w") as fh:
            yield fh
        return
    folder, name = os.path.split(target)
    tmp = os.path.join(folder, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open_file(tmp, "x") as fh:
            yield fh
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write_instances(instances: Iterable[Instance], path: str) -> int:
    """Write one compact JSON object per line, atomically; returns the line
    count."""
    n = 0
    with atomic_write(path) as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_dict(inst), separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


def parse_line(path: str, lineno: int, line: str) -> Instance | WorldMap:
    """The instance, or the bare map, that line `lineno` of file `path`
    holds; a malformed line raises DatasetError naming the file, the line
    and the cause."""
    try:
        data = json.loads(line)
        return world_from_dict(data) if "edgeAttrs" in data else instance_from_dict(data)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise DatasetError(f"{path}: line {lineno}: {exc}") from exc


def read_instances(path: str) -> Iterator[Instance]:
    """Instances of a JSONL file, one per non-blank line; a malformed line,
    or one holding a bare map, raises DatasetError naming the file, the
    line and the cause."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            inst = parse_line(path, lineno, line)
            if isinstance(inst, WorldMap):
                raise DatasetError(f"{path}: line {lineno}: a bare map, not an instance")
            yield inst


@dataclass
class DatasetSplit:
    train: list[int]
    dev: list[int]
    test: list[int]
    by_category: dict[str, tuple[int, int, int]]


def _largest_remainder(quotas: Sequence[float], total: int) -> list[int]:
    """Integer allocation matching `total` exactly; counts differ from the
    real-valued quotas by less than 1."""
    floors = [int(q) for q in quotas]
    residue = total - sum(floors)
    order = sorted(range(len(quotas)), key=lambda i: (quotas[i] - floors[i], -i),
                   reverse=True)
    for i in order[:residue]:
        floors[i] += 1
    return floors


def split_dataset(instances: Sequence[Instance],
                  fractions: tuple[float, float, float] = (0.70, 0.15, 0.15),
                  seed: int = 0) -> DatasetSplit:
    """Stratified train/dev/test split of instance ids.

    Global split sizes are fixed first (largest remainder over fractions,
    so train takes no more than its exact share and 105000 yields
    73500/15750/15750), then dev and test quotas are distributed over the
    categories in proportion to category size, again by largest remainder:
    every category's dev and test counts are within one instance of the
    ideal fraction. Instances are shuffled within category by `seed`.
    """
    if not instances:
        raise ValueError("cannot split an empty dataset")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    n = len(instances)
    _, n_dev, n_test = _largest_remainder([n * f for f in fractions], n)

    groups: dict[str, list[int]] = {}
    for inst in instances:
        groups.setdefault(inst.category.value, []).append(inst.id)
    cats = sorted(groups)
    sizes = [len(groups[c]) for c in cats]
    dev_counts = _largest_remainder([s * n_dev / n for s in sizes], n_dev)
    test_counts = _largest_remainder([s * n_test / n for s in sizes], n_test)

    rng = random.Random(seed)
    train: list[int] = []
    dev: list[int] = []
    test: list[int] = []
    by_category: dict[str, tuple[int, int, int]] = {}
    for cat, n_d, n_t in zip(cats, dev_counts, test_counts):
        ids = groups[cat][:]
        rng.shuffle(ids)
        dev.extend(ids[:n_d])
        test.extend(ids[n_d:n_d + n_t])
        train.extend(ids[n_d + n_t:])
        by_category[cat] = (len(ids) - n_d - n_t, n_d, n_t)
    return DatasetSplit(sorted(train), sorted(dev), sorted(test), by_category)


class Vocabulary:
    """Token/index bijection with index 0 reserved for unknown tokens."""

    def __init__(self, tokens: Sequence[str]):
        self.tokens = [UNK] + [t for t in tokens if t != UNK]
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, words: Sequence[str]) -> list[int]:
        return [self.index.get(w, UNK_INDEX) for w in words]

    def to_list(self) -> list[str]:
        return list(self.tokens)

    @classmethod
    def from_list(cls, tokens: Sequence[str]) -> "Vocabulary":
        if not tokens or tokens[0] != UNK:
            raise ValueError("vocabulary list must start with the UNK token")
        return cls(tokens[1:])


def build_vocab(instances: Iterable[Instance]) -> Vocabulary:
    """First-occurrence ordering over instruction tokens; UNK is index 0."""
    seen: dict[str, None] = {}
    empty = True
    for inst in instances:
        empty = False
        for tok in inst.instruction:
            seen.setdefault(tok, None)
    if empty:
        raise ValueError("cannot build a vocabulary from an empty stream")
    return Vocabulary(list(seen))
