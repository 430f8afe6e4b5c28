"""Maze world model: procedural map generation, agent dynamics, and path planning.

Coordinate convention: x is the column index growing East, y is the row index
growing South, so North decreases y. Clockwise order is N, E, S, W.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Collection, NamedTuple

Node = tuple[int, int]
Edge = tuple[Node, Node]

ITEMS = ("barstool", "chair", "easel", "hatrack", "lamp", "sofa")
FLOORS = ("blue", "brick", "concrete", "flower", "grass", "gravel", "wood", "yellow")
WALL_PAINTINGS = ("butterfly", "fish", "tower")

class Direction(IntEnum):
    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3

    def clockwise(self, quarter_turns: int = 1) -> "Direction":
        return Direction((self + quarter_turns) % 4)

    def counterclockwise(self, quarter_turns: int = 1) -> "Direction":
        return Direction((self - quarter_turns) % 4)


# (dx, dy) per direction; North decreases y.
DELTAS: dict[Direction, tuple[int, int]] = {
    Direction.NORTH: (0, -1),
    Direction.EAST: (1, 0),
    Direction.SOUTH: (0, 1),
    Direction.WEST: (-1, 0),
}


class Action(Enum):
    MOVE = "MOVE"
    RIGHT = "RIGHT"
    LEFT = "LEFT"
    STOP = "STOP"


ACTIONS = (Action.MOVE, Action.RIGHT, Action.LEFT, Action.STOP)
ACTION_INDEX = {a: i for i, a in enumerate(ACTIONS)}


@dataclass(frozen=True)
class Pose:
    x: int
    y: int
    dir: Direction


class Outcome(Enum):
    STOPPED = "stopped"
    WALL_HIT = "wallHit"
    EXHAUSTED = "exhausted"


@dataclass
class WorldConfig:
    width: int = 8
    height: int = 8
    p_item: float = 0.25
    min_dist: int = 4


class NoPathError(Exception):
    pass


class InvalidPathError(ValueError):
    pass


class MapResampleNeeded(Exception):
    """Raised by sample_endpoints when no qualifying pair exists; the caller
    should generate a fresh map."""


def norm_edge(a: Node, b: Node) -> Edge:
    return (a, b) if a <= b else (b, a)


class Lookup(dict):
    """A table whose missing key raises ValueError(fault(key)), so that a
    lookup of a read entry names what is wrong with it."""

    __slots__ = ("fault",)

    def __init__(self, entries, fault: Callable[[object], str]):
        super().__init__(entries)
        self.fault = fault

    def __missing__(self, key):
        raise ValueError(self.fault(key))


# The (floor, wall painting) value of every edge attribute, shared by all
# worlds: _EDGE_ATTRS[floor][wall].
_EDGE_ATTRS = Lookup({f: Lookup({w: (f, w) for w in WALL_PAINTINGS}, "unknown wall {!r}".format)
                     for f in FLOORS}, "unknown floor {!r}".format)
_FLOOR_ATTRS = tuple(_EDGE_ATTRS[f] for f in FLOORS)  # [floor index][wall]


class _Grid(NamedTuple):
    """Tables of one width x height grid, indexed by node index y*width + x.

    A node's links are its grid neighbours in N, E, S, W order, each as
    (neighbour index, normalised edge). Bit p of a node's mask stands for
    its link p, so candidates[i][all_open[i]] lists every link of node i. The
    node and edge tuples are shared by every world of this size, generated
    or read, so set and dict lookups of them mostly succeed on identity,
    and containers that hold only them drop out of the garbage collector.
    The tables hold O(width * height) entries.
    """

    nodes: tuple[Node, ...]
    candidates: tuple[tuple[tuple[tuple[int, Edge], ...], ...], ...]  # [node][mask] -> links
    all_open: tuple[int, ...]  # [node] -> mask with every link set
    closers: tuple[tuple[tuple[int, int], ...], ...]  # [node] -> (neighbour, mask clearing node's bit there)
    key_nodes: Lookup  # "x,y" -> node
    # Hall order: horizontal edges by row then column, then vertical edges by
    # column then row. The edge (x, y)-(x+1, y) has rank y*width + x and
    # (x, y)-(x, y+1) has rank width*height + x*height + y, so the ranks of a
    # straight run are consecutive and two lines never touch. A rank is an
    # edge's id in a JSONL map.
    rank: dict[Edge, int]
    by_rank: tuple[Edge | None, ...]  # [rank] -> edge; None between lines
    edge_ids: Lookup  # rank -> edge, for the ranks that hold an edge


@functools.lru_cache(maxsize=16)
def _grid(width: int, height: int) -> _Grid:
    nodes = tuple((x, y) for y in range(height) for x in range(width))
    adjacent = []  # [node] -> neighbour indices in N, E, S, W order
    for x, y in nodes:
        row = []
        for dx, dy in DELTAS.values():
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height:
                row.append(ny * width + nx)
        adjacent.append(row)
    one: dict[Edge, Edge] = {}  # one tuple per edge, shared by both of its links
    links = []
    for i, row in enumerate(adjacent):
        links.append([])
        for j in row:
            e = norm_edge(nodes[i], nodes[j])
            links[i].append((j, one.setdefault(e, e)))
    candidates = tuple(
        tuple(tuple(link for p, link in enumerate(row) if mask >> p & 1)
              for mask in range(1 << len(row)))
        for row in links)
    all_open = tuple((1 << len(row)) - 1 for row in links)
    closers = tuple(tuple((j, ~(1 << adjacent[j].index(i))) for j in row)
                    for i, row in enumerate(adjacent))
    where = f"the {width}x{height} map"
    key_nodes = Lookup({f"{n[0]},{n[1]}": n for n in nodes},
                       lambda key: f"item node {key!r} is outside {where}")
    vertical_from = width * height
    slots = 2 * vertical_from

    def slot_edge(r: int) -> list[int]:  # [x0, y0, x1, y1] of the edge rank r would name
        if r < vertical_from:
            return [r % width, r // width, r % width + 1, r // width]
        x, y = divmod(r - vertical_from, height)
        return [x, y, x, y + 1]

    by_rank: list[Edge | None] = [None] * slots
    for y in range(height):
        for x in range(width - 1):
            by_rank[y * width + x] = one[(x, y), (x + 1, y)]
    for x in range(width):
        for y in range(height - 1):
            by_rank[vertical_from + x * height + y] = one[(x, y), (x, y + 1)]
    rank = {e: r for r, e in enumerate(by_rank) if e is not None}
    edge_ids = Lookup({r: e for e, r in rank.items()}, lambda r: (
        f"edge {slot_edge(r)} (id {r}) does not join grid neighbours of {where}"
        if 0 <= r < slots else
        f"edge id {r!r} is out of range for {where} (ids run from 0 to {slots - 1})"))
    return _Grid(nodes, candidates, all_open, closers, key_nodes, rank, tuple(by_rank), edge_ids)


@dataclass
class WorldMap:
    """A decorated maze. Its open edges are the keys of `edge_attrs`,
    normalised unit edges between grid nodes, and each maps to the edge's
    floor and wall painting; no other record of the edges is kept.

    The node and edge tuples come from the per-size table, so the garbage
    collector stops tracking the dicts that hold only them at its first
    pass over the world. Halls and the areas that paint the walls are not
    stored.
    """

    width: int
    height: int
    items: dict[Node, str]
    edge_attrs: dict[Edge, tuple[str, str]]  # edge -> (floor, wall painting)

    def in_bounds(self, node: Node) -> bool:
        return 0 <= node[0] < self.width and 0 <= node[1] < self.height

    def neighbor_toward(self, node: Node, direction: Direction) -> Node | None:
        """Adjacent node in `direction` if the connecting edge is open."""
        dx, dy = DELTAS[direction]
        nxt = (node[0] + dx, node[1] + dy)
        return nxt if norm_edge(node, nxt) in self.edge_attrs else None


def randbelow(rng: random.Random, n: int) -> int:
    """rng.randrange(n), drawn exactly as CPython draws it: the same value,
    and the same generator state after the call.

    For n >= 1, randrange(n) is Random._randbelow_with_getrandbits(n) in
    CPython 3.10 to 3.13: take k = n.bit_length() bits with getrandbits(k)
    until the result is below n. Calling getrandbits directly skips the
    argument handling that makes randrange about seven times as slow. The
    draws match for random.Random and any subclass that keeps its
    getrandbits. ValueError for n < 1.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        if n < 1:
            raise ValueError(f"randbelow needs n >= 1, got {n}")
        r = rng.getrandbits(k)
    return r


def generate_maze(width: int, height: int, rng: random.Random) -> set[Edge]:
    """Carve a perfect maze over the width x height grid with an iterative
    depth-first backtracker from a random start node.

    The RNG is drawn exactly as follows: randbelow(width) and
    randbelow(height) for the start, then randbelow(len(candidates)) at each
    step with more than one unvisited neighbour, the candidates listed in
    N, E, S, W order; each draw equals rng.randrange of the same bound. Each
    node keeps a mask of its unvisited neighbours, so a step is two lookups.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid must be at least 1x1, got {width}x{height}")
    grid = _grid(width, height)
    candidates, closers = grid.candidates, grid.closers
    getrandbits = rng.getrandbits
    unvisited = list(grid.all_open)
    edges: set[Edge] = set()
    x = randbelow(rng, width)
    here = randbelow(rng, height) * width + x
    for j, close in closers[here]:
        unvisited[j] &= close
    stack = [here]
    while stack:
        top = stack[-1]
        options = candidates[top][unvisited[top]]
        n = len(options)
        if not n:
            stack.pop()
            continue
        if n > 1:
            k = n.bit_length()  # randbelow(rng, n), inlined
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            nxt, edge = options[r]
        else:
            nxt, edge = options[0]
        for j, close in closers[nxt]:
            unvisited[j] &= close
        edges.add(edge)
        stack.append(nxt)
    return edges


def _table_runs(grid: _Grid, edges: Collection[Edge]) -> list[tuple[Edge, ...]]:
    """The edges of each hall (maximal run of collinear consecutive edges)
    for unit edges of `grid`, horizontal halls by row then column, then
    vertical halls by column then row: sort the edges' hall-order ranks and
    cut where they skip. KeyError for an edge not in the table."""
    ranks = sorted(map(grid.rank.__getitem__, edges))
    ranks.append(-2)  # closes the last run
    by_rank = grid.by_rank
    runs = []
    start, prev = ranks[0], ranks[0] - 1
    for r in ranks:
        if r != prev + 1:
            runs.append(by_rank[start:prev + 1])
            start = r
        prev = r
    return runs


def _cut_bounds(width: int, height: int, n_areas: int,
                rng: random.Random) -> tuple[int, list[int]]:
    """Draw n_areas - 1 parallel axis-aligned cuts, n_areas being at most the
    longer side; returns the cut axis (0 for x, 1 for y) and the strip bounds
    [0, cuts..., size]."""
    axes = [ax for ax, size in ((0, width), (1, height)) if size >= n_areas]
    axis = axes[randbelow(rng, len(axes))]
    size = height if axis else width
    return axis, [0, *sorted(rng.sample(range(1, size), n_areas - 1)), size]


def decorate(edges: Collection[Edge], rng: random.Random,
             config: WorldConfig | None = None) -> WorldMap:
    """Dress a maze: items on random nodes, one floor per hall, and 2-3 areas
    each painting its edges with a distinct wall painting.

    An edge takes the painting of the area containing its lexicographically
    smaller endpoint; cuts are redrawn until every area owns at least one edge
    so the number of distinct paintings equals the number of areas.
    """
    cfg = config or WorldConfig()
    width, height = cfg.width, cfg.height
    random_ = rng.random
    p_item, n_items = cfg.p_item, len(ITEMS)
    items: dict[Node, str] = {}
    grid = _grid(width, height)
    for node in grid.nodes:
        if random_() < p_item:
            items[node] = ITEMS[randbelow(rng, n_items)]
    n_floors = len(FLOORS)
    floored = [(run, _FLOOR_ATTRS[randbelow(rng, n_floors)]) for run in _table_runs(grid, edges)]

    n_areas = min(2 + randbelow(rng, 2), max(width, height), max(len(edges), 1))
    # Per axis, the coordinates of the smaller endpoints of the edges: a strip
    # owns an edge iff it holds one of these.
    owners = ({a[0] for a, _ in edges}, {a[1] for a, _ in edges})
    for _ in range(64):
        axis, bounds = _cut_bounds(width, height, n_areas, rng)
        if all(any(lo <= c < hi for c in owners[axis]) for lo, hi in zip(bounds, bounds[1:])):
            break
    else:
        axis, bounds = 0, [0, width]
    n_strips = len(bounds) - 1
    paintings = rng.sample(WALL_PAINTINGS, n_strips)
    wall_at = [paintings[i] for i in range(n_strips) for _ in range(bounds[i], bounds[i + 1])]
    edge_attrs = {e: attrs[wall_at[e[0][axis]]] for run, attrs in floored for e in run}
    return WorldMap(width, height, items, edge_attrs)


def generate_world(rng: random.Random, config: WorldConfig | None = None) -> WorldMap:
    """A maze carved by generate_maze and dressed by decorate."""
    cfg = config or WorldConfig()
    return decorate(generate_maze(cfg.width, cfg.height, rng), rng, cfg)


def step(world: WorldMap, pose: Pose, action: Action) -> Pose | None:
    """The pose after one action, or None for a MOVE into a wall. Turns
    rotate in place, MOVE advances through an open edge, and STOP leaves
    the pose as it is; the caller, holding the action, knows that it ends
    the run."""
    if action is Action.RIGHT:
        return Pose(pose.x, pose.y, pose.dir.clockwise())
    if action is Action.LEFT:
        return Pose(pose.x, pose.y, pose.dir.counterclockwise())
    if action is Action.STOP:
        return pose
    nxt = world.neighbor_toward((pose.x, pose.y), pose.dir)
    return None if nxt is None else Pose(nxt[0], nxt[1], pose.dir)


def execute(world: WorldMap, pose: Pose, actions: list[Action]) -> tuple[Pose, Outcome]:
    """Run actions until STOP, a wall hit, or the list runs out."""
    for action in actions:
        nxt = step(world, pose, action)
        if nxt is None:
            return pose, Outcome.WALL_HIT
        if action is Action.STOP:
            return pose, Outcome.STOPPED
        pose = nxt
    return pose, Outcome.EXHAUSTED


def _reached(world: WorldMap, start: int, stop_at: int | None) -> dict[int, int]:
    """Breadth-first search from node index `start` (y*width + x): each
    index reached, in the order reached, mapped to the index it was reached
    from (`start` to itself). A node's grid links are tried in N, E, S, W
    order, and a link is taken when its edge is in `world.edge_attrs`. The
    search ends once `stop_at` is reached, so farther nodes may be
    missing."""
    parent = {start: start}
    if start == stop_at:
        return parent
    grid = _grid(world.width, world.height)
    candidates, all_open = grid.candidates, grid.all_open
    open_edges = world.edge_attrs
    queue = [start]
    for i in queue:
        for j, edge in candidates[i][all_open[i]]:
            if j not in parent and edge in open_edges:
                parent[j] = i
                if j == stop_at:
                    return parent
                queue.append(j)
    return parent


def _route(world: WorldMap, start: Node, goal: Node) -> list[Node] | None:
    """A path with the fewest hops from `start` to `goal`, both included, or
    None when `goal` cannot be reached."""
    width = world.width
    s, g = start[1] * width + start[0], goal[1] * width + goal[0]
    parent = _reached(world, s, g)
    if g not in parent:
        return None
    nodes = _grid(width, world.height).nodes
    i, path = g, [goal]
    while i != s:
        i = parent[i]
        path.append(nodes[i])
    path.reverse()
    return path


def shortest_path(world: WorldMap, start: Node, goal: Node) -> list[Node]:
    """A path with the fewest hops, including both endpoints, found by one
    breadth-first search that stops at the goal. In a perfect maze, which
    every generated world is, it is the only simple path."""
    if not (world.in_bounds(start) and world.in_bounds(goal)):
        raise ValueError(f"endpoints out of bounds: {start}, {goal}")
    path = _route(world, start, goal)
    if path is None:
        raise NoPathError(f"no path from {start} to {goal}")
    return path


_DIRECTION_OF: dict[tuple[int, int], Direction] = {delta: d for d, delta in DELTAS.items()}

# The actions of one hop toward direction t from heading f, indexed by
# (t - f) % 4: the fewest turns (180 degrees is two RIGHTs), then MOVE.
_HOPS: tuple[tuple[Action, ...], ...] = (
    (Action.MOVE,), (Action.RIGHT, Action.MOVE), (Action.RIGHT, Action.RIGHT, Action.MOVE),
    (Action.LEFT, Action.MOVE))


def path_to_actions(path: list[Node], start_dir: Direction) -> list[Action]:
    """Translate a node path into turn/move actions ending in STOP."""
    actions: list[Action] = []
    facing = start_dir
    for a, b in zip(path, path[1:]):
        target = _DIRECTION_OF.get((b[0] - a[0], b[1] - a[1]))
        if target is None:
            raise InvalidPathError(f"nodes {a} and {b} are not adjacent")
        actions += _HOPS[(target - facing) % 4]
        facing = target
    actions.append(Action.STOP)
    return actions


def sample_endpoints(world: WorldMap, rng: random.Random, min_dist: int = 4,
                     max_attempts: int = 64) -> list[Node]:
    """Uniform rejection sampling of node pairs at least min_dist hops apart.
    Returns the path between the first such pair that shortest_path would
    return: path[0] is the start and path[-1] the goal."""
    if min_dist < 1:
        raise ValueError("min_dist must be >= 1")
    width, height = world.width, world.height
    for _ in range(max_attempts):
        start = (randbelow(rng, width), randbelow(rng, height))
        goal = (randbelow(rng, width), randbelow(rng, height))
        if start == goal:
            continue
        path = _route(world, start, goal)
        if path is not None and len(path) > min_dist:
            return path
    raise MapResampleNeeded(
        f"no node pair at distance >= {min_dist} found in {max_attempts} attempts")


def world_to_dict(world: WorldMap) -> dict:
    """Canonical JSON-ready form with stable key and element order.

    `edgeAttrs` maps floor -> wall painting -> the ascending ids (the grid
    ranks) of the edges with that floor and painting, floors and paintings
    sorted by name.
    """
    rank = _grid(world.width, world.height).rank
    groups: dict[tuple[str, str], list[int]] = {}
    for e, attrs in world.edge_attrs.items():
        groups.setdefault(attrs, []).append(rank[e])
    edge_attrs: dict[str, dict[str, list[int]]] = {}
    for floor, wall in sorted(groups):
        ids = groups[floor, wall]
        ids.sort()
        edge_attrs.setdefault(floor, {})[wall] = ids
    return {
        "width": world.width,
        "height": world.height,
        "items": {f"{x},{y}": world.items[(x, y)] for x, y in sorted(world.items)},
        "edgeAttrs": edge_attrs,
    }


# Known names, mapped to the module's own strings so that read worlds share them.
_ITEM_NAMES = Lookup({n: n for n in ITEMS}, "unknown item {!r}".format)
_INT_ONLY = frozenset((int,))  # True and 1.0 would otherwise find edge id 1
_EARLIER_LAYOUT = (
    "edgeAttrs is a list of {edge, floor, wall} entries, the map layout of JSONL "
    "versions 1 to 3, which is not read any more; regenerate the file with "
    "`mazenav gen` and the arguments in its .manifest.json (generation is "
    "unchanged, so the instances come out the same)")


def _edge_attrs_fault(groups) -> str | None:
    """The first fault of an `edgeAttrs` value that world_from_dict could not
    read: a part of the wrong shape, named by its floor and painting, or an
    edge id that is not an int. Called only once a read has failed."""
    if type(groups) is not dict:
        return f"edgeAttrs must map floors to paintings to edge-id lists, got {groups!r}"
    for floor, walls in groups.items():
        if type(walls) is not dict:
            return f"edgeAttrs floor {floor!r} must map paintings to edge-id lists, got {walls!r}"
        for wall, ids in walls.items():
            if type(ids) is not list:
                return f"edgeAttrs {floor!r} {wall!r} must be a list of edge ids, got {ids!r}"
            for i in ids:
                if type(i) is not int:
                    return f"edge id {i!r} is not an integer"
    return None


def world_from_dict(data: dict) -> WorldMap:
    """Inverse of world_to_dict, and the one reader of a serialised map.

    Edges and nodes resolve through the per-size table and names through
    the known-name tables, so a read world holds the same edge, node and
    name objects as a generated world of its size. Raises ValueError naming
    the cause for a side that is not an integer >= 1, an item off the grid
    or unknown, an unknown floor or wall painting, an `edgeAttrs` or a part
    of it that is not floor -> wall painting -> id list, an edge id that is
    not an int, is out of range, names a slot that holds no edge or is
    listed twice, and for the list-shaped `edgeAttrs` of earlier layouts.
    The order of floors, paintings and ids is not checked.
    """
    width, height = data["width"], data["height"]
    if type(width) is not int or type(height) is not int or width < 1 or height < 1:
        raise ValueError(f"map sides must be integers >= 1, got {width!r} x {height!r}")
    grid = _grid(width, height)
    key_nodes, edge_ids = grid.key_nodes, grid.edge_ids
    items = {key_nodes[key]: _ITEM_NAMES[item] for key, item in data["items"].items()}
    groups = data["edgeAttrs"]
    if type(groups) is list:
        raise ValueError(_EARLIER_LAYOUT)
    edge_attrs: dict[Edge, tuple[str, str]] = {}
    listed = 0
    try:
        for floor, walls in groups.items():
            by_wall = _EDGE_ATTRS[floor]
            for wall, ids in walls.items():
                attrs = by_wall[wall]
                if not _INT_ONLY.issuperset(map(type, ids)):
                    raise ValueError(_edge_attrs_fault(groups))
                for e in map(edge_ids.__getitem__, ids):
                    edge_attrs[e] = attrs
                listed += len(ids)
    except (AttributeError, TypeError):
        fault = _edge_attrs_fault(groups)
        if fault is None:
            raise
        raise ValueError(fault) from None
    if listed != len(edge_attrs):
        seen: set[int] = set()
        for walls in groups.values():
            for ids in walls.values():
                for i in ids:
                    if i in seen:
                        raise ValueError(f"edge id {i} is listed twice")
                    seen.add(i)
    return WorldMap(width, height, items, edge_attrs)
