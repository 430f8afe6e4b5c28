"""Maze world model: procedural map generation, agent dynamics, and path planning.

Coordinate convention: x is the column index growing East, y is the row index
growing South, so North decreases y. Clockwise order is N, E, S, W.
"""

from __future__ import annotations

import functools
import heapq
import random
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import NamedTuple

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

    def opposite(self) -> "Direction":
        return Direction((self + 2) % 4)


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


@dataclass(frozen=True)
class StepResult:
    """One of moved/turned/stopped/wall_hit; `pose` is the resulting pose
    (unchanged for stopped and wall_hit, which are terminal)."""

    kind: str  # "moved" | "turned" | "stopped" | "wall_hit"
    pose: Pose


@dataclass
class Hall:
    """Maximal run of collinear consecutive edges sharing one floor pattern."""

    axis: str  # "horizontal" | "vertical"
    edges: list[Edge]
    floor: str | None = None


@dataclass
class Area:
    id: int
    nodes: list[Node]
    wall: str


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


class _Grid(NamedTuple):
    """Tables of one width x height grid, indexed by node index y*width + x.

    A node's links are its grid neighbours as (node index, normalised edge)
    in N, E, S, W order; bit p of an open mask stands for link p. The edge
    tuples are shared by every maze of this size, so set and dict lookups
    of them mostly succeed on identity.
    """

    nodes: tuple[Node, ...]
    candidates: tuple[tuple[tuple[tuple[int, Edge], ...], ...], ...]  # [node][open mask] -> links
    all_open: tuple[int, ...]  # [node] -> open mask with every link set
    closers: tuple[tuple[tuple[int, int], ...], ...]  # [node] -> (neighbour, mask clearing node's bit there)


@functools.lru_cache(maxsize=16)
def _grid(width: int, height: int) -> _Grid:
    nodes = tuple((x, y) for y in range(height) for x in range(width))
    links = []
    for x, y in nodes:
        row = []
        for dx, dy in DELTAS.values():
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height:
                row.append((ny * width + nx, norm_edge((x, y), (nx, ny))))
        links.append(row)
    candidates = tuple(
        tuple(tuple(link for p, link in enumerate(row) if mask >> p & 1)
              for mask in range(1 << len(row)))
        for row in links)
    all_open = tuple((1 << len(row)) - 1 for row in links)
    closers = tuple(
        tuple((j, ~(1 << [k for k, _ in links[j]].index(i))) for j, _ in row)
        for i, row in enumerate(links))
    return _Grid(nodes, candidates, all_open, closers)


@dataclass
class WorldMap:
    width: int
    height: int
    edges: frozenset[Edge]
    items: dict[Node, str]
    halls: list[Hall]
    edge_attrs: dict[Edge, tuple[str, str]]  # edge -> (floor, wall painting)
    areas: list[Area]
    neighbors: dict[Node, list[Node]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        adj: dict[Node, list[Node]] = {node: [] for node in _grid(self.width, self.height).nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self.neighbors = adj

    def in_bounds(self, node: Node) -> bool:
        return 0 <= node[0] < self.width and 0 <= node[1] < self.height

    def has_edge(self, a: Node, b: Node) -> bool:
        return norm_edge(a, b) in self.edges

    def neighbor_toward(self, node: Node, direction: Direction) -> Node | None:
        """Adjacent node in `direction` if the connecting edge is open."""
        dx, dy = DELTAS[direction]
        nxt = (node[0] + dx, node[1] + dy)
        return nxt if norm_edge(node, nxt) in self.edges else None

    def degree(self, node: Node) -> int:
        return len(self.neighbors[node])


def generate_maze(width: int, height: int, rng: random.Random) -> set[Edge]:
    """Carve a perfect maze over the width x height grid with an iterative
    depth-first backtracker from a random start node.

    The RNG is drawn exactly as follows: randrange(width) and randrange(height)
    for the start, then randrange(len(candidates)) at each step with more than
    one unvisited neighbour, the candidates listed in N, E, S, W order. Each
    node keeps a mask of its unvisited neighbours, so a step is two lookups.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid must be at least 1x1, got {width}x{height}")
    grid = _grid(width, height)
    candidates, closers = grid.candidates, grid.closers
    randrange = rng.randrange
    unvisited = list(grid.all_open)
    edges: set[Edge] = set()
    x = randrange(width)
    here = randrange(height) * width + x
    for j, close in closers[here]:
        unvisited[j] &= close
    stack = [here]
    while stack:
        top = stack[-1]
        options = candidates[top][unvisited[top]]
        if not options:
            stack.pop()
            continue
        nxt, edge = options[randrange(len(options))] if len(options) > 1 else options[0]
        for j, close in closers[nxt]:
            unvisited[j] &= close
        edges.add(edge)
        stack.append(nxt)
    return edges


def compute_halls(edges: set[Edge] | frozenset[Edge]) -> list[Hall]:
    """Partition edges into maximal collinear consecutive runs: horizontal
    halls by row then column, then vertical halls by column then row.

    Hall edges are normalised unit edges; an input edge that already is one
    is kept as the same object.
    """
    rows: list[tuple[int, int, Edge]] = []  # (y, smaller x, edge) per horizontal edge
    cols: list[tuple[int, int, Edge]] = []  # (x, smaller y, edge) per vertical edge
    for e in edges:
        (x1, y1), (x2, y2) = e
        if y1 == y2:
            if x2 == x1 + 1:
                rows.append((y1, x1, e))
            else:
                x = min(x1, x2)
                rows.append((y1, x, ((x, y1), (x + 1, y1))))
        elif y2 == y1 + 1 and x2 == x1:
            cols.append((x1, y1, e))
        else:
            y = min(y1, y2)
            cols.append((x1, y, ((x1, y), (x1, y + 1))))
    rows.sort()
    cols.sort()
    halls: list[Hall] = []
    for axis, keyed in (("horizontal", rows), ("vertical", cols)):
        last_line, last = None, 0
        for line, pos, e in keyed:
            if line != last_line or pos != last + 1:
                run: list[Edge] = []
                halls.append(Hall(axis, run))
            run.append(e)
            last_line, last = line, pos
    return halls


def _cut_bounds(width: int, height: int, n_areas: int,
                rng: random.Random) -> tuple[int, list[int]]:
    """Draw n_areas - 1 parallel axis-aligned cuts, n_areas being at most the
    longer side; returns the cut axis (0 for x, 1 for y) and the strip bounds
    [0, cuts..., size]."""
    axes = [ax for ax, size in ((0, width), (1, height)) if size >= n_areas]
    axis = axes[rng.randrange(len(axes))]
    size = height if axis else width
    return axis, [0, *sorted(rng.sample(range(1, size), n_areas - 1)), size]


def _strip_nodes(width: int, height: int, axis: int, lo: int, hi: int) -> list[Node]:
    """Nodes with coordinate `axis` in [lo, hi), in row-major order."""
    if axis:
        return [(x, y) for y in range(lo, hi) for x in range(width)]
    return [(x, y) for y in range(height) for x in range(lo, hi)]


def decorate(edges: set[Edge] | frozenset[Edge], rng: random.Random,
             config: WorldConfig | None = None) -> WorldMap:
    """Dress a maze: items on random nodes, one floor per hall, and 2-3 areas
    each painting its edges with a distinct wall painting.

    An edge takes the painting of the area containing its lexicographically
    smaller endpoint; cuts are redrawn until every area owns at least one edge
    so the number of distinct paintings equals the number of areas.
    """
    cfg = config or WorldConfig()
    width, height = cfg.width, cfg.height
    randrange, random_ = rng.randrange, rng.random
    p_item, n_items = cfg.p_item, len(ITEMS)
    items: dict[Node, str] = {}
    for node in _grid(width, height).nodes:
        if random_() < p_item:
            items[node] = ITEMS[randrange(n_items)]
    halls = compute_halls(edges)
    n_floors = len(FLOORS)
    for hall in halls:
        hall.floor = FLOORS[randrange(n_floors)]

    n_areas = min(rng.choice((2, 3)), max(width, height), max(len(edges), 1))
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
    areas = [Area(i, _strip_nodes(width, height, axis, bounds[i], bounds[i + 1]), paintings[i])
             for i in range(n_strips)]
    wall_at = [paintings[i] for i in range(n_strips) for _ in range(bounds[i], bounds[i + 1])]
    edge_attrs = {e: (hall.floor, wall_at[e[0][axis]]) for hall in halls for e in hall.edges}
    return WorldMap(width, height, frozenset(edges), items, halls, edge_attrs, areas)


def generate_world(rng: random.Random, config: WorldConfig | None = None) -> WorldMap:
    cfg = config or WorldConfig()
    return decorate(generate_maze(cfg.width, cfg.height, rng), rng, cfg)


def step(world: WorldMap, pose: Pose, action: Action) -> StepResult:
    """Apply one action. Turns rotate in place, MOVE advances through an open
    edge or reports wall_hit, STOP is terminal."""
    if action is Action.RIGHT:
        return StepResult("turned", Pose(pose.x, pose.y, pose.dir.clockwise()))
    if action is Action.LEFT:
        return StepResult("turned", Pose(pose.x, pose.y, pose.dir.counterclockwise()))
    if action is Action.STOP:
        return StepResult("stopped", pose)
    nxt = world.neighbor_toward((pose.x, pose.y), pose.dir)
    if nxt is None:
        return StepResult("wall_hit", pose)
    return StepResult("moved", Pose(nxt[0], nxt[1], pose.dir))


def execute(world: WorldMap, pose: Pose, actions: list[Action],
            max_actions: int = 1_000_000) -> tuple[Pose, Outcome]:
    """Run actions until STOP, a wall hit, or the list/budget runs out."""
    taken = 0
    for action in actions:
        if taken >= max_actions:
            return pose, Outcome.EXHAUSTED
        result = step(world, pose, action)
        taken += 1
        if result.kind == "stopped":
            return pose, Outcome.STOPPED
        if result.kind == "wall_hit":
            return pose, Outcome.WALL_HIT
        pose = result.pose
    return pose, Outcome.EXHAUSTED


def shortest_path(world: WorldMap, start: Node, goal: Node) -> list[Node]:
    """A* with the Manhattan heuristic; returns the node path including both
    endpoints."""
    if not (world.in_bounds(start) and world.in_bounds(goal)):
        raise ValueError(f"endpoints out of bounds: {start}, {goal}")
    if start == goal:
        return [start]
    gx, gy = goal
    g: dict[Node, int] = {start: 0}
    parent: dict[Node, Node] = {}
    frontier: list[tuple[int, int, Node]] = [(abs(start[0] - gx) + abs(start[1] - gy), 0, start)]
    counter = 0
    while frontier:
        _, _, node = heapq.heappop(frontier)
        if node == goal:
            path = [node]
            while node != start:
                node = parent[node]
                path.append(node)
            path.reverse()
            return path
        base = g[node] + 1
        for nb in world.neighbors[node]:
            if base < g.get(nb, 1 << 30):
                g[nb] = base
                parent[nb] = node
                counter += 1
                heapq.heappush(frontier, (base + abs(nb[0] - gx) + abs(nb[1] - gy), counter, nb))
    raise NoPathError(f"no path from {start} to {goal}")


def bfs_distances(world: WorldMap, start: Node, stop_at: Node | None = None) -> dict[Node, int]:
    """Hop distances from `start` to every reachable node. With `stop_at`, the
    search ends once that node is reached, so farther nodes may be missing."""
    dist = {start: 0}
    if start == stop_at:
        return dist
    neighbors = world.neighbors
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        reached = []
        for node in frontier:
            for nb in neighbors[node]:
                if nb not in dist:
                    dist[nb] = d
                    if nb == stop_at:
                        return dist
                    reached.append(nb)
        frontier = reached
    return dist


_DIRECTION_OF: dict[tuple[int, int], Direction] = {delta: d for d, delta in DELTAS.items()}

# Minimal turns indexed by (target - current) % 4; 180 degrees is two RIGHTs.
_TURNS: tuple[tuple[Action, ...], ...] = (
    (), (Action.RIGHT,), (Action.RIGHT, Action.RIGHT), (Action.LEFT,))


def direction_between(a: Node, b: Node) -> Direction:
    direction = _DIRECTION_OF.get((b[0] - a[0], b[1] - a[1]))
    if direction is None:
        raise InvalidPathError(f"nodes {a} and {b} are not adjacent")
    return direction


def turns_toward(current: Direction, target: Direction) -> list[Action]:
    """Minimal turn sequence; 180 degrees is two RIGHTs by tie-break."""
    return list(_TURNS[(target - current) % 4])


def path_to_actions(path: list[Node], start_dir: Direction) -> list[Action]:
    """Translate a node path into turn/move actions ending in STOP."""
    actions: list[Action] = []
    move = Action.MOVE
    facing = start_dir
    for a, b in zip(path, path[1:]):
        target = direction_between(a, b)
        actions += _TURNS[(target - facing) % 4]
        actions.append(move)
        facing = target
    actions.append(Action.STOP)
    return actions


def sample_endpoints(world: WorldMap, rng: random.Random, min_dist: int = 4,
                     max_attempts: int = 64) -> tuple[Node, Node]:
    """Uniform rejection sampling of node pairs at least min_dist hops apart."""
    if min_dist < 1:
        raise ValueError("min_dist must be >= 1")
    width, height = world.width, world.height
    for _ in range(max_attempts):
        start = (rng.randrange(width), rng.randrange(height))
        goal = (rng.randrange(width), rng.randrange(height))
        if start == goal:
            continue
        dist = bfs_distances(world, start, stop_at=goal).get(goal)
        if dist is not None and dist >= min_dist:
            return start, goal
    raise MapResampleNeeded(
        f"no node pair at distance >= {min_dist} found in {max_attempts} attempts")


def world_to_dict(world: WorldMap) -> dict:
    """Canonical JSON-ready form with stable key and element order."""
    edges = sorted(world.edges)
    return {
        "width": world.width,
        "height": world.height,
        "edges": [[a[0], a[1], b[0], b[1]] for a, b in edges],
        "items": {f"{x},{y}": world.items[(x, y)] for x, y in sorted(world.items)},
        "halls": [
            {
                "axis": h.axis,
                "edges": [[a[0], a[1], b[0], b[1]] for a, b in h.edges],
                "floor": h.floor,
            }
            for h in world.halls
        ],
        "edgeAttrs": [
            {
                "edge": [a[0], a[1], b[0], b[1]],
                "floor": world.edge_attrs[(a, b)][0],
                "wall": world.edge_attrs[(a, b)][1],
            }
            for a, b in edges
        ],
        "areas": [
            {"id": ar.id, "nodes": [[x, y] for x, y in ar.nodes], "wall": ar.wall}
            for ar in world.areas
        ],
    }


def world_from_dict(data: dict) -> WorldMap:
    def to_edge(quad: list[int]) -> Edge:
        return norm_edge((quad[0], quad[1]), (quad[2], quad[3]))

    edges = frozenset(to_edge(q) for q in data["edges"])
    items = {}
    for key, item in data["items"].items():
        x, y = key.split(",")
        items[(int(x), int(y))] = item
    halls = [
        Hall(h["axis"], [to_edge(q) for q in h["edges"]], h["floor"])
        for h in data["halls"]
    ]
    edge_attrs = {to_edge(ea["edge"]): (ea["floor"], ea["wall"]) for ea in data["edgeAttrs"]}
    areas = [
        Area(aa["id"], [(x, y) for x, y in aa["nodes"]], aa["wall"])
        for aa in data["areas"]
    ]
    return WorldMap(data["width"], data["height"], edges, items, halls, edge_attrs, areas)
