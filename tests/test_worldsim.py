"""World generation, dynamics, and pathfinding tests.

Pathfinding is checked against oracles rather than fixtures: path lengths
against the hop distances of `bfs_distances`, and paths themselves against
an A* search written independently of the breadth-first search that
`shortest_path` runs, so the route computations must agree everywhere.
"""

import heapq
import random
import tracemalloc
from dataclasses import dataclass
from typing import Collection

import pytest

from mazenav.worldsim import (
    Action,
    Direction,
    Edge,
    InvalidPathError,
    MapResampleNeeded,
    NoPathError,
    Outcome,
    Pose,
    WorldConfig,
    WorldMap,
    _grid,
    _table_runs,
    decorate,
    execute,
    generate_maze,
    generate_world,
    norm_edge,
    path_to_actions,
    sample_endpoints,
    shortest_path,
    step,
    world_from_dict,
    world_to_dict,
)
from oracles import bfs_distances

FLOORS = ("blue", "brick", "concrete", "flower", "grass", "gravel", "wood", "yellow")


@dataclass
class Hall:
    """Maximal run of collinear consecutive edges; decorate gives all edges
    of a hall one floor pattern."""

    axis: str  # "horizontal" | "vertical"
    edges: tuple[Edge, ...]


def compute_halls(edges: Collection[Edge]) -> list[Hall]:
    """Partition edges into maximal collinear consecutive runs: horizontal
    halls by row then column, then vertical halls by column then row. The
    reference for worldsim._table_runs, which finds the same runs from the
    per-size table.

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
        run: list[Edge] = []
        last_line, last = None, 0
        for line, pos, e in keyed:
            if run and (line != last_line or pos != last + 1):
                halls.append(Hall(axis, tuple(run)))
                run = []
            run.append(e)
            last_line, last = line, pos
        if run:
            halls.append(Hall(axis, tuple(run)))
    return halls


def is_connected(width, height, edges):
    nodes = {(x, y) for x in range(width) for y in range(height)}
    adj = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    stack = [next(iter(nodes))]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(adj[n])
    return seen == nodes


class TestMazeGeneration:
    def test_spanning_tree_many_seeds(self):
        for seed in range(200):
            rng = random.Random(seed)
            edges = generate_maze(8, 8, rng)
            assert len(edges) == 63  # |V| - 1: connected + acyclic
            assert is_connected(8, 8, edges)

    def test_rectangular_sizes(self):
        for width, height in [(1, 1), (1, 5), (5, 1), (2, 2), (3, 7)]:
            edges = generate_maze(width, height, random.Random(0))
            assert len(edges) == width * height - 1
            assert is_connected(width, height, edges)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            generate_maze(0, 4, random.Random(0))

    def test_edges_are_normalized_grid_neighbors(self):
        edges = generate_maze(6, 6, random.Random(3))
        for a, b in edges:
            assert a < b
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_deterministic_per_seed(self):
        assert generate_maze(8, 8, random.Random(11)) == generate_maze(8, 8, random.Random(11))


class TestHalls:
    def test_halls_partition_edges(self):
        for seed in range(30):
            edges = generate_maze(8, 8, random.Random(seed))
            halls = compute_halls(edges)
            covered = [e for h in halls for e in h.edges]
            assert sorted(covered) == sorted(edges)  # exactly once each

    def test_halls_are_maximal_straight_runs(self):
        edges = {norm_edge((0, 0), (1, 0)), norm_edge((1, 0), (2, 0)),
                 norm_edge((2, 0), (2, 1))}
        halls = compute_halls(edges)
        by_axis = {h.axis: h for h in halls}
        assert len(halls) == 2
        assert len(by_axis["horizontal"].edges) == 2
        assert len(by_axis["vertical"].edges) == 1

    def test_single_node_map_has_no_halls(self):
        assert compute_halls(set()) == []

    def test_decorated_halls_match_compute_halls(self):
        # decorate floors the halls of the per-size table; compute_halls is the reference
        for width, height in [(1, 1), (1, 6), (6, 1), (2, 3), (8, 8), (10, 7)]:
            for seed in range(20):
                edges = generate_maze(width, height, random.Random(seed))
                world = decorate(edges, random.Random(seed), WorldConfig(width, height))
                expected = compute_halls(edges)
                assert _table_runs(_grid(width, height), edges) == \
                       [h.edges for h in expected]
                for hall in expected:
                    assert len({world.edge_attrs[e][0] for e in hall.edges}) == 1


def painted_strips(world):
    """The wall paintings of the strips of columns or of rows that the
    smaller endpoints of the edges fall in, in strip order, or None when
    neither cut axis explains the paintings: along it every coordinate must
    hold one painting, and each painting one run of coordinates."""
    for axis in (0, 1):
        at: dict[int, set[str]] = {}
        for e, (_, wall) in world.edge_attrs.items():
            at.setdefault(min(e)[axis], set()).add(wall)
        if any(len(walls) > 1 for walls in at.values()):
            continue
        runs = [w for _, (w,) in sorted(at.items())]
        strips = [w for i, w in enumerate(runs) if i == 0 or runs[i - 1] != w]
        if len(set(strips)) == len(strips):
            return strips
    return None


class TestDecoration:
    def test_world_invariants(self):
        config = WorldConfig()
        for seed in range(50):
            world = generate_world(random.Random(seed), config)
            # one floor per hall, shared by all edges of the hall
            for hall in compute_halls(world.edge_attrs):
                floors = {world.edge_attrs[e][0] for e in hall.edges}
                assert len(floors) == 1 and floors <= set(FLOORS)
            # an edge's painting is fixed by the strip of its smaller
            # endpoint; 1-3 strips own edges, each with its own painting
            strips = painted_strips(world)
            assert strips is not None
            assert 1 <= len(strips) <= 3
            assert set(strips) == {w for _, w in world.edge_attrs.values()}

    def test_item_rate_roughly_quarter(self):
        total = nodes = 0
        for seed in range(60):
            world = generate_world(random.Random(seed))
            total += len(world.items)
            nodes += 64
        assert 0.20 < total / nodes < 0.30

    def test_multiple_areas_common(self):
        counts = {1: 0, 2: 0, 3: 0}
        for seed in range(60):
            world = generate_world(random.Random(seed))
            counts[len({w for _, w in world.edge_attrs.values()})] += 1
        assert counts[2] + counts[3] > counts[1]


class TestDynamics:
    def build_line_world(self):
        # 3x1 corridor: (0,0)-(1,0)-(2,0)
        edges = (norm_edge((0, 0), (1, 0)), norm_edge((1, 0), (2, 0)))
        return WorldMap(3, 1, {}, {e: ("blue", "fish") for e in edges})

    def test_turns_rotate_in_place(self):
        world = self.build_line_world()
        pose = Pose(1, 0, Direction.NORTH)
        assert step(world, pose, Action.RIGHT) == Pose(1, 0, Direction.EAST)
        assert step(world, pose, Action.LEFT) == Pose(1, 0, Direction.WEST)

    def test_move_through_open_edge(self):
        world = self.build_line_world()
        assert step(world, Pose(0, 0, Direction.EAST), Action.MOVE) == Pose(1, 0, Direction.EAST)

    def test_move_into_wall_reports_wall_hit(self):
        world = self.build_line_world()
        assert step(world, Pose(0, 0, Direction.NORTH), Action.MOVE) is None

    def test_stop_keeps_the_pose(self):
        world = self.build_line_world()
        pose = Pose(1, 0, Direction.WEST)
        assert step(world, pose, Action.STOP) == pose

    def test_execute_outcomes(self):
        world = self.build_line_world()
        start = Pose(0, 0, Direction.EAST)
        pose, outcome = execute(world, start, [Action.MOVE, Action.MOVE, Action.STOP])
        assert outcome is Outcome.STOPPED and pose == Pose(2, 0, Direction.EAST)
        pose, outcome = execute(world, start, [Action.MOVE] * 5)
        assert outcome is Outcome.WALL_HIT
        pose, outcome = execute(world, start, [Action.MOVE])
        assert outcome is Outcome.EXHAUSTED and pose == Pose(1, 0, Direction.EAST)

    def test_stop_is_terminal_and_pose_preserving(self):
        world = self.build_line_world()
        start = Pose(1, 0, Direction.WEST)
        pose, outcome = execute(world, start, [Action.STOP, Action.MOVE])
        assert outcome is Outcome.STOPPED and pose == start


class TestPathfinding:
    def test_astar_matches_bfs_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            world = generate_world(rng)
            start = (rng.randrange(8), rng.randrange(8))
            goal = (rng.randrange(8), rng.randrange(8))
            path = shortest_path(world, start, goal)
            oracle = bfs_distances(world, start)[goal]
            assert len(path) - 1 == oracle
            assert path[0] == start and path[-1] == goal
            for a, b in zip(path, path[1:]):
                assert norm_edge(a, b) in world.edge_attrs

    def test_no_path_raises(self):
        world = WorldMap(2, 2, {}, {norm_edge((0, 0), (1, 0)): ("blue", "fish")})
        with pytest.raises(NoPathError):
            shortest_path(world, (0, 0), (1, 1))

    def test_trivial_path(self):
        world = generate_world(random.Random(1))
        assert shortest_path(world, (3, 3), (3, 3)) == [(3, 3)]

    def test_turns_toward_tie_break(self):
        # a path that doubles back turns 180 degrees as two RIGHTs
        assert path_to_actions([(1, 1), (1, 0), (1, 1)], Direction.NORTH) == [
            Action.MOVE, Action.RIGHT, Action.RIGHT, Action.MOVE, Action.STOP]
        # a quarter turn goes the short way round; straight on needs none
        assert path_to_actions([(1, 1), (1, 0)], Direction.EAST) == [
            Action.LEFT, Action.MOVE, Action.STOP]
        assert path_to_actions([(1, 1), (1, 2)], Direction.EAST) == [
            Action.RIGHT, Action.MOVE, Action.STOP]
        assert path_to_actions([(1, 1), (0, 1)], Direction.WEST) == [Action.MOVE, Action.STOP]

    def test_path_to_actions_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            world = generate_world(rng)
            start = (rng.randrange(8), rng.randrange(8))
            goal = (rng.randrange(8), rng.randrange(8))
            if start == goal:
                continue
            path = shortest_path(world, start, goal)
            direction = Direction(rng.randrange(4))
            actions = path_to_actions(path, direction)
            assert actions[-1] is Action.STOP
            assert Action.STOP not in actions[:-1]
            pose, outcome = execute(world, Pose(start[0], start[1], direction), actions)
            assert outcome is Outcome.STOPPED
            assert (pose.x, pose.y) == goal

    def test_path_to_actions_rejects_disconnected_nodes(self):
        with pytest.raises(InvalidPathError):
            path_to_actions([(0, 0), (2, 0)], Direction.EAST)


def astar_path(world: WorldMap, start, goal):
    """A* with the Manhattan heuristic, ties broken by push order; the node
    path including both endpoints, or None. shortest_path ran this search
    before it became a breadth-first search; in a perfect maze both find
    the one simple path. A node's open neighbours, tried in N, E, S, W
    order, are read off `edge_attrs` here, not from the package's tables."""
    gx, gy = goal
    g = {start: 0}
    parent = {}
    frontier = [(abs(start[0] - gx) + abs(start[1] - gy), 0, start)]
    counter = 0
    while frontier:
        _, _, node = heapq.heappop(frontier)
        if node == goal:
            path = [node]
            while node != start:
                node = parent[node]
                path.append(node)
            return path[::-1]
        base = g[node] + 1
        for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
            nb = (node[0] + dx, node[1] + dy)
            if norm_edge(node, nb) in world.edge_attrs and base < g.get(nb, 1 << 30):
                g[nb] = base
                parent[nb] = node
                counter += 1
                heapq.heappush(frontier, (base + abs(nb[0] - gx) + abs(nb[1] - gy), counter, nb))
    return None


def open_grid(width, height):
    """A world with every grid edge open, so most node pairs have many
    shortest paths."""
    nodes = [(x, y) for y in range(height) for x in range(width)]
    edges = [norm_edge(a, (a[0] + dx, a[1] + dy)) for a in nodes for dx, dy in ((1, 0), (0, 1))
             if a[0] + dx < width and a[1] + dy < height]
    return WorldMap(width, height, {}, {e: ("blue", "fish") for e in edges})


class TestShortestPathOracle:
    def test_equals_astar_on_generated_worlds(self):
        rng = random.Random(2024)
        sizes = [WorldConfig()] * 3 + [WorldConfig(5, 9), WorldConfig(12, 3)]
        for k in range(1000):
            cfg = sizes[k % len(sizes)]
            world = generate_world(rng, cfg)
            start = (rng.randrange(cfg.width), rng.randrange(cfg.height))
            goal = (rng.randrange(cfg.width), rng.randrange(cfg.height))
            assert shortest_path(world, start, goal) == astar_path(world, start, goal)

    def check_shortest(self, world, start, goal):
        path = shortest_path(world, start, goal)
        assert path[0] == start and path[-1] == goal
        assert len(path) - 1 == bfs_distances(world, start)[goal]
        assert len(path) == len(astar_path(world, start, goal))
        for a, b in zip(path, path[1:]):
            assert norm_edge(a, b) in world.edge_attrs

    def test_ties_go_to_the_first_link_in_n_e_s_w_order(self):
        # The search tries a node's links N, E, S, W and keeps the first
        # parent found, so of two equal paths it takes the one whose first
        # branching hop comes earlier in that order.
        world = open_grid(2, 2)
        assert shortest_path(world, (0, 0), (1, 1)) == [(0, 0), (1, 0), (1, 1)]
        assert shortest_path(world, (1, 1), (0, 0)) == [(1, 1), (1, 0), (0, 0)]
        assert shortest_path(world, (1, 0), (0, 1)) == [(1, 0), (1, 1), (0, 1)]

    def test_shortest_on_worlds_with_cycles(self):
        world = open_grid(5, 4)
        nodes = [(x, y) for y in range(4) for x in range(5)]
        for start in nodes:
            for goal in nodes:
                self.check_shortest(world, start, goal)
        # a perfect maze with extra edges opened: loops of every length
        rng = random.Random(8)
        for _ in range(50):
            edges = generate_maze(8, 8, rng)
            extra = rng.sample(sorted(open_grid(8, 8).edge_attrs.keys() - edges), 12)
            world = WorldMap(8, 8, {}, {e: ("grass", "tower") for e in (*edges, *extra)})
            for _ in range(20):
                self.check_shortest(world, (rng.randrange(8), rng.randrange(8)),
                                    (rng.randrange(8), rng.randrange(8)))


class TestEndpointSampling:
    def test_min_distance_respected(self):
        rng = random.Random(5)
        for _ in range(100):
            world = generate_world(rng)
            path = sample_endpoints(world, rng, min_dist=4)
            start, goal = path[0], path[-1]
            assert bfs_distances(world, start)[goal] >= 4
            assert path == shortest_path(world, start, goal)

    def test_impossible_distance_raises(self):
        world = WorldMap(2, 1, {}, {norm_edge((0, 0), (1, 0)): ("blue", "fish")})
        with pytest.raises(MapResampleNeeded):
            sample_endpoints(world, random.Random(0), min_dist=4)


class TestSerialization:
    def test_round_trip_identity(self):
        rng = random.Random(13)
        for _ in range(25):
            world = generate_world(rng)
            clone = world_from_dict(world_to_dict(world))
            assert clone.width == world.width and clone.height == world.height
            assert clone.items == world.items
            assert clone.edge_attrs == world.edge_attrs

    def test_edge_ids_on_a_3x2_map(self):
        # Pinned by hand: (x, y)-(x+1, y) is y*width + x and (x, y)-(x, y+1)
        # is width*height + x*height + y. Each of the 7 edges has its own
        # floor, so the file says which id names which edge; a round trip
        # alone would pass for any numbering the writer and reader share.
        edges = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((0, 1), (1, 1)), ((1, 1), (2, 1)),
                 ((0, 0), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (2, 1))]
        ids = [0, 1, 3, 4, 6, 8, 10]
        world = WorldMap(3, 2, {(2, 1): "lamp"},
                         {e: (floor, "fish") for e, floor in zip(edges, FLOORS)})
        expected = {"width": 3, "height": 2, "items": {"2,1": "lamp"},
                    "edgeAttrs": {floor: {"fish": [i]} for i, floor in zip(ids, FLOORS)}}
        assert world_to_dict(world) == expected
        assert list(world_to_dict(world)["edgeAttrs"]) == sorted(FLOORS[:7])
        assert world_from_dict(expected) == world

    def test_groups_are_sorted_and_ids_ascend(self):
        rng = random.Random(5)
        for _ in range(25):
            groups = world_to_dict(generate_world(rng))["edgeAttrs"]
            assert list(groups) == sorted(groups)
            for walls in groups.values():
                assert list(walls) == sorted(walls)
                assert all(ids and ids == sorted(set(ids)) for ids in walls.values())

    def test_dict_form_is_stable(self):
        world = generate_world(random.Random(21))
        import json
        once = json.dumps(world_to_dict(world), sort_keys=False)
        twice = json.dumps(world_to_dict(world), sort_keys=False)
        assert once == twice


class TestGridTable:
    def kept_bytes(self, width, height):
        tracemalloc.start()
        try:
            table = _grid.__wrapped__(width, height)  # a fresh table, not the cached one
            return tracemalloc.get_traced_memory()[0], table
        finally:
            tracemalloc.stop()

    def test_size_grows_with_the_node_count(self):
        # Four times the nodes may take about four times the memory; a table
        # holding every sub-run of every line would take about sixteen times.
        small, _ = self.kept_bytes(20, 21)
        large, table = self.kept_bytes(40, 42)
        assert len(table.nodes) == 40 * 42
        assert large < 6 * small

    def test_large_world_generates(self):
        world = generate_world(random.Random(0), WorldConfig(100, 100))
        edges = world.edge_attrs.keys()
        assert len(edges) == 100 * 100 - 1
        assert _table_runs(_grid(100, 100), edges) == \
               [h.edges for h in compute_halls(edges)]
        assert len(bfs_distances(world, (0, 0))) == 100 * 100
