"""Perception encoding tests: cell bit structure, grid geometry, rotation
behavior, and the order-free bag-of-features summary."""

import random

import numpy as np
import pytest

from mazenav.percept import (
    BIT_BLOCKED,
    BIT_HALL,
    BIT_NODE,
    BOF_BITS,
    CELL_BITS,
    FLOOR_BIT,
    GRID_COLS,
    GRID_ROWS,
    GridOverflowError,
    ITEM_BIT,
    MATERIAL_BITS,
    WALL_BIT,
    encode_bof,
    encode_grid,
    line_of_sight,
)
from mazenav.worldsim import (
    Direction,
    Pose,
    WorldConfig,
    generate_world,
    norm_edge,
)


def random_pose(world, rng):
    return Pose(rng.randrange(world.width), rng.randrange(world.height),
                Direction(rng.randrange(4)))


def check_cell_invariants(cell):
    kind_bits = int(cell[BIT_NODE]) + int(cell[BIT_HALL]) + int(cell[BIT_BLOCKED])
    assert kind_bits == 1
    items = int(cell[0:6].sum())
    floors = int(cell[6:14].sum())
    walls = int(cell[14:17].sum())
    if cell[BIT_NODE]:
        assert items <= 1 and floors == 0 and walls == 0
    elif cell[BIT_HALL]:
        assert items == 0 and floors == 1 and walls == 1
    else:
        assert items == 0 and floors == 0 and walls == 0


class TestLineOfSight:
    def test_starts_at_agent_node_and_alternates(self):
        rng = random.Random(0)
        for _ in range(50):
            world = generate_world(rng)
            pose = random_pose(world, rng)
            for direction in Direction:
                cells = line_of_sight(world, pose, direction)
                assert cells[0][0] == "node"
                assert cells[0][1] == world.items.get((pose.x, pose.y))
                for i, cell in enumerate(cells):
                    assert cell[0] == ("node" if i % 2 == 0 else "hall")
                assert len(cells) % 2 == 1  # always ends on a node

    def test_stops_at_first_missing_edge(self):
        rng = random.Random(1)
        world = generate_world(rng)
        for x in range(8):
            for y in range(8):
                pose = Pose(x, y, Direction.NORTH)
                for direction in Direction:
                    cells = line_of_sight(world, pose, direction)
                    hops = (len(cells) - 1) // 2
                    # walk that many open edges, then the next one is closed
                    node = (x, y)
                    for _ in range(hops):
                        node = world.neighbor_toward(node, direction)
                        assert node is not None
                    assert world.neighbor_toward(node, direction) is None


class TestGridEncoding:
    def test_shape_dtype_and_cell_invariants(self):
        rng = random.Random(2)
        for _ in range(100):
            world = generate_world(rng)
            pose = random_pose(world, rng)
            grid = encode_grid(world, pose)
            assert grid.shape == (GRID_ROWS, GRID_COLS, CELL_BITS)
            assert grid.dtype == np.uint8
            for row in grid:
                for cell in row:
                    check_cell_invariants(cell)

    def test_row4_copies_row0(self):
        rng = random.Random(3)
        for _ in range(50):
            world = generate_world(rng)
            grid = encode_grid(world, random_pose(world, rng))
            assert np.array_equal(grid[4], grid[0])

    def test_rows_run_clockwise_from_facing(self):
        rng = random.Random(4)
        world = generate_world(rng)
        pose = Pose(3, 3, Direction.WEST)
        grid = encode_grid(world, pose)
        for row_idx in range(4):
            direction = pose.dir.clockwise(row_idx)
            cells = line_of_sight(world, pose, direction)
            open_cols = int((grid[row_idx, :, BIT_BLOCKED] == 0).sum())
            assert open_cols == len(cells)

    def test_column0_is_agent_node(self):
        rng = random.Random(5)
        for _ in range(50):
            world = generate_world(rng)
            pose = random_pose(world, rng)
            grid = encode_grid(world, pose)
            item = world.items.get((pose.x, pose.y))
            for row_idx in range(GRID_ROWS):
                cell = grid[row_idx, 0]
                assert cell[BIT_NODE] == 1
                if item is not None:
                    assert cell[ITEM_BIT[item]] == 1

    def test_rotation_is_row_permutation(self):
        # turning the agent 90 degrees clockwise shifts rows 0-3 cyclically
        rng = random.Random(6)
        for _ in range(50):
            world = generate_world(rng)
            pose = random_pose(world, rng)
            grid = encode_grid(world, pose)
            turned = encode_grid(world, Pose(pose.x, pose.y, pose.dir.clockwise()))
            for row_idx in range(4):
                assert np.array_equal(turned[row_idx], grid[(row_idx + 1) % 4])
            assert np.array_equal(turned[4], turned[0])

    def test_hall_cells_carry_hall_floor(self):
        rng = random.Random(7)
        world = generate_world(rng)
        pose = Pose(0, 0, Direction.EAST)
        nxt = world.neighbor_toward((0, 0), Direction.EAST)
        if nxt is not None:
            floor, wall = world.edge_attrs[norm_edge((0, 0), nxt)]
            cell = encode_grid(world, pose)[0, 1]
            assert cell[BIT_HALL] == 1
            assert cell[FLOOR_BIT[floor]] == 1
            assert cell[WALL_BIT[wall]] == 1

    def test_overflow_guard(self):
        # a 12-node straight corridor yields 23 cells > 20 columns
        from mazenav.worldsim import WorldMap

        world = WorldMap(12, 1, {}, {norm_edge((x, 0), (x + 1, 0)): ("blue", "fish")
                                     for x in range(11)})
        with pytest.raises(GridOverflowError):
            encode_grid(world, Pose(0, 0, Direction.EAST))

    def test_default_worlds_never_overflow(self):
        # 8x8 worlds: longest line of sight is 7 hops = 15 cells <= 20
        rng = random.Random(8)
        for _ in range(100):
            world = generate_world(rng)
            encode_grid(world, random_pose(world, rng))


class TestBagOfFeatures:
    def test_shape_and_binary(self):
        rng = random.Random(10)
        for _ in range(50):
            world = generate_world(rng)
            vec = encode_bof(world, random_pose(world, rng))
            assert vec.shape == (BOF_BITS,)
            assert set(np.unique(vec)) <= {0, 1}

    def test_blocks_union_line_of_sight(self):
        rng = random.Random(11)
        world = generate_world(rng)
        pose = Pose(4, 4, Direction.SOUTH)
        vec = encode_bof(world, pose)
        for block in range(4):
            direction = pose.dir.clockwise(block)
            seg = vec[block * MATERIAL_BITS:(block + 1) * MATERIAL_BITS]
            expected = np.zeros(MATERIAL_BITS, dtype=np.uint8)
            for cell in line_of_sight(world, pose, direction):
                if cell[0] == "node" and cell[1] is not None:
                    expected[ITEM_BIT[cell[1]]] = 1
                elif cell[0] == "hall":
                    expected[FLOOR_BIT[cell[1]]] = 1
                    expected[WALL_BIT[cell[2]]] = 1
            assert np.array_equal(seg, expected)

    def test_distance_collapsed(self):
        # an item 1 hop away and 3 hops away set the same bit
        rng = random.Random(12)
        seen = set()
        for _ in range(200):
            world = generate_world(rng)
            pose = random_pose(world, rng)
            vec = encode_bof(world, pose)
            seen.add(vec.tobytes())
        assert len(seen) > 50  # vectors vary across worlds

    def test_rotation_permutes_blocks(self):
        rng = random.Random(13)
        world = generate_world(rng)
        pose = Pose(2, 5, Direction.NORTH)
        vec = encode_bof(world, pose)
        turned = encode_bof(world, Pose(2, 5, Direction.EAST))
        for block in range(4):
            src = (block + 1) % 4
            assert np.array_equal(
                turned[block * MATERIAL_BITS:(block + 1) * MATERIAL_BITS],
                vec[src * MATERIAL_BITS:(src + 1) * MATERIAL_BITS])
        assert np.array_equal(turned[4 * MATERIAL_BITS:], vec[4 * MATERIAL_BITS:])
