"""Agent-centric perception: line of sight, the 5x20 grid encoding, and the
bag-of-features encoding.

Each grid cell is a 20-bit vector. Bits 0-5 mark items, 6-13 floor patterns,
14-16 wall paintings, and exactly one of bits 17/18/19 flags the cell type
(node / hall / non-walkable). Rows run clockwise from the facing direction
(facing, right, back, left) and the first row is copied into the fifth.
"""

from __future__ import annotations

import numpy as np

from .render import FLOOR_CHARS, ITEM_CHARS, WALL_CHARS
from .worldsim import FLOORS, ITEMS, WALL_PAINTINGS, Direction, Pose, WorldMap, norm_edge

CELL_BITS = 20
ITEM_OFFSET = 0
FLOOR_OFFSET = 6
WALL_OFFSET = 14
BIT_NODE = 17
BIT_HALL = 18
BIT_BLOCKED = 19

GRID_ROWS = 5
GRID_COLS = 20

MATERIAL_BITS = 17  # items + floors + walls, shared by the bag-of-features blocks
BOF_BITS = 4 * MATERIAL_BITS + len(ITEMS)

ITEM_BIT = {name: ITEM_OFFSET + i for i, name in enumerate(ITEMS)}
FLOOR_BIT = {name: FLOOR_OFFSET + i for i, name in enumerate(FLOORS)}
WALL_BIT = {name: WALL_OFFSET + i for i, name in enumerate(WALL_PAINTINGS)}


class GridOverflowError(ValueError):
    """A line of sight does not fit into the fixed 20-column grid."""


def check_grid_fits(width: int, height: int) -> None:
    """Raise GridOverflowError unless every line of sight of a width x height
    world fits the grid: a straight run across it shows 2*side-1 cells."""
    cells = 2 * max(width, height) - 1
    if cells > GRID_COLS:
        raise GridOverflowError(
            f"a {width}x{height} world has lines of sight of up to {cells} cells, "
            f"the percept grid holds {GRID_COLS} (sides of at most {(GRID_COLS + 1) // 2})")


def line_of_sight(world: WorldMap, pose: Pose, direction: Direction):
    """Cells visible from the agent's node along `direction`.

    Returns an alternating list starting at the agent's node:
    ("node", item_or_None), ("hall", floor, wall), ("node", ...), ... and
    stops at the first missing edge.
    """
    node = (pose.x, pose.y)
    cells: list[tuple] = [("node", world.items.get(node))]
    while True:
        nxt = world.neighbor_toward(node, direction)
        if nxt is None:
            return cells
        floor, wall = world.edge_attrs[norm_edge(node, nxt)]
        cells.append(("hall", floor, wall))
        cells.append(("node", world.items.get(nxt)))
        node = nxt


def _write_cell(row: np.ndarray, col: int, cell: tuple) -> None:
    if cell[0] == "node":
        row[col, BIT_NODE] = 1
        if cell[1] is not None:
            row[col, ITEM_BIT[cell[1]]] = 1
    else:
        row[col, BIT_HALL] = 1
        row[col, FLOOR_BIT[cell[1]]] = 1
        row[col, WALL_BIT[cell[2]]] = 1


def encode_grid(world: WorldMap, pose: Pose) -> np.ndarray:
    """5x20 grid of cell vectors: rows clockwise from facing, row 4 = row 0."""
    grid = np.zeros((GRID_ROWS, GRID_COLS, CELL_BITS), dtype=np.uint8)
    for row_idx in range(4):
        direction = pose.dir.clockwise(row_idx)
        cells = line_of_sight(world, pose, direction)
        if len(cells) > GRID_COLS:
            raise GridOverflowError(
                f"line of sight has {len(cells)} cells, grid holds {GRID_COLS}")
        row = grid[row_idx]
        for col, cell in enumerate(cells):
            _write_cell(row, col, cell)
        row[len(cells):, BIT_BLOCKED] = 1
    grid[4] = grid[0]
    return grid


def encode_bof(world: WorldMap, pose: Pose) -> np.ndarray:
    """Bag-of-features vector: per-direction unions of the material bits seen
    along each line of sight (facing, right, back, left), then the agent
    node's item bits. Distances and ordering are deliberately collapsed."""
    vec = np.zeros(BOF_BITS, dtype=np.uint8)
    for block in range(4):
        direction = pose.dir.clockwise(block)
        offset = block * MATERIAL_BITS
        for cell in line_of_sight(world, pose, direction):
            if cell[0] == "node":
                if cell[1] is not None:
                    vec[offset + ITEM_BIT[cell[1]]] = 1
            else:
                vec[offset + FLOOR_BIT[cell[1]]] = 1
                vec[offset + WALL_BIT[cell[2]]] = 1
    here = world.items.get((pose.x, pose.y))
    if here is not None:
        vec[4 * MATERIAL_BITS + ITEM_BIT[here]] = 1
    return vec


def grid_to_text(grid: np.ndarray) -> str:
    """Debug dump: one 2-char mnemonic per cell (.x node, fW hall, ## blocked)."""
    lines = []
    for row in grid:
        tokens = []
        for cell in row:
            if cell[BIT_BLOCKED]:
                tokens.append("##")
            elif cell[BIT_NODE]:
                item_bits = np.flatnonzero(cell[ITEM_OFFSET:ITEM_OFFSET + len(ITEMS)])
                tokens.append("." + (ITEM_CHARS[ITEMS[item_bits[0]]] if len(item_bits) else "."))
            else:
                floor = FLOORS[int(np.flatnonzero(cell[FLOOR_OFFSET:FLOOR_OFFSET + len(FLOORS)])[0])]
                wall = WALL_PAINTINGS[int(np.flatnonzero(cell[WALL_OFFSET:WALL_OFFSET + len(WALL_PAINTINGS)])[0])]
                tokens.append(FLOOR_CHARS[floor] + WALL_CHARS[wall])
        lines.append(" ".join(tokens))
    return "\n".join(lines)
