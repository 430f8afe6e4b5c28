"""Map rendering: ASCII for terminals, SVG for reports.

Both renderers draw nodes, hall floors, wall paintings, items, the agent
pose, and an optional executed-path overlay.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .worldsim import Action, DELTAS, Direction, Pose, WorldMap, norm_edge, step

# Single-letter mnemonics, also used by the percept debug dump; grass/gravel
# and blue/brick are disambiguated (gravel=v, brick=k).
FLOOR_CHARS = {"blue": "b", "brick": "k", "concrete": "c", "flower": "f",
               "grass": "g", "gravel": "v", "wood": "w", "yellow": "y"}
WALL_CHARS = {"butterfly": "B", "fish": "F", "tower": "T"}
ITEM_CHARS = {"barstool": "b", "chair": "c", "easel": "e", "hatrack": "h",
              "lamp": "l", "sofa": "s"}
AGENT_CHARS = {Direction.NORTH: "^", Direction.EAST: ">",
               Direction.SOUTH: "v", Direction.WEST: "<"}

FLOOR_COLORS = {"blue": "#4169e1", "brick": "#b22222", "concrete": "#9e9e9e",
                "flower": "#e91e9e", "grass": "#2e8b57", "gravel": "#7f8c8d",
                "wood": "#8b5a2b", "yellow": "#e6c229"}


def trace_path(world: WorldMap, pose: Pose,
               actions: Sequence[Action]) -> list[tuple[int, int]]:
    """Nodes visited while executing `actions` (stops on STOP or wall hit)."""
    visited = [(pose.x, pose.y)]
    for action in actions:
        result = step(world, pose, action)
        if result.kind in ("stopped", "wall_hit"):
            break
        pose = result.pose
        if result.kind == "moved":
            visited.append((pose.x, pose.y))
    return visited


def render_ascii(world: WorldMap, pose: Optional[Pose] = None,
                 path: Optional[Sequence[tuple[int, int]]] = None) -> str:
    """Character box: (2*height-1) lines, each at most (4*width-2) wide.

    Nodes show the agent arrow, a path overlay '*', an item initial, or
    '+'. A horizontal edge renders as floor/wall/floor mnemonics; a
    vertical edge as a floor mnemonic with the wall mnemonic beside it
    (the extra wall column is why rows can exceed the node-row width).
    """
    on_path = set(path or ())
    width = 4 * world.width - 3
    lines = []
    for y in range(world.height):
        row = []
        for x in range(world.width):
            if pose is not None and (pose.x, pose.y) == (x, y):
                row.append(AGENT_CHARS[pose.dir])
            elif (x, y) in on_path:
                row.append("*")
            elif (x, y) in world.items:
                row.append(ITEM_CHARS[world.items[(x, y)]])
            else:
                row.append("+")
            if x + 1 < world.width:
                edge = norm_edge((x, y), (x + 1, y))
                if edge in world.edges:
                    floor, wall = world.edge_attrs[edge]
                    row.append(FLOOR_CHARS[floor] + WALL_CHARS[wall] + FLOOR_CHARS[floor])
                else:
                    row.append("   ")
        lines.append("".join(row).ljust(width).rstrip() or " ")
        if y + 1 < world.height:
            row = []
            for x in range(world.width):
                edge = norm_edge((x, y), (x, y + 1))
                if edge in world.edges:
                    floor, wall = world.edge_attrs[edge]
                    row.append(FLOOR_CHARS[floor] + WALL_CHARS[wall])
                else:
                    row.append("  ")
                if x + 1 < world.width:
                    row.append("  ")
            lines.append("".join(row).rstrip() or " ")
    return "\n".join(lines)


def render_svg(world: WorldMap, pose: Optional[Pose] = None,
               path: Optional[Sequence[tuple[int, int]]] = None,
               cell: int = 48) -> str:
    """Standalone SVG document string."""
    pad = cell
    w = pad * 2 + cell * (world.width - 1)
    h = pad * 2 + cell * (world.height - 1)

    def cx(x: int) -> int:
        return pad + x * cell

    def cy(y: int) -> int:
        return pad + y * cell

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for (a, b) in sorted(world.edges):
        floor, wall = world.edge_attrs[(a, b)]
        color = FLOOR_COLORS[floor]
        parts.append(
            f'<line x1="{cx(a[0])}" y1="{cy(a[1])}" x2="{cx(b[0])}" y2="{cy(b[1])}" '
            f'stroke="{color}" stroke-width="{cell // 6}"/>'
        )
        mx, my = (cx(a[0]) + cx(b[0])) // 2, (cy(a[1]) + cy(b[1])) // 2
        parts.append(
            f'<text x="{mx}" y="{my - 4}" font-size="{cell // 5}" '
            f'text-anchor="middle" fill="#333">{WALL_CHARS[wall]}</text>'
        )
    if path:
        points = " ".join(f"{cx(x)},{cy(y)}" for x, y in path)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#ff7f0e" '
            f'stroke-width="{cell // 10}" stroke-dasharray="6,4" opacity="0.9"/>'
        )
    for y in range(world.height):
        for x in range(world.width):
            parts.append(
                f'<circle cx="{cx(x)}" cy="{cy(y)}" r="{cell // 8}" '
                f'fill="#222"/>'
            )
    for (x, y), item in sorted(world.items.items()):
        parts.append(
            f'<text x="{cx(x)}" y="{cy(y) - cell // 6}" font-size="{cell // 4}" '
            f'text-anchor="middle" fill="#111">{item}</text>'
        )
    if pose is not None:
        dx, dy = DELTAS[pose.dir]
        x0, y0 = cx(pose.x), cy(pose.y)
        x1, y1 = x0 + dx * cell // 3, y0 + dy * cell // 3
        parts.append(
            f'<circle cx="{x0}" cy="{y0}" r="{cell // 6}" fill="none" '
            f'stroke="#d62728" stroke-width="3"/>'
        )
        parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#d62728" '
            f'stroke-width="3" marker-end="none"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
