"""Road environments: a grid world with 9 moves and a link graph with bounded out-degree.

Grid actions map to 3x3 shifts via k = (dy + 1) * 3 + (dx + 1), so action 4 is
"stay". Link-graph actions index into each link's ordered downstream list.
Action indices are zero-based throughout; any one-based external convention is
converted at serialization boundaries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

N_ACTIONS = 9
STAY_ACTION = 4


class BoundaryError(ValueError):
    """A grid shift would leave the grid."""


class ConnectivityError(ValueError):
    """Two positions are not connected by a single recorded move."""


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid of cells; cell_size_m is metadata only."""

    width: int
    height: int
    cell_size_m: float = 1000.0

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.width}x{self.height}")


@dataclass
class EnvState:
    """One decision context: where the vehicle is plus its fixed trip attributes.

    depart_bin and speed_bin are recorded at the first position and stay fixed
    for the whole episode.
    """

    position: int
    origin: int
    destination: int
    depart_bin: int
    speed_bin: int
    user_id: int


def action_shift(a: int) -> tuple[int, int]:
    """(dx, dy) for grid action a under the fixed k = (dy+1)*3 + (dx+1) mapping."""
    if not 0 <= a < N_ACTIONS:
        raise ValueError(f"action {a} outside [0, {N_ACTIONS})")
    return a % 3 - 1, a // 3 - 1


def shift_action(dx: int, dy: int) -> int:
    """Inverse of action_shift; raises ConnectivityError for non-adjacent shifts."""
    if abs(dx) > 1 or abs(dy) > 1:
        raise ConnectivityError(f"shift ({dx}, {dy}) is not a single move")
    return (dy + 1) * 3 + (dx + 1)


class GridNetwork:
    """Grid environment; positions are cell indices row * width + col.

    `feasible[cell, a]` is True iff action `a` stays on the grid from `cell`.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        row, col = np.divmod(np.arange(self.n_positions)[:, None], spec.width)
        dy, dx = np.divmod(np.arange(N_ACTIONS), 3)  # each shift plus one, as in action_shift
        row, col = row + dy - 1, col + dx - 1
        self.feasible = (0 <= row) & (row < spec.height) & (0 <= col) & (col < spec.width)
        self.feasible.flags.writeable = False
        self._hops: dict[int, tuple[int | None, ...]] = {}

    @property
    def n_positions(self) -> int:
        return self.spec.width * self.spec.height

    def cell_rc(self, cell: int) -> tuple[int, int]:
        if not 0 <= cell < self.n_positions:
            raise ValueError(f"cell {cell} outside grid of {self.n_positions}")
        return cell // self.spec.width, cell % self.spec.width

    def cell_of(self, row: int, col: int) -> int:
        if not (0 <= row < self.spec.height and 0 <= col < self.spec.width):
            raise BoundaryError(f"cell ({row}, {col}) outside {self.spec.width}x{self.spec.height} grid")
        return row * self.spec.width + col

    def step(self, cell: int, a: int) -> int:
        dx, dy = action_shift(a)
        row, col = self.cell_rc(cell)
        return self.cell_of(row + dy, col + dx)

    def action_between(self, cell: int, nxt: int) -> int:
        r0, c0 = self.cell_rc(cell)
        r1, c1 = self.cell_rc(nxt)
        return shift_action(c1 - c0, r1 - r0)

    def neighbors(self, cell: int) -> list[int]:
        return [self.step(cell, a) for a in np.flatnonzero(self.feasible[cell]).tolist()]

    def reverse_neighbors(self, cell: int) -> list[int]:
        # grid moves are symmetric: the reverse of shift (dx, dy) is (-dx, -dy)
        return self.neighbors(cell)


class LinkGraph:
    """Directed link network; each link's ordered downstream list defines its actions.

    `feasible[link, a]` is True iff `a` indexes the link's downstream list.
    """

    def __init__(self, adjacency: list[list[int]], coords: dict[int, tuple[float, float]] | None = None):
        n = len(adjacency)
        for link, downs in enumerate(adjacency):
            if len(downs) > N_ACTIONS:
                raise ValueError(f"link {link} has out-degree {len(downs)} > {N_ACTIONS}")
            for d in downs:
                if not 0 <= d < n:
                    raise ValueError(f"link {link} references unknown downstream link {d}")
        self.adjacency = [list(downs) for downs in adjacency]
        self.coords = dict(coords or {})
        self._reverse: list[list[int]] | None = None
        degree = np.array([len(downs) for downs in adjacency], dtype=np.intp)
        self.feasible = np.arange(N_ACTIONS) < degree[:, None]
        self.feasible.flags.writeable = False
        self._hops: dict[int, tuple[int | None, ...]] = {}

    @property
    def n_positions(self) -> int:
        return len(self.adjacency)

    def step(self, link: int, a: int) -> int:
        downs = self.adjacency[link]
        if not 0 <= a < len(downs):
            raise ConnectivityError(f"link {link} has no downstream index {a}")
        return downs[a]

    def action_between(self, link: int, nxt: int) -> int:
        downs = self.adjacency[link]
        try:
            return downs.index(nxt)
        except ValueError:
            raise ConnectivityError(f"link {nxt} is not downstream of link {link}") from None

    def neighbors(self, link: int) -> list[int]:
        return list(self.adjacency[link])

    def reverse_neighbors(self, link: int) -> list[int]:
        if self._reverse is None:
            rev: list[list[int]] = [[] for _ in self.adjacency]
            for src, downs in enumerate(self.adjacency):
                for d in downs:
                    rev[d].append(src)
            self._reverse = rev
        return self._reverse[link]


Network = GridNetwork | LinkGraph


def apply_action(net: Network, position: int, a: int) -> int:
    """Next position after taking action `a`; BoundaryError/ConnectivityError if infeasible."""
    return net.step(position, a)


def shortest_hops(net: Network, a: int, b: int) -> int | None:
    """Breadth-first hop count from a to b; None when unreachable."""
    if a == b:
        return 0
    dist = {a: 0}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        for nxt in net.neighbors(cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                if nxt == b:
                    return dist[nxt]
                queue.append(nxt)
    return None


def hops_to(net: Network, destination: int) -> tuple[int | None, ...]:
    """Hop count from every position to `destination` (BFS over reversed edges).

    The search runs once per destination; the network keeps the read-only table for later calls.
    """
    table = net._hops.get(destination)
    if table is None:
        if not 0 <= destination < net.n_positions:
            raise ValueError(f"destination {destination} outside network of {net.n_positions} positions")
        dist: list[int | None] = [None] * net.n_positions
        dist[destination] = 0
        queue = deque([destination])
        while queue:
            cur = queue.popleft()
            for prv in net.reverse_neighbors(cur):
                if dist[prv] is None:
                    dist[prv] = dist[cur] + 1
                    queue.append(prv)
        table = net._hops[destination] = tuple(dist)
    return table


# ---------------------------------------------------------------------------
# Link-graph file format: "link_id: down_1,down_2,..." plus optional
# "# coords link_id lon lat" lines.
# ---------------------------------------------------------------------------


def load_link_graph(path) -> LinkGraph:
    adjacency: dict[int, list[int]] = {}
    coords: dict[int, tuple[float, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if parts and parts[0] == "coords":
                    if len(parts) != 4:
                        raise ValueError(f"{path}:{line_no}: malformed coords line")
                    coords[int(parts[1])] = (float(parts[2]), float(parts[3]))
                continue
            if ":" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'link_id: down,...'")
            head, _, tail = line.partition(":")
            link = int(head.strip())
            downs = [int(tok) for tok in tail.split(",") if tok.strip()]
            if link in adjacency:
                raise ValueError(f"{path}:{line_no}: duplicate link {link}")
            adjacency[link] = downs
    if not adjacency:
        raise ValueError(f"{path}: empty link graph")
    n = max(adjacency) + 1
    return LinkGraph([adjacency.get(i, []) for i in range(n)], coords)


def save_link_graph(net: LinkGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for link, (lon, lat) in sorted(net.coords.items()):
            fh.write(f"# coords {link} {lon!r} {lat!r}\n")
        for link, downs in enumerate(net.adjacency):
            fh.write(f"{link}: {','.join(str(d) for d in downs)}\n")
