"""Road environments: a grid world with 9 moves and a link graph with bounded out-degree.

Each network is one successor table `succ[pos, a]`: the position that action `a` leads to from
`pos`, or -1 where `a` is infeasible. Moves are read off it, feasibility once and hop counts on
first read, into read-only tables; a network has no scalar move API. Grid actions map to 3x3 shifts
via k = (dy + 1) * 3 + (dx + 1), so action 4 is "stay". Link-graph actions index into each link's
ordered downstream list. Action indices are zero-based throughout; any one-based external
convention is converted at serialization boundaries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numcore import index_faults, is_integer, read_only, require

N_ACTIONS = 9
STAY_ACTION = 4
GRID_SIDE = (lambda side: side >= 2, ">= 2")  # a grid's width and height, as a `numcore.require` bound


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
        require(self, width=GRID_SIDE, height=GRID_SIDE)


@dataclass(frozen=True)
class EnvState:
    """One decision context: where the vehicle is plus its fixed trip attributes.

    depart_bin and speed_bin are recorded at the first position and stay fixed
    for the whole episode. Frozen, and checked when made by `numcore.require`:
    each field must be an integer, so no reader truncates 1.7 or reads True as 1.
    """

    position: int
    origin: int
    destination: int
    depart_bin: int
    speed_bin: int
    user_id: int

    def __post_init__(self):
        require(self)


class Network:
    """A road network as one successor table.

    `succ[pos, a]` is the position that action `a` leads to from `pos`, or -1 where `a` is
    infeasible there; `feasible` is `succ >= 0`. `hops[dest, pos]` is the fewest moves from `pos` to
    `dest`, -1 where `dest` cannot be reached: one breadth-first search over `succ` from every
    destination at once. A network is these read-only tables and no method: a move, or the action
    between two positions, is read off `succ`. A subclass only builds the table and names the error
    that an infeasible move raises (`infeasible_error`).
    """

    infeasible_error: type[ValueError] = ConnectivityError

    def __init__(self, succ: np.ndarray):
        self.succ = read_only(np.asarray(succ, dtype=np.intp))
        self.feasible = read_only(self.succ >= 0)
        self.dead_end = read_only(~self.feasible.any(axis=1))  # no feasible action: a trip that lands here cannot go on

    @functools.cached_property
    def hops(self) -> np.ndarray:
        """Built on first read, so a network whose hop counts nothing reads never pays for the (n, n) table."""
        n = self.n_positions
        table = np.eye(n, dtype=np.int32) - 1  # 0 at each destination, -1 until a search reaches it
        frontier = np.eye(n, n + 1, dtype=bool)  # the extra column stays False: the -1 of an infeasible action reads it
        hops = 0
        while frontier.any():
            hops += 1
            frontier[:, :-1] = frontier[:, self.succ].any(axis=2) & (table < 0)
            table[frontier[:, :-1]] = hops
        return read_only(table)

    @property
    def n_positions(self) -> int:
        return self.succ.shape[0]


class GridNetwork(Network):
    """Grid environment; positions are cell indices row * width + col."""

    infeasible_error = BoundaryError

    def __init__(self, spec: GridSpec):
        self.spec = spec
        row, col = np.divmod(np.arange(spec.width * spec.height)[:, None], spec.width)
        dy, dx = np.divmod(np.arange(N_ACTIONS), 3)  # each shift plus one: k = (dy + 1) * 3 + (dx + 1)
        row, col = row + dy - 1, col + dx - 1
        on_grid = (0 <= row) & (row < spec.height) & (0 <= col) & (col < spec.width)
        super().__init__(np.where(on_grid, row * spec.width + col, -1))

    def cell_of(self, row: int, col: int) -> int:
        if not (0 <= row < self.spec.height and 0 <= col < self.spec.width):
            raise BoundaryError(f"cell ({row}, {col}) outside {self.spec.width}x{self.spec.height} grid")
        return row * self.spec.width + col


class LinkGraph(Network):
    """Directed link network; each link's ordered downstream list fills its row of `succ`."""

    def __init__(self, adjacency: list[list[int]], coords: dict[int, tuple[float, float]] | None = None):
        n = len(adjacency)
        succ = np.full((n, N_ACTIONS), -1, dtype=np.intp)
        for link, downs in enumerate(adjacency):
            _check_downstream(link, downs, n)
            succ[link, : len(downs)] = downs
        super().__init__(succ)
        self.coords = dict(coords or {})

    @property
    def adjacency(self) -> list[list[int]]:
        """Each link's downstream list, read off `succ`."""
        return [row[row >= 0].tolist() for row in self.succ]


def _check_downstream(link: int, downs: list[int], n: int) -> None:
    """ValueError unless link `link`'s downstream list fits a row of `succ` and names only integers below `n` (`index_faults`)."""
    if len(downs) > N_ACTIONS:
        raise ValueError(f"link {link} has out-degree {len(downs)} > {N_ACTIONS}")
    non_integer, outside = index_faults(downs, n)
    if non_integer is not None or outside is not None:  # a row of `succ` would read 1.5 or True as 1
        d = downs[min(i for i in (non_integer, outside) if i is not None)]
        raise ValueError(f"link {link} references {'unknown' if is_integer(d) else 'non-integer'} downstream link {d}")


# ---------------------------------------------------------------------------
# Link-graph file format: "link_id: down_1,down_2,..." plus optional
# "# coords link_id lon lat" lines.
# ---------------------------------------------------------------------------


def load_link_graph(path) -> LinkGraph:
    """Parse a link-graph file; a line that does not parse, names a negative link, lists more than 9
    downstream links or one that the file does not define, or gives coords that are not finite, repeat
    a link's or belong to a link that the file does not define raises a ValueError that starts with `path:line_no`."""
    adjacency: dict[int, list[int]] = {}
    line_of: dict[int, int] = {}
    coords: dict[int, tuple[float, float]] = {}
    coords_line: dict[int, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    parts = line[1:].split()
                    if parts and parts[0] == "coords":
                        if len(parts) != 4:
                            raise ValueError("malformed coords line")
                        link, lon, lat = int(parts[1]), float(parts[2]), float(parts[3])
                        if not (math.isfinite(lon) and math.isfinite(lat)):
                            raise ValueError(f"non-finite coords {parts[2]} {parts[3]}")
                        if link in coords_line:
                            raise ValueError(f"duplicate coords of link {link}, first at line {coords_line[link]}")
                        coords[link], coords_line[link] = (lon, lat), line_no
                    continue
                if ":" not in line:
                    raise ValueError("expected 'link_id: down,...'")
                head, _, tail = line.partition(":")
                link = int(head.strip())
                downs = [int(tok) for tok in tail.split(",") if tok.strip()]
                if link < 0:
                    raise ValueError(f"negative link {link}")
                if link in adjacency:
                    raise ValueError(f"duplicate link {link}")
                adjacency[link], line_of[link] = downs, line_no
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    if not adjacency:
        raise ValueError(f"{path}: empty link graph")
    n = max(adjacency) + 1
    for link, downs in adjacency.items():
        try:
            _check_downstream(link, downs, n)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_of[link]}: {exc}") from exc
    for link, line_no in coords_line.items():
        if not 0 <= link < n:
            raise ValueError(f"{path}:{line_no}: coords of unknown link {link}")
    return LinkGraph([adjacency.get(i, []) for i in range(n)], coords)


def save_link_graph(net: LinkGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for link, (lon, lat) in sorted(net.coords.items()):
            fh.write(f"# coords {link} {lon!r} {lat!r}\n")
        for link, downs in enumerate(net.adjacency):
            fh.write(f"{link}: {','.join(str(d) for d in downs)}\n")
