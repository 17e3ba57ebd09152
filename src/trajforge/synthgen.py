"""Synthetic ground-truth data with known per-user route preferences, plus GPS CSV ingestion.

The synthetic oracle samples actions from softmax(theta_u . f(s, a)) over
feasible actions, with features f = (progress sign, turn change, stay). It
scores all 9 actions at once from the position's row of the network's
successor table and the destination's hop table. The stored per-user theta
vectors are the recoverable ground truth that the reward model is later
judged against.

`roll_out` is the one move loop, and the one place a move is drawn, for this
oracle and for the learned policy (`trajmodel.generate_scored`) alike. It
advances B trips in lockstep: each step asks the caller's `probs` for the live
trips' action probabilities, draws one move per trip by mapping the trip's
uniform for that step through `numcore.inverse_cdf`, checks every landing and
sets the trip's flag, one of `FLAGS`; a finished trip leaves the batch.
`gen_dataset` rolls out all of its trips in one call (`oracle_trips`), while
`generate_scored` is a call of one trip. The oracle scores the live rows in one
pass (`oracle_rows`).

Each trip keeps its own stream, make_rng(seed, "traj-roll", tid), and no trip's
generator outlives its set-up: its uniforms are drawn up front with `random`,
which yields the same doubles that `Generator.choice` draws one move at a time,
and `inverse_cdf` maps each to the index that `choice` returns. So the batch
draws the very trips that one call per trip draws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import netgrid, numcore
from .netgrid import GRID_SIDE, EnvState, GridNetwork, GridSpec, Network
from .numcore import AT_LEAST_1, NON_NEGATIVE, POSITIVE, index_faults, make_rng, masked_log_softmax, require

N_FEATURES = 3  # progress, turn-change, stay
FLAGS = ("complete", "truncated", "dead_end")  # reached the destination, ran out of moves, stuck
CSV_COLUMNS = ("vehicle_id", "timestamp", "lon", "lat")  # the first fields of an `ingest_csv` row, in order


class GenerationError(RuntimeError):
    """Trajectory generation cannot proceed (e.g. unreachable destination)."""


class ConfigError(ValueError):
    """Invalid generation configuration."""


class IngestionError(RuntimeError):
    """Too many unusable rows in a GPS file."""


class SplitError(ValueError):
    """Dataset too small to split."""


def _weight_rows(rows) -> bool:
    """True for one or more rows of `N_FEATURES` finite weights, as `draw_preferences` reads them."""
    try:
        weights = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError):  # a ragged list, or an entry that is no number
        return False
    return weights.ndim == 2 and len(weights) >= 1 and weights.shape[1] == N_FEATURES and bool(np.isfinite(weights).all())


_WEIGHT_ROWS = (_weight_rows, f"rows of {N_FEATURES} finite weights")  # the `numcore.require` bound of a weight table


@dataclass(frozen=True)
class PreferenceParams:
    """Per-user weight vectors over (progress, turn-change, stay) features, checked as `SynthConfig.archetypes` is."""

    theta: np.ndarray  # (users, 3)

    def __post_init__(self):
        require(self, ConfigError, theta=_WEIGHT_ROWS)
        object.__setattr__(self, "theta", numcore.read_only(np.array(self.theta, dtype=np.float64)))

    @property
    def n_users(self) -> int:
        return self.theta.shape[0]


_INDEX = (lambda value: 0 <= value < 2**63, "in [0, 2**63)")  # a trip's context index, as a `numcore.require` bound
_POSITIONS = (lambda positions: _index_list(positions, 2**63) and len(positions) >= 2, "a list of two or more integers in [0, 2**63)")
_MOVES = f"a list of one integer in [0, {netgrid.N_ACTIONS}) per move"
_IS_FLAG = (lambda flag: isinstance(flag, str) and flag in FLAGS, f"one of {', '.join(FLAGS)}")


def _index_list(values, stop: int) -> bool:
    """True for a list or tuple of integers in [0, stop) (`numcore.index_faults`)."""
    return isinstance(values, (list, tuple)) and index_faults(values, stop) == (None, None)


@dataclass(frozen=True)
class Trajectory:
    """One recorded trip: its context, two or more positions and one action per move between them.

    Frozen and checked when made, in field order, by the rule of `numcore.require`, so every trip fits the
    int64 step table of `tokenizer.encode_trips`, which checks nothing itself. The checked positions and
    actions, given as lists or tuples, are stored as tuples.
    """

    traj_id: int
    user_id: int
    depart_bin: int
    speed_bin: int
    positions: tuple[int, ...]
    actions: tuple[int, ...]
    flag: str = "complete"  # one of FLAGS

    def __post_init__(self):
        require(
            self, user_id=_INDEX, depart_bin=_INDEX, speed_bin=_INDEX, positions=_POSITIONS,
            actions=(lambda actions: _index_list(actions, netgrid.N_ACTIONS) and len(actions) == len(self.positions) - 1, _MOVES), flag=_IS_FLAG,
        )
        object.__setattr__(self, "positions", tuple(self.positions))
        object.__setattr__(self, "actions", tuple(self.actions))

    @property
    def origin(self) -> int:
        return self.positions[0]

    @property
    def destination(self) -> int:
        return self.positions[-1]

    @property
    def complete(self) -> bool:
        return self.flag == "complete"

    def state_at(self, t: int) -> EnvState:
        return EnvState(
            position=self.positions[t],
            origin=self.positions[0],
            destination=self.positions[-1],
            depart_bin=self.depart_bin,
            speed_bin=self.speed_bin,
            user_id=self.user_id,
        )


@dataclass
class Dataset:
    net: Network
    trajectories: list[Trajectory]
    user_count: int
    train_idx: list[int] = field(default_factory=list)
    eval_idx: list[int] = field(default_factory=list)

    def train(self) -> list[Trajectory]:
        """The training split; every trip of a dataset with no split at all."""
        if not self.train_idx and not self.eval_idx:
            return list(self.trajectories)
        return [self.trajectories[i] for i in self.train_idx]

    def eval(self) -> list[Trajectory]:
        return [self.trajectories[i] for i in self.eval_idx]


def check_connectivity(traj: Trajectory, net: Network) -> None:
    """Every position must be inside the network, and every recorded move must reproduce the next
    position: ValueError names the first position that is not, then the first move that does not."""
    outside = index_faults(traj.positions, net.n_positions)[1]  # a checked trip holds integers only
    if outside is not None:
        raise ValueError(f"trajectory {traj.traj_id}: position {traj.positions[outside]} outside network of {net.n_positions} positions")
    positions, actions = np.array(traj.positions), np.array(traj.actions, dtype=np.intp)
    off = net.succ[positions[:-1], actions] != positions[1:]
    if np.count_nonzero(off):
        t = int(np.argmax(off))
        raise ValueError(f"trajectory {traj.traj_id}: action {actions[t]} at step {t} does not lead from {positions[t]} to {positions[t + 1]}")


# ---------------------------------------------------------------------------
# Oracle policy
# ---------------------------------------------------------------------------


def _index_rows(values, name: str, stop: int, within: str, start: int = 0) -> np.ndarray:
    """The (B,) index `values` as an intp array once every row is an integer in [start, stop) (`numcore.index_faults`):
    a cast reads 1.7 and True as 1 and fails past int64, a table -1 as its last row, so GenerationError names the first row that is not."""
    non_integer, outside = index_faults(values, stop, start)
    if non_integer is not None or outside is not None:
        row = min(i for i in (non_integer, outside) if i is not None)
        raise GenerationError(f"row {row}: {name} {values[row]} " + ("is not an integer" if row == non_integer else f"outside {within}"))
    return np.asarray(values, dtype=np.intp)


def oracle_rows(prefs: PreferenceParams, net: Network, users, destinations):
    """The oracle of B trips, scored a batch of rows at a time.

    Returns `probs(rows, positions, prev_actions)`: the (len(rows), 9) action probabilities of
    trips `rows` at `positions`, after `prev_actions` (-1 at a trip's first move). Row i equals
    `oracle_action_probs` at that state bit for bit. Each step reads the rows of the trips'
    destinations in the network's `hops` table. ValueError first for `users` and `destinations` that
    are not 1-D and of one length. A user without a row of `prefs.theta`, and a destination outside
    the network, raises `GenerationError` naming its row (`_index_rows`), and so does each step for a
    position outside the network or a previous action outside -1 and [0, 9), naming its row of that step's arrays.
    """
    if np.ndim(users) != 1 or np.shape(users) != np.shape(destinations):
        raise ValueError("users and destinations must be 1-D and of one length")
    within = f"network of {net.n_positions} positions"
    users = _index_rows(users, "user", prefs.n_users, f"the {prefs.n_users} users of the preferences")
    destinations = _index_rows(destinations, "destination", net.n_positions, within)
    theta = prefs.theta[users]
    actions = np.arange(netgrid.N_ACTIONS)

    def probs(rows: np.ndarray, positions: np.ndarray, prev_actions: np.ndarray) -> np.ndarray:
        positions = _index_rows(positions, "position", net.n_positions, within)
        prev_actions = _index_rows(prev_actions, "prev_action", netgrid.N_ACTIONS, f"-1 and [0, {netgrid.N_ACTIONS})", start=-1)
        dest = destinations[rows]
        here = net.hops[dest, positions]
        if (here < 0).any():
            i = int(np.argmax(here < 0))
            raise GenerationError(f"destination {dest[i]} unreachable from {positions[i]}")
        nxt = net.succ[positions]
        there = net.hops[dest[:, None], nxt]
        progress = np.where(there < 0, -1.0, np.sign(here[:, None] - there))
        prev = prev_actions[:, None]
        turn = (actions != prev) & (prev >= 0)
        stay = nxt == positions[:, None]
        w = theta[rows]
        # Term by term, in the order of a 3-term dot product: the features are -1, 0 or 1, so each
        # product is exact. For an infeasible action, `there` read the last position's entry
        # through the -1; the softmax masks that score.
        scores = w[:, :1] * progress + w[:, 1:2] * turn + w[:, 2:] * stay
        return np.exp(masked_log_softmax(scores, net.feasible[positions]))

    return probs


def oracle_action_probs(
    state: EnvState,
    prefs: PreferenceParams,
    net: Network,
    prev_action: int | None = None,
) -> np.ndarray:
    """Softmax of theta_user . f(s, a) over feasible actions; infeasible entries are 0.

    f(s, a) = (progress, turn, stay): progress is the sign of the drop in hops to
    the destination (-1 where the next position cannot reach it), turn is 1 when
    `a` differs from `prev_action`, stay is 1 when `a` keeps the position. This is
    the one-row call of `oracle_rows`.
    """
    if not 0 <= state.position < net.n_positions:
        raise ValueError(f"position {state.position} outside network of {net.n_positions} positions")
    prev = -1 if prev_action is None else prev_action
    if not (numcore.is_integer(prev) and -1 <= prev < netgrid.N_ACTIONS):
        raise GenerationError(f"prev_action must be None, -1 or an integer in [0, {netgrid.N_ACTIONS}), got {prev_action!r}")
    probs = oracle_rows(prefs, net, [state.user_id], [state.destination])
    return probs(np.zeros(1, dtype=np.intp), np.array([state.position]), np.array([prev]))[0]


def roll_out(net: Network, origins, destinations, uniforms, probs) -> list[tuple[list[int], list[int], str]]:
    """The one move loop and the one place a move is drawn: B trips from `origins` to `destinations`,
    advanced in lockstep.

    Each step calls `probs(rows, positions, prev_actions)` once for the trips still under way: their
    rows (indices into `origins`), positions and previous moves (-1 at the first move). It returns
    their (len(rows), 9) action probabilities; trip i's move t is `numcore.inverse_cdf` of its row
    at `uniforms[i, t]`, and the width of `uniforms` is the move limit. Each landing is checked: a
    trip is "complete" at its destination, else "dead_end" where no action is feasible (also on its
    last allowed move), else "truncated" after its last allowed move. A finished trip leaves the
    batch, so later steps compute only live rows, and no trip asks for a move at a dead end. A drawn
    move that `succ` does not have raises the network's `infeasible_error`, naming the trip's row.

    The ends and the move limit are checked once, here, in whole-array tests (`_index_rows`, then the
    network's `hops` table), and a bad trip raises `GenerationError` naming its row: an end that is
    not an integer or is outside the network (every origin is judged before any destination), then
    one that equals the other end or cannot be reached from it. Last, before the first `probs` call,
    ValueError names the row, move and value of a uniform outside [0, 1), which `inverse_cdf` would map to action 0.
    Returns (positions, actions, flag) per trip, in row order.
    """
    if np.ndim(origins) != 1 or np.shape(origins) != np.shape(destinations):
        raise ValueError("origins and destinations must be 1-D and of one length")
    within = f"network of {net.n_positions} positions"
    origins = _index_rows(origins, "origin", net.n_positions, within)
    destinations = _index_rows(destinations, "destination", net.n_positions, within)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.ndim != 2 or len(uniforms) != len(origins):
        raise ValueError(f"uniforms of shape {uniforms.shape} for {len(origins)} trips: need one row per trip")
    bad = (net.hops[destinations, origins] < 0) | (origins == destinations)
    if np.count_nonzero(bad):
        row = int(np.argmax(bad))
        problem = "origin equals destination" if origins[row] == destinations[row] else f"destination {destinations[row]} unreachable from {origins[row]}"
        raise GenerationError(f"row {row}: {problem}")
    if uniforms.shape[1] < 1:
        raise GenerationError("max_len must allow at least one move")
    if not len(origins):
        return []
    if not (np.minimum.reduce(uniforms, None) >= 0 and np.maximum.reduce(uniforms, None) < 1):  # a NaN fails both
        row, move = np.argwhere(~((uniforms >= 0) & (uniforms < 1)))[0]
        raise ValueError(f"row {row}: uniform {uniforms[row, move]} of move {move} outside [0, 1)")
    # True where a landing leaves no feasible action, and in the extra last entry, which the -1 of an
    # infeasible move reads
    stuck_at = np.append(net.dead_end, True)
    paths = [[origin] for origin in origins.tolist()]
    moves = [[] for _ in paths]
    flags = ["truncated"] * len(paths)  # unless a landing ends the trip
    rows, positions, prev, targets = np.arange(len(paths)), origins, np.full(len(paths), -1), destinations
    for column in uniforms.T:
        p = np.asarray(probs(rows, positions, prev), dtype=np.float64)
        if p.shape != (len(rows), netgrid.N_ACTIONS):
            raise ValueError(f"probs returned shape {p.shape} for {len(rows)} trips")
        try:
            actions = numcore.inverse_cdf(p, column[rows])
        except numcore.DistributionError as exc:  # name the trip, not its place among the live rows
            raise numcore.DistributionError(int(rows[exc.row]), exc.problem) from None
        nxt = net.succ[positions, actions]
        for row, landing, a in zip(rows.tolist(), nxt.tolist(), actions.tolist()):
            paths[row].append(landing)
            moves[row].append(a)
        arrived = nxt == targets
        ended = arrived | stuck_at[nxt]
        if np.count_nonzero(ended):  # one test per step, so that a batch of one stays cheap
            bad = nxt < 0  # a drawn move that the network does not have
            if np.count_nonzero(bad):
                i = int(np.argmax(bad))
                raise net.infeasible_error(f"row {rows[i]}: action {actions[i]} is infeasible at position {positions[i]}")
            for row, complete in zip(rows[ended].tolist(), arrived[ended].tolist()):
                flags[row] = "complete" if complete else "dead_end"
            live = ~ended
            rows, nxt, actions, targets = rows[live], nxt[live], actions[live], targets[live]
            if not rows.size:
                break
        positions, prev = nxt, actions
    return list(zip(paths, moves, flags))


def oracle_trips(prefs: PreferenceParams, net: Network, users, origins, destinations, uniforms: np.ndarray):
    """`roll_out` of B oracle trips; trip i's move t is drawn by `uniforms[i, t]`."""
    oracle = functools.cache(lambda: oracle_rows(prefs, net, users, destinations))  # built after roll_out's checks
    return roll_out(net, origins, destinations, uniforms, lambda *step: oracle()(*step))


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic benchmark declaration: grid, population prior, and uniform origin-destination sampling.

    Frozen and checked when made, by the rule of `numcore.require`: it checks each field's type, then its
    bound, and raises ConfigError naming the first field that breaks one. The checked `archetypes` are
    stored as a tuple of float tuples."""

    width: int = 5
    height: int = 5
    cell_size_m: float = 1000.0
    users: int = 20
    n_trajectories: int = 2000
    archetypes: tuple = ((6.0, 0.0, -1.0), (1.5, -2.0, -1.0))
    theta_sigma: float = 0.1
    max_len: int = 50
    depart_bins: int = 24
    speed_bins: int = 120
    seed: int = 0

    def __post_init__(self):
        require(
            self,
            ConfigError,
            width=GRID_SIDE,
            height=GRID_SIDE,
            users=AT_LEAST_1,
            n_trajectories=NON_NEGATIVE,
            archetypes=_WEIGHT_ROWS,
            theta_sigma=NON_NEGATIVE,
            max_len=AT_LEAST_1,
            depart_bins=(lambda bins: 1 <= bins <= 24, "in [1, 24]"),
            speed_bins=(lambda bins: 1 <= bins <= 120, "in [1, 120]"),
        )
        object.__setattr__(self, "archetypes", tuple(tuple(map(float, row)) for row in self.archetypes))


def draw_preferences(cfg: SynthConfig) -> PreferenceParams:
    """user u follows archetype u % len(archetypes), jittered by theta_sigma."""
    rng = make_rng(cfg.seed, "theta")
    arch = np.asarray(cfg.archetypes, dtype=np.float64)
    theta = np.empty((cfg.users, N_FEATURES))
    for u in range(cfg.users):
        theta[u] = arch[u % len(arch)] + rng.normal(0.0, cfg.theta_sigma, size=N_FEATURES)
    return PreferenceParams(theta)


def gen_dataset(cfg: SynthConfig) -> tuple[Dataset, PreferenceParams]:
    """N oracle trajectories, rolled out in one batch; trip `tid` draws its context from
    make_rng(seed, "traj", tid) and its moves from make_rng(seed, "traj-roll", tid): the trip that
    `oracle_trips` draws for it alone."""
    net = GridNetwork(GridSpec(cfg.width, cfg.height, cfg.cell_size_m))
    prefs = draw_preferences(cfg)
    contexts = np.empty((cfg.n_trajectories, 5), dtype=np.intp)  # user, origin, destination, depart, speed
    uniforms = np.empty((cfg.n_trajectories, cfg.max_len))
    for tid in range(cfg.n_trajectories):
        rng = make_rng(cfg.seed, "traj", tid)
        user = int(rng.integers(0, cfg.users))
        origin = int(rng.integers(0, net.n_positions))
        destination = int(rng.integers(0, net.n_positions))
        while destination == origin:
            destination = int(rng.integers(0, net.n_positions))
        depart = int(rng.integers(0, cfg.depart_bins))
        speed = int(rng.integers(0, cfg.speed_bins))
        contexts[tid] = user, origin, destination, depart, speed
        uniforms[tid] = make_rng(cfg.seed, "traj-roll", tid).random(cfg.max_len)
    users, origins, destinations, departs, speeds = contexts.T
    rolled = oracle_trips(prefs, net, users, origins, destinations, uniforms)
    trajectories = [
        Trajectory(tid, user, depart, speed, *trip)
        for tid, (user, depart, speed, trip) in enumerate(zip(users.tolist(), departs.tolist(), speeds.tolist(), rolled))
    ]
    return Dataset(net, trajectories, cfg.users), prefs


def split(dataset: Dataset, eval_fraction: float, seed: int) -> Dataset:
    """Per-user stratified shuffle split; floor(n_user * fraction) goes to eval."""
    if not 0.0 < eval_fraction < 1.0:
        raise SplitError(f"eval_fraction must be in (0, 1), got {eval_fraction}")
    if len(dataset.trajectories) < 2:
        raise SplitError("need at least 2 trajectories to split")
    by_user: dict[int, list[int]] = {}
    for i, traj in enumerate(dataset.trajectories):
        by_user.setdefault(traj.user_id, []).append(i)
    train_idx: list[int] = []
    eval_idx: list[int] = []
    for user in sorted(by_user):
        idxs = by_user[user]
        order = make_rng(seed, "split", user).permutation(len(idxs))
        k = int(len(idxs) * eval_fraction)
        for j, pos in enumerate(order):
            (eval_idx if j < k else train_idx).append(idxs[pos])
    train_idx.sort()
    eval_idx.sort()
    return Dataset(dataset.net, dataset.trajectories, dataset.user_count, train_idx, eval_idx)


# ---------------------------------------------------------------------------
# Dataset files: line-oriented text with #grid/#links and #users headers.
# ---------------------------------------------------------------------------


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(dataset.net, GridNetwork):
            spec = dataset.net.spec
            fh.write(f"#grid {spec.width} {spec.height} {float(spec.cell_size_m)!r}\n")  # float(): a numpy float's repr names its type
        else:
            fh.write(f"#links {dataset.net.n_positions}\n")
        fh.write(f"#users {dataset.user_count}\n")
        for traj in dataset.trajectories:
            fh.write(
                f"{traj.traj_id}|{traj.user_id}|{traj.depart_bin}|{traj.speed_bin}|"
                f"{','.join(map(str, traj.positions))}|{','.join(map(str, traj.actions))}|{traj.flag}\n"
            )


def _header_fields(line: str, names: str) -> list[str]:
    """The fields after a header line's `#tag`; ValueError unless there is one per word of `names`."""
    tag, *fields = line.split()
    if len(fields) != len(names.split()):
        raise ValueError(f"{tag} needs {names}, got {' '.join(fields) or 'nothing'}")
    return fields


def load_dataset(path, net: Network | None = None) -> Dataset:
    """Parse a dataset file and verify the connectivity invariant of every line.

    A line that does not parse raises a ValueError that starts with `path:line_no`, as does a trip
    that breaks a rule of `Trajectory`, a user_id at or above the #users count, a #users count below
    1, a traj_id that an earlier line holds, a position outside the network, a move that does not
    lead to the next position, a #grid or #links header that does not describe the supplied network,
    and a trajectory line before the #grid header of a file without a network supplied. A supplied network is the returned dataset's `net`.
    """
    user_count = None
    trajectories = []
    line_of = {}  # traj_id -> its line
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("#grid"):
                    w, h, cell_m = _header_fields(line, "width height cell_m")
                    spec = GridSpec(int(w), int(h), float(cell_m))
                    if net is None:
                        net = GridNetwork(spec)
                    elif not (isinstance(net, GridNetwork) and net.spec == spec):
                        raise ValueError(f"#grid {w} {h} {cell_m} does not match the network: {getattr(net, 'spec', 'a link graph')}")
                elif line.startswith("#links"):
                    (count,) = _header_fields(line, "count")
                    if net is None:
                        raise ValueError("link-graph dataset needs an explicit network")
                    if int(count) != net.n_positions:
                        raise ValueError(f"#links {count} does not match the network's {net.n_positions} links")
                elif line.startswith("#users"):
                    (count,) = _header_fields(line, "count")
                    user_count = int(count)
                    if user_count < 1:
                        raise ValueError(f"#users must be >= 1, got {count}")
                else:
                    parts = line.split("|")
                    if len(parts) != 7:
                        raise ValueError(f"expected 7 fields, got {len(parts)}")
                    tid, user, depart, speed, pos_s, act_s, flag = parts
                    positions, actions = [int(p) for p in pos_s.split(",")], [int(a) for a in act_s.split(",") if a]
                    traj = Trajectory(int(tid), int(user), int(depart), int(speed), positions, actions, flag)
                    if traj.traj_id in line_of:
                        raise ValueError(f"traj_id {traj.traj_id} repeated, first at line {line_of[traj.traj_id]}")
                    if net is None:
                        raise ValueError("a trajectory line before the #grid header")
                    check_connectivity(traj, net)
                    trajectories.append(traj)
                    line_of[traj.traj_id] = line_no
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    if net is None:
        raise ValueError(f"{path}: missing #grid header and no network supplied")
    if user_count is None:
        user_count = max((t.user_id for t in trajectories), default=0) + 1
    for traj in trajectories:  # a #users header may follow the trajectory lines
        if traj.user_id >= user_count:
            raise ValueError(f"{path}:{line_of[traj.traj_id]}: trajectory {traj.traj_id}: user {traj.user_id} >= {user_count}")
    return Dataset(net, trajectories, user_count)


def save_preferences(prefs: PreferenceParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,theta_progress,theta_turn,theta_stay\n")
        for u, row in enumerate(prefs.theta):
            fh.write(f"{u},{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}\n")


def load_preferences(path) -> PreferenceParams:
    """Read `save_preferences`' CSV: one `user_id,progress,turn,stay` row per user, in any order.

    A row that does not parse raises a ValueError that starts with `path:line_no`, as does a repeated
    user_id or a non-finite weight; a user_id below the largest one with no row of its own is named too,
    and so is a file with no user row.
    """
    rows: dict[int, list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("user_id,"):
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line_no, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            try:
                parts = raw.strip().split(",")
                if len(parts) != 1 + N_FEATURES:
                    raise ValueError(f"expected {1 + N_FEATURES} fields, got {len(parts)}")
                user = int(parts[0])
                if user < 0 or user in rows:
                    raise ValueError(f"user_id {user} is {'negative' if user < 0 else 'repeated'}")
                weights = [float(x) for x in parts[1:]]
                if not all(map(math.isfinite, weights)):
                    raise ValueError(f"non-finite weight in {','.join(parts[1:])}")
                rows[user] = weights
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no user rows")
    missing = sorted(set(range(len(rows))) - set(rows))
    if missing:
        raise ValueError(f"{path}: no row for user_id {missing[0]}")
    return PreferenceParams(np.asarray([rows[u] for u in range(len(rows))]))


# ---------------------------------------------------------------------------
# GPS CSV ingestion
# ---------------------------------------------------------------------------


def _parse_timestamp(token: str) -> float:
    """Seconds since the epoch of an epoch number or an ISO time (UTC unless it names its zone). ValueError for
    neither, and for a time that `datetime` cannot hold (NaN, inf, years outside 1-9999): a trip's departure hour reads it."""
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        try:
            dt = datetime.fromisoformat(token)
        except ValueError as exc:
            raise ValueError(f"unparsable timestamp {token!r}") from exc
        value = (dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)).timestamp()
    try:
        datetime.fromtimestamp(value, timezone.utc)
    except (OverflowError, OSError, ValueError):
        raise ValueError(f"timestamp {token!r} outside datetime's range") from None
    return value


def _haversine_km(lon1, lat1, lon2, lat2) -> float:
    rad = math.pi / 180.0
    dlat = (lat2 - lat1) * rad
    dlon = (lon2 - lon1) * rad
    a = math.sin(dlat / 2) ** 2 + math.cos(lat1 * rad) * math.cos(lat2 * rad) * math.sin(dlon / 2) ** 2
    return 2 * 6371.0 * math.asin(math.sqrt(a))


@dataclass
class IngestStats:
    rows: int = 0
    unparsable: int = 0
    out_of_bbox: int = 0
    trajectories: int = 0
    dropped_short: int = 0


@dataclass(frozen=True)
class IngestConfig:
    """`ingest_csv`'s (lon, lat) box, which the grid spans, and its cut rules. Frozen and checked when made,
    by the rule of `numcore.require`, as `SynthConfig` is; a max edge must exceed its min edge."""

    lon_min: float
    lat_min: float
    lon_max: float
    lat_max: float
    resample_minutes: float = 10.0
    max_gap_intervals: int = 2
    max_moves: int = SynthConfig.max_len

    def __post_init__(self):
        require(
            self, ConfigError, resample_minutes=POSITIVE, max_gap_intervals=AT_LEAST_1, max_moves=AT_LEAST_1,
            lon_max=(lambda lon: lon > self.lon_min, f"> lon_min {self.lon_min}"),
            lat_max=(lambda lat: lat > self.lat_min, f"> lat_min {self.lat_min}"),
        )


def ingest_csv(path, grid: GridSpec, cfg: IngestConfig) -> tuple[Dataset, IngestStats]:
    """vehicle_id,timestamp,lon,lat rows inside `cfg`'s box -> resampled trajectories on `grid`.

    A row that does not parse, or whose timestamp `datetime` cannot hold, counts in
    `IngestStats.unparsable`, and a fix outside the box in `out_of_bbox`; IngestionError when more
    than half the rows do not parse. Each vehicle's stream is resampled to intervals of
    `cfg.resample_minutes`, keeping the last fix of each interval, and its intervals are walked once
    in time order as one trip of (fix, cell) pairs, cut by three rules:
    - a gap of more than `cfg.max_gap_intervals` intervals, or a jump to a cell that is not one move
      from the last cell, starts a new trip;
    - a shorter gap repeats the last fix once per missing interval (a stay);
    - a trip that has `cfg.max_moves` moves goes on in a new part that starts at its last cell, so
      that a model of that `max_len` can embed each part.
    A trip of one fix is dropped and counted in `IngestStats.dropped_short`. Vehicles become users
    0, 1, ... in sorted order of their ids.
    """
    lon_min, lat_min, lon_max, lat_max = cfg.lon_min, cfg.lat_min, cfg.lon_max, cfg.lat_max
    net = GridNetwork(grid)
    stats = IngestStats()
    fixes: dict[str, list[tuple[float, float, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.lower().startswith(CSV_COLUMNS[0]):
                continue
            stats.rows += 1
            try:  # a row of fewer fields fails to unpack
                vid, stamp, lon, lat = line.split(",")[: len(CSV_COLUMNS)]
                vid, ts, lon, lat = vid.strip(), _parse_timestamp(stamp), float(lon), float(lat)
            except ValueError:
                stats.unparsable += 1
                continue
            if not (lon_min <= lon < lon_max and lat_min <= lat < lat_max):
                stats.out_of_bbox += 1
                continue
            fixes.setdefault(vid, []).append((ts, lon, lat))
    if stats.rows and stats.unparsable > 0.5 * stats.rows:
        raise IngestionError(f"{stats.unparsable}/{stats.rows} rows unparsable in {path}")

    def cell_of(lon: float, lat: float) -> int:
        col = min(int((lon - lon_min) / (lon_max - lon_min) * grid.width), grid.width - 1)
        row = min(int((lat - lat_min) / (lat_max - lat_min) * grid.height), grid.height - 1)
        return net.cell_of(row, col)

    interval = cfg.resample_minutes * 60.0
    trajectories: list[Trajectory] = []

    def finish(trip: list[tuple[tuple[float, float, float], int]], user: int) -> None:
        """Append the trajectory of a trip's (fix, cell) pairs; a trip of one fix is dropped as short."""
        if len(trip) < 2:
            stats.dropped_short += 1
            return
        (first, _), (second, _) = trip[:2]
        cells = [cell for _, cell in trip]
        actions = (net.succ[cells[:-1]] == np.array(cells[1:])[:, None]).argmax(axis=1).tolist()  # each move's first action to the next cell
        depart = datetime.fromtimestamp(first[0], tz=timezone.utc).hour
        hours = (second[0] - first[0]) / 3600.0
        km = _haversine_km(first[1], first[2], second[1], second[2])
        speed = int(min(max(km / hours if hours > 0 else 0.0, 0.0), 119.0))
        trajectories.append(Trajectory(len(trajectories), user, depart, speed, cells, actions))

    for user, vid in enumerate(sorted(fixes)):
        stream = sorted(fixes[vid])
        per_bin = {int((fix[0] - stream[0][0]) // interval): fix for fix in stream}  # the last fix of each interval
        (last, fix), *rest = sorted(per_bin.items())
        trip = [(fix, cell_of(fix[1], fix[2]))]  # the (fix, cell) pairs of the trip under way
        for b, fix in rest:
            cell = cell_of(fix[1], fix[2])
            gap, last = b - last, b
            steps = [trip[-1]] * (gap - 1) if gap <= cfg.max_gap_intervals else []  # a stay per missing interval
            joined = gap <= cfg.max_gap_intervals and cell in net.succ[trip[-1][1]]
            if joined:
                steps.append((fix, cell))
            for step in steps:
                if len(trip) > cfg.max_moves:  # a trip of max_moves moves goes on in a part from its last cell
                    finish(trip, user)
                    trip = [trip[-1]]
                trip.append(step)
            if not joined:  # a long gap or a jump to a cell that is not one move away starts a new trip
                finish(trip, user)
                trip = [(fix, cell)]
        finish(trip, user)
    stats.trajectories = len(trajectories)
    return Dataset(net, trajectories, len(fixes)), stats
