"""Synthetic ground-truth data with known per-user route preferences, plus GPS CSV ingestion.

The synthetic oracle samples actions from softmax(theta_u . f(s, a)) over
feasible actions, with features f = (progress sign, turn change, stay). The
stored per-user theta vectors are the recoverable ground truth that the reward
model is later judged against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import netgrid
from .netgrid import EnvState, GridNetwork, GridSpec, LinkGraph, Network
from .numcore import make_rng, masked_logsumexp

N_FEATURES = 3  # progress, turn-change, stay


class GenerationError(RuntimeError):
    """Trajectory generation cannot proceed (e.g. unreachable destination)."""


class ConfigError(ValueError):
    """Invalid generation configuration."""


class IngestionError(RuntimeError):
    """Too many unusable rows in a GPS file."""


class SplitError(ValueError):
    """Dataset too small to split."""


@dataclass
class PreferenceParams:
    """Per-user weight vectors over (progress, turn-change, stay) features."""

    theta: np.ndarray  # (users, 3)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim != 2 or self.theta.shape[1] != N_FEATURES:
            raise ConfigError(f"theta must have shape (users, {N_FEATURES})")
        if not np.all(np.isfinite(self.theta)):
            raise ConfigError("theta contains non-finite weights")

    @property
    def n_users(self) -> int:
        return self.theta.shape[0]


@dataclass
class Trajectory:
    traj_id: int
    user_id: int
    depart_bin: int
    speed_bin: int
    positions: list[int]
    actions: list[int]
    flag: str = "complete"  # complete | truncated | dead_end

    def __post_init__(self):
        if len(self.positions) < 2:
            raise ValueError("trajectory needs at least 2 positions")
        if len(self.actions) != len(self.positions) - 1:
            raise ValueError("actions must have one entry per move")

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
        return [self.trajectories[i] for i in self.train_idx]

    def eval(self) -> list[Trajectory]:
        return [self.trajectories[i] for i in self.eval_idx]


def check_connectivity(traj: Trajectory, net: Network) -> None:
    """Every recorded move must reproduce the next position."""
    for t, a in enumerate(traj.actions):
        try:
            landed = netgrid.apply_action(net, traj.positions[t], a)
        except (netgrid.BoundaryError, netgrid.ConnectivityError):
            landed = None
        if landed != traj.positions[t + 1]:
            raise ValueError(
                f"trajectory {traj.traj_id}: action {a} at step {t} does not lead "
                f"from {traj.positions[t]} to {traj.positions[t + 1]}"
            )


# ---------------------------------------------------------------------------
# Oracle policy
# ---------------------------------------------------------------------------


def oracle_features(net: Network, position: int, destination: int, a: int, prev_action: int | None, hops_table=None) -> np.ndarray:
    """(progress, turn-change, stay) for one feasible action."""
    nxt = netgrid.apply_action(net, position, a)
    if hops_table is None:
        hops_table = netgrid.hops_to(net, destination)
    here = hops_table[position]
    there = hops_table[nxt]
    if here is None:
        raise GenerationError(f"destination {destination} unreachable from {position}")
    if there is None:
        progress = -1.0
    else:
        progress = float((here > there) - (here < there))  # sign of the hop change
    turn = 1.0 if prev_action is not None and a != prev_action else 0.0
    stay = 1.0 if nxt == position else 0.0
    return np.array([progress, turn, stay])


def oracle_action_probs(
    state: EnvState,
    prefs: PreferenceParams,
    net: Network,
    prev_action: int | None = None,
    hops_table=None,
) -> np.ndarray:
    """Softmax of theta_user . f(s, a) over feasible actions; infeasible entries are 0."""
    if hops_table is None:
        hops_table = netgrid.hops_to(net, state.destination)
    if hops_table[state.position] is None:
        raise GenerationError(f"destination {state.destination} unreachable from {state.position}")
    theta = prefs.theta[state.user_id]
    feasible = net.feasible[state.position]
    scores = np.full(netgrid.N_ACTIONS, -np.inf)
    for a in np.flatnonzero(feasible).tolist():
        scores[a] = theta @ oracle_features(net, state.position, state.destination, a, prev_action, hops_table)
    return np.exp(scores - masked_logsumexp(scores, feasible))


def gen_trajectory(
    seed,
    od: tuple[int, int],
    user: int,
    prefs: PreferenceParams,
    net: Network,
    max_len: int,
    depart_bin: int = 0,
    speed_bin: int = 0,
    traj_id: int = 0,
) -> Trajectory:
    """Sample one trajectory from the oracle policy; deterministic given seed."""
    origin, destination = od
    if origin == destination:
        raise GenerationError("origin equals destination")
    hops_table = netgrid.hops_to(net, destination)
    if hops_table[origin] is None:
        raise GenerationError(f"destination {destination} unreachable from {origin}")
    if max_len < 1:
        raise GenerationError("max_len must allow at least one move")
    rng = make_rng(seed) if isinstance(seed, int) else make_rng(*seed)
    positions = [origin]
    actions: list[int] = []
    prev_action: int | None = None
    flag = "truncated"
    while True:
        state = EnvState(positions[-1], origin, destination, depart_bin, speed_bin, user)
        probs = oracle_action_probs(state, prefs, net, prev_action, hops_table)
        a = int(rng.choice(netgrid.N_ACTIONS, p=probs))
        actions.append(a)
        positions.append(netgrid.apply_action(net, positions[-1], a))
        prev_action = a
        if positions[-1] == destination:
            flag = "complete"
            break
        if len(actions) >= max_len:  # max_len caps the number of moves
            break
    return Trajectory(traj_id, user, depart_bin, speed_bin, positions, actions, flag)


@dataclass
class SynthConfig:
    """Synthetic benchmark declaration: grid, population prior, and sampling rule."""

    width: int = 5
    height: int = 5
    cell_size_m: float = 1000.0
    users: int = 20
    n_trajectories: int = 2000
    archetypes: list = field(default_factory=lambda: [[6.0, 0.0, -1.0], [1.5, -2.0, -1.0]])
    theta_sigma: float = 0.1
    max_len: int = 50
    depart_bins: int = 24
    speed_bins: int = 120
    od_rule: str = "uniform"
    seed: int = 0

    def validate(self) -> None:
        if self.users < 1:
            raise ConfigError("users must be >= 1")
        if self.n_trajectories < 0:
            raise ConfigError("n_trajectories must be >= 0")
        if self.max_len < 1:
            raise ConfigError("max_len must be >= 1")
        if self.od_rule != "uniform":
            raise ConfigError(f"unknown od_rule {self.od_rule!r}")
        if not self.archetypes:
            raise ConfigError("at least one archetype is required")
        for arch in self.archetypes:
            if len(arch) != N_FEATURES:
                raise ConfigError(f"archetype {arch} must have {N_FEATURES} weights")
        if not 1 <= self.depart_bins <= 24 or not 1 <= self.speed_bins <= 120:
            raise ConfigError("depart_bins in [1,24], speed_bins in [1,120]")


def draw_preferences(cfg: SynthConfig) -> PreferenceParams:
    """user u follows archetype u % len(archetypes), jittered by theta_sigma."""
    rng = make_rng(cfg.seed, "theta")
    arch = np.asarray(cfg.archetypes, dtype=np.float64)
    theta = np.empty((cfg.users, N_FEATURES))
    for u in range(cfg.users):
        theta[u] = arch[u % len(arch)] + rng.normal(0.0, cfg.theta_sigma, size=N_FEATURES)
    return PreferenceParams(theta)


def archetype_of(cfg: SynthConfig, user: int) -> int:
    return user % len(cfg.archetypes)


def gen_dataset(cfg: SynthConfig) -> tuple[Dataset, PreferenceParams]:
    """N oracle trajectories with per-trajectory seeds hash(base_seed, traj_id)."""
    cfg.validate()
    net = GridNetwork(GridSpec(cfg.width, cfg.height, cfg.cell_size_m))
    prefs = draw_preferences(cfg)
    trajectories = []
    for tid in range(cfg.n_trajectories):
        rng = make_rng(cfg.seed, "traj", tid)
        user = int(rng.integers(0, cfg.users))
        origin = int(rng.integers(0, net.n_positions))
        destination = int(rng.integers(0, net.n_positions))
        while destination == origin:
            destination = int(rng.integers(0, net.n_positions))
        depart = int(rng.integers(0, cfg.depart_bins))
        speed = int(rng.integers(0, cfg.speed_bins))
        traj = gen_trajectory(
            (cfg.seed, "traj-roll", tid),
            (origin, destination),
            user,
            prefs,
            net,
            cfg.max_len,
            depart_bin=depart,
            speed_bin=speed,
            traj_id=tid,
        )
        trajectories.append(traj)
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
            fh.write(f"#grid {spec.width} {spec.height} {spec.cell_size_m!r}\n")
        else:
            fh.write(f"#links {dataset.net.n_positions}\n")
        fh.write(f"#users {dataset.user_count}\n")
        for traj in dataset.trajectories:
            fh.write(
                f"{traj.traj_id}|{traj.user_id}|{traj.depart_bin}|{traj.speed_bin}|"
                f"{','.join(map(str, traj.positions))}|{','.join(map(str, traj.actions))}|{traj.flag}\n"
            )


def load_dataset(path, net: Network | None = None) -> Dataset:
    """Parse a dataset file and verify the connectivity invariant of every line."""
    user_count = None
    trajectories = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#grid"):
                _, w, h, cell_m = line.split()
                net = GridNetwork(GridSpec(int(w), int(h), float(cell_m)))
                continue
            if line.startswith("#links"):
                if net is None:
                    raise ValueError(f"{path}:{line_no}: link-graph dataset needs an explicit network")
                continue
            if line.startswith("#users"):
                user_count = int(line.split()[1])
                continue
            parts = line.split("|")
            if len(parts) != 7:
                raise ValueError(f"{path}:{line_no}: expected 7 fields, got {len(parts)}")
            tid, user, depart, speed, pos_s, act_s, flag = parts
            traj = Trajectory(
                traj_id=int(tid),
                user_id=int(user),
                depart_bin=int(depart),
                speed_bin=int(speed),
                positions=[int(p) for p in pos_s.split(",")],
                actions=[int(a) for a in act_s.split(",") if a],
                flag=flag,
            )
            trajectories.append(traj)
    if net is None:
        raise ValueError(f"{path}: missing #grid header and no network supplied")
    if user_count is None:
        user_count = max((t.user_id for t in trajectories), default=0) + 1
    dataset = Dataset(net, trajectories, user_count)
    for traj in trajectories:
        check_connectivity(traj, net)
        if traj.user_id >= user_count:
            raise ValueError(f"trajectory {traj.traj_id}: user {traj.user_id} >= {user_count}")
    return dataset


def save_preferences(prefs: PreferenceParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,theta_progress,theta_turn,theta_stay\n")
        for u, row in enumerate(prefs.theta):
            fh.write(f"{u},{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}\n")


def load_preferences(path) -> PreferenceParams:
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("user_id,"):
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            if line.strip():
                parts = line.strip().split(",")
                rows.append([float(x) for x in parts[1:4]])
    return PreferenceParams(np.asarray(rows))


# ---------------------------------------------------------------------------
# GPS CSV ingestion
# ---------------------------------------------------------------------------


def _parse_timestamp(token: str) -> float:
    token = token.strip()
    try:
        return float(token)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(token)
    except ValueError as exc:
        raise ValueError(f"unparsable timestamp {token!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


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


def ingest_csv(
    path,
    grid: GridSpec,
    bbox: tuple[float, float, float, float],
    resample_minutes: float = 10.0,
    column_map: dict[str, int] | None = None,
    max_gap_intervals: int = 2,
) -> tuple[Dataset, IngestStats]:
    """vehicle_id,timestamp,lon,lat rows -> resampled grid trajectories.

    Each vehicle's stream is resampled to fixed intervals keeping the last fix
    per interval; missing intervals within the gap threshold repeat the cell
    (a stay); larger gaps and non-adjacent cell jumps split the trajectory.
    """
    cols = column_map or {"vehicle_id": 0, "timestamp": 1, "lon": 2, "lat": 3}
    lon_min, lat_min, lon_max, lat_max = bbox
    if lon_max <= lon_min or lat_max <= lat_min:
        raise ConfigError(f"degenerate bbox {bbox}")
    net = GridNetwork(grid)
    stats = IngestStats()
    fixes: dict[str, list[tuple[float, float, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.lower().startswith("vehicle_id"):
                continue
            stats.rows += 1
            parts = line.split(",")
            try:
                vid = parts[cols["vehicle_id"]].strip()
                ts = _parse_timestamp(parts[cols["timestamp"]])
                lon = float(parts[cols["lon"]])
                lat = float(parts[cols["lat"]])
            except (ValueError, IndexError):
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

    interval = resample_minutes * 60.0
    trajectories: list[Trajectory] = []
    user_ids = {vid: u for u, vid in enumerate(sorted(fixes))}
    for vid in sorted(fixes):
        stream = sorted(fixes[vid])
        t0 = stream[0][0]
        # last fix per interval
        per_bin: dict[int, tuple[float, float, float]] = {}
        for ts, lon, lat in stream:
            per_bin[int((ts - t0) // interval)] = (ts, lon, lat)
        bins = sorted(per_bin)
        # stitch bins into runs, repeating cells across small gaps
        runs: list[list[tuple[float, float, float]]] = [[per_bin[bins[0]]]]
        for prev_b, b in zip(bins, bins[1:]):
            gap = b - prev_b
            if gap > max_gap_intervals:
                runs.append([per_bin[b]])
                continue
            runs[-1].extend([per_bin[prev_b]] * (gap - 1))
            runs[-1].append(per_bin[b])
        # cells, splitting again at non-adjacent jumps
        for run in runs:
            pieces: list[list[tuple[float, float, float, int]]] = [[]]
            for ts, lon, lat in run:
                cell = cell_of(lon, lat)
                if pieces[-1]:
                    try:
                        net.action_between(pieces[-1][-1][3], cell)
                    except netgrid.ConnectivityError:
                        pieces.append([])
                pieces[-1].append((ts, lon, lat, cell))
            for piece in pieces:
                if len(piece) < 2:
                    stats.dropped_short += 1
                    continue
                cells = [p[3] for p in piece]
                actions = [net.action_between(a, b) for a, b in zip(cells, cells[1:])]
                first = datetime.fromtimestamp(piece[0][0], tz=timezone.utc)
                hours = (piece[1][0] - piece[0][0]) / 3600.0
                km = _haversine_km(piece[0][1], piece[0][2], piece[1][1], piece[1][2])
                speed = int(min(max(km / hours if hours > 0 else 0.0, 0.0), 119.0))
                trajectories.append(
                    Trajectory(
                        traj_id=len(trajectories),
                        user_id=user_ids[vid],
                        depart_bin=first.hour,
                        speed_bin=speed,
                        positions=cells,
                        actions=actions,
                        flag="complete",
                    )
                )
    stats.trajectories = len(trajectories)
    return Dataset(net, trajectories, len(user_ids)), stats
