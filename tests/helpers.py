"""What several test modules share: a scalar loss and a finite-difference check over numcore's
recorded graph, the one peak-memory probe, reference AdamW, layer-norm and GELU formulas, one
oracle trip, a reference hop count and a reference GPS ingestion."""

import math
from collections import deque
import tracemalloc
from datetime import datetime, timezone

import numpy as np

from trajforge import netgrid as ng
from trajforge import numcore as nc
from trajforge import synthgen as sg
from trajforge.numcore import make_rng


def total(x: nc.Tensor) -> nc.Tensor:
    """The sum of a non-empty `x`, as `mean_all` times its size: the gradient reaching `x` is exactly 1."""
    return nc.mul_const(nc.mean_all(x), x.data.size)


def finite_diff_check(f, params, eps: float = 1e-4) -> float:
    """Max relative error between reverse-mode gradients of f() and central differences.

    `f` must rebuild its forward pass from the current parameter values on
    every call. The denominator is guarded by max(|analytic|, |numeric|, 1e-8).
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError(f"eps must lie in (0, 1e-2], got {eps}")
    for p in params:
        p.grad = np.zeros_like(p.data)
    loss = f()
    if not np.isfinite(loss.data):
        raise nc.EvaluationError("loss is not finite at the evaluation point")
    nc.backward(loss)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f().data)
            flat[i] = orig - eps
            f_minus = float(f().data)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise nc.EvaluationError("loss is not finite at a perturbed point")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst


def traced_peak(fn) -> int:
    """The peak, in bytes, of the memory that Python's allocators hand out during one call `fn()`,
    counting only what the call allocates (tracemalloc, started just before it)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_adamw_step(vector: np.ndarray, grad: np.ndarray, state: nc.OptimizerState) -> None:
    """`numcore.adamw_step` as three whole-array formulas, each making its own temporaries."""
    state.step += 1
    bc1 = 1.0 - nc.ADAM_BETA1**state.step
    bc2 = 1.0 - nc.ADAM_BETA2**state.step
    if state.weight_decay:
        vector -= state.lr * state.weight_decay * vector
    state.m[:] = nc.ADAM_BETA1 * state.m + (1.0 - nc.ADAM_BETA1) * grad
    state.v[:] = nc.ADAM_BETA2 * state.v + (1.0 - nc.ADAM_BETA2) * (grad * grad)
    vector -= state.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + nc.ADAM_EPS)


GELU_C = math.sqrt(2.0 / math.pi)


def reference_gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`numcore.gelu_fwd` as one whole-array formula, making its own temporaries: (output, t)."""
    t = np.tanh(GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def reference_layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """`numcore.layer_norm`'s forward as whole-array formulas with `ndarray.mean`, making their own
    temporaries: (output, normalized x, 1 / std of each row)."""
    centered = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    return centered * inv_std * gain + bias, centered * inv_std, inv_std


def reference_gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient that `numcore.gelu`'s backward passes to `x` under the upstream `g`, as one formula."""
    sech2 = 1.0 - t * t
    d_inner = GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    return g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner)


def oracle_trip(seed, od, user, prefs, net, max_len, depart_bin=0, speed_bin=0, traj_id=0) -> sg.Trajectory:
    """One oracle trip from od[0] to od[1] of at most `max_len` moves, an `oracle_trips` batch of one
    whose uniforms come from make_rng(seed), or make_rng(*seed) for a tuple."""
    rng = make_rng(seed) if isinstance(seed, int) else make_rng(*seed)
    [(positions, actions, flag)] = sg.oracle_trips(prefs, net, [user], [od[0]], [od[1]], rng.random((1, max(max_len, 0))))
    return sg.Trajectory(traj_id, user, depart_bin, speed_bin, positions, actions, flag)


def reference_hops_to(net: ng.Network, destination: int) -> list[int]:
    """The fewest moves from each position to `destination`, -1 where it cannot be reached: a plain
    breadth-first search from `destination` over the network's moves, reversed, one position at a time.
    It is kept as the reference that `Network.hops`, a search from every destination at once, must match."""
    into = [[] for _ in range(net.n_positions)]  # the positions one move before each position
    for pos in range(net.n_positions):
        for nxt in net.succ[pos].tolist():
            if nxt >= 0:
                into[nxt].append(pos)
    hops = [-1] * net.n_positions
    hops[destination] = 0
    queue = deque([destination])
    while queue:
        here = queue.popleft()
        for pos in into[here]:
            if hops[pos] < 0:
                hops[pos] = hops[here] + 1
                queue.append(pos)
    return hops


def reference_ingest_csv(path, grid: ng.GridSpec, cfg: sg.IngestConfig) -> tuple[sg.Dataset, sg.IngestStats]:
    """`synthgen.ingest_csv` in three list passes per vehicle, kept as the reference that the one-pass
    version must match: stitch intervals into runs, cut each run at jumps into pieces, then slice each
    piece into parts of at most `max_moves` moves that share their boundary cell."""
    lon_min, lat_min, lon_max, lat_max = cfg.lon_min, cfg.lat_min, cfg.lon_max, cfg.lat_max
    max_gap_intervals, max_moves = cfg.max_gap_intervals, cfg.max_moves
    net = ng.GridNetwork(grid)
    stats = sg.IngestStats()
    fixes: dict[str, list[tuple[float, float, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.lower().startswith(sg.CSV_COLUMNS[0]):
                continue
            stats.rows += 1
            try:  # a row of fewer fields fails to unpack
                vid, stamp, lon, lat = line.split(",")[: len(sg.CSV_COLUMNS)]
                vid, ts, lon, lat = vid.strip(), sg._parse_timestamp(stamp), float(lon), float(lat)
            except ValueError:
                stats.unparsable += 1
                continue
            if not (lon_min <= lon < lon_max and lat_min <= lat < lat_max):
                stats.out_of_bbox += 1
                continue
            fixes.setdefault(vid, []).append((ts, lon, lat))
    if stats.rows and stats.unparsable > 0.5 * stats.rows:
        raise sg.IngestionError(f"{stats.unparsable}/{stats.rows} rows unparsable in {path}")

    def cell_of(lon: float, lat: float) -> int:
        col = min(int((lon - lon_min) / (lon_max - lon_min) * grid.width), grid.width - 1)
        row = min(int((lat - lat_min) / (lat_max - lat_min) * grid.height), grid.height - 1)
        return net.cell_of(row, col)

    interval = cfg.resample_minutes * 60.0
    trajectories: list[sg.Trajectory] = []
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
                if pieces[-1] and cell not in net.succ[pieces[-1][-1][3]]:
                    pieces.append([])
                pieces[-1].append((ts, lon, lat, cell))
            # parts of at most max_moves moves; consecutive parts share their boundary cell
            pieces = [p[s : s + max_moves + 1] for p in pieces for s in range(0, max(len(p) - 1, 1), max_moves)]
            for piece in pieces:
                if len(piece) < 2:
                    stats.dropped_short += 1
                    continue
                cells = [p[3] for p in piece]
                actions = [int(np.flatnonzero(net.succ[a] == b)[0]) for a, b in zip(cells, cells[1:])]
                first = datetime.fromtimestamp(piece[0][0], tz=timezone.utc)
                hours = (piece[1][0] - piece[0][0]) / 3600.0
                km = sg._haversine_km(piece[0][1], piece[0][2], piece[1][1], piece[1][2])
                speed = int(min(max(km / hours if hours > 0 else 0.0, 0.0), 119.0))
                trajectories.append(
                    sg.Trajectory(
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
    return sg.Dataset(net, trajectories, len(user_ids)), stats
