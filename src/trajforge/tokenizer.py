"""Trajectories to one table of (state, action) steps, which both learners read.

Per step the token order is (s_t, a_t). `encode_trips` lays trips back to back, one row per
step; each trip ends in its terminal step, whose action is the single BLANK placeholder since
no decision is made there. So a trip ends at each BLANK step, and the row after a decision
step holds s', the state its move leads to. The policy's batches (`trajmodel.forward_batch`)
and the critic's transitions (`rewardirl.transitions`) are both read from this table.

`COLUMN_TABLES` names the `VocabSpec` table that each index column reads, and `check_columns`
is the one vocabulary check: the trainers (`check_vocab`, `rewardirl.train_critic`), the
critic's row scorers and `trajmodel.generate_scored` all reject an out-of-table index through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import netgrid
from .netgrid import Network
from .numcore import AT_LEAST_1, require
from .synthgen import SynthConfig

BLANK = netgrid.N_ACTIONS  # embedding row reserved for the missing decision
COLUMN_TABLES = dict(  # the VocabSpec table each index column reads; `action` is the one column outside them
    position="positions", origin="positions", destination="positions", next_position="positions",
    depart="depart_bins", speed="speed_bins", user="users", timestep="max_timestep",
)


class EncodingError(ValueError):
    """Trajectory cannot be rendered as tokens."""


@dataclass
class EpisodeTokens:
    """Per-step token indices of trips laid back to back (`encode_trips`)."""

    position: np.ndarray
    origin: np.ndarray
    destination: np.ndarray
    depart: np.ndarray
    speed: np.ndarray
    user: np.ndarray
    action: np.ndarray
    timestep: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.position)

    @property
    def decision_mask(self) -> np.ndarray:
        return self.action != BLANK


@dataclass
class VocabSpec:
    """Embedding-table sizes for a network and population; the action table always has N_ACTIONS + 1 rows."""

    positions: int
    depart_bins: int
    speed_bins: int
    users: int
    max_timestep: int

    def __post_init__(self):
        require(self, EncodingError, **dict.fromkeys(self.__dataclass_fields__, AT_LEAST_1))


IS_VOCAB_SPEC = (lambda vocab: isinstance(vocab, VocabSpec), "a VocabSpec")  # the `require` bound of a model config's vocab


def vocab_sizes(net: Network, config: SynthConfig) -> VocabSpec:
    """Exact embedding-table sizes of `net` and the users, bins and max_len of `config`."""
    return VocabSpec(
        positions=net.n_positions,
        depart_bins=config.depart_bins,
        speed_bins=config.speed_bins,
        users=config.users,
        max_timestep=config.max_len + 1,  # a trajectory of max_len moves has max_len + 1 steps
    )


def check_columns(vocab: VocabSpec, columns: dict, where) -> None:
    """Raise for the first row of the (B,) index `columns` with an index outside its table of `vocab`.

    `columns` maps names of `COLUMN_TABLES`, and `action`, to equal-length arrays. The error names
    the first bad row by `where(row)`, then that row's first bad column in `columns` order, and
    its value: EncodingError outside a table, ValueError for an action outside [0, 9).
    """
    names, values = list(columns), list(columns.values())
    limits = np.array([getattr(vocab, COLUMN_TABLES[name]) if name != "action" else netgrid.N_ACTIONS for name in names])
    try:
        idx = np.array(values, dtype=np.intp)
        bad = idx.view(np.uintp) >= limits[:, None]  # a negative index reads as a huge unsigned one
    except OverflowError:  # an index past int64, outside every table: compare the Python ints
        idx = np.array(values, dtype=object)
        bad = (idx < 0) | (idx >= limits[:, None])
    if np.count_nonzero(bad):
        row, col = np.argwhere(bad.T)[0]  # the first bad row, and its first bad column
        if names[col] == "action":
            raise ValueError(f"{where(row)}: action {idx[col, row]} outside [0, {netgrid.N_ACTIONS})")
        raise EncodingError(f"{where(row)}: {names[col]} {idx[col, row]} outside vocabulary of {limits[col]}")


def check_vocab(trajectories, vocab: VocabSpec) -> EpisodeTokens:
    """The step table of `trajectories` (`encode_trips`), its index columns checked by `check_columns`.

    EncodingError names the trajectory of the first bad step; a trajectory of n positions uses timesteps 0..n-1.
    """
    tokens = encode_trips(trajectories)
    trip = np.cumsum(~tokens.decision_mask) - ~tokens.decision_mask  # trips ended before each step
    cols = {name: getattr(tokens, name) for name in tokens.__dataclass_fields__ if name != "action"}
    check_columns(vocab, cols, lambda row: f"trajectory {trajectories[trip[row]].traj_id}")
    return tokens


def encode_trips(trajectories) -> EpisodeTokens:
    """One table of the trips' steps, back to back; each trip's terminal step carries the BLANK action.

    EncodingError names the first trip with an action outside [0, 9), then the first trip with an
    index that does not fit in int64, and its field.
    """
    for traj in trajectories:
        if any(not 0 <= a < netgrid.N_ACTIONS for a in traj.actions):
            raise EncodingError(f"trajectory {traj.traj_id} has an action outside [0, {netgrid.N_ACTIONS})")
    try:
        return _step_table(trajectories)
    except OverflowError:
        for traj in trajectories:
            fields = dict(position=traj.positions, depart=[traj.depart_bin], speed=[traj.speed_bin], user=[traj.user_id])
            for name, values in fields.items():
                for value in values:
                    if not -(2**63) <= value < 2**63:
                        raise EncodingError(f"trajectory {traj.traj_id}: {name} {value} outside int64") from None
        raise


def _step_table(trajectories) -> EpisodeTokens:
    steps = np.array([len(t.positions) for t in trajectories], dtype=np.int64)
    n = int(steps.sum())

    def per_trip(values):
        return np.repeat(np.array(values, dtype=np.int64), steps)

    return EpisodeTokens(
        position=np.fromiter(chain.from_iterable(t.positions for t in trajectories), dtype=np.int64, count=n),
        origin=per_trip([t.origin for t in trajectories]),
        destination=per_trip([t.destination for t in trajectories]),
        depart=per_trip([t.depart_bin for t in trajectories]),
        speed=per_trip([t.speed_bin for t in trajectories]),
        user=per_trip([t.user_id for t in trajectories]),
        action=np.fromiter(chain.from_iterable((*t.actions, BLANK) for t in trajectories), dtype=np.int64, count=n),
        timestep=np.arange(n, dtype=np.int64) - np.repeat(np.cumsum(steps) - steps, steps),
    )

