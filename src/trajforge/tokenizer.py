"""Trajectories to one table of (state, action) steps, which both learners read.

A step is one row: its state's indices and the action taken there. `encode_trips` lays trips
back to back; each trip ends in its terminal step, whose action is the single BLANK placeholder
since no decision is made there. So a trip ends at each BLANK step, and the row after a decision
step holds s', the state its move leads to. The policy's batches (`trajmodel.forward_batch`)
and the critic's transitions (`rewardirl.transitions`) are both read from this table. The table
checks nothing of its own: a `synthgen.Trajectory` checks its indices and moves when it is made.

`COLUMN_TABLES` names the `VocabSpec` table that each index column reads, and `check_columns`
is the one vocabulary check: the trainers (`check_vocab`, `rewardirl.train_critic`), the
critic's row scorers and `trajmodel.generate_scored` all reject an out-of-table index through it,
which judges each column by `numcore.index_faults`, the one index check of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import netgrid
from .netgrid import Network
from .numcore import AT_LEAST_1, index_faults, is_integer, require
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

    `columns` maps names of `COLUMN_TABLES`, and `action`, to columns of one length (else ValueError), each judged
    by `numcore.index_faults`. The error names the first bad row by `where(row)`, then that row's first bad
    column in `columns` order, and its value as given: EncodingError for an entry that is not an integer
    (numpy would read 1.7 or True as 1) or is outside a table, ValueError for an action outside [0, 9).
    """
    names, values = list(columns), list(columns.values())
    if len(set(map(len, values))) > 1:  # a shorter column would broadcast against the others
        raise ValueError(f"index columns of unequal lengths: {dict(zip(names, map(len, values)))}")
    limits = [getattr(vocab, COLUMN_TABLES[name]) if name != "action" else netgrid.N_ACTIONS for name in names]
    faults = [(min(i for i in pair if i is not None), col) for col, pair in enumerate(map(index_faults, values, limits)) if pair != (None, None)]
    if faults:
        row, col = min(faults)  # the first bad row, and its first bad column
        name, value = names[col], values[col][row]
        if not is_integer(value):
            raise EncodingError(f"{where(row)}: {name} {value} is not an integer")
        if name == "action":
            raise ValueError(f"{where(row)}: action {value} outside [0, {netgrid.N_ACTIONS})")
        raise EncodingError(f"{where(row)}: {name} {value} outside vocabulary of {limits[col]}")


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

    It checks nothing: each `Trajectory` checked its fields when it was made, so every index fits in
    int64, every move is in [0, 9), and a trip's one BLANK is its last row.
    """
    steps = np.array([len(t.positions) for t in trajectories], dtype=np.int64)
    position = np.array(list(chain.from_iterable(t.positions for t in trajectories)), dtype=np.int64)
    action = np.array(list(chain.from_iterable((*t.actions, BLANK) for t in trajectories)), dtype=np.int64)
    departs, speeds, users = [t.depart_bin for t in trajectories], [t.speed_bin for t in trajectories], [t.user_id for t in trajectories]
    depart, speed, user = (np.repeat(np.array(values, dtype=np.int64), steps) for values in (departs, speeds, users))
    starts = np.cumsum(steps) - steps
    return EpisodeTokens(
        position=position,
        origin=np.repeat(position[starts], steps),
        destination=np.repeat(position[starts + steps - 1], steps),
        depart=depart,
        speed=speed,
        user=user,
        action=action,
        timestep=np.arange(len(position), dtype=np.int64) - np.repeat(starts, steps),
    )
