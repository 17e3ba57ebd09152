"""Trajectories to one table of (state, action) steps, and context windows of it.

Per step the token order is (s_t, a_t). `encode_trips` lays trips back to back, one row per
step; each trip ends in its terminal step, whose action is the single BLANK placeholder since
no decision is made there. So a trip ends at each BLANK step, and the row after a decision
step holds s', the state its move leads to. The policy's windows (`windowize`) and the
critic's transitions (`rewardirl.transitions_from_dataset`) are both read from this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import netgrid
from .netgrid import EnvState, Network
from .synthgen import SynthConfig, Trajectory

BLANK = netgrid.N_ACTIONS  # embedding row reserved for the missing decision
_STATE_TABLES = dict(  # the table each field of a decision state indexes, in checking order
    origin="positions", destination="positions", depart_bin="depart_bins",
    speed_bin="speed_bins", user_id="users", position="positions",
)


class EncodingError(ValueError):
    """Trajectory cannot be rendered as tokens."""


@dataclass
class EpisodeTokens:
    """Per-step token indices of trips laid back to back (`encode_trips`), or of a window of one trip (`slice`)."""

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

    def slice(self, start: int, stop: int) -> "EpisodeTokens":
        """Steps start:stop; absolute timesteps are preserved."""
        return EpisodeTokens(*(getattr(self, name)[start:stop] for name in self.__dataclass_fields__))


@dataclass
class VocabSpec:
    """Embedding-table sizes for a network and population."""

    positions: int
    actions: int  # real actions plus the BLANK row
    depart_bins: int
    speed_bins: int
    users: int
    max_timestep: int

    def validate(self) -> None:
        for name, size in vars(self).items():
            if not isinstance(size, int) or size < 1:
                raise EncodingError(f"vocabulary {name} must be an integer >= 1, got {size!r}")


def vocab_sizes(net: Network, config: SynthConfig) -> VocabSpec:
    """Exact embedding-table sizes of `net` and the users, bins and max_len of `config`."""
    spec = VocabSpec(
        positions=net.n_positions,
        actions=netgrid.N_ACTIONS + 1,
        depart_bins=config.depart_bins,
        speed_bins=config.speed_bins,
        users=config.users,
        max_timestep=config.max_len + 1,  # a trajectory of max_len moves has max_len + 1 steps
    )
    spec.validate()
    return spec


def check_vocab(trajectories, vocab: VocabSpec, fields=("positions", "users", "depart_bins", "speed_bins", "max_timestep")) -> None:
    """Raise EncodingError naming the first trajectory with a token outside the `fields` tables of `vocab`.

    A trajectory of n positions uses timesteps 0..n-1.
    """
    for traj in trajectories:
        used = {
            "positions": traj.positions,
            "users": [traj.user_id],
            "depart_bins": [traj.depart_bin],
            "speed_bins": [traj.speed_bin],
            "max_timestep": [len(traj.positions) - 1],
        }
        for name in fields:
            size = getattr(vocab, name)
            for value in used[name]:
                if not 0 <= value < size:
                    raise EncodingError(f"trajectory {traj.traj_id}: {name} index {value} outside vocabulary of {size}")


def check_state(state: EnvState, vocab: VocabSpec) -> None:
    """Raise EncodingError naming the first field of `state` outside its table of `vocab`."""
    for name, table in _STATE_TABLES.items():
        value, size = getattr(state, name), getattr(vocab, table)
        if not 0 <= value < size:
            raise EncodingError(f"{name} {value} outside vocabulary of {size}")


def encode_trips(trajectories) -> EpisodeTokens:
    """One table of the trips' steps, back to back; each trip's terminal step carries the BLANK action."""
    for traj in trajectories:
        if any(not 0 <= a < netgrid.N_ACTIONS for a in traj.actions):
            raise EncodingError(f"trajectory {traj.traj_id} has an action outside [0, {netgrid.N_ACTIONS})")
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


def decode_episode(ep: EpisodeTokens, traj_id: int, flag: str) -> Trajectory:
    """Inverse of `encode_trips` for a table of one trip; exact round trip."""
    if ep.n_steps == 0 or ep.action[-1] != BLANK or not ep.decision_mask[:-1].all():
        raise EncodingError("table does not hold one trip ending in its BLANK step")
    return Trajectory(
        traj_id=traj_id,
        user_id=int(ep.user[0]),
        depart_bin=int(ep.depart[0]),
        speed_bin=int(ep.speed[0]),
        positions=[int(p) for p in ep.position],
        actions=[int(a) for a in ep.action[:-1]],
        flag=flag,
    )


def windowize(tokens: EpisodeTokens, context: int, stride: int) -> list[EpisodeTokens]:
    """Sliding windows of at most `context` steps within each trip of `tokens`; a trip's last window is right-aligned.

    Raises EncodingError for a non-empty table that does not end in a BLANK step, whose last trip has no end.
    """
    if context < 1 or stride < 1:
        raise ValueError("context and stride must be >= 1")
    if tokens.n_steps and tokens.action[-1] != BLANK:
        raise EncodingError("step table does not end in a BLANK step")
    stride = min(stride, context)  # a larger stride would leave steps uncovered
    windows, start = [], 0
    for stop in (np.flatnonzero(~tokens.decision_mask) + 1).tolist():  # one past each trip's terminal step
        last = max(stop - context, start)
        windows.extend(tokens.slice(s, min(s + context, stop)) for s in [*range(start, last, stride), last])
        start = stop
    return windows
