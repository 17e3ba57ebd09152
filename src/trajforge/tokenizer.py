"""Trajectories to (state, action) token streams and context windows.

Per step the token order is (s_t, a_t); the action of the terminal step is the
single BLANK placeholder since no decision is made there.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Arrays of per-step token indices for one trajectory, or for a window of one (`slice`)."""

    traj_id: int
    flag: str
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
        return EpisodeTokens(
            traj_id=self.traj_id,
            flag=self.flag,
            position=self.position[start:stop],
            origin=self.origin[start:stop],
            destination=self.destination[start:stop],
            depart=self.depart[start:stop],
            speed=self.speed[start:stop],
            user=self.user[start:stop],
            action=self.action[start:stop],
            timestep=self.timestep[start:stop],
        )


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


def check_state(state: EnvState, vocab: VocabSpec, fields=("positions", "users", "depart_bins", "speed_bins")) -> None:
    """Raise EncodingError naming the first field of `state` outside the `fields` tables of `vocab`."""
    for name, table in _STATE_TABLES.items():
        value, size = getattr(state, name), getattr(vocab, table)
        if table in fields and not 0 <= value < size:
            raise EncodingError(f"{name} {value} outside vocabulary of {size}")


def encode_episode(traj: Trajectory) -> EpisodeTokens:
    """Token arrays for one trajectory; the terminal step carries the BLANK action."""
    n = len(traj.positions)
    if n < 2:
        raise EncodingError("trajectory must have at least 2 positions")
    if any(not 0 <= a < netgrid.N_ACTIONS for a in traj.actions):
        raise EncodingError(f"trajectory {traj.traj_id} has an action outside [0, {netgrid.N_ACTIONS})")
    action = np.concatenate([np.asarray(traj.actions, dtype=np.int64), [BLANK]])
    return EpisodeTokens(
        traj_id=traj.traj_id,
        flag=traj.flag,
        position=np.asarray(traj.positions, dtype=np.int64),
        origin=np.full(n, traj.origin, dtype=np.int64),
        destination=np.full(n, traj.destination, dtype=np.int64),
        depart=np.full(n, traj.depart_bin, dtype=np.int64),
        speed=np.full(n, traj.speed_bin, dtype=np.int64),
        user=np.full(n, traj.user_id, dtype=np.int64),
        action=action,
        timestep=np.arange(n, dtype=np.int64),
    )


def decode_episode(ep: EpisodeTokens) -> Trajectory:
    """Inverse of encode_episode; exact round trip."""
    if ep.action[-1] != BLANK:
        raise EncodingError("episode does not end in a BLANK action")
    return Trajectory(
        traj_id=ep.traj_id,
        user_id=int(ep.user[0]),
        depart_bin=int(ep.depart[0]),
        speed_bin=int(ep.speed[0]),
        positions=[int(p) for p in ep.position],
        actions=[int(a) for a in ep.action[:-1]],
        flag=ep.flag,
    )


def windowize(ep: EpisodeTokens, context: int, stride: int) -> list[EpisodeTokens]:
    """Sliding windows of at most `context` steps; the last window is right-aligned."""
    if context < 1 or stride < 1:
        raise ValueError("context and stride must be >= 1")
    n = ep.n_steps
    if n <= context:
        return [ep.slice(0, n)]
    stride = min(stride, context)  # a larger stride would leave steps uncovered
    starts = list(range(0, n - context + 1, stride))
    if starts[-1] != n - context:
        starts.append(n - context)
    return [ep.slice(s, s + context) for s in starts]
