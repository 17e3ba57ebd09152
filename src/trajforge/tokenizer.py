"""Trajectories to (return-to-go, state, action) token streams and context windows.

Per step the token order is (R_t, s_t, a_t); the action of the terminal step is
the single BLANK placeholder since no decision is made there. rtg is 1 while en
route and 0 on arrival.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import netgrid
from .netgrid import EnvState, GridNetwork, Network
from .synthgen import Trajectory

BLANK = netgrid.N_ACTIONS  # embedding row reserved for the missing decision


class EncodingError(ValueError):
    """Trajectory cannot be rendered as tokens."""


@dataclass
class StepTokens:
    """One step's tokens: goal bit, decision context, and the action taken (or BLANK)."""

    rtg: int
    state: EnvState
    action: int
    timestep: int


@dataclass
class EpisodeTokens:
    """Arrays of per-step token indices for one trajectory."""

    traj_id: int
    flag: str
    rtg: np.ndarray
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
        return len(self.rtg)

    @property
    def decision_mask(self) -> np.ndarray:
        return self.action != BLANK

    def step(self, t: int) -> StepTokens:
        state = EnvState(
            position=int(self.position[t]),
            origin=int(self.origin[t]),
            destination=int(self.destination[t]),
            depart_bin=int(self.depart[t]),
            speed_bin=int(self.speed[t]),
            user_id=int(self.user[t]),
        )
        return StepTokens(int(self.rtg[t]), state, int(self.action[t]), int(self.timestep[t]))

    def slice(self, start: int, stop: int) -> "ContextWindow":
        return ContextWindow(
            traj_id=self.traj_id,
            flag=self.flag,
            rtg=self.rtg[start:stop],
            position=self.position[start:stop],
            origin=self.origin[start:stop],
            destination=self.destination[start:stop],
            depart=self.depart[start:stop],
            speed=self.speed[start:stop],
            user=self.user[start:stop],
            action=self.action[start:stop],
            timestep=self.timestep[start:stop],
        )


class ContextWindow(EpisodeTokens):
    """Contiguous slice of an episode; absolute timesteps are preserved."""


@dataclass
class VocabSpec:
    """Embedding-table sizes for a network and population."""

    positions: int
    actions: int  # real actions plus the BLANK row
    rtg: int
    depart_bins: int
    speed_bins: int
    users: int
    max_timestep: int

    def validate(self) -> None:
        for name, size in vars(self).items():
            if size < 1:
                raise EncodingError(f"vocabulary {name} must be >= 1, got {size}")

    def as_dict(self) -> dict:
        return dict(vars(self))


def vocab_sizes(net: Network, config) -> VocabSpec:
    """Exact embedding-table sizes; `config` supplies users/depart_bins/speed_bins/max_len."""
    users = getattr(config, "users", None) if not isinstance(config, dict) else config.get("users")
    depart = (config.get("depart_bins", 24) if isinstance(config, dict) else getattr(config, "depart_bins", 24))
    speed = (config.get("speed_bins", 120) if isinstance(config, dict) else getattr(config, "speed_bins", 120))
    max_len = (config.get("max_len", 50) if isinstance(config, dict) else getattr(config, "max_len", 50))
    if users is None or users < 1:
        raise EncodingError("config must declare at least 1 user")
    spec = VocabSpec(
        positions=net.n_positions,
        actions=netgrid.N_ACTIONS + 1,
        rtg=2,
        depart_bins=depart,
        speed_bins=speed,
        users=users,
        max_timestep=max_len + 1,  # a trajectory of max_len moves has max_len + 1 steps
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


def encode_episode(traj: Trajectory) -> EpisodeTokens:
    """Token arrays for one trajectory; the terminal step carries the BLANK action."""
    n = len(traj.positions)
    if n < 2:
        raise EncodingError("trajectory must have at least 2 positions")
    if any(not 0 <= a < netgrid.N_ACTIONS for a in traj.actions):
        raise EncodingError(f"trajectory {traj.traj_id} has an action outside [0, {netgrid.N_ACTIONS})")
    rtg = np.fromiter((0 if p == traj.destination else 1 for p in traj.positions), dtype=np.int64, count=n)
    action = np.concatenate([np.asarray(traj.actions, dtype=np.int64), [BLANK]])
    return EpisodeTokens(
        traj_id=traj.traj_id,
        flag=traj.flag,
        rtg=rtg,
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


def windowize(ep: EpisodeTokens, context: int, stride: int) -> list[ContextWindow]:
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
