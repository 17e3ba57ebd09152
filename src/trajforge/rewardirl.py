"""Phase-1 reward modeling: a soft-Q critic fit to expert trajectories.

The critic decomposes action values into a population-level estimator (from
origin, destination, current link, and departure-bin embeddings through a
LeakyReLU projection) and a per-user preference bias (from summed context and
user embeddings). Training maximizes a concave margin objective whose optimum
reproduces the expert's soft policy; per-step rewards are recovered with the
inverse soft Bellman operator r = Q(s,a) - gamma * V*(s').
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import netgrid, numcore as nc
from .netgrid import EnvState, Network
from .numcore import Tensor, make_rng
from .pretrain import TrainingDivergenceError, apply_step
from .synthgen import Dataset
from .tokenizer import VocabSpec, check_vocab
from .trajmodel import CheckpointError, read_param_file, write_param_file

N_ACTIONS = netgrid.N_ACTIONS
LEAKY_SLOPE = 0.01


@dataclass
class CriticConfig:
    vocab: VocabSpec
    d: int = 64
    init_std: float = 0.02

    def as_dict(self) -> dict:
        d = dict(vars(self))
        d["vocab"] = self.vocab.as_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CriticConfig":
        d = dict(d)
        d["vocab"] = VocabSpec(**d["vocab"])
        return cls(**d)


@dataclass
class IRLConfig:
    gamma: float = 0.9
    alpha_phi: float = 0.5
    lr: float = 5e-4
    batch_size: int = 256
    epochs: int = 150
    seed: int = 0
    weight_decay: float = 0.0
    grad_clip: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.alpha_phi <= 0:
            raise ValueError("alpha_phi must be positive")


class CriticModel:
    """Action-value tables bound to a network (feasibility masks come from it)."""

    def __init__(self, cfg: CriticConfig, net: Network, rng: np.random.Generator | None = None):
        self.cfg = cfg
        self.net = net
        rng = rng if rng is not None else make_rng(0)
        v, d = cfg.vocab, cfg.d
        self.emb_link = nc.param(rng, (v.positions, d), std=cfg.init_std)
        self.emb_origin = nc.param(rng, (v.positions, d), std=cfg.init_std)
        self.emb_destination = nc.param(rng, (v.positions, d), std=cfg.init_std)
        self.emb_depart = nc.param(rng, (v.depart_bins, d), std=cfg.init_std)
        self.emb_user = nc.param(rng, (v.users, d), std=cfg.init_std)
        self.w_state = nc.param(rng, (4 * d, d), std=cfg.init_std)
        self.w_base = nc.param(rng, (d, N_ACTIONS), std=cfg.init_std)
        self.w_pref = nc.param(rng, (d, N_ACTIONS), std=cfg.init_std)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [
            ("emb_link", self.emb_link),
            ("emb_origin", self.emb_origin),
            ("emb_destination", self.emb_destination),
            ("emb_depart", self.emb_depart),
            ("emb_user", self.emb_user),
            ("w_state", self.w_state),
            ("w_base", self.w_base),
            ("w_pref", self.w_pref),
        ]

    def param_tensors(self) -> list[Tensor]:
        return [t for _, t in self.parameters()]

    def copy(self) -> "CriticModel":
        clone = CriticModel(self.cfg, self.net, rng=make_rng(0))
        for (_, src), (_, dst) in zip(self.parameters(), clone.parameters()):
            dst.data = src.data.copy()
        return clone

    def params_hash(self) -> bytes:
        import hashlib

        h = hashlib.sha256()
        for name, t in self.parameters():
            h.update(name.encode())
            h.update(t.data.astype("<f8").tobytes())
        return h.digest()


def q_values_batch(critic: CriticModel, position, origin, destination, depart, user) -> Tensor:
    """(B, 9) action values: LeakyReLU state projection plus user preference bias."""
    e_o = nc.gather_rows(critic.emb_origin, origin)
    e_d = nc.gather_rows(critic.emb_destination, destination)
    e_link = nc.gather_rows(critic.emb_link, position)
    e_dep = nc.gather_rows(critic.emb_depart, depart)
    h = nc.leaky_relu(nc.matmul(nc.concat_cols([e_o, e_d, e_link, e_dep]), critic.w_state), LEAKY_SLOPE)
    base = nc.matmul(h, critic.w_base)
    pref_vec = nc.add(nc.add(e_o, e_d), nc.add(e_dep, nc.gather_rows(critic.emb_user, user)))
    pref = nc.matmul(pref_vec, critic.w_pref)
    return nc.add(base, pref)


def _state_arrays(state: EnvState):
    return (
        np.array([state.position]),
        np.array([state.origin]),
        np.array([state.destination]),
        np.array([state.depart_bin]),
        np.array([state.user_id]),
    )


def q_values(state: EnvState, critic: CriticModel) -> np.ndarray:
    """Unmasked 9-vector of action values for one state."""
    return q_values_batch(critic, *_state_arrays(state)).data[0]


def v_star(state: EnvState, critic: CriticModel) -> float:
    """Soft value log sum exp Q(s, a) over feasible actions only."""
    return float(nc.masked_logsumexp(q_values(state, critic), critic.net.feasible[state.position]))


def critic_policy(state: EnvState, critic: CriticModel) -> np.ndarray:
    """Softmax over feasibility-masked action values; infeasible entries are exactly 0."""
    q = q_values(state, critic)
    feas = critic.net.feasible[state.position]
    return np.where(feas, np.exp(q - nc.masked_logsumexp(q, feas)), 0.0)


def recover_reward(
    state: EnvState,
    action: int,
    next_state: EnvState,
    is_terminal: bool,
    critic: CriticModel,
    gamma: float,
) -> float:
    """Inverse soft Bellman reward r = Q(s, a) - gamma * V*(s'), with V* = 0 at terminals."""
    q_sa = float(q_values(state, critic)[action])
    if is_terminal:
        return q_sa
    return q_sa - gamma * v_star(next_state, critic)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TransitionBatch:
    """Expert transitions as index arrays; s' shares the episode context of s."""

    position: np.ndarray
    origin: np.ndarray
    destination: np.ndarray
    depart: np.ndarray
    user: np.ndarray
    action: np.ndarray
    next_position: np.ndarray
    is_initial: np.ndarray
    is_terminal: np.ndarray
    feas: np.ndarray  # (B, 9) at s
    next_feas: np.ndarray  # (B, 9) at s'; all-True placeholder on terminal rows

    def __len__(self) -> int:
        return len(self.position)

    def take(self, idx) -> "TransitionBatch":
        return TransitionBatch(*(getattr(self, f.name)[idx] for f in self.__dataclass_fields__.values()))  # type: ignore[attr-defined]


def transitions_from_dataset(dataset: Dataset, split: str = "train") -> TransitionBatch:
    trajs = dataset.train() if split == "train" else dataset.eval()
    if not trajs:
        trajs = dataset.trajectories
    cols: dict[str, list] = {k: [] for k in ("pos", "orig", "dest", "dep", "usr", "act", "nxt", "init", "term")}
    for traj in trajs:
        for t, a in enumerate(traj.actions):
            cols["pos"].append(traj.positions[t])
            cols["orig"].append(traj.origin)
            cols["dest"].append(traj.destination)
            cols["dep"].append(traj.depart_bin)
            cols["usr"].append(traj.user_id)
            cols["act"].append(a)
            cols["nxt"].append(traj.positions[t + 1])
            cols["init"].append(t == 0)
            cols["term"].append(traj.complete and t == len(traj.actions) - 1)
    pos = np.asarray(cols["pos"], dtype=np.intp)
    nxt = np.asarray(cols["nxt"], dtype=np.intp)
    term = np.asarray(cols["term"], dtype=bool)
    feas = dataset.net.feasible[pos]
    next_feas = dataset.net.feasible[nxt]
    next_feas[term] = True  # placeholder; the terminal soft value is forced to 0
    return TransitionBatch(
        position=pos,
        origin=np.asarray(cols["orig"], dtype=np.intp),
        destination=np.asarray(cols["dest"], dtype=np.intp),
        depart=np.asarray(cols["dep"], dtype=np.intp),
        user=np.asarray(cols["usr"], dtype=np.intp),
        action=np.asarray(cols["act"], dtype=np.intp),
        next_position=nxt,
        is_initial=np.asarray(cols["init"], dtype=bool),
        is_terminal=term,
        feas=feas,
        next_feas=next_feas,
    )


def iq_loss(batch: TransitionBatch, critic: CriticModel, cfg: IRLConfig):
    """Negated imitation objective (we minimize).

    J = E_expert[phi(Q(s,a) - gamma V*(s'))] - (1 - gamma) E_initial[V*(s0)]
    with phi(x) = x - x^2 / (4 alpha_phi); the expectation over s' is the
    observed next state (deterministic transitions) and terminal V* is 0.
    Returns (loss tensor, diagnostics dict).
    """
    if len(batch) == 0:
        raise ValueError("empty transition batch")
    q_s = q_values_batch(critic, batch.position, batch.origin, batch.destination, batch.depart, batch.user)
    q_sa = nc.gather_per_row(q_s, batch.action)
    q_next = q_values_batch(
        critic, batch.next_position, batch.origin, batch.destination, batch.depart, batch.user
    )
    v_next = nc.masked_logsumexp_rows(q_next, batch.next_feas)
    v_next_live = nc.mul_const(v_next, (~batch.is_terminal).astype(np.float64))
    margin = nc.sub(q_sa, nc.mul_const(v_next_live, cfg.gamma))
    phi = nc.sub(margin, nc.mul_const(nc.mul(margin, margin), 1.0 / (4.0 * cfg.alpha_phi)))
    expert_term = nc.mean_all(phi)
    init_rows = np.flatnonzero(batch.is_initial)
    if len(init_rows):
        v0 = nc.masked_logsumexp_rows(nc.gather_rows(q_s, init_rows), batch.feas[init_rows])
        initial_term = nc.mul_const(nc.mean_all(v0), 1.0 - cfg.gamma)
        loss = nc.sub(initial_term, expert_term)
        init_val = float(initial_term.data)
    else:
        loss = nc.mul_const(expert_term, -1.0)
        init_val = 0.0
    parts = {"expert_term": float(expert_term.data), "initial_term": init_val, "loss": float(loss.data)}
    return loss, parts


@dataclass
class CriticLog:
    rows: list = field(default_factory=list)  # (epoch, loss)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,loss,seconds\n")
            for epoch, loss, seconds in self.rows:
                fh.write(f"{epoch},{loss!r},{seconds:.3f}\n")


def train_critic(dataset: Dataset, critic: CriticModel, cfg: IRLConfig):
    """Mini-batch optimization of the imitation objective; deterministic given seed.

    Raises EncodingError for a training trajectory the critic's vocabulary cannot embed.
    """
    check_vocab(dataset.train() or dataset.trajectories, critic.cfg.vocab, ("positions", "users", "depart_bins"))
    transitions = transitions_from_dataset(dataset)
    if len(transitions) == 0:
        raise ValueError("dataset has no transitions")
    opt = nc.adamw_init([p.data for p in critic.param_tensors()], cfg.lr, cfg.weight_decay)
    log = CriticLog()
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = make_rng(cfg.seed, "critic-shuffle", epoch).permutation(len(transitions))
        losses = []
        for i in range(0, len(order), cfg.batch_size):
            part = transitions.take(order[i : i + cfg.batch_size])
            loss, _ = iq_loss(part, critic, cfg)
            if not np.isfinite(loss.data):
                raise TrainingDivergenceError(f"non-finite critic loss at epoch {epoch}")
            apply_step(critic, loss, opt, cfg.grad_clip)
            losses.append(float(loss.data))
        log.rows.append((epoch, float(np.mean(losses)), time.perf_counter() - t0))
    return critic, log


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_critic(critic: CriticModel, path, meta: dict | None = None) -> None:
    write_param_file(path, "critic", critic.cfg.as_dict(), critic.parameters(), meta)


def load_critic(path, net: Network, expect_vocab: VocabSpec | None = None) -> tuple[CriticModel, dict]:
    header, params = read_param_file(path, expect_kind="critic")
    cfg = CriticConfig.from_dict(header["config"])
    if expect_vocab is not None and cfg.vocab != expect_vocab:
        raise CheckpointError(f"{path}: critic vocabulary does not match the expected network")
    critic = CriticModel(cfg, net, rng=make_rng(0))
    for name, tensor in critic.parameters():
        if name not in params or params[name].shape != tensor.data.shape:
            raise CheckpointError(f"{path}: bad or missing parameter {name}")
        tensor.data = params[name]
    return critic, header["meta"]
