"""Phase-1 reward modeling: a soft-Q critic fit to expert trajectories.

The critic decomposes action values into a population-level estimator (from
origin, destination, current link, and departure-bin embeddings through a
LeakyReLU projection) and a per-user preference bias (from summed context and
user embeddings). Training maximizes a concave margin objective whose optimum
reproduces the expert's soft policy; per-step rewards are recovered with the
inverse soft Bellman operator r = Q(s,a) - gamma * V*(s').

Cost. The state projection concat(e_o, e_d, e_link, e_dep) @ w_state is a sum of one
d-row block of w_state per embedding, so training (`q_values_batch`) projects each table
whole by its block, and by w_pref, and gathers rows of the projected tables: about
sum(table rows) * d * (d + 9) multiply-adds per step, against 2B * 4d * d for projecting
the gathered rows of s and s'. Break-even is near 1.8k table rows at B = 256, far above
the package's grids (119 rows at the default 25 cells, 24 departure bins and 20 users).
The context part and the preference term are computed once per batch; Q(s, .) and
Q(s', .) differ only in the link row. Inference (`q_rows`, under `q_values`, `v_star`,
`critic_policy` and `recover_reward`) builds no graph and gathers rows before projecting
them, B * 4d * d multiply-adds, the cheaper order while B is below about a quarter of the
table rows (a single state or an (s, s') pair).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import checkpoint, netgrid, numcore as nc
from .checkpoint import ParamModel
from .netgrid import EnvState, Network
from .numcore import Tensor, make_rng
from .pretrain import apply_step, require
from .synthgen import Dataset
from .tokenizer import VocabSpec, check_vocab

N_ACTIONS = netgrid.N_ACTIONS
LEAKY_SLOPE = 0.01


@dataclass
class CriticConfig:
    vocab: VocabSpec
    d: int = 64
    init_std: float = 0.02


@dataclass
class IRLConfig:
    gamma: float = 0.9
    alpha_phi: float = 0.5
    lr: float = 5e-4
    batch_size: int = 256
    epochs: int = 150
    seed: int = 0
    grad_clip: float = 1.0

    def __post_init__(self):
        require(
            self,
            ("gamma", 0.0 < self.gamma < 1.0, "in (0, 1)"),
            ("alpha_phi", self.alpha_phi > 0, "> 0"),
            ("lr", self.lr >= 0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("grad_clip", self.grad_clip > 0, "> 0"),
        )


class CriticModel(ParamModel):
    """Action-value tables bound to a network (feasibility masks come from it).

    Tables are assigned in RNG draw order, which is the manifest order.
    """

    kind = "critic"
    config_type = CriticConfig

    def __init__(self, cfg: CriticConfig, net: Network, rng: np.random.Generator | None = None):
        if net.n_positions != cfg.vocab.positions:
            raise ValueError(f"network of {net.n_positions} positions for a critic vocabulary of {cfg.vocab.positions}")
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

    def build_args(self) -> tuple:
        return (self.net,)


def q_values_batch(critic: CriticModel, position, origin, destination, depart, user) -> Tensor:
    """Action values with a graph, for training: (k*B, 9) for B contexts and a (k, B) stack of links.

    Row j*B + i holds Q at link position[j, i] in context i; a (B,) `position` gives (B, 9). Each
    table is projected whole by its block of w_state and by w_pref, rows are gathered from the
    projections, and the context part and the preference term serve all k link rows.
    """
    c, d = critic, critic.cfg.d
    w_origin, w_destination, w_link, w_depart = (nc.slice_rows(c.w_state, k * d, (k + 1) * d) for k in range(4))

    def proj(table, w, idx):
        return nc.gather_rows(nc.matmul(table, w), idx)

    ctx = nc.add(
        nc.add(proj(c.emb_origin, w_origin, origin), proj(c.emb_destination, w_destination, destination)),
        proj(c.emb_depart, w_depart, depart),
    )
    pref = nc.add(
        nc.add(proj(c.emb_origin, c.w_pref, origin), proj(c.emb_destination, c.w_pref, destination)),
        nc.add(proj(c.emb_depart, c.w_pref, depart), proj(c.emb_user, c.w_pref, user)),
    )
    links = np.asarray(position).reshape(-1, len(origin))
    k = len(links)
    h = nc.leaky_relu(nc.add(nc.concat_rows([ctx] * k), proj(c.emb_link, w_link, links.ravel())), LEAKY_SLOPE)
    return nc.add(nc.matmul(h, c.w_base), nc.concat_rows([pref] * k))


def q_rows(critic: CriticModel, position, origin, destination, depart, user) -> np.ndarray:
    """(B, 9) action values on plain arrays, with no graph: `q_values_batch`'s function for inference.

    Indices must lie inside the tables: a negative one would wrap, so callers check (`_state_rows`).
    """
    c = critic
    e_o, e_d, e_dep = c.emb_origin.data[origin], c.emb_destination.data[destination], c.emb_depart.data[depart]
    h = np.concatenate([e_o, e_d, c.emb_link.data[position], e_dep], axis=1) @ c.w_state.data
    h = np.maximum(h, LEAKY_SLOPE * h)
    return h @ c.w_base.data + ((e_o + e_d) + (e_dep + c.emb_user.data[user])) @ c.w_pref.data


def _state_rows(*states: EnvState):
    """Columns (position, origin, destination, depart, user) of the given states."""
    rows = np.array(
        [(s.position, s.origin, s.destination, s.depart_bin, s.user_id) for s in states], dtype=np.intp
    )
    if rows.min() < 0:
        raise IndexError("critic state index out of range")
    return rows.T


def q_values(state: EnvState, critic: CriticModel) -> np.ndarray:
    """Unmasked 9-vector of action values for one state."""
    return q_rows(critic, *_state_rows(state))[0]


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
    if is_terminal:
        return float(q_values(state, critic)[action])
    q = q_rows(critic, *_state_rows(state, next_state))
    return float(q[0, action]) - gamma * float(nc.masked_logsumexp(q[1], critic.net.feasible[next_state.position]))


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
    moves = np.array([len(t.actions) for t in trajs], dtype=np.intp)
    flat = np.fromiter(chain.from_iterable(t.positions for t in trajs), dtype=np.intp)  # moves + 1 per trip
    last = np.cumsum(moves + 1) - 1  # each trip's first and last position in `flat`
    first = last - moves
    first_move = np.cumsum(moves) - moves  # each trip's first transition
    pos, nxt = np.delete(flat, last), np.delete(flat, first)
    is_initial, term = np.zeros(len(pos), dtype=bool), np.zeros(len(pos), dtype=bool)
    is_initial[first_move] = True
    complete = np.array([t.complete for t in trajs], dtype=bool)
    term[(first_move + moves - 1)[complete]] = True
    feas = dataset.net.feasible[pos]
    next_feas = dataset.net.feasible[nxt]
    next_feas[term] = True  # placeholder; the terminal soft value is forced to 0
    return TransitionBatch(
        position=pos,
        origin=np.repeat(flat[first], moves),
        destination=np.repeat(flat[last], moves),
        depart=np.repeat(np.array([t.depart_bin for t in trajs], dtype=np.intp), moves),
        user=np.repeat(np.array([t.user_id for t in trajs], dtype=np.intp), moves),
        action=np.fromiter(chain.from_iterable(t.actions for t in trajs), dtype=np.intp),
        next_position=nxt,
        is_initial=is_initial,
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
    n = len(batch)
    if n == 0:
        raise ValueError("empty transition batch")
    links = np.stack([batch.position, batch.next_position])
    q = q_values_batch(critic, links, batch.origin, batch.destination, batch.depart, batch.user)
    q_s, q_next = nc.slice_rows(q, 0, n), nc.slice_rows(q, n, 2 * n)
    q_sa = nc.gather_per_row(q_s, batch.action)
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
    rows: list = field(default_factory=list)  # (epoch, loss, seconds, expert_term, initial_term), epoch means

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,loss,seconds,expert_term,initial_term\n")
            for epoch, loss, seconds, expert, initial in self.rows:
                fh.write(f"{epoch},{loss!r},{seconds:.3f},{expert!r},{initial!r}\n")


def train_critic(dataset: Dataset, critic: CriticModel, cfg: IRLConfig):
    """Mini-batch optimization of the imitation objective; deterministic given seed.

    Raises EncodingError for a training trajectory the critic's vocabulary cannot embed.
    """
    check_vocab(dataset.train() or dataset.trajectories, critic.cfg.vocab, ("positions", "users", "depart_bins"))
    transitions = transitions_from_dataset(dataset)
    if len(transitions) == 0:
        raise ValueError("dataset has no transitions")
    opt = nc.adamw_init([p.data for p in critic.param_tensors()], cfg.lr, 0.0)
    log = CriticLog()
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = make_rng(cfg.seed, "critic-shuffle", epoch).permutation(len(transitions))
        parts = []
        for i in range(0, len(order), cfg.batch_size):
            loss, p = iq_loss(transitions.take(order[i : i + cfg.batch_size]), critic, cfg)
            apply_step(critic, loss, opt, cfg.grad_clip)
            parts.append((p["loss"], p["expert_term"], p["initial_term"]))
        loss, expert, initial = (float(np.mean(col)) for col in zip(*parts))
        log.rows.append((epoch, loss, time.perf_counter() - t0, expert, initial))
    return critic, log


def load_critic(path, net: Network, expect_vocab: VocabSpec | None = None) -> tuple[CriticModel, dict]:
    """Rebuild a CriticModel bound to `net` bit-exactly; optional vocabulary compatibility check."""
    return checkpoint.load(path, CriticModel, expect_vocab, (net,))
