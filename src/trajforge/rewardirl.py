"""Phase-1 reward modeling: a soft-Q critic fit to expert trajectories.

The critic decomposes action values into a population-level estimator (from
origin, destination, current link, and departure-bin embeddings through a
LeakyReLU projection) and a per-user preference bias (from summed context and
user embeddings). Training maximizes a concave margin objective whose optimum
reproduces the expert's soft policy; per-step rewards are recovered with the
inverse soft Bellman operator r = Q(s,a) - gamma * V*(s').

Cost. The state projection concat(e_o, e_d, e_link, e_dep) @ w_state is a sum of one
d-row block of w_state per embedding, so `q_values_batch` projects each table whole by
its block, and by w_pref, and gathers rows of the projected tables: about
sum(table rows) * d * (d + 9) multiply-adds per call, against 2B * 4d * d for projecting
the gathered rows of s and s'. Break-even is near 1.8k table rows at B = 256, far above
the package's grids (119 rows at the default 25 cells, 24 departure bins and 20 users).
The backward costs about twice that for the projections' two matmuls, plus the gathers'
shares. At these sizes no table exceeds `numcore.ONEHOT_MAX_ROWS` rows, so each share is a
one-hot product of table rows * gathered rows * width multiply-adds: about 2.2M per step at
B = 256 and d = 64, a third of it for the 2B link rows, in place of a bincount per table.
The context part and the preference term are computed once per batch; Q(s, .) and
Q(s', .) differ only in the link row. The context part is one `numcore.embed_sum` node over
its three projected tables, and the preference term the `add` of two, origin and destination
plus departure and user, in the (a + b) + (c + d) order of its sum: three graph nodes for the
seven lookups. Inference runs the training code over rows under `numcore.no_graph`:
`reward_rows` gives `iq_loss`'s margins and `log_policy_rows` the masked log-policy;
`recover_reward` and `critic_policy` are their one-row calls on `EnvState`s.
`transitions` builds the rows of any list of trips: a split of a `Dataset`, or generated trips.

Checks. Rows are checked once per batch by `_check_rows`: `tokenizer.check_columns`, the one
vocabulary check, which judges each column by `numcore.index_faults` against its table of
`tokenizer.COLUMN_TABLES`; then the dead-end rule, then that each transition's move is one of the
critic's network (`succ`). The scorers name a bad row by its index, and `train_critic` by its
trajectory, after it rejects a dataset on another network than the critic's. The critic has no
speed or timestep tables, so its columns leave them out. A `TransitionBatch` checks only its shape
when made: every column 1-D, with one entry per transition. `iq_loss` checks no index, so its
caller owns the batch's indices: `train_critic` checks every row once, before it trains, and an
out-of-table index in a hand-built batch fails as the op's IndexError. A per-batch check would
cost 1.5-2% of a critic step: `_check_rows` on 256 rows takes ~23 us, one `iq_loss` forward and
backward 1.1-1.6 ms (one BLAS thread, 2-core VM).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import netgrid, numcore as nc
from .checkpoint import ParamModel
from .netgrid import EnvState, Network
from .numcore import AT_LEAST_1, NON_NEGATIVE, POSITIVE, Tensor, make_rng, require
from .pretrain import fit
from .synthgen import Dataset
from .tokenizer import IS_VOCAB_SPEC, VocabSpec, check_columns, encode_trips

N_ACTIONS = netgrid.N_ACTIONS
LEAKY_SLOPE = 0.01
COLUMNS = ("position", "origin", "destination", "depart", "user", "next_position", "action")  # a transition's checked columns


@dataclass(frozen=True)
class CriticConfig:
    vocab: VocabSpec
    d: int = 64
    init_std: float = 0.02

    def __post_init__(self):
        require(self, vocab=IS_VOCAB_SPEC, d=AT_LEAST_1, init_std=NON_NEGATIVE)


@dataclass(frozen=True)
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
            gamma=(lambda gamma: 0 < gamma < 1, "in (0, 1)"),
            alpha_phi=POSITIVE,
            lr=NON_NEGATIVE,
            batch_size=AT_LEAST_1,
            epochs=AT_LEAST_1,
            grad_clip=POSITIVE,
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
        self.bind_vector()

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

    ctx = nc.embed_sum(
        [nc.matmul(c.emb_origin, w_origin), nc.matmul(c.emb_destination, w_destination), nc.matmul(c.emb_depart, w_depart)],
        [origin, destination, depart],
    )
    pref = nc.add(
        nc.embed_sum([nc.matmul(c.emb_origin, c.w_pref), nc.matmul(c.emb_destination, c.w_pref)], [origin, destination]),
        nc.embed_sum([nc.matmul(c.emb_depart, c.w_pref), nc.matmul(c.emb_user, c.w_pref)], [depart, user]),
    )
    links = np.atleast_2d(position)
    k = len(links)
    h = nc.leaky_relu(nc.add(nc.concat_rows([ctx] * k), nc.gather_rows(nc.matmul(c.emb_link, w_link), links.ravel())), LEAKY_SLOPE)
    return nc.add(nc.matmul(h, c.w_base), nc.concat_rows([pref] * k))


def bellman_margin(q_s: Tensor, q_next: Tensor, action, next_position, is_terminal, net: Network, gamma: float) -> Tensor:
    """(B,) inverse soft Bellman margins Q(s, a) - gamma * V*(s') from the (B, 9) action values at s and s'.

    V*(s') is the log-sum-exp of Q(s', .) over the actions feasible at s', and 0 on terminal rows. A
    terminal row's mask is the all-True placeholder, since its s' may be a dead end with no feasible action.
    """
    is_terminal = np.asarray(is_terminal, dtype=bool)
    v_next = nc.masked_logsumexp_rows(q_next, net.feasible[next_position] | is_terminal[:, None])
    return nc.sub(nc.gather_per_row(q_s, action), nc.mul_const(v_next, gamma * ~is_terminal))


def _margins(batch: TransitionBatch, critic: CriticModel, gamma: float) -> tuple[Tensor, Tensor]:
    """Q(s, .) and the (B,) Bellman margins of `batch`: one `q_values_batch` call over the stacked s and s' links."""
    n = len(batch)
    links = np.array([batch.position, batch.next_position])
    q = q_values_batch(critic, links, batch.origin, batch.destination, batch.depart, batch.user)
    q_s, q_next = nc.slice_rows(q, 0, n), nc.slice_rows(q, n, 2 * n)
    return q_s, bellman_margin(q_s, q_next, batch.action, batch.next_position, batch.is_terminal, critic.net, gamma)


def _check_rows(critic: CriticModel, cols: dict, ends=None, where=lambda row: f"row {row}") -> None:
    """Raise for the first row of the (B,) index columns `cols` that the critic cannot score, naming it by `where(row)`.

    First the indices (`check_columns`): EncodingError outside the critic's tables, ValueError for an action outside
    [0, 9). Then ValueError at a dead-end position, or at a dead-end next_position on a row whose `ends` is False.
    Last, given `ends`, ValueError on a row whose action does not lead from its position to its next_position.
    """
    check_columns(critic.cfg.vocab, cols, where)
    net = critic.net
    dead_s = net.dead_end[cols["position"]]
    stuck = dead_s if ends is None else dead_s | (net.dead_end[cols["next_position"]] & ~ends)
    if np.count_nonzero(stuck):
        row = int(np.argmax(stuck))
        name = "position" if dead_s[row] else "next_position"
        raise ValueError(f"{where(row)}: {name} {cols[name][row]} has no feasible action")
    if ends is not None:
        off = net.succ[cols["position"], cols["action"]] != cols["next_position"]
        if np.count_nonzero(off):
            row = int(np.argmax(off))
            position, action, next_position = (cols[name][row] for name in ("position", "action", "next_position"))
            raise ValueError(f"{where(row)}: action {action} at position {position} does not lead to next_position {next_position}")


def reward_rows(batch: TransitionBatch, critic: CriticModel, gamma: float) -> np.ndarray:
    """(B,) rewards r = Q(s, a) - gamma * V*(s'), V* = 0 on terminal rows: `iq_loss`'s margins with no graph (`_check_rows` first)."""
    _check_rows(critic, {name: getattr(batch, name) for name in COLUMNS}, np.asarray(batch.is_terminal, dtype=bool))
    with nc.no_graph():
        return _margins(batch, critic, gamma)[1].data


def log_policy_rows(critic: CriticModel, position, origin, destination, depart, user) -> np.ndarray:
    """(B, 9) log-softmax of Q(s, .) over each row's feasible actions, exactly -inf elsewhere; rows checked by `_check_rows`."""
    _check_rows(critic, dict(position=position, origin=origin, destination=destination, depart=depart, user=user))
    with nc.no_graph():
        q = q_values_batch(critic, position, origin, destination, depart, user).data
    return nc.masked_log_softmax(q, critic.net.feasible[position])


def critic_policy(state: EnvState, critic: CriticModel) -> np.ndarray:
    """Softmax of Q(s, .) over the actions feasible at one state, exactly 0 elsewhere: a one-row `log_policy_rows`."""
    return np.exp(log_policy_rows(critic, [state.position], [state.origin], [state.destination], [state.depart_bin], [state.user_id])[0])


def recover_reward(state: EnvState, action: int, next_state: EnvState, is_terminal: bool, critic: CriticModel, gamma: float) -> float:
    """The reward of one move, a one-row `reward_rows`; ValueError names a trip-context field that `next_state` does not share."""
    for name in ("origin", "destination", "depart_bin", "user_id"):
        if getattr(next_state, name) != getattr(state, name):
            raise ValueError(f"next_state {name} {getattr(next_state, name)} differs from the state's {getattr(state, name)}")
    cols = (state.position, state.origin, state.destination, state.depart_bin, state.user_id, action, next_state.position)
    batch = TransitionBatch(*([value] for value in cols), np.zeros(1, dtype=bool), np.array([is_terminal]))  # one column per field, each checked by its name
    return float(reward_rows(batch, critic, gamma)[0])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionBatch:
    """Expert transitions as index arrays; s' shares the episode context of s. Checked as the module's "Checks." says."""

    position: np.ndarray
    origin: np.ndarray
    destination: np.ndarray
    depart: np.ndarray
    user: np.ndarray
    action: np.ndarray
    next_position: np.ndarray
    is_initial: np.ndarray
    is_terminal: np.ndarray

    def __post_init__(self):
        require(self, **dict.fromkeys(self.__dataclass_fields__, (lambda col: np.ndim(col) == 1 and len(col) == len(self), "1-D, with one entry per transition")))

    def __len__(self) -> int:
        return len(self.position)

    def take(self, idx) -> "TransitionBatch":
        return TransitionBatch(*(getattr(self, f.name)[idx] for f in self.__dataclass_fields__.values()))  # type: ignore[attr-defined]


def transitions(trajs) -> TransitionBatch:
    """Every move of `trajs`, such as `Dataset.train()` or `Dataset.eval()`; no trips give an empty batch."""
    steps = encode_trips(trajs)
    dec = np.flatnonzero(steps.decision_mask)  # every move; the row after each is its s'
    complete = np.zeros(steps.n_steps, dtype=bool)
    complete[~steps.decision_mask] = [t.complete for t in trajs]  # read at each trip's terminal step
    return TransitionBatch(
        position=steps.position[dec],
        origin=steps.origin[dec],
        destination=steps.destination[dec],
        depart=steps.depart[dec],
        user=steps.user[dec],
        action=steps.action[dec],
        next_position=steps.position[dec + 1],
        is_initial=steps.timestep[dec] == 0,
        is_terminal=complete[dec + 1],
    )


def iq_loss(batch: TransitionBatch, critic: CriticModel, cfg: IRLConfig):
    """Negated imitation objective (we minimize).

    J = E_expert[phi(Q(s,a) - gamma V*(s'))] - (1 - gamma) E_initial[V*(s0)]
    with phi(x) = x - x^2 / (4 alpha_phi); the expectation over s' is the
    observed next state (deterministic transitions) and terminal V* is 0.
    Returns (loss tensor, {"expert_term": ..., "initial_term": ...}). The batch's
    indices go unchecked: the caller owns them (see the module's "Checks.").
    """
    if len(batch) == 0:
        raise ValueError("empty transition batch")
    q_s, margin = _margins(batch, critic, cfg.gamma)
    phi = nc.sub(margin, nc.mul_const(nc.mul(margin, margin), 1.0 / (4.0 * cfg.alpha_phi)))
    expert_term = nc.mean_all(phi)
    init_rows = np.flatnonzero(batch.is_initial)
    if len(init_rows):
        v0 = nc.masked_logsumexp_rows(nc.gather_rows(q_s, init_rows), critic.net.feasible[batch.position[init_rows]])
        initial_term = nc.mul_const(nc.mean_all(v0), 1.0 - cfg.gamma)
        loss = nc.sub(initial_term, expert_term)
        init_val = float(initial_term.data)
    else:
        loss = nc.mul_const(expert_term, -1.0)
        init_val = 0.0
    return loss, {"expert_term": float(expert_term.data), "initial_term": init_val}


def train_critic(dataset: Dataset, critic: CriticModel, cfg: IRLConfig):
    """Mini-batch optimization of the imitation objective by `pretrain.fit`; deterministic given seed.

    ValueError first when the dataset's network has another successor table than the critic's. Then
    `_check_rows` names the training trajectory of the first transition that the critic cannot
    score: EncodingError for an index outside its vocabulary, and ValueError for a move out of a
    position with no feasible action, or into one other than as a complete trip's last move,
    where V*(s') is undefined, or for a move that the network does not have. Every epoch runs, with
    no held-out selection, and the returned critic holds only its parameters. Returns (critic,
    `pretrain.TrainLog`): each `TrainLogRow` holds the epoch's mean `iq_loss` (the negated objective)
    as `train_nll`, NaN as `eval_nll`, and the means of `expert_term` and `initial_term` in `parts`.
    """
    if not np.array_equal(dataset.net.succ, critic.net.succ):
        raise ValueError("the dataset's network is not the critic's")
    trajs = dataset.train()
    batch = transitions(trajs)
    if len(batch) == 0:
        raise ValueError("dataset has no transitions")
    trip = np.cumsum(batch.is_initial) - 1  # each trip's first move is its one initial transition
    cols = {name: getattr(batch, name) for name in COLUMNS}
    _check_rows(critic, cols, batch.is_terminal, lambda row: f"trajectory {trajs[trip[row]].traj_id}")
    opt = nc.adamw_init(critic.vector, cfg.lr, 0.0)
    return critic, fit(critic, opt, len(batch), lambda idx, epoch, start: iq_loss(batch.take(idx), critic, cfg), cfg, "critic-shuffle")
