"""Autoregressive transformer policy over interleaved (s, a) token streams.

State tokens are sums of element embeddings plus a learned timestep embedding,
layer-normalized post-embedding. Blocks are pre-norm causal self-attention and
GELU feed-forward; action logits are read at each step's state-token position.
In `forward_batch`, the feed-forward's two affine maps and the action head are
each one `numcore.linear` node, so the graph keeps no pre-bias product.
Infeasible actions are masked at sampling time, so generated trajectories are
valid by construction.

Both passes compute only the rows that reach a decision. A window with m
decision steps runs as its first 2m - 1 tokens s_0 a_0 ... s_{m-1}: attention
is causal, so nothing before them attends to the tokens after them (the last
action, and a terminal step's s and BLANK). The last layer needs keys and
values of every token, but only the state rows' outputs are read, so it runs
its query, attention output and feed-forward for those rows alone.

`forward_batch` serves training, which records the autodiff graph, and
evaluation, which calls it under `numcore.no_graph` (`pretrain.score_windows`)
and so records none; a window without decisions is skipped, and dropout draws
masks for the computed rows alone. Generation runs the same equations without
a graph, incrementally (`_Decoder`):
- a key/value cache holds each layer's keys and values of the whole trip so
  far; a move appends only a_{t-1} and s_t (s_0 alone at t = 0), and the
  pending a_t is never computed. A window is the whole trip, since `context` is
  the vocabulary's `max_timestep`, so nothing ever leaves the cache;
- its last layer runs the query for the s_t row alone;
- it looks up the trip's five context rows once, and adds each state's position
  row, those five rows and the timestep row in `forward_batch`'s order, so its
  state tokens hold the same bits as `forward_batch`'s. A reassociated sum
  would change the last ulp, which a trained policy's sampling amplifies.
Its logits equal a fresh `forward_batch` of the trip so far to rounding.

The move loop itself is `synthgen.roll_out`, shared with the synthetic oracle:
it advances a batch of trips in lockstep and draws every move, and
`generate_scored` is its call of one trip, whose `probs` runs one decoder step
and returns the policy's action probabilities (at temperature 0, the one-hot
row of the feasible argmax). The decoder serves one trip per call; a decoder
over the loop's B rows is the step that batches generation. A move is drawn by
one `random()` double from the trip's own stream, drawn up front, which
`roll_out` maps through `numcore.inverse_cdf`: it picks what
`Generator.choice` would.

The decoder keeps its array path, unlike the critic's inference, which runs training code
under `no_graph`: at one or two rows a graph-free `numcore` op costs more than its formula on
arrays. A (2, 64) @ (64, 64) product takes 1.1 us as an array and 2.3-2.5 us as
`nc.matmul`; a (2, 64) layer norm takes 9.1-10.1 us as `layer_norm_fwd` and 10.4-10.8 us as
`nc.layer_norm`. A step runs 13 products and 6 layer norms, so those alone would add ~20 us
to a `_Decoder.step` of 152-158 us, in a `generate_scored` of 192-211 us per move (one BLAS
thread, 2-core VM; best of 7 timing loops per op over 4 runs, and medians of 5 passes over
80 held-out contexts of perfbench's 2-epoch policy at seed 1, 1328 moves, over 3 runs).
Sharing the loop belongs with a decoder that batches many trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import netgrid, numcore as nc
from .checkpoint import ParamModel, require
from .netgrid import Network
from .numcore import Tensor, make_rng
from .synthgen import Trajectory, roll_out
from .tokenizer import EpisodeTokens, VocabSpec, check_columns

N_ACTIONS = netgrid.N_ACTIONS


class LossError(ValueError):
    """A loss was requested over a window without decision steps."""


@dataclass
class ModelConfig:
    vocab: VocabSpec
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    dropout: float = 0.1
    ff_mult: int = 4
    init_std: float = 0.02

    def __post_init__(self):
        require(
            self,
            ("d_model", self.d_model >= 1, ">= 1"),
            ("n_heads", self.n_heads >= 1, ">= 1"),
            ("ff_mult", self.ff_mult >= 1, ">= 1"),
            ("init_std", 0.0 <= self.init_std < np.inf, "finite and >= 0"),
        )
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.n_heads} heads")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")

    @property
    def context(self) -> int:
        """Steps in a window: the vocabulary's `max_timestep`, so every trip the model can embed is one window."""
        return self.vocab.max_timestep


class PolicyModel(ParamModel):
    """Embedding tables, attention blocks, and the action head.

    Parameters are assigned in RNG draw order, which is the manifest order.
    """

    kind = "policy"
    config_type = ModelConfig

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        self.cfg = cfg
        rng = rng if rng is not None else make_rng(0)
        v = cfg.vocab
        d = cfg.d_model

        def emb(rows):
            return nc.param(rng, (rows, d), std=cfg.init_std)

        self.emb_position = emb(v.positions)
        self.emb_origin = emb(v.positions)
        self.emb_destination = emb(v.positions)
        self.emb_depart = emb(v.depart_bins)
        self.emb_speed = emb(v.speed_bins)
        self.emb_user = emb(v.users)
        self.emb_action = emb(v.actions)
        emb(2)  # the draw of a retired table, kept so that every later parameter starts as it did
        self.emb_timestep = emb(v.max_timestep)
        self.ln_emb_gain = Tensor(np.ones(d))
        self.ln_emb_bias = Tensor(np.zeros(d))
        self.layers = []
        for _ in range(cfg.n_layers):
            self.layers.append(
                {
                    "ln1_gain": Tensor(np.ones(d)),
                    "ln1_bias": Tensor(np.zeros(d)),
                    "wq": nc.param(rng, (d, d), std=cfg.init_std),
                    "wk": nc.param(rng, (d, d), std=cfg.init_std),
                    "wv": nc.param(rng, (d, d), std=cfg.init_std),
                    "wo": nc.param(rng, (d, d), std=cfg.init_std),
                    "ln2_gain": Tensor(np.ones(d)),
                    "ln2_bias": Tensor(np.zeros(d)),
                    "ff_w1": nc.param(rng, (d, cfg.ff_mult * d), std=cfg.init_std),
                    "ff_b1": Tensor(np.zeros(cfg.ff_mult * d)),
                    "ff_w2": nc.param(rng, (cfg.ff_mult * d, d), std=cfg.init_std),
                    "ff_b2": Tensor(np.zeros(d)),
                }
            )
        self.ln_f_gain = Tensor(np.ones(d))
        self.ln_f_bias = Tensor(np.zeros(d))
        self.head_w = nc.param(rng, (d, N_ACTIONS), std=cfg.init_std)
        self.head_b = Tensor(np.zeros(N_ACTIONS))
        self.bind_vector()


@dataclass
class BatchForward:
    """Forward outputs for a list of windows processed as one graph."""

    logits: Tensor  # (decision steps, N_ACTIONS), window by window
    actions: np.ndarray  # the action taken at each decision step, the cross-entropy target of its row
    sizes: list[int]  # steps of each input window


def forward_batch(windows: list[EpisodeTokens], model: PolicyModel, rng: np.random.Generator | None = None) -> BatchForward:
    """Run the policy over several windows in one recorded graph; logits of their decision steps.

    Windows are embedded jointly; attention never crosses window boundaries. A window's decision
    steps come first; only its terminal step, if it holds one, has none. Only rows that reach a
    decision are computed (see the module docstring), and a window without decisions is skipped.
    `rng` enables dropout (training); omit it for deterministic inference.
    """
    cfg = model.cfg
    sizes = [w.n_steps for w in windows]
    for w, t_len in zip(windows, sizes):
        if t_len > cfg.context:
            raise ValueError(f"window of {t_len} steps exceeds context {cfg.context}")
        if t_len < 1:
            raise ValueError("empty window")
    lengths = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    mask = np.concatenate([w.decision_mask for w in windows])
    decisions = np.add.reduceat(mask, starts)
    dec = np.flatnonzero(mask)  # the decision steps, as rows of the concatenated windows
    if np.any(dec - np.repeat(starts, decisions) >= np.repeat(decisions, decisions)):
        raise ValueError("a window has a decision step after its terminal step")
    total = len(dec)

    def cat(name):
        return np.concatenate([getattr(w, name) for w in windows])[dec]

    ts = nc.gather_rows(model.emb_timestep, cat("timestep"))
    s_sum = nc.gather_rows(model.emb_position, cat("position"))
    for name, table in (
        ("origin", model.emb_origin),
        ("destination", model.emb_destination),
        ("depart", model.emb_depart),
        ("speed", model.emb_speed),
        ("user", model.emb_user),
    ):
        s_sum = nc.add(s_sum, nc.gather_rows(table, cat(name)))
    s_tok = nc.add(s_sum, ts)
    actions = cat("action")
    a_tok = nc.add(nc.gather_rows(model.emb_action, actions), ts)

    # each window runs as its first 2m - 1 tokens: the cut drops its pending action, last in its stream
    m = decisions[decisions > 0]
    perm, s_index = _interleave(total)
    perm = np.delete(perm, 2 * np.cumsum(m) - 1)
    s_rows = s_index - np.repeat(np.arange(len(m)), m)

    x = nc.gather_rows(nc.concat_rows([s_tok, a_tok]), perm)
    x = nc.layer_norm(x, model.ln_emb_gain, model.ln_emb_bias)
    x = nc.dropout(x, cfg.dropout, rng)

    segments = 2 * m - 1
    q_at = None  # every row queries, up to the last layer
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        h = nc.layer_norm(x, layer["ln1_gain"], layer["ln1_bias"])
        k = nc.matmul(h, layer["wk"])
        v = nc.matmul(h, layer["wv"])
        if i == last:  # past its keys and values, only the state rows are read
            x, h, q_at = nc.gather_rows(x, s_rows), nc.gather_rows(h, s_rows), s_rows
        q = nc.matmul(h, layer["wq"])
        ctx = nc.block_causal_attention(q, k, v, cfg.n_heads, segments, q_at)
        attn_out = nc.dropout(nc.matmul(ctx, layer["wo"]), cfg.dropout, rng)
        x = nc.add(x, attn_out)
        h2 = nc.layer_norm(x, layer["ln2_gain"], layer["ln2_bias"])
        ff = nc.gelu(nc.linear(h2, layer["ff_w1"], layer["ff_b1"]))
        ff = nc.dropout(nc.linear(ff, layer["ff_w2"], layer["ff_b2"]), cfg.dropout, rng)
        x = nc.add(x, ff)

    x = nc.layer_norm(x, model.ln_f_gain, model.ln_f_bias)
    logits = nc.linear(x, model.head_w, model.head_b)
    nc.assert_finite(logits, "action logits")
    return BatchForward(logits=logits, actions=actions, sizes=sizes)


def _interleave(total: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the stacked [s; a] tokens (step i of kind k at k*total + i) in (s_t, a_t) stream
    order, where it sits at 2i + k; and the stream positions of the state tokens."""
    return (np.arange(total)[:, None] + total * np.arange(2)).ravel(), 2 * np.arange(total)


def batch_nll(windows: list[EpisodeTokens], model: PolicyModel, rng: np.random.Generator | None = None) -> Tensor:
    """Mean cross-entropy over all decision positions of all windows."""
    if not any(w.decision_mask.any() for w in windows):
        raise LossError("no decision steps in batch")
    out = forward_batch(windows, model, rng=rng)
    return nc.cross_entropy(out.logits, out.actions)


# ---------------------------------------------------------------------------
# Sampling and generation
# ---------------------------------------------------------------------------


@dataclass
class GenerationContext:
    origin: int
    destination: int
    depart_bin: int
    speed_bin: int
    user_id: int
    max_len: int = 50
    temperature: float = 1.0
    seed: int = 0
    traj_id: int = 0

    def __post_init__(self):
        require(self, ("max_len", self.max_len >= 1, ">= 1"), ("temperature", self.temperature >= 0, ">= 0"))


@dataclass
class GenerationResult:
    trajectory: Trajectory
    log_probs: np.ndarray  # log pi(a_t | history) per decision step


def generate_scored(ctx: GenerationContext, model: PolicyModel, net: Network) -> GenerationResult:
    """Autoregressive rollout through `synthgen.roll_out`; deterministic given (context, model, seed).

    Each move is scored by `numcore.masked_log_softmax` of the logits over the temperature (over 1
    when greedy), and `log_probs` holds that score of the move drawn.

    Raises EncodingError (`check_columns`) naming an index of `ctx` outside the model's vocabulary, ValueError
    for a network whose positions are not the model's, and GenerationError as `roll_out` does.
    """
    vocab = model.cfg.vocab
    if net.n_positions != vocab.positions:
        raise ValueError(f"network of {net.n_positions} positions for a policy vocabulary of {vocab.positions}")
    trip = dict(origin=[ctx.origin], destination=[ctx.destination], depart=[ctx.depart_bin], speed=[ctx.speed_bin], user=[ctx.user_id])
    check_columns(vocab, trip, lambda row: "generation context")
    max_moves = min(ctx.max_len, vocab.max_timestep - 1)
    uniforms = make_rng(ctx.seed, "generate", ctx.traj_id).random((1, max_moves))
    decoder = _Decoder(model, ctx)
    temp = ctx.temperature if ctx.temperature > 0 else 1.0  # greedy decoding scores its moves at temperature 1
    scored: list[np.ndarray] = []  # each move's log-probabilities

    def probs(rows: np.ndarray, positions: np.ndarray, prev_actions: np.ndarray) -> np.ndarray:
        pos = int(positions[0])
        logits = decoder.step(pos, int(prev_actions[0]))
        feasible = net.feasible[pos]
        scored.append(nc.masked_log_softmax(logits / temp, feasible))
        if ctx.temperature == 0:  # the one-hot row of the argmax, lowest index on ties
            return np.eye(N_ACTIONS)[[np.argmax(np.where(feasible, logits, -np.inf))]]
        return np.exp(scored[-1])[None]

    [(positions, actions, flag)] = roll_out(net, [ctx.origin], [ctx.destination], uniforms, probs)
    traj = Trajectory(ctx.traj_id, ctx.user_id, ctx.depart_bin, ctx.speed_bin, positions, actions, flag)
    return GenerationResult(traj, np.array([lp[a] for lp, a in zip(scored, actions)]))


class _Decoder:
    """Graph-free `forward_batch` over one trip, fed one step at a time (the module docstring
    describes the cache). After t steps, rows [0, 2t - 1) of `keys[i]` and `values[i]` hold layer
    i's keys and values of the trip's tokens s_0 a_0 ... s_{t-1}."""

    def __init__(self, model: PolicyModel, ctx: GenerationContext):
        cfg = model.cfg
        self.model = model
        # the trip's fixed rows, looked up once and added in `forward_batch`'s order
        self.context_rows = (
            model.emb_origin.data[ctx.origin],
            model.emb_destination.data[ctx.destination],
            model.emb_depart.data[ctx.depart_bin],
            model.emb_speed.data[ctx.speed_bin],
            model.emb_user.data[ctx.user_id],
        )
        self.t = 0
        self.keys = [np.empty((2 * cfg.context, cfg.d_model)) for _ in model.layers]
        self.values = [np.empty((2 * cfg.context, cfg.d_model)) for _ in model.layers]
        self.causal = np.tri(2 * cfg.context, dtype=bool)  # token i attends to tokens j <= i

    def step(self, position: int, prev_action: int) -> np.ndarray:
        """Action logits at step t, the vehicle at `position` after `prev_action` (unread at t = 0)."""
        m, t = self.model, self.t
        origin, destination, depart, speed, user = self.context_rows
        ts = m.emb_timestep.data
        new = np.empty((min(t, 1) + 1, m.cfg.d_model))  # a_{t-1} and s_t; s_0 alone
        if t > 0:
            new[0] = m.emb_action.data[prev_action] + ts[t - 1]
        new[-1] = m.emb_position.data[position] + origin + destination + depart + speed + user + ts[t]
        self.t = t + 1
        return self._run(nc.layer_norm_fwd(new, m.ln_emb_gain.data, m.ln_emb_bias.data)[0])

    def _run(self, x: np.ndarray) -> np.ndarray:
        """Append the rows `x` to the trip's tokens and return the logits read at its last row."""
        m = self.model
        n_heads = m.cfg.n_heads
        total = 2 * self.t - 1  # the trip's tokens so far, `x` the last of them
        past = total - len(x)
        visible = self.causal[past:total, :total]
        last = len(m.layers) - 1
        for i, layer in enumerate(m.layers):
            h = nc.layer_norm_fwd(x, layer["ln1_gain"].data, layer["ln1_bias"].data)[0]
            keys, values = self.keys[i], self.values[i]
            keys[past:total] = h @ layer["wk"].data
            values[past:total] = h @ layer["wv"].data
            if i == last:
                h, x, visible = h[-1:], x[-1:], visible[-1:]
            q = _heads(h @ layer["wq"].data, n_heads)
            ctx, _ = nc.masked_attention(q, _heads(keys[:total], n_heads), _heads(values[:total], n_heads), visible)
            x = x + ctx.transpose(1, 0, 2).reshape(x.shape) @ layer["wo"].data
            h2 = nc.layer_norm_fwd(x, layer["ln2_gain"].data, layer["ln2_bias"].data)[0]
            ff = nc.gelu_fwd(h2 @ layer["ff_w1"].data + layer["ff_b1"].data)[0] @ layer["ff_w2"].data
            x = x + (ff + layer["ff_b2"].data)
        x = nc.layer_norm_fwd(x, m.ln_f_gain.data, m.ln_f_bias.data)[0]
        logits = (x @ m.head_w.data + m.head_b.data)[0]
        if not np.all(np.isfinite(logits)):
            raise nc.EvaluationError("non-finite values in action logits")
        return logits


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(rows, d) -> (heads, rows, d / heads)."""
    return x.reshape(len(x), n_heads, -1).transpose(1, 0, 2)
