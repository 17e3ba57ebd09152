"""Autoregressive transformer policy over interleaved (s, a) token streams.

State tokens are sums of element embeddings plus a learned timestep embedding,
layer-normalized post-embedding. Blocks are pre-norm causal self-attention and
GELU feed-forward; action logits are read at each step's state-token position.
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
- a key/value cache holds each layer's keys and values of the trip's trailing
  window; a move appends only a_{t-1} and s_t, and the pending a_t is never
  computed;
- once the trip passes `context` steps the window drops its first step, which
  changes every deeper layer's keys and values, so the cache restarts and the
  whole window (2 * context - 1 rows) is recomputed;
- its last layer runs the query for the s_t row alone.
Its logits equal a fresh `forward_batch` of the trailing window to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint, netgrid, numcore as nc
from .checkpoint import CheckpointError, ParamModel  # noqa: F401 (callers catch tm.CheckpointError)
from .netgrid import EnvState, Network
from .numcore import Tensor, make_rng
from .synthgen import GenerationError, Trajectory
from .tokenizer import EncodingError, EpisodeTokens, VocabSpec

N_ACTIONS = netgrid.N_ACTIONS


class DeadEndError(RuntimeError):
    """No feasible action is available at the current position."""


class LossError(ValueError):
    """A loss was requested over a window without decision steps."""


@dataclass
class ModelConfig:
    vocab: VocabSpec
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    context: int = 12
    dropout: float = 0.1
    ff_mult: int = 4
    init_std: float = 0.02

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.n_heads} heads")
        if self.context < 1:
            raise ValueError("context must be >= 1")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


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


def embed_state(state: EnvState, model: PolicyModel) -> np.ndarray:
    """Sum of the six element embeddings of one decision context, in `forward_batch`'s order.

    The timestep embedding is added at sequence assembly, and the post-embedding
    layer norm is applied there too; this returns the raw element sum.
    """
    _check_state(state, model.cfg.vocab)
    return (
        model.emb_position.data[state.position]
        + model.emb_origin.data[state.origin]
        + model.emb_destination.data[state.destination]
        + model.emb_depart.data[state.depart_bin]
        + model.emb_speed.data[state.speed_bin]
        + model.emb_user.data[state.user_id]
    )


def _check_state(state: EnvState, vocab: VocabSpec) -> None:
    """Raise EncodingError naming the first field of `state` outside the tables of `vocab`."""
    checks = (
        (state.origin, vocab.positions, "origin"),
        (state.destination, vocab.positions, "destination"),
        (state.depart_bin, vocab.depart_bins, "depart_bin"),
        (state.speed_bin, vocab.speed_bins, "speed_bin"),
        (state.user_id, vocab.users, "user_id"),
        (state.position, vocab.positions, "position"),
    )
    for value, size, name in checks:
        if not 0 <= value < size:
            raise EncodingError(f"{name} {value} outside vocabulary of {size}")


@dataclass
class BatchForward:
    """Forward outputs for a list of windows processed as one graph."""

    logits: Tensor  # (decision steps, N_ACTIONS), window by window
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
    a_tok = nc.add(nc.gather_rows(model.emb_action, cat("action")), ts)

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
        ff = nc.matmul(nc.gelu(nc.add(nc.matmul(h2, layer["ff_w1"]), layer["ff_b1"])), layer["ff_w2"])
        ff = nc.dropout(nc.add(ff, layer["ff_b2"]), cfg.dropout, rng)
        x = nc.add(x, ff)

    x = nc.layer_norm(x, model.ln_f_gain, model.ln_f_bias)
    logits = nc.add(nc.matmul(x, model.head_w), model.head_b)
    nc.assert_finite(logits, "action logits")
    return BatchForward(logits=logits, sizes=sizes)


def _interleave(total: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the stacked [s; a] tokens (step i of kind k at k*total + i) in (s_t, a_t) stream
    order, where it sits at 2i + k; and the stream positions of the state tokens."""
    return (np.arange(total)[:, None] + total * np.arange(2)).ravel(), 2 * np.arange(total)


def batch_nll(windows: list[EpisodeTokens], model: PolicyModel, rng: np.random.Generator | None = None) -> Tensor:
    """Mean cross-entropy over all decision positions of all windows."""
    mask = np.concatenate([w.decision_mask for w in windows])
    if not mask.any():
        raise LossError("no decision steps in batch")
    targets = np.concatenate([w.action for w in windows])[mask]
    return nc.cross_entropy(forward_batch(windows, model, rng=rng).logits, targets)


# ---------------------------------------------------------------------------
# Sampling and generation
# ---------------------------------------------------------------------------


def masked_log_probs(logits: np.ndarray, feasible: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Log probabilities of the softmax policy over the (9,) bool row `feasible`; -inf elsewhere."""
    if temperature <= 0:
        raise ValueError("temperature must be positive for a distribution")
    z = np.where(feasible, logits / temperature, -np.inf)
    return z - nc.masked_logsumexp(z, feasible)


def sample_action(logits: np.ndarray, feasible: np.ndarray, temperature: float, rng: np.random.Generator, log_probs=None) -> int:
    """Sampling restricted to the (9,) bool row `feasible`; temperature 0 is argmax with lowest-index ties.

    `log_probs`, if given, is `masked_log_probs(logits, feasible, temperature)` computed already; argmax ignores it.
    """
    if not feasible.any():
        raise DeadEndError("no feasible actions")
    if temperature == 0:
        return int(np.argmax(np.where(feasible, logits, -np.inf)))
    p = np.exp(masked_log_probs(logits, feasible, temperature) if log_probs is None else log_probs)
    return int(rng.choice(N_ACTIONS, p=p))


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
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass
class GenerationResult:
    trajectory: Trajectory
    log_probs: np.ndarray  # log pi(a_t | history) per decision step


def generate_scored(ctx: GenerationContext, model: PolicyModel, net: Network) -> GenerationResult:
    """Autoregressive rollout; deterministic given (context, model, seed).

    Raises EncodingError naming a field of `ctx` outside the model's vocabulary.
    """
    vocab = model.cfg.vocab
    _check_state(EnvState(ctx.origin, ctx.origin, ctx.destination, ctx.depart_bin, ctx.speed_bin, ctx.user_id), vocab)
    if ctx.origin == ctx.destination:
        raise GenerationError("origin equals destination")
    reach = netgrid.hops_to(net, ctx.destination)
    if reach[ctx.origin] < 0:
        raise GenerationError(f"destination {ctx.destination} unreachable from {ctx.origin}")
    max_moves = min(ctx.max_len, vocab.max_timestep - 1)
    rng = make_rng(ctx.seed, "generate", ctx.traj_id)
    decoder = _Decoder(model, ctx)

    positions = [ctx.origin]
    actions: list[int] = []
    log_probs: list[float] = []
    flag = "truncated"
    while True:
        pos = positions[-1]
        feasible = net.feasible[pos]
        if not feasible.any():
            flag = "dead_end"
            break
        logits = decoder.step(pos, actions[-1] if actions else None)
        temp = ctx.temperature
        # greedy decoding still scores its moves under the temperature-1 policy
        lp = masked_log_probs(logits, feasible, temp if temp > 0 else 1.0)
        a = sample_action(logits, feasible, temp, rng, log_probs=lp)
        assert feasible[a]
        log_probs.append(float(lp[a]))
        actions.append(a)
        positions.append(netgrid.apply_action(net, pos, a))
        if positions[-1] == ctx.destination:
            flag = "complete"
            break
        if len(actions) >= max_moves:
            break
    if len(positions) < 2:
        raise GenerationError("no move was possible from the origin")
    traj = Trajectory(
        traj_id=ctx.traj_id,
        user_id=ctx.user_id,
        depart_bin=ctx.depart_bin,
        speed_bin=ctx.speed_bin,
        positions=positions,
        actions=actions,
        flag=flag,
    )
    return GenerationResult(traj, np.asarray(log_probs))


def generate(ctx: GenerationContext, model: PolicyModel, net: Network) -> Trajectory:
    return generate_scored(ctx, model, net).trajectory


class _Decoder:
    """Graph-free `forward_batch` over the trailing window of one trip, fed one step at a time
    (the module docstring describes the cache). Rows [0, length) of `keys[i]` and `values[i]` hold
    layer i's keys and values of the window's tokens."""

    def __init__(self, model: PolicyModel, ctx: GenerationContext):
        cfg = model.cfg
        self.model = model
        self.ctx = ctx
        self.t = 0
        self.length = 0
        # layer-normed tokens of the trip: s_t, a_t at rows 2t, 2t + 1
        self.tokens = np.empty((2 * cfg.vocab.max_timestep, cfg.d_model))
        self.keys = [np.empty((2 * cfg.context, cfg.d_model)) for _ in model.layers]
        self.values = [np.empty((2 * cfg.context, cfg.d_model)) for _ in model.layers]
        self.causal = np.tri(2 * cfg.context, dtype=bool)  # window row i attends to rows j <= i

    def step(self, position: int, prev_action: int | None) -> np.ndarray:
        """Action logits at step t, the vehicle at `position` after `prev_action` (None at t = 0)."""
        m, ctx, t = self.model, self.ctx, self.t
        ts = m.emb_timestep.data
        lo, hi = max(2 * t - 1, 0), 2 * t + 1
        new = self.tokens[lo:hi]
        if t > 0:
            new[0] = m.emb_action.data[prev_action] + ts[t - 1]
        state = EnvState(position, ctx.origin, ctx.destination, ctx.depart_bin, ctx.speed_bin, ctx.user_id)
        new[-1] = embed_state(state, m) + ts[t]
        new[:] = nc.layer_norm_fwd(new, m.ln_emb_gain.data, m.ln_emb_bias.data)[0]
        self.t = t + 1
        first = t + 1 - m.cfg.context  # first step of the window, once it slides
        if first <= 0:
            return self._run(new)
        self.length = 0
        return self._run(self.tokens[2 * first : hi])

    def _run(self, x: np.ndarray) -> np.ndarray:
        """Append the rows `x` to the window and return the logits read at its last row."""
        m = self.model
        n_heads = m.cfg.n_heads
        past = self.length
        total = self.length = past + len(x)
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


def load_checkpoint(path, expect_vocab: VocabSpec | None = None) -> tuple[PolicyModel, dict]:
    """Rebuild a PolicyModel bit-exactly; optional vocabulary compatibility check."""
    return checkpoint.load(path, PolicyModel, expect_vocab)
