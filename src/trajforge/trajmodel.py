"""Autoregressive transformer policy over one token per decision step.

A trip of m moves runs as m tokens. Step t's token sums the embeddings of its
position, its five context columns, its timestep and the move that led to it
(the action table's BLANK row at t = 0), and is layer-normalized. The terminal
step makes no decision, so it has no token. Decision Transformer (Chen et al.
2021) interleaves state and action tokens, but its tokens also carry returns;
these carry none, so an action token would hold nothing that the next step's
token does not. Blocks are pre-norm causal self-attention and GELU
feed-forward; action logits are read at every token. In `forward_batch`, the
token's eight lookups are one `numcore.embed_sum` node, with the bits of their
chained sum; the trips' attention plan (`numcore.segment_plan`: the trips
sorted by length, one block and one causal mask per length) is built once per
call and read by every layer; the feed-forward's two affine maps and the
action head are each one `numcore.linear` node, so the graph keeps no
pre-bias product. Infeasible actions are masked at sampling time, so
generated trajectories are valid by construction.

The policy reads whole trips: `ModelConfig.context` is the vocabulary's
`max_timestep`, so every trip that the vocabulary admits fits.

`forward_batch` serves training, which records the autodiff graph, and
evaluation, which calls it under `numcore.no_graph` (`pretrain.score_trips`)
and so records none. Generation runs the same equations without a graph,
incrementally, over a batch of trips in lockstep (`_Decoder`):
- every live trip is at the same step, so no row needs padding or a ragged
  mask. A move runs one row per live trip, its token of step t, through every
  layer, and attends to every key cached so far. Each layer's key and value
  caches, (trips, heads, context, head dim) each, hold every live trip's keys
  and values, head by head: 0.10 MB per trip at default sizes. A cache has
  room for `context` steps, the longest trip, so nothing ever leaves a cache
  but a trip that ends: the caches drop its rows, copying only their filled
  part;
- each layer runs one product h @ [wq | wk | wv];
- it looks up each trip's five context rows once, and adds each token's
  position row, those five rows, the timestep row and the previous move's row
  in `forward_batch`'s order, so its tokens hold the same bits as
  `forward_batch`'s. A reassociated sum would change the last ulp, which a
  trained policy's sampling amplifies.
Its logits equal a fresh `forward_batch` of each trip so far to rounding.

The move loop itself is `synthgen.roll_out`, shared with the synthetic oracle:
it advances the trips in lockstep and draws every move. `generate` is one
call of it over B contexts, whose `probs` runs one decoder step over the live
trips and returns their action probabilities (at temperature 0, the one-hot
row of the feasible argmax); `generate_scored` is `generate` of one context.
A move is drawn by one `random()` double from the trip's own stream, drawn up
front, which `roll_out` maps through `numcore.inverse_cdf`: it picks what
`Generator.choice` would.

At B = 1 every product has the shape of a one-trip pass, one row, and the
tests pin the trips it draws. At B > 1 rows round otherwise: BLAS takes other
kernels for more rows, and a one-row product runs as gemv, not gemm. A row's
log-probabilities then stay within 1e-12 of its own `generate_scored` call.

The decoder keeps its array path, unlike the critic's inference, which runs
training code under `no_graph`: at one row a graph-free `numcore` op costs
more than its formula on arrays, and the B = 1 move is numpy call overhead.
So the decoder fuses its input products, writes each cache once, adds in
place, and `numcore`'s layer norm, masked log-softmax and inverse CDF take one
row's statistics as Python floats. A `generate_scored` move takes 0.15-0.21 ms
(p50, each move at its trip's mean), and one `generate` call over 256 of
perfbench's held-out contexts runs 36-39k moves/s against 5.8-7.0k for 256
`generate_scored` calls (best of 3, one BLAS thread, 2-core VM, perfbench's
2-epoch policy at seeds 1 and 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import netgrid, numcore as nc
from .checkpoint import ParamModel
from .netgrid import Network
from .numcore import AT_LEAST_1, NON_NEGATIVE, Tensor, make_rng, require
from .synthgen import Trajectory, roll_out
from .tokenizer import BLANK, IS_VOCAB_SPEC, VocabSpec, check_columns, check_vocab

N_ACTIONS = netgrid.N_ACTIONS


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
            vocab=IS_VOCAB_SPEC,
            d_model=AT_LEAST_1,
            n_layers=AT_LEAST_1,
            n_heads=AT_LEAST_1,
            dropout=(lambda p: 0 <= p < 1, "in [0, 1)"),
            ff_mult=AT_LEAST_1,
            init_std=NON_NEGATIVE,
        )
        require(self, d_model=(lambda d: d % self.n_heads == 0, f"a multiple of n_heads {self.n_heads}"))

    @property
    def context(self) -> int:
        """Steps the policy reads at most: the vocabulary's `max_timestep`, so every trip the model can embed."""
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
        self.emb_action = emb(N_ACTIONS + 1)  # the real actions plus the BLANK row
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
    """Forward outputs for a list of trips processed as one graph."""

    logits: Tensor  # (decision steps, N_ACTIONS), trip by trip
    actions: np.ndarray  # the action taken at each decision step, the cross-entropy target of its row
    sizes: list[int]  # steps of each input trip


# a context's columns, named as `check_columns` and the embedding tables `emb_<name>` name them, with
# their `GenerationContext` fields, in the order that `forward_batch` and the decoder add their rows
_CONTEXT_COLUMNS = (("origin", "origin"), ("destination", "destination"), ("depart", "depart_bin"), ("speed", "speed_bin"), ("user", "user_id"))


def forward_batch(trips: list[Trajectory], model: PolicyModel, rng: np.random.Generator | None = None) -> BatchForward:
    """Run the policy over several trips in one recorded graph; logits of their decision steps.

    A trip of m moves runs as m rows, one token per decision step (see the module docstring), and
    every row queries in every layer. Trips are embedded jointly, by one `embed_sum` node over the
    eight tables; attention never crosses trip boundaries, and every layer reads the one
    `segment_plan` of the trips' lengths. `rng` enables dropout (training); omit it for
    deterministic inference. ValueError for no trips, and `check_vocab`'s EncodingError naming the
    first trip with an index outside the vocabulary, a trip longer than `context` included.
    """
    if not trips:
        raise ValueError("no trips in batch")
    cfg = model.cfg
    steps = check_vocab(trips, cfg.vocab)
    m = np.array([len(t.actions) for t in trips])  # each trip's decision steps, all before its terminal one
    dec = np.flatnonzero(steps.decision_mask)  # the decision steps, as rows of the step table

    def cat(name):
        return getattr(steps, name)[dec]

    timestep = cat("timestep")
    prev = np.where(timestep == 0, BLANK, steps.action[dec - 1])  # the move that led here, BLANK at a trip's first step
    columns = [name for name, _ in _CONTEXT_COLUMNS]
    x = nc.embed_sum(
        [model.emb_position, *(getattr(model, "emb_" + name) for name in columns), model.emb_timestep, model.emb_action],
        [cat("position"), *(cat(name) for name in columns), timestep, prev],
    )
    x = nc.layer_norm(x, model.ln_emb_gain, model.ln_emb_bias)
    x = nc.dropout(x, cfg.dropout, rng)

    plan = nc.segment_plan(m)
    for layer in model.layers:
        h = nc.layer_norm(x, layer["ln1_gain"], layer["ln1_bias"])
        q, k, v = (nc.matmul(h, layer[w]) for w in ("wq", "wk", "wv"))
        ctx = nc.block_causal_attention(q, k, v, cfg.n_heads, plan)
        attn_out = nc.dropout(nc.matmul(ctx, layer["wo"]), cfg.dropout, rng)
        x = nc.add(x, attn_out)
        h2 = nc.layer_norm(x, layer["ln2_gain"], layer["ln2_bias"])
        ff = nc.gelu(nc.linear(h2, layer["ff_w1"], layer["ff_b1"]))
        ff = nc.dropout(nc.linear(ff, layer["ff_w2"], layer["ff_b2"]), cfg.dropout, rng)
        x = nc.add(x, ff)

    x = nc.layer_norm(x, model.ln_f_gain, model.ln_f_bias)
    logits = nc.linear(x, model.head_w, model.head_b)
    nc.assert_finite(logits, "action logits")
    return BatchForward(logits=logits, actions=cat("action"), sizes=(m + 1).tolist())


def batch_nll(trips: list[Trajectory], model: PolicyModel, rng: np.random.Generator | None = None) -> Tensor:
    """Mean cross-entropy over all decision steps of all trips; `forward_batch` checks them."""
    out = forward_batch(trips, model, rng=rng)
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
        require(self, max_len=AT_LEAST_1, temperature=NON_NEGATIVE)


@dataclass
class GenerationResult:
    trajectory: Trajectory
    log_probs: np.ndarray  # log pi(a_t | history) per decision step


def generate(contexts: list[GenerationContext], model: PolicyModel, net: Network) -> list[GenerationResult]:
    """Autoregressive rollout of B contexts in lockstep, in one `synthgen.roll_out` call whose `probs`
    runs one decoder step over the live trips; deterministic given (contexts, model). Trip i draws
    its moves from its own stream, make_rng(seed, "generate", traj_id), so it takes the moves of its
    own `generate_scored` call up to rounding: at B > 1 the products round otherwise (see the module
    docstring).

    Each move is scored by `numcore.masked_log_softmax` of the logits over the temperature (over 1
    when greedy), and `log_probs` holds that score of the move drawn.

    Raises ValueError naming the first context whose `max_len` or temperature differs from the
    first's, EncodingError (`check_columns`) naming an index of a context outside the model's
    vocabulary, ValueError for a network whose positions are not the model's, and GenerationError
    as `roll_out` does.
    """
    vocab = model.cfg.vocab
    if net.n_positions != vocab.positions:
        raise ValueError(f"network of {net.n_positions} positions for a policy vocabulary of {vocab.positions}")
    if not contexts:
        return []
    first = contexts[0]
    for i, ctx in enumerate(contexts):
        if (ctx.max_len, ctx.temperature) != (first.max_len, first.temperature):
            raise ValueError(
                f"context {i}: max_len {ctx.max_len} and temperature {ctx.temperature} differ from "
                f"context 0's {first.max_len} and {first.temperature}"
            )
    columns = _context_columns(contexts)
    check_columns(vocab, columns, lambda row: "generation context" if len(contexts) == 1 else f"generation context {row}")
    max_moves = min(first.max_len, vocab.max_timestep - 1)
    uniforms = np.array([make_rng(ctx.seed, "generate", ctx.traj_id).random(max_moves) for ctx in contexts])
    decoder = _Decoder(model, columns)
    temp = first.temperature if first.temperature > 0 else 1.0  # greedy decoding scores its moves at temperature 1
    scored = np.empty((len(contexts), max_moves, N_ACTIONS))  # each move's log-probabilities

    def probs(rows: np.ndarray, positions: np.ndarray, prev_actions: np.ndarray) -> np.ndarray:
        logits = decoder.step(rows, positions, prev_actions)
        feasible = net.feasible[positions]
        scored[rows, decoder.t - 1] = log_probs = nc.masked_log_softmax(logits / temp, feasible)
        if first.temperature == 0:  # the one-hot row of the argmax, lowest index on ties
            return np.eye(N_ACTIONS)[np.argmax(np.where(feasible, logits, -np.inf), axis=1)]
        return np.exp(log_probs)

    out = roll_out(net, columns["origin"], columns["destination"], uniforms, probs)
    results = []
    for ctx, scores, (positions, actions, flag) in zip(contexts, scored, out):
        traj = Trajectory(ctx.traj_id, ctx.user_id, ctx.depart_bin, ctx.speed_bin, positions, actions, flag)
        results.append(GenerationResult(traj, scores[np.arange(len(actions)), actions]))
    return results


def generate_scored(ctx: GenerationContext, model: PolicyModel, net: Network) -> GenerationResult:
    """`generate` of the one context `ctx`: its products keep the shapes of one trip (see the module docstring)."""
    return generate([ctx], model, net)[0]


def _context_columns(contexts: list[GenerationContext]) -> dict:
    """The contexts' indices of each context column, one list per column."""
    return {name: [getattr(ctx, field) for ctx in contexts] for name, field in _CONTEXT_COLUMNS}


class _Decoder:
    """Graph-free `forward_batch` over the live trips of a roll-out, fed one move at a time (the
    module docstring describes the cache). Every live trip is at the same step t. After t steps,
    `caches[i][0, b, :, :t]` and `caches[i][1, b, :, :t]` hold layer i's keys and values of live
    trip b's tokens of steps 0 ... t - 1, head by head."""

    def __init__(self, model: PolicyModel, columns: dict):
        """A decoder of the trips whose context indices are `columns` (`_context_columns`), checked."""
        cfg = model.cfg
        self.model = model
        self.rows = np.arange(len(columns["origin"]))  # the trips still under way, as `roll_out` numbers them
        self.t = 0
        # each trip's token rows in `forward_batch`'s order: its position, its five context rows,
        # looked up here, its timestep and its previous move. A move writes the first and the last
        # two, and a reduce over the middle axis adds the eight one after another, as `forward_batch` does.
        self.state_rows = np.empty((len(self.rows), 8, cfg.d_model))
        for j, (name, _) in enumerate(_CONTEXT_COLUMNS, 1):
            self.state_rows[:, j] = getattr(model, "emb_" + name).data.take(columns[name], axis=0)
        head_dim = cfg.d_model // cfg.n_heads
        self.caches = [np.empty((2, len(self.rows), cfg.n_heads, cfg.context, head_dim)) for _ in model.layers]
        # each layer's arrays, and its input weights as one product [wq | wk | wv]
        self.layers = [{name: t.data for name, t in layer.items()} for layer in model.layers]
        for layer in self.layers:
            layer["w_in"] = np.concatenate((layer["wq"], layer["wk"], layer["wv"]), axis=1)

    def step(self, rows: np.ndarray, positions: np.ndarray, prev_actions: np.ndarray) -> np.ndarray:
        """Action logits (len(rows), 9) at step t of the trips `rows`, at `positions` after `prev_actions`
        (unread at t = 0, where the BLANK row stands in). `rows` are the decoder's live trips or fewer,
        in order: `roll_out` drops finished trips, and the caches drop theirs with them."""
        if len(rows) < len(self.rows):
            self._keep(np.searchsorted(self.rows, rows))
            self.rows = rows
        m, t = self.model, self.t
        self.state_rows[:, 0] = m.emb_position.data[positions]
        self.state_rows[:, -2] = m.emb_timestep.data[t]
        self.state_rows[:, -1] = m.emb_action.data[prev_actions if t else BLANK]
        x = np.add.reduce(self.state_rows, 1)
        self.t = t + 1
        return self._run(nc.layer_norm_fwd(x, m.ln_emb_gain.data, m.ln_emb_bias.data))

    def _keep(self, keep: np.ndarray) -> None:
        """Keep the live trips `keep` (ascending indices among them), copying only the caches' filled part."""
        self.state_rows = self.state_rows[keep]
        for i, cache in enumerate(self.caches):
            kept = np.empty((2, len(keep)) + cache.shape[2:])
            kept[:, :, :, : self.t] = cache[:, keep, :, : self.t]
            self.caches[i] = kept

    def _run(self, x: np.ndarray) -> np.ndarray:
        """Append each trip's row of `x`, its token of step t - 1, to its tokens and return the logits read there."""
        m = self.model
        d, n_heads = m.cfg.d_model, m.cfg.n_heads
        trips, t = len(x), self.t
        for layer, cache in zip(self.layers, self.caches):
            h = nc.layer_norm_fwd(x, layer["ln1_gain"], layer["ln1_bias"])
            hw = h @ layer["w_in"]
            cache[:, :, :, t - 1] = hw[:, d:].reshape(trips, 2, n_heads, -1).transpose(1, 0, 2, 3)
            q = hw[:, :d].reshape(trips, n_heads, 1, -1)
            ctx, _ = nc.masked_attention(q, cache[0, :, :, :t], cache[1, :, :, :t], None)
            x += ctx.reshape(trips, d) @ layer["wo"]
            ff = nc.layer_norm_fwd(x, layer["ln2_gain"], layer["ln2_bias"]) @ layer["ff_w1"]
            ff += layer["ff_b1"]
            ff = nc.gelu_fwd(ff) @ layer["ff_w2"]
            ff += layer["ff_b2"]
            x += ff
        logits = nc.layer_norm_fwd(x, m.ln_f_gain.data, m.ln_f_bias.data) @ m.head_w.data
        logits += m.head_b.data
        if not np.isfinite(logits).all():
            raise nc.EvaluationError("non-finite values in action logits")
        return logits
