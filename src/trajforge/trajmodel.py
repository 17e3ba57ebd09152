"""Autoregressive transformer policy over interleaved (R, s, a) token streams.

State tokens are sums of element embeddings plus a learned timestep embedding,
layer-normalized post-embedding. Blocks are pre-norm causal self-attention and
GELU feed-forward; action logits are read at each step's state-token position.
Infeasible actions are masked at sampling time, so generated trajectories are
valid by construction.

`forward_batch` records the autodiff graph and serves training and evaluation.
Generation runs the same equations without a graph, incrementally (`_Decoder`):
- a key/value cache holds each layer's keys and values of the trip's trailing
  window; a move appends only a_{t-1}, R_t and s_t, and the pending a_t is never
  computed, because nothing before it attends to it;
- once the trip passes `context` steps the window drops its first step, which
  changes every deeper layer's keys and values, so the cache restarts and the
  whole window is recomputed;
- only the s_t row's output is read, so the last layer caches the keys and
  values of every new token but runs its query, attention and feed-forward for
  that row alone.
Its logits equal a fresh `forward_batch` of the trailing window to rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import netgrid, numcore as nc
from .netgrid import EnvState, Network
from .numcore import Tensor, make_rng
from .synthgen import GenerationError, Trajectory
from .tokenizer import ContextWindow, EncodingError, VocabSpec

N_ACTIONS = netgrid.N_ACTIONS


class DeadEndError(RuntimeError):
    """No feasible action is available at the current position."""


class CheckpointError(RuntimeError):
    """Checkpoint file is missing, corrupt, or incompatible."""


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

    def as_dict(self) -> dict:
        d = dict(vars(self))
        d["vocab"] = self.vocab.as_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["vocab"] = VocabSpec(**d["vocab"])
        return cls(**d)


class PolicyModel:
    """Embedding tables, attention blocks, and the action head."""

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
        self.emb_rtg = emb(v.rtg)
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

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Stable (name, tensor) ordering; this is the checkpoint manifest order."""
        named = [
            ("emb_position", self.emb_position),
            ("emb_origin", self.emb_origin),
            ("emb_destination", self.emb_destination),
            ("emb_depart", self.emb_depart),
            ("emb_speed", self.emb_speed),
            ("emb_user", self.emb_user),
            ("emb_action", self.emb_action),
            ("emb_rtg", self.emb_rtg),
            ("emb_timestep", self.emb_timestep),
            ("ln_emb_gain", self.ln_emb_gain),
            ("ln_emb_bias", self.ln_emb_bias),
        ]
        for i, layer in enumerate(self.layers):
            for key in ("ln1_gain", "ln1_bias", "wq", "wk", "wv", "wo", "ln2_gain", "ln2_bias", "ff_w1", "ff_b1", "ff_w2", "ff_b2"):
                named.append((f"layer{i}.{key}", layer[key]))
        named.extend(
            [
                ("ln_f_gain", self.ln_f_gain),
                ("ln_f_bias", self.ln_f_bias),
                ("head_w", self.head_w),
                ("head_b", self.head_b),
            ]
        )
        return named

    def param_tensors(self) -> list[Tensor]:
        return [t for _, t in self.parameters()]

    def copy(self) -> "PolicyModel":
        clone = PolicyModel(self.cfg, rng=make_rng(0))
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

    logits: Tensor  # (total steps, N_ACTIONS)
    sizes: list[int]
    attention: list | None = None  # [layer][window] -> (heads, 3T, 3T)


def forward_batch(
    windows: list[ContextWindow],
    model: PolicyModel,
    rng: np.random.Generator | None = None,
    retain_attention: bool = False,
) -> BatchForward:
    """Run the policy over several windows in one recorded graph.

    Windows are embedded jointly; attention never crosses window boundaries.
    `rng` enables dropout (training); omit it for deterministic inference.
    """
    cfg = model.cfg
    sizes = [w.n_steps for w in windows]
    for w, t_len in zip(windows, sizes):
        if t_len > cfg.context:
            raise ValueError(f"window of {t_len} steps exceeds context {cfg.context}")
        if t_len < 1:
            raise ValueError("empty window")
    total = sum(sizes)

    def cat(name):
        return np.concatenate([getattr(w, name) for w in windows])

    ts = nc.gather_rows(model.emb_timestep, cat("timestep"))
    r_tok = nc.add(nc.gather_rows(model.emb_rtg, cat("rtg")), ts)
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

    perm, s_index = _interleave(total)
    x = nc.gather_rows(nc.concat_rows([r_tok, s_tok, a_tok]), perm)
    x = nc.layer_norm(x, model.ln_emb_gain, model.ln_emb_bias)
    x = nc.dropout(x, cfg.dropout, rng)

    segments = [3 * t_len for t_len in sizes]
    attention = [] if retain_attention else None
    for layer in model.layers:
        h = nc.layer_norm(x, layer["ln1_gain"], layer["ln1_bias"])
        q = nc.matmul(h, layer["wq"])
        k = nc.matmul(h, layer["wk"])
        v = nc.matmul(h, layer["wv"])
        ctx, weights = nc.block_causal_attention(q, k, v, cfg.n_heads, segments)
        if attention is not None:
            attention.append(weights)
        attn_out = nc.dropout(nc.matmul(ctx, layer["wo"]), cfg.dropout, rng)
        x = nc.add(x, attn_out)
        h2 = nc.layer_norm(x, layer["ln2_gain"], layer["ln2_bias"])
        ff = nc.matmul(nc.gelu(nc.add(nc.matmul(h2, layer["ff_w1"]), layer["ff_b1"])), layer["ff_w2"])
        ff = nc.dropout(nc.add(ff, layer["ff_b2"]), cfg.dropout, rng)
        x = nc.add(x, ff)

    x = nc.layer_norm(x, model.ln_f_gain, model.ln_f_bias)
    logits = nc.add(nc.matmul(nc.gather_rows(x, s_index), model.head_w), model.head_b)
    nc.assert_finite(logits, "action logits")
    return BatchForward(logits=logits, sizes=sizes, attention=attention)


def _interleave(total: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the stacked [R; s; a] tokens (step i of kind k at k*total + i) in (R_t, s_t, a_t)
    stream order, where it sits at 3i + k; and the stream positions of the state tokens."""
    return (np.arange(total)[:, None] + total * np.arange(3)).ravel(), 3 * np.arange(total) + 1


def forward(
    window: ContextWindow,
    model: PolicyModel,
    rng: np.random.Generator | None = None,
    retain_attention: bool = False,
) -> BatchForward:
    return forward_batch([window], model, rng=rng, retain_attention=retain_attention)


def batch_nll(windows: list[ContextWindow], model: PolicyModel, rng: np.random.Generator | None = None) -> Tensor:
    """Mean cross-entropy over all decision positions of all windows."""
    out = forward_batch(windows, model, rng=rng)
    mask = np.concatenate([w.decision_mask for w in windows])
    if not mask.any():
        raise LossError("no decision steps in batch")
    rows = np.flatnonzero(mask)
    targets = np.concatenate([w.action for w in windows])[rows]
    return nc.cross_entropy(nc.gather_rows(out.logits, rows), targets)


def nll_loss(window: ContextWindow, model: PolicyModel, rng: np.random.Generator | None = None) -> Tensor:
    return batch_nll([window], model, rng=rng)


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
    if reach[ctx.origin] is None:
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
        # layer-normed tokens of the trip: R_t, s_t, a_t at rows 3t, 3t + 1, 3t + 2
        self.tokens = np.empty((3 * cfg.vocab.max_timestep, cfg.d_model))
        self.keys = [np.empty((3 * cfg.context, cfg.d_model)) for _ in model.layers]
        self.values = [np.empty((3 * cfg.context, cfg.d_model)) for _ in model.layers]
        self.causal = np.tri(3 * cfg.context, dtype=bool)  # window row i attends to rows j <= i

    def step(self, position: int, prev_action: int | None) -> np.ndarray:
        """Action logits at step t, the vehicle at `position` after `prev_action` (None at t = 0)."""
        m, ctx, t = self.model, self.ctx, self.t
        ts = m.emb_timestep.data
        lo, hi = max(3 * t - 1, 0), 3 * t + 2
        new = self.tokens[lo:hi]
        if t > 0:
            new[0] = m.emb_action.data[prev_action] + ts[t - 1]
        new[-2] = m.emb_rtg.data[int(position != ctx.destination)] + ts[t]
        state = EnvState(position, ctx.origin, ctx.destination, ctx.depart_bin, ctx.speed_bin, ctx.user_id)
        new[-1] = embed_state(state, m) + ts[t]
        new[:] = nc.layer_norm_fwd(new, m.ln_emb_gain.data, m.ln_emb_bias.data)[0]
        self.t = t + 1
        first = t + 1 - m.cfg.context  # first step of the window, once it slides
        if first <= 0:
            return self._run(new)
        self.length = 0
        return self._run(self.tokens[3 * first : hi])

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


# ---------------------------------------------------------------------------
# Checkpoints: one JSON header line plus a little-endian float64 blob.
# ---------------------------------------------------------------------------

CKPT_MAGIC = "trajforge-ckpt"
CKPT_VERSION = 1


def write_param_file(path, kind: str, config: dict, named_params, meta: dict | None = None) -> None:
    manifest = [[name, list(t.data.shape)] for name, t in named_params]
    header = {
        "format": CKPT_MAGIC,
        "version": CKPT_VERSION,
        "kind": kind,
        "config": config,
        "meta": meta or {},
        "manifest": manifest,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for _, t in named_params:
            fh.write(t.data.astype("<f8").tobytes())


def read_param_file(path, expect_kind: str | None = None):
    """Returns (header dict, {name: ndarray}); raises CheckpointError on any mismatch."""
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header") from exc
    if header.get("format") != CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if header.get("version") != CKPT_VERSION:
        raise CheckpointError(f"{path}: checkpoint version {header.get('version')} != {CKPT_VERSION}")
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise CheckpointError(f"{path}: checkpoint kind {header.get('kind')!r}, expected {expect_kind!r}")
    expected = sum(int(np.prod(shape)) for _, shape in header["manifest"]) * 8
    if len(blob) != expected:
        raise CheckpointError(f"{path}: blob of {len(blob)} bytes, manifest declares {expected}")
    params = {}
    offset = 0
    for name, shape in header["manifest"]:
        count = int(np.prod(shape))
        params[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += count * 8
    return header, params


def save_checkpoint(model: PolicyModel, path, meta: dict | None = None) -> None:
    write_param_file(path, "policy", model.cfg.as_dict(), model.parameters(), meta)


def load_checkpoint(path, expect_vocab: VocabSpec | None = None) -> tuple[PolicyModel, dict]:
    """Rebuild a PolicyModel bit-exactly; optional vocabulary compatibility check."""
    header, params = read_param_file(path, expect_kind="policy")
    cfg = ModelConfig.from_dict(header["config"])
    if expect_vocab is not None and cfg.vocab != expect_vocab:
        raise CheckpointError(
            f"{path}: checkpoint vocabulary {cfg.vocab.as_dict()} does not match expected {expect_vocab.as_dict()}"
        )
    model = PolicyModel(cfg, rng=make_rng(0))
    for name, tensor in model.parameters():
        if name not in params:
            raise CheckpointError(f"{path}: missing parameter {name}")
        if params[name].shape != tensor.data.shape:
            raise CheckpointError(f"{path}: parameter {name} has shape {params[name].shape}, expected {tensor.data.shape}")
        tensor.data = params[name]
    return model, header["meta"]
