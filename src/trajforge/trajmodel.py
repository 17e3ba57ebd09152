"""Autoregressive transformer policy over interleaved (R, s, a) token streams.

State tokens are sums of element embeddings plus a learned timestep embedding,
layer-normalized post-embedding. Blocks are pre-norm causal self-attention and
GELU feed-forward; action logits are read at each step's state-token position.
Infeasible actions are masked at sampling time, so generated trajectories are
valid by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import netgrid, numcore as nc
from .netgrid import Network
from .numcore import Tensor, make_rng
from .synthgen import GenerationError, Trajectory
from .tokenizer import BLANK, ContextWindow, VocabSpec, encode_episode

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


def embed_state(state, model: PolicyModel) -> np.ndarray:
    """Sum of the six element embeddings of one decision context.

    The timestep embedding is added at sequence assembly, and the post-embedding
    layer norm is applied there too; this returns the raw element sum.
    """
    v = model.cfg.vocab
    checks = (
        (state.position, v.positions, "position"),
        (state.origin, v.positions, "origin"),
        (state.destination, v.positions, "destination"),
        (state.depart_bin, v.depart_bins, "depart_bin"),
        (state.speed_bin, v.speed_bins, "speed_bin"),
        (state.user_id, v.users, "user_id"),
    )
    for value, size, name in checks:
        if not 0 <= value < size:
            raise IndexError(f"{name} {value} outside vocabulary of {size}")
    return (
        model.emb_position.data[state.position]
        + model.emb_origin.data[state.origin]
        + model.emb_destination.data[state.destination]
        + model.emb_depart.data[state.depart_bin]
        + model.emb_speed.data[state.speed_bin]
        + model.emb_user.data[state.user_id]
    )


@dataclass
class BatchForward:
    """Forward outputs for a list of windows processed as one graph."""

    logits: Tensor  # (total steps, N_ACTIONS)
    sizes: list[int]
    attention: list | None = None  # [layer][window] -> (heads, 3T, 3T)

    def window_logits(self, b: int) -> np.ndarray:
        start = sum(self.sizes[:b])
        return self.logits.data[start : start + self.sizes[b]]


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
    """Autoregressive rollout; deterministic given (context, model, seed)."""
    if ctx.origin == ctx.destination:
        raise GenerationError("origin equals destination")
    reach = netgrid.hops_to(net, ctx.destination)
    if reach[ctx.origin] is None:
        raise GenerationError(f"destination {ctx.destination} unreachable from {ctx.origin}")
    vocab = model.cfg.vocab
    max_moves = min(ctx.max_len, vocab.max_timestep - 1)
    rng = make_rng(ctx.seed, "generate", ctx.traj_id)

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
        window = _trailing_window(ctx, positions, actions, model.cfg.context)
        out = forward(window, model)
        logits = out.logits.data[-1]
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


def _trailing_window(ctx: GenerationContext, positions, actions, context: int) -> ContextWindow:
    """Tokens for the trailing `context` steps; the pending decision is BLANK."""
    n = len(positions)
    start = max(0, n - context)
    rows = range(start, n)
    rtg = np.array([0 if positions[t] == ctx.destination else 1 for t in rows], dtype=np.int64)
    action = np.array([actions[t] if t < len(actions) else BLANK for t in rows], dtype=np.int64)
    size = n - start
    return ContextWindow(
        traj_id=ctx.traj_id,
        flag="partial",
        rtg=rtg,
        position=np.array(positions[start:], dtype=np.int64),
        origin=np.full(size, ctx.origin, dtype=np.int64),
        destination=np.full(size, ctx.destination, dtype=np.int64),
        depart=np.full(size, ctx.depart_bin, dtype=np.int64),
        speed=np.full(size, ctx.speed_bin, dtype=np.int64),
        user=np.full(size, ctx.user_id, dtype=np.int64),
        action=action,
        timestep=np.arange(start, n, dtype=np.int64),
    )


def episode_windows(traj: Trajectory, context: int) -> list[ContextWindow]:
    """Non-overlapping windows (stride = context): each decision step scored once."""
    from .tokenizer import windowize

    return windowize(encode_episode(traj), context, context)


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
