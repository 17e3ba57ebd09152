"""Dense float64 tensors with reverse-mode differentiation over a recorded op graph.

Every differentiable operation builds a node holding its parents and a backward
closure; `backward` replays the graph in reverse topological order and consumes
it, so a graph serves one `backward`. Ops inside `no_graph()` record nothing.
Gradient buffers are lazy: the first gradient to reach a node becomes its
`.grad` and later ones add into it, so no node shares its buffer with another.
All stochastic helpers take an explicit counter-based RNG so replays are
bit-identical.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class EvaluationError(RuntimeError):
    """Raised when a checked function produces a non-finite value."""


class GraphConsumedError(RuntimeError):
    """Raised when `backward` reaches a node whose graph an earlier `backward` consumed."""


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------


def make_rng(*key) -> np.random.Generator:
    """Counter-based (Philox) generator keyed by a tuple of ints/strings.

    Streams with different keys are independent; the same key always yields
    the same stream, regardless of platform or process.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in key:
        if isinstance(part, str):
            h.update(b"s" + part.encode("utf-8"))
        else:
            h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
    seed_int = int.from_bytes(h.digest(), "little")
    return np.random.Generator(np.random.Philox(key=seed_int))


# ---------------------------------------------------------------------------
# Tensor and the recorded computation
# ---------------------------------------------------------------------------


class Tensor:
    """A float64 array plus the bookkeeping needed to replay gradients."""

    __slots__ = ("data", "grad", "_parents", "_bwd")

    def __init__(self, data, _parents=(), _bwd=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._bwd = _bwd

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def tensor(data) -> Tensor:
    return Tensor(data)


def param(rng: np.random.Generator, shape, std: float = 0.02) -> Tensor:
    """Gaussian-initialized leaf parameter."""
    if std == 0.0:
        return Tensor(np.zeros(shape))
    return Tensor(rng.normal(0.0, std, size=shape))


@dataclass
class ComputationRecord:
    """Topologically ordered trace of the ops that produced a tensor."""

    nodes: list = field(default_factory=list)

    @classmethod
    def from_root(cls, root: Tensor) -> "ComputationRecord":
        record = cls()
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                record.nodes.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise GraphConsumedError("backward reached a node of a graph that an earlier backward consumed")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return record


def backward(root: Tensor) -> ComputationRecord:
    """Populate `.grad` on every node reachable from `root` (root grad = 1), replacing stale ones.

    Ops add their parents' shares through `_accum`; a node that no share reached gets zeros. Once a
    node's closure has run, it and the parent links are dropped (`_parents` becomes None), freeing the
    arrays it saved; a later `backward` that reaches such a consumed node raises `GraphConsumedError`.
    Every `.grad` stays, the record keeps its order, and leaves (parameters) are never consumed.
    """
    record = ComputationRecord.from_root(root)
    for node in record.nodes:
        node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(record.nodes):
        if node.grad is None:
            node.grad = np.zeros_like(node.data)
        if node._bwd is not None:
            node._bwd(node.grad)
            node._bwd, node._parents = None, None
    return record


def assert_finite(t: Tensor, what: str = "tensor") -> Tensor:
    if not np.all(np.isfinite(t.data)):
        raise EvaluationError(f"non-finite values in {what}")
    return t


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add gradient share `g` (summed down to `t`'s shape) into `t.grad`. The first share becomes
    `t.grad`, as is when `fresh` (no other node holds `g`), else as a copy: no two nodes share one."""
    if g.shape != t.data.shape:
        g, fresh = _unbroadcast(g, t.data.shape), True
    if t.grad is None:
        t.grad = g if fresh else g.copy()
    else:
        t.grad += g


def _scatter_accum(t: Tensor, flat_idx: np.ndarray, g: np.ndarray) -> None:
    """Add `g` into `t.grad` at flat positions `flat_idx`, rounding exactly as `np.add.at`:
    after any gradient `t` already holds, duplicates sum in index order."""
    weights = g.ravel()
    if t.grad is not None:
        flat_idx = np.concatenate([np.arange(t.data.size), flat_idx])
        weights = np.concatenate([t.grad.ravel(), weights])
    t.grad = np.bincount(flat_idx, weights=weights, minlength=t.data.size).reshape(t.data.shape)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_recording = True


@contextmanager
def no_graph():
    """Ops inside the block record no graph: outputs carry no parents and no closure (process-wide)."""
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


def _node(data, parents: tuple, bwd) -> Tensor:
    """An op's output: a graph node with `parents` and backward closure `bwd`, or a bare tensor under `no_graph`."""
    return Tensor(data, parents, bwd) if _recording else Tensor(data)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _node(a.data + b.data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        _accum(a, g)
        _accum(b, -g, fresh=True)

    return _node(a.data - b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        _accum(a, g * b.data, fresh=True)
        _accum(b, g * a.data, fresh=True)

    return _node(a.data * b.data, (a, b), bwd)


def mul_const(a: Tensor, c) -> Tensor:
    """Multiply by a constant (scalar or ndarray); no gradient flows into `c`."""
    c = np.asarray(c, dtype=np.float64)

    def bwd(g):
        _accum(a, g * c, fresh=True)

    return _node(a.data * c, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.data.shape} x {b.data.shape}")

    def bwd(g):
        _accum(a, g @ b.data.T, fresh=True)
        _accum(b, a.data.T @ g, fresh=True)

    return _node(a.data @ b.data, (a, b), bwd)


def concat_rows(tensors) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[0] for t in tensors]

    def bwd(g):
        offset = 0
        for t, n in zip(tensors, sizes):
            _accum(t, g[offset : offset + n])
            offset += n

    return _node(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors), bwd)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Row lookup (embedding): out[i] = a[idx[i]]. Duplicate indices accumulate."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError(f"gather_rows index out of range for table of {a.data.shape[0]} rows")

    def bwd(g):
        if idx.size > len(a.data) or np.bincount(idx.ravel(), minlength=1).max() > 1:  # more indices than rows must repeat
            width = math.prod(a.data.shape[1:])
            _scatter_accum(a, (idx.reshape(-1, 1) * width + np.arange(width)).ravel(), g)
        else:  # distinct rows round as the bincount does: 0.0 + prior (a signed zero turns positive), + g
            a.grad = np.zeros_like(a.data) if a.grad is None else a.grad + 0.0
            a.grad[idx] += g

    return _node(a.data[idx], (a,), bwd)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop of `a`; the gradient reaches those rows only."""

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[start:stop] += g

    return _node(a.data[start:stop], (a,), bwd)


def gather_per_row(a: Tensor, idx) -> Tensor:
    """out[i] = a[i, idx[i]] for a 2-D tensor."""
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(a.data.shape[0])
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[1]):
        raise IndexError("gather_per_row column index out of range")

    def bwd(g):
        _scatter_accum(a, rows * a.data.shape[1] + idx, g)

    return _node(a.data[rows, idx], (a,), bwd)


def masked_logsumexp(x, mask) -> np.ndarray:
    """log sum exp of `x` over the entries where `mask` is True, along the last axis.

    Max-shifted for stability; masked entries contribute exactly nothing, and a
    slice with no allowed entry is rejected. Log-probabilities are x - lse.
    """
    x = np.asarray(x, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise ShapeError(f"mask shape {mask.shape} != data shape {x.shape}")
    if not mask.any(axis=-1).all():
        raise ValueError("masked_logsumexp: a row has no allowed entries")
    neg = np.where(mask, x, -np.inf)
    m = neg.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(neg - m).sum(axis=-1, keepdims=True)))[..., 0]


def masked_logsumexp_rows(a: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise masked_logsumexp of a 2-D tensor; its gradient is the masked softmax."""
    x = a.data
    mask = np.asarray(mask, dtype=bool)
    out_val = masked_logsumexp(x, mask)

    def bwd(g):
        p = np.exp(np.where(mask, x - out_val[:, None], -np.inf))
        _accum(a, p * g[:, None], fresh=True)

    return _node(out_val, (a,), bwd)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean of -log softmax(logits)[i, targets[i]] over rows."""
    targets = np.asarray(targets, dtype=np.intp)
    n, vocab = logits.data.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} != ({n},)")
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise IndexError(f"target index out of range for vocabulary of {vocab}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = masked_logsumexp(shifted, np.ones(shifted.shape, dtype=bool))
    nll = lse - shifted[np.arange(n), targets]

    def bwd(g):
        p = np.exp(shifted - lse[:, None])
        p[np.arange(n), targets] -= 1.0
        _accum(logits, (g / n) * p, fresh=True)

    return _node(nll.mean(), (logits,), bwd)


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Forward formula of `layer_norm` on arrays: (output, normalized x, 1 / std of each row).

    Means are sums over the width, which round exactly as `ndarray.mean` at a fraction of its overhead.
    """
    d = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / d
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return xhat * gain + bias, xhat, inv_std


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},)")
    out_val, xhat, inv_std = layer_norm_fwd(x.data, gain.data, bias.data, eps)

    def bwd(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=reduce_axes), fresh=True)
        _accum(bias, g.sum(axis=reduce_axes), fresh=True)
        dxhat = g * gain.data
        dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        _accum(x, dx, fresh=True)

    return _node(out_val, (x, gain, bias), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_fwd(x: np.ndarray):
    """Forward formula of `gelu` on arrays: (output, tanh of the inner term).

    Tanh approximation; powers by multiplication, which is far cheaper than `**`.
    """
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation (`gelu_fwd`)."""
    out_val, t = gelu_fwd(x.data)

    def bwd(g):
        sech2 = 1.0 - t * t
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (x.data * x.data))
        _accum(x, g * (0.5 * (1.0 + t) + 0.5 * x.data * sech2 * d_inner), fresh=True)

    return _node(out_val, (x,), bwd)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    """Leaky ReLU as max(x, slope * x), valid for 0 <= slope <= 1 and cheaper than selecting on the sign."""

    def bwd(g):
        _accum(x, g * np.where(x.data >= 0, 1.0, slope), fresh=True)

    return _node(np.maximum(x.data, slope * x.data), (x,), bwd)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def bwd(g):
        _accum(x, np.full(x.data.shape, g / n), fresh=True)

    return _node(x.data.mean(), (x,), bwd)


def sum_all(x: Tensor) -> Tensor:

    def bwd(g):
        _accum(x, np.full(x.data.shape, g), fresh=True)

    return _node(x.data.sum(), (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no RNG is supplied."""
    if rng is None or rate <= 0.0:
        return x
    return mul_const(x, (rng.random(x.data.shape) >= rate) / (1.0 - rate))


def masked_attention(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, visible: np.ndarray):
    """Forward formula of attention on per-head arrays: (context, weights).

    `qh` is (..., rows, head dim) and `kh`, `vh` are (..., keys, head dim); query row i attends to
    key j where `visible[i, j]`, with softmax(q k^T / sqrt(head dim)) weights.
    """
    scores = (qh @ kh.swapaxes(-1, -2)) * (1.0 / math.sqrt(qh.shape[-1]))
    scores = np.where(visible, scores, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    return w @ vh, w


def block_causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, segments, q_at=None) -> Tensor:
    """Multi-head causal attention applied independently to contiguous row segments.

    `segments` lists each segment's length in rows of `k` and `v`; a row attends to itself and earlier
    rows of its segment. By default every row queries. `q_at` gives the query-subset form: the
    ascending key row at which each row of `q` sits, so only those rows query and the context has one
    row per query. Segments of one length must then hold their queries at the same offsets. Segments of
    equal length run as one stacked matmul.
    """
    lengths = np.asarray(segments, dtype=np.intp)
    n_keys = k.data.shape[0]
    if lengths.sum() != n_keys or v.data.shape[0] != n_keys:
        raise ShapeError("segment lengths do not cover the sequence")
    q_at = np.arange(n_keys) if q_at is None else np.asarray(q_at, dtype=np.intp)
    if len(q_at) != q.data.shape[0] or np.any(np.diff(q_at) <= 0) or (q_at.size and (q_at[0] < 0 or q_at[-1] >= n_keys)):
        raise ShapeError("query rows must be ascending key rows, one per row of q")
    d = q.data.shape[1]
    if d % n_heads != 0:
        raise ShapeError(f"model width {d} not divisible by {n_heads} heads")
    hd = d // n_heads
    scale = 1.0 / math.sqrt(hd)
    starts = np.cumsum(lengths) - lengths
    counts = np.bincount(np.repeat(np.arange(len(lengths)), lengths)[q_at], minlength=len(lengths))
    q_starts = np.cumsum(counts) - counts

    def heads(x, rows):  # (G, T) row indices -> (G, heads, T, hd)
        return x[rows].reshape(*rows.shape, n_heads, hd).transpose(0, 2, 1, 3)

    def unheads(xh, rows):
        return xh.transpose(0, 2, 1, 3).reshape(*rows.shape, d)

    ctx = np.empty_like(q.data)
    groups = []
    for t_len in np.unique(lengths):
        members = np.flatnonzero(lengths == t_len)
        rows = starts[members, None] + np.arange(t_len)
        if np.any(counts[members] != counts[members[0]]):
            raise ShapeError(f"segments of length {t_len} hold different numbers of queries")
        q_rows = q_starts[members, None] + np.arange(counts[members[0]])
        offsets = q_at[q_rows] - starts[members, None]
        if np.any(offsets != offsets[0]):
            raise ShapeError(f"segments of length {t_len} hold their queries at different offsets")
        visible = offsets[0][:, None] >= np.arange(t_len)
        ctx_h, w = masked_attention(heads(q.data, q_rows), heads(k.data, rows), heads(v.data, rows), visible)
        ctx[q_rows] = unheads(ctx_h, q_rows)
        groups.append((rows, q_rows, w))

    def bwd(g):
        gq, gk, gv = np.empty_like(g), np.empty_like(k.data), np.empty_like(v.data)
        for rows, q_rows, w in groups:  # heads gathered again, not kept: forward-only passes would hold the copies
            qh, kh, vh, gh = heads(q.data, q_rows), heads(k.data, rows), heads(v.data, rows), heads(g, q_rows)
            gw = gh @ vh.swapaxes(2, 3)
            gs = w * (gw - (w * gw).sum(axis=3, keepdims=True))
            gq[q_rows] = unheads((gs @ kh) * scale, q_rows)
            gk[rows] = unheads((gs.swapaxes(2, 3) @ qh) * scale, rows)
            gv[rows] = unheads(w.swapaxes(2, 3) @ gh, rows)
        for t, grad in ((q, gq), (k, gk), (v, gv)):
            _accum(t, grad, fresh=True)

    return _node(ctx, (q, k, v), bwd)


def masked_kl_rows(logits: Tensor, ref_logp: np.ndarray, mask: np.ndarray) -> Tensor:
    """Row-wise KL(softmax(logits over mask) || exp(ref_logp)); masked entries ignored.

    `ref_logp` holds constant reference log-probabilities on the allowed entries.
    """
    mask = np.asarray(mask, dtype=bool)
    lp = np.where(mask, logits.data - masked_logsumexp(logits.data, mask)[:, None], 0.0)
    p = np.where(mask, np.exp(lp), 0.0)
    ref = np.where(mask, ref_logp, 0.0)
    kl = (p * (lp - ref)).sum(axis=1)

    def bwd(g):
        _accum(logits, p * ((lp - ref) - kl[:, None]) * g[:, None], fresh=True)

    return _node(kl, (logits,), bwd)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam state for a fixed parameter list."""

    lr: float
    weight_decay: float
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adamw_init(params, lr: float, weight_decay: float) -> OptimizerState:
    state = OptimizerState(lr=lr, weight_decay=weight_decay)
    state.m = [np.zeros_like(p) for p in params]
    state.v = [np.zeros_like(p) for p in params]
    return state


def adamw_step(params, grads, state: OptimizerState) -> None:
    """One in-place update: decoupled decay plus bias-corrected Adam step."""
    if len(params) != len(state.m):
        raise ShapeError(f"{len(params)} params vs optimizer state of {len(state.m)}")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(f"parameter shape {p.shape} does not match gradient {g.shape}")
        if state.weight_decay:
            p -= state.lr * state.weight_decay * p
        m[:] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[:] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def clip_grad_norm(grads, max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most `max_norm` (> 0)."""
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


# ---------------------------------------------------------------------------
# Gradient validation harness
# ---------------------------------------------------------------------------


def finite_diff_check(f, params, eps: float = 1e-4) -> float:
    """Max relative error between reverse-mode gradients of f() and central differences.

    `f` must rebuild its forward pass from the current parameter values on
    every call. The denominator is guarded by max(|analytic|, |numeric|, 1e-8).
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError(f"eps must lie in (0, 1e-2], got {eps}")
    for p in params:
        p.grad = np.zeros_like(p.data)
    loss = f()
    if not np.isfinite(loss.data):
        raise EvaluationError("loss is not finite at the evaluation point")
    backward(loss)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f().data)
            flat[i] = orig - eps
            f_minus = float(f().data)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise EvaluationError("loss is not finite at a perturbed point")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst
