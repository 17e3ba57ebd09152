"""Dense float64 tensors with reverse-mode differentiation over a recorded op graph.

Every differentiable operation builds a node holding its parents and a backward
closure; `backward` replays the recorded graph in reverse topological order.
Gradient buffers are lazy: the first gradient to reach a node becomes its
`.grad` and later ones add into it, so no node shares its buffer with another.
All stochastic helpers take an explicit counter-based RNG so replays are
bit-identical.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class EvaluationError(RuntimeError):
    """Raised when a checked function produces a non-finite value."""


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

    # Light operator sugar; the module-level functions are the real API.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul_const(self, -1.0)


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
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return record


def backward(root: Tensor) -> ComputationRecord:
    """Populate `.grad` on every node reachable from `root` (root grad = 1), replacing stale ones.

    Ops add their parents' shares through `_accum`; a node that no share reached gets zeros.
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


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, (a, b))

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    out._bwd = bwd
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data, (a, b))

    def bwd(g):
        _accum(a, g)
        _accum(b, -g, fresh=True)

    out._bwd = bwd
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data, (a, b))

    def bwd(g):
        _accum(a, g * b.data, fresh=True)
        _accum(b, g * a.data, fresh=True)

    out._bwd = bwd
    return out


def mul_const(a: Tensor, c) -> Tensor:
    """Multiply by a constant (scalar or ndarray); no gradient flows into `c`."""
    c = np.asarray(c, dtype=np.float64)
    out = Tensor(a.data * c, (a,))

    def bwd(g):
        _accum(a, g * c, fresh=True)

    out._bwd = bwd
    return out


def add_const(a: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=np.float64)
    out = Tensor(a.data + c, (a,))

    def bwd(g):
        _accum(a, g)

    out._bwd = bwd
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data, (a, b))

    def bwd(g):
        _accum(a, g @ b.data.T, fresh=True)
        _accum(b, a.data.T @ g, fresh=True)

    out._bwd = bwd
    return out


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T, (a,))

    def bwd(g):
        _accum(a, g.T)

    out._bwd = bwd
    return out


def concat_rows(tensors) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[0] for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors))

    def bwd(g):
        offset = 0
        for t, n in zip(tensors, sizes):
            _accum(t, g[offset : offset + n])
            offset += n

    out._bwd = bwd
    return out


def concat_cols(tensors) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[1] for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors))

    def bwd(g):
        offset = 0
        for t, n in zip(tensors, sizes):
            _accum(t, g[:, offset : offset + n])
            offset += n

    out._bwd = bwd
    return out


def gather_rows(a: Tensor, idx) -> Tensor:
    """Row lookup (embedding): out[i] = a[idx[i]]. Duplicate indices accumulate."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError(f"gather_rows index out of range for table of {a.data.shape[0]} rows")
    out = Tensor(a.data[idx], (a,))

    def bwd(g):
        width = math.prod(a.data.shape[1:])
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
        _scatter_accum(a, flat, g)

    out._bwd = bwd
    return out


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(a.data[:, start:stop], (a,))

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[:, start:stop] += g

    out._bwd = bwd
    return out


def gather_per_row(a: Tensor, idx) -> Tensor:
    """out[i] = a[i, idx[i]] for a 2-D tensor."""
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(a.data.shape[0])
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[1]):
        raise IndexError("gather_per_row column index out of range")
    out = Tensor(a.data[rows, idx], (a,))

    def bwd(g):
        _scatter_accum(a, rows * a.data.shape[1] + idx, g)

    out._bwd = bwd
    return out


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
    out = Tensor(out_val, (a,))

    def bwd(g):
        p = np.exp(np.where(mask, x - out_val[:, None], -np.inf))
        _accum(a, p * g[:, None], fresh=True)

    out._bwd = bwd
    return out


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
    out = Tensor(nll.mean(), (logits,))

    def bwd(g):
        p = np.exp(shifted - lse[:, None])
        p[np.arange(n), targets] -= 1.0
        _accum(logits, (g / n) * p, fresh=True)

    out._bwd = bwd
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},)")
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = Tensor(xhat * gain.data + bias.data, (x, gain, bias))

    def bwd(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=reduce_axes), fresh=True)
        _accum(bias, g.sum(axis=reduce_axes), fresh=True)
        dxhat = g * gain.data
        dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        _accum(x, dx, fresh=True)

    out._bwd = bwd
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation; powers by multiplication, which is far cheaper than `**`."""
    inner = _GELU_C * (x.data + 0.044715 * (x.data * x.data * x.data))
    t = np.tanh(inner)
    out = Tensor(0.5 * x.data * (1.0 + t), (x,))

    def bwd(g):
        sech2 = 1.0 - t * t
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (x.data * x.data))
        _accum(x, g * (0.5 * (1.0 + t) + 0.5 * x.data * sech2 * d_inner), fresh=True)

    out._bwd = bwd
    return out


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    pos = x.data >= 0
    out = Tensor(np.where(pos, x.data, slope * x.data), (x,))

    def bwd(g):
        _accum(x, g * np.where(pos, 1.0, slope), fresh=True)

    out._bwd = bwd
    return out


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    out = Tensor(x.data.mean(), (x,))

    def bwd(g):
        _accum(x, np.full(x.data.shape, g / n), fresh=True)

    out._bwd = bwd
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum(), (x,))

    def bwd(g):
        _accum(x, np.full(x.data.shape, g), fresh=True)

    out._bwd = bwd
    return out


def dot_const(v: Tensor, w) -> Tensor:
    """Weighted sum sum(v * w) with constant weights `w`."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != v.data.shape:
        raise ShapeError(f"weights shape {w.shape} != vector shape {v.data.shape}")
    out = Tensor(float(np.dot(v.data.ravel(), w.ravel())), (v,))

    def bwd(g):
        _accum(v, g * w, fresh=True)

    out._bwd = bwd
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no RNG is supplied."""
    if rng is None or rate <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return mul_const(x, keep)


def block_causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, segments):
    """Multi-head causal attention applied independently to contiguous row segments.

    `segments` lists each segment's length; a row attends to itself and earlier rows of its
    segment. Segments of equal length run as one stacked matmul. Returns (context, list of
    per-segment (n_heads, T, T) weight arrays in segment order).
    """
    if sum(segments) != q.data.shape[0]:
        raise ShapeError("segment lengths do not cover the sequence")
    d = q.data.shape[1]
    if d % n_heads != 0:
        raise ShapeError(f"model width {d} not divisible by {n_heads} heads")
    hd = d // n_heads
    scale = 1.0 / math.sqrt(hd)
    lengths = np.asarray(segments, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths

    def heads(x, rows):  # (G, T) row indices -> (G, heads, T, hd)
        return x[rows].reshape(*rows.shape, n_heads, hd).transpose(0, 2, 1, 3)

    def unheads(xh, rows):
        return xh.transpose(0, 2, 1, 3).reshape(*rows.shape, d)

    ctx = np.empty_like(q.data)
    weights = [None] * len(lengths)
    groups = []
    for t_len in np.unique(lengths):
        members = np.flatnonzero(lengths == t_len)
        rows = starts[members, None] + np.arange(t_len)
        qh, kh, vh = heads(q.data, rows), heads(k.data, rows), heads(v.data, rows)
        scores = (qh @ kh.swapaxes(2, 3)) * scale
        scores = np.where(np.tril(np.ones((t_len, t_len), dtype=bool)), scores, -np.inf)
        e = np.exp(scores - scores.max(axis=3, keepdims=True))
        w = e / e.sum(axis=3, keepdims=True)
        ctx[rows] = unheads(w @ vh, rows)
        for j, m in enumerate(members):
            weights[m] = w[j]
        groups.append((rows, w))
    out = Tensor(ctx, (q, k, v))

    def bwd(g):
        gq, gk, gv = np.empty_like(g), np.empty_like(g), np.empty_like(g)
        for rows, w in groups:  # heads gathered again, not kept: forward-only passes would hold the copies
            qh, kh, vh, gh = heads(q.data, rows), heads(k.data, rows), heads(v.data, rows), heads(g, rows)
            gw = gh @ vh.swapaxes(2, 3)
            gs = w * (gw - (w * gw).sum(axis=3, keepdims=True))
            gq[rows] = unheads((gs @ kh) * scale, rows)
            gk[rows] = unheads((gs.swapaxes(2, 3) @ qh) * scale, rows)
            gv[rows] = unheads(w.swapaxes(2, 3) @ gh, rows)
        for t, grad in ((q, gq), (k, gk), (v, gv)):
            _accum(t, grad, fresh=True)

    out._bwd = bwd
    return out, weights


def masked_kl_rows(logits: Tensor, ref_logp: np.ndarray, mask: np.ndarray) -> Tensor:
    """Row-wise KL(softmax(logits over mask) || exp(ref_logp)); masked entries ignored.

    `ref_logp` holds constant reference log-probabilities on the allowed entries.
    """
    mask = np.asarray(mask, dtype=bool)
    lp = np.where(mask, logits.data - masked_logsumexp(logits.data, mask)[:, None], 0.0)
    p = np.where(mask, np.exp(lp), 0.0)
    ref = np.where(mask, ref_logp, 0.0)
    kl = (p * (lp - ref)).sum(axis=1)
    out = Tensor(kl, (logits,))

    def bwd(g):
        _accum(logits, p * ((lp - ref) - kl[:, None]) * g[:, None], fresh=True)

    out._bwd = bwd
    return out


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam state for a fixed parameter list."""

    lr: float
    weight_decay: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adamw_init(params, lr: float, weight_decay: float, beta1: float = 0.9, beta2: float = 0.999) -> OptimizerState:
    state = OptimizerState(lr=lr, weight_decay=weight_decay, beta1=beta1, beta2=beta2)
    state.m = [np.zeros_like(p) for p in params]
    state.v = [np.zeros_like(p) for p in params]
    return state


def adamw_step(params, grads, state: OptimizerState) -> None:
    """One in-place update: decoupled decay plus bias-corrected Adam step."""
    if len(params) != len(state.m):
        raise ShapeError(f"{len(params)} params vs optimizer state of {len(state.m)}")
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(f"parameter shape {p.shape} does not match gradient {g.shape}")
        if state.weight_decay:
            p -= state.lr * state.weight_decay * p
        m[:] = state.beta1 * m + (1.0 - state.beta1) * g
        v[:] = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def clip_grad_norm(grads, max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most `max_norm`."""
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
