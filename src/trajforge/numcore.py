"""Dense float64 tensors with reverse-mode differentiation over a recorded op graph.

Every differentiable operation takes `Tensor`s and builds a node holding its
parents and a backward closure; `backward` replays the graph in reverse
topological order and consumes it, so a graph serves one `backward`. Ops inside `no_graph()` record nothing.
Gradient buffers are lazy: the first gradient to reach a node becomes its
`.grad` and later ones add into it. Leaves (tensors without a closure, such as
parameters and inputs) keep their gradients; an interior node drops its own once
its closure has run, so that closure owns its `g` and may hand it to a parent
as that parent's `.grad`. No two tensors share a gradient buffer. A leaf's `.grad`
holds the gradient of the last `backward` that reached it until the next one
replaces it. `pretrain.fit`, the epoch loop of both learners, sets every
parameter's `.grad` to None once, when its run ends (`ParamModel.release_grads`),
so a trained model holds only its parameters. It does not release them after each
step: the freed parameter-sized buffers let the allocator trim its heap, and the
next step faults the pages back in. All stochastic helpers take an explicit
counter-based RNG so replays are bit-identical.
"""

from __future__ import annotations

import dataclasses
import functools
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


class DistributionError(ValueError):
    """Raised when probabilities are not finite, non-negative and summing to 1; `row` is the first row that is not."""

    def __init__(self, row: int, problem: str):
        super().__init__(f"row {row}: {problem}")
        self.row, self.problem = row, problem


# ---------------------------------------------------------------------------
# Config fields and RNG
# ---------------------------------------------------------------------------


def is_integer(value) -> bool:
    """True for an int or a numpy integer; a bool is no integer here, nor is an integral float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def index_faults(values, stop: int, start: int = 0) -> tuple:
    """The one index check of the index column `values` (a list, a tuple, or an array read in flat order):
    (its first entry that is not an integer (`is_integer`), its first integer outside [start, stop)), each None
    when there is none. A passing integer array costs one unsigned compare (exact for start >= -2**63 and stop
    <= 2**63), a list or tuple of ints `min` and `max`; any other column, or one that fails, is read as Python
    values, so an int past int64 or an unsigned entry past 2**63 is judged as the value it holds."""
    if type(values) in (list, tuple) and set(map(type, values)) <= {int} and (not values or start <= min(values) and max(values) < stop):
        return None, None
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu" and -(2**63) <= start and stop <= 2**63:
            low = max(start, 0) if values.dtype.kind == "u" else start  # no unsigned entry is below 0
            wrapped = values.view(np.uintp) if values.dtype.itemsize == 8 else values.astype(np.uintp)
            if not np.count_nonzero((wrapped - low % 2**64 if low else wrapped) >= stop - low):  # (entry - low) mod 2**64: below low wraps huge
                return None, None
        values = values.ravel().tolist()
    integral = [is_integer(value) for value in values]
    non_integer = next((i for i, ok in enumerate(integral) if not ok), None)
    return non_integer, next((i for i, (ok, value) in enumerate(zip(integral, values)) if ok and not start <= int(value) < stop), None)


def is_real(value) -> bool:
    """True for an integer (`is_integer`) or a float whose value is finite within float64's range."""
    return (is_integer(value) or isinstance(value, (float, np.floating))) and -_FLOAT_MAX <= value <= _FLOAT_MAX


_FLOAT_MAX = float(np.finfo(np.float64).max)
_INTEGER, _REAL = (is_integer, "an integer"), (is_real, "a finite real number")
_FIELD_TYPES = {int: _INTEGER, "int": _INTEGER, float: _REAL, "float": _REAL}  # by annotation, postponed or not
AT_LEAST_1 = (lambda value: value >= 1, ">= 1")
NON_NEGATIVE = (lambda value: value >= 0, ">= 0")
POSITIVE = (lambda value: value > 0, "> 0")


def require(cfg, error: type = ValueError, **bounds) -> None:
    """The one field check: raise `error`, as `<field> must be <text>, got <value!r>`, for the first field of
    the dataclass `cfg` that breaks its rule. Types come first, in field order: an `int` field must hold an
    integer (`is_integer`) and a `float` field a finite real number (`is_real`); a bool is neither. Then the
    bounds, (test, text) pairs by field name, in the order given, so no bound meets a None or a str in a typed
    field; a bound of an untyped field must take any value, and may read a field whose bound came before it.
    So a checkpoint header cannot smuggle a bool, a fraction or a NaN into a config, nor a caller a bad trip.

    One rule serves every config and record that checks itself: it is a frozen dataclass, and its
    `__post_init__` is `require` calls, then at most `object.__setattr__` calls that store a checked field
    in a form that cannot change in place (a tuple, or a `read_only` array). So no check is undone after
    it passed, and `dataclasses.replace`, the one way to another value, runs the check again."""
    for name, (test, text) in [*_typed_fields(type(cfg)), *bounds.items()]:
        value = getattr(cfg, name)
        if not test(value):
            raise error(f"{name} must be {text}, got {value!r}")


@functools.cache
def _typed_fields(cls) -> tuple:
    """The (name, type rule) of each `int` or `float` field of the dataclass `cls`, read once per class."""
    return tuple((f.name, _FIELD_TYPES[f.type]) for f in dataclasses.fields(cls) if f.type in _FIELD_TYPES)


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only in place: a table or a checked field that readers share and none may change."""
    a.flags.writeable = False
    return a


def make_rng(*key) -> np.random.Generator:
    """Counter-based (Philox) generator keyed by a tuple of ints/strings.

    Streams with different keys are independent; the same key always yields the same stream,
    regardless of platform or process. A key part that is neither a str nor an integer (a bool is
    neither) raises TypeError: an int() cast would give 2.5 the stream of 2. An integer part outside
    the signed 128-bit range, which keys no stream, raises ValueError.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in key:
        if isinstance(part, str):
            h.update(b"s" + part.encode("utf-8"))
        elif is_integer(part):
            try:
                h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
            except OverflowError:
                raise ValueError(f"rng key part {part} is outside the signed 128-bit range") from None
        else:
            raise TypeError(f"rng key part {part!r} is neither a str nor an integer")
    seed_int = int.from_bytes(h.digest(), "little")
    return np.random.Generator(np.random.Philox(key=seed_int))


SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)  # `Generator.choice`'s tolerance on the sum of p


def inverse_cdf(p, u) -> np.ndarray:
    """The index that `Generator.choice(len(row), p=row)` draws from each row of `p` when its
    uniform double is `u`, row by row: the count of `cdf <= u`, with `cdf = cumsum(row)` divided by
    its last entry. That is `choice`'s `searchsorted(cdf, u, side="right")`, as `cdf` never
    decreases, so a generator's `random()` doubles fed in here draw what `choice` would have drawn.
    The count is read as the first entry above `u`; the last entry is 1, above every uniform.

    A row must be finite, non-negative and sum to 1 within `SUM_ATOL`, as `choice` requires;
    `DistributionError` names the first row that is not. Each `u` must lie in [0, 1), unchecked here
    (1.0, a negative or a NaN maps to index 0 whatever its probability); `synthgen.roll_out` checks it.
    """
    p = np.asarray(p, dtype=np.float64)
    cdf = np.add.accumulate(p, -1)  # `ndarray.cumsum`, and below `min` and `max`, without their Python wrappers
    if p.ndim == 2 and len(p) == 1:  # one row: its total as a Python float, which costs less than a (1, 1) array
        total = float(cdf[0, -1])
        off = abs(total - 1.0)
    else:
        total = cdf[..., -1:]
        off = np.maximum.reduce(np.abs(total - 1.0), None)
    if not (np.minimum.reduce(p, None) >= 0 and off <= SUM_ATOL):  # a NaN fails both tests, an inf the second
        rows = p.reshape(-1, p.shape[-1])
        valid = (rows >= 0).all(axis=1) & (np.abs(cdf[..., -1].reshape(-1) - 1.0) <= SUM_ATOL)
        row = int(np.argmin(valid))
        raise DistributionError(row, f"probabilities must be finite, non-negative and sum to 1, got {rows[row]}")
    cdf /= total
    return (cdf > np.asarray(u)[..., None]).argmax(axis=-1)


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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def param(rng: np.random.Generator, shape, std: float = 0.02) -> Tensor:
    """Gaussian-initialized leaf parameter."""
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
    """Populate `.grad` on every leaf reachable from `root` (root grad = 1), replacing stale ones.

    Each op's backward passes a share to every parent, so each node holds a `.grad` when its closure
    runs. Once it has run, the node's `.grad`, closure and parent links are dropped (`_parents` becomes
    None), freeing the arrays it saved, so an interior gradient lives only until its closure has passed
    it on; a later `backward` that reaches such a consumed node raises `GraphConsumedError`.
    Leaves (parameters and inputs) keep their `.grad` and are never consumed; the record keeps its order.
    """
    record = ComputationRecord.from_root(root)
    for node in record.nodes:
        node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(record.nodes):
        if node._bwd is not None:
            node._bwd(node.grad)
            node._bwd, node._parents, node.grad = None, None, None
    return record


def assert_finite(t: Tensor, what: str = "tensor") -> Tensor:
    if not np.all(np.isfinite(t.data)):
        raise EvaluationError(f"non-finite values in {what}")
    return t


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape` over its leading axes only, as a bias is broadcast."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add gradient share `g` (summed down to `t`'s shape) into `t.grad`. The first share becomes
    `t.grad`, as is when `fresh` (the caller owns `g` and hands it over: an array it made, or the
    closure's own `g`, which `backward` releases), else as a copy: no two tensors share one."""
    if g.shape != t.data.shape:
        g, fresh = _unbroadcast(g, t.data.shape), True
    if t.grad is None:
        t.grad = g if fresh else g.copy()
    else:
        t.grad += g


def _scatter_accum(t: Tensor, flat_idx: np.ndarray, g: np.ndarray) -> None:
    """Add `g` into `t.grad` at flat positions `flat_idx`, rounding exactly as `np.add.at`:
    after any gradient `t` already holds, duplicates sum in index order. One bincount over the
    whole table, at a fixed cost per gradient element: `gather_rows` takes it for repeated rows of a
    table too large for its one-hot product, and `gather_per_row` always."""
    weights = g.ravel()
    if t.grad is not None:
        flat_idx = np.concatenate([np.arange(t.data.size), flat_idx])
        weights = np.concatenate([t.grad.ravel(), weights])
    t.grad = np.bincount(flat_idx, weights=weights, minlength=t.data.size).reshape(t.data.shape)


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


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):  # `b` takes its share first, so `g` itself can go to `a` (`a is b` sums g + g either way)
        _accum(b, g)
        _accum(a, g, fresh=True)

    return _node(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        _accum(b, -g, fresh=True)
        _accum(a, g, fresh=True)

    return _node(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
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


def _check_matmul(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"{op} expects 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"{op} inner dimensions differ: {a.data.shape} x {b.data.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_matmul("matmul", a, b)

    def bwd(g):
        _accum(a, g @ b.data.T, fresh=True)
        _accum(b, a.data.T @ g, fresh=True)

    return _node(a.data @ b.data, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`add(matmul(x, w), b)` as one node, with its bits: the bias is added into the product in
    place, so the graph keeps no pre-bias product, and the backward reads `g` where `add` copied it."""
    _check_matmul("linear", x, w)
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear bias {b.data.shape} does not match weight {w.data.shape}")
    out = x.data @ w.data
    out += b.data

    def bwd(g):
        _accum(b, g)
        _accum(x, g @ w.data.T, fresh=True)
        _accum(w, x.data.T @ g, fresh=True)

    return _node(out, (x, w, b), bwd)


def concat_rows(tensors: list[Tensor]) -> Tensor:
    """Stack tensors by rows. The backward copies each slice of `g` it passes on: a view would keep
    the whole of `g` alive for as long as its parent holds the slice."""
    sizes = [t.data.shape[0] for t in tensors]

    def bwd(g):
        offset = 0
        for t, n in zip(tensors, sizes):
            _accum(t, g[offset : offset + n])
            offset += n

    return _node(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors), bwd)


# `gather_rows`' backward sums repeated rows by a one-hot product up to this many table rows, and by
# `_scatter_accum`'s bincount above it. Bincount µs / one-hot µs on a 2-core x86-64 VM, OpenBLAS at
# 1 thread, best of 15 repeats:
#   width 64, 356 indices: 16 rows 52/19, 25 rows 51/30, 32 rows 50/33, 40 rows 51/41, 51 rows 53/57
#   width 9, 256 indices:  16 rows 9.9/6.4, 25 rows 9.8/7.9, 32 rows 9.6/8.5, 40 rows 9.4/10.4
# The product wins up to 40 rows at width 64 and up to 32 at width 9.
ONEHOT_MAX_ROWS = 32


def _index_array(what: str, idx, size: int, out_of_range: str) -> np.ndarray:
    """`idx` as an intp array of entries in [0, `size`), the check of `gather_rows`, `gather_per_row`, `cross_entropy`
    and `embed_sum` (`index_faults`): first IndexError naming `what` (the op's indices) and the first entry that is
    not an integer (an int() cast reads 1.7 as 1), then IndexError `out_of_range` for an entry outside the range."""
    non_integer, outside = index_faults(idx, size)
    if non_integer is not None:
        raise IndexError(f"{what} {np.asarray(idx, dtype=object).ravel()[non_integer]!r} at entry {non_integer} is not an integer")
    if outside is not None:
        raise IndexError(out_of_range)
    return np.asarray(idx).astype(np.intp, copy=False)


def _gather_bwd(a: Tensor, idx: np.ndarray, g: np.ndarray) -> None:
    """Add the gradient `g` of the rows `a[idx]` into `a.grad`, by one of three branches:
    - more indices than rows, in a table of at most `ONEHOT_MAX_ROWS` rows: the rows must repeat, and
      the share is `onehot(idx) @ g`, which `_accum` adds after any gradient `a` already holds. That
      is within rounding of `np.add.at`, not equal to it: the share sums before it meets the prior
      gradient, and the product's order is BLAS's. A non-finite `g` reaches every row of the table.
      The product costs `rows` multiply-adds per gradient element and the bincount a fixed amount,
      so the limit sits at their measured crossover (32-40 rows; table at `ONEHOT_MAX_ROWS`);
    - repeated rows of a larger table: `_scatter_accum`'s bincount, exactly as `np.add.at`;
    - distinct rows: a fancy-index add, with the bincount's bits.
    No branch hands `g` itself to `a`, so `embed_sum` passes one `g` to every table.
    """
    rows, n = len(a.data), idx.size
    if rows < n and rows <= ONEHOT_MAX_ROWS:
        onehot = np.zeros((rows, n))
        onehot[idx.ravel(), np.arange(n)] = 1.0
        _accum(a, (onehot @ g.reshape(n, -1)).reshape(a.data.shape), fresh=True)
    elif rows < n or np.bincount(idx.ravel(), minlength=1).max() > 1:  # more indices than rows must repeat
        width = math.prod(a.data.shape[1:])
        _scatter_accum(a, (idx.reshape(-1, 1) * width + np.arange(width)).ravel(), g)
    else:  # distinct rows round as the bincount does: 0.0 + prior (a signed zero turns positive), + g
        a.grad = np.zeros_like(a.data) if a.grad is None else a.grad + 0.0
        a.grad[idx] += g


def gather_rows(a: Tensor, idx) -> Tensor:
    """Row lookup (embedding): out[i] = a[idx[i]]. Duplicate indices accumulate (`_gather_bwd`).
    IndexError names an entry of `idx` that is not an integer or not a row of `a` (`_index_array`)."""
    idx = _index_array("gather_rows index", idx, a.data.shape[0], f"gather_rows index out of range for table of {a.data.shape[0]} rows")
    return _node(a.data[idx], (a,), lambda g: _gather_bwd(a, idx, g))


def embed_sum(tables: list[Tensor], indices: list) -> Tensor:
    """Sum of row lookups as one node: out = tables[0][indices[0]] + tables[1][indices[1]] + ...

    A token embedding of k tables is one graph node here, not k `gather_rows` and k - 1 `add`s. The
    rows are added in list order into one buffer, so the output has the bits of the chain
    `add(add(gather_rows(t0, i0), gather_rows(t1, i1)), ...)`. The backward passes its `g` to every
    table in list order through `gather_rows`' branches (`_gather_bwd`), as the chain's gathers
    receive it, so every table's gradient keeps the chain's bits too; a tensor listed twice takes
    both shares. ShapeError for no tables, a count of index arrays other than of tables, or index
    shapes or row shapes that differ; IndexError as `gather_rows`, naming the table by its place.
    """
    if not tables or len(indices) != len(tables):
        raise ShapeError(f"embed_sum takes one index array per table, got {len(indices)} for {len(tables)} tables")
    idxs = [
        _index_array(f"embed_sum table {i} index", idx, len(t.data), f"embed_sum table {i} index out of range for {len(t.data)} rows")
        for i, (t, idx) in enumerate(zip(tables, indices))
    ]
    for i, (t, idx) in enumerate(zip(tables, idxs)):
        if idx.shape != idxs[0].shape or t.data.shape[1:] != tables[0].data.shape[1:]:
            raise ShapeError(
                f"embed_sum table {i}: rows {t.data.shape[1:]} at indices {idx.shape}, table 0's {tables[0].data.shape[1:]} at {idxs[0].shape}"
            )
    out = tables[0].data[idxs[0]]
    for t, idx in zip(tables[1:], idxs[1:]):
        out += t.data[idx]

    def bwd(g):
        for t, idx in zip(tables, idxs):
            _gather_bwd(t, idx, g)

    return _node(out, tuple(tables), bwd)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop of `a`; the gradient reaches those rows only."""

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[start:stop] += g

    return _node(a.data[start:stop], (a,), bwd)


def gather_per_row(a: Tensor, idx) -> Tensor:
    """out[i] = a[i, idx[i]] for a 2-D tensor; ShapeError unless `idx` has one column per row, IndexError for a bad one (`_index_array`)."""
    if np.shape(idx) != (len(a.data),):  # a shorter column would broadcast over every row
        raise ShapeError(f"gather_per_row index shape {np.shape(idx)} != ({len(a.data)},)")
    idx = _index_array("gather_per_row column index", idx, a.data.shape[1], "gather_per_row column index out of range")
    rows = np.arange(a.data.shape[0])

    def bwd(g):
        _scatter_accum(a, rows * a.data.shape[1] + idx, g)

    return _node(a.data[rows, idx], (a,), bwd)


def masked_logsumexp(x, mask) -> np.ndarray:
    """log sum exp of `x` over the entries where `mask` is True, along the last axis.

    Max-shifted for stability; masked entries contribute exactly nothing, and a
    slice with no allowed entry is rejected. `masked_log_softmax` turns it into log-probabilities.
    """
    return _masked_lse(x, mask)[1][..., 0]


def _masked_lse(x, mask) -> tuple[np.ndarray, np.ndarray]:
    """`x` as a float64 array, and `masked_logsumexp` of it with the last axis kept (of length 1).
    Each step after the max runs in place in the one buffer."""
    x = np.asarray(x, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise ShapeError(f"mask shape {mask.shape} != data shape {x.shape}")
    shifted = np.where(mask, x, -np.inf)
    if x.ndim == 2 and len(x) == 1:  # one row: its max as a Python float, which costs less than a (1, 1) array
        m = float(np.maximum.reduce(shifted, None, initial=-np.inf))
        empty = not m > -np.inf
    else:
        m = np.maximum.reduce(shifted, -1, keepdims=True, initial=-np.inf)
        empty = not np.minimum.reduce(m, None, initial=np.inf) > -np.inf
    # a row with no allowed entry has max -inf; the mask is read only then, as reading it costs more than the max
    if empty and not mask.any(axis=-1).all():
        raise ValueError("masked_logsumexp: a row has no allowed entries")
    shifted -= m
    np.exp(shifted, out=shifted)
    lse = np.add.reduce(shifted, -1, keepdims=True)
    np.log(lse, out=lse)
    lse += m
    return x, lse


def masked_log_softmax(x, mask) -> np.ndarray:
    """Log-softmax of `x` over the entries where `mask` is True, along the last axis; exactly -inf
    elsewhere, whatever `x` holds there. The one masked softmax of the policy, critic and oracle."""
    x, lse = _masked_lse(x, mask)
    return np.where(mask, x - lse, -np.inf)


def masked_logsumexp_rows(a: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise masked_logsumexp of a 2-D tensor; its gradient is the masked softmax, taken from the
    forward's log-sum-exp with the bits of `exp(masked_log_softmax(x, mask))`."""
    x = a.data
    mask = np.asarray(mask, dtype=bool)
    out_val = masked_logsumexp(x, mask)

    def bwd(g):
        _accum(a, np.exp(np.where(mask, x - out_val[:, None], -np.inf)) * g[:, None], fresh=True)

    return _node(out_val, (a,), bwd)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean of -log softmax(logits)[i, targets[i]] over rows; IndexError names a bad target (`_index_array`)."""
    n, vocab = logits.data.shape
    if np.shape(targets) != (n,):
        raise ShapeError(f"targets shape {np.shape(targets)} != ({n},)")
    targets = _index_array("cross_entropy target", targets, vocab, f"target index out of range for vocabulary of {vocab}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = masked_logsumexp(shifted, np.ones(shifted.shape, dtype=bool))
    nll = lse - shifted[np.arange(n), targets]

    def bwd(g):
        p = np.exp(shifted - lse[:, None])
        p[np.arange(n), targets] -= 1.0
        _accum(logits, (g / n) * p, fresh=True)

    return _node(nll.mean(), (logits,), bwd)


def _normalize(x: np.ndarray, eps: float):
    """`x` at zero mean and unit variance along its last axis: (normalized x, 1 / std of each row),
    the normalized x in a new array.

    Means are sums over the width, which round exactly as `ndarray.mean` at a fraction of its overhead.
    A (1, d) input takes its row's mean and variance as Python floats, with the same bits (the sums
    run over the same contiguous row, and `math.sqrt` rounds as `np.sqrt`), and returns its 1 / std
    as a float: at one row, the (1, 1) arrays cost more than the arithmetic.
    """
    d = x.shape[-1]
    if x.ndim == 2 and len(x) == 1:
        xhat = x - float(np.add.reduce(x, None)) / d
        inv_std = 1.0 / math.sqrt(float(np.add.reduce(xhat * xhat, None)) / d + eps)
    else:
        xhat = x - x.sum(axis=-1, keepdims=True) / d
        inv_std = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d + eps)
    xhat *= inv_std
    return xhat, inv_std


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Forward formula of `layer_norm` on arrays, in one buffer: the normalized x (`_normalize`) is
    scaled and shifted in place into the output, with the bits of `xhat * gain + bias`."""
    out, _ = _normalize(x, eps)
    out *= gain
    out += bias
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    One-buffer rule: with no graph recorded, the output is `layer_norm_fwd`'s, built in the array of
    the normalized x. A recorded node keeps the normalized x and 1 / std for its backward, so its
    output is a second array, made with the same in-place steps and so with the same bits.
    """
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},)")
    if not _recording:
        return Tensor(layer_norm_fwd(x.data, gain.data, bias.data, eps))
    xhat, inv_std = _normalize(x.data, eps)
    out_val = xhat * gain.data
    out_val += bias.data

    def bwd(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=reduce_axes), fresh=True)
        _accum(bias, g.sum(axis=reduce_axes), fresh=True)
        dxhat = g * gain.data
        dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        _accum(x, dx, fresh=True)

    return _node(out_val, (x, gain, bias), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """GELU's `t = tanh(c (x + 0.044715 x^3))` in one new array, built in place with the bits of that
    whole-array formula: every step only commutes its operands. Powers by multiplication, which is
    far cheaper than `**`."""
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_out(t: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """GELU's output `((1 + t) * 0.5) * x` in place in `out`, which may be `t` itself. It equals
    `(0.5 * x) * (1 + t)`, as halving is exact except below 2^-1021, where `1 + t` is exactly 1."""
    np.add(t, 1.0, out=out)
    out *= 0.5
    out *= x
    return out


def gelu_fwd(x: np.ndarray) -> np.ndarray:
    """Forward formula of `gelu` on arrays, tanh approximation 0.5 x (1 + tanh(c (x + 0.044715 x^3))),
    in one buffer: the output is built in place in the array of `t` (`_gelu_tanh`, `_gelu_out`)."""
    t = _gelu_tanh(x)
    return _gelu_out(t, x, t)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation (`gelu_fwd`).

    One-buffer rule: with no graph recorded, the output is `gelu_fwd`'s, built in the array of `t`.
    A recorded node keeps `t` and reads `x`'s data, so its output is a second array, made with the
    same in-place steps and so with the same bits. The backward builds `g * (0.5 (1 + t) + 0.5 x
    (1 - t^2) c (1 + 3 * 0.044715 x^2))` in two scratch arrays, step by step in that formula's order
    with at most its operands commuted, so with its bits.
    """
    if not _recording:
        return Tensor(gelu_fwd(x.data))
    t = _gelu_tanh(x.data)
    out_val = _gelu_out(t, x.data, np.empty_like(t))

    def bwd(g):
        xd = x.data
        term = xd * 0.5
        s = t * t
        np.subtract(1.0, s, out=s)  # sech^2
        term *= s
        np.multiply(xd, xd, out=s)
        s *= 3 * 0.044715
        s += 1.0
        s *= _GELU_C  # d inner / dx
        term *= s
        np.add(t, 1.0, out=s)
        s *= 0.5
        s += term
        s *= g
        _accum(x, s, fresh=True)

    return _node(out_val, (x,), bwd)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    """Leaky ReLU as max(x, slope * x), valid for 0 <= slope <= 1 and cheaper than selecting on the sign;
    the backward's factor is likewise max(x >= 0, slope): 1 or `slope`, as the mask picks."""

    def bwd(g):
        _accum(x, g * np.maximum(x.data >= 0, slope), fresh=True)

    return _node(np.maximum(x.data, slope * x.data), (x,), bwd)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def bwd(g):
        _accum(x, np.full(x.data.shape, g / n), fresh=True)

    return _node(x.data.mean(), (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no RNG is supplied.

    Keeps entry i where `rng.random(shape)[i] >= rate`. The node keeps that boolean mask, 1 byte an
    entry, and both passes multiply by `keep / (1 - rate)`, the bits of `mul_const` by that array.
    """
    if rng is None or rate <= 0.0:
        return x
    keep = rng.random(x.data.shape) >= rate

    def bwd(g):
        g *= keep / (1.0 - rate)
        _accum(x, g, fresh=True)

    return _node(x.data * (keep / (1.0 - rate)), (x,), bwd)


def masked_attention(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, hidden: np.ndarray | None):
    """Forward formula of attention on per-head arrays: (context, weights).

    `qh` is (..., rows, head dim) and `kh`, `vh` are (..., keys, head dim); query row i attends to
    key j unless `hidden[i, j]`, and to every key when `hidden` is None, with softmax(q k^T /
    sqrt(head dim)) weights. The weights are built in the one scores buffer: scaled, masked,
    shifted, exponentiated and normalised in place, each step with the bits of its out-of-place form.
    """
    w = qh @ kh.swapaxes(-1, -2)
    w *= 1.0 / math.sqrt(qh.shape[-1])
    if hidden is not None:
        np.copyto(w, -np.inf, where=hidden)
    w -= np.maximum.reduce(w, -1, keepdims=True)
    np.exp(w, out=w)
    w /= np.add.reduce(w, -1, keepdims=True)
    return w @ vh, w


@dataclass(frozen=True)
class SegmentPlan:
    """How `block_causal_attention` runs a list of segments, built once by `segment_plan` and read by every layer."""

    order: np.ndarray  # the sequence's rows with the segments stably sorted by length: plan row i is row order[i]
    blocks: tuple  # (first plan row, segments, length, causal mask) for each length, shortest first


def segment_plan(lengths) -> SegmentPlan:
    """The plan of contiguous segments of `lengths` rows each, in sequence order.

    A stable sort by length puts the segments of each length next to each other, so each length is one
    block of plan rows, run as one stacked product, with one causal mask: a query sees its own row and
    the rows before it in its segment. ShapeError names the first segment whose length is not an
    integer, then the first outside [1, 2**63) (`index_faults`).
    """
    non_integer, outside = index_faults(lengths, 2**63, start=1)
    if non_integer is not None:
        raise ShapeError(f"segment {non_integer} length must be an integer, got {np.asarray(lengths, dtype=object)[non_integer]!r}")
    if outside is not None:
        raise ShapeError(f"segment {outside} length must be {'>= 1' if lengths[outside] < 1 else 'below 2**63'}, got {lengths[outside]}")
    lengths = np.asarray(lengths, dtype=np.intp)
    by_length = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[by_length]
    plan_starts = np.cumsum(sorted_lengths) - sorted_lengths  # each segment's first plan row
    starts = np.cumsum(lengths) - lengths
    order = np.repeat(starts[by_length] - plan_starts, sorted_lengths) + np.arange(int(lengths.sum()))
    blocks = []
    if len(lengths):
        hidden = np.triu(np.ones((sorted_lengths[-1],) * 2, dtype=bool), 1)
        t_lens, firsts, counts = np.unique(sorted_lengths, return_index=True, return_counts=True)
        for t_len, first, count in zip(t_lens.tolist(), firsts.tolist(), counts.tolist()):
            blocks.append((int(plan_starts[first]), count, t_len, hidden[:t_len, :t_len]))
    return SegmentPlan(order, tuple(blocks))


def block_causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, plan: SegmentPlan) -> Tensor:
    """Multi-head causal attention applied independently to contiguous row segments.

    `plan` (`segment_plan`) lists the segments of the rows of `q`, `k` and `v`, which hold one row per
    token each; a row attends to itself and earlier rows of its segment. q, k and v are permuted into
    plan order once; each block's heads are reshaped views of its rows there, (segments, heads, length,
    head dim), so the segments of one length run as one stacked `masked_attention` with the block's
    mask. The context, and in the backward each gradient, is written block by block and put back in
    sequence order once. The backward permutes q, k, v and `g` again rather than keep sorted copies, which would
    cost a recorded graph three (rows, d) arrays per layer until its backward (a `no_graph` pass records no closure).
    """
    n_keys = k.data.shape[0]
    if len(plan.order) != n_keys or v.data.shape[0] != n_keys:
        raise ShapeError("segment lengths do not cover the sequence")
    if q.data.shape[0] != n_keys:
        raise ShapeError(f"q has {q.data.shape[0]} rows for {n_keys} keys")
    d = q.data.shape[1]
    if d % n_heads != 0:
        raise ShapeError(f"model width {d} not divisible by {n_heads} heads")
    hd = d // n_heads
    scale = 1.0 / math.sqrt(hd)
    order = plan.order

    def heads(x, block):  # a view of the block's plan rows of `x` as (segments, heads, length, hd)
        start, count, t_len, _ = block
        return x[start : start + count * t_len].reshape(count, t_len, n_heads, hd).transpose(0, 2, 1, 3)

    def unsort(x):
        out = np.empty_like(x)
        out[order] = x
        return out

    qs, ks, vs = q.data[order], k.data[order], v.data[order]
    ctx = np.empty_like(qs)
    weights = []
    for block in plan.blocks:
        ctx_h, w = masked_attention(heads(qs, block), heads(ks, block), heads(vs, block), block[3])
        heads(ctx, block)[...] = ctx_h
        weights.append(w)

    def bwd(g):
        qs, ks, vs, gs = q.data[order], k.data[order], v.data[order], g[order]
        gq, gk, gv = np.empty_like(gs), np.empty_like(ks), np.empty_like(vs)
        for block, w in zip(plan.blocks, weights):
            qh, kh, vh, gh = (heads(x, block) for x in (qs, ks, vs, gs))
            gw = gh @ vh.swapaxes(2, 3)
            gw = w * (gw - (w * gw).sum(axis=3, keepdims=True))  # the scores' gradient
            heads(gq, block)[...] = (gw @ kh) * scale
            heads(gk, block)[...] = (gw.swapaxes(2, 3) @ qh) * scale
            heads(gv, block)[...] = w.swapaxes(2, 3) @ gh
        for t, grad in ((q, gq), (k, gk), (v, gv)):
            _accum(t, unsort(grad), fresh=True)

    return _node(unsort(ctx), (q, k, v), bwd)


def masked_kl_rows(logits: Tensor, ref_logp: np.ndarray, mask: np.ndarray) -> Tensor:
    """Row-wise KL(softmax(logits over mask) || exp(ref_logp)); masked entries ignored.

    `ref_logp` holds constant reference log-probabilities on the allowed entries.
    """
    mask = np.asarray(mask, dtype=bool)
    log_p = masked_log_softmax(logits.data, mask)
    p, lp = np.exp(log_p), np.where(mask, log_p, 0.0)
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
    """Decoupled-weight-decay Adam state for one parameter vector."""

    lr: float
    weight_decay: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adamw_init(vector: np.ndarray, lr: float, weight_decay: float) -> OptimizerState:
    return OptimizerState(lr, weight_decay, np.zeros_like(vector), np.zeros_like(vector))


def adamw_step(vector: np.ndarray, grad: np.ndarray, state: OptimizerState) -> None:
    """One in-place update of `vector`: decoupled decay plus bias-corrected Adam step.

    `vector`, `state.m` and `state.v` are updated in place through two scratch arrays made per call,
    in the operation order of `vector -= lr * wd * vector`, `m = b1 * m + (1 - b1) * grad`,
    `v = b2 * v + (1 - b2) * (grad * grad)` and `vector -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`,
    so they hold those formulas' bits. `grad` is left as it is.
    """
    if not vector.shape == grad.shape == state.m.shape == state.v.shape:
        raise ShapeError(
            f"parameter vector {vector.shape}, gradient {grad.shape}, optimizer state {state.m.shape} and {state.v.shape}"
        )
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    m, v = state.m, state.v
    s1, s2 = np.empty_like(vector), np.empty_like(vector)
    if state.weight_decay:
        np.multiply(state.lr * state.weight_decay, vector, out=s1)
        vector -= s1
    m *= ADAM_BETA1
    np.multiply(1.0 - ADAM_BETA1, grad, out=s1)
    m += s1
    np.multiply(grad, grad, out=s1)
    s1 *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += s1
    np.divide(m, bc1, out=s1)
    s1 *= state.lr
    np.divide(v, bc2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += ADAM_EPS
    s1 /= s2
    vector -= s1


def clip_grad_norm(grads, max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most `max_norm` (> 0); return the norm
    before clipping. A non-finite norm leaves them as they are: a scale of 0 would turn an inf into NaN."""
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if max_norm < total < math.inf:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
