"""In-memory span tracer installed around trajforge's public functions from outside.

`Tracer.install()` replaces every public function of the traced modules with a
timing wrapper. It patches the defining module and every other traced module
that bound the same function by `from ... import`, so calls are caught where
the name is looked up. numcore ops additionally get their returned tensor's
`_bwd` closure wrapped, which times the op's share of `numcore.backward`.

Spans are kept in parallel arrays (name, start, end, parent, group, n, aux) and
written out once at the end. A group is a step, trip or reward call: the
functions in GROUP_ROOTS open a new group on entry, and every span opened
until the next root shares its id.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from trajforge import netgrid, numcore, pretrain, rewardirl, synthgen, tokenizer, trajmodel

MODULES = (numcore, netgrid, synthgen, tokenizer, trajmodel, pretrain, rewardirl)

# Leaf layers: a call made while a span of the same layer is open is part of
# that span (numcore.dropout calls mul_const; netgrid methods call
# action_shift), so it records nothing of its own.
LEAF_LAYERS = ("trajforge.numcore", "trajforge.netgrid")

GROUP_ROOTS = frozenset(
    {
        "pretrain.supervised_loss",
        "rewardirl.iq_loss",
        "pretrain.eval_policy",
        "trajmodel.generate_scored",
        "rewardirl.recover_reward",
        "synthgen.gen_trajectory",
    }
)


# Counts stored on a span: (n, aux) drawn from the call's result.
COUNTERS = {
    "numcore.backward": lambda record: (len(record.nodes), 0),
    "trajmodel.forward_batch": lambda out: (3 * sum(out.sizes), len(out.sizes)),
    "trajmodel.generate_scored": lambda res: (len(res.trajectory.actions), int(res.trajectory.flag == "truncated")),
    "tokenizer.windowize": lambda windows: (len(windows), 0),
}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Spans of the wrapped calls; `install` patches the modules and `uninstall` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.group = array("i")
        self.n = array("q")
        self.aux = array("q")
        self.group_kind: list[str] = []
        self.current_group = -1
        self._stack: list[int] = []
        self._inside = {layer: 0 for layer in LEAF_LAYERS}
        self._paused = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def new_group(self, kind: str) -> int:
        self.group_kind.append(kind)
        self.current_group = len(self.group_kind) - 1
        return self.current_group

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.group.append(self.current_group)
        self.n.append(0)
        self.aux.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside record no spans (the benchmark's own checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, module, fname: str, fn):
        qual = f"{_short(module)}.{fname}"
        name_id = self._intern(qual)
        times_bwd = module is numcore
        bwd_id = self._intern(qual + ".bwd") if times_bwd else -1
        layer = module.__name__
        leaf = layer in self._inside
        root = qual in GROUP_ROOTS
        counter = COUNTERS.get(qual)
        inside = self._inside

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused or (leaf and inside[layer]):
                return fn(*args, **kwargs)
            if root:
                self.new_group(qual)
            i = self._open(name_id)
            if leaf:
                inside[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if leaf:
                    inside[layer] -= 1
                self._close(i)
            if counter is not None:
                self.n[i], self.aux[i] = counter(result)
            if times_bwd:
                self._wrap_bwd(result, bwd_id)
            return result

        return wrapper

    def _wrap_bwd(self, result, bwd_id: int) -> None:
        t = result[0] if isinstance(result, tuple) and result else result
        if not isinstance(t, numcore.Tensor) or t._bwd is None or getattr(t._bwd, "traced", False):
            return
        raw = t._bwd

        def timed(g):
            i = self._open(bwd_id)
            try:
                raw(g)
            finally:
                self._close(i)

        timed.traced = True
        t._bwd = timed

    def install(self) -> None:
        for module in MODULES:
            for fname, fn in list(vars(module).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(module, fname, fn)
                for holder in MODULES:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "group": np.array(self.group, dtype=np.int32),
            "n": np.array(self.n, dtype=np.int64),
            "aux": np.array(self.aux, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            group_kind=np.array(self.group_kind),
            **self.arrays(),
        )


NUMCORE_OPS = (
    "gather_rows",
    "add",
    "sub",
    "mul",
    "mul_const",
    "concat_rows",
    "concat_cols",
    "layer_norm",
    "matmul",
    "block_causal_attention",
    "gelu",
    "dropout",
    "cross_entropy",
    "leaky_relu",
    "masked_logsumexp_rows",
    "gather_per_row",
    "mean_all",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over everything the tracer recorded."""
    a = tracer.arrays()
    dur_ms = (a["end"] - a["start"]) * 1e3
    kinds = np.array(tracer.group_kind + [""])  # group -1 (none) maps to ""
    span_kind = kinds[a["group"]]
    ids = {name: i for i, name in enumerate(tracer.names)}

    def sel(name):
        return a["name"] == ids.get(name, -1)

    def calls(name):
        return int(sel(name).sum())

    def ms(name):
        return float(dur_ms[sel(name)].sum())

    def child_ms(parent_name, child_name=None):
        """Time of spans whose parent is a `parent_name` span."""
        parents = np.flatnonzero(sel(parent_name))
        m = np.isin(a["parent"], parents)
        if child_name is not None:
            m &= sel(child_name)
        return float(dur_ms[m].sum())

    def ratio(x, y):
        return x / y if y else 0.0

    out: dict[str, float] = {}
    for op in NUMCORE_OPS:
        out[f"numcore.{op}.calls"] = calls(f"numcore.{op}")
        out[f"numcore.{op}.fwd_ms"] = ms(f"numcore.{op}")
        out[f"numcore.{op}.bwd_ms"] = ms(f"numcore.{op}.bwd")
    out["numcore.backward.calls"] = calls("numcore.backward")
    out["numcore.backward.ms"] = ms("numcore.backward")
    out["numcore.backward.nodes"] = int(a["n"][sel("numcore.backward")].sum())
    out["numcore.backward.self_ms"] = ms("numcore.backward") - child_ms("numcore.backward")
    for fn in ("adamw_step", "clip_grad_norm"):
        out[f"numcore.{fn}.calls"] = calls(f"numcore.{fn}")
        out[f"numcore.{fn}.ms"] = ms(f"numcore.{fn}")

    fb = sel("trajmodel.forward_batch")
    out["trajmodel.forward_batch.calls"] = int(fb.sum())
    out["trajmodel.forward_batch.ms"] = float(dur_ms[fb].sum())
    out["trajmodel.forward_batch.tokens_per_call"] = ratio(float(a["n"][fb].sum()), int(fb.sum()))
    out["trajmodel.forward.calls"] = calls("trajmodel.forward")
    for fn in ("batch_nll", "generate_scored", "sample_action", "masked_log_probs"):
        out[f"trajmodel.{fn}.calls"] = calls(f"trajmodel.{fn}")
        out[f"trajmodel.{fn}.ms"] = ms(f"trajmodel.{fn}")
    gen = sel("trajmodel.generate_scored")
    trips = int(gen.sum())
    moves = float(a["n"][gen].sum())
    gen_tokens = float(a["n"][fb & (span_kind == "trajmodel.generate_scored")].sum())
    out["trajmodel.gen.tokens_per_decision"] = ratio(gen_tokens, moves)
    out["trajmodel.gen.useful_logit_frac"] = ratio(moves, gen_tokens / 3)  # one logit row per state token
    out["trajmodel.gen.moves_mean"] = ratio(moves, trips)
    out["trajmodel.gen.truncated_frac"] = ratio(float(a["aux"][gen].sum()), trips)

    for fn in ("feasible_actions", "hops_to", "apply_action"):
        out[f"netgrid.{fn}.calls"] = calls(f"netgrid.{fn}")
        out[f"netgrid.{fn}.ms"] = ms(f"netgrid.{fn}")

    for fn in ("transitions_from_dataset", "feasible_mask", "iq_loss", "q_values_batch", "recover_reward", "v_star", "critic_policy"):
        out[f"rewardirl.{fn}.calls"] = calls(f"rewardirl.{fn}")
        out[f"rewardirl.{fn}.ms"] = ms(f"rewardirl.{fn}")

    # A step is one loss call followed by pretrain.apply_step; the critic's
    # steps use the same apply_step, so they are counted here too.
    out["pretrain.steps"] = calls("pretrain.apply_step")
    out["pretrain.step.forward_ms"] = ms("pretrain.supervised_loss") + ms("rewardirl.iq_loss")
    out["pretrain.step.backward_ms"] = child_ms("pretrain.apply_step", "numcore.backward")
    out["pretrain.step.optim_ms"] = ms("pretrain.apply_step") - out["pretrain.step.backward_ms"]
    for fn in ("eval_policy", "build_windows"):
        out[f"pretrain.{fn}.calls"] = calls(f"pretrain.{fn}")
        out[f"pretrain.{fn}.ms"] = ms(f"pretrain.{fn}")

    for fn in ("encode_episode", "windowize"):
        out[f"tokenizer.{fn}.calls"] = calls(f"tokenizer.{fn}")
        out[f"tokenizer.{fn}.ms"] = ms(f"tokenizer.{fn}")
    out["tokenizer.windows"] = int(a["n"][sel("tokenizer.windowize")].sum())

    for fn in ("gen_dataset", "oracle_action_probs"):
        out[f"synthgen.{fn}.calls"] = calls(f"synthgen.{fn}")
        out[f"synthgen.{fn}.ms"] = ms(f"synthgen.{fn}")
    out["trace.spans"] = len(a["name"])
    return out
