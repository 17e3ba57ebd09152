"""Phase-1 trainer: behavioral cloning of actions with cross-entropy over token windows."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from . import trajmodel as tm
from .numcore import make_rng
from .synthgen import Dataset, Trajectory
from .tokenizer import check_vocab, encode_episode, windowize

EVAL_CHUNK = 256  # windows per eval forward pass


class TrainingDivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


def require(cfg, *rules) -> None:
    """Raise a ValueError naming the first field of `cfg` that breaks its rule; rules are (field, holds, bound)."""
    for name, holds, bound in rules:
        if not holds:
            raise ValueError(f"{name} must be {bound}, got {getattr(cfg, name)!r}")


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 64
    lr: float = 5e-4
    weight_decay: float = 0.05
    grad_clip: float = 1.0
    seed: int = 0
    patience: int = 5
    target_train_nll: float | None = None  # optional hard stop once reached

    def __post_init__(self):
        require(
            self,
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("lr", self.lr >= 0, ">= 0"),
            ("weight_decay", self.weight_decay >= 0, ">= 0"),
            ("grad_clip", self.grad_clip > 0, "> 0"),
            ("patience", self.patience >= 0, ">= 0"),
        )


@dataclass
class TrainLogRow:
    epoch: int
    train_nll: float
    grad_norm: float  # epoch mean of the global gradient norms before clipping
    eval_nll: float
    eval_acc: float
    seconds: float


@dataclass
class TrainLog:
    rows: list[TrainLogRow] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_nll,grad_norm,eval_nll,eval_acc,seconds\n")
            for r in self.rows:
                fh.write(f"{r.epoch},{r.train_nll!r},{r.grad_norm!r},{r.eval_nll!r},{r.eval_acc!r},{r.seconds:.3f}\n")


def build_windows(trajectories: list[Trajectory], context: int):
    """Windows of `context` steps at stride `context`, the last one of each trip right-aligned."""
    windows = []
    for traj in trajectories:
        windows.extend(windowize(encode_episode(traj), context, context))
    return windows


def supervised_loss(model: tm.PolicyModel, windows, rng=None):
    """Mean action cross-entropy over every decision position in the batch."""
    return tm.batch_nll(windows, model, rng=rng)


def apply_step(model: tm.PolicyModel, loss, opt_state: nc.OptimizerState, grad_clip: float) -> float:
    """Backward, clip the global gradient norm, and take one optimizer step."""
    if not np.isfinite(loss.data):
        raise TrainingDivergenceError(f"non-finite loss {float(loss.data)}")
    nc.backward(loss)
    params = model.param_tensors()
    grads = [p.grad for p in params]
    norm = nc.clip_grad_norm(grads, grad_clip)
    nc.adamw_step([p.data for p in params], grads, opt_state)
    return norm


def batch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Shuffle order is a pure function of (seed, epoch)."""
    return make_rng(seed, "shuffle", epoch).permutation(n)


def pretrain(dataset: Dataset, model: tm.PolicyModel, cfg: TrainConfig):
    """Mini-batch behavioral cloning; keeps the best-eval-loss parameters.

    Deterministic given cfg.seed. Early-stops after `patience` eval periods
    without improvement. Raises EncodingError for a trajectory the model's
    vocabulary cannot embed. Returns (model, TrainLog); the model carries the
    best-eval checkpoint.
    """
    train_trajs = dataset.train() or dataset.trajectories
    if not train_trajs:
        raise ValueError("empty training split")
    eval_trajs = dataset.eval()
    check_vocab(train_trajs + eval_trajs, model.cfg.vocab)
    windows = build_windows(train_trajs, model.cfg.context)
    eval_windows = build_windows(eval_trajs, model.cfg.context)
    opt = nc.adamw_init([p.data for p in model.param_tensors()], cfg.lr, cfg.weight_decay)
    log = TrainLog()
    best_nll = float("inf")
    best_params = [t.data.copy() for t in model.param_tensors()]
    bad_evals = 0
    last_eval = (float("nan"), float("nan"))
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = batch_order(cfg.seed, epoch, len(windows))
        losses, norms = [], []
        for i in range(0, len(order), cfg.batch_size):
            batch = [windows[j] for j in order[i : i + cfg.batch_size]]
            rng_drop = make_rng(cfg.seed, "dropout", epoch, i) if model.cfg.dropout > 0 else None
            loss = supervised_loss(model, batch, rng=rng_drop)
            norms.append(apply_step(model, loss, opt, cfg.grad_clip))
            losses.append(float(loss.data))
        train_nll = float(np.mean(losses))
        if eval_trajs:
            last_eval = score_windows(eval_windows, model)
            eval_nll = last_eval[0]
            if eval_nll < best_nll - 1e-9:
                best_nll = eval_nll
                best_params = [t.data.copy() for t in model.param_tensors()]
                bad_evals = 0
            else:
                bad_evals += 1
        row = TrainLogRow(epoch, train_nll, float(np.mean(norms)), last_eval[0], last_eval[1], time.perf_counter() - t0)
        log.rows.append(row)
        if eval_trajs and bad_evals > cfg.patience:
            break
        if cfg.target_train_nll is not None and train_nll < cfg.target_train_nll:
            break
    if eval_trajs:
        for tensor, data in zip(model.param_tensors(), best_params):
            tensor.data = data
    return model, log


def eval_policy(dataset: Dataset, model: tm.PolicyModel):
    """Teacher-forced (nll, top-1 accuracy) over all decision steps of the eval split; no sampling."""
    return score_windows(build_windows(dataset.eval(), model.cfg.context), model)


def score_windows(windows, model: tm.PolicyModel):
    """Teacher-forced (nll, top-1 accuracy) over all decision steps of `windows`; `pretrain` builds them once.

    Nothing differentiates the score, so its passes run under `no_graph`.
    """
    if not windows:
        raise ValueError("no windows to score: empty split 'eval'")
    total_nll = 0.0
    hits = 0
    count = 0
    with nc.no_graph():
        for i in range(0, len(windows), EVAL_CHUNK):
            part = windows[i : i + EVAL_CHUNK]
            logits = tm.forward_batch(part, model).logits.data
            actions = np.concatenate([w.action[w.decision_mask] for w in part])
            total_nll += float(nc.cross_entropy(nc.Tensor(logits), actions).data) * len(actions)
            hits += int((logits.argmax(axis=1) == actions).sum())
            count += len(actions)
    return total_nll / count, hits / count
