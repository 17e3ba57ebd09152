"""Phase-1 trainer: behavioral cloning of actions with cross-entropy over one token window per trip."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from . import trajmodel as tm
from .checkpoint import ParamModel
from .numcore import AT_LEAST_1, NON_NEGATIVE, POSITIVE, make_rng, require
from .synthgen import Dataset, Trajectory
from .tokenizer import check_vocab, encode_trips, windowize

EVAL_CHUNK = 256  # windows per eval forward pass


class TrainingDivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 64
    lr: float = 5e-4
    weight_decay: float = 0.05
    grad_clip: float = 1.0
    seed: int = 0
    patience: int = 5

    def __post_init__(self):
        require(
            self, epochs=AT_LEAST_1, batch_size=AT_LEAST_1, lr=NON_NEGATIVE, weight_decay=NON_NEGATIVE, grad_clip=POSITIVE, patience=NON_NEGATIVE
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
    rows: list = field(default_factory=list)  # per epoch: a TrainLogRow, or `rewardirl.train_critic`'s tuple of means


def build_windows(trajectories: list[Trajectory], context: int):
    """One window per trip (`windowize`); EncodingError for a trip of more than `context` steps."""
    return windowize(encode_trips(trajectories), context)


def _checked_windows(trajectories: list[Trajectory], model: tm.PolicyModel):
    """`build_windows` of the step table that `check_vocab` checked against the model's vocabulary."""
    return windowize(check_vocab(trajectories, model.cfg.vocab), model.cfg.context)


def supervised_loss(model: tm.PolicyModel, windows, rng=None):
    """Mean action cross-entropy over every decision position in the batch."""
    return tm.batch_nll(windows, model, rng=rng)


def apply_step(model: ParamModel, loss, opt_state: nc.OptimizerState, grad_clip: float) -> float:
    """Backward, clip the global gradient norm, and take one optimizer step on `model.vector`."""
    if not np.isfinite(loss.data):
        raise TrainingDivergenceError(f"non-finite loss {float(loss.data)}")
    nc.backward(loss)
    grads = [p.grad for p in model.param_tensors()]
    norm = nc.clip_grad_norm(grads, grad_clip)
    nc.adamw_step(model.vector, np.concatenate([g.ravel() for g in grads]), opt_state)
    return norm


def batch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Shuffle order is a pure function of (seed, epoch)."""
    return make_rng(seed, "shuffle", epoch).permutation(n)


def pretrain(dataset: Dataset, model: tm.PolicyModel, cfg: TrainConfig):
    """Mini-batch behavioral cloning; keeps the best-eval-loss parameters.

    Deterministic given cfg.seed. Early-stops after `patience` eval periods
    without improvement. Raises EncodingError for a trajectory the model's
    vocabulary cannot embed. Returns (model, TrainLog); the model carries the
    best-eval checkpoint. Each parameter's `.grad` holds the last step's
    gradient while training runs; once the best parameters are restored, every
    `.grad` is released, so the returned model holds only its parameters.
    """
    train_trajs = dataset.train()
    if not train_trajs:
        raise ValueError("empty training split")
    eval_trajs = dataset.eval()
    windows = _checked_windows(train_trajs, model)
    eval_windows = _checked_windows(eval_trajs, model)
    opt = nc.adamw_init(model.vector, cfg.lr, cfg.weight_decay)
    log = TrainLog()
    best_nll = float("inf")
    best_params = model.vector.copy()
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
                best_params = model.vector.copy()
                bad_evals = 0
            else:
                bad_evals += 1
        row = TrainLogRow(epoch, train_nll, float(np.mean(norms)), last_eval[0], last_eval[1], time.perf_counter() - t0)
        log.rows.append(row)
        if eval_trajs and bad_evals > cfg.patience:
            break
    if eval_trajs:
        model.vector[:] = best_params
    model.release_grads()
    return model, log


def eval_policy(dataset: Dataset, model: tm.PolicyModel):
    """Teacher-forced (nll, top-1 accuracy) over the eval split; EncodingError for a trip outside the vocabulary."""
    return score_windows(_checked_windows(dataset.eval(), model), model)


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
            out = tm.forward_batch(part, model)
            total_nll += float(nc.cross_entropy(out.logits, out.actions).data) * len(out.actions)
            hits += int((out.logits.data.argmax(axis=1) == out.actions).sum())
            count += len(out.actions)
    return total_nll / count, hits / count
