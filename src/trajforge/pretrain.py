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
    eval_period: int = 1
    patience: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    stride: int | None = None  # window stride; defaults to the context length
    target_train_nll: float | None = None  # optional hard stop once reached

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.eval_period) < 1 or self.lr < 0:
            raise ValueError("hyperparameters must be positive")


@dataclass
class TrainLogRow:
    epoch: int
    train_nll: float
    eval_nll: float
    eval_acc: float
    seconds: float


@dataclass
class TrainLog:
    rows: list[TrainLogRow] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_nll,eval_nll,eval_acc,seconds\n")
            for r in self.rows:
                fh.write(f"{r.epoch},{r.train_nll!r},{r.eval_nll!r},{r.eval_acc!r},{r.seconds:.3f}\n")


def build_windows(trajectories: list[Trajectory], context: int, stride: int | None = None):
    stride = stride or context
    windows = []
    for traj in trajectories:
        windows.extend(windowize(encode_episode(traj), context, stride))
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
    windows = build_windows(train_trajs, model.cfg.context, cfg.stride)
    opt = nc.adamw_init([p.data for p in model.param_tensors()], cfg.lr, cfg.weight_decay, cfg.beta1, cfg.beta2)
    log = TrainLog()
    best_nll = float("inf")
    best_params = [t.data.copy() for t in model.param_tensors()]
    bad_evals = 0
    last_eval = (float("nan"), float("nan"))
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = batch_order(cfg.seed, epoch, len(windows))
        losses = []
        for i in range(0, len(order), cfg.batch_size):
            batch = [windows[j] for j in order[i : i + cfg.batch_size]]
            rng_drop = make_rng(cfg.seed, "dropout", epoch, i) if model.cfg.dropout > 0 else None
            loss = supervised_loss(model, batch, rng=rng_drop)
            apply_step(model, loss, opt, cfg.grad_clip)
            losses.append(float(loss.data))
        train_nll = float(np.mean(losses))
        if (epoch + 1) % cfg.eval_period == 0 and eval_trajs:
            last_eval = eval_policy(dataset, model)
            eval_nll = last_eval[0]
            if eval_nll < best_nll - 1e-9:
                best_nll = eval_nll
                best_params = [t.data.copy() for t in model.param_tensors()]
                bad_evals = 0
            else:
                bad_evals += 1
        log.rows.append(TrainLogRow(epoch, train_nll, last_eval[0], last_eval[1], time.perf_counter() - t0))
        if eval_trajs and bad_evals > cfg.patience:
            break
        if cfg.target_train_nll is not None and train_nll < cfg.target_train_nll:
            break
    if eval_trajs:
        for tensor, data in zip(model.param_tensors(), best_params):
            tensor.data = data
    return model, log


def eval_policy(dataset: Dataset, model: tm.PolicyModel, split: str = "eval", chunk: int = 256):
    """Teacher-forced (nll, top-1 accuracy) over all decision steps; no sampling."""
    trajs = dataset.eval() if split == "eval" else (dataset.train() or dataset.trajectories)
    if not trajs:
        raise ValueError(f"empty split {split!r}")
    windows = build_windows(trajs, model.cfg.context)
    total_nll = 0.0
    hits = 0
    count = 0
    for i in range(0, len(windows), chunk):
        part = windows[i : i + chunk]
        out = tm.forward_batch(part, model)
        mask = np.concatenate([w.decision_mask for w in part])
        actions = np.concatenate([w.action for w in part])[mask]
        logits = out.logits.data[mask]
        # shifted by the row max as in cross_entropy, so eval and training NLL round alike
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = nc.masked_logsumexp(shifted, np.ones(shifted.shape, dtype=bool))
        total_nll += float((lse - shifted[np.arange(len(actions)), actions]).sum())
        hits += int((logits.argmax(axis=1) == actions).sum())
        count += len(actions)
    return total_nll / count, hits / count
