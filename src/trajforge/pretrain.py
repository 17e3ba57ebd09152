"""`fit`, the one epoch loop of both learners, and the policy's behavioral cloning: action cross-entropy over whole trips."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numcore as nc
from . import trajmodel as tm
from .checkpoint import ParamModel
from .numcore import AT_LEAST_1, NON_NEGATIVE, POSITIVE, make_rng, require
from .synthgen import Dataset, Trajectory
from .tokenizer import check_vocab, encode_trips

EVAL_CHUNK = 256  # trips per eval forward pass


class TrainingDivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


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


class TrainLogRow(NamedTuple):
    """One epoch of `fit`, for either learner; the loss, the norm and the batch parts are epoch means over its batches."""

    epoch: int
    train_nll: float  # the training loss: the policy's action NLL, or the critic's negated IQ objective
    grad_norm: float  # the global gradient norm before clipping
    seconds: float
    eval_nll: float  # the held-out score, NaN without one
    parts: dict  # the batch losses' named parts, and the held-out score's


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)  # one TrainLogRow per epoch


def build_windows(trajectories: list[Trajectory], context: int):
    """Each trip's own step table (`encode_trips`), for perfbench's token count; `context` is not read."""
    return [encode_trips([t]) for t in trajectories]


def supervised_loss(model: tm.PolicyModel, trips, rng=None):
    """Mean action cross-entropy over every decision step of the trips in the batch."""
    return tm.batch_nll(trips, model, rng=rng)


def apply_step(model: ParamModel, loss, opt_state: nc.OptimizerState, grad_clip: float) -> float:
    """Backward, clip the global gradient norm, and take one optimizer step on `model.vector`.

    TrainingDivergenceError for a non-finite loss or gradient norm, raised before the step, so
    `model.vector` is left as it was: an inf gradient would be clipped by a scale of 0 into NaN."""
    if not np.isfinite(loss.data):
        raise TrainingDivergenceError(f"non-finite loss {float(loss.data)}")
    nc.backward(loss)
    grads = [p.grad for p in model.param_tensors()]
    norm = nc.clip_grad_norm(grads, grad_clip)
    if not np.isfinite(norm):
        raise TrainingDivergenceError(f"non-finite gradient norm {norm}")
    nc.adamw_step(model.vector, np.concatenate([g.ravel() for g in grads]), opt_state)
    return norm


def batch_order(seed: int, stream: str, epoch: int, n: int) -> np.ndarray:
    """Epoch `epoch`'s shuffle of `n` rows: a pure function of (seed, stream, epoch)."""
    return make_rng(seed, stream, epoch).permutation(n)


def fit(model: ParamModel, opt: nc.OptimizerState, n_rows: int, batch_loss, cfg, stream: str, score=None) -> TrainLog:
    """Up to `cfg.epochs` epochs of `apply_step`s on `model.vector`, releasing the `.grad`s at the end; one `TrainLogRow` each.

    Epoch e steps on `batch_loss(idx, e, start)`, a loss tensor and a dict of named floats, for each `cfg.batch_size`
    rows `idx` at offset `start` of `batch_order(cfg.seed, stream, e, n_rows)`. Given `score`, each epoch ends with
    `score()`, a held-out value to minimize and its named floats: an epoch lower than the best by more than 1e-9 keeps
    its `model.vector`, more than `cfg.patience` epochs without gain stop the run, and the best vector is restored.
    """
    log = TrainLog()
    best, best_vector, bad_evals = float("inf"), model.vector.copy(), 0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = batch_order(cfg.seed, stream, epoch, n_rows)
        losses, norms, named = [], [], []
        for start in range(0, n_rows, cfg.batch_size):
            loss, floats = batch_loss(order[start : start + cfg.batch_size], epoch, start)
            norms.append(apply_step(model, loss, opt, cfg.grad_clip))
            losses.append(float(loss.data))
            named.append(floats)
        held_out, held_parts = score() if score else (float("nan"), {})
        if held_out < best - 1e-9:  # never, without a score
            best, best_vector, bad_evals = held_out, model.vector.copy(), 0
        else:
            bad_evals += 1
        parts = {**{name: float(np.mean([p[name] for p in named])) for name in named[0]}, **held_parts}
        log.rows.append(TrainLogRow(epoch, float(np.mean(losses)), float(np.mean(norms)), time.perf_counter() - t0, held_out, parts))
        if score and bad_evals > cfg.patience:
            break
    if score:
        model.vector[:] = best_vector
    model.release_grads()
    return log


def pretrain(dataset: Dataset, model: tm.PolicyModel, cfg: TrainConfig):
    """Mini-batch behavioral cloning by `fit`, deterministic given cfg.seed; returns (model, TrainLog).

    With an eval split, `fit` selects on the eval NLL (`score_trips`), early-stops and keeps the best epoch's
    parameters. Each row holds the action NLL as `train_nll`, and the eval NLL as `eval_nll` and top-1 accuracy
    as `parts["eval_acc"]` (NaN and absent with no eval split). Both splits are checked before the first step
    (`check_vocab`): EncodingError for a trip outside the vocabulary.
    """
    train_trips, eval_trips = dataset.train(), dataset.eval()
    if not train_trips:
        raise ValueError("empty training split")
    for trips in (train_trips, eval_trips):
        check_vocab(trips, model.cfg.vocab)

    def batch_loss(idx, epoch, start):
        rng_drop = make_rng(cfg.seed, "dropout", epoch, start) if model.cfg.dropout > 0 else None
        return supervised_loss(model, [train_trips[j] for j in idx], rng=rng_drop), {}

    def score():
        nll, acc = score_trips(eval_trips, model)
        return nll, {"eval_acc": acc}

    opt = nc.adamw_init(model.vector, cfg.lr, cfg.weight_decay)
    return model, fit(model, opt, len(train_trips), batch_loss, cfg, "shuffle", score if eval_trips else None)


def eval_policy(dataset: Dataset, model: tm.PolicyModel):
    """Teacher-forced (nll, top-1 accuracy) over the eval split (`score_trips`)."""
    return score_trips(dataset.eval(), model)


def score_trips(trips, model: tm.PolicyModel):
    """Teacher-forced (nll, top-1 accuracy) over all decision steps of `trips`, `EVAL_CHUNK` trips per pass.

    Nothing differentiates the score, so its passes run under `no_graph`. ValueError for no trips, and
    `forward_batch`'s EncodingError for a trip outside the vocabulary.
    """
    if not trips:
        raise ValueError("no trips to score")
    total_nll = 0.0
    hits = 0
    count = 0
    with nc.no_graph():
        for i in range(0, len(trips), EVAL_CHUNK):
            out = tm.forward_batch(trips[i : i + EVAL_CHUNK], model)
            total_nll += float(nc.cross_entropy(out.logits, out.actions).data) * len(out.actions)
            hits += int((out.logits.data.argmax(axis=1) == out.actions).sum())
            count += len(out.actions)
    return total_nll / count, hits / count
