"""What several test modules share: a scalar loss and a finite-difference check over numcore's
recorded graph, reference AdamW and GELU formulas, and one oracle trip."""

import math

import numpy as np

from trajforge import numcore as nc
from trajforge import synthgen as sg
from trajforge.numcore import make_rng


def total(x: nc.Tensor) -> nc.Tensor:
    """The sum of a non-empty `x`, as `mean_all` times its size: the gradient reaching `x` is exactly 1."""
    return nc.mul_const(nc.mean_all(x), x.data.size)


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
        raise nc.EvaluationError("loss is not finite at the evaluation point")
    nc.backward(loss)
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
                raise nc.EvaluationError("loss is not finite at a perturbed point")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst


def reference_adamw_step(vector: np.ndarray, grad: np.ndarray, state: nc.OptimizerState) -> None:
    """`numcore.adamw_step` as three whole-array formulas, each making its own temporaries."""
    state.step += 1
    bc1 = 1.0 - nc.ADAM_BETA1**state.step
    bc2 = 1.0 - nc.ADAM_BETA2**state.step
    if state.weight_decay:
        vector -= state.lr * state.weight_decay * vector
    state.m[:] = nc.ADAM_BETA1 * state.m + (1.0 - nc.ADAM_BETA1) * grad
    state.v[:] = nc.ADAM_BETA2 * state.v + (1.0 - nc.ADAM_BETA2) * (grad * grad)
    vector -= state.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + nc.ADAM_EPS)


GELU_C = math.sqrt(2.0 / math.pi)


def reference_gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`numcore.gelu_fwd` as one whole-array formula, making its own temporaries: (output, t)."""
    t = np.tanh(GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def reference_gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient that `numcore.gelu`'s backward passes to `x` under the upstream `g`, as one formula."""
    sech2 = 1.0 - t * t
    d_inner = GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    return g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner)


def oracle_trip(seed, od, user, prefs, net, max_len, depart_bin=0, speed_bin=0, traj_id=0) -> sg.Trajectory:
    """One oracle trip from od[0] to od[1] of at most `max_len` moves, an `oracle_trips` batch of one
    whose uniforms come from make_rng(seed), or make_rng(*seed) for a tuple."""
    rng = make_rng(seed) if isinstance(seed, int) else make_rng(*seed)
    [(positions, actions, flag)] = sg.oracle_trips(prefs, net, [user], [od[0]], [od[1]], rng.random((1, max(max_len, 0))))
    return sg.Trajectory(traj_id, user, depart_bin, speed_bin, positions, actions, flag)
