"""Finite-difference verification of every analytic backward pass.

Each check builds a random f64 problem, computes the analytic gradient of
the scalar probe ``sum(upstream * output)`` (or the loss itself for the
cross-entropy and end-to-end checks) and compares it against central
differences with h = 1e-5.

Comparison rule: elements whose analytic magnitude is below 1e-8 must agree
absolutely within 1e-8; all others must have symmetric relative error
|a - n| / max(|a|, |n|) below the tolerance (1e-6 for single operators,
1e-4 for the end-to-end model, whose longer chain accumulates more
finite-difference noise). Activation checks sample inputs away from the
kink points, where one-sided curvature would poison the central difference;
the end-to-end check likewise redraws parameter elements whose gradient sits
below the round-off floor of the difference quotient, where a relative
comparison would measure noise rather than correctness, and elements whose
difference quotient disagrees between step h and h/2, which happens exactly
when the nudge pushes some downstream activation across its kink (the
quotient then measures the subgradient jump, not the derivative).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nnops, srm, zhunet
from .tensor import Tensor

H_STEP = 1e-5
OP_TOL = 1e-6
MODEL_TOL = 1e-4
ABS_FLOOR = 1e-8
KINK_MARGIN = 1e-3
# Central differences of an O(1) loss at h = 1e-5 carry ~5e-11 of round-off,
# so a relative comparison at 1e-4 is only informative for elements whose
# gradient magnitude clears that noise by a wide margin.
PROBE_FLOOR = 1e-5
# Quotients at h and h/2 agree to ~1e-9 on smooth probes; a mismatch beyond
# this (relative) threshold means an activation kink sits inside the nudge
# window and the probe must be redrawn.
CURVATURE_TOL = 2.5e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel: float
    tol: float
    ok: bool

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"{self.name}: max_rel_err={self.max_rel:.3e} tol={self.tol:.0e} {status}"


def numerical_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                       h: float = H_STEP) -> np.ndarray:
    """Central finite differences of a scalar function, element by element."""
    x = x.astype(np.float64, copy=True)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def compare_gradients(analytic: np.ndarray, numeric: np.ndarray,
                      tol: float = OP_TOL) -> tuple[bool, float]:
    """(ok, max_rel) under the two-tier rule described in the module doc."""
    a = analytic.reshape(-1)
    n = numeric.reshape(-1)
    if a.shape != n.shape:
        return False, float("inf")
    small = np.abs(a) < ABS_FLOOR
    ok = bool(np.all(np.abs(a[small] - n[small]) <= ABS_FLOOR))
    big = ~small
    if np.any(big):
        denom = np.maximum(np.abs(a[big]), np.abs(n[big]))
        rel = np.abs(a[big] - n[big]) / denom
        max_rel = float(rel.max())
    else:
        max_rel = 0.0
    return ok and max_rel < tol, max_rel


def _probe(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape)


def _check_many(name: str, pieces: list[tuple[np.ndarray, np.ndarray]],
                tol: float = OP_TOL) -> CheckResult:
    worst = 0.0
    ok = True
    for analytic, numeric in pieces:
        piece_ok, rel = compare_gradients(analytic, numeric, tol)
        worst = max(worst, rel)
        ok = ok and piece_ok
    return CheckResult(name=name, max_rel=worst, tol=tol, ok=ok)


# ---------------------------------------------------------------------------
# per-operator checks
# ---------------------------------------------------------------------------

def check_conv2d(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    configs = [
        nnops.Conv2dSpec(3, 4, 3, 3, stride=1, padding=1, groups=1),   # plain
        nnops.Conv2dSpec(4, 6, 3, 3, stride=2, padding=1, groups=2),   # grouped, strided
        nnops.Conv2dSpec(6, 6, 3, 3, stride=1, padding=1, groups=6),   # depthwise
        nnops.Conv2dSpec(5, 7, 1, 1, stride=1, padding=0, groups=1),   # pointwise
        nnops.Conv2dSpec(4, 4, 2, 3, stride=2, padding=2, groups=2),   # asymmetric kernel
    ]
    pieces = []
    for spec in configs:
        x = _probe(rng, (2, spec.in_channels, 6, 7))
        w = _probe(rng, spec.weight_shape())
        b = _probe(rng, (spec.out_channels,))
        out, ctx = nnops.conv2d_forward(Tensor(x), Tensor(w), Tensor(b), spec)
        up = _probe(rng, out.shape)
        gx, gw, gb = nnops.conv2d_backward(Tensor(up), ctx)

        def loss_x(v, w=w, b=b, spec=spec, up=up):
            o, _ = nnops.conv2d_forward(Tensor(v), Tensor(w), Tensor(b), spec)
            return float(np.sum(up * o.array))

        def loss_w(v, x=x, b=b, spec=spec, up=up):
            o, _ = nnops.conv2d_forward(Tensor(x), Tensor(v), Tensor(b), spec)
            return float(np.sum(up * o.array))

        def loss_b(v, x=x, w=w, spec=spec, up=up):
            o, _ = nnops.conv2d_forward(Tensor(x), Tensor(w), Tensor(v), spec)
            return float(np.sum(up * o.array))

        pieces.append((gx.array, numerical_gradient(loss_x, x)))
        pieces.append((gw.array, numerical_gradient(loss_w, w)))
        pieces.append((gb.array, numerical_gradient(loss_b, b)))
    return _check_many("conv2d", pieces)


def check_batchnorm(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    x = _probe(rng, (3, 4, 5, 5))
    gamma = _probe(rng, (4,)) + 1.5
    beta = _probe(rng, (4,))
    up = _probe(rng, x.shape)

    def make_state(g, b):
        st = nnops.BatchNormState.create(4, "f64")
        st.gamma = g.copy()
        st.beta = b.copy()
        return st

    out, ctx = nnops.batchnorm_forward(Tensor(x), make_state(gamma, beta))
    gx, ggamma, gbeta = nnops.batchnorm_backward(Tensor(up), ctx)

    def loss_x(v):
        o, _ = nnops.batchnorm_forward(Tensor(v), make_state(gamma, beta))
        return float(np.sum(up * o.array))

    def loss_gamma(v):
        o, _ = nnops.batchnorm_forward(Tensor(x), make_state(v, beta))
        return float(np.sum(up * o.array))

    def loss_beta(v):
        o, _ = nnops.batchnorm_forward(Tensor(x), make_state(gamma, v))
        return float(np.sum(up * o.array))

    pieces = [
        (gx.array, numerical_gradient(loss_x, x)),
        (ggamma.array, numerical_gradient(loss_gamma, gamma)),
        (gbeta.array, numerical_gradient(loss_beta, beta)),
    ]
    return _check_many("batchnorm", pieces)


def _away_from(values: np.ndarray, kinks: list[float]) -> np.ndarray:
    """Push sampled values at least KINK_MARGIN away from each kink."""
    out = values.copy()
    for k in kinks:
        close = np.abs(out - k) < KINK_MARGIN
        out[close] = k + np.where(out[close] >= k, 2 * KINK_MARGIN, -2 * KINK_MARGIN)
    return out


def _check_elementwise(name: str, seed: int, stream: int, fwd, bwd,
                       kinks: list[float]) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, stream]))
    x = _away_from(_probe(rng, (2, 3, 4, 4)) * 2.5, kinks)
    up = _probe(rng, x.shape)
    analytic = bwd(Tensor(up), Tensor(x)).array

    def loss(v):
        return float(np.sum(up * fwd(Tensor(v)).array))

    return _check_many(name, [(analytic, numerical_gradient(loss, x))])


def check_relu(seed: int) -> CheckResult:
    return _check_elementwise("relu", seed, 10, nnops.relu, nnops.relu_backward, [0.0])


def check_tlu(seed: int) -> CheckResult:
    t = zhunet.TLU_THRESHOLD
    return _check_elementwise(
        "tlu",
        seed,
        11,
        lambda x: nnops.tlu(x, t),
        lambda up, x: nnops.tlu_backward(up, x, t),
        [-t, t],
    )


def check_abs(seed: int) -> CheckResult:
    return _check_elementwise("abs", seed, 12, nnops.abs_act, nnops.abs_backward, [0.0])


def check_avg_pool(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 3]))
    pieces = []
    for win, stride, padding in ((3, 2, 0), (5, 2, 2), (2, 2, 0)):
        x = _probe(rng, (2, 3, 7, 7))
        out, ctx = nnops.avg_pool(Tensor(x), win, stride, padding)
        up = _probe(rng, out.shape)
        gx = nnops.avg_pool_backward(Tensor(up), ctx)

        def loss(v, win=win, stride=stride, padding=padding, up=up):
            o, _ = nnops.avg_pool(Tensor(v), win, stride, padding)
            return float(np.sum(up * o.array))

        pieces.append((gx.array, numerical_gradient(loss, x)))
    return _check_many("avg_pool", pieces)


def check_spp(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 4]))
    cfg = nnops.SppConfig((4, 2, 1))
    pieces = []
    for a in (7, 8):
        x = _probe(rng, (2, 3, a, a))
        out, ctx = nnops.spp_forward(Tensor(x), cfg)
        up = _probe(rng, out.shape)
        gx = nnops.spp_backward(Tensor(up), ctx)

        def loss(v, up=up):
            o, _ = nnops.spp_forward(Tensor(v), cfg)
            return float(np.sum(up * o.array))

        pieces.append((gx.array, numerical_gradient(loss, x)))
    return _check_many("spp", pieces)


def check_linear(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 5]))
    x = _probe(rng, (3, 4))
    w = _probe(rng, (4, 5))
    b = _probe(rng, (5,))
    out, ctx = nnops.linear_forward(Tensor(x), Tensor(w), Tensor(b))
    up = _probe(rng, out.shape)
    gx, gw, gb = nnops.linear_backward(Tensor(up), ctx)

    def loss_x(v):
        o, _ = nnops.linear_forward(Tensor(v), Tensor(w), Tensor(b))
        return float(np.sum(up * o.array))

    def loss_w(v):
        o, _ = nnops.linear_forward(Tensor(x), Tensor(v), Tensor(b))
        return float(np.sum(up * o.array))

    def loss_b(v):
        o, _ = nnops.linear_forward(Tensor(x), Tensor(w), Tensor(v))
        return float(np.sum(up * o.array))

    pieces = [
        (gx.array, numerical_gradient(loss_x, x)),
        (gw.array, numerical_gradient(loss_w, w)),
        (gb.array, numerical_gradient(loss_b, b)),
    ]
    return _check_many("linear", pieces)


def check_softmax_xent(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 6]))
    z = _probe(rng, (6, 2)) * 3.0
    labels = list(rng.integers(0, 2, size=6))
    labels = [int(v) for v in labels]
    _, grad = nnops.softmax_xent(Tensor(z), labels)

    def loss(v):
        l, _ = nnops.softmax_xent(Tensor(v), labels)
        return l

    return _check_many("softmax_xent", [(grad.array, numerical_gradient(loss, z))])


def check_preprocess(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 7]))
    layer = srm.PreprocessingLayer.build(dtype="f64")
    x = _probe(rng, (1, 1, 8, 8)) * 10.0
    out, ctx = srm.preprocess_forward(Tensor(x), layer)
    up = _probe(rng, out.shape)
    gx, gk3, gk5 = srm.preprocess_backward(Tensor(up), ctx)

    def loss_x(v):
        o, _ = srm.preprocess_forward(Tensor(v), layer)
        return float(np.sum(up * o.array))

    k3 = layer.kernels3.array

    def loss_k3(v):
        lay = srm.PreprocessingLayer(
            kernels3=Tensor(v), kernels5=layer.kernels5,
            channel_names=layer.channel_names,
        )
        o, _ = srm.preprocess_forward(Tensor(x), lay)
        return float(np.sum(up * o.array))

    k5 = layer.kernels5.array

    def loss_k5(v):
        lay = srm.PreprocessingLayer(
            kernels3=layer.kernels3, kernels5=Tensor(v),
            channel_names=layer.channel_names,
        )
        o, _ = srm.preprocess_forward(Tensor(x), lay)
        return float(np.sum(up * o.array))

    pieces = [
        (gx.array, numerical_gradient(loss_x, x)),
        (gk3.array, numerical_gradient(loss_k3, k3)),
        (gk5.array, numerical_gradient(loss_k5, k5)),
    ]
    return _check_many("preprocess", pieces)


OP_CHECKS: tuple[tuple[str, Callable[[int], CheckResult]], ...] = (
    ("conv2d", check_conv2d),
    ("batchnorm", check_batchnorm),
    ("relu", check_relu),
    ("tlu", check_tlu),
    ("abs", check_abs),
    ("avg_pool", check_avg_pool),
    ("spp", check_spp),
    ("linear", check_linear),
    ("softmax_xent", check_softmax_xent),
    ("preprocess", check_preprocess),
)


def run_ops_checks(seed: int = 0) -> list[CheckResult]:
    return [fn(seed) for _, fn in OP_CHECKS]


# ---------------------------------------------------------------------------
# end-to-end model check
# ---------------------------------------------------------------------------

def check_model(seed: int = 0, total_samples: int = 20) -> CheckResult:
    """Nudge randomly sampled parameter elements of a f64 model on a 32x32
    batch and compare the loss finite difference against the analytic
    gradient from backward."""
    rng = np.random.Generator(np.random.PCG64([seed, 99]))
    config = zhunet.ModelConfig(dtype="f64", seed=seed)
    model = zhunet.build_model(config)
    images = Tensor(rng.uniform(0.0, 255.0, size=(2, 1, 32, 32)))
    labels = [0, 1]

    def loss_now() -> float:
        logits = model.forward(images, mode="train")
        loss, _ = nnops.softmax_xent(logits, labels)
        return loss

    logits = model.forward(images, mode="train")
    _, grad_logits = nnops.softmax_xent(logits, labels)
    grads = model.backward(grad_logits)
    params = model.parameters()

    names = list(params.keys())
    flat_grads = {name: grads[name].array.reshape(-1) for name in names}
    # Probe only where the gradient magnitude clears the round-off floor of
    # the difference quotient; a tensor whose every element sits below it
    # cannot support a relative comparison at MODEL_TOL no matter how correct
    # the backward is.  Spread the probes across distinct usable tensors so
    # every stage of the graph gets exercised, not just the largest matrix.
    usable = [i for i, name in enumerate(names)
              if float(np.max(np.abs(flat_grads[name]))) >= PROBE_FLOOR]
    if not usable:
        return CheckResult(name="model_end_to_end", max_rel=float("inf"),
                           tol=MODEL_TOL, ok=False)
    replace = len(usable) < total_samples
    picks = rng.choice(len(usable), size=total_samples, replace=replace)

    def quotient(arr: np.ndarray, idx: int, step: float) -> float:
        orig = arr[idx]
        arr[idx] = orig + step
        fp = loss_now()
        arr[idx] = orig - step
        fm = loss_now()
        arr[idx] = orig
        return (fp - fm) / (2.0 * step)

    analytic = np.zeros(total_samples)
    numeric = np.zeros(total_samples)
    for s, u in enumerate(picks):
        name = names[usable[int(u)]]
        arr = params[name].array.reshape(-1)
        garr = flat_grads[name]
        for _attempt in range(8):
            idx = int(rng.integers(0, arr.size))
            for _ in range(256):
                if abs(garr[idx]) >= PROBE_FLOOR:
                    break
                idx = int(rng.integers(0, arr.size))
            else:
                idx = int(np.argmax(np.abs(garr)))
            d_full = quotient(arr, idx, H_STEP)
            d_half = quotient(arr, idx, H_STEP / 2.0)
            if abs(d_full - d_half) <= CURVATURE_TOL * max(abs(d_full), PROBE_FLOOR):
                break
        analytic[s] = garr[idx]
        numeric[s] = d_full
    ok, max_rel = compare_gradients(analytic, numeric, MODEL_TOL)
    return CheckResult(name="model_end_to_end", max_rel=max_rel, tol=MODEL_TOL, ok=ok)


def run_suite(scale: str = "ops", seed: int = 0) -> list[CheckResult]:
    if scale == "ops":
        return run_ops_checks(seed)
    if scale == "model":
        return [check_model(seed)]
    raise ValueError(f"unknown gradcheck scale {scale!r}; expected 'ops' or 'model'")
