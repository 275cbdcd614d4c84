"""Finite-difference verification of every analytic backward pass.

Each check builds a random f64 problem, computes the analytic gradient of
the scalar probe ``sum(upstream * output)`` (or the loss itself for the
cross-entropy and end-to-end checks) and compares it against central
differences with h = 1e-5. ``_op_check`` drives every operator check but
the cross-entropy one: it runs the forward, draws the upstream, runs the
backward and gets the differences for every argument from
``probe_gradients``.

Comparison rule: the tolerance is 1e-6 for single operators and 1e-4 for
the end-to-end model, whose longer chain accumulates more finite-difference
noise. An operator check allows the probe's round-off: with S the sum of
|upstream * output| (|loss| for the cross-entropy check), a central
difference carries up to about eps*S/h of it, eps the f64 machine epsilon
(the largest error of a correct backward at seeds 0-9 is 0.62 of that),
and the allowance is A = 4*eps*S/h; the model check has A = 0. Elements
whose analytic magnitude is below max(1e-8, A / tolerance) must agree
absolutely within max(1e-8, A); all others must have symmetric relative
error |a - n| / max(|a|, |n|) below the tolerance, and ``max_rel_err`` is
the worst of those.

Activation checks sample inputs away from the kink points, where one-sided
curvature would poison the central difference. The end-to-end check
likewise redraws parameter elements whose gradient sits below the round-off
floor of the difference quotient, where a relative comparison would measure
noise rather than correctness, and elements whose difference quotient
disagrees between step h and h/2, which happens exactly when the nudge
pushes some downstream activation across its kink (the quotient then
measures the subgradient jump, not the derivative).
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
# The operator checks' round-off allowance, in units of eps * S / h (see
# the module doc).
ROUNDOFF_FACTOR = 4.0
EPS = float(np.finfo(np.float64).eps)
MODEL_SAMPLES = 20  # parameter elements the end-to-end check nudges


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel: float
    tol: float
    ok: bool

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"{self.name}: max_rel_err={self.max_rel:.3e} tol={self.tol:.0e} {status}"


def _central_difference(f: Callable[[], float], flat: np.ndarray, i: int,
                        h: float) -> float:
    """(f(x + h e_i) - f(x - h e_i)) / 2h, nudging ``flat[i]`` in place and
    restoring it afterwards."""
    orig = flat[i]
    flat[i] = orig + h
    fp = f()
    flat[i] = orig - h
    fm = f()
    flat[i] = orig
    return (fp - fm) / (2.0 * h)


def numerical_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                       h: float = H_STEP) -> np.ndarray:
    """Central finite differences of a scalar function, element by element."""
    x = x.astype(np.float64, copy=True)
    flat = x.reshape(-1)
    grad = np.array([_central_difference(lambda: f(x), flat, i, h) for i in range(flat.size)])
    return grad.reshape(x.shape)


def compare_gradients(analytic: np.ndarray, numeric: np.ndarray,
                      tol: float = OP_TOL, allowance: float = 0.0) -> tuple[bool, float]:
    """(ok, max_rel) under the two-tier rule described in the module doc,
    with ``allowance`` the absolute error the probe's round-off allows."""
    a = analytic.reshape(-1)
    n = numeric.reshape(-1)
    if a.shape != n.shape:
        return False, float("inf")
    small = np.abs(a) < max(ABS_FLOOR, allowance / tol)
    ok = bool(np.all(np.abs(a[small] - n[small]) <= max(ABS_FLOOR, allowance)))
    a, n = a[~small], n[~small]
    max_rel = float((np.abs(a - n) / np.maximum(np.abs(a), np.abs(n))).max(initial=0.0))
    return ok and max_rel < tol, max_rel


def _roundoff_allowance(total: float) -> float:
    """The allowance A of a probe whose terms total ``total`` (module doc)."""
    return ROUNDOFF_FACTOR * EPS * total / H_STEP


def probe_gradients(run: Callable[..., np.ndarray], up: np.ndarray,
                    *arrays: np.ndarray) -> list[np.ndarray]:
    """Numerical gradient of the probe ``sum(up * run(*arrays))`` with
    respect to each of ``arrays``, in order; the others stay fixed."""
    grads = []
    for i, x in enumerate(arrays):
        def loss(v, i=i):
            return float(np.sum(up * run(*arrays[:i], v, *arrays[i + 1:])))

        grads.append(numerical_gradient(loss, x))
    return grads


def _op_check(name: str, rng: np.random.Generator, cases) -> CheckResult:
    """Runs every operator check but softmax_xent's. Each case is
    ``(forward, backward, arrays)``: ``forward(*arrays)`` gives the op's
    ``(output Tensor, ctx)``, after which the upstream ``up`` is drawn from
    ``rng``, and ``backward(Tensor(up), ctx)`` gives one gradient Tensor per
    array. Each is compared with probe_gradients of the forward, allowing
    the round-off of the probe ``sum(up * out)``. ``cases`` may be a
    generator, so a case can draw its arrays after the previous case's
    ``up``. The result is ok only if every gradient passes, with the worst
    relative error."""
    worst, ok = 0.0, True
    for forward, backward, arrays in cases:
        out, ctx = forward(*arrays)
        up = rng.standard_normal(out.shape)
        allowance = _roundoff_allowance(float(np.sum(np.abs(up * out.array))))
        numeric = probe_gradients(lambda *a: forward(*a)[0].array, up, *arrays)
        for analytic, num in zip(backward(Tensor(up), ctx), numeric, strict=True):
            piece_ok, rel = compare_gradients(analytic.array, num, OP_TOL, allowance)
            worst, ok = max(worst, rel), ok and piece_ok
    return CheckResult(name=name, max_rel=worst, tol=OP_TOL, ok=ok)


# ---------------------------------------------------------------------------
# per-operator checks
# ---------------------------------------------------------------------------

def check_conv2d(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    configs = [
        nnops.Conv2dSpec(3, 4, 3, 3, padding=1, groups=1),   # plain
        nnops.Conv2dSpec(4, 6, 3, 3, padding=1, groups=2),   # grouped
        nnops.Conv2dSpec(6, 6, 3, 3, padding=1, groups=6),   # depthwise
        nnops.Conv2dSpec(5, 7, 1, 1, padding=0, groups=1),   # pointwise
        nnops.Conv2dSpec(4, 4, 2, 3, padding=2, groups=2),   # asymmetric kernel
    ]

    def cases():
        # the input comes pre-padded and the upstream pre-framed, as in the
        # model, wherever the kernel and padding allow a frame of one width
        for spec in configs:
            shapes = ((2, spec.in_channels, 6, 7), spec.weight_shape(), (spec.out_channels,))
            width = spec.kernel_h - 1 - spec.padding
            framable = width == spec.kernel_w - 1 - spec.padding >= 0
            yield (lambda x, w, b: nnops.conv2d_forward(
                       nnops.framed(Tensor(x), spec.padding), Tensor(w), Tensor(b), spec),
                   lambda up, ctx: nnops.conv2d_backward(
                       nnops.framed(up, width) if framable else up, ctx),
                   tuple(rng.standard_normal(s) for s in shapes))

    return _op_check("conv2d", rng, cases())


def check_batchnorm(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    x = rng.standard_normal((3, 4, 5, 5))
    gamma = rng.standard_normal(4) + 1.5
    beta = rng.standard_normal(4)

    def forward(x, gamma, beta):
        # a fresh state per call: a train forward updates the running statistics
        st = nnops.BatchNormState.create(4, "f64")
        st.gamma, st.beta = gamma.copy(), beta.copy()
        return nnops.batchnorm_forward(Tensor(x), st)

    return _op_check("batchnorm", rng, [(forward, nnops.batchnorm_backward, (x, gamma, beta))])


def _away_from(values: np.ndarray, kinks: list[float]) -> np.ndarray:
    """Push sampled values at least KINK_MARGIN away from each kink."""
    out = values.copy()
    for k in kinks:
        close = np.abs(out - k) < KINK_MARGIN
        out[close] = k + np.where(out[close] >= k, 2 * KINK_MARGIN, -2 * KINK_MARGIN)
    return out


def _check_elementwise(name: str, seed: int, stream: int, fwd, bwd,
                       kinks: list[float], threshold: float = 0.0) -> CheckResult:
    """An activation's backward takes ``nnops.backward_mask`` of the input
    as its context."""
    rng = np.random.Generator(np.random.PCG64([seed, stream]))
    x = _away_from(rng.standard_normal((2, 3, 4, 4)) * 2.5, kinks)
    return _op_check(name, rng, [(
        lambda v: (fwd(Tensor(v)), nnops.backward_mask(Tensor(v), name, threshold)),
        lambda up, mask: [bwd(up, mask)], (x,))])


def check_relu(seed: int) -> CheckResult:
    return _check_elementwise("relu", seed, 10, nnops.relu, nnops.relu_backward, [0.0])


def check_tlu(seed: int) -> CheckResult:
    t = zhunet.TLU_THRESHOLD
    return _check_elementwise("tlu", seed, 11, lambda x: nnops.tlu(x, t),
                              nnops.tlu_backward, [-t, t], t)


def check_abs(seed: int) -> CheckResult:
    return _check_elementwise("abs", seed, 12, nnops.abs_act, nnops.abs_backward, [0.0])


def check_avg_pool(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 3]))
    cases = ((lambda v, win=win, stride=stride, padding=padding:
              nnops.avg_pool(Tensor(v), win, stride, padding),
              lambda up, ctx: [nnops.avg_pool_backward(up, ctx)],
              (rng.standard_normal((2, 3, 7, 7)),))
             for win, stride, padding in ((3, 2, 0), (5, 2, 2), (2, 2, 0)))
    return _op_check("avg_pool", rng, cases)


def check_spp(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 4]))
    cases = ((lambda v: nnops.spp_forward(Tensor(v), zhunet.SPP_LEVELS),
              lambda up, ctx: [nnops.spp_backward(up, ctx)],
              (rng.standard_normal((2, 3, a, a)),))
             for a in (7, 8))
    return _op_check("spp", rng, cases)


def check_linear(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 5]))
    arrays = tuple(rng.standard_normal(s) for s in ((3, 4), (4, 5), (5,)))
    return _op_check("linear", rng, [(
        lambda x, w, b: nnops.linear_forward(Tensor(x), Tensor(w), Tensor(b)),
        nnops.linear_backward, arrays)])


def check_softmax_xent(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 6]))
    z = rng.standard_normal((6, 2)) * 3.0
    labels = [int(v) for v in rng.integers(0, 2, size=6)]
    loss, grad = nnops.softmax_xent(Tensor(z), labels)
    numeric = numerical_gradient(lambda v: nnops.softmax_xent(Tensor(v), labels)[0], z)
    ok, max_rel = compare_gradients(grad.array, numeric, OP_TOL, _roundoff_allowance(abs(loss)))
    return CheckResult(name="softmax_xent", max_rel=max_rel, tol=OP_TOL, ok=ok)


def check_preprocess(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64([seed, 7]))
    layer = srm.PreprocessingLayer.build(dtype="f64")
    x = rng.standard_normal((1, 1, 8, 8)) * 10.0

    def forward(k3, k5):
        lay = srm.PreprocessingLayer(kernels3=Tensor(k3), kernels5=Tensor(k5))
        return srm.preprocess_forward(Tensor(x), lay)

    return _op_check("preprocess", rng, [(forward, srm.preprocess_backward,
                                          (layer.kernels3.array, layer.kernels5.array))])


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

def check_model(seed: int = 0) -> CheckResult:
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
    replace = len(usable) < MODEL_SAMPLES
    picks = rng.choice(len(usable), size=MODEL_SAMPLES, replace=replace)

    analytic = np.zeros(MODEL_SAMPLES)
    numeric = np.zeros(MODEL_SAMPLES)
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
            d_full = _central_difference(loss_now, arr, idx, H_STEP)
            d_half = _central_difference(loss_now, arr, idx, H_STEP / 2.0)
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
