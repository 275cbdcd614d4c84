"""Untimed correctness gate run after the measurement of every run.

Each check returns (ok, detail). A check that raises fails with the
exception text; the traceback goes to stderr.
"""
from __future__ import annotations

import math
import sys
import traceback

import numpy as np

from stegnet import gradcheck, nnops, zhunet
from stegnet.tensor import Tensor

# A ReLU or abs kink crossed inside the step window adds an error of fixed size
# whose odds shrink with the step, while a wrong gradient's error does not
# shrink; at 256x256 about a tenth of seeds cross one at 1e-8, so the check
# steps at 1e-9 and tries 1e-10 before it fails.
DIRECTIONAL_STEPS = (1e-9, 1e-10)
DIRECTIONAL_TOL = 1e-4


def directional_check(pair, seed: int) -> tuple[bool, str]:
    """Central difference of the f64 model's loss along a direction in
    parameter space, against the analytic directional derivative.

    The direction is each parameter tensor's gradient scaled to unit norm, so
    every tensor contributes its gradient norm to the analytic value. The
    numeric side uses only forward passes, so it does not share code with
    backward; running it on the workload's own image size reaches whatever
    backward path that size selects. The pair is dithered by U(-0.5, 0.5):
    tied 8-bit pixels give exactly zero residuals, which would put the abs
    kink of every flat patch exactly at the evaluation point.
    """
    model = zhunet.build_model(zhunet.ModelConfig(dtype="f64", seed=seed))
    pixels = _pair_images(pair, np.float64)
    dither = np.random.Generator(np.random.PCG64([seed, 7])).uniform(-0.5, 0.5, pixels.shape)
    images = Tensor(pixels + dither)
    labels = [0, 1]

    def loss() -> float:
        return nnops.softmax_xent(model.forward(images, mode="train"), labels)[0]

    _, grad_logits = nnops.softmax_xent(model.forward(images, mode="train"), labels)
    grads = model.backward(grad_logits)
    params = model.parameters()
    origin = {name: p.array.copy() for name, p in params.items()}
    direction = {}
    analytic = 0.0
    for name, g in grads.items():
        norm = float(np.linalg.norm(g.array))
        if norm > 0:
            direction[name] = g.array / norm
            analytic += norm

    def shifted(step: float) -> float:
        for name, d in direction.items():
            np.copyto(params[name].array, origin[name] + step * d)
        try:
            return loss()
        finally:
            for name in direction:
                np.copyto(params[name].array, origin[name])

    tried = []
    for step in DIRECTIONAL_STEPS:
        numeric = (shifted(step) - shifted(-step)) / (2 * step)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-300)
        tried.append(f"h={step:g}: numeric={numeric:.9g} rel={rel:.2e}")
        if rel < DIRECTIONAL_TOL:
            break
    return rel < DIRECTIONAL_TOL, f"analytic={analytic:.9g} " + ", ".join(tried)


def _pair_images(pair, dtype) -> np.ndarray:
    """[2, 1, H, W] batch of a pair's cover and stego."""
    return np.stack([pair.cover.as_array(), pair.stego.as_array()]).astype(dtype)[:, None]


def _rate_ok(error: float, images: int) -> bool:
    return 0.0 <= error <= 1.0 and abs(error * images - round(error * images)) < 1e-9


def train_checks(histories: list, best: bytes, val_images: int) -> list:
    """Checks on the (epoch, train_loss, val_error) histories of every round
    of a train workload and on the last round's best checkpoint."""

    def finite_losses():
        bad = [h for hist in histories for h in hist if not math.isfinite(h[1])]
        return not bad, f"{sum(len(h) for h in histories)} epoch losses, {len(bad)} non-finite"

    def error_rates():
        rates = [h[2] for hist in histories for h in hist]
        return all(_rate_ok(r, val_images) for r in rates), f"val_error {sorted(set(rates))}"

    def repeatable():
        return len(set(histories)) == 1, f"{len(set(histories))} distinct histories over {len(histories)} rounds"

    def roundtrip():
        again = zhunet.serialize_model(zhunet.deserialize_model(best))
        return again == best, f"{len(best)} checkpoint bytes"

    return [("finite_train_losses", finite_losses), ("error_rate_in_range", error_rates),
            ("rounds_bitwise_equal", repeatable), ("checkpoint_roundtrip", roundtrip)]


def eval_checks(errors: list[float], images: int, model, checkpoint: str, test_ds) -> list:
    """Checks on the error rates of every round of an eval workload."""

    def error_rates():
        return all(_rate_ok(e, images) for e in errors), f"error_rate {sorted(set(errors))}"

    def repeatable():
        return len(set(errors)) == 1, f"{len(set(errors))} distinct error rates over {len(errors)} rounds"

    def roundtrip():
        with open(checkpoint, "rb") as fh:
            raw = fh.read()
        return zhunet.serialize_model(zhunet.load_checkpoint(checkpoint)) == raw, f"{len(raw)} bytes"

    def finite_logits():
        logits = model.forward(Tensor(_pair_images(test_ds.pairs[0], np.float32)), mode="eval").array
        return bool(np.all(np.isfinite(logits))), f"logits {logits.tolist()}"

    return [("error_rate_in_range", error_rates), ("rounds_equal", repeatable),
            ("checkpoint_roundtrip", roundtrip), ("finite_logits", finite_logits)]


def suite_checks() -> list:
    def suite(scale: str):
        def check():
            results = gradcheck.run_suite(scale)
            failed = [r.line() for r in results if not r.ok]
            return not failed, "; ".join(failed) or f"{len(results)} checks ok"
        return check

    return [("gradcheck_ops", suite("ops")), ("gradcheck_model", suite("model"))]


def run_checks(checks: list) -> list[tuple[str, bool, str]]:
    results = []
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashing check is a failed check
            traceback.print_exc(file=sys.stderr)
            ok, detail = False, f"raised {exc!r}"
        results.append((name, bool(ok), detail))
    return results
