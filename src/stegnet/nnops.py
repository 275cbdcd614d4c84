"""Differentiable operators: grouped convolution, batch normalization,
activations, average pooling, spatial pyramid pooling, linear, and the
softmax cross-entropy loss.

Conventions
-----------
* Convolution is cross-correlation (no kernel flip); all padding is zero
  padding. Activation maps are [N, C, H, W].
* Operators that need saved state for the backward pass return
  ``(output, context)`` from the forward call; the backward call takes the
  upstream gradient plus that context and returns gradients matching the
  partials of ``sum(upstream * output)`` with respect to each forward input.
  Calling a backward with a missing context is a contract violation.
* Elementwise activations (relu / tlu / abs_act) return the bare output;
  their backwards take the upstream gradient and the original input.
* Forward/backward calls are pure functions of their arguments plus context;
  the only mutation is the running-statistics update inside
  ``batchnorm_forward`` in train mode.

Convolution kernels
-------------------
``conv2d_forward`` and ``conv2d_backward`` pick one of three kernels from
the ``Conv2dSpec`` alone (see :func:`conv_kernel`):

* ``depthwise`` -- stride 1, groups == in_channels == out_channels (the 3x3
  depthwise convs of the separable blocks): per image and block of channels,
  one multiply-add of a shifted slice per kernel tap. The weight gradient is
  one per-channel dot product per tap; the input gradient runs the same
  kernel on the framed upstream with the flipped kernel.
* ``taps`` -- stride 1 with more than one input channel per group (the 1x1
  pointwise and the dense 3x3 convs): one matmul per image and kernel tap
  over the flattened padded map, where tap (u, v) is the contiguous slice at
  offset u*wp+v. The weight gradient is one matmul per tap against the same
  slices; the input gradient runs the same kernel with the flipped,
  transposed weights.
* ``im2col`` -- everything else: stride > 1, and one input channel per group
  feeding several outputs (the preprocessing filter bank). Patches are a
  strided view regrouped for one batched matmul; the input gradient is
  scattered back tap by tap.

Average pooling sums its window separably (rows, then columns) and its
backward spreads in the reverse order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError, DataError, ShapeError, SpecError
from .tensor import DTYPES, Tensor


def _require_rank(t: Tensor, rank: int, what: str) -> None:
    if not isinstance(t, Tensor):
        raise ShapeError(f"{what} must be a Tensor, got {type(t).__name__}")
    if len(t.shape) != rank:
        raise ShapeError(f"{what} must have rank {rank}, got shape {t.shape}")


def _require_ctx(ctx, cls, op: str):
    if not isinstance(ctx, cls):
        raise ContractError(
            f"{op}_backward needs the context saved by {op}_forward; got {type(ctx).__name__}"
        )


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conv2dSpec:
    """Static description of a grouped 2-D convolution."""

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def validate(self) -> None:
        for name in ("in_channels", "out_channels", "kernel_h", "kernel_w", "stride", "groups"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise SpecError(f"conv2d spec field {name} must be a positive integer, got {v!r}")
        if not isinstance(self.padding, int) or self.padding < 0:
            raise SpecError(f"conv2d spec padding must be a non-negative integer, got {self.padding!r}")
        if self.in_channels % self.groups != 0:
            raise SpecError(
                f"conv2d groups ({self.groups}) must divide in_channels ({self.in_channels})"
            )
        if self.out_channels % self.groups != 0:
            raise SpecError(
                f"conv2d groups ({self.groups}) must divide out_channels ({self.out_channels})"
            )

    def output_size(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.padding - self.kernel_h) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel_w) // self.stride + 1
        if oh < 1 or ow < 1:
            raise SpecError(
                f"conv2d output would be empty: input {h}x{w}, kernel "
                f"{self.kernel_h}x{self.kernel_w}, stride {self.stride}, padding {self.padding}"
            )
        return oh, ow

    def weight_shape(self) -> tuple[int, int, int, int]:
        return (
            self.out_channels,
            self.in_channels // self.groups,
            self.kernel_h,
            self.kernel_w,
        )


@dataclass
class Conv2dContext:
    """What conv2d_backward needs from the forward call.

    ``x_padded`` is the zero-padded input, which every kernel reads again
    for the weight gradient. ``input_grad`` is False when the caller needs
    only the weight and bias gradients; conv2d_backward then returns None
    for the input gradient instead of computing it. The kernel that serves
    the backward is chosen from ``spec`` by :func:`conv_kernel`, the same
    way as in the forward call.
    """

    spec: Conv2dSpec
    x_padded: np.ndarray
    weights: np.ndarray
    has_bias: bool
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    input_grad: bool = True


def conv_kernel(spec: Conv2dSpec) -> str:
    """The kernel that serves ``spec``: "depthwise" for a stride-1 conv with
    one input and one output channel per group, "taps" for a stride-1 conv
    with more than one input channel per group, "im2col" for the rest
    (stride > 1, or one input channel per group feeding several outputs)."""
    if spec.stride != 1:
        return "im2col"
    if spec.groups == spec.in_channels == spec.out_channels:
        return "depthwise"
    if spec.in_channels > spec.groups:
        return "taps"
    return "im2col"


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Strided view of all kernel-sized patches: [N, C, kh, kw, oh, ow]."""
    n, c, _, _ = xp.shape
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def _conv_cols(xp: np.ndarray, spec: Conv2dSpec, oh: int, ow: int) -> np.ndarray:
    """Patches regrouped for batched matmul: [N, groups, Cg*kh*kw, oh*ow]."""
    n = xp.shape[0]
    g = spec.groups
    cg = spec.in_channels // g
    view = _im2col(xp, spec.kernel_h, spec.kernel_w, spec.stride, oh, ow)
    return view.reshape(n, g, cg * spec.kernel_h * spec.kernel_w, oh * ow)


def _full_upstream(up: np.ndarray, spec: Conv2dSpec, h: int, w: int) -> np.ndarray:
    """The upstream gradient framed so that correlating it with the flipped
    kernel (stride 1) gives the [h, w] input gradient directly: kernel-1-pad
    zero rows and columns on each side, cropped where the padding exceeds
    kernel-1."""
    top, left = spec.kernel_h - 1 - spec.padding, spec.kernel_w - 1 - spec.padding
    fh, fw = h + spec.kernel_h - 1, w + spec.kernel_w - 1
    if top == left == 0 and up.shape[2:] == (fh, fw):
        return up
    out = np.zeros(up.shape[:2] + (fh, fw), dtype=up.dtype)
    r0, c0 = max(top, 0), max(left, 0)
    src = up[:, :, r0 - top :, c0 - left :]
    rows, cols = min(src.shape[2], fh - r0), min(src.shape[3], fw - c0)
    out[:, :, r0 : r0 + rows, c0 : c0 + cols] = src[:, :, :rows, :cols]
    return out


# Channel planes a depthwise tap handles per call, sized so that one block
# of the output and of the product buffer stays in cache.
_DW_BLOCK_ELEMS = 1 << 16


def _depthwise_taps(xp: np.ndarray, k: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Stride-1 depthwise correlation of a padded [N, C, oh+kh-1, ow+kw-1]
    map with per-channel kernels k [C, kh, kw]: for each image and block of
    channels, one multiply-add of a shifted slice per kernel tap."""
    n, c = xp.shape[:2]
    kh, kw = k.shape[1], k.shape[2]
    out = np.empty((n, c, oh, ow), dtype=xp.dtype)
    block = max(1, _DW_BLOCK_ELEMS // (oh * ow))
    prod = np.empty((min(block, c), oh, ow), dtype=xp.dtype)
    for i in range(n):
        for c0 in range(0, c, block):
            c1 = min(c, c0 + block)
            acc, tmp, src = out[i, c0:c1], prod[: c1 - c0], xp[i, c0:c1]
            for u in range(kh):
                for v in range(kw):
                    tap = k[c0:c1, u, v, None, None]
                    if u == 0 and v == 0:
                        np.multiply(src[:, u : u + oh, v : v + ow], tap, out=acc)
                    else:
                        np.multiply(src[:, u : u + oh, v : v + ow], tap, out=tmp)
                        acc += tmp
    return out


def _matmul_taps(xp: np.ndarray, wt: np.ndarray, kh: int, kw: int,
                 oh: int, ow: int) -> np.ndarray:
    """Stride-1 grouped correlation of a padded, C-contiguous [N, Cin, hp, wp]
    map with per-tap weight matrices wt [kh*kw, groups, og, cg]: one matmul
    per image and tap. Each tap reads the flattened padded map at offset
    u*wp+v, so the output comes out on the padded width wp; the last kw-1
    columns of every row are discarded."""
    n, _, hp, wp = xp.shape
    _, g, og, cg = wt.shape
    span = (oh - 1) * wp + ow
    xf = xp.reshape(n, g, cg, hp * wp)
    wide = np.empty((n, g, og, oh * wp), dtype=xp.dtype)
    tmp = np.empty((g, og, span), dtype=xp.dtype)
    for i in range(n):
        acc = wide[i, :, :, :span]
        for u in range(kh):
            for v in range(kw):
                off = u * wp + v
                if u == 0 and v == 0:
                    np.matmul(wt[0], xf[i, :, :, off : off + span], out=acc)
                else:
                    np.matmul(wt[u * kw + v], xf[i, :, :, off : off + span], out=tmp)
                    acc += tmp
    out = wide.reshape(n, g * og, oh, wp)
    return out if wp == ow else np.ascontiguousarray(out[:, :, :, :ow])


def _tap_weights(w: np.ndarray, groups: int) -> np.ndarray:
    """[Cout, cg, kh, kw] weights as per-tap matrices [kh*kw, groups, og, cg]."""
    cout, cg, kh, kw = w.shape
    return np.ascontiguousarray(
        w.reshape(groups, cout // groups, cg, kh * kw).transpose(3, 0, 1, 2)
    )


def conv2d_forward(
    inp: Tensor, weights: Tensor, bias: Optional[Tensor], spec: Conv2dSpec
) -> tuple[Tensor, Conv2dContext]:
    """Grouped 2-D cross-correlation.

    inp: [N, Cin, H, W]; weights: [Cout, Cin/groups, kh, kw]; bias: [Cout] or
    None. Returns the [N, Cout, oh, ow] output and the context for backward.
    """
    spec.validate()
    _require_rank(inp, 4, "conv2d input")
    _require_rank(weights, 4, "conv2d weights")
    x = inp.array
    w = weights.array
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"conv2d input has {x.shape[1]} channels, spec says {spec.in_channels}"
        )
    if w.shape != spec.weight_shape():
        raise ShapeError(
            f"conv2d weights shape {w.shape} does not match spec {spec.weight_shape()}"
        )
    if w.dtype != x.dtype:
        raise ShapeError(f"conv2d weight dtype {weights.dtype} differs from input {inp.dtype}")
    b = None
    if bias is not None:
        _require_rank(bias, 1, "conv2d bias")
        if bias.shape != (spec.out_channels,):
            raise ShapeError(f"conv2d bias shape {bias.shape}, expected ({spec.out_channels},)")
        if bias.dtype != inp.dtype:
            raise ShapeError(f"conv2d bias dtype {bias.dtype} differs from input {inp.dtype}")
        b = bias.array

    n, _, h, wdt = x.shape
    oh, ow = spec.output_size(h, wdt)
    p = spec.padding
    if p:
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    else:
        xp = x

    kernel = conv_kernel(spec)
    if kernel == "depthwise":
        out = _depthwise_taps(xp, w[:, 0], oh, ow)
    elif kernel == "taps":
        out = _matmul_taps(xp, _tap_weights(w, spec.groups), spec.kernel_h, spec.kernel_w, oh, ow)
    else:
        g = spec.groups
        cols = _conv_cols(xp, spec, oh, ow)
        wmat = w.reshape(g, spec.out_channels // g, -1)
        out = np.matmul(wmat[None], cols)  # [N, g, og, oh*ow]
        out = out.reshape(n, spec.out_channels, oh, ow)
    if b is not None:
        out += b[None, :, None, None]
    ctx = Conv2dContext(
        spec=spec,
        x_padded=xp,
        weights=w,
        has_bias=b is not None,
        in_shape=x.shape,
        out_shape=out.shape,
    )
    return Tensor(out), ctx


def _depthwise_backward(up: np.ndarray, ctx: Conv2dContext) -> tuple[Optional[np.ndarray], np.ndarray]:
    spec, xp, w = ctx.spec, ctx.x_padded, ctx.weights
    kh, kw = spec.kernel_h, spec.kernel_w
    oh, ow = up.shape[2], up.shape[3]
    grad_w = np.zeros_like(w)
    for i in range(up.shape[0]):
        for u in range(kh):
            for v in range(kw):
                grad_w[:, 0, u, v] += np.einsum("chw,chw->c", up[i], xp[i, :, u : u + oh, v : v + ow])
    grad_x = None
    if ctx.input_grad:
        h, w_in = ctx.in_shape[2], ctx.in_shape[3]
        grad_x = _depthwise_taps(_full_upstream(up, spec, h, w_in), w[:, 0, ::-1, ::-1], h, w_in)
    return grad_x, grad_w


def _matmul_taps_backward(up: np.ndarray, ctx: Conv2dContext) -> tuple[Optional[np.ndarray], np.ndarray]:
    spec, xp = ctx.spec, ctx.x_padded
    kh, kw, g = spec.kernel_h, spec.kernel_w, spec.groups
    n, cin, hp, wp = xp.shape
    oh, ow = up.shape[2], up.shape[3]
    og, cg = spec.out_channels // g, cin // g
    span = (oh - 1) * wp + ow
    # the upstream on the padded width, zero in the discarded columns, so
    # each tap's weight gradient is one matmul against a flat input slice
    if wp == ow:
        up_wide = up
    else:
        up_wide = np.zeros((n, spec.out_channels, oh, wp), dtype=up.dtype)
        up_wide[:, :, :, :ow] = up
    upf = up_wide.reshape(n, g, og, oh * wp)[:, :, :, :span]
    xf = xp.reshape(n, g, cg, hp * wp)
    grad_wt = np.empty((kh * kw, g, og, cg), dtype=up.dtype)
    for u in range(kh):
        for v in range(kw):
            off = u * wp + v
            per_image = np.matmul(upf, xf[:, :, :, off : off + span].swapaxes(2, 3))
            grad_wt[u * kw + v] = per_image.sum(axis=0)
    grad_w = grad_wt.transpose(1, 2, 3, 0).reshape(ctx.weights.shape)
    grad_x = None
    if ctx.input_grad:
        # the input gradient is the upstream correlated with the flipped,
        # transposed kernel: reversing the tap order flips both axes
        h, w_in = ctx.in_shape[2], ctx.in_shape[3]
        wt_flip = np.ascontiguousarray(_tap_weights(ctx.weights, g)[::-1].swapaxes(2, 3))
        grad_x = _matmul_taps(_full_upstream(up, spec, h, w_in), wt_flip, kh, kw, h, w_in)
    return grad_x, grad_w


def _im2col_backward(up: np.ndarray, ctx: Conv2dContext) -> tuple[Optional[np.ndarray], np.ndarray]:
    spec = ctx.spec
    n, _, oh, ow = up.shape
    g = spec.groups
    og = spec.out_channels // g
    kh, kw, s, p = spec.kernel_h, spec.kernel_w, spec.stride, spec.padding

    gy = up.reshape(n, g, og, oh * ow)
    # patches are recomputed from the saved padded input rather than stored
    cols = _conv_cols(ctx.x_padded, spec, oh, ow)
    grad_w = np.matmul(gy, cols.transpose(0, 1, 3, 2)).sum(axis=0)
    grad_w = grad_w.reshape(ctx.weights.shape)
    if not ctx.input_grad:
        return None, grad_w

    wmat = ctx.weights.reshape(g, og, -1)
    grad_cols = np.matmul(wmat.transpose(0, 2, 1)[None], gy)  # [N, g, Cg*kh*kw, oh*ow]
    grad_cols = grad_cols.reshape(n, spec.in_channels, kh, kw, oh, ow)
    grad_xp = np.zeros_like(ctx.x_padded)
    for u in range(kh):
        for v in range(kw):
            grad_xp[:, :, u : u + s * oh : s, v : v + s * ow : s] += grad_cols[:, :, u, v]
    if p:
        h, w_in = ctx.in_shape[2], ctx.in_shape[3]
        return grad_xp[:, :, p : p + h, p : p + w_in], grad_w
    return grad_xp, grad_w


_CONV_BACKWARD = {
    "depthwise": _depthwise_backward,
    "taps": _matmul_taps_backward,
    "im2col": _im2col_backward,
}


def conv2d_backward(
    upstream: Tensor, ctx: Conv2dContext
) -> tuple[Optional[Tensor], Tensor, Optional[Tensor]]:
    """Gradients (grad_input, grad_weights, grad_bias-or-None) for conv2d.

    grad_input is None when the context was made with ``input_grad=False``.
    """
    _require_ctx(ctx, Conv2dContext, "conv2d")
    _require_rank(upstream, 4, "conv2d upstream")
    if upstream.shape != ctx.out_shape:
        raise ShapeError(
            f"conv2d upstream shape {upstream.shape} does not match output {ctx.out_shape}"
        )
    up = upstream.array
    if up.dtype != ctx.x_padded.dtype:
        raise ShapeError("conv2d upstream dtype differs from forward input")

    grad_x, grad_w = _CONV_BACKWARD[conv_kernel(ctx.spec)](up, ctx)
    grad_b = Tensor(up.sum(axis=(0, 2, 3))) if ctx.has_bias else None
    return (None if grad_x is None else Tensor(grad_x)), Tensor(grad_w), grad_b


# ---------------------------------------------------------------------------
# average pooling
# ---------------------------------------------------------------------------

@dataclass
class AvgPoolContext:
    win: int
    stride: int
    padding: int
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    dtype: np.dtype


def _window_taps(size: int, out_size: int, win: int, stride: int, pad: int):
    """For each window offset u along one axis: (first, last+1) output
    positions whose window reads an input position at offset u, and the
    slice of input positions they read. Positions in the zero padding are
    skipped, since they add nothing to a sum."""
    for u in range(win):
        lo = max(0, -(-(pad - u) // stride))
        hi = min(out_size, (size - 1 - u + pad) // stride + 1)
        if lo < hi:
            start = lo * stride + u - pad
            yield lo, hi, slice(start, start + (hi - lo - 1) * stride + 1, stride)


def _box_sum(a: np.ndarray, axis: int, out_size: int, win: int, stride: int, pad: int) -> np.ndarray:
    """Windowed sums of ``a`` along ``axis`` (2 or 3) with zero padding."""
    shape = list(a.shape)
    shape[axis] = out_size
    out = np.zeros(shape, dtype=a.dtype)
    lead = (slice(None),) * axis
    for lo, hi, src in _window_taps(a.shape[axis], out_size, win, stride, pad):
        out[lead + (slice(lo, hi),)] += a[lead + (src,)]
    return out


def _box_spread(g: np.ndarray, axis: int, size: int, win: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of :func:`_box_sum`: adds each windowed sum's gradient back
    onto the ``size`` input positions its window covers."""
    shape = list(g.shape)
    shape[axis] = size
    out = np.zeros(shape, dtype=g.dtype)
    lead = (slice(None),) * axis
    for lo, hi, dst in _window_taps(size, g.shape[axis], win, stride, pad):
        out[lead + (dst,)] += g[lead + (slice(lo, hi),)]
    return out


def avg_pool(
    inp: Tensor, win: int, stride: int, padding: int = 0
) -> tuple[Tensor, AvgPoolContext]:
    """Average pooling with a square window.

    Zero padding counts toward the window average (the pad pixels contribute
    zeros and the divisor stays win*win). The window sum is separable: rows
    are summed first, then columns.
    """
    _require_rank(inp, 4, "avg_pool input")
    if not isinstance(win, int) or win < 1:
        raise SpecError(f"avg_pool window must be a positive integer, got {win!r}")
    if not isinstance(stride, int) or stride < 1:
        raise SpecError(f"avg_pool stride must be a positive integer, got {stride!r}")
    if not isinstance(padding, int) or padding < 0:
        raise SpecError(f"avg_pool padding must be a non-negative integer, got {padding!r}")
    x = inp.array
    h, w = x.shape[2], x.shape[3]
    hp, wp = h + 2 * padding, w + 2 * padding
    if win > hp or win > wp:
        raise SpecError(
            f"avg_pool window {win} exceeds padded input {hp}x{wp}"
        )
    oh = (hp - win) // stride + 1
    ow = (wp - win) // stride + 1
    rows = _box_sum(x, 2, oh, win, stride, padding)
    out = _box_sum(rows, 3, ow, win, stride, padding)
    out /= x.dtype.type(win * win)
    ctx = AvgPoolContext(win, stride, padding, x.shape, out.shape, x.dtype)
    return Tensor(out), ctx


def avg_pool_backward(upstream: Tensor, ctx: AvgPoolContext) -> Tensor:
    """Distributes each upstream value uniformly over its pooling window:
    columns first, then rows (the forward's sums in reverse)."""
    _require_ctx(ctx, AvgPoolContext, "avg_pool")
    _require_rank(upstream, 4, "avg_pool upstream")
    if upstream.shape != ctx.out_shape:
        raise ShapeError(
            f"avg_pool upstream shape {upstream.shape} does not match output {ctx.out_shape}"
        )
    h, w = ctx.in_shape[2], ctx.in_shape[3]
    win, s, p = ctx.win, ctx.stride, ctx.padding
    scaled = upstream.array / ctx.dtype.type(win * win)
    cols = _box_spread(scaled, 3, w, win, s, p)
    return Tensor(_box_spread(cols, 2, h, win, s, p))


# ---------------------------------------------------------------------------
# elementwise activations
# ---------------------------------------------------------------------------

def relu(inp: Tensor) -> Tensor:
    """max(x, 0)."""
    _require_tensor(inp, "relu input")
    return Tensor(np.maximum(inp.array, 0))


def relu_backward(upstream: Tensor, inp: Tensor) -> Tensor:
    _require_same_shape(upstream, inp, "relu")
    return Tensor(upstream.array * (inp.array > 0))


def tlu(inp: Tensor, threshold: float) -> Tensor:
    """Truncated linear unit: clamp(x, -T, T); T must be positive."""
    _require_tensor(inp, "tlu input")
    if not (threshold > 0):
        raise SpecError(f"tlu threshold must be positive, got {threshold!r}")
    t = inp.array.dtype.type(threshold)
    return Tensor(np.clip(inp.array, -t, t))


def tlu_backward(upstream: Tensor, inp: Tensor, threshold: float) -> Tensor:
    _require_same_shape(upstream, inp, "tlu")
    if not (threshold > 0):
        raise SpecError(f"tlu threshold must be positive, got {threshold!r}")
    x = inp.array
    inside = (x > -threshold) & (x < threshold)
    return Tensor(upstream.array * inside)


def abs_act(inp: Tensor) -> Tensor:
    """|x|; subgradient at 0 is taken as 0."""
    _require_tensor(inp, "abs input")
    return Tensor(np.abs(inp.array))


def abs_backward(upstream: Tensor, inp: Tensor) -> Tensor:
    _require_same_shape(upstream, inp, "abs")
    return Tensor(upstream.array * np.sign(inp.array))


def _require_tensor(t, what: str) -> None:
    if not isinstance(t, Tensor):
        raise ShapeError(f"{what} must be a Tensor, got {type(t).__name__}")


def _require_same_shape(upstream: Tensor, inp: Tensor, op: str) -> None:
    _require_tensor(upstream, f"{op} upstream")
    _require_tensor(inp, f"{op} saved input")
    if upstream.shape != inp.shape:
        raise ShapeError(
            f"{op}_backward shapes differ: upstream {upstream.shape} vs input {inp.shape}"
        )


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

@dataclass
class BatchNormState:
    """Per-channel affine parameters plus running statistics.

    ``mode`` selects train behaviour (batch statistics, running update) or
    eval behaviour (running statistics, no mutation). Variance is the biased
    batch variance (divide by the element count, not count-1).
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5
    mode: str = "train"

    @classmethod
    def create(cls, channels: int, dtype: str = "f32", momentum: float = 0.1,
               eps: float = 1e-5) -> "BatchNormState":
        if not isinstance(channels, int) or channels < 1:
            raise SpecError(f"batchnorm channels must be a positive integer, got {channels!r}")
        if dtype not in DTYPES:
            raise SpecError(f"unknown dtype {dtype!r}")
        dt = DTYPES[dtype]
        return cls(
            gamma=np.ones(channels, dtype=dt),
            beta=np.zeros(channels, dtype=dt),
            running_mean=np.zeros(channels, dtype=dt),
            running_var=np.ones(channels, dtype=dt),
            momentum=momentum,
            eps=eps,
        )


@dataclass
class BatchNormContext:
    """What batchnorm_backward needs. ``centred`` is x - batch mean in train
    mode; in eval mode it is the input itself and ``offset`` holds the
    running mean still to subtract from it (None in train mode)."""

    centred: np.ndarray
    offset: Optional[np.ndarray]
    inv_std: np.ndarray  # per channel
    gamma: np.ndarray
    count: int
    mode: str


def _per_channel(v: np.ndarray) -> np.ndarray:
    return v[None, :, None, None]


def batchnorm_forward(inp: Tensor, state: BatchNormState) -> tuple[Tensor, BatchNormContext]:
    """Per-channel normalization of a [N, C, H, W] map.

    Train mode normalizes with the biased batch statistics and folds them
    into the running averages: running = (1-momentum)*running + momentum*batch.
    Eval mode normalizes with the running statistics and mutates nothing.
    Either way gamma*inv_std is applied as one per-channel scale.
    """
    _require_rank(inp, 4, "batchnorm input")
    x = inp.array
    c = x.shape[1]
    if state.gamma.shape != (c,):
        raise ShapeError(
            f"batchnorm state has {state.gamma.shape[0]} channels, input has {c}"
        )
    if state.mode not in ("train", "eval"):
        raise SpecError(f"batchnorm mode must be 'train' or 'eval', got {state.mode!r}")
    dt = x.dtype
    if state.gamma.dtype != dt:
        raise ShapeError(f"batchnorm state dtype {state.gamma.dtype} differs from input {dt}")

    if state.mode == "train":
        count = x.shape[0] * x.shape[2] * x.shape[3]
        if count < 2:
            raise DataError(
                f"batchnorm train mode needs at least 2 values per channel, got {count}"
            )
        mean = np.einsum("nchw->c", x) / dt.type(count)
        centred = x - _per_channel(mean)
        var = np.einsum("nchw,nchw->c", centred, centred) / dt.type(count)  # biased
        m = dt.type(state.momentum)
        state.running_mean *= 1 - m
        state.running_mean += m * mean
        state.running_var *= 1 - m
        state.running_var += m * var
        inv_std = 1.0 / np.sqrt(var + dt.type(state.eps))
        scale = state.gamma * inv_std
        out = centred * _per_channel(scale)
        out += _per_channel(state.beta)
        offset = None
    else:
        count = 0
        centred = x
        offset = state.running_mean.copy()
        inv_std = 1.0 / np.sqrt(state.running_var + dt.type(state.eps))
        scale = state.gamma * inv_std
        out = x * _per_channel(scale)
        out += _per_channel(state.beta - offset * scale)
    ctx = BatchNormContext(centred=centred, offset=offset, inv_std=inv_std.astype(dt, copy=False),
                           gamma=state.gamma.copy(), count=count, mode=state.mode)
    return Tensor(out), ctx


def batchnorm_backward(
    upstream: Tensor, ctx: BatchNormContext
) -> tuple[Tensor, Tensor, Tensor]:
    """Gradients (grad_input, grad_gamma, grad_beta)."""
    _require_ctx(ctx, BatchNormContext, "batchnorm")
    _require_rank(upstream, 4, "batchnorm upstream")
    up = upstream.array
    if up.shape != ctx.centred.shape:
        raise ShapeError(
            f"batchnorm upstream shape {up.shape} does not match output {ctx.centred.shape}"
        )
    grad_beta = np.einsum("nchw->c", up)
    dot = np.einsum("nchw,nchw->c", up, ctx.centred)  # sum of up * (x - mean) / inv_std
    if ctx.offset is not None:
        dot -= ctx.offset * grad_beta
    grad_gamma = dot * ctx.inv_std
    scale = ctx.gamma * ctx.inv_std
    grad_x = up * _per_channel(scale)
    if ctx.mode == "train":
        # the batch statistics depend on x: subtract the mean of the scaled
        # upstream and its projection onto the normalized input
        n = up.dtype.type(ctx.count)
        grad_x -= ctx.centred * _per_channel(scale * ctx.inv_std * ctx.inv_std * dot / n)
        grad_x -= _per_channel(scale * grad_beta / n)
    return Tensor(grad_x), Tensor(grad_gamma), Tensor(grad_beta)


# ---------------------------------------------------------------------------
# spatial pyramid pooling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SppConfig:
    """Pyramid levels (grid sizes) pooled with averaging, coarse bins last."""

    levels: tuple[int, ...] = (4, 2, 1)

    def validate(self) -> None:
        if len(self.levels) == 0:
            raise SpecError("spp needs at least one pyramid level")
        for n in self.levels:
            if not isinstance(n, int) or n < 1:
                raise SpecError(f"spp levels must be positive integers, got {self.levels!r}")

    @property
    def bins(self) -> int:
        return sum(n * n for n in self.levels)


def spp_windows(a: int, n: int) -> tuple[int, int]:
    """Window and stride that carve an a-by-a map into an n-by-n grid:
    win = ceil(a/n), stride = floor(a/n)."""
    if n < 1 or a < 1:
        raise SpecError(f"spp grid needs positive sizes, got a={a}, n={n}")
    return -(-a // n), a // n


@dataclass
class SppContext:
    cfg: SppConfig
    in_shape: tuple[int, ...]
    slices: list[tuple[int, int, int, int]]  # per output bin: r0, r1, c0, c1
    dtype: np.dtype


def spp_forward(inp: Tensor, cfg: SppConfig) -> tuple[Tensor, SppContext]:
    """Fixed-length descriptor from a square [N, K, a, a] map.

    Output is [N, K*M] with M = sum(n^2): values are grouped channel-major
    (all M bins of channel 0, then channel 1, ...), levels in ``cfg.levels``
    order and bins in row-major grid order within a level.
    """
    cfg.validate()
    _require_rank(inp, 4, "spp input")
    x = inp.array
    n_batch, k, h, w = x.shape
    if h != w:
        raise ShapeError(f"spp expects square feature maps, got {h}x{w}")
    a = h
    worst = max(cfg.levels)
    if a < worst:
        raise SpecError(f"spp input size {a} is smaller than pyramid level {worst}")

    per_level = []
    slices: list[tuple[int, int, int, int]] = []
    for n in cfg.levels:
        win, stride = spp_windows(a, n)
        pooled = np.empty((n_batch, k, n * n), dtype=x.dtype)
        for i in range(n):
            r0 = i * stride
            r1 = min(r0 + win, a)
            for j in range(n):
                c0 = j * stride
                c1 = min(c0 + win, a)
                pooled[:, :, i * n + j] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
                slices.append((r0, r1, c0, c1))
        per_level.append(pooled)
    stacked = np.concatenate(per_level, axis=2)  # [N, K, M]
    out = stacked.reshape(n_batch, k * cfg.bins)
    ctx = SppContext(cfg=cfg, in_shape=x.shape, slices=slices, dtype=x.dtype)
    return Tensor(out), ctx


def spp_backward(upstream: Tensor, ctx: SppContext) -> Tensor:
    _require_ctx(ctx, SppContext, "spp")
    _require_rank(upstream, 2, "spp upstream")
    n_batch, k = ctx.in_shape[0], ctx.in_shape[1]
    m = ctx.cfg.bins
    if upstream.shape != (n_batch, k * m):
        raise ShapeError(
            f"spp upstream shape {upstream.shape}, expected ({n_batch}, {k * m})"
        )
    up = upstream.array.reshape(n_batch, k, m)
    grad = np.zeros(ctx.in_shape, dtype=ctx.dtype)
    for b, (r0, r1, c0, c1) in enumerate(ctx.slices):
        count = ctx.dtype.type((r1 - r0) * (c1 - c0))
        grad[:, :, r0:r1, c0:c1] += (up[:, :, b] / count)[:, :, None, None]
    return Tensor(grad)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

@dataclass
class LinearContext:
    x: np.ndarray
    w: np.ndarray
    out_shape: tuple[int, ...]


def linear_forward(inp: Tensor, weights: Tensor, bias: Tensor) -> tuple[Tensor, LinearContext]:
    """Affine map: [N, D] @ [D, E] + [E]."""
    _require_rank(inp, 2, "linear input")
    _require_rank(weights, 2, "linear weights")
    _require_rank(bias, 1, "linear bias")
    x, w, b = inp.array, weights.array, bias.array
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear input dim {x.shape[1]} does not match weights {w.shape}")
    if b.shape[0] != w.shape[1]:
        raise ShapeError(f"linear bias dim {b.shape[0]} does not match weights {w.shape}")
    if w.dtype != x.dtype or b.dtype != x.dtype:
        raise ShapeError("linear parameter dtypes differ from input")
    out = x @ w + b
    return Tensor(out), LinearContext(x=x, w=w, out_shape=out.shape)


def linear_backward(upstream: Tensor, ctx: LinearContext) -> tuple[Tensor, Tensor, Tensor]:
    _require_ctx(ctx, LinearContext, "linear")
    _require_rank(upstream, 2, "linear upstream")
    up = upstream.array
    if up.shape != ctx.out_shape:
        raise ShapeError(f"linear upstream shape {up.shape}, expected {ctx.out_shape}")
    grad_x = up @ ctx.w.T
    grad_w = ctx.x.T @ up
    grad_b = up.sum(axis=0)
    return Tensor(grad_x), Tensor(grad_w), Tensor(grad_b)


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------

def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction for overflow safety."""
    _require_rank(logits, 2, "softmax logits")
    z = logits.array
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return Tensor(e / e.sum(axis=1, keepdims=True))


def softmax_xent(logits: Tensor, labels: Sequence[int]) -> tuple[float, Tensor]:
    """Mean softmax cross-entropy over the batch.

    Returns the scalar loss and the gradient with respect to the logits,
    (softmax - onehot) / N. Computed via log-sum-exp so extreme logits do
    not overflow.
    """
    _require_rank(logits, 2, "softmax_xent logits")
    z = logits.array
    n, c = z.shape
    if n < 1:
        raise DataError("softmax_xent needs at least one row of logits")
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != n:
        raise DataError(f"softmax_xent needs {n} labels, got array of shape {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        raise DataError(f"labels must be integers, got dtype {y.dtype}")
    if y.min(initial=0) < 0 or y.max(initial=0) >= c:
        bad = sorted(set(int(v) for v in y if v < 0 or v >= c))
        raise DataError(f"labels outside [0, {c}): {bad}")

    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=1)) + m[:, 0]
    loss = float(np.mean(lse - z[np.arange(n), y]))
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(n), y] -= 1
    grad = p / z.dtype.type(n)
    return loss, Tensor(grad)
