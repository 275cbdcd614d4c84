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
  Calling a backward with a missing context is a contract violation. An
  eval-mode ``batchnorm_forward`` returns None as its context, since nothing
  takes the backward of an eval forward.
* Elementwise activations (relu / tlu / abs_act) return the bare output.
  Their backwards take the upstream gradient and, in place of the input,
  what ``backward_mask`` makes of it: a bool mask for relu and tlu, the
  int8 sign for abs. A mask is a quarter of an f32 map, so a train forward
  keeps it rather than the input.
* Settings come in as arguments (a conv's ``Conv2dSpec``, the pooling
  window, the pyramid levels); the network's own values are ``zhunet``
  constants, such as ``zhunet.SPP_LEVELS``.
* Ownership: an elementwise op (an activation, its backward, eval-mode
  batchnorm) writes over the map it is handed: a forward writes its output
  over its input, an activation's backward the input gradient over the
  upstream. So a layer reuses the full-size maps it owns instead of
  allocating one per op, and a caller that still needs the map hands over
  a copy. No other op writes over an argument of its caller's, but
  ``batchnorm_backward`` takes ownership of its context's ``x``: it writes
  the input gradient over it and sets ``x`` to None, so a context takes
  one backward. The only other mutations are the running-statistics
  update inside ``batchnorm_forward`` in train mode, and the backwards
  consuming their contexts: ``conv2d_backward`` sets its context's ``x``
  to None once the weight gradient is taken, before it makes the input
  gradient, so an input that only the context held is freed first. A
  caller may drop a context's ``x`` after the forward and rebuild it for
  the backward: ``conv2d_output`` and ``batchnorm_output`` give the output
  of the forward that made a context again, in the same bytes, and each
  raises ContractError once the context's input is gone.

Convolution kernel
------------------
``conv2d_forward`` and ``conv2d_backward`` run every conv -- the
preprocessing filter bank, the 1x1 pointwise, the 3x3 depthwise and the
dense 3x3 convs -- through one band kernel. The map is walked per image
and band of output rows, each band as many rows as keep its buffers in
cache. The kernel pads each band itself: a conv with padding copies the
band's padded rows into one band-sized buffer whose padding rows and
columns are zero, and one without reads the map as it is, so no op makes a
padded copy of a whole map. A band's kh*kw shifted slices of its flattened
padded rows (tap (u, v) at offset u*wp+v) are copied into one [groups,
cg*kh*kw, rows*wp] column buffer, multiplied by the [groups, og, cg*kh*kw]
weights in one batched matmul, and written into the output with the kw-1
wrapped columns of each row cropped. When ``WORKERS`` is above 1 and the
map is one f32 image, each band of a forward, input gradient or rebuilt
output joins up to ``_SHARED_BAND_SCALE`` whole bands, so the eval threads
that run such maps side by side take the interpreter lock less often; the
last, partial band stays alone, and the output bytes are the same as with
the smaller bands. An f64 map keeps the smaller bands, since OpenBLAS's
dgemm rounds the wider, joined GEMM otherwise. The weight gradient always
gathers the smaller bands, since it adds their products in band order,
and multiplies each by the band's upstream rows, zero-filled to the
padded width. The input gradient is the band
forward of the upstream at padding kernel-1-padding on each axis (a crop
where that is negative) with the flipped kernel, input and output
channels swapped within each group. ``conv2d_output`` gives the output of
a forward call again from its context, by the same band kernel on the
same input, for a caller that drops the output and rebuilds it for its
backward.

Average pooling sums its window separably (rows, then columns) and its
backward spreads in the reverse order.

Memory
------
Importing this module sets the process's glibc allocator to serve every
block from its heap and never to trim it (``mallopt`` M_MMAP_MAX = 0 and
M_TRIM_THRESHOLD = -1). A full-resolution map at 256x256 and batch 8 is
60-65 MiB, above the 32 MiB ceiling of glibc's mmap threshold, so by
default each one is mapped afresh, unmapped when freed and faulted in again
on the next step. With the setting a freed map stays in the heap and the
next array of any size reuses it; the process keeps its peak heap until it
exits or calls glibc's ``malloc_trim(0)``. It also caps glibc at one
arena (M_ARENA_MAX = 1), so a worker thread allocates from the same
never-trimmed heap: a thread's own arena would hand its heaps back to the
OS and fault them in again on the next call. ``FREED_MEMORY_KEPT`` says
whether the settings took; where the C library has no ``mallopt`` nothing
changes.

Threads
-------
Importing this module also finds the OpenBLAS that numpy loaded (a mapped
library whose path contains "openblas"), records its thread count as
``WORKERS`` and sets OpenBLAS to one thread. That count is whatever the
thread cap (``stegnet --threads``, ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS``) or the core count gave it. The model's eval forward
then runs each image as one task of a pool of ``WORKERS`` Python threads,
so a thread's working maps are one image's, and each op's matmul runs on
one BLAS thread. numpy releases the interpreter lock inside its copies
and matmuls, but each thread takes it again between numpy calls. So at a
``WORKERS`` above 1 the band kernel makes fewer, larger bands for a
one-image f32 map (see above): at the smaller band size two threads spent
their time handing the lock back and forth. A second copy of this
package imported into the same process reads OpenBLAS's count after the
first copy has set it to 1, so it takes ``WORKERS`` 1 unless its
``WORKERS`` is set by hand. ``BLAS_SINGLE_THREADED`` says whether the
setting took; where no OpenBLAS is found ``WORKERS`` is 1 and BLAS keeps
its own thread count. Like the allocator settings, both apply to the
whole process.
"""
from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError, DataError, ShapeError, SpecError
from .tensor import Tensor, dtype_named


def _require_rank(t: Tensor, rank: Optional[int], what: str) -> None:
    """A Tensor, and of the given rank unless ``rank`` is None."""
    if not isinstance(t, Tensor):
        raise ShapeError(f"{what} must be a Tensor, got {type(t).__name__}")
    if rank is not None and len(t.shape) != rank:
        raise ShapeError(f"{what} must have rank {rank}, got shape {t.shape}")


def _require_ctx(ctx, cls, op: str):
    if not isinstance(ctx, cls):
        raise ContractError(
            f"{op}_backward needs the context saved by {op}_forward; got {type(ctx).__name__}"
        )


def _ctx_input(ctx, op: str) -> np.ndarray:
    """The input a conv or batchnorm context holds for ``op``."""
    if ctx.x is None:
        raise ContractError(f"{op} needs the context's input; it was dropped, "
                            "or a backward consumed the context")
    return ctx.x


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

_M_TRIM_THRESHOLD, _M_MMAP_MAX, _M_ARENA_MAX = -1, -4, -8  # from glibc's malloc.h


def _keep_freed_memory() -> bool:
    """Turn off glibc's mmap for large blocks and its heap trimming, and
    keep every thread on the main arena; True when all three settings
    took."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library symbols, or no mallopt
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(_M_MMAP_MAX, 0) == 1 and mallopt(_M_TRIM_THRESHOLD, -1) == 1
            and mallopt(_M_ARENA_MAX, 1) == 1)


FREED_MEMORY_KEPT = _keep_freed_memory()

# (get, set) symbol pairs of OpenBLAS's thread count: numpy >= 2 wheels,
# other 64-bit-integer builds, then plain builds.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _take_blas_threads() -> int:
    """The thread count of the loaded OpenBLAS, which is then set to one
    thread; 0 when no OpenBLAS with a thread-count pair is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = dict.fromkeys(line.split(None, 5)[-1].strip() for line in fh
                                  if "openblas" in line.lower())
    except OSError:  # no procfs
        return 0
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # only what is already loaded
        except (OSError, AttributeError):  # unloadable path, or no RTLD_NOLOAD
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            try:
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            threads = get()
            set_(1)
            return max(1, threads)
    return 0


_BLAS_THREADS = _take_blas_threads()
BLAS_SINGLE_THREADED = _BLAS_THREADS > 0
WORKERS = max(1, _BLAS_THREADS)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conv2dSpec:
    """Static description of a grouped 2-D convolution at stride 1: the
    model downsamples with average pooling only."""

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    padding: int = 0
    groups: int = 1

    def validate(self) -> None:
        for name in ("in_channels", "out_channels", "kernel_h", "kernel_w", "groups"):
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
        oh = h + 2 * self.padding - self.kernel_h + 1
        ow = w + 2 * self.padding - self.kernel_w + 1
        if oh < 1 or ow < 1:
            raise SpecError(
                f"conv2d output would be empty: input {h}x{w}, kernel "
                f"{self.kernel_h}x{self.kernel_w}, padding {self.padding}"
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

    ``x`` is the unpadded input. The backward gathers the band kernel's
    bands from it a second time for the weight gradient, and
    :func:`conv2d_output` rebuilds the output from it. The backward
    consumes it: once the weight gradient is taken it sets ``x`` to None,
    before it makes the input gradient, so an input that the caller handed
    over is freed first, and a second backward or ``conv2d_output`` on the
    context is a ContractError. A caller that can rebuild the input may set
    ``x`` to None after the forward, and must put it back before either
    call. ``input_grad`` is False when the caller needs only the weight
    and bias gradients; conv2d_backward then returns None for the input
    gradient instead of computing it. ``spec`` and ``out_shape`` also let
    a caller count the work of a call.
    """

    spec: Conv2dSpec
    x: Optional[np.ndarray]
    weights: np.ndarray
    has_bias: bool
    out_shape: tuple[int, ...]
    input_grad: bool = True


# Elements of the padded input that one band of output rows reads. A band's
# column buffer holds kh*kw times that and its output about as much, so the
# GEMM's operands stay in cache; sizes from 2**14 to 2**16 measure the same
# on one thread.
_BAND_ELEMS = 1 << 15
# Up to how many whole bands one band of a one-image f32 _band_conv joins
# when WORKERS is above 1. Each band costs about a dozen numpy calls, and
# between them a thread takes the interpreter lock again, so with small bands
# the eval threads queue on the lock. A two-thread 256x256 eval forward took
# about 0.9x the time at 4x and 8x, less gain at 2x and none at 16x; one
# thread took 1.05x the time at 4x, so a train step keeps scale 1.
_SHARED_BAND_SCALE = 4


def _bands(cin: int, wp: int, oh: int, scale: int = 1) -> tuple[int, list[tuple[int, int]]]:
    """Rows of the largest band, and the (first, last+1) output rows of
    each band. At scale 1 each band has as many rows as keep cin*rows*wp
    within _BAND_ELEMS, and at least one, and the last band has the rows
    left over. At a larger scale each band joins up to ``scale`` whole bands
    of that partition, and its last band stays a band of its own. OpenBLAS
    rounds a GEMM only a few columns wide otherwise than a wide one (a
    [32, 270] by [270, n] sgemm for some n up to 115), so joining a short
    last band would change the output bytes. A whole band at _BAND_ELEMS
    is some hundreds of columns wide: joining 4 kept the bytes of every
    model conv tested, and 8 those of a 256x256 eval forward; 16 did not."""
    rows = max(1, min(oh, _BAND_ELEMS // (cin * wp)))
    whole = oh - oh % rows  # the rows of the whole bands
    bands = [(r0, min(whole, r0 + scale * rows)) for r0 in range(0, whole, scale * rows)]
    if whole < oh:
        bands.append((whole, oh))
    return max(r1 - r0 for r0, r1 in bands), bands


def _padded_bands(x: np.ndarray, groups: int, kh: int, ph: int, pw: int,
                  bands: list[tuple[int, int]]):
    """Yields (i, r0, r1, src) per image i of the C-contiguous [N, C, h, w]
    map x and band (r0, r1) of output rows. src [groups, cg, ...] holds the
    band's rows [r0, r1+kh-1) of the image padded by ph zero rows and pw
    zero columns on each side (cropped where negative), flattened at the
    padded width w+2*pw. With no padding, src is a view of x; with any, it
    is one band-sized buffer, refilled for each band, whose padding columns
    stay zero, so it is valid until the next band is yielded."""
    n, cin, h, w = x.shape
    if ph == pw == 0:
        xf = x.reshape(n, groups, cin // groups, h * w)
        for i in range(n):
            for r0, r1 in bands:
                yield i, r0, r1, xf[i, :, :, r0 * w :]
        return
    wp = w + 2 * pw
    buf = np.zeros((cin, bands[0][1] - bands[0][0] + kh - 1, wp), dtype=x.dtype)
    src = buf.reshape(groups, cin // groups, -1)
    c0, c1 = max(pw, 0), min(w + pw, wp)  # the buffer columns that x fills
    for i in range(n):
        for r0, r1 in bands:
            s0 = max(r0 - ph, 0)  # the rows [s0, s1) of x in the band, maybe none
            s1 = max(s0, min(r1 + kh - 1 - ph, h))
            d0, d1 = s0 - r0 + ph, s1 - r0 + ph
            buf[:, :d0] = 0
            buf[:, d1:] = 0
            buf[:, d0:d1, c0:c1] = x[i, :, s0:s1, c0 - pw : c1 - pw]
            yield i, r0, r1, src


def _band_cols(src: np.ndarray, cols: np.ndarray, rows: int,
               kh: int, kw: int, wp: int) -> np.ndarray:
    """Gathers a band of ``rows`` output rows from src [g, cg, ...], the
    band's padded input rows flattened at width wp, into cols [g, cg,
    kh*kw, >= span]: tap (u, v) is the contiguous slice at offset u*wp+v.
    Returns the [g, cg*kh*kw, span] view; in every output row but the last,
    its last kw-1 columns wrap into the next row, and the caller discards
    them."""
    span = (rows - 1) * wp + (wp - kw + 1)
    for u in range(kh):
        for v in range(kw):
            off = u * wp + v
            cols[:, :, u * kw + v, :span] = src[:, :, off : off + span]
    g, cg = cols.shape[:2]
    return cols[:, :, :, :span].reshape(g, cg * kh * kw, span)


def _band_conv(x: np.ndarray, wmat: np.ndarray, kh: int, kw: int,
               ph: int, pw: int) -> np.ndarray:
    """Grouped correlation of a C-contiguous [N, Cin, h, w] map, padded by
    ph zero rows and pw zero columns on each side (cropped where negative),
    with weights wmat [groups, og, cg*kh*kw]: per image and band of output
    rows, one gather of the kh*kw shifted slices and one batched matmul,
    written straight into the cropped [N, groups*og, oh, ow] output."""
    n, cin, h, w = x.shape
    g, og, _ = wmat.shape
    wp = w + 2 * pw
    oh, ow = h + 2 * ph - kh + 1, wp - kw + 1
    # a one-image map stands for an eval image: a train batch holds two images
    # or more, and eval images run side by side only when WORKERS > 1. An f64
    # map keeps the smaller bands, since dgemm rounds joined ones otherwise
    joined = WORKERS > 1 and n == 1 and x.dtype == np.float32
    rows, bands = _bands(cin, wp, oh, _SHARED_BAND_SCALE if joined else 1)
    out = np.empty((n, g, og, oh, ow), dtype=x.dtype)
    cols = np.empty((g, cin // g, kh * kw, rows * wp), dtype=x.dtype)
    res = np.empty((g, og, rows * wp), dtype=x.dtype)
    for i, r0, r1, src in _padded_bands(x, g, kh, ph, pw, bands):
        band = _band_cols(src, cols, r1 - r0, kh, kw, wp)
        np.matmul(wmat, band, out=res[:, :, : band.shape[2]])
        out[i, :, :, r0:r1] = res[:, :, : (r1 - r0) * wp].reshape(g, og, r1 - r0, wp)[..., :ow]
    return out.reshape(n, g * og, oh, ow)


def conv2d_output(ctx: Conv2dContext) -> np.ndarray:
    """The output of the forward call that made ``ctx``, bias left out:
    the band kernel on the same input and weights, so the same bytes. A
    caller that keeps the context can drop the output and rebuild it for
    its backward."""
    x, spec = _ctx_input(ctx, "conv2d_output"), ctx.spec
    wmat = ctx.weights.reshape(spec.groups, spec.out_channels // spec.groups, -1)
    return _band_conv(x, wmat, spec.kernel_h, spec.kernel_w, spec.padding, spec.padding)


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

    oh, ow = spec.output_size(x.shape[2], x.shape[3])  # rejects an empty output
    ctx = Conv2dContext(
        spec=spec,
        x=x,
        weights=w,
        has_bias=b is not None,
        out_shape=(x.shape[0], spec.out_channels, oh, ow),
    )
    out = conv2d_output(ctx)
    if b is not None:
        out += b[None, :, None, None]
    return Tensor(out), ctx


def _weight_grad(up: np.ndarray, ctx: Conv2dContext) -> np.ndarray:
    spec, x = ctx.spec, ctx.x
    kh, kw, g, p = spec.kernel_h, spec.kernel_w, spec.groups, spec.padding
    n, cin, _, w = x.shape
    wp = w + 2 * p
    oh, ow = up.shape[2], up.shape[3]
    og, cg = spec.out_channels // g, cin // g
    rows, bands = _bands(cin, wp, oh)
    # per band, the upstream rows sit on the padded width with zeros in the
    # wrapped columns, so the weight gradient is one matmul against the
    # column buffer the forward gathers; it is accumulated transposed,
    # cols @ up_bandᵀ, since that GEMM runs faster than up_band @ colsᵀ
    upg = up.reshape(n, g, og, oh, ow)
    cols = np.empty((g, cg, kh * kw, rows * wp), dtype=up.dtype)
    up_band = np.zeros((g, og, rows, wp), dtype=up.dtype)
    up_flat = up_band.reshape(g, og, -1)
    grad_wt = np.zeros((g, cg * kh * kw, og), dtype=up.dtype)
    part = np.empty_like(grad_wt)
    for i, r0, r1, src in _padded_bands(x, g, kh, p, p, bands):
        band = _band_cols(src, cols, r1 - r0, kh, kw, wp)
        up_band[:, :, : r1 - r0, :ow] = upg[i, :, :, r0:r1]
        np.matmul(band, up_flat[:, :, : band.shape[2]].swapaxes(1, 2), out=part)
        grad_wt += part
    return np.ascontiguousarray(grad_wt.swapaxes(1, 2)).reshape(ctx.weights.shape)


def _input_grad(up: np.ndarray, ctx: Conv2dContext) -> np.ndarray:
    """The upstream, padded by kernel-1-padding, correlated with the
    flipped kernel, input and output channels swapped within each group."""
    spec = ctx.spec
    kh, kw, g, p = spec.kernel_h, spec.kernel_w, spec.groups, spec.padding
    og, cg = spec.out_channels // g, spec.in_channels // g
    w_flip = ctx.weights.reshape(g, og, cg, kh, kw)[:, :, :, ::-1, ::-1]
    wmat = np.ascontiguousarray(w_flip.transpose(0, 2, 1, 3, 4)).reshape(g, cg, og * kh * kw)
    return _band_conv(up, wmat, kh, kw, kh - 1 - p, kw - 1 - p)


def conv2d_backward(
    upstream: Tensor, ctx: Conv2dContext
) -> tuple[Optional[Tensor], Tensor, Optional[Tensor]]:
    """Gradients (grad_input, grad_weights, grad_bias-or-None) for conv2d.

    grad_input is None when the context was made with ``input_grad=False``.
    It consumes the context (see :class:`Conv2dContext`); the upstream is
    only read.
    """
    _require_ctx(ctx, Conv2dContext, "conv2d")
    _require_rank(upstream, 4, "conv2d upstream")
    if upstream.shape != ctx.out_shape:
        raise ShapeError(
            f"conv2d upstream shape {upstream.shape} does not match output {ctx.out_shape}"
        )
    up = upstream.array
    if up.dtype != _ctx_input(ctx, "conv2d_backward").dtype:
        raise ShapeError("conv2d upstream dtype differs from forward input")

    grad_b = Tensor(up.sum(axis=(0, 2, 3))) if ctx.has_bias else None
    grad_w = _weight_grad(up, ctx)
    ctx.x = None  # the input gradient reads only the upstream and the weights
    grad_x = Tensor(_input_grad(up, ctx)) if ctx.input_grad else None
    return grad_x, Tensor(grad_w), grad_b


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


def _box_sum(a: np.ndarray, out: np.ndarray, axis: int, win: int, stride: int, pad: int) -> np.ndarray:
    """Adds the windowed sums of ``a`` along ``axis`` (1 or 2 of an image's
    [C, H, W]), with zero padding, into ``out``, and returns it."""
    lead = (slice(None),) * axis
    for lo, hi, src in _window_taps(a.shape[axis], out.shape[axis], win, stride, pad):
        out[lead + (slice(lo, hi),)] += a[lead + (src,)]
    return out


def _box_spread(g: np.ndarray, out: np.ndarray, axis: int, win: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of :func:`_box_sum`: adds each windowed sum's gradient in
    ``g`` into ``out`` at the input positions its window covers, and
    returns ``out``."""
    lead = (slice(None),) * axis
    for lo, hi, dst in _window_taps(out.shape[axis], g.shape[axis], win, stride, pad):
        out[lead + (dst,)] += g[lead + (slice(lo, hi),)]
    return out


def avg_pool(
    inp: Tensor, win: int, stride: int, padding: int = 0
) -> tuple[Tensor, AvgPoolContext]:
    """Average pooling with a square window.

    Zero padding counts toward the window average (the pad pixels contribute
    zeros and the divisor stays win*win). The window sum is separable: rows
    are summed first, then columns. It runs image by image, so that the row
    sums are still in cache for the column pass.
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
    c = x.shape[1]
    out = np.zeros((x.shape[0], c, oh, ow), dtype=x.dtype)
    rows, k = np.empty((c, oh, w), dtype=x.dtype), x.dtype.type(win * win)
    for x_i, out_i in zip(x, out):
        rows.fill(0)
        _box_sum(_box_sum(x_i, rows, 1, win, stride, padding), out_i, 2, win, stride, padding)
        out_i /= k
    ctx = AvgPoolContext(win, stride, padding, x.shape, out.shape, x.dtype)
    return Tensor(out), ctx


def avg_pool_backward(upstream: Tensor, ctx: AvgPoolContext) -> Tensor:
    """Distributes each upstream value uniformly over its pooling window:
    columns first, then rows (the forward's sums in reverse), image by
    image."""
    _require_ctx(ctx, AvgPoolContext, "avg_pool")
    _require_rank(upstream, 4, "avg_pool upstream")
    if upstream.shape != ctx.out_shape:
        raise ShapeError(
            f"avg_pool upstream shape {upstream.shape} does not match output {ctx.out_shape}"
        )
    win, s, p = ctx.win, ctx.stride, ctx.padding
    grad = np.zeros(ctx.in_shape, dtype=ctx.dtype)
    cols = np.empty((ctx.in_shape[1], ctx.out_shape[2], ctx.in_shape[3]), dtype=ctx.dtype)
    k = ctx.dtype.type(win * win)
    for up_i, grad_i in zip(upstream.array, grad):
        cols.fill(0)
        _box_spread(_box_spread(up_i / k, cols, 2, win, s, p), grad_i, 1, win, s, p)
    return Tensor(grad)


# ---------------------------------------------------------------------------
# elementwise activations
# ---------------------------------------------------------------------------

def relu(inp: Tensor) -> Tensor:
    """max(x, 0), written over the input map (see the module doc on
    ownership)."""
    _require_rank(inp, None, "relu input")
    return Tensor(np.maximum(inp.array, 0, out=inp.array))


def relu_backward(upstream: Tensor, mask: np.ndarray) -> Tensor:
    """The upstream where ``mask`` is set, written over the upstream:
    relu's backward with ``mask`` = ``backward_mask(x, "relu")``, and, as
    ``tlu_backward``, tlu's with ``backward_mask(x, "tlu", T)``."""
    _require_mask(upstream, mask, "relu", np.bool_)
    return Tensor(np.multiply(upstream.array, mask, out=upstream.array))


def tlu(inp: Tensor, threshold: float) -> Tensor:
    """Truncated linear unit: clamp(x, -T, T), written over the input map;
    T must be positive."""
    _require_rank(inp, None, "tlu input")
    _require_threshold(threshold)
    t = inp.array.dtype.type(threshold)
    return Tensor(np.clip(inp.array, -t, t, out=inp.array))


# the same masked product under its own name, which a caller can patch alone
tlu_backward = relu_backward


def abs_act(inp: Tensor) -> Tensor:
    """|x|, written over the input map; subgradient at 0 is taken as 0."""
    _require_rank(inp, None, "abs input")
    return Tensor(np.abs(inp.array, out=inp.array))


def abs_backward(upstream: Tensor, sign: np.ndarray) -> Tensor:
    """The upstream times the input's sign, written over the upstream;
    ``sign`` is ``backward_mask(x, "abs")``."""
    _require_mask(upstream, sign, "abs", np.int8)
    return Tensor(np.multiply(upstream.array, sign, out=upstream.array))


def backward_mask(inp: Tensor, op: str, threshold: float = 0.0) -> np.ndarray:
    """What the backward of activation ``op`` takes in place of its input
    ``inp``: for "relu" the bool mask x > 0, for "tlu" the bool mask
    -T < x < T, for "abs" the sign of x (-1, 0 or 1) as int8. Either is a
    quarter of an f32 map, or an eighth of an f64 one."""
    _require_rank(inp, None, f"{op} input")
    x = inp.array
    if op == "relu":
        return x > 0
    if op == "tlu":
        _require_threshold(threshold)
        return (x > -threshold) & (x < threshold)
    if op == "abs":
        sign = np.empty(x.shape, dtype=np.int8)
        return np.sign(x, out=sign, casting="unsafe")
    raise SpecError(f"backward_mask op must be 'relu', 'tlu' or 'abs', got {op!r}")


def _require_threshold(threshold: float) -> None:
    if not (threshold > 0):
        raise SpecError(f"tlu threshold must be positive, got {threshold!r}")


def _require_mask(upstream: Tensor, mask: np.ndarray, op: str, dtype) -> None:
    _require_rank(upstream, None, f"{op} upstream")
    if not isinstance(mask, np.ndarray) or mask.dtype != dtype:
        raise ContractError(
            f"{op}_backward needs the {np.dtype(dtype).name} array of backward_mask, "
            f"got {getattr(mask, 'dtype', type(mask).__name__)}"
        )
    if upstream.shape != mask.shape:
        raise ShapeError(
            f"{op}_backward shapes differ: upstream {upstream.shape} vs mask {mask.shape}"
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
        dt = dtype_named(dtype)
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
    """What batchnorm_backward needs from a train-mode forward: the input
    and the batch mean it was normalized with. No centred copy is kept; the
    backward centres again, over ``x`` itself: it writes the input gradient
    there and sets ``x`` to None, so a context takes one backward. A caller
    that can rebuild the input may set ``x`` to None after the forward, and
    must give the backward a context with it put back. ``gamma`` and
    ``beta`` are copies of the state's, taken at the forward, so that
    :func:`batchnorm_output` rebuilds the forward's output from ``x`` and
    the kept statistics even after the state has changed. ``mode`` is
    always "train", since an eval-mode forward returns no context;
    perfbench's tracer reads it."""

    x: Optional[np.ndarray]
    mean: np.ndarray
    inv_std: np.ndarray  # per channel
    gamma: np.ndarray
    beta: np.ndarray
    count: int
    mode: str


def _per_channel(v: np.ndarray) -> np.ndarray:
    return v[None, :, None, None]


def batchnorm_forward(
    inp: Tensor, state: BatchNormState
) -> tuple[Tensor, Optional[BatchNormContext]]:
    """Per-channel normalization of a [N, C, H, W] map.

    Train mode normalizes with the biased batch statistics and folds them
    into the running averages: running = (1-momentum)*running + momentum*batch.
    It returns a fresh output and keeps the input in the context. Eval mode
    normalizes with the running statistics, leaves the state alone, and
    returns None for the context, since nothing takes its backward; it
    takes ownership of the input map and writes its output over it, so the
    returned Tensor holds the input's array. Either way gamma*inv_std
    scales the whole map per channel; in train mode it scales x - mean,
    from which the variance is taken, in place.
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

    if state.mode == "eval":
        scale = state.gamma * (1.0 / np.sqrt(state.running_var + dt.type(state.eps)))
        shift = state.beta - state.running_mean * scale
        x *= _per_channel(scale)
        x += _per_channel(shift)
        return Tensor(x), None
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
    ctx = BatchNormContext(x=x, mean=mean, inv_std=inv_std.astype(dt, copy=False),
                           gamma=state.gamma.copy(), beta=state.beta.copy(), count=count,
                           mode=state.mode)
    return Tensor(_normalize(centred, ctx)), ctx


def _normalize(centred: np.ndarray, ctx: BatchNormContext) -> np.ndarray:
    """x - mean, scaled by gamma*inv_std and shifted by beta, in place."""
    centred *= _per_channel(ctx.gamma * ctx.inv_std)
    centred += _per_channel(ctx.beta)
    return centred


def batchnorm_output(ctx: BatchNormContext) -> np.ndarray:
    """The output of the train-mode forward that made ``ctx``, in a fresh
    array: the forward's three elementwise passes over ``ctx.x`` with the
    kept statistics (subtract the mean, multiply by gamma*inv_std, add
    beta), so the same bytes. The batchnorm counterpart of
    :func:`conv2d_output`: a caller that puts the input back into the
    context can drop the output and rebuild it for its backward."""
    return _normalize(_ctx_input(ctx, "batchnorm_output") - _per_channel(ctx.mean), ctx)


def batchnorm_backward(
    upstream: Tensor, ctx: BatchNormContext
) -> tuple[Tensor, Tensor, Tensor]:
    """Gradients (grad_input, grad_gamma, grad_beta) of a train-mode
    forward.

    The backward takes ownership of the context's input map: grad_input is
    written over ``ctx.x``, and ``ctx.x`` is set to None, so a second
    backward on the same context is a ContractError. The upstream is only
    read. The sum of up * (x - mean) is taken from x - mean itself, centred
    in place into the array that then becomes grad_input, so it keeps full
    precision when |mean| is large against the spread.
    """
    _require_ctx(ctx, BatchNormContext, "batchnorm")
    _require_rank(upstream, 4, "batchnorm upstream")
    up, x = upstream.array, _ctx_input(ctx, "batchnorm_backward")
    if up.shape != x.shape:
        raise ShapeError(
            f"batchnorm upstream shape {up.shape} does not match output {x.shape}"
        )
    ctx.x = None
    grad_beta = np.einsum("nchw->c", up)
    scale = ctx.gamma * ctx.inv_std
    grad_x = x
    grad_x -= _per_channel(ctx.mean)  # centred
    dot = np.einsum("nchw,nchw->c", up, grad_x)  # sum of up * (x - mean)
    # the batch statistics depend on x: subtract the mean of the scaled
    # upstream and its projection onto the normalized input; per image,
    # so that up * scale needs only an image-sized temporary
    n = up.dtype.type(ctx.count)
    proj = (scale * ctx.inv_std * ctx.inv_std * dot / n)[:, None, None]
    shift = (scale * grad_beta / n)[:, None, None]
    for g_i, up_i in zip(grad_x, up):
        g_i *= proj
        np.subtract(up_i * scale[:, None, None], g_i, out=g_i)
        g_i -= shift
    grad_gamma = dot * ctx.inv_std
    return Tensor(grad_x), Tensor(grad_gamma), Tensor(grad_beta)


# ---------------------------------------------------------------------------
# spatial pyramid pooling
# ---------------------------------------------------------------------------

def spp_windows(a: int, n: int) -> tuple[int, int]:
    """Window and stride that carve an a-by-a map into an n-by-n grid:
    win = ceil(a/n), stride = floor(a/n)."""
    if n < 1 or a < 1:
        raise SpecError(f"spp grid needs positive sizes, got a={a}, n={n}")
    return -(-a // n), a // n


@dataclass
class SppContext:
    levels: tuple[int, ...]
    in_shape: tuple[int, ...]
    slices: list[tuple[int, int, int, int]]  # per output bin: r0, r1, c0, c1
    dtype: np.dtype


def spp_forward(inp: Tensor, levels: tuple[int, ...]) -> tuple[Tensor, SppContext]:
    """Fixed-length descriptor from a square [N, K, a, a] map, average-pooled
    over each pyramid level (an n-by-n grid per level n).

    Output is [N, K*M] with M = sum(n^2): values are grouped channel-major
    (all M bins of channel 0, then channel 1, ...), levels in ``levels``
    order and bins in row-major grid order within a level.
    """
    if len(levels) == 0:
        raise SpecError("spp needs at least one pyramid level")
    if any(not isinstance(n, int) or n < 1 for n in levels):
        raise SpecError(f"spp levels must be positive integers, got {levels!r}")
    _require_rank(inp, 4, "spp input")
    x = inp.array
    n_batch, k, h, w = x.shape
    if h != w:
        raise ShapeError(f"spp expects square feature maps, got {h}x{w}")
    a = h
    worst = max(levels)
    if a < worst:
        raise SpecError(f"spp input size {a} is smaller than pyramid level {worst}")

    per_level = []
    slices: list[tuple[int, int, int, int]] = []
    for n in levels:
        win, stride = spp_windows(a, n)
        pooled = np.empty((n_batch, k, n * n), dtype=x.dtype)
        for i in range(n):
            r0 = i * stride
            for j in range(n):
                c0 = j * stride
                # the last bin ends at (n-1)*floor(a/n) + ceil(a/n) <= a
                pooled[:, :, i * n + j] = x[:, :, r0:r0 + win, c0:c0 + win].mean(axis=(2, 3))
                slices.append((r0, r0 + win, c0, c0 + win))
        per_level.append(pooled)
    stacked = np.concatenate(per_level, axis=2)  # [N, K, M]
    out = stacked.reshape(n_batch, k * len(slices))
    ctx = SppContext(levels=tuple(levels), in_shape=x.shape, slices=slices, dtype=x.dtype)
    return Tensor(out), ctx


def spp_backward(upstream: Tensor, ctx: SppContext) -> Tensor:
    _require_ctx(ctx, SppContext, "spp")
    _require_rank(upstream, 2, "spp upstream")
    n_batch, k = ctx.in_shape[0], ctx.in_shape[1]
    m = sum(n * n for n in ctx.levels)
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
    p = np.exp(z - m)
    total = p.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) + m[:, 0] - z[np.arange(n), y]))
    p /= total
    p[np.arange(n), y] -= 1
    grad = p / z.dtype.type(n)
    return loss, Tensor(grad)
