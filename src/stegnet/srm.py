"""High-pass residual filter bank and the trainable preprocessing layer.

The bank holds 30 classic spatial rich-model residual filters, loaded from
the packaged ``srm_filters.txt`` data file where each coefficient is an
exact rational. Families and counts:

* 8 first-order differences (compass directions, center -1),
* 4 second-order differences ([1 -2 1] horizontal/vertical/diagonals),
* 8 third-order differences at radius one ([1 -3 2] per direction; the
  classic four-tap third-order difference is folded onto a 3x3 support by
  merging its outermost tap into the adjacent one, preserving the zero sum
  and the -3 center),
* square 3x3 and its four edge (half-support) variants, normalized by 4,
* square 5x5 and its four edge variants, normalized by 12.

The 25 filters whose native support fits a 3x3 kernel are zero-embedded into
3x3 (applied with padding 1); the five 5x5 filters stay 5x5 (padding 2).
Channel order is the file order: the 25 small filters first, then the five
5x5 filters. The preprocessing layer applies all 30 as a convolution over a
single-channel image and can be trained (plain gradient steps) or frozen.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from . import nnops
from .errors import ContractError, DataError, ShapeError, SpecError
from .tensor import DTYPES, Tensor

FILTER_COUNT = 30
EMBED3X3_COUNT = 25
KEEP5X5_COUNT = 5
_DATA_FILE = "srm_filters.txt"


@dataclass(frozen=True)
class SrmFilter:
    """One residual filter: exact coefficients on their native support."""

    name: str
    coefficients: np.ndarray  # f64, shape (native_h, native_w)
    residual_order: int

    @property
    def native_h(self) -> int:
        return self.coefficients.shape[0]

    @property
    def native_w(self) -> int:
        return self.coefficients.shape[1]

    @property
    def size_class(self) -> str:
        """"keep5x5" for filters with native 5x5 support, else "embed3x3"."""
        return "keep5x5" if self.coefficients.shape == (5, 5) else "embed3x3"

    @property
    def family(self) -> str:
        """Family key: 1st / 2nd / 3rd / square_3x3 / edge_3x3 / square_5x5 / edge_5x5."""
        for prefix in ("square_3x3", "edge_3x3", "square_5x5", "edge_5x5"):
            if self.name.startswith(prefix):
                return prefix
        return self.name.split("_", 1)[0]


def parse_filter_bank(text: str) -> list[SrmFilter]:
    """Parse the data-file format: header ``name nrows ncols order`` followed
    by nrows rows of exact rationals. Blank lines and ``#`` comments are
    skipped. Raises SpecError on any structural or zero-sum violation."""
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.lstrip().startswith("#")
    ]
    filters: list[SrmFilter] = []
    seen: set[str] = set()
    pos = 0
    while pos < len(lines):
        lineno, header = lines[pos]
        fields = header.split()
        if len(fields) != 4:
            raise SpecError(
                f"filter bank line {lineno}: expected 'name nrows ncols order', got {header!r}"
            )
        name = fields[0]
        try:
            nrows, ncols, order = (int(f) for f in fields[1:])
        except ValueError as exc:
            raise SpecError(f"filter bank line {lineno}: non-integer header field") from exc
        if nrows < 1 or ncols < 1 or order < 1:
            raise SpecError(f"filter bank line {lineno}: sizes and order must be positive")
        if name in seen:
            raise SpecError(f"filter bank line {lineno}: duplicate filter name {name!r}")
        seen.add(name)
        if nrows > len(lines) - pos - 1:
            raise SpecError(f"filter bank: record {name!r} is truncated")
        rows = []
        total = Fraction(0)
        for r in range(nrows):
            rlineno, rline = lines[pos + 1 + r]
            toks = rline.split()
            if len(toks) != ncols:
                raise SpecError(
                    f"filter bank line {rlineno}: expected {ncols} coefficients, got {len(toks)}"
                )
            try:
                frs = [Fraction(t) for t in toks]
            except (ValueError, ZeroDivisionError) as exc:
                raise SpecError(f"filter bank line {rlineno}: bad rational coefficient") from exc
            total += sum(frs, Fraction(0))
            rows.append([float(f) for f in frs])
        if total != 0:
            raise SpecError(f"filter bank: filter {name!r} coefficients sum to {total}, not 0")
        coeff = np.array(rows, dtype=np.float64)
        filters.append(SrmFilter(name=name, coefficients=coeff, residual_order=order))
        pos += 1 + nrows
    return filters


def build_filter_bank() -> list[SrmFilter]:
    """Load and validate the packaged 30-filter bank (deterministic)."""
    text = resources.files(__package__).joinpath(_DATA_FILE).read_text(encoding="ascii")
    bank = parse_filter_bank(text)
    if len(bank) != FILTER_COUNT:
        raise SpecError(f"filter bank holds {len(bank)} filters, expected {FILTER_COUNT}")
    small = [f for f in bank if f.size_class == "embed3x3"]
    big = [f for f in bank if f.size_class == "keep5x5"]
    if len(small) != EMBED3X3_COUNT or len(big) != KEEP5X5_COUNT:
        raise SpecError(
            f"filter bank split {len(small)}/{len(big)}, expected "
            f"{EMBED3X3_COUNT}/{KEEP5X5_COUNT}"
        )
    if any(f.size_class != "embed3x3" for f in bank[:EMBED3X3_COUNT]):
        raise SpecError("filter bank order: the 25 small-support filters must come first")
    return bank


def embed_kernel(filt: SrmFilter) -> Tensor:
    """Zero-embed a filter's native coefficients into its target kernel.

    Small filters go to 3x3, 5x5 filters stay 5x5. The native block is
    centered; when a dimension has one spare cell the extra margin goes to
    the top/left, which places each filter's center tap at the kernel
    center. Returns a [1, 1, k, k] f64 tensor.
    """
    k = 5 if filt.size_class == "keep5x5" else 3
    nh, nw = filt.native_h, filt.native_w
    if nh > k or nw > k:
        raise SpecError(
            f"filter {filt.name!r} native {nh}x{nw} does not fit its {k}x{k} kernel"
        )
    out = np.zeros((1, 1, k, k), dtype=np.float64)
    r0 = (k - nh + 1) // 2
    c0 = (k - nw + 1) // 2
    out[0, 0, r0 : r0 + nh, c0 : c0 + nw] = filt.coefficients
    return Tensor(out)


@dataclass
class PreprocessingLayer:
    """The 30-filter residual extractor as two convolution weight stacks.

    kernels3 is [25, 1, 3, 3] (applied with padding 1), kernels5 is
    [5, 1, 5, 5] (padding 2); their outputs are stacked to 30 channels in
    bank order. Whether training updates the kernels is the model's
    business (see the state table in zhunet.py). The layer is the network's
    first stage; its input takes no gradient, so backward returns None.
    """

    kernels3: Tensor
    kernels5: Tensor

    @classmethod
    def build(cls, dtype: str = "f32") -> "PreprocessingLayer":
        if dtype not in DTYPES:
            raise SpecError(f"unknown dtype {dtype!r}")
        bank = build_filter_bank()
        small = [f for f in bank if f.size_class == "embed3x3"]
        big = [f for f in bank if f.size_class == "keep5x5"]
        k3 = np.concatenate([embed_kernel(f).array for f in small], axis=0)
        k5 = np.concatenate([embed_kernel(f).array for f in big], axis=0)
        dt = DTYPES[dtype]
        return cls(kernels3=Tensor(k3.astype(dt)), kernels5=Tensor(k5.astype(dt)))

    @property
    def out_channels(self) -> int:
        return self.kernels3.shape[0] + self.kernels5.shape[0]

    def forward(self, x: Tensor) -> tuple[Tensor, PreprocessContext]:
        return preprocess_forward(x, self)

    def backward(self, up: Tensor, ctx: PreprocessContext) -> tuple[None, tuple]:
        return None, preprocess_backward(up, ctx)


@dataclass
class PreprocessContext:
    ctx3: nnops.Conv2dContext
    ctx5: nnops.Conv2dContext


def _edge_pad(images: np.ndarray, pad: int) -> np.ndarray:
    return np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="edge")


def preprocess_forward(images: Tensor, layer: PreprocessingLayer) -> tuple[Tensor, PreprocessContext]:
    """Residual maps for a batch of single-channel images.

    images: [N, 1, H, W] with H, W >= 5 (the 5x5 kernels must fit). Output
    is [N, 30, H, W]: padding 1 for the 3x3 kernels and 2 for the 5x5 ones
    preserves the spatial size. The padding replicates the edge pixels, so
    the zero-sum bank stays exactly silent on constant images out to the
    borders (zero filling would leave partial kernel sums there).
    """
    if not isinstance(images, Tensor) or len(images.shape) != 4:
        raise ShapeError("preprocessing expects a [N, 1, H, W] tensor")
    n, c, h, w = images.shape
    if c != 1:
        raise ShapeError(f"preprocessing expects single-channel images, got {c} channels")
    if h < 5 or w < 5:
        raise DataError(
            f"preprocessing stage needs images at least 5x5, got {h}x{w}"
        )
    n3 = layer.kernels3.shape[0]
    spec3 = nnops.Conv2dSpec(1, n3, 3, 3)
    n5 = layer.kernels5.shape[0]
    spec5 = nnops.Conv2dSpec(1, n5, 5, 5)
    out3, ctx3 = nnops.conv2d_forward(Tensor(_edge_pad(images.array, 1)),
                                      layer.kernels3, None, spec3)
    out5, ctx5 = nnops.conv2d_forward(Tensor(_edge_pad(images.array, 2)),
                                      layer.kernels5, None, spec5)
    # the input images take no gradient
    ctx3.input_grad = ctx5.input_grad = False
    out = np.concatenate([out3.array, out5.array], axis=1)
    return Tensor(out), PreprocessContext(ctx3=ctx3, ctx5=ctx5)


def preprocess_backward(
    upstream: Tensor, ctx: PreprocessContext
) -> tuple[Tensor, Tensor]:
    """Gradients (grad_kernels3, grad_kernels5). The network's input images
    take no gradient, so neither conv computes its input gradient."""
    if not isinstance(ctx, PreprocessContext):
        raise ContractError(
            "preprocess_backward needs the context saved by preprocess_forward"
        )
    if not isinstance(upstream, Tensor) or len(upstream.shape) != 4:
        raise ShapeError("preprocess upstream must be a [N, 30, H, W] tensor")
    split = ctx.ctx3.spec.out_channels  # where the 5x5 outputs start
    _, gk3, _ = nnops.conv2d_backward(Tensor(upstream.array[:, :split]), ctx.ctx3)
    _, gk5, _ = nnops.conv2d_backward(Tensor(upstream.array[:, split:]), ctx.ctx5)
    return gk3, gk5
