"""Dense N-dimensional arrays: the value type every operator works on.

A Tensor wraps a C-contiguous numpy array in one of two precisions: f32 for
training and inference, f64 for gradient-check work where finite-difference
noise at f32 would mask real defects. Layout is row-major (last dimension
fastest), so image rows stream contiguously through convolution inner loops.
Arithmetic happens on ``Tensor.array`` with numpy; the operators in nnops
check shapes and raise instead of broadcasting.

Tensors are thin: shape is fixed at construction, and every Tensor holds a
C-contiguous array. The rest of the package mutates a Tensor's array in
place only for parameter updates inside the single-threaded trainer step,
and over the full-size maps a layer owns: a layer adds into an op's output
that nothing else references, an elementwise op (an activation, its
backward, eval-mode batchnorm) writes over the map it is handed, and a
batchnorm backward writes its input gradient over its context's input (see
``nnops``).
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError, SpecError

# The one dtype table; a name's position in it is its checkpoint dtype code.
DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_DTYPE_NAMES = {dt: name for name, dt in DTYPES.items()}


def dtype_named(name: str) -> np.dtype:
    """The numpy dtype of "f32" or "f64"; SpecError for any other name."""
    if name not in DTYPES:
        raise SpecError(f"unknown dtype {name!r}")
    return DTYPES[name]


class Tensor:
    """Wrapper over a row-major (C-contiguous) f32 or f64 numpy array.

    A contiguous input is wrapped without a copy, so writes through
    ``array`` reach the array it was built from.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        arr = np.asarray(array)
        if np.dtype(arr.dtype) not in _DTYPE_NAMES:
            raise ShapeError(
                f"unsupported dtype {arr.dtype}; Tensors hold f32 or f64"
            )
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self.array = np.ascontiguousarray(arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def dtype(self) -> str:
        return _DTYPE_NAMES[self.array.dtype]

    @property
    def size(self) -> int:
        return self.array.size

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, dtype={self.dtype})"

