"""Dense N-dimensional arrays: the value type every operator works on.

A Tensor wraps a C-contiguous numpy array in one of two precisions: f32 for
training and inference, f64 for gradient-check work where finite-difference
noise at f32 would mask real defects. Layout is row-major (last dimension
fastest), so image rows stream contiguously through convolution inner loops.
Arithmetic happens on ``Tensor.array`` with numpy; the operators in nnops
check shapes and raise instead of broadcasting.

Tensors are thin: shape is fixed at construction. The rest of the package
mutates a Tensor's array in place only for parameter updates inside the
single-threaded trainer step, and where a layer adds into an op's fresh
output that nothing else references. The one non-contiguous array a Tensor
holds is the interior of a zero-bordered buffer that an op wrote for a
following convolution (``Tensor.framed``, ``nnops.framed_empty``).
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError

DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


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

    @classmethod
    def framed(cls, interior: np.ndarray) -> "Tensor":
        """A Tensor over ``interior`` without the contiguity copy: the
        interior view that ``nnops.framed_empty`` returns, kept as a view so
        that a conv reads the whole buffer, or an op's own C-contiguous
        output."""
        t = cls.__new__(cls)
        t.array = interior
        return t

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

