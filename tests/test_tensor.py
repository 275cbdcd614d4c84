"""Tensor container: layout, dtypes, and storage sharing."""
import numpy as np
import pytest

from stegnet.errors import ShapeError
from stegnet.tensor import Tensor


def test_row_major_flat_indexing_exhaustive():
    shape = (2, 3, 4)
    t = Tensor(np.asfortranarray(np.arange(24.0).reshape(shape)))
    flat_values = t.array.ravel(order="K")  # memory order
    strides = (12, 4, 1)  # products of trailing dims
    for i0 in range(shape[0]):
        for i1 in range(shape[1]):
            for i2 in range(shape[2]):
                flat = i0 * strides[0] + i1 * strides[1] + i2 * strides[2]
                assert flat_values[flat] == t.array[i0, i1, i2]


def test_zeros_and_properties():
    t = Tensor(np.zeros((2, 5)))
    assert t.shape == (2, 5)
    assert t.dtype == "f64"
    assert t.size == 10
    assert not t.array.any()
    assert Tensor(np.float32(1.5)).shape == (1,)  # scalars become one-element tensors


def test_unknown_dtype_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.zeros(2, dtype=np.float16))
    with pytest.raises(ShapeError):
        Tensor(np.zeros(2, dtype=np.int64))


def test_contiguous_input_is_shared_not_copied():
    base = np.zeros(4, dtype=np.float32)
    Tensor(base).array[1] = 2.0  # parameter updates write through this view
    assert base[1] == 2.0


def test_non_contiguous_input_is_made_contiguous():
    base = np.arange(16.0).reshape(4, 4)
    t = Tensor(base.T)  # transposed view is not row-major
    assert t.array.flags["C_CONTIGUOUS"]
    assert np.array_equal(t.array, base.T)
