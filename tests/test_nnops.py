"""Operator-level checks: worked examples, independent oracles, and
finite-difference verification for every backward pass."""
import dataclasses
import resource

import numpy as np
import pytest

from stegnet import nnops
from stegnet.errors import ContractError, DataError, ShapeError, SpecError
from stegnet.tensor import Tensor

from oracles import (
    avg_pool_reference,
    conv2d_reference,
    matmul_reference,
    max_rel_err,
    numeric_gradient,
    spp_reference,
)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv2d_identity_kernel_preserves_input():
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.standard_normal((2, 3, 5, 6))
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    spec = nnops.Conv2dSpec(3, 3, 3, 3, padding=1, groups=1)
    out, _ = nnops.conv2d_forward(Tensor(x), Tensor(w), None, spec)
    assert np.allclose(out.array, x)


def test_conv2d_single_pixel_all_ones_kernel():
    x = np.full((1, 1, 1, 1), 5.0)
    w = np.ones((1, 1, 3, 3))
    spec = nnops.Conv2dSpec(1, 1, 3, 3, padding=1, groups=1)
    out, _ = nnops.conv2d_forward(Tensor(x), Tensor(w), None, spec)
    assert out.shape == (1, 1, 1, 1)
    assert out.array[0, 0, 0, 0] == 5.0


def test_conv2d_grouped_matches_nested_loop_oracle():
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.standard_normal((1, 4, 8, 8))
    w = rng.standard_normal((4, 2, 3, 3))
    b = rng.standard_normal(4)
    spec = nnops.Conv2dSpec(4, 4, 3, 3, padding=1, groups=2)
    out, _ = nnops.conv2d_forward(Tensor(x), Tensor(w), Tensor(b), spec)
    ref = conv2d_reference(x, w, b, stride=1, padding=1, groups=2)
    assert np.max(np.abs(out.array - ref)) < 1e-12


def test_conv2d_block_diagonal_group_property():
    rng = np.random.Generator(np.random.PCG64(2))
    groups = 3
    x = rng.standard_normal((2, 6, 5, 5))
    w = rng.standard_normal((6, 2, 3, 3))
    spec = nnops.Conv2dSpec(6, 6, 3, 3, padding=1, groups=groups)
    out, _ = nnops.conv2d_forward(Tensor(x), Tensor(w), None, spec)
    per_group = []
    sub_spec = nnops.Conv2dSpec(2, 2, 3, 3, padding=1, groups=1)
    for g in range(groups):
        xg = x[:, 2 * g : 2 * g + 2]
        wg = w[2 * g : 2 * g + 2]
        og, _ = nnops.conv2d_forward(Tensor(xg.copy()), Tensor(wg.copy()), None, sub_spec)
        per_group.append(og.array)
    assert np.array_equal(out.array, np.concatenate(per_group, axis=1))


def test_conv2d_backward_zero_upstream_gives_zero_grads():
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.standard_normal((1, 2, 4, 4))
    w = rng.standard_normal((2, 2, 3, 3))
    b = rng.standard_normal(2)
    spec = nnops.Conv2dSpec(2, 2, 3, 3, padding=1, groups=1)
    out, ctx = nnops.conv2d_forward(Tensor(x), Tensor(w), Tensor(b), spec)
    gx, gw, gb = nnops.conv2d_backward(Tensor(np.zeros(out.shape)), ctx)
    assert not gx.array.any() and not gw.array.any() and not gb.array.any()


def test_conv2d_backward_identity_kernel_passes_upstream_through():
    rng = np.random.Generator(np.random.PCG64(4))
    x = rng.standard_normal((1, 1, 4, 4))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    spec = nnops.Conv2dSpec(1, 1, 3, 3, padding=1, groups=1)
    _, ctx = nnops.conv2d_forward(Tensor(x), Tensor(w), None, spec)
    up = rng.standard_normal((1, 1, 4, 4))
    gx, _, gb = nnops.conv2d_backward(Tensor(up), ctx)
    assert np.allclose(gx.array, up)
    assert gb is None


def test_conv2d_backward_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.standard_normal((2, 3, 5, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    spec = nnops.Conv2dSpec(3, 4, 3, 3, padding=1, groups=1)
    out, ctx = nnops.conv2d_forward(Tensor(x), Tensor(w), Tensor(b), spec)
    up = rng.standard_normal(out.shape)
    gx, gw, gb = nnops.conv2d_backward(Tensor(up), ctx)

    def loss_of(xv=None, wv=None, bv=None):
        o, _ = nnops.conv2d_forward(
            Tensor(x if xv is None else xv),
            Tensor(w if wv is None else wv),
            Tensor(b if bv is None else bv),
            spec,
        )
        return float(np.sum(up * o.array))

    assert max_rel_err(gx.array, numeric_gradient(lambda v: loss_of(xv=v), x)) < 1e-6
    assert max_rel_err(gw.array, numeric_gradient(lambda v: loss_of(wv=v), w)) < 1e-6
    assert max_rel_err(gb.array, numeric_gradient(lambda v: loss_of(bv=v), b)) < 1e-6


def test_band_kernel_matches_the_reference_across_band_boundaries(monkeypatch):
    """Forward and both adjoint identities of the band kernel against the
    nested-loop oracle, in f64 and f32, with the band size cut so the maps
    split into several bands, with a partial last band, into one-row bands
    (cin*wp above the band size), and into bands that lie wholly in the
    zero padding rows."""
    monkeypatch.setattr(nnops, "_BAND_ELEMS", 64)
    rng = np.random.Generator(np.random.PCG64(11))
    cases = [
        (nnops.Conv2dSpec(2, 3, 3, 3, padding=1), 13, 9),            # dense
        (nnops.Conv2dSpec(4, 4, 3, 3, padding=1, groups=4), 10, 7),  # depthwise
        (nnops.Conv2dSpec(3, 5, 1, 1), 11, 6),                       # pointwise
        (nnops.Conv2dSpec(1, 4, 5, 5), 14, 8),                       # one input channel
        (nnops.Conv2dSpec(4, 6, 2, 3, padding=2, groups=2), 9, 5),   # grouped, asymmetric
        (nnops.Conv2dSpec(20, 2, 3, 3, padding=1), 5, 6),            # wide rows
        (nnops.Conv2dSpec(8, 3, 1, 1, padding=2), 5, 6),             # 1x1 in 2 zero rows
    ]
    seen = set()
    for spec, h, w in cases:
        oh = h + 2 * spec.padding - spec.kernel_h + 1
        rows, bands = nnops._bands(spec.in_channels, w + 2 * spec.padding, oh)
        if len(bands) > 1:
            seen.add("several")
        if bands[-1][1] - bands[-1][0] < rows:
            seen.add("partial last")
        if spec.in_channels * (w + 2 * spec.padding) > nnops._BAND_ELEMS:
            seen.add("one row")
            assert rows == 1
        if any(r1 + spec.kernel_h - 1 <= spec.padding or r0 >= spec.padding + h
               for r0, r1 in bands):
            seen.add("padding only")
        # values exact in f32, so one f64 oracle run serves both precisions
        x = rng.standard_normal((2, spec.in_channels, h, w)).astype(np.float32).astype(np.float64)
        wgt = rng.standard_normal(spec.weight_shape()).astype(np.float32).astype(np.float64)
        ref = conv2d_reference(x, wgt, None, 1, spec.padding, spec.groups)
        up = rng.standard_normal(ref.shape).astype(np.float32).astype(np.float64)
        target = float(np.sum(up * ref))
        scale = float(np.sum(np.abs(up * ref)))
        for dt, fwd_tol, adj_tol in ((np.float64, 1e-12, 1e-12), (np.float32, 1e-4, 1e-5)):
            out, ctx = nnops.conv2d_forward(Tensor(x.astype(dt)), Tensor(wgt.astype(dt)), None, spec)
            assert np.max(np.abs(out.array - ref)) < fwd_tol, (spec, dt)
            gx, gw, _ = nnops.conv2d_backward(Tensor(up.astype(dt)), ctx)
            for grad, val in ((gx.array, x), (gw.array, wgt)):
                gap = abs(float(np.sum(grad.astype(np.float64) * val)) - target) / scale
                assert gap < adj_tol, (spec, dt, gap)
    assert seen == {"several", "partial last", "one row", "padding only"}


# Each conv of the model: its spec, and the rows and columns its input has
# beyond its output (the preprocessing convs read an edge-padded image).
MODEL_CONVS = {
    "srm 3x3": (nnops.Conv2dSpec(1, 25, 3, 3), 2),
    "srm 5x5": (nnops.Conv2dSpec(1, 5, 5, 5), 4),
    "pointwise": (nnops.Conv2dSpec(30, 30, 1, 1), 0),
    "depthwise": (nnops.Conv2dSpec(30, 30, 3, 3, padding=1, groups=30), 0),
    "block1": (nnops.Conv2dSpec(30, 32, 3, 3, padding=1), 0),
    "block2": (nnops.Conv2dSpec(32, 32, 3, 3, padding=1), 0),
    "block3": (nnops.Conv2dSpec(32, 64, 3, 3, padding=1), 0),
    "block4": (nnops.Conv2dSpec(64, 128, 3, 3, padding=1), 0),
}


@pytest.mark.parametrize("band_elems", [1 << 15, 1 << 16])
def test_each_model_conv_gives_the_same_bytes_at_every_worker_count(band_elems, monkeypatch):
    """At a WORKERS above 1 the band kernel joins whole bands of a
    one-image f32 map and keeps the last one apart, and keeps an f64 map's
    bands; the forward bytes, and the input-gradient bytes where cin > 1,
    stay those of WORKERS 1 at either dtype. The maps are the sizes at which
    56x56, 64x64 and 256x256 images meet each conv. Below 2**15 elements,
    joined bands changed the bytes of the dense convs at some sizes, so the
    band size the model runs at is tested, and one above it."""
    monkeypatch.setattr(nnops, "_BAND_ELEMS", band_elems)
    rngs = {np.float32: np.random.Generator(np.random.PCG64(61)),
            np.float64: np.random.Generator(np.random.PCG64(62))}
    seen = set()
    for kind, (spec, extra) in MODEL_CONVS.items():
        downsampled = {"block2": 2, "block3": 4, "block4": 8}.get(kind, 1)
        for size in (56 // downsampled, 64 // downsampled, 256 // downsampled):
            w_in = size + extra
            one, shared = (nnops._bands(spec.in_channels, w_in + 2 * spec.padding, size, scale)[1]
                           for scale in (1, nnops._SHARED_BAND_SCALE))
            if len(shared) < len(one):
                seen.add("joined")
            if one[-1][1] - one[-1][0] < one[0][1] - one[0][0]:
                seen.add("partial last")
            for dt, rng in rngs.items():
                x = Tensor(rng.standard_normal((1, spec.in_channels, w_in, w_in), dtype=dt))
                w = Tensor(rng.standard_normal(spec.weight_shape(), dtype=dt))
                up = Tensor(rng.standard_normal((1, spec.out_channels, size, size), dtype=dt))
                results = []
                for workers in (1, 2, 3):
                    monkeypatch.setattr(nnops, "WORKERS", workers)
                    out, ctx = nnops.conv2d_forward(x, w, None, spec)
                    ctx.input_grad = spec.in_channels > 1
                    gx, _, _ = nnops.conv2d_backward(up, ctx)
                    results.append((out.array.tobytes(),
                                    None if gx is None else gx.array.tobytes()))
                assert results[1] == results[0] and results[2] == results[0], (kind, size, dt)
    assert seen == {"joined", "partial last"}


@pytest.mark.parametrize("workers, n, dtype, scales", [
    (1, 1, np.float32, (1, 1, 1)),
    (2, 1, np.float32, (4, 1, 4)),
    (3, 1, np.float32, (4, 1, 4)),
    (2, 2, np.float32, (1, 1, 1)),
    (2, 1, np.float64, (1, 1, 1)),
])
def test_only_a_one_image_f32_map_at_more_than_one_worker_joins_bands(
        workers, n, dtype, scales, monkeypatch):
    """The band scale that one conv's forward, weight gradient and input
    gradient ask _bands for, in that order. Only an eval forward runs
    one-image maps, one image per task, so its forward and input gradient
    join bands when WORKERS is above 1; a train batch holds two images or
    more, and an f64 map and the weight gradient keep the smaller bands."""
    monkeypatch.setattr(nnops, "WORKERS", workers)
    asked = []
    real = nnops._bands

    def spy(cin, wp, oh, scale=1):
        asked.append(scale)
        return real(cin, wp, oh, scale)

    monkeypatch.setattr(nnops, "_bands", spy)
    rng = np.random.default_rng(67)
    spec = nnops.Conv2dSpec(4, 4, 3, 3, padding=1)
    x = Tensor(rng.standard_normal((n, 4, 16, 16)).astype(dtype))
    w = Tensor(rng.standard_normal(spec.weight_shape()).astype(dtype))
    out, ctx = nnops.conv2d_forward(x, w, None, spec)
    nnops.conv2d_backward(out, ctx)
    assert tuple(asked) == scales


def test_conv2d_spec_validation_errors():
    with pytest.raises(SpecError):
        nnops.Conv2dSpec(3, 4, 3, 3, padding=0, groups=2).validate()  # 3 % 2
    spec = nnops.Conv2dSpec(1, 1, 5, 5, padding=0, groups=1)
    x = Tensor(np.zeros((1, 1, 3, 3)))
    w = Tensor(np.zeros((1, 1, 5, 5)))
    with pytest.raises(SpecError):
        nnops.conv2d_forward(x, w, None, spec)  # output would be empty


def test_conv2d_shape_mismatch_rejected():
    spec = nnops.Conv2dSpec(2, 2, 3, 3, padding=1, groups=1)
    x = Tensor(np.zeros((1, 3, 4, 4)))  # wrong channel count
    w = Tensor(np.zeros((2, 2, 3, 3)))
    with pytest.raises(ShapeError):
        nnops.conv2d_forward(x, w, None, spec)


# ---------------------------------------------------------------------------
# avg_pool
# ---------------------------------------------------------------------------

def test_avg_pool_constant_field():
    x = np.full((1, 1, 32, 32), 2.0)
    out, _ = nnops.avg_pool(Tensor(x), win=8, stride=8)
    assert out.shape == (1, 1, 4, 4)
    assert np.array_equal(out.array, np.full((1, 1, 4, 4), 2.0))


def test_avg_pool_two_by_two_mean():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out, _ = nnops.avg_pool(Tensor(x), win=2, stride=2)
    assert out.array.reshape(-1).tolist() == [2.5]


def test_avg_pool_matches_window_oracle():
    rng = np.random.Generator(np.random.PCG64(6))
    x = rng.standard_normal((2, 3, 7, 7))
    out, _ = nnops.avg_pool(Tensor(x), win=3, stride=2)
    assert np.allclose(out.array, avg_pool_reference(x, 3, 2), rtol=0, atol=1e-14)


def test_avg_pool_padded_matches_window_oracle():
    rng = np.random.Generator(np.random.PCG64(7))
    x = rng.standard_normal((1, 2, 9, 9))
    out, _ = nnops.avg_pool(Tensor(x), win=5, stride=2, padding=2)
    ref = avg_pool_reference(x, 5, 2, padding=2)
    assert np.allclose(out.array, ref, rtol=0, atol=1e-14)
    assert out.shape[2] == 5  # ceil(9 / 2)


def test_avg_pool_and_backward_match_the_window_oracle_on_random_configs():
    """Forward against the oracle and the backward through the adjoint
    identity sum(up * pool(x)) = sum(grad_x * x), on random windows and on
    the network's window 5 / stride 2 / pad 2 at odd sizes."""
    rng = np.random.Generator(np.random.PCG64(12))
    configs = [(5, 2, 2, 17), (5, 2, 2, 33), (5, 2, 2, 16)]
    while len(configs) < 40:
        win, stride, pad = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(0, 3))
        size = int(rng.integers(max(1, win - 2 * pad), 12))
        configs.append((win, stride, pad, size))
    for dt, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
        for win, stride, pad, size in configs:
            x = rng.standard_normal((2, 3, size, size + 1))
            out, ctx = nnops.avg_pool(Tensor(x.astype(dt)), win, stride, pad)
            ref = avg_pool_reference(x, win, stride, padding=pad)
            assert out.shape == ref.shape
            assert np.max(np.abs(out.array - ref)) < tol, (win, stride, pad, size)
            up = rng.standard_normal(ref.shape)
            gx = nnops.avg_pool_backward(Tensor(up.astype(dt)), ctx)
            assert gx.shape == x.shape
            target = float(np.sum(up * ref))
            gap = abs(float(np.sum(gx.array.astype(np.float64) * x)) - target)
            assert gap <= tol * (float(np.sum(np.abs(up * ref))) + 1.0), (win, stride, pad, size)


def test_avg_pool_window_too_large_rejected():
    with pytest.raises(SpecError):
        nnops.avg_pool(Tensor(np.zeros((1, 1, 4, 4))), win=5, stride=1)


def test_avg_pool_backward_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(8))
    x = rng.standard_normal((1, 2, 7, 7))
    out, ctx = nnops.avg_pool(Tensor(x), win=5, stride=2, padding=2)
    up = rng.standard_normal(out.shape)
    gx = nnops.avg_pool_backward(Tensor(up), ctx)

    def loss(v):
        o, _ = nnops.avg_pool(Tensor(v), win=5, stride=2, padding=2)
        return float(np.sum(up * o.array))

    assert max_rel_err(gx.array, numeric_gradient(loss, x)) < 1e-6


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def vec(values):
    return Tensor(np.array(values, dtype=np.float64))


def test_tlu_clamps_to_threshold():
    x = vec([-5.0, 1.0, 5.0])
    assert nnops.tlu(x, 3.0).array.tolist() == [-3.0, 1.0, 3.0]


def test_abs_act_values():
    x = vec([-2.0, 0.0, 2.0])
    assert nnops.abs_act(x).array.tolist() == [2.0, 0.0, 2.0]


def test_relu_values():
    x = vec([-1.0, 0.0, 0.5, 3.0])
    assert nnops.relu(x).array.tolist() == [0.0, 0.0, 0.5, 3.0]


def test_tlu_with_huge_threshold_is_identity():
    rng = np.random.Generator(np.random.PCG64(9))
    x = rng.uniform(-1e6, 1e6, size=(4, 4))
    out = nnops.tlu(Tensor(x.copy()), 1e9)  # it writes over its input
    assert np.array_equal(out.array, x)


def test_activation_subgradients_at_kinks():
    """Each backward writes over its upstream, so each gets its own."""
    x = vec([-1.0, 0.0, 1.0])
    up = vec([1.0, 1.0, 1.0])
    assert nnops.relu_backward(up, nnops.backward_mask(x, "relu")).array.tolist() == [0.0, 0.0, 1.0]
    up = vec([1.0, 1.0, 1.0])
    assert nnops.abs_backward(up, nnops.backward_mask(x, "abs")).array.tolist() == [-1.0, 0.0, 1.0]
    edges = vec([-3.0, 0.0, 3.0])
    mask = nnops.backward_mask(edges, "tlu", 3.0)
    up = vec([1.0, 1.0, 1.0])
    assert nnops.tlu_backward(up, mask).array.tolist() == [0.0, 1.0, 0.0]


def test_relu_gradient_matches_finite_differences_away_from_kink():
    rng = np.random.Generator(np.random.PCG64(10))
    x = rng.standard_normal((3, 4))
    x[np.abs(x) < 1e-3] = 0.5  # keep probes off the kink
    up = rng.standard_normal(x.shape)
    # the op writes over the map it is handed, so each call gets a copy
    analytic = nnops.relu_backward(Tensor(up.copy()), nnops.backward_mask(Tensor(x), "relu")).array

    def loss(v):
        return float(np.sum(up * nnops.relu(Tensor(v.copy())).array))

    assert max_rel_err(analytic, numeric_gradient(loss, x)) < 1e-6


def test_tlu_rejects_non_positive_threshold():
    with pytest.raises(SpecError):
        nnops.tlu(Tensor(np.zeros(1, dtype=np.float32)), 0.0)


# each op's map operand (the input of a forward, the upstream of a backward)
# and the numpy bytes it must hold after the call, from copies of x and up
_ACTIVATION_CALLS = {
    "relu": (lambda x, up: nnops.relu(x), lambda x, up: np.maximum(x, 0)),
    "tlu": (lambda x, up: nnops.tlu(x, 3.0), lambda x, up: np.clip(x, -3.0, 3.0)),
    "abs_act": (lambda x, up: nnops.abs_act(x), lambda x, up: np.abs(x)),
    "relu_backward": (lambda x, up: nnops.relu_backward(up, nnops.backward_mask(x, "relu")),
                      lambda x, up: np.multiply(up, x > 0)),
    "tlu_backward": (lambda x, up: nnops.tlu_backward(up, nnops.backward_mask(x, "tlu", 3.0)),
                     lambda x, up: np.multiply(up, (x > -3.0) & (x < 3.0))),
    "abs_backward": (lambda x, up: nnops.abs_backward(up, nnops.backward_mask(x, "abs")),
                     lambda x, up: np.multiply(up, np.sign(x))),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(_ACTIVATION_CALLS))
def test_an_activation_op_writes_its_result_over_the_map_it_is_handed(op, dtype):
    """The forwards write over their input, the backwards over their
    upstream, and each returns that very array."""
    call, reference = _ACTIVATION_CALLS[op]
    rng = np.random.Generator(np.random.PCG64(19))
    x = (rng.standard_normal((3, 4, 5, 6)) * 4).astype(dtype)
    x[0, 0, 0, :3] = [0.0, 3.0, -3.0]  # the kinks
    up = rng.standard_normal(x.shape).astype(dtype)
    expected = reference(x.copy(), up.copy())
    assert expected.dtype == dtype
    handed = x if op in ("relu", "tlu", "abs_act") else up
    got = call(Tensor(x), Tensor(up))
    assert got.array is handed and got.array.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# batchnorm
# ---------------------------------------------------------------------------

def test_batchnorm_two_value_channel_example():
    # channel values {1, 3}: mean 2, biased variance 1
    x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
    state = nnops.BatchNormState.create(1, dtype="f64")
    out, _ = nnops.batchnorm_forward(Tensor(x), state)
    expected = (np.array([1.0, 3.0]) - 2.0) / np.sqrt(1.0 + 1e-5)
    assert np.allclose(out.array.reshape(-1), expected, rtol=0, atol=1e-15)
    assert abs(out.array.reshape(-1)[0] + 0.99999) < 1e-4


def test_batchnorm_zero_gamma_outputs_beta():
    rng = np.random.Generator(np.random.PCG64(11))
    x = rng.standard_normal((2, 3, 4, 4))
    state = nnops.BatchNormState.create(3, dtype="f64")
    state.gamma[:] = 0.0
    state.beta[:] = [1.0, -2.0, 0.5]
    out, _ = nnops.batchnorm_forward(Tensor(x), state)
    for c, b in enumerate([1.0, -2.0, 0.5]):
        assert np.array_equal(out.array[:, c], np.full((2, 4, 4), b))


def test_batchnorm_eval_identity_with_unit_running_stats():
    rng = np.random.Generator(np.random.PCG64(12))
    x = rng.standard_normal((2, 3, 4, 4))
    state = nnops.BatchNormState.create(3, dtype="f64", eps=0.0)
    state.mode = "eval"
    out, _ = nnops.batchnorm_forward(Tensor(x.copy()), state)  # it writes over its input
    assert np.array_equal(out.array, x)


def test_batchnorm_train_output_is_standardized():
    rng = np.random.Generator(np.random.PCG64(13))
    x = rng.uniform(-10, 50, size=(4, 5, 6, 6))
    state = nnops.BatchNormState.create(5, dtype="f64")
    out, _ = nnops.batchnorm_forward(Tensor(x), state)
    per_channel = out.array.transpose(1, 0, 2, 3).reshape(5, -1)
    means = per_channel.mean(axis=1)
    variances = per_channel.var(axis=1)
    assert np.all(np.abs(means) < 1e-6)
    assert np.all(np.abs(variances - 1.0) < 1e-4)


def test_batchnorm_running_stats_update_rule():
    rng = np.random.Generator(np.random.PCG64(14))
    x = rng.standard_normal((3, 2, 4, 4)) * 2.0 + 5.0
    state = nnops.BatchNormState.create(2, dtype="f64")
    state.running_mean[:] = [1.0, -1.0]
    state.running_var[:] = [4.0, 9.0]
    before_mean = state.running_mean.copy()
    before_var = state.running_var.copy()
    nnops.batchnorm_forward(Tensor(x), state)
    flat = x.transpose(1, 0, 2, 3).reshape(2, -1)
    batch_mean = flat.mean(axis=1)
    batch_var = flat.var(axis=1)  # biased
    assert np.allclose(state.running_mean, 0.9 * before_mean + 0.1 * batch_mean,
                       rtol=0, atol=1e-12)
    assert np.allclose(state.running_var, 0.9 * before_var + 0.1 * batch_var,
                       rtol=0, atol=1e-12)


def test_batchnorm_eval_mode_does_not_touch_running_stats():
    rng = np.random.Generator(np.random.PCG64(15))
    x = rng.standard_normal((2, 2, 3, 3))
    state = nnops.BatchNormState.create(2, dtype="f64")
    state.mode = "eval"
    rm, rv = state.running_mean.copy(), state.running_var.copy()
    nnops.batchnorm_forward(Tensor(x), state)
    assert np.array_equal(state.running_mean, rm)
    assert np.array_equal(state.running_var, rv)


def test_batchnorm_eval_forward_keeps_no_context_for_a_backward():
    rng = np.random.Generator(np.random.PCG64(17))
    x = rng.standard_normal((2, 2, 3, 3))
    state = nnops.BatchNormState.create(2, dtype="f64")
    _, train_ctx = nnops.batchnorm_forward(Tensor(x), state)
    assert train_ctx.mode == "train"
    state.mode = "eval"
    out, ctx = nnops.batchnorm_forward(Tensor(x), state)
    assert ctx is None
    with pytest.raises(ContractError):
        nnops.batchnorm_backward(Tensor(np.ones(out.shape)), ctx)


def test_an_eval_batchnorm_forward_writes_its_output_over_its_input():
    rng = np.random.Generator(np.random.PCG64(27))
    x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    state = nnops.BatchNormState.create(3)
    state.gamma[:], state.beta[:] = rng.standard_normal(3) + 1.5, rng.standard_normal(3)
    state.running_mean[:], state.running_var[:] = rng.standard_normal(3), rng.uniform(0.5, 2, 3)
    state.mode = "eval"
    scale = state.gamma * (1.0 / np.sqrt(state.running_var + np.float32(state.eps)))
    shift = state.beta - state.running_mean * scale
    expected = x * scale[None, :, None, None]  # what a copy-based forward computes
    expected += shift[None, :, None, None]
    inp = Tensor(x.copy())
    out, ctx = nnops.batchnorm_forward(inp, state)
    assert ctx is None and out.array is inp.array
    assert out.array.tobytes() == expected.tobytes()


def test_a_batchnorm_backward_writes_over_its_context_input_and_takes_one_call():
    rng = np.random.Generator(np.random.PCG64(31))
    x = rng.standard_normal((2, 3, 4, 4))
    state = nnops.BatchNormState.create(3, dtype="f64")
    up = Tensor(rng.standard_normal(x.shape))
    _, ctx = nnops.batchnorm_forward(Tensor(x.copy()), state)
    expected = nnops.batchnorm_backward(up, dataclasses.replace(ctx, x=ctx.x.copy()))
    held = ctx.x
    got = nnops.batchnorm_backward(up, ctx)
    assert ctx.x is None and got[0].array is held
    for a, b in zip(got, expected):
        assert a.array.tobytes() == b.array.tobytes()
    with pytest.raises(ContractError):
        nnops.batchnorm_backward(up, ctx)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_batchnorm_output_rebuilds_the_forward_output_from_the_context(dtype):
    """The kept statistics and copies of gamma and beta give the train
    forward's bytes again, after the state's gamma and beta have moved; once
    a backward has written over the context's input, it raises."""
    rng = np.random.Generator(np.random.PCG64(33))
    dt = np.float32 if dtype == "f32" else np.float64
    x = (rng.standard_normal((3, 4, 5, 6)) * 3 + 2).astype(dt)
    state = nnops.BatchNormState.create(4, dtype=dtype)
    state.gamma[:], state.beta[:] = rng.standard_normal(4) + 1.5, rng.standard_normal(4)
    out, ctx = nnops.batchnorm_forward(Tensor(x), state)
    state.gamma += 1
    state.beta -= 1
    rebuilt = nnops.batchnorm_output(ctx)
    assert rebuilt is not out.array and rebuilt.tobytes() == out.array.tobytes()
    nnops.batchnorm_backward(Tensor(np.ones_like(x)), ctx)
    with pytest.raises(ContractError):
        nnops.batchnorm_output(ctx)


def test_batchnorm_degenerate_batch_rejected():
    state = nnops.BatchNormState.create(1, dtype="f64")
    with pytest.raises(DataError):
        nnops.batchnorm_forward(Tensor(np.zeros((1, 1, 1, 1))), state)


def test_batchnorm_backward_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(16))
    x = rng.standard_normal((3, 2, 4, 4))
    gamma = rng.standard_normal(2) + 1.5
    beta = rng.standard_normal(2)
    up = rng.standard_normal(x.shape)

    def fresh_state(g=gamma, b=beta):
        st = nnops.BatchNormState.create(2, dtype="f64")
        st.gamma = np.asarray(g, dtype=np.float64).copy()
        st.beta = np.asarray(b, dtype=np.float64).copy()
        return st

    # a copy: the backward writes the input gradient over the forward's input
    out, ctx = nnops.batchnorm_forward(Tensor(x.copy()), fresh_state())
    gx, ggamma, gbeta = nnops.batchnorm_backward(Tensor(up), ctx)

    def loss_x(v):
        o, _ = nnops.batchnorm_forward(Tensor(v), fresh_state())
        return float(np.sum(up * o.array))

    def loss_gamma(v):
        o, _ = nnops.batchnorm_forward(Tensor(x), fresh_state(g=v))
        return float(np.sum(up * o.array))

    def loss_beta(v):
        o, _ = nnops.batchnorm_forward(Tensor(x), fresh_state(b=v))
        return float(np.sum(up * o.array))

    assert max_rel_err(gx.array, numeric_gradient(loss_x, x)) < 1e-6
    assert max_rel_err(ggamma.array, numeric_gradient(loss_gamma, gamma)) < 1e-6
    assert max_rel_err(gbeta.array, numeric_gradient(loss_beta, beta)) < 1e-6


def test_batchnorm_f32_gradients_stay_accurate_far_from_zero_mean():
    """With |mean| = 100 std, the f32 train backward keeps grad_gamma and
    grad_x within 1e-5 of the f64 backward on the same values, relative to
    the largest value: the sum of up * (x - mean) is taken from centred
    values, not as sum(up * x) - mean * sum(up)."""
    rng = np.random.Generator(np.random.PCG64(23))
    x = (100.0 + rng.standard_normal((4, 3, 16, 16))).astype(np.float32)
    up = rng.standard_normal(x.shape).astype(np.float32)
    grads = {}
    for dt in ("f32", "f64"):
        state = nnops.BatchNormState.create(3, dtype=dt)
        state.gamma[:] = [0.5, 1.0, 2.0]
        _, ctx = nnops.batchnorm_forward(Tensor(x.astype(state.gamma.dtype)), state)
        gx, ggamma, _ = nnops.batchnorm_backward(Tensor(up.astype(state.gamma.dtype)), ctx)
        grads[dt] = gx.array, ggamma.array
    for got, ref in zip(grads["f32"], grads["f64"]):
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-5


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(not nnops.FREED_MEMORY_KEPT, reason="the C library has no mallopt")
def test_a_freed_large_block_is_reused_without_faults():
    n = (64 << 20) // 4  # 64 MiB of f32, above glibc's 32 MiB mmap ceiling
    a = np.ones(n, np.float32)
    del a
    before = _minor_faults()
    b = np.ones(n, np.float32)
    assert _minor_faults() - before < 16  # of 16384 pages
    assert b[-1] == 1


def test_a_padded_conv_and_its_input_gradient_copy_no_whole_map():
    """A 3x3 conv at padding 1 on plain arguments pads band by band: the
    forward and the backward each peak less than 4 MiB of band buffers
    above their full-size result, where a padded copy of the whole
    [8, 30, 128, 128] f32 input or upstream would add 16 MiB."""
    import tracemalloc

    rng = np.random.Generator(np.random.PCG64(41))
    spec = nnops.Conv2dSpec(30, 30, 3, 3, padding=1)
    x = Tensor(rng.standard_normal((8, 30, 128, 128), dtype=np.float32))
    w = Tensor(rng.standard_normal(spec.weight_shape(), dtype=np.float32))
    up = Tensor(rng.standard_normal(x.shape, dtype=np.float32))

    def traced(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (out, ctx), fwd_peak = traced(lambda: nnops.conv2d_forward(x, w, None, spec))
    (gx, _, _), bwd_peak = traced(lambda: nnops.conv2d_backward(up, ctx))
    full = x.array.nbytes
    assert out.array.nbytes == gx.array.nbytes == full
    assert fwd_peak - full < 4 << 20 and bwd_peak - full < 4 << 20, (fwd_peak, bwd_peak)


def test_a_conv_backward_consumes_its_context():
    """The backward drops the context's input once the weight gradient is
    taken, so a second backward, or rebuilding the output, raises."""
    rng = np.random.Generator(np.random.PCG64(43))
    spec = nnops.Conv2dSpec(4, 6, 3, 3, padding=1)
    x = Tensor(rng.standard_normal((2, 4, 7, 7)))
    w = Tensor(rng.standard_normal(spec.weight_shape()))
    out, ctx = nnops.conv2d_forward(x, w, None, spec)
    assert nnops.conv2d_output(ctx).tobytes() == out.array.tobytes()
    up = Tensor(rng.standard_normal(out.shape))
    nnops.conv2d_backward(up, ctx)
    assert ctx.x is None
    with pytest.raises(ContractError, match="consumed"):
        nnops.conv2d_backward(up, ctx)
    with pytest.raises(ContractError, match="consumed"):
        nnops.conv2d_output(ctx)


def test_a_conv_backward_frees_a_handed_over_input_before_its_input_gradient():
    """When the context holds the only reference to the input, the input is
    freed before the input gradient is made, so the backward's live bytes
    peak at one [8, 30, 128, 128] f32 map (the input, then its gradient)
    plus less than 4 MiB of band buffers, besides the caller's upstream.
    Keeping the input to the end would add the 16 MiB map."""
    import tracemalloc

    rng = np.random.Generator(np.random.PCG64(45))
    spec = nnops.Conv2dSpec(30, 30, 3, 3, padding=1)
    w = Tensor(rng.standard_normal(spec.weight_shape(), dtype=np.float32))
    up = Tensor(rng.standard_normal((8, 30, 128, 128), dtype=np.float32))
    full = up.array.nbytes
    tracemalloc.start()
    try:
        ctx = nnops.conv2d_forward(
            Tensor(rng.standard_normal(up.shape, dtype=np.float32)), w, None, spec)[1]
        tracemalloc.reset_peak()
        gx, _, _ = nnops.conv2d_backward(up, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gx.array.nbytes == full
    assert peak - full < 4 << 20, (peak - full) / full


def test_held_outputs_and_contexts_survive_later_calls_byte_for_byte():
    rng = np.random.Generator(np.random.PCG64(29))
    spec = nnops.Conv2dSpec(6, 6, 3, 3, padding=1, groups=6)
    w = Tensor(rng.standard_normal((6, 1, 3, 3)).astype(np.float32))
    state = nnops.BatchNormState.create(6)

    def step(x):
        t, conv_ctx = nnops.conv2d_forward(Tensor(x), w, None, spec)
        t, bn_ctx = nnops.batchnorm_forward(t, state)
        mask = nnops.backward_mask(t, "relu")
        act = nnops.relu(t)
        pooled, pool_ctx = nnops.avg_pool(act, 5, 2, 2)
        g = nnops.avg_pool_backward(Tensor(np.ones(pooled.shape, np.float32)), pool_ctx)
        g = nnops.relu_backward(g, mask)
        bn_x = bn_ctx.x  # the backward writes the input gradient over it
        g, ggamma, _ = nnops.batchnorm_backward(g, bn_ctx)
        assert bn_ctx.x is None and g.array is bn_x
        gx, gw, _ = nnops.conv2d_backward(g, conv_ctx)  # consumes the context's input
        assert conv_ctx.x is None
        return [act.array, pooled.array, gx.array, gw.array, ggamma.array,
                x, bn_x, bn_ctx.mean, mask, g.array]

    held = step(rng.standard_normal((4, 6, 32, 32)).astype(np.float32))
    before = [a.copy() for a in held]
    for _ in range(2):
        step(rng.standard_normal((4, 6, 32, 32)).astype(np.float32))
    for a, b in zip(held, before):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# spatial pyramid pooling
# ---------------------------------------------------------------------------

def test_spp_windows_at_32_match_worked_example():
    assert nnops.spp_windows(32, 4) == (8, 8)
    assert nnops.spp_windows(32, 2) == (16, 16)
    assert nnops.spp_windows(32, 1) == (32, 32)


def test_spp_constant_input_yields_constant_bins():
    x = np.full((2, 3, 9, 9), 4.25)
    out, _ = nnops.spp_forward(Tensor(x), (4, 2, 1))
    assert out.shape == (2, 3 * 21)
    assert np.allclose(out.array, 4.25, rtol=0, atol=1e-12)


def test_spp_non_divisible_size_matches_window_oracle():
    rng = np.random.Generator(np.random.PCG64(17))
    x = rng.standard_normal((2, 3, 7, 7))
    assert nnops.spp_windows(7, 4) == (2, 1)
    out, _ = nnops.spp_forward(Tensor(x), (4, 2, 1))
    assert np.allclose(out.array, spp_reference(x, (4, 2, 1)), rtol=0, atol=1e-14)


@pytest.mark.parametrize("a", [7, 16, 28, 31, 32])
def test_spp_output_length_is_size_independent(a):
    rng = np.random.Generator(np.random.PCG64(18))
    x = rng.standard_normal((1, 5, a, a))
    out, _ = nnops.spp_forward(Tensor(x), (4, 2, 1))
    assert out.shape == (1, 5 * 21)


def test_spp_rejects_small_maps():
    with pytest.raises(SpecError):
        nnops.spp_forward(Tensor(np.zeros((1, 1, 3, 3))), (4, 2, 1))


@pytest.mark.parametrize("levels, message", [
    ((), "at least one pyramid level"),
    ((4, 0), "positive integers"),
    ((2.0, 1), "positive integers"),
])
def test_spp_rejects_bad_levels(levels, message):
    with pytest.raises(SpecError, match=message):
        nnops.spp_forward(Tensor(np.zeros((1, 1, 8, 8))), levels)


def test_spp_backward_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(19))
    levels = (4, 2, 1)
    for a in (7, 8):
        x = rng.standard_normal((1, 2, a, a))
        out, ctx = nnops.spp_forward(Tensor(x), levels)
        up = rng.standard_normal(out.shape)
        gx = nnops.spp_backward(Tensor(up), ctx)

        def loss(v, up=up):
            o, _ = nnops.spp_forward(Tensor(v), levels)
            return float(np.sum(up * o.array))

        assert max_rel_err(gx.array, numeric_gradient(loss, x)) < 1e-6


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def test_linear_identity_weights():
    x = np.arange(6.0).reshape(2, 3)
    out, _ = nnops.linear_forward(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
    assert np.array_equal(out.array, x)


def test_linear_zero_input_gives_bias_rows():
    b = np.array([1.0, -2.0, 3.0, 0.5])
    out, _ = nnops.linear_forward(
        Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(b)
    )
    assert np.array_equal(out.array, np.stack([b, b]))


def test_linear_matches_triple_loop_matmul():
    rng = np.random.Generator(np.random.PCG64(20))
    x = rng.standard_normal((2, 3))
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(4)
    out, _ = nnops.linear_forward(Tensor(x), Tensor(w), Tensor(b))
    assert np.allclose(out.array, matmul_reference(x, w) + b, rtol=0, atol=1e-15)


def test_linear_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        nnops.linear_forward(
            Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5))
        )


def test_linear_backward_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(21))
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(5)
    out, ctx = nnops.linear_forward(Tensor(x), Tensor(w), Tensor(b))
    up = rng.standard_normal(out.shape)
    gx, gw, gb = nnops.linear_backward(Tensor(up), ctx)

    def loss(xv=None, wv=None, bv=None):
        o, _ = nnops.linear_forward(
            Tensor(x if xv is None else xv),
            Tensor(w if wv is None else wv),
            Tensor(b if bv is None else bv),
        )
        return float(np.sum(up * o.array))

    assert max_rel_err(gx.array, numeric_gradient(lambda v: loss(xv=v), x)) < 1e-6
    assert max_rel_err(gw.array, numeric_gradient(lambda v: loss(wv=v), w)) < 1e-6
    assert max_rel_err(gb.array, numeric_gradient(lambda v: loss(bv=v), b)) < 1e-6


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------

def test_xent_uniform_logits_is_log_two():
    loss, _ = nnops.softmax_xent(Tensor(np.zeros((1, 2))), [0])
    assert abs(loss - np.log(2.0)) < 1e-12
    loss1, _ = nnops.softmax_xent(Tensor(np.zeros((1, 2))), [1])
    assert abs(loss1 - np.log(2.0)) < 1e-12


def test_xent_extreme_logits_do_not_overflow():
    loss, grad = nnops.softmax_xent(Tensor(np.array([[1000.0, 0.0]])), [0])
    assert loss < 1e-9
    assert np.all(np.isfinite(grad.array))


def test_xent_gradient_formula_softmax_minus_onehot():
    rng = np.random.Generator(np.random.PCG64(22))
    z = rng.standard_normal((4, 2)) * 2.0
    labels = [0, 1, 1, 0]
    _, grad = nnops.softmax_xent(Tensor(z), labels)
    shifted = z - z.max(axis=1, keepdims=True)
    sm = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    onehot = np.zeros_like(z)
    onehot[np.arange(4), labels] = 1.0
    assert np.allclose(grad.array, (sm - onehot) / 4.0, rtol=0, atol=1e-12)


def test_xent_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(23))
    z = rng.standard_normal((6, 2)) * 3.0
    labels = [int(v) for v in rng.integers(0, 2, size=6)]
    _, grad = nnops.softmax_xent(Tensor(z), labels)

    def loss(v):
        l, _ = nnops.softmax_xent(Tensor(v), labels)
        return l

    assert max_rel_err(grad.array, numeric_gradient(loss, z)) < 1e-6


def test_xent_label_validation():
    with pytest.raises(DataError):
        nnops.softmax_xent(Tensor(np.zeros((1, 2))), [2])
    with pytest.raises(DataError):
        nnops.softmax_xent(Tensor(np.zeros((2, 2))), [0])  # length mismatch
