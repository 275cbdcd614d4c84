"""Operator-level checks: worked examples, independent oracles, and
finite-difference verification for every backward pass."""
import numpy as np
import pytest

from stegnet import nnops
from stegnet.errors import DataError, ShapeError, SpecError
from stegnet.tensor import Tensor, from_data

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
    spec = nnops.Conv2dSpec(3, 3, 3, 3, stride=1, padding=1, groups=1)
    out, _ = nnops.conv2d_forward(Tensor(x), Tensor(w), None, spec)
    assert np.allclose(out.array, x)


def test_conv2d_single_pixel_all_ones_kernel():
    x = np.full((1, 1, 1, 1), 5.0)
    w = np.ones((1, 1, 3, 3))
    spec = nnops.Conv2dSpec(1, 1, 3, 3, stride=1, padding=1, groups=1)
    out, _ = nnops.conv2d_forward(Tensor(x), Tensor(w), None, spec)
    assert out.shape == (1, 1, 1, 1)
    assert out.array[0, 0, 0, 0] == 5.0


def test_conv2d_grouped_strided_matches_nested_loop_oracle():
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.standard_normal((1, 4, 8, 8))
    w = rng.standard_normal((4, 2, 3, 3))
    b = rng.standard_normal(4)
    spec = nnops.Conv2dSpec(4, 4, 3, 3, stride=2, padding=1, groups=2)
    out, _ = nnops.conv2d_forward(Tensor(x), Tensor(w), Tensor(b), spec)
    ref = conv2d_reference(x, w, b, stride=2, padding=1, groups=2)
    assert np.max(np.abs(out.array - ref)) < 1e-12


def test_conv2d_block_diagonal_group_property():
    rng = np.random.Generator(np.random.PCG64(2))
    groups = 3
    x = rng.standard_normal((2, 6, 5, 5))
    w = rng.standard_normal((6, 2, 3, 3))
    spec = nnops.Conv2dSpec(6, 6, 3, 3, stride=1, padding=1, groups=groups)
    out, _ = nnops.conv2d_forward(Tensor(x), Tensor(w), None, spec)
    per_group = []
    sub_spec = nnops.Conv2dSpec(2, 2, 3, 3, stride=1, padding=1, groups=1)
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
    spec = nnops.Conv2dSpec(2, 2, 3, 3, stride=1, padding=1, groups=1)
    out, ctx = nnops.conv2d_forward(Tensor(x), Tensor(w), Tensor(b), spec)
    gx, gw, gb = nnops.conv2d_backward(Tensor(np.zeros(out.shape)), ctx)
    assert not gx.array.any() and not gw.array.any() and not gb.array.any()


def test_conv2d_backward_identity_kernel_passes_upstream_through():
    rng = np.random.Generator(np.random.PCG64(4))
    x = rng.standard_normal((1, 1, 4, 4))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    spec = nnops.Conv2dSpec(1, 1, 3, 3, stride=1, padding=1, groups=1)
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
    spec = nnops.Conv2dSpec(3, 4, 3, 3, stride=1, padding=1, groups=1)
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


def test_conv2d_spec_validation_errors():
    with pytest.raises(SpecError):
        nnops.Conv2dSpec(3, 4, 3, 3, stride=1, padding=0, groups=2).validate()  # 3 % 2
    with pytest.raises(SpecError):
        nnops.Conv2dSpec(2, 2, 3, 3, stride=0, padding=0, groups=1).validate()
    spec = nnops.Conv2dSpec(1, 1, 5, 5, stride=1, padding=0, groups=1)
    x = Tensor(np.zeros((1, 1, 3, 3)))
    w = Tensor(np.zeros((1, 1, 5, 5)))
    with pytest.raises(SpecError):
        nnops.conv2d_forward(x, w, None, spec)  # output would be empty


def test_conv2d_shape_mismatch_rejected():
    spec = nnops.Conv2dSpec(2, 2, 3, 3, stride=1, padding=1, groups=1)
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

def test_tlu_clamps_to_threshold():
    x = from_data((3,), [-5.0, 1.0, 5.0], dtype="f64")
    assert nnops.tlu(x, 3.0).tolist() == [-3.0, 1.0, 3.0]


def test_abs_act_values():
    x = from_data((3,), [-2.0, 0.0, 2.0], dtype="f64")
    assert nnops.abs_act(x).tolist() == [2.0, 0.0, 2.0]


def test_relu_values():
    x = from_data((4,), [-1.0, 0.0, 0.5, 3.0], dtype="f64")
    assert nnops.relu(x).tolist() == [0.0, 0.0, 0.5, 3.0]


def test_tlu_with_huge_threshold_is_identity():
    rng = np.random.Generator(np.random.PCG64(9))
    x = rng.uniform(-1e6, 1e6, size=(4, 4))
    out = nnops.tlu(Tensor(x), 1e9)
    assert np.array_equal(out.array, x)


def test_activation_subgradients_at_kinks():
    up = from_data((3,), [1.0, 1.0, 1.0], dtype="f64")
    x = from_data((3,), [-1.0, 0.0, 1.0], dtype="f64")
    assert nnops.relu_backward(up, x).tolist() == [0.0, 0.0, 1.0]
    assert nnops.abs_backward(up, x).tolist() == [-1.0, 0.0, 1.0]
    edges = from_data((3,), [-3.0, 0.0, 3.0], dtype="f64")
    assert nnops.tlu_backward(up, edges, 3.0).tolist() == [0.0, 1.0, 0.0]


def test_relu_gradient_matches_finite_differences_away_from_kink():
    rng = np.random.Generator(np.random.PCG64(10))
    x = rng.standard_normal((3, 4))
    x[np.abs(x) < 1e-3] = 0.5  # keep probes off the kink
    up = rng.standard_normal(x.shape)
    analytic = nnops.relu_backward(Tensor(up), Tensor(x)).array

    def loss(v):
        return float(np.sum(up * nnops.relu(Tensor(v)).array))

    assert max_rel_err(analytic, numeric_gradient(loss, x)) < 1e-6


def test_tlu_rejects_non_positive_threshold():
    with pytest.raises(SpecError):
        nnops.tlu(from_data((1,), [0.0]), 0.0)


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
    out, _ = nnops.batchnorm_forward(Tensor(x), state)
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

    out, ctx = nnops.batchnorm_forward(Tensor(x), fresh_state())
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


# ---------------------------------------------------------------------------
# spatial pyramid pooling
# ---------------------------------------------------------------------------

def test_spp_windows_at_32_match_worked_example():
    assert nnops.spp_windows(32, 4) == (8, 8)
    assert nnops.spp_windows(32, 2) == (16, 16)
    assert nnops.spp_windows(32, 1) == (32, 32)


def test_spp_constant_input_yields_constant_bins():
    x = np.full((2, 3, 9, 9), 4.25)
    out, _ = nnops.spp_forward(Tensor(x), nnops.SppConfig((4, 2, 1)))
    assert out.shape == (2, 3 * 21)
    assert np.allclose(out.array, 4.25, rtol=0, atol=1e-12)


def test_spp_non_divisible_size_matches_window_oracle():
    rng = np.random.Generator(np.random.PCG64(17))
    x = rng.standard_normal((2, 3, 7, 7))
    cfg = nnops.SppConfig((4, 2, 1))
    assert nnops.spp_windows(7, 4) == (2, 1)
    out, _ = nnops.spp_forward(Tensor(x), cfg)
    assert np.allclose(out.array, spp_reference(x, (4, 2, 1)), rtol=0, atol=1e-14)


@pytest.mark.parametrize("a", [7, 16, 28, 31, 32])
def test_spp_output_length_is_size_independent(a):
    rng = np.random.Generator(np.random.PCG64(18))
    x = rng.standard_normal((1, 5, a, a))
    out, _ = nnops.spp_forward(Tensor(x), nnops.SppConfig((4, 2, 1)))
    assert out.shape == (1, 5 * 21)


def test_spp_rejects_small_maps():
    with pytest.raises(SpecError):
        nnops.spp_forward(Tensor(np.zeros((1, 1, 3, 3))), nnops.SppConfig((4, 2, 1)))


def test_spp_backward_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(19))
    cfg = nnops.SppConfig((4, 2, 1))
    for a in (7, 8):
        x = rng.standard_normal((1, 2, a, a))
        out, ctx = nnops.spp_forward(Tensor(x), cfg)
        up = rng.standard_normal(out.shape)
        gx = nnops.spp_backward(Tensor(up), ctx)

        def loss(v, up=up):
            o, _ = nnops.spp_forward(Tensor(v), cfg)
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
