"""High-pass filter bank and the trainable preprocessing layer."""
import numpy as np
import pytest

from stegnet import nnops, srm, zhunet
from stegnet.errors import ContractError, DataError, SpecError
from stegnet.tensor import Tensor
from stegnet.train import TrainConfig, TrainState, sgd_step

from oracles import conv2d_reference


EXPECTED_FAMILY_COUNTS = {
    "1st": 8,
    "2nd": 4,
    "3rd": 8,
    "square_3x3": 1,
    "edge_3x3": 4,
    "square_5x5": 1,
    "edge_5x5": 4,
}


@pytest.fixture(scope="module")
def bank():
    return srm.build_filter_bank()


def test_bank_has_thirty_filters_with_expected_families(bank):
    assert len(bank) == 30
    counts = {}
    for f in bank:
        counts[f.family] = counts.get(f.family, 0) + 1
    assert counts == EXPECTED_FAMILY_COUNTS


def test_every_filter_sums_to_zero_exactly(bank):
    # Exactness holds at the rational level of the packaged data file;
    # re-check it here with an independent pass over the text.  The float
    # copies may carry summation round-off but nothing beyond it.
    from fractions import Fraction
    from importlib import resources

    text = resources.files("stegnet").joinpath("srm_filters.txt").read_text(encoding="ascii")
    records = 0
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    pos = 0
    while pos < len(lines):
        name, nrows, ncols, _order = lines[pos].split()
        total = Fraction(0)
        for row in lines[pos + 1 : pos + 1 + int(nrows)]:
            total += sum((Fraction(tok) for tok in row.split()), Fraction(0))
        assert total == 0, name
        records += 1
        pos += 1 + int(nrows)
    assert records == 30
    for f in bank:
        assert abs(f.coefficients.sum()) < 1e-12, f.name


def test_size_classes_split_25_and_5(bank):
    small = [f for f in bank if f.size_class == "embed3x3"]
    big = [f for f in bank if f.size_class == "keep5x5"]
    assert len(small) == 25 and len(big) == 5
    for f in big:
        assert f.coefficients.shape == (5, 5)
    for f in small:
        assert f.native_h <= 3 and f.native_w <= 3


def test_square5x5_center_and_rotation_symmetry(bank):
    sq = next(f for f in bank if f.family == "square_5x5")
    assert sq.coefficients[2, 2] == -1.0  # -12/12 after normalization
    assert np.array_equal(np.rot90(sq.coefficients), sq.coefficients)
    corner = sq.coefficients[0, 0]
    assert abs(corner - (-1.0 / 12.0)) < 1e-15


def test_residual_orders_match_families(bank):
    for f in bank:
        if f.family == "1st":
            assert f.residual_order == 1, f.name
        elif f.family == "2nd":
            assert f.residual_order == 2, f.name
        elif f.family == "3rd":
            assert f.residual_order == 3, f.name


def test_two_builds_are_bitwise_identical(bank):
    other = srm.build_filter_bank()
    assert [f.name for f in other] == [f.name for f in bank]
    for a, b in zip(bank, other):
        assert np.array_equal(a.coefficients, b.coefficients)


# ---------------------------------------------------------------------------
# kernel embedding
# ---------------------------------------------------------------------------

def test_embed_first_order_horizontal_row(bank):
    f = next(f for f in bank if f.family == "1st" and f.coefficients.shape == (1, 2))
    assert f.coefficients.tolist() == [[-1.0, 1.0]]
    k = srm.embed_kernel(f)
    assert k.shape == (1, 1, 3, 3)
    assert k.array[0, 0].tolist() == [[0, 0, 0], [0, -1.0, 1.0], [0, 0, 0]]
    assert k.array.sum() == 0.0


def test_embed_native_3x3_and_5x5_are_unchanged(bank):
    e3 = next(f for f in bank if f.family == "edge_3x3")
    k3 = srm.embed_kernel(e3)
    assert np.array_equal(k3.array[0, 0], e3.coefficients)
    s5 = next(f for f in bank if f.family == "square_5x5")
    k5 = srm.embed_kernel(s5)
    assert np.array_equal(k5.array[0, 0], s5.coefficients)


def test_embed_rejects_oversized_native():
    filt = srm.SrmFilter(
        name="bogus_4x4", coefficients=np.zeros((4, 4)), residual_order=1
    )
    # 4x4 is not 5x5, so it targets the 3x3 kernel and cannot fit
    with pytest.raises(SpecError):
        srm.embed_kernel(filt)


def test_embedded_kernels_center_the_native_taps(bank):
    # every embedded 3x3 kernel keeps its center-of-reference tap at [1,1]:
    # spot-check a vertical 3x1 filter and a 2x1 filter
    for f in bank:
        if f.coefficients.shape == (3, 1):
            k = srm.embed_kernel(f).array[0, 0]
            assert np.array_equal(k[:, 1], f.coefficients[:, 0])
            assert k[:, 0].sum() == 0.0 and k[:, 2].sum() == 0.0


# ---------------------------------------------------------------------------
# parser errors
# ---------------------------------------------------------------------------

def test_parse_rejects_bad_header():
    with pytest.raises(SpecError):
        srm.parse_filter_bank("only_three_fields 1 2\n0 0\n")


def test_parse_rejects_wrong_value_count():
    text = "f 2 2 1\n1/2 -1/2\n1\n"
    with pytest.raises(SpecError):
        srm.parse_filter_bank(text)


def test_parse_rejects_duplicate_names():
    text = "f 1 2 1\n-1 1\nf 1 2 1\n-1 1\n"
    with pytest.raises(SpecError):
        srm.parse_filter_bank(text)


def test_parse_rejects_truncated_record():
    with pytest.raises(SpecError):
        srm.parse_filter_bank("f 3 3 1\n0 0 0\n0 0 0\n")


def test_parse_evaluates_rationals_exactly():
    bank = srm.parse_filter_bank("f 1 3 1\n1/3 1/3 -2/3\n")
    assert bank[0].coefficients.sum() == 0.0


# ---------------------------------------------------------------------------
# preprocessing layer
# ---------------------------------------------------------------------------

def test_layer_build_shapes_and_channels():
    layer = srm.PreprocessingLayer.build(dtype="f64")
    assert layer.kernels3.shape == (25, 1, 3, 3)
    assert layer.kernels5.shape == (5, 1, 5, 5)
    assert layer.out_channels == 30


def test_constant_image_gives_zero_residual_planes():
    layer = srm.PreprocessingLayer.build(dtype="f64")
    x = Tensor(np.full((1, 1, 8, 8), 128.0))
    out, _ = srm.preprocess_forward(x, layer)
    assert out.shape == (1, 30, 8, 8)
    assert np.max(np.abs(out.array)) < 1e-6


def test_preprocess_output_shape_at_256():
    layer = srm.PreprocessingLayer.build(dtype="f32")
    x = Tensor(np.zeros((1, 1, 256, 256), dtype=np.float32))
    out, _ = srm.preprocess_forward(x, layer)
    assert out.shape == (1, 30, 256, 256)


def _edge_padded_reference(x: np.ndarray, kernels: np.ndarray, pad: int) -> np.ndarray:
    """Independent reference for the preprocessing convolution: replicate
    the edge pixels outward, then correlate with no padding at all."""
    n_k = kernels.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="edge")
    return conv2d_reference(np.repeat(xp, n_k, axis=1), kernels, None, 1, 0, n_k)


def test_preprocess_matches_correlation_oracle_on_impulse():
    layer = srm.PreprocessingLayer.build(dtype="f64")
    x = np.zeros((1, 1, 7, 7))
    x[0, 0, 3, 3] = 1.0
    out, _ = srm.preprocess_forward(Tensor(x), layer)
    assert np.allclose(out.array[:, :25],
                       _edge_padded_reference(x, layer.kernels3.array, 1),
                       rtol=0, atol=1e-15)
    assert np.allclose(out.array[:, 25:],
                       _edge_padded_reference(x, layer.kernels5.array, 2),
                       rtol=0, atol=1e-15)


def test_preprocess_replicates_edges_on_random_image():
    layer = srm.PreprocessingLayer.build(dtype="f64")
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 255.0, size=(2, 1, 9, 11))
    out, _ = srm.preprocess_forward(Tensor(x), layer)
    assert np.allclose(out.array[:, :25],
                       _edge_padded_reference(x, layer.kernels3.array, 1),
                       rtol=0, atol=1e-12)
    assert np.allclose(out.array[:, 25:],
                       _edge_padded_reference(x, layer.kernels5.array, 2),
                       rtol=0, atol=1e-12)


def _two_conv_preprocess(x: np.ndarray, layer) -> np.ndarray:
    """The bank as two convolutions: the 3x3 kernels over the image
    edge-padded by 1, the 5x5 kernels over it edge-padded by 2, the outputs
    concatenated in bank order."""
    outs = []
    for kernels, pad in ((layer.kernels3, 1), (layer.kernels5, 2)):
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="edge")
        k = kernels.shape[0]
        spec = nnops.Conv2dSpec(1, k, 2 * pad + 1, 2 * pad + 1)
        outs.append(nnops.conv2d_forward(Tensor(xp), kernels, None, spec)[0].array)
    return np.concatenate(outs, axis=1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shape", [(2, 1, 200, 200), (16, 1, 64, 64), (1, 1, 200, 200)])
def test_the_one_conv_bank_gives_the_bytes_of_the_two_convs(shape, workers, monkeypatch):
    """The 3x3 kernels zero-padded to 5x5 add exact-zero taps only, so in
    f32 the one 5x5 conv gives the bytes of the two convs, at either band
    size: the one-image map at two workers runs the joined bands. At
    200x200 the band kernel runs two bands per image. (f64 is not pinned:
    OpenBLAS's dgemm rounds a few sums of the two shapes apart.)"""
    rng = np.random.default_rng(26)
    layer = srm.PreprocessingLayer.build(dtype="f32")
    for kernels in (layer.kernels3, layer.kernels5):  # off the exact rationals
        kernels.array[...] += rng.standard_normal(kernels.shape).astype(np.float32) / 64
    x = rng.uniform(0.0, 255.0, size=shape).astype(np.float32)
    monkeypatch.setattr(nnops, "WORKERS", workers)
    out, _ = srm.preprocess_forward(Tensor(x), layer)
    expected = _two_conv_preprocess(x, layer)
    assert out.array.dtype == np.float32
    assert out.array.tobytes() == expected.tobytes()


def test_preprocess_rejects_tiny_images():
    layer = srm.PreprocessingLayer.build(dtype="f64")
    with pytest.raises(DataError):
        srm.preprocess_forward(Tensor(np.zeros((1, 1, 4, 4))), layer)


def kernel_entries(layer, rule=zhunet.PLAIN):
    """The preprocessing rows of a state table, over the layer's kernels."""
    return {
        "pre.kernels3": zhunet.Entry(layer.kernels3, zhunet.PARAM, rule),
        "pre.kernels5": zhunet.Entry(layer.kernels5, zhunet.PARAM, rule),
    }


def update(layer, g3, g5, lr, rule=zhunet.PLAIN):
    grads = {"pre.kernels3": Tensor(g3), "pre.kernels5": Tensor(g5)}
    sgd_step(kernel_entries(layer, rule), grads, TrainState(), lr, TrainConfig())


def test_update_with_zero_lr_is_bitwise_noop():
    layer = srm.PreprocessingLayer.build(dtype="f64")
    before3 = layer.kernels3.array.copy()
    before5 = layer.kernels5.array.copy()
    update(layer, np.ones_like(before3), np.ones_like(before5), lr=0.0)
    assert np.array_equal(layer.kernels3.array, before3)
    assert np.array_equal(layer.kernels5.array, before5)


def test_update_with_unit_lr_and_self_gradient_zeroes_kernels():
    layer = srm.PreprocessingLayer.build(dtype="f64")
    update(layer, layer.kernels3.array.copy(), layer.kernels5.array.copy(), lr=1.0)
    assert not layer.kernels3.array.any()
    assert not layer.kernels5.array.any()


def test_update_scalar_arithmetic():
    layer = srm.PreprocessingLayer.build(dtype="f64")
    layer.kernels3.array[0, 0, 0, 0] = 2.0
    g3 = np.zeros_like(layer.kernels3.array)
    g3[0, 0, 0, 0] = 0.5
    update(layer, g3, np.zeros_like(layer.kernels5.array), lr=0.1)
    # the plain step: no momentum and no weight decay on the kernels
    assert layer.kernels3.array[0, 0, 0, 0] == pytest.approx(1.95, abs=1e-15)


def test_update_on_frozen_layer_is_a_contract_violation():
    layer = srm.PreprocessingLayer.build(dtype="f64")
    before3 = layer.kernels3.array.copy()
    with pytest.raises(ContractError):
        update(layer, before3, layer.kernels5.array.copy(), lr=0.1, rule=zhunet.FROZEN)
    assert np.array_equal(layer.kernels3.array, before3)


def test_preprocess_backward_matches_finite_differences():
    from oracles import max_rel_err, numeric_gradient

    rng = np.random.Generator(np.random.PCG64(24))
    layer = srm.PreprocessingLayer.build(dtype="f64")
    x = rng.standard_normal((1, 1, 6, 6)) * 5.0
    out, ctx = srm.preprocess_forward(Tensor(x), layer)
    up = rng.standard_normal(out.shape)
    gk3, gk5 = srm.preprocess_backward(Tensor(up), ctx)

    def loss_k3(v):
        lay = srm.PreprocessingLayer(kernels3=Tensor(v), kernels5=layer.kernels5)
        o, _ = srm.preprocess_forward(Tensor(x), lay)
        return float(np.sum(up * o.array))

    assert max_rel_err(gk3.array, numeric_gradient(loss_k3, layer.kernels3.array)) < 1e-6

    def loss_k5(v):
        lay = srm.PreprocessingLayer(kernels3=layer.kernels3, kernels5=Tensor(v))
        o, _ = srm.preprocess_forward(Tensor(x), lay)
        return float(np.sum(up * o.array))

    assert max_rel_err(gk5.array, numeric_gradient(loss_k5, layer.kernels5.array)) < 1e-6


def test_preprocess_backward_returns_only_the_two_kernel_gradients(monkeypatch):
    """The network's input images take no gradient, so the bank's one
    conv backward is not asked for its input gradient."""
    asked = []
    real = nnops.conv2d_backward

    def recording(up, ctx):
        asked.append(ctx.input_grad)
        return real(up, ctx)

    monkeypatch.setattr(nnops, "conv2d_backward", recording)
    layer = srm.PreprocessingLayer.build(dtype="f64")
    x = np.random.default_rng(25).standard_normal((2, 1, 7, 7))
    out, ctx = srm.preprocess_forward(Tensor(x), layer)
    grads = srm.preprocess_backward(Tensor(np.ones(out.shape)), ctx)
    assert isinstance(grads, tuple) and len(grads) == 2
    assert [g.shape for g in grads] == [(25, 1, 3, 3), (5, 1, 5, 5)]
    assert asked == [False]
