"""Network assembly: architecture audit, determinism, gradients wiring,
checkpoint persistence, feature dumps, admissibility rules."""
import numpy as np
import pytest

from stegnet import nnops, zhunet
from stegnet.errors import ContractError, DataError, FormatError, ShapeError, SpecError
from stegnet.tensor import Tensor


TOTAL_TRAINABLE = 2_869_044

EXPECTED_SHAPES = {
    "pre.kernels3": (25, 1, 3, 3),
    "pre.kernels5": (5, 1, 5, 5),
    "sep1.pw.w": (30, 30, 1, 1),
    "sep1.bn_pw.gamma": (30,),
    "sep1.bn_pw.beta": (30,),
    "sep1.dw.w": (30, 1, 3, 3),
    "sep1.bn_dw.gamma": (30,),
    "sep1.bn_dw.beta": (30,),
    "sep2.pw.w": (30, 30, 1, 1),
    "sep2.bn_pw.gamma": (30,),
    "sep2.bn_pw.beta": (30,),
    "sep2.dw.w": (30, 1, 3, 3),
    "sep2.bn_dw.gamma": (30,),
    "sep2.bn_dw.beta": (30,),
    "block1.conv.w": (32, 30, 3, 3),
    "block1.bn.gamma": (32,),
    "block1.bn.beta": (32,),
    "block2.conv.w": (32, 32, 3, 3),
    "block2.bn.gamma": (32,),
    "block2.bn.beta": (32,),
    "block3.conv.w": (64, 32, 3, 3),
    "block3.bn.gamma": (64,),
    "block3.bn.beta": (64,),
    "block4.conv.w": (128, 64, 3, 3),
    "block4.bn.gamma": (128,),
    "block4.bn.beta": (128,),
    "fc1.w": (2688, 1024),
    "fc1.b": (1024,),
    "fc2.w": (1024, 2),
    "fc2.b": (2,),
}


def build(seed=0, **kw):
    return zhunet.build_model(zhunet.ModelConfig(seed=seed, **kw))


def rand_images(rng, n, size, dtype="f32"):
    return Tensor(rng.uniform(0.0, 255.0, size=(n, 1, size, size)).astype(dtype.replace("f", "float")))


# ---------------------------------------------------------------------------
# architecture audit
# ---------------------------------------------------------------------------

def test_parameter_names_and_shapes_match_the_architecture():
    model = build()
    params = model.parameters()
    assert {k: v.shape for k, v in params.items()} == EXPECTED_SHAPES


def test_total_trainable_parameter_count():
    assert build().num_parameters() == TOTAL_TRAINABLE
    assert sum(np.prod(s) for s in EXPECTED_SHAPES.values()) == TOTAL_TRAINABLE


def test_frozen_preprocessing_removes_exactly_350_parameters():
    model = build(srm_trainable=False)
    assert model.num_parameters() == TOTAL_TRAINABLE - 350
    assert not any(k.startswith("pre.") for k in model.parameters())


def test_first_sepconv_block_rectifies_and_second_does_not():
    assert build().sep1.has_abs is True
    assert build().sep2.has_abs is False


def test_only_first_three_basic_blocks_pool():
    model = build()
    assert [blk.pool for blk in model.blocks] == [True, True, True, False]
    assert [blk.conv_w.shape[0] for blk in model.blocks] == [32, 32, 64, 128]


def test_pyramid_feature_dimension_is_21_bins_of_128_channels():
    model = build()
    assert model.spp.levels == (4, 2, 1)
    assert model.spp.bins == 21
    assert model.fc1_w.shape == (21 * 128, 1024)
    assert model.fc2_w.shape == (1024, 2)


# ---------------------------------------------------------------------------
# deterministic construction
# ---------------------------------------------------------------------------

def test_same_seed_builds_bitwise_identical_models():
    a, b = build(seed=5), build(seed=5)
    for name, t in a.parameters().items():
        assert np.array_equal(t.array, b.parameters()[name].array), name


def test_different_seeds_differ_in_learned_weights_but_not_kernels():
    a, b = build(seed=0), build(seed=1)
    assert not np.array_equal(a.fc1_w.array, b.fc1_w.array)
    assert np.array_equal(a.pre.kernels3.array, b.pre.kernels3.array)
    assert np.array_equal(a.pre.kernels5.array, b.pre.kernels5.array)


def test_preprocessing_kernels_start_at_the_filter_bank_values():
    from stegnet import srm

    model = build()
    layer = srm.PreprocessingLayer.build(dtype="f32")
    assert np.array_equal(model.pre.kernels3.array, layer.kernels3.array)
    assert np.array_equal(model.pre.kernels5.array, layer.kernels5.array)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [224, 256])
def test_forward_at_full_image_sizes_yields_two_logits(size):
    model = build()
    rng = np.random.default_rng(0)
    logits = model.forward(rand_images(rng, 1, size), mode="eval")
    assert logits.shape == (1, 2)
    assert np.all(np.isfinite(logits.array))


def test_identical_rows_get_identical_eval_logits():
    model = build()
    rng = np.random.default_rng(1)
    one = rand_images(rng, 1, 32)
    batch = Tensor(np.repeat(one.array, 3, axis=0))
    logits = model.forward(batch, mode="eval")
    assert np.array_equal(logits.array[0], logits.array[1])
    assert np.array_equal(logits.array[0], logits.array[2])


def test_eval_forward_is_repeatable_bitwise():
    model = build()
    rng = np.random.default_rng(2)
    x = rand_images(rng, 2, 32)
    assert np.array_equal(model.forward(x, mode="eval").array,
                          model.forward(x, mode="eval").array)


def test_forward_mode_must_be_train_or_eval():
    model = build()
    with pytest.raises(SpecError):
        model.forward(rand_images(np.random.default_rng(0), 1, 32), mode="test")


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_rejects_non_square_images_naming_the_pyramid_stage():
    model = build()
    with pytest.raises(DataError, match="pyramid"):
        model.forward(Tensor(np.zeros((1, 1, 32, 48), dtype=np.float32)))


def test_rejects_images_too_small_for_the_pyramid():
    model = build()
    with pytest.raises(DataError, match="pyramid"):
        model.forward(Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)))
    with pytest.raises(DataError):
        model.forward(Tensor(np.zeros((1, 1, 24, 24), dtype=np.float32)))


def test_smallest_admissible_square_runs():
    model = build()
    size = zhunet.MIN_INPUT_SIZE
    logits = model.forward(Tensor(np.zeros((1, 1, size, size), dtype=np.float32)), mode="eval")
    assert logits.shape == (1, 2)


def test_rejects_multichannel_and_wrong_dtype_inputs():
    model = build()
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((1, 1, 32, 32), dtype=np.float64)))


# ---------------------------------------------------------------------------
# backward wiring
# ---------------------------------------------------------------------------

def test_backward_yields_a_gradient_for_every_parameter():
    model = build(dtype="f64")
    rng = np.random.default_rng(3)
    logits = model.forward(rand_images(rng, 2, 32, "f64"), mode="train")
    _, grad_logits = nnops.softmax_xent(logits, [0, 1])
    grads = model.backward(grad_logits)
    assert list(grads.keys()) == list(model.parameters().keys())
    for name, g in grads.items():
        assert g.shape == EXPECTED_SHAPES[name], name
        assert np.all(np.isfinite(g.array)), name


def test_zero_upstream_gradient_gives_zero_parameter_gradients():
    model = build(dtype="f64")
    rng = np.random.default_rng(4)
    logits = model.forward(rand_images(rng, 2, 32, "f64"), mode="train")
    grads = model.backward(Tensor(np.zeros(logits.shape)))
    for name, g in grads.items():
        assert np.all(g.array == 0.0), name


def test_backward_without_forward_is_a_contract_violation():
    with pytest.raises(ContractError):
        build().backward(Tensor(np.zeros((2, 2), dtype=np.float32)))


def test_backward_after_an_eval_forward_is_a_contract_violation():
    model = build()
    rng = np.random.default_rng(5)
    x = rand_images(rng, 2, 32)
    model.forward(x, mode="train")
    logits = model.forward(x, mode="eval")
    with pytest.raises(ContractError):
        model.backward(Tensor(np.zeros(logits.shape, dtype=np.float32)))


def test_backward_rejects_mismatched_grad_logits_shape():
    model = build()
    rng = np.random.default_rng(5)
    model.forward(rand_images(rng, 2, 32), mode="train")
    with pytest.raises(ShapeError):
        model.backward(Tensor(np.zeros((3, 2), dtype=np.float32)))


def test_frozen_model_backward_omits_preprocessing_gradients():
    model = build(srm_trainable=False, dtype="f64")
    rng = np.random.default_rng(6)
    logits = model.forward(rand_images(rng, 2, 32, "f64"), mode="train")
    _, grad_logits = nnops.softmax_xent(logits, [0, 1])
    grads = model.backward(grad_logits)
    assert not any(k.startswith("pre.") for k in grads)
    assert sum(g.size for g in grads.values()) == TOTAL_TRAINABLE - 350


# ---------------------------------------------------------------------------
# sepconv block semantics
# ---------------------------------------------------------------------------

def test_sepconv_with_zeroed_weights_is_the_identity():
    model = build(dtype="f64")
    model.sep1.pw_w.array[:] = 0.0
    model.sep1.dw_w.array[:] = 0.0
    rng = np.random.default_rng(7)
    x = rand_images(rng, 1, 32, "f64")
    pre_out = model.dump_feature_maps(x, "preprocessing")
    sep1_out = model.dump_feature_maps(x, "sep1")
    assert np.array_equal(pre_out.array, sep1_out.array)


def test_sepconv_matches_a_hand_composed_pipeline():
    # conv1x1 -> |.| -> batchnorm -> depthwise3x3 -> batchnorm -> + input
    model = build(dtype="f64")
    sep = model.sep1
    for bn in (sep.bn_pw, sep.bn_dw):
        bn.mode = "eval"
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 30, 8, 8)))
    out, _ = sep.forward(x)

    c = 30
    t, _ = nnops.conv2d_forward(x, sep.pw_w, None, nnops.Conv2dSpec(c, c, 1, 1))
    t = nnops.abs_act(t)
    t, _ = nnops.batchnorm_forward(t, sep.bn_pw)
    t, _ = nnops.conv2d_forward(t, sep.dw_w, None,
                                nnops.Conv2dSpec(c, c, 3, 3, padding=1, groups=c))
    t, _ = nnops.batchnorm_forward(t, sep.bn_dw)
    assert np.array_equal(out.array, t.array + x.array)


def test_second_sepconv_block_skips_the_rectification():
    model = build(dtype="f64")
    sep = model.sep2
    for bn in (sep.bn_pw, sep.bn_dw):
        bn.mode = "eval"
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(1, 30, 8, 8)))
    out, _ = sep.forward(x)

    c = 30
    t, _ = nnops.conv2d_forward(x, sep.pw_w, None, nnops.Conv2dSpec(c, c, 1, 1))
    t, _ = nnops.batchnorm_forward(t, sep.bn_pw)
    t, _ = nnops.conv2d_forward(t, sep.dw_w, None,
                                nnops.Conv2dSpec(c, c, 3, 3, padding=1, groups=c))
    t, _ = nnops.batchnorm_forward(t, sep.bn_dw)
    assert np.array_equal(out.array, t.array + x.array)


# ---------------------------------------------------------------------------
# activation modes
# ---------------------------------------------------------------------------

def test_thresholded_mode_clamps_block_activations_to_plus_minus_three():
    model = build(activation_mode="tlu3")
    rng = np.random.default_rng(10)
    x = rand_images(rng, 1, 32)
    for stage in ("block1", "block2", "block3", "block4"):
        fm = model.dump_feature_maps(x, stage)
        assert float(np.max(np.abs(fm.array))) <= 3.0 + 1e-6, stage


def test_relu_mode_block_activations_are_nonnegative():
    model = build(activation_mode="relu")
    rng = np.random.default_rng(11)
    x = rand_images(rng, 1, 32)
    for stage in ("block1", "block2", "block3", "block4"):
        fm = model.dump_feature_maps(x, stage)
        assert float(np.min(fm.array)) >= 0.0, stage


def test_activation_mode_changes_the_logits():
    rng = np.random.default_rng(12)
    x = rand_images(rng, 1, 32)
    a = build(activation_mode="relu").forward(x, mode="eval")
    b = build(activation_mode="tlu3").forward(x, mode="eval")
    assert not np.array_equal(a.array, b.array)


# ---------------------------------------------------------------------------
# feature dumps
# ---------------------------------------------------------------------------

def test_feature_map_shapes_follow_the_downsampling_schedule():
    model = build()
    rng = np.random.default_rng(13)
    x = rand_images(rng, 1, 64)
    expected = {
        "preprocessing": (1, 30, 64, 64),
        "sep1": (1, 30, 64, 64),
        "sep2": (1, 30, 64, 64),
        "block1": (1, 32, 32, 32),
        "block2": (1, 32, 16, 16),
        "block3": (1, 64, 8, 8),
        "block4": (1, 128, 8, 8),
    }
    for stage, shape in expected.items():
        assert model.dump_feature_maps(x, stage).shape == shape, stage


def test_unknown_stage_is_rejected_with_the_valid_names():
    model = build()
    rng = np.random.default_rng(14)
    with pytest.raises(SpecError, match="block4"):
        model.dump_feature_maps(rand_images(rng, 1, 32), "logits")


def test_module_level_dump_helper_matches_the_method():
    model = build()
    rng = np.random.default_rng(15)
    x = rand_images(rng, 1, 32)
    a = zhunet.dump_feature_maps(model, x, "sep2")
    b = model.dump_feature_maps(x, "sep2")
    assert np.array_equal(a.array, b.array)


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_is_bitwise(tmp_path):
    model = build(seed=21)
    rng = np.random.default_rng(16)
    x = rand_images(rng, 2, 32)
    before = model.forward(x, mode="eval")
    path = tmp_path / "model.znet"
    zhunet.save_checkpoint(model, path)
    loaded = zhunet.load_checkpoint(path)
    for name, t in model.state_tensors().items():
        assert np.array_equal(t.array, loaded.state_tensors()[name].array), name
    after = loaded.forward(x, mode="eval")
    assert np.array_equal(before.array, after.array)


def test_checkpoint_preserves_config_flags(tmp_path):
    model = build(activation_mode="tlu3", srm_trainable=False)
    path = tmp_path / "model.znet"
    zhunet.save_checkpoint(model, path)
    loaded = zhunet.load_checkpoint(path)
    assert loaded.config.activation_mode == "tlu3"
    assert loaded.pre.trainable is False
    assert loaded.num_parameters() == TOTAL_TRAINABLE - 350


def test_checkpoint_survives_training_statistics(tmp_path):
    model = build(dtype="f64")
    rng = np.random.default_rng(17)
    logits = model.forward(rand_images(rng, 2, 32, "f64"), mode="train")
    _, grad_logits = nnops.softmax_xent(logits, [0, 1])
    model.backward(grad_logits)
    path = tmp_path / "model.znet"
    zhunet.save_checkpoint(model, path)
    loaded = zhunet.load_checkpoint(path)
    assert np.array_equal(model.sep1.bn_pw.running_mean, loaded.sep1.bn_pw.running_mean)
    assert np.array_equal(model.blocks[3].bn.running_var, loaded.blocks[3].bn.running_var)


def test_serialization_is_deterministic():
    assert zhunet.serialize_model(build(seed=3)) == zhunet.serialize_model(build(seed=3))


def test_corrupt_magic_is_a_format_error():
    blob = bytearray(zhunet.serialize_model(build()))
    blob[:4] = b"XXXX"
    with pytest.raises(FormatError, match="magic"):
        zhunet.deserialize_model(bytes(blob))


def test_truncated_checkpoint_reports_the_byte_offset():
    blob = zhunet.serialize_model(build())
    with pytest.raises(FormatError) as exc_info:
        zhunet.deserialize_model(blob[: len(blob) // 2])
    assert exc_info.value.offset is not None
    assert "byte offset" in str(exc_info.value)


def test_trailing_garbage_is_a_format_error():
    blob = zhunet.serialize_model(build())
    with pytest.raises(FormatError):
        zhunet.deserialize_model(blob + b"\x00\x01\x02")


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_activation_mode():
    with pytest.raises(SpecError):
        zhunet.build_model(zhunet.ModelConfig(activation_mode="gelu"))


def test_config_rejects_unknown_dtype_and_bad_channels():
    with pytest.raises(SpecError):
        zhunet.build_model(zhunet.ModelConfig(dtype="f16"))
    with pytest.raises(SpecError):
        zhunet.build_model(zhunet.ModelConfig(channels=(32, 32, 64)))
