"""Network assembly: architecture audit, determinism, gradients wiring,
checkpoint persistence, feature dumps, admissibility rules."""
import dataclasses
import hashlib
import resource
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from stegnet import nnops, srm, zhunet
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
    assert zhunet.SPP_LEVELS == (4, 2, 1)
    assert model.table["fc1.w"].tensor.shape == (21 * 128, 1024)
    assert model.table["fc2.w"].tensor.shape == (1024, 2)


# ---------------------------------------------------------------------------
# deterministic construction
# ---------------------------------------------------------------------------

def test_same_seed_builds_bitwise_identical_models():
    a, b = build(seed=5), build(seed=5)
    for name, t in a.parameters().items():
        assert np.array_equal(t.array, b.parameters()[name].array), name


def test_different_seeds_differ_in_learned_weights_but_not_kernels():
    a, b = build(seed=0), build(seed=1)
    assert not np.array_equal(a.table["fc1.w"].tensor.array, b.table["fc1.w"].tensor.array)
    assert np.array_equal(a.table["pre.kernels3"].tensor.array,
                          b.table["pre.kernels3"].tensor.array)
    assert np.array_equal(a.table["pre.kernels5"].tensor.array,
                          b.table["pre.kernels5"].tensor.array)


def test_preprocessing_kernels_start_at_the_filter_bank_values():
    from stegnet import srm

    model = build()
    layer = srm.PreprocessingLayer.build(dtype="f32")
    assert np.array_equal(model.table["pre.kernels3"].tensor.array, layer.kernels3.array)
    assert np.array_equal(model.table["pre.kernels5"].tensor.array, layer.kernels5.array)


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


def test_identical_rows_get_identical_eval_logits_at_two_workers(monkeypatch):
    monkeypatch.setattr(nnops, "WORKERS", 2)
    test_identical_rows_get_identical_eval_logits()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_eval_outputs_are_bitwise_equal_for_every_worker_count(n, monkeypatch):
    """Three workers split 5 images 2/2/1 and 2 images 1/1."""
    model = build(seed=1)
    x = rand_images(np.random.default_rng(41), n, 32)
    outputs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(nnops, "WORKERS", workers)
        outputs[workers] = (model.forward(x, mode="eval").array.tobytes(),
                            model.dump_feature_maps(x, "block2").array.tobytes())
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


@pytest.mark.parametrize("size", [64, 96])
def test_eval_outputs_of_maps_split_into_bands_are_bitwise_equal_for_every_worker_count(
        size, monkeypatch):
    """At these sizes the band kernel splits the maps into several bands,
    which a WORKERS above 1 joins into fewer for f32 maps. At 64 the last
    band of block2's conv is two rows, a GEMM narrow enough to round
    otherwise, so it must stay a band of its own. f64 maps keep the
    smaller bands, since dgemm rounds joined ones otherwise. Three workers
    run 5 images on three threads."""
    one, shared = (nnops._bands(30, size + 2, size, scale)[1]
                   for scale in (1, nnops._SHARED_BAND_SCALE))  # block1's conv
    assert len(one) > len(shared)
    for dtype in ("f32", "f64"):
        model = build(seed=1, dtype=dtype)
        x = rand_images(np.random.default_rng(size), 5, size, dtype)
        stages = [name for name, _ in model.stages[:-1]]
        outputs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(nnops, "WORKERS", workers)
            outputs[workers] = [model.forward(x, mode="eval").array.tobytes()] + [
                model.dump_feature_maps(x, stage).array.tobytes() for stage in stages]
        assert outputs[2] == outputs[1], dtype
        assert outputs[3] == outputs[1], dtype


@pytest.mark.parametrize("workers", [1, 2])
def test_an_empty_eval_batch_gives_empty_logits_and_feature_maps(workers, monkeypatch):
    """An empty batch runs only the zero-image run that gives the output
    its shape; a train forward of it still fails in batchnorm, which needs
    batch statistics."""
    monkeypatch.setattr(nnops, "WORKERS", workers)
    model = build(seed=1)
    x = Tensor(np.zeros((0, 1, 32, 32), dtype=np.float32))
    assert model.forward(x, mode="eval").shape == (0, 2)
    assert model.dump_feature_maps(x, "block2").shape == (0, 32, 8, 8)
    with pytest.raises(DataError):
        model.forward(x, mode="train")


def test_sharded_eval_forwards_under_fast_thread_switching_match_the_serial_bytes(monkeypatch):
    """Four workers on a 7-image batch, more threads than cores, with the
    interpreter switching threads every microsecond."""
    model = build(seed=1)
    x = rand_images(np.random.default_rng(43), 7, 32)
    monkeypatch.setattr(nnops, "WORKERS", 1)
    serial = model.forward(x, mode="eval").array.tobytes()
    monkeypatch.setattr(nnops, "WORKERS", 4)
    results = []
    runner = threading.Thread(
        target=lambda: results.extend(
            model.forward(x, mode="eval").array.tobytes() for _ in range(20)),
        daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(results) == 20
    assert all(r == serial for r in results)


class _ImageFault(Exception):
    pass


@pytest.mark.parametrize("which", ["first image", "last image"])
def test_an_exception_in_one_image_reaches_the_caller(which, monkeypatch):
    """block1 raises on one image of seven at four workers, after the
    zero-image run that gives the output its shape; the forward raises it,
    and the next forward gives the serial bytes."""
    model = build(seed=1)
    x = rand_images(np.random.default_rng(47), 7, 32)
    monkeypatch.setattr(nnops, "WORKERS", 1)
    serial = model.forward(x, mode="eval").array.tobytes()
    i = 0 if which == "first image" else 6
    block1_input = model.dump_feature_maps(Tensor(x.array[i : i + 1]), "sep2").array
    monkeypatch.setattr(nnops, "WORKERS", 4)
    real = zhunet.BasicBlock.forward

    def faulty(blk, t):
        if np.array_equal(t.array, block1_input):
            raise _ImageFault(which)
        return real(blk, t)

    monkeypatch.setattr(zhunet.BasicBlock, "forward", faulty)
    with pytest.raises(_ImageFault, match=which):
        model.forward(x, mode="eval")
    monkeypatch.setattr(zhunet.BasicBlock, "forward", real)
    assert model.forward(x, mode="eval").array.tobytes() == serial


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
def test_an_eval_forward_runs_one_image_per_worker_at_once(workers, monkeypatch):
    """A spy holds each basic block of each image 5 ms. Over 7 images it
    sees at most min(WORKERS, 7) images at once, and at some moment
    exactly that many, each on a thread of its own."""
    model = build(seed=1)
    x = rand_images(np.random.default_rng(83), 7, 32)
    monkeypatch.setattr(nnops, "WORKERS", workers)
    real = zhunet.BasicBlock.forward
    lock = threading.Lock()
    running, most, threads = [0], [0], set()

    def spy(blk, t):
        if t.shape[0]:  # not the zero-image run
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
                threads.add(threading.get_ident())
            time.sleep(0.005)
            with lock:
                running[0] -= 1
        return real(blk, t)

    monkeypatch.setattr(zhunet.BasicBlock, "forward", spy)
    model.forward(x, mode="eval")
    assert most[0] == min(workers, 7)
    assert len(threads) == min(workers, 7)


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


def test_spp_bins_cover_the_map_except_the_documented_4x4_remainder():
    """win = ceil(a/n), stride = floor(a/n): the bins of level n reach row
    (n-1)*stride + win of the a-by-a map. Levels 2 and 1 reach the end; the
    4x4 level leaves the last (a mod 4) - 1 rows and columns unpooled when
    a mod 4 is 2 or 3."""
    gaps = {}
    for size in range(zhunet.MIN_INPUT_SIZE - 1, 513):
        a = size
        for _ in range(3):  # three pools of win 5 / stride 2 / pad 2
            a = -(-a // 2)
        if size < zhunet.MIN_INPUT_SIZE:
            assert a < 4  # inadmissible: the 4x4 level would not fit
            continue
        assert a >= 4
        for n in (4, 2, 1):
            win, stride = nnops.spp_windows(a, n)
            gap = a - ((n - 1) * stride + win)
            assert gap == (max(a % 4 - 1, 0) if n == 4 else 0), (size, n)
        gaps[size] = a - (3 * (a // 4) + -(-a // 4))
    assert len(gaps) == 488
    assert sum(1 for g in gaps.values() if g) == 240
    assert gaps[64] == 0 and gaps[256] == 0 and gaps[224] == 0
    assert gaps[49] == 2  # a 7x7 map: the 4x4 bins cover rows 0-4


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


@pytest.mark.parametrize("mode", ["relu", "tlu3"])
def test_every_gradient_comes_back_under_its_own_name(mode):
    """Stages return their gradients by position, and the model pairs them
    with its table names. A central difference of the loss at each
    tensor's largest-|grad| element tells a swapped pair apart. The
    sepconv pointwise gammas get gradients near 1e-7, which round-off
    alone puts a few parts in 1e3 off; hence the absolute floor."""
    model = build(dtype="f64", activation_mode=mode)
    images = rand_images(np.random.default_rng(41), 2, 32, "f64")

    def loss() -> float:
        return nnops.softmax_xent(model.forward(images, mode="train"), [0, 1])[0]

    _, grad_logits = nnops.softmax_xent(model.forward(images, mode="train"), [0, 1])
    grads = model.backward(grad_logits)
    h = 1e-6
    for name, p in model.parameters().items():
        g = grads[name].array
        i = np.unravel_index(np.argmax(np.abs(g)), g.shape)
        origin = p.array[i]
        p.array[i] = origin + h
        up = loss()
        p.array[i] = origin - h
        down = loss()
        p.array[i] = origin
        numeric, err = (up - down) / (2 * h), abs((up - down) / (2 * h) - g[i])
        assert err < 1e-8 or err < 1e-4 * max(abs(numeric), abs(g[i])), (name, g[i], numeric)


@pytest.mark.parametrize("trainable", [True, False])
def test_backward_runs_the_preprocessing_stage_only_while_it_trains(trainable, monkeypatch):
    from stegnet import srm

    calls = []
    original = srm.preprocess_backward

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(srm, "preprocess_backward", counted)
    model = build(srm_trainable=trainable)
    logits = model.forward(rand_images(np.random.default_rng(6), 2, 32), mode="train")
    _, grad_logits = nnops.softmax_xent(logits, [0, 1])
    model.backward(grad_logits)
    assert len(calls) == (1 if trainable else 0)


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


@pytest.mark.parametrize("mode, trainable", [
    (mode, trainable) for mode in zhunet.ACTIVATION_MODES for trainable in (True, False)])
def test_checkpoint_preserves_config_flags(tmp_path, mode, trainable):
    model = build(activation_mode=mode, srm_trainable=trainable)
    path = tmp_path / "model.znet"
    zhunet.save_checkpoint(model, path)
    loaded = zhunet.load_checkpoint(path)
    assert loaded.config.activation_mode == mode
    assert loaded.config.srm_trainable is trainable
    assert loaded.num_parameters() == TOTAL_TRAINABLE - (0 if trainable else 350)


# sha256 and length of serialize_model(build_model(config)), pinned from the
# checkpoint writer before the model's parameters moved into one state table
PINNED_CHECKPOINTS = [
    (zhunet.ModelConfig(),
     "52352731c148f728f36b8b3b2df1aeaf557cb7e42462adbf2b5045e5707f7c3d", 11_480_602),
    (zhunet.ModelConfig(activation_mode="tlu3", srm_trainable=False, dtype="f64", seed=7),
     "62d81118c619ea7598364be83a9e22cf0ae035499f097e80eb2356c17ec8840b", 22_959_786),
]


@pytest.mark.parametrize("config,digest,length", PINNED_CHECKPOINTS)
def test_fresh_checkpoint_bytes_are_pinned(config, digest, length):
    blob = zhunet.serialize_model(zhunet.build_model(config))
    assert len(blob) == length
    assert hashlib.sha256(blob).hexdigest() == digest


# ---------------------------------------------------------------------------
# memory across passes
# ---------------------------------------------------------------------------

def _arrays(obj) -> list:
    """Every ndarray reachable from a context: through Tensors, dicts,
    lists, tuples and dataclasses."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, Tensor):
        return [obj.array]
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif not isinstance(obj, (list, tuple)):
        return []
    return [a for v in obj for a in _arrays(v)]


def _train_step(model, images):
    logits = model.forward(images, mode="train")
    _, grad_logits = nnops.softmax_xent(logits, [i % 2 for i in range(images.shape[0])])
    return logits, model.backward(grad_logits)


def test_a_train_step_gives_the_same_bytes_at_any_shard_count_its_thread_set(monkeypatch):
    """A 1-image step at a WORKERS above 1 joins the bands of its forward
    convs, the maps its backward rebuilds and its input gradients, but the
    weight gradients add the smaller bands' products in the same order. A
    4-image step keeps the smaller bands at any WORKERS."""
    for n in (1, 4):
        images = rand_images(np.random.default_rng(59), n, 64)
        steps = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(nnops, "WORKERS", workers)
            logits, grads = _train_step(build(seed=1), images)
            steps[workers] = [logits.array.tobytes(), *(g.array.tobytes() for g in grads.values())]
        assert steps[2] == steps[1], n
        assert steps[3] == steps[1], n


@pytest.mark.skipif(not nnops.FREED_MEMORY_KEPT, reason="the C library has no mallopt")
def test_train_steps_at_a_repeated_shape_fault_in_no_new_memory():
    """A 64x64 step at batch 8 touches about 13k pages; once the heap holds
    them, the next steps reuse them. Each warm-up step runs an eval forward
    too, so that its pool has started a thread before the count."""
    model = build(seed=1)
    images = rand_images(np.random.default_rng(31), 8, 64)
    for _ in range(2):
        _train_step(model, images)
        model.forward(images, mode="eval")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _train_step(model, images)
    model.forward(images, mode="eval")
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


@pytest.mark.skipif(not nnops.FREED_MEMORY_KEPT, reason="the C library has no mallopt")
def test_sharded_eval_forwards_reuse_the_heap_and_then_fault_in_no_new_memory(monkeypatch):
    """Worker threads allocate from the main arena, so a two-worker forward
    reuses the blocks that serial forwards of the same batch freed. A
    thread's own arena would first fault in about 2,400 pages at 64x64,
    batch 8. The two threads' allocations interleave differently from call
    to call, so the heap may still grow now and then: the steady state is
    judged by the median."""
    model = build(seed=1)
    images = rand_images(np.random.default_rng(31), 8, 64)
    faults = []
    for workers, n in ((1, 8), (1, 8), (2, 2), *[(2, 8)] * 6):
        monkeypatch.setattr(nnops, "WORKERS", workers)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.forward(Tensor(images.array[:n]), mode="eval")
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[3] < 1000, faults  # a 2-image forward has started the threads' stacks
    assert np.median(faults[4:]) < 100, faults


ONE_IMAGE_MAP = 30 * 64 * 64 * 4  # bytes of one image's [30, 64, 64] f32 map


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_eval_forward_keeps_no_map_that_only_a_backward_reads(monkeypatch):
    """An 8-image block1 dump streams its images one at a time. Around
    sep1's depthwise conv it holds one image's three full-size maps (the
    block input, the first batchnorm's output, which abs and that batchnorm
    wrote over the pointwise output, and the depthwise output, which the
    second batchnorm writes over) and the band buffers, 5.88 one-image
    [30, 64, 64] maps, besides the 8 images' block1 output, 2.13: 8.02 in
    all. Running the whole batch at once made 26.9; keeping the pointwise
    output for the abs backward would add one more."""
    monkeypatch.setattr(nnops, "WORKERS", 1)
    model = build(seed=1)
    images = rand_images(np.random.default_rng(43), 8, 64)
    peak = _traced_peak(lambda: model.dump_feature_maps(images, "block1"))
    assert peak < 8.5 * ONE_IMAGE_MAP, peak / ONE_IMAGE_MAP


def test_an_eval_forward_writes_each_image_into_its_output_without_a_copy(monkeypatch):
    """An 8-image preprocessing dump at one worker writes each image into
    one output, the 8 images' [30, 64, 64] maps. The forward peaks at 11.0
    one-image maps: the output, and one image's working maps and band
    buffers. Copying that output once more at the end made 16.0."""
    monkeypatch.setattr(nnops, "WORKERS", 1)
    model = build(seed=1)
    images = rand_images(np.random.default_rng(79), 8, 64)
    peak = _traced_peak(lambda: model.dump_feature_maps(images, "preprocessing"))
    assert peak < 11.5 * ONE_IMAGE_MAP, peak / ONE_IMAGE_MAP


@pytest.mark.parametrize("workers", [1, 2])
def test_eval_forward_memory_does_not_grow_with_the_batch(workers, monkeypatch):
    """Each worker runs one image through the body at a time, so an eval
    forward's peak grows only by the body's outputs (128x8x8 per image at
    64x64) and the head's rows. Running all the images a thread takes at
    once grew the peak by 42.0 one-image [30, 64, 64] maps from 2 images
    to 16. With two workers the peak depends on where the
    threads' band buffers overlap, so each batch size takes the largest of
    three forwards."""
    monkeypatch.setattr(nnops, "WORKERS", workers)
    model = build(seed=1)
    peaks = {}
    for n in (2, 16):
        images = rand_images(np.random.default_rng(71), n, 64)
        model.forward(images, mode="eval")  # warm-up
        peaks[n] = max(_traced_peak(lambda: model.forward(images, mode="eval"))
                       for _ in range(3))
    assert peaks[16] - peaks[2] < 2 * ONE_IMAGE_MAP, (peaks[16] - peaks[2]) / ONE_IMAGE_MAP


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_every_stage_maps_a_batch_to_the_bytes_of_its_images_one_at_a_time(
        dtype, workers, monkeypatch):
    """The invariant that lets an eval forward stream its images: no eval
    op mixes images, so a 5-image batch (on two threads at two workers,
    with joined f32 bands) gives each body stage the bytes of its images
    run as 1-image batches. The logits are left out: the head runs once on
    the whole batch."""
    monkeypatch.setattr(nnops, "WORKERS", workers)
    model = build(seed=1, dtype=dtype)
    images = rand_images(np.random.default_rng(73), 5, 64, dtype)
    for stage, _ in model.stages[:-1]:
        batch = model.dump_feature_maps(images, stage).array
        alone = [model.dump_feature_maps(Tensor(images.array[i : i + 1]), stage).array
                 for i in range(5)]
        assert batch.tobytes() == np.concatenate(alone).tobytes(), stage


def test_a_train_step_reuses_the_maps_each_layer_owns(monkeypatch):
    """The live peak of one train step (forward, loss and backward) at
    [16, 1, 64, 64] f32, in [16, 30, 64, 64] maps: batchnorm backwards
    write over their inputs, the activations over the maps their layers
    own, each stage's context goes once its backward has run, and the
    sepconv blocks keep no batchnorm input for their backward. A fresh map
    per op and every context kept to the end made 14.17; keeping sep1's
    abs output and sign made 10.72; keeping the preprocessing output and
    the depthwise inputs, and each conv's input through its input
    gradient, made 9.47 (in block1's backward); this makes 6.93, in sep1's
    backward, where the rebuilt maps are live."""
    monkeypatch.setattr(nnops, "WORKERS", 1)
    model = build(seed=1)
    images = rand_images(np.random.default_rng(61), 16, 64)
    peak = _traced_peak(lambda: _train_step(model, images))
    assert peak < 7.3 * (16 * 30 * 64 * 64 * 4), peak / (16 * 30 * 64 * 64 * 4)


def test_a_backward_consumes_the_context_of_its_train_forward():
    """A second backward raises instead of running the stages again on
    maps that the first backward wrote its gradients over."""
    model = build(seed=1)
    images = rand_images(np.random.default_rng(67), 2, 32)
    logits = model.forward(images, mode="train")
    _, grad_logits = nnops.softmax_xent(logits, [0, 1])
    model.backward(grad_logits)
    assert model._ctx is None
    with pytest.raises(ContractError, match="consumes"):
        model.backward(grad_logits)


@pytest.mark.parametrize("stage", ["sep1", "sep2"])
def test_a_second_sep1_backward_on_one_context_raises(stage):
    """A sepconv block keeps nothing that its backward consumes: it
    rebuilds both batchnorm inputs from the conv contexts, so it consumes
    the context itself, and a second backward on it raises instead of
    returning the gradient again."""
    sep = getattr(build(seed=1, dtype="f64"), stage)
    for bn in (sep.bn_pw, sep.bn_dw):
        bn.mode = "train"
    rng = np.random.default_rng(68)
    _, ctx = sep.forward(Tensor(rng.normal(size=(2, 30, 32, 32))))
    up = rng.normal(size=(2, 30, 32, 32))
    sep.backward(Tensor(up), ctx)
    with pytest.raises(ContractError):
        sep.backward(Tensor(up), ctx)


@pytest.mark.parametrize("dtype, mode, trainable", [
    ("f32", "relu", True), ("f64", "relu", False), ("f32", "tlu3", False), ("f64", "tlu3", True)])
def test_every_map_a_sepconv_backward_rebuilds_is_the_forward_map(
        dtype, mode, trainable, monkeypatch):
    """The invariant the backward's bytes rest on. A train forward keeps
    none of the maps below, and the backward rebuilds each from a context
    before a conv or batchnorm backward reads it: sep1's input, which is
    the preprocessing output, and each sepconv block's pointwise output
    (after abs for sep1), depthwise input and depthwise output. Each
    rebuilt map has the bytes the forward made."""
    model = build(seed=1, dtype=dtype, activation_mode=mode, srm_trainable=trainable)
    made, rebuilt, block = {}, {}, []
    names = {id(model.sep1): "sep1", id(model.sep2): "sep2"}

    def within(method):
        def run(self, *args):
            block.append(names[id(self)])
            try:
                return method(self, *args)
            finally:
                block.pop()
        return run

    def conv_kind(spec):
        return "input" if spec.kernel_h == 1 else "depthwise input"

    def recording(real, record):
        def call(*args):
            if block:
                record(*args)
            return real(*args)
        return call

    def conv_forward(inp, w, b, spec):
        made[block[-1], conv_kind(spec)] = inp.array.copy()

    def bn_forward(inp, state):
        kind = "pointwise output" if state is getattr(model, block[-1]).bn_pw else "depthwise output"
        made[block[-1], kind] = inp.array.copy()

    def conv_backward(up, ctx):
        rebuilt[block[-1], conv_kind(ctx.spec)] = ctx.x.copy()

    def bn_backward(up, ctx):
        # the second batchnorm's backward runs first
        done = (block[-1], "depthwise output") in rebuilt
        rebuilt[block[-1], "pointwise output" if done else "depthwise output"] = ctx.x.copy()

    for attr in ("forward", "backward"):
        monkeypatch.setattr(zhunet.SepconvBlock, attr, within(getattr(zhunet.SepconvBlock, attr)))
    for attr, record in (("conv2d_forward", conv_forward), ("batchnorm_forward", bn_forward),
                         ("conv2d_backward", conv_backward), ("batchnorm_backward", bn_backward)):
        monkeypatch.setattr(nnops, attr, recording(getattr(nnops, attr), record))
    _train_step(model, rand_images(np.random.default_rng(75), 4, 32, dtype))
    del made["sep2", "input"], rebuilt["sep2", "input"]  # sep1's output, which sep2 keeps
    assert made.keys() == rebuilt.keys() and len(made) == 7
    for key, a in made.items():
        assert rebuilt[key].tobytes() == a.tobytes(), key


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_a_train_forward_keeps_masks_and_signs_for_backward():
    """What a train forward keeps, counted as the benchmark's tracer counts
    it: the unique base arrays reachable from the context, parameters
    excluded, in [16, 30, 64, 64] f32 maps. Keeping the activation, abs and
    batchnorm inputs made 13.81; 1-byte masks and signs and three batchnorm
    inputs rebuilt in backward made 8.60; rebuilding sep1's abs output and
    sign too made 7.35; rebuilding the preprocessing output and both
    depthwise inputs too makes 4.35."""
    model = build(seed=1)
    model.forward(rand_images(np.random.default_rng(47), 16, 64), mode="train")
    params = {id(_base(t.array)) for t in model.state_tensors().values()}
    held = {id(b): b.nbytes for b in map(_base, _arrays(model._ctx)) if id(b) not in params}
    assert sum(held.values()) / (16 * 30 * 64 * 64 * 4) < 4.5


@pytest.mark.parametrize("mode, op", [("relu", "relu"), ("tlu3", "tlu")])
def test_only_a_train_forward_builds_masks_and_signs(mode, op, monkeypatch):
    """A train step builds one mask per block activation in its forward,
    and, in its backward, sep1's abs sign and the head's ReLU mask, both
    from maps rebuilt there."""
    calls = []
    real = nnops.backward_mask
    monkeypatch.setattr(nnops, "backward_mask",
                        lambda inp, kind, *a: calls.append(kind) or real(inp, kind, *a))
    model = build(activation_mode=mode)
    images = rand_images(np.random.default_rng(53), 2, 32)
    _train_step(model, images)
    assert sorted(calls) == sorted(["abs", "relu"] + [op] * 4)
    calls.clear()
    model.forward(images, mode="eval")
    model.dump_feature_maps(images, "block4")
    assert calls == [] and model._ctx is None


def test_what_a_caller_holds_keeps_its_bytes_across_later_passes():
    rng = np.random.default_rng(37)
    model = build(seed=1)
    first, later = rand_images(rng, 4, 32), rand_images(rng, 4, 32)
    logits = model.forward(first, mode="train")
    saved = _arrays(model._ctx)  # before the backward consumes the context
    _, grad_logits = nnops.softmax_xent(logits, [0, 1, 0, 1])
    grads = model.backward(grad_logits)
    maps = model.dump_feature_maps(first, "sep2")
    held = [logits.array, maps.array, *(g.array for g in grads.values()), *saved]
    before = [a.copy() for a in held]
    for _ in range(2):
        _train_step(model, later)
        model.dump_feature_maps(later, "block1")
        model.forward(later, mode="eval")
    for a, b in zip(held, before):
        assert a.tobytes() == b.tobytes()


def test_state_table_kinds_rules_and_order():
    table = build().table
    assert list(table)[:2] == ["pre.kernels3", "pre.kernels5"]
    kinds = [e.kind for e in table.values()]
    # parameters, then the batchnorm running statistics, then the config scalars
    assert kinds == sorted(kinds, key=[zhunet.PARAM, zhunet.BUFFER, zhunet.CONFIG].index)
    assert kinds.count(zhunet.BUFFER) == 16 and kinds.count(zhunet.CONFIG) == 5
    for name, e in table.items():
        if e.kind != zhunet.PARAM:
            assert e.rule == zhunet.FROZEN, name
        else:
            assert e.rule == (zhunet.PLAIN if name.startswith("pre.") else zhunet.MOMENTUM), name


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


def test_loading_draws_no_init_and_keeps_the_arrays_it_read(monkeypatch):
    blob = zhunet.serialize_model(build(seed=3))
    read = zhunet._read_tensor_table(blob)
    monkeypatch.setattr(zhunet, "_read_tensor_table", lambda data: read)

    def no_init(*args):
        raise AssertionError("deserialize_model drew an initial weight")

    monkeypatch.setattr(zhunet, "_xavier_uniform", no_init)
    monkeypatch.setattr(srm, "build_filter_bank", no_init)
    loaded = zhunet.deserialize_model(blob)
    assert zhunet.serialize_model(loaded) == blob
    for name, entry in loaded.table.items():
        if entry.kind != zhunet.CONFIG:
            assert np.shares_memory(entry.tensor.array, read[name]), name


def test_build_model_builds_the_filter_bank_once(monkeypatch):
    calls = []
    real = srm.build_filter_bank

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(srm, "build_filter_bank", counted)
    zhunet.build_model()
    assert len(calls) == 1


def test_a_tensor_of_the_wrong_shape_is_a_format_error():
    model = build()
    model.table["fc2.b"] = zhunet.Entry(Tensor(np.zeros(3, dtype=np.float32)), zhunet.PARAM)
    with pytest.raises(FormatError, match="'fc2.b' has shape"):
        zhunet.deserialize_model(zhunet.serialize_model(model))


@pytest.mark.parametrize("dtype, name", [
    ("f32", "block1.conv.w"),
    ("f32", "sep1.bn_pw.running_var"),
    ("f64", "pre.kernels5"),
])
def test_a_tensor_of_another_dtype_is_a_format_error(dtype, name):
    model = build(dtype=dtype)
    other = np.float64 if dtype == "f32" else np.float32
    entry = model.table[name]
    model.table[name] = zhunet.Entry(Tensor(entry.tensor.array.astype(other)), entry.kind)
    want = {"f32": "float32", "f64": "float64"}[dtype]
    with pytest.raises(FormatError, match=f"'{name}' is {np.dtype(other).name}, but fc1.w is {want}"):
        zhunet.deserialize_model(zhunet.serialize_model(model))


@pytest.mark.parametrize("name, values", [
    ("activation_mode", []),
    ("activation_mode", [np.nan]),
    ("activation_mode", [0.5]),
    ("activation_mode", [2.0]),
    ("activation_mode", [[0.0]]),
    ("srm_trainable", [np.nan]),
    ("srm_trainable", [0.5]),
    ("srm_trainable", [1.0, 1.0]),
    ("spp_levels", [np.inf, 2.0, 1.0]),
    ("spp_levels", [4.0, 2.5, 1.0]),
    ("spp_levels", [[4.0, 2.0, 1.0]]),
    ("bn_momentum", [-5.0]),
    ("bn_momentum", [1.5]),
    ("bn_eps", [np.nan]),
    ("bn_eps", [0.0]),
    ("bn_eps", [[1e-5]]),
    # well-formed, but not the architecture's
    ("spp_levels", [2.0, 1.0]),
    ("bn_momentum", [0.2]),
    ("bn_eps", [1e-3]),
])
def test_a_malformed_config_entry_is_a_format_error(name, values):
    model = build()
    model.table[f"config.{name}"] = zhunet.Entry(Tensor(np.array(values)), zhunet.CONFIG)
    with pytest.raises(FormatError, match=f"config.{name}"):
        zhunet.deserialize_model(zhunet.serialize_model(model))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_activation_mode():
    with pytest.raises(SpecError):
        zhunet.build_model(zhunet.ModelConfig(activation_mode="gelu"))


def test_config_rejects_unknown_dtype_and_bad_channels():
    with pytest.raises(SpecError):
        zhunet.build_model(zhunet.ModelConfig(dtype="f16"))
