"""Acceptance gate: eleven end-to-end properties of the package, one test
per property so `pytest -v` prints one pass/fail line each.

Pinned tolerances and budgets (asserted inside the tests):
  1  gradient checks     rel err < 1e-6 (operators) / < 1e-4 (end-to-end), h = 1e-5, < 120 s
  2  convolution oracle  200 random grouped configs, forward max |delta| < 1e-12 at f64
                         (1e-4 at f32), backward adjoint gaps < 1e-12 (1e-5 at f32), < 60 s
  3  pyramid pooling     feature length exactly 2688 at inputs 224 and 256
  4  filter bank         30 filters, exact zero sums, |r| < 1e-6 on constant images
  5  architecture        2,869,044 trainable parameters, fixed widths/placement
  6  optimizer protocol  lr steps 0.005/0.001/0.0002/0.00004, scalar update 0.9994975
  7  overfit sanity      >= 99% training accuracy within 200 epochs, < 600 s, 1 thread
  8  detection           mean held-out error < 0.40 over 3 seeds (chance 0.50)
  9  ablation harness    4 complete runs (relu/tlu3 x frozen/trainable) + table
 10  determinism         bitwise checkpoint round trip, identical metrics across reruns
 11  augmentation        8 distinct dihedral variants, cover/stego aligned
"""
import time
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from stegnet import cli, data, gradcheck, nnops, srm, zhunet
from stegnet.data import GrayImage, Pair, PairedDataset, apply_dihedral8, make_batches
from stegnet.tensor import Tensor
from stegnet.train import TrainConfig, TrainState, evaluate, lr_at, sgd_step, train_loop

from conftest import embedded_split, noisy_split, run_cli
from oracles import conv2d_reference


def test_every_backward_pass_survives_finite_difference_verification():
    t0 = time.time()
    results = gradcheck.run_ops_checks(seed=0)
    results.append(gradcheck.check_model(seed=0))
    elapsed = time.time() - t0
    for res in results:
        assert res.ok, res.line()
        assert res.tol == (1e-4 if res.name == "model_end_to_end" else 1e-6)
    assert elapsed < 120.0, f"gradient checks took {elapsed:.1f}s (budget 120s)"


def _f32_exact(a):
    return a.astype(np.float32).astype(np.float64)


def _adjoint_gaps(x, wgt, spec, up, ref):
    """Relative gaps of the two adjoint identities of a bias-free conv,
    sum(up * conv(x, w)) = sum(grad_x * x) = sum(grad_w * w), with the
    left side taken from the oracle's output ``ref``."""
    _, ctx = nnops.conv2d_forward(Tensor(x), Tensor(wgt), None, spec)
    gx, gw, gb = nnops.conv2d_backward(Tensor(up), ctx)
    assert gb is None and gx.shape == x.shape and gw.shape == wgt.shape
    target = float(np.sum(up * ref))
    scale = float(np.sum(np.abs(up * ref))) + 1e-30
    return (abs(float(np.sum(gx.array.astype(np.float64) * x)) - target) / scale,
            abs(float(np.sum(gw.array.astype(np.float64) * wgt)) - target) / scale)


def test_convolution_matches_a_nested_loop_reference_on_200_random_configs():
    """Forward output and both backward gradients of the band kernel, in
    f64 and f32, against one f64 oracle per config."""
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = {"f64": [0.0, 0.0, 0.0], "f32": [0.0, 0.0, 0.0]}
    for case in range(200):
        groups = int(rng.choice([1, 1, 2, 3, 4]))
        cin = groups * int(rng.integers(1, 4))
        cout = groups * int(rng.integers(1, 4))
        kh, kw = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        padding = int(rng.integers(0, 3))
        h = kh + int(rng.integers(0, 7)) - min(2 * padding, kh - 1)
        w = kw + int(rng.integers(0, 7)) - min(2 * padding, kw - 1)
        h, w = max(h, max(1, kh - 2 * padding)), max(w, max(1, kw - 2 * padding))
        n = int(rng.integers(1, 3))
        # values exact in f32, so one f64 oracle run serves both precisions
        x = _f32_exact(rng.standard_normal((n, cin, h, w)))
        wgt = _f32_exact(rng.standard_normal((cout, cin // groups, kh, kw)))
        bias = _f32_exact(rng.standard_normal(cout)) if case % 2 == 0 else None
        spec = nnops.Conv2dSpec(cin, cout, kh, kw, padding=padding, groups=groups)
        ref = conv2d_reference(x, wgt, None, 1, padding, groups)
        up = _f32_exact(rng.standard_normal(ref.shape))
        for name, dt in (("f64", np.float64), ("f32", np.float32)):
            xd, wd = x.astype(dt), wgt.astype(dt)
            out, _ = nnops.conv2d_forward(
                Tensor(xd), Tensor(wd), None if bias is None else Tensor(bias.astype(dt)), spec
            )
            full = ref if bias is None else ref + bias[None, :, None, None]
            worst[name][0] = max(worst[name][0], float(np.max(np.abs(out.array - full))))
            gaps = _adjoint_gaps(xd, wd, spec, up.astype(dt), ref)
            worst[name][1] = max(worst[name][1], gaps[0])
            worst[name][2] = max(worst[name][2], gaps[1])
    elapsed = time.time() - t0
    assert worst["f64"][0] < 1e-12, f"f64 max deviation {worst['f64'][0]:.3e} (tolerance 1e-12)"
    assert max(worst["f64"][1:]) < 1e-12, f"f64 adjoint gaps {worst['f64'][1:]}"
    assert worst["f32"][0] < 1e-4, f"f32 max deviation {worst['f32'][0]:.3e} (tolerance 1e-4)"
    assert max(worst["f32"][1:]) < 1e-5, f"f32 adjoint gaps {worst['f32'][1:]}"
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s (budget 60s)"


def test_pyramid_features_have_fixed_length_2688_at_224_and_256():
    model = zhunet.build_model(zhunet.ModelConfig(seed=0))
    assert model.table["fc1.w"].tensor.shape[0] == 2688 == 128 * 21
    rng = np.random.default_rng(0)
    for size in (224, 256):
        x = Tensor(rng.uniform(0, 255, size=(1, 1, size, size)).astype(np.float32))
        deep = model.dump_feature_maps(x, "block4")
        feat, _ = nnops.spp_forward(deep, zhunet.SPP_LEVELS)
        assert feat.shape == (1, 2688), f"input {size}"
        logits = model.forward(x, mode="eval")
        assert logits.shape == (1, 2)
    assert [nnops.spp_windows(32, n) for n in (4, 2, 1)] == [(8, 8), (16, 16), (32, 32)]


def test_filter_bank_properties_and_frozen_kernels(small_rng, tmp_path):
    bank = srm.build_filter_bank()
    assert len(bank) == 30
    counts = {}
    for f in bank:
        counts[f.family] = counts.get(f.family, 0) + 1
    assert counts == {"1st": 8, "2nd": 4, "3rd": 8, "square_3x3": 1,
                      "edge_3x3": 4, "square_5x5": 1, "edge_5x5": 4}
    # zero sums hold exactly at the rational level of the packaged data
    text = resources.files("stegnet").joinpath("srm_filters.txt").read_text(encoding="ascii")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    pos = 0
    while pos < len(lines):
        name, nrows = lines[pos].split()[0], int(lines[pos].split()[1])
        total = sum((sum(Fraction(t) for t in row.split())
                     for row in lines[pos + 1 : pos + 1 + nrows]), Fraction(0))
        assert total == 0, name
        pos += 1 + nrows
    for f in bank:
        assert abs(f.coefficients.sum()) < 1e-12, f.name

    # untrained preprocessing is silent on constant images (f64 isolates the
    # algorithm from representation rounding; coefficients like 1/12 are not
    # exact in binary floats, so 32-bit kernels carry an irreducible
    # ~value*taps*eps32 round-off envelope, pinned separately below)
    layer = srm.PreprocessingLayer.build(dtype="f64")
    layer32 = srm.PreprocessingLayer.build(dtype="f32")
    for value in (0.0, 128.0, 255.0):
        flat = Tensor(np.full((1, 1, 16, 16), value))
        out, _ = srm.preprocess_forward(flat, layer)
        assert float(np.max(np.abs(out.array))) < 1e-6, f"constant {value}"
        out32, _ = srm.preprocess_forward(Tensor(flat.array.astype(np.float32)), layer32)
        assert float(np.max(np.abs(out32.array))) < 5e-5, f"constant {value} (f32)"

    # a frozen training run leaves the kernels bitwise unchanged
    train = noisy_split(small_rng, 4, "train")
    val = noisy_split(small_rng, 2, "validation")
    model = zhunet.build_model(zhunet.ModelConfig(seed=0, srm_trainable=False))
    k3 = model.table["pre.kernels3"].tensor.array.copy()
    k5 = model.table["pre.kernels5"].tensor.array.copy()
    cfg = TrainConfig(max_epochs=2, lr_decay_epochs=(), batch_size=4, seed=0)
    train_loop(model, train, val, cfg)
    assert np.array_equal(model.table["pre.kernels3"].tensor.array, k3)
    assert np.array_equal(model.table["pre.kernels5"].tensor.array, k5)


def test_architecture_audit_parameter_count_and_block_structure():
    model = zhunet.build_model(zhunet.ModelConfig(seed=0, dtype="f64"))
    assert model.num_parameters() == 2_869_044
    assert [blk.conv_w.shape[0] for blk in model.blocks] == [32, 32, 64, 128]
    # both sepconv blocks keep 30 channels; depthwise = one 3x3 filter per channel
    for sep in (model.sep1, model.sep2):
        assert sep.pw_w.shape == (30, 30, 1, 1)
        assert sep.dw_w.shape == (30, 1, 3, 3)
    # rectification sits only after the first block's pointwise convolution
    assert model.sep1.has_abs is True and model.sep2.has_abs is False
    # zeroed conv weights turn the residual blocks into the identity
    model.sep1.pw_w.array[:] = 0.0
    model.sep1.dw_w.array[:] = 0.0
    model.sep2.pw_w.array[:] = 0.0
    model.sep2.dw_w.array[:] = 0.0
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(0, 255, size=(1, 1, 32, 32)))
    pre_out = model.dump_feature_maps(x, "preprocessing")
    assert np.array_equal(model.dump_feature_maps(x, "sep1").array, pre_out.array)
    assert np.array_equal(model.dump_feature_maps(x, "sep2").array, pre_out.array)


def test_training_protocol_schedule_batching_and_update_rule(small_rng):
    cfg = TrainConfig(max_epochs=400)
    assert [lr_at(e, cfg) for e in (0, 49)] == [0.005, 0.005]
    assert lr_at(50, cfg) == pytest.approx(0.001, rel=1e-12)
    assert lr_at(150, cfg) == pytest.approx(0.0002, rel=1e-12)
    assert lr_at(250, cfg) == pytest.approx(0.00004, rel=1e-12)

    ds = embedded_split(small_rng, 10, "train", 1.0, seed0=0, size=32)
    (images, labels), = make_batches(ds, 16, seed=0)
    assert images.shape[0] == 16 and labels == [0, 1] * 8  # 8 interleaved pairs

    params = {"fc1.w": zhunet.Entry(Tensor(np.array([1.0])), zhunet.PARAM, zhunet.MOMENTUM)}
    sgd_step(params, {"fc1.w": Tensor(np.array([0.1]))}, TrainState(), 0.005,
             TrainConfig())
    assert params["fc1.w"].tensor.array[0] == pytest.approx(0.9994975, rel=1e-12)


def test_the_network_can_overfit_16_pairs_within_budget(tmp_path, small_rng):
    ds_dir = tmp_path / "data"
    ds_dir.mkdir()
    entries = []
    pairs = noisy_split(small_rng, 16, "train", size=64, amplitude=30).pairs
    for pair in pairs:
        data.save_pgm(ds_dir / f"{pair.pair_id}_c.pgm", pair.cover)
        data.save_pgm(ds_dir / f"{pair.pair_id}_s.pgm", pair.stego)
        entries.append((pair.pair_id, f"{pair.pair_id}_c.pgm",
                        f"{pair.pair_id}_s.pgm", "train"))
        # the same 16 pairs serve as the validation split, so the reported
        # validation accuracy IS the training accuracy of the overfit run
        entries.append((f"v{pair.pair_id}", f"{pair.pair_id}_c.pgm",
                        f"{pair.pair_id}_s.pgm", "validation"))
    manifest = ds_dir / "manifest.txt"
    data.write_manifest(manifest, entries)
    out_dir = tmp_path / "run"
    cfg_path = tmp_path / "overfit.cfg"
    cfg_path.write_text(
        f"manifest = {manifest}\nout_dir = {out_dir}\n"
        "max_epochs = 200\nlr_decay_epochs = 50,150\nbatch_size = 16\n"
        "patience = 5\nseed = 0\n"
    )
    t0 = time.time()
    proc = run_cli("--threads", "1", "train", "--config", cfg_path)
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stderr
    rows = (out_dir / "metrics.csv").read_text().splitlines()[1:]
    best_error = min(float(row.split(",")[3]) for row in rows)
    assert best_error <= 0.01, f"best training error {best_error} (needs >= 99% accuracy)"
    assert len(rows) <= 200
    assert elapsed < 600.0, f"overfit run took {elapsed:.1f}s (budget 600s)"


def test_the_network_learns_to_detect_simulated_embedding():
    errors = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(1000 + seed)
        train = embedded_split(rng, 500, "train", 1.0, seed0=10_000 * seed)
        val = embedded_split(rng, 75, "validation", 1.0, seed0=10_000 * seed + 5000)
        test = embedded_split(rng, 75, "test", 1.0, seed0=10_000 * seed + 7000)
        cfg = TrainConfig(seed=seed, max_epochs=2, lr_decay_epochs=(),
                          batch_size=16, patience=40)
        model = zhunet.build_model(zhunet.ModelConfig(seed=seed))
        state = train_loop(model, train, val, cfg)
        best = zhunet.deserialize_model(state.best_checkpoint)
        errors.append(evaluate(best, test))
    mean_error = float(np.mean(errors))
    assert mean_error < 0.40, f"held-out errors {errors} (mean must beat 0.40; chance 0.50)"


def test_ablation_harness_produces_four_comparable_runs(small_rng):
    train = noisy_split(small_rng, 6, "train")
    val = noisy_split(small_rng, 3, "validation")
    rows = []
    for activation_mode in ("relu", "tlu3"):
        for freeze in (False, True):
            cfg = TrainConfig(max_epochs=2, lr_decay_epochs=(), batch_size=4, seed=0)
            model = zhunet.build_model(zhunet.ModelConfig(
                seed=0, activation_mode=activation_mode, srm_trainable=not freeze))
            state = train_loop(model, train, val, cfg)
            assert len(state.history) == 2  # the run completed
            rows.append((activation_mode, freeze, state.best_val_error,
                         state.history[-1][1]))
    header = f"{'activation':<12}{'freeze_srm':<12}{'best_val_error':<16}{'final_loss':<12}"
    print("\n" + header)
    for mode, freeze, err, loss in rows:
        print(f"{mode:<12}{str(freeze).lower():<12}{err:<16.4f}{loss:<12.4f}")
    assert len(rows) == 4
    assert {(m, f) for m, f, _, _ in rows} == {("relu", False), ("relu", True),
                                               ("tlu3", False), ("tlu3", True)}
    assert all(np.isfinite(err) and np.isfinite(loss) for _, _, err, loss in rows)


def test_checkpoints_and_reruns_are_bitwise_deterministic(tmp_path, small_rng):
    # save -> load -> forward must equal the pre-save forward bitwise
    model = zhunet.build_model(zhunet.ModelConfig(seed=9))
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(0, 255, size=(2, 1, 32, 32)).astype(np.float32))
    before = model.forward(x, mode="eval")
    path = tmp_path / "model.znet"
    zhunet.save_checkpoint(model, path)
    after = zhunet.load_checkpoint(path).forward(x, mode="eval")
    assert np.array_equal(before.array, after.array)

    # identical (seed, config, threads=1) runs produce identical metrics
    ds_dir = tmp_path / "data"
    ds_dir.mkdir()
    entries = []
    for split, count in (("train", 4), ("validation", 2)):
        for pair in noisy_split(small_rng, count, split).pairs:
            data.save_pgm(ds_dir / f"{pair.pair_id}_c.pgm", pair.cover)
            data.save_pgm(ds_dir / f"{pair.pair_id}_s.pgm", pair.stego)
            entries.append((pair.pair_id, f"{pair.pair_id}_c.pgm",
                            f"{pair.pair_id}_s.pgm", split))
    manifest = ds_dir / "manifest.txt"
    data.write_manifest(manifest, entries)
    outputs = []
    for name in ("first", "second"):
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(
            f"manifest = {manifest}\nout_dir = {tmp_path / name}\n"
            "max_epochs = 2\nlr_decay_epochs = none\nbatch_size = 4\nseed = 0\n"
        )
        proc = run_cli("--threads", "1", "train", "--config", cfg_path)
        assert proc.returncode == 0, proc.stderr
        outputs.append(((tmp_path / name / "metrics.csv").read_bytes(),
                        (tmp_path / name / "best.znet").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "metrics differ between identical runs"
    assert outputs[0][1] == outputs[1][1], "checkpoints differ between identical runs"


def test_dihedral_augmentation_multiplies_pairs_by_eight_in_lockstep():
    base = np.arange(64, dtype=np.uint8).reshape(8, 8)  # asymmetric fixture
    stego = base.copy()
    stego[0, 0] ^= 1
    ds = PairedDataset(pairs=[
        Pair(GrayImage.from_array(base), GrayImage.from_array(stego), "p0"),
        Pair(GrayImage.from_array(base + 64), GrayImage.from_array(stego + 64), "p1"),
    ])
    out = apply_dihedral8(ds)
    assert len(out) == 8 * len(ds)
    covers = {out.pairs[t].cover.as_array().tobytes() for t in range(8)}
    assert len(covers) == 8  # the 8 transforms are pairwise distinct
    for pair in out.pairs:
        diff = pair.cover.as_array() != pair.stego.as_array()
        assert np.count_nonzero(diff) == 1  # same transform on cover and stego
