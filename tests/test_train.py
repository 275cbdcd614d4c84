"""Optimizer semantics, the learning-rate schedule, evaluation, and the
full training loop (early stop, divergence, determinism, freezing)."""
import numpy as np
import pytest

from stegnet import zhunet
from stegnet.data import PairedDataset
from stegnet.errors import ContractError, DataError, DivergenceError, SpecError
from stegnet.tensor import Tensor
from stegnet.train import (
    METRICS_HEADER,
    TrainConfig,
    TrainState,
    evaluate,
    lr_at,
    sgd_step,
    train_loop,
)

from conftest import embedded_split, noisy_split


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

def test_schedule_divides_by_five_at_each_listed_epoch():
    cfg = TrainConfig(max_epochs=400)
    assert lr_at(0, cfg) == 0.005
    assert lr_at(49, cfg) == 0.005
    assert lr_at(50, cfg) == pytest.approx(0.001, abs=0.0, rel=1e-15)
    assert lr_at(149, cfg) == pytest.approx(0.001, rel=1e-15)
    assert lr_at(150, cfg) == pytest.approx(0.0002, rel=1e-15)
    assert lr_at(249, cfg) == pytest.approx(0.0002, rel=1e-15)
    assert lr_at(250, cfg) == pytest.approx(0.00004, rel=1e-15)
    assert lr_at(399, cfg) == pytest.approx(0.00004, rel=1e-15)


def test_schedule_is_a_non_increasing_step_function():
    cfg = TrainConfig(max_epochs=400)
    values = [lr_at(e, cfg) for e in range(400)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert len(set(values)) == len(cfg.lr_decay_epochs) + 1
    for boundary in cfg.lr_decay_epochs:
        assert values[boundary - 1] / values[boundary] == pytest.approx(5.0, rel=1e-12)


def test_schedule_rejects_out_of_range_epochs():
    cfg = TrainConfig(max_epochs=400)
    with pytest.raises(SpecError):
        lr_at(-1, cfg)
    with pytest.raises(SpecError):
        lr_at(400, cfg)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_hyperparameters():
    bad = [
        dict(lr0=0.0),
        dict(lr0=-1.0),
        dict(lr_decay_factor=0.0),
        dict(lr_decay_epochs=(150, 50)),
        dict(lr_decay_epochs=(50, 150, 250), max_epochs=200),
        dict(momentum=1.0),
        dict(momentum=-0.1),
        dict(weight_decay=-1e-4),
        dict(weight_decay=float("nan")),
        dict(weight_decay=float("inf")),
        dict(lr0=float("inf")),
        dict(lr0=float("nan")),
        dict(lr_decay_factor=float("inf")),
        dict(lr_decay_factor=float("nan")),
        dict(momentum=float("nan")),
        dict(batch_size=15),
        dict(batch_size=0),
        dict(patience=0),
        dict(activation_mode="gelu"),
        dict(seed=-1),
        dict(max_epochs=0),
    ]
    for kw in bad:
        with pytest.raises(SpecError):
            TrainConfig(**kw).validate()
    TrainConfig().validate()  # defaults are fine


# ---------------------------------------------------------------------------
# SGD update rule
# ---------------------------------------------------------------------------

def scalar_param(value, dtype=np.float64, rule=zhunet.MOMENTUM, name="fc1.w"):
    """A one-row state table holding one scalar parameter."""
    return {name: zhunet.Entry(Tensor(np.array([value], dtype=dtype)), zhunet.PARAM, rule)}


def scalar_grad(value):
    return {"fc1.w": Tensor(np.array([value]))}


def test_single_step_momentum_update_matches_hand_computation():
    cfg = TrainConfig()
    params = scalar_param(1.0)
    state = TrainState()
    sgd_step(params, scalar_grad(0.1), state, lr=0.005, cfg=cfg)
    # v = 0.9*0 + (0.1 + 0.0005*1.0) = 0.1005 ; p = 1 - 0.005*0.1005
    assert state.velocity["fc1.w"][0] == pytest.approx(0.1005, rel=1e-15)
    assert params["fc1.w"].tensor.array[0] == pytest.approx(0.9994975, rel=1e-15)


def test_two_zero_gradient_steps_coast_on_momentum():
    cfg = TrainConfig(weight_decay=0.0)
    params = scalar_param(1.0)
    state = TrainState()
    state.velocity["fc1.w"] = np.array([0.1])
    lr = 0.005
    sgd_step(params, scalar_grad(0.0), state, lr, cfg)
    sgd_step(params, scalar_grad(0.0), state, lr, cfg)
    # v decays geometrically: total movement lr*v0*m*(1+m)
    want = 1.0 - lr * 0.1 * 0.9 * (1.0 + 0.9)
    assert params["fc1.w"].tensor.array[0] == pytest.approx(want, rel=1e-15)


def test_weight_decay_alone_shrinks_the_parameter():
    cfg = TrainConfig()
    params = scalar_param(2.0)
    state = TrainState()
    sgd_step(params, scalar_grad(0.0), state, lr=0.01, cfg=cfg)
    # v = wd*p = 0.001 ; p = 2 - 0.01*0.001
    assert params["fc1.w"].tensor.array[0] == pytest.approx(2.0 - 0.01 * 0.0005 * 2.0, rel=1e-15)


def test_preprocessing_kernels_take_the_plain_step():
    cfg = TrainConfig()
    params = scalar_param(1.0, rule=zhunet.PLAIN, name="pre.kernels3")
    grads = {"pre.kernels3": Tensor(np.array([0.1]))}
    state = TrainState()
    sgd_step(params, grads, state, lr=0.005, cfg=cfg)
    sgd_step(params, grads, state, lr=0.005, cfg=cfg)
    # two identical plain steps, no momentum accumulation, no decay
    assert params["pre.kernels3"].tensor.array[0] == pytest.approx(1.0 - 2 * 0.005 * 0.1, rel=1e-15)
    assert "pre.kernels3" not in state.velocity


def test_the_entry_rule_not_the_name_picks_the_update():
    cfg = TrainConfig()
    table = {**scalar_param(1.0, rule=zhunet.PLAIN),
             **scalar_param(5.0, rule=zhunet.FROZEN, name="pre.kernels3")}
    state = TrainState()
    sgd_step(table, scalar_grad(0.1), state, lr=0.005, cfg=cfg)  # no gradient for the frozen row
    assert table["fc1.w"].tensor.array[0] == pytest.approx(1.0 - 0.005 * 0.1, rel=1e-15)
    assert table["pre.kernels3"].tensor.array[0] == 5.0
    assert state.velocity == {}


def test_mismatched_names_or_shapes_are_contract_violations():
    cfg = TrainConfig()
    state = TrainState()
    with pytest.raises(ContractError, match="mismatch"):
        sgd_step(scalar_param(1.0), {"other": Tensor(np.array([0.1]))}, state, 0.005, cfg)
    with pytest.raises(ContractError, match="shape"):
        sgd_step(scalar_param(1.0), {"fc1.w": Tensor(np.zeros((2, 2)))}, state, 0.005, cfg)


def test_velocity_shape_mismatch_is_a_contract_violation():
    cfg = TrainConfig()
    state = TrainState()
    state.velocity["fc1.w"] = np.zeros(3)
    with pytest.raises(ContractError, match="velocity"):
        sgd_step(scalar_param(1.0), scalar_grad(0.1), state, 0.005, cfg)


def test_sgd_respects_parameter_dtype():
    cfg = TrainConfig()
    params = scalar_param(1.0, dtype=np.float32)
    state = TrainState()
    sgd_step(params, {"fc1.w": Tensor(np.array([0.1], dtype=np.float32))}, state, 0.005, cfg)
    assert params["fc1.w"].tensor.array.dtype == np.float32


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class StubModel:
    """Predicts stego (label 1) when the image mean is above the threshold;
    equal logits below `tie_below` exercise the tie rule."""

    def __init__(self, threshold=100.0, tie=False):
        self.threshold = threshold
        self.tie = tie

    def forward(self, images, mode):
        assert mode == "eval"
        means = images.array.mean(axis=(1, 2, 3))
        if self.tie:
            return Tensor(np.zeros((len(means), 2), dtype=np.float32))
        score = (means - self.threshold).astype(np.float32)
        return Tensor(np.stack([-score, score], axis=1))


def two_tone_split(bright_covers=0):
    """3 pairs: covers at 10, stegos at 200; optionally brighten covers to
    force known misclassifications."""
    from stegnet.data import GrayImage, Pair

    pairs = []
    for i in range(3):
        c_val = 200 if i < bright_covers else 10
        cover = GrayImage.from_array(np.full((8, 8), c_val, dtype=np.uint8))
        stego = GrayImage.from_array(np.full((8, 8), 200, dtype=np.uint8))
        pairs.append(Pair(cover, stego, f"p{i}"))
    return PairedDataset(pairs=pairs)


def test_evaluate_tallies_misclassifications_over_all_images():
    assert evaluate(StubModel(), two_tone_split()) == 0.0
    # one bright cover -> 1 wrong out of 6 images
    assert evaluate(StubModel(), two_tone_split(bright_covers=1)) == pytest.approx(1 / 6)
    assert evaluate(StubModel(), two_tone_split(bright_covers=3)) == pytest.approx(0.5)


def test_evaluate_ties_resolve_to_cover():
    # equal logits -> everything predicted cover -> all stegos wrong
    assert evaluate(StubModel(tie=True), two_tone_split()) == 0.5


def test_evaluate_rejects_empty_split():
    with pytest.raises(DataError):
        evaluate(StubModel(), PairedDataset(pairs=[]))


def test_untrained_model_is_near_chance_on_balanced_pairs(small_rng):
    ds = embedded_split(small_rng, 32, "test", 1.0, seed0=0, size=32)
    err = evaluate(zhunet.build_model(zhunet.ModelConfig(seed=0)), ds)
    assert 0.2 <= err <= 0.8


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def tiny_splits(rng, n_train=8, n_val=4, size=32, amplitude=60):
    train = noisy_split(rng, n_train, "train", size=size, amplitude=amplitude)
    val = noisy_split(rng, n_val, "validation", size=size, amplitude=amplitude)
    return train, val


def short_cfg(**kw):
    base = dict(max_epochs=2, lr_decay_epochs=(), batch_size=8, patience=40, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_single_small_step_reduces_the_loss_on_the_same_batch(small_rng):
    from stegnet.data import make_batches
    from stegnet.nnops import softmax_xent

    train, _ = tiny_splits(small_rng, n_train=4)
    (images, labels), = make_batches(train, 8, seed=0)
    images = Tensor(images.array.astype(np.float64))
    model = zhunet.build_model(zhunet.ModelConfig(seed=0, dtype="f64"))
    logits = model.forward(images, mode="train")
    loss0, grad_logits = softmax_xent(logits, labels)
    grads = model.backward(grad_logits)
    sgd_step(model.table, grads, TrainState(), lr=1e-6, cfg=short_cfg())
    loss1, _ = softmax_xent(model.forward(images, mode="train"), labels)
    assert loss1 < loss0


def test_history_records_one_row_per_epoch_and_metrics_file_matches(small_rng, tmp_path):
    train, val = tiny_splits(small_rng)
    model = zhunet.build_model(zhunet.ModelConfig(seed=0))
    metrics = tmp_path / "metrics.csv"
    state = train_loop(model, train, val, short_cfg(max_epochs=3), metrics_path=metrics)
    assert [e for e, _, _ in state.history] == [0, 1, 2]
    lines = metrics.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 4
    for line, (epoch, loss, err) in zip(lines[1:], state.history):
        e, lr, lo, ve = line.split(",")
        assert int(e) == epoch
        assert float(lr) == 0.005
        assert float(lo) == pytest.approx(loss, rel=1e-9)
        assert float(ve) == pytest.approx(err, rel=1e-9)


def test_early_stopping_after_patience_epochs_without_improvement(small_rng):
    train, val = tiny_splits(small_rng)
    model = zhunet.build_model(zhunet.ModelConfig(seed=0))
    # lr so small nothing changes: epoch 0 sets the best, then patience runs out
    cfg = short_cfg(lr0=1e-30, max_epochs=50, patience=3)
    state = train_loop(model, train, val, cfg)
    assert len(state.history) == 1 + cfg.patience


def test_best_checkpoint_tracks_the_lowest_validation_error(small_rng):
    train, val = tiny_splits(small_rng, n_train=12, n_val=6)
    model = zhunet.build_model(zhunet.ModelConfig(seed=1))
    state = train_loop(model, train, val, short_cfg(max_epochs=3, seed=1))
    assert state.best_checkpoint is not None
    assert state.best_val_error == min(err for _, _, err in state.history)
    best = zhunet.deserialize_model(state.best_checkpoint)
    assert evaluate(best, val) == pytest.approx(state.best_val_error)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_aborts_with_epoch_and_batch(small_rng):
    train, val = tiny_splits(small_rng)
    model = zhunet.build_model(zhunet.ModelConfig(seed=0))
    with pytest.raises(DivergenceError, match=r"non-finite loss at epoch \d+, batch \d+"):
        train_loop(model, train, val, short_cfg(lr0=1e18, max_epochs=8))


def test_training_is_deterministic_end_to_end(small_rng):
    train, val = tiny_splits(small_rng)

    def run():
        model = zhunet.build_model(zhunet.ModelConfig(seed=3))
        return train_loop(model, train, val, short_cfg(seed=3))

    a, b = run(), run()
    assert a.history == b.history
    assert a.best_checkpoint == b.best_checkpoint


def test_frozen_preprocessing_kernels_stay_bitwise_constant(small_rng):
    train, val = tiny_splits(small_rng)
    model = zhunet.build_model(zhunet.ModelConfig(seed=0, srm_trainable=False))
    k3 = model.table["pre.kernels3"].tensor.array.copy()
    k5 = model.table["pre.kernels5"].tensor.array.copy()
    train_loop(model, train, val, short_cfg(freeze_srm=True))
    assert np.array_equal(model.table["pre.kernels3"].tensor.array, k3)
    assert np.array_equal(model.table["pre.kernels5"].tensor.array, k5)


def test_trainable_preprocessing_kernels_do_move(small_rng):
    train, val = tiny_splits(small_rng)
    model = zhunet.build_model(zhunet.ModelConfig(seed=0))
    k3 = model.table["pre.kernels3"].tensor.array.copy()
    train_loop(model, train, val, short_cfg(max_epochs=1))
    assert not np.array_equal(model.table["pre.kernels3"].tensor.array, k3)


def test_train_loop_freeze_flag_freezes_a_trainable_model(small_rng):
    train, val = tiny_splits(small_rng)
    model = zhunet.build_model(zhunet.ModelConfig(seed=0))  # built trainable
    k3 = model.table["pre.kernels3"].tensor.array.copy()
    train_loop(model, train, val, short_cfg(freeze_srm=True, max_epochs=1))
    assert np.array_equal(model.table["pre.kernels3"].tensor.array, k3)
    assert model.config.srm_trainable is False
    assert "pre.kernels3" not in model.parameters()


def test_train_loop_rejects_an_activation_mode_the_model_was_not_built_with(small_rng):
    train, val = tiny_splits(small_rng)
    model = zhunet.build_model(zhunet.ModelConfig(seed=0))  # relu
    with pytest.raises(SpecError, match="activation_mode"):
        train_loop(model, train, val, short_cfg(activation_mode="tlu3"))


def test_training_rejects_empty_or_undersized_splits(small_rng):
    train, val = tiny_splits(small_rng, n_train=2)
    model = zhunet.build_model(zhunet.ModelConfig(seed=0))
    with pytest.raises(DataError):
        train_loop(model, PairedDataset(pairs=[]), val, short_cfg())
    with pytest.raises(DataError, match="at least"):
        train_loop(model, train, val, short_cfg(batch_size=16))
