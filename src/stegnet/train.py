"""Training loop: SGD with momentum and weight decay, a step learning-rate
schedule, pair-aware batching, best-on-validation snapshots, and early
stopping.

Update rule per parameter, as the model's state table names it: momentum
entries take v <- momentum*v + (grad + weight_decay*param); param <- param -
lr*v. The preprocessing kernels are the one exception: when trainable they
take a plain gradient step (no momentum, no weight decay), and when frozen
they receive no update at all. Freezing and the activation mode are model
settings: ``zhunet.ModelConfig`` fixes both when the model is built, and
``TrainConfig`` holds only the optimisation and schedule settings.

The learning rate starts at lr0 and is divided by lr_decay_factor at the
start of each epoch listed in lr_decay_epochs (0-based). Loss is reported as
the mean over batches per epoch; validation error is evaluated in eval mode
(batchnorm running statistics). The best-validation snapshot is kept as
checkpoint bytes in TrainState.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import zhunet
from .data import PairedDataset, eval_batches, make_batches
from .errors import ContractError, DataError, DivergenceError, SpecError
from .nnops import softmax_xent
from .tensor import Tensor

METRICS_HEADER = "epoch,lr,train_loss,val_error"


@dataclass
class TrainConfig:
    lr0: float = 0.005
    lr_decay_epochs: tuple[int, ...] = (50, 150, 250)
    lr_decay_factor: float = 5.0
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 16
    max_epochs: int = 400
    seed: int = 0
    patience: int = 40

    def validate(self) -> None:
        if not (0 < self.lr0 < math.inf):
            raise SpecError(f"lr0 must be positive and finite, got {self.lr0!r}")
        if not (0 < self.lr_decay_factor < math.inf):
            raise SpecError(
                f"lr_decay_factor must be positive and finite, got {self.lr_decay_factor!r}"
            )
        epochs = tuple(self.lr_decay_epochs)
        if any(not isinstance(e, int) or e < 0 for e in epochs):
            raise SpecError(f"lr_decay_epochs must be non-negative integers, got {epochs!r}")
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            raise SpecError(f"lr_decay_epochs must be strictly increasing, got {epochs!r}")
        if not isinstance(self.max_epochs, int) or self.max_epochs < 1:
            raise SpecError(f"max_epochs must be a positive integer, got {self.max_epochs!r}")
        if epochs and epochs[-1] >= self.max_epochs:
            raise SpecError(
                f"lr_decay_epochs must all be below max_epochs ({self.max_epochs}), got {epochs!r}"
            )
        if not (0 <= self.momentum < 1):
            raise SpecError(f"momentum must be in [0, 1), got {self.momentum!r}")
        if not (0 <= self.weight_decay < math.inf):
            raise SpecError(
                f"weight_decay must be non-negative and finite, got {self.weight_decay!r}"
            )
        if not isinstance(self.batch_size, int) or self.batch_size < 2 or self.batch_size % 2:
            raise SpecError(f"batch_size must be a positive even integer, got {self.batch_size!r}")
        if not isinstance(self.patience, int) or self.patience < 1:
            raise SpecError(f"patience must be a positive integer, got {self.patience!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise SpecError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class TrainState:
    epoch: int = -1
    velocity: dict[str, np.ndarray] = field(default_factory=dict)
    best_val_error: float = math.inf
    best_checkpoint: bytes | None = None
    history: list[tuple[int, float, float]] = field(default_factory=list)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """lr0 divided by factor once per decay epoch <= epoch (0-based: the
    decay takes effect at the start of the named epoch)."""
    if not (0 <= epoch < cfg.max_epochs):
        raise SpecError(f"epoch {epoch} outside [0, {cfg.max_epochs})")
    drops = sum(1 for e in cfg.lr_decay_epochs if e <= epoch)
    return cfg.lr0 / cfg.lr_decay_factor**drops


def sgd_step(
    table: Mapping[str, zhunet.Entry],
    grads: Mapping[str, Tensor],
    state: TrainState,
    lr: float,
    cfg: TrainConfig,
) -> None:
    """One in-place update of every table entry that is not frozen, by the
    entry's rule.

    MOMENTUM entries use momentum + weight decay through the velocity
    buffers in ``state``; PLAIN entries take p -= lr*g. Gradients must come
    for exactly the entries that are updated, in their shapes; anything else
    is a contract violation.
    """
    live = {name: e for name, e in table.items() if e.rule != zhunet.FROZEN}
    if live.keys() != grads.keys():
        missing = sorted(set(live) ^ set(grads))
        raise ContractError(f"parameter/gradient name mismatch: {missing}")
    for name, entry in live.items():
        p, g = entry.tensor.array, grads[name].array
        if g.shape != p.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match parameter {name!r} {p.shape}"
            )
        dt = p.dtype.type
        if entry.rule == zhunet.PLAIN:
            p -= dt(lr) * g
            continue
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
            state.velocity[name] = v
        elif v.shape != p.shape:
            raise ContractError(
                f"velocity shape {v.shape} does not match parameter {name!r} {p.shape}"
            )
        v *= dt(cfg.momentum)
        v += g + dt(cfg.weight_decay) * p
        p -= dt(lr) * v


def evaluate(model, dataset: PairedDataset, batch_size: int = 16) -> float:
    """Balanced error rate (misclassified / total) over a paired split,
    eval mode, deterministic order. Ties on the logits resolve to cover."""
    if len(dataset.pairs) == 0:
        raise DataError(f"cannot evaluate on empty split {dataset.split!r}")
    errors = 0
    total = 0
    for images, labels in eval_batches(dataset, batch_size):
        logits = model.forward(images, mode="eval")
        pred = np.argmax(logits.array, axis=1)
        errors += int(np.sum(pred != np.asarray(labels)))
        total += len(labels)
    return errors / total


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([seed, epoch]).generate_state(1)[0])


def _append_metrics(path, epoch: int, lr: float, train_loss: float, val_error: float) -> None:
    row = f"{epoch},{lr:.10g},{train_loss:.10g},{val_error:.10g}\n"
    new_file = not os.path.exists(path)
    with open(path, "a", encoding="utf-8") as fh:
        # header plus row in one write call per epoch
        fh.write((METRICS_HEADER + "\n" + row) if new_file else row)


def train_loop(
    model: zhunet.ZhuNetModel,
    train_ds: PairedDataset,
    val_ds: PairedDataset,
    cfg: TrainConfig,
    metrics_path=None,
) -> TrainState:
    """Run the full protocol; returns the TrainState whose best_checkpoint
    holds the best-on-validation snapshot (serialized checkpoint bytes)."""
    cfg.validate()
    if len(train_ds.pairs) == 0 or len(val_ds.pairs) == 0:
        raise DataError("training needs non-empty train and validation splits")
    if len(train_ds.pairs) < cfg.batch_size // 2:
        raise DataError(
            f"train split has {len(train_ds.pairs)} pairs; at least "
            f"{cfg.batch_size // 2} are needed for one batch of {cfg.batch_size}"
        )

    state = TrainState()
    since_best = 0
    for epoch in range(cfg.max_epochs):
        lr = lr_at(epoch, cfg)
        losses = []
        for batch_index, (images, labels) in enumerate(
            make_batches(train_ds, cfg.batch_size, _epoch_seed(cfg.seed, epoch))
        ):
            logits = model.forward(images, mode="train")
            loss, grad_logits = softmax_xent(logits, labels)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            grads = model.backward(grad_logits)
            sgd_step(model.table, grads, state, lr, cfg)
            losses.append(loss)
        train_loss = float(np.mean(losses))
        val_error = evaluate(model, val_ds, cfg.batch_size)

        state.epoch = epoch
        state.history.append((epoch, train_loss, val_error))
        if metrics_path is not None:
            _append_metrics(metrics_path, epoch, lr, train_loss, val_error)

        if val_error < state.best_val_error:
            state.best_val_error = val_error
            state.best_checkpoint = zhunet.serialize_model(model)
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return state
