"""Model assembly: the full steganalysis network, its parameter table, and
checkpoint persistence.

Architecture (input: [N, 1, H, W] single-channel images, square, H >= 25):

1. preprocessing: 30 high-pass residual filters (see srm.py), trainable or
   frozen, output [N, 30, H, W];
2. two separable-convolution residual blocks at 30 channels: pointwise 1x1
   -> (abs, first block only) -> batchnorm -> depthwise 3x3 -> batchnorm,
   plus an identity skip from the block input; no activation after the add;
3. four basic blocks (3x3 conv -> batchnorm -> activation), channels
   32/32/64/128; the first three end in average pooling win 5 / stride 2 /
   pad 2, the last keeps its spatial size;
4. the head: spatial pyramid pooling over levels (4, 2, 1), 21 bins x 128
   channels = a fixed 2688-length descriptor regardless of input size, then
   fully connected 2688 -> 1024 -> 2 (ReLU between), softmax scores.

``activation_mode`` selects ReLU (default) or TLU with threshold 3 for the
four basic-block activations. Convolutions carry no bias (batchnorm follows
every one); the linear layers carry bias.

``ZhuNetModel.stages`` is the one ordered ``(name, layer)`` list, built once
by ``_assemble``: preprocessing, sep1, sep2, block1-4, head. Every layer
exposes ``forward(x) -> (out, ctx)``, ``backward(up, ctx) -> (grad_x,
{key: grad})`` and ``tensors() -> [(key, tensor, kind)]``. The forward pass
runs the list in order, a train forward keeps each stage's ctx, backward
runs the list in reverse, and ``dump_feature_maps`` runs it up to the stage
asked for. A tensor's table name is its stage name and its key, except that
the preprocessing kernels are ``pre.*`` and the head's tensors ``fc1.*`` and
``fc2.*``.

``ZhuNetModel.table`` is the one state table, derived from the list and the
config: every parameter in stage order, then every buffer (batchnorm
running statistics), then the config scalars such as the activation mode,
each with its kind and SGD update rule. Checkpoints write it in order as a
single binary table: magic "ZNET", format version, and each tensor with
explicit dtype and shape, little-endian. A round trip restores
bit-identical behaviour.
"""
from __future__ import annotations

import struct
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import nnops, srm
from .errors import ContractError, DataError, FormatError, ShapeError, SpecError
from .tensor import DTYPES, Tensor

ACTIVATION_MODES = ("relu", "tlu3")
TLU_THRESHOLD = 3.0
STAGES = ("preprocessing", "sep1", "sep2", "block1", "block2", "block3", "block4")

CHECKPOINT_MAGIC = b"ZNET"
CHECKPOINT_VERSION = 1
_DTYPE_CODES = {"f32": 0, "f64": 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

MIN_INPUT_SIZE = 25  # smallest square input whose pyramid stage still gets a 4x4 map

PARAM, BUFFER, CONFIG = "param", "buffer", "config"
MOMENTUM, PLAIN, FROZEN = "momentum", "plain", "frozen"

# Checkpoint names predate the stage names.
_TABLE_PREFIX = {"preprocessing": "pre.", "head": ""}


def _table_name(stage: str, key: str) -> str:
    return _TABLE_PREFIX.get(stage, f"{stage}.") + key


@dataclass(frozen=True)
class ModelConfig:
    activation_mode: str = "relu"
    srm_trainable: bool = True
    channels: tuple[int, int, int, int] = (32, 32, 64, 128)
    spp_levels: tuple[int, ...] = (4, 2, 1)
    fc_hidden: int = 1024
    dtype: str = "f32"
    seed: int = 0

    def validate(self) -> None:
        if self.activation_mode not in ACTIVATION_MODES:
            raise SpecError(
                f"activation_mode must be one of {ACTIVATION_MODES}, got {self.activation_mode!r}"
            )
        if len(self.channels) != 4 or any(
            not isinstance(c, int) or c < 1 for c in self.channels
        ):
            raise SpecError(f"channels must be four positive integers, got {self.channels!r}")
        nnops.SppConfig(tuple(self.spp_levels)).validate()
        if not isinstance(self.fc_hidden, int) or self.fc_hidden < 1:
            raise SpecError(f"fc_hidden must be a positive integer, got {self.fc_hidden!r}")
        if self.dtype not in DTYPES:
            raise SpecError(f"unknown dtype {self.dtype!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise SpecError(f"seed must be a non-negative integer, got {self.seed!r}")


def _bn_tensors(key: str, bn: nnops.BatchNormState) -> list:
    return [(f"{key}.gamma", Tensor(bn.gamma), PARAM), (f"{key}.beta", Tensor(bn.beta), PARAM),
            (f"{key}.running_mean", Tensor(bn.running_mean), BUFFER),
            (f"{key}.running_var", Tensor(bn.running_var), BUFFER)]


@dataclass
class Preprocessing:
    """The SRM bank as a stage. The network's input takes no gradient, so
    backward returns the kernel gradients only."""

    layer: srm.PreprocessingLayer

    def forward(self, x: Tensor) -> tuple[Tensor, srm.PreprocessContext]:
        return srm.preprocess_forward(x, self.layer)

    def backward(self, up: Tensor, ctx: srm.PreprocessContext) -> tuple[None, dict]:
        _, g3, g5 = srm.preprocess_backward(up, ctx, image_grad=False)
        return None, {"kernels3": g3, "kernels5": g5}

    def tensors(self) -> list:
        return [("kernels3", self.layer.kernels3, PARAM), ("kernels5", self.layer.kernels5, PARAM)]


@dataclass
class SepconvBlock:
    """Residual separable-convolution block at a fixed channel width.

    pointwise 1x1 -> (abs if has_abs) -> batchnorm -> depthwise 3x3 ->
    batchnorm -> add block input. No bias on either convolution and no
    activation after the addition.
    """

    pw_w: Tensor  # [C, C, 1, 1]
    bn_pw: nnops.BatchNormState
    dw_w: Tensor  # [C, 1, 3, 3]
    bn_dw: nnops.BatchNormState
    has_abs: bool

    @property
    def channels(self) -> int:
        return self.pw_w.shape[0]

    def forward(self, x: Tensor) -> tuple[Tensor, dict]:
        c = self.channels
        pw_spec = nnops.Conv2dSpec(c, c, 1, 1)
        dw_spec = nnops.Conv2dSpec(c, c, 3, 3, padding=1, groups=c)
        t, pw_ctx = nnops.conv2d_forward(x, self.pw_w, None, pw_spec)
        abs_in = None
        if self.has_abs:
            abs_in = t
            t = nnops.abs_act(t)
        t, bn1_ctx = nnops.batchnorm_forward(t, self.bn_pw)
        t, dw_ctx = nnops.conv2d_forward(t, self.dw_w, None, dw_spec)
        t, bn2_ctx = nnops.batchnorm_forward(t, self.bn_dw)
        t.array += x.array  # identity skip, into the batchnorm's fresh output
        ctx = {"pw": pw_ctx, "abs_in": abs_in, "bn1": bn1_ctx, "dw": dw_ctx, "bn2": bn2_ctx}
        return t, ctx

    def backward(self, up: Tensor, ctx: dict) -> tuple[Tensor, dict]:
        g, g_gamma2, g_beta2 = nnops.batchnorm_backward(up, ctx["bn2"])
        g, g_dw, _ = nnops.conv2d_backward(g, ctx["dw"])
        g, g_gamma1, g_beta1 = nnops.batchnorm_backward(g, ctx["bn1"])
        if self.has_abs:
            g = nnops.abs_backward(g, ctx["abs_in"])
        g, g_pw, _ = nnops.conv2d_backward(g, ctx["pw"])
        grads = {"pw.w": g_pw, "bn_pw.gamma": g_gamma1, "bn_pw.beta": g_beta1,
                 "dw.w": g_dw, "bn_dw.gamma": g_gamma2, "bn_dw.beta": g_beta2}
        g.array += up.array  # skip path, into the conv's fresh input gradient
        return g, grads

    def tensors(self) -> list:
        return [("pw.w", self.pw_w, PARAM), *_bn_tensors("bn_pw", self.bn_pw),
                ("dw.w", self.dw_w, PARAM), *_bn_tensors("bn_dw", self.bn_dw)]


@dataclass
class BasicBlock:
    """3x3 conv -> batchnorm -> activation (ReLU, or TLU at threshold 3 when
    ``mode`` is "tlu3") -> average pool for the first three blocks: win 5,
    stride 2, pad 2, pad zeros count in the mean."""

    conv_w: Tensor  # [Cout, Cin, 3, 3]
    bn: nnops.BatchNormState
    pool: bool
    mode: str

    POOL_WIN = 5
    POOL_STRIDE = 2
    POOL_PAD = 2

    def forward(self, x: Tensor) -> tuple[Tensor, dict]:
        cout, cin = self.conv_w.shape[0], self.conv_w.shape[1]
        spec = nnops.Conv2dSpec(cin, cout, 3, 3, padding=1)
        t, conv_ctx = nnops.conv2d_forward(x, self.conv_w, None, spec)
        t, bn_ctx = nnops.batchnorm_forward(t, self.bn)
        act_in = t
        t = nnops.relu(t) if self.mode == "relu" else nnops.tlu(t, TLU_THRESHOLD)
        pool_ctx = None
        if self.pool:
            t, pool_ctx = nnops.avg_pool(t, self.POOL_WIN, self.POOL_STRIDE, self.POOL_PAD)
        return t, {"conv": conv_ctx, "bn": bn_ctx, "act_in": act_in, "pool": pool_ctx}

    def backward(self, up: Tensor, ctx: dict) -> tuple[Tensor, dict]:
        g = up
        if ctx["pool"] is not None:
            g = nnops.avg_pool_backward(g, ctx["pool"])
        if self.mode == "relu":
            g = nnops.relu_backward(g, ctx["act_in"])
        else:
            g = nnops.tlu_backward(g, ctx["act_in"], TLU_THRESHOLD)
        g, g_gamma, g_beta = nnops.batchnorm_backward(g, ctx["bn"])
        g, g_w, _ = nnops.conv2d_backward(g, ctx["conv"])
        return g, {"conv.w": g_w, "bn.gamma": g_gamma, "bn.beta": g_beta}

    def tensors(self) -> list:
        return [("conv.w", self.conv_w, PARAM), *_bn_tensors("bn", self.bn)]


@dataclass
class Head:
    """Spatial pyramid pooling to a fixed-length descriptor, then
    fc1 -> ReLU -> fc2 to the two class logits."""

    spp: nnops.SppConfig
    fc1_w: Tensor  # [bins * C, hidden]
    fc1_b: Tensor
    fc2_w: Tensor  # [hidden, 2]
    fc2_b: Tensor

    def forward(self, x: Tensor) -> tuple[Tensor, tuple]:
        feat, spp_ctx = nnops.spp_forward(x, self.spp)
        h1, fc1_ctx = nnops.linear_forward(feat, self.fc1_w, self.fc1_b)
        logits, fc2_ctx = nnops.linear_forward(nnops.relu(h1), self.fc2_w, self.fc2_b)
        return logits, (spp_ctx, fc1_ctx, h1, fc2_ctx)

    def backward(self, up: Tensor, ctx: tuple) -> tuple[Tensor, dict]:
        spp_ctx, fc1_ctx, h1, fc2_ctx = ctx
        g, gw2, gb2 = nnops.linear_backward(up, fc2_ctx)
        g, gw1, gb1 = nnops.linear_backward(nnops.relu_backward(g, h1), fc1_ctx)
        grads = {"fc1.w": gw1, "fc1.b": gb1, "fc2.w": gw2, "fc2.b": gb2}
        return nnops.spp_backward(g, spp_ctx), grads

    def tensors(self) -> list:
        return [("fc1.w", self.fc1_w, PARAM), ("fc1.b", self.fc1_b, PARAM),
                ("fc2.w", self.fc2_w, PARAM), ("fc2.b", self.fc2_b, PARAM)]


@dataclass(frozen=True)
class Entry:
    """One row of the model's state table.

    ``kind`` is PARAM (learned), BUFFER (batchnorm running statistics) or
    CONFIG (a hyperparameter scalar that rides along in checkpoints).
    ``rule`` is how SGD updates the tensor: MOMENTUM (momentum plus weight
    decay), PLAIN (p -= lr*g) or FROZEN (never; every buffer and config).
    """

    tensor: Tensor
    kind: str
    rule: str = FROZEN


@dataclass
class ZhuNetModel:
    """The assembled network: ``stages`` runs it, ``table`` names every
    tensor of it in checkpoint order with its kind and update rule. The
    table shares the layers' storage, so in-place updates through it
    stick."""

    config: ModelConfig
    stages: list  # [(name, layer)], input to logits
    table: "OrderedDict[str, Entry]" = field(init=False, repr=False)
    _ctx: Optional[tuple] = field(default=None, repr=False)  # (per-stage ctxs, logits shape)

    def __post_init__(self) -> None:
        self.table = self._state_table()

    def layer(self, name: str):
        return dict(self.stages)[name]

    sep1 = property(lambda self: self.layer("sep1"))
    sep2 = property(lambda self: self.layer("sep2"))
    blocks = property(lambda self: [lyr for _, lyr in self.stages if isinstance(lyr, BasicBlock)])

    # -- the state table ------------------------------------------------------

    def _state_table(self) -> "OrderedDict[str, Entry]":
        """The table, derived from the stages and the config: the
        preprocessing kernels take the plain step unless the config freezes
        them, every other parameter takes momentum and weight decay."""
        pre_rule = PLAIN if self.config.srm_trainable else FROZEN
        rows: dict[str, list] = {PARAM: [], BUFFER: [], CONFIG: []}
        for stage, lyr in self.stages:
            rule = pre_rule if stage == "preprocessing" else MOMENTUM
            for key, tensor, kind in lyr.tensors():
                entry = Entry(tensor, kind, rule if kind == PARAM else FROZEN)
                rows[kind].append((_table_name(stage, key), entry))
        first_bn = self.sep1.bn_pw  # every batchnorm shares momentum and eps
        for name, values in (
            ("activation_mode", [ACTIVATION_MODES.index(self.config.activation_mode)]),
            ("srm_trainable", [self.config.srm_trainable]),
            ("spp_levels", self.layer("head").spp.levels),
            ("bn_momentum", [first_bn.momentum]),
            ("bn_eps", [first_bn.eps]),
        ):
            tensor = Tensor(np.array(values, dtype=np.float64))
            rows[CONFIG].append((f"config.{name}", Entry(tensor, CONFIG)))
        return OrderedDict(rows[PARAM] + rows[BUFFER] + rows[CONFIG])

    def freeze_srm(self) -> None:
        """Stop training the preprocessing kernels. The config is the one
        value that changes; the kernels' rule and the checkpoint's
        ``config.srm_trainable`` scalar are derived from it."""
        self.config = replace(self.config, srm_trainable=False)
        self.table = self._state_table()

    def parameters(self) -> "OrderedDict[str, Tensor]":
        """Parameters that SGD updates, by name, in table order: frozen
        preprocessing kernels are left out."""
        return OrderedDict(
            (name, e.tensor) for name, e in self.table.items()
            if e.kind == PARAM and e.rule != FROZEN
        )

    def num_parameters(self) -> int:
        """Total trainable scalar count (includes the 350 preprocessing
        coefficients unless the layer is frozen)."""
        return sum(t.size for t in self.parameters().values())

    def state_tensors(self) -> "OrderedDict[str, Tensor]":
        """Everything a checkpoint stores, in table order: all parameters
        (frozen or not), the batchnorm running statistics, and the config
        scalars."""
        return OrderedDict((name, e.tensor) for name, e in self.table.items())

    # -- running the network --------------------------------------------------

    def _check_admissible(self, images: Tensor) -> None:
        if not isinstance(images, Tensor) or len(images.shape) != 4:
            raise ShapeError("forward expects a [N, 1, H, W] tensor")
        n, c, h, w = images.shape
        if c != 1:
            raise ShapeError(f"forward expects single-channel images, got {c} channels")
        if images.dtype != self.config.dtype:
            raise ShapeError(
                f"input dtype {images.dtype} does not match model dtype {self.config.dtype}"
            )
        if h != w:
            raise DataError(
                f"pyramid stage needs square inputs, got {h}x{w}"
            )
        a = h
        for blk in self.blocks:
            if blk.pool:
                a = -(-a // 2)  # win 5 / stride 2 / pad 2 halves, rounding up
        level = max(self.layer("head").spp.levels)
        if a < level:
            raise DataError(
                f"input {h}x{w} is inadmissible: the pyramid stage would get a "
                f"{a}x{a} map, smaller than pyramid level {level}; "
                f"square inputs of at least {MIN_INPUT_SIZE}x{MIN_INPUT_SIZE} are required"
            )

    def _run(self, images: Tensor, mode: str, stages: list) -> Tensor:
        """Run ``stages``, a prefix of the stage list. Only a train forward
        keeps the backward contexts; an eval forward drops each one as soon
        as its stage returns, and leaves no context for a backward.

        An eval forward splits the images into up to ``nnops.WORKERS``
        contiguous shards and runs the stages before the head on each, the
        first on the calling thread and the others on a thread pool; every
        eval op works image by image, so the joined result is bitwise the
        unsplit one. The head runs once on the joined batch: a one-row
        shard would take BLAS's matrix-vector path in the linear layers
        and round differently. A train forward is one shard, because
        batchnorm takes the whole batch's statistics."""
        if mode not in ("train", "eval"):
            raise SpecError(f"forward mode must be 'train' or 'eval', got {mode!r}")
        self._check_admissible(images)
        for _, lyr in self.stages:
            for bn in vars(lyr).values():
                if isinstance(bn, nnops.BatchNormState):
                    bn.mode = mode
        self._ctx = None
        if mode == "train":
            saved = []
            t = images
            for _, lyr in stages:
                t, ctx = lyr.forward(t)
                saved.append(ctx)
            self._ctx = (saved, t.shape)
            return t
        body, head = stages[: len(self.stages) - 1], stages[len(self.stages) - 1 :]
        shards = np.array_split(images.array, min(nnops.WORKERS, images.shape[0]))
        if len(shards) == 1:
            t = _eval_forward(images, body)
        else:
            with ThreadPoolExecutor(len(shards) - 1) as pool:
                futures = [pool.submit(_eval_forward, Tensor(a), body) for a in shards[1:]]
                try:
                    first = _eval_forward(Tensor(shards[0]), body)
                finally:
                    rest = [f.result() for f in futures]
            t = Tensor(np.concatenate([first.array, *(r.array for r in rest)]))
        return _eval_forward(t, head)

    def forward(self, images: Tensor, mode: str = "train") -> Tensor:
        """Class logits [N, 2]. A train forward saves the context consumed
        by backward; an eval forward saves none."""
        return self._run(images, mode, self.stages)

    def backward(self, grad_logits: Tensor) -> "OrderedDict[str, Tensor]":
        """Parameter gradients keyed and ordered like :meth:`parameters`,
        from the saved forward context. The stages run in reverse until
        every trainable parameter has its gradient, so frozen preprocessing
        kernels cost no backward."""
        if self._ctx is None:
            raise ContractError(
                "backward called with no saved forward context; only a train-mode "
                "forward saves one"
            )
        saved, logits_shape = self._ctx
        if not isinstance(grad_logits, Tensor) or grad_logits.shape != logits_shape:
            raise ShapeError(
                f"grad_logits must be a Tensor of shape {logits_shape}"
            )
        params = self.parameters()
        grads: dict[str, Tensor] = {}
        g = grad_logits
        for (stage, lyr), ctx in zip(reversed(self.stages), reversed(saved)):
            if params.keys() <= grads.keys():
                break
            g, stage_grads = lyr.backward(g, ctx)
            grads.update((_table_name(stage, k), v) for k, v in stage_grads.items())
        return OrderedDict((name, grads[name]) for name in params)

    def dump_feature_maps(self, images: Tensor, stage: str) -> Tensor:
        """Eval-mode output of one named stage; the stages after it do not
        run. The head's output is the logits, not a feature map."""
        names = [name for name, _ in self.stages[:-1]]
        if stage not in names:
            raise SpecError(f"unknown stage {stage!r}; valid stages: {', '.join(names)}")
        return self._run(images, "eval", self.stages[: names.index(stage) + 1])


def _eval_forward(t: Tensor, stages: list) -> Tensor:
    for _, lyr in stages:
        t = lyr.forward(t)[0]  # the context is freed before the next stage runs
    return t


def _xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                    fan_in: int, fan_out: int, dt: np.dtype) -> np.ndarray:
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(dt)


def _assemble(config: ModelConfig, value, momentum: float = 0.1, eps: float = 1e-5) -> ZhuNetModel:
    """The one construction routine, and the one place the stage order is
    written. ``value(name, shape, init)`` gives the array of each
    state-table tensor: build_model returns ``init()``, deserialize_model
    the checkpoint's array. The tensors are asked for in a fixed order, so
    build_model's random draws are too."""
    dt = DTYPES[config.dtype]
    rng = np.random.Generator(np.random.PCG64(config.seed))

    def xavier(name: str, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Tensor:
        return Tensor(value(name, shape, lambda: _xavier_uniform(rng, shape, fan_in, fan_out, dt)))

    def zeros(name: str, c: int) -> Tensor:
        return Tensor(value(name, (c,), lambda: np.zeros(c, dtype=dt)))

    def batchnorm(name: str, c: int) -> nnops.BatchNormState:
        def stat(key: str, fill: float) -> np.ndarray:
            return value(f"{name}.{key}", (c,), lambda: np.full(c, fill, dtype=dt))

        return nnops.BatchNormState(
            gamma=stat("gamma", 1), beta=stat("beta", 0),
            running_mean=stat("running_mean", 0), running_var=stat("running_var", 1),
            momentum=momentum, eps=eps,
        )

    pre = srm.PreprocessingLayer.build(dtype=config.dtype)
    k3, k5 = pre.kernels3.array, pre.kernels5.array
    pre.kernels3 = Tensor(value("pre.kernels3", k3.shape, lambda: k3))
    pre.kernels5 = Tensor(value("pre.kernels5", k5.shape, lambda: k5))
    c0 = pre.out_channels

    def sepconv(name: str, has_abs: bool) -> tuple[str, SepconvBlock]:
        return name, SepconvBlock(
            pw_w=xavier(f"{name}.pw.w", (c0, c0, 1, 1), c0, c0),
            bn_pw=batchnorm(f"{name}.bn_pw", c0),
            dw_w=xavier(f"{name}.dw.w", (c0, 1, 3, 3), 9, c0 * 9),
            bn_dw=batchnorm(f"{name}.bn_dw", c0),
            has_abs=has_abs,
        )

    stages = [("preprocessing", Preprocessing(pre)), sepconv("sep1", True), sepconv("sep2", False)]
    cin = c0
    for i, cout in enumerate(config.channels, start=1):
        stages.append((f"block{i}", BasicBlock(
            conv_w=xavier(f"block{i}.conv.w", (cout, cin, 3, 3), cin * 9, cout * 9),
            bn=batchnorm(f"block{i}.bn", cout),
            pool=i <= 3,
            mode=config.activation_mode,
        )))
        cin = cout

    spp = nnops.SppConfig(tuple(config.spp_levels))
    feat_dim, hidden = config.channels[-1] * spp.bins, config.fc_hidden
    stages.append(("head", Head(
        spp=spp,
        fc1_w=xavier("fc1.w", (feat_dim, hidden), feat_dim, hidden),
        fc1_b=zeros("fc1.b", hidden),
        fc2_w=xavier("fc2.w", (hidden, 2), hidden, 2),
        fc2_b=zeros("fc2.b", 2),
    )))
    return ZhuNetModel(config=config, stages=stages)


def build_model(config: ModelConfig = ModelConfig()) -> ZhuNetModel:
    """Deterministic construction: same config (seed included) gives
    bit-identical parameters. Conv/linear weights are Xavier-uniform with
    fan averaging; linear biases start at zero, batchnorm at gamma=1,
    beta=0; the preprocessing kernels start at the filter-bank values."""
    config.validate()
    return _assemble(config, lambda name, shape, init: init())


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------

def serialize_model(model: ZhuNetModel) -> bytes:
    """Checkpoint bytes: magic, version, tensor count, then per tensor the
    UTF-8 name (u16 length), dtype code (u8), rank (u8), u32 dims, and the
    raw little-endian values."""
    state = model.state_tensors()
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(state))]
    for name, t in state.items():
        nameb = name.encode("utf-8")
        arr = t.array
        code = _DTYPE_CODES[t.dtype]
        parts.append(struct.pack("<H", len(nameb)))
        parts.append(nameb)
        parts.append(struct.pack("<BB", code, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype=_CODE_DTYPES[code]).tobytes())
    return b"".join(parts)


def save_checkpoint(model: ZhuNetModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"checkpoint truncated while reading {what}", offset=self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def _read_tensor_table(data: bytes) -> "OrderedDict[str, np.ndarray]":
    r = _Reader(data)
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}", offset=0)
    (version,) = r.unpack("<I", "version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    (count,) = r.unpack("<I", "tensor count")
    table: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for _ in range(count):
        (name_len,) = r.unpack("<H", "name length")
        name_off = r.pos
        try:
            name = r.take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("tensor name is not valid UTF-8", offset=name_off) from exc
        code_off = r.pos
        code, rank = r.unpack("<BB", "dtype/rank")
        if code not in _CODE_DTYPES:
            raise FormatError(f"unknown dtype code {code} for tensor {name!r}", offset=code_off)
        dims = r.unpack(f"<{rank}I", f"dims of {name!r}") if rank else ()
        n_values = 1
        for d in dims:
            n_values *= d
        dtype = _CODE_DTYPES[code]
        raw = r.take(n_values * dtype.itemsize, f"values of {name!r}")
        if name in table:
            raise FormatError(f"duplicate tensor name {name!r}", offset=name_off)
        table[name] = np.frombuffer(raw, dtype=dtype).reshape(dims).copy()
    if r.pos != len(data):
        raise FormatError(
            f"{len(data) - r.pos} trailing bytes after the last tensor", offset=r.pos
        )
    return table


def _need(table, name: str) -> np.ndarray:
    if name not in table:
        raise FormatError(f"checkpoint is missing the {name!r} entry")
    return table[name]


def _config_entry(table, name: str, scalar: bool = True) -> np.ndarray:
    """The values of ``config.<name>``: rank 1 and finite, and of shape (1,)
    for a scalar entry."""
    key = f"config.{name}"
    v = _need(table, key)
    if v.ndim != 1 or (scalar and v.shape != (1,)):
        raise FormatError(f"checkpoint tensor {key!r} has shape {v.shape}, expected "
                          + ("(1,)" if scalar else "rank 1"))
    if not np.all(np.isfinite(v)):
        raise FormatError(f"checkpoint tensor {key!r} is not finite: {v.tolist()}")
    return v


def _read_config(table) -> tuple[str, bool, tuple[int, ...], float, float]:
    """Activation mode, srm_trainable, pyramid levels, batchnorm momentum and
    eps from the checkpoint's config entries; a value outside its domain is
    a FormatError."""
    mode = float(_config_entry(table, "activation_mode")[0])
    if mode != int(mode) or not 0 <= mode < len(ACTIVATION_MODES):
        raise FormatError(f"config.activation_mode must index {ACTIVATION_MODES}, got {mode:g}")
    trainable = float(_config_entry(table, "srm_trainable")[0])
    if trainable not in (0.0, 1.0):
        raise FormatError(f"config.srm_trainable must be 0 or 1, got {trainable:g}")
    levels = _config_entry(table, "spp_levels", scalar=False)
    if np.any(levels != np.floor(levels)):
        raise FormatError(f"config.spp_levels must be whole numbers, got {levels.tolist()}")
    momentum = float(_config_entry(table, "bn_momentum")[0])
    if not 0 <= momentum <= 1:
        raise FormatError(f"config.bn_momentum must be in [0, 1], got {momentum:g}")
    eps = float(_config_entry(table, "bn_eps")[0])
    if not eps > 0:
        raise FormatError(f"config.bn_eps must be positive, got {eps:g}")
    return (ACTIVATION_MODES[int(mode)], bool(trainable), tuple(int(v) for v in levels),
            momentum, eps)


def deserialize_model(data: bytes) -> ZhuNetModel:
    """Rebuild a model from checkpoint bytes (see serialize_model)."""
    table = _read_tensor_table(data)
    mode, srm_trainable, levels, momentum, eps = _read_config(table)
    fc1_w = _need(table, "fc1.w")
    dtype = "f32" if fc1_w.dtype == np.float32 else "f64"
    channels = tuple(int(_need(table, f"block{i}.conv.w").shape[0]) for i in range(1, 5))
    config = ModelConfig(
        activation_mode=mode,
        srm_trainable=srm_trainable,
        channels=channels,  # type: ignore[arg-type]
        spp_levels=levels,
        fc_hidden=int(fc1_w.shape[1]),
        dtype=dtype,
    )
    try:
        config.validate()
    except SpecError as exc:
        raise FormatError(f"checkpoint config is invalid: {exc}") from exc
    dt = DTYPES[dtype]

    def value(name: str, shape: tuple[int, ...], init) -> np.ndarray:
        array = _need(table, name)
        if array.shape != shape:
            raise FormatError(
                f"checkpoint tensor {name!r} has shape {array.shape}, expected {shape}"
            )
        return array.astype(dt, copy=False)

    model = _assemble(config, value, momentum, eps)
    for name in table:
        if name not in model.table:
            raise FormatError(f"checkpoint has an unexpected tensor {name!r}")
    return model


def load_checkpoint(path) -> ZhuNetModel:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
