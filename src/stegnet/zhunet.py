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

The module constants ``CHANNELS``, ``SPP_LEVELS``, ``FC_HIDDEN``,
``BN_MOMENTUM`` and ``BN_EPS`` fix the architecture. ``activation_mode``
selects ReLU (default) or TLU with threshold 3 for the four basic-block
activations. Convolutions carry no bias (batchnorm follows every one); the
linear layers carry bias.

``ZhuNetModel.stages`` is the one ordered ``(name, layer)`` list:
preprocessing (``srm.PreprocessingLayer`` itself), sep1, sep2, block1-4,
head. Every layer exposes ``forward(x) -> (out, ctx)`` and
``backward(up, ctx) -> (grad_x, grads)``, where ``grads`` is a tuple of
its parameter gradients in the order its parameters were declared; a layer
does not name its tensors. The forward pass runs the list in order, a
train forward keeps each stage's ctx, backward runs the list in reverse,
and ``dump_feature_maps`` runs it up to the stage asked for.

``ZhuNetModel.table`` is the one state table: every parameter in stage
order, then every buffer (batchnorm running statistics), then the config
rows of ``_config_rows``, each with its kind, SGD update rule and owning
stage. ``_assemble`` builds the stage list and the table together, and is
the one place a tensor's name is written (the preprocessing kernels are
``pre.*``, the head's tensors ``fc1.*`` and ``fc2.*``, every other name
starts with its stage's). The model's backward pairs each stage's gradient
tuple with that stage's parameter rows.
Checkpoints write the table in order as a single binary table: magic
"ZNET", format version, and each tensor with explicit dtype and shape,
little-endian. A round trip restores bit-identical behaviour.
"""
from __future__ import annotations

import functools
import struct
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import nnops, srm
from .errors import ContractError, DataError, FormatError, ShapeError, SpecError
from .tensor import DTYPES, Tensor, dtype_named

ACTIVATION_MODES = ("relu", "tlu3")
TLU_THRESHOLD = 3.0

CHECKPOINT_MAGIC = b"ZNET"
CHECKPOINT_VERSION = 1

# The paper's architecture, and the momentum and eps of every batchnorm.
CHANNELS = (32, 32, 64, 128)
SPP_LEVELS = (4, 2, 1)
FC_HIDDEN = 1024
BN_MOMENTUM, BN_EPS = 0.1, 1e-5

MIN_INPUT_SIZE = 25  # smallest square input whose pyramid stage still gets a 4x4 map

PARAM, BUFFER, CONFIG = "param", "buffer", "config"
MOMENTUM, PLAIN, FROZEN = "momentum", "plain", "frozen"


@dataclass(frozen=True)
class ModelConfig:
    activation_mode: str = "relu"
    srm_trainable: bool = True
    dtype: str = "f32"
    seed: int = 0

    def validate(self) -> None:
        if self.activation_mode not in ACTIVATION_MODES:
            raise SpecError(
                f"activation_mode must be one of {ACTIVATION_MODES}, got {self.activation_mode!r}"
            )
        dtype_named(self.dtype)
        if not isinstance(self.seed, int) or self.seed < 0:
            raise SpecError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class SepconvBlock:
    """Residual separable-convolution block at a fixed channel width.

    pointwise 1x1 -> (abs if has_abs) -> batchnorm -> depthwise 3x3 ->
    batchnorm -> add block input. No bias on either convolution and no
    activation after the addition.

    A train forward keeps only the block's input, in the pointwise conv's
    context, and sep1 not even that: given ``source``, the context of the
    conv whose output the input is (``ZhuNetModel._run`` hands sep1 the
    preprocessing conv's), it keeps that context instead and its backward
    rebuilds the input from it. The backward first rebuilds the pointwise
    output from the pointwise conv's context, takes sep1's abs sign from it
    and writes the abs over it; then the depthwise input from that with the
    first batchnorm's kept statistics (``nnops.batchnorm_output``), and the
    depthwise output from the depthwise conv's context. Every rebuild is
    exact, so the gradients are those of kept maps.

    Each op writes over the maps the block owns: abs over the pointwise
    output, and, in eval mode, each batchnorm over its conv's output. The
    backward writes each batchnorm's input gradient over that batchnorm's
    rebuilt input, and abs's over that gradient, but never over ``up``,
    which the skip path adds at the end; each conv backward frees its
    rebuilt input before it makes its input gradient. The backward
    consumes the context, so a second backward on it raises ContractError.
    """

    pw_w: Tensor  # [C, C, 1, 1]
    bn_pw: nnops.BatchNormState
    dw_w: Tensor  # [C, 1, 3, 3]
    bn_dw: nnops.BatchNormState
    has_abs: bool

    @property
    def channels(self) -> int:
        return self.pw_w.shape[0]

    def forward(self, x: Tensor,
                source: Optional[nnops.Conv2dContext] = None) -> tuple[Tensor, dict]:
        c = self.channels
        pw_spec = nnops.Conv2dSpec(c, c, 1, 1)
        dw_spec = nnops.Conv2dSpec(c, c, 3, 3, padding=1, groups=c)
        train = self.bn_pw.mode == "train"  # a train forward drops what the backward rebuilds
        t, pw_ctx = nnops.conv2d_forward(x, self.pw_w, None, pw_spec)
        if source is not None:
            pw_ctx.x = None
        if self.has_abs:
            t = nnops.abs_act(t, out=t.array)
        t, bn1_ctx = nnops.batchnorm_forward(t, self.bn_pw)
        if train:  # freed now, the pointwise output's block takes the depthwise output
            bn1_ctx.x = None
        t, dw_ctx = nnops.conv2d_forward(t, self.dw_w, None, dw_spec)
        if train:  # the first batchnorm's output, freed now, its block takes the second's
            dw_ctx.x = None
        t, bn2_ctx = nnops.batchnorm_forward(t, self.bn_dw)
        if train:
            bn2_ctx.x = None
        t.array += x.array  # identity skip, into the batchnorm's output
        return t, {"pw": pw_ctx, "bn1": bn1_ctx, "dw": dw_ctx, "bn2": bn2_ctx, "source": source}

    def backward(self, up: Tensor, ctx: dict) -> tuple[Tensor, tuple]:
        if not ctx:
            raise ContractError("sepconv backward needs a train forward's context, "
                                "and an earlier backward consumed this one")
        pw, bn1, dw, bn2, source = (ctx.pop(k) for k in ("pw", "bn1", "dw", "bn2", "source"))
        # the rebuilds call the band kernel and numpy, not conv2d_forward,
        # abs_act or batchnorm_forward, so a tracer that wraps those books
        # no extra op; each goes into a context, which holds it alone
        if source is not None:
            pw.x = nnops.conv2d_output(source)
        bn1.x = nnops.conv2d_output(pw)
        sign = None
        if self.has_abs:
            sign = nnops.backward_mask(Tensor(bn1.x), "abs")
            np.abs(bn1.x, out=bn1.x)
        dw.x = nnops.batchnorm_output(bn1)
        bn2.x = nnops.conv2d_output(dw)
        g, g_gamma2, g_beta2 = nnops.batchnorm_backward(up, bn2)
        g, g_dw, _ = nnops.conv2d_backward(g, dw)
        g, g_gamma1, g_beta1 = nnops.batchnorm_backward(g, bn1)
        if self.has_abs:
            g = nnops.abs_backward(g, sign, out=g.array)
        g, g_pw, _ = nnops.conv2d_backward(g, pw)
        g.array += up.array  # skip path, into the conv's fresh input gradient
        return g, (g_pw, g_gamma1, g_beta1, g_dw, g_gamma2, g_beta2)


@dataclass
class BasicBlock:
    """3x3 conv -> batchnorm -> activation (ReLU, or TLU at threshold 3 when
    ``mode`` is "tlu3") -> average pool for the first three blocks: win 5,
    stride 2, pad 2, pad zeros count in the mean. A train forward keeps the
    activation's bool mask in place of its input. The batchnorm (in eval
    mode) and the activation write over the conv's output; the backward
    writes the activation's gradient over ``up``, or over the pooling's
    gradient, and the batchnorm's over its kept input, so it takes an
    ``up`` that the caller hands over and a context used once."""

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
        mask = None
        if self.bn.mode == "train":  # only a backward reads it
            mask = (nnops.backward_mask(t, "relu") if self.mode == "relu"
                    else nnops.backward_mask(t, "tlu", TLU_THRESHOLD))
        t = (nnops.relu(t, out=t.array) if self.mode == "relu"
             else nnops.tlu(t, TLU_THRESHOLD, out=t.array))
        pool_ctx = None
        if self.pool:
            t, pool_ctx = nnops.avg_pool(t, self.POOL_WIN, self.POOL_STRIDE, self.POOL_PAD)
        return t, {"conv": conv_ctx, "bn": bn_ctx, "mask": mask, "pool": pool_ctx}

    def backward(self, up: Tensor, ctx: dict) -> tuple[Tensor, tuple]:
        g = up
        if ctx["pool"] is not None:
            g = nnops.avg_pool_backward(g, ctx["pool"])
        if self.mode == "relu":
            g = nnops.relu_backward(g, ctx["mask"], out=g.array)
        else:
            g = nnops.tlu_backward(g, ctx["mask"], out=g.array)
        g, g_gamma, g_beta = nnops.batchnorm_backward(g, ctx["bn"])
        g, g_w, _ = nnops.conv2d_backward(g, ctx["conv"])
        return g, (g_w, g_gamma, g_beta)


@dataclass
class Head:
    """Spatial pyramid pooling to a fixed-length descriptor, then
    fc1 -> ReLU -> fc2 to the two class logits. The ReLU writes over fc1's
    output h1, and its backward over fc2's input gradient. The context
    keeps no fc1 output: the ReLU's mask is taken in backward from fc2's
    input, relu(h1), which is positive exactly where h1 is."""

    fc1_w: Tensor  # [bins * C, hidden]
    fc1_b: Tensor
    fc2_w: Tensor  # [hidden, 2]
    fc2_b: Tensor

    def forward(self, x: Tensor) -> tuple[Tensor, tuple]:
        feat, spp_ctx = nnops.spp_forward(x, SPP_LEVELS)
        h1, fc1_ctx = nnops.linear_forward(feat, self.fc1_w, self.fc1_b)
        logits, fc2_ctx = nnops.linear_forward(nnops.relu(h1, out=h1.array), self.fc2_w, self.fc2_b)
        return logits, (spp_ctx, fc1_ctx, fc2_ctx)

    def backward(self, up: Tensor, ctx: tuple) -> tuple[Tensor, tuple]:
        spp_ctx, fc1_ctx, fc2_ctx = ctx
        g, gw2, gb2 = nnops.linear_backward(up, fc2_ctx)
        mask = nnops.backward_mask(Tensor(fc2_ctx.x), "relu")
        g, gw1, gb1 = nnops.linear_backward(nnops.relu_backward(g, mask, out=g.array), fc1_ctx)
        return nnops.spp_backward(g, spp_ctx), (gw1, gb1, gw2, gb2)


@dataclass(frozen=True)
class Entry:
    """One row of the model's state table.

    ``kind`` is PARAM (learned), BUFFER (batchnorm running statistics) or
    CONFIG (a hyperparameter scalar that rides along in checkpoints).
    ``rule`` is how SGD updates the tensor: MOMENTUM (momentum plus weight
    decay), PLAIN (p -= lr*g) or FROZEN (never; every buffer and config).
    ``stage`` names the stage that owns the tensor (empty for config rows);
    a stage's backward returns its parameters' gradients in the order of
    its PARAM rows.
    """

    tensor: Tensor
    kind: str
    rule: str = FROZEN
    stage: str = ""


@dataclass
class ZhuNetModel:
    """The assembled network: ``stages`` runs it, ``table`` names every
    tensor of it in checkpoint order with its kind, update rule and stage.
    Both come from ``_assemble``. The table shares the layers' storage, so
    in-place updates through it stick."""

    config: ModelConfig
    stages: list  # [(name, layer)], input to logits
    table: "OrderedDict[str, Entry]" = field(repr=False)
    _ctx: Optional[tuple] = field(default=None, repr=False)  # (per-stage ctxs, logits shape)

    sep1 = property(lambda self: dict(self.stages)["sep1"])
    sep2 = property(lambda self: dict(self.stages)["sep2"])
    blocks = property(lambda self: [lyr for _, lyr in self.stages if isinstance(lyr, BasicBlock)])

    # -- the state table ------------------------------------------------------

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
        rows."""
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
        if h < MIN_INPUT_SIZE:
            raise DataError(f"input {h}x{w} is inadmissible: the pyramid stage needs square "
                            f"inputs of at least {MIN_INPUT_SIZE}x{MIN_INPUT_SIZE}")

    def _run(self, images: Tensor, mode: str, stages: list) -> Tensor:
        """Run ``stages``, a prefix of the stage list. Only a train forward
        keeps the backward contexts; an eval forward drops each one as soon
        as its stage returns, and leaves no context for a backward. A train
        forward hands sep1 the preprocessing stage's context, a conv
        context, so sep1 keeps it in place of the preprocessing output and
        rebuilds that output in its own backward.

        An eval forward runs each image through the stages before the head
        as one task of a pool of ``nnops.WORKERS`` threads, into its slot of
        one output shaped by running those stages on zero images. So it
        holds one image's working maps per thread besides that output, and
        at a ``WORKERS`` above 1 the band kernel makes larger bands for those
        one-image maps, in the same bytes. No eval op mixes images, so the
        output is bitwise the whole batch's. The head runs once on the whole
        output: a one-row batch would take BLAS's matrix-vector path in the
        linear layers and round differently. A train forward runs the whole
        batch on the calling thread, since batchnorm takes batch statistics."""
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
            for name, lyr in stages:
                # sep1 keeps the preprocessing conv's context, not its output
                t, ctx = lyr.forward(t, saved[-1]) if name == "sep1" else lyr.forward(t)
                saved.append(ctx)
            self._ctx = (saved, t.shape)
            return t
        body, head = stages[: len(self.stages) - 1], stages[len(self.stages) - 1 :]
        x = images.array
        empty = _eval_stages(x[:0], body)
        out = np.empty((len(x), *empty.shape[1:]), dtype=empty.dtype)

        def run(i: int) -> None:
            out[i : i + 1] = _eval_stages(x[i : i + 1], body)

        with ThreadPoolExecutor(nnops.WORKERS) as pool:  # its exit waits for every image
            list(pool.map(run, range(len(x))))  # raises the first failed image's exception
        t = Tensor(out)
        for _, lyr in head:
            t = lyr.forward(t)[0]
        return t

    def forward(self, images: Tensor, mode: str = "train") -> Tensor:
        """Class logits [N, 2]. A train forward saves the context consumed
        by backward; an eval forward saves none."""
        return self._run(images, mode, self.stages)

    def backward(self, grad_logits: Tensor) -> "OrderedDict[str, Tensor]":
        """Parameter gradients keyed and ordered like :meth:`parameters`,
        from the saved forward context. The stages run in reverse until
        every trainable parameter has its gradient, so frozen preprocessing
        kernels cost no backward. Each stage's gradient tuple is paired with
        its PARAM rows of the table, in table order.

        The backward consumes the saved context: it is cleared before the
        first stage runs, and each stage's context is dropped once that
        stage's backward has run, so its maps are freed as it goes. Each
        stage may write over the gradient the stage after it returned, and
        over the maps in its context; ``grad_logits`` is only read. sep1's
        backward rebuilds its input from the preprocessing stage's context,
        which is still saved then, since that stage runs after it or, with
        frozen kernels, not at all. A second backward needs another train
        forward, and raises ContractError without one."""
        if self._ctx is None:
            raise ContractError(
                "backward called with no saved forward context; only a train-mode "
                "forward saves one, and a backward consumes it"
            )
        saved, logits_shape = self._ctx
        if not isinstance(grad_logits, Tensor) or grad_logits.shape != logits_shape:
            raise ShapeError(
                f"grad_logits must be a Tensor of shape {logits_shape}"
            )
        self._ctx = None
        params = self.parameters()
        grads: dict[str, Tensor] = {}
        g = grad_logits
        for stage, lyr in reversed(self.stages):
            if params.keys() <= grads.keys():
                break
            g, stage_grads = lyr.backward(g, saved.pop())  # the context goes when it returns
            names = [n for n, e in self.table.items() if e.kind == PARAM and e.stage == stage]
            grads.update(zip(names, stage_grads, strict=True))
        return OrderedDict((name, grads[name]) for name in params)

    def dump_feature_maps(self, images: Tensor, stage: str) -> Tensor:
        """Eval-mode output of one named stage; the stages after it do not
        run. The head's output is the logits, not a feature map."""
        names = [name for name, _ in self.stages[:-1]]
        if stage not in names:
            raise SpecError(f"unknown stage {stage!r}; valid stages: {', '.join(names)}")
        return self._run(images, "eval", self.stages[: names.index(stage) + 1])


def _eval_stages(x: np.ndarray, stages: list) -> np.ndarray:
    """``stages`` in eval mode on ``x``; no stage keeps its context."""
    t = Tensor(x)
    for _, lyr in stages:
        t = lyr.forward(t)[0]
    return t.array


def _xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                    fan_in: int, fan_out: int, dt: np.dtype) -> np.ndarray:
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(dt)


def _config_rows(activation_mode: str, srm_trainable: bool) -> list[tuple[str, list]]:
    """The config rows of one model setting, in table order; the last three
    fix the architecture."""
    return [("config.activation_mode", [float(ACTIVATION_MODES.index(activation_mode))]),
            ("config.srm_trainable", [float(srm_trainable)]),
            ("config.spp_levels", [float(n) for n in SPP_LEVELS]),
            ("config.bn_momentum", [BN_MOMENTUM]),
            ("config.bn_eps", [BN_EPS])]


def _assemble(config: ModelConfig, value) -> ZhuNetModel:
    """The one construction routine, and the one place the stage order and
    every tensor's name are written. ``value(name, shape, init)`` gives the
    array of each state-table tensor: build_model returns ``init()``,
    deserialize_model the checkpoint's array. Each tensor gets its table
    row as it is asked for: the preprocessing kernels take the plain step
    unless the config freezes them, every other parameter momentum and
    weight decay, buffers and config rows no update. The tensors are asked
    for in a fixed order, so build_model's random draws are too. Only the
    kernels' ``init`` builds the filter bank, once for both."""
    dt = DTYPES[config.dtype]
    rng = np.random.Generator(np.random.PCG64(config.seed))
    rows: dict[str, list] = {PARAM: [], BUFFER: [], CONFIG: []}

    def tensor(stage: str, name: str, shape: tuple[int, ...], init,
               kind: str = PARAM, rule: str = MOMENTUM) -> Tensor:
        t = Tensor(value(name, shape, init))
        rows[kind].append((name, Entry(t, kind, rule if kind == PARAM else FROZEN, stage)))
        return t

    def xavier(stage: str, name: str, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Tensor:
        return tensor(stage, name, shape, lambda: _xavier_uniform(rng, shape, fan_in, fan_out, dt))

    def batchnorm(stage: str, name: str, c: int) -> nnops.BatchNormState:
        def stat(key: str, fill: float, kind: str = PARAM) -> np.ndarray:
            return tensor(stage, f"{name}.{key}", (c,), lambda: np.full(c, fill, dtype=dt),
                          kind).array

        return nnops.BatchNormState(
            gamma=stat("gamma", 1), beta=stat("beta", 0),
            running_mean=stat("running_mean", 0, BUFFER),
            running_var=stat("running_var", 1, BUFFER),
            momentum=BN_MOMENTUM, eps=BN_EPS,
        )

    initial = functools.cache(lambda: srm.PreprocessingLayer.build(config.dtype))
    pre_rule = PLAIN if config.srm_trainable else FROZEN
    pre = srm.PreprocessingLayer(
        tensor("preprocessing", "pre.kernels3", (srm.EMBED3X3_COUNT, 1, 3, 3),
               lambda: initial().kernels3.array, rule=pre_rule),
        tensor("preprocessing", "pre.kernels5", (srm.KEEP5X5_COUNT, 1, 5, 5),
               lambda: initial().kernels5.array, rule=pre_rule))
    c0 = pre.out_channels

    def sepconv(name: str, has_abs: bool) -> tuple[str, SepconvBlock]:
        return name, SepconvBlock(
            pw_w=xavier(name, f"{name}.pw.w", (c0, c0, 1, 1), c0, c0),
            bn_pw=batchnorm(name, f"{name}.bn_pw", c0),
            dw_w=xavier(name, f"{name}.dw.w", (c0, 1, 3, 3), 9, c0 * 9),
            bn_dw=batchnorm(name, f"{name}.bn_dw", c0),
            has_abs=has_abs,
        )

    stages = [("preprocessing", pre), sepconv("sep1", True), sepconv("sep2", False)]
    cin = c0
    for i, cout in enumerate(CHANNELS, start=1):
        name = f"block{i}"
        stages.append((name, BasicBlock(
            conv_w=xavier(name, f"{name}.conv.w", (cout, cin, 3, 3), cin * 9, cout * 9),
            bn=batchnorm(name, f"{name}.bn", cout),
            pool=i <= 3,
            mode=config.activation_mode,
        )))
        cin = cout

    feat_dim, hidden = CHANNELS[-1] * sum(n * n for n in SPP_LEVELS), FC_HIDDEN
    stages.append(("head", Head(
        fc1_w=xavier("head", "fc1.w", (feat_dim, hidden), feat_dim, hidden),
        fc1_b=tensor("head", "fc1.b", (hidden,), lambda: np.zeros(hidden, dtype=dt)),
        fc2_w=xavier("head", "fc2.w", (hidden, 2), hidden, 2),
        fc2_b=tensor("head", "fc2.b", (2,), lambda: np.zeros(2, dtype=dt)),
    )))
    for name, values in _config_rows(config.activation_mode, config.srm_trainable):
        rows[CONFIG].append((name, Entry(Tensor(np.array(values, dtype=np.float64)), CONFIG)))
    table = OrderedDict(rows[PARAM] + rows[BUFFER] + rows[CONFIG])
    return ZhuNetModel(config=config, stages=stages, table=table)


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
    UTF-8 name (u16 length), dtype code (u8, its position in ``DTYPES``),
    rank (u8), u32 dims, and the raw little-endian values."""
    state = model.state_tensors()
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(state))]
    for name, t in state.items():
        nameb = name.encode("utf-8")
        arr = t.array
        parts.append(struct.pack("<H", len(nameb)))
        parts.append(nameb)
        parts.append(struct.pack("<BB", list(DTYPES).index(t.dtype), arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype=DTYPES[t.dtype]).tobytes())
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
        if code >= len(DTYPES):
            raise FormatError(f"unknown dtype code {code} for tensor {name!r}", offset=code_off)
        dims = r.unpack(f"<{rank}I", f"dims of {name!r}") if rank else ()
        n_values = 1
        for d in dims:
            n_values *= d
        dtype = list(DTYPES.values())[code]
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


def _read_config(table) -> tuple[str, bool]:
    """The (activation mode, srm_trainable) setting whose config rows equal
    the checkpoint's, row by row; a row that no setting writes is a
    FormatError that names it."""
    settings = [(mode, trainable) for mode in ACTIVATION_MODES for trainable in (True, False)]
    for i, (name, _) in enumerate(_config_rows(*settings[0])):
        got = _need(table, name).tolist()
        left = [s for s in settings if _config_rows(*s)[i][1] == got]
        if not left:
            expected = sorted({str(_config_rows(*s)[i][1]) for s in settings})
            raise FormatError(f"{name} must be {' or '.join(expected)}, got {got}")
        settings = left
    return settings[0]


def deserialize_model(data: bytes) -> ZhuNetModel:
    """Rebuild a model from checkpoint bytes (see serialize_model)."""
    table = _read_tensor_table(data)
    mode, srm_trainable = _read_config(table)
    fc1 = Tensor(_need(table, "fc1.w"))
    config = ModelConfig(activation_mode=mode, srm_trainable=srm_trainable, dtype=fc1.dtype)

    def value(name: str, shape: tuple[int, ...], init) -> np.ndarray:
        array = _need(table, name)
        if array.shape != shape:
            raise FormatError(
                f"checkpoint tensor {name!r} has shape {array.shape}, expected {shape}"
            )
        if array.dtype != fc1.array.dtype:
            raise FormatError(f"checkpoint tensor {name!r} is {array.dtype.name}, "
                              f"but fc1.w is {fc1.array.dtype.name}")
        return array

    model = _assemble(config, value)
    for name in table:
        if name not in model.table:
            raise FormatError(f"checkpoint has an unexpected tensor {name!r}")
    return model


def load_checkpoint(path) -> ZhuNetModel:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
