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
4. spatial pyramid pooling over levels (4, 2, 1): 21 bins x 128 channels =
   a fixed 2688-length descriptor regardless of input size;
5. fully connected head 2688 -> 1024 -> 2 (ReLU between), softmax scores.

``activation_mode`` selects ReLU (default) or TLU with threshold 3 for the
four basic-block activations. Convolutions carry no bias (batchnorm follows
every one); the linear layers carry bias.

Checkpoints are a single binary table: magic "ZNET", format version, and
every named tensor (weights, batchnorm affine + running statistics, and the
config scalars such as the activation mode) with explicit dtype and shape,
little-endian. A round trip restores bit-identical behaviour.
"""
from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass, field
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


def _act(x: Tensor, mode: str) -> Tensor:
    return nnops.relu(x) if mode == "relu" else nnops.tlu(x, TLU_THRESHOLD)


def _act_backward(up: Tensor, x: Tensor, mode: str) -> Tensor:
    if mode == "relu":
        return nnops.relu_backward(up, x)
    return nnops.tlu_backward(up, x, TLU_THRESHOLD)


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
        out = Tensor(t.array + x.array)  # identity skip
        ctx = {"pw": pw_ctx, "abs_in": abs_in, "bn1": bn1_ctx, "dw": dw_ctx, "bn2": bn2_ctx}
        return out, ctx

    def backward(self, up: Tensor, ctx: dict) -> tuple[Tensor, dict]:
        g, g_gamma2, g_beta2 = nnops.batchnorm_backward(up, ctx["bn2"])
        g, g_dw, _ = nnops.conv2d_backward(g, ctx["dw"])
        g, g_gamma1, g_beta1 = nnops.batchnorm_backward(g, ctx["bn1"])
        if self.has_abs:
            g = nnops.abs_backward(g, ctx["abs_in"])
        g, g_pw, _ = nnops.conv2d_backward(g, ctx["pw"])
        grad_x = Tensor(g.array + up.array)  # skip path
        grads = {
            "pw.w": g_pw,
            "bn_pw.gamma": g_gamma1,
            "bn_pw.beta": g_beta1,
            "dw.w": g_dw,
            "bn_dw.gamma": g_gamma2,
            "bn_dw.beta": g_beta2,
        }
        return grad_x, grads


@dataclass
class BasicBlock:
    """3x3 conv -> batchnorm -> activation (-> average pool for the first
    three blocks: win 5, stride 2, pad 2, pad zeros count in the mean)."""

    conv_w: Tensor  # [Cout, Cin, 3, 3]
    bn: nnops.BatchNormState
    pool: bool

    POOL_WIN = 5
    POOL_STRIDE = 2
    POOL_PAD = 2

    def forward(self, x: Tensor, mode: str) -> tuple[Tensor, dict]:
        cout, cin = self.conv_w.shape[0], self.conv_w.shape[1]
        spec = nnops.Conv2dSpec(cin, cout, 3, 3, padding=1)
        t, conv_ctx = nnops.conv2d_forward(x, self.conv_w, None, spec)
        t, bn_ctx = nnops.batchnorm_forward(t, self.bn)
        act_in = t
        t = _act(t, mode)
        pool_ctx = None
        if self.pool:
            t, pool_ctx = nnops.avg_pool(t, self.POOL_WIN, self.POOL_STRIDE, self.POOL_PAD)
        ctx = {"conv": conv_ctx, "bn": bn_ctx, "act_in": act_in, "pool": pool_ctx, "mode": mode}
        return t, ctx

    def backward(self, up: Tensor, ctx: dict) -> tuple[Tensor, dict]:
        g = up
        if ctx["pool"] is not None:
            g = nnops.avg_pool_backward(g, ctx["pool"])
        g = _act_backward(g, ctx["act_in"], ctx["mode"])
        g, g_gamma, g_beta = nnops.batchnorm_backward(g, ctx["bn"])
        g, g_w, _ = nnops.conv2d_backward(g, ctx["conv"])
        return g, {"conv.w": g_w, "bn.gamma": g_gamma, "bn.beta": g_beta}


@dataclass
class _ForwardContext:
    pre: srm.PreprocessContext
    sep1: dict
    sep2: dict
    blocks: list
    spp: nnops.SppContext
    fc1: nnops.LinearContext
    fc1_act_in: Tensor
    fc2: nnops.LinearContext
    logits_shape: tuple[int, ...]


@dataclass
class ZhuNetModel:
    """The assembled network. Parameters live in the layer objects; the
    named views returned by :meth:`parameters` / :meth:`state_tensors` share
    their storage, so in-place updates through them stick."""

    config: ModelConfig
    pre: srm.PreprocessingLayer
    sep1: SepconvBlock
    sep2: SepconvBlock
    blocks: list[BasicBlock]
    spp: nnops.SppConfig
    fc1_w: Tensor
    fc1_b: Tensor
    fc2_w: Tensor
    fc2_b: Tensor
    _ctx: Optional[_ForwardContext] = field(default=None, repr=False)

    # -- parameter tables ---------------------------------------------------

    def _bn_states(self) -> list[tuple[str, nnops.BatchNormState]]:
        named = [
            ("sep1.bn_pw", self.sep1.bn_pw),
            ("sep1.bn_dw", self.sep1.bn_dw),
            ("sep2.bn_pw", self.sep2.bn_pw),
            ("sep2.bn_dw", self.sep2.bn_dw),
        ]
        for i, blk in enumerate(self.blocks, start=1):
            named.append((f"block{i}.bn", blk.bn))
        return named

    def parameters(self) -> "OrderedDict[str, Tensor]":
        """Trainable parameters by name. The preprocessing kernels appear
        only while the preprocessing layer is trainable."""
        params: "OrderedDict[str, Tensor]" = OrderedDict()
        if self.pre.trainable:
            params["pre.kernels3"] = self.pre.kernels3
            params["pre.kernels5"] = self.pre.kernels5
        for name, sep in (("sep1", self.sep1), ("sep2", self.sep2)):
            params[f"{name}.pw.w"] = sep.pw_w
            params[f"{name}.bn_pw.gamma"] = Tensor(sep.bn_pw.gamma)
            params[f"{name}.bn_pw.beta"] = Tensor(sep.bn_pw.beta)
            params[f"{name}.dw.w"] = sep.dw_w
            params[f"{name}.bn_dw.gamma"] = Tensor(sep.bn_dw.gamma)
            params[f"{name}.bn_dw.beta"] = Tensor(sep.bn_dw.beta)
        for i, blk in enumerate(self.blocks, start=1):
            params[f"block{i}.conv.w"] = blk.conv_w
            params[f"block{i}.bn.gamma"] = Tensor(blk.bn.gamma)
            params[f"block{i}.bn.beta"] = Tensor(blk.bn.beta)
        params["fc1.w"] = self.fc1_w
        params["fc1.b"] = self.fc1_b
        params["fc2.w"] = self.fc2_w
        params["fc2.b"] = self.fc2_b
        return params

    def num_parameters(self) -> int:
        """Total trainable scalar count (includes the 350 preprocessing
        coefficients unless the layer is frozen)."""
        return sum(t.size for t in self.parameters().values())

    def state_tensors(self) -> "OrderedDict[str, Tensor]":
        """Everything a checkpoint stores: all parameters (frozen or not),
        the batchnorm running statistics, and the config scalars."""
        state: "OrderedDict[str, Tensor]" = OrderedDict()
        state["pre.kernels3"] = self.pre.kernels3
        state["pre.kernels5"] = self.pre.kernels5
        was_trainable = self.pre.trainable
        try:
            self.pre.trainable = False  # avoid duplicating the two entries above
            for name, t in self.parameters().items():
                state[name] = t
        finally:
            self.pre.trainable = was_trainable
        for name, bn in self._bn_states():
            state[f"{name}.running_mean"] = Tensor(bn.running_mean)
            state[f"{name}.running_var"] = Tensor(bn.running_var)
        state["config.activation_mode"] = Tensor(
            np.array([float(ACTIVATION_MODES.index(self.config.activation_mode))])
        )
        state["config.srm_trainable"] = Tensor(np.array([float(self.pre.trainable)]))
        state["config.spp_levels"] = Tensor(np.array([float(n) for n in self.spp.levels]))
        state["config.bn_momentum"] = Tensor(np.array([float(self.sep1.bn_pw.momentum)]))
        state["config.bn_eps"] = Tensor(np.array([float(self.sep1.bn_pw.eps)]))
        return state

    # -- running the network --------------------------------------------------

    def _check_admissible(self, images: Tensor) -> int:
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
        if a < max(self.spp.levels):
            raise DataError(
                f"input {h}x{w} is inadmissible: the pyramid stage would get a "
                f"{a}x{a} map, smaller than pyramid level {max(self.spp.levels)}; "
                f"square inputs of at least {MIN_INPUT_SIZE}x{MIN_INPUT_SIZE} are required"
            )
        return a

    def _set_bn_mode(self, mode: str) -> None:
        for _, bn in self._bn_states():
            bn.mode = mode

    def _run(self, images: Tensor, mode: str, record: bool) -> tuple[Tensor, dict]:
        if mode not in ("train", "eval"):
            raise SpecError(f"forward mode must be 'train' or 'eval', got {mode!r}")
        self._check_admissible(images)
        self._set_bn_mode(mode)
        # Only a train forward keeps the backward contexts; an eval forward
        # drops each one as soon as its layer returns, and leaves no context
        # for a backward to reuse.
        self._ctx = None
        keep = mode == "train"
        saved: dict = {}
        stages: dict[str, Tensor] = {}

        def run(name: str, result: tuple) -> Tensor:
            out, ctx = result
            if keep:
                saved[name] = ctx
            if record and name in STAGES:
                stages[name] = out
            return out

        t = run("preprocessing", srm.preprocess_forward(images, self.pre))
        t = run("sep1", self.sep1.forward(t))
        t = run("sep2", self.sep2.forward(t))
        for i, blk in enumerate(self.blocks, start=1):
            t = run(f"block{i}", blk.forward(t, self.config.activation_mode))

        feat = run("spp", nnops.spp_forward(t, self.spp))
        h1 = run("fc1", nnops.linear_forward(feat, self.fc1_w, self.fc1_b))
        logits = run("fc2", nnops.linear_forward(nnops.relu(h1), self.fc2_w, self.fc2_b))

        if keep:
            self._ctx = _ForwardContext(
                pre=saved["preprocessing"],
                sep1=saved["sep1"],
                sep2=saved["sep2"],
                blocks=[saved[f"block{i}"] for i in range(1, len(self.blocks) + 1)],
                spp=saved["spp"],
                fc1=saved["fc1"],
                fc1_act_in=h1,
                fc2=saved["fc2"],
                logits_shape=logits.shape,
            )
        return logits, stages

    def forward(self, images: Tensor, mode: str = "train") -> Tensor:
        """Class logits [N, 2]. A train forward saves the context consumed
        by backward; an eval forward saves none."""
        logits, _ = self._run(images, mode, record=False)
        return logits

    def backward(self, grad_logits: Tensor) -> "OrderedDict[str, Tensor]":
        """Parameter gradients keyed like :meth:`parameters`, from the saved
        forward context. The preprocessing kernel gradients are present only
        while the preprocessing layer is trainable."""
        ctx = self._ctx
        if ctx is None:
            raise ContractError(
                "backward called with no saved forward context; only a train-mode "
                "forward saves one"
            )
        if not isinstance(grad_logits, Tensor) or grad_logits.shape != ctx.logits_shape:
            raise ShapeError(
                f"grad_logits must be a Tensor of shape {ctx.logits_shape}"
            )

        grads: "OrderedDict[str, Tensor]" = OrderedDict()
        g, gw2, gb2 = nnops.linear_backward(grad_logits, ctx.fc2)
        g = nnops.relu_backward(g, ctx.fc1_act_in)
        g, gw1, gb1 = nnops.linear_backward(g, ctx.fc1)
        g = nnops.spp_backward(g, ctx.spp)
        for i in range(len(self.blocks) - 1, -1, -1):
            g, bgrads = self.blocks[i].backward(g, ctx.blocks[i])
            for k, v in bgrads.items():
                grads[f"block{i + 1}.{k}"] = v
        g, s2grads = self.sep2.backward(g, ctx.sep2)
        for k, v in s2grads.items():
            grads[f"sep2.{k}"] = v
        g, s1grads = self.sep1.backward(g, ctx.sep1)
        for k, v in s1grads.items():
            grads[f"sep1.{k}"] = v
        _, gk3, gk5 = srm.preprocess_backward(g, ctx.pre, image_grad=False)
        if self.pre.trainable:
            grads["pre.kernels3"] = gk3
            grads["pre.kernels5"] = gk5
        grads["fc1.w"] = gw1
        grads["fc1.b"] = gb1
        grads["fc2.w"] = gw2
        grads["fc2.b"] = gb2

        ordered = OrderedDict()
        for name in self.parameters():
            ordered[name] = grads[name]
        return ordered

    def dump_feature_maps(self, images: Tensor, stage: str) -> Tensor:
        """Eval-mode intermediate activation for one named stage."""
        if stage not in STAGES:
            raise SpecError(f"unknown stage {stage!r}; valid stages: {', '.join(STAGES)}")
        _, stages = self._run(images, "eval", record=True)
        return stages[stage]


def dump_feature_maps(model: ZhuNetModel, images: Tensor, stage: str) -> Tensor:
    """Eval-mode intermediate activation of ``stage`` for a batch of images."""
    return model.dump_feature_maps(images, stage)


def _xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                    fan_in: int, fan_out: int, dt: np.dtype) -> np.ndarray:
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(dt)


def build_model(config: ModelConfig = ModelConfig()) -> ZhuNetModel:
    """Deterministic construction: same config (seed included) gives
    bit-identical parameters. Conv/linear weights are Xavier-uniform with
    fan averaging; linear biases start at zero, batchnorm at gamma=1,
    beta=0; the preprocessing kernels start at the filter-bank values."""
    config.validate()
    dt = DTYPES[config.dtype]
    rng = np.random.Generator(np.random.PCG64(config.seed))

    pre = srm.PreprocessingLayer.build(dtype=config.dtype, trainable=config.srm_trainable)
    c0 = pre.out_channels

    def sepconv(has_abs: bool) -> SepconvBlock:
        pw = _xavier_uniform(rng, (c0, c0, 1, 1), c0, c0, dt)
        dw = _xavier_uniform(rng, (c0, 1, 3, 3), 9, c0 * 9, dt)
        return SepconvBlock(
            pw_w=Tensor(pw),
            bn_pw=nnops.BatchNormState.create(c0, config.dtype),
            dw_w=Tensor(dw),
            bn_dw=nnops.BatchNormState.create(c0, config.dtype),
            has_abs=has_abs,
        )

    sep1 = sepconv(has_abs=True)
    sep2 = sepconv(has_abs=False)

    blocks = []
    cin = c0
    for i, cout in enumerate(config.channels):
        w = _xavier_uniform(rng, (cout, cin, 3, 3), cin * 9, cout * 9, dt)
        blocks.append(
            BasicBlock(
                conv_w=Tensor(w),
                bn=nnops.BatchNormState.create(cout, config.dtype),
                pool=(i < 3),
            )
        )
        cin = cout

    spp_cfg = nnops.SppConfig(tuple(config.spp_levels))
    feat_dim = config.channels[-1] * spp_cfg.bins
    fc1_w = _xavier_uniform(rng, (feat_dim, config.fc_hidden), feat_dim, config.fc_hidden, dt)
    fc2_w = _xavier_uniform(rng, (config.fc_hidden, 2), config.fc_hidden, 2, dt)

    return ZhuNetModel(
        config=config,
        pre=pre,
        sep1=sep1,
        sep2=sep2,
        blocks=blocks,
        spp=spp_cfg,
        fc1_w=Tensor(fc1_w),
        fc1_b=Tensor(np.zeros(config.fc_hidden, dtype=dt)),
        fc2_w=Tensor(fc2_w),
        fc2_b=Tensor(np.zeros(2, dtype=dt)),
    )


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


def _config_scalar(table, name: str) -> float:
    if name not in table:
        raise FormatError(f"checkpoint is missing the {name!r} entry")
    return float(table[name].reshape(-1)[0])


def deserialize_model(data: bytes) -> ZhuNetModel:
    """Rebuild a model from checkpoint bytes (see serialize_model)."""
    table = _read_tensor_table(data)

    mode_idx = int(_config_scalar(table, "config.activation_mode"))
    if mode_idx not in range(len(ACTIVATION_MODES)):
        raise FormatError(f"invalid activation-mode flag {mode_idx}")
    srm_trainable = bool(_config_scalar(table, "config.srm_trainable"))
    if "config.spp_levels" not in table:
        raise FormatError("checkpoint is missing the 'config.spp_levels' entry")
    levels = tuple(int(v) for v in table["config.spp_levels"].reshape(-1))
    momentum = _config_scalar(table, "config.bn_momentum")
    eps = _config_scalar(table, "config.bn_eps")

    def need(name: str) -> np.ndarray:
        if name not in table:
            raise FormatError(f"checkpoint is missing the {name!r} entry")
        return table[name]

    fc1_w = need("fc1.w")
    dtype = "f32" if fc1_w.dtype == np.float32 else "f64"
    channels = tuple(int(need(f"block{i}.conv.w").shape[0]) for i in range(1, 5))
    config = ModelConfig(
        activation_mode=ACTIVATION_MODES[mode_idx],
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
    model = build_model(config)
    for name, bn in model._bn_states():
        bn.momentum = momentum
        bn.eps = eps

    expected = model.state_tensors()
    for name in table:
        if name not in expected:
            raise FormatError(f"checkpoint has an unexpected tensor {name!r}")
    for name, tensor in expected.items():
        if name.startswith("config."):
            continue
        value = need(name)
        if value.shape != tensor.array.shape:
            raise FormatError(
                f"checkpoint tensor {name!r} has shape {value.shape}, "
                f"expected {tensor.array.shape}"
            )
        np.copyto(tensor.array, value.astype(tensor.array.dtype, copy=False))
    return model


def load_checkpoint(path) -> ZhuNetModel:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
