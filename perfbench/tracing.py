"""Span tracer that wraps stegnet's public functions from outside the package.

Each wrapped call records a span ``[name, start_ns, end_ns, parent, batch,
work]``: ``parent`` is the index of the enclosing span (-1 at top level),
``batch`` the id of the batch being processed (None between batches) and
``work`` the computed FLOPs or bytes of an nnops call (0 elsewhere). Spans
stay in memory until :meth:`Tracer.write` dumps them as JSON lines.

Every function is patched at the name its caller looks up: zhunet and srm
call ``nnops.*`` and ``srm.*`` through module attributes, the block methods
live on their classes, and train binds ``make_batches``, ``eval_batches``,
``softmax_xent``, ``sgd_step`` and ``evaluate`` by name in its own module.
The wrappers only time the calls, so traced results equal untraced ones.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import statistics
import time

import numpy as np

from stegnet import data, nnops, srm, train, zhunet
from stegnet.tensor import Tensor

STAGES = ("sep1", "sep2", "block1", "block2", "block3", "block4")
CONV_KINDS = ("pointwise", "depthwise", "dense", "srm")
# Layers whose spans count as attributed model work inside a step.
MODEL_LAYERS = ("zhunet", "srm", "nnops")
MIB = float(1 << 20)
_clock = time.perf_counter_ns


def _metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in output order."""
    specs = []
    for stage in STAGES:
        for d in ("fwd", "bwd"):
            specs.append((f"zhunet.{stage}.{d}_ms", "ms", "lower"))
    for d in ("fwd", "bwd"):
        specs.append((f"srm.preprocess.{d}_ms", "ms", "lower"))
    for kind in CONV_KINDS:
        for d in ("fwd", "bwd"):
            specs.append((f"nnops.conv2d.{kind}.{d}_ms", "ms", "lower"))
            specs.append((f"nnops.conv2d.{kind}.{d}.gflop_per_s", "GFLOP/s", "higher"))
        specs.append((f"nnops.conv2d.{kind}.calls", "count", "lower"))
    for op in ("batchnorm", "avg_pool"):
        for d in ("fwd", "bwd"):
            specs.append((f"nnops.{op}.{d}_ms", "ms", "lower"))
            specs.append((f"nnops.{op}.{d}.gb_per_s", "GB/s", "higher"))
    for op in ("act", "spp", "linear"):
        for d in ("fwd", "bwd"):
            specs.append((f"nnops.{op}.{d}_ms", "ms", "lower"))
    specs += [
        ("nnops.softmax_xent_ms", "ms", "lower"),
        ("nnops.calls", "count", "lower"),
        ("nnops.ctx_saved_mb", "MB", "lower"),
        ("train.step_ms.p50", "ms", "lower"),
        ("train.step_ms.tail", "ms", "lower"),
        ("train.step_ms.tail_pct", "pct", "higher"),
        ("train.step_ms.samples", "count", "higher"),
        ("train.sgd_step_ms", "ms", "lower"),
        ("train.batch_wait_ms", "ms", "lower"),
        ("train.validation_s", "s", "lower"),
        ("data.embed_s", "s", "lower"),
        ("data.load_manifest_s", "s", "lower"),
        ("data.images_decoded", "count", "lower"),
        ("data.apply_dihedral8_s", "s", "lower"),
        ("data.dataset_mb", "MB", "lower"),
        ("zhunet.serialize_ms", "ms", "lower"),
        ("zhunet.checkpoint_bytes", "bytes", "lower"),
        ("zhunet.load_checkpoint_ms", "ms", "lower"),
        ("trace.throughput_ratio", "ratio", "higher"),
        ("trace.stage_coverage", "ratio", "higher"),
    ]
    return specs


METRIC_SPECS = _metric_specs()


# ---------------------------------------------------------------------------
# computed work per call
# ---------------------------------------------------------------------------

def conv_kind(spec: nnops.Conv2dSpec) -> str:
    if spec.kernel_h == 1 and spec.kernel_w == 1:
        return "pointwise"
    if spec.groups == spec.in_channels > 1:
        return "depthwise"
    if spec.in_channels == 1:
        return "srm"
    return "dense"


def conv_flops(spec: nnops.Conv2dSpec, out_shape) -> float:
    """Multiply-adds of the forward pass, counted as two FLOPs each."""
    n, cout, oh, ow = out_shape
    taps = (spec.in_channels // spec.groups) * spec.kernel_h * spec.kernel_w
    return 2.0 * n * cout * oh * ow * taps


def _conv_fwd(inp, weights, bias, spec):
    oh, ow = spec.output_size(inp.shape[2], inp.shape[3])
    flops = conv_flops(spec, (inp.shape[0], spec.out_channels, oh, ow))
    return f"nnops.conv2d.{conv_kind(spec)}.fwd", flops


def _conv_bwd(upstream, ctx):
    kind = conv_kind(ctx.spec)
    # the weight gradient and the input gradient each cost one forward; the
    # preprocessing input gradient feeds nothing, so only the weight one counts
    passes = 1.0 if kind == "srm" else 2.0
    return f"nnops.conv2d.{kind}.bwd", passes * conv_flops(ctx.spec, ctx.out_shape)


def _bn_fwd(inp, state):
    # train: statistics pass reads x; normalize pass reads x, writes y
    passes = 3 if state.mode == "train" else 2
    return "nnops.batchnorm.fwd", float(passes * inp.array.nbytes)


def _bn_bwd(upstream, ctx):
    # reduction pass reads up and xhat; apply pass reads up (+ xhat) and writes dx
    passes = 5 if ctx.mode == "train" else 4
    return "nnops.batchnorm.bwd", float(passes * upstream.array.nbytes)


def _pool_fwd(inp, win, stride, padding=0):
    hp, wp = inp.shape[2] + 2 * padding, inp.shape[3] + 2 * padding
    out = inp.shape[0] * inp.shape[1] * ((hp - win) // stride + 1) * ((wp - win) // stride + 1)
    return "nnops.avg_pool.fwd", float(inp.array.nbytes + out * inp.array.itemsize)


def _pool_bwd(upstream, ctx):
    n, c, h, w = ctx.in_shape
    return "nnops.avg_pool.bwd", float(upstream.array.nbytes + n * c * h * w * upstream.array.itemsize)


def _named(name: str):
    return lambda *args, **kwargs: (name, 0.0)


def _array_roots(obj, roots: dict, seen: set) -> None:
    """Collect the base buffers of every ndarray reachable from obj."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        base = obj
        while isinstance(base.base, np.ndarray):
            base = base.base
        roots[id(base)] = base.nbytes
    elif isinstance(obj, Tensor):
        _array_roots(obj.array, roots, seen)
    elif isinstance(obj, dict):
        for v in obj.values():
            _array_roots(v, roots, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _array_roots(v, roots, seen)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _array_roots(getattr(obj, f.name), roots, seen)


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.batch: int | None = None
        self._batches = 0
        self.batch_kind: dict[int, str] = {}
        self.stage_of: dict[int, str] = {}
        self.ctx_bytes: dict[int, int] = {}
        self.nonfinite_batches: set[int] = set()
        self._ctxs: list = []
        self._param_roots: set[int] = set()

    # -- span recording --------------------------------------------------------

    def begin(self, name: str, work: float = 0.0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0, parent, self.batch, work])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def bind_model(self, model) -> None:
        """Name the stage blocks of a freshly built or loaded model and note
        which buffers are parameters, so contexts are not charged for them."""
        self.stage_of = {id(model.sep1): "sep1", id(model.sep2): "sep2"}
        for i, blk in enumerate(model.blocks, start=1):
            self.stage_of[id(blk)] = f"block{i}"
        roots: dict = {}
        _array_roots(list(model.state_tensors().values()), roots, set())
        self._param_roots = set(roots)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, label, keep_ctx: bool = False):
        def traced(*args, **kwargs):
            name, work = label(*args, **kwargs)
            idx = self.begin(name, work)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if keep_ctx:
                self._ctxs.append(out[1])
            return out
        return traced

    def _wrap_block(self, fn, direction: str, keep_ctx: bool):
        def label(blk, *args, **kwargs):
            return f"zhunet.{self.stage_of.get(id(blk), 'unbound')}.{direction}", 0.0
        return self._wrap(fn, label, keep_ctx)

    def _wrap_batches(self, fn, kind: str):
        name = f"train.{fn.__name__}"

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._batches += 1
                self.batch = self._batches
                self.batch_kind[self.batch] = kind
                idx = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    self.batch = None
                    return
                finally:
                    self.end(idx)
                yield item
        return traced

    def _wrap_forward(self, fn):
        def traced(model, images, mode="train"):
            self._ctxs = []
            idx = self.begin("model.forward")
            try:
                logits = fn(model, images, mode)
            finally:
                self.end(idx)
            roots: dict = {}
            _array_roots(self._ctxs, roots, set())
            self._ctxs = []
            held = sum(b for r, b in roots.items() if r not in self._param_roots)
            if self.batch is not None:
                self.ctx_bytes[self.batch] = held
                if not np.all(np.isfinite(logits.array)):
                    self.nonfinite_batches.add(self.batch)
            return logits
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block."""
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        w = self._wrap
        for attr, label, keep in (
            ("conv2d_forward", _conv_fwd, True),
            ("conv2d_backward", _conv_bwd, False),
            ("batchnorm_forward", _bn_fwd, True),
            ("batchnorm_backward", _bn_bwd, False),
            ("avg_pool", _pool_fwd, True),
            ("avg_pool_backward", _pool_bwd, False),
            ("relu", _named("nnops.act.fwd"), False),
            ("tlu", _named("nnops.act.fwd"), False),
            ("abs_act", _named("nnops.act.fwd"), False),
            ("relu_backward", _named("nnops.act.bwd"), False),
            ("tlu_backward", _named("nnops.act.bwd"), False),
            ("abs_backward", _named("nnops.act.bwd"), False),
            ("spp_forward", _named("nnops.spp.fwd"), True),
            ("spp_backward", _named("nnops.spp.bwd"), False),
            ("linear_forward", _named("nnops.linear.fwd"), True),
            ("linear_backward", _named("nnops.linear.bwd"), False),
        ):
            patch(nnops, attr, w(getattr(nnops, attr), label, keep))
        patch(srm, "preprocess_forward",
              w(srm.preprocess_forward, _named("srm.preprocess.fwd"), True))
        patch(srm, "preprocess_backward",
              w(srm.preprocess_backward, _named("srm.preprocess.bwd")))
        for cls in (zhunet.SepconvBlock, zhunet.BasicBlock):
            patch(cls, "forward", self._wrap_block(cls.forward, "fwd", True))
            patch(cls, "backward", self._wrap_block(cls.backward, "bwd", False))
        patch(zhunet.ZhuNetModel, "forward", self._wrap_forward(zhunet.ZhuNetModel.forward))
        patch(zhunet.ZhuNetModel, "backward",
              w(zhunet.ZhuNetModel.backward, _named("model.backward")))
        for attr in ("serialize_model", "load_checkpoint"):
            patch(zhunet, attr, w(getattr(zhunet, attr), _named(f"zhunet.{attr}")))
        patch(train, "make_batches", self._wrap_batches(train.make_batches, "train"))
        patch(train, "eval_batches", self._wrap_batches(train.eval_batches, "eval"))
        patch(train, "softmax_xent", w(train.softmax_xent, _named("nnops.softmax_xent")))
        for attr in ("sgd_step", "evaluate", "train_loop"):
            patch(train, attr, w(getattr(train, attr), _named(f"train.{attr}")))
        for attr in ("embed_simulate", "save_pgm", "write_manifest", "load_manifest",
                     "load_pgm", "apply_dihedral8"):
            patch(data, attr, w(getattr(data, attr), _named(f"data.{attr}")))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- output ----------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, t0, t1, parent, batch, work in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "batch": batch, "work": work}) + "\n")

    def metrics(self, main_kind: str) -> dict[str, float]:
        """Per-layer metrics over the batches of ``main_kind`` ("train" or
        "eval") that ran a forward pass; zero where a layer did not run."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        layer = [s[0].split(".", 1)[0] for s in spans]

        per_batch: dict[int, dict] = {}
        for i, (name, t0, t1, parent, batch, work) in enumerate(spans):
            if batch is None or self.batch_kind.get(batch) != main_kind:
                continue
            b = per_batch.setdefault(batch, {"incl": {}, "self": {}, "work": {}, "calls": {},
                                             "covered": 0, "start": None, "end": None})
            b["incl"][name] = b["incl"].get(name, 0) + dur[i]
            b["self"][name] = b["self"].get(name, 0) + dur[i] - child[i]
            b["work"][name] = b["work"].get(name, 0.0) + work
            b["calls"][name] = b["calls"].get(name, 0) + 1
            if name == "model.forward" and b["start"] is None:
                b["start"] = t0
            if name == ("train.sgd_step" if main_kind == "train" else "model.forward"):
                b["end"] = t1
            if layer[i] in MODEL_LAYERS and (parent < 0 or layer[parent] not in MODEL_LAYERS):
                b["covered"] += dur[i]
        ran = {k: b for k, b in per_batch.items() if b["start"] is not None and b["end"] is not None}
        batches = list(ran.values())

        def med(values) -> float:
            return float(statistics.median(values)) if values else 0.0

        def batch_ms(name: str, kind: str = "incl") -> float:
            return med([b[kind].get(name, 0) for b in batches]) / 1e6

        def rate(name: str, scale: float) -> float:
            work = sum(b["work"].get(name, 0.0) for b in batches)
            busy = sum(b["self"].get(name, 0) for b in batches)
            return work / busy * 1e9 / scale if busy else 0.0

        out: dict[str, float] = {}
        for stage in STAGES:
            for d in ("fwd", "bwd"):
                out[f"zhunet.{stage}.{d}_ms"] = batch_ms(f"zhunet.{stage}.{d}")
        for d in ("fwd", "bwd"):
            out[f"srm.preprocess.{d}_ms"] = batch_ms(f"srm.preprocess.{d}")
        for kind in CONV_KINDS:
            for d in ("fwd", "bwd"):
                name = f"nnops.conv2d.{kind}.{d}"
                out[f"{name}_ms"] = batch_ms(name, "self")
                out[f"{name}.gflop_per_s"] = rate(name, 1e9)
            out[f"nnops.conv2d.{kind}.calls"] = med(
                [b["calls"].get(f"nnops.conv2d.{kind}.fwd", 0) for b in batches])
        for op in ("batchnorm", "avg_pool"):
            for d in ("fwd", "bwd"):
                out[f"nnops.{op}.{d}_ms"] = batch_ms(f"nnops.{op}.{d}", "self")
                out[f"nnops.{op}.{d}.gb_per_s"] = rate(f"nnops.{op}.{d}", 1e9)
        for op in ("act", "spp", "linear"):
            for d in ("fwd", "bwd"):
                out[f"nnops.{op}.{d}_ms"] = batch_ms(f"nnops.{op}.{d}", "self")
        out["nnops.softmax_xent_ms"] = batch_ms("nnops.softmax_xent", "self")
        out["nnops.calls"] = med([sum(c for n, c in b["calls"].items() if n.startswith("nnops."))
                                  for b in batches])
        ctx = [self.ctx_bytes[k] for k in ran if k in self.ctx_bytes]
        out["nnops.ctx_saved_mb"] = med(ctx) / MIB

        steps = sorted((b["end"] - b["start"]) / 1e6 for b in batches) if main_kind == "train" else []
        p50, tail, pct = step_percentiles(steps)
        out["train.step_ms.p50"] = p50
        out["train.step_ms.tail"] = tail
        out["train.step_ms.tail_pct"] = pct
        out["train.step_ms.samples"] = float(len(steps))
        out["train.sgd_step_ms"] = batch_ms("train.sgd_step")
        wait = "train.make_batches" if main_kind == "train" else "train.eval_batches"
        out["train.batch_wait_ms"] = batch_ms(wait)

        def under(name: str, parent_name: str) -> list[int]:
            return [i for i, s in enumerate(spans)
                    if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name]

        out["train.validation_s"] = med([dur[i] for i in under("train.evaluate", "train.train_loop")]) / 1e9

        setups = [i for i, s in enumerate(spans) if s[0] == "bench.setup"]

        def per_setup(name: str, count: bool = False, parent: str | None = None) -> float:
            totals = {i: 0 for i in setups}
            for i, s in enumerate(spans):
                if s[0] != name or (parent is not None and spans[s[3]][0] != parent):
                    continue
                p = s[3]
                while p >= 0 and spans[p][0] != "bench.setup":
                    p = spans[p][3]
                if p in totals:
                    totals[p] += 1 if count else dur[i]
            return med(list(totals.values()))

        out["data.embed_s"] = per_setup("data.embed_simulate") / 1e9
        out["data.load_manifest_s"] = per_setup("data.load_manifest") / 1e9
        out["data.images_decoded"] = per_setup("data.load_pgm", count=True, parent="data.load_manifest")
        out["data.apply_dihedral8_s"] = per_setup("data.apply_dihedral8") / 1e9
        out["zhunet.serialize_ms"] = med([dur[i] for i in under("zhunet.serialize_model", "train.train_loop")]) / 1e6
        out["zhunet.load_checkpoint_ms"] = per_setup("zhunet.load_checkpoint") / 1e6

        covered = sum(b["covered"] for b in batches)
        window = sum(b["end"] - b["start"] for b in batches)
        out["trace.stage_coverage"] = covered / window if window else 0.0
        return out


def step_percentiles(steps: list[float]) -> tuple[float, float, float]:
    """(p50, tail, tail percentile): the tail is the highest of p99/p95/p90/
    p75 that leaves at least ten samples beyond it, else p50 itself."""
    if not steps:
        return 0.0, 0.0, 0.0
    xs = sorted(steps)

    def pick(q: float) -> float:
        return xs[min(len(xs) - 1, max(0, int(np.ceil(q / 100.0 * len(xs))) - 1))]

    for q in (99.0, 95.0, 90.0, 75.0):
        if len(xs) * (1.0 - q / 100.0) >= 10:
            return pick(50.0), pick(q), q
    return pick(50.0), pick(50.0), 50.0


class NullTracer:
    """Stands in for a Tracer in untraced rounds: records nothing."""

    def installed(self):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()

    def bind_model(self, model) -> None:
        pass
