"""The benchmark's span tracer over a real model.

``perfbench/tracing.py`` times the model by patching names in the package
(the ops, called through their modules, and the block and model methods,
looked up on their classes) and by reading some of their arguments by
position. Here it runs over one small train step and one eval forward, so
a rename or a moved argument that would leave a span unrecorded fails the
tests, and not only the benchmark's traced run.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from stegnet import data, nnops, srm, train, zhunet
from stegnet.tensor import Tensor

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
sys.dont_write_bytecode, _writes = True, sys.dont_write_bytecode  # keep perfbench/ as it is
try:
    _spec.loader.exec_module(tracing)
finally:
    sys.dont_write_bytecode = _writes

OWNERS = (nnops, srm, zhunet, train, data,
          zhunet.SepconvBlock, zhunet.BasicBlock, zhunet.ZhuNetModel)


def _names() -> dict:
    """Every callable each owner holds, by (owner, attribute)."""
    return {(owner.__name__, attr): value for owner in OWNERS
            for attr, value in vars(owner).items() if callable(value)}


@pytest.mark.parametrize("mode", ["relu", "tlu3"])
def test_the_tracer_records_every_span_kind_and_restores_the_names(mode):
    model = zhunet.build_model(zhunet.ModelConfig(activation_mode=mode))
    rng = np.random.default_rng(0)
    images = Tensor(rng.integers(0, 256, size=(2, 1, 32, 32)).astype(np.float32))
    before = _names()
    tracer = tracing.Tracer()
    tracer.bind_model(model)
    with tracer.installed():
        patched = {key for key, value in _names().items() if value is not before[key]}
        logits = model.forward(images, mode="train")
        _, grad_logits = nnops.softmax_xent(logits, [0, 1])
        model.backward(grad_logits)
        model.forward(images, mode="eval")
    assert _names() == before
    act = "tlu" if mode == "tlu3" else "relu"
    assert {("stegnet.nnops", f"{act}_backward"), ("stegnet.srm", "preprocess_forward"),
            ("BasicBlock", "backward"), ("ZhuNetModel", "forward")} <= patched

    recorded = {span[0] for span in tracer.spans}
    expected = {"model.forward", "model.backward"}
    for d in ("fwd", "bwd"):
        expected |= {f"nnops.conv2d.{kind}.{d}" for kind in tracing.CONV_KINDS}
        expected |= {f"zhunet.{stage}.{d}" for stage in tracing.STAGES}
        expected |= {f"nnops.{op}.{d}" for op in ("batchnorm", "avg_pool", "act", "spp",
                                                 "linear")}
        expected.add(f"srm.preprocess.{d}")
    assert expected <= recorded, sorted(expected - recorded)
    assert not any(".unbound." in name for name in recorded)
