"""stegnet: convolutional steganalysis with a trainable high-pass filter
bank, separable-convolution residual blocks, spatial pyramid pooling, and a
reproducible training pipeline.

Submodules are imported lazily so that ``import stegnet`` (and in particular
the CLI entry point) does not load numpy before the ``--threads`` cap has
been applied to the BLAS environment variables.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "StegnetError": ".errors",
    "ShapeError": ".errors",
    "SpecError": ".errors",
    "DataError": ".errors",
    "ContractError": ".errors",
    "FormatError": ".errors",
    "DivergenceError": ".errors",
    # tensor
    "Tensor": ".tensor",
    # model
    "ModelConfig": ".zhunet",
    "ZhuNetModel": ".zhunet",
    "build_model": ".zhunet",
    "serialize_model": ".zhunet",
    "deserialize_model": ".zhunet",
    "save_checkpoint": ".zhunet",
    "load_checkpoint": ".zhunet",
    # training
    "TrainConfig": ".train",
    "TrainState": ".train",
    "lr_at": ".train",
    "sgd_step": ".train",
    "train_loop": ".train",
    "evaluate": ".train",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(target, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
