"""stegnet: convolutional steganalysis with a trainable high-pass filter
bank, separable-convolution residual blocks, spatial pyramid pooling, and a
reproducible training pipeline.

The package imports nothing, so that the CLI's ``--threads`` cap reaches
BLAS before numpy loads. Import the submodules, as in
``from stegnet import data, train, zhunet``.
"""

__version__ = "0.1.0"
