"""Desk-scale video object segmentation by non-local pixel matching.

The package is self-contained: a small float64 tensor engine with
reverse-mode differentiation, the matching and channel-attention blocks,
a toy encoder/decoder, multi-object mask propagation, synthetic data
generation, and a command line for the full train/infer/eval cycle.

Importing the package pins numpy's OpenBLAS to one thread (see
``npmca.blas``), so every caller gets the same bits.
"""

from . import blas  # noqa: F401  (pins BLAS on import)

__version__ = "0.1.0"
