"""Desk-scale reference-conditioned video autoencoder."""

__version__ = "0.1.0"

from .tensor import Tensor, backward, float64_mode, parameter

__all__ = ["Tensor", "backward", "float64_mode", "parameter", "__version__"]
