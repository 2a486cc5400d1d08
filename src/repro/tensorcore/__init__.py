"""Core-coupled matrix unit models (the Volta/Ampere/Hopper-style baselines)."""

from repro.tensorcore.fragments import MatrixFragment, load_fragment
from repro.tensorcore.dot_product_unit import DotProductUnit
from repro.tensorcore.volta import VoltaTensorCore, HmmaSequence
from repro.tensorcore.hopper import HopperTensorCore, WgmmaOperation

__all__ = [
    "MatrixFragment",
    "load_fragment",
    "DotProductUnit",
    "VoltaTensorCore",
    "HmmaSequence",
    "HopperTensorCore",
    "WgmmaOperation",
]
