"""Degreewise exact linear algebra over Segre products of weighted
polynomial rings: Koszul complexes with truncation splits, tensor and
diagonal extraction, contraction complexes, minimal free resolutions,
Hom/Ext tables, and generation-degree reports."""

from .poly import monomials, mono_mul
from .complexes import (
    FreeComplex,
    SplitComplex,
    BiFreeComplex,
    DegreewiseComplex,
    koszul,
    truncate_split,
    tensor,
    glue_split_tensor,
    diagonal,
    alpha_complex,
    diff_complex,
    extend_diagonal,
)
from .modules import DiagonalModule, FreeModule, SyzygyModule
from .resolution import (
    CertificationError,
    HomCalculator,
    free_resolution,
    generation_degrees,
    stable_hom_dims,
)
