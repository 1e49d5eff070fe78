"""Exact arithmetic for cylindric partitions.

Core objects: profiles, shapes, slices, and cylindric partitions; on top of
them, slice decompositions, the pivot bijection onto pairs of an ordinary
partition and a labeled distinct-parts partition, shape transition graphs
with exact transfer-matrix path counts, distinct-parts generating
functions with closed forms from the minimal polynomial of the path
counts, and the polynomial numerators of bounded counting series.  A
brute-force enumeration oracle backs every identity check, and
:mod:`cylpart.verify` runs them all for one profile.

``import cylpart`` loads only :mod:`cylpart.core`.  Every other submodule,
and every public name, is imported on first access (PEP 562), so ``from
cylpart import X`` loads only the module that defines ``X`` and the modules
it imports.
"""

import importlib

# Loaded eagerly: every other module builds on it.
from . import core

# The public names, by the module that defines them.
_PUBLIC = {
    "core": ("CylindricPartition", "CylpartError", "InvalidInput", "Partition",
             "Profile", "RankMismatch", "RowCountMismatch", "Shape",
             "ViolatedInequality",
             "all_shapes", "delta", "empty_partition",
             "parse_cylindric", "parse_profile", "shape_of_zero",
             "shape_to_profile", "validate"),
    "qpoly": ("QPoly", "q_binomial"),
    "rings": ("Ring", "RingMismatch", "ZZ", "ZZ_z"),
    "series": ("Check", "TruncatedSeries", "at_z_one", "borodin_product",
               "euler_sum", "product_inv_factors"),
    "oracle": ("count_bivariate", "count_distinct_series", "count_series",
               "enumerate_by_weight"),
    "slices": ("Slice", "SliceChain", "ShrinkMode", "decompose", "expand",
               "recompose", "shrink", "slice_shape", "slice_with",
               "zero_slice"),
    "bijection": ("LabeledDistinctPartition", "pivot_decompose",
                  "pivot_reconstruct"),
    "diagram": ("PathCountTable", "ShapeTransitionGraph",
                "adjacency_matrix", "build_graph", "char_poly", "check_closed_form",
                "diagonal_blocks", "distinct_gf", "matrix_power",
                "minimal_polynomial", "path_counts"),
    "polynomials": ("PolynomialFamily", "check_functional_equation", "family",
                    "f_truncated", "largest_part_exact_poly",
                    "parts_at_most_poly", "pivot_corrected_poly",
                    "pivot_lineup_poly"),
    "lineups": ("lemma_check", "minimal_jammed_lines", "minimal_loose_lines",
                "pivot_chain_gf", "qconj_genfunc_check"),
    "verify": ("verify_all_tasks",),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_PUBLIC, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
