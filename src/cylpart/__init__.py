"""Exact arithmetic for cylindric partitions.

Core objects: profiles, shapes, slices, and cylindric partitions; on top of
them, slice decompositions, the pivot bijection onto pairs of an ordinary
partition and a labeled distinct-parts partition, shape transition graphs
with exact transfer-matrix path counts, distinct-parts generating
functions with closed-form verification over quadratic fields, and the
polynomial numerators of bounded counting series.  A brute-force
enumeration oracle backs every identity check.
"""

from .core import (CylindricPartition, CylpartError, Partition, Profile,
                   RankMismatch, RowCountMismatch, Shape, ViolatedInequality,
                   all_shapes, delta, delta_shapes, empty_partition,
                   parse_cylindric, parse_profile, shape_of_zero,
                   shape_to_profile, validate)
from .qpoly import QPoly, q_binomial
from .rings import QQ, QuadElement, QuadraticField, Ring, RingMismatch, ZZ, ZZ_z
from .series import (TruncatedSeries, at_z_one, borodin_product,
                     euler_distinct, lambert_zddz, product_inv_factors,
                     progression_filter)
from .oracle import (count_bivariate, count_distinct_series, count_series,
                     enumerate_by_weight)
from .slices import (Slice, SliceChain, ShrinkMode, decompose, expand,
                     recompose, shrink, slice_shape, slice_with, successors,
                     zero_slice)
from .bijection import (LabeledDistinctPartition, TiledPath, pivot_decompose,
                        pivot_reconstruct, tile, validate_beta,
                        validate_beta_rank2)
from .diagram import (ClosedFormReport, LinearRecurrence, PathCountTable,
                      ShapeTransitionGraph, adjacency_matrix, build_graph,
                      char_poly, diagonal_blocks, distinct_gf, fit_recurrence,
                      matrix_power, path_counts, solve_residual,
                      verify_closed_form)
from .polynomials import (PolynomialFamily, check_functional_equation, family,
                          f_truncated, largest_part_exact_poly,
                          parts_at_most_poly, pivot_corrected_poly,
                          pivot_lineup_poly)
from .lineups import (Lineup, classify, enumerate_minimal_jammed,
                      enumerate_minimal_loose, lemma_check, pivot_chain_gf,
                      potential_pivot_shapes, qconj_genfunc_check)

__version__ = "0.1.0"
