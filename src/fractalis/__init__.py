"""Recurrent fractal interpolation curves, composed fractal surfaces, and
box-counting dimension analysis."""

from .catalog import (Affine, BivariateSpec, Constant, FunctionSpecError, LagrangeNodes,
                      Polynomial, Scaled, SeparableTerm, Sinusoid, Sum, abs_extrema,
                      identity, lagrange_from_nodes, lipschitz_bound)
from .config import bivariate_from_json, scalar_from_json
from .dimension import (BoxCountSeries, DimensionReport, HypothesisError,
                        NumericalError, VariationCheck, analyze_curve,
                        box_count_graph, box_count_surface,
                        check_irreducible, curve_dimension_bounds,
                        curve_scale_schedule, estimate_curve_dimension,
                        fit_dimension, max_variation, nodes_collinear,
                        nonneg_spectral_radius, spectral_radius,
                        variation_bound_report)
from .rifs import (AttractorSampling, ContractionReport, InterpolationData,
                   ModelError, RifsModel, build_model, contraction_report,
                   default_base, default_interpolant, derive_connectivity,
                   eval_F, functional_residual, merged_curve, refine_attractor)
from .surface import (CurveSamples, HeightField, SurfaceLayer, SurfaceSpec,
                      composed_surface_dimension, estimate_surface_dimension,
                      eval_surface)

__version__ = "0.1.0"
