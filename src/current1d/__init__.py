"""current1d: desk-scale computations with 1-dimensional metric currents.

Arens-Eells norms with dual certificates, minimal fillings and the
quasiconvexity sandwich, exact flat norms on cubical complexes, certified
homotopy fillings, geodesic approximation of curve measures, hyperplane
normalization, and path/fragment decompositions.
"""

import logging

from .spaces import (FiniteMetricSpace, GeometryError, MetricGraph, NormedPlane,
                     QcReport, path_metric, qc_constants)
from .currents import (AffineMap, Ball, Box, Chain1, ClosedSet, CurrentError,
                       CurveArray, Fragment, FragmentChain, HalfPlane, Molecule,
                       Piece, Polyline, ScalarField, Slab, TestForm, boundary,
                       d_inf, d_inf_many, evaluate, fat_cantor_intervals, mass,
                       pushforward, restrict, standard_panel)
from .solvers import (FlowNetwork, Infeasible, IterationLimit, LinearProgram,
                      SolverError, Unbounded, min_cost_flow, simplex_lp)
from .transport import (AeResult, FillingResult, IsoReport, ae_norm,
                        isomorphism_check, minimal_filling)
from .flatnorm import (CubicalComplex, FlatResult, flat_norm,
                       flat_upper_bound_pair, snap)
from .homotopy import (AffineBicombing, FillResult, GraphBicombing,
                       affine_homotopy_current, conical_defect, homotopy_fill,
                       interpolate_geodesic)
from .approximation import (ApproxCertificate, Cluster, CurveMeasure,
                            approximate, cluster, truncate)
from .structure import (AtomicMeasure, ConvexBox, Line, NoAdmissibleShift,
                        NormalizeResult, fat_cantor_chain, lift_off_line,
                        normalize, rectifiable_filling, rescale_interior,
                        translate_singular)
from .decomposition import (Decomposition, EdgeFlow, decompose_flow,
                            fragment_representation)
from .rickman import build_rug, rug_grid, rug_row

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"
