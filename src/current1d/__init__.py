"""current1d: desk-scale computations with 1-dimensional metric currents.

Arens-Eells norms with dual certificates, minimal fillings and the
quasiconvexity sandwich, exact flat norms on cubical complexes, certified
homotopy fillings, geodesic approximation of curve measures, hyperplane
normalization, and path/fragment decompositions.
"""

import logging

from .spaces import (FiniteMetricSpace, GeometryError, MetricGraph, NormedPlane,
                     QcReport, qc_constants)
from .currents import (AffineMap, Ball, Box, Chain1, ClosedSet, CurrentError,
                       CurveArray, Fragment, FragmentChain, HalfPlane, Molecule,
                       Piece, Polyline, ScalarField, Slab, TestForm, d_inf,
                       d_inf_many, evaluate, fat_cantor_intervals, pushforward,
                       restrict, standard_panel)
from .solvers import (FlowNetwork, Infeasible, IterationLimit, LinearProgram,
                      SolverError, Unbounded, check_flow, min_cost_flow,
                      network_simplex, simplex_lp)
from .transport import (AeResult, FillingResult, IsoReport, ae_norm, check_filling,
                        isomorphism_check, minimal_filling)
from .flatnorm import CubicalComplex, FlatResult, flat_norm, snap
from .homotopy import (AffineBicombing, FillResult, GraphBicombing,
                       affine_homotopy_current, conical_defect, homotopy_fill,
                       interpolate_geodesic)
from .approximation import (ApproxCertificate, Cluster, CurveMeasure,
                            approximate, cluster, truncate)
from .structure import (ConvexBox, Line, NoAdmissibleShift, NormalizeResult,
                        fat_cantor_chain, lift_off_line, normalize,
                        rectifiable_filling, rescale_interior, translate_singular)
from .decomposition import (Decomposition, decompose_flow, edge_weights,
                            fragment_representation)
from .rickman import build_rug, rug_grid, rug_row

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"
