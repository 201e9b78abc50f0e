"""Cross-ratio coordinates of flag configurations in CP^2, the duality
involution on decorated ideal triangulations, and the pre-Bloch invariant
with its Bloch-Wigner dilogarithm volume."""

from .errors import (BackendMismatch, DegenerateInput, FlagdualError,
                     LeftDomain, MalformedPairing, NotOnSphere,
                     NotVeryGeneric, OutOfDomain, ParseError, SolverDiverged,
                     Unsupported, WSingular)
from .scalars import (GaussRational, format_exact, parse_exact,
                      scalar_from_json, scalar_to_json)
from .gaussian import (GaussianFactorization, exponent_vector,
                       factor_gauss_int, factor_gaussian, normalize_prime)
from .projective import Mat3, ProjPoint1, cross_ratio, restrict_to_p1
from .flags import (Flag, FlagTuple, cr_flag, cr_tetrahedron,
                    heisenberg_null_point, hyperbolic_flag, is_generic,
                    is_very_generic, normalize_to_standard,
                    veronese_tetrahedron)
from .tetra import (MinimalCoords, TetraCoords, beta_tetra,
                    complete_from_minimal, edge_coords, reconstruct,
                    triple_ratio, very_generic, volume_tetra)
from .duality import (WCoords, beta_defect, dual_coords_closed,
                      dual_coords_matrix, from_w, to_w)
from .prebloch import (FormalSum, WedgeElement, canonicalize_six, delta_exact,
                       dilog_D, eval_D, five_term, li2, six_orbit)
from .complexes import (CheckReport, DecoratedComplex, Decoration, EdgeClass,
                        FacePairing, IdealTriangulation, beta_complex,
                        check_edges, check_faces, conjugate_complex, dualize,
                        duality_defect, is_consistent, volume_complex)
from .solver import ConsistencySystem, SolveResult, solve_consistency
from .fileio import dump_complex, load_complex, read_complex, write_complex
from . import bundled

__version__ = "0.1.0"
