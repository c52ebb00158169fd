"""Exact symbolic verification of rank-3 generalized Clifford structures on
TM + T*M: Dorfman calculus, Nijenhuis concomitants, the induced bi-quaternion
algebra, the Spin(3) twistor rotation family, and flat-torus T-duality.

All arithmetic is exact (Gaussian-rational coefficients); every check in the
verification suites is a zero-tolerance identity.
"""

__version__ = "0.1.0"

from ._core import BACKEND as KERNEL_BACKEND
from .scalar import (
    Chart,
    ChartMismatchError,
    ExprSyntaxError,
    GaussianRational,
    Poly,
    ScalarField,
    parse_expr,
    poly_diff,
    ratfunc_normalize,
    standard_chart,
)
from .cartan import (KForm, VectorField, exterior_d, interior, is_closed,
                     lie_bracket, lie_derivative)
from .courant import (FluxForm, Section, algebroid_differential, anchor,
                      dorfman, dorfman_twisted, pairing, pairing_matrix)
from .gcs import (EndField, TensorReport, bfield_transform, bind_concomitant,
                  bind_nijenhuis, bind_real_nijenhuis, concomitant,
                  eigen_sections, generalized_metric, is_almost_gcs,
                  is_almost_real, is_orthogonal, lemma_identities, nijenhuis,
                  real_nijenhuis, vanishes)
from .clifford import (CliffordTriple, InducedStructures, Projections,
                       check_relations, induce, levi_civita, project,
                       theorem_1_1, verify_triple)
from .twistor import (RotationMatrix, TwistorPoint, check_dI_commutator,
                      check_flatness, connection_data, rot_S, rot_T,
                      rotate_family, sample_points, sphere_chart, sphere_gcs,
                      stereo_vec, theorem_1_2, theorem_1_3, twistor_structure)
from .tduality import (CourantIso, check_intertwine, conjugate,
                       conjugate_triple, make_torus_duality,
                       props_5_2_to_5_4)
from .examples import (clifford_hermitian, generalized_metric_example,
                       hyperkahler_r4, product_flip)

__all__ = [
    "KERNEL_BACKEND", "__version__",
    # scalars
    "Chart", "ChartMismatchError", "ExprSyntaxError", "GaussianRational",
    "Poly", "ScalarField", "parse_expr", "poly_diff", "ratfunc_normalize",
    "standard_chart",
    # exterior calculus
    "KForm", "VectorField", "exterior_d", "interior", "is_closed",
    "lie_bracket", "lie_derivative",
    # Courant layer
    "FluxForm", "Section", "algebroid_differential", "anchor", "dorfman",
    "dorfman_twisted", "pairing", "pairing_matrix",
    # generalized structures
    "EndField", "TensorReport", "bfield_transform", "bind_concomitant",
    "bind_nijenhuis", "bind_real_nijenhuis", "concomitant", "eigen_sections",
    "generalized_metric", "is_almost_gcs", "is_almost_real", "is_orthogonal",
    "lemma_identities", "nijenhuis", "real_nijenhuis", "vanishes",
    # Clifford triples
    "CliffordTriple", "InducedStructures", "Projections", "check_relations",
    "induce", "levi_civita", "project", "theorem_1_1", "verify_triple",
    # twistor layer
    "RotationMatrix", "TwistorPoint", "check_dI_commutator", "check_flatness",
    "connection_data", "rot_S", "rot_T", "rotate_family", "sample_points",
    "sphere_chart", "sphere_gcs", "stereo_vec", "theorem_1_2", "theorem_1_3",
    "twistor_structure",
    # T-duality
    "CourantIso", "check_intertwine", "conjugate", "conjugate_triple",
    "make_torus_duality", "props_5_2_to_5_4",
    # builders
    "clifford_hermitian", "generalized_metric_example", "hyperkahler_r4",
    "product_flip",
]
