"""Generalized Robertson positive maps and their entanglement witnesses.

Construction of the map family on 4N x 4N matrices parametrized by an
antisymmetric unitary, the associated Choi-matrix witnesses, the explicit
PPT entangled states they detect, and mechanical certificates for
positivity, nondecomposability, optimality, self-duality and the
entanglement-breaking property of the structural physical approximation.
"""

from .certify import (
    isotropic_detection_value,
    run_full_suite,
    spa_threshold,
    verify_eb_certificate,
    verify_nd_optimality,
    verify_nondecomposability,
    verify_optimality,
    verify_positivity,
    verify_self_duality,
)
from .linalg import hermitian_eig, numerical_rank, partial_transpose, realign
from .maps import (
    SIGMA_Y,
    MapDescriptor,
    apply_map,
    canonical_u0,
    conjugate_u0,
    conjugated_phi,
    input_dim,
    phi_u,
    random_antisymmetric_unitary,
    random_unitary,
)
from .report import CertReport
from .states import (
    isotropic_entanglement_threshold,
    isotropic_state,
    max_entangled,
    normalization_factor,
    ppt_entangled_state,
)
from .witnesses import (
    Witness,
    choi,
    detect,
    expected_spectrum,
    spa_witness,
    spanning_family,
    transform_witness,
    verify_spectrum,
)

__version__ = "0.1.0"
