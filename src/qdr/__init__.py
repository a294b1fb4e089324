"""Exact-arithmetic deformed exterior calculus.

Every object carries rational (or Gaussian-rational) coefficients and a
formal degree-2 parameter h; every identity the package claims is
checked by literal expansion, never numerically.
"""

from .scalars import GaussRat, HPoly, I
from .exterior import (
    Bivector,
    QForm,
    quantum_exp,
    quantum_power,
    quantum_wedge,
    quantum_wedge_multi,
    wedge,
)
from .symplectic import (
    SymplecticForm,
    apply_A,
    apply_Ah,
    apply_K,
    apply_L,
    apply_Lh,
    apply_Lhstar,
    apply_Lstar,
    bivector_of,
    contract_bivector,
    lefschetz_matrix,
    symplectic_star,
)
from .fields import (
    FieldForm,
    PoissonField,
    contract_field,
    exterior_d,
    jacobi_check,
    koszul_delta,
    quantum_d,
    quantum_d_mirror,
    quantum_dolbeault_split,
    quantum_wedge_field,
    wedge_field,
)
from .fixtures import (
    build_model,
    heisenberg,
    lie_poisson_so3,
    non_poisson_example,
    standard_symplectic,
    torus,
)
from .functions import FourierFn, PolyFn, moyal_product
from .cohomology import (
    build_complex,
    dr_cohomology_dims,
    poisson_homology_dims,
    quantum_cohomology_dims,
    quantum_integral,
    stokes_check,
)
from .bigraded import (
    BigradedForm,
    derive_adjoint_law,
    hermitian_gram,
    hermitian_pairing,
    standard_frame,
)
from .chernweil import (
    GaugeTransform,
    MatrixForm,
    bianchi_check,
    char_form,
    chern_character,
    quantum_curvature,
)
from .cpn import cpn_structure_constants, verify_relation_17
from .cli import check, emit, run_scenario

__version__ = "0.1.0"

__all__ = [
    "GaussRat", "HPoly", "I",
    "Bivector", "QForm", "wedge", "quantum_wedge", "quantum_power",
    "quantum_exp", "quantum_wedge_multi",
    "SymplecticForm", "bivector_of", "contract_bivector",
    "symplectic_star", "apply_L", "apply_K", "apply_Lstar", "apply_A",
    "apply_Lh", "apply_Lhstar", "apply_Ah", "lefschetz_matrix",
    "PoissonField", "FieldForm", "wedge_field", "quantum_wedge_field",
    "contract_field", "exterior_d", "koszul_delta", "quantum_d",
    "quantum_d_mirror", "quantum_dolbeault_split", "jacobi_check",
    "build_model", "standard_symplectic", "torus", "lie_poisson_so3",
    "heisenberg", "non_poisson_example",
    "PolyFn", "FourierFn", "moyal_product",
    "build_complex", "dr_cohomology_dims", "quantum_cohomology_dims",
    "poisson_homology_dims", "quantum_integral", "stokes_check",
    "BigradedForm", "standard_frame", "hermitian_pairing",
    "hermitian_gram", "derive_adjoint_law",
    "MatrixForm", "GaugeTransform", "quantum_curvature", "bianchi_check",
    "char_form", "chern_character",
    "cpn_structure_constants", "verify_relation_17",
    "run_scenario", "check", "emit",
    "__version__",
]
