"""jetlift: symbolic-numeric tensor calculus on a time-fibred bundle.

The library works on a bundle over the time line with coordinates
(t, q1..qn), its momentum phase space (t, q, p), and the extended space
(t, q, p0, p) carrying the canonical two-form p_i dq^i ^ dt.  It lifts
vector fields, one-forms, (1,1) tensors, and two-forms from the base to
phase space, verifies the defining identities of those lifts by seeded
random-point evaluation, decides whether a tensor with vanishing torsion
yields a Poisson-Nijenhuis structure, and constructs Darboux-Nijenhuis
coordinates from its eigenvalues.
"""

from .errors import (
    DomainError,
    EigenError,
    EvaluationError,
    ExprError,
    JetliftError,
    ModelError,
    NonFiniteError,
    OrderOverflowError,
    ParseError,
    SamplingError,
    SingularPointError,
    SpaceMismatchError,
    TransformError,
    UnknownIdentifierError,
)
from .spaces import Space, base_e, extended_t, phase_j
from .expr import parse_expr, to_string
from .fields import (
    ProceduralField,
    ScalarField,
    SymbolicField,
    compose,
    const_field,
    coord_field,
    inject,
    parse_field,
    zero,
)
from .tensors import (
    Bivector,
    OneForm,
    Tensor11,
    Tensor12,
    TwoForm,
    VectorField,
    adjoint_tensor11,
    apply_tensor11,
    compose_tensor11,
    differential,
    exterior_derivative,
    haantjes_tensor,
    hook2,
    identity_tensor,
    interior_product,
    lie_bracket,
    lie_derivative,
    nijenhuis_torsion,
    pair,
    tensor_product,
    wedge,
)
from .charts import ChartMap, FibredTransform, invert_field_matrix, pullback_twoform
from .lifts import (
    canonical_theta,
    complete_lift_cotangent,
    complete_lift_tensor11,
    complete_lift_vector,
    hlift_tensor11,
    momentum_function,
    project_oneform_to_extended,
    rho_related,
    theta_representative,
    vlift_cov2,
    vlift_oneform,
    vlift_tensor11,
    vlift_twoform,
)
from .pn import (
    PNReport,
    build_dn_transform,
    canonical_bivector,
    commutation_defect,
    commutation_residual,
    eigen_analysis,
    eigenvalue_fields,
    fiber_hamiltonian_field,
    hamiltonian_vector_field,
    magri_morosi,
    magri_morosi_table,
    pn_check,
    poisson_apply,
    poisson_bracket,
    pullback_oneform_to_phase,
    verify_dn,
)
from .report import CheckItem, CheckReport, Checker
from .model import Model, SuiteInputs, load_model
from .suites import SUITES, run_all_suites, run_suite

__version__ = "0.1.0"
