"""admz: exact desk-scale classification of irreducible modules over simple
affine sl2 vertex algebras at admissible rational levels.

Everything is computed in exact rational arithmetic, with two independent
routes (a brute-force nullspace search and a closed-form product) that are
cross-checked against each other.
"""

from .affine import (
    AffineWeight,
    VermaVector,
    act_mode,
    bracket_modes,
    mode,
    operator_matrix,
    weight_space_basis,
)
from .errors import (
    AdmzError,
    ConsistencyError,
    InvalidInputError,
    NotAdmissibleError,
    ResourceCapError,
)
from .exact_core import (
    HPoly,
    format_scalar,
    parse_scalar,
    poly_proportional,
    poly_root_check,
)
from .nullspace import IntMatrix, kernel_basis
from .usl2 import (
    FinElement,
    fin_ad,
    fin_product,
    project_cartan,
)
from .weight_modules import (
    DenseParams,
    EActionResult,
    act_element_on_E,
    classify_weight_modules,
    is_T_member,
    q_annihilates_E,
)
from .zhu import (
    AdmissibleLevel,
    ClassificationReport,
    admissible_params,
    classify_category_O,
    compute_p1,
    compute_p2,
    compute_Q,
    enumerate_Pk,
    level_from_string,
    mff_epsilon,
    set_S,
    singular_vector_nullspace,
    zhu_image_F,
)

__version__ = "0.1.0"
