"""admz: exact desk-scale classification of irreducible modules over simple
affine sl2 vertex algebras at admissible rational levels.

Everything is computed in exact rational arithmetic, with two independent
routes (a brute-force nullspace search and a closed-form product) that are
cross-checked against each other.  The package exports the functions the
README documents and the errors they raise; everything else is read from
its module (admz.zhu, admz.usl2, ...).
"""

from .errors import (
    AdmzError,
    ConsistencyError,
    InvalidInputError,
    NotAdmissibleError,
    ResourceCapError,
)
from .weight_modules import DenseParams, classify_weight_modules, q_annihilates_E
from .zhu import classify_category_O, level_from_string

__version__ = "0.1.0"
