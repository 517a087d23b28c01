"""Contact sub-Riemannian structures from orthonormal frames: normalized
contact form and Reeb field, the canonical metric torsion-free connection
and its curvature, isometry generator spaces, and numerical transport and
reconstruction of infinitesimal isometries."""

__version__ = "0.1.0"

from .expr import (
    EvalError,
    ExprError,
    Expression,
    ParseError,
    compile_expression,
    differentiate,
    parse_expression,
)
from .frame import (
    Brackets,
    CheckFailure,
    CheckRecord,
    ContactStructure,
    NotContactError,
    OrientationError,
    StructureError,
    check_special,
    lie_bracket,
    load_structure,
    load_structure_text,
)
from .connection import (
    BudgetError,
    ConnectionData,
    CurvatureData,
    HTensor,
    NotSpecialError,
    compute_connection,
    covariant_derivative,
    curvature,
    higher_derivatives,
    verify_geometry,
)
from .killing import (
    Curve,
    DiscreteField,
    Generator,
    GeneratorSpace,
    Grid,
    a_z_matrix,
    derivation_apply,
    generator_space,
    path_independence,
    reconstruct_field,
    riemannian_extension_check,
    scan_regularity,
    transport,
    verify_killing,
    verify_killing_field,
)

__all__ = [
    "__version__",
    # expr
    "Expression", "ExprError", "ParseError", "EvalError", "parse_expression", "differentiate",
    "compile_expression",
    # frame
    "ContactStructure", "Brackets", "CheckRecord", "CheckFailure", "StructureError",
    "OrientationError", "NotContactError", "load_structure", "load_structure_text", "lie_bracket",
    "check_special",
    # connection
    "ConnectionData", "CurvatureData", "HTensor", "NotSpecialError", "BudgetError",
    "compute_connection", "covariant_derivative", "curvature", "higher_derivatives",
    "verify_geometry",
    # killing
    "Generator", "GeneratorSpace", "Curve", "Grid", "DiscreteField", "a_z_matrix",
    "derivation_apply", "generator_space", "transport", "path_independence", "reconstruct_field",
    "verify_killing", "verify_killing_field", "scan_regularity", "riemannian_extension_check",
]
