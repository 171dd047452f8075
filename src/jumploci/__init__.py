"""Exact computation of cohomology jumping loci: Orlik-Solomon and
configuration-space models, Aomoto complexes, resonance and tangent-cone
membership, master-function critical points, and Fox-calculus oracles.

The names in `__all__` are the public entry points: the constructors, the
query functions, their report types and the errors.  They are imported
from their modules on first access, so that `import jumploci` loads only
the modules that the names used need.  No module imports sympy at load
time; `master` imports it only for a polynomial with a non-real root, with
no square-free sieve prime, or with more root sets than its split tries
(see its docstring).
"""

from importlib import import_module

__version__ = "0.1.0"

from .errors import DegeneracyError, JumplociError, ParseError, PreconditionError

_EXPORTS = {
    "arrangement": ("Arrangement", "decone", "matroid_circuits", "os_algebra",
                    "poincare_and_euler", "points_arrangement",
                    "restrict_line_arrangement"),
    "exterior": ("GradedAlgebra", "build_quotient_algebra"),
    "aomoto": ("AomotoComplex", "GenericDimsReport", "IsotropyReport",
               "LogResonanceReport", "ResonanceReport", "generic_dims_sample",
               "isotropic_check", "log_resonance_membership",
               "reduce_algebra_mod", "resonance_membership"),
    "elliptic": ("E2Report", "EllipticModel", "HodgeSplit", "ScrollVerdict",
                 "e2_page", "elliptic_model", "hodge_decompose",
                 "scroll_membership", "tangent_pair_basis"),
    "master": ("DivisorReport", "FlatResidue", "LocalKoszul", "ResidueTable",
               "Zero", "critical_points_bivariate",
               "critical_points_univariate", "local_koszul_univariate",
               "log_zero_divisor_p1", "residues_line_arrangement"),
    "foxcalc": ("Character", "FoxReport", "Presentation",
                "twisted_cohomology", "twisted_h1"),
    "torus": ("ETCReport", "LaurentSystem", "TangentCone", "etc_membership",
              "tangent_cone_hypersurface"),
    "io": ("parse_arrangement", "parse_input"),
    "verify": ("CheckResult", "run_all"),
    "scalars": ("BadPrimeError", "DEFAULT_PRIME", "FieldMismatchError",
                "GaussianRational"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [
    "DegeneracyError",
    "JumplociError",
    "ParseError",
    "PreconditionError",
    "__version__",
    *_MODULE_OF,
]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
