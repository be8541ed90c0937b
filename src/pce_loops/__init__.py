"""Polynomial chaos expansions over arbitrary densities, and exact moment
propagation for probabilistic loops with non-polynomial updates.

The pieces fit together like this: dist declares densities, quad gives each
its three-term recurrence and Gauss rules, orthopoly the orthonormal bases
from that recurrence, pce projects a function onto a truncated basis, lang
parses the loop DSL, and engine replaces calls with their expansions and
pushes moments through the loop exactly (with a Monte Carlo cross-check).
"""

from .dist import Density, RandomVector, density_from_dict
from .poly import MultiPoly, UniPoly, almost_equal
from .quad import QuadratureRule, build_rule, convergence_report, integrate
from .orthopoly import GramSchmidtError, OrthonormalBasis, gram_schmidt
from .pce import (
    DegreeMatrix,
    LagrangeConditional,
    PceExpansion,
    error_bound,
    error_se,
    expand,
    lagrange_conditional,
)
from .lang import (
    LoopProgram,
    ParseError,
    parse,
    parse_expression,
    parse_file,
    render,
    validate_conditions,
)
from .engine import (
    MomentTable,
    PolynomializedProgram,
    close_monomials,
    lagrange_schedule,
    polynomialize,
    propagate,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "Density", "RandomVector", "density_from_dict",
    "MultiPoly", "UniPoly", "almost_equal",
    "QuadratureRule", "build_rule", "convergence_report", "integrate",
    "GramSchmidtError", "OrthonormalBasis", "gram_schmidt",
    "DegreeMatrix", "LagrangeConditional", "PceExpansion",
    "error_bound", "error_se", "expand", "lagrange_conditional",
    "LoopProgram", "ParseError", "parse", "parse_expression", "parse_file",
    "render", "validate_conditions",
    "MomentTable", "PolynomializedProgram", "close_monomials",
    "lagrange_schedule", "polynomialize", "propagate", "simulate",
    "__version__",
]
