"""Orthonormal polynomial bases for arbitrary densities.

The basis for a density F is the sequence p_0, p_1, ... with
E[p_i(X) p_j(X)] = delta_ij and deg p_i = i, given by the three-term
recurrence b_{j+1} p_{j+1} = (x - a_j) p_j - b_j p_{j-1}, p_0 = 1, whose rows
quad computes per density (Stieltjes, or Legendre's closed form for a
Uniform).  Run on points (dist._values, which quad's Gauss kernel shares),
it gives basis values, stable at high degree and for narrow densities; run
on coefficient rows, the raw-x forms that get printed and assembled into
estimators.  Each b_j > 0, so every leading coefficient is positive.
"""

import functools
import math
import operator

import numpy as np

from .dist import _values
from .poly import UniPoly
from .quad import DEFAULT_NODES, _rows, build_rule

__all__ = ["OrthonormalBasis", "gram_schmidt", "GramSchmidtError"]

# Construction fails rather than returning a basis whose Gram matrix is off
# by more than this.
RESIDUAL_LIMIT = 1e-6


class GramSchmidtError(RuntimeError):
    pass


class OrthonormalBasis:
    """Orthonormal polynomials of one density, index = degree.

    polys holds the raw-x UniPoly forms (display, assembly), built on first
    read; evaluation runs the recurrence on the points, which stays stable at
    high degree.
    """

    def __init__(self, density, alphas, offdiag, gram_residual):
        self.density = density
        self._jacobi = (alphas, offdiag)
        self.gram_residual = gram_residual

    @functools.cached_property
    def polys(self):
        return _raw_polys(*self._jacobi)

    @property
    def max_degree(self):
        return len(self._jacobi[0]) - 1

    def eval_matrix(self, x):
        """Matrix of basis values, shape (len(x), max_degree + 1)."""
        return np.column_stack(_values(*self._jacobi, x))

    def __len__(self):
        return len(self._jacobi[0])

    def __repr__(self):
        return (
            f"OrthonormalBasis({self.density!r}, degree={self.max_degree}, "
            f"gram_residual={self.gram_residual:.2e})"
        )


def _raw_polys(alphas, offdiag):
    """p_0 .. p_d as raw-x UniPolys, by the recurrence on coefficient rows."""
    d1 = len(alphas)
    coef = np.zeros((d1, d1))
    coef[0, 0] = 1.0
    for j in range(d1 - 1):
        r = -alphas[j] * coef[j]
        r[1:] += coef[j, :-1]  # x * p_j
        if j:
            r -= offdiag[j - 1] * coef[j - 1]
        coef[j + 1] = r / offdiag[j]
    return [UniPoly(coef[j, : j + 1]) for j in range(d1)]


def _degree(value, name="degree"):
    """value as an int, refusing what operator.index refuses and a bool,
    which it takes; the ValueError calls the value `name`."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return operator.index(value)


def _basis(density, max_degree):
    """The basis from the density's recurrence, unchecked (gram_residual nan)."""
    return OrthonormalBasis(density, *_rows(density, max_degree + 1), math.nan)


def gram_schmidt(density, max_degree, n_nodes=None):
    """Build the orthonormal basis of `density` up to `max_degree`.

    Raises GramSchmidtError if its Gram matrix on an n_nodes Gauss rule is off
    the identity by more than 1e-6, as on a rule too coarse for the degree
    (n_nodes <= max_degree).  pce.expand passes its projection rule's size;
    the default, twice the default node count, serves direct callers only.
    """
    max_degree = _degree(max_degree, "max_degree")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if n_nodes is None:
        n_nodes = max(2 * DEFAULT_NODES, 2 * max_degree + 8)
    rule = build_rule(density, n_nodes)
    basis = _basis(density, max_degree)
    vals = basis.eval_matrix(rule.nodes)
    gram = (vals * rule.weights[:, None]).T @ vals
    basis.gram_residual = float(np.max(np.abs(gram - np.eye(max_degree + 1))))
    if basis.gram_residual > RESIDUAL_LIMIT:
        raise GramSchmidtError(
            f"orthogonality lost (residual {basis.gram_residual:.2e} > {RESIDUAL_LIMIT:g}); "
            "raise the quadrature order or lower the degree"
        )
    return basis
