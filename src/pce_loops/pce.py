"""Truncated polynomial chaos expansions over independent germs.

Given a square-integrable function g of k independent basic variables, the
expansion keeps every product of univariate orthonormal basis polynomials
whose per-variable degrees stay within a degree vector; the Fourier
coefficients are tensor-product quadrature integrals, the estimator is the
assembled multivariate polynomial (built on first read, since callers that
need only coefficients or errors never read it), and se is the L2 norm of
the residual under the joint density.  The function is evaluated on the
tensor grid in slabs of at most quad._SLAB_POINTS points (quad._slabs), so
memory does not grow with the grid: the projection takes slabs along the
last germ axis and contracts the others per slab, the residual takes slabs
along the first.  A grid of one slab is evaluated once for both passes.
Also here: the normal-reference error bound and the paper's
iteration-conditioned Lagrange estimator.
"""

import itertools
import math

import numpy as np

from . import quad
from .dist import Density, RandomVector
from .orthopoly import _basis, _degree, gram_schmidt
from .poly import MultiPoly
from .quad import DEFAULT_NODES, build_rule

__all__ = [
    "DegreeMatrix",
    "PceExpansion",
    "expand",
    "error_bound",
    "LagrangeConditional",
    "lagrange_conditional",
]

MAX_ROWS = 10**6
# Estimator terms below CLEANUP_REL times the largest |coefficient| are
# dropped.  They are quadrature noise in the Fourier coefficients and the
# recurrence, such as ~1e-17 odd terms of cos under a symmetric germ, and
# each one would otherwise seed ghost monomials in every loop closure that
# substitutes the estimator.  This is the one place coefficients are pruned.
CLEANUP_REL = 1e-14


class DegreeMatrix:
    """All degree combinations of the full tensor grid, one per row.

    Rows run in row-major order over {0..d1} x ... x {0..dk}: the first row
    is all zeros, the last is the degree vector itself.
    """

    __slots__ = ("degrees", "rows")

    def __init__(self, degrees):
        self.degrees = tuple(_degree(d) for d in degrees)
        if any(d < 0 for d in self.degrees):
            raise ValueError("degrees must be nonnegative")
        L = 1
        for d in self.degrees:
            L *= d + 1
            if L > MAX_ROWS:
                raise ValueError(f"degree matrix would exceed {MAX_ROWS} rows")
        self.rows = list(itertools.product(*[range(d + 1) for d in self.degrees]))

    @property
    def L(self):
        return len(self.rows)

    @property
    def k(self):
        return len(self.degrees)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, j):
        return self.rows[j]

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self):
        return f"DegreeMatrix(degrees={self.degrees}, L={self.L})"


class PceExpansion:
    """A built expansion: bases, degree matrix, coefficients, estimator, se."""

    def __init__(self, germs, bases, D, coeffs, se):
        self.germs = germs
        self.bases = bases
        self.D = D
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.se = float(se)
        self._estimator = None

    @property
    def estimator(self):
        """The assembled MultiPoly, built on first read.  Concurrent first
        reads may each assemble it; the builds are bitwise equal."""
        if self._estimator is None:
            self._estimator = _assemble_estimator(self.bases, self.D, self.coeffs)
        return self._estimator

    def moments(self):
        """(mean, variance) of the truncated expansion.

        With orthonormal bases the mean is the all-zeros-row coefficient and
        the variance is the sum of the remaining squared coefficients.
        """
        mean = float(self.coeffs[0])
        var = float(np.dot(self.coeffs[1:], self.coeffs[1:]))
        return mean, var

    def evaluate(self, z):
        return self.estimator.evaluate(z)

    def __repr__(self):
        return (
            f"PceExpansion(degrees={self.D.degrees}, L={self.D.L}, "
            f"se={self.se:.6g})"
        )


def _bases(germs, degrees, n_nodes):
    """One orthonormal basis per germ, of the matching degree, each checked
    on the germ's n_nodes projection rule (the one expand projects on), so
    no rule is built for the check alone.  That rule integrates the Gram matrix
    exactly when n_nodes exceeds the degree; when it does not, p_n_nodes
    vanishes on every node and the check raises GramSchmidtError."""
    return [gram_schmidt(d, deg, n_nodes) for d, deg in zip(germs, degrees)]


_NOT_FINITE = "function is not finite at germ point {point}"


def _evaluations(g, rules):
    """g on the tensor grid of rules, as (lo, values) slabs along the last
    germ axis for _project and along the first for _square_errors.  A grid
    of at most quad._SLAB_POINTS points is one slab along either axis, so g
    is evaluated once and both passes read the same array; a larger grid is
    evaluated lazily, once per pass that is run."""
    if math.prod(len(r) for r in rules) <= quad._SLAB_POINTS:
        whole = list(quad._slabs(g, rules, 0, _NOT_FINITE))
        return whole, whole
    return quad._slabs(g, rules, -1, _NOT_FINITE), quad._slabs(g, rules, 0, _NOT_FINITE)


def _project(slabs, rules, mat_sets):
    """Coefficient tensors, one per entry of mat_sets, each entry holding the
    value matrices of one basis per germ on the rules' nodes.

    Axis i of a tensor runs over degrees 0 .. its basis's degree, so its
    row-major order is the degree-matrix order.  slabs holds the function's
    values along the last germ axis (_evaluations); each slab is contracted
    with the weighted basis matrices of axes 0 .. k-2 in turn, and the
    partials, joined end to end along the last axis, with the last one.
    """
    weighted = [[r.weights[:, None] * mat for mat, r in zip(mats, rules)] for mats in mat_sets]
    partials = [[] for _ in mat_sets]
    for _, values in slabs:
        for mats, parts in zip(weighted, partials):
            partial = values
            for mat in mats[:-1]:
                # move the leading node axis to the back as a degree axis
                partial = np.tensordot(partial, mat, axes=([0], [0]))
            parts.append(partial)
    tensors = []
    for mats, parts in zip(weighted, partials):
        coeff_tensor = np.tensordot(np.concatenate(parts), mats[-1], axes=([0], [0]))
        if not np.isfinite(coeff_tensor).all():
            row = tuple(int(j) for j in np.argwhere(~np.isfinite(coeff_tensor))[0])
            raise ValueError(f"coefficient for degree row {row} is not finite")
        tensors.append(coeff_tensor)
    return tensors


def _square_errors(slabs, rules, fits):
    """int (g - ghat)^2 dF on the tensor grid of rules for each fit, a fit
    being (coefficient tensor, basis value matrices on the rules' nodes),
    with ghat evaluated through the matrices (exact and stable, unlike raw
    monomial form).  A fit of None stands for ghat = 0: its integral,
    int g^2 dF, is the numeric stand-in for the L2 precondition on finite
    values, and ValueError is raised unless it is finite.

    slabs holds g's values along axis 0 (_evaluations); each slab's squares
    are summed over the trailing axes, last first, and the sums, joined end
    to end, over axis 0.
    """
    sums = [[] for _ in fits]
    for lo, values in slabs:
        for fit, parts in zip(fits, sums):
            with np.errstate(over="ignore"):
                if fit is None:
                    sq = values**2
                else:
                    coeff_tensor, mats = fit
                    approx = np.tensordot(coeff_tensor, mats[0][lo:lo + len(values)],
                                          axes=([0], [1]))
                    for mat in mats[1:]:
                        approx = np.tensordot(approx, mat, axes=([0], [1]))
                    # approx is a fresh array: reuse it for the residual and its square
                    sq = np.square(np.subtract(values, approx, out=approx), out=approx)
            parts.append(quad._contract_trailing(sq, rules))
    integrals = [float(np.concatenate(parts) @ rules[0].weights) for parts in sums]
    for fit, integral in zip(fits, integrals):
        if fit is None and not math.isfinite(integral):
            raise ValueError("integral of g^2 is not finite; g is not square-integrable here")
    return integrals


def _se(square_error):
    return math.sqrt(max(square_error, 0.0))


def expand(g, germs, degrees, n_nodes=DEFAULT_NODES):
    """Build the truncated PCE of g over a RandomVector.

    g takes one argument per germ (vectorized over numpy arrays).  Returns a
    PceExpansion whose coefficient j is the inner product of g with the j-th
    product basis polynomial, in degree-matrix row order.  Each basis is
    checked on the n_nodes rule that projects onto it, so n_nodes must exceed
    every degree, or GramSchmidtError is raised.
    """
    if isinstance(germs, Density):
        germs = RandomVector([germs])
    D = DegreeMatrix(degrees)
    if D.k != len(germs):
        raise ValueError(f"{D.k} degrees for {len(germs)} germs")
    bases = _bases(germs, D.degrees, n_nodes)
    rules = [build_rule(d, n_nodes) for d in germs]
    mats = [b.eval_matrix(r.nodes) for b, r in zip(bases, rules)]
    by_last, by_first = _evaluations(g, rules)
    (coeff_tensor,) = _project(by_last, rules, [mats])
    _, square_error = _square_errors(by_first, rules, [None, (coeff_tensor, mats)])
    return PceExpansion(germs, bases, D, coeff_tensor.reshape(-1), _se(square_error))


def _assemble_estimator(bases, D, coeffs):
    """Sum of coefficient * product of univariate basis polynomials (raw x),
    without the terms below CLEANUP_REL times the largest |coefficient|."""
    k = D.k
    uni = [[p.to_multi(k, i) for p in bases[i].polys] for i in range(k)]
    total = MultiPoly(k)
    for j, row in enumerate(D):
        if coeffs[j] == 0.0:
            continue
        term = MultiPoly.constant(k, coeffs[j])
        for i, deg in enumerate(row):
            if deg:
                term = term * uni[i][deg]
        total = total + term
    cap = CLEANUP_REL * max(map(abs, total.terms.values()), default=0.0)
    return MultiPoly._trusted(k, {e: c for e, c in total.terms.items() if abs(c) >= cap})


def error_se(expansion, g, n_nodes=DEFAULT_NODES):
    """Recompute sqrt(int (g - ghat)^2 dF) for an existing expansion."""
    rules = [build_rule(d, n_nodes) for d in expansion.germs]
    mats = [b.eval_matrix(r.nodes) for b, r in zip(expansion.bases, rules)]
    shape = tuple(deg + 1 for deg in expansion.D.degrees)
    (square_error,) = _square_errors(_evaluations(g, rules)[1], rules,
                                     [(expansion.coeffs.reshape(shape), mats)])
    return _se(square_error)


# -- degree-independent error bound under a truncated density --------------

BOUND_EXPANSION_DEGREE = 60


def error_bound(g, support, germ=None, n_nodes=2 * DEFAULT_NODES):
    """Upper bound on the squared f-norm approximation error of g.

    For a density f supported on [a, b] and a Normal reference germ with pdf
    phi, the bound is (2 / min(phi(a), phi(b)) + 1) * Var_phi(g(Z)).  The
    variance is the tail of a degree-60 expansion (sum of squared
    non-constant coefficients), mirroring the identity Var_phi(g) =
    sum_{i>=1} c_i^2 that the bound's proof rests on.  Its basis, unchecked,
    is the germ's own: orthonormal on the germ's +-10 sigma window, where
    Hermite polynomials past degree ~20 are not.
    """
    a, b = float(support[0]), float(support[1])
    if not a < b:
        raise ValueError("need a < b")
    if germ is None:
        germ = Density.normal(0.0, 1.0)
    if germ.family != "Normal":
        raise ValueError("reference germ must be Normal")
    rule = build_rule(germ, n_nodes)
    vals = np.asarray(g(rule.nodes), dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("g is not finite on the reference germ support")

    basis = _basis(germ, BOUND_EXPANSION_DEGREE).eval_matrix(rule.nodes)
    c = (rule.weights * vals) @ basis[:, 1:]
    var = float(c @ c)

    edge = min(germ.pdf(a), germ.pdf(b))
    if edge <= 0:
        raise ValueError(f"support [{a}, {b}] reaches outside the reference germ's range")
    return (2.0 / edge + 1.0) * var


# -- iteration-conditioned estimator --------------------------------------


class LagrangeConditional:
    """Counter-indexed combination of per-iteration estimators.

    Holds polynomials P_1 .. P_N (one per iteration); the combined estimator
    sum_n P_n * prod_{j != n} (c - j) / (n - j) hits P_n exactly when the
    counter c equals n.  evaluate() uses the product form of the selector to
    keep that exactness; expanded into monomials of the counter, its terms
    would cancel in floating point once N passes about 12, so the loop
    engine applies one step map per iteration instead
    (engine.lagrange_schedule).
    """

    def __init__(self, polys):
        polys = list(polys)
        if not polys:
            raise ValueError("need at least one estimator (N >= 1)")
        arity = polys[0].arity
        if any(p.arity != arity for p in polys):
            raise ValueError("estimators must share arity")
        self.polys = polys
        self.arity = arity

    @property
    def N(self):
        return len(self.polys)

    def selector(self, n, c):
        """Value of the n-th Lagrange selector at counter value c."""
        out = 1.0
        for j in range(1, self.N + 1):
            if j != n:
                out *= (c - j) / (n - j)
        return out

    def evaluate(self, c, germ_values):
        total = 0.0
        for n, p in enumerate(self.polys, start=1):
            s = self.selector(n, c)
            if s != 0.0:
                total += s * p.evaluate(germ_values)
        return total


def lagrange_conditional(estimators):
    """Combine per-iteration estimators; accepts PceExpansion or MultiPoly."""
    polys = [e.estimator if isinstance(e, PceExpansion) else e for e in estimators]
    return LagrangeConditional(polys)
