"""Weighted Gaussian quadrature against a Density, from its orthonormal
three-term recurrence.

A discretized Stieltjes procedure over a fine composite Gauss-Legendre
backbone (pdf folded into the backbone weights) gives the recurrence rows;
orthopoly builds bases from them (Gautschi 2004, section 2.2).  build_rule
cuts an n-node rule, exact to degree 2n - 1, from the first n rows with one
kernel, dist._golub_welsch: the nodes are the Jacobi matrix's eigenvalues
(Golub-Welsch, no eigenvectors) and the weights the Christoffel numbers
1 / sum_{j<n} p_j(node)^2 from the recurrence, which keep tiny tail weights
accurate.  Rows and rules of recent densities are memoized, keyed by the
density itself (densities compare by value): Stieltjes runs row by row, so
the first n rows of a longer run, and the rule cut from them, are bitwise
those of a run to n.  Only the standard members N(0.0, 1.0) (on +-10) and
U(-1.0, 1.0) of the location-scale families, and the other
families' densities, get rows and rules of their own; U(-1, 1) takes
Legendre's rows in closed form, so N(0, 1), TruncNormal and TruncGamma are
the densities that get a Stieltjes run.  Any other Normal or Uniform is the
law of loc + scale*Z for Z its family's standard member
(dist.location_scale), and its memo entry is filled from the standard's:
alphas = loc + scale*alphas_Z, offdiag = scale*offdiag_Z, nodes = loc +
scale*nodes_Z clipped to the support, and the weights are the standard
rule's own array.  The map is also better conditioned than a run on an
off-centre support.  A density's entry also keeps the bases pce has
checked on its rules, so they are bounded, locked and cleared with it.
integrate tensorizes univariate rules for multivariate expectations.  Every
pass over a tensor grid, here and in pce, evaluates the integrand in slabs
of at most _SLAB_POINTS points (_slabs): runs of consecutive nodes along the
first or the last axis, with every node of the others, so memory does not
grow with the grid.  A slab's open grid is the node slices reshaped (and
copied, since the integrand may write to them), its values are broadcast
only when the integrand returns another shape, and one isfinite pass checks
them.  Each slab is contracted over the same axes in the same
order as the whole grid was; BLAS may group the rows of a narrow slab
differently, which can move a result in its last digits.
"""

import math
import threading
from collections import OrderedDict

import numpy as np

from .dist import Density, _golub_welsch, _legendre_rows, _panels, location_scale

__all__ = ["QuadratureRule", "build_rule", "integrate", "convergence_report", "DEFAULT_NODES"]

# Node count per dimension for coefficient integrals unless overridden.
# 2*64 - 1 = 127 covers every degree the benchmarks use many times over.
DEFAULT_NODES = 64

_BACKBONE_PANELS = 80

# Most grid points a tensor-grid pass evaluates at once (0.5 MiB of float64):
# a pass keeps a few slabs of this size live, never the whole grid.
_SLAB_POINTS = 2**16

# Densities in the memo, which maps a density to [alphas, offdiag,
# {n_nodes: read-only (nodes, weights)}, {(degree, n_nodes): checked basis}]
# (the bases are pce._bases'); the least recently used goes first.
_MEMO_DENSITIES = 32
_memo = OrderedDict()
_memo_lock = threading.Lock()


class QuadratureRule:
    """Nodes and weights for one Density; weights sum to 1."""

    __slots__ = ("nodes", "weights", "target", "order")

    def __init__(self, nodes, weights, target, order):
        self.nodes = np.asarray(nodes, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.target = target
        self.order = int(order)

    def __len__(self):
        return len(self.nodes)

    def apply(self, values):
        """Weighted sum of per-node values."""
        return float(np.dot(self.weights, values))

    def expect(self, f):
        """E[f(X)] for the rule's density."""
        return self.apply(f(self.nodes))

    def __repr__(self):
        return f"QuadratureRule(n={self.order}, target={self.target!r})"


def _backbone(density):
    """Fine discrete measure (points, masses) approximating the density.

    Composite Gauss-Legendre panels on the support with the pdf folded into
    the weights; total mass normalized to exactly 1 so downstream rules
    inherit sum(weights) == 1.
    """
    pts, wts = _panels(*density.support, _BACKBONE_PANELS)
    mass = wts * density.pdf(pts)
    total = mass.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError(f"density {density!r} has non-finite mass on its support")
    return pts, mass / total


def _recurrence_coefficients(pts, mass, n):
    """First n rows (alpha_j, sqrt(beta_{j+1})) of the Jacobi matrix.

    Discretized Stieltjes on the vectors u_j = sqrt(mass) * p_j(pts), so
    that alpha_j = u_j . (x u_j) and each norm is a plain dot product; the
    orthonormal recurrence keeps values O(1), so the procedure is stable far
    past the degrees used here.
    """
    alphas = np.empty(n)
    offdiag = np.empty(max(n - 1, 0))
    u_prev = None
    u = np.sqrt(mass)  # p_0 = 1 has unit norm: sum(mass) == 1
    for j in range(n):
        r = pts * u
        alphas[j] = np.dot(u, r)
        if j == n - 1:
            break
        r -= alphas[j] * u
        if j:
            r -= offdiag[j - 1] * u_prev
        norm = math.sqrt(np.dot(r, r))
        if not 0 < norm < math.inf:
            raise ValueError(
                f"measure collapsed at degree {j + 1}; "
                "backbone resolution too low for this node count"
            )
        offdiag[j] = norm
        r /= norm
        u_prev, u = u, r
    return alphas, offdiag


def _memo_entry(density, n_rows):
    """The density's memo entry, with at least n_rows rows; hold _memo_lock."""
    entry = _memo.setdefault(density, [(), (), {}, {}])
    _memo.move_to_end(density)
    if len(_memo) > _MEMO_DENSITIES:
        _memo.popitem(last=False)
    if len(entry[0]) < n_rows:
        mapped = _mapped(density)
        if mapped is None and density.family == "Uniform":
            entry[:2] = _legendre_rows(n_rows)  # U(-1, 1)
        elif mapped is None:
            entry[:2] = _recurrence_coefficients(*_backbone(density), n_rows)
        else:
            standard, loc, scale = mapped
            alphas, offdiag = _memo_entry(standard, n_rows)[:2]
            entry[:2] = loc + scale * alphas, scale * offdiag
    return entry


def _mapped(density):
    """(standard, loc, scale) of a Normal or Uniform other than its family's
    standard member, whose rows and rules are mapped from the standard's;
    None for every other density."""
    mapped = location_scale(density)
    if mapped is None or mapped[0] == density:
        return None
    return mapped


def _rows(density, n):
    """First n rows of the density's orthonormal recurrence, as (alphas,
    offdiag): p_{j+1} = ((x - alphas[j]) p_j - offdiag[j-1] p_{j-1}) / offdiag[j]."""
    with _memo_lock:
        alphas, offdiag = _memo_entry(density, n)[:2]
    return alphas[:n], offdiag[: n - 1]


def _rule(density, n_nodes):
    """The density's memoized n_nodes-point (nodes, weights), both read-only;
    hold _memo_lock.  A mapped density shares its standard's weights."""
    alphas, offdiag, rules, _ = _memo_entry(density, n_nodes)
    if n_nodes not in rules:
        mapped = _mapped(density)
        if mapped is None:
            nodes, weights = _golub_welsch(alphas[:n_nodes], offdiag[: n_nodes - 1])
        else:
            standard, loc, scale = mapped
            std_nodes, weights = _rule(standard, n_nodes)
            nodes = loc + scale * std_nodes
        nodes = np.clip(nodes, *density.support)  # guard against 1-ulp excursions
        nodes.flags.writeable = weights.flags.writeable = False
        rules[n_nodes] = (nodes, weights)
    return rules[n_nodes]


def build_rule(density, n_nodes=DEFAULT_NODES):
    """Gauss rule with n_nodes points, exact to degree 2*n_nodes - 1; its
    nodes and weights arrays are shared between calls and read-only."""
    if not isinstance(density, Density):
        raise TypeError("build_rule needs a Density")
    if n_nodes < 1:
        raise ValueError("need at least one node")
    with _memo_lock:
        nodes, weights = _rule(density, n_nodes)
    return QuadratureRule(nodes, weights, density, n_nodes)


def _slabs(f, rules, axis, message):
    """Evaluate f on the tensor grid of rules one slab at a time.

    A slab is a run of consecutive nodes along axis (0 or -1) with every
    node of the other axes: as many as keep it within _SLAB_POINTS points,
    and at least one.  Yields (lo, values), values being f on the slab whose
    first node along axis is lo (broadcast to the slab's shape), so no pass
    holds the whole grid.  A non-finite value raises ValueError with
    message.format(point=..., index=...) naming the first such point of its
    slab and its index in the whole grid; numpy's warnings for it are
    silenced, since the error reports it.
    """
    nodes = [r.nodes for r in rules]
    k = len(nodes)
    axis %= k
    rows = len(nodes[axis])
    width = max(1, _SLAB_POINTS * rows // math.prod(len(x) for x in nodes))
    # node i's open-grid shape: -1 on axis i, 1 on the others
    shapes = [(1,) * i + (-1,) + (1,) * (k - 1 - i) for i in range(k)]
    for lo in range(0, rows, width):
        part = list(nodes)
        part[axis] = nodes[axis][lo:lo + width]
        shape = tuple(len(x) for x in part)
        # fresh arrays, since f may write to its arguments
        grids = [x.reshape(s).copy() for x, s in zip(part, shapes)]
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            values = np.asarray(f(*grids), dtype=float)
        if values.shape != shape:
            values = np.broadcast_to(values, shape)
        if not np.isfinite(values).all():
            index = [int(i) for i in np.argwhere(~np.isfinite(values))[0]]
            index[axis] += lo
            point = tuple(float(x[i]) for x, i in zip(nodes, index))
            raise ValueError(message.format(point=point, index=tuple(index)))
        yield lo, values


def _contract_trailing(values, rules):
    """Weighted sums of values over every axis but the first, last axis
    first; rules[i] weighs axis i."""
    for r in reversed(rules[1:]):
        values = values @ r.weights
    return values


def integrate(f, rules):
    """Tensor-product expectation of f under the product of rule measures.

    f is called with one array argument per rule (broadcast over the tensor
    grid, a slab of it at a time) and must return finite values at every
    node.
    """
    rules = list(rules)
    if not rules:
        raise ValueError("need at least one rule")
    message = "integrand is not finite at node {point} (grid index {index})"
    sums = [_contract_trailing(values, rules) for _, values in _slabs(f, rules, 0, message)]
    return float(np.concatenate(sums) @ rules[0].weights)


def convergence_report(f, densities, n_nodes=DEFAULT_NODES):
    """Relative change of the integral when the node count doubles.

    Returned as a dict so the CLI can embed it in JSON diagnostics; the
    corpus integrands all come in far below 1e-8.
    """
    coarse = integrate(f, [build_rule(d, n_nodes) for d in densities])
    fine = integrate(f, [build_rule(d, 2 * n_nodes) for d in densities])
    denom = max(abs(fine), 1e-300)
    return {
        "nodes": n_nodes,
        "value": coarse,
        "value_2x": fine,
        "rel_change": abs(fine - coarse) / denom,
    }
