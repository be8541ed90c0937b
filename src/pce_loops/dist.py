"""Univariate densities used as PCE germs.

Four families are supported: Normal, Uniform, TruncNormal and TruncGamma.
Every density knows its pdf, its support, its raw moments and how to draw
samples; the truncated families carry a normalization constant (the
reciprocal mass of the untruncated pdf on the truncation interval) that is
computed by quadrature at construction time, once per density value in a
process (_mass).

Parameter conventions: ``sigma`` is always a standard deviation, gamma uses
``k`` (shape) and ``theta`` (scale).  An unbounded Normal is integrated over
mu +- 10 sigma, which loses less than 1e-22 of its mass.

The Gauss-rule kernel lives here too, below quad, so that the composite
Gauss-Legendre panels every quadrature here uses are built by the same
kernel as quad's rules: a rule from the first n rows of an orthonormal
recurrence (_golub_welsch), and _values, the recurrence run on points.
"""

import functools
import math
from types import MappingProxyType

import numpy as np

__all__ = ["FAMILY_PARAMS", "Density", "RandomVector", "density_from_dict",
           "location_scale", "affine_law"]

# Half-width, in standard deviations, of the integration window used for an
# untruncated Normal.  Mass outside is ~1.5e-23, far below quadrature noise.
NORMAL_CUTOFF_SIGMAS = 10.0

# Each family's parameter names, in the order its constructor takes them.
# The JSON form, the DSL and the benchmark tables all read this one table.
FAMILY_PARAMS = {
    "Normal": ("mu", "sigma"),
    "Uniform": ("a", "b"),
    "TruncNormal": ("mu", "sigma", "a", "b"),
    "TruncGamma": ("k", "theta", "a", "b"),
}

# The location-scale families.  A member is the law of loc + scale*Z, Z drawn
# from the family's standard member, which is symmetric about 0.  Each entry
# holds the standard member's parameters, a member's (loc, scale) from its
# parameters, and a member's parameters from (loc, scale).
_LOCATION_SCALE = {
    "Normal": ((0.0, 1.0), lambda mu, sigma: (mu, sigma), lambda loc, scale: (loc, scale)),
    "Uniform": ((-1.0, 1.0), lambda a, b: (0.5 * (a + b), 0.5 * (b - a)),
                lambda loc, scale: (loc - scale, loc + scale)),
}


# Truncated densities whose normalizing mass _mass keeps.
_MASS_MEMO = 64


def _normal_logpdf(x, mu, sigma):
    z = (x - mu) / sigma
    return -0.5 * z * z - math.log(sigma) - 0.5 * math.log(2.0 * math.pi)


class Density:
    """One continuous univariate distribution, a value: its family and its
    parameters.  The constructor checks each parameter (a finite int or
    float, not a bool, in its family's range) and works out the support
    (mu +- NORMAL_CUTOFF_SIGMAS sigma for a Normal, else [a, b]) and
    norm_const.  None of family, params, support and norm_const can be
    rebound or deleted, and a density pickles as (family, params), so all
    that is computed from it, memos keyed on it included, follows from its
    value.  Two densities are equal, and hash alike, when their families
    and parameters are, each parameter of the same type: Uniform(-1, 5) and
    Uniform(-1.0, 5.0) differ in the last bit of their 22nd raw moment.
    """

    def __init__(self, family, params):
        names = _names(family)
        for name in names:
            if name not in params:
                raise ValueError(f"missing parameter {name!r} for family {family}")
        if len(params) != len(names):
            raise ValueError(f"{family} takes only the parameters {', '.join(names)}")
        p = {name: _finite(family, name, params[name]) for name in names}
        if "sigma" in p and not p["sigma"] > 0:
            raise ValueError("sigma must be positive")
        if family == "TruncGamma" and not (p["k"] > 0 and p["theta"] > 0 and p["a"] >= 0):
            raise ValueError("need k > 0, theta > 0 and a >= 0")
        if "a" in p and not p["a"] < p["b"]:
            raise ValueError("need a < b")
        if family == "Normal":
            half = NORMAL_CUTOFF_SIGMAS * p["sigma"]
            support = (float(p["mu"] - half), float(p["mu"] + half))
        else:
            support = (float(p["a"]), float(p["b"]))
        if not -math.inf < support[0] < support[1] < math.inf:
            raise ValueError(f"support {support} is empty or unbounded in floats")
        # raw moments and the sampling table are computed once per instance
        fields = vars(self)
        fields.update(family=family, params=MappingProxyType(p), support=support, norm_const=1.0,
                      _key=(family,) + tuple((n, type(v), v) for n, v in sorted(p.items())),
                      _moment_cache={})
        if family in ("TruncNormal", "TruncGamma"):
            mass = _mass(self)
            if not 0.0 < mass < math.inf:
                raise ValueError(f"{self!r} has no mass in floats on {support}")
            fields["norm_const"] = 1.0 / mass

    def _read_only(self, name, *value):
        raise AttributeError(f"a Density is read-only; cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return Density, (self.family, dict(self.params))

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, family, *params):
        """The `family` density with `params` in FAMILY_PARAMS order, e.g.
        ``Density.of("Uniform", 1.0, 2.0)``."""
        names = _names(family)
        if len(params) != len(names):
            raise ValueError(f"{family} takes {len(names)} parameters, not {len(params)}")
        return cls(family, dict(zip(names, params)))

    @classmethod
    def normal(cls, mu, sigma):
        """N(mu, sigma^2), integrated over mu +- 10 sigma
        (NORMAL_CUTOFF_SIGMAS).  The cut loses about 1.5e-23 of the mass, but
        high orthogonal polynomials feel it: up to degree ~20 the basis built
        on this density is Hermite's, above that it is this truncated
        normal's (at degree 30 the recurrence coefficient b_j is 10% below
        sqrt(j))."""
        return cls.of("Normal", mu, sigma)

    @classmethod
    def uniform(cls, a, b):
        return cls.of("Uniform", a, b)

    @classmethod
    def trunc_normal(cls, mu, sigma, a, b):
        return cls.of("TruncNormal", mu, sigma, a, b)

    @classmethod
    def trunc_gamma(cls, k, theta, a, b):
        return cls.of("TruncGamma", k, theta, a, b)

    # -- core --------------------------------------------------------------

    def _base_pdf(self, x):
        """Untruncated pdf evaluated on the support (vectorized)."""
        x = np.asarray(x, dtype=float)
        p = self.params
        if self.family in ("Normal", "TruncNormal"):
            return np.exp(_normal_logpdf(x, p["mu"], p["sigma"]))
        if self.family == "Uniform":
            return np.full_like(x, 1.0 / (p["b"] - p["a"]))
        # TruncGamma: x^(k-1) e^(-x/theta) / (Gamma(k) theta^k)
        k, theta = p["k"], p["theta"]
        with np.errstate(divide="ignore"):
            logx = np.log(np.where(x > 0, x, 1.0))
        logpdf = (k - 1.0) * logx - x / theta - math.lgamma(k) - k * math.log(theta)
        out = np.exp(logpdf)
        return np.where(x > 0, out, 0.0)

    def pdf(self, x):
        """Normalized pdf; zero outside the support."""
        x = np.asarray(x, dtype=float)
        inside = (x >= self.support[0]) & (x <= self.support[1])
        val = self.norm_const * self._base_pdf(np.where(inside, x, self.support[0]))
        result = np.where(inside, val, 0.0)
        return float(result) if result.ndim == 0 else result

    def raw_moment(self, k):
        """E[X^k] by quadrature.  raw_moment(0) is exactly 1.  Each order is
        computed once per instance and kept."""
        if k < 0 or k != int(k):
            raise ValueError("moment order must be a nonnegative integer")
        k = int(k)
        if k not in self._moment_cache:
            self._moment_cache[k] = self._raw_moment(k)
        return self._moment_cache[k]

    def _raw_moment(self, k):
        if k == 0:
            return 1.0
        # closed forms where cheap and exact
        p = self.params
        if self.family == "Uniform":
            a, b = p["a"], p["b"]
            return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
        if self.family == "Normal":
            return _normal_raw_moment(p["mu"], p["sigma"], k)
        if k % 2 and self.family == "TruncNormal" and p["mu"] == 0 and p["a"] == -p["b"]:
            return 0.0  # odd moment of a symmetric density
        val = _panel_integral(lambda x: x**k * self.pdf(x), *self.support)
        return float(val)

    def mean(self):
        return self.raw_moment(1)

    def std(self):
        m1 = self.raw_moment(1)
        var = max(self.raw_moment(2) - m1 * m1, 0.0)
        return math.sqrt(var)

    # -- sampling ----------------------------------------------------------

    def sample(self, rng, size=None):
        """Draw from the density using a numpy Generator.

        Normal and Uniform defer to the generator directly; the truncated
        families invert a tabulated quadrature cdf by bisection, which keeps
        every draw inside the support by construction.
        """
        p = self.params
        if self.family == "Normal":
            return rng.normal(p["mu"], p["sigma"], size)
        if self.family == "Uniform":
            return rng.uniform(p["a"], p["b"], size)
        grid, cdf = self._cdf_table
        u = rng.uniform(0.0, 1.0, size)
        return np.interp(u, cdf, grid)

    @functools.cached_property
    def _cdf_table(self):
        """Monotone (grid, cdf) table for inverse-cdf sampling."""
        a, b = self.support
        grid = np.linspace(a, b, 4096 + 1)
        mid = 0.5 * (grid[1:] + grid[:-1])
        # Simpson on each cell: (f(a) + 4 f(m) + f(b)) h / 6
        fa = self.pdf(grid[:-1])
        fm = self.pdf(mid)
        fb = self.pdf(grid[1:])
        cell = (fa + 4.0 * fm + fb) * np.diff(grid) / 6.0
        cdf = np.concatenate([[0.0], np.cumsum(cell)])
        cdf /= cdf[-1]
        return grid, cdf

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Density) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        args = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.family}({args})"

    def to_dict(self):
        return {"family": self.family, **self.params}


@functools.lru_cache(maxsize=_MASS_MEMO)
def _mass(density):
    """The untruncated pdf's mass on a truncated density's support, kept for
    the _MASS_MEMO densities used last.  Densities compare by _key, so a
    mass is integrated once per density value, and int and float parameters
    (TruncNormal(4, 1, 3, 5), TruncNormal(4.0, 1.0, 3.0, 5.0)) keep theirs
    apart."""
    return _panel_integral(density._base_pdf, *density.support)


def density_from_dict(spec):
    """Build a Density from its JSON form, e.g.
    ``{"family": "TruncNormal", "mu": 2, "sigma": 0.1, "a": 1, "b": 3}``.
    Keys other than the family's parameters are ignored.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a density is a JSON object, not {spec!r}")
    family = spec.get("family")
    return Density(family, {n: spec[n] for n in _names(family) if n in spec})


def _names(family):
    """The parameter names of `family`; ValueError for an unknown family."""
    if not isinstance(family, str) or family not in FAMILY_PARAMS:
        raise ValueError(f"unknown density family {family!r}")
    return FAMILY_PARAMS[family]


def _finite(family, name, value):
    """value, if it is a finite int or float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"parameter {name!r} of {family} must be a number, not {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"parameter {name!r} of {family} is an integer too large "
                         "for a float") from None
    if not finite:
        raise ValueError(f"parameter {name!r} of {family} must be finite, not {value!r}")
    return value


def location_scale(density):
    """(standard, loc, scale) such that `density` is the law of
    loc + scale*Z, Z ~ standard: N(0, 1) for a Normal (so its +-10 sigma
    window maps onto the standard's +-10), U(-1, 1) for a Uniform.  None for
    the other families."""
    entry = _LOCATION_SCALE.get(density.family)
    if entry is None:
        return None
    standard, to_loc_scale, _ = entry
    loc, scale = to_loc_scale(*(density.params[n] for n in FAMILY_PARAMS[density.family]))
    return Density.of(density.family, *standard), loc, scale


def affine_law(density, a, b):
    """The law of a*W + b, W ~ density, for a Normal or Uniform W; None for
    the other families.  The standard members are symmetric, so a < 0 scales
    by |a|."""
    entry = _LOCATION_SCALE.get(density.family)
    if entry is None:
        return None
    _, to_loc_scale, from_loc_scale = entry
    loc, scale = to_loc_scale(*(density.params[n] for n in FAMILY_PARAMS[density.family]))
    return Density.of(density.family, *from_loc_scale(a * loc + b, abs(a) * scale))


class RandomVector:
    """Ordered tuple of mutually independent densities (the germ vector)."""

    def __init__(self, components):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("need at least one component")

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def sample(self, rng, size=None):
        """Independent draws per component; shape (len, size) or (len,)."""
        return np.array([d.sample(rng, size) for d in self.components])

    def __repr__(self):
        return "RandomVector(" + ", ".join(map(repr, self.components)) + ")"


def _normal_raw_moment(mu, sigma, k):
    """E[X^k] for X ~ N(mu, sigma^2) via the binomial/central-moment sum:
    odd central moments vanish, the j-th even one is (j - 1)!! sigma^j."""
    total = 0.0
    for j in range(0, k + 1, 2):
        central = math.prod(range(j - 1, 0, -2)) * sigma**j if j else 1.0
        total += math.comb(k, j) * central * mu ** (k - j)
    return total


# -- Gauss rules from a three-term recurrence ------------------------------


def _values(alphas, offdiag, x):
    """[p_0(x), ..., p_d(x)] for d = len(alphas) - 1, by the orthonormal
    recurrence b_{j+1} p_{j+1} = (x - a_j) p_j - b_j p_{j-1}, p_0 = 1, with
    a_j = alphas[j] and b_{j+1} = offdiag[j]."""
    x = np.asarray(x, dtype=float)
    p = [np.ones_like(x)]
    for j in range(len(alphas) - 1):
        r = (x - alphas[j]) * p[j]
        if j:
            r -= offdiag[j - 1] * p[j - 1]
        p.append(r / offdiag[j])
    return p


def _golub_welsch(alphas, offdiag):
    """(nodes, weights) of the n-point Gauss rule of the probability measure
    whose first n recurrence rows are (alphas, offdiag); the weights sum to 1.

    The nodes are the eigenvalues of the Jacobi matrix (Golub and Welsch,
    Math. Comp. 1969), the weights the Christoffel numbers
    1 / sum_{j<n} p_j(node)^2 from the same recurrence (Gautschi 2004), which
    stay accurate relative to their size where squared eigenvector
    components carry absolute error of order eps^2 and tiny tail weights are
    noise.
    """
    n = len(alphas)
    jacobi = np.zeros((n, n))
    jacobi.flat[::n + 1] = alphas
    jacobi.flat[n::n + 1] = offdiag  # eigvalsh reads the lower triangle
    nodes = np.linalg.eigvalsh(jacobi)
    weights = 1.0 / sum(p * p for p in _values(alphas, offdiag, nodes))
    return nodes, weights / weights.sum()


def _legendre_rows(n):
    """First n recurrence rows of U(-1, 1), Legendre's in closed form:
    a_j = 0, b_j = j / sqrt(4 j^2 - 1)."""
    j = np.arange(1.0, n)
    return np.zeros(n), j / np.sqrt(4.0 * j * j - 1.0)


@functools.cache
def _panel_rule():
    """The 24-node Gauss-Legendre rule on [-1, 1], weights summing to 2,
    that every panel of _panels uses: the Gauss kernel on Legendre's rows,
    built on first use."""
    nodes, weights = _golub_welsch(*_legendre_rows(24))
    return nodes, 2.0 * weights


def _panels(a, b, panels):
    """(points, weights) of the composite rule that puts _panel_rule on each
    of `panels` equal panels of [a, b]."""
    x, w = _panel_rule()
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def _panel_integral(f, a, b, panels=64):
    """Composite 24-node Gauss-Legendre integral of f on [a, b].

    Internal workhorse for normalization constants and fallbacks; the quad
    module's Stieltjes backbone uses the same panels, 80 of them.
    """
    pts, wts = _panels(a, b, panels)
    return float(np.dot(wts, f(pts)))
