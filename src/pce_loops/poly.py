"""Dense univariate and sparse multivariate polynomials.

UniPoly stores a dense coefficient list indexed by degree; MultiPoly maps
exponent tuples to coefficients and is the workhorse for estimator assembly
and loop-update substitution.  Arithmetic is plain float arithmetic that
drops only exact zeros: coefficient noise is pruned once, where it arises,
when pce assembles an expansion's estimator.
"""

import math
from operator import add, itemgetter

import numpy as np

__all__ = ["UniPoly", "MultiPoly"]


class UniPoly:
    """Univariate polynomial, coeffs[i] multiplying x^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [float(v) for v in coeffs]
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        self.coeffs = c if c else [0.0]

    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation, vectorized over numpy inputs."""
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return float(acc) if acc.ndim == 0 else acc

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0.0] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return UniPoly(out)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return UniPoly([c * other for c in self.coeffs])
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, UniPoly) else UniPoly([-other]))

    def to_multi(self, arity, var):
        """Embed as a MultiPoly in `arity` variables, acting on variable `var`."""
        terms = {}
        for i, c in enumerate(self.coeffs):
            if c != 0.0:
                e = [0] * arity
                e[var] = i
                terms[tuple(e)] = c
        return MultiPoly(arity, terms)

    def __repr__(self):
        return f"UniPoly({self.coeffs})"


class MultiPoly:
    """Sparse polynomial in `arity` variables.

    terms: dict mapping exponent tuples (length == arity) to nonzero floats.
    The empty dict is the zero polynomial.  Instances are treated as
    immutable; every operation returns a new object.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        self.arity = int(arity)
        clean = {}
        if terms:
            for exp, c in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != self.arity:
                    raise ValueError(f"exponent {exp} has wrong length for arity {self.arity}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = float(c)
                if c != 0.0:
                    clean[exp] = clean.get(exp, 0.0) + c
        self.terms = {e: c for e, c in clean.items() if c != 0.0}

    @classmethod
    def _trusted(cls, arity, terms):
        """Wrap a dict whose keys are already int tuples of length arity and
        whose values are nonzero floats, skipping __init__'s checks."""
        obj = object.__new__(cls)
        obj.arity = arity
        obj.terms = terms
        return obj

    @classmethod
    def _pruned(cls, arity, terms):
        """Like _trusted, but first drop the zero coefficients, in place:
        terms must be a dict the caller owns."""
        for e in [e for e, c in terms.items() if c == 0.0]:
            del terms[e]
        return cls._trusted(arity, terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, arity, c):
        arity, c = int(arity), float(c)
        return cls._trusted(arity, {(0,) * arity: c} if c != 0.0 else {})

    @classmethod
    def variable(cls, arity, i):
        arity = int(arity)
        e = [0] * arity
        e[i] = 1
        return cls._trusted(arity, {tuple(e): 1.0})

    # -- ring ops ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return MultiPoly._pruned(self.arity, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            other = float(other)
            return MultiPoly._trusted(
                self.arity, {e: v for e, c in self.terms.items() if (v := c * other) != 0.0})
        other = self._coerce(other)
        out = {}
        _accumulate_product(out, self.terms, other.terms)
        return MultiPoly._pruned(self.arity, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n != int(n) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.constant(self.arity, 1.0)
        base = self
        n = int(n)
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.arity != self.arity:
                raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
            return other
        if isinstance(other, (int, float)):
            return MultiPoly.constant(self.arity, other)
        raise TypeError(f"cannot combine MultiPoly with {type(other).__name__}")

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, var):
        return max(map(itemgetter(var), self.terms), default=0)

    def constant_term(self):
        return self.terms.get((0,) * self.arity, 0.0)

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0.0)

    def evaluate(self, z):
        """Evaluate at a point (sequence of length arity).

        Monomials share power computations per variable, which keeps repeated
        evaluation during testing reasonably fast and stable.
        """
        z = list(z)
        if len(z) != self.arity:
            raise ValueError(f"point has length {len(z)}, arity is {self.arity}")
        maxdeg = [self.degree_in(i) for i in range(self.arity)]
        powers = [[1.0] for _ in range(self.arity)]
        for i, d in enumerate(maxdeg):
            for _ in range(d):
                powers[i].append(powers[i][-1] * z[i])
        total = 0.0
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    term *= powers[i][k]
            total += term
        return total

    def evaluate_many(self, zs):
        """Vectorized evaluate: zs has shape (arity, npoints)."""
        zs = np.asarray(zs, dtype=float)
        out = np.zeros(zs.shape[1])
        for e, c in self.terms.items():
            term = np.full(zs.shape[1], c)
            for i, k in enumerate(e):
                if k:
                    term = term * zs[i] ** k
            out += term
        return out

    # -- substitution ------------------------------------------------------

    def substitute(self, var, replacement, powers=None):
        """Replace variable `var` by a polynomial of the same arity.

        The result is sum_k group_k * replacement**k, where group_k collects
        the terms with var^k.  powers, when given, caches replacement**k by
        k and may be shared between calls with the same replacement: each
        power is then built once, by one multiplication from the one below.
        """
        if isinstance(replacement, (int, float)):
            replacement = MultiPoly.constant(self.arity, replacement)
        if replacement.arity != self.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {replacement.arity}")
        if powers is None:
            powers = {}
        grouped = {}
        for e, c in self.terms.items():
            k = e[var]
            rest = e[:var] + (0,) + e[var + 1 :]
            group = grouped.setdefault(k, {})
            group[rest] = group.get(rest, 0.0) + c
        out = grouped.pop(0, {})
        for k in range(1, max(grouped, default=0) + 1):
            if k not in powers:
                powers[k] = powers[k - 1] * replacement if k > 1 else replacement
            if k in grouped:
                _accumulate_product(out, grouped[k], powers[k].terms)
        return MultiPoly._pruned(self.arity, out)

    # -- rendering ---------------------------------------------------------

    def render(self, names=None, digits=5):
        """Human-readable form, highest exponents first: "10x - 20".  A term
        whose magnitude prints as 0 at digits is left out, and "0" stands
        for a polynomial with no term left."""
        if names is None:
            names = [f"x{i+1}" for i in range(self.arity)] if self.arity > 1 else ["x"]
        pieces = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "".join(
                f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k
            )
            mag = f"{abs(c):.{digits}f}"
            if "." in mag:
                mag = mag.rstrip("0").rstrip(".")
            if mag == "0":
                continue
            if mono and mag == "1":
                body = mono
            else:
                body = f"{mag}{mono}"
            pieces.append(("- " if c < 0 else "+ ") + body)
        if not pieces:
            return "0"
        head = pieces[0]
        head = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([head] + pieces[1:])

    def to_json_dict(self):
        return {
            "arity": self.arity,
            "terms": [
                {"exp": list(e), "c": c} for e in sorted(self.terms) for c in [self.terms[e]]
            ],
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["arity"], {tuple(t["exp"]): t["c"] for t in d["terms"]})

    def __repr__(self):
        return f"MultiPoly({self.arity}, {self.render()})"

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, tuple(sorted(self.terms.items()))))


def _accumulate_product(out, a, b):
    """out += a * b, all three exponent -> coefficient dicts."""
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0.0) + ca * cb


def almost_equal(p, q, tol=1e-9):
    """Coefficientwise comparison with absolute tolerance."""
    if p.arity != q.arity:
        return False
    exps = set(p.terms) | set(q.terms)
    return all(math.isclose(p.coefficient(e), q.coefficient(e), abs_tol=tol) for e in exps)
