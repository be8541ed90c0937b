"""Loop transformation and moment computation.

polynomialize evaluates each update of a loop over MultiPoly with
lang.eval_expr, which hands it every sin/cos/exp/log call to replace by its
PCE polynomial (germ substituted by the call argument); engine reads no
expression node itself.  Expansions are memoized across calls, so
re-polynomializing a program expands nothing twice.
close_monomials finds the finite monomial set a target's expectation
recursion lives on, with each member's one-step expectation as a MultiPoly,
and propagate turns one loop iteration into a linear map on that set,
giving exact per-iteration moments.  Both rest on _close, whose step map
goes from the array closure kernel to np.bincount as arrays; only
close_monomials builds MultiPoly rows.  simulate runs the original program
forward under its true semantics as the independent Monte Carlo oracle.

Sequential update semantics throughout: each update sees the values written
by the updates above it in the body.  Expectations of a monomial after one
iteration are obtained by substituting updates in reverse body order and
integrating out each fresh draw with the raw moments of its distribution
(draws are independent of everything sampled before them).  A draw that
only one update reads is integrated out of that update's powers instead,
before they are substituted.  A schedule (lagrange_schedule) closes once:
its N programs share one monomial numbering, and each sweep sends every
program's rows for its block of monomials through the steps together, an
update that is the same in every program sharing one set of powers.  A
closure and its step maps depend only on the programs' steps and the seed
monomials, so one bounded process-wide memo, keyed by that content, sits in
front of _close: a repeated query or schedule closes nothing again, though
a query's first closure costs what it did.  A closure miss builds an
update's powers when a sweep first needs them, and all of its sweeps share
them.
"""

import functools
import os
import threading
from collections import OrderedDict

import numpy as np

from .dist import Density, affine_law
from .lang import NUMPY_CALLS, DistDraw, _stable, eval_expr, expr_calls, well_formed
from .orthopoly import _degree
from .pce import expand
from .poly import MultiPoly
from .quad import DEFAULT_NODES

__all__ = [
    "PolynomializedProgram",
    "MomentTable",
    "polynomialize",
    "close_monomials",
    "propagate",
    "simulate",
    "lagrange_schedule",
    "parse_monomial",
]

CLOSURE_LIMIT = 10**5
# Monomials past this total degree mean the one-step recursion is feeding on
# ever-higher powers (e.g. a squared self-update); refusing early keeps the
# failure cheap, since substitution cost grows with the exponent.
DEGREE_LIMIT = 200
# Monomials per closure sweep, which bounds the arrays one sweep
# holds.  At 64, the widest step of the degree-9 turning x^2*y^2 closure
# holds 11k terms instead of 15k, and on a 2-vCPU x86-64 host the peak RSS
# of a process running it is about 1 MiB lower, for about 5% more closure
# time.
_SWEEP_ROWS = 64

# Expansions in the memo of polynomialize, which maps (function, germ,
# degree, n_nodes) to expand's result; the least recently used goes first.
_MEMO_EXPANSIONS = 64
_expansions = OrderedDict()
_expansions_lock = threading.Lock()

# Step nonzeros held by the memo of _close, which maps programs' steps and
# seed monomials to their closure and step maps; the least recently used
# goes first.  One vehicle-suite pass fills 8 entries, one of them its
# schedule's, with 14,879 nonzeros (24 bytes each); the bound is about
# 6 MiB of arrays.
_MEMO_STEP_NONZEROS = 250_000
_closures = OrderedDict()
_closures_lock = threading.Lock()

# Reference germ used for accumulating-argument call sites when the caller
# does not configure one.
DEFAULT_REFERENCE_GERM = ("Normal", 0.0, 1.0)


class MomentTable:
    """Per-iteration expectations of a closed set of monomials.

    vars is the ordered state-variable list; monomials are exponent tuples
    over vars; values has shape (iterations + 1, len(monomials)) with row n
    holding the expectations after n iterations.  stderr is None for exact
    propagation and the Monte Carlo standard errors for simulation.
    """

    def __init__(self, variables, monomials, values, stderr=None, targets=None):
        self.vars = list(variables)
        self.monomials = [tuple(m) for m in monomials]
        self.values = np.asarray(values, dtype=float)
        self.stderr = None if stderr is None else np.asarray(stderr, dtype=float)
        self.targets = [tuple(t) for t in (targets if targets is not None else monomials)]
        self._index = {m: i for i, m in enumerate(self.monomials)}

    @property
    def iterations(self):
        return self.values.shape[0] - 1

    def column(self, monomial):
        m = _monomial(monomial, self.vars)
        if m not in self._index:
            raise KeyError(f"monomial {format_monomial(m, self.vars)} not tracked")
        return self._index[m]

    def value(self, n, monomial):
        return float(self.values[n, self.column(monomial)])

    def value_stderr(self, n, monomial):
        if self.stderr is None:
            return 0.0
        return float(self.stderr[n, self.column(monomial)])

    def variance(self, n, var):
        """Var(var) at iteration n; needs both first and second moments.

        A negative difference is rounding up to 1e-9 of max(1, E[var^2])."""
        i = self.vars.index(var)
        first = [0] * len(self.vars)
        second = list(first)
        first[i], second[i] = 1, 2
        square = self.value(n, second)
        v = square - self.value(n, first) ** 2
        if v < -1e-9 * max(1.0, square):
            raise ArithmeticError(f"negative variance {v:.3e} for {var} at n={n}")
        return max(v, 0.0)

    def rows(self, monomial=None):
        """(n, name, value[, stderr]) tuples for reporting."""
        monos = self.targets if monomial is None else [self.monomials[self.column(monomial)]]
        out = []
        for m in monos:
            c = self.column(m)
            name = format_monomial(m, self.vars)
            for n in range(self.values.shape[0]):
                row = (n, name, float(self.values[n, c]))
                if self.stderr is not None:
                    row += (float(self.stderr[n, c]),)
                out.append(row)
        return out


def format_monomial(m, variables):
    if not any(m):
        return "1"
    parts = []
    for v, k in zip(variables, m):
        if k == 1:
            parts.append(v)
        elif k > 1:
            parts.append(f"{v}^{k}")
    return "*".join(parts)


def parse_monomial(text, variables):
    """Parse "x", "x^2" or "x^2*y" into an exponent tuple over variables;
    a power must be a nonnegative integer."""
    m = [0] * len(variables)
    text = text.strip()
    if text in ("1", ""):
        return tuple(m)
    for factor in text.split("*"):
        name, caret, power = factor.strip().partition("^")
        name, power = name.strip(), power.strip()
        if name not in variables:
            raise ValueError(f"unknown variable {name!r} (have {', '.join(variables)})")
        if caret and not power.isdecimal():
            raise ValueError(f"power in {factor.strip()!r} is not a nonnegative integer")
        m[variables.index(name)] += int(power) if caret else 1
    return tuple(m)


def _monomial(m, variables):
    """m as an exponent tuple over variables: a string is parsed, anything
    else taken as the exponents, one nonnegative integer per variable, or a
    ValueError names it."""
    if isinstance(m, str):
        return parse_monomial(m, variables)
    m = tuple(m)
    if len(m) != len(variables):
        raise ValueError(f"target {m} does not match state variables {variables}")
    if not all(type(p) is int for p in m):
        m = tuple(_degree(p, f"exponent in target {m}") for p in m)
    if min(m, default=0) < 0:
        raise ValueError(f"target {m} has a negative exponent")
    return m


class PolynomializedProgram:
    """A loop whose updates are polynomials or draws, plus provenance.

    Variable space for body polynomials: state variables first, then the
    per-iteration draw variables.  provenance holds one record per replaced
    call site with the expansion degree, germ model, coefficients and se.
    schedule is empty for a loop whose every iteration runs body; for an
    iteration-indexed loop (lagrange_schedule) it holds one program per
    iteration, and body, the first one's, is never swept on its own.
    reads holds the variables each step reads, None for a draw.  With
    program's inits, body is a loop that lang.well_formed accepts, of state
    state_vars and draws draw_vars, or the constructor raises ValueError.
    """

    def __init__(self, program, state_vars, draw_vars, body, provenance):
        self.program = program
        self.state_vars = list(state_vars)
        self.draw_vars = list(draw_vars)
        self.all_vars = self.state_vars + self.draw_vars
        self.var_index = {v: i for i, v in enumerate(self.all_vars)}
        self.body = list(body)  # ("draw", var, Density) | ("assign", var, MultiPoly)
        for kind, var, p in self.body:
            if kind == "assign" and p.arity != len(self.all_vars):
                raise ValueError(f"update {var!r} is a polynomial in {p.arity} variables, "
                                 f"not in the {len(self.all_vars)} of {self.all_vars}")
        self.reads = [None if kind == "draw" else _fields(p, self.all_vars)
                      for kind, _, p in self.body]
        lists = well_formed([i.var for i in program.inits],
                            [(var, reads) for (_, var, _), reads in zip(self.body, self.reads)])
        if lists != (self.state_vars, self.draw_vars):
            raise ValueError(f"state {self.state_vars} and draws {self.draw_vars} differ "
                             f"from the body's: state {lists[0]}, draws {lists[1]}")
        self.provenance = list(provenance)
        self.schedule = ()

    @property
    def name(self):
        return self.program.name

    def max_se(self):
        return max((p["se"] for p in self.provenance), default=0.0)

    def __repr__(self):
        return (
            f"PolynomializedProgram({self.name!r}, vars={self.state_vars}, "
            f"sites={len(self.provenance)})"
        )


def polynomialize(program, degree=5, germ=None, per_site=None, n_nodes=DEFAULT_NODES):
    """Replace non-polynomial calls with PCE polynomials.

    degree and germ set the default expansion config; per_site maps a call
    site index (textual order, each update's calls in expr_calls order, as
    validate_conditions lists them) to a dict with optional "degree" and
    "germ" entries; an entry that names no call site or holds another
    field is refused, and so is a degree that is not an integer (a bool, a
    float).  Each update is evaluated over MultiPoly by eval_expr, which
    hands each call, with its argument's polynomial, to the replacement in
    site order.  Stable sites read their germ off the argument's
    polynomial when it is affine in one draw; accumulating sites fall back
    to the standard normal reference germ.
    """
    n_sites = sum(len(expr_calls(u.expr)) for u in program.body if not isinstance(u, DistDraw))
    per_site = per_site or {}
    for site, cfg in per_site.items():
        if site not in range(n_sites):
            raise ValueError(f"per_site entry {site!r} names no call site; "
                             f"the program has {n_sites}")
        unknown = set(cfg) - {"degree", "germ"}
        if unknown:
            raise ValueError(f"per_site entry {site!r}: unknown field "
                             f"{', '.join(sorted(map(repr, unknown)))}; "
                             "fields are 'degree' and 'germ'")
    draw_density = {u.var: u.density for u in program.body if isinstance(u, DistDraw)}
    all_vars = program.state_vars + program.draw_vars
    arity = len(all_vars)
    env = {v: MultiPoly.variable(arity, i) for i, v in enumerate(all_vars)}
    const = functools.partial(MultiPoly.constant, arity)

    provenance = []

    def stable_germ(arg_poly):
        # A stable argument holds only draws.  When it is a*w + b for one
        # draw w, its germ is w's density, moved by a and b unless they are
        # 1 and 0.
        terms = dict(arg_poly.terms)
        b = terms.pop((0,) * arity, 0.0)
        if len(terms) != 1:
            return None
        ((exp, a),) = terms.items()
        if sum(exp) != 1:
            return None
        d = draw_density[all_vars[exp.index(1)]]
        return d if (a, b) == (1.0, 0.0) else affine_law(d, a, b)

    def replace_call(update, call, arg_poly):
        # eval_expr meets the sites in textual order, one record per site so far
        i = len(provenance)
        cfg = per_site.get(i, {})
        deg = _degree(cfg.get("degree", degree),
                      f"per_site entry {i}: degree" if "degree" in cfg else "degree")
        stable = _stable(call.arg, program.draw_vars)
        g = cfg.get("germ", germ)
        if g is None:
            if stable:
                g = stable_germ(arg_poly)
                if g is None:
                    raise ValueError(
                        f"call site {i} ({call.render()}): "
                        "cannot infer a germ from the argument; configure one per site"
                    )
            else:
                g = Density.of(*DEFAULT_REFERENCE_GERM)
        exp_obj = _expansion(call.fn, g, deg, n_nodes)
        provenance.append({
            "site": i,
            "update": update,
            "function": call.fn,
            "argument": call.arg.render(),
            "iteration_stable": stable,
            "germ": g.to_dict(),
            "degree": deg,
            "coeffs": [float(c) for c in exp_obj.coeffs],
            "se": exp_obj.se,
        })
        return _compose(exp_obj, arg_poly)

    body = []
    for u in program.body:
        if isinstance(u, DistDraw):
            body.append(("draw", u.var, u.density))
        else:
            call = functools.partial(replace_call, u.var)
            body.append(("assign", u.var, eval_expr(u.expr, env, const, call)))
    return PolynomializedProgram(program, program.state_vars, program.draw_vars, body,
                                 provenance)


def _expansion(fn, germ, degree, n_nodes):
    """expand's result for one call site, memoized across calls."""
    return _memoized(_expansions, _expansions_lock, (fn, germ, degree, n_nodes),
                     lambda: expand(NUMPY_CALLS[fn], germ, (degree,), n_nodes=n_nodes),
                     _MEMO_EXPANSIONS)


_MISSING = object()


def _memoized(memo, lock, key, build, bound, weigh=lambda value: 1):
    """memo[key], from build() on a miss.  memo is an OrderedDict in least
    recently used order.  build runs under lock, so threads that race on a
    key build it once.  memo keeps entries whose weights add up to at most
    bound, the least recently used out first, and a heavier value is not
    stored.

    A hit hashes key twice (get, move_to_end), and the total is summed
    over dict.values(memo) on a miss: iterating an OrderedDict's own values
    would hash every key again."""
    with lock:
        value = memo.get(key, _MISSING)
        if value is not _MISSING:
            memo.move_to_end(key)
            return value
        value = build()
        weight = weigh(value)
        if weight <= bound:
            total = sum(map(weigh, dict.values(memo))) + weight
            memo[key] = value
            while total > bound:
                total -= weigh(memo.popitem(last=False)[1])
        return value


def _compose(exp_obj, arg_poly):
    """A univariate expansion's estimator with its germ replaced by the
    polynomial arg_poly, by Horner's scheme."""
    est, arity = exp_obj.estimator, arg_poly.arity
    top = est.degree_in(0)
    acc = MultiPoly.constant(arity, est.coefficient((top,)))
    for k in range(top - 1, -1, -1):
        acc = acc * arg_poly + MultiPoly.constant(arity, est.coefficient((k,)))
    return acc


# The closure kernel holds a set of terms as a table and a coefficient
# vector: table is an int64 array of shape (len(all_vars) + 1, n) whose
# column j holds term j's exponents followed by its row, the index of the
# frontier monomial whose expectation the term belongs to.


def _sort_columns(table):
    """(order, starts): order sorts the columns of table so that equal ones
    are adjacent, and starts flags each sorted position whose column differs
    from the one before.

    Each field is packed into as many bits as its largest entry needs, into
    one int64 key when the entries present fit in 63 bits together;
    otherwise the columns are sorted field by field."""
    widths = [w.bit_length() for w in table.max(axis=1, initial=0).tolist()]
    starts = np.ones(table.shape[1], dtype=bool)
    if sum(widths) <= 63:
        keys = np.left_shift(1, np.cumsum([0] + widths[:-1])) @ table
        order = np.argsort(keys)
        keys = keys[order]
        starts[1:] = keys[1:] != keys[:-1]
    else:
        order = np.lexsort(table)
        columns = table[:, order]
        starts[1:] = (columns[:, 1:] != columns[:, :-1]).any(axis=0)
    return order, starts


def _first_occurrences(table):
    """(group, pick): group[j] numbers the distinct column of term j, and
    pick[g] is the first term of distinct column g.  Distinct columns are
    numbered in order of first occurrence."""
    order, starts = _sort_columns(table)
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    is_first = np.zeros(len(order), dtype=bool)
    is_first[first] = True
    rank = (np.cumsum(is_first) - 1)[first]   # per sorted distinct column
    group = np.empty(len(order), dtype=np.intp)
    group[order] = rank[np.cumsum(starts) - 1]
    return group, np.flatnonzero(is_first)


def _combine(table, coefs):
    """Add up the terms whose columns are equal and drop the zero sums.

    Terms come back in order of first occurrence and each sum is formed in
    input order, so every row is the dict that a MultiPoly operation
    accumulating the same terms in the same order builds."""
    group, pick = _first_occurrences(table)
    sums = np.bincount(group, weights=coefs, minlength=len(pick))
    keep = sums != 0.0
    return table[:, pick[keep]], sums[keep]


class _Powers:
    """The powers of one update polynomial P, from an assign step's terms
    and fold (_steps), with the draws folded into it integrated out,
    stacked: columns first[k]:first[k] + size[k] of table (row field 0) and
    coefs hold E[P^k] over those draws, from E[P^0] = 1 up, and fields
    lists the fields they hold.  Each P^k is one MultiPoly product of the
    one below and P; the folded draws are integrated out of all powers an
    upto call builds at once, with the power as the row field, so that call
    fetches each raw moment once.  upto only appends, so the sweeps of one
    closure share the powers the earlier ones built."""

    def __init__(self, arity, terms, fold):
        self.poly = MultiPoly._trusted(arity, dict(terms))
        self.fold = fold
        self.fields = sorted(_fields(self.poly) - {idx for idx, _ in fold})
        self.table = np.zeros((arity + 1, 1), dtype=np.int64)
        self.coefs = np.ones(1)
        self.first, self.size = np.zeros(1, dtype=np.intp), np.ones(1, dtype=np.intp)
        self._last = None

    def upto(self, top):
        """self, with every power up to the top-th built."""
        built = len(self.size)
        if built > top:
            return self
        exps, coefs, power = [], [], []
        for k in range(built, top + 1):
            self._last = self._last * self.poly if self._last else self.poly
            exps.extend(self._last.terms)
            coefs.extend(self._last.terms.values())
            power.extend([k] * len(self._last.terms))
        arity = self.poly.arity
        table = np.empty((arity + 1, len(coefs)), dtype=np.int64)
        table[:-1] = np.array(exps, dtype=np.int64).reshape(-1, arity).T
        table[-1] = power
        coefs = np.array(coefs)
        if self.fold:
            for idx, density in self.fold:
                table, coefs = _integrate(table, coefs, idx, density.raw_moment)
            table, coefs = _combine(table, coefs)
        sizes = np.bincount(table[-1], minlength=top + 1)[built:]
        table[-1] = 0
        self.table = np.concatenate([self.table, table], axis=1)
        self.coefs = np.concatenate([self.coefs, coefs])
        self.size = np.concatenate([self.size, sizes])
        self.first = np.cumsum(self.size) - self.size
        return self


class _Stack:
    """The _Powers of one update step in each body of a joint closure whose
    bodies update it differently (_groups), stacked: E[P^k] of body b sits at
    position b * width + k of first and size, over one table and coefs, and
    fields is the union of the bodies' fields.  upto builds every body's
    powers up to top and stacks them again only when one grew."""

    def __init__(self, parts):
        self.parts = parts
        self.width = 0

    def upto(self, top):
        if self.width > top:
            return self
        parts = [p.upto(top) for p in self.parts]
        self.width = top + 1
        ends = np.cumsum([len(p.coefs) for p in parts])
        self.table = np.concatenate([p.table for p in parts], axis=1)
        self.coefs = np.concatenate([p.coefs for p in parts])
        self.size = np.concatenate([p.size[:self.width] for p in parts])
        self.first = np.concatenate([p.first[:self.width] + end - len(p.coefs)
                                     for p, end in zip(parts, ends)])
        self.fields = sorted(set().union(*(p.fields for p in parts)))
        return self


def _substitute(table, coefs, idx, powers, body=None):
    """Replace field idx's k-th power by E[P^k] (powers, a _Powers) in every
    term.  The terms without the variable come first, then the products of
    each degree in turn: each term of that degree, in input order, times
    every term of the power, in the order MultiPoly multiplication visits
    the pairs.  With body, each term's body, powers is a _Stack and a term
    takes its body's power."""
    order = np.argsort(table[idx], kind="stable")
    degrees = table[idx, order]
    at = degrees if body is None else body[order] * powers.width + degrees
    sizes = powers.size[at]
    ends = np.cumsum(sizes)
    source = np.repeat(order, sizes)
    column = np.arange(ends[-1]) + np.repeat(powers.first[at] - ends + sizes, sizes)
    out = table[:, source]
    out[idx] = 0
    for f in powers.fields:
        out[f] += powers.table[f, column]
    return out, coefs[source] * powers.coefs[column]


def _integrate(table, coefs, idx, *moments, body=None):
    """Replace field idx's k-th power by moment(k), the raw moment E[w^k] of
    the random input the field holds, in every term; a power 0 keeps its
    coefficient as it is.  moments holds the one raw-moment function, or,
    with body (each term's body), one per body, and a term takes its
    body's.  Each is called once per power present."""
    degrees = table[idx]
    factor = np.ones((len(moments), int(degrees.max(initial=0)) + 1))
    present = [d for d in np.flatnonzero(np.bincount(degrees)).tolist() if d]
    for row, m in zip(factor, moments):
        for d in present:
            row[d] = m(d)
    table = table.copy()
    table[idx] = 0
    return table, coefs * factor[0 if body is None else body, degrees]


def _may_merge(table, idx, powers):
    """Whether replacing field idx by its powers can make two terms of a row
    equal.  It cannot when every row holds one term, nor when the other
    fields the powers hold are zero in every term and each row holds one
    degree of idx: a product then shows both the term and the power's term
    it came from, and the terms of one power are distinct."""
    rows = table[-1]
    counts = np.bincount(rows)
    if counts.max() <= 1:
        return False
    if table[[f for f in powers.fields if f != idx]].any():
        return True
    degrees = table[idx]
    per_row = np.empty(len(counts), dtype=degrees.dtype)
    per_row[rows] = degrees
    return bool((per_row[rows] != degrees).any())


def _fields(poly, names=None):
    """The set of fields (variable indices) poly's terms hold, or of their
    names when names lists them."""
    names = names or range(poly.arity)
    return {names[i] for e in poly.terms for i, p in enumerate(e) if p}


def _folds(pp):
    """{update position: [(draw field, density), ...]}, the draws folded
    into each update's powers.  A draw is folded when exactly one update
    reads it: the draw is then independent of everything else in each term
    that update's powers multiply, so E[w^j] can be taken inside the
    powers."""
    folds = {}
    for kind, var, density in pp.body:
        if kind == "draw":
            readers = [r for r, reads in enumerate(pp.reads) if reads and var in reads]
            if len(readers) == 1:
                folds.setdefault(readers[0], []).append((pp.var_index[var], density))
    return folds


def _steps(pp):
    """The steps a sweep takes, in reverse body order, as a tuple of their
    hashable content: ("draw", field, density) integrates a draw, and
    ("assign", field, terms, fold) substitutes an update, terms being its
    polynomial's terms in order and fold the (field, density) pairs of the
    draws folded into its powers.  A folded draw takes no step of its own."""
    if pp.schedule:
        raise ValueError(
            "a scheduled program has one step map per iteration; "
            "propagate it, or close the programs of its schedule"
        )
    folds = _folds(pp)
    folded = {idx for fold in folds.values() for idx, _ in fold}
    steps = []
    for pos in range(len(pp.body) - 1, -1, -1):
        kind, var, payload = pp.body[pos]
        idx = pp.var_index[var]
        if kind == "draw":
            if idx not in folded:
                steps.append((kind, idx, payload))
            continue
        steps.append((kind, idx, tuple(payload.terms.items()), tuple(folds.get(pos, ()))))
    return tuple(steps)


def _groups(steps):
    """The bodies of a closure in groups of one step layout, from each
    body's steps (_steps): ((members, joint steps), ...) in order of first
    appearance, members numbering the bodies.  A layout is the kind and
    field of every step, in order; the bodies of a schedule share one
    unless a site stops reading a draw.  A joint step is (kind, field,
    contents), contents holding the step's content (a draw's density; an
    update's terms and fold) once when it is equal in every member and once
    per member otherwise."""
    layouts = {}
    for b, body_steps in enumerate(steps):
        layouts.setdefault(tuple(step[:2] for step in body_steps), []).append(b)
    groups = []
    for layout, members in layouts.items():
        joint = []
        for pos, (kind, idx) in enumerate(layout):
            contents = [steps[b][pos][2:] for b in members]
            if all(c == contents[0] for c in contents[1:]):
                contents = contents[:1]
            joint.append((kind, idx, tuple(contents)))
        groups.append((tuple(members), tuple(joint)))
    return tuple(groups)


def _sweep(bodies, frontier, steps, powers):
    """One-step expectations of a frontier of state monomials under each of
    bodies, as a table and coefficients: row b * len(frontier) + j holds the
    expectation of frontier[j] under bodies[b].

    Every row goes through the joint steps (_groups, reverse body order) at
    once: an update replaces var^k by E[P^k], the k-th power of its
    polynomial with its folded draws integrated out, and a draw left
    unfolded replaces w^k by E[w^k]; a step whose content differs between
    bodies takes each term's power or moment from its row's body.  powers
    maps a step's position to its update's _Powers, or _Stack when the
    bodies differ there; a step that finds none there makes it, so the
    sweeps that share powers build each update's powers once, and only for
    the updates whose variable they meet.  Equal terms are combined after
    each step that can make any (_may_merge); otherwise only exact zeros are
    dropped.  No row's terms depend on the other rows."""
    pp = bodies[0]
    n, k = len(frontier), len(pp.state_vars)
    table = np.zeros((len(pp.all_vars) + 1, n * len(bodies)), dtype=np.int64)
    table[:k] = np.tile(np.array(frontier, dtype=np.int64).reshape(n, k).T, len(bodies))
    table[-1] = np.arange(table.shape[1])
    coefs = np.ones(table.shape[1])
    for pos, (kind, idx, contents) in enumerate(steps):
        top = int(table[idx].max(initial=0))
        if not top:
            continue
        body = None if len(contents) == 1 else table[-1] // n
        if kind == "draw":
            moments = [density.raw_moment for (density,) in contents]
            table, coefs = _combine(*_integrate(table, coefs, idx, *moments, body=body))
            continue
        if pos not in powers:
            made = [_Powers(len(pp.all_vars), *c) for c in contents]
            powers[pos] = made[0] if body is None else _Stack(made)
        power = powers[pos].upto(top)
        merge = _may_merge(table, idx, power)
        table, coefs = _substitute(table, coefs, idx, power, body)
        if merge:
            table, coefs = _combine(table, coefs)
        elif not coefs.all():
            keep = coefs != 0.0
            table, coefs = table[:, keep], coefs[keep]
    return table, coefs


def one_step_expectation(pp, monomial):
    """Expectation of a state monomial after one iteration, as a polynomial
    in the previous iteration's state monomials."""
    ((_, steps),) = _groups((_steps(pp),))
    table, coefs = _sweep((pp,), [tuple(monomial)], steps, {})
    return MultiPoly._trusted(len(pp.all_vars), dict(zip(map(tuple, table[:-1].T.tolist()),
                                                          coefs.tolist())))


def _close(bodies, targets):
    """close_monomials' closure under every one of bodies, in sorted order,
    and each body's step map as COO triplets (rows, cols, data) over that
    order, read-only.

    bodies is a tuple of programs over the same variables: the programs of
    a schedule, or one program alone.  They close once, as one joint frontier
    (_closure), and each map is bitwise the one that closing its program
    alone over the returned order gives.  targets are monomial strings or
    exponent tuples over the state variables.  The result depends only on
    the steps of the bodies and on the seed set, so one process-wide memo
    (_closures) holds it under the state and variable counts, every body's
    steps as _steps gives them, whose densities compare by value, and the
    sorted seeds.  Only a miss builds update powers.  A hit returns the
    stored arrays and a fresh list of the order.  A closure that raises
    stores nothing, and the memo holds at most _MEMO_STEP_NONZEROS step
    nonzeros, least recently used out first."""
    bodies = tuple(bodies)
    pp = bodies[0]
    if any((b.state_vars, b.draw_vars) != (pp.state_vars, pp.draw_vars) for b in bodies):
        raise ValueError("the programs of one closure must share their variables")
    k = len(pp.state_vars)
    seeds = {(0,) * k}
    for t in targets:
        t = _monomial(t, pp.state_vars)
        seeds.add(t)
        for i, p in enumerate(t):
            if p:
                unit = [0] * k
                unit[i] = 1
                seeds.add(tuple(unit))
    seeds = tuple(sorted(seeds))
    steps = tuple(_steps(b) for b in bodies)
    order, maps = _memoized(_closures, _closures_lock, (k, len(pp.all_vars), steps, seeds),
                            lambda: _closure(bodies, seeds, _groups(steps)),
                            _MEMO_STEP_NONZEROS,
                            weigh=lambda closure: sum(len(m[2]) for m in closure[1]))
    return list(order), maps


def _closure(bodies, monomials, groups):
    """_close's result for a tuple of bodies, built from the sorted seed
    monomials and the bodies' groups of one step layout (_groups).

    Monomials are numbered once, as they are met, and swept in that order,
    which is breadth first: each block of max(1, _SWEEP_ROWS // len(bodies))
    monomials goes through each group in one sweep, one row per (body,
    monomial) pair, so a sweep holds at most max(_SWEEP_ROWS, len(bodies))
    rows.  A group's sweeps share one map of update powers, each built when
    a sweep first needs it.  A term's slot is its row's body times stride
    plus the number of its row's monomial, so a closure keeps one index
    array per sweep, and its column the number of its state exponents,
    looked up once per distinct exponent column.  Draw exponents are zero
    after a sweep and are dropped with the table.  A stable sort by body and
    row keeps each row's terms in sweep order, so np.bincount adds them in
    the order MultiPoly arithmetic with the same folded powers would."""
    k = len(bodies[0].state_vars)
    block = max(1, _SWEEP_ROWS // len(bodies))
    groups = [(np.array(members), [bodies[b] for b in members], steps, {})
              for members, steps in groups]
    monomials = list(monomials)
    number = {m: i for i, m in enumerate(monomials)}
    stride = CLOSURE_LIMIT + 1   # above every monomial number
    slots, cols, data = [], [], []
    swept = 0
    while swept < len(monomials):
        frontier = monomials[swept:swept + block]
        for members, group, steps, powers in groups:
            table, coefs = _sweep(group, frontier, steps, powers)
            column, pick = _first_occurrences(table[:k])
            met = []
            for m in map(tuple, table[:k, pick].T.tolist()):
                if m not in number:
                    if sum(m) > DEGREE_LIMIT:
                        raise ValueError(
                            f"monomial degree {sum(m)} exceeds {DEGREE_LIMIT}; "
                            "the loop is not moment-computable in this form"
                        )
                    number[m] = len(monomials)
                    monomials.append(m)
                    if len(monomials) > CLOSURE_LIMIT:
                        raise ValueError(
                            f"monomial closure exceeds {CLOSURE_LIMIT}; "
                            "the loop is not moment-computable in this form"
                        )
                met.append(number[m])
            # the sweep's row b * len(frontier) + j is monomial swept + j
            # under members[b]
            shift = members * stride - np.arange(len(members)) * len(frontier) + swept
            slots.append(table[-1] + shift[table[-1] // len(frontier)])
            cols.append(np.array(met, dtype=np.intp)[column])
            data.append(coefs)
        swept += len(frontier)
    by_number = sorted(range(len(monomials)), key=monomials.__getitem__)
    rank = np.empty(len(monomials), dtype=np.intp)
    rank[by_number] = np.arange(len(monomials))
    slots = np.concatenate(slots)
    slots += rank[slots % stride] - slots % stride   # each row's place in order
    by_row = np.argsort(slots, kind="stable")
    slots = slots[by_row]
    ends = np.searchsorted(slots, np.arange(len(bodies) + 1) * stride).tolist()
    rows = np.remainder(slots, stride, out=slots)
    arrays = (rows, rank[np.concatenate(cols)][by_row], np.concatenate(data)[by_row])
    for a in arrays:
        a.setflags(write=False)
    return (tuple(monomials[i] for i in by_number),
            tuple(tuple(a[lo:hi] for a in arrays) for lo, hi in zip(ends, ends[1:])))


def close_monomials(pp, targets):
    """Smallest monomial set containing the targets (monomial strings or
    exponent tuples), the unit monomial and the targets' first powers,
    closed under one-step expectation, and each member's one-step
    expectation as a MultiPoly over all variables (draw exponents zero), its
    terms in the order they were made."""
    order, ((rows, cols, data),) = _close((pp,), targets)
    pad = (0,) * len(pp.draw_vars)
    full = [m + pad for m in order]
    terms = list(zip(map(full.__getitem__, cols.tolist()), data.tolist()))
    ends = np.searchsorted(rows, np.arange(len(order) + 1)).tolist()
    step = {m: MultiPoly._trusted(len(pp.all_vars), dict(terms[a:b]))
            for m, a, b in zip(order, ends, ends[1:])}
    return set(order), step


def _initial_moments(pp, monomials):
    """E[m] at n=0 from the independent initial values (missing inits are 0):
    each state variable in turn is integrated out of the monomials, with
    its init's raw moments or a constant's powers."""
    init_value = {i.var: i.value for i in pp.program.inits}
    table = np.array(monomials, dtype=np.int64).reshape(len(monomials), len(pp.state_vars)).T
    coefs = np.ones(len(monomials))
    for idx, v in enumerate(pp.state_vars):
        val = init_value.get(v, 0.0)
        moment = val.raw_moment if isinstance(val, Density) else float(val).__pow__
        table, coefs = _integrate(table, coefs, idx, moment)
    return coefs


def propagate(pp, targets, iterations):
    """Exact per-iteration expectations of the target monomials.

    pp may be a PolynomializedProgram or a call-free LoopProgram.  targets
    are monomial strings ("x", "x^2*y") or exponent tuples over the state
    variables.  A scheduled program applies its n-th program's step map at
    iteration n, over a monomial set closed under every one of them, and
    refuses to go past its last iteration.  Its programs close once, as one
    joint frontier (_close), and it tracks the same closure a plain program
    would: the targets, the unit, the targets' first powers and what some
    program's one step reaches.  A caller who wants another first power,
    say s on a schedule whose steps never reach it, lists it as a target.
    """
    iterations = _degree(iterations, "iterations")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if not isinstance(pp, PolynomializedProgram):
        pp = polynomialize(pp)
    tgt = [_monomial(t, pp.state_vars) for t in targets]
    bodies = pp.schedule or (pp,)
    if pp.schedule and iterations > len(bodies):
        raise ValueError(f"the schedule covers {len(bodies)} iterations, not {iterations}")
    order, maps = _close(bodies, tgt)

    values = np.empty((iterations + 1, len(order)))
    values[0] = _initial_moments(pp, order)
    for n in range(1, iterations + 1):
        rows, cols, data = maps[min(n, len(maps)) - 1]
        values[n] = np.bincount(rows, weights=data * values[n - 1][cols],
                                minlength=len(order))
    unit = order.index((0,) * len(pp.state_vars))
    if abs(values[:, unit] - 1.0).max() > 1e-9:
        raise ArithmeticError("E[1] drifted away from 1 during propagation")
    return MomentTable(pp.state_vars, order, values, targets=tgt)


# -- Monte Carlo oracle ----------------------------------------------------


def simulate(program, iterations, samples=10**6, seed=0, targets=None,
             chunk_size=200_000, threads=None):
    """Run the loop under its original semantics and record empirical moments.

    threads is the number of worker threads, by default the CPU count up to
    4.  Reproducible for a fixed seed regardless of thread count: sample
    chunks get independent child seeds and partial sums merge in chunk order.
    iterations, samples, chunk_size and threads must be integers, and a
    bool or a float is refused.
    """
    iterations, samples = _degree(iterations, "iterations"), _degree(samples, "samples")
    chunk_size = _degree(chunk_size, "chunk_size")
    if threads is not None:
        threads = _degree(threads, "threads")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    state_vars = program.state_vars
    tgt = [_monomial(t, state_vars) for t in (state_vars if targets is None else targets)]
    init_value = {i.var: i.value for i in program.inits}

    def run_chunk(args):
        n_samples, child_seed = args
        rng = np.random.default_rng(child_seed)
        env = {}
        for v in state_vars:
            val = init_value.get(v, 0.0)
            if isinstance(val, Density):
                env[v] = val.sample(rng, n_samples)
            else:
                env[v] = np.full(n_samples, float(val))
        s1 = np.zeros((iterations + 1, len(tgt)))
        s2 = np.zeros_like(s1)

        def record(n):
            for j, m in enumerate(tgt):
                vals = np.ones(n_samples)
                for i, p in enumerate(m):
                    if p:
                        vals = vals * env[state_vars[i]] ** p
                s1[n, j] = vals.sum()
                s2[n, j] = np.square(vals).sum()

        record(0)
        for n in range(1, iterations + 1):
            for u in program.body:
                if isinstance(u, DistDraw):
                    env[u.var] = u.density.sample(rng, n_samples)
                else:
                    val = np.asarray(eval_expr(u.expr, env), dtype=float)
                    if val.ndim == 0:
                        val = np.full(n_samples, float(val))
                    env[u.var] = val
            record(n)
        return s1, s2

    sizes = [chunk_size] * (samples // chunk_size)
    if samples % chunk_size:
        sizes.append(samples % chunk_size)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    jobs = list(zip(sizes, children))
    workers = min(4, os.cpu_count() or 1) if threads is None else threads
    if workers > 1 and len(jobs) > 1:
        # imported here, off the import path of processes that never simulate
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, jobs))
    else:
        parts = [run_chunk(j) for j in jobs]

    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    mean = s1 / samples
    var = np.maximum(s2 / samples - mean**2, 0.0)
    stderr = np.sqrt(var / samples)
    return MomentTable(state_vars, tgt, mean, stderr=stderr, targets=tgt)


def lagrange_schedule(program, site_index, iterations, germs, degree=5,
                      n_nodes=DEFAULT_NODES):
    """Expand one accumulating call site against a different germ at each
    iteration.

    germs supplies the argument's distribution model at each iteration
    n = 1..iterations.  Iteration n's program is the loop polynomialized
    with germs[n - 1] at the site, and the returned program's schedule
    holds the N of them; propagate applies the n-th one's step map at
    iteration n, up to N and no further.  The N programs close once, as one
    joint frontier of N rows per monomial, not once each.  The site appears
    in provenance once per iteration.
    """
    iterations = _degree(iterations, "iterations")
    if iterations < 1:
        raise ValueError("need at least one iteration (N >= 1)")
    germs = list(germs)
    if len(germs) != iterations:
        raise ValueError(f"need {iterations} germ models, got {len(germs)}")
    schedule = tuple(
        polynomialize(program, degree, n_nodes=n_nodes, per_site={site_index: {"germ": g}})
        for g in germs
    )
    first = schedule[0]
    provenance = [p for p in first.provenance if p["site"] != site_index]
    provenance += [dict(p, scheme="lagrange", iteration=n)
                   for n, step in enumerate(schedule, start=1)
                   for p in step.provenance if p["site"] == site_index]
    pp = PolynomializedProgram(program, first.state_vars, first.draw_vars, first.body,
                               provenance)
    pp.schedule = schedule
    return pp
