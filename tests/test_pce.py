"""Truncated expansions: coefficients, estimators, error measures."""

import math
import re
import sys
import tracemalloc
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate

from pce_loops import bench, pce, quad
from pce_loops.bench import TABLE2_ROWS
from pce_loops.dist import Density, RandomVector
from pce_loops.orthopoly import GramSchmidtError, OrthonormalBasis, _basis, gram_schmidt
from pce_loops.pce import (
    DegreeMatrix,
    LagrangeConditional,
    _assemble_estimator,
    error_bound,
    error_se,
    expand,
    lagrange_conditional,
)
from pce_loops.poly import MultiPoly
from pce_loops.quad import build_rule
from test_acceptance import BOUND_CORPUS

GOLD_GERMS = RandomVector([
    Density.trunc_normal(2.0, 0.1, 1.0, 3.0),
    Density.uniform(1.0, 2.0),
])
GOLD_COEFFS = [1.2489233, 0.0828874, -0.0030768, 0.0287925, -0.0023918,
               0.0001778, -0.0005907, 0.0000981, -0.0000109]


def test_degree_matrix_row_major():
    D = DegreeMatrix((2, 2))
    assert len(D) == 9
    assert D[0] == (0, 0)
    assert D[1] == (0, 1)
    assert D[3] == (1, 0)
    assert D[8] == (2, 2)


def test_degree_matrix_three_germs():
    D = DegreeMatrix((1, 2, 1))
    assert len(D) == 2 * 3 * 2
    assert D[0] == (0, 0, 0)
    assert D[-1] == (1, 2, 1)


def test_worked_example_coefficients():
    e = expand(lambda x, y: np.log(x + y), GOLD_GERMS, (2, 2))
    got = e.coeffs
    for g, ref in zip(got, GOLD_COEFFS):
        assert abs(g - ref) < 1e-5
    assert e.se == pytest.approx(0.000151895, rel=0.05)


def test_worked_example_estimator_text():
    e = expand(lambda x, y: np.log(x + y), GOLD_GERMS, (2, 2))
    text = e.estimator.render(names=("x", "y"))
    assert text.startswith("-0.01038x^2y^2")
    assert "0.86516x" in text or "0.86515x" in text


def test_estimator_tracks_function():
    e = expand(lambda x, y: np.log(x + y), GOLD_GERMS, (2, 2))
    rng = np.random.default_rng(11)
    xs = rng.uniform(1.8, 2.2, 40)
    ys = rng.uniform(1.0, 2.0, 40)
    err = np.abs(e.estimator.evaluate_many(np.vstack([xs, ys])) - np.log(xs + ys))
    assert err.max() < 5e-4


def test_expansion_of_square_is_exact():
    # z^2 = 1 + sqrt(2) * h2(z) against the standard normal
    e = expand(lambda z: z * z, Density.normal(0.0, 1.0), (2,))
    np.testing.assert_allclose(e.coeffs, [1.0, 0.0, math.sqrt(2)], atol=1e-12)
    assert e.se <= 1e-9
    mean, var = e.moments()
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert var == pytest.approx(2.0, abs=1e-10)


def test_se_zero_for_polynomial_in_grid():
    germs = RandomVector([Density.uniform(0.0, 1.0), Density.normal(0.0, 1.0)])
    e = expand(lambda x, y: 1 + x * y + 0.5 * x**2 - y, germs, (2, 1))
    assert e.se <= 1e-9


def test_se_matches_independent_error_quadrature():
    e = expand(np.exp, Density.normal(0.0, 1.0), (4,))
    assert error_se(e, np.exp, n_nodes=96) == pytest.approx(e.se, rel=1e-6)


def test_parseval_variance_identity():
    germs = RandomVector([Density.trunc_normal(4.0, 1.0, 3.0, 5.0),
                          Density.uniform(4.0, 8.0)])
    e = expand(lambda x, y: np.exp(x - 0.5 * y), germs, (3, 3))
    _, var_coeffs = e.moments()
    # variance of the estimator itself, by quadrature
    rules = [build_rule(d, 64) for d in germs]
    xs, ys = np.meshgrid(rules[0].nodes, rules[1].nodes, indexing="ij")
    vals = e.estimator.evaluate_many(np.vstack([xs.ravel(), ys.ravel()]))
    w = np.outer(rules[0].weights, rules[1].weights).ravel()
    mean_q = float(w @ vals)
    var_q = float(w @ (vals - mean_q) ** 2)
    assert var_coeffs == pytest.approx(var_q, rel=1e-8)


def test_mean_is_first_coefficient():
    e = expand(np.sin, Density.uniform(0.0, 2.0), (5,))
    r = build_rule(Density.uniform(0.0, 2.0), 64)
    assert e.moments()[0] == pytest.approx(r.expect(np.sin), abs=1e-12)


def test_convergence_with_degree():
    # exp against the standard normal has c_i = sqrt(e)/sqrt(i!), so the
    # residual after degree d is se^2 = e * sum_{i>d} 1/i!
    germ = Density.normal(0.0, 1.0)
    errors = [expand(np.exp, germ, (d,)).se for d in (1, 3, 5, 7)]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    for d, got in zip((1, 3, 5, 7), errors):
        tail = math.e - sum(1.0 / math.factorial(i) for i in range(d + 1))
        assert got == pytest.approx(math.sqrt(math.e * tail), rel=1e-6)


def test_error_bound_identity_function():
    # Var of Z itself is 1, so the bound collapses to the edge factor
    bound = error_bound(lambda z: z, (-1.0, 1.0))
    factor = 2.0 / (math.exp(-0.5) / math.sqrt(2 * math.pi)) + 1.0
    assert bound == pytest.approx(factor, rel=1e-9)
    assert bound == pytest.approx(9.26543, rel=1e-4)


def test_error_bound_constant_is_zero():
    bound = error_bound(lambda z: np.full_like(z, 3.0), (-2.0, 0.5))
    assert abs(bound) < 1e-12


def test_error_bound_golden_value():
    # phi is smallest at the endpoints; for [-1, 1] the factor is 2/phi(1)+1
    bound = error_bound(np.exp, (-1.0, 1.0))
    factor = 2.0 / (math.exp(-0.5) / math.sqrt(2 * math.pi)) + 1.0
    # Var exp(Z) = (e - 1) e
    assert bound == pytest.approx(factor * (math.e - 1) * math.e, rel=1e-6)


def test_error_bound_dominates_truncation_error():
    f = Density.trunc_normal(0.0, 1.0, -1.0, 1.0)
    bound = error_bound(np.exp, (-1.0, 1.0))
    for deg in (1, 2, 3, 4):
        e = expand(np.exp, f, (deg,))
        assert e.se**2 < bound


def _hermite_bound(g, support, n_nodes=128):
    """The bound from N(0,1) Hermite values built by their own recurrence,
    h_n = (u h_{n-1} - sqrt(n-1) h_{n-2}) / sqrt(n), independent of the
    germ's Stieltjes rows."""
    germ = Density.normal(0.0, 1.0)
    rule = build_rule(germ, n_nodes)
    vals = np.asarray(g(rule.nodes), dtype=float)
    h_prev = np.zeros_like(rule.nodes)
    h_cur = np.ones_like(rule.nodes)
    var = 0.0
    for n in range(1, 61):
        h_prev, h_cur = h_cur, (rule.nodes * h_cur - math.sqrt(n - 1) * h_prev) / math.sqrt(n)
        c = float(np.dot(rule.weights, vals * h_cur))
        var += c * c
    return (2.0 / min(germ.pdf(support[0]), germ.pdf(support[1])) + 1.0) * var


def _exact_bound(g, support):
    """The bound with Var(g(Z)) by adaptive quadrature over the germ's support."""
    germ = Density.normal(0.0, 1.0)

    def moment(k):
        return integrate.quad(lambda x: g(np.array(x)) ** k * germ.pdf(x), *germ.support,
                              epsabs=1e-15, epsrel=1e-13, limit=500, points=[0.0])[0]

    m0, m1, m2 = moment(0), moment(1), moment(2)
    return (2.0 / min(germ.pdf(support[0]), germ.pdf(support[1])) + 1.0) * (m2 / m0 - (m1 / m0) ** 2)


@pytest.mark.parametrize("g, support", BOUND_CORPUS)
def test_error_bound_against_hermite_recurrence(g, support):
    # error_bound takes its degree-60 basis from the germ's own recurrence.
    # Past degree ~20 the Hermite polynomials are not orthonormal under the
    # +-10 sigma Normal (Gram residual 0.56 at degree 60 on the 128-node
    # rule), so where g's high coefficients matter the two part, and
    # error_bound must be the one nearer the exact bound.
    got, loop, exact = error_bound(g, support), _hermite_bound(g, support), _exact_bound(g, support)
    assert abs(got - exact) <= abs(loop - exact) + 1e-14 * exact
    assert got == pytest.approx(loop, rel=1e-5)


def test_error_bound_needs_interval():
    with pytest.raises(ValueError):
        error_bound(np.exp, (2.0, -2.0))


def test_lagrange_selector_identity_and_annihilation():
    lc = LagrangeConditional([MultiPoly.constant(1, float(n)) for n in range(1, 6)])
    for c in range(1, 6):
        for n in range(1, 6):
            sel = lc.selector(n, float(c))
            assert sel == pytest.approx(1.0 if n == c else 0.0, abs=1e-12)
    # constant estimators: the combined value at counter c is just c
    for c in range(1, 6):
        assert lc.evaluate(float(c), (0.7,)) == pytest.approx(float(c), abs=1e-12)


def test_lagrange_single_estimator_is_unconditional():
    e = expand(np.exp, Density.normal(0.0, 1.0), (4,))
    lc = lagrange_conditional([e])
    for z in (-1.0, 0.0, 0.8):
        assert lc.evaluate(1.0, (z,)) == pytest.approx(e.estimator.evaluate((z,)), abs=1e-12)
        # with N=1 there is no selector product; counter value is irrelevant
        assert lc.evaluate(7.0, (z,)) == lc.evaluate(1.0, (z,))


def test_lagrange_conditional_switches_estimators():
    germ = Density.normal(0.0, 1.0)
    e1 = expand(np.sin, germ, (3,))
    e2 = expand(np.cos, germ, (3,))
    lc = lagrange_conditional([e1.estimator, e2.estimator])
    zs = np.linspace(-1, 1, 9)
    for z in zs:
        assert lc.evaluate(1.0, (z,)) == pytest.approx(e1.estimator.evaluate((z,)), abs=1e-12)
        assert lc.evaluate(2.0, (z,)) == pytest.approx(e2.estimator.evaluate((z,)), abs=1e-12)


def test_expand_rejects_mismatched_degrees():
    with pytest.raises(ValueError):
        expand(np.exp, GOLD_GERMS, (2,))


def test_expand_checks_each_basis_on_its_projection_rule():
    # a 9-node rule cannot integrate p_9^2 (p_9 vanishes on its nodes); 10 can
    germ = Density.normal(0.0, 1.0)
    with pytest.raises(GramSchmidtError):
        expand(np.cos, germ, (9,), n_nodes=9)
    assert expand(np.cos, germ, (9,), n_nodes=10).bases[0].gram_residual < 1e-12


def test_expand_rejects_non_square_integrable_values():
    # log blows up at zero, an endpoint of the support
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            expand(np.log, Density.uniform(-1.0, 1.0), (3,))


def test_lazy_estimator_equals_an_eager_build():
    germs3 = RandomVector([Density.normal(0.0, 1.0), Density.uniform(4.0, 8.0),
                           Density.trunc_gamma(1.0, 3.0, 0.5, 1.0)])
    cases = [(lambda x, y: np.log(x + y), GOLD_GERMS, (2, 2)),
             (lambda x, y, z: np.cos(x) * np.exp(y - z), germs3, (3, 1, 2))]
    for g, germs, degrees in cases:
        e = expand(g, germs, degrees)
        eager = _assemble_estimator(e.bases, e.D, e.coeffs)
        lazy = e.estimator
        assert lazy is e.estimator
        assert [(m, c.hex()) for m, c in lazy.terms.items()] == \
            [(m, c.hex()) for m, c in eager.terms.items()]


def _multipoly_assembly(bases, D, coeffs):
    """The estimator as MultiPoly arithmetic builds it, row by row: the
    oracle of the array assembly."""
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
    cap = 1e-14 * max(map(abs, total.terms.values()), default=0.0)
    return MultiPoly._trusted(k, {e: c for e, c in total.terms.items() if abs(c) >= cap})


def _assert_assembly_matches_multipoly(bases, D, coeffs):
    got, want = _assemble_estimator(bases, D, coeffs), _multipoly_assembly(bases, D, coeffs)
    assert [(m, c.hex()) for m, c in got.terms.items()] == \
        [(m, c.hex()) for m, c in want.terms.items()]
    assert all(type(e) is int for m in got.terms for e in m)


def test_array_assembly_matches_multipoly_products():
    row4 = TABLE2_ROWS[3]
    cases = [(lambda x, y: np.log(x + y), GOLD_GERMS, (2, 2)),
             (np.cos, Density.normal(0.0, 1.0), (9,)),
             (np.exp, Density.normal(0.0, 1.2), (8,)),
             (row4.fn, RandomVector([Density.of(*g) for g in row4.germs]), (3, 3, 3))]
    for g, germs, degrees in cases:
        e = expand(g, germs, degrees)
        _assert_assembly_matches_multipoly(e.bases, e.D, e.coeffs)
    assert len(_assemble_estimator(e.bases, e.D, e.coeffs).terms) == 46


def test_array_assembly_matches_multipoly_products_through_cancellation():
    """With c_00 = -c_20 * p2(0), the x^0 y^0 sum is exactly zero after row
    (2, 0); MultiPoly drops the term there and row (2, 1) puts it back,
    after the x^2 term that row (2, 0) brought in.  Random coefficients, some zero, on a third and
    fourth basis cover rows that are skipped."""
    bases = [_basis(Density.uniform(-1.0, 1.0), 2), _basis(Density.uniform(1.0, 3.0), 1)]
    D = DegreeMatrix((2, 1))
    coeffs = np.array([0.0, 0.0, 0.5, -0.25, 1.0, 1.0])
    coeffs[0] = -coeffs[4] * bases[0].raw[2, 0]
    got = _assemble_estimator(bases, D, coeffs)
    order = list(got.terms)
    assert order.index((0, 0)) > order.index((2, 0))
    _assert_assembly_matches_multipoly(bases, D, coeffs)
    rng = np.random.default_rng(3)
    bases += [_basis(Density.normal(0.5, 2.0), 4), _basis(Density.trunc_gamma(1.0, 3.0, 0.5, 1.0), 3)]
    for degrees in [(2, 1), (2, 1, 4), (1, 0, 4, 3)]:
        D = DegreeMatrix(degrees)
        coeffs = rng.standard_normal(D.L) * (rng.random(D.L) < 0.8)
        _assert_assembly_matches_multipoly(bases[:D.k], D, coeffs)


def test_array_assembly_holds_one_block_of_products_at_a_time(monkeypatch):
    for elements in (1, 7, 2**16):
        monkeypatch.setattr(pce, "_ASSEMBLY_ELEMENTS", elements)
        e = expand(TABLE2_ROWS[3].fn, RandomVector([Density.of(*g) for g in TABLE2_ROWS[3].germs]),
                   (2, 3, 1))
        _assert_assembly_matches_multipoly(e.bases, e.D, e.coeffs)


def test_expand_projects_on_the_gram_check_values(monkeypatch):
    """Each basis is evaluated on the projection rule once, by its Gram
    check, and the coefficients are those of evaluating it again."""
    calls = []
    real = OrthonormalBasis.eval_matrix
    monkeypatch.setattr(OrthonormalBasis, "eval_matrix",
                        lambda self, x: calls.append(len(x)) or real(self, x))
    germs = RandomVector([Density.normal(0.0, 1.0), Density.uniform(1.0, 2.0)])
    e = expand(lambda x, y: np.cos(x) * y, germs, (4, 3), n_nodes=20)
    assert calls == [20, 20]
    rules = [build_rule(d, 20) for d in germs]
    mats = [real(b, r.nodes) for b, r in zip(e.bases, rules)]
    assert all(b.rule_values.tobytes() == m.tobytes() for b, m in zip(e.bases, mats))
    assert not any(b.rule_values.flags.writeable for b in e.bases)


def test_expand_reports_where_the_function_is_not_finite():
    u = Density.uniform(1.0, 2.0)
    nodes = build_rule(u, 64).nodes
    pole = float(nodes[5])
    message = f"function is not finite at germ point ({pole!r}, {float(nodes[0])!r})"
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            expand(lambda x, y: y / (x - pole), RandomVector([u, u]), (2, 2))
    # finite values whose squares overflow
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="^integral of g\\^2 is not finite"):
            expand(lambda x: np.exp(200.0 * x), u, (2,))


def traced_peak_mib(fn):
    """Peak of tracemalloc's traced memory over a call of fn, above what was
    traced when it started, in MiB; fn runs once untraced first, so memos
    are warm."""
    fn()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if started:
            tracemalloc.stop()


# table2's three-germ row
THREE_GERMS = RandomVector([Density.of(*s) for s in TABLE2_ROWS[3].germs])
THREE_GERM_FN = TABLE2_ROWS[3].fn


def test_three_germ_expand_holds_no_whole_grid():
    # one float64 grid of 96^3 points is 6.75 MiB
    peak = traced_peak_mib(lambda: expand(THREE_GERM_FN, THREE_GERMS, (3, 3, 3), n_nodes=96))
    assert peak < 3.0


def agree(got, want):
    """Within 1e-14 of the largest |want|: narrow slabs let BLAS sum in
    another order, so digits of noise-sized values may move."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# 1 gives one node row per slab; 5 * 96^2 gives 5 rows of a 96^3 grid and 11
# of a 64^3 one, dividing neither node count
SLAB_SIZES = (1, 5 * 96 * 96)


@pytest.mark.parametrize("slab_points", SLAB_SIZES)
def test_expand_and_error_se_do_not_depend_on_the_slab_size(monkeypatch, slab_points):
    def run():
        e = expand(THREE_GERM_FN, THREE_GERMS, (3, 2, 3), n_nodes=96)
        return e.coeffs, e.se, error_se(e, THREE_GERM_FN, n_nodes=80)
    want = run()
    monkeypatch.setattr(quad, "_SLAB_POINTS", slab_points)
    got = run()
    assert agree(got[0], want[0])
    assert agree(got[1], want[1]) and agree(got[2], want[2])


def test_a_one_slab_grid_is_evaluated_once(monkeypatch):
    calls = []

    def g(x):
        calls.append(x.shape)
        return np.cos(x)
    want = expand(np.cos, Density.normal(0.0, 1.0), (9,))
    got = expand(g, Density.normal(0.0, 1.0), (9,))
    assert calls == [(64,)]
    assert got.coeffs.tobytes() == want.coeffs.tobytes() and got.se == want.se
    # a grid of more than one slab is evaluated once per pass
    monkeypatch.setattr(quad, "_SLAB_POINTS", 64)
    del calls[:]
    expand(lambda x, y: g(x) * y, RandomVector([Density.normal(0.0, 1.0)] * 2), (2, 2))
    assert len(calls) == 2 * 64


def test_a_non_finite_point_in_a_later_slab_is_named(monkeypatch):
    monkeypatch.setattr(quad, "_SLAB_POINTS", 1)
    nodes = [build_rule(d, 24).nodes for d in THREE_GERMS]
    pole = float(nodes[2][17])
    message = (f"function is not finite at germ point "
               f"({float(nodes[0][0])!r}, {float(nodes[1][0])!r}, {pole!r})")
    # the projection takes slabs along the last germ axis
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        expand(lambda x, y, z: x * y / (z - pole), THREE_GERMS, (1, 1, 1), n_nodes=24)
    # error_se takes slabs along the first
    e = expand(THREE_GERM_FN, THREE_GERMS, (1, 1, 1), n_nodes=24)
    pole = float(nodes[0][17])
    message = (f"function is not finite at germ point "
               f"({pole!r}, {float(nodes[1][0])!r}, {float(nodes[2][0])!r})")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        error_se(e, lambda x, y, z: y * z / (x - pole), n_nodes=24)


# -- the contraction helper against np.tensordot ---------------------------


def _tensordot_project(slabs, rules, mat_sets):
    """_project as np.tensordot contracts it: the oracle of _contract."""
    weighted = [[r.weights[:, None] * mat for mat, r in zip(mats, rules)] for mats in mat_sets]
    partials = [[] for _ in mat_sets]
    for _, values in slabs:
        for mats, parts in zip(weighted, partials):
            partial = values
            for mat in mats[:-1]:
                partial = np.tensordot(partial, mat, axes=([0], [0]))
            parts.append(partial)
    return [np.tensordot(np.concatenate(parts), mats[-1], axes=([0], [0]))
            for mats, parts in zip(weighted, partials)]


def _tensordot_square_errors(slabs, rules, fits):
    """_square_errors as np.tensordot contracts it: the oracle of _contract."""
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
                    sq = np.square(np.subtract(values, approx, out=approx), out=approx)
            parts.append(quad._contract_trailing(sq, rules))
    return [float(np.concatenate(parts) @ rules[0].weights) for parts in sums]


def _with_tensordot(monkeypatch, run):
    """run() with the tensordot oracles in place of _project and
    _square_errors, wherever they are called from."""
    with monkeypatch.context() as m:
        for module in (pce, bench):
            m.setattr(module, "_project", _tensordot_project)
            m.setattr(module, "_square_errors", _tensordot_square_errors)
        return run()


def _expansion_bits(e, g, err_nodes):
    return e.coeffs.tobytes(), e.se.hex(), error_se(e, g, n_nodes=err_nodes).hex()


@pytest.mark.parametrize("shape", [(7,), (7, 5), (7, 5, 3)])
def test_contract_is_tensordot_bitwise(shape):
    rng = np.random.default_rng(5)
    a = rng.standard_normal(shape)
    m, mt = rng.standard_normal((7, 4)), rng.standard_normal((4, 7))
    # zero strides: a broadcast along a trailing axis, and along the leading one
    operands = [a, np.broadcast_to(a[..., :1], shape), np.broadcast_to(a[:1], shape),
                np.asfortranarray(a), a[::-1]]
    for x in operands:
        assert pce._contract(x, m).tobytes() == np.tensordot(x, m, axes=([0], [0])).tobytes()
        # axes=([0], [1]) is the contraction with the transposed view
        assert pce._contract(x, mt.T).tobytes() == \
            np.tensordot(x, mt, axes=([0], [1])).tobytes()
        assert pce._contract(x, m[:, :2]).shape == shape[1:] + (2,)


def test_table2_and_appendix_b_match_tensordot_contractions_bitwise(monkeypatch):
    def run():
        table = [r["error"].hex() for r in bench.run_table2()["rows"]]
        appendix = bench.run_appendix_b()
        return table, [r["coefficient"].hex() for r in appendix["rows"]], \
            appendix["se"]["value"].hex()
    got = run()
    assert len(got[0]) == sum(len(row.degrees) for row in TABLE2_ROWS) == 23
    assert got == _with_tensordot(monkeypatch, run)


def _ignores_y(x, y, z):
    return np.cos(x) * np.exp(z)


# (g, germs, degrees): one, two and three germs, and a g whose value
# broadcasts over the axis it ignores
ORACLE_CASES = [
    (np.cos, RandomVector([Density.normal(0.0, 1.0)]), (9,)),
    (lambda x, y: np.log(x + y), GOLD_GERMS, (2, 3)),
    (THREE_GERM_FN, THREE_GERMS, (3, 2, 3)),
    (_ignores_y, THREE_GERMS, (2, 1, 2)),
]


@pytest.mark.parametrize("slab_points", SLAB_SIZES + (quad._SLAB_POINTS,))
def test_expand_and_error_se_match_tensordot_contractions_bitwise(monkeypatch, slab_points):
    monkeypatch.setattr(quad, "_SLAB_POINTS", slab_points)
    for g, germs, degrees in ORACLE_CASES:
        def run():
            return _expansion_bits(expand(g, germs, degrees, n_nodes=24), g, 30)
        assert run() == _with_tensordot(monkeypatch, run)


def test_slab_grids_match_meshgrid_bitwise(monkeypatch):
    """The open grid f gets, and the values it returns (broadcast when f
    ignores an argument), are those of np.meshgrid's sparse grid."""
    monkeypatch.setattr(quad, "_SLAB_POINTS", 5 * 24)
    rules = [build_rule(d, n) for d, n in zip(THREE_GERMS, (24, 13, 7))]
    for axis in (0, -1):
        for f in (THREE_GERM_FN, _ignores_y):
            seen = []
            slabs = list(quad._slabs(lambda *grid: seen.append(grid) or f(*grid),
                                     rules, axis, "{point}"))
            for (lo, values), grid in zip(slabs, seen):
                part = [r.nodes for r in rules]
                part[axis] = part[axis][lo:lo + values.shape[axis]]
                want = np.meshgrid(*part, indexing="ij", sparse=True)
                assert [x.tobytes() for x in grid] == [x.tobytes() for x in want]
                assert [x.shape for x in grid] == [x.shape for x in want]
                assert values.shape == tuple(len(x) for x in part)
                assert values.tobytes() == np.broadcast_to(f(*want), values.shape).tobytes()


@pytest.mark.parametrize("slab_points", SLAB_SIZES)
def test_a_function_that_writes_into_its_arguments_still_runs(monkeypatch, slab_points):
    monkeypatch.setattr(quad, "_SLAB_POINTS", slab_points)

    def g(x, y, z):
        x += 1.0
        z *= 2.0
        return np.cos(x) * y - z

    def h(x, y, z):
        return np.cos(x + 1.0) * y - z * 2.0
    got = expand(g, THREE_GERMS, (2, 2, 1), n_nodes=12)
    want = expand(h, THREE_GERMS, (2, 2, 1), n_nodes=12)
    assert got.coeffs.tobytes() == want.coeffs.tobytes() and got.se == want.se
    assert error_se(got, g, n_nodes=14) == error_se(want, h, n_nodes=14)


# -- checked bases in the per-density memo ---------------------------------


def _basis_bits(b):
    return b.raw.tobytes(), b.rule_values.tobytes(), b.gram_residual.hex(), b.max_degree


def test_a_memo_basis_is_a_fresh_gram_schmidt_basis(monkeypatch):
    monkeypatch.setattr(quad, "_memo", OrderedDict())
    germs = [Density.of(*s) for s in TABLE2_ROWS[3].germs] + [Density.normal(0.0, 1.0)]
    first = pce._bases(germs, (3, 2, 3, 9), 24)
    again = pce._bases(germs, (3, 2, 3, 9), 24)
    assert all(a is b for a, b in zip(first, again))
    for b, d, deg in zip(again, germs, (3, 2, 3, 9)):
        fresh = gram_schmidt(d, deg, 24)
        assert fresh is not gram_schmidt(d, deg, 24)
        assert _basis_bits(b) == _basis_bits(fresh)
    # another degree or node count is a basis of its own
    assert pce._bases(germs[:1], (2,), 24)[0] is not first[0]
    assert pce._bases(germs[:1], (3,), 25)[0] is not first[0]


def test_evicting_a_density_drops_its_bases(monkeypatch):
    monkeypatch.setattr(quad, "_memo", OrderedDict())
    monkeypatch.setattr(quad, "_MEMO_DENSITIES", 2)
    built = []
    real = pce.gram_schmidt
    monkeypatch.setattr(pce, "gram_schmidt", lambda *a: built.append(a) or real(*a))
    d = Density.trunc_normal(4.0, 1.0, 3.0, 5.0)
    pce._bases([d], (3,), 16)
    pce._bases([d], (3,), 16)
    assert len(built) == 1
    for b in (1.0, 2.0):
        build_rule(Density.uniform(0.0, b), 4)
    assert d not in quad._memo
    pce._bases([d], (3,), 16)
    assert len(built) == 2


def test_a_failing_gram_check_keeps_no_basis(monkeypatch):
    monkeypatch.setattr(quad, "_memo", OrderedDict())
    germ = Density.normal(0.0, 1.0)
    for _ in range(2):
        with pytest.raises(GramSchmidtError):
            pce._bases([germ], (9,), 9)
        assert (9, 9) not in quad._memo[germ][3]


def test_concurrent_bases_under_eviction_are_fresh_bases(monkeypatch):
    """Threads asking for bases of more densities than the memo holds get,
    each time, what a fresh gram_schmidt builds."""
    monkeypatch.setattr(quad, "_memo", OrderedDict())
    monkeypatch.setattr(quad, "_MEMO_DENSITIES", 2)
    germs = [Density.uniform(0.0, 1.0 + k) for k in range(3)] + [Density.normal(0.5, 2.0)]
    jobs = [(germs[i % 4], 2 + i % 3) for i in range(48)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(pce._bases, [d], (deg,), 16) for d, deg in jobs]
            got = [f.result(timeout=60)[0] for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert len(quad._memo) <= 2
    for (d, deg), b in zip(jobs, got):
        assert _basis_bits(b) == _basis_bits(gram_schmidt(d, deg, 16))
