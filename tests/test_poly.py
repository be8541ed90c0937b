"""Dense univariate and sparse multivariate polynomial arithmetic."""

import json
import math

import numpy as np
import pytest

from pce_loops.poly import MultiPoly, UniPoly, almost_equal


def test_unipoly_evaluation_and_arithmetic():
    p = UniPoly([1.0, -2.0, 3.0])      # 1 - 2x + 3x^2
    q = UniPoly([0.0, 1.0])            # x
    rng = np.random.default_rng(0)
    xs = rng.normal(size=50)
    np.testing.assert_allclose((p + q)(xs), p(xs) + q(xs), rtol=1e-13)
    np.testing.assert_allclose((p * q)(xs), p(xs) * q(xs), rtol=1e-13)
    np.testing.assert_allclose((p - q)(xs), p(xs) - q(xs), rtol=1e-13)
    assert p.degree() == 2 and (p * p).degree() == 4


def test_multipoly_constructors_and_eval():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = (x + y) * (x - y) + MultiPoly.constant(2, 4.0)
    assert p.evaluate((3.0, 2.0)) == pytest.approx(9 - 4 + 4)
    assert p.total_degree() == 2
    assert p.degree_in(0) == 2 and p.degree_in(1) == 2


def test_multipoly_matches_numpy_reference():
    rng = np.random.default_rng(42)
    x = MultiPoly.variable(3, 0)
    y = MultiPoly.variable(3, 1)
    z = MultiPoly.variable(3, 2)
    p = 1.0 - 2.0 * x * y + z**3 * y - 0.25 * x**4
    pts = rng.normal(size=(3, 200))
    got = p.evaluate_many(pts)
    want = 1.0 - 2.0 * pts[0] * pts[1] + pts[2] ** 3 * pts[1] - 0.25 * pts[0] ** 4
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_pow_by_squaring():
    x = MultiPoly.variable(1, 0)
    p = x + MultiPoly.constant(1, 1.0)
    q = p**6
    # binomial coefficients
    for k in range(7):
        assert q.coefficient((k,)) == pytest.approx(math.comb(6, k))
    assert (p**0).evaluate((3.0,)) == 1.0


def test_substitute_is_composition():
    rng = np.random.default_rng(3)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = x**3 - 2 * x * y + y**2
    r = y * y - 1.0 + x
    sub = p.substitute(0, r)          # x := r(x, y)
    for _ in range(25):
        u, v = rng.normal(size=2)
        rv = r.evaluate((u, v))
        assert sub.evaluate((u, v)) == pytest.approx(p.evaluate((rv, v)), rel=1e-10, abs=1e-10)


def test_substitute_constant_eliminates_variable():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = x * y + x**2
    q = p.substitute(0, MultiPoly.constant(2, 3.0))
    assert q.degree_in(0) == 0
    assert q.evaluate((99.0, 2.0)) == pytest.approx(3 * 2 + 9)


def test_render_style():
    x = MultiPoly.variable(1, 0)
    p = 10.0 * x - MultiPoly.constant(1, 20.0)
    assert p.render(names=("x",)) == "10x - 20"
    q = 70.71067 * x**2 - 282.84271 * x + MultiPoly.constant(1, 282.13561)
    assert q.render(names=("x",)) == "70.71067x^2 - 282.84271x + 282.13561"


def test_render_leaves_out_terms_that_print_as_zero():
    x = MultiPoly.variable(1, 0)
    p = 0.5 * x**3 - 3e-17 * x**2 - 1.25 * x + MultiPoly.constant(1, 4e-18)
    assert p.render(names=("x",)) == "0.5x^3 - 1.25x"
    assert p.render(names=("x",), digits=17) == "0.5x^3 - 0.00000000000000003x^2 - 1.25x"
    assert (x * 1e-9 - MultiPoly.constant(1, 2e-7)).render(names=("x",)) == "0"
    assert (10.0 * x + MultiPoly.constant(1, 0.4)).render(names=("x",), digits=0) == "10x"


def test_constant_and_variable_build_what_the_constructor_builds():
    for arity in (1, 3):
        for c in (2.5, -1, np.float64(0.25), 0.0, -0.0):
            got = MultiPoly.constant(arity, c)
            assert got == MultiPoly(arity, {(0,) * arity: c})
            assert all(type(v) is float for v in got.terms.values())
        for i in range(arity):
            assert MultiPoly.variable(arity, i) == MultiPoly(arity, {
                tuple(int(j == i) for j in range(arity)): 1.0})
    assert MultiPoly.constant(2, 0.0).is_zero()
    assert type(MultiPoly.constant(np.int64(2), 1.0).arity) is int


def test_render_multivariate_order():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = -0.01038 * x**2 * y**2 + 0.05517 * x**2 * y - 0.59927 + 0.93998 * y
    text = p.render(names=("x", "y"))
    assert text == "-0.01038x^2y^2 + 0.05517x^2y + 0.93998y - 0.59927"


def test_json_round_trip():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = 0.5 * x**2 * y - 1.25 * y + MultiPoly.constant(2, 3.0)
    blob = json.dumps(p.to_json_dict())
    q = MultiPoly.from_json_dict(json.loads(blob))
    assert almost_equal(p, q, tol=0)


def test_cleanup_drops_relative_dust():
    x = MultiPoly.variable(1, 0)
    big = 1e8 * x
    p = (big + 1e-9) - big       # the constant is far below the cleanup level
    assert p.is_zero() or abs(p.constant_term()) < 1e-8


def test_unipoly_to_multi_embedding():
    p = UniPoly([1.0, 2.0, 3.0])
    m = p.to_multi(3, 1)
    assert m.arity == 3
    assert m.evaluate((0.0, 2.0, 0.0)) == pytest.approx(p(2.0))


def test_zero_and_equality():
    x = MultiPoly.variable(1, 0)
    assert (x - x).is_zero()
    assert MultiPoly.constant(1, 0.0).is_zero()
    assert x == MultiPoly.variable(1, 0)
    assert hash(x) == hash(MultiPoly.variable(1, 0))


def test_substitute_with_shared_power_cache():
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    r = 0.5 * x * x - 1.25 * y + z * x + 3.0
    polys = [x**4 * y - 2.0 * x * z, 7.0 * x**2 + y**3, x**5 - x * y * z + 1.0]
    powers = {}
    for p in polys:
        cached = p.substitute(0, r, powers)
        plain = p.substitute(0, r)
        assert set(cached.terms) == set(plain.terms)
        for e, c in plain.terms.items():
            assert cached.terms[e] == pytest.approx(c, rel=1e-12)
    assert sorted(powers) == [1, 2, 3, 4, 5]
    for k, pk in powers.items():
        assert almost_equal(pk, r**k, tol=1e-12)


def test_ring_results_hold_no_zero_coefficients():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    results = [
        (x + y) * (x - y) + y * y,         # y^2 cancels exactly
        (x + 1.0) - x,                     # x cancels in an add
        (x * y + 2.0) * 0.0,               # scalar zero
        -(x - x),
        (x + y).substitute(1, -1.0 * x),   # x - x after substitution
        (x + 1e-300) * 1e-300,             # underflow in a scalar product
    ]
    for p in results:
        assert all(c != 0.0 for c in p.terms.values()), p.terms
    assert results[0].terms == {(2, 0): 1.0}
    assert results[1].terms == {(0, 0): 1.0}
    assert results[2].is_zero() and results[3].is_zero() and results[4].is_zero()
