"""Gauss rules against arbitrary densities and tensor-grid integration."""

import copy
import math
import pickle
import re
from collections import OrderedDict

import numpy as np
import pytest

from pce_loops import dist, orthopoly, quad
from pce_loops.dist import Density, density_from_dict, location_scale
from pce_loops.lang import parse
from pce_loops.orthopoly import gram_schmidt
from pce_loops.pce import expand
from pce_loops.quad import build_rule, convergence_report, integrate
from test_pce import SLAB_SIZES


CORPUS = [
    Density.normal(0.0, 1.0),
    Density.normal(2.0, 0.1),
    Density.uniform(-1.0, 1.0),
    Density.uniform(4.0, 8.0),
    Density.trunc_normal(2.0, 0.1, 1.0, 3.0),
    Density.trunc_normal(4.0, 1.0, 3.0, 5.0),
    Density.trunc_gamma(1.0, 3.0, 0.5, 1.0),
]


@pytest.mark.parametrize("d", CORPUS)
def test_weights_positive_and_normalized(d):
    r = build_rule(d, 24)
    assert len(r) == 24
    assert (r.weights > 0).all()
    assert r.weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", CORPUS)
def test_nodes_inside_support(d):
    r = build_rule(d, 32)
    a, b = d.support
    if math.isfinite(a):
        assert r.nodes.min() >= a and r.nodes.max() <= b
    assert np.all(np.diff(r.nodes) > 0)


@pytest.mark.parametrize("d", CORPUS)
def test_polynomial_exactness(d):
    # an n-point rule integrates monomials up to degree 2n-1 against the pdf
    n = 12
    r = build_rule(d, n)
    for k in range(2 * n):
        got = r.expect(lambda x: x**k)
        want = d.raw_moment(k)
        # odd moments of symmetric densities cancel between huge +-terms, so
        # measure error relative to the size of the terms, not of the result
        scale = max(1.0, abs(want), d.raw_moment(k + (k % 2)))
        assert abs(got - want) <= 1e-9 * scale


def test_gauss_hermite_known_nodes():
    # for the standard normal the 3-point rule is +-sqrt(3), 0 with weights 1/6, 2/3
    r = build_rule(Density.normal(0.0, 1.0), 3)
    np.testing.assert_allclose(sorted(r.nodes), [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-9)
    np.testing.assert_allclose(sorted(r.weights), sorted([1 / 6, 2 / 3, 1 / 6]), atol=1e-9)


def test_gauss_legendre_known_nodes():
    r = build_rule(Density.uniform(-1.0, 1.0), 2)
    np.testing.assert_allclose(sorted(r.nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-12)


def test_expect_of_smooth_function():
    d = Density.normal(0.0, 1.0)
    r = build_rule(d, 40)
    # E exp(Z) = e^{1/2}
    assert r.expect(np.exp) == pytest.approx(math.exp(0.5), rel=1e-12)


def test_integrate_tensor_grid_separable():
    dx = Density.uniform(0.0, 1.0)
    dy = Density.normal(0.0, 1.0)
    rules = [build_rule(dx, 16), build_rule(dy, 16)]
    got = integrate(lambda x, y: np.exp(x) * np.cos(y), rules)
    want = (math.e - 1.0) * math.exp(-0.5)
    assert got == pytest.approx(want, rel=1e-12)


def test_integrate_three_dimensions():
    rules = [build_rule(Density.uniform(0.0, 1.0), 8) for _ in range(3)]
    got = integrate(lambda x, y, z: x * y * z, rules)
    assert got == pytest.approx(0.125, rel=1e-12)


def test_integrate_rejects_non_finite():
    rules = [build_rule(Density.uniform(-2.0, -1.0), 8)]
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        integrate(np.log, rules)


def test_convergence_report_shrinks():
    d = Density.trunc_normal(2.0, 0.1, 1.0, 3.0)
    rep = convergence_report(lambda x: np.log(1 + x * x), [d], n_nodes=24)
    assert rep["rel_change"] < 1e-10
    assert rep["nodes"] == 24


def test_rule_more_nodes_refines_hard_integrand():
    # |x| is not smooth at 0; the rule should still converge with more nodes
    d = Density.uniform(-1.0, 1.0)
    exact = 0.5
    errs = [abs(build_rule(d, n).expect(np.abs) - exact) for n in (8, 32, 128)]
    assert errs[2] < errs[0]


def test_memoized_rule_is_bitwise_fresh_and_read_only():
    params = (0.3, 0.7, -0.5, 1.9)
    quad._memo.clear()
    fresh = build_rule(Density.trunc_normal(*params), 64)
    quad._memo.clear()
    build_rule(Density.trunc_normal(*params), 128)
    cut = build_rule(Density.trunc_normal(*params), 64)  # rows cut from the longer run
    twin = Density.trunc_normal(*params)
    again = build_rule(twin, 64)  # a second Density with equal params hits the memo
    assert again.target is twin
    assert again.nodes is cut.nodes and again.weights is cut.weights
    assert list(quad._memo) == [twin]
    for r in (cut, again):
        assert r.nodes.tobytes() == fresh.nodes.tobytes()
        assert r.weights.tobytes() == fresh.weights.tobytes()
        with pytest.raises(ValueError):
            r.nodes[0] = 0.0
        with pytest.raises(ValueError):
            r.weights[0] = 0.0


@pytest.mark.parametrize("build", [
    lambda: Density("Normal", {"sigma": 1.0, "mu": 0.0}),
    lambda: Density.of("Normal", 0.0, 1.0),
    lambda: density_from_dict({"family": "Normal", "mu": 0.0, "sigma": 1.0, "a": -1.0, "b": 1.0}),
    lambda: pickle.loads(pickle.dumps(Density.normal(0.0, 1.0))),
    lambda: copy.deepcopy(Density.normal(0.0, 1.0)),
    lambda: parse("x = Normal(0, 1)\nwhile true { x := x }").inits[0].value,
], ids=["init", "of", "dict", "pickle", "deepcopy", "dsl"])
def test_every_path_to_a_density_keys_the_memo_with_its_own_rule(build):
    """Whichever way a density equal to N(0, 1) is built, its memo entry is
    the rule N(0, 1) gets on a cleared memo: a density is its value."""
    quad._memo.clear()
    fresh = build_rule(Density.normal(0.0, 1.0), 8)
    quad._memo.clear()
    d = build()
    assert d == Density.normal(0.0, 1.0) and d.support == (-10.0, 10.0)
    build_rule(d, 8)
    got = build_rule(Density.normal(0.0, 1.0), 8)
    assert got.nodes.tobytes() == fresh.nodes.tobytes()
    assert got.weights.tobytes() == fresh.weights.tobytes()


@pytest.mark.parametrize("spec, entries", [(("Normal", 0, 1), 2), (("Uniform", -1, 1), 2),
                                           (("Uniform", 2, 5), 3),
                                           (("TruncNormal", 0, 1, -1, 2), 2)])
def test_integer_parameters_take_their_own_memo_entry(spec, entries):
    """A density with integer parameters is not its float twin, so it takes
    an entry of its own (Uniform(2, 5) and its twin both map from U(-1.0,
    1.0)), and its rule is bitwise the twin's."""
    quad._memo.clear()
    family, *params = spec
    rules = [build_rule(Density.of(family, *p), 16) for p in (params, map(float, params))]
    assert len(quad._memo) == entries
    for a in ("nodes", "weights"):
        assert getattr(rules[0], a).tobytes() == getattr(rules[1], a).tobytes()


def test_memo_keeps_a_bounded_number_of_densities():
    for k in range(quad._MEMO_DENSITIES + 5):
        build_rule(Density.uniform(0.0, 1.0 + k), 4)
    assert len(quad._memo) == quad._MEMO_DENSITIES


# Normal and Uniform members whose rows and rules are mapped from N(0, 1) or
# U(-1, 1); the last of each family sits far off centre.
MAPPED = [("Normal", 2.0, 0.1), ("Normal", 0.0, math.sqrt(2.0)), ("Normal", -3.0, 25.0),
          ("Normal", 100.0, 1.0), ("Uniform", 4.0, 8.0), ("Uniform", -3.0, 5.0),
          ("Uniform", 1000.0, 1001.0)]
OFF_CENTRE = {("Normal", 100.0, 1.0), ("Uniform", 1000.0, 1001.0)}


def _direct(d, n):
    """n rows and the clipped n-node rule from a Stieltjes run on d itself."""
    alphas, offdiag = quad._recurrence_coefficients(*quad._backbone(d), n)
    nodes, weights = quad._golub_welsch(alphas, offdiag)
    return alphas, offdiag, np.clip(nodes, *d.support), weights


@pytest.mark.parametrize("spec", MAPPED)
def test_mapped_rule_and_rows_match_a_direct_run(spec):
    d = Density.of(*spec)
    standard, loc, scale = location_scale(d)
    alphas, offdiag, nodes, weights = _direct(d, 64)
    tol = 1e-14 * (abs(loc) + 10.0 * scale)
    r = build_rule(d, 64)
    assert np.max(np.abs(r.nodes - nodes)) <= tol
    assert np.max(np.abs(r.weights - weights)) <= 1e-11
    assert r.weights is build_rule(standard, 64).weights
    got_alphas, got_offdiag = quad._rows(d, 21)
    assert np.max(np.abs(got_alphas - alphas[:21])) <= tol
    assert np.max(np.abs(got_offdiag - offdiag[:20])) <= tol


@pytest.mark.parametrize("spec", MAPPED)
def test_mapped_basis_is_as_orthonormal_as_a_direct_one(spec):
    d = Density.of(*spec)
    standard = location_scale(d)[0]
    alphas, offdiag, nodes, weights = _direct(d, 128)
    vals = np.column_stack(orthopoly._values(alphas[:21], offdiag[:20], nodes))
    direct = np.max(np.abs((vals * weights[:, None]).T @ vals - np.eye(21)))
    mapped = gram_schmidt(d, 20).gram_residual
    # A mapped basis is as well conditioned as its standard member's; off
    # centre, a direct run loses digits to the offset that the map keeps.
    assert mapped <= max(direct, 2.0 * gram_schmidt(standard, 20).gram_residual)
    if spec in OFF_CENTRE:
        assert mapped < direct


@pytest.mark.parametrize("d", [Density.normal(0.0, 1.0), Density.uniform(-1.0, 1.0),
                               Density.trunc_normal(4.0, 1.0, 3.0, 5.0),
                               Density.trunc_gamma(1.0, 3.0, 0.5, 1.0)])
def test_christoffel_weights_hold_a_degree_60_basis(d):
    # squared eigenvector components gave N(0, 1) a residual of 1.9e-6 here
    assert gram_schmidt(d, 60).gram_residual <= 1e-12


def test_standard_uniform_rows_match_a_stieltjes_run():
    d = Density.uniform(-1.0, 1.0)
    alphas, offdiag = quad._recurrence_coefficients(*quad._backbone(d), 128)
    got_alphas, got_offdiag = quad._rows(d, 128)
    assert np.max(np.abs(got_alphas - alphas)) <= 1e-14
    assert np.max(np.abs(got_offdiag - offdiag)) <= 1e-14


def test_panel_rule_matches_leggauss():
    from numpy.polynomial.legendre import leggauss

    want_nodes, want_weights = leggauss(24)
    nodes, weights = dist._panel_rule()
    assert np.max(np.abs(nodes - want_nodes)) <= 1e-15
    # leggauss's own weights are 1.5e-15 off a 40-digit reference, the
    # kernel's 3.5e-16
    assert np.max(np.abs(weights - want_weights)) <= 2e-15


def test_rules_compute_no_eigenvectors(monkeypatch):
    monkeypatch.setattr(quad, "_memo", OrderedDict())
    monkeypatch.setattr(np.linalg, "eigh", None)
    for d in CORPUS:
        build_rule(d, 16)


def test_lagrange_germs_cost_one_stieltjes_run(monkeypatch):
    runs, eigs = [], []
    real_run, real_gw = quad._recurrence_coefficients, quad._golub_welsch
    monkeypatch.setattr(quad, "_memo", OrderedDict())
    monkeypatch.setattr(quad, "_recurrence_coefficients",
                        lambda *a: runs.append(a) or real_run(*a))
    monkeypatch.setattr(quad, "_golub_welsch", lambda *a: eigs.append(a) or real_gw(*a))
    # each germ of an 8-iteration schedule gets a 64-node grid and a basis
    # checked on that same rule, as polynomialize asks of expand
    for n in range(1, 9):
        expand(np.cos, Density.normal(0.0, 0.5 * math.sqrt(n)), (8,))
    assert (len(runs), len(eigs)) == (1, 1)


SLAB_GRID = [build_rule(Density.uniform(0.0, 1.0), 96), build_rule(Density.normal(0.0, 1.0), 96),
             build_rule(Density.trunc_gamma(1.0, 3.0, 0.5, 1.0), 96)]


@pytest.mark.parametrize("slab_points", SLAB_SIZES)
def test_integrate_does_not_depend_on_the_slab_size(monkeypatch, slab_points):
    def f(x, y, z):
        return np.exp(x * y - z) + x * z
    want = integrate(f, SLAB_GRID)
    monkeypatch.setattr(quad, "_SLAB_POINTS", slab_points)
    assert abs(integrate(f, SLAB_GRID) - want) <= 1e-14 * abs(want)


def test_integrate_names_a_non_finite_node_in_a_later_slab(monkeypatch):
    monkeypatch.setattr(quad, "_SLAB_POINTS", 1)
    nodes = [r.nodes for r in SLAB_GRID]
    pole = float(nodes[0][50])
    point = (pole, float(nodes[1][0]), float(nodes[2][0]))
    message = f"integrand is not finite at node {point} (grid index (50, 0, 0))"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate(lambda x, y, z: y * z / (x - pole), SLAB_GRID)
