"""Orthonormal bases via Gram-Schmidt against arbitrary densities."""

import math

import numpy as np
import pytest

from pce_loops import orthopoly
from pce_loops.dist import Density
from pce_loops.orthopoly import GramSchmidtError, gram_schmidt
from pce_loops.pce import expand
from pce_loops.quad import build_rule


def gram_matrix(basis, n_nodes=160):
    """Inner products from a fresh, finer rule than the one used to build."""
    r = build_rule(basis.density, n_nodes)
    V = basis.eval_matrix(r.nodes)
    return (V * r.weights[:, None]).T @ V


CORPUS = [
    Density.normal(0.0, 1.0),
    Density.normal(2.0, 0.1),
    Density.uniform(1.0, 2.0),
    Density.uniform(-0.1, 0.1),
    Density.trunc_normal(2.0, 0.1, 1.0, 3.0),
    Density.trunc_normal(4.0, 1.0, 3.0, 5.0),
    Density.trunc_normal(2.0, 0.1, 0.0, 4.0),
    Density.trunc_normal(0.0, 0.1, -1.0, 1.0),
    Density.trunc_gamma(1.0, 3.0, 0.5, 1.0),
    Density.uniform(4.0, 8.0),
]


@pytest.mark.parametrize("d", CORPUS)
def test_orthonormal_to_degree_ten(d):
    basis = gram_schmidt(d, 10)
    G = gram_matrix(basis)
    assert np.abs(G - np.eye(11)).max() < 1e-8


def test_hermite_closed_forms():
    # against N(0,1) the basis is the normalized probabilists' family
    basis = gram_schmidt(Density.normal(0.0, 1.0), 4)
    xs = np.linspace(-3, 3, 41)
    h2 = (xs**2 - 1) / math.sqrt(2)
    h3 = (xs**3 - 3 * xs) / math.sqrt(6)
    h4 = (xs**4 - 6 * xs**2 + 3) / math.sqrt(24)
    np.testing.assert_allclose(basis.polys[2](xs), h2, atol=1e-10)
    np.testing.assert_allclose(basis.polys[3](xs), h3, atol=1e-10)
    np.testing.assert_allclose(basis.polys[4](xs), h4, atol=1e-10)


def test_legendre_closed_forms():
    basis = gram_schmidt(Density.uniform(-1.0, 1.0), 3)
    xs = np.linspace(-1, 1, 21)
    p2 = math.sqrt(5) * (3 * xs**2 - 1) / 2
    p3 = math.sqrt(7) * (5 * xs**3 - 3 * xs) / 2
    np.testing.assert_allclose(basis.polys[2](xs), p2, atol=1e-10)
    np.testing.assert_allclose(basis.polys[3](xs), p3, atol=1e-10)


def test_published_truncated_normal_basis():
    """The worked example's basis over TruncNormal(2, 0.1, [1, 3])."""
    basis = gram_schmidt(Density.trunc_normal(2.0, 0.1, 1.0, 3.0), 2)
    p1, p2 = basis.polys[1], basis.polys[2]
    np.testing.assert_allclose(p1.coeffs, [-20.0, 10.0], rtol=1e-6)
    np.testing.assert_allclose(
        p2.coeffs, [282.13561, -282.84271, 70.71067], rtol=1e-5
    )


def test_published_uniform_basis():
    basis = gram_schmidt(Density.uniform(1.0, 2.0), 2)
    np.testing.assert_allclose(basis.polys[1].coeffs, [-5.19615, 3.4641], rtol=1e-5)
    np.testing.assert_allclose(
        basis.polys[2].coeffs, [29.06888, -40.24922, 13.41641], rtol=1e-5
    )


def test_leading_coefficients_positive():
    for d in CORPUS:
        basis = gram_schmidt(d, 6)
        for p in basis.polys:
            assert p.coeffs[-1] > 0


def test_degree_zero_is_constant_one():
    basis = gram_schmidt(Density.trunc_gamma(2.0, 1.0, 0.5, 4.0), 3)
    assert basis.polys[0].coeffs == [1.0]


def test_narrow_density_stays_conditioned():
    # degree 10 against sigma = 0.1 collapses in raw moments; the
    # standardized construction keeps the residual tiny
    basis = gram_schmidt(Density.normal(2.0, 0.1), 10)
    assert basis.gram_residual < 1e-10


def test_too_few_nodes_raises():
    with pytest.raises(GramSchmidtError):
        gram_schmidt(Density.uniform(0.0, 1.0), 8, n_nodes=4)


def test_high_degree_normal_passes_on_its_projection_rule():
    # Christoffel weights keep the rules' tiny tail weights accurate, so
    # expand's own 64-node rule and the 128-node default both pass
    germ = Density.normal(0.0, 1.0)
    for deg in range(30, 64):
        assert expand(np.cos, germ, (deg,)).bases[0].gram_residual <= 1e-12
    assert gram_schmidt(germ, 30).gram_residual <= 1e-12


def test_eval_matrix_shape_and_first_column():
    basis = gram_schmidt(Density.uniform(4.0, 8.0), 5)
    xs = np.linspace(4, 8, 30)
    V = basis.eval_matrix(xs)
    assert V.shape == (30, 6)
    np.testing.assert_allclose(V[:, 0], 1.0)


def test_raw_polys_are_built_on_first_read(monkeypatch):
    calls = []
    real = orthopoly._raw_polys
    monkeypatch.setattr(orthopoly, "_raw_polys", lambda *a: calls.append(a) or real(*a))
    basis = gram_schmidt(Density.uniform(1.0, 2.0), 5)
    assert (len(basis), basis.max_degree, calls) == (6, 5, [])
    assert basis.polys is basis.polys and len(basis.polys) == 6
    assert len(calls) == 1
