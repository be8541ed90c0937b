"""Build orthonormal polynomial bases against arbitrary densities.

The basis comes from the density's three-term recurrence
b_{j+1} p_{j+1} = (x - a_j) p_j - b_j p_{j-1}, whose coefficients the
quadrature module computes by the Stieltjes procedure on a fine discretized
pdf, so the same code path covers normal, uniform, and truncated families.
The script prints two small bases and then measures how close the Gram
matrix of a degree-10 basis stays to the identity for a spread of densities.
"""

import numpy as np

from pce_loops.dist import Density
from pce_loops.orthopoly import gram_schmidt
from pce_loops.quad import build_rule


def show_basis(density, degree):
    basis = gram_schmidt(density, degree)
    print(f"{density}:")
    for k, p in enumerate(basis.polys):
        print(f"  p{k}(x) = {p.to_multi(1, 0).render(names=('x',))}")
    print()


def gram_residual(density, degree=10, n_nodes=160):
    basis = gram_schmidt(density, degree)
    rule = build_rule(density, n_nodes)
    E = basis.eval_matrix(rule.nodes)
    G = (E * rule.weights[:, None]).T @ E
    return np.abs(G - np.eye(degree + 1)).max()


def main():
    show_basis(Density.trunc_normal(2.0, 0.1, 1.0, 3.0), 2)
    show_basis(Density.uniform(1.0, 2.0), 2)

    corpus = [
        Density.normal(0.0, 1.0),
        Density.normal(2.0, 0.1),
        Density.uniform(-3.0, 5.0),
        Density.trunc_normal(0.0, 1.0, -1.0, 1.0),
        Density.trunc_gamma(1.0, 3.0, 0.5, 1.0),
        Density.trunc_gamma(3.0, 2.0, 0.0, 10.0),
    ]
    print("max |Gram - I| for a degree-10 basis:")
    for d in corpus:
        print(f"  {str(d):40s} {gram_residual(d):.3e}")


if __name__ == "__main__":
    main()
