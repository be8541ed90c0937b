"""Iteration-indexed expansions: one step map per iteration.

In `s := s + w; x := x + exp(s)` the argument of exp spreads out over time
(s_n ~ Normal(0, 0.25 n)), so no single fixed germ models it well at every
iteration.  The scheduled scheme expands exp against a different germ for
each n <= N and applies iteration n's polynomialized loop at iteration n.
Inside the horizon it matches the closed-form mean to machine precision,
while a fixed reference germ carries a small but systematic bias at every
iteration.  Past the horizon propagate refuses to extrapolate.
"""

import math

from pce_loops.dist import Density
from pce_loops.engine import lagrange_schedule, polynomialize, propagate
from pce_loops.lang import parse

SRC = """\
s = 0
x = 0
while true {
 w = Normal(0, 0.5)
 s := s + w
 x := x + exp(s)
}
"""

N = 8


def main():
    prog = parse(SRC)
    # E exp(s_n) = exp(0.125 n), so the running sum has a closed form
    truth = [sum(math.exp(0.125 * m) for m in range(1, n + 1)) for n in range(N + 1)]

    germs = [Density.normal(0.0, 0.5 * math.sqrt(n)) for n in range(1, N + 1)]
    sched = propagate(lagrange_schedule(prog, 0, N, germs, degree=8), ["x"], N)

    fixed = propagate(polynomialize(prog, degree=8, germ=Density.normal(0.0, 1.0)), ["x"], N)

    print(" n   exact        scheduled    rel err      fixed germ   rel err")
    for n in range(1, N + 1):
        a, b = sched.value(n, "x"), fixed.value(n, "x")
        print(f"{n:2d}   {truth[n]:9.5f}    {a:9.5f}    {abs(a / truth[n] - 1):.2e}"
              f"     {b:9.5f}    {abs(b / truth[n] - 1):.2e}")


if __name__ == "__main__":
    main()
