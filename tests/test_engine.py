"""Moment propagation engine against hand-derived closed forms and an exact
rational oracle."""

import functools
import math
import random
import re
import sys
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from pce_loops import engine
from pce_loops.bench import program_path
from pce_loops.dist import Density
from pce_loops.engine import (
    MomentTable,
    PolynomializedProgram,
    close_monomials,
    format_monomial,
    lagrange_schedule,
    one_step_expectation,
    parse_monomial,
    polynomialize,
    propagate,
    simulate,
)
from pce_loops.lang import Assign, BinOp, Const, DistDraw, Init, LoopProgram, Var, parse, parse_file
from pce_loops.orthopoly import gram_schmidt
from pce_loops.pce import DegreeMatrix, expand
from pce_loops.poly import MultiPoly

COUNTER = "c = 0\nwhile true {\n c := c + 1\n}"
WALK = "x = 0\nwhile true {\n w = Normal(0, 1)\n x := x + w\n}"
AR1 = "v = Uniform(6.5, 8.0)\nwhile true {\n w = Uniform(-0.1, 0.1)\n v := 0.95*v + 0.5 + 0.1*w\n}"
PRODUCT = "p = 1\nwhile true {\n w = Uniform(0, 2)\n p := p*w\n}"
CHI = "x = 0\nwhile true {\n w = Normal(0, 1)\n x := x + w^2\n}"
HALVING = "x = 1\nwhile true {\n w = Normal(0, 1)\n x := 0.5 * x + w\n}"


def test_counter_moments():
    t = propagate(parse(COUNTER), ["c", "c^2"], 12)
    for n in range(13):
        assert t.value(n, "c") == pytest.approx(n, abs=1e-12)
        assert t.value(n, "c^2") == pytest.approx(n * n, abs=1e-10)


def test_random_walk_moments():
    # x_n ~ N(0, n): odd moments 0, E x^2 = n, E x^4 = 3 n^2
    t = propagate(parse(WALK), ["x", "x^2", "x^4"], 20)
    for n in range(21):
        assert t.value(n, "x") == pytest.approx(0.0, abs=1e-12)
        assert t.value(n, "x^2") == pytest.approx(n, abs=1e-10)
        assert t.value(n, "x^4") == pytest.approx(3 * n * n, rel=1e-10, abs=1e-10)


def test_ar1_mean_and_variance():
    t = propagate(parse(AR1), ["v", "v^2"], 50)
    var0 = 1.5**2 / 12
    q = 0.01 * (0.2**2 / 12)  # noise variance entering each step
    for n in range(51):
        mean = 10.0 + 0.95**n * (7.25 - 10.0)
        var = 0.9025**n * var0 + q * (1 - 0.9025**n) / 0.0975
        assert t.value(n, "v") == pytest.approx(mean, rel=1e-12)
        assert t.value(n, "v^2") == pytest.approx(var + mean**2, rel=1e-12)
        assert t.variance(n, "v") == pytest.approx(var, rel=1e-9)


def test_iid_product_moments():
    # E w = 1 and E w^2 = 4/3 for w ~ U(0, 2)
    t = propagate(parse(PRODUCT), ["p", "p^2"], 20)
    for n in range(21):
        assert t.value(n, "p") == pytest.approx(1.0, rel=1e-12)
        assert t.value(n, "p^2") == pytest.approx((4.0 / 3.0) ** n, rel=1e-12)


def test_chi_square_accumulator():
    # sum of n iid squared standard normals: mean n, variance 2n
    t = propagate(parse(CHI), ["x", "x^2"], 15)
    for n in range(16):
        assert t.value(n, "x") == pytest.approx(n, abs=1e-10)
        assert t.value(n, "x^2") == pytest.approx(n * n + 2 * n, rel=1e-12, abs=1e-10)


def test_update_order_is_sequential():
    # b reads the previous a when its update comes first, the new a otherwise
    before = parse("a = 1\nb = 0\nwhile true {\n b := b + a\n a := 0.5*a\n}")
    after = parse("a = 1\nb = 0\nwhile true {\n a := 0.5*a\n b := b + a\n}")
    tb = propagate(before, ["b"], 10)
    ta = propagate(after, ["b"], 10)
    for n in range(11):
        assert tb.value(n, "b") == pytest.approx(2 * (1 - 0.5**n), rel=1e-12, abs=1e-12)
        assert ta.value(n, "b") == pytest.approx(1 - 0.5**n, rel=1e-12, abs=1e-12)


def test_missing_init_defaults_to_zero():
    prog = LoopProgram([], [Assign("x", Const(1.0))])
    t = propagate(prog, ["x"], 3)
    assert [t.value(n, "x") for n in range(4)] == [0, 1, 1, 1]
    # a missing init is 0 only where nothing reads it before its update
    with pytest.raises(ValueError, match="'x' is read before its update and needs an initial"):
        LoopProgram([], [Assign("x", BinOp("+", Var("x"), Const(1.0)))])


def test_one_step_expectation_is_linear_in_previous_monomials():
    pp = polynomialize(parse(WALK))
    poly = one_step_expectation(pp, (2,))
    # E[(x + w)^2 | x] = x^2 + 1; the result lives over (state, draws)
    assert poly.coefficient((2, 0)) == pytest.approx(1.0)
    assert poly.coefficient((0, 0)) == pytest.approx(1.0)
    assert poly.coefficient((1, 0)) == pytest.approx(0.0)


def test_draw_must_precede_use():
    """A read above its draw is refused when the program is built, so
    neither polynomialize nor the closure kernel ever sees one."""
    with pytest.raises(ValueError, match="'w' is read before it is drawn; move the draw "
                                         "above its first use"):
        LoopProgram(
            [Init("x", 0.0)],
            [Assign("x", BinOp("+", Var("x"), Var("w"))), DistDraw("w", Density.normal(0, 1))],
        )


def test_a_polynomialized_program_is_well_formed_when_built():
    """turning's polynomialized body, rebuilt by hand: a draw below its
    reader, or state and draw lists that are not the body's, are refused."""
    pp = polynomialize(parse_file(program_path("turning.ppl")))
    assert [var for _, var, _ in pp.body] == ["x", "y", "w1", "w2", "v", "psi"]
    late_draw = pp.body[:2] + pp.body[3:] + pp.body[2:3]
    with pytest.raises(ValueError, match="'w1' is read before it is drawn"):
        PolynomializedProgram(pp.program, pp.state_vars, pp.draw_vars, late_draw, [])
    with pytest.raises(ValueError):
        PolynomializedProgram(pp.program, pp.draw_vars, pp.state_vars, pp.body, [])
    with pytest.raises(ValueError, match=re.escape(
            "state ['psi', 'v', 'y', 'x'] and draws ['w1', 'w2'] differ from the body's: "
            "state ['x', 'y', 'v', 'psi'], draws ['w1', 'w2']")):
        PolynomializedProgram(pp.program, pp.state_vars[::-1], pp.draw_vars, pp.body, [])
    rebuilt = PolynomializedProgram(pp.program, pp.state_vars, pp.draw_vars, pp.body, [])
    assert rebuilt.reads == pp.reads == [{"x", "v", "psi"}, {"y", "v", "psi"}, None, None,
                                         {"v", "w1"}, {"psi", "w2"}]


@pytest.mark.parametrize("arity", [1, 3])
def test_a_polynomialized_program_refuses_an_update_of_another_arity(arity):
    """x := x + w is a polynomial in (x, w); one in more or fewer variables
    is refused where it is built, not in propagate."""
    prog = parse(WALK)
    draw, (kind, var, poly) = polynomialize(prog).body
    wrong = MultiPoly.variable(arity, 0) + MultiPoly.constant(arity, 1.0)
    with pytest.raises(ValueError, match=re.escape(
            f"update 'x' is a polynomial in {arity} variables, not in the 2 of ['x', 'w']")):
        PolynomializedProgram(prog, ["x"], ["w"], [draw, (kind, var, wrong)], [])
    rebuilt = PolynomializedProgram(prog, ["x"], ["w"], [draw, (kind, var, poly)], [])
    assert rebuilt.body[1][2] == poly


def test_vehicle_closure_stays_small():
    """The x recursion only ever needs v times even powers of the heading."""
    prog = parse_file(program_path("turning.ppl"))
    sizes = {}
    for deg in (3, 5, 9):
        pp = polynomialize(prog, degree=deg)
        closure, _ = close_monomials(pp, [parse_monomial("x", pp.state_vars)])
        sizes[deg] = len(closure)
        names = {format_monomial(m, pp.state_vars) for m in closure}
        assert {"1", "x", "v", "v*psi^2"} <= names
        psi = pp.state_vars.index("psi")
        assert all(m[psi] % 2 == 0 for m in closure)
    assert sizes == {3: 5, 5: 7, 9: 11}


def test_closure_rejects_supralinear_blowup():
    # x := x^2 doubles the needed power every step; the recursion never
    # closes and must be refused instead of ground through
    prog = parse("x = 2\nwhile true {\n x := x^2\n}")
    with pytest.raises(ValueError, match="not moment-computable"):
        propagate(prog, ["x"], 3)


def test_polynomialize_provenance():
    pp = polynomialize(parse_file(program_path("turning.ppl")), degree=5)
    assert pp.state_vars == ["x", "y", "v", "psi"]
    assert pp.draw_vars == ["w1", "w2"]
    assert [p["function"] for p in pp.provenance] == ["cos", "sin"]
    for p in pp.provenance:
        assert p["argument"] == "psi"
        assert p["iteration_stable"] is False
        assert p["germ"]["family"] == "Normal"
        assert p["degree"] == 5
        assert len(p["coeffs"]) == 6
        assert p["se"] > 0
    assert pp.max_se() == pytest.approx(max(p["se"] for p in pp.provenance))
    # after replacement the body is calls-free: draws plus MultiPoly assigns
    kinds = [b[0] for b in pp.body]
    assert kinds == ["assign", "assign", "draw", "draw", "assign", "assign"]


def test_stable_site_uses_draw_density_as_germ():
    prog = parse("x = 0\nwhile true {\n w = TruncNormal(2, 0.1, 1, 3)\n x := x + exp(w)\n}")
    pp = polynomialize(prog, degree=4)
    (p,) = pp.provenance
    assert p["iteration_stable"] is True
    assert p["germ"]["family"] == "TruncNormal"
    assert p["germ"]["mu"] == 2.0
    assert p["germ"]["sigma"] == 0.1


def test_stable_site_handles_affine_arguments():
    prog = parse("x = 0\nwhile true {\n w = Normal(0, 1)\n x := x + sin(2*w + 1)\n}")
    pp = polynomialize(prog, degree=6)
    (p,) = pp.provenance
    assert p["germ"]["family"] == "Normal"
    assert p["germ"]["mu"] == 1.0
    assert p["germ"]["sigma"] == 2.0
    # the germ model makes the one-step mean exact: E sin(2W+1), W ~ N(0,1),
    # equals sin(1) e^{-2}
    t = propagate(pp, ["x"], 1)
    assert t.value(1, "x") == pytest.approx(math.sin(1.0) * math.exp(-2.0), abs=1e-6)
    # the germ is read off the argument's polynomial, so spellings an AST
    # reading of the argument would miss give the same germ
    prog = parse("x = 0\nwhile true {\n w = Normal(0, 1)\n x := x + sin((2*w + 1)^1)\n}")
    (p,) = polynomialize(prog, degree=6).provenance
    assert (p["germ"]["family"], p["germ"]["mu"], p["germ"]["sigma"]) == ("Normal", 1.0, 2.0)
    # an argument equal to the draw itself keeps the draw's own density,
    # here a TruncGamma that no affine move applies to
    prog = parse("x = 0\nwhile true {\n w = TruncGamma(1, 3, 0.5, 1)\n"
                 " x := x + cos(w*w - w*w + w)\n}")
    (p,) = polynomialize(prog, degree=4).provenance
    assert p["germ"] == {"family": "TruncGamma", "k": 1.0, "theta": 3.0, "a": 0.5, "b": 1.0}


def test_stable_site_without_inferable_germ_raises():
    prog = parse("x = 0\nwhile true {\n w = TruncGamma(1, 3, 0.5, 1)\n x := x + exp(2*w)\n}")
    with pytest.raises(ValueError, match="cannot infer a germ"):
        polynomialize(prog, degree=4)
    # an explicit per-site germ resolves it
    pp = polynomialize(prog, degree=4, per_site={0: {"germ": Density.uniform(1.0, 2.0)}})
    assert pp.provenance[0]["germ"]["family"] == "Uniform"


def test_per_site_degree_override():
    prog = parse_file(program_path("turning.ppl"))
    for degree, site_degree in ((3, 7), (np.int64(3), np.int64(7))):
        pp = polynomialize(prog, degree=degree, per_site={1: {"degree": site_degree}})
        assert [p["degree"] for p in pp.provenance] == [3, 7]
        assert all(type(p["degree"]) is int for p in pp.provenance)
    # an entry that configures nothing is refused, naming itself, and so is
    # a degree that is not an integer, naming its site or the default
    for config, match in (({"per_site": {-1: {"degree": 7}}},
                           "per_site entry -1 names no call site"),
                          ({"per_site": {7: {"degree": 7}}}, "per_site entry 7 names no call site"),
                          ({"per_site": {0: {"degre": 9}}},
                           "per_site entry 0: unknown field 'degre'"),
                          ({"per_site": {0: {"degree": 2.7}}},
                           "per_site entry 0: degree must be an integer, not 2.7"),
                          ({"degree": 3.9}, "degree must be an integer, not 3.9"),
                          ({"degree": True}, "degree must be an integer, not True")):
        with pytest.raises(ValueError, match=re.escape(match)):
            polynomialize(prog, **{"degree": 3, **config})
    with pytest.raises(ValueError, match=re.escape("degree must be an integer, not 8.0")):
        lagrange_schedule(parse(DRIFT), 0, 2, [Density.normal(0.0, 1.0)] * 2, degree=8.0)
    # expand, DegreeMatrix and gram_schmidt make the same check
    germ = Density.normal(0.0, 1.0)
    refused = [(lambda: expand(np.exp, germ, (2.7,)), "degree must be an integer, not 2.7"),
               (lambda: DegreeMatrix((True, 2.5)), "degree must be an integer, not True"),
               (lambda: DegreeMatrix((1, 2.5)), "degree must be an integer, not 2.5"),
               (lambda: gram_schmidt(germ, True), "max_degree must be an integer, not True"),
               (lambda: gram_schmidt(germ, 2.5), "max_degree must be an integer, not 2.5")]
    for call, match in refused:
        with pytest.raises(ValueError, match=re.escape(match)):
            call()
    assert DegreeMatrix((np.int64(1), 2)).degrees == (1, 2)
    assert gram_schmidt(germ, np.int64(2)).max_degree == 2


def test_propagation_matches_simulation():
    prog = parse(AR1)
    exact = propagate(prog, ["v", "v^2"], 10)
    sim = simulate(prog, 10, samples=100_000, seed=3, targets=["v", "v^2"],
                   chunk_size=50_000, threads=2)
    for mono in ("v", "v^2"):
        got = sim.value(10, mono)
        se = sim.value_stderr(10, mono)
        assert se > 0
        assert abs(got - exact.value(10, mono)) < 6 * se


def test_simulate_reproducible_for_fixed_seed():
    prog = parse(WALK)
    a = simulate(prog, 5, samples=30_000, seed=11, chunk_size=10_000, threads=3)
    b = simulate(prog, 5, samples=30_000, seed=11, chunk_size=10_000, threads=3)
    c = simulate(prog, 5, samples=30_000, seed=11, chunk_size=10_000, threads=1)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.values, c.values)
    assert np.array_equal(a.stderr, b.stderr)
    d = simulate(prog, 5, samples=30_000, seed=12, chunk_size=10_000, threads=3)
    assert not np.array_equal(a.values, d.values)


def test_negative_iterations_and_empty_samples_are_refused():
    prog = parse(WALK)
    with pytest.raises(ValueError, match="iterations"):
        propagate(prog, ["x"], -1)
    with pytest.raises(ValueError, match="iterations"):
        simulate(prog, -1, samples=10)
    with pytest.raises(ValueError, match="samples"):
        simulate(prog, 3, samples=0)
    with pytest.raises(ValueError, match="chunk_size"):
        simulate(prog, 3, samples=10, chunk_size=0)
    assert propagate(prog, ["x"], 0).iterations == 0


@pytest.mark.parametrize("count", [True, 2.0, 2.5, "2"])
def test_counts_that_are_not_integers_are_refused(count):
    prog = parse(WALK)
    refused = re.escape(f"iterations must be an integer, not {count!r}")
    with pytest.raises(ValueError, match=refused):
        propagate(prog, ["x"], count)
    with pytest.raises(ValueError, match=refused):
        simulate(prog, count, samples=10)
    with pytest.raises(ValueError, match=refused):
        lagrange_schedule(parse(DRIFT), 0, count, [Density.normal(0, 1)] * 2, degree=4)
    with pytest.raises(ValueError, match=re.escape(f"samples must be an integer, not {count!r}")):
        simulate(prog, 3, samples=count)
    assert propagate(prog, ["x"], np.int64(2)).iterations == 2
    assert simulate(prog, np.int64(2), samples=np.int64(10)).iterations == 2


@pytest.mark.parametrize("count", [True, 2.0, 2.5, "2"])
@pytest.mark.parametrize("name", ["chunk_size", "threads"])
def test_simulate_worker_counts_that_are_not_integers_are_refused(name, count):
    """A float chunk size once died inside numpy, and threads=2.0 or True
    ran as 2 or 1 threads."""
    refused = re.escape(f"{name} must be an integer, not {count!r}")
    with pytest.raises(ValueError, match=refused):
        simulate(parse(WALK), 3, samples=10, **{name: count})


def test_simulate_takes_numpy_integer_worker_counts():
    a = simulate(parse(WALK), 3, samples=100, seed=4, chunk_size=np.int64(30),
                 threads=np.int64(2))
    b = simulate(parse(WALK), 3, samples=100, seed=4, chunk_size=30, threads=2)
    assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("threads", [0, -3])
def test_simulate_refuses_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads"):
        simulate(parse(WALK), 3, samples=10, threads=threads)


def test_simulate_default_targets_are_first_moments():
    t = simulate(parse(AR1), 3, samples=1_000, seed=0)
    assert t.targets == [(1,)]
    assert t.iterations == 3


DRIFT = "s = 0\nx = 0\nwhile true {\n w = Normal(0, 0.5)\n s := s + w\n x := x + exp(s)\n}"


def test_lagrange_schedule_tracks_drifting_argument():
    # s_n ~ N(0, 0.25 n), so E exp(s_n) = exp(0.125 n) and the running sum
    # has mean sum_{m<=n} exp(0.125 m); a fixed germ cannot follow the
    # spreading distribution but per-iteration germs can
    prog = parse(DRIFT)
    N = 8
    germs = [Density.normal(0.0, 0.5 * math.sqrt(n)) for n in range(1, N + 1)]
    pp = lagrange_schedule(prog, 0, N, germs, degree=8)
    assert pp.state_vars == ["s", "x"]
    t = propagate(pp, ["x"], N)
    for n in range(1, N + 1):
        truth = sum(math.exp(0.125 * m) for m in range(1, n + 1))
        assert t.value(n, "x") == pytest.approx(truth, rel=1e-4)
    schemes = {p.get("scheme") for p in pp.provenance}
    assert "lagrange" in schemes


@pytest.mark.parametrize("N", [12, 24])
def test_lagrange_schedule_holds_to_the_horizon(N):
    # exact to rounding at any horizon; N = 24 is far past where one
    # counter polynomial of degree N - 1 holding all N expansions cancels
    germs = [Density.normal(0.0, 0.5 * math.sqrt(n)) for n in range(1, N + 1)]
    t = propagate(lagrange_schedule(parse(DRIFT), 0, N, germs, degree=8), ["x"], N)
    for n in range(1, N + 1):
        truth = sum(math.exp(0.125 * m) for m in range(1, n + 1))
        assert t.value(n, "x") == pytest.approx(truth, rel=1e-10)


def test_lagrange_schedule_refuses_past_the_horizon():
    germs = [Density.normal(0.0, 0.5 * math.sqrt(n)) for n in range(1, 5)]
    pp = lagrange_schedule(parse(DRIFT), 0, 4, germs, degree=6)
    assert propagate(pp, ["x"], 3).iterations == 3
    with pytest.raises(ValueError, match="covers 4 iterations"):
        propagate(pp, ["x"], 5)
    with pytest.raises(ValueError, match="one step map per iteration"):
        close_monomials(pp, [parse_monomial("x", pp.state_vars)])
    with pytest.raises(ValueError, match="one step map per iteration"):
        one_step_expectation(pp, parse_monomial("x", pp.state_vars))


def test_lagrange_schedule_closes_under_every_iteration():
    # cos expanded against a centred germ is even, so iteration 1 never
    # reaches odd powers of s; the shifted germs of even iterations do, and
    # the shared monomial set must hold them from the start
    src = "s = 0\nx = 0\nwhile true {\n w = Normal(0, 0.5)\n s := s + w\n x := x + cos(s)\n}"
    N, degree = 4, 6
    germs = [Density.normal(0.1 * (n % 2 == 0), 0.5 * math.sqrt(n)) for n in range(1, N + 1)]
    pp = lagrange_schedule(parse(src), 0, N, germs, degree=degree)
    first, _ = close_monomials(pp.schedule[0], [(0, 1)])
    t = propagate(pp, ["x"], N)
    assert (1, 0) not in first and (1, 0) in t.monomials
    # s_n ~ Normal(0, 0.25 n) exactly, so E[x_n] sums each iteration's
    # estimator over that law's raw moments
    truth = 0.0
    for n in range(1, N + 1):
        est = expand(np.cos, germs[n - 1], (degree,)).estimator
        law = Density.normal(0.0, 0.5 * math.sqrt(n))
        truth += sum(est.coefficient((k,)) * law.raw_moment(k) for k in range(degree + 1))
        assert t.value(n, "x") == pytest.approx(truth, rel=1e-13)


def test_lagrange_single_iteration_reduces_to_plain_expansion():
    prog = parse(DRIFT)
    germ = Density.normal(0.0, 0.5)
    via_schedule = propagate(lagrange_schedule(prog, 0, 1, [germ], degree=6), ["x"], 1)
    via_plain = propagate(polynomialize(prog, degree=6, germ=germ), ["x"], 1)
    assert via_schedule.value(1, "x") == pytest.approx(via_plain.value(1, "x"), abs=1e-12)


def test_lagrange_validates_inputs():
    prog = parse(DRIFT)
    with pytest.raises(ValueError, match="at least one iteration"):
        lagrange_schedule(prog, 0, 0, [], degree=4)
    with pytest.raises(ValueError, match="germ models"):
        lagrange_schedule(prog, 0, 3, [Density.normal(0, 1)], degree=4)
    for site in (5, -1):
        with pytest.raises(ValueError, match="no call site"):
            lagrange_schedule(prog, site, 1, [Density.normal(0, 1)], degree=4)


def test_moment_table_guards():
    t = MomentTable(["x"], [(0,), (1,), (2,)], [[1.0, 3.0, 4.0]])
    with pytest.raises(ArithmeticError, match="negative variance"):
        t.variance(0, "x")
    with pytest.raises(ValueError, match="unknown variable"):
        t.value(0, "z")
    with pytest.raises(KeyError):
        t.value(0, (3,))


def test_variance_tolerates_rounding_at_large_scale():
    # x_n = 12345.678 n exactly, so E[x^2] - E[x]^2 is rounding of about
    # 1e-16 of E[x^2] (2.6e10 at n = 13), which is no negative variance
    t = propagate(parse("x = 0\nwhile true {\n x := x + 12345.678\n}"), ["x", "x^2"], 1000)
    for n in range(t.iterations + 1):
        assert t.variance(n, "x") <= 1e-9 * t.value(n, "x^2")


def test_moment_table_rows_shape():
    t = propagate(parse(COUNTER), ["c"], 2)
    rows = t.rows()
    assert rows == [(0, "c", 0.0), (1, "c", 1.0), (2, "c", 2.0)]


def test_moment_table_rows_take_monomial_strings():
    t = propagate(parse(HALVING), ["x^2"], 3)
    assert t.rows("x^2") == t.rows((2,)) == t.rows()
    assert t.rows("x")[0] == (0, "x", 1.0)


def test_parse_monomial_round_trip():
    variables = ["x", "y", "v"]
    for text, exps in (("1", (0, 0, 0)), ("x", (1, 0, 0)),
                       ("x^2*v", (2, 0, 1)), ("y^3", (0, 3, 0))):
        assert parse_monomial(text, variables) == exps
        assert parse_monomial(format_monomial(exps, variables), variables) == exps


@pytest.mark.parametrize("text", ["x^-1", "x^1.5", "x^", "y*x^2.0"])
def test_parse_monomial_refuses_powers_that_are_not_nonnegative_integers(text):
    factor = text.split("*")[-1]
    with pytest.raises(ValueError, match=re.escape(f"power in '{factor}'")):
        parse_monomial(text, ["x", "y"])


@pytest.mark.parametrize("target, message", [
    ((1.5, 0, 0, 0), "exponent in target (1.5, 0, 0, 0) must be an integer, not 1.5"),
    ((True, 0, 0, 0), "exponent in target (True, 0, 0, 0) must be an integer, not True"),
    ((-1, 0, 0, 0), "target (-1, 0, 0, 0) has a negative exponent"),
    ((1, 0), "target (1, 0) does not match state variables ['x', 'y', 'v', 'psi']"),
    ((1, 0, 0, 0, 0), "target (1, 0, 0, 0, 0) does not match state variables"),
])
def test_target_exponent_tuples_are_checked(target, message):
    """Every way in for an exponent tuple (propagate, simulate,
    close_monomials and a table's column) refuses one that is not a
    nonnegative integer per state variable."""
    pp = polynomialize(parse_file(program_path("turning.ppl")), 3)
    table = propagate(pp, ["x"], 1)
    for run in (lambda: propagate(pp, [target], 3),
                lambda: simulate(pp.program, 3, samples=10, targets=[target]),
                lambda: close_monomials(pp, [target]),
                lambda: table.column(target)):
        with pytest.raises(ValueError, match=re.escape(message)):
            run()
    assert table.column((np.int64(1), 0, 0, 0)) == table.column("x")


def _loop_initial_moments(pp, monomials):
    """E[m] at n=0 one monomial and one variable at a time, each moment
    fetched once: the per-monomial loop that _initial_moments replaced."""
    init_value = {i.var: i.value for i in pp.program.inits}
    per_var = {}
    out = np.zeros(len(monomials))
    for r, m in enumerate(monomials):
        acc = 1.0
        for v, p in zip(pp.state_vars, m):
            if p:
                if (v, p) not in per_var:
                    val = init_value.get(v, 0.0)
                    per_var[v, p] = (val.raw_moment(p) if isinstance(val, Density)
                                     else float(val) ** p)
                acc *= per_var[v, p]
        out[r] = acc
    return out


def test_initial_moments_are_bitwise_the_per_monomial_loop():
    for name in ("turning.ppl", "turning_trunc.ppl"):
        pp = polynomialize(parse_file(program_path(name)), degree=9)
        for target in ("x", "x^4", "x^2*y^2"):
            order = sorted(close_monomials(pp, [parse_monomial(target, pp.state_vars)])[0])
            got = engine._initial_moments(pp, order)
            assert got.tobytes() == _loop_initial_moments(pp, order).tobytes()
    # a constant, a negative constant and a missing init
    pp = polynomialize(parse("a = 0.3\nb = -1.7\nwhile true {\n c := a\n a := 0.5*a + c\n"
                             " b := -b\n}"))
    order = sorted(close_monomials(pp, [(3, 2, 1)])[0])
    assert engine._initial_moments(pp, order).tobytes() == \
        _loop_initial_moments(pp, order).tobytes()


def test_degree9_turning_closure_sizes_are_pinned():
    """Any drift in coefficient pruning changes these sizes."""
    pp = polynomialize(parse_file(program_path("turning.ppl")), degree=9)
    sizes = {t: len(close_monomials(pp, [parse_monomial(t, pp.state_vars)])[0])
             for t in ("x^4", "x^2*y^2")}
    assert sizes == {"x^4": 175, "x^2*y^2": 314}


def test_trunc_turning_closure_sizes_match_the_untruncated_ones():
    """Symmetric truncated germs and draws hold exact parity zeros, so they
    seed no ghost odd terms."""
    sizes = {}
    for name in ("turning.ppl", "turning_trunc.ppl"):
        pp = polynomialize(parse_file(program_path(name)), degree=9)
        sizes[name] = [len(close_monomials(pp, [parse_monomial(t, pp.state_vars)])[0])
                       for t in ("x", "x^4", "x^2*y^2")]
    assert sizes["turning_trunc.ppl"] == sizes["turning.ppl"] == [11, 175, 314]


def test_propagate_is_bit_identical_to_the_scalar_loop():
    pp = polynomialize(parse_file(program_path("turning.ppl")), degree=5)
    target = parse_monomial("x^2*y", pp.state_vars)
    table = propagate(pp, [target], 15)
    closure, step = close_monomials(pp, [target])
    order = sorted(closure)
    assert table.monomials == order
    col = {m: i for i, m in enumerate(order)}
    k = len(pp.state_vars)
    cur = table.values[0]
    for n in range(1, 16):
        nxt = np.empty_like(cur)
        for r, m in enumerate(order):
            acc = 0.0
            for e, c in step[m].terms.items():
                acc += c * cur[col[e[:k]]]
            nxt[r] = acc
        assert np.array_equal(table.values[n], nxt)
        cur = nxt


# -- exact rational oracle ---------------------------------------------------
#
# Polynomials are dicts from exponent tuples to Fractions.  The oracle shares
# no code with the engine: it substitutes, integrates and iterates in exact
# arithmetic, with its own closed-form raw moments.


def _q_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _q_moment(family, params, k):
    if family == "Uniform":
        a, b = params
        return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
    mu, sigma = params
    total = Fraction(0)
    for j in range(0, k + 1, 2):
        double_fact = math.prod(range(j - 1, 0, -2))
        total += math.comb(k, j) * mu ** (k - j) * sigma**j * double_fact
    return total


def _q_one_step(body, var_index, monomial, arity):
    poly = {tuple(monomial) + (0,) * (arity - len(monomial)): Fraction(1)}
    for kind, var, payload in reversed(body):
        i = var_index[var]
        out = {}
        for e, c in poly.items():
            k = e[i]
            rest = {e[:i] + (0,) + e[i + 1:]: c}
            if kind == "assign":
                for _ in range(k):
                    rest = _q_mul(rest, payload)
            else:
                rest = {r: v * _q_moment(*payload, k) for r, v in rest.items()}
            for r, v in rest.items():
                out[r] = out.get(r, 0) + v
        poly = {e: c for e, c in out.items() if c}
    return poly


def _q_propagate(body, state, draws, inits, target, iterations):
    """Exact E[target_n] for n = 0..iterations, and the same recursion run
    on absolute values (the magnitude each float sum is formed from)."""
    var_index = {v: i for i, v in enumerate(state + draws)}
    arity, k = len(state) + len(draws), len(state)
    step, todo = {}, [tuple(target)]
    while todo:
        m = todo.pop()
        if m in step:
            continue
        poly = _q_one_step(body, var_index, m, arity)
        assert all(not any(e[k:]) for e in poly)
        step[m] = {e[:k]: c for e, c in poly.items()}
        todo.extend(e for e in step[m] if e not in step)
    cur = {m: math.prod(inits.get(v, Fraction(0)) ** p for v, p in zip(state, m))
           for m in step}
    mag = {m: abs(v) for m, v in cur.items()}
    exact, scale = [cur[tuple(target)]], [mag[tuple(target)]]
    for _ in range(iterations):
        cur = {m: sum(c * cur[e] for e, c in row.items()) for m, row in step.items()}
        mag = {m: sum(abs(c) * mag[e] for e, c in row.items()) for m, row in step.items()}
        exact.append(cur[tuple(target)])
        scale.append(mag[tuple(target)])
    return exact, scale


def _dyadic(rng, lo, hi):
    """A random multiple of 1/8 in [lo, hi]: exact as a float."""
    return Fraction(rng.randint(8 * lo, 8 * hi), 8)


def _random_call_free_loop(rng):
    """1-3 state variables, each updated once as (linear in itself, with a
    constant or draw coefficient) plus a polynomial of degree <= 2 in
    earlier variables and draws, which keeps the closure finite; each update
    may be preceded by a Uniform or Normal draw.  Every parameter is a
    dyadic rational, so the float program holds exactly the same numbers.

    Returns the program, its exact body over state + draws (draw i may go
    unused), and the exact initial values."""
    state = ["x", "y", "z"][: rng.randint(1, 3)]
    draws = [f"w{i}" for i in range(len(state))]
    names = state + draws
    body, program_body, drawn = [], [], []
    for i, s in enumerate(state):
        if rng.random() < 0.8:
            drawn.append(draws[i])
            if rng.random() < 0.5:
                a = _dyadic(rng, -1, 1)
                params = ("Uniform", (a, a + _dyadic(rng, 0, 2) + Fraction(1, 8)))
                density = Density.uniform(*map(float, params[1]))
            else:
                params = ("Normal", (_dyadic(rng, -1, 1), _dyadic(rng, 0, 1) + Fraction(1, 8)))
                density = Density.normal(*map(float, params[1]))
            body.append(("draw", draws[i], params))
            program_body.append(DistDraw(draws[i], density))
        earlier = state[:i] + drawn
        scaled = [(s, w) for w in drawn]   # draws may scale s, states may not
        others = [()] + [(v,) for v in earlier] + [
            (u, v) for j, u in enumerate(earlier) for v in earlier[j:]]
        monos = [(s,)] + rng.sample(scaled + others, min(3, len(scaled) + len(others)))
        poly, expr = {}, None
        for m in monos:
            c = _dyadic(rng, -1, 1) or Fraction(1, 2)
            e = tuple(m.count(v) for v in names)
            poly[e] = poly.get(e, 0) + c
            term = Const(float(c))
            for v in m:
                term = BinOp("*", term, Var(v))
            expr = term if expr is None else BinOp("+", expr, term)
        body.append(("assign", s, poly))
        program_body.append(Assign(s, expr))
    # every update reads its own variable, so each one has an init: a
    # dyadic one, or 0 one time in ten
    inits = {s: _dyadic(rng, -2, 2) if rng.random() < 0.9 else Fraction(0) for s in state}
    program = LoopProgram([Init(v, float(c)) for v, c in inits.items()], program_body)
    return program, body, state, draws, inits


def test_propagate_matches_exact_rational_oracle():
    """Seeded random call-free loops: propagate agrees with exact rational
    propagation to 1e-12 relative, measured against the magnitude the sum is
    formed from (equal to |E| whenever no cancellation occurs)."""
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        program, body, state, draws, inits = _random_call_free_loop(rng)
        target = [0] * len(state)
        for _ in range(rng.randint(1, 3)):
            target[rng.randrange(len(state))] += 1
        exact, scale = _q_propagate(body, state, draws, inits, target, 10)
        # by name: the program lists initialised variables first
        name = format_monomial(target, state)
        table = propagate(program, [name], 10)
        for n in range(11):
            got = table.value(n, name)
            assert abs(got - float(exact[n])) <= 1e-12 * float(scale[n]), (seed, n)
            checked += exact[n] != 0
    assert checked > 400


def test_degree9_turning_matches_exact_rational_propagation(monkeypatch):
    """The degree-9 turning vehicle's E[y^4_10] against exact rational
    propagation of the same polynomialized program, every float it holds
    taken as the rational it is: only rounding may separate the two."""
    # the oracle asks for the same raw moment once per term
    monkeypatch.setattr(sys.modules[__name__], "_q_moment", functools.cache(_q_moment))
    program = parse_file(program_path("turning.ppl"))
    pp = polynomialize(program, degree=9)
    k = len(pp.state_vars)

    def exact(density):
        return density.family, tuple(map(Fraction, density.params.values()))

    body = [(kind, var, exact(p) if kind == "draw" else
             {e: Fraction(c) for e, c in p.terms.items()}) for kind, var, p in pp.body]
    target = parse_monomial("y^4", pp.state_vars)
    step, todo = {}, [target]
    while todo:
        m = todo.pop()
        if m not in step:
            poly = _q_one_step(body, pp.var_index, m, len(pp.all_vars))
            step[m] = {e[:k]: c for e, c in poly.items()}
            todo.extend(step[m])
    inits = {i.var: exact(i.value) for i in program.inits}
    start = {m: math.prod(_q_moment(*inits[v], p) for v, p in zip(pp.state_vars, m))
             for m in step}
    # iterate integer numerators over common denominators: as exact as
    # Fraction sums, without a gcd per operation
    den = math.lcm(*(c.denominator for row in step.values() for c in row.values()))
    rows = {m: [(e, c.numerator * (den // c.denominator)) for e, c in row.items()]
            for m, row in step.items()}
    den0 = math.lcm(*(v.denominator for v in start.values()))
    num = {m: v.numerator * (den0 // v.denominator) for m, v in start.items()}
    for _ in range(10):
        num = {m: sum(c * num[e] for e, c in row) for m, row in rows.items()}
    want = Fraction(num[target], den0 * den**10)
    got = propagate(pp, [target], 10).value(10, target)
    assert abs(got / float(want) - 1.0) <= 1e-14


# -- per-monomial dict sweep -------------------------------------------------
#
# close_monomials sweeps a whole frontier of monomials through the body as
# numpy arrays.  The oracle below is the per-monomial sweep it replaced:
# MultiPoly.substitute for each update and a dict pass for each draw, in
# reverse body order, one monomial at a time.  With fold=True it also folds
# each single-use draw into its update's powers, as the kernel does, and
# then builds every step term with the kernel's arithmetic.


def _single_use_draws(pp):
    """{update position: [(field, density), ...]}: the draws written once in
    the body and read by exactly one update, below them, in body order."""
    written = [var for _, var, _ in pp.body]
    folds = {}
    for pos, (kind, var, density) in enumerate(pp.body):
        idx = pp.var_index[var]
        readers = [r for r, (k, _, p) in enumerate(pp.body) if k == "assign" and p.degree_in(idx)]
        if kind == "draw" and written.count(var) == 1 and len(readers) == 1 and readers[0] > pos:
            folds.setdefault(readers[0], []).append((idx, density))
    return folds


def _fold_powers(powers, chain, poly, draws, top):
    """Fill powers[k], k <= top, with E[poly^k] over draws: chain[k] is
    poly^k, one product from the one below, and its terms are integrated
    and added up in the order it holds them."""
    while len(chain) <= top:
        chain.append(chain[-1] * poly if len(chain) > 1 else poly)
        out = {}
        for e, c in chain[-1].terms.items():
            for idx, density in draws:
                if e[idx]:
                    c = c * density.raw_moment(e[idx])
                    e = e[:idx] + (0,) + e[idx + 1:]
            out[e] = out.get(e, 0.0) + c
        powers[len(chain) - 1] = MultiPoly._pruned(poly.arity, out)


def _dict_step(pp, monomial, memo, folds=None):
    """One-step expectation of monomial; memo caches update powers by body
    position.  folds maps an update's position to the draws folded into
    its powers (_single_use_draws)."""
    folds = folds or {}
    poly = MultiPoly(len(pp.all_vars), {tuple(monomial) + (0,) * len(pp.draw_vars): 1.0})
    for pos in range(len(pp.body) - 1, -1, -1):
        kind, var, payload = pp.body[pos]
        idx = pp.var_index[var]
        if not poly.degree_in(idx):
            continue
        if kind == "assign":
            powers = memo.setdefault(pos, {})
            if pos in folds:
                _fold_powers(powers, memo.setdefault(("chain", pos), [None]), payload,
                             folds[pos], poly.degree_in(idx))
            poly = poly.substitute(idx, payload, powers)
            continue
        out = {}
        for e, c in poly.terms.items():
            if e[idx]:
                c = c * payload.raw_moment(e[idx])
                e = e[:idx] + (0,) + e[idx + 1:]
            out[e] = out.get(e, 0.0) + c
        poly = MultiPoly._pruned(poly.arity, out)
    return poly


def _dict_closure(pp, seeds, fold=False):
    k = len(pp.state_vars)
    step, todo, memo = {}, list(seeds), {}
    folds = _single_use_draws(pp) if fold else None
    while todo:
        m = todo.pop()
        if m not in step:
            step[m] = _dict_step(pp, m, memo, folds)
            todo.extend(e[:k] for e in step[m].terms)
    return step


def _assert_kernel_matches_dict_sweep(pp, targets):
    closure, step = close_monomials(pp, targets)
    seeds = [(0,) * len(pp.state_vars)] + [tuple(t) for t in targets]
    seeds += [tuple(int(j == i) for j in range(len(t))) for t in targets
              for i, p in enumerate(t) if p]
    want = _dict_closure(pp, seeds)
    assert closure == set(want)
    for m, poly in step.items():
        row = want[m].terms
        assert set(poly.terms) == set(row), m
        scale = max(map(abs, row.values()), default=0.0)
        for e, c in poly.terms.items():
            assert abs(c - row[e]) <= 1e-13 * scale, (m, e)


@pytest.mark.parametrize("name", ["turning.ppl", "turning_trunc.ppl"])
@pytest.mark.parametrize("degree", [3, 5, 9])
def test_closure_kernel_matches_dict_sweep_on_the_vehicle(name, degree):
    pp = polynomialize(parse_file(program_path(name)), degree=degree)
    for target in ("x", "x^4", "x^2*y^2"):
        _assert_kernel_matches_dict_sweep(pp, [parse_monomial(target, pp.state_vars)])


def test_closure_kernel_matches_dict_sweep_on_a_lagrange_schedule():
    germs = [Density.normal(0.0, 0.5 * math.sqrt(n)) for n in range(1, 9)]
    for pp in lagrange_schedule(parse(DRIFT), 0, 8, germs, degree=8).schedule:
        _assert_kernel_matches_dict_sweep(pp, [parse_monomial("x", pp.state_vars)])


def test_closure_kernel_matches_dict_sweep_on_random_loops():
    for seed in range(60):
        rng = random.Random(seed)
        program, _, state, _, _ = _random_call_free_loop(rng)
        target = [0] * len(state)
        for _ in range(rng.randint(1, 3)):
            target[rng.randrange(len(state))] += 1
        pp = polynomialize(program)
        _assert_kernel_matches_dict_sweep(pp, [parse_monomial(format_monomial(target, state),
                                                              pp.state_vars)])


SHARED_AND_SINGLE_USE = """x = 0.5
y = -0.25
while true {
 u = Uniform(-0.5, 1)
 w = Normal(0.25, 0.5)
 x := 0.5*x + u
 y := y*w + 0.25*u*x + 0.75
}"""


def test_single_use_draw_is_folded_and_a_shared_one_is_not():
    """u feeds both updates and keeps its own step; w feeds only y's and is
    folded into its powers.  The closure matches the unfolded dict sweep,
    and propagation the exact rational oracle."""
    pp = polynomialize(parse(SHARED_AND_SINGLE_USE))
    assert pp.all_vars == ["x", "y", "u", "w"]
    assert {pos: [i for i, _ in fold] for pos, fold in engine._folds(pp).items()} == {3: [3]}
    q = Fraction
    body = [("draw", "u", ("Uniform", (q(-1, 2), q(1)))),
            ("draw", "w", ("Normal", (q(1, 4), q(1, 2)))),
            ("assign", "x", {(1, 0, 0, 0): q(1, 2), (0, 0, 1, 0): q(1)}),
            ("assign", "y", {(0, 1, 0, 1): q(1), (1, 0, 1, 0): q(1, 4), (0, 0, 0, 0): q(3, 4)})]
    for target in ("y^2", "x*y", "x^2*y^2"):
        m = parse_monomial(target, pp.state_vars)
        _assert_kernel_matches_dict_sweep(pp, [m])
        exact, scale = _q_propagate(body, ["x", "y"], ["u", "w"],
                                    {"x": q(1, 2), "y": q(-1, 4)}, m, 10)
        table = propagate(pp, [target], 10)
        for n in range(11):
            assert abs(table.value(n, target) - float(exact[n])) <= 1e-12 * float(scale[n])


def test_combine_runs_when_a_row_holds_several_degrees(monkeypatch, no_closures):
    """y's update leaves x^0, x^1 and x^2 in y's row, so substituting x
    makes equal terms, which must be added up."""
    pp = polynomialize(parse("x = 1\ny = 0\nwhile true {\n x := 0.5*x + 1\n y := y + x + x^2\n}"))
    merges = []
    real = engine._may_merge
    monkeypatch.setattr(engine, "_may_merge", lambda *a: merges.append(real(*a)) or merges[-1])
    _assert_kernel_matches_dict_sweep(pp, [(0, 1)])
    assert True in merges
    _, step = close_monomials(pp, [(0, 1)])
    assert step[(0, 1)].terms == {(0, 1): 1.0, (1, 0): 1.5, (0, 0): 2.0, (2, 0): 0.25}


def test_products_that_underflow_to_zero_are_dropped():
    """b's row is 1e-200 * (1e-200 * a), an exact zero in floats, made by
    substitutions that need no combine: it is dropped, as MultiPoly
    arithmetic drops it, so a stays out of the closure."""
    pp = polynomialize(parse("a = 1\nb = 1\nwhile true {\n a := 1e-200*a\n b := 1e-200*a\n}"))
    closure, step = close_monomials(pp, [(0, 1)])
    assert closure == {(0, 0), (0, 1)}
    assert step[(0, 1)].terms == {}
    _assert_kernel_matches_dict_sweep(pp, [(0, 1)])


def test_draw_read_before_it_is_drawn_is_not_folded():
    """A read above its draw is refused when the program is built, so it
    never reaches _folds; moved above its reader, the draw is folded."""
    w = Density.normal(0, 1)
    with pytest.raises(ValueError, match="'w' is read before it is drawn"):
        LoopProgram([Init("x", 0.0)], [Assign("x", BinOp("+", Var("x"), Var("w"))), DistDraw("w", w)])
    pp = polynomialize(LoopProgram(
        [Init("x", 0.0)], [DistDraw("w", w), Assign("x", BinOp("+", Var("x"), Var("w")))],
    ))
    assert engine._folds(pp) == {1: [(1, w)]}
    # E[(x + w)^2] = x^2 + E[w^2], taken with w inside the update's powers
    _, step = close_monomials(pp, [(2,)])
    assert step[(2,)].terms == {(2, 0): 1.0, (0, 0): 1.0}


def _wide_exponent_loop():
    """Eight state variables whose draws all come first.  Each w_i feeds
    two updates, x_i's as w_i^7 and x_(i-1)'s as w_i, so no draw is folded:
    once every update is substituted, each x_i carries exponent 16 and each
    w_i exponent 128, 104 bits together."""
    lines = [f"x{i} = 1" for i in range(8)] + ["while true {"]
    lines += [f" w{i} = Uniform(0, 1)" for i in range(8)]
    lines += [f" x{i} := x{i} * w{i}^7 * w{(i + 1) % 8}" + " + 1" * (i == 0) for i in range(8)]
    pp = polynomialize(parse("\n".join(lines + ["}"])))
    assert engine._folds(pp) == {}
    return pp


def test_closure_kernel_sorts_exponents_wider_than_63_bits(monkeypatch, no_closures):
    """The exponents of _wide_exponent_loop need more than 63 bits, so terms
    are sorted field by field instead of by one packed key."""
    pp = _wide_exponent_loop()
    lexsorts = []
    real_lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(1) or real_lexsort(keys))
    _assert_kernel_matches_dict_sweep(pp, [(16,) * 8])
    assert lexsorts


# -- array step map against the MultiPoly rows --------------------------------
#
# propagate iterates step maps that go from the closure kernel to np.bincount
# as arrays.  The oracle rebuilds each map from close_monomials' MultiPoly
# rows, in row order and each row's term order, as propagate once did.  A
# schedule's monomial set is closed under every one of its bodies, so each
# body is closed over that whole set.


def _assert_propagate_matches_multipoly_rows(pp, targets, iterations):
    table = propagate(pp, targets, iterations)
    order = table.monomials
    col = {m: i for i, m in enumerate(order)}
    k = len(pp.state_vars)
    maps = []
    for body in pp.schedule or (pp,):
        closure, step = close_monomials(body, order if pp.schedule else table.targets)
        assert closure == set(order)
        rows, cols, data = [], [], []
        for r, m in enumerate(order):
            for e, c in step[m].terms.items():
                rows.append(r)
                cols.append(col[e[:k]])
                data.append(c)
        maps.append((np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                     np.array(data, dtype=float)))
    values = table.values[:1]
    for n in range(1, iterations + 1):
        rows, cols, data = maps[min(n, len(maps)) - 1]
        values = np.vstack([values, np.bincount(rows, weights=data * values[-1][cols],
                                                minlength=len(order))])
    assert values.tobytes() == table.values.tobytes()


@pytest.mark.parametrize("degree", [3, 5, 9])
def test_step_map_arrays_match_multipoly_rows_on_the_vehicle(degree):
    pp = polynomialize(parse_file(program_path("turning.ppl")), degree=degree)
    for target in ("x", "x^4", "x^2*y^2"):
        _assert_propagate_matches_multipoly_rows(pp, [target], 20)
        # the rows are the per-monomial dict sweep's with the same draws
        # folded, term order included, so bincount adds every row as that
        # sweep's arithmetic would
        m = parse_monomial(target, pp.state_vars)
        _, step = close_monomials(pp, [m])
        want = _dict_closure(pp, [(0,) * len(m), m] + [
            tuple(int(j == i) for j in range(len(m))) for i, p in enumerate(m) if p], fold=True)
        assert all(list(step[r].terms.items()) == list(want[r].terms.items()) for r in step)


def test_step_map_arrays_match_multipoly_rows_on_a_lagrange_schedule():
    germs = [Density.normal(0.0, 0.5 * math.sqrt(n)) for n in range(1, 9)]
    _assert_propagate_matches_multipoly_rows(
        lagrange_schedule(parse(DRIFT), 0, 8, germs, degree=8), ["x"], 8)


def test_step_map_arrays_match_multipoly_rows_on_random_loops():
    for seed in range(60):
        rng = random.Random(seed)
        program, _, state, _, _ = _random_call_free_loop(rng)
        target = [0] * len(state)
        for _ in range(rng.randint(1, 3)):
            target[rng.randrange(len(state))] += 1
        pp = polynomialize(program)
        _assert_propagate_matches_multipoly_rows(
            pp, [parse_monomial(format_monomial(target, state), pp.state_vars)], 10)


def test_step_map_arrays_match_multipoly_rows_wider_than_63_bits(monkeypatch, no_closures):
    pp = _wide_exponent_loop()
    lexsorts = []
    real_lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(1) or real_lexsort(keys))
    _assert_propagate_matches_multipoly_rows(pp, [(16,) * 8], 5)
    assert lexsorts


# -- expansion memo ------------------------------------------------------------


@pytest.fixture
def expand_calls(monkeypatch):
    """An empty expansion memo, and the list of keys expand is called for."""
    calls = []
    real_expand = engine.expand

    def counted(g, germ, degrees, n_nodes):
        calls.append((g, germ, degrees, n_nodes))
        return real_expand(g, germ, degrees, n_nodes=n_nodes)

    monkeypatch.setattr(engine, "_expansions", OrderedDict())
    monkeypatch.setattr(engine, "expand", counted)
    return calls


def _body_terms(pp):
    return [(kind, var, list(p.terms.items()) if kind == "assign" else p)
            for kind, var, p in pp.body]


def test_second_polynomialize_reuses_every_expansion(expand_calls):
    prog = parse_file(program_path("turning.ppl"))
    first = polynomialize(prog, degree=5)
    assert len(expand_calls) == 2   # sin and cos under one germ
    second = polynomialize(prog, degree=5)
    assert len(expand_calls) == 2
    assert second.provenance == first.provenance
    assert second.provenance is not first.provenance
    assert _body_terms(second) == _body_terms(first)


def test_expansion_memo_keys_on_germ_degree_and_nodes(expand_calls):
    prog = parse_file(program_path("turning.ppl"))
    polynomialize(prog, degree=5)
    polynomialize(prog, degree=5, per_site={0: {"germ": Density.normal(0.0, 2.0)}})
    assert len(expand_calls) == 3
    polynomialize(prog, degree=6)
    assert len(expand_calls) == 5
    polynomialize(prog, degree=5, n_nodes=48)
    assert len(expand_calls) == 7
    assert len(set(expand_calls)) == 7 == len(engine._expansions)
    polynomialize(prog, degree=6)
    assert len(expand_calls) == 7


def test_expansion_memo_is_bounded(expand_calls, monkeypatch):
    monkeypatch.setattr(engine, "_MEMO_EXPANSIONS", 3)
    germs = [Density.normal(0.0, 0.5 * math.sqrt(n)) for n in range(1, 7)]
    pp = lagrange_schedule(parse(DRIFT), 0, 6, germs, degree=4)
    assert len(expand_calls) == 6
    assert len(engine._expansions) == 3
    # the least recently used goes first, and a hit counts as a use
    def held():
        return [key[1] for key in engine._expansions]

    assert held() == [call[1] for call in expand_calls[3:]]
    polynomialize(parse(DRIFT), degree=4, germ=germs[3])
    polynomialize(parse(DRIFT), degree=4, germ=germs[0])
    assert len(expand_calls) == 7
    assert held() == [expand_calls[i][1] for i in (5, 3, 6)]
    assert propagate(pp, ["x"], 6).values.tobytes() == propagate(
        lagrange_schedule(parse(DRIFT), 0, 6, germs, degree=4), ["x"], 6).values.tobytes()


def test_expansion_memo_tells_integer_from_float_parameters(expand_calls):
    prog = parse("x = 0\nwhile true {\n x := sin(x)\n}")
    for germ in (Density.uniform(0, 3), Density.uniform(0.0, 3.0)):
        polynomialize(prog, degree=5, germ=germ)
    assert len(expand_calls) == len(engine._expansions) == 2


def test_concurrent_polynomialize_gives_identical_programs(expand_calls):
    prog = parse_file(program_path("turning.ppl"))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(polynomialize, prog, degree=d) for d in (3, 9) * 4]
            programs = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert len(expand_calls) == len(set(expand_calls)) == 4
    for pp in programs:
        want = polynomialize(prog, degree=len(pp.provenance[0]["coeffs"]) - 1)
        assert pp.provenance == want.provenance
        assert _body_terms(pp) == _body_terms(want)


# -- update powers -------------------------------------------------------------


@pytest.fixture
def powers_built(monkeypatch, no_closures):
    """An empty closure memo, and the list of _Powers built since."""
    built = []

    class Counted(engine._Powers):
        def __init__(self, arity, terms, fold):
            built.append(self)
            super().__init__(arity, terms, fold)

    monkeypatch.setattr(engine, "_Powers", Counted)
    return built


def test_closure_hit_builds_no_powers(powers_built):
    """A repeated query, a re-polynomialized program and a repeated Lagrange
    schedule are closure hits, and a hit builds no update powers."""
    prog = parse_file(program_path("turning.ppl"))
    pp = polynomialize(prog, degree=9)
    first = propagate(pp, ["x^2*y^2"], 20)
    assert len(powers_built) == 4   # one per update
    for again in (pp, polynomialize(prog, degree=9)):
        assert propagate(again, ["x^2*y^2"], 20).values.tobytes() == first.values.tobytes()
        assert len(powers_built) == 4
    germs = [Density.normal(0.0, 0.5 * math.sqrt(n)) for n in range(1, 9)]
    first = propagate(lagrange_schedule(parse(DRIFT), 0, 8, germs, degree=8), ["x"], 8)
    # the schedule closes once: s's update is the same in every body and
    # shares one _Powers, x's holds each body's expansion
    assert len(powers_built) == 4 + 1 + 8
    again = propagate(lagrange_schedule(parse(DRIFT), 0, 8, germs, degree=8), ["x"], 8)
    assert len(powers_built) == 4 + 1 + 8
    assert again.values.tobytes() == first.values.tobytes()


def _recorded_sweeps(monkeypatch):
    """The list of (frontier size, steps, powers) of each _sweep since."""
    swept = []
    real = engine._sweep
    monkeypatch.setattr(engine, "_sweep", lambda pp, frontier, steps, powers: swept.append(
        (len(frontier), steps, powers)) or real(pp, frontier, steps, powers))
    return swept


def test_closure_miss_shares_its_powers_across_sweeps(powers_built, monkeypatch):
    """The degree-9 x^2*y^2 closure holds 314 monomials, swept as they are
    met, at most 64 at a time: its miss builds one _Powers per update step,
    and all six sweeps use them."""
    pp = polynomialize(parse_file(program_path("turning.ppl")), degree=9)
    swept = _recorded_sweeps(monkeypatch)
    order, _ = engine._close((pp,), ["x^2*y^2"])
    assert len(order) == 314
    assert [n for n, _, _ in swept] == [4, 64, 64, 64, 64, 54]
    _, steps, powers = swept[0]
    assert all(s is steps and p is powers for _, s, p in swept)
    assert list(powers.values()) == powers_built
    assert len(powers_built) == 4


@pytest.mark.parametrize("target, updates", [("x", {"x", "v", "psi"}), ("v", {"v"}),
                                             ("x^2*y^2", {"x", "y", "v", "psi"})])
def test_closure_miss_builds_powers_only_for_updates_it_meets(powers_built, monkeypatch,
                                                              target, updates):
    """y's update is never swept for target x, nor any but v's for v, so
    their powers are never built; each one built holds at least P^1."""
    pp = polynomialize(parse_file(program_path("turning.ppl")), degree=9)
    swept = _recorded_sweeps(monkeypatch)
    engine._close((pp,), [target])
    _, steps, powers = swept[0]
    assert {pp.all_vars[steps[pos][1]] for pos in powers} == updates
    assert list(powers.values()) == powers_built
    assert all(len(p.size) > 1 for p in powers_built)


def test_concurrent_propagate_matches_a_serial_run(no_closures):
    pp = polynomialize(parse_file(program_path("turning.ppl")), degree=9)
    jobs = ["x", "x^4", "x^2*y^2", "x^2", "y^3", "x*y", "x^2*y^2", "y^4"]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(propagate, pp, [t], 20) for t in jobs]
            tables = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    engine._closures.clear()
    for t, table in zip(jobs, tables):
        assert table.values.tobytes() == propagate(pp, [t], 20).values.tobytes()


# -- closure memo --------------------------------------------------------------


@pytest.fixture
def no_closures(monkeypatch):
    """An empty closure memo, so the closures a test asks for are built."""
    monkeypatch.setattr(engine, "_closures", OrderedDict())


@pytest.fixture
def closures_built(monkeypatch, no_closures):
    """An empty closure memo, and the list of seed lists closed since."""
    built = []
    real = engine._closure

    def counted(pp, monomials, steps):
        built.append(list(monomials))
        return real(pp, monomials, steps)

    monkeypatch.setattr(engine, "_closure", counted)
    return built


def _closed_bytes(pp, targets):
    order, ((rows, cols, data),) = engine._close((pp,), targets)
    return order, rows.tobytes(), cols.tobytes(), data.tobytes()


def _fresh_closed_bytes(pp, targets):
    engine._closures.clear()
    return _closed_bytes(pp, targets)


def test_closure_memo_hits_equal_fresh_closures(closures_built):
    queries = [(polynomialize(parse_file(program_path(name)), degree=d), target)
               for name in ("turning.ppl", "turning_trunc.ppl") for d in (3, 5, 9, 13)
               for target in ("x", "x^2", "x^4", "x^2*y^2")]
    for pp, target in queries:
        _closed_bytes(pp, [target])
    assert len(closures_built) == len(queries)
    hits = [_closed_bytes(pp, [target]) for pp, target in queries]
    assert len(closures_built) == len(queries)
    assert hits == [_fresh_closed_bytes(pp, [target]) for pp, target in queries]


def test_closure_memo_hits_equal_fresh_closures_on_a_lagrange_schedule(closures_built):
    germs = [Density.normal(0.0, 0.5 * math.sqrt(n)) for n in range(1, 9)]
    prog = parse(DRIFT)
    first = propagate(lagrange_schedule(prog, 0, 8, germs, degree=8), ["x"], 8)
    assert len(closures_built) == 1   # one joint closure of the eight bodies
    again = propagate(lagrange_schedule(prog, 0, 8, germs, degree=8), ["x"], 8)
    assert len(closures_built) == 1
    assert again.values.tobytes() == first.values.tobytes()
    order = first.monomials
    for body in lagrange_schedule(prog, 0, 8, germs, degree=8).schedule:
        assert _closed_bytes(body, order) == _fresh_closed_bytes(body, order)


# -- joint closure of a schedule ------------------------------------------------
#
# A schedule's bodies close once, as one frontier whose rows are (body,
# monomial) pairs.  No row's terms depend on the other rows of its sweep, so
# each body's map is bitwise the one closing that body alone gives.

COS_DRIFT = "s = 0\nx = 0\nwhile true {\n w = Normal(0, 0.5)\n s := s + w\n x := x + cos(s)\n}"


def _assert_joint_maps_equal_lone_closures(bodies, target):
    order, maps = engine._close(bodies, [target])
    assert len(maps) == len(bodies)
    for body, joint in zip(bodies, maps):
        engine._closures.clear()
        alone, (lone,) = engine._close((body,), order)
        assert alone == order
        for a, b in zip(joint, lone):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("degree", [4, 8])
@pytest.mark.parametrize("target", ["x", "x^2", "x*s"])
def test_joint_closure_maps_equal_closing_each_body_alone(no_closures, degree, target):
    germs = [Density.normal(0.0, 0.5 * math.sqrt(n)) for n in range(1, 9)]
    pp = lagrange_schedule(parse(DRIFT), 0, 8, germs, degree=degree)
    _assert_joint_maps_equal_lone_closures(pp.schedule, target)


@pytest.mark.parametrize("target", ["x", "x^2", "x*s"])
def test_joint_closure_of_bodies_with_different_term_sets(no_closures, target):
    """cos(s) under a centred germ is even, so only the second body's update
    has odd powers of s: its powers are stacked, one per body, and the first
    body's rows still take only its own."""
    germs = [Density.normal(0.0, 0.5), Density.normal(0.3, 0.5)]
    pp = lagrange_schedule(parse(COS_DRIFT), 0, 2, germs, degree=6)
    x = pp.state_vars.index("x")
    odd = [{e[0] % 2 for e in body.body[-1][2].terms if e[x] == 0} for body in pp.schedule]
    assert odd == [{0}, {0, 1}]
    _assert_joint_maps_equal_lone_closures(pp.schedule, target)


def test_a_centred_cos_schedule_tracks_a_plain_programs_closure(no_closures):
    """Every germ is centred, so no body's step reaches s: the schedule
    tracks what closing any one of its bodies tracks, and s only when it is
    asked for."""
    germs = [Density.normal(0.0, 0.5 * n ** 0.5) for n in range(1, 4)]
    pp = lagrange_schedule(parse(COS_DRIFT), 0, 3, germs, degree=6)
    table = propagate(pp, ["x"], 3)
    names = [format_monomial(m, pp.state_vars) for m in table.monomials]
    assert names == ["1", "x", "s^2", "s^4", "s^6"]
    for body in pp.schedule:
        assert close_monomials(body, ["x"])[0] == set(table.monomials)
    with pytest.raises(KeyError, match="not tracked"):
        table.value(3, "s")
    asked = propagate(pp, ["x", "s"], 3)
    assert asked.value(3, "s") == 0.0
    assert asked.values[:, asked.column("x")].tobytes() == table.values[:, 1].tobytes()


def _two_layout_schedule():
    """w feeds only x's update in the first program, so it is folded; in the
    second it feeds both, so it takes its own step.  The schedule alternates
    the two, so its bodies fall into two layout groups."""
    head = "x = 1\ny = 0.5\nwhile true {\n w = Normal(0.25, 1)\n x := 0.5*x + w\n"
    folded = polynomialize(parse(head + " y := 0.5*y + 1\n}"))
    shared = polynomialize(parse(head + " y := y*w + x\n}"))
    assert len(engine._groups((engine._steps(folded), engine._steps(shared)))) == 2
    # a program of its own holds the schedule: a scheduled program takes no
    # steps, so it cannot be one of its own bodies
    pp = polynomialize(parse(head + " y := 0.5*y + 1\n}"))
    pp.schedule = (folded, shared, folded, shared, shared)
    return pp


def test_a_schedule_with_two_step_layouts_closes_once(closures_built):
    """Each block of monomials is swept through both groups, so the one
    closure holds both groups' monomials."""
    pp = _two_layout_schedule()
    _assert_propagate_matches_multipoly_rows(pp, ["x*y"], 5)
    engine._closures.clear()
    del closures_built[:]
    table = propagate(pp, ["x*y"], 5)
    assert len(closures_built) == 1
    folded_alone, _ = close_monomials(pp.schedule[0], ["x*y"])
    assert (2, 0) in table.monomials and (2, 0) not in folded_alone
    _assert_joint_maps_equal_lone_closures(pp.schedule, "x*y")
    with pytest.raises(ValueError, match="share their variables"):
        engine._close((pp.schedule[0], polynomialize(parse(WALK))), ["x"])


def test_a_cold_schedule_propagate_closes_once(closures_built):
    germs = [Density.normal(0.0, 0.5 * math.sqrt(n)) for n in range(1, 25)]
    pp = lagrange_schedule(parse(DRIFT), 0, 24, germs, degree=8)
    table = propagate(pp, ["x^2"], 24)
    assert len(closures_built) == 1
    assert closures_built[0] == sorted({(0, 0), (0, 1), (0, 2)})
    _assert_propagate_matches_multipoly_rows(pp, ["x^2"], 24)
    assert table.values.tobytes() == propagate(pp, ["x^2"], 24).values.tobytes()


def test_close_monomials_memo_hits_equal_fresh_closures(no_closures):
    pp = polynomialize(parse_file(program_path("turning.ppl")), degree=9)

    def rows(closure_and_step):
        closure, step = closure_and_step
        return sorted(closure), [(m, list(step[m].terms.items())) for m in sorted(closure)]

    first = rows(close_monomials(pp, ["x^2*y^2"]))
    assert rows(close_monomials(pp, ["x^2*y^2"])) == first
    engine._closures.clear()
    assert rows(close_monomials(pp, ["x^2*y^2"])) == first


class _CountedKey:
    """A memo key that counts the times it is hashed."""

    def __init__(self, name):
        self.name, self.hashed = name, 0

    def __hash__(self):
        self.hashed += 1
        return hash(self.name)

    def __eq__(self, other):
        return self.name == other.name


def test_a_memo_miss_hashes_no_stored_key():
    memo, lock = OrderedDict(), threading.Lock()
    held = [_CountedKey(i) for i in range(5)]
    for key in held:
        engine._memoized(memo, lock, key, lambda: 1, 10)
    before = [key.hashed for key in held]
    engine._memoized(memo, lock, _CountedKey(5), lambda: 1, 10)
    assert [key.hashed for key in held] == before


def test_a_memo_hit_hashes_its_key_twice_and_no_other():
    memo, lock = OrderedDict(), threading.Lock()
    held = [_CountedKey(i) for i in range(5)]
    for key in held:
        engine._memoized(memo, lock, key, lambda: key.name, 10)
    before = [key.hashed for key in held]
    probe = _CountedKey(2)
    assert engine._memoized(memo, lock, probe, lambda: None, 10) == 2
    assert probe.hashed == 2
    assert [key.hashed for key in held] == before
    assert list(memo)[-1] is held[2]


def test_a_memo_total_holds_after_clear_and_on_a_fresh_memo():
    """Weights of 2 under a bound of 5 hold two entries; a total left over
    from before the clear, or from another memo, would evict the one just
    stored."""
    memo, lock = OrderedDict(), threading.Lock()

    def fill(memo, keys):
        for key in keys:
            engine._memoized(memo, lock, key, lambda: 2, 5, weigh=lambda value: value)
        return list(memo)

    assert fill(memo, "abc") == ["b", "c"]
    memo.clear()
    assert fill(memo, "de") == ["d", "e"]
    assert fill(OrderedDict(), "fg") == ["f", "g"]
    assert fill(memo, "h") == ["e", "h"]


def test_close_monomials_takes_monomial_strings():
    pp = polynomialize(parse(HALVING))
    for text, exponents in (("x", (1,)), ("x^2", (2,))):
        closure, step = close_monomials(pp, [text])
        assert (closure, step) == close_monomials(pp, [exponents])
        assert closure == {(k,) for k in range(exponents[0] + 1)}


def test_a_closure_that_raises_raises_again(closures_built):
    blowup = polynomialize(parse("x = 2\nwhile true {\n x := x^2\n}"))
    for _ in range(2):
        with pytest.raises(ValueError, match="not moment-computable"):
            engine._close((blowup,), [(1,)])
    assert len(closures_built) == 2
    assert not engine._closures


def test_closure_memo_tells_integer_from_float_parameters(no_closures):
    """w feeds both updates, so it is not folded and keys the closure by its
    own parameters."""
    draws = [Density.uniform(-1, 5), Density.uniform(-1.0, 5.0)]
    for w in draws:
        pp = polynomialize(LoopProgram(
            [Init("x", 0.0), Init("y", 0.0)],
            [DistDraw("w", w), Assign("x", Var("w")), Assign("y", Var("w"))],
        ))
        assert engine._folds(pp) == {}
        assert propagate(pp, [(22, 0)], 1).value(1, (22, 0)) == w.raw_moment(22)
    assert len(engine._closures) == 2


def test_closure_memo_tells_integer_from_float_folded_parameters(no_closures):
    """Uniform(-1, 5) and Uniform(-1.0, 5.0) have different 22nd moments in
    the last bit, so the update they are folded into keys two closures."""
    draws = [Density.uniform(-1, 5), Density.uniform(-1.0, 5.0)]
    assert draws[0].raw_moment(22) != draws[1].raw_moment(22)
    for w in draws:
        pp = polynomialize(LoopProgram([Init("x", 0.0)], [DistDraw("w", w), Assign("x", Var("w"))]))
        assert engine._folds(pp) == {1: [(1, w)]}
        assert propagate(pp, [(22,)], 1).value(1, (22,)) == w.raw_moment(22)
    assert len(engine._closures) == 2


def test_closure_memo_returns_what_callers_cannot_change(no_closures):
    pp = polynomialize(parse_file(program_path("turning.ppl")), degree=5)
    order, (arrays,) = engine._close((pp,), ["x^2"])
    want = list(order)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    order.clear()
    again, (hit,) = engine._close((pp,), ["x^2"])
    assert again == want
    assert all(a is b for a, b in zip(hit, arrays))
    assert not any(a.flags.writeable for a in hit)


def test_concurrent_close_matches_a_serial_run(no_closures):
    pp = polynomialize(parse_file(program_path("turning.ppl")), degree=9)
    jobs = ["x", "x^4", "x^2*y^2", "x^2", "y^3", "x*y", "x^2*y^2", "y^4", "x^4", "x"]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_closed_bytes, pp, [t]) for t in jobs]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert len(engine._closures) == len(set(jobs))
    assert got == [_fresh_closed_bytes(pp, [t]) for t in jobs]


def test_closure_memo_is_bounded_by_step_nonzeros(closures_built, monkeypatch):
    pp = polynomialize(parse_file(program_path("turning.ppl")), degree=5)
    nonzeros = {t: len(engine._close((pp,), [t])[1][0][2]) for t in ("x", "y", "x^2", "psi")}
    assert nonzeros["psi"] <= nonzeros["y"]
    monkeypatch.setattr(engine, "_MEMO_STEP_NONZEROS", nonzeros["x"] + nonzeros["y"]
                        + nonzeros["x^2"])
    engine._closures.clear()
    del closures_built[:]

    def held():
        return [key[-1] for key in engine._closures]

    def close(target):
        engine._close((pp,), [target])
        return held()[-1]

    x, y, x2 = close("x"), close("y"), close("x^2")
    close("x")
    assert held() == [y, x2, x] and len(closures_built) == 3
    # psi's closure pushes the total over the bound, and y, the least
    # recently used, goes
    psi = close("psi")
    assert held() == [x2, x, psi] and len(closures_built) == 4
    # a closure heavier than the bound is built on every call and not held
    for _ in range(2):
        engine._close((pp,), ["x^4"])
    assert held() == [x2, x, psi] and len(closures_built) == 6
