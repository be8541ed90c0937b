"""Parser, AST, renderer and structural checks for the loop DSL."""

import math

import numpy as np
import pytest

from pce_loops.bench import program_path
from pce_loops.dist import Density
from pce_loops.lang import (
    Assign,
    BinOp,
    Call,
    Const,
    DistDraw,
    Init,
    LoopProgram,
    ParseError,
    Pow,
    Var,
    eval_expr,
    expr_calls,
    parse,
    parse_expression,
    parse_file,
    render,
    validate_conditions,
)

TOY = """
x = 1.5
while true {
    w = Normal(0, 1)
    x := x + 2*w
}
"""


def test_toy_ast_shape():
    p = parse(TOY)
    assert p.inits == [Init("x", 1.5)]
    assert len(p.body) == 2
    draw = p.body[0]
    assert isinstance(draw, DistDraw) and draw.var == "w"
    assert draw.density.family == "Normal"
    assert draw.density.params["mu"] == 0.0 and draw.density.params["sigma"] == 1.0
    assert p.body[1] == Assign("x", BinOp("+", Var("x"), BinOp("*", Const(2.0), Var("w"))))
    assert p.state_vars == ["x"]
    assert p.draw_vars == ["w"]


def test_vehicle_program_shape():
    p = parse_file(program_path("turning.ppl"))
    assigns = [u for u in p.body if isinstance(u, Assign)]
    draws = [u for u in p.body if isinstance(u, DistDraw)]
    assert [a.var for a in assigns] == ["x", "y", "v", "psi"]
    assert [d.var for d in draws] == ["w1", "w2"]
    assert p.state_vars == ["x", "y", "v", "psi"]
    # initial distributions survive as Density values
    init_map = {i.var: i.value for i in p.inits}
    assert isinstance(init_map["v"], Density) and init_map["v"].family == "Uniform"


ALL_FAMILIES = """
v = TruncGamma(2, 1.5, 0.5, 4)
x = Normal(0, 1)
while true {
    w1 = Uniform(-1, 2)
    w2 = TruncNormal(0, 0.5, -1, 1)
    x := 0.5*x + w1*w2 + v
}
"""


def test_render_parse_round_trip():
    for fname in ("turning.ppl", "turning_sim.ppl", "turning_trunc.ppl", None):
        p1 = parse(ALL_FAMILIES) if fname is None else parse_file(program_path(fname))
        text = render(p1)
        p2 = parse(text)
        assert render(p2) == text
        assert [type(u) for u in p2.body] == [type(u) for u in p1.body]
        for a, b in zip(p1.body, p2.body):
            if isinstance(a, Assign):
                assert a == b
            else:
                assert a.var == b.var and a.density.to_dict() == b.density.to_dict()


def test_power_and_unary_minus():
    e = parse_expression("-x^2 + 2^3")
    env = {"x": 3.0}
    # unary minus binds looser than the power
    assert eval_expr(e, env) == -9.0 + 8.0
    assert parse_expression("(1 - x)^2") == Pow(
        BinOp("-", Const(1.0), Var("x")), 2)


def test_eval_expr_vectorized_matches_scalar():
    e = parse_expression("x + 2*sin(y) - x^3 + exp(0.1*y)")
    rng = np.random.default_rng(5)
    xs = rng.normal(size=50)
    ys = rng.normal(size=50)
    vec = eval_expr(e, {"x": xs, "y": ys})
    for i in range(50):
        want = xs[i] + 2 * math.sin(ys[i]) - xs[i] ** 3 + math.exp(0.1 * ys[i])
        assert vec[i] == pytest.approx(want, rel=1e-12)


def test_expr_calls_left_to_right():
    e = parse_expression("cos(x) * (1 + sin(exp(y)))")
    assert [c.fn for c in expr_calls(e)] == ["cos", "exp", "sin"]
    assert expr_calls(e)[2].arg == Call("exp", Var("y"))


def test_error_read_before_draw():
    with pytest.raises(ParseError, match="move the draw above its first use"):
        parse("x = 0\nwhile true {\n x := x + w\n w = Normal(0, 1)\n}")


def test_error_read_before_update_without_init():
    with pytest.raises(ParseError, match="needs an initial value"):
        parse("y = 0\nwhile true {\n y := x + 1\n x := x + 1\n}")


def test_error_never_given_value():
    with pytest.raises(ParseError, match="never given a value"):
        parse("y = 0\nwhile true { y := q + 1 }")


def test_error_double_init():
    with pytest.raises(ParseError, match="initialized twice"):
        parse("x = 1\nx = 2\nwhile true { x := x }")


def test_error_double_update():
    with pytest.raises(ParseError, match="updated twice"):
        parse("x = 1\nwhile true {\n x := x + 1\n x := x - 1\n}")


def test_error_reserved_name():
    with pytest.raises(ParseError, match="reserved"):
        parse("cos = 2\nwhile true { x := 1 }")


def test_error_distribution_arity_and_params():
    with pytest.raises(ParseError, match="Normal takes 2 arguments"):
        parse("x = Normal(1)\nwhile true { x := x }")
    with pytest.raises(ParseError, match="bad Uniform parameters"):
        parse("x = Uniform(2, 1)\nwhile true { x := x }")
    # a literal that overflows to inf is refused where it stands
    with pytest.raises(ParseError, match="bad Uniform parameters: parameter 'b' of Uniform "
                                         "must be finite, not inf") as exc:
        parse("x = 0\nwhile true {\n w = Uniform(0, 1e999)\n x := x + w\n}")
    assert (exc.value.line, exc.value.col) == (3, 6)
    with pytest.raises(ParseError, match="unknown distribution"):
        parse("x = Cauchy(0, 1)\nwhile true { x := x }")


def test_numbers_take_ascii_digits_only():
    # str.isdigit holds for both, and float/int would refuse '²' or read '٣'
    for text in ("x := x + 2\u00b2", "x := x^\u00b2", "x := x + \u0663"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse("x = 0\nwhile true {\n " + text + "\n}")


def test_error_distribution_args_are_numbers():
    # draws are independent of program state by syntax
    with pytest.raises(ParseError, match="expected a number"):
        parse("x = 0\nwhile true {\n w = Normal(x, 1)\n x := x + w\n}")


def test_error_location_is_reported():
    with pytest.raises(ParseError) as exc:
        parse("x = 1\ny := 2\nwhile true { x := x }")
    assert exc.value.line == 2
    assert exc.value.col == 3
    assert "line 2" in str(exc.value)


def test_error_empty_body():
    with pytest.raises(ParseError, match="empty"):
        parse("while true { }")


def test_error_unterminated_body():
    with pytest.raises(ParseError, match="'}' missing"):
        parse("while true { x := 1")


def test_error_trailing_input():
    with pytest.raises(ParseError, match="trailing"):
        parse("while true { x := 1 } garbage")


def test_predefined_constants_substitute():
    p = parse("x = 0\nwhile true { x := x + tau }", constants={"tau": 0.1})
    expr = p.body[0].expr
    assert expr == BinOp("+", Var("x"), Const(0.1))
    assert "tau" not in expr.free_vars()


def test_predefined_constants_cannot_be_assigned():
    with pytest.raises(ParseError, match="predefined constant"):
        parse("tau = 3\nwhile true { x := x }", constants={"tau": 0.1})
    with pytest.raises(ParseError, match="predefined constant"):
        parse("x = 0\nwhile true { tau := 1 }", constants={"tau": 0.1})


def test_parse_expression_rejects_trailing_junk():
    with pytest.raises(ParseError, match="trailing"):
        parse_expression("x + 1 2")
    with pytest.raises(ParseError, match="trailing"):
        parse_expression("x) + 1")


def test_comments_and_blank_lines_ignored():
    src = "# leading comment\n\nx = 1  # init\nwhile true {\n  # in body\n  x := x\n}\n"
    p = parse(src)
    assert p.inits == [Init("x", 1.0)]


def test_validate_stable_site():
    p = parse("x = 0\nwhile true {\n w = Normal(0, 1)\n x := x + exp(w)\n}")
    rep = validate_conditions(p)
    assert rep["all_sites_stable"] is True
    (site,) = rep["call_sites"]
    assert site["function"] == "exp"
    assert site["argument"] == "w"
    assert site["iteration_stable"] is True


def test_validate_accumulating_site():
    p = parse_file(program_path("turning.ppl"))
    rep = validate_conditions(p)
    assert rep["all_sites_stable"] is False
    fns = {(s["function"], s["iteration_stable"]) for s in rep["call_sites"]}
    assert fns == {("cos", False), ("sin", False)}
    for s in rep["call_sites"]:
        assert "psi" in s["reason"]


def test_validate_sequential_ordering():
    # reading state that is updated later in the body breaks the
    # previously-updated-variables-only shape; the reordered variant keeps it
    rep_plain = validate_conditions(parse_file(program_path("turning.ppl")))
    rep_seq = validate_conditions(parse_file(program_path("turning_sim.ppl")))
    assert rep_plain["sequential_ordering_ok"] is False
    assert any(o["update"] == "x" for o in rep_plain["ordering_offenders"])
    assert rep_seq["sequential_ordering_ok"] is True
    assert rep_seq["ordering_offenders"] == []


def test_parser_total_on_token_noise():
    """Random token soup must parse or raise ParseError, nothing else."""
    rng = np.random.default_rng(2024)
    pieces = ["x", "y", "w", "while", "true", "{", "}", ":=", "=", "+", "-",
              "*", "^", "(", ")", ",", "1", "2.5", "0.1", "1e3", "Normal",
              "Uniform", "sin", "log", "#", "$", "\n", "\u00b2", "\u0663"]
    ok = bad = 0
    for _ in range(10_000):
        k = int(rng.integers(0, 24))
        src = " ".join(rng.choice(pieces, size=k))
        try:
            assert isinstance(parse(src), LoopProgram)
            ok += 1
        except ParseError:
            bad += 1
    assert ok + bad == 10_000


def test_parser_total_on_mutated_programs():
    with open(program_path("turning.ppl"), encoding="utf-8") as fh:
        base = fh.read()
    rng = np.random.default_rng(77)
    for _ in range(2_000):
        chars = list(base)
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(0, len(chars)))
            op = int(rng.integers(0, 3))
            if op == 0:
                del chars[i]
            elif op == 1:
                chars.insert(i, chars[i])
            else:
                chars[i] = str(rng.choice(list("xw+*(){}=:123.")))
        try:
            parse("".join(chars))
        except ParseError:
            pass
