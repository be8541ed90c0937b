"""Parser and AST for the probabilistic-loop DSL (.ppl files).

A program is a block of initial assignments followed by an infinite loop
whose body updates every variable once per iteration:

    x = 0.0
    v = Uniform(6.5, 8.0)
    while true {
        w = Normal(0.0, 0.1)
        v := 0.95*v + 0.5 + 0.1*w
        x := x + 0.1*v*cos(psi)
    }

Update forms: `name := expr` (assignment, sequential semantics) and
`name = Dist(args)` (fresh draw every iteration).  Expressions allow
+, -, *, integer ^, parentheses and the calls sin, cos, exp, log.
Distributions are the families of dist.FAMILY_PARAMS, with the parameters
in that table's order, e.g. Normal(mu, sigma) or TruncGamma(k, theta, a, b);
sigma is always a standard deviation.

A loop is well formed when each variable is initialized at most once and
updated at most once per iteration, and each read has a value on the first
iteration: an init or an update above it, for a drawn variable its draw,
which replaces any init.  well_formed alone decides this, for every
LoopProgram, parsed or built in Python, and engine.PolynomializedProgram.

The AST has one children-first walk, _walk, and free_vars, expr_calls and
eval_expr, the one evaluator (over floats, arrays or MultiPoly), are built
on it; a new node type adds a case to _walk and eval_expr, a render method
and a parser rule.  _stable alone says whether a call site is iteration-stable.

The tokenizer matches one pattern, _TOKEN.  The parser is total: any input
yields either a LoopProgram or a ParseError carrying line and column.
"""

import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dist import FAMILY_PARAMS, Density

__all__ = [
    "Expr", "Const", "Var", "BinOp", "Pow", "Call",
    "Init", "Assign", "DistDraw", "LoopProgram", "well_formed",
    "parse", "parse_file", "parse_expression", "render", "validate_conditions",
    "ParseError", "eval_expr", "expr_calls", "NUMPY_CALLS",
]

CALL_NAMES = ("sin", "cos", "exp", "log")
# numpy implementation of each call name; the one table every module uses
NUMPY_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}
KEYWORDS = ("while", "true")


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# -- AST -------------------------------------------------------------------


class _Node:
    """Base of the expression nodes."""

    def free_vars(self):
        return _walk(self, lambda e, below: {e.name} if isinstance(e, Var)
                     else set().union(*below))


@dataclass(frozen=True)
class Const(_Node):
    value: float

    def render(self):
        return _number(self.value)


@dataclass(frozen=True)
class Var(_Node):
    name: str

    def render(self):
        return self.name


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - *
    left: "Expr"
    right: "Expr"

    def render(self):
        l, r = self.left.render(), self.right.render()
        if self.op == "*":
            if isinstance(self.left, BinOp) and self.left.op in "+-":
                l = f"({l})"
            if isinstance(self.right, BinOp) and self.right.op in "+-":
                r = f"({r})"
        elif self.op == "-" and isinstance(self.right, BinOp) and self.right.op in "+-":
            r = f"({r})"
        return f"{l} {self.op} {r}"


@dataclass(frozen=True)
class Pow(_Node):
    base: "Expr"
    exponent: int

    def render(self):
        b = self.base.render()
        if not isinstance(self.base, (Var, Const)):
            b = f"({b})"
        return f"{b}^{self.exponent}"


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    arg: "Expr"

    def render(self):
        return f"{self.fn}({self.arg.render()})"


Expr = Union[Const, Var, BinOp, Pow, Call]


def _walk(e, visit):
    """visit(node, its children's results) at every node of e, children
    first and left to right: the one traversal of the AST.  Returns the
    result at e."""
    if isinstance(e, BinOp):
        return visit(e, (_walk(e.left, visit), _walk(e.right, visit)))
    if isinstance(e, Pow):
        return visit(e, (_walk(e.base, visit),))
    if isinstance(e, Call):
        return visit(e, (_walk(e.arg, visit),))
    return visit(e, ())


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def eval_expr(e, env, const=None, call=None):
    """Evaluate e, reading each variable from env.  By default over floats
    or numpy arrays; const(value) makes a literal's value in another
    domain, and call(node, value of its argument) stands for every call,
    which meets the calls in expr_calls order."""

    def visit(node, below):
        if isinstance(node, Const):
            return node.value if const is None else const(node.value)
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, BinOp):
            return _OPS[node.op](*below)
        if isinstance(node, Pow):
            return below[0] ** node.exponent
        if isinstance(node, Call):
            return NUMPY_CALLS[node.fn](below[0]) if call is None else call(node, below[0])
        raise TypeError(f"not an expression node: {node!r}")

    return _walk(e, visit)


def expr_calls(e):
    """All Call nodes in the expression, left to right, each after the
    calls in its argument."""

    def visit(node, below):
        calls = [c for b in below for c in b]
        return calls + [node] if isinstance(node, Call) else calls

    return _walk(e, visit)


def _stable(arg, draw_vars):
    """Whether a call with argument arg is iteration-stable: arg reads only
    this iteration's draws, so its distribution is the same every time."""
    return arg.free_vars() <= set(draw_vars)


# -- program ---------------------------------------------------------------


@dataclass(frozen=True)
class Init:
    var: str
    value: Union[float, Density]  # constant or initial-value distribution


@dataclass(frozen=True)
class Assign:
    var: str
    expr: Expr


@dataclass(frozen=True)
class DistDraw:
    var: str
    density: Density


def well_formed(init_vars, steps):
    """(state_vars, draw_vars) of the loop with these init names and body
    steps, or a ValueError naming the first rule (module docstring) it
    breaks.  steps are (variable, reads) pairs in body order, reads being
    the variables an update reads, or None for a draw.  The state is every
    initialized or updated variable that is not drawn, in order of first
    appearance; the draws are in body order."""
    init_vars, steps = list(init_vars), list(steps)
    updated = [var for var, _ in steps]
    for names, fault in ((init_vars, "initialized twice"),
                         (updated, "updated twice in one iteration")):
        if len(set(names)) < len(names):
            twice = next(v for i, v in enumerate(names) if v in names[:i])
            raise ValueError(f"variable {twice!r} {fault}")
    drawn = [var for var, reads in steps if reads is None]
    available = set(init_vars).difference(drawn)
    for var, reads in steps:
        if reads is not None and not available.issuperset(reads):
            v = min(set(reads) - available)
            if v in drawn:
                raise ValueError(f"{v!r} is read before it is drawn; "
                                 "move the draw above its first use")
            if v in updated:
                raise ValueError(f"{v!r} is read before its update and needs an initial value")
            raise ValueError(f"variable {v!r} is never given a value")
        available.add(var)
    return [v for v in dict.fromkeys(init_vars + updated) if v not in drawn], drawn


class LoopProgram:
    """A loop: initial assignments plus one body executed forever, well
    formed (well_formed) or refused with a ValueError."""

    def __init__(self, inits, body, name=""):
        self.inits = list(inits)
        self.body = list(body)
        self.name = name
        self.state_vars, self.draw_vars = well_formed(
            [i.var for i in self.inits],
            [(u.var, None if isinstance(u, DistDraw) else u.expr.free_vars())
             for u in self.body])

    def __repr__(self):
        return f"LoopProgram(name={self.name!r}, vars={self.state_vars}, draws={self.draw_vars})"


# -- tokenizer -------------------------------------------------------------

# The token at a position of one line: spaces, then the first alternative
# that matches.  A comment ends the line; BAD, any other character but a
# space, is an error.  Numbers take ASCII digits only ([0-9], not \d):
# float would read '٣'.  \w is str.isalnum or '_'; a name must also start
# with a letter or '_', which _tokenize checks, so '²' or '½' is no name.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<COMMENT>\#.*)
  | (?P<NUMBER>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<IDENT>\w+)
  | (?P<SYMBOL>:=|[=+\-*^(){},])
  | (?P<BAD>[^ \t\r]))
""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # NUMBER | IDENT | SYMBOL | EOF
        self.text = text
        self.line = line
        self.col = col


def _tokenize(src):
    """The tokens of src, each with its line and column (a tab is one
    column), ending in EOF; end of input after a trailing comment is at its
    '#'."""
    tokens = []
    for line, row in enumerate(src.split("\n"), 1):
        for m in _TOKEN.finditer(row):
            kind = m.lastgroup
            if kind == "COMMENT":
                break
            text, col = m.group(kind), m.start(kind) + 1
            if kind == "BAD" or (kind == "IDENT" and not (text[0].isalpha() or text[0] == "_")):
                raise ParseError(f"unexpected character {text[0]!r}", line, col)
            tokens.append(_Token(kind, text, line, col))
    tokens.append(_Token("EOF", "", line, len(row.partition("#")[0]) + 1))
    return tokens


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, src, constants=None):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.constants = dict(constants or {})

    @property
    def cur(self):
        return self.tokens[self.pos]

    def error(self, message, tok=None):
        tok = tok or self.cur
        raise ParseError(message, tok.line, tok.col)

    def advance(self):
        tok = self.cur
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, text):
        if self.cur.kind == "SYMBOL" and self.cur.text == text:
            return self.advance()
        return None

    def expect(self, text):
        tok = self.accept(text)
        if tok is None:
            self.error(f"expected {text!r}, found {self.cur.text or 'end of input'!r}")
        return tok

    # program = init* "while" "true" "{" update+ "}"
    def program(self, name=""):
        inits = []
        while not (self.cur.kind == "IDENT" and self.cur.text == "while"):
            if self.cur.kind == "EOF":
                self.error("expected a loop ('while true { ... }')")
            inits.append(self.init())
        self.advance()  # while
        if not (self.cur.kind == "IDENT" and self.cur.text == "true"):
            self.error("expected 'true' after 'while'")
        self.advance()
        self.expect("{")
        body = []
        while not self.accept("}"):
            if self.cur.kind == "EOF":
                self.error("unterminated loop body ('}' missing)")
            body.append(self.update())
        if not body:
            self.error("no updates: loop body is empty")
        if self.cur.kind != "EOF":
            self.error(f"unexpected trailing input {self.cur.text!r}")
        try:
            return LoopProgram(inits, body, name=name)
        except ValueError as e:
            self.error(str(e))

    def init(self):
        var = self.ident("variable name")
        self.expect("=")
        if self.cur.kind == "IDENT":
            return Init(var, self.dist())
        return Init(var, self.finite(self.signed_number(), self.tokens[self.pos - 1]))

    def update(self):
        var_tok = self.cur
        var = self.ident("variable name")
        if self.accept(":="):
            return Assign(var, self.expr())
        if self.accept("="):
            if self.cur.kind != "IDENT":
                self.error("expected a distribution after '='; use ':=' for expressions")
            return DistDraw(var, self.dist())
        self.error("expected ':=' or '=' after variable name", var_tok)

    def ident(self, what):
        if self.cur.kind != "IDENT":
            self.error(f"expected {what}, found {self.cur.text or 'end of input'!r}")
        tok = self.advance()
        if tok.text in KEYWORDS or tok.text in CALL_NAMES:
            self.error(f"{tok.text!r} is reserved and cannot name a variable", tok)
        if tok.text in self.constants:
            self.error(f"{tok.text!r} is a predefined constant and cannot be assigned", tok)
        return tok.text

    def dist(self):
        fam_tok = self.advance()
        family = fam_tok.text
        self.expect("(")
        args = [self.signed_number()]
        while self.accept(","):
            args.append(self.signed_number())
        self.expect(")")
        names = FAMILY_PARAMS.get(family)
        if names is None:
            self.error(f"unknown distribution {family!r}", fam_tok)
        if len(args) != len(names):
            self.error(f"{family} takes {len(names)} arguments", fam_tok)
        try:
            return Density.of(family, *args)
        except ValueError as e:
            self.error(f"bad {family} parameters: {e}", fam_tok)

    def signed_number(self):
        sign = -1.0 if self.accept("-") else 1.0
        if self.cur.kind != "NUMBER":
            self.error(f"expected a number, found {self.cur.text or 'end of input'!r}")
        return sign * float(self.advance().text)

    def finite(self, value, tok):
        """value, which tok stands for, unless it is not finite."""
        if not math.isfinite(value):
            self.error(f"{tok.text!r} is not a finite number", tok)
        return value

    # expr = term (("+"|"-") term)*
    def expr(self):
        left = self.term()
        while True:
            if self.accept("+"):
                left = BinOp("+", left, self.term())
            elif self.accept("-"):
                left = BinOp("-", left, self.term())
            else:
                return left

    def term(self):
        left = self.factor()
        while self.accept("*"):
            left = BinOp("*", left, self.factor())
        return left

    def factor(self):
        if self.accept("-"):
            return BinOp("-", Const(0.0), self.factor())
        base = self.atom()
        if self.accept("^"):
            tok = self.cur
            if tok.kind != "NUMBER" or not tok.text.isdigit():
                self.error("exponent must be a nonnegative integer")
            self.advance()
            return Pow(base, int(tok.text))
        return base

    def atom(self):
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if self.cur.kind == "NUMBER":
            tok = self.advance()
            return Const(self.finite(float(tok.text), tok))
        if self.cur.kind == "IDENT":
            tok = self.advance()
            if tok.text in CALL_NAMES:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(tok.text, arg)
            if tok.text in KEYWORDS:
                self.error(f"unexpected keyword {tok.text!r} in expression", tok)
            if tok.text in self.constants:
                return Const(self.finite(float(self.constants[tok.text]), tok))
            return Var(tok.text)
        self.error(f"expected an expression, found {self.cur.text or 'end of input'!r}")


def parse(source, name="", constants=None):
    """Parse DSL text into a LoopProgram; raises ParseError with location.

    constants maps names to numbers; occurrences in expressions become
    literals (e.g. a shared time step), and the names cannot be assigned.
    """
    return _Parser(source, constants=constants).program(name=name)


def parse_expression(source, constants=None):
    """Parse one arithmetic expression (no loop around it) into an AST."""
    p = _Parser(source, constants=constants)
    e = p.expr()
    if p.cur.kind != "EOF":
        p.error(f"unexpected trailing input {p.cur.text!r}")
    return e


def parse_file(path, constants=None):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os

    return parse(text, name=os.path.splitext(os.path.basename(path))[0],
                 constants=constants)


def _number(v):
    """v as text: its short form where that reads back as v, else repr."""
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


def _render_density(d):
    args = ", ".join(_number(d.params[name]) for name in FAMILY_PARAMS[d.family])
    return f"{d.family}({args})"


def render(program):
    """Canonical text form; parse(render(p)) is structurally equal to p."""
    lines = []
    for ini in program.inits:
        if isinstance(ini.value, Density):
            lines.append(f"{ini.var} = {_render_density(ini.value)}")
        else:
            lines.append(f"{ini.var} = {_number(ini.value)}")
    lines.append("while true {")
    for u in program.body:
        if isinstance(u, DistDraw):
            lines.append(f"    {u.var} = {_render_density(u.density)}")
        else:
            lines.append(f"    {u.var} := {u.expr.render()}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def validate_conditions(program):
    """Classify call sites and report which structural conditions hold.

    Sites are numbered in textual order, each update's in expr_calls
    order.  A site is iteration-stable when _stable says so; one whose
    argument reads state needs a reference germ instead.
    """
    draw_set = set(program.draw_vars)
    sites = []
    for idx, u in enumerate(program.body):
        if not isinstance(u, Assign):
            continue
        for call in expr_calls(u.expr):
            stable = _stable(call.arg, draw_set)
            sites.append({
                "update": u.var,
                "update_index": idx,
                "function": call.fn,
                "argument": call.arg.render(),
                "iteration_stable": stable,
                "reason": (
                    "argument involves only per-iteration draws"
                    if stable
                    else "argument reads state variables: "
                    + ", ".join(sorted(call.arg.free_vars() - draw_set))
                ),
            })

    # Def.-1 shape: x_i := a*x_i + P(previously updated variables); draws are
    # independent of program variables by syntax.  Reported, not enforced.
    updated = set()
    ordering_ok = True
    offenders = []
    for u in program.body:
        if isinstance(u, Assign):
            refs = u.expr.free_vars() - draw_set - {u.var}
            bad = refs - updated
            if bad:
                ordering_ok = False
                offenders.append({"update": u.var, "reads_unupdated": sorted(bad)})
        updated.add(u.var)

    return {
        "program": program.name,
        "variables": program.state_vars,
        "draws": program.draw_vars,
        "call_sites": sites,
        "all_sites_stable": all(s["iteration_stable"] for s in sites),
        "independent_draws": True,  # draws take no arguments by construction
        "sequential_ordering_ok": ordering_ok,
        "ordering_offenders": offenders,
    }
