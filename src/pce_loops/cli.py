"""Command-line front-end.

Subcommands map onto the library: expand (function approximation), orthopoly
(basis construction), parse (loop checking), moments (exact propagation),
simulate (Monte Carlo), bench (loop benchmarks against reference values) and
table2 (the function-approximation error table).

Reports come in two shapes: CSV tables with a fixed, documented column order
(byte-identical across runs for the same config and seed) and JSON reports
that additionally carry config, input digests, timings and provenance.
Timings vary run to run, so only the CSV side is covered by the determinism
guarantee.  One writer, `_write`, handles `--format` and `--out` for every
subcommand that has them.

Exit codes, mapped in one place (`main`): 0 success; 1 a usage error, a parse
error or an input or output path that cannot be read or written; 2 a numeric
failure, or a bench row outside its tolerance; 3 all requested work was
skipped.
"""

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field

from . import bench as bench_mod
from .dist import RandomVector, density_from_dict
from .engine import parse_monomial, polynomialize, propagate, simulate
from .lang import (
    NUMPY_CALLS, ParseError, eval_expr, parse_expression, parse_file, render, validate_conditions,
)
from .orthopoly import GramSchmidtError, gram_schmidt
from .pce import error_bound, expand
from .quad import DEFAULT_NODES

__all__ = ["main", "RunReport"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_SKIPPED = 3


class UsageError(ValueError):
    pass


@dataclass
class RunReport:
    """Everything one invocation computed, plus how it was configured."""

    command: str
    inputs: dict
    config: dict
    results: object
    timings: dict = field(default_factory=dict)
    provenance: list = field(default_factory=list)

    def to_json(self):
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "config": self.config,
            "results": self.results,
            "timings": self.timings,
            "provenance": self.provenance,
        }
        return json.dumps(payload, indent=2) + "\n"


def _digest(data):
    import hashlib  # here, off the import path of runs that print no digest

    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _file_digest(path):
    with open(path, "rb") as fh:
        return _digest(fh.read())


def _csv_text(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                    for v in row])
    return buf.getvalue()


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write(args, report, header, rows, code=EXIT_OK):
    """Emit the report as JSON under --format json, else its CSV table, to
    --out or stdout, and return the exit code."""
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        _emit(_csv_text(header, rows), args.out)
    return code


def _program(args):
    return parse_file(args.file, constants={"tau": args.tau})


def _parse_degrees(text):
    try:
        degrees = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--degrees expects integers like '2,2', got {text!r}")
    if any(d < 0 for d in degrees):
        raise UsageError(f"--degrees must be nonnegative, got {text!r}")
    return degrees


def _load_germs(text):
    """--germs accepts {"x": {density}, ...} or [{density}, ...]."""
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"--germs is not valid JSON: {e}")
    if isinstance(spec, dict) and "family" in spec:
        spec = [spec]
    if isinstance(spec, dict):
        names = list(spec)
        specs = [spec[n] for n in names]
    elif isinstance(spec, list):
        specs = spec
        defaults = ["x", "y", "z", "w"]
        names = [defaults[i] if i < 4 else f"x{i + 1}" for i in range(len(specs))]
    else:
        raise UsageError("--germs must be a JSON object or array of densities")
    try:
        return names, [density_from_dict(d) for d in specs]
    except ValueError as e:
        raise UsageError(f"--germs is not a valid density: {e}")


# -- subcommand bodies -----------------------------------------------------


def cmd_expand(args):
    names, densities = _load_germs(args.germs)
    expr = parse_expression(args.fn)
    unknown = expr.free_vars() - set(names)
    if unknown:
        raise UsageError(
            f"function uses {sorted(unknown)} but germs define {names}"
        )
    degrees = _parse_degrees(args.degrees)
    if len(degrees) != len(densities):
        raise UsageError(f"{len(degrees)} degrees for {len(densities)} germs")

    def g(*arrays):
        return eval_expr(expr, dict(zip(names, arrays)))

    t0 = time.perf_counter()
    e = expand(g, RandomVector(densities), degrees, n_nodes=args.quad_nodes)
    ms = 1e3 * (time.perf_counter() - t0)
    results = {
        "coeffs": [float(c) for c in e.coeffs],
        "D": [list(row) for row in e.D],
        "L": len(e.D),
        "estimator": {
            "text": e.estimator.render(names=names),
            "poly": e.estimator.to_json_dict(),
        },
        "se": e.se,
        "moments": dict(zip(("mean", "variance"), e.moments())),
    }
    report = RunReport(
        command="expand",
        inputs={"fn": args.fn, "fn_digest": _digest(args.fn)},
        config={"germs": [d.to_dict() for d in densities],
                "names": names, "degrees": list(degrees),
                "quad_nodes": args.quad_nodes},
        results=results,
        timings={"expansion_ms": ms},
    )
    rows = [(j, " ".join(map(str, e.D[j])), float(c))
            for j, c in enumerate(e.coeffs)]
    return _write(args, report, ("j", "degrees", "coefficient"), rows)


def cmd_orthopoly(args):
    try:
        density = density_from_dict(json.loads(args.dist))
    except ValueError as e:
        raise UsageError(f"--dist is not a valid density: {e}")
    t0 = time.perf_counter()
    basis = gram_schmidt(density, args.degree, n_nodes=args.quad_nodes)
    ms = 1e3 * (time.perf_counter() - t0)
    rendered = [p.to_multi(1, 0).render(names=("x",)) for p in basis.polys]
    if args.format == "text":
        lines = [f"p{k}(x) = {text}" for k, text in enumerate(rendered)]
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    report = RunReport(
        command="orthopoly",
        inputs={"dist": density.to_dict()},
        config={"degree": args.degree, "quad_nodes": args.quad_nodes},
        results={
            "basis": [{"degree": k,
                       "coefficients_ascending": [float(c) for c in p.coeffs],
                       "text": text}
                      for k, (p, text) in enumerate(zip(basis.polys, rendered))],
            "gram_residual": basis.gram_residual,
        },
        timings={"expansion_ms": ms},
    )
    rows = [(k, " ".join(repr(float(c)) for c in p.coeffs))
            for k, p in enumerate(basis.polys)]
    return _write(args, report, ("degree", "coefficients_ascending"), rows)


def cmd_parse(args):
    program = _program(args)
    report = validate_conditions(program)
    if args.check:
        payload = {"file": args.file, "digest": _file_digest(args.file),
                   "report": report}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(render(program), args.out)
    return EXIT_OK


def _parse_targets(program, targets):
    """The --target monomials as exponent tuples over the state variables."""
    try:
        return [parse_monomial(t, program.state_vars) for t in targets]
    except ValueError as e:
        raise UsageError(f"--target: {e}")


def cmd_moments(args):
    program = _program(args)
    if not args.target:
        args.target = list(program.state_vars)
    targets = _parse_targets(program, args.target)
    degrees = _parse_degrees(args.degrees)
    if len(degrees) != 1:
        raise UsageError("moments takes a single expansion degree")
    t0 = time.perf_counter()
    pp = polynomialize(program, degree=degrees[0], n_nodes=args.quad_nodes)
    t1 = time.perf_counter()
    table = propagate(pp, targets, args.n)
    t2 = time.perf_counter()

    provenance = [dict(p) for p in pp.provenance]
    for p in provenance:
        p["bound"] = _maybe_bound(p)
    rows = table.rows()
    report = RunReport(
        command="moments",
        inputs={"file": args.file, "digest": _file_digest(args.file)},
        config={"targets": args.target, "n": args.n, "degrees": degrees[0],
                "quad_nodes": args.quad_nodes, "tau": args.tau},
        results={"moments": [
            {"n": n, "monomial": mono, "value": val} for n, mono, val in rows
        ]},
        timings={"expansion_ms": 1e3 * (t1 - t0),
                 "propagation_ms": 1e3 * (t2 - t1)},
        provenance=provenance,
    )
    return _write(args, report, ("n", "monomial", "value"), rows)


def _maybe_bound(prov):
    """Error bound for a replaced call when its germ has bounded support."""
    germ = prov["germ"]
    if "a" not in germ or "b" not in germ:
        return None
    try:
        return error_bound(NUMPY_CALLS[prov["function"]], (germ["a"], germ["b"]))
    except (ValueError, ArithmeticError):
        return None


def cmd_simulate(args):
    program = _program(args)
    targets = args.target or None
    parsed = _parse_targets(program, targets) if targets else None
    t0 = time.perf_counter()
    table = simulate(program, args.n, samples=args.samples, seed=args.seed,
                     targets=parsed, threads=args.threads)
    ms = 1e3 * (time.perf_counter() - t0)
    rows = table.rows()
    report = RunReport(
        command="simulate",
        inputs={"file": args.file, "digest": _file_digest(args.file)},
        config={"targets": [str(t) for t in (targets or table.vars)],
                "n": args.n, "samples": args.samples, "seed": args.seed,
                "tau": args.tau},
        results={"moments": [
            {"n": n, "monomial": mono, "value": val, "stderr": se}
            for n, mono, val, se in rows
        ]},
        timings={"simulation_ms": ms},
    )
    return _write(args, report, ("n", "monomial", "value", "stderr"), rows)


BENCH_HEADER = ("benchmark", "target", "sim", "deg", "result", "reference",
                "rel_dev", "status")


def cmd_bench(args):
    if not args.suite:
        raise UsageError(f"no suite given; available: {', '.join(bench_mod.SUITES)}")
    unknown = [s for s in args.suite if s not in bench_mod.SUITES]
    if unknown:
        raise UsageError(
            f"unknown suite(s) {unknown}; available: {', '.join(bench_mod.SUITES)}"
        )
    reports = []
    for suite in args.suite:   # declared order
        if suite == "appendix-b":
            reports.append(bench_mod.run_appendix_b(n_nodes=args.quad_nodes))
        else:
            reports.append(bench_mod.run_benchmark(
                suite, samples=args.samples, seed=args.seed,
                n_nodes=args.quad_nodes, with_sim=not args.no_sim))
    csv_rows = []
    for rep in reports:
        csv_rows.extend(_bench_csv_rows(rep))
    report = RunReport(
        command="bench",
        inputs={"suites": list(args.suite)},
        config={"samples": args.samples, "seed": args.seed,
                "quad_nodes": args.quad_nodes, "sim": not args.no_sim},
        results=reports,
    )
    statuses = {r["status"] for r in reports}
    code = (EXIT_NUMERIC if "FAIL" in statuses
            else EXIT_SKIPPED if statuses == {"SKIPPED"} else EXIT_OK)
    return _write(args, report, BENCH_HEADER, csv_rows, code)


def _bench_csv_rows(rep):
    if rep["status"] == "SKIPPED":
        return [(rep["benchmark"], "", None, "", None, None, None,
                 "SKIPPED(transcription-needed)")]
    if rep["suite"] == "appendix-b":
        rows = [(rep["benchmark"], f"c_{r['j'] + 1}", None,
                 " ".join(map(str, r["degree_row"])), r["coefficient"],
                 r["reference"], r["abs_dev"], r["status"]) for r in rep["rows"]]
        se = rep["se"]
        rows.append((rep["benchmark"], "se", None, "", se["value"],
                     se["reference"], se["rel_dev"], se["status"]))
        return rows
    sim = rep.get("sim", {}).get("value")
    out = []
    for r in rep["rows"]:
        out.append((rep["benchmark"], rep["target"], sim, r["degree"],
                    r["result"], r["reference"], r["rel_dev"], r["status"]))
    return out


def cmd_table2(args):
    t0 = time.perf_counter()
    rep = bench_mod.run_table2(n_nodes=args.quad_nodes)
    report = RunReport(
        command="table2",
        inputs={},
        config={"quad_nodes": args.quad_nodes},
        results=rep,
        timings={"table2_ms": 1e3 * (time.perf_counter() - t0)},
    )
    rows = [(r["row"], r["function"], r["degree"], r["n_coefficients"],
             r["error"], r["reference"], r["ratio"]) for r in rep["rows"]]
    return _write(args, report, ("row", "function", "degree", "n_coefficients",
                                 "error", "reference", "ratio"), rows)


# -- argument wiring -------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage failures on exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low):
    """argparse type for an integer count of at least low."""

    def count(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def _add_common(p, fmt_default, fmt_choices=("csv", "json")):
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.add_argument("--format", choices=fmt_choices, default=fmt_default)
    p.add_argument("--quad-nodes", type=_at_least(1), default=DEFAULT_NODES,
                   help="Gauss nodes per dimension")


def build_parser():
    top = _ArgumentParser(
        prog="pce-loops",
        description="Polynomial chaos expansions and moment analysis of "
                    "probabilistic loops.",
    )
    sub = top.add_subparsers(dest="cmd", required=True,
                              parser_class=_ArgumentParser)

    p = sub.add_parser("expand",
                       help="expand a function of random inputs in an orthonormal basis")
    p.add_argument("--fn", required=True, help='expression, e.g. "log(x+y)"')
    p.add_argument("--germs", required=True,
                   help='JSON: {"x": {"family": ...}, ...} or [{...}, ...]')
    p.add_argument("--degrees", required=True, help="per-germ degrees, e.g. 2,2")
    _add_common(p, "json")
    p.set_defaults(fn_=cmd_expand)

    p = sub.add_parser("orthopoly",
                       help="print the orthonormal polynomial basis of a density")
    p.add_argument("--dist", required=True, help="density as JSON")
    p.add_argument("--degree", type=_at_least(0), required=True)
    _add_common(p, "text", ("text", "csv", "json"))
    p.set_defaults(fn_=cmd_orthopoly)

    p = sub.add_parser("parse",
                       help="parse a loop and report its structural conditions")
    p.add_argument("file")
    p.add_argument("--check", action="store_true",
                   help="print the conditions report as JSON instead of the "
                        "canonical source")
    p.add_argument("--tau", type=float, default=0.1,
                   help="value of the predefined constant tau")
    p.add_argument("--out")
    p.set_defaults(fn_=cmd_parse)

    p = sub.add_parser("moments",
                       help="exact per-iteration moments after polynomial replacement")
    p.add_argument("file")
    p.add_argument("--target", action="append", default=None,
                   help="monomial like x or x^2*y (repeatable); default: "
                        "every state variable")
    p.add_argument("--n", type=_at_least(0), required=True, help="iterations")
    p.add_argument("--degrees", default="5", help="expansion degree")
    p.add_argument("--tau", type=float, default=0.1)
    _add_common(p, "csv")
    p.set_defaults(fn_=cmd_moments)

    p = sub.add_parser("simulate",
                       help="Monte Carlo moments under the original semantics")
    p.add_argument("file")
    p.add_argument("--target", action="append", default=None)
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--samples", type=_at_least(1), default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_at_least(1), default=None,
                   help="worker threads (default: the CPU count up to 4)")
    p.add_argument("--tau", type=float, default=0.1)
    _add_common(p, "csv")
    p.set_defaults(fn_=cmd_simulate)

    p = sub.add_parser("bench",
                       help="run benchmark suites against their reference values")
    p.add_argument("suite", nargs="*", default=[],
                   help=f"one or more of: {', '.join(bench_mod.SUITES)}")
    p.add_argument("--samples", type=_at_least(1), default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-sim", action="store_true",
                   help="skip the Monte Carlo cross-check")
    _add_common(p, "csv")
    p.set_defaults(fn_=cmd_bench)

    p = sub.add_parser("table2",
                       help="recompute the function-approximation error table")
    _add_common(p, "csv")
    p.set_defaults(fn_=cmd_table2)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            # fail before the work; append mode truncates nothing, so parse F --out F reads F
            open(args.out, "a", encoding="utf-8").close()
        return args.fn_(args)
    except ParseError as e:
        print(f"pce-loops: parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, OSError) as e:
        print(f"pce-loops: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (GramSchmidtError, ArithmeticError, ValueError) as e:
        print(f"pce-loops: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
