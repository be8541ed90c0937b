"""The benchmark's workloads: what each runs, and how each value is checked.

A workload has a set-up (parse its .ppl files, build its densities) and an
operation list.  One pass runs every operation once; afterwards each value
the operations returned is checked against perfbench/reference.json or
perfbench/reference_mc.json.  An operation that raises fails every value it
should have produced.

The library is reached only through public functions, looked up on the
package at call time so that the traced run's wrappers see every call.
Only the Monte Carlo draws of the monte-carlo workload depend on the seed.
"""

import json
import math
import os
import time
from dataclasses import dataclass

import pce_loops
import pce_loops.bench
import pce_loops.cli  # noqa: F401  (its import cost is part of set-up)

import common

N_MOMENTS = 20           # horizon of the vehicle moment queries
LONG_HORIZON = 2000
SIM_SAMPLES = 10**6
VEHICLE_PROGRAMS = ("turning.ppl", "turning_trunc.ppl", "scheduled_exp.ppl")


@dataclass(frozen=True)
class Check:
    """One computed value against its reference.  ok needs a finite value
    within `allowed` (absolute) of the reference."""

    label: str
    value: float
    reference: float
    allowed: float

    @property
    def ok(self):
        return math.isfinite(self.value) and abs(self.value - self.reference) <= self.allowed


@dataclass(frozen=True)
class Op:
    """run() computes; check(result) turns the result into Checks.
    labels names every value check() yields, so a raise can fail them all."""

    name: str
    run: object
    check: object
    labels: tuple


def _failed(labels, error):
    return [Check(f"{label} (raised {type(error).__name__})", math.nan, math.nan, 0.0)
            for label in labels]


def run_pass(ops):
    """Run every operation once; return (seconds, results) with results in
    op order, an exception standing in for a value that raised."""
    results = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            results.append(op.run())
        except Exception as error:  # a failing operation is counted, not fatal
            results.append(error)
    return time.perf_counter() - t0, results


def check_pass(ops, results):
    checks = []
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            checks.extend(_failed(op.labels, result))
            continue
        try:
            got = op.check(result)
            if [c.label for c in got] != list(op.labels):
                raise ValueError("result does not match its reference")
        except (KeyError, TypeError, ValueError, IndexError) as error:
            got = _failed(op.labels, error)
        checks.extend(got)
    return checks


def load_references():
    ref = common.load_reference()
    with open(os.path.join(common.BENCH_DIR, "reference_mc.json"), encoding="utf-8") as fh:
        ref["monte_carlo"] = json.load(fh)
    return ref


# -- checkers -------------------------------------------------------------


def table2_labels(ref):
    return tuple(f"table2 row {r['row']} degree {d}"
                 for r in ref["table2"]["rows"] for d in r["errors"])


def check_table2(report, ref):
    cells = {(c["row"], str(c["degree"])): c["error"] for c in report["rows"]}
    out = []
    for row in ref["table2"]["rows"]:
        for deg, published in row["errors"].items():
            target = row.get("recomputed", {}).get(deg, published)
            out.append(Check(f"table2 row {row['row']} degree {deg}", cells[(row["row"], deg)],
                             target, row["tolerance"] * target))
    return out


def appendix_b_labels(ref):
    n = len(ref["appendix_b"]["coeffs"])
    return tuple(f"appendix-b c{j}" for j in range(n)) + ("appendix-b se",)


def check_appendix_b(report, ref):
    b = ref["appendix_b"]
    if len(report["rows"]) != len(b["coeffs"]):
        raise ValueError("coefficient count differs from the reference")
    out = [Check(f"appendix-b c{j}", row["coefficient"], want, b["coeff_abs_tol"])
           for j, (row, want) in enumerate(zip(report["rows"], b["coeffs"]))]
    out.append(Check("appendix-b se", report["se"]["value"], b["se"], b["se_rel_tol"] * b["se"]))
    return out


def _within_z(label, value, mc, z_limit):
    return Check(label, value, mc["value"], z_limit * mc["se"])


# -- workloads --------------------------------------------------------------


def _moment(prog, degree, target, iterations):
    pp = pce_loops.polynomialize(prog, degree=degree)
    return pce_loops.propagate(pp, [target], iterations).value(iterations, target)


def _op(name, run, check):
    return Op(name, run, lambda v: [check(v)], (name,))


def expansion_setup(ctx):
    return {}


def expansion_ops(state, ref):
    return [
        Op("table2", pce_loops.bench.run_table2, lambda r: check_table2(r, ref),
           table2_labels(ref)),
        Op("appendix-b", pce_loops.bench.run_appendix_b, lambda r: check_appendix_b(r, ref),
           appendix_b_labels(ref)),
    ]


def vehicle_setup(ctx):
    lag = ctx["ref"]["lagrange"]
    return {
        "programs": _parse(VEHICLE_PROGRAMS),
        "lagrange_germs": [pce_loops.Density.normal(0.0, lag["sigma"] * math.sqrt(n))
                           for n in range(1, lag["iterations"] + 1)],
    }


def _mc_moment_op(state, ref, key, target, iterations):
    """turning.ppl at degree 9, checked against its stored Monte Carlo
    reference within z_limit standard errors."""
    mc = ref["monte_carlo"][key]
    label = f"turning.ppl degree 9 E[{target}_{iterations}]"
    return _op(
        label,
        lambda: _moment(state["programs"]["turning.ppl"], 9, target, iterations),
        lambda v: _within_z(label, v, mc["values"][target], ref["z_limit"]),
    )


def vehicle_suite_ops(state, ref):
    """Queries whose reference is published or a closed form, plus the
    closure-heavy E[x^2*y^2_20], whose stored Monte Carlo check passes."""
    progs = state["programs"]
    ops = []
    for name in ("turning.ppl", "turning_trunc.ppl"):
        suite = ref["suites"][name]
        for deg, published in suite["propagation"].items():
            label = f"{name} degree {deg} E[{suite['target']}_{suite['iterations']}]"
            ops.append(_op(
                label,
                lambda p=progs[name], d=int(deg), s=suite: _moment(p, d, s["target"],
                                                                  s["iterations"]),
                lambda v, label=label, want=published, tol=suite["tolerance"]:
                    Check(label, v, want, tol),
            ))
    lag = ref["lagrange"]
    n = lag["iterations"]
    exact = sum(math.exp(m * lag["sigma"] ** 2 / 2) for m in range(1, n + 1))
    label = f"{lag['program']} lagrange N={n} E[x_{n}]"

    def scheduled():
        pp = pce_loops.lagrange_schedule(progs[lag["program"]], 0, n, state["lagrange_germs"],
                                         degree=lag["degree"])
        return pce_loops.propagate(pp, ["x"], n).value(n, "x")

    ops.append(_op(label, scheduled, lambda v: Check(label, v, exact, lag["rel_tol"] * exact)))
    ops.append(_mc_moment_op(state, ref, "turning-n20", "x^2*y^2", N_MOMENTS))
    return ops


def vehicle_moments_ops(state, ref):
    """vehicle-suite plus the other higher moments checked against Monte
    Carlo.  At degree 9, E[x^2_20] and E[x^4_20] fail their check."""
    return vehicle_suite_ops(state, ref) + [
        _mc_moment_op(state, ref, "turning-n20", target, N_MOMENTS)
        for target in ref["monte_carlo"]["turning-n20"]["targets"] if target != "x^2*y^2"]


def long_horizon_setup(ctx):
    return {"programs": _parse(("turning.ppl",))}


def long_horizon_ops(state, ref):
    return [_mc_moment_op(state, ref, "turning-n2000", target, LONG_HORIZON)
            for target in ref["monte_carlo"]["turning-n2000"]["targets"]]


def monte_carlo_setup(ctx):
    return {"programs": _parse(("turning_sim.ppl", "turning_trunc_sim.ppl")),
            "seed": ctx["seed"], "threads": ctx["threads"]}


def monte_carlo_ops(state, ref):
    ops = []
    for name, prog in state["programs"].items():
        suite = ref["suites"][name]
        n, target = suite["iterations"], suite["target"]
        label = f"{name} simulate E[{target}_{n}]"

        def run(prog=prog, n=n, target=target):
            table = pce_loops.simulate(prog, n, samples=SIM_SAMPLES, seed=state["seed"],
                                       targets=[target], threads=state["threads"])
            return table.value(n, target), table.value_stderr(n, target)

        def check(result, label=label, suite=suite):
            value, se = result
            return Check(label, value, suite["simulation"],
                         max(ref["z_limit"] * se, suite["tolerance"]))

        ops.append(_op(label, run, check))
    return ops


def _parse(names):
    return {name: pce_loops.parse_file(common.program_file(name)) for name in names}


@dataclass(frozen=True)
class Workload:
    why: str
    programs: tuple
    setup: object
    ops: object


WORKLOADS = {
    "expansion": Workload(
        "run_table2 plus run_appendix_b: quad, orthopoly and pce do the work, engine none",
        (), expansion_setup, expansion_ops),
    "vehicle-suite": Workload(
        "the published turning-vehicle queries (degrees 3/5/9), a Lagrange schedule and "
        "degree-9 E[x^2*y^2_20]: monomial closure is about two thirds of the time",
        VEHICLE_PROGRAMS, vehicle_setup, vehicle_suite_ops),
    "vehicle-moments": Workload(
        "vehicle-suite plus x^2 and x^4 at degree 9, which fail their Monte Carlo check",
        VEHICLE_PROGRAMS, vehicle_setup, vehicle_moments_ops),
    "long-horizon": Workload(
        "x^2 and y^2 at n=2000: the per-iteration propagate matvec dominates; fails at the "
        "seed through the fixed-germ defect",
        ("turning.ppl",), long_horizon_setup, long_horizon_ops),
    "monte-carlo": Workload(
        "simulate at 1e6 samples on the sequential vehicle loops: dist sampling and "
        "lang evaluation only",
        ("turning_sim.ppl", "turning_trunc_sim.ppl"), monte_carlo_setup, monte_carlo_ops),
}
