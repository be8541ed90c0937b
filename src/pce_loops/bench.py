"""Benchmark registry: the loop models, the function-approximation table and
the worked expansion example, each with its published reference values.

Every runner returns plain dicts (JSON-ready) in which each computed number
sits next to its reference value and relative deviation.  Loop benchmarks
whose shipped source is a stand-in (the published listing was only available
as a picture) are reported as skipped instead of producing numbers.
"""

import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import quad
from .dist import Density, RandomVector, density_from_dict
from .engine import polynomialize, propagate, simulate
from .lang import parse_file
from .pce import _bases, _evaluations, _project, _se, _square_errors
# perfbench/spans.py wraps both names here, error_se too though nothing here
# calls it.
from .pce import error_se, expand  # noqa: F401

__all__ = [
    "BENCHMARKS",
    "TABLE2_ROWS",
    "APPENDIX_B",
    "SUITES",
    "program_path",
    "is_placeholder",
    "run_benchmark",
    "run_appendix_b",
    "run_table2",
]


def program_path(filename):
    """Filesystem path of a bundled .ppl program."""
    return resources.files("pce_loops").joinpath("programs").joinpath(filename)


def is_placeholder(filename):
    with program_path(filename).open() as fh:
        return "PLACEHOLDER" in fh.read(512)


@dataclass(frozen=True)
class LoopBenchmark:
    key: str
    title: str
    program: str            # source used for exact moment propagation
    sim_program: str        # source the simulation reference was produced from
    target: str
    iterations: int
    degrees: tuple
    reference: dict         # degree -> published propagation value
    sim_reference: float
    tolerance: float        # |result - reference| allowed, absolute


BENCHMARKS = {
    b.key: b
    for b in [
        LoopBenchmark(
            key="taylor-rule",
            title="Taylor rule model",
            program="taylor_rule.ppl",
            sim_program="taylor_rule.ppl",
            target="i",
            iterations=20,
            degrees=(3, 5, 9),
            reference={3: 0.02278, 5: 0.02295, 9: 0.02300},
            sim_reference=0.02298,
            tolerance=2e-4,
        ),
        LoopBenchmark(
            key="turning-vehicle",
            title="Turning vehicle model",
            program="turning.ppl",
            sim_program="turning_sim.ppl",
            target="x",
            iterations=20,
            degrees=(3, 5, 9),
            reference={3: 14.44342, 5: 15.43985, 9: 15.60595},
            sim_reference=15.69792,
            tolerance=1e-3,
        ),
        LoopBenchmark(
            key="turning-vehicle-trunc",
            title="Turning vehicle model (trunc.)",
            program="turning_trunc.ppl",
            sim_program="turning_trunc_sim.ppl",
            target="x",
            iterations=20,
            degrees=(3, 5, 9),
            reference={3: 14.44342, 5: 15.43985, 9: 15.60595},
            sim_reference=15.69882,
            tolerance=1e-3,
        ),
        LoopBenchmark(
            key="rimless-wheel",
            title="Rimless wheel walker",
            program="rimless_wheel.ppl",
            sim_program="rimless_wheel.ppl",
            target="x",
            iterations=2000,
            degrees=(1, 2, 3),
            reference={1: 1.79159, 2: 1.79159, 3: 1.79159},
            sim_reference=1.79155,
            tolerance=1e-4,
        ),
        LoopBenchmark(
            key="robotic-arm",
            title="Robotic arm model",
            program="robotic_arm.ppl",
            sim_program="robotic_arm.ppl",
            target="x",
            iterations=100,
            degrees=(1, 2, 3),
            reference={1: 268.85236, 2: 268.85227, 3: 268.85227},
            sim_reference=268.853,
            tolerance=1e-2,
        ),
    ]
}

SUITES = tuple(BENCHMARKS) + ("appendix-b",)


def run_benchmark(key, samples=10**6, seed=0, n_nodes=quad.DEFAULT_NODES, with_sim=True):
    """Propagate and simulate one loop benchmark against its references.

    A propagation row whose |result - reference| exceeds the benchmark's
    tolerance has status FAIL, and so has the suite; the simulation value is
    informational and is not checked.
    """
    b = BENCHMARKS[key]
    if is_placeholder(b.program):
        return {
            "benchmark": b.title,
            "suite": key,
            "status": "SKIPPED",
            "reason": "transcription-needed: shipped program is a stand-in "
                      "for a listing only published as a figure",
            "rows": [],
        }
    prog = parse_file(str(program_path(b.program)))
    out = {
        "benchmark": b.title,
        "suite": key,
        "status": "ok",
        "target": b.target,
        "iterations": b.iterations,
        "sim_reference": b.sim_reference,
        "rows": [],
    }
    for deg in b.degrees:
        t0 = time.perf_counter()
        pp = polynomialize(prog, degree=deg, n_nodes=n_nodes)
        t1 = time.perf_counter()
        table = propagate(pp, [b.target], b.iterations)
        t2 = time.perf_counter()
        value = table.value(b.iterations, b.target)
        ref = b.reference.get(deg)
        ok = ref is None or abs(value - ref) <= b.tolerance
        if not ok:
            out["status"] = "FAIL"
        out["rows"].append({
            "degree": deg,
            "result": value,
            "reference": ref,
            "rel_dev": None if ref is None else abs(value - ref) / abs(ref),
            "max_expansion_se": pp.max_se(),
            "expansion_ms": 1e3 * (t1 - t0),
            "propagation_ms": 1e3 * (t2 - t1),
            "status": "ok" if ok else "FAIL",
        })
    if with_sim:
        sim_prog = parse_file(str(program_path(b.sim_program)))
        t0 = time.perf_counter()
        table = simulate(sim_prog, b.iterations, samples=samples, seed=seed,
                         targets=[b.target])
        value = table.value(b.iterations, b.target)
        stderr = table.value_stderr(b.iterations, b.target)
        out["sim"] = {
            "value": value,
            "stderr": stderr,
            "samples": samples,
            "seed": seed,
            "reference": b.sim_reference,
            "rel_dev": abs(value - b.sim_reference) / abs(b.sim_reference),
            "simulation_ms": 1e3 * (time.perf_counter() - t0),
        }
    return out


# -- worked expansion example ---------------------------------------------

APPENDIX_B = {
    "germs": (
        {"family": "TruncNormal", "mu": 2.0, "sigma": 0.1, "a": 1.0, "b": 3.0},
        {"family": "Uniform", "a": 1.0, "b": 2.0},
    ),
    "function": "log(x + y)",
    "degrees": (2, 2),
    "basis_x": ((1.0,), (-20.0, 10.0), (282.13561, -282.84271, 70.71067)),
    "basis_y": ((1.0,), (-5.19615, 3.4641), (29.06888, -40.24922, 13.41641)),
    "coeffs": (1.2489233, 0.0828874, -0.0030768, 0.0287925, -0.0023918,
               0.0001778, -0.0005907, 0.0000981, -0.0000109),
    "se": 0.000151895,
    # |coefficient - reference| and |se - reference| / reference allowed
    "coeff_abs_tol": 1e-5,
    "se_rel_tol": 0.05,
    "estimator_terms": {
        (2, 2): -0.01038, (2, 1): 0.05517, (2, 0): -0.10031,
        (1, 2): 0.06538, (1, 1): -0.37513, (1, 0): 0.86515,
        (0, 2): -0.13042, (0, 1): 0.93998, (0, 0): -0.59927,
    },
}


def run_appendix_b(n_nodes=quad.DEFAULT_NODES):
    """Recompute the worked log(x + y) example and compare every number.

    A coefficient or se outside its tolerance has status FAIL, and so has
    the suite.
    """
    t0 = time.perf_counter()
    germs = RandomVector([density_from_dict(g) for g in APPENDIX_B["germs"]])
    e = expand(lambda x, y: np.log(x + y), germs, APPENDIX_B["degrees"],
               n_nodes=n_nodes)
    ms = 1e3 * (time.perf_counter() - t0)
    rows = []
    for j, (got, ref) in enumerate(zip(e.coeffs, APPENDIX_B["coeffs"])):
        abs_dev = abs(float(got) - ref)
        rows.append({
            "j": j,
            "degree_row": list(e.D[j]),
            "coefficient": float(got),
            "reference": ref,
            "abs_dev": abs_dev,
            "status": "ok" if abs_dev <= APPENDIX_B["coeff_abs_tol"] else "FAIL",
        })
    se_dev = abs(e.se - APPENDIX_B["se"]) / APPENDIX_B["se"]
    se = {"value": e.se, "reference": APPENDIX_B["se"], "rel_dev": se_dev,
          "status": "ok" if se_dev <= APPENDIX_B["se_rel_tol"] else "FAIL"}
    return {
        "benchmark": "worked expansion example",
        "suite": "appendix-b",
        "status": "ok" if all(r["status"] == "ok" for r in rows + [se]) else "FAIL",
        "function": APPENDIX_B["function"],
        "rows": rows,
        "se": se,
        "estimator": e.estimator.render(names=("x", "y")),
        "expansion_ms": ms,
    }


# -- function-approximation table ------------------------------------------

@dataclass(frozen=True)
class Table2Row:
    label: str
    fn: object
    germs: tuple            # (family, *params) per germ, as Density.of takes them
    degrees: tuple
    reference: tuple
    tolerance: float        # relative, on the reproduced error
    note: str = ""


def _g1(x1, x2):
    return 0.3 * np.exp(-x1) + (0.3 - 0.3**2 / 2) * np.exp(x2 - x1)


def _g2(x1, x2):
    return 0.3 * np.exp(x1 - x2) + 0.6 * np.exp(-x2)


def _g3(x1, x2):
    return np.exp(x1 * x2)


def _g4(x1, x2, x3):
    return 0.3 * np.exp(x1 - x2) + 0.6 * np.exp(x2 - x3) + 0.1 * np.exp(x3 - x1)


def _g5(x1):
    return 0.3 * np.cos(x1) + 0.7 * np.sin(x1)


TABLE2_ROWS = (
    Table2Row(
        label="0.3*exp(-x1) + 0.255*exp(x2 - x1)",
        fn=_g1,
        germs=(("Normal", 0.0, 1.0), ("Normal", 2.0, 0.1)),
        degrees=(1, 2, 3, 4, 5),
        reference=(3.076846, 1.696078, 0.825399, 0.363869, 0.270419),
        tolerance=0.10,
        note="published degree-5 error is not reproducible from the stated "
             "truncation; the recomputed L2 error is 0.145896",
    ),
    Table2Row(
        label="0.3*exp(x1 - x2) + 0.6*exp(-x2)",
        fn=_g2,
        germs=(("TruncNormal", 4.0, 1.0, 3.0, 5.0),
               ("TruncNormal", 2.0, 0.1, 0.0, 4.0)),
        degrees=(1, 2, 3, 4, 5),
        reference=(0.343870, 0.057076, 0.007112, 0.000709, 0.000059),
        tolerance=0.05,
    ),
    Table2Row(
        label="exp(x1*x2)",
        fn=_g3,
        germs=(("TruncNormal", 4.0, 1.0, 3.0, 5.0),
               ("TruncGamma", 1.0, 3.0, 0.5, 1.0)),
        degrees=(1, 2, 3, 4, 5),
        reference=(5.745048, 1.035060, 0.142816, 0.016118, 0.001543),
        tolerance=0.05,
    ),
    Table2Row(
        label="0.3*exp(x1 - x2) + 0.6*exp(x2 - x3) + 0.1*exp(x3 - x1)",
        fn=_g4,
        germs=(("TruncNormal", 4.0, 1.0, 3.0, 5.0),
               ("TruncGamma", 1.0, 3.0, 0.5, 1.0),
               ("Uniform", 4.0, 8.0)),
        degrees=(1, 2, 3),
        reference=(1.637981, 0.303096, 0.066869),
        tolerance=0.05,
    ),
    Table2Row(
        label="0.3*cos(x1) + 0.7*sin(x1)",
        fn=_g5,
        germs=(("Normal", 0.0, 1.0),),
        degrees=(1, 2, 3, 4, 5),
        reference=(0.222627, 0.181681, 0.054450, 0.039815, 0.009115),
        tolerance=0.10,
    ),
)


def _leading(mats, deg):
    """The degree-deg basis's value matrices: the leading deg + 1 columns,
    contiguous so that each contraction rounds as it does on a basis built
    at degree deg."""
    return [np.ascontiguousarray(m[:, :deg + 1]) for m in mats]


def run_table2(n_nodes=quad.DEFAULT_NODES):
    """Recompute every (degree, error) cell of the approximation table.

    Each row builds one basis per germ, at its top degree: the basis of a
    lower degree d is the first d + 1 polynomials of it, so a degree's value
    matrices are the leading d + 1 columns of the top-degree ones.  The
    function is evaluated once on the n_nodes grid, a slab at a time, and
    every degree is projected from each slab, then once on the finer error
    grid for every degree's residual.
    """
    report = {"suite": "table2", "status": "ok", "rows": []}
    for i, row in enumerate(TABLE2_ROWS, start=1):
        germs = RandomVector([Density.of(*s) for s in row.germs])
        k = len(germs)
        # The error grid's rules first: they ask for the most recurrence
        # rows, so the projection rules, which also check the bases, are cut
        # from the same Stieltjes run per density instead of rerunning it.
        err_rules = [quad.build_rule(d, max(n_nodes, 96)) for d in germs]
        rules = [quad.build_rule(d, n_nodes) for d in germs]
        bases = _bases(germs, (max(row.degrees),) * k, n_nodes)
        top = [b.rule_values for b in bases]
        err_top = [b.eval_matrix(r.nodes) for b, r in zip(bases, err_rules)]
        coeffs = _project(_evaluations(row.fn, rules)[0], rules,
                          [_leading(top, deg) for deg in row.degrees])
        fits = [None] + [(c, _leading(err_top, deg)) for c, deg in zip(coeffs, row.degrees)]
        square_errors = _square_errors(_evaluations(row.fn, err_rules)[1], err_rules, fits)
        for deg, ref, square_error in zip(row.degrees, row.reference, square_errors[1:]):
            err = _se(square_error)
            report["rows"].append({
                "row": i,
                "function": row.label,
                "degree": deg,
                "n_coefficients": (deg + 1) ** k,
                "error": err,
                "reference": ref,
                "ratio": err / ref,
            })
    return report
