"""The table2 runner against the per-cell expansion path it replaced: the
same errors bit for bit from one basis per germ and slab-streamed grids.
Also the library names the traced benchmark run wraps."""

import importlib.util
from collections import OrderedDict
from pathlib import Path

import pytest

import pce_loops
from pce_loops import bench, pce, quad
from pce_loops.bench import TABLE2_ROWS, program_path, run_table2
from pce_loops.dist import Density, RandomVector, location_scale
from pce_loops.engine import parse_monomial
from pce_loops.lang import parse_file
from pce_loops.pce import error_se, expand
from test_pce import SLAB_SIZES, agree, traced_peak_mib

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_table2_errors_match_the_per_cell_path_bitwise():
    got = [r["error"].hex() for r in run_table2()["rows"]]
    want = []
    for row in TABLE2_ROWS:
        germs = RandomVector([Density.of(*s) for s in row.germs])
        for deg in row.degrees:
            e = expand(row.fn, germs, (deg,) * len(germs), n_nodes=64)
            want.append(error_se(e, row.fn, n_nodes=96).hex())
    assert got == want


def test_table2_builds_one_basis_per_germ(monkeypatch):
    # a lower degree's basis is the leading part of the row's top-degree one;
    # on a cleared memo, since a warm table checks no basis again, and a
    # (germ, degree) basis an earlier row checked is not checked again
    built = []
    real = pce.gram_schmidt
    monkeypatch.setattr(quad, "_memo", OrderedDict())
    monkeypatch.setattr(pce, "gram_schmidt", lambda density, max_degree, *a:
                        built.append((density, max_degree)) or real(density, max_degree, *a))
    run_table2()
    wanted = [(Density.of(*s), max(row.degrees)) for row in TABLE2_ROWS for s in row.germs]
    assert built == list(dict.fromkeys(wanted))
    assert len(wanted) == 10 and len(built) == 8
    del built[:]
    run_table2()
    assert built == []


def test_table2_assembles_no_estimator(monkeypatch):
    calls = []
    real = pce._assemble_estimator
    monkeypatch.setattr(pce, "_assemble_estimator",
                        lambda *a: calls.append(a) or real(*a))
    run_table2()
    assert calls == []


def test_table2_runs_stieltjes_once_per_density(monkeypatch):
    runs = []
    real = quad._recurrence_coefficients
    monkeypatch.setattr(quad, "_memo", OrderedDict())
    monkeypatch.setattr(quad, "_recurrence_coefficients",
                        lambda *a: runs.append(a) or real(*a))
    run_table2()
    # Normal and Uniform germs are mapped from their family's standard
    # member, and U(-1, 1) takes Legendre's rows in closed form, no run
    standards = set()
    for row in TABLE2_ROWS:
        for spec in row.germs:
            d = Density.of(*spec)
            mapped = location_scale(d)
            standards.add(mapped[0] if mapped else d)
    assert Density.uniform(-1.0, 1.0) in standards
    assert len(runs) == len(standards) - 1 == 4


def test_expansion_layer_builds_no_rule_for_a_gram_check(monkeypatch):
    # Each basis is checked on the rule that projects onto it, so the rules
    # built are table2's 64- and 96-node grids and appendix-b's 64-node grid.
    runs, eigs = [], []
    real_run, real_gw = quad._recurrence_coefficients, quad._golub_welsch
    monkeypatch.setattr(quad, "_memo", OrderedDict())
    monkeypatch.setattr(quad, "_recurrence_coefficients",
                        lambda pts, mass, n: runs.append(n) or real_run(pts, mass, n))
    monkeypatch.setattr(quad, "_golub_welsch",
                        lambda alphas, offdiag: eigs.append(len(alphas))
                        or real_gw(alphas, offdiag))
    run_table2()
    assert runs == [96] * 4
    assert sorted(eigs) == [64] * 5 + [96] * 5
    del runs[:], eigs[:]
    bench.run_appendix_b()
    assert (runs, eigs) == ([64], [64])


def test_traced_names_stay_bound_to_the_pce_functions():
    # perfbench/spans.py installs its pce.expand and pce.error_se spans at
    # these names and fails on a missing one.
    assert bench.expand is pce.expand
    assert bench.error_se is pce.error_se


def _traced_attributes(targets):
    """{(owner path, attribute): the object found there} for every name the
    span recorder wraps; an owner path is "" for the package, a submodule
    ("quad") or a class in one ("dist.Density")."""
    found = {}
    for _, owners, attr in targets:
        for path in owners:
            obj = pce_loops
            for part in filter(None, path.split(".")):
                obj = getattr(obj, part)
            found[path, attr] = vars(obj)[attr]
    return found


def test_span_recorder_wraps_and_restores_every_traced_name():
    """perfbench/spans.py, loaded read-only by path, wraps every name in its
    TARGETS and refuses to start when one is missing, so a renamed or
    removed traced name fails here, not only in the traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _traced_attributes(spans.TARGETS)
    program = parse_file(program_path("turning.ppl"))
    with spans.Recorder(pce_loops) as recorder:
        assert all(_traced_attributes(spans.TARGETS)[key] is not original
                   for key, original in before.items())
        pp = pce_loops.polynomialize(program, degree=3)
        pce_loops.propagate(pp, ["x"], 3)
        pce_loops.close_monomials(pp, [parse_monomial("x", pp.state_vars)])
        pce_loops.engine.one_step_expectation(pp, parse_monomial("x", pp.state_vars))
    after = _traced_attributes(spans.TARGETS)
    assert all(after[key] is original for key, original in before.items())
    assert {"engine.polynomialize", "engine.propagate", "engine.close_monomials",
            "engine.one_step_expectation"} <= {span[0] for span in recorder.spans}
    assert recorder.metrics()["engine.closure.monomials"] == 5


def test_table2_holds_no_whole_grid():
    # row 4's 96^3 error grid alone is 6.75 MiB of float64
    assert traced_peak_mib(run_table2) <= 4.0


@pytest.mark.parametrize("slab_points", SLAB_SIZES)
def test_table2_errors_do_not_depend_on_the_slab_size(monkeypatch, slab_points):
    # A residual's rounding scales with the function, not with the residual:
    # with one-row slabs the degree-5 cell of row 2 (5.9e-5) moves by 8e-14
    # of itself, 1.4e-17 of its row's degree-1 error.
    def errors():
        rows = {}
        for r in run_table2()["rows"]:
            rows.setdefault(r["row"], []).append(r["error"])
        return rows
    want = errors()
    monkeypatch.setattr(quad, "_SLAB_POINTS", slab_points)
    got = errors()
    for row, cells in want.items():
        assert agree(got[row], cells)
