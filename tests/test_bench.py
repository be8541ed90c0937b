"""The table2 runner against the per-cell expansion path it replaced."""

from collections import OrderedDict

from pce_loops import bench, pce, quad
from pce_loops.bench import TABLE2_ROWS, run_table2
from pce_loops.dist import Density, RandomVector, location_scale
from pce_loops.pce import error_se, expand


def test_table2_errors_match_the_per_cell_path_bitwise():
    got = [r["error"].hex() for r in run_table2()["rows"]]
    want = []
    for row in TABLE2_ROWS:
        germs = RandomVector([Density.of(*s) for s in row.germs])
        for deg in row.degrees:
            e = expand(row.fn, germs, (deg,) * len(germs), n_nodes=64)
            want.append(error_se(e, row.fn, n_nodes=96).hex())
    assert got == want


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
    # Normal and Uniform germs are mapped from their family's standard member
    standards = set()
    for row in TABLE2_ROWS:
        for spec in row.germs:
            d = Density.of(*spec)
            mapped = location_scale(d)
            standards.add(quad._key(mapped[0] if mapped else d))
    assert len(runs) == len(standards) == 5


def test_traced_names_stay_bound_to_the_pce_functions():
    # perfbench/spans.py installs its pce.expand and pce.error_se spans at
    # these names and fails on a missing one.
    assert bench.expand is pce.expand
    assert bench.error_se is pce.error_se
