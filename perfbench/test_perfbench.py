"""Tests of the benchmark itself (not of the library).

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

pce_loops = common.use_checkout_src()

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REF = workloads.load_references()


# -- checker --------------------------------------------------------------


def _exact_expansion_results():
    rows = [{"row": r["row"], "degree": int(d), "error": r.get("recomputed", {}).get(d, e)}
            for r in REF["table2"]["rows"] for d, e in r["errors"].items()]
    b = REF["appendix_b"]
    appendix = {"rows": [{"coefficient": c} for c in b["coeffs"]], "se": {"value": b["se"]}}
    return [{"rows": rows}, appendix]


def test_checker_fails_perturbed_expansion_values():
    ops = workloads.expansion_ops({}, REF)
    results = _exact_expansion_results()
    checks = workloads.check_pass(ops, results)
    assert len(checks) == 23 + 10 and all(c.ok for c in checks)

    results[0]["rows"][3]["error"] *= 1.2      # beyond every row tolerance
    results[1]["rows"][0]["coefficient"] += 2e-5
    failed = [c.label for c in workloads.check_pass(ops, results) if not c.ok]
    assert failed == ["table2 row 1 degree 4", "appendix-b c0"]


def test_checker_fails_every_value_of_an_operation_that_raised():
    ops = workloads.expansion_ops({}, REF)
    results = _exact_expansion_results()
    results[0] = ArithmeticError("boom")
    checks = workloads.check_pass(ops, results)
    assert sum(not c.ok for c in checks) == 23
    results = _exact_expansion_results()
    del results[0]["rows"][-1]                 # a cell went missing
    assert sum(not c.ok for c in workloads.check_pass(ops, results)) == 23


@pytest.mark.parametrize("name", ["vehicle-suite", "vehicle-moments", "long-horizon"])
def test_checker_fails_perturbed_moment(name):
    wl = workloads.WORKLOADS[name]
    ops = wl.ops(wl.setup({"seed": 0, "threads": 1, "ref": REF}), REF)
    exact = [op.check(0.0)[0].reference for op in ops]
    assert all(c.ok for c in workloads.check_pass(ops, exact))
    for i, op in enumerate(ops):
        allowed = op.check(0.0)[0].allowed
        perturbed = list(exact)
        perturbed[i] += 2 * allowed
        failed = [c.label for c in workloads.check_pass(ops, perturbed) if not c.ok]
        assert failed == [op.name]


def test_checker_fails_perturbed_simulation():
    wl = workloads.WORKLOADS["monte-carlo"]
    ops = wl.ops(wl.setup({"seed": 0, "threads": 1, "ref": REF}), REF)
    exact = [(REF["suites"][op.name.split()[0]]["simulation"], 1e-4) for op in ops]
    assert all(c.ok for c in workloads.check_pass(ops, exact))
    # outside both the suite tolerance and 4 standard errors
    perturbed = [(exact[0][0] + 2e-3, 1e-4)] + exact[1:]
    failed = [c.label for c in workloads.check_pass(ops, perturbed) if not c.ok]
    assert failed == [ops[0].name]
    # a wide standard error widens the check
    assert all(c.ok for c in workloads.check_pass(ops, [(exact[0][0] + 2e-3, 1e-3)]
                                                  + exact[1:]))


# -- span recorder ----------------------------------------------------------


def _snapshot():
    out = {name: dict(vars(mod)) for name, mod in sys.modules.items()
           if name == "pce_loops" or name.startswith("pce_loops.")}
    for cls in (pce_loops.Density, pce_loops.MultiPoly):
        out[cls.__qualname__] = dict(vars(cls))
    return out


def _assert_same(before, after):
    assert before.keys() == after.keys()
    for owner, attrs in before.items():
        assert attrs.keys() == after[owner].keys(), owner
        changed = [a for a, v in attrs.items() if after[owner][a] is not v]
        assert not changed, f"{owner}: {changed}"


def _vehicle_program():
    return pce_loops.parse_file(common.program_file("turning.ppl"))


def test_recorder_restores_every_attribute():
    prog = _vehicle_program()
    pce_loops.propagate(pce_loops.polynomialize(prog, degree=3), ["x"], 3)
    before = _snapshot()
    with spans.Recorder(pce_loops) as rec:
        assert pce_loops.engine.expand is not before["pce_loops.engine"]["expand"]
        assert pce_loops.bench.expand is pce_loops.pce.expand
        pce_loops.propagate(pce_loops.polynomialize(prog, degree=3), ["x"], 3)
    _assert_same(before, _snapshot())
    assert {s[0] for s in rec.spans} >= {"pce.expand", "quad.build_rule", "poly.substitute"}


def test_recorder_refuses_a_caller_it_would_miss(monkeypatch):
    before = _snapshot()
    monkeypatch.setattr(pce_loops.bench, "expand", lambda *a, **k: None)
    with pytest.raises(RuntimeError, match="bench.expand"):
        with spans.Recorder(pce_loops):
            pass
    monkeypatch.undo()
    _assert_same(before, _snapshot())


def _traced(fn):
    with spans.Recorder(pce_loops) as rec:
        t0 = time.perf_counter()
        fn()
        wall_ms = 1e3 * (time.perf_counter() - t0)
    return rec, wall_ms


def test_self_times_are_nonnegative_and_within_wall_time():
    prog = _vehicle_program()
    sim = pce_loops.parse_file(common.program_file("turning_trunc_sim.ppl"))
    cases = [
        lambda: pce_loops.propagate(pce_loops.polynomialize(prog, degree=5), ["x^2"], 20),
        lambda: pce_loops.simulate(sim, 5, samples=40_000, chunk_size=5_000, threads=2,
                                   targets=["x"]),
    ]
    for fn in cases:
        rec, wall_ms = _traced(fn)
        ms = spans.self_times_ms(rec.spans)
        assert ms and min(ms.values()) >= 0.0
        assert sum(ms.values()) <= wall_ms + 1e-6
    assert len({s[1] for s in rec.spans}) > 1, "simulate spans should come from its pool"


def test_self_time_shares_overlapping_threads():
    recorded = [("a", 1, 0.0, 10.0), ("b", 1, 2.0, 4.0), ("c", 2, 0.0, 10.0),
                ("d", 1, 20.0, 21.0)]
    ms = spans.self_times_ms(recorded)
    assert ms == pytest.approx({"a": 4e3, "b": 1e3, "c": 5e3, "d": 1e3})


def test_counts_come_from_arguments_and_results():
    prog = _vehicle_program()
    rec, _ = _traced(lambda: pce_loops.propagate(
        pce_loops.polynomialize(prog, degree=3), ["x"], 20))
    m = rec.metrics()
    assert m["engine.polynomialize.calls"] == 1 and m["engine.polynomialize.sites"] == 2
    assert m["engine.closure.monomials"] == m["engine.one_step_expectation.calls"]
    assert m["engine.propagate.monomial_steps"] == 20 * m["engine.closure.monomials"]
    assert m["quad.build_rule.nodes"] >= 64 * m["quad.build_rule.calls"] > 0
    assert 0.0 <= m["quad.build_rule.repeat_frac"] < 1.0


# -- workload definitions -------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workloads_name_only_bundled_real_programs(name):
    wl = workloads.WORKLOADS[name]
    for program in wl.programs:
        with open(common.program_file(program), encoding="utf-8") as fh:
            assert "PLACEHOLDER" not in fh.read(), program
    state = wl.setup({"seed": 0, "threads": 1, "ref": REF})
    assert set(state.get("programs", {})) == set(wl.programs)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        m for m in spans.PER_LAYER if m[0] not in spans.SAMPLING_ONLY]
    assert spans.SAMPLING_ONLY <= {name for name, _ in spans.PER_LAYER}


def test_trace_overhead_is_unresolved_when_pairs_disagree_in_sign():
    def workers(pairs):
        return [{"overhead_pairs_s": pairs}]

    steady = run.trace_overhead(workers([(1.0, 1.1), (1.0, 1.12), (1.0, 1.09), (1.0, 1.1)]),
                                [1.0])
    assert steady["resolved"] and steady["frac"] == pytest.approx(0.1)
    noisy = run.trace_overhead(workers([(1.0, 1.1), (1.2, 1.0), (1.0, 1.05), (1.3, 1.0)]),
                               [1.0])
    assert not noisy["resolved"]
    assert "unresolved" in run.describe_overhead(noisy)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "expansion",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
