"""Command-line interface: exit codes, report shapes, determinism."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import pce_loops
from pce_loops import cli
from pce_loops.bench import program_path
from pce_loops.cli import build_parser, main
from pce_loops.lang import parse

TURNING = str(program_path("turning.ppl"))

GOLD_GERMS_JSON = json.dumps([
    {"family": "TruncNormal", "mu": 2, "sigma": 0.1, "a": 1, "b": 3},
    {"family": "Uniform", "a": 1, "b": 2},
])
GOLD_COEFFS = [1.2489233, 0.0828874, -0.0030768, 0.0287925, -0.0023918,
               0.0001778, -0.0005907, 0.0000981, -0.0000109]


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_help_exits_zero():
    for cmd in (None, "expand", "orthopoly", "parse", "moments", "simulate",
                "bench", "table2"):
        argv = ([cmd] if cmd else []) + ["--help"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def test_public_names_and_subcommands_are_pinned():
    assert pce_loops.__all__ == [
        "Density", "RandomVector", "density_from_dict",
        "MultiPoly", "UniPoly", "almost_equal",
        "QuadratureRule", "build_rule", "convergence_report", "integrate",
        "GramSchmidtError", "OrthonormalBasis", "gram_schmidt",
        "DegreeMatrix", "LagrangeConditional", "PceExpansion",
        "error_bound", "error_se", "expand", "lagrange_conditional",
        "LoopProgram", "ParseError", "parse", "parse_expression", "parse_file",
        "render", "validate_conditions",
        "MomentTable", "PolynomializedProgram", "close_monomials",
        "lagrange_schedule", "polynomialize", "propagate", "simulate",
        "__version__",
    ]
    assert all(hasattr(pce_loops, name) for name in pce_loops.__all__)
    sub = next(a for a in build_parser()._actions if a.dest == "cmd")
    assert list(sub.choices) == ["expand", "orthopoly", "parse", "moments",
                                 "simulate", "bench", "table2"]


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_module_entry_point():
    env = dict(os.environ)
    package_root = str(pathlib.Path(pce_loops.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pce_loops", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "pce-loops" in proc.stdout


def test_moments_csv_golden(capsys):
    code, out, _ = run(["moments", TURNING, "--n", "20", "--degrees", "9",
                        "--target", "x"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,monomial,value"
    assert len(lines) == 22
    n, mono, value = lines[-1].split(",")
    assert (n, mono) == ("20", "x")
    assert float(value) == pytest.approx(15.60595, abs=1e-3)


def test_moments_output_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run(["moments", TURNING, "--n", "10", "--degrees", "5",
                          "--target", "x", "--out", str(out)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_table2_output_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run(["table2", "--out", str(out)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


WALK_SRC = "x = 0\nwhile true {\n w = Normal(0, 1)\n x := x + w\n}\n"


def test_simulate_deterministic_and_calibrated(tmp_path, capsys):
    f = tmp_path / "walk.ppl"
    f.write_text(WALK_SRC)
    argv = ["simulate", str(f), "--n", "5", "--samples", "20000", "--seed", "7"]
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        code, _, _ = run(argv + ["--out", str(out)], capsys)
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    lines = outs[0].decode().strip().split("\n")
    assert lines[0] == "n,monomial,value,stderr"
    n, mono, value, stderr = lines[-1].split(",")
    assert (n, mono) == ("5", "x")
    # E x_5 = 0 with Var 5: the empirical mean should sit inside 5 sigma
    assert float(stderr) > 0
    assert abs(float(value)) < 5 * float(stderr)


def test_expand_csv_shape(capsys):
    code, out, _ = run(["expand", "--fn", "log(x + y)", "--germs",
                        GOLD_GERMS_JSON, "--degrees", "2,2",
                        "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j,degrees,coefficient"
    assert len(lines) == 10
    j, degs, c = lines[1].split(",")
    assert (j, degs) == ("0", "0 0")
    assert float(c) == pytest.approx(GOLD_COEFFS[0], abs=1e-5)


def test_expand_json_report(capsys):
    code, out, _ = run(["expand", "--fn", "log(x + y)", "--germs",
                        GOLD_GERMS_JSON, "--degrees", "2,2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "expand"
    assert rep["config"]["names"] == ["x", "y"]
    for got, ref in zip(rep["results"]["coeffs"], GOLD_COEFFS):
        assert got == pytest.approx(ref, abs=1e-5)
    assert rep["results"]["se"] == pytest.approx(0.000151895, rel=0.05)
    assert rep["results"]["L"] == 9
    assert rep["results"]["estimator"]["text"].startswith("-0.01038x^2y^2")
    assert "expansion_ms" in rep["timings"]


def test_expand_usage_errors(capsys):
    code, _, err = run(["expand", "--fn", "log(x)", "--germs", "not json",
                        "--degrees", "2"], capsys)
    assert code == 1 and "JSON" in err
    code, _, err = run(["expand", "--fn", "log(q)", "--germs",
                        GOLD_GERMS_JSON, "--degrees", "2,2"], capsys)
    assert code == 1 and "germs define" in err
    code, _, err = run(["expand", "--fn", "log(x + y)", "--germs",
                        GOLD_GERMS_JSON, "--degrees", "2"], capsys)
    assert code == 1


def test_expand_numeric_failure_exit(capsys):
    # log is undefined on a negative support
    import numpy as np

    with np.errstate(invalid="ignore"):
        code, _, err = run(["expand", "--fn", "log(x)", "--germs",
                            '[{"family": "Uniform", "a": -2, "b": -1}]',
                            "--degrees", "3"], capsys)
    assert code == 2
    assert "numeric failure" in err


def test_numeric_failure_is_one_line(capsys):
    # numpy's warnings for the bad values would come before the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(["expand", "--fn", "log(x)", "--germs",
                            '[{"family": "Uniform", "a": -2, "b": -1}]',
                            "--degrees", "2"], capsys)
    assert code == 2
    assert err.startswith("pce-loops: numeric failure: function is not finite")
    assert err.count("\n") == 1


def test_projection_rule_too_coarse_for_the_degree_is_refused(capsys):
    # p_8 vanishes on the 8 projection nodes, so a degree-9 expansion on them
    # would return moments silently 1.2e-3 off
    code, out, err = run(["moments", TURNING, "--target", "x", "--degrees", "9",
                          "--n", "20", "--quad-nodes", "8"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("pce-loops: numeric failure: orthogonality lost")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec, name", [
    ('{"family": "Uniform", "a": 0, "b": Infinity}', "b"),
    ('{"family": "Normal", "mu": NaN, "sigma": 1}', "mu"),
    ('{"family": "Normal", "mu": 0, "sigma": -Infinity}', "sigma"),
])
def test_non_finite_density_parameters_are_usage_errors(spec, name, capsys):
    code, _, err = run(["orthopoly", "--dist", spec, "--degree", "2"], capsys)
    assert code == 1
    assert f"parameter {name!r}" in err and "must be finite" in err
    assert err.count("\n") == 1


def test_density_integer_too_large_for_a_float_is_a_usage_error(capsys):
    spec = '{"family": "Uniform", "a": 0, "b": 1' + "0" * 400 + "}"
    code, _, err = run(["orthopoly", "--dist", spec, "--degree", "2"], capsys)
    assert code == 1
    assert "parameter 'b'" in err and "too large for a float" in err
    assert err.count("\n") == 1


def test_orthopoly_text_golden(capsys):
    code, out, _ = run(["orthopoly", "--dist",
                        '{"family": "TruncNormal", "mu": 2, "sigma": 0.1, "a": 1, "b": 3}',
                        "--degree", "2"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p0(x) = 1"
    assert lines[1] == "p1(x) = 10x - 20"
    assert lines[2].startswith("p2(x) = 70.710")


def test_orthopoly_text_leaves_out_noise_sized_coefficients(capsys):
    code, out, _ = run(["orthopoly", "--dist", '{"family":"Normal","mu":0,"sigma":1}',
                        "--degree", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "p1(x) = x"
    assert lines[3] == "p3(x) = 0.40825x^3 - 1.22474x"


def test_orthopoly_rejects_bad_density(capsys):
    code, _, err = run(["orthopoly", "--dist", '{"family": "Cauchy"}',
                        "--degree", "2"], capsys)
    assert code == 1


@pytest.mark.parametrize("spec", [
    "5",
    '{"family": "Normal", "mu": null, "sigma": 1}',
    '{"family": ["Normal"], "mu": 0, "sigma": 1}',
    '{"family": "Foo"}',
    '{"family": "Normal", "mu": 0}',
])
def test_bad_density_json_is_a_usage_error(spec, capsys):
    """orthopoly --dist and expand --germs refuse the same bad densities
    with exit 1 and one error line."""
    code, _, err = run(["orthopoly", "--dist", spec, "--degree", "2"], capsys)
    assert code == 1
    assert err.startswith("pce-loops: error: --dist is not a valid density")
    assert err.count("\n") == 1
    for germs in (f"[{spec}]", f'{{"x": {spec}}}'):
        code, _, err = run(["expand", "--fn", "x", "--germs", germs,
                            "--degrees", "1"], capsys)
        assert code == 1
        assert err.startswith("pce-loops: error: --germs is not a valid density")
        assert err.count("\n") == 1


def test_parse_check_report(capsys):
    code, out, _ = run(["parse", TURNING, "--check"], capsys)
    assert code == 0
    payload = json.loads(out)
    rep = payload["report"]
    assert len(payload["digest"]) == 16
    assert len(rep["call_sites"]) == 2
    assert rep["all_sites_stable"] is False
    assert rep["sequential_ordering_ok"] is False
    assert rep["variables"] == ["x", "y", "v", "psi"]


def test_parse_canonical_output_reparses(capsys):
    code, out, _ = run(["parse", TURNING], capsys)
    assert code == 0
    again = parse(out)
    assert again.state_vars == ["x", "y", "v", "psi"]


def test_parse_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(["parse", str(tmp_path / "nope.ppl")], capsys)
    assert code == 1
    bad = tmp_path / "bad.ppl"
    bad.write_text("x := junk ((\n")
    code, _, err = run(["parse", str(bad)], capsys)
    assert code == 1
    assert "parse error" in err
    # str.isdigit accepts '²'; the tokenizer takes ASCII digits only
    bad.write_text("x = 0\nwhile true {\n x := x + 2\u00b2\n}\n")
    code, _, err = run(["parse", str(bad)], capsys)
    assert code == 1
    assert err == "pce-loops: parse error: line 3, column 12: unexpected character '\u00b2'\n"
    # a parameter that overflows to inf is a parse error too, not a nan table
    bad.write_text("x = 0\nwhile true {\n w = Uniform(0, 1e999)\n x := x + w\n}\n")
    code, out, err = run(["moments", str(bad), "--n", "3", "--degrees", "2"], capsys)
    assert (code, out) == (1, "")
    assert err == ("pce-loops: parse error: line 3, column 6: bad Uniform parameters: "
                   "parameter 'b' of Uniform must be finite, not inf\n")


def test_tau_constant_reaches_the_program(tmp_path, capsys):
    f = tmp_path / "steps.ppl"
    f.write_text("x = 0\nwhile true {\n x := x + tau\n}\n")
    code, out, _ = run(["moments", str(f), "--n", "4", "--degrees", "3",
                        "--tau", "0.25"], capsys)
    assert code == 0
    assert float(out.strip().split("\n")[-1].split(",")[2]) == pytest.approx(1.0)
    code, out, _ = run(["moments", str(f), "--n", "4", "--degrees", "3"], capsys)
    assert float(out.strip().split("\n")[-1].split(",")[2]) == pytest.approx(0.4)


def test_moments_json_provenance(tmp_path, capsys):
    f = tmp_path / "stable.ppl"
    f.write_text("x = 0\nwhile true {\n w = TruncNormal(2, 0.1, 1, 3)\n"
                 " x := x + exp(w)\n}\n")
    code, out, _ = run(["moments", str(f), "--n", "2", "--degrees", "4",
                        "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    (prov,) = rep["provenance"]
    assert prov["function"] == "exp"
    assert prov["germ"]["family"] == "TruncNormal"
    assert len(prov["coeffs"]) == 5
    assert prov["se"] > 0
    assert prov["bound"] > 0
    assert rep["config"]["degrees"] == 4


@pytest.mark.parametrize("cmd", [["moments"], ["simulate", "--samples", "100"]])
@pytest.mark.parametrize("target, message", [
    ("z", "unknown variable 'z'"),
    ("x^1.5", "power in 'x^1.5'"),
    ("x^-1", "power in 'x^-1'"),
])
def test_bad_target_is_a_usage_error(cmd, target, message, capsys):
    code, out, err = run(cmd + [TURNING, "--n", "2", "--target", target], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("pce-loops: error: --target: ") and message in err
    assert err.count("\n") == 1


def test_moments_reference_germ_has_no_bound(capsys):
    code, out, _ = run(["moments", TURNING, "--n", "1", "--degrees", "3",
                        "--target", "x", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert all(p["germ"]["family"] == "Normal" for p in rep["provenance"])
    assert all(p["bound"] is None for p in rep["provenance"])


def test_bench_exit_codes(capsys):
    code, out, err = run(["bench", "--no-sim"], capsys)
    assert code == 1
    assert out == ""
    assert "no suite given" in err and "turning-vehicle" in err
    code, out, _ = run(["bench", "taylor-rule", "--no-sim"], capsys)
    assert code == 3
    assert "SKIPPED(transcription-needed)" in out
    code, _, err = run(["bench", "nope"], capsys)
    assert code == 1
    assert "unknown suite" in err


def test_bench_exits_skipped_only_when_every_suite_is(capsys, monkeypatch):
    code, out, _ = run(["bench", "--no-sim", "taylor-rule", "turning-vehicle"], capsys)
    assert code == 0
    assert "SKIPPED(transcription-needed)" in out and "Turning vehicle model" in out
    code, _, _ = run(["bench", "--no-sim", "taylor-rule"], capsys)
    assert code == 3
    real = cli.bench_mod.run_benchmark
    monkeypatch.setattr(cli.bench_mod, "run_benchmark",
                        lambda suite, **kw: dict(real(suite, **kw), status="FAIL")
                        if suite == "turning-vehicle" else real(suite, **kw))
    code, _, _ = run(["bench", "--no-sim", "taylor-rule", "turning-vehicle"], capsys)
    assert code == 2


def test_bench_fails_a_row_outside_its_tolerance(capsys, monkeypatch):
    argv = ["bench", "--no-sim", "turning-vehicle", "appendix-b"]
    _, want, _ = run(argv, capsys)
    b = cli.bench_mod.BENCHMARKS["turning-vehicle"]
    moved = {**b.reference, 3: b.reference[3] + 0.5 * b.tolerance,
             5: b.reference[5] + 2.0 * b.tolerance}
    monkeypatch.setitem(cli.bench_mod.BENCHMARKS, "turning-vehicle",
                        dataclasses.replace(b, reference=moved))
    rep = cli.bench_mod.run_benchmark("turning-vehicle", with_sim=False)
    assert rep["status"] == "FAIL"
    assert [r["status"] for r in rep["rows"]] == ["ok", "FAIL", "ok"]
    code, out, _ = run(argv, capsys)
    assert code == 2
    got, want = out.splitlines(), want.splitlines()
    assert [line.split(",")[7] for line in got[1:4]] == ["ok", "FAIL", "ok"]
    # the rows whose reference did not move keep their bytes
    assert [line for i, line in enumerate(got) if i not in (1, 2)] == \
        [line for i, line in enumerate(want) if i not in (1, 2)]


def test_bench_fails_an_appendix_b_coefficient_outside_its_tolerance(capsys, monkeypatch):
    argv = ["bench", "appendix-b"]
    code, want, _ = run(argv, capsys)
    assert code == 0
    b = cli.bench_mod.APPENDIX_B
    coeffs = list(b["coeffs"])
    coeffs[4] += 2.0 * b["coeff_abs_tol"]
    monkeypatch.setitem(b, "coeffs", tuple(coeffs))
    rep = cli.bench_mod.run_appendix_b()
    assert rep["status"] == "FAIL" and rep["se"]["status"] == "ok"
    assert [r["status"] for r in rep["rows"]] == ["ok"] * 4 + ["FAIL"] + ["ok"] * 4
    code, out, _ = run(argv, capsys)
    assert code == 2
    got, want = out.splitlines(), want.splitlines()
    assert [line.split(",")[-1] for line in got[1:]] == ["ok"] * 4 + ["FAIL"] + ["ok"] * 5
    # the rows whose reference did not move keep their bytes
    assert got[:5] + got[6:] == want[:5] + want[6:]


@pytest.mark.parametrize("argv, option", [
    (["moments", TURNING, "--n", "-1"], "--n"),
    (["simulate", TURNING, "--n", "-1"], "--n"),
    (["simulate", TURNING, "--n", "2", "--samples", "0"], "--samples"),
    (["bench", "turning-vehicle", "--samples", "-5"], "--samples"),
    (["moments", TURNING, "--n", "two"], "--n"),
    (["moments", TURNING, "--n", "2", "--quad-nodes", "0"], "--quad-nodes"),
    (["simulate", TURNING, "--n", "2", "--threads", "-3"], "--threads"),
    (["simulate", TURNING, "--n", "2", "--threads", "0"], "--threads"),
])
def test_bad_counts_are_usage_errors(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    _, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {option}:" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["moments", TURNING, "--n", "2", "--degrees", "-1"],
    ["expand", "--fn", "log(x + y)", "--germs",
     '[{"family": "Uniform", "a": 1, "b": 2}, {"family": "Uniform", "a": 1, "b": 2}]',
     "--degrees", "2,-1"],
])
def test_negative_degrees_are_usage_errors(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--degrees must be nonnegative" in errors[0]
    assert "numeric failure" not in err and "Traceback" not in err


def test_bench_vehicle_matches_references(capsys):
    code, out, _ = run(["bench", "turning-vehicle", "--no-sim"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "Turning vehicle model"
        assert fields[7] == "ok"
        assert abs(float(fields[6])) < 1e-5  # rel_dev against the reference
    assert [line.split(",")[3] for line in lines[1:]] == ["3", "5", "9"]


def test_table2_json_report(capsys):
    code, out, _ = run(["table2", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["timings"]["table2_ms"] > 0
    cells = rep["results"]["rows"]
    assert len(cells) == 23
    assert not any("expansion_ms" in cell for cell in cells)


def test_table2_csv_shape(capsys):
    code, out, _ = run(["table2"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "row,function,degree,n_coefficients,error,reference,ratio"
    assert len(lines) == 24
    ratios = [float(line.split(",")[6]) for line in lines[1:]]
    assert all(0.3 < r < 1.2 for r in ratios)
