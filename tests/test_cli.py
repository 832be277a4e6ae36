import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annealsolve
from annealsolve import BitRange, import_qubo, limit_check
from annealsolve.cli import _csv_header, _json_doc, build_parser, main, parse_model_spec
from annealsolve.sampler import BoltzmannModel, NormalModel, TruncNormalModel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def data_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def test_parse_model_spec_grammar():
    assert parse_model_spec("normal") == NormalModel()
    assert parse_model_spec("a2") == TruncNormalModel(0.0, 2.0)
    assert parse_model_spec("truncnormal:d1=-1:d2=1.5") == TruncNormalModel(-1.0, 1.5)
    model = parse_model_spec("boltzmann:positive:r=0:p=1")
    assert isinstance(model, BoltzmannModel)
    assert parse_model_spec("boltzmann:kind=signed:r=-1:p=1").n_qubits == 3


def test_parse_model_spec_reports_positions():
    with pytest.raises(ValueError, match="position 0"):
        parse_model_spec("nrmal")
    with pytest.raises(ValueError, match="position 10"):
        parse_model_spec("boltzmann:oops=1")
    with pytest.raises(ValueError, match="requires"):
        parse_model_spec("boltzmann:positive:r=0")


def test_solve_row_count_and_determinism(capsys):
    # 20 low-precision steps stay above the float error floor, so the run
    # cannot terminate early and the trace has exactly max-iter rows
    argv = ("solve", "--a", "0.5", "--b", "0.7", "--beta", "0.5", "--model", "a2",
            "--seed", "1", "--max-iter", "20")
    code, out1 = run_cli(capsys, *argv)
    assert code == 0
    rows = data_lines(out1)
    assert rows[0].startswith("n,x,residual")
    assert len(rows) == 1 + 20
    code, out2 = run_cli(capsys, *argv)
    assert out1 == out2


def test_solve_may_stop_on_exact_float_hit(capsys):
    # an accurate model walks the iterate onto the float solution, where the
    # residual is exactly zero; the trace then ends with a terminal row
    code, out = run_cli(capsys, "solve", "--a", "0.5", "--b", "0.7", "--beta", "2",
                        "--model", "a2", "--seed", "1", "--max-iter", "50")
    assert code == 0
    rows = data_lines(out)
    assert len(rows) <= 1 + 50
    if len(rows) < 1 + 50:
        assert "exact=1" in out
        assert rows[-1].endswith(",,,,,")


def test_solve_exact_zero_b(capsys):
    code, out = run_cli(capsys, "solve", "--a", "0.5", "--b", "0", "--beta", "2",
                        "--model", "normal")
    assert code == 0
    assert "exact=1" in out
    assert len(data_lines(out)) == 1 + 1  # header + single terminal row


def test_solve_degenerate_a_exits_1(capsys):
    code = main(["solve", "--a", "0", "--b", "1", "--beta", "2", "--model", "normal"])
    assert code == 1


def test_solve_boltzmann_needs_register_flags(capsys):
    code = None
    with pytest.raises(SystemExit) as err:
        main(["solve", "--a", "0.5", "--b", "0.7", "--beta", "2", "--model", "boltzmann"])
    assert err.value.code == 2


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--a", "0.5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_qubo_coo_and_verify(capsys):
    code, out = run_cli(capsys, "qubo", "--a", "0.5", "--b", "0.5", "--r", "-1",
                        "--p", "0", "--verify")
    assert code == 0
    assert "max deviation" in out
    body = out[out.index("# qubo") :]
    problem = import_qubo(body, "coo")
    assert problem.coefficients[(0, 0)] == 0.3125


def test_qubo_json_round_trip(capsys, tmp_path):
    out_file = tmp_path / "problem.json"
    code, _ = run_cli(capsys, "qubo", "--a", "0.5", "--b", "0.5", "--r", "-1", "--p", "0",
                      "--format", "json", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    doc = json.loads(text)
    assert doc["config"]["command"] == "qubo"
    assert [-1, 0, -0.125] in doc["entries"]
    problem = import_qubo(text, "json")
    assert problem.offset == 0.25


@pytest.mark.parametrize("deviation,shown", [(1e-9, "1.000e-09"), (float("nan"), "nan")])
def test_qubo_verify_failure_exits_1(capsys, monkeypatch, deviation, shown):
    monkeypatch.setattr(annealsolve.cli, "exhaustive_deviation", lambda problem: deviation)
    code = main(["qubo", "--a", "0.5", "--b", "0.5", "--r", "-1", "--p", "0", "--verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == f"max deviation over 4 assignments: {shown}\n"
    assert "verification FAILED (deviation > 1e-12)" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["--a", "1e200", "--b", "1", "--r", "-3", "--p", "1", "--verify"],
     "the QUBO of (1e+200*x - 1.0)^2 over exponents -3..1 overflows a float"),
    (["--a", "1e160", "--b", "1", "--r", "500", "--p", "510"],
     "the QUBO of (1e+160*x - 1.0)^2 over exponents 500..510 overflows a float"),
], ids=["square-overflows", "ldexp-overflows"])
def test_qubo_overflow_exits_1(capsys, argv, message):
    code = main(["qubo", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("annealsolve: error: ") and captured.err.count("\n") == 1
    assert message in captured.err and "Traceback" not in captured.err


def test_qubo_verify_size_guard():
    with pytest.raises(SystemExit) as err:
        main(["qubo", "--a", "0.5", "--b", "0.5", "--r", "-16", "--p", "0", "--verify"])
    assert err.value.code == 2


def test_rate_curve_cardinality(capsys):
    code, out = run_cli(capsys, "rate-curve", "--models", "a1,a2,a3,a4", "--beta-min", "0.5",
                        "--beta-max", "5", "--beta-steps", "40", "--a-steps", "3",
                        "--c-steps", "5", "--gl-nodes", "8")
    assert code == 0
    rows = data_lines(out)
    assert rows[0] == "model_id,beta,a,kind,value,clamped"
    assert len(rows) == 1 + 160


def test_rate_curve_threads_flag_is_gone():
    # the pool is sized from the cells and the usable CPUs
    with pytest.raises(SystemExit) as err:
        main(["rate-curve", "--models", "a4", "--beta-min", "1", "--beta-max", "2",
              "--beta-steps", "2", "--threads", "2"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag,value", [
    ("--beta-min", "-1"), ("--beta-min", "nan"), ("--beta-max", "inf"),
    ("--c-steps", "0"), ("--a-steps", "0"), ("--gl-nodes", "0"),
])
def test_rate_curve_bad_inputs_exit_1(capsys, flag, value):
    argv = ["rate-curve", "--models", "a4,boltzmann:positive:r=0:p=1", "--beta-min", "1",
            "--beta-max", "2", "--beta-steps", "2", "--a-steps", "3", "--c-steps", "5",
            "--gl-nodes", "8"]
    argv[argv.index(flag) + 1] = value
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_rate_curve_beta_steps_below_1_exit_1(capsys, steps):
    code = main(["rate-curve", "--models", "a4", "--beta-min", "1", "--beta-max", "2",
                 "--beta-steps", steps])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"--beta-steps must be at least 1, got {steps}" in captured.err
    assert "Traceback" not in captured.err


def test_rate_curve_one_beta_step_needs_one_beta(capsys):
    # one step over [2, 3] would print a beta = 2 row under a header naming beta_max 3
    code = main(["rate-curve", "--models", "a4", "--beta-min", "2", "--beta-max", "3",
                 "--beta-steps", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--beta-steps 1 needs --beta-min == --beta-max, got [2.0, 3.0]" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["mc", "--model", "boltzmann:positive:r=-1:p=1", "--n-traj", "10"],
    ["mc", "--model", "normal", "--n-traj", "10"],
    ["solve", "--a", "0.5", "--b", "0.7", "--model", "a2"],
])
@pytest.mark.parametrize("beta", ["inf", "nan", "0"])
def test_beta_outside_contract_exits_1(capsys, argv, beta):
    code = main([*argv, "--beta", beta])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "beta must be finite and positive" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["solve", "--a", "0.5", "--b", "nan", "--beta", "2", "--model", "a2"],
    ["solve", "--a", "inf", "--b", "0.7", "--beta", "2", "--model", "a2"],
    ["mc", "--model", "a2", "--b", "inf", "--beta", "2", "--n-traj", "10"],
    ["qubo", "--a", "inf", "--b", "1", "--r", "-3", "--p", "1"],
    ["qubo", "--a", "1", "--b", "nan", "--r", "-3", "--p", "1", "--verify"],
])
def test_non_finite_equation_exits_1(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "a and b must be finite" in captured.err and "Traceback" not in captured.err


def test_solve_divergence_exits_1_with_message(capsys):
    argv = ["solve", "--a", "0.5", "--b", "0.7", "--beta", "0.02", "--model", "normal",
            "--max-iter", "3000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise here
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "solve diverged: step" in captured.err and "Traceback" not in captured.err


def test_python_m_annealsolve_runs_the_cli(capsys):
    argv = ["solve", "--a", "0.5", "--b", "0.7", "--beta", "2", "--model", "a2",
            "--seed", "1", "--max-iter", "5"]
    env = dict(os.environ, PYTHONPATH=str(Path(annealsolve.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "annealsolve", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(capsys, *argv)[1]


def test_truncated_normal_rate_curve_at_beta_1e308_warns_nothing():
    # 1/(a*beta) is so small that the kernel's z terms pass the float range:
    # their erf is the beta -> inf limit, in every worker thread, with no raw
    # numpy warning, so the values are those at beta = 1e300
    argv = ["rate-curve", "--models", "a1,a2,a3,a4", "--beta-min", "1e308", "--beta-max",
            "1e308", "--beta-steps", "1", "--a-steps", "3", "--c-steps", "5", "--gl-nodes", "8"]
    env = dict(os.environ, PYTHONPATH=str(Path(annealsolve.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "annealsolve",
                           *argv], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    models = [TruncNormalModel(d1, d2) for d1, d2 in ((-2, 2), (0, 2), (0.5, 2), (0.5, 1))]
    limit = annealsolve.rate_curve(models, [1e300], a_steps=3, c_steps=5, gl_nodes=8)
    assert [float(row.split(",")[4]) for row in data_lines(proc.stdout)[1:]] == [
        point.value for point in limit
    ]


def test_truncated_normal_rate_curve_at_beta_1_5e308_exits_1():
    # sqrt(2) a beta overflows at the a-grid's end a = 1: the law's scale is 0
    argv = ["rate-curve", "--models", "a3", "--beta-min", "1.5e308", "--beta-max", "1.5e308",
            "--beta-steps", "1", "--a-steps", "3", "--c-steps", "5", "--gl-nodes", "8"]
    env = dict(os.environ, PYTHONPATH=str(Path(annealsolve.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "annealsolve",
                           *argv], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("annealsolve: error: beta=1.5e+308 is too large")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_rate_curve_empty_models_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["rate-curve", "--models", ",", "--beta-min", "1", "--beta-max", "2",
              "--beta-steps", "2"])
    assert err.value.code == 2


def test_mc_outcomes(capsys):
    code, out = run_cli(capsys, "mc", "--model", "normal", "--beta", "2", "--s", "1",
                        "--n-traj", "200", "--n-iter", "40", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "to-zero"
    assert len(doc["median_log_error"]) == 41

    code, out = run_cli(capsys, "mc", "--model", "normal", "--beta", "0.25",
                        "--n-traj", "200", "--n-iter", "400", "--seed", "5")
    doc = json.loads(out)
    assert doc["diverged_fraction"] >= 0.95


@pytest.mark.parametrize("beta,floor,slope", [("3", 22, -1.609), ("4", 19, None)])
def test_mc_warns_when_the_slope_is_fitted_across_the_float_floor(capsys, beta, floor, slope):
    # the fit window is steps 20-40; the median error hits exactly 0 at step 22
    # (beta 3) and before the window at step 19 (beta 4), where no slope is left
    for fmt in ("json", "csv"):
        code = main(["mc", "--model", "normal", "--beta", beta, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("annealsolve: warning: ")
        assert f"(the float floor) from step {floor} on;" in lines[0]
        if fmt == "json":
            doc = json.loads(captured.out)
            assert doc["floor_step"] == floor
            assert doc["median_log_error"][floor] is None
            assert all(v is not None for v in doc["median_log_error"][:floor])
            if slope is None:
                assert doc["slope"] is None
            else:
                assert doc["slope"] == pytest.approx(slope, abs=1e-3)
        else:
            assert f" floor_step={floor} " in captured.out


def test_mc_exact_start_is_not_called_the_float_floor(capsys):
    # with b = 0 the start x = 0 is exact: there is no step before step 0 to fit
    code = main(["mc", "--model", "normal", "--beta", "2", "--b", "0",
                 "--n-traj", "50", "--n-iter", "6"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("annealsolve: warning: ")
    assert "x = 0 already solves" in lines[0] and "float floor" not in lines[0]
    doc = json.loads(captured.out)
    assert doc["floor_step"] == 0 and doc["slope"] is None
    assert doc["median_log_error"] == [None] * 7


def test_mc_above_the_float_floor_gives_no_warning(capsys):
    # at beta 2 the median error first hits 0 at step 28, after these 24 steps
    code = main(["mc", "--model", "normal", "--beta", "2", "--n-iter", "24", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert " floor_step=None " in captured.out


@pytest.mark.parametrize("flag,value", [
    ("--n-traj", "0"), ("--n-iter", "-1"), ("--s", "nan"), ("--s", "inf"),
])
def test_mc_bad_sizes_exit_1(capsys, flag, value):
    code = main(["mc", "--model", "normal", "--beta", "2", flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    if flag == "--s":
        message = f"s must be finite and >= 1, got {value}"
    else:
        message = "n_traj and n_iter must be >= 1"
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("flag,value,message", [
    ("--tol", "nan", "tol must be >= 0, got nan"),
    ("--tol", "inf", "tol must be finite, got inf"),
    ("--a", "1e-320", "to normalize a=1e-320 overflows"),
])
def test_solve_bad_inputs_exit_1(capsys, flag, value, message):
    argv = ["solve", "--a", "0.5", "--b", "1", "--beta", "2", "--model", "a2"]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


def test_solve_accepts_boltzmann_model_spec(capsys):
    code, out = run_cli(capsys, "solve", "--a", "0.5", "--b", "0.7", "--beta", "3",
                        "--model", "boltzmann:positive:r=-3:p=1", "--max-iter", "5")
    assert code == 0
    assert '"model": "boltzmann:positive:r=-3:p=1"' in out
    assert len(data_lines(out)) >= 2


@pytest.mark.parametrize("flag,value", [("--kind", "positive"), ("--r", "-3"), ("--p", "1")])
def test_solve_register_flags_are_gone(flag, value):
    # registers are named in the model spec only
    with pytest.raises(SystemExit) as err:
        main(["solve", "--a", "0.5", "--b", "0.7", "--beta", "2", "--model", "a2", flag, value])
    assert err.value.code == 2


def test_solve_seed_out_of_range_exits_1(capsys):
    code = main(["solve", "--a", "0.5", "--b", "0.7", "--beta", "2", "--model", "a2",
                 "--seed", str(2**64)])
    err = capsys.readouterr().err
    assert code == 1
    assert "seed must be in [0, 2**64)" in err and "Traceback" not in err


def test_mc_trace_dump_matches_ensemble(capsys, tmp_path):
    code, out = run_cli(capsys, "mc", "--model", "a2", "--beta", "2", "--a", "0.5",
                        "--b", "0.7", "--n-traj", "8", "--n-iter", "12", "--seed", "4",
                        "--dump-traces", str(tmp_path), "--dump-count", "2")
    assert code == 0
    files = sorted(tmp_path.glob("traj*.csv"))
    assert len(files) == 2
    # stream 0 of the ensemble and an individual solve draw the same variates
    from annealsolve import normalize, preset, solve

    trace = solve(normalize(0.5, 0.7), preset("a2"), beta=2.0, seed=4, max_iter=12, stream=0)
    dumped = [ln for ln in files[0].read_text().splitlines() if not ln.startswith("#")]
    assert dumped[1].split(",")[5] == repr(float(trace.eta[0]))


def test_mc_normal_trace_dump_replays_the_zero_exponent_first_step(capsys, tmp_path):
    code, _ = run_cli(capsys, "mc", "--model", "normal", "--beta", "2", "--b", "0.2",
                      "--n-traj", "4", "--n-iter", "3", "--dump-traces", str(tmp_path))
    assert code == 0
    from annealsolve import normalize, solve

    # |b| = 0.2 classifies as l = 2; the normal ensemble pins step 0 to l = 0
    trace = solve(normalize(0.5, 0.2), NormalModel(), beta=2.0, seed=0, max_iter=3,
                  l0_zero=True)
    dumped = (tmp_path / "traj0000.csv").read_text()
    assert dumped.endswith("\n" + trace.to_csv())
    assert data_lines(dumped)[1].split(",")[3] == "0"


@pytest.mark.parametrize("flags,message", [
    (["--dump-count", "3"], "--dump-count requires --dump-traces"),
    (["--dump-traces", "DIR", "--dump-count", "-2"], "--dump-count must be at least 1, got -2"),
    (["--dump-traces", "DIR", "--dump-count", "0"], "--dump-count must be at least 1, got 0"),
])
def test_mc_dump_count_without_effect_is_a_usage_error(capsys, tmp_path, flags, message):
    flags = [str(tmp_path / "dump") if f == "DIR" else f for f in flags]
    with pytest.raises(SystemExit) as err:
        main(["mc", "--model", "a2", "--beta", "2", "--n-traj", "4", "--n-iter", "3", *flags])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == "" and message in captured.err
    assert not (tmp_path / "dump").exists()


def test_limit_check_monotone_column(capsys):
    code, out = run_cli(capsys, "limit-check", "--a", "1", "--b", "0.5", "--beta", "1",
                        "--ranges=-3:3,-7:3,-11:3")
    assert code == 0
    rows = data_lines(out)
    ks = [float(row.split(",")[3]) for row in rows[1:]]
    assert ks[0] > ks[1] > ks[2]


@pytest.mark.parametrize("spec,limit,n_points", [
    (None, NormalModel(), [127]),
    ("a2", TruncNormalModel(0.0, 2.0), [64]),
    ("a4", TruncNormalModel(0.5, 1.0), [64, 8]),
    ("truncnormal:d1=0:d2=1", TruncNormalModel(0.0, 1.0), [64, 8]),
])
def test_limit_check_takes_its_limit_law_as_a_model_spec(capsys, spec, limit, n_points):
    ranges = [BitRange(-3, 3), BitRange(-2, 1)][:len(n_points)]
    argv = ["limit-check", "--a", "0.7", "--b", "0.5", "--beta", "2",
            "--ranges=" + ",".join(f"{rg.r}:{rg.p}" for rg in ranges), "--format", "json"]
    code, out = run_cli(capsys, *argv, *(["--limit", spec] if spec else []))
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["limit"] == (spec or "normal")
    assert [row["n_points"] for row in doc["rows"]] == n_points
    want = limit_check(0.7, 0.5, 2.0, ranges, limit=limit)
    assert [row["ks"] for row in doc["rows"]] == [row.ks for row in want]


@pytest.mark.parametrize("flags", [["--mode", "interval"], ["--mode", "full-line"],
                                   ["--d1", "0", "--d2", "1"], ["--d2", "1"]])
def test_limit_check_mode_and_interval_flags_are_a_usage_error(capsys, flags):
    with pytest.raises(SystemExit) as err:
        main(["limit-check", "--a", "1", "--b", "0.5", "--beta", "1", "--ranges=-3:3", *flags])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {flags[0]}" in captured.err


@pytest.mark.parametrize("spec", ["truncnormal:d1=2:d2=0", "truncnormal:d1=1:d2=1"])
def test_limit_check_reversed_truncnormal_spec_is_a_usage_error(capsys, spec):
    line = _usage_error(capsys, ["limit-check", "--a", "1", "--b", "0.5", "--beta", "1",
                                 "--ranges=-3:3", "--limit", spec])
    assert "need d1 < d2" in line


def test_limit_check_without_ranges_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["limit-check", "--a", "1", "--b", "0.5", "--beta", "1", "--ranges", ","])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert "--ranges must name at least one r:p pair" in captured.err


def test_dash_token_that_is_not_a_number_stays_an_option(capsys):
    # only negative numbers are joined to the flag before them, so "--model -x"
    # leaves --model without its value
    with pytest.raises(SystemExit) as err:
        main(["solve", "--a", "0.5", "--b", "0.7", "--beta", "2", "--model", "-x"])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert "--model: expected one argument" in captured.err


@pytest.mark.parametrize("flags,message", [
    (["--a", "0"], "a = 0 leaves no equation to solve"),
    (["--a", "inf"], "a and b must be finite"),
    (["--b", "nan"], "a and b must be finite"),
    (["--beta", "inf"], "beta must be finite and positive"),
    (["--beta", "0"], "beta must be finite and positive"),
    (["--a", "5e-324"], "limit law"),
    (["--limit", "truncnormal:d1=0:d2=inf"], "interval endpoints must be finite"),
    (["--limit", "truncnormal:d1=-inf:d2=1"], "interval endpoints must be finite"),
    (["--limit", "boltzmann:positive:r=-1:p=1"], "the limit law must be normal or truncated"),
])
def test_limit_check_inputs_outside_contract_exit_1(capsys, flags, message):
    argv = {"--a": "1", "--b": "0.5", "--beta": "1"}
    argv.update(zip(flags[::2], flags[1::2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning before the check would raise here
        code = main(["limit-check", "--ranges=-2:1", *(x for kv in argv.items() for x in kv)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and message in captured.err
    assert "Traceback" not in captured.err


_BOLTZMANN_SPEC = "boltzmann:positive:r=-3:p=1"


@pytest.mark.parametrize("argv", [
    ["limit-check", "--a", "1", "--b", "0.5", "--beta", "1e300", "--ranges=-3:1"],
    ["limit-check", "--a", "1", "--b", "0.5", "--beta", "1e300", "--ranges=-3:1",
     "--format", "json"],
    ["limit-check", "--a", "1", "--b", "0.5", "--beta", "1e154", "--ranges=-3:1"],
    ["rate-curve", "--models", _BOLTZMANN_SPEC, "--beta-min", "1e300", "--beta-max", "1e300",
     "--beta-steps", "1", "--a-steps", "3", "--c-steps", "5"],
    # beta^2 is finite, but beta^2 times an energy gap is not
    ["rate-curve", "--models", _BOLTZMANN_SPEC, "--beta-min", "1e154", "--beta-max", "1e154",
     "--beta-steps", "1", "--a-steps", "3", "--c-steps", "5"],
    ["solve", "--a", "0.5", "--b", "0.7", "--beta", "1e300", "--model", _BOLTZMANN_SPEC,
     "--max-iter", "3"],
    ["mc", "--a", "0.5", "--b", "0.7", "--beta", "1e300", "--model", _BOLTZMANN_SPEC,
     "--n-traj", "16", "--n-iter", "5", "--format", "csv"],
])
def test_beta_past_the_float_range_prints_no_nan(capsys, argv):
    # beta^2 overflows: the Boltzmann law is its beta -> inf limit, not NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "nan" not in out.lower()
    rows = data_lines(out)
    if argv[0] == "solve":
        # every step draws a correction: the multiplier is not 1
        assert all(float(row.split(",")[-1]) != 1.0 for row in rows[1:])
    if argv[0] == "mc":
        medians = [float(row.split(",")[1]) for row in rows[1:]]
        assert medians[-1] < medians[0] - 10.0


@pytest.mark.parametrize("argv", [
    ["rate-curve", "--models", "a4", "--beta-min", "1e-308", "--beta-max", "1e-308",
     "--beta-steps", "1"],
    ["rate-curve", "--models", "a4", "--beta-min", "1e-308", "--beta-max", "1e-308",
     "--beta-steps", "1", "--a-steps", "3", "--c-steps", "5", "--gl-nodes", "8"],
    ["mc", "--model", "a2", "--beta", "1e-308", "--n-traj", "10", "--n-iter", "3"],
    ["solve", "--model", "a1", "--a", "0.5", "--b", "0.7", "--beta", "1e-308",
     "--max-iter", "3"],
])
def test_law_whose_scale_overflows_exits_1(capsys, argv):
    # sigma*sqrt(2) = 1/(a*beta) passes the float range at a = 1/2, where
    # the kernel's draws would be inf * 0 = NaN
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("annealsolve: error: ")
    assert "beta=1e-308 is too small: the law's scale sigma*sqrt(2) = 1/(a*beta)" in captured.err
    assert "Traceback" not in captured.err


def test_solve_whose_every_energy_overflows_exits_1(capsys):
    # the first target 1/c is 5e199: the Boltzmann law has no finite energy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--paper-l0", "--model", _BOLTZMANN_SPEC, "--a", "1", "--b",
                     "1e200", "--beta", "1", "--max-iter", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    # the line names the step and the normalised equation whose law failed
    assert captured.err.startswith(
        "annealsolve: error: step 0 of 0.5*x = 5e+199 (a*x = b scaled by 2^-1; "
        "the law's target is 1/c): "
    )
    assert captured.err.count("\n") == 1
    assert "overflows on the whole support" in captured.err
    assert "Traceback" not in captured.err


def test_limit_check_sigma_that_underflows_to_0_exits_1(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["limit-check", "--a", "1e200", "--b", "0", "--beta", "1e120", "--ranges=-3:1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "annealsolve: error: the limit law N(b/a, 1/(2 a^2 beta^2)) has sigma 0 "
        "at a=1e+200, b=0.0, beta=1e+120\n"
    )


def test_paper_l0_flag(capsys):
    code, out = run_cli(capsys, "solve", "--a", "0.5", "--b", "0.2", "--beta", "2",
                        "--model", "normal", "--max-iter", "2", "--paper-l0")
    rows = data_lines(out)
    first = rows[1].split(",")
    assert first[3] == "0"  # l column forced to zero on the first step


def test_config_with_nan_is_never_dumped():
    # a NaN that slips past validation fails loudly instead of writing NaN
    args = build_parser().parse_args(["mc", "--model", "normal", "--beta", "nan"])
    for dump in (_csv_header, lambda args: _json_doc(args, {})):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump(args)


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("annealsolve: error: ")
    return lines[0]


@pytest.mark.parametrize("argv", [
    ["solve", "--a", "0.5", "--b", "0.7", "--beta", "2", "--model"],
    ["mc", "--beta", "2", "--n-traj", "10", "--model"],
    ["rate-curve", "--beta-min", "1", "--beta-max", "2", "--beta-steps", "2", "--models"],
    ["limit-check", "--a", "1", "--b", "0.5", "--beta", "1", "--ranges=-3:3", "--limit"],
])
def test_nan_interval_end_is_a_usage_error(capsys, argv):
    line = _usage_error(capsys, [*argv, "truncnormal:d1=nan:d2=1"])
    assert "need d1 < d2" in line


@pytest.mark.parametrize("spec,position", [
    ("boltzmann:kind=foo:r=0:p=1", 10),
    ("boltzmann:positive:r=-1:p=1:r=-2", 28),
])
def test_bad_model_spec_is_a_usage_error_with_its_position(capsys, spec, position):
    line = _usage_error(capsys, ["rate-curve", "--models", spec, "--beta-min", "1",
                                 "--beta-max", "2", "--beta-steps", "2"])
    assert f"at position {position} in" in line


@pytest.mark.parametrize("ranges", ["-3", "-3:x", "1:2:3", ":"])
def test_limit_check_range_syntax_is_a_usage_error(capsys, ranges):
    line = _usage_error(capsys, ["limit-check", "--a", "1", "--b", "0.5", "--beta", "1",
                                 f"--ranges={ranges}"])
    assert f"range {ranges!r} must look like r:p" in line


def test_limit_check_unordered_range_exits_1(capsys):
    code = main(["limit-check", "--a", "1", "--b", "0.5", "--beta", "1", "--ranges=2:1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "BitRange requires r < p" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("models,betas,want", [
    ("a1,a1", ("1", "2", "2"), [("a1", "1.0"), ("a1", "2.0")]),
    ("a3,truncnormal:d1=0.5:d2=2", ("1", "2", "2"), [("a3", "1.0"), ("a3", "2.0")]),
    ("a1,a4", ("1", "1", "3"), [("a1", "1.0"), ("a4", "1.0")]),
])
def test_rate_curve_prints_one_row_per_model_id_and_beta(capsys, models, betas, want):
    code, out = run_cli(capsys, "rate-curve", "--models", models, "--beta-min", betas[0],
                        "--beta-max", betas[1], "--beta-steps", betas[2], "--a-steps", "3",
                        "--c-steps", "5", "--gl-nodes", "8")
    assert code == 0
    rows = data_lines(out)[1:]
    assert [tuple(row.split(",")[:2]) for row in rows] == want


def test_limit_check_interval_too_wide_exits_1(capsys):
    # 2^41 grid points: refused before any allocation, like the full-line mode
    code = main(["limit-check", "--a", "0.7", "--b", "0.5", "--beta", "2",
                 "--limit", "truncnormal:d1=0:d2=1", "--ranges=-40:1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "annealsolve: error: 41 bits exceeds enumeration limit 30\n"


def test_memory_error_exits_1_with_one_line(capsys, monkeypatch):
    # a register under the enumeration limit may still not fit in memory
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 56.0 GiB for an array")

    monkeypatch.setattr("annealsolve.cli.limit_check", out_of_memory)
    code = main(["limit-check", "--a", "0.7", "--b", "0.5", "--beta", "2", "--ranges=-26:1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "annealsolve: error: out of memory: Unable to allocate 56.0 GiB for an array\n"
    )


def _strict_json(argv):
    # NaN, Infinity and -Infinity are not JSON; parse_constant sees only those
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    if code != 0:
        # a refusal prints no JSON at all, only one error line
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("annealsolve: error: ")
        return None
    return json.loads(out.getvalue(), parse_constant=reject)


_nonzero = st.one_of(st.floats(-4.0, -1e-3), st.floats(1e-3, 4.0))
_finite = st.floats(-4.0, 4.0)
_beta = st.floats(0.1, 20.0)


@settings(max_examples=15, deadline=None)
@given(a=_nonzero, b=_finite, r=st.integers(-5, 1), width=st.integers(1, 4))
def test_qubo_json_is_strict(a, b, r, width):
    doc = _strict_json(["qubo", f"--a={a!r}", f"--b={b!r}", f"--r={r}", f"--p={r + width}"])
    assert doc["config"]["command"] == "qubo"


@settings(max_examples=8, deadline=None)
@given(model=st.sampled_from(["normal", "a2", "a4", "boltzmann:positive:r=-1:p=1",
                              "boltzmann:signed:r=0:p=1"]),
       beta=_beta)
def test_rate_curve_json_is_strict(model, beta):
    doc = _strict_json(["rate-curve", "--models", model, f"--beta-min={beta!r}",
                        f"--beta-max={beta!r}", "--beta-steps", "1", "--a-steps", "3",
                        "--c-steps", "5", "--gl-nodes", "8"])
    assert len(doc["points"]) == 1


@settings(max_examples=10, deadline=None)
@given(model=st.sampled_from(["normal", "a2", "boltzmann:signed:r=-2:p=1"]),
       a=_nonzero, b=_finite, beta=_beta, seed=st.integers(0, 2**32))
def test_mc_json_is_strict(model, a, b, beta, seed):
    doc = _strict_json(["mc", "--model", model, f"--a={a!r}", f"--b={b!r}", f"--beta={beta!r}",
                        "--n-traj", "32", "--n-iter", "30", "--seed", str(seed)])
    assert len(doc["median_log_error"]) == 31


def test_mc_json_at_the_float_floor_is_strict():
    # beta 4 floors before the fit window: slope and the floored medians are null
    doc = _strict_json(["mc", "--model", "normal", "--beta", "4"])
    assert doc["slope"] is None and doc["floor_step"] == 19


@settings(max_examples=10, deadline=None)
@given(a=_nonzero, b=_finite, beta=_beta, interval=st.booleans(),
       d=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2, unique=True).map(sorted))
def test_limit_check_json_is_strict(a, b, beta, interval, d):
    argv = ["limit-check", f"--a={a!r}", f"--b={b!r}", f"--beta={beta!r}", "--ranges=-2:1,-5:1"]
    if interval:
        argv += [f"--limit=truncnormal:d1={d[0]!r}:d2={d[1]!r}"]
    doc = _strict_json(argv)
    if doc is None:
        assert interval  # an interval too narrow to resolve is refused
        return
    assert [row["n_points"] for row in doc["rows"]] == ([8, 64] if interval else [15, 127])


# every float flag of every command, in a valid command line
_FLOAT_FLAGS = [
    (["solve", "--model", "normal", "--a", "1", "--b", "0.5", "--beta", "1", "--tol", "0",
      "--max-iter", "3"], ("--a", "--b", "--beta", "--tol")),
    (["qubo", "--a", "0.7", "--b", "0.5", "--r", "-3", "--p", "1"], ("--a", "--b")),
    (["rate-curve", "--models", "a4", "--beta-min", "1", "--beta-max", "2", "--beta-steps", "2",
      "--a-steps", "3", "--c-steps", "5", "--gl-nodes", "8"], ("--beta-min", "--beta-max")),
    (["mc", "--model", "normal", "--a", "0.5", "--b", "0.7", "--beta", "2", "--s", "1",
      "--n-traj", "16", "--n-iter", "5"], ("--a", "--b", "--beta", "--s")),
    (["limit-check", "--a", "1", "--b", "0.5", "--beta", "1", "--ranges=-3:1",
      "--limit", "truncnormal:d1=-1:d2=1"], ("--a", "--b", "--beta")),
]


@pytest.mark.parametrize("argv,flag", [(argv, flag) for argv, flags in _FLOAT_FLAGS for flag in flags],
                         ids=lambda p: p if isinstance(p, str) else p[0])
@pytest.mark.parametrize("value", ["-1e-5", "-2.5E+1", "-inf"])
def test_negative_float_in_exponent_form_parses_like_the_joined_form(capsys, argv, flag, value):
    at = argv.index(flag)
    split = [*argv[:at + 1], value, *argv[at + 2:]]
    joined = [*argv[:at], f"{flag}={value}", *argv[at + 2:]]
    results = []
    for line in (split, joined):
        code = main(line)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]
    assert results[0][0] in (0, 1)  # a value the command refuses, never a usage error


def test_mc_zero_exponent_step_on_a_subnormal_residual_is_strict_json():
    # normalizing a = -1 halves b to 1.1e-309, so the first step's c = 1/|b|
    # is infinite; the normal quantile takes it and the iterate stays finite
    doc = _strict_json(["mc", "--model", "normal", "--a=-1.0", "--b=2.225073858507203e-309",
                        "--beta=1.0", "--n-traj", "32", "--n-iter", "30"])
    assert len(doc["median_log_error"]) == 31
