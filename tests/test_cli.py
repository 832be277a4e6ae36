import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import annealsolve
from annealsolve import import_qubo
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


def test_qubo_verify_size_guard():
    with pytest.raises(SystemExit) as err:
        main(["qubo", "--a", "0.5", "--b", "0.5", "--r", "-16", "--p", "0", "--verify"])
    assert err.value.code == 2


def test_rate_curve_cardinality_and_threads(capsys):
    argv = ("rate-curve", "--models", "a1,a2,a3,a4", "--beta-min", "0.5", "--beta-max", "5",
            "--beta-steps", "40", "--a-steps", "3", "--c-steps", "5", "--gl-nodes", "8")
    code, out1 = run_cli(capsys, *argv)
    assert code == 0
    rows = data_lines(out1)
    assert rows[0] == "model_id,beta,a,kind,value,clamped"
    assert len(rows) == 1 + 160
    code, out2 = run_cli(capsys, *argv, "--threads", "3")
    rows2 = data_lines(out2)
    assert rows2 == [r for r in rows]


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


MC_BAD_INPUT_MESSAGES = {"--s": "s must be >= 1, got nan"}


@pytest.mark.parametrize("flag,value", [("--n-traj", "0"), ("--n-iter", "-1"), ("--s", "nan")])
def test_mc_bad_sizes_exit_1(capsys, flag, value):
    code = main(["mc", "--model", "normal", "--beta", "2", flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    message = MC_BAD_INPUT_MESSAGES.get(flag, "n_traj and n_iter must be >= 1")
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("flag,value,message", [
    ("--tol", "nan", "tol must be >= 0, got nan"),
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


def test_limit_check_monotone_column(capsys):
    code, out = run_cli(capsys, "limit-check", "--a", "1", "--b", "0.5", "--beta", "1",
                        "--ranges=-3:3,-7:3,-11:3")
    assert code == 0
    rows = data_lines(out)
    ks = [float(row.split(",")[3]) for row in rows[1:]]
    assert ks[0] > ks[1] > ks[2]


def test_limit_check_interval_requires_bounds(capsys):
    with pytest.raises(SystemExit) as err:
        main(["limit-check", "--a", "1", "--b", "0.5", "--beta", "1",
              "--ranges=-3:3", "--mode", "interval"])
    assert err.value.code == 2
    code, out = run_cli(capsys, "limit-check", "--a", "1", "--b", "0.5", "--beta", "1",
                        "--ranges=-3:3", "--mode", "interval", "--d1", "0", "--d2", "2",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["n_points"] == 64


@pytest.mark.parametrize("flags,message", [
    (["--a", "0"], "a must be finite and nonzero"),
    (["--a", "inf"], "a must be finite and nonzero"),
    (["--b", "nan"], "b must be finite"),
    (["--beta", "inf"], "beta must be finite and positive"),
    (["--beta", "0"], "beta must be finite and positive"),
    (["--a", "5e-324"], "limit law"),
    (["--mode", "interval", "--d1", "0", "--d2", "inf"], "interval endpoints must be finite"),
    (["--mode", "interval", "--d1", "nan", "--d2", "1"], "interval endpoints must be finite"),
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


def test_outdir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ANNEALSOLVE_OUTDIR", str(tmp_path))
    code, _ = run_cli(capsys, "solve", "--a", "0.5", "--b", "0.7", "--beta", "2",
                      "--model", "a2", "--max-iter", "3", "--out", "trace.csv")
    assert code == 0
    assert (tmp_path / "trace.csv").exists()


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
