"""CLI surface: dispatch, CSV contract, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys
import time

import pytest

import heatansatz.cli as cli_module
from heatansatz.cli import build_parser, emit_csv, fmt, run
from heatansatz.dynsys import MobiusParam
from heatansatz.solution import closed_form_0ansatz, closed_form_1ansatz


def cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "heatansatz.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_fmt_floats_round_trip():
    for v in (1 / 3, 1e-17, 123456.789, -0.1):
        assert float(fmt(v)) == v
    assert fmt(0.5) == "0.5"
    assert fmt(3) == "3"


def test_emit_csv_contract():
    assert emit_csv([], ["a", "b"]) == "a,b\n"
    assert emit_csv([(1, 2.5)], ["a", "b"]) == "a,b\n1,2.5\n"
    with pytest.raises(ValueError):
        emit_csv([(1,)], ["a", "b"])


def test_dk_prints_chain():
    code, out, err = cli("dk", "--k", "3")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "D_1 = y2 + y1^2"
    assert lines[1] == "D_2 = y3 + 6*y1*y2 + 4*y1^3"
    assert len(lines) == 3


def test_dk_json():
    code, out, _ = cli("dk", "--k", "2", "--json")
    assert code == 0
    blobs = [json.loads(line) for line in out.splitlines()]
    assert len(blobs) == 2
    assert all(b["family"] == "Y" for b in blobs)


def test_phi_tables(capsys):
    code, out, _ = cli("phi", "--table", "phi", "--n", "1", "--delta", "0", "--qmax", "4")
    assert code == 0
    lines = out.splitlines()
    assert "Phi_2 = -2*x2" in lines
    assert "Phi_4 = 60*x2^2" in lines
    code, out, _ = cli("phi", "--table", "y", "--delta", "0", "--qmax", "2")
    assert code == 0
    assert "Y_2 = -2*y2 - 2*y1^2" in out.splitlines()
    code, out, _ = cli("phi", "--table", "q", "--delta", "0", "--qmax", "4")
    assert code == 0
    assert "Q_4 = 60*Z2^2" in out.splitlines()
    # a table shorter than its recursion's first entry is a domain error that names the option
    for argv, message in (
        *[(["phi", "--table", "q", "--qmax", qmax], "--qmax must be at least 2 for --table q") for qmax in ("1", "0", "-3")],
        (["phi", "--qmax", "1"], "--qmax must be at least 2 for --table phi"),
        (["phi", "--table", "phi", "--n", "3", "--qmax", "-3", "--json"], "--qmax must be at least 2 for --table phi"),
        (["phi", "--table", "y", "--qmax", "0"], "--qmax must be at least 1 for --table y"),
        (["dk", "--k", "0"], "--k must be at least 1"),
        (["dk", "--k", "-2", "--json"], "--k must be at least 1"),
    ):
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert run(["phi", "--table", "y", "--qmax", "1"]) == 0
    assert capsys.readouterr().out == "Y_0 = 1\nY_1 = 0\n"


def test_phi_rejects_removed_mode_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["phi", "--mode", "general", "--n", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --mode general" in captured.err


def test_verify_exit_zero():
    code, out, err = cli("verify", "--suite", "operators")
    assert code == 0
    assert "checks passed" in out.splitlines()[-1]
    assert "FAIL" not in out


def test_trajectory_csv():
    code, out, _ = cli(
        "trajectory", "--n", "1", "--poles", "1:0,1:1", "--t0", "2", "--t1", "2.1", "--step", "0.05"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 2.0
    assert float(first[1]) == 0.75
    assert float(first[2]) == -0.0625
    assert out.endswith("\n") and "\r" not in out


def test_trajectory_tracks_profile_for_three_poles():
    code, out, _ = cli(
        "trajectory", "--n", "2", "--poles", "1:0,1:1,2:-1", "--t0", "2", "--t1", "3", "--step", "0.001"
    )
    assert code == 0
    last = out.splitlines()[-1].split(",")
    # exact chain values of the three-pole profile at t = 3
    from fractions import Fraction

    from heatansatz.dynsys import RationalH, reduced_initial_state

    h = RationalH(2, (MobiusParam(1, 0), MobiusParam(1, 1), MobiusParam(2, -1)))
    exact = reduced_initial_state(h, 2, Fraction(3))
    assert float(last[0]) == 3.0
    for got, want in zip(last[1:], exact):
        assert abs(float(got) - float(want)) < 1e-10


P4 = "1:0,1:1,2:-1,1:-2"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["trajectory", "--n", "3", "--poles", P4, "--step", "1e-4", "--t0", "3", "--t1", "4"],
         "3b0f988d1715bff2728ce048a32f7facbedc60a447a4db2fc1e45b6fc1191e14"),
        (["trajectory", "--n", "4", "--poles", P4 + ",3:-1", "--step", "1e-3", "--t0", "3", "--t1", "4"],
         "8c0140d0390319364dd42a1320d0746ff87aba26c942209f4e246271483bb244"),
        (["burgers", "--family", "nansatz", "--poles", P4, "--delta", "1", "--kmax", "20", "--z0", "0.5", "--z1", "1.5",
          "--znum", "201", "--t0", "3", "--t1", "4", "--tnum", "21"],
         "f37af8e1013a199383556b09fe7ba6d5f698786aee70a81323af76a72da9e52d"),
        (["verify", "--suite", "all"],
         "2bb67d6e778024fcfc4ceb9cde3c12e74cdb4d37d025f564ccc9341a4008ea91"),
        (["phi", "--table", "q", "--qmax", "14", "--delta", "1", "--json"],
         "b2be778596b2eae0316599bce1213744e25187c2a56dc7f0a6956d489e9bc4ec"),
        (["phi", "--table", "q", "--qmax", "14", "--delta", "0"],
         "b0ce69df79881cc7681aa5e2e3141635f270e1665e19017e63af9f53ce099f20"),
        (["phi", "--table", "q", "--qmax", "12", "--delta", "1"],
         "f5de8ac0a7a27527662e65c63fcac86cade3c1fe62e89bff80737636728f68e1"),
        (["phi", "--table", "y", "--qmax", "10", "--delta", "0", "--json"],
         "aeeda7362ee3850515dd187b2de17490bea2a84d7c130e6503a5c81fee286f50"),
    ],
)
def test_golden_digest(argv, digest, capsys):
    # golden digests of whole outputs: the compiled field must match per-term evaluate to the last digit,
    # and the burgers grid (no exp in v), the self-checks, the tail tables in basis names and the jet table
    # must not move
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("step", ["nan", "inf", "-inf", "0", "-0", "-1e-3"])
def test_trajectory_step_must_be_positive(step, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["trajectory", "--n", "1", "--poles", "1:0,1:1", "--t0", "3", "--t1", "4", f"--step={step}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --step: must be" in captured.err


def test_trajectory_step_count_is_bounded(capsys, monkeypatch):
    # 1e-300 asked for 1e300 RK4 steps; the run is refused before any integration
    def integrate(*args):
        raise AssertionError("integration started")

    monkeypatch.setattr(cli_module, "rk4_integrate", integrate)
    argv = ["trajectory", "--n", "1", "--poles", "1:0,1:1", "--t0", "3", "--t1", "4"]
    for step in ("1e-300", "5e-324", "9.99999e-7"):
        began = time.perf_counter()
        assert run([*argv, "--step", step]) == 1
        assert time.perf_counter() - began < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: --step {float(step):g} needs more than 10^6 steps")
        assert err.count("\n") == 1


@pytest.mark.parametrize("option, value", [("--t0", "nan"), ("--t1", "nan"), ("--t1", "x"), ("--t1", "-inf")])
def test_trajectory_times_are_rationals(option, value, capsys):
    argv = {"--t0": "3", "--t1": "4"} | {option: value}
    with pytest.raises(SystemExit) as exc:
        run(["trajectory", "--n", "1", "--poles", "1:0,1:1", *(f"{k}={v}" for k, v in argv.items())])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument {option}: invalid rational value: {value!r}" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["trajectory", "--n", "1", "--poles", "1:0,1:1", "--t0", "4", "--t1", "3"], "--t1 must not precede --t0"),
    (["eval", "--family", "nansatz", "--kmax", "1", "--t", "2"], "--kmax must be at least 2"),
    (["eval", "--family", "1ansatz", "--kmax", "-3", "--t", "2"], "--kmax must be at least 2"),
    (["burgers", "--family", "nansatz", "--kmax", "1", "--t", "2"], "--kmax must be at least 2"),
    (["burgers", "--family", "0ansatz", "--kmax", "0", "--t", "2"], "--kmax must be at least 2"),
    (["eval", "--poles", "1:x", "--t", "1"], "pole '1:x' is not 'alpha:beta' with rational alpha and beta"),
    (["eval", "--poles", "1:1/0", "--t", "1"], "pole '1:1/0' is not 'alpha:beta' with rational alpha and beta"),
])
def test_option_bounds_name_the_option(argv, message, capsys):
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # the closed-form 0-ansatz builds no series, so --kmax does not bound it
    assert run(["eval", "--family", "0ansatz", "--kmax", "1", "--t", "2", "--znum", "1"]) == 0
    assert capsys.readouterr().out == "t,z,value\n2,-1,0.5506953149031838\n"


@pytest.mark.parametrize("command", ["eval", "burgers"])
def test_removed_pole_options(command, capsys):
    # --poles is the one way to give poles
    with pytest.raises(SystemExit) as exc:
        run([command, "--alpha", "1", "--beta", "0", "--alpha2", "1", "--beta2", "1", "--t", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --alpha 1 --beta 0 --alpha2 1 --beta2 1" in capsys.readouterr().err


def test_eval_0ansatz_values():
    code, out, _ = cli(
        "eval", "--family", "0ansatz", "--delta", "0", "--poles", "1:0",
        "--t", "0.0625,0.25,1", "--z0", "-1", "--z1", "1", "--znum", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,z,value"
    assert len(lines) == 1 + 3 * 5
    psi = closed_form_0ansatz(0, MobiusParam(1, 0))
    for line in lines[1:]:
        t, z, value = (float(p) for p in line.split(","))
        assert value == pytest.approx(psi(z, t), rel=1e-15)


def test_eval_1ansatz_runs():
    code, out, _ = cli(
        "eval", "--family", "1ansatz", "--delta", "1", "--poles", "1:0,1:1",
        "--t", "2", "--z0", "0.5", "--z1", "1.5", "--znum", "3", "--kmax", "12",
    )
    assert code == 0
    assert len(out.splitlines()) == 4


def test_eval_nansatz_three_poles():
    code, out, _ = cli(
        "eval", "--family", "nansatz", "--poles", "1:0,1:1,2:-1",
        "--t", "2,3", "--z0", "-1", "--z1", "1", "--znum", "3",
    )
    assert code == 0
    assert len(out.splitlines()) == 7


def test_eval_time_grid_flags():
    code, out, _ = cli(
        "eval", "--family", "0ansatz", "--t0", "1", "--t1", "2", "--tnum", "3",
        "--z0", "0", "--z1", "1", "--znum", "2",
    )
    assert code == 0
    times = {line.split(",")[0] for line in out.splitlines()[1:]}
    assert times == {"1", "1.5", "2"}


def test_burgers_values():
    code, out, _ = cli(
        "burgers", "--family", "0ansatz", "--delta", "1", "--poles", "1:0",
        "--mu", "0.5", "--t", "2", "--z0", "0.5", "--z1", "1.5", "--znum", "3",
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        t, z, value = (float(p) for p in line.split(","))
        assert value == pytest.approx(z / t - 1 / z, rel=1e-14)


def test_burgers_rescales_mu(capsys):
    # v_mu(z, t) = 2 mu v(z, 2 mu t): for the even 0-ansatz image z/t this
    # collapses to z/t independently of mu
    _, half, _ = cli("burgers", "--family", "0ansatz", "--mu", "0.5", "--t", "2", "--znum", "3")
    _, two, _ = cli("burgers", "--family", "0ansatz", "--mu", "2", "--t", "2", "--znum", "3")
    assert half == two
    # mu = 0 has no image; the profile's pole at t = 0 must not be reported instead
    assert run(["burgers", "--family", "0ansatz", "--mu", "0", "--t", "2", "--znum", "3"]) == 1
    assert capsys.readouterr() == ("", "error: mu must be nonzero\n")


def test_burgers_pole_at_origin_is_domain_error():
    code, out, err = cli(
        "burgers", "--family", "0ansatz", "--delta", "1", "--t", "2",
        "--z0", "-1", "--z1", "1", "--znum", "3",
    )
    assert code == 1
    assert "error:" in err


def test_burgers_odd_image_at_origin_names_the_pole(capsys):
    argv = ["burgers", "--family", "nansatz", "--poles", "1:0,1:1", "--delta", "1", "--t", "2",
            "--z0", "0", "--z1", "1", "--znum", "2"]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", "error: odd-parity Burgers image has a pole at z = 0\n")


def test_eval_at_profile_pole_is_domain_error():
    code, _, err = cli("eval", "--family", "0ansatz", "--poles", "1:1", "--t", "1")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("delta", ["0", "1"])
def test_eval_vanishing_pole_closed_form_matches_series(delta, capsys):
    # the pole (0:1) is the profile h = 0: both families print psi = e^{r0} z^delta
    for r0 in ("0", "0.5"):
        outputs = []
        for family in ("0ansatz", "nansatz"):
            argv = ["eval", "--family", family, "--poles", "0:1", "--delta", delta, "--t", "1,2", "--r0", r0]
            assert run(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_wrong_pole_count_is_domain_error():
    code, _, err = cli("eval", "--family", "1ansatz", "--poles", "1:0", "--t", "2")
    assert code == 1
    assert "pole parameter" in err


def test_usage_errors_exit_two():
    code, _, err = cli("eval", "--no-such-flag")
    assert code == 2
    code, _, _ = cli("nonsense")
    assert code == 2
    code, _, _ = cli()
    assert code == 2


@pytest.mark.parametrize("command", ["eval", "burgers"])
@pytest.mark.parametrize("grid", [
    ("--znum", "0"), ("--znum", "-2"), ("--t1", "2", "--tnum", "0"),
    ("--z0", "nan", "--znum", "1"), ("--z1", "inf"), ("--z0=-inf",), ("--z1=-Infinity",),
    ("--r0", "nan"), ("--r0", "1e400"), ("--mu", "nan"), ("--mu", "inf"), ("--r0", "x"), ("--mu", "1/2"),
    ("--tnum", "3", "--t1", "nan"), ("--t1", "2", "--tnum", "3", "--t0", "inf"), ("--t", "2,x"), ("--t", "1/0"),
])
def test_empty_grid_is_usage_error(command, grid, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--family", "0ansatz", "--t0", "1", *grid])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    if grid[0] == {"eval": "--mu", "burgers": "--r0"}[command]:
        message = "unrecognized arguments"  # burgers has no --r0 (v does not depend on it), eval no --mu
    elif len(grid) > 1 and grid[-2] in ("--t", "--t0", "--t1"):  # the bad time, or --t item, comes last
        message = f"argument {grid[-2]}: invalid rational value: {grid[-1].split(',')[-1]!r}"
    elif grid[-1] in ("x", "1/2"):
        message = "invalid float value"
    elif grid[0].startswith(("--z0", "--z1", "--r0", "--mu")):
        message = "must be finite"
    else:
        message = "must be a positive integer"
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("argv", [
    ["eval", "--family", "0ansatz", "--r0", "1000", "--t", "2"],
    ["eval", "--family", "nansatz", "--poles", "1:0,1:1", "--kmax", "30", "--z0", "2e6", "--znum", "1", "--t", "2"],
    # finite bounds whose span overflows
    ["eval", "--family", "0ansatz", "--z0=-1e308", "--z1", "1e308", "--znum", "3", "--t", "2"],
    ["eval", "--family", "nansatz", "--z0=-1e308", "--z1", "1e308", "--znum", "3", "--t", "2"],
    # a finite series whose final factor z, z^3 or delta/z leaves the float range
    ["eval", "--family", "nansatz", "--poles", "1:0,1:1", "--kmax", "2", "--delta", "1",
     "--z0", "1e76", "--z1", "1e76", "--znum", "1", "--t", "2"],
    ["burgers", "--family", "nansatz", "--poles", "1:0,1:1", "--kmax", "2",
     "--z0", "1e103", "--z1", "1e103", "--znum", "1", "--t", "2"],
    ["burgers", "--family", "nansatz", "--poles", "1:0,1:1", "--kmax", "2", "--delta", "1",
     "--z0", "1e-320", "--z1", "1e-320", "--znum", "1", "--t", "2"],
])
def test_float_overflow_is_domain_error(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("kmax", [90, 120])
def test_eval_high_truncation(kmax, delta, capsys):
    # (2k+delta)! overflows a float from K = 86 on; the series must not
    argv = [
        "eval", "--family", "nansatz", "--poles", "1:0,1:1", "--delta", str(delta), "--kmax", str(kmax),
        "--t", "1.5,3", "--z0", "-2", "--z1", "2", "--znum", "9",
    ]
    assert run(argv) == 0
    psi = closed_form_1ansatz(delta, MobiusParam(1, 0), MobiusParam(1, 1))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 2 * 9
    for line in lines[1:]:
        t, z, value = (float(p) for p in line.split(","))
        assert value == pytest.approx(psi(z, t), rel=1e-12)


def test_help_available():
    for sub in ("phi", "dk", "verify", "trajectory", "eval", "burgers"):
        code, out, _ = cli(sub, "--help")
        assert code == 0
        assert "usage" in out.lower()


def test_byte_determinism():
    args = (
        "eval", "--family", "1ansatz", "--poles", "1:0,1:1", "--t", "1.5,2.5",
        "--z0", "-1", "--z1", "1", "--znum", "9",
    )
    _, a, _ = cli(*args)
    _, b, _ = cli(*args)
    assert a == b


def test_run_function_direct(capsys):
    assert run(["dk", "--k", "1"]) == 0
    assert capsys.readouterr().out == "D_1 = y2 + y1^2\n"
    assert run(["eval", "--family", "0ansatz", "--poles", "0:0", "--t", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_parser_subcommands_complete():
    parser = build_parser()
    subactions = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    assert set(subactions.choices) == {"phi", "dk", "verify", "trajectory", "eval", "burgers"}
