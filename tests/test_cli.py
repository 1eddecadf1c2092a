"""CLI surface: dispatch, CSV contract, exit codes, determinism."""

import hashlib
import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import heatansatz.cli as cli_module
from heatansatz.cli import build_parser, emit_csv, run
from heatansatz.ansatz import AnsatzSpec
from heatansatz.dynsys import MobiusParam, RationalH, rational_top
from heatansatz.solution import _axis, assemble_psi, closed_form_0ansatz, closed_form_1ansatz, cole_hopf


def _poles(text):
    return tuple(MobiusParam.parse(part) for part in text.split(","))


def cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "heatansatz.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_emit_csv_contract(capsys):
    def csv(rows, header):
        emit_csv(rows, header)
        return capsys.readouterr().out

    assert csv([], ["a", "b"]) == "a,b\n"
    assert csv([(1, 2.5)], ["a", "b"]) == "a,b\n1,2.5\n"
    assert csv([(0.5, 3)], ["a", "b"]) == "a,b\n0.5,3\n"
    # 17 significant digits round-trip every float
    values = (1 / 3, 1e-17, 123456.789, -0.1)
    cells = csv([values], ["a", "b", "c", "d"]).splitlines()[1].split(",")
    assert tuple(map(float, cells)) == values
    # rows run across the block boundary as they would one by one
    rows = [(i / 7, -i) for i in range(2 * cli_module.BLOCK + 5)]
    assert csv(rows, ["a", "b"]) == "a,b\n" + "".join("%.17g,%.17g\n" % row for row in rows)
    with pytest.raises(TypeError):
        emit_csv([(1,)], ["a", "b"])
    # a block is formatted by one %, over which a 3-cell and a 1-cell row would cancel
    with pytest.raises(TypeError):
        emit_csv([(1, 2, 3), (4,)], ["a", "b"])


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


@pytest.mark.parametrize("k", ["31", "5000"])
def test_dk_order_is_bounded(k, capsys):
    # D_k grows like a partition count: --k 30 prints 1.5 MB, so a larger order is a usage error
    began = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run(["dk", "--k", k])
    assert exc.value.code == 2
    assert time.perf_counter() - began < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "argument --k:" in line] == [
        f"heatansatz dk: error: argument --k: must be at most 30, got {k}"
    ]


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


@pytest.mark.parametrize("table", ["y", "q", "phi"])
def test_jet_table_order_is_bounded(table, capsys):
    # Y_k and Q_k grow like D_k: --qmax 30 prints over 1 MB, so a larger order ends at once;
    # the Phi table shares the bound (phi --n 4 --qmax 100 ran 2 s and printed 7.3 MB)
    began = time.perf_counter()
    assert run(["phi", "--table", table, "--qmax", "31"]) == 1
    assert time.perf_counter() - began < 1.0
    assert capsys.readouterr() == ("", f"error: --qmax must be at most 30 for --table {table}\n")


SIXTEEN_POLES = ",".join(f"1:{-k}" for k in range(16))
P4 = "1:0,1:1,2:-1,1:-2"


@pytest.mark.parametrize("argv, message", [
    # phi --n 1000 --qmax 8 ran 1.6 s for 312 bytes
    (["phi", "--n", "31", "--qmax", "8"], "--n must be at most 30 for --table phi"),
    # eval --t 2 --znum 1000000 ran 5 s and printed 42 MB
    (["eval", "--t", "2", "--znum", "1000001"], "1 time(s) by --znum 1000001 is more than 10^6 grid points"),
    (["eval", "--t", "1,2", "--znum", "500001"], "2 time(s) by --znum 500001 is more than 10^6 grid points"),
    (["burgers", "--t1", "2", "--tnum", "1001", "--znum", "1000"],
     "1001 time(s) by --znum 1000 is more than 10^6 grid points"),
    # rational_top(16), built for 17 poles, alone takes 1.2 s, and 2.5x more for every 2 poles beyond
    (["eval", "--family", "nansatz", "--poles", SIXTEEN_POLES + ",1:-16", "--t", "1"],
     "--poles lists 17 poles, at most 16 are allowed"),
    (["trajectory", "--n", "16", "--poles", SIXTEEN_POLES + ",1:-16", "--t0", "1", "--t1", "2"],
     "--poles lists 17 poles, at most 16 are allowed"),
    # the table grows like K^(n-1): eval at 4 poles and K = 200 ran 2.8 s; burgers reads psi's slice
    # and shares the bound
    (["eval", "--family", "nansatz", "--poles", "1:0,1:1,2:-1", "--kmax", "201", "--t", "3"],
     "--kmax must be at most 200 for 3 pole(s)"),
    (["eval", "--family", "nansatz", "--poles", P4, "--kmax", "151", "--t", "3"],
     "--kmax must be at most 150 for 4 pole(s)"),
    (["eval", "--family", "nansatz", "--poles", SIXTEEN_POLES, "--kmax", "41", "--t", "17"],
     "--kmax must be at most 40 for 16 pole(s)"),
    (["burgers", "--kmax", "201", "--t", "3"], "--kmax must be at most 200 for 1 pole(s)"),
    (["burgers", "--family", "nansatz", "--poles", P4, "--kmax", "151", "--t", "3"],
     "--kmax must be at most 150 for 4 pole(s)"),
])
def test_work_bounds_end_at_once(argv, message, capsys):
    began = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - began < 1.0
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["phi", "--n", "30", "--qmax", "30", "--json"],
    ["eval", "--family", "nansatz", "--poles", SIXTEEN_POLES, "--t", "17", "--znum", "2"],
    ["eval", "--family", "nansatz", "--poles", "1:0,1:1,2:-1", "--kmax", "200", "--t", "3", "--znum", "2"],
    ["burgers", "--family", "nansatz", "--poles", "1:0,1:1", "--kmax", "200", "--t", "3", "--znum", "2"],
    ["burgers", "--family", "nansatz", "--poles", P4, "--kmax", "150", "--t", "17", "--znum", "2"],
])
def test_work_bounds_admit_their_limit(argv, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out


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


def test_trajectory_one_pole_tracks_inverse_time(capsys):
    # n = 0 is the one-pole chain h' = -h^2, solved by h = 1/t for the pole 1:0
    assert run(["trajectory", "--n", "0", "--poles", "1:0", "--t0", "1", "--t1", "2", "--step", "1e-3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["t,x1", "1,1"]
    t, x1 = (float(cell) for cell in lines[-1].split(","))
    assert t == 2.0 and abs(x1 - 0.5) < 1e-12


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


@pytest.mark.parametrize("option, value", [
    ("--t0", "nan"), ("--t1", "nan"), ("--t1", "x"), ("--t1", "-inf"),
    # exact, but too large for the float that the rows print
    ("--t0", "1e400"), ("--t1", "1e400"),
])
def test_trajectory_times_are_rationals(option, value, capsys):
    argv = {"--t0": "3", "--t1": "4"} | {option: value}
    with pytest.raises(SystemExit) as exc:
        run(["trajectory", "--n", "1", "--poles", "1:0,1:1", *(f"{k}={v}" for k, v in argv.items())])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    message = f"must be finite, got {value!r}" if value == "1e400" else f"invalid rational value: {value!r}"
    assert captured.out == "" and f"argument {option}: {message}" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["trajectory", "--n", "1", "--poles", "1:0,1:1", "--t0", "4", "--t1", "3"], "--t1 must not precede --t0"),
    (["eval", "--family", "nansatz", "--kmax", "1", "--t", "2"], "--kmax must be at least 2"),
    (["eval", "--family", "1ansatz", "--kmax", "-3", "--t", "2"], "--kmax must be at least 2"),
    (["burgers", "--family", "nansatz", "--kmax", "1", "--t", "2"], "--kmax must be at least 2"),
    (["burgers", "--family", "0ansatz", "--kmax", "0", "--t", "2"], "--kmax must be at least 2"),
    (["eval", "--poles", "1:x", "--t", "1"], "pole '1:x' is not 'alpha:beta' with rational alpha and beta"),
    (["eval", "--poles", "1:1/0", "--t", "1"], "pole '1:1/0' is not 'alpha:beta' with rational alpha and beta"),
    (["eval", "--family", "0ansatz", "--kmax", "1", "--t", "2"], "--kmax must be at least 2"),
    (["trajectory", "--n", "1", "--poles", "1:0", "--t0", "1", "--t1", "2"], "need 2 pole parameters, got 1"),
    # 2 mu t is not finite: the rescaled time is a domain error, not zero jets and nan rows
    (["burgers", "--family", "1ansatz", "--t", "2", "--znum", "3", "--mu", "1e308"], "profile time not finite: t = inf"),
    (["burgers", "--family", "1ansatz", "--t", "2", "--znum", "3", "--mu=-1e308"], "profile time not finite: t = -inf"),
])
def test_option_bounds_name_the_option(argv, message, capsys):
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


@pytest.mark.parametrize("argv, message", [
    (["eval", "--poles", "1e400:0", "--t", "2", "--znum", "2"], "profile pole 1 is out of the float range at t = 2.0"),
    (["eval", "--poles", "1:1e400", "--t", "2", "--znum", "2"], "profile pole 1 is out of the float range at t = 2.0"),
    # alpha t - beta = 2e-400 is no pole, but alpha rounds to 0.0
    (["eval", "--poles", "1e-400:0", "--t", "2", "--znum", "2"], "profile pole 1 is out of the float range at t = 2.0"),
    (["burgers", "--family", "nansatz", "--poles", "1:0,0:1e400", "--t", "3", "--znum", "2"],
     "profile pole 2 is out of the float range at t = 3.0"),
    # a float time that lands on a pole
    (["eval", "--poles", "3:1", "--t", "1/3", "--znum", "2"], "profile pole at t = 0.3333333333333333"),
])
def test_pole_without_a_float_names_t(argv, message, capsys):
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("poles, same_as", [("0:1e-400", "0:1"), ("1:0,0:1e-400", "1:0,0:1")])
def test_vanishing_pole_whose_beta_underflows_is_no_pole(poles, same_as, capsys):
    # a pole (0 : beta) adds nothing to h, so no time is its pole, even where beta rounds to 0.0;
    # a nonzero alpha that rounds to 0.0 (1e-400:0 above) stays out of the float range
    outputs = []
    for p in (poles, same_as):
        assert run(["eval", "--family", "nansatz", "--poles", p, "--t", "2", "--znum", "2"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""
    if poles == "0:1e-400":  # h = 0 and psi = 1
        assert outputs[0].out == "t,z,value\n2,-1,1\n2,1,1\n"


def test_pole_without_a_float_keeps_exact_work(capsys):
    # the exact start state of (1e400 : 0) is that of (1 : 0), h = 1/t
    outputs = []
    for pole in ("1e400:0", "1:0"):
        assert run(["trajectory", "--n", "0", "--poles", pole, "--t0", "2", "--t1", "3"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


def test_grid_matches_the_row_by_row_writer_property(capsys, monkeypatch):
    # eval and burgers print, byte for byte, "%.17g,%.17g,%.17g\n" % (t, z, v) with v = sol.psi(z, t) or the
    # rescaled image 2 mu v(z, 2 mu t); an error leaves stdout empty, as it did row by row
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(
        st.sampled_from(["eval", "burgers"]),
        st.sampled_from(["1:0", "1:0,1:1", "1:0,1:1,2:-1", "2:-1,0:1"]),
        st.integers(0, 1),
        st.integers(2, 12),
        st.lists(st.sampled_from(["2", "3", "5/2", "2", "4.75", "17/4"]), min_size=1, max_size=4),
        st.sampled_from([("-1", "1"), ("0.5", "1.5"), ("-0.0", "-0.0"), ("0.25", "0.25"), ("-0.0", "2")]),
        st.integers(1, 7),
        st.sampled_from(["0.5", "0.25", "1", "0.3"]),
        st.sampled_from([cli_module.BLOCK, 1, 2, 5]),  # small blocks split the time rows
    )
    def check(command, poles, delta, kmax, times, zs, znum, mu, block):
        argv = [command, "--family", "nansatz", "--poles", poles, "--delta", str(delta), "--kmax", str(kmax),
                "--t", ",".join(times), "--z0", zs[0], "--z1", zs[1], "--znum", str(znum)]
        argv += ["--mu", mu] if command == "burgers" else ["--r0", "0.5"]
        monkeypatch.setattr(cli_module, "BLOCK", block)
        n = poles.count(",")
        r0 = 0.0 if command == "burgers" else 0.5
        sol = assemble_psi(AnsatzSpec.reduced(n, delta, rational_top(n)), RationalH(n, _poles(poles)), r0, kmax)
        if command == "burgers":
            v, two_mu = cole_hopf(sol).v, 2 * float(mu)
            value = lambda z, t: two_mu * v(z, two_mu * t)
        else:
            value = sol.psi
        try:
            expect = "t,z,value\n" + "".join(
                "%.17g,%.17g,%.17g\n" % (t, z, value(z, t))
                for t in (float(Fraction(text)) for text in times) for z in _axis(float(zs[0]), float(zs[1]), znum))
        except ZeroDivisionError:  # the odd image's pole at z = 0
            expect = ""
        code = run(argv)
        out = capsys.readouterr().out
        assert (code, out) == ((0, expect) if expect else (1, ""))

    check()


@pytest.mark.parametrize("delta", ["0", "1"])
def test_eval_vanishing_pole_closed_form_matches_series(delta, capsys):
    # the 0-ansatz is the one-pole series, so both families print the same bytes; the pole (0:1)
    # is the profile h = 0, where both print psi = e^{r0} z^delta
    for pole, r0 in itertools.product(("0:1", "1:0", "2:-1"), ("0", "0.5")):
        outputs = []
        for family in ("0ansatz", "nansatz"):
            argv = ["eval", "--family", family, "--poles", pole, "--delta", delta, "--t", "1,2", "--r0", r0]
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
    ("--t", "1e400"), ("--t", "2,1e400"), ("--tnum", "3", "--t1", "1e400"),
])
def test_empty_grid_is_usage_error(command, grid, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--family", "0ansatz", "--t0", "1", *grid])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    if grid[0] == {"eval": "--mu", "burgers": "--r0"}[command]:
        message = "unrecognized arguments"  # burgers has no --r0 (v does not depend on it), eval no --mu
    elif len(grid) > 1 and grid[-2] in ("--t", "--t0", "--t1"):  # the bad time, or --t item, comes last
        bad = grid[-1].split(",")[-1]
        message = f"argument {grid[-2]}: " + (f"must be finite, got {bad!r}" if bad == "1e400"
                                              else f"invalid rational value: {bad!r}")
    elif grid[-1] in ("x", "1/2"):
        message = "invalid float value"
    elif grid[0].startswith(("--z0", "--z1", "--r0", "--mu")):
        message = "must be finite"
    else:
        message = "must be a positive integer"
    assert captured.out == "" and message in captured.err


OVERFLOWS = [
    (["eval", "--family", "0ansatz", "--r0", "1000", "--t", "2"],
     "floating-point overflow (prefactor not finite at t = 2.0)"),
    (["eval", "--family", "nansatz", "--poles", "1:0,1:1", "--kmax", "30", "--z0", "2e6", "--znum", "1", "--t", "2"],
     "floating-point overflow (series not finite at z = 2000000.0)"),
    # finite bounds whose span overflows
    (["eval", "--family", "0ansatz", "--z0=-1e308", "--z1", "1e308", "--znum", "3", "--t", "2"],
     "grid from -1e+308 to 1e+308 has a span that is not finite"),
    (["eval", "--family", "nansatz", "--z0=-1e308", "--z1", "1e308", "--znum", "3", "--t", "2"],
     "grid from -1e+308 to 1e+308 has a span that is not finite"),
    # a finite series whose final factor z, z^3 or delta/z leaves the float range
    (["eval", "--family", "nansatz", "--poles", "1:0,1:1", "--kmax", "2", "--delta", "1",
      "--z0", "1e76", "--z1", "1e76", "--znum", "1", "--t", "2"],
     "floating-point overflow (series not finite at z = 1e+76)"),
    (["burgers", "--family", "nansatz", "--poles", "1:0,1:1", "--kmax", "2",
      "--z0", "1e103", "--z1", "1e103", "--znum", "1", "--t", "2"],
     "floating-point overflow (v not finite at z = 1e+103)"),
    (["burgers", "--family", "nansatz", "--poles", "1:0,1:1", "--kmax", "2", "--delta", "1",
      "--z0", "1e-320", "--z1", "1e-320", "--znum", "1", "--t", "2"],
     "floating-point overflow (v not finite at z = 1e-320)"),
    # a time so close to, or so far from, a pole that the prefactor or the profile jets leave the float range
    (["eval", "--family", "0ansatz", "--r0", "709", "--z0", "0", "--znum", "1", "--t", "1e-300"],
     "floating-point overflow (prefactor not finite at t = 1e-300)"),
    (["eval", "--family", "nansatz", "--delta", "1", "--z0", "0", "--znum", "1", "--t", "1e-300"],
     "floating-point overflow (prefactor not finite at t = 1e-300)"),
    (["eval", "--family", "1ansatz", "--znum", "1", "--t", "1e-300"],
     "floating-point overflow (profile jets not finite at t = 1e-300)"),
    (["eval", "--family", "1ansatz", "--znum", "1", "--t", "1e200"],
     "floating-point overflow (profile jets not finite at t = 1e+200)"),
    # the first rows are finite: no row is written before every value is known
    (["eval", "--z0", "0", "--z1", "1e308", "--znum", "3", "--t", "2"],
     "floating-point overflow (series not finite at z = 5e+307)"),
    # powers of the parameters leave the float range while a slice evaluates its coefficients
    *[([cmd, "--family", "nansatz", "--poles", "1:0,1:1,2:-1", "--t", "1e-100", "--znum", "3", "--kmax", "40"],
       "floating-point overflow (series coefficients not finite at t = 1e-100)") for cmd in ("eval", "burgers")],
    # a finite v whose rescaling 2 mu v leaves the float range
    (["burgers", "--family", "1ansatz", "--mu", "1e307", "--z0", "100", "--z1", "100", "--znum", "1", "--t", "1e-307"],
     "floating-point overflow (v not finite at z = 100.0)"),
    # the exact start state of a trajectory, too large for a float, names t0
    (["trajectory", "--n", "1", "--poles", "1:0,1:1", "--t0", "1e-300", "--t1", "1", "--step", "0.5"],
     "floating-point overflow (start state not finite at t = 1e-300)"),
    # an RK4 stage past the float range names the integration window, not the C library's errno text
    (["trajectory", "--n", "1", "--poles", "1:0,1:1", "--t0", "2", "--t1", "1e200", "--step", "1e200"],
     "floating-point overflow (RK4 stage not finite between t = 2.0 and t = 1e+200)"),
]


@pytest.mark.parametrize("argv, message", OVERFLOWS, ids=[f"argv{i}" for i in range(len(OVERFLOWS))])
def test_float_overflow_is_domain_error(argv, message, capsys):
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_closed_output_pipe_ends_quietly():
    # over 64 KiB of CSV into a pipe whose reader has gone: exit 1 and no traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "heatansatz.cli", "eval", "--family", "nansatz", "--znum", "5000", "--t", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")


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
