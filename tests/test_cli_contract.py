"""The CLI error contract as a property over edge-valued command lines.

Every run of ``eval``, ``burgers``, ``trajectory``, ``phi`` and ``dk`` ends in one of three ways:
exit 0 with finite CSV values, exit 1 with nothing on stdout and one ``error:`` line on stderr
(a floating-point overflow names ``t = `` or ``z = ``), or exit 2 with the argparse usage and
nothing on stdout.  No exception escapes ``run``.  Work stays small: K <= 20, at most 5 grid
points per axis, and RK4 windows of one to three steps or between two edge values, whose step
count is at most a few hundred or so large that the run is refused.
"""

import contextlib
import io
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from heatansatz.cli import run  # noqa: E402

# edge values that are numbers, and values that are not (1e400 is exact but too large for a float);
# hypothesis leans to the first entry of a list, so plain values come first
FINITE = ["2", "1", "3.5", "-1", "1/3", "0", "-0", "5e-324", "1e-300", "1e308"]
JUNK = ["1e400", "nan", "inf", "-inf", "x", "1:2"]
STEPS = ["5e-324", "1e-300", "0.01", "0.5", "1", "1e300"]
POLES = ["1:0", "1:1", "2:-1", "1:-2", "0:1", "1e308:1"]
FLAG = True  # a store_true option, given without a value


def grid_slots(draw, command, poles):
    """(option, good values, bad values) of an eval or burgers run; a good None leaves the option out."""
    if draw(st.booleans()):
        times = [("--t", [",".join(draw(st.lists(st.sampled_from(FINITE), min_size=1, max_size=2)))], JUNK)]
    else:
        times = [("--t0", [None, *FINITE], JUNK), ("--t1", FINITE, JUNK), ("--tnum", ["1", "2", "3"], ["0", "x"])]
    return [
        ("--family", ["0ansatz", "1ansatz", "nansatz"], ["2ansatz"]),
        ("--delta", [None, "0", "1"], ["2", "x"]),
        ("--poles", [None, poles], ["1:x", "1:0,1:1/0"]),
        ("--kmax", [None, "2", "5", "20"], ["-1", "1", "x", "201"]),
        ("--z0", [None, *FINITE], JUNK),
        ("--z1", [None, *FINITE], JUNK),
        ("--znum", ["1", "3", "5"], ["0", "-2", "x"]),
        *times,
        ("--r0" if command == "eval" else "--mu", [None, *FINITE], JUNK),
    ]


def trajectory_slots(draw, poles):
    """A window of one to three steps, or one between two edge values (whose step count is tiny or refused)."""
    t0, step = draw(st.sampled_from(FINITE)), draw(st.sampled_from(STEPS))
    ends = [repr(float(Fraction(t0)) + m * float(step)) for m in (1, 2, 3)]
    count = len(poles.split(","))
    return [
        ("--n", [str(count - 1)], ["-1", "x", str(count)]),
        ("--poles", [poles], ["1:x"]),
        ("--t0", [t0], JUNK),
        ("--t1", [*ends, *FINITE], JUNK),
        ("--step", [step], ["0", "-1", "nan", "inf", "x"]),
    ]


TABLE_SLOTS = {
    "phi": [
        ("--table", ["phi", "y", "q"], ["z"]),
        ("--qmax", [None, "2", "6", "20"], ["-1", "0", "1", "31", "x"]),
        ("--n", [None, "0", "1", "4", "20"], ["-1", "31", "x"]),
        ("--delta", [None, "0", "1"], ["2"]),
        ("--json", [None, FLAG], ["x"]),
    ],
    "dk": [("--k", [None, "1", "3", "20"], ["-1", "0", "31", "x"]), ("--json", [None, FLAG], ["x"])],
}


@st.composite
def command_lines(draw):
    """One command line: every option from its good values, or one option from its bad ones."""
    command = draw(st.sampled_from(["eval", "burgers", "trajectory", "phi", "dk"]))
    poles = ",".join(draw(st.lists(st.sampled_from(POLES), min_size=1, max_size=4)))
    if command in ("eval", "burgers"):
        slots = grid_slots(draw, command, poles)
    elif command == "trajectory":
        slots = trajectory_slots(draw, poles)
    else:
        slots = TABLE_SLOTS[command]
    bad = draw(st.sampled_from([None, *range(len(slots))]))  # None keeps every option good
    argv = [command]
    for i, (name, good, junk) in enumerate(slots):
        value = draw(st.sampled_from(junk if i == bad else good))
        if value is FLAG:
            argv.append(name)
        elif value is not None:
            argv.append(f"{name}={value}")  # with "=", a leading minus stays a value
    return argv


def outcome(argv):
    """(exit code, stdout, stderr) of one in-process run; any other exception escapes as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(command_lines())
def test_every_command_line_keeps_the_error_contract(argv):
    code, out, err = outcome(argv)
    if code == 0:
        assert err == "" and out
        if argv[0] in ("eval", "burgers", "trajectory"):
            for row in out.splitlines()[1:]:
                assert all(math.isfinite(float(cell)) for cell in row.split(","))
    elif code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        if err.startswith("error: floating-point overflow"):
            assert "t = " in err or "z = " in err
    else:
        assert code == 2
        assert out == "" and err.startswith("usage: heatansatz")
