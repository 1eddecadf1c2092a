"""Command-line interface.

Subcommands: ``phi`` (coefficient tables), ``dk`` (chain polynomials),
``verify`` (built-in check suites), ``trajectory`` (RK4 on the reduced
system, n >= 0), ``eval`` (solution values on a grid), ``burgers``
(Cole-Hopf image values).  ``eval`` and ``burgers`` evaluate the
truncated series of every family, the 0-ansatz included (it is the
one-pole member n = 0), through one grid writer; the closed forms in
``solution`` are reference oracles only.  Exit codes: 0 success, 1 domain
error (pole, grading violation, bad parameters) or a closed output pipe,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from array import array
from fractions import Fraction

from .ansatz import AnsatzSpec, general_phi_table, jet_phi_remainders, jet_phi_table
from .dynsys import (
    DynState,
    IntegrationError,
    MobiusParam,
    PoleError,
    RationalH,
    rational_top,
    reduced_initial_state,
    rk4_integrate,
    rk4_step_count,
)
from .operators import basis_name, derivative_chain
from .solution import _axis, _finite, assemble_psi, cole_hopf
from .verify import run_suite


BLOCK = 1024  # lines per CSV write: one write per row made a 10^6-row trajectory into a pipe 35 % slower


def _write_csv(header, blocks) -> None:
    """Write the CSV header, then each block, a format of at most BLOCK lines and its cells, with one %."""
    sys.stdout.write(",".join(header) + "\n")
    for line_format, cells in blocks:
        sys.stdout.write(line_format % cells)


def emit_csv(rows, header) -> None:
    """Write rows of floats to stdout as CSV with LF line endings, each cell with 17 significant digits,
    each block of BLOCK rows formatted by one %; a row of the wrong width raises TypeError."""
    line, rows = ",".join(["%.17g"] * len(header)) + "\n", iter(rows)

    def blocks():
        while block := [*itertools.islice(rows, BLOCK)]:
            if {*map(len, block)} != {len(header)}:  # one % over the block would let widths cancel
                raise TypeError(f"CSV rows must have {len(header)} cells")
            yield line * len(block), tuple(itertools.chain.from_iterable(block))

    _write_csv(header, blocks())


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    """argparse type for grid counts: an empty grid is a usage error."""
    if (value := _int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


# dk --k 30 takes seconds and prints 1.5 MB, and each further 4 orders cost about 3x more; the jet
# tables Y_k and tails Q_k of phi --table y|q grow like D_k and share the bound, and so do the order
# and ring size of phi --table phi (--n 30 --qmax 30 --json: 0.4 s, 0.84 MB; --n 40 --qmax 40: 3.2 s)
DK_MAX = 30
# rational_top(15), built for 16 poles, takes 0.64 s, and every 2 more poles cost 2.5x more
POLES_MAX = 16
# eval --t 2 --znum 1000000 takes 5-7 s and prints 42 MB
GRID_MAX = 10**6
# the largest --kmax for 1, 2, ..., 6 and 7 or more poles, for eval and burgers alike, as burgers reads v from
# psi's slice: the table grows like K^(n-1); the costliest admitted runs, eval or burgers at 16 poles and K = 40,
# take about 1 s, and at 4 poles and K = 150 0.4-0.6 s
KMAX = (200, 200, 200, 150, 90, 60, 40)


def _chain_order(text: str) -> int:
    """argparse type for dk --k: more than DK_MAX orders is a usage error."""
    if (value := _int(text)) > DK_MAX:
        raise argparse.ArgumentTypeError(f"must be at most {DK_MAX}, got {value}")
    return value


def _finite_float(text: str) -> float:
    """argparse type for float options: nan or inf is a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for --step: zero, a negative value, nan or inf is a usage error."""
    if (value := _finite_float(text)) <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _rational(text: str) -> Fraction:
    """argparse type for times: exact and finite as a float; nan, inf, 1e400 or a malformed value is a usage error."""
    try:
        value = Fraction(text)
        float(value)  # the rows print it; int / int raises OverflowError where a float would be inf
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None
    except OverflowError:
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}") from None
    return value


def _parse_poles(text: str) -> tuple[MobiusParam, ...]:
    parts = text.split(",")
    if len(parts) > POLES_MAX:
        raise ValueError(f"--poles lists {len(parts)} poles, at most {POLES_MAX} are allowed")
    return tuple(MobiusParam.parse(part) for part in parts)


def _print_table(labels, polys, as_json: bool, names=None) -> None:
    for label, poly in zip(labels, polys):
        if as_json:
            print(poly.to_json())
        else:
            print(f"{label} = {poly.to_text(names=names)}")


def cmd_phi(args) -> int:
    least = {"phi": 2, "y": 1, "q": 2}[args.table]  # the shortest table each recursion builds
    if args.qmax < least:
        raise ValueError(f"--qmax must be at least {least} for --table {args.table}")
    if args.qmax > DK_MAX:
        raise ValueError(f"--qmax must be at most {DK_MAX} for --table {args.table}")
    if args.table == "y":
        table = jet_phi_table(args.delta, args.qmax)
        _print_table([f"Y_{k}" for k in range(args.qmax + 1)], table.entries, args.json)
        return 0
    if args.table == "q":
        tails = jet_phi_remainders(args.delta, args.qmax)
        labels = [f"Q_{k}" for k in range(2, args.qmax + 1)]
        _print_table(labels, tails[2 : args.qmax + 1], args.json, names=basis_name)
        return 0
    if args.n > DK_MAX:
        raise ValueError(f"--n must be at most {DK_MAX} for --table phi")
    table = general_phi_table(AnsatzSpec.chain(args.n, args.delta), args.qmax)
    _print_table([f"Phi_{k}" for k in range(args.qmax + 1)], table.entries, args.json)
    return 0


def cmd_dk(args) -> int:
    if args.k < 1:
        raise ValueError("--k must be at least 1")
    chain = derivative_chain(args.k)
    _print_table([f"D_{i + 1}" for i in range(args.k)], chain, args.json)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = 0
    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if not failed else 1


def cmd_trajectory(args) -> int:
    h = RationalH(args.n, _parse_poles(args.poles))
    if args.t1 < args.t0:
        raise ValueError("--t1 must not precede --t0")
    state = reduced_initial_state(h, args.n, args.t0)
    t0, t_end = float(args.t0), float(args.t1)
    try:
        start = DynState(t0, tuple(float(v) for v in state))
    except OverflowError:  # an exact component too large for a float
        raise OverflowError(f"start state not finite at t = {t0}") from None
    if rk4_step_count(t_end - t0, args.step) > 10**6:
        raise ValueError(f"--step {args.step:g} needs more than 10^6 steps from --t0 to --t1")
    try:
        trajectory = rk4_integrate(_family_spec(args.n, 0), start, t_end, args.step)
    except OverflowError:  # a stage value past the float range: the loop's own message names no time
        raise OverflowError(f"RK4 stage not finite between t = {t0} and t = {t_end}") from None
    header = ["t"] + [f"x{i + 1}" for i in range(args.n + 1)]
    emit_csv(((t, *x) for t, x in trajectory), header)
    return 0


@functools.cache  # a pure function of two ints: each spec (about 0.1 ms to build) is built once per process
def _family_spec(n: int, delta: int) -> AnsatzSpec:
    return AnsatzSpec.reduced(n, delta, rational_top(n))


def _series(args, r0):
    """The series solution of an eval or burgers family: the pole count, --kmax, then the grid size is checked."""
    default = "1:0,1:1" if args.family == "1ansatz" else "1:0"
    poles = _parse_poles(default if args.poles is None else args.poles)
    expected = {"0ansatz": 1, "1ansatz": 2}.get(args.family, len(poles))
    if len(poles) != expected:
        raise ValueError(f"{args.family} needs {expected} pole parameter(s)")
    if args.kmax < 2:
        raise ValueError("--kmax must be at least 2")
    if args.kmax > (kmax := KMAX[min(len(poles), 7) - 1]):
        raise ValueError(f"--kmax must be at most {kmax} for {len(poles)} pole(s)")
    times = len(args.t) if args.t is not None else args.tnum or 0
    if times * args.znum > GRID_MAX:
        raise ValueError(f"{times} time(s) by --znum {args.znum} is more than 10^6 grid points")
    n = len(poles) - 1
    return assemble_psi(_family_spec(n, args.delta), RationalH(n, poles), r0, args.kmax)


def _write_grid(args, row) -> int:
    """Write the (t, z) grid of an eval or burgers run as CSV, t outside z, where ``row(t, zs)`` gives the values
    at one time from one slice.  Each t and z is formatted once, into the line formats, so a line formats its value.

    Every value is computed before the first row is written, so an error leaves stdout empty."""
    if args.t is not None:
        ts = args.t
    elif args.t1 is None or args.tnum is None:
        raise ValueError("give either --t or all of --t0/--t1/--tnum")
    else:
        ts = _axis(args.t0, args.t1, args.tnum)
    zs = _axis(args.z0, args.z1, args.znum)
    ts = [float(t) for t in ts]
    values = [array("d", row(t, zs)) for t in ts]  # 8 bytes a value, as a grid may hold 10^6 of them
    # one string per block of z lines, "\0z,%.17g\n" each, whose "\0" take a t cell: a float's %.17g holds no \0 or %
    z_blocks = ["".join(["\0%.17g,%%.17g\n" % z for z in zs[i : i + BLOCK]]) for i in range(0, len(zs), BLOCK)]
    _write_csv(["t", "z", "value"], ((z_block.replace("\0", t_cell), tuple(vs[i * BLOCK : (i + 1) * BLOCK]))
                                     for t_cell, vs in zip(["%.17g," % t for t in ts], values)
                                     for i, z_block in enumerate(z_blocks)))
    return 0


def cmd_eval(args) -> int:
    sol = _series(args, args.r0)
    return _write_grid(args, lambda t, zs: map(sol.at(t).psi, zs))


def cmd_burgers(args) -> int:
    # the mu-Burgers image of the same family: 2 mu * v(z, 2 mu t)
    image, two_mu = cole_hopf(_series(args, 0.0)), 2 * args.mu
    if args.mu == 0:
        raise ValueError("mu must be nonzero")
    scaled = lambda v, zs: [_finite(two_mu * v(z), "v", z) for z in zs]
    return _write_grid(args, lambda t, zs: scaled(image.at(two_mu * t).v, zs))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="heatansatz", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="print coefficient tables")
    p.add_argument("--table", choices=["phi", "y", "q"], default="phi")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--delta", type=int, choices=[0, 1], default=0)
    p.add_argument("--qmax", type=int, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("dk", help="print the chain polynomials")
    p.add_argument("--k", type=_chain_order, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_dk)

    p = sub.add_parser("verify", help="run the built-in check suites")
    p.add_argument("--suite", choices=["operators", "ansatz", "dynsys", "solution", "all"], default="all")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("trajectory", help="integrate the reduced system of the pole family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poles", required=True, help="comma-separated alpha:beta pairs")
    p.add_argument("--t0", type=_rational, required=True)
    p.add_argument("--t1", type=_rational, required=True)
    p.add_argument("--step", type=_positive_float, default=1e-3)
    p.set_defaults(fn=cmd_trajectory)

    for name, fn in (("eval", cmd_eval), ("burgers", cmd_burgers)):
        p = sub.add_parser(name, help=f"emit {'solution' if name == 'eval' else 'Burgers image'} values on a grid")
        p.add_argument("--family", choices=["0ansatz", "1ansatz", "nansatz"], default="0ansatz")
        p.add_argument("--delta", type=int, choices=[0, 1], default=0)
        p.add_argument("--poles", help="comma-separated alpha:beta pairs (default 1:0, or 1:0,1:1 for 1ansatz)")
        p.add_argument("--kmax", type=int, default=10)
        p.add_argument("--z0", type=_finite_float, default=-1.0)
        p.add_argument("--z1", type=_finite_float, default=1.0)
        p.add_argument("--znum", type=_positive_int, default=21)
        p.add_argument("--t", type=lambda text: [_rational(part) for part in text.split(",")],
                       help="comma-separated sample times")
        p.add_argument("--t0", type=_rational, default=Fraction(1))
        p.add_argument("--t1", type=_rational)
        p.add_argument("--tnum", type=_positive_int, default=None)
        if name == "eval":
            p.add_argument("--r0", type=_finite_float, default=0.0)
        else:
            p.add_argument("--mu", type=_finite_float, default=0.5)
        p.set_defaults(fn=fn)

    return parser


_parser = functools.cache(build_parser)  # built once: that costs more than a small command


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PoleError, IntegrationError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: floating-point overflow ({exc})", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's final flush
    except BrokenPipeError:  # the reader has gone: no traceback, and devnull takes the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
