"""Command-line interface.

Subcommands: ``phi`` (coefficient tables), ``dk`` (chain polynomials),
``verify`` (built-in check suites), ``trajectory`` (RK4 on the reduced
system), ``eval`` (solution values on a grid), ``burgers`` (Cole-Hopf
image values).  Exit codes: 0 success, 1 domain error (pole, grading
violation, bad parameters), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

from .ansatz import AnsatzSpec, general_phi_table, jet_phi_remainders, jet_phi_table
from .dynsys import (
    DynState,
    IntegrationError,
    MobiusParam,
    PoleError,
    RationalH,
    compiled_field,
    rational_top,
    reduced_initial_state,
    rk4_integrate,
    rk4_step_count,
)
from .operators import basis_name, derivative_chain
from .solution import _axis, assemble_psi, closed_form_0ansatz, cole_hopf, rescale_to_mu
from .verify import run_suite


def fmt(value) -> str:
    """Format one CSV cell; floats carry 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(rows, header) -> str:
    """Rows of cells to CSV text with LF line endings."""
    width = len(header)
    lines = [",".join(header)]
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged CSV row")
        lines.append(",".join(fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _positive_int(text: str) -> int:
    """argparse type for grid counts: an empty grid is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
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
    """argparse type for times: exact, so nan, inf or a malformed value is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def _parse_poles(text: str) -> tuple[MobiusParam, ...]:
    return tuple(MobiusParam.parse(part) for part in text.split(","))


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
    if args.table == "y":
        table = jet_phi_table(args.delta, args.qmax)
        _print_table([f"Y_{k}" for k in range(args.qmax + 1)], table.entries, args.json)
        return 0
    if args.table == "q":
        tails = jet_phi_remainders(args.delta, args.qmax)
        labels = [f"Q_{k}" for k in range(2, args.qmax + 1)]
        _print_table(labels, tails[2 : args.qmax + 1], args.json, names=basis_name)
        return 0
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
    poles = _parse_poles(args.poles)
    if len(poles) != args.n + 1:
        raise ValueError(f"n = {args.n} needs {args.n + 1} pole parameters")
    if args.n < 1:
        raise ValueError("the reduced system needs n >= 1")
    if args.t1 < args.t0:
        raise ValueError("--t1 must not precede --t0")
    h = RationalH(args.n, poles)
    state = reduced_initial_state(h, args.n, args.t0)
    start = DynState(float(args.t0), tuple(float(v) for v in state))
    t_end = float(args.t1)
    if rk4_step_count(t_end - start.t, args.step) > 10**6:
        raise ValueError(f"--step {args.step:g} needs more than 10^6 steps from --t0 to --t1")
    trajectory = rk4_integrate(compiled_field(_family_spec(args.n, 0)), start, t_end, args.step)
    header = ["t"] + [f"x{i + 1}" for i in range(args.n + 1)]
    rows = [(s.t, *s.x) for s in trajectory]
    sys.stdout.write(emit_csv(rows, header))
    return 0


def _grid(args) -> list[tuple[Fraction, float]]:
    """The (t, z) points of an eval or burgers grid, t outside z."""
    if args.t is not None:
        ts = args.t
    elif args.t1 is None or args.tnum is None:
        raise ValueError("give either --t or all of --t0/--t1/--tnum")
    else:
        ts = _axis(args.t0, args.t1, args.tnum)
    zs = _axis(args.z0, args.z1, args.znum)
    return [(t, z) for t in ts for z in zs]


def _family_setup(args):
    default = "1:0,1:1" if args.family == "1ansatz" else "1:0"
    poles = _parse_poles(default if args.poles is None else args.poles)
    expected = {"0ansatz": 1, "1ansatz": 2}.get(args.family, len(poles))
    if len(poles) != expected:
        raise ValueError(f"{args.family} needs {expected} pole parameter(s)")
    n = len(poles) - 1
    return RationalH(n, poles), n


def _family_spec(n: int, delta: int) -> AnsatzSpec:
    return AnsatzSpec.reduced(n, delta, rational_top(n))


def _series(args, h: RationalH, n: int, r0):
    if args.kmax < 2:  # checked only where a series is built
        raise ValueError("--kmax must be at least 2")
    return assemble_psi(_family_spec(n, args.delta), h, r0, args.kmax)


def cmd_eval(args) -> int:
    h, n = _family_setup(args)
    if args.family == "0ansatz":
        fn = closed_form_0ansatz(args.delta, h.poles[0], args.r0)
    else:
        fn = _series(args, h, n, args.r0).psi
    rows = [(float(t), z, fn(z, float(t))) for t, z in _grid(args)]
    sys.stdout.write(emit_csv(rows, ["t", "z", "value"]))
    return 0


def cmd_burgers(args) -> int:
    h, n = _family_setup(args)
    image = cole_hopf(_series(args, h, n, 0.0))
    # the mu-Burgers image of the same family: 2 mu * v(z, 2 mu t)
    v = rescale_to_mu(image.v, args.mu)
    rows = [(float(t), z, 2 * args.mu * v(z, float(t))) for t, z in _grid(args)]
    sys.stdout.write(emit_csv(rows, ["t", "z", "value"]))
    return 0


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
    p.add_argument("--k", type=int, default=4)
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
    sys.exit(run())


if __name__ == "__main__":
    main()
