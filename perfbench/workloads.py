"""Seeded job generators and output checks for the three workloads.

A generator takes a ``random.Random`` and the freshly imported
``heatansatz`` modules and returns the jobs of one pass.  The sizes that
set a job's cost (n, truncation order, grid size, step) come from fixed
lists, so every seed yields the same mix of costs; the
seed picks the poles, windows, sample points, grid placement, random
polynomials; the job order is fixed.

A job's ``run(timed)`` calls the library through ``timed(fn, *args)``;
only those calls count toward the job's latency.  Parsing CLI output and
checking results happen outside them.  ``check(output)`` raises
``CheckFailed`` on a wrong result.

Domain rules for every input: all poles have alpha > 0 and lie at least
3/4 before the time window (so the profile is finite, the exp_r bases
are positive and the Gaussian factor decays), and odd-parity Burgers
grids keep |z| >= 1/2.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Tolerances, each from the accuracy of its path; set before the timing
# runs that fixed the benchmark's bounds.
FLOAT_RTOL = 1e-9     # float grid value vs closed form / exact series (scaled by max(1, |ref|))
FD_BOUND = 1e-5       # finite-difference residuals at dz = dt = 1e-3 (README error band)
RK4_RTOL = 1e-9       # RK4 end state vs exact state, steps <= 1e-3 (fourth order: ~1e-13 seen)
INTERP_C = 0.5        # trajectory-sourced psi: |error| <= INTERP_C * step^2 * max(1, |psi|); the
                      # interpolation is second order today, worst seen over 6 seeds 0.06 * step^2


class CheckFailed(Exception):
    """The program returned a wrong result."""


class NonZeroExit(Exception):
    """A CLI command returned a non-zero exit code."""


@dataclass
class Job:
    kind: str
    label: str
    run: Callable
    check: Callable


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def cli_call(cli, argv: list[str]) -> CliResult:
    """Run ``heatansatz.cli.run(argv)`` in-process with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def run_cli(timed, m, argv: list[str]) -> CliResult:
    res = timed(cli_call, m.cli, argv)
    if res.code != 0:
        raise NonZeroExit(f"exit code {res.code}: {res.err.strip()}")
    return res


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(value: float, ref: float, rtol: float, what: str) -> None:
    if not (math.isfinite(value) and abs(value - ref) <= rtol * max(1.0, abs(ref))):
        raise CheckFailed(f"{what}: got {value!r}, expected {ref!r}")


# -- inputs -----------------------------------------------------------------------


def sized(sizes, shift: int = 0) -> list[tuple[int, ...]]:
    """(parity, *size) for each entry of a fixed size list.  Parities
    alternate along the list, starting at ``shift``, and a size listed twice
    gets both, so every seed has the same mix of costs."""
    out, seen = [], {}
    for i, size in enumerate(sizes):
        repeat = seen[size] = seen.get(size, -1) + 1
        out.append(((i + shift + repeat) % 2, *(size if isinstance(size, tuple) else (size,))))
    return out


def interleaved(jobs: list[Job]) -> list[Job]:
    """The jobs in a mixed order that is the same for every seed, so the
    job that first fills the package's memo caches does not depend on it."""
    random.Random(0).shuffle(jobs)
    return jobs


def window_start(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(4, 12), 4)


def poles(rng: random.Random, n: int, t0: Fraction) -> list[tuple[Fraction, Fraction]]:
    """n+1 distinct poles (alpha, beta), alpha > 0, at times 3/4 to 4 before t0."""
    out = []
    for gap in rng.sample(range(3, 17), n + 1):
        alpha = Fraction(rng.randint(1, 3))
        out.append((alpha, alpha * (t0 - Fraction(gap, 4))))
    return out


def poles_arg(ps) -> str:
    return ",".join(f"{a}:{b}" for a, b in ps)


def profile(m, ps):
    return m.dynsys.RationalH(len(ps) - 1, tuple(m.dynsys.MobiusParam(a, b) for a, b in ps))


def family_spec(m, n: int, delta: int):
    """The CLI's nansatz family: plain chain for n < 2, rational top above."""
    if n < 2:
        return m.ansatz.AnsatzSpec.chain(n, delta)
    return m.ansatz.AnsatzSpec.reduced(n, delta, m.dynsys.rational_top(n))


def x_polys(m, n: int):
    X = m.grpoly.VariableFamily.X
    return [m.grpoly.GradedPoly.variable(X, n, k) for k in range(2, n + 2)]


def random_top(m, rng: random.Random, n: int):
    """A top polynomial P_n over x2..x_n of degree -2(n+2), every monomial present."""
    X = m.grpoly.VariableFamily.X
    nv = max(n - 1, 0)
    monomials = []

    def build(rest: int, part: int, exps: list[int]) -> None:
        if rest == 0:
            monomials.append(tuple(exps))
            return
        for p in range(part, min(rest, n) + 1):
            e = exps.copy()
            e[p - 2] += 1
            build(rest - p, p, e)

    if nv:
        build(n + 2, 2, [0] * nv)
    terms = {e: Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3)) for e in monomials}
    return m.grpoly.GradedPoly(X, nv, terms)


def laurent_series(w: list, K: int) -> list:
    """c_0..c_K with W'/W = sum_k c_k z^(2k-1), W = 1 + sum_j w_j z^(2j)."""
    u = [Fraction(1)]
    for k in range(1, K + 1):
        u.append(-sum(w[j] * u[k - j] for j in range(1, k + 1)))
    return [Fraction(0)] + [sum(2 * j * w[j] * u[k - j] for j in range(1, k + 1)) for k in range(1, K + 1)]


def w_values(phi_entries, x: tuple, delta: int, K: int) -> list:
    return [phi_entries[j].evaluate(x[1:]) / math.factorial(2 * j + delta) for j in range(K + 1)]


def exact_psi(phi_entries, ps, x: tuple, delta: int, K: int, r0: float, z: float, t: Fraction) -> float:
    """psi at (z, t): exact series bracket in rationals times the float prefactor."""
    zq = Fraction(z)
    bracket = zq**delta
    for k in range(2, K + 1):
        bracket += phi_entries[k].evaluate(x[1:]) * zq ** (2 * k + delta) / math.factorial(2 * k + delta)
    p = (delta + 0.5) / len(ps)
    log_pre = r0 - 0.5 * float(x[0] * zq * zq)
    for a, b in ps:
        log_pre += p * math.log(a / (a * t - b))
    return math.exp(log_pre) * float(bracket)


def exact_v(w: list, x: tuple, delta: int, K: int, z: float) -> float:
    """Cole-Hopf image -delta/z + h z - W'/W (series truncated at K), exact."""
    zq = Fraction(z)
    c = laurent_series(w, K)
    v = x[0] * zq - sum(c[k] * zq ** (2 * k - 1) for k in range(2, K + 1))
    if delta:
        v -= delta / zq
    return float(v)


def parse_csv(text: str) -> tuple[list[str], list[tuple[float, ...]]]:
    lines = text.splitlines()
    return lines[0].split(","), [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def grid_axis(lo: float, hi: float, num: int) -> list[float]:
    # the CLI's own spacing rule, to know which points it evaluated
    if num == 1:
        return [lo]
    span = (hi - lo) / (num - 1)
    return [lo + i * span for i in range(num)]


def check_grid_csv(text: str, ts: list[Fraction], zs: list[float]) -> list[tuple[Fraction, float, float]]:
    """Parse a t,z,value grid and match it to the requested points."""
    header, rows = parse_csv(text)
    expect(header == ["t", "z", "value"], f"header {header}")
    expect(len(rows) == len(ts) * len(zs), f"{len(rows)} rows for a {len(ts)}x{len(zs)} grid")
    out = []
    for (t_out, z_out, value), (t, z) in zip(rows, ((t, z) for t in ts for z in zs)):
        expect(t_out == float(t) and z_out == z, f"grid point ({t_out}, {z_out}) != ({float(t)}, {z})")
        out.append((t, z, value))
    return out


# -- exact_pipeline -------------------------------------------------------------------


def exact_pipeline(rng: random.Random, m) -> list[Job]:
    """Rational polynomial construction with almost no floats.

    Chosen because the exact kernel (grpoly, operators) and the jet-space
    pipeline (coefficient tables, Cole-Hopf image, exact residuals) do all
    the work here: ROADMAP items 1 and 2 act on it, and ``trajectory``
    bypasses both.
    """
    jobs: list[Job] = []
    # every size twice, the parities swapped, each draw with inputs of its own
    for draw in range(2):
        for n in range(1, 5):
            for delta, q in sized((10, 12, 15, 18, 21, 24), n + draw):
                jobs.append(_phi_reduced(m, n, delta, q))
            for delta, q in sized((10, 12, 15, 18, 21, 24), n + 1 + draw):
                jobs.append(_phi_general(m, n, delta, q, random_top(m, rng, n)))
        for delta, k in sized((6, 8, 9, 10, 11, 12), draw):
            t = window_start(rng)
            jobs.append(_jet_table(m, delta, k, poles(rng, 4, t), t))
        for delta, k in sized((8, 10, 11, 12, 13, 14), draw):
            t = window_start(rng)
            jobs.append(_jet_remainders(m, delta, k, poles(rng, 4, t), t))
        for n in range(4):
            for delta, K in sized((8, 10, 13, 16), n + draw):
                t = window_start(rng)
                ps = poles(rng, n, t)
                jobs.append(_cole_hopf(m, n, delta, K, ps, t + Fraction(rng.randint(0, 8), 8)))
            for delta, K in sized((8, 12), n + draw):
                t = window_start(rng)
                samples = [t + Fraction(rng.randint(0, 8), 4), t + Fraction(rng.randint(9, 16), 4)]
                jobs.append(_heat_series(m, n, delta, K, poles(rng, n, t), samples))
            for delta, K in sized((8, 11), n + 1 + draw):
                t = window_start(rng)
                jobs.append(_burgers_series(m, n, delta, K, poles(rng, n, t), [t + Fraction(rng.randint(0, 8), 4)]))
        for w in range(1, 9):
            for _ in range(2):
                p = m.verify.random_homogeneous(rng, w, w)
                jobs.append(_commutator(m, p, Fraction(rng.randint(-6, 6), rng.randint(1, 3)), w))
    jobs.append(_verify(m, "all"))
    return interleaved(jobs)


def _phi_reduced(m, n, delta, q) -> Job:
    A = m.ansatz

    def run(timed):
        return timed(lambda: A.phi_table_for(A.AnsatzSpec.reduced(n, delta, m.dynsys.rational_top(n)), q))

    def check(table):
        general = A.AnsatzSpec.general(n, delta, [*x_polys(m, n), m.dynsys.rational_top(n)])
        expect(len(table.entries) == q + 1, f"{len(table.entries)} entries for qmax {q}")
        expect(table.entries == A.general_phi_table(general, q).entries, "reduced table differs from the general route")
        if n == 1:
            check_ratio_series(m, table, delta)

    return Job("phi_reduced", f"n={n} delta={delta} qmax={q}", run, check)


def check_ratio_series(m, table, delta: int) -> None:
    """n = 1 chain: Phi_2j = (-1)^j gamma_j (4j+delta)!/16^j x2^j, odd orders 0."""
    x2 = x_polys(m, 1)[0]
    for k, entry in enumerate(table.entries):
        if k % 2:
            expect(entry.is_zero, f"Phi_{k} should vanish")
        else:
            j = k // 2
            scale = (-1) ** j * m.solution.gamma_ratio_coeff(j, delta) * Fraction(math.factorial(4 * j + delta), 16**j)
            expect(entry == scale * x2**j, f"Phi_{k} off the ratio series")


def _phi_general(m, n, delta, q, top) -> Job:
    # p_2..p_{n+2} = x2, ..., x_{n+1}, P_n: a reduced family written as a
    # general one, so the reduced recursion is an independent oracle
    A = m.ansatz
    ps = [*x_polys(m, n), top]

    def run(timed):
        return timed(lambda: A.general_phi_table(A.AnsatzSpec.general(n, delta, ps), q))

    def check(table):
        expect(len(table.entries) == q + 1, f"{len(table.entries)} entries for qmax {q}")
        expect(table.entries == A.reduced_phi_table(n, top, delta, q).entries, "general table differs from the reduced route")

    return Job("phi_general", f"n={n} delta={delta} qmax={q}", run, check)


def on_shell(m, ps, t: Fraction, delta: int, k: int):
    """Jets of a 5-pole profile at t, and Phi_0..Phi_k of the reduced n = 4
    table at the profile's parameters: on shell, Y_j(jets) = Phi_j(x(t))."""
    h = profile(m, ps)
    x = m.dynsys.reduced_initial_state(h, 4, t)
    table = m.ansatz.reduced_phi_table(4, m.dynsys.rational_top(4), delta, max(k, 2))
    return h.jets(t, k + 1), [e.evaluate(x[1:]) for e in table.entries]


def _jet_table(m, delta, k, ps, t) -> Job:
    def run(timed):
        return timed(m.ansatz.jet_phi_table, delta, k)

    def check(table):
        expect(len(table.entries) == k + 1, f"{len(table.entries)} entries for k_max {k}")
        jets, phi = on_shell(m, ps, t, delta, k)
        for j, entry in enumerate(table.entries):
            expect(entry.evaluate(jets) == phi[j], f"Y_{j} differs from the parameter route")

    return Job("jet_table", f"delta={delta} k_max={k}", run, check)


def _jet_remainders(m, delta, k, ps, t) -> Job:
    def run(timed):
        return timed(m.ansatz.jet_phi_remainders, delta, k)

    def check(tails):
        expect(len(tails) == k + 1, f"{len(tails)} tails for k_max {k}")
        jets, phi = on_shell(m, ps, t, delta, k)
        # basis symbols at the profile: position 0 is y1, position i is Z_{i+1} = D_i
        zs = [jets[0]] + [d.evaluate(jets) for d in m.operators.derivative_chain(k - 1)]
        lead = (2 + delta) * (1 + delta)
        for j in range(2, k + 1):
            value = -(2 ** (j - 2)) * lead * zs[j - 1] + tails[j].evaluate(zs)
            expect(value == phi[j], f"Phi_{j} != leading basis element + Q_{j}")

    return Job("jet_remainders", f"delta={delta} k_max={k}", run, check)


def check_image(m, sol, image, x: tuple, t: Fraction) -> None:
    """W' = W * (W'/W) order by order at t, with W from the parameter-space
    table and W'/W from the jet-space image: 2k w_k = sum_j w_{k-j} c_j."""
    K, delta = image.truncation, image.delta
    w = w_values(sol.phi.entries, x, delta, K)
    c = image.series_values(t)
    for k in range(2, K + 1):
        rhs = sum(w[k - j] * c[j] for j in range(1, k + 1))
        expect(2 * k * w[k] == rhs, f"Cole-Hopf coefficient c_{k} inconsistent with the series")


def _cole_hopf(m, n, delta, K, ps, t) -> Job:
    h = profile(m, ps)

    def build():
        sol = m.solution.assemble_psi(family_spec(m, n, delta), h, 0, K)
        return sol, m.solution.cole_hopf(sol)

    def run(timed):
        return timed(build)

    def check(out):
        sol, image = out
        check_image(m, sol, image, m.dynsys.reduced_initial_state(h, n, t), t)

    return Job("cole_hopf", f"n={n} delta={delta} K={K}", run, check)


def _heat_series(m, n, delta, K, ps, samples) -> Job:
    h = profile(m, ps)
    S = m.solution

    def run(timed):
        return timed(lambda: S.heat_residual_series(S.assemble_psi(family_spec(m, n, delta), h, 0, K), samples))

    def check(residual):
        expect(residual == 0, f"exact heat residual {residual}")

    return Job("heat_series", f"n={n} delta={delta} K={K}", run, check)


def _burgers_series(m, n, delta, K, ps, samples) -> Job:
    h = profile(m, ps)
    S = m.solution

    def run(timed):
        return timed(lambda: S.burgers_residual(S.cole_hopf(S.assemble_psi(family_spec(m, n, delta), h, 0, K)),
                                                mode="series", t_samples=samples))

    def check(residual):
        expect(residual == 0, f"exact Burgers residual {residual}")

    return Job("burgers_series", f"n={n} delta={delta} K={K}", run, check)


def _commutator(m, p, k, w) -> Job:
    O = m.operators

    def run(timed):
        return timed(lambda: (O.annihilator(O.weighted_derivative(k, p)) - O.weighted_derivative(k, O.annihilator(p)),
                              (2 * k) * p + O.euler_operator(p)))

    def check(out):
        expect(out[0] == out[1], "[annihilator, D + 2k y1] != 2k + Euler operator")

    return Job("commutator", f"weight={w} k={k}", run, check)


def _verify(m, suite: str) -> Job:
    def run(timed):
        return run_cli(timed, m, ["verify", "--suite", suite])

    def check(res):
        lines = res.out.splitlines()
        expect(not any(line.startswith("FAIL") for line in lines), "a verify check failed")
        passed, total = lines[-1].split()[0].split("/")
        expect(passed == total and int(total) == len(lines) - 1, f"verify summary {lines[-1]!r}")

    return Job("verify", f"suite {suite}", run, check)


# -- grid_eval ----------------------------------------------------------------------------


def grid_eval(rng: random.Random, m) -> list[Job]:
    """Float evaluation of psi and v on grids, reading grpoly instead of
    building with it.

    Chosen because a representation change that speeds construction but
    slows ``evaluate`` shows here and not in ``exact_pipeline``, and
    because ROADMAP item 3 (time-slice evaluation) acts here.  The n <= 1
    jobs at K >= 90 raise OverflowError today; they stay in and count as
    failed.
    """
    jobs: list[Job] = []
    for n in range(4):
        # (K, znum, tnum): truncation 8..30, grids of 64 to 120 points, small
        # enough for several passes per run
        eval_sizes = ((9, 8, 8), (13, 10, 8), (17, 12, 8), (21, 12, 10), (25, 10, 10), (30, 8, 10)) * 2
        for delta, K, znum, tnum in sized(eval_sizes, n):
            jobs.append(_eval(m, rng, "eval", n, delta, K, znum, tnum))
        # the exact image stays a small share: K <= 12
        burgers_sizes = ((8, 8, 8), (9, 10, 8), (10, 12, 8), (11, 10, 10), (12, 8, 10), (12, 12, 8))
        # two draws, the parities swapped, one for each viscosity
        for draw, mu in enumerate(("0.5", "1")):
            for delta, K, znum, tnum in sized(burgers_sizes, n + draw):
                jobs.append(_burgers(m, rng, n, delta, K, znum, tnum, mu))
            for delta, K in sized((8, 10, 12), n + draw):
                jobs.append(_diffusion_fd(m, rng, n, delta, K))
            for delta, K in sized((8, 9, 10), n + 1 + draw):
                jobs.append(_burgers_fd(m, rng, n, delta, K))
    for n in (0, 1):
        for delta in (0, 1):
            jobs.append(_eval(m, rng, "eval_large", n, delta, 10, 50, 36))
    # K 85..89 straddles the current overflow threshold; the sizes keep off
    # it so the failing share is the same for every seed
    for i, K in enumerate((64, 72, 80, 95, 105, 115)):
        jobs.append(_eval(m, rng, "eval_high_k", i % 2, i // 2 % 2, K, 12, 10))
    # the library's dynsys self-checks: a small, fixed RK4 share, so no layer's
    # time reads exactly zero on every run
    jobs.append(_verify(m, "dynsys"))
    return interleaved(jobs)


def sample_points(rng: random.Random, count: int, size: int) -> list[int]:
    return sorted(rng.sample(range(size), min(count, size)))


def _eval(m, rng, kind, n, delta, K, znum, tnum) -> Job:
    t0 = window_start(rng)
    ps = poles(rng, n, t0)
    t1 = t0 + Fraction(rng.randint(2, 6), 4)
    z0 = -rng.choice([0.5, 0.625, 0.75, 0.875, 1.0])
    z1 = rng.choice([0.5, 0.625, 0.75, 0.875, 1.0])
    r0 = rng.choice([-0.5, -0.25, 0.0, 0.25, 0.5])
    ts = [t0 + i * (t1 - t0) / (tnum - 1) for i in range(tnum)]
    zs = grid_axis(z0, z1, znum)
    picks = sample_points(rng, 4, len(ts) * len(zs))
    argv = ["eval", "--family", "nansatz", "--poles", poles_arg(ps), "--delta", str(delta), "--r0", repr(r0),
            "--kmax", str(K), "--z0", repr(z0), "--z1", repr(z1), "--znum", str(znum),
            "--t0", str(t0), "--t1", str(t1), "--tnum", str(tnum)]

    def run(timed):
        return run_cli(timed, m, argv)

    def check(res):
        points = check_grid_csv(res.out, ts, zs)
        S, mp = m.solution, [m.dynsys.MobiusParam(a, b) for a, b in ps]
        if n <= 1:
            ref = S.closed_form_0ansatz(delta, mp[0], r0) if n == 0 else S.closed_form_1ansatz(delta, *mp, r0)
            for t, z, value in points:
                close(value, ref(z, float(t)), FLOAT_RTOL, f"psi({z}, {t}) vs closed form")
            return
        h = profile(m, ps)
        table = m.ansatz.phi_table_for(family_spec(m, n, delta), K).entries
        for i in picks:
            t, z, value = points[i]
            ref = exact_psi(table, ps, m.dynsys.reduced_initial_state(h, n, t), delta, K, r0, z, t)
            close(value, ref, FLOAT_RTOL, f"psi({z}, {t}) vs exact series")

    return Job(kind, f"n={n} delta={delta} K={K} grid={znum}x{tnum}", run, check)


def _burgers(m, rng, n, delta, K, znum, tnum, mu) -> Job:
    t0 = window_start(rng)
    ps = poles(rng, n, t0)
    t1 = t0 + Fraction(rng.randint(2, 6), 4)
    z0 = rng.choice([0.5, 0.625, 0.75]) if delta else -rng.choice([0.75, 1.0, 1.25])
    z1 = rng.choice([1.0, 1.125, 1.25])
    ts = [t0 + i * (t1 - t0) / (tnum - 1) for i in range(tnum)]
    zs = grid_axis(z0, z1, znum)
    picks = sample_points(rng, 4, len(ts) * len(zs))
    argv = ["burgers", "--family", "nansatz", "--poles", poles_arg(ps), "--delta", str(delta), "--kmax", str(K),
            "--z0", repr(z0), "--z1", repr(z1), "--znum", str(znum),
            "--t0", str(t0), "--t1", str(t1), "--tnum", str(tnum), "--mu", mu]

    def run(timed):
        return run_cli(timed, m, argv)

    def check(res):
        points = check_grid_csv(res.out, ts, zs)
        h = profile(m, ps)
        table = m.ansatz.phi_table_for(family_spec(m, n, delta), K).entries
        two_mu = 2 * Fraction(mu)
        for i in picks:
            t, z, value = points[i]
            x = m.dynsys.reduced_initial_state(h, n, two_mu * t)
            ref = float(two_mu) * exact_v(w_values(table, x, delta, K), x, delta, K, z)
            close(value, ref, FLOAT_RTOL, f"v({z}, {t}) vs exact image")

    return Job("burgers", f"n={n} delta={delta} K={K} grid={znum}x{tnum} mu={mu}", run, check)


def _fd_grid(m, rng, z0: float, z1: float):
    t0 = window_start(rng)
    return t0, m.solution.GridSpec(z0, z1, 6, float(t0), float(t0) + 0.5, 3, 1e-3, 1e-3)


def _diffusion_fd(m, rng, n, delta, K) -> Job:
    t0, grid = _fd_grid(m, rng, -1.0, 1.0)
    h = profile(m, poles(rng, n, t0))
    S = m.solution

    def run(timed):
        return timed(lambda: S.diffusion_residual_numeric(S.assemble_psi(family_spec(m, n, delta), h, 0, K).psi, grid))

    def check(residual):
        expect(math.isfinite(residual) and residual <= FD_BOUND, f"heat residual {residual!r} > {FD_BOUND}")

    return Job("diffusion_fd", f"n={n} delta={delta} K={K}", run, check)


def _burgers_fd(m, rng, n, delta, K) -> Job:
    t0, grid = _fd_grid(m, rng, 0.75 if delta else -1.0, 1.25 if delta else 1.0)
    h = profile(m, poles(rng, n, t0))
    S = m.solution

    def run(timed):
        return timed(lambda: S.burgers_residual(S.cole_hopf(S.assemble_psi(family_spec(m, n, delta), h, 0, K)),
                                                mode="grid", grid=grid))

    def check(residual):
        expect(math.isfinite(residual) and residual <= FD_BOUND, f"Burgers residual {residual!r} > {FD_BOUND}")

    return Job("burgers_fd", f"n={n} delta={delta} K={K}", run, check)


# -- trajectory ---------------------------------------------------------------------------


def trajectory(rng: random.Random, m) -> list[Job]:
    """Float RK4 on the reduced system, CSV output, and psi rebuilt from the
    integrated trajectory.

    Chosen because the vector field, the integrator and CSV formatting do
    the work while the exact layers stay nearly idle: ROADMAP item 4 acts
    here, and ``exact_pipeline`` bypasses it.  Steps run from 1e-3 down to
    1e-4 with most jobs near 1e-3, so a pass stays within the run time.
    """
    jobs: list[Job] = []
    # (n, step, K, delta) is a fixed list, so every seed has the same costs
    for block in range(25):
        for j in range(4):
            u = ((4 * block + j + 0.5) / 100) ** 16
            jobs.append(_trajectory(m, rng, 1 + (block + j) % 4, 10.0 ** (-3 - u), 6 + (block + j) % 5, block % 2))
    # the library's solution self-checks: a small, fixed share of exact and
    # finite-difference work, so no layer's time reads exactly zero on every run
    jobs.append(_verify(m, "solution"))
    return interleaved(jobs)


def _trajectory(m, rng, n, step, K, delta) -> Job:
    t0 = window_start(rng)
    t1 = t0 + 1
    ps = poles(rng, n, t0)
    h = profile(m, ps)
    # r0 makes the trajectory-sourced prefactor equal e^{r(t0)} of the exact one
    p = (delta + 0.5) / (n + 1)
    r0 = sum(p * math.log(a / (a * t0 - b)) for a, b in ps)
    points = [(rng.uniform(-1.0, 1.0), rng.uniform(float(t0), float(t1))) for _ in range(12)]
    argv = ["trajectory", "--n", str(n), "--poles", poles_arg(ps), "--t0", str(t0), "--t1", str(t1),
            "--step", repr(step)]

    def run(timed):
        res = run_cli(timed, m, argv)
        header, rows = parse_csv(res.out)
        states = [m.dynsys.DynState(r[0], r[1:]) for r in rows]

        def rebuild():
            sol = m.solution.assemble_psi(family_spec(m, n, delta), states, r0, K)
            return [sol.psi(z, t) for z, t in points]

        return header, rows, timed(rebuild)

    def check(out):
        header, rows, values = out
        expect(header == ["t"] + [f"x{i + 1}" for i in range(n + 1)], f"header {header}")
        start = (float(t0),) + tuple(float(v) for v in m.dynsys.reduced_initial_state(h, n, t0))
        expect(rows[0] == start, f"first row {rows[0]} != {start}")
        expect(len(rows) - 1 >= math.floor(1 / step), f"{len(rows) - 1} steps for step {step}")
        expect(all(a[0] < b[0] for a, b in zip(rows, rows[1:])), "time column not increasing")
        expect(abs(rows[-1][0] - float(t1)) <= 1e-12, f"last time {rows[-1][0]} != {float(t1)}")
        end = m.dynsys.reduced_initial_state(h, n, t1)
        for i, v in enumerate(end):
            close(rows[-1][i + 1], float(v), RK4_RTOL, f"x{i + 1}({t1})")
        exact = m.solution.assemble_psi(family_spec(m, n, delta), h, 0, K)
        for (z, t), value in zip(points, values):
            close(value, exact.psi(z, t), INTERP_C * step * step, f"trajectory psi({z}, {t})")

    return Job("trajectory", f"n={n} step={step:.3g} delta={delta} K={K}", run, check)


WORKLOADS = {"exact_pipeline": exact_pipeline, "grid_eval": grid_eval, "trajectory": trajectory}
