"""Self-contained verification checks backing the CLI ``verify`` command.

``CHECKS`` is one table of (suite, label, check) rows in print order, each
running in well under a second; ``run_suite`` runs one suite's rows or all.
An identity that the acceptance gate checks too is one function here
returning what it measured (a defect count, an exact residual, an error and
a gain); each caller passes its own inputs and applies its own bounds.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from .ansatz import AnsatzSpec, general_phi_table, jet_phi_remainders, jet_phi_table
from .dynsys import (
    DynState,
    MobiusParam,
    RationalH,
    chazy4_residual,
    ode_residual,
    reduced_initial_state,
    rk4_integrate,
)
from .grpoly import GradedPoly, VariableFamily
from .operators import (
    annihilator,
    decompose_basis,
    derivative_chain,
    euler_operator,
    expand_basis,
    is_annihilated,
    weighted_derivative,
)
from .solution import (
    GridSpec,
    assemble_psi,
    burgers_residual,
    closed_form_0ansatz,
    cole_hopf,
    diffusion_residual_numeric,
    gamma_ratio_coeff,
    heat_residual_series,
)

Y = VariableFamily.Y
X = VariableFamily.X

H1 = RationalH(0, (MobiusParam(1, 0),))
H2 = RationalH(1, (MobiusParam(1, 0), MobiusParam(1, 1)))
CHAIN_CASES = tuple((h, delta) for delta in (0, 1) for h in (H1, H2))  # the 0- and 1-ansatz, both parities
SAMPLES = [Fraction(3, 2), Fraction(2), Fraction(17, 4)]


def random_homogeneous(rng: random.Random, weight: int, nvars: int) -> GradedPoly:
    """Random homogeneous jet polynomial of degree -2*weight."""
    monomials = []

    def build(rest: int, part: int, exps: list[int]) -> None:
        if rest == 0:
            monomials.append(tuple(exps))
            return
        if part > min(rest, nvars):
            return
        for count in range(rest // part + 1):
            if count * part <= rest:
                e = exps.copy()
                e[part - 1] = count
                build(rest - count * part, part + 1, e)

    build(weight, 1, [0] * nvars)
    terms = {}
    for exps in monomials:
        if rng.random() < 0.6:
            c = rng.randint(-9, 9)
            if c:
                terms[exps] = Fraction(c, rng.randint(1, 4))
    if not terms and monomials:
        terms[monomials[0]] = Fraction(1)
    return GradedPoly(Y, nvars, terms)


# -- the identities the acceptance gate checks too; each returns what it measured --


def chain_defects(k_max: int) -> int:
    """Chain polynomials D_1..D_{k_max} that the annihilator does not kill."""
    return sum(not annihilator(d).is_zero for d in derivative_chain(k_max))


def displayed_chain_defects() -> int:
    """Chain polynomials D_1..D_3 that differ from their displayed forms."""
    y = lambda k: GradedPoly.variable(Y, 4, k)
    displayed = (
        y(2) + y(1) ** 2,
        y(3) + 6 * y(1) * y(2) + 4 * y(1) ** 3,
        y(4) + 12 * y(1) * y(3) + 6 * y(2) ** 2 + 48 * y(1) ** 2 * y(2) + 24 * y(1) ** 4,
    )
    return sum(d != shown for d, shown in zip(derivative_chain(3), displayed))


def commutator_defects(pairs) -> int:
    """Pairs (k, p) breaking L(W_k p) - W_k(L p) = 2k p + E p (L annihilator, E Euler operator)."""
    defects = 0
    for k, p in pairs:
        lhs = annihilator(weighted_derivative(k, p)) - weighted_derivative(k, annihilator(p))
        defects += lhs != 2 * k * p + euler_operator(p)
    return defects


def round_trip_defects(polys) -> int:
    """Polynomials that their basis decomposition does not expand back to."""
    return sum(decompose_basis(p).expand() != p for p in polys)


def kernel_defects(polys) -> int:
    """Polynomials whose kernel test disagrees with the basis criterion (no y1 factor)."""
    return sum(is_annihilated(p) != (not decompose_basis(p).uses_y1()) for p in polys)


def split_defects(k_max: int) -> int:
    """Entries Phi_k, 2 <= k <= k_max, of both jet tables that differ from
    -2^(k-2) (2+delta)(1+delta) Z_k + Q_k, expanded out of the basis symbols."""
    defects = 0
    for delta in (0, 1):
        table, tails = jet_phi_table(delta, k_max), jet_phi_remainders(delta, k_max)
        for k in range(2, k_max + 1):
            lead = -(Fraction(2) ** (k - 2)) * (2 + delta) * (1 + delta)
            defects += expand_basis(lead * GradedPoly.variable(Y, k_max, k) + tails[k]) != table[k]
    return defects


def _chain_series(h: RationalH, delta: int, k_max: int):
    return assemble_psi(AnsatzSpec.chain(h.n, delta), h, 0, k_max)


def exact_heat_residual(cases, k_max: int, times):
    """Largest exact heat defect of the chain series of the (h, delta) cases at the times."""
    return max(heat_residual_series(_chain_series(h, delta, k_max), times) for h, delta in cases)


def exact_burgers_residual(cases, k_max: int, times):
    """Largest exact Burgers residual of the cases' Cole-Hopf images at the times."""
    images = (cole_hopf(_chain_series(h, delta, k_max)) for h, delta in cases)
    return max(burgers_residual(image, mode="series", t_samples=times) for image in images)


def ratio_series_defects(q_max: int) -> int:
    """Entries of both one-parameter tables through q_max that differ from the ratio series:
    (-1)^m gamma_ratio_coeff(m, delta) (4m+delta)!/16^m x2^m at q = 2m, zero at odd q."""
    x2 = GradedPoly.variable(X, 1, 2)
    defects = 0
    for delta in (0, 1):
        table = general_phi_table(AnsatzSpec.chain(1, delta), q_max)
        for m in range(q_max // 2 + 1):
            scale = Fraction((-1) ** m) * gamma_ratio_coeff(m, delta) * Fraction(math.factorial(4 * m + delta), 16**m)
            defects += table[2 * m] != scale * x2**m
        defects += sum(not table[q].is_zero for q in range(1, q_max + 1, 2))
    return defects


def profile_defects(times) -> int:
    """Nonzero residuals of the one- and two-pole chain equations and doubled-profile Chazy IV."""
    defects = 0
    for t in times:
        defects += ode_residual(0, None, H1.jets(t, 2)) != 0
        defects += ode_residual(1, None, H2.jets(t, 3)) != 0
        defects += chazy4_residual([2 * v for v in H2.jets(t, 4)]) != 0
    return defects


def rk4_errors(step: float) -> tuple[float, float]:
    """RK4 along the two-pole profile from t = 2 to 3: the largest state error at ``step``,
    and the end-error gain from step 0.04 to 0.02 (16 for a fourth-order method)."""
    spec = AnsatzSpec.chain(1, 0)
    start = DynState(2.0, tuple(float(v) for v in reduced_initial_state(H2, 1, 2)))

    def error(x: tuple, t) -> float:
        return max(abs(a - float(b)) for a, b in zip(x, reduced_initial_state(H2, 1, t)))

    err = max(0.0, *(error(x, t) for t, x in rk4_integrate(spec, start, 3.0, step)))
    coarse, fine = (error(rk4_integrate(spec, start, 3.0, h)[-1][1], 3) for h in (0.04, 0.02))  # at the exact time 3
    return err, coarse / fine


# -- the table that verify prints ---------------------------------------------


def _operator_draws():
    """The operators suite's random input, in draw order from one seed: 25
    commutator pairs, then 10 round-trip and 10 kernel-test polynomials."""
    rng = random.Random(20260814)
    pairs, polys = [], []
    for _ in range(25):
        w = rng.randint(1, 8)
        p = random_homogeneous(rng, w, w)
        pairs.append((Fraction(rng.randint(-6, 6), rng.randint(1, 3)), p))
    for _ in range(20):
        w = rng.randint(2, 8)
        polys.append(random_homogeneous(rng, w, w))
    return pairs, polys[:10], polys[10:]


def _routes_agree() -> bool:
    """The parameter table and the jet table of the two-pole profile agree at SAMPLES."""
    table, ytable = general_phi_table(AnsatzSpec.chain(1, 0), 8), jet_phi_table(0, 8)
    points = [(jets, jets[1] + jets[0] ** 2) for jets in (H2.jets(t, 9) for t in SAMPLES)]  # (y, x2 = D_1(y))
    return all(table[k].evaluate([x2]) == ytable[k].evaluate(jets) for jets, x2 in points for k in range(2, 9))


def _closed_form_agrees() -> bool:
    pairs = [(closed_form_0ansatz(delta, MobiusParam(1, 0)), _chain_series(H1, delta, 8)) for delta in (0, 1)]
    return all(
        abs(psi(z, t) - sol.psi(z, t)) <= 1e-12 * max(1.0, abs(psi(z, t)))
        for psi, sol in pairs for z in (-0.7, 0.3, 1.1) for t in (0.5, 1.25)
    )


# Each check takes ``once``: once(f, *args) is f(*args), computed at most once
# per run, so checks that read the same measurement share it.
CHECKS = (
    ("operators", "chain polynomials annihilated (k <= 9)", lambda once: chain_defects(9) == 0),
    ("operators", "commutator identity on random homogeneous input",
     lambda once: commutator_defects(once(_operator_draws)[0]) == 0),
    ("operators", "basis decomposition round-trip", lambda once: round_trip_defects(once(_operator_draws)[1]) == 0),
    ("operators", "kernel test agrees with basis criterion",
     lambda once: kernel_defects(once(_operator_draws)[2]) == 0),
    ("ansatz", "displayed chain polynomials", lambda once: displayed_chain_defects() == 0),
    ("ansatz", "coefficient split into leading basis element plus tail", lambda once: split_defects(8) == 0),
    ("ansatz", "ratio-coefficient series matches the reduced recursion", lambda once: ratio_series_defects(12) == 0),
    ("ansatz", "parameter and jet routes agree along the two-pole profile", lambda once: _routes_agree()),
    ("dynsys", "profile families solve their chain equations", lambda once: profile_defects(SAMPLES) == 0),
    ("dynsys", "integrator tracks the closed-form trajectory", lambda once: once(rk4_errors, 0.01)[0] < 1e-9),
    ("dynsys", "fourth-order convergence under step halving",
     lambda once: 14.0 <= once(rk4_errors, 0.01)[1] <= 18.0),
    ("solution", "exact order-by-order heat residual vanishes",
     lambda once: exact_heat_residual(CHAIN_CASES, 8, SAMPLES) == 0),
    ("solution", "closed form matches the assembled series", lambda once: _closed_form_agrees()),
    ("solution", "finite-difference heat residual small", lambda once: diffusion_residual_numeric(
        closed_form_0ansatz(0, MobiusParam(1, 0)), GridSpec(-1.0, 1.0, 9, 0.5, 1.5, 5, 1e-3, 1e-3)) <= 1e-5),
    ("solution", "exact Burgers residual of the Cole-Hopf image vanishes",
     lambda once: exact_burgers_residual([(H2, 0), (H2, 1)], 8, SAMPLES) == 0),
    ("solution", "finite-difference Burgers residual small", lambda once: burgers_residual(
        cole_hopf(_chain_series(H2, 0, 8)), mode="grid", grid=GridSpec(0.25, 1.0, 7, 2.25, 2.75, 4, 1e-3, 1e-3),
    ) <= 1e-5),
)


def run_suite(name: str) -> list[tuple[str, bool]]:
    """("suite: label", passed) for each row of suite ``name``, or of every suite for "all"."""
    if name != "all" and name not in {suite for suite, _, _ in CHECKS}:
        raise ValueError(f"unknown suite {name!r}")
    once = functools.cache(lambda f, *args: f(*args))
    return [(f"{suite}: {label}", check(once)) for suite, label, check in CHECKS if name in ("all", suite)]
