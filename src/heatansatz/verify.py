"""Self-contained verification suites backing the CLI ``verify`` command.

Each suite returns (name, passed) pairs; they mirror the package's core
identities at sizes small enough to run in a couple of seconds.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .ansatz import AnsatzSpec, general_phi_table, jet_phi_remainders, jet_phi_table
from .dynsys import (
    DynState,
    MobiusParam,
    RationalH,
    chazy4_residual,
    compiled_field,
    ode_residual,
    reduced_initial_state,
    rk4_integrate,
)
from .grpoly import GradedPoly, VariableFamily
from .operators import (
    annihilator,
    basis_elements,
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
    gamma_ratio_coeff,
    heat_residual_numeric,
    heat_residual_series,
)

Y = VariableFamily.Y
X = VariableFamily.X

H1 = RationalH(0, (MobiusParam(1, 0),))
H2 = RationalH(1, (MobiusParam(1, 0), MobiusParam(1, 1)))
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


def suite_operators() -> list[tuple[str, bool]]:
    rng = random.Random(20260814)
    checks = []
    chain = derivative_chain(9)
    checks.append(("chain polynomials annihilated (k <= 9)", all(annihilator(d).is_zero for d in chain)))
    ok = True
    for _ in range(25):
        w = rng.randint(1, 8)
        p = random_homogeneous(rng, w, w)
        k = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        lhs = annihilator(weighted_derivative(k, p)) - weighted_derivative(k, annihilator(p))
        rhs = (2 * k) * p + euler_operator(p)
        ok = ok and lhs == rhs
    checks.append(("commutator identity on random homogeneous input", ok))
    ok = True
    for _ in range(10):
        w = rng.randint(2, 8)
        p = random_homogeneous(rng, w, w)
        ok = ok and decompose_basis(p).expand() == p
    checks.append(("basis decomposition round-trip", ok))
    ok = True
    for _ in range(10):
        w = rng.randint(2, 8)
        p = random_homogeneous(rng, w, w)
        ok = ok and is_annihilated(p) == (not decompose_basis(p).uses_y1())
    checks.append(("kernel test agrees with basis criterion", ok))
    return checks


def suite_ansatz() -> list[tuple[str, bool]]:
    checks = []
    z = basis_elements(4)
    y = lambda k: GradedPoly.variable(Y, 4, k)
    expected_z4 = y(4) + 12 * y(1) * y(3) + 6 * y(2) ** 2 + 48 * y(1) ** 2 * y(2) + 24 * y(1) ** 4
    checks.append(("displayed chain polynomials", z[2] == y(2) + y(1) ** 2 and z[4] == expected_z4))
    ok = True
    for delta in (0, 1):
        table = jet_phi_table(delta, 8)
        tails = jet_phi_remainders(delta, 8)
        lead = Fraction((2 + delta) * (1 + delta))
        for k in range(2, 9):
            zk = GradedPoly.variable(Y, 8, k)
            recon = -(Fraction(2) ** (k - 2)) * lead * zk + tails[k]
            ok = ok and expand_basis(recon) == table[k]
    checks.append(("coefficient split into leading basis element plus tail", ok))
    ok = True
    for delta in (0, 1):
        table = general_phi_table(AnsatzSpec.chain(1, delta), 12)
        x2 = GradedPoly.variable(X, 1, 2)
        for m in range(7):
            scale = Fraction((-1) ** m) * gamma_ratio_coeff(m, delta) * Fraction(math.factorial(4 * m + delta), 16**m)
            ok = ok and table[2 * m] == scale * x2**m
            if 2 * m + 1 <= table.max_order:
                ok = ok and table[2 * m + 1].is_zero
    checks.append(("ratio-coefficient series matches the reduced recursion", ok))
    ok = True
    table = general_phi_table(AnsatzSpec.chain(1, 0), 8)
    ytable = jet_phi_table(0, 8)
    for t in SAMPLES:
        jets = H2.jets(t, 9)
        x2v = jets[1] + jets[0] ** 2
        for k in range(2, 9):
            ok = ok and table[k].evaluate([x2v]) == ytable[k].evaluate(jets)
    checks.append(("parameter and jet routes agree along the two-pole profile", ok))
    return checks


def suite_dynsys() -> list[tuple[str, bool]]:
    checks = []
    ok = True
    for t in SAMPLES:
        ok = ok and ode_residual(0, None, H1.jets(t, 2)) == 0
        ok = ok and ode_residual(1, None, H2.jets(t, 3)) == 0
        jets = H2.jets(t, 4)
        ok = ok and chazy4_residual([2 * v for v in jets]) == 0
    checks.append(("profile families solve their chain equations", ok))
    start = DynState(2.0, tuple(float(v) for v in reduced_initial_state(H2, 1, 2)))
    field = compiled_field(AnsatzSpec.chain(1, 0))
    err = 0.0
    for s in rk4_integrate(field, start, 3.0, 0.01):
        exact = reduced_initial_state(H2, 1, s.t)
        err = max(err, max(abs(a - float(b)) for a, b in zip(s.x, exact)))
    checks.append(("integrator tracks the closed-form trajectory", err < 1e-9))
    end_err = {}
    for step in (0.04, 0.02):
        traj = rk4_integrate(field, start, 3.0, step)
        exact = reduced_initial_state(H2, 1, 3)
        end_err[step] = max(abs(a - float(b)) for a, b in zip(traj[-1].x, exact))
    ratio = end_err[0.04] / end_err[0.02]
    checks.append(("fourth-order convergence under step halving", 14.0 <= ratio <= 18.0))
    return checks


def suite_solution() -> list[tuple[str, bool]]:
    checks = []
    ok = True
    for delta in (0, 1):
        s0 = assemble_psi(AnsatzSpec.chain(0, delta), H1, 0, 8)
        s1 = assemble_psi(AnsatzSpec.chain(1, delta), H2, 0, 8)
        ok = ok and heat_residual_series(s0, SAMPLES) == 0
        ok = ok and heat_residual_series(s1, SAMPLES) == 0
    checks.append(("exact order-by-order heat residual vanishes", ok))
    ok = True
    for delta in (0, 1):
        psi = closed_form_0ansatz(delta, MobiusParam(1, 0))
        sol = assemble_psi(AnsatzSpec.chain(0, delta), H1, 0, 8)
        for z in (-0.7, 0.3, 1.1):
            for t in (0.5, 1.25):
                ok = ok and abs(psi(z, t) - sol.psi(z, t)) <= 1e-12 * max(1.0, abs(psi(z, t)))
    checks.append(("closed form matches the assembled series", ok))
    grid = GridSpec(-1.0, 1.0, 9, 0.5, 1.5, 5, 1e-3, 1e-3)
    psi = closed_form_0ansatz(0, MobiusParam(1, 0))
    checks.append(("finite-difference heat residual small", heat_residual_numeric(psi, grid) <= 1e-5))
    ok = True
    for delta in (0, 1):
        sol = assemble_psi(AnsatzSpec.chain(1, delta), H2, 0, 8)
        image = cole_hopf(sol)
        ok = ok and burgers_residual(image, mode="series", t_samples=SAMPLES) == 0
    checks.append(("exact Burgers residual of the Cole-Hopf image vanishes", ok))
    bgrid = GridSpec(0.25, 1.0, 7, 2.25, 2.75, 4, 1e-3, 1e-3)
    image = cole_hopf(assemble_psi(AnsatzSpec.chain(1, 0), H2, 0, 8))
    checks.append(
        ("finite-difference Burgers residual small", burgers_residual(image, mode="grid", grid=bgrid) <= 1e-5)
    )
    return checks


SUITES = {
    "operators": suite_operators,
    "ansatz": suite_ansatz,
    "dynsys": suite_dynsys,
    "solution": suite_solution,
}


def run_suite(name: str) -> list[tuple[str, bool]]:
    if name == "all":
        out = []
        for key in ("operators", "ansatz", "dynsys", "solution"):
            out.extend((f"{key}: {label}", ok) for label, ok in SUITES[key]())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return [(f"{name}: {label}", ok) for label, ok in SUITES[name]()]
