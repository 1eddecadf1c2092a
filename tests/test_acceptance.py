"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import math
import random
import time
from fractions import Fraction

from heatansatz.ansatz import AnsatzSpec, ansatz_to_jet, jet_phi_remainders, jet_phi_table, phi_table_for
from heatansatz.dynsys import (
    DynState,
    MobiusParam,
    RationalH,
    chazy4_residual,
    compiled_field,
    ode_residual,
    reduced_initial_state,
    rk4_integrate,
)
from heatansatz.grpoly import GradedPoly, VariableFamily
from heatansatz.operators import (
    annihilator,
    decompose_basis,
    derivative_chain,
    euler_operator,
    expand_basis,
    is_annihilated,
    weighted_derivative,
)
from heatansatz.solution import (
    GridSpec,
    assemble_psi,
    burgers_residual,
    closed_form_0ansatz,
    cole_hopf,
    gamma_ratio_coeff,
    heat_residual_numeric,
    heat_residual_series,
)
from heatansatz.verify import random_homogeneous

Y = VariableFamily.Y
X = VariableFamily.X

H1 = RationalH(0, (MobiusParam(1, 0),))
H2 = RationalH(1, (MobiusParam(1, 0), MobiusParam(1, 1)))
TEN_TIMES = [Fraction(k, 4) for k in range(6, 26, 2)]
TWENTY_TIMES = [Fraction(k, 8) for k in range(12, 52, 2)]


def report(num: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_annihilation_suite():
    begin = time.perf_counter()
    ok = all(annihilator(p).is_zero for p in derivative_chain(12))
    elapsed = time.perf_counter() - begin
    report(1, f"chain polynomials k=1..12 annihilated exactly ({elapsed:.2f}s < 10s)", ok and elapsed < 10.0)


def test_criterion_02_commutator_suite():
    rng = random.Random(20260814)
    count, ok = 0, True
    while count < 100:
        weight = rng.randrange(1, 11) * 2  # graded degree down to -20
        k = Fraction(rng.randrange(1, 9), rng.choice([1, 2]))
        p = random_homogeneous(rng, weight, 6)
        lhs = annihilator(weighted_derivative(k, p)) - weighted_derivative(k, annihilator(p))
        ok = ok and lhs == 2 * k * p + euler_operator(p)
        count += 1
    report(2, f"commutator identity exact on {count} random homogeneous inputs", ok)


def test_criterion_03_displayed_tables():
    def yv(i):
        return GradedPoly.variable(Y, 5, i)

    chain = derivative_chain(3)
    ok = chain[0] == yv(2) + yv(1) ** 2
    ok = ok and chain[1] == yv(3) + 6 * yv(1) * yv(2) + 4 * yv(1) ** 3
    ok = ok and chain[2] == (
        yv(4) + 12 * yv(1) * yv(3) + 6 * yv(2) ** 2 + 48 * yv(1) ** 2 * yv(2) + 24 * yv(1) ** 4
    )
    for delta in (0, 1):
        table = jet_phi_table(delta, 4)
        lead = (2 + delta) * (1 + delta)
        ok = ok and table[0] == GradedPoly.const(Y, 1, 1) and table[1].is_zero
        ok = ok and table[2] == -lead * chain[0]
        ok = ok and table[3] == -2 * lead * chain[1]
        q4 = (6 + delta) * (5 + delta) * lead * chain[0] ** 2
        ok = ok and table[4] == -4 * lead * chain[2] + q4
        tails = jet_phi_remainders(delta, 4)
        ok = ok and tails[2].is_zero and tails[3].is_zero
        ok = ok and expand_basis(tails[4]) == q4
    report(3, "displayed jet tables, chain entries, and tail values reproduced", ok)


def test_criterion_04_basis_theorem_both_directions():
    rng = random.Random(7)
    chain = derivative_chain(5)
    y1 = GradedPoly.variable(Y, 1, 1)
    ok = True
    for _ in range(30):
        # a random polynomial in the chain values (n <= 4 parameters),
        # not necessarily homogeneous
        poly = GradedPoly.zero(X, 4)
        for _ in range(rng.randrange(1, 4)):
            exps = tuple(rng.randrange(0, 3) for _ in range(4))
            poly = poly + GradedPoly(X, 4, {exps: Fraction(rng.randrange(-6, 7) or 1)})
        ok = ok and annihilator(ansatz_to_jet(poly, 5)).is_zero
    for _ in range(30):
        # basis monomials: annihilated iff the y1 factor is absent
        power = rng.randrange(0, 4)
        mono = y1**power if power else GradedPoly.const(Y, 1, 1)
        for _ in range(rng.randrange(0 if power else 1, 3)):
            mono = mono * chain[rng.randrange(5)]
        ok = ok and is_annihilated(mono) == (power == 0)
        dec = decompose_basis(mono)
        ok = ok and dec.uses_y1() == (power > 0) and dec.expand() == mono
    report(4, "kernel membership equals y1-freeness; decomposition round-trips", ok)


def test_criterion_05_exact_heat_residual():
    ok = True
    for delta in (0, 1):
        for h, n in ((H1, 0), (H2, 1)):
            sol = assemble_psi(AnsatzSpec.chain(n, delta), h, 0, 10)
            ok = ok and heat_residual_series(sol, TEN_TIMES) == 0
    report(5, "order-by-order heat residual exactly zero (n=0,1; K=10; both parities)", ok)


def test_criterion_06_closed_form_0ansatz():
    ok = True
    for delta in (0, 1):
        sol = assemble_psi(AnsatzSpec.chain(0, delta), H1, 0, 11)
        for t in (Fraction(3, 2), Fraction(2), Fraction(17, 4)):
            h = H1.value(t)
            got = sol.bracket_coefficients(t)
            for k in range(11):  # z^{2k+delta} reaches past z^20
                expect = Fraction(math.factorial(2 * k + delta), math.factorial(k)) * (-h / 2) ** k
                ok = ok and got[k] == expect
        image = cole_hopf(sol)
        ok = ok and image.pole_coefficient == -delta
        ok = ok and all(p.is_zero for p in image.series_jets)
        for z in (0.5, -1.25):
            for t in (Fraction(7, 4), Fraction(3)):
                ok = ok and image.v(z, t) == float(H1.value(t)) * z - delta / z
    report(6, "0-ansatz closed form: coefficients exact through z^20; image is the rational flow", ok)


def test_criterion_07_ratio_series():
    ok = True
    for delta in (0, 1):
        table = phi_table_for(AnsatzSpec.chain(1, delta), 20)
        x2 = GradedPoly.variable(X, 1, 2)
        for m in range(11):
            coeff = (
                Fraction(math.factorial(4 * m + delta))
                * gamma_ratio_coeff(m, delta)
                * Fraction(-1) ** m
                / Fraction(16) ** m
            )
            ok = ok and table[2 * m] == coeff * x2**m
        ok = ok and all(table[q].is_zero for q in range(1, 21, 2))
    report(7, "one-parameter table equals the factorial-ratio series (m <= 10, both parities)", ok)


def test_criterion_08_ode_and_chazy():
    ok = True
    for t in TWENTY_TIMES:
        ok = ok and ode_residual(0, None, H1.jets(t, 2)) == 0
        ok = ok and ode_residual(1, None, H2.jets(t, 3)) == 0
        ok = ok and chazy4_residual(tuple(2 * v for v in H2.jets(t, 4))) == 0
    report(8, "profile and doubled-profile equations exact at 20 rational points", ok)


def test_criterion_09_integrator_fidelity():
    field = compiled_field(AnsatzSpec.chain(1, 0))
    start_state = reduced_initial_state(H2, 1, Fraction(2))
    start = DynState(2.0, tuple(float(v) for v in start_state))
    err = 0.0
    for s in rk4_integrate(field, start, 3.0, 1e-3):
        exact = reduced_initial_state(H2, 1, s.t)
        err = max(err, max(abs(a - float(b)) for a, b in zip(s.x, exact)))
    end_err = {}
    for step in (0.04, 0.02):  # step 1e-3 sits at the rounding floor, so the
        traj = rk4_integrate(field, start, 3.0, step)  # ratio is read higher up
        exact = reduced_initial_state(H2, 1, 3)
        end_err[step] = max(abs(a - float(b)) for a, b in zip(traj[-1].x, exact))
    ratio = end_err[0.04] / end_err[0.02]
    ok = err <= 1e-8 and 14.0 <= ratio <= 18.0
    report(9, f"integrator max error {err:.2e} <= 1e-8; halving gain {ratio:.2f} in [14, 18]", ok)


def test_criterion_10_numeric_residual_convergence():
    ok = True
    ratios = []
    for delta in (0, 1):
        psi = closed_form_0ansatz(delta, MobiusParam(1, 0))
        fine = heat_residual_numeric(psi, GridSpec(-1.0, 1.0, 9, 1.5, 2.5, 5, 1e-3, 1e-3))
        coarse = heat_residual_numeric(psi, GridSpec(-1.0, 1.0, 9, 1.5, 2.5, 5, 2e-3, 2e-3))
        ok = ok and fine <= 1e-5 and 3.5 <= coarse / fine <= 4.5
        ratios.append(coarse / fine)
        image = cole_hopf(assemble_psi(AnsatzSpec.chain(0, delta), H1, 0, 4))
        z0, z1 = (0.75, 1.75) if delta else (-1.0, 1.0)
        bfine = burgers_residual(image, mode="grid", grid=GridSpec(z0, z1, 7, 1.5, 2.5, 5, 1e-3, 1e-3))
        bcoarse = burgers_residual(image, mode="grid", grid=GridSpec(z0, z1, 7, 1.5, 2.5, 5, 2e-3, 2e-3))
        ok = ok and bfine <= 1e-5 and 3.5 <= bcoarse / bfine <= 4.5
        ratios.append(bcoarse / bfine)
    summary = ", ".join(f"{r:.2f}" for r in ratios)
    report(10, f"grid residuals <= 1e-5 at step 1e-3 and shrink 4x per halving ({summary})", ok)


def test_criterion_11_burgers_series_residual():
    ok = True
    for delta in (0, 1):
        for h, n in ((H1, 0), (H2, 1)):
            image = cole_hopf(assemble_psi(AnsatzSpec.chain(n, delta), h, 0, 10))
            ok = ok and burgers_residual(image, mode="series", t_samples=TEN_TIMES) == 0
    report(11, "Laurent-series residual of the half-viscosity flow exactly zero", ok)


def test_criterion_12_parity():
    ok = True
    for delta in (0, 1):
        series = assemble_psi(AnsatzSpec.chain(1, delta), H2, 0, 10)
        image = cole_hopf(series)
        closed = closed_form_0ansatz(delta, MobiusParam(1, 0))
        sign = -1.0 if delta else 1.0
        for z in (0.3, 0.85, 1.4):
            for t in (1.6, 2.5):
                ok = ok and series.psi(-z, t) == sign * series.psi(z, t)
                ok = ok and series.bracket(-z, t) == sign * series.bracket(z, t)
                ok = ok and image.v(-z, t) == -image.v(z, t)
                ok = ok and closed(-z, t) == sign * closed(z, t)
    report(12, "even/odd symmetry holds for the series solutions, closed forms, and images", ok)
