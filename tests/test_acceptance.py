"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import math
import random
import time
from fractions import Fraction

from heatansatz.ansatz import AnsatzSpec, ansatz_to_jet, jet_phi_remainders, jet_phi_table
from heatansatz.dynsys import MobiusParam
from heatansatz.grpoly import GradedPoly, VariableFamily
from heatansatz.operators import annihilator, decompose_basis, derivative_chain, expand_basis
from heatansatz.solution import (
    GridSpec,
    assemble_psi,
    burgers_residual,
    closed_form_0ansatz,
    cole_hopf,
    heat_residual_numeric,
)
from heatansatz.verify import (
    CHAIN_CASES,
    H1,
    H2,
    chain_defects,
    commutator_defects,
    displayed_chain_defects,
    exact_burgers_residual,
    exact_heat_residual,
    kernel_defects,
    profile_defects,
    random_homogeneous,
    ratio_series_defects,
    rk4_errors,
    round_trip_defects,
    split_defects,
)

Y = VariableFamily.Y
X = VariableFamily.X

TEN_TIMES = [Fraction(k, 4) for k in range(6, 26, 2)]
TWENTY_TIMES = [Fraction(k, 8) for k in range(12, 52, 2)]


def report(num: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_annihilation_suite():
    begin = time.perf_counter()
    defects = chain_defects(12)
    elapsed = time.perf_counter() - begin
    report(1, f"chain polynomials k=1..12 annihilated exactly ({elapsed:.2f}s < 10s)", defects == 0 and elapsed < 10.0)


def test_criterion_02_commutator_suite():
    rng = random.Random(20260814)
    pairs = []
    for _ in range(100):
        weight = rng.randrange(1, 11) * 2  # graded degree down to -20
        k = Fraction(rng.randrange(1, 9), rng.choice([1, 2]))
        pairs.append((k, random_homogeneous(rng, weight, 6)))
    report(2, f"commutator identity exact on {len(pairs)} random homogeneous inputs", commutator_defects(pairs) == 0)


def test_criterion_03_displayed_tables():
    # split_defects reads Phi_2..Phi_4 as -2^(k-2)(2+delta)(1+delta) D_{k-1} + Q_k; the Q_k are pinned here
    ok = displayed_chain_defects() == 0 and split_defects(4) == 0
    d1 = derivative_chain(1)[0]
    for delta in (0, 1):
        table, tails = jet_phi_table(delta, 4), jet_phi_remainders(delta, 4)
        ok = ok and table[0] == GradedPoly.const(Y, 1, 1) and table[1].is_zero
        ok = ok and tails[2].is_zero and tails[3].is_zero
        ok = ok and expand_basis(tails[4]) == (6 + delta) * (5 + delta) * (2 + delta) * (1 + delta) * d1**2
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
    monomials = []
    for _ in range(30):
        # basis monomials: the decomposition uses y1 iff the y1 factor is present,
        # and kernel_defects ties kernel membership to that
        power = rng.randrange(0, 4)
        mono = y1**power if power else GradedPoly.const(Y, 1, 1)
        for _ in range(rng.randrange(0 if power else 1, 3)):
            mono = mono * chain[rng.randrange(5)]
        ok = ok and decompose_basis(mono).uses_y1() == (power > 0)
        monomials.append(mono)
    ok = ok and round_trip_defects(monomials) == 0 and kernel_defects(monomials) == 0
    report(4, "kernel membership equals y1-freeness; decomposition round-trips", ok)


def test_criterion_05_exact_heat_residual():
    residual = exact_heat_residual(CHAIN_CASES, 10, TEN_TIMES)
    report(5, "order-by-order heat residual exactly zero (n=0,1; K=10; both parities)", residual == 0)


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
    defects = ratio_series_defects(20)
    report(7, "one-parameter table equals the factorial-ratio series (m <= 10, both parities)", defects == 0)


def test_criterion_08_ode_and_chazy():
    defects = profile_defects(TWENTY_TIMES)
    report(8, "profile and doubled-profile equations exact at 20 rational points", defects == 0)


def test_criterion_09_integrator_fidelity():
    err, ratio = rk4_errors(1e-3)  # step 1e-3 sits at the rounding floor, so the gain is read from 0.04 to 0.02
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
    residual = exact_burgers_residual(CHAIN_CASES, 10, TEN_TIMES)
    report(11, "Laurent-series residual of the half-viscosity flow exactly zero", residual == 0)


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
