"""Coefficient tables: jet recursion, parameter recursion, ratio series."""

import math
from fractions import Fraction

import pytest

from heatansatz.ansatz import (
    AnsatzSpec,
    ansatz_to_jet,
    check_coefficient_recursion,
    general_phi_table,
    jet_phi_remainders,
    jet_phi_table,
)
from heatansatz.dynsys import MobiusParam, RationalH, rational_top
from heatansatz.grpoly import GradedPoly, VariableFamily
from heatansatz.operators import derivative_chain, expand_basis
from heatansatz.solution import gamma_ratio_coeff

Y = VariableFamily.Y
X = VariableFamily.X


def y(i, nvars=6):
    return GradedPoly.variable(Y, nvars, i)


def x(i, nvars=4):
    return GradedPoly.variable(X, nvars, i)


# frozen jet-table expansions for both parities, k = 0..4
JET_TABLE = {
    0: [
        GradedPoly.const(Y, 1, 1),
        GradedPoly.zero(Y),
        -2 * y(2) - 2 * y(1) ** 2,
        -4 * y(3) - 24 * y(1) * y(2) - 16 * y(1) ** 3,
        -8 * y(4) - 96 * y(1) * y(3) + 12 * y(2) ** 2 - 264 * y(1) ** 2 * y(2) - 132 * y(1) ** 4,
    ],
    1: [
        GradedPoly.const(Y, 1, 1),
        GradedPoly.zero(Y),
        -6 * y(2) - 6 * y(1) ** 2,
        -12 * y(3) - 72 * y(1) * y(2) - 48 * y(1) ** 3,
        -24 * y(4) - 288 * y(1) * y(3) + 108 * y(2) ** 2 - 648 * y(1) ** 2 * y(2) - 324 * y(1) ** 4,
    ],
}


@pytest.mark.parametrize("delta", [0, 1])
def test_jet_table_displayed_entries(delta):
    table = jet_phi_table(delta, 4)
    for k in range(5):
        assert table[k] == JET_TABLE[delta][k], f"k={k}"


@pytest.mark.parametrize("delta", [0, 1])
def test_jet_table_homogeneous(delta):
    table = jet_phi_table(delta, 8)
    for k in range(2, 9):
        assert table[k].degree() == -2 * k


@pytest.mark.parametrize("delta", [0, 1])
def test_remainder_split(delta):
    # Phi_k = -2^(k-2) (2+delta)(1+delta) Z_k + Q_k with Q_k free of Z_k
    table = jet_phi_table(delta, 8)
    tails = jet_phi_remainders(delta, 8)
    chain = derivative_chain(7)
    lead = (2 + delta) * (1 + delta)
    for k in range(2, 9):
        zk = chain[k - 2]
        assert table[k] == -(Fraction(2) ** (k - 2)) * lead * zk + expand_basis(tails[k])


@pytest.mark.parametrize("delta", [0, 1])
def test_remainder_values(delta):
    tails = jet_phi_remainders(delta, 4)
    assert tails[2].is_zero
    assert tails[3].is_zero
    z2sq = derivative_chain(1)[0] ** 2
    coeff = (6 + delta) * (5 + delta) * (2 + delta) * (1 + delta)
    assert expand_basis(tails[4]) == coeff * z2sq


def test_remainder_free_of_y1():
    for delta in (0, 1):
        for q in jet_phi_remainders(delta, 9):
            assert all(exps[0] == 0 for exps, _ in q.terms())


@pytest.mark.parametrize("delta,c2,c4,c6", [(0, -2, 60, -5400), (1, -6, 252, -27720)])
def test_one_parameter_table(delta, c2, c4, c6):
    table = general_phi_table(AnsatzSpec.chain(1, delta), 6)
    assert table[0] == GradedPoly.const(X, 1, 1)
    assert table[1].is_zero
    assert table[2] == c2 * x(2, 1)
    assert table[3].is_zero
    assert table[4] == c4 * x(2, 1) ** 2
    assert table[5].is_zero
    assert table[6] == c6 * x(2, 1) ** 3


@pytest.mark.parametrize("delta", [0, 1])
def test_ratio_series_oracle(delta):
    # Phi_{2m} = (4m+delta)! gamma_m (-x2)^m / 16^m, odd entries zero
    table = general_phi_table(AnsatzSpec.chain(1, delta), 20)
    for m in range(11):
        coeff = (
            Fraction(math.factorial(4 * m + delta))
            * gamma_ratio_coeff(m, delta)
            * Fraction(-1) ** m
            / Fraction(16) ** m
        )
        assert table[2 * m] == coeff * x(2, 1) ** m, f"m={m}"
    for q in range(1, 21, 2):
        assert table[q].is_zero


def test_gamma_ratio_closed_form():
    for delta in (0, 1):
        for m in range(8):
            prod = Fraction(1)
            for j in range(m):
                prod /= Fraction(3, 4) + Fraction(delta, 2) + j
            assert gamma_ratio_coeff(m, delta) == prod / math.factorial(m)
    # successive ratio gamma_m / gamma_{m-1} = 1 / (m (m - 1/4 + delta/2))
    for delta in (0, 1):
        for m in range(1, 8):
            ratio = gamma_ratio_coeff(m, delta) / gamma_ratio_coeff(m - 1, delta)
            assert ratio == 1 / (m * (Fraction(m) - Fraction(1, 4) + Fraction(delta, 2)))


def test_reduced_with_nonzero_top():
    # n = 2 admits the closure P_2 = c x2^2; table entries stay homogeneous
    top = 5 * GradedPoly.variable(X, 1, 2) ** 2
    table = general_phi_table(AnsatzSpec.reduced(2, 0, top), 8)
    chain_table = general_phi_table(AnsatzSpec.chain(2, 0), 8)
    for q in range(2, 9):
        assert table[q].degree() == -2 * q
    assert table[2] == chain_table[2]
    assert table[3] == chain_table[3]
    # the top polynomial enters at order 4 through its advection of Phi_3
    assert table[4] == chain_table[4] - 8 * top


def test_zero_parameter_table():
    table = general_phi_table(AnsatzSpec.chain(0, 0), 6)
    assert table[0] == GradedPoly.const(X, 0, 1)
    for q in range(1, 7):
        assert table[q].is_zero


@pytest.mark.parametrize("delta", [0, 1])
def test_parameter_and_jet_routes_agree(delta):
    # along an exact (n+1)-pole profile the parameter values are the chain
    # values, and the parameter table of the reduced family closed by
    # rational_top(n) evaluates like the independent jet table
    poles = (MobiusParam(1, 0), MobiusParam(1, 1), MobiusParam(2, -1), MobiusParam(1, -3), MobiusParam(3, 1))
    jtable = jet_phi_table(delta, 8)
    chain = derivative_chain(7)
    for n in range(1, 5):
        h = RationalH(n, poles[: n + 1])
        ptable = general_phi_table(AnsatzSpec.reduced(n, delta, rational_top(n)), 8)
        for t in (Fraction(3, 2), Fraction(2), Fraction(17, 4)):
            jets = h.jets(t, 8)
            xs = [chain[i].evaluate(jets) for i in range(n)]
            for k in range(9):
                assert ptable[k].evaluate(xs) == jtable[k].evaluate(jets), f"n={n} k={k} t={t}"


def test_substitution_into_jets():
    d1 = derivative_chain(1)[0]
    assert ansatz_to_jet(-2 * x(2, 1), 1) == -2 * d1
    assert ansatz_to_jet(60 * x(2, 1) ** 2, 3) == 60 * d1.with_nvars(4) ** 2
    mixed = x(2, 2) * x(3, 2)
    d2 = derivative_chain(2)[1]
    assert ansatz_to_jet(mixed, 2) == d1.with_nvars(3) * d2
    with pytest.raises(ValueError):
        ansatz_to_jet(x(3, 2), 1)  # ring too small for x3


@pytest.mark.parametrize("n", [1, 3, 4])
def test_substitution_sums_terms_as_listed(n):
    # against the direct substitution of the chain polynomials: the same
    # ring, and the float sum of every term in the same order
    chain = derivative_chain(n)
    names = [f"y{i}" for i in range(1, n + 2)]
    for entry in general_phi_table(AnsatzSpec.reduced(n, 1, rational_top(n)), 9).entries:
        direct = entry.substitute([d.with_nvars(n + 1) for d in chain], Y, n + 1)
        image = ansatz_to_jet(entry, n)
        assert image == direct and image.nvars == direct.nvars
        assert image.float_source(names) == direct.float_source(names)


def test_spec_validation():
    with pytest.raises(ValueError):
        AnsatzSpec.chain(1, 2)  # parity must be 0 or 1
    with pytest.raises(ValueError):
        AnsatzSpec.general(1, 0, [x(2, 2)])  # needs p_2..p_3
    with pytest.raises(ValueError):
        AnsatzSpec.general(1, 0, [x(3, 2), x(3, 2)])  # p_2 degree must be -4
    with pytest.raises(ValueError):
        AnsatzSpec.reduced(2, 0, x(2, 1))  # top degree must be -8
    with pytest.raises(ValueError, match="may only use"):
        AnsatzSpec.reduced(0, 0, x(2, 1))  # P_0 has degree -4 but no parameter to use
    with pytest.raises(ValueError, match="nonnegative"):
        AnsatzSpec.reduced(-1, 0, GradedPoly.zero(X, 0))


@pytest.mark.parametrize("build, message", [
    # n = 2: p_2, p_3 may use x2..x3, the top p_4 also x4, which it caps to zero
    (lambda: AnsatzSpec.general(2, 0, [x(4) * x(2), x(3), x(4) ** 2]), r"^p_2 may only use x2\.\.x3$"),
    (lambda: AnsatzSpec.general(2, 0, [x(2), x(3), x(5) * x(2)]), r"^p_4 may only use x2\.\.x4$"),
    # P_2 = p_4 of the reduced family may use only x2
    (lambda: AnsatzSpec.reduced(2, 0, x(3) * x(2)), r"^P_n may only use x2\.\.x2$"),
    (lambda: AnsatzSpec.reduced(2, 0, x(2)), r"^p_4 must have degree -8, got -4$"),
    (lambda: AnsatzSpec.reduced(2, 0, x(2) ** 2 + x(2)), r"^p_4 must be homogeneous$"),
])
def test_spec_rejections_name_the_polynomial(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("n, delta, ps, message", [
    (2, 0, (x(4) * x(2), x(3), x(4) ** 2), r"^p_2 may only use x2\.\.x3$"),
    (2, 0, (x(2), x(3), x(5) * x(2)), r"^p_4 may only use x2\.\.x4$"),
    (1, 0, (x(2, 2),), r"^need the 2 polynomials p_2\.\.p_3$"),
    (1, 2, (x(2, 2), x(3, 2)), r"^parity must be 0 or 1$"),
    (-1, 0, (), r"^n must be nonnegative$"),
])
def test_plain_constructor_checks_like_general(n, delta, ps, message):
    # general is the constructor: both run the same checks
    for build in (AnsatzSpec, AnsatzSpec.general):
        with pytest.raises(ValueError, match=message):
            build(n, delta, ps)


def test_direct_spec_images_must_fit():
    # the plain constructor caps the top p_3 of n = 1, so x3 in it is dropped, and checks p_2
    assert AnsatzSpec(1, 0, (x(2, 1), x(3, 2))) == AnsatzSpec.chain(1, 0)
    with pytest.raises(ValueError, match=r"^p_2 may only use x2\.\.x2$"):
        AnsatzSpec(1, 0, (x(3, 2), x(3, 2)))


def test_coefficient_recursion_checker():
    # closed-form heat coefficients at t = 1 satisfy psi_k = 2 psi_{k-1}'
    for delta in (0, 1):
        pairs = []
        for k in range(6):
            ck = Fraction((-1) ** k * math.factorial(2 * k + delta), 2**k * math.factorial(k))
            slope = -(Fraction(1, 2) + delta + k) * ck
            pairs.append((lambda t, ck=ck: ck, lambda t, s=slope: s))
        assert check_coefficient_recursion(pairs, [1])
    # constants: zero derivative chain below a constant head
    flat = [(lambda t: Fraction(3), lambda t: Fraction(0)), (lambda t: Fraction(0), lambda t: Fraction(0))]
    assert check_coefficient_recursion(flat, [Fraction(1, 3), 2])
    # mismatch is detected
    bad = [(lambda t: t, lambda t: 1), (lambda t: 1, lambda t: 0)]
    assert not check_coefficient_recursion(bad, [Fraction(5)])
    # float inputs compare within tolerance
    fpairs = [(lambda t: math.exp(-t), lambda t: -math.exp(-t)), (lambda t: -2 * math.exp(-t), lambda t: None)]
    assert check_coefficient_recursion(fpairs, [0.3, 1.7], tol=1e-12)


def test_chain_variables_spec_equals_chain():
    # the general family (x2, ..., x_{n+2}) caps x_{n+2} to zero: it is the chain family
    for n in range(5):
        for delta in (0, 1):
            ps = [GradedPoly.variable(X, n + 1, q) for q in range(2, n + 3)]
            spec = AnsatzSpec.general(n, delta, ps)
            assert spec == AnsatzSpec.chain(n, delta)
            assert general_phi_table(spec, 10) == general_phi_table(AnsatzSpec.chain(n, delta), 10)
