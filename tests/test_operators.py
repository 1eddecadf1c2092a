"""Derivation operators, the chain polynomials, and basis decomposition."""

import random
import sys
from fractions import Fraction

import pytest

from heatansatz import operators
from heatansatz.ansatz import jet_phi_table
from heatansatz.grpoly import GradedPoly, NonHomogeneousError, VariableFamily
from heatansatz.operators import (
    annihilator,
    basis_elements,
    basis_name,
    decompose_basis,
    derivative_chain,
    euler_operator,
    expand_basis,
    is_annihilated,
    jet_derivative,
    params_as_basis,
    weighted_derivative,
)
from heatansatz.verify import random_homogeneous as homogeneous

Y = VariableFamily.Y


def y(i, nvars=8):
    return GradedPoly.variable(Y, nvars, i)


def random_homogeneous(rng, weight, nvars=6):
    """Random polynomial with every monomial of total weight `weight`."""
    out = GradedPoly.zero(Y, nvars)
    found = False
    for _ in range(60):
        exps = [0] * nvars
        budget = weight
        while budget > 0:
            i = rng.randrange(nvars)
            w = Y.weight(i)
            if w <= budget:
                exps[i] += 1
                budget -= w
            elif budget < 2:
                break
        if budget == 0:
            found = True
            out = out + GradedPoly(Y, nvars, {tuple(exps): Fraction(rng.randrange(-5, 6) or 1)})
    assert found
    return out


def test_jet_derivative_shifts_indices():
    # d/dt sends each jet to the next one
    assert jet_derivative(y(1, 1)) == y(2, 2)
    assert jet_derivative(y(1, 1) ** 2) == 2 * y(1, 2) * y(2, 2)


def test_weighted_derivative_example():
    # weight-2 derivative of y2 + y1^2 is y3 + 6 y1 y2 + 4 y1^3
    p = y(2, 2) + y(1, 2) ** 2
    out = weighted_derivative(Fraction(2), p)
    expect = y(3, 3) + 6 * y(1, 3) * y(2, 3) + 4 * y(1, 3) ** 3
    assert out == expect


def test_weighted_derivative_lowers_degree_by_two():
    rng = random.Random(3)
    for w in (2, 4, 8):
        p = random_homogeneous(rng, w)
        out = weighted_derivative(Fraction(3), p)
        assert out.degree() == -(w + 2)


def test_chain_construction():
    chain = derivative_chain(4)
    d1, d2, d3, d4 = chain
    assert d1 == y(2, 2) + y(1, 2) ** 2
    assert d2 == y(3, 3) + 6 * y(1, 3) * y(2, 3) + 4 * y(1, 3) ** 3
    # iterating: D_k = weighted derivative (weight k) of D_{k-1}
    assert d3 == weighted_derivative(Fraction(3), d2)
    assert d4 == weighted_derivative(Fraction(4), d3)
    assert [p.degree() for p in chain] == [-4, -6, -8, -10]


def test_chain_displayed_z4():
    d3 = derivative_chain(3)[2]
    expect = (
        y(4, 4)
        + 12 * y(1, 4) * y(3, 4)
        + 6 * y(2, 4) ** 2
        + 48 * y(1, 4) ** 2 * y(2, 4)
        + 24 * y(1, 4) ** 4
    )
    assert d3 == expect


def test_annihilator_on_jets():
    # y1 -> 1; y_{k+1} -> -(k+1) k y_{k-1} pattern on single variables
    assert annihilator(y(1, 3)) == GradedPoly.const(Y, 3, 1)
    assert annihilator(y(2, 3)) == -2 * y(1, 3)
    assert annihilator(y(3, 3)) == -6 * y(2, 3)


def test_annihilator_kills_chain():
    for p in derivative_chain(9):
        assert is_annihilated(p)
        assert annihilator(p).is_zero


def test_annihilator_leibniz():
    rng = random.Random(5)
    for _ in range(15):
        a = random_homogeneous(rng, rng.choice([2, 4, 6]))
        b = random_homogeneous(rng, rng.choice([2, 4, 6]))
        assert annihilator(a * b) == annihilator(a) * b + a * annihilator(b)


def test_euler_operator_measures_degree():
    rng = random.Random(9)
    for w in (2, 6, 10):
        p = random_homogeneous(rng, w)
        assert euler_operator(p) == (-w) * p


def test_commutator_identity():
    # annihilator after weighted derivative minus the reverse composition
    # equals multiplication by (2k + euler)
    rng = random.Random(17)
    for _ in range(25):
        w = rng.choice([2, 4, 6, 8])
        k = Fraction(rng.randrange(1, 9), rng.choice([1, 2]))
        p = random_homogeneous(rng, w)
        lhs = annihilator(weighted_derivative(k, p)) - weighted_derivative(k, annihilator(p))
        rhs = 2 * k * p + euler_operator(p)
        assert lhs == rhs


def test_basis_elements():
    basis = basis_elements(4)
    chain = derivative_chain(3)
    assert basis[0].is_zero and basis[1].is_zero
    assert basis[2] == chain[0]
    assert basis[3] == chain[1]
    assert basis[4] == chain[2]


def test_decompose_round_trip():
    rng = random.Random(23)
    chain = derivative_chain(5)
    y1 = y(1, 2)
    for _ in range(20):
        # random combination of y1^a * products of chain entries
        acc = GradedPoly.zero(Y, 2)
        for _ in range(rng.randrange(1, 4)):
            term = GradedPoly.const(Y, 1, Fraction(rng.randrange(-4, 5) or 2))
            term = term * y1 ** rng.randrange(0, 3)
            for _ in range(rng.randrange(0, 3)):
                term = term * chain[rng.randrange(len(chain))]
            acc = acc + term
        if not acc.is_homogeneous():
            continue
        dec = decompose_basis(acc)
        assert dec.expand() == acc


def test_decompose_y4_split():
    # -2^2 Z_4 appears with the quadratic tail 60 Z_2^2 in the even table
    chain = derivative_chain(3)
    p = -8 * chain[2] + 60 * chain[0] ** 2
    dec = decompose_basis(p)
    assert not dec.uses_y1()
    assert dec.zpoly.to_text(names=basis_name) == "-8*Z4 + 60*Z2^2"
    assert is_annihilated(p)


def test_kernel_direction():
    # a basis monomial containing y1 is never annihilated
    chain = derivative_chain(4)
    y1 = y(1, 2)
    probes = [y1 * chain[0], y1 ** 2 * chain[1], y1 * chain[2], y1 ** 3]
    for p in probes:
        assert not is_annihilated(p)
        assert decompose_basis(p).uses_y1()


def test_decompose_rejects_non_homogeneous():
    with pytest.raises(NonHomogeneousError):
        decompose_basis(y(1, 2) + y(2, 2))


def test_expand_basis_inverse():
    # basis-symbol convention: position 0 = y1, position k-1 = Z_k
    chain = derivative_chain(3)
    zpoly = GradedPoly(Y, 4, {(0, 1, 0, 0): Fraction(2), (0, 0, 0, 1): Fraction(-1)})
    assert expand_basis(zpoly) == 2 * chain[0] - chain[2]


def test_derivative_chain_has_no_recursion_limit(monkeypatch):
    # the chain is extended in a loop: an order past the recursion limit, built from a cheap stand-in
    monkeypatch.setattr(operators, "_CHAIN", [])
    monkeypatch.setattr(operators, "weighted_derivative", lambda k, poly: poly)
    k_max = sys.getrecursionlimit() + 10
    chain = derivative_chain(k_max)
    assert len(chain) == k_max and len(operators._CHAIN) == k_max
    assert derivative_chain(3) == chain[:3]


def test_chain_is_built_once_in_order(monkeypatch):
    # each D_k is built once per process, from D_{k-1}, whichever order is asked first
    built = []

    def recording(k, poly):
        built.append(k)
        return weighted_derivative(k, poly)

    monkeypatch.setattr(operators, "_CHAIN", [])
    monkeypatch.setattr(operators, "weighted_derivative", recording)
    assert derivative_chain(3)[2] == derivative_chain(6)[2]
    assert derivative_chain(5) == derivative_chain(6)[:5]
    assert built == [Fraction(1, 2), 2, 3, 4, 5, 6]


def test_expand_basis_builds_only_the_used_chain(monkeypatch):
    # y1 Z2 declared over 19 positions reaches Z2 only: the chain stops there
    asked = []

    def recording(m):
        asked.append(m)
        return basis_elements(m)

    monkeypatch.setattr(operators, "basis_elements", recording)
    out = expand_basis(y(1, 19) * y(2, 19))
    assert asked and max(asked) <= 2
    assert out == y(1, 19) * derivative_chain(1)[0].with_nvars(19)
    assert out.nvars == 19


# -- the working form against plain public arithmetic ---------------------------
#
# The operators, the jet table and substitute build their results in grpoly's integer
# working form; each oracle below is written in derivation, * and + on GradedPoly, and
# must give the same terms in the same order, every coefficient a Fraction.


def assert_same_terms(got, expected):
    assert got.family is expected.family and got.nvars == expected.nvars
    assert list(got._terms.items()) == list(expected._terms.items())
    assert all(type(c) is Fraction for c in got._terms.values())


def jet_images(nvars):
    """D's images y_{s+1} of y_s over nvars variables, the last one left alone."""
    return [y(s + 1, nvars) for s in range(1, nvars)]


def weighted_by_arithmetic(k, p, nvars):
    """(D + 2k y1) P over nvars variables, for P that leaves the last one unused."""
    wide = p.with_nvars(nvars)
    return wide.derivation(jet_images(nvars), nvars) + (2 * Fraction(k)) * (y(1, nvars) * wide)


def substitute_by_arithmetic(p, images, family, nvars):
    """sum over the terms c * e of P of const(c) * prod_i images[i]^e_i, added one term at a time."""
    total = GradedPoly.zero(family, nvars)
    for exps, c in p._terms.items():
        prod = GradedPoly.const(family, nvars, c)
        for i, e in enumerate(exps):
            if e:
                prod = prod * images[i].with_nvars(nvars) ** e
        total = total + prod
    return total


def jet_phi_by_arithmetic(delta, k_max):
    ring = max(k_max, 2)
    z2 = y(2, ring) + y(1, ring) ** 2
    entries = [GradedPoly.const(Y, ring, 1), GradedPoly.zero(Y, ring)]
    for k in range(2, k_max + 1):
        lead = 2 * weighted_by_arithmetic(k - 1, entries[k - 1], ring + 1)
        tail = (2 * k + delta - 2) * (2 * k + delta - 3) * (z2 * entries[k - 2])
        entries.append(lead.with_nvars(ring) - tail)
    return entries


def test_working_form_matches_public_arithmetic_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(
        st.integers(1, 9), st.integers(1, 7), st.integers(0, 2**32),
        st.fractions(min_value=-7, max_value=7, max_denominator=6), st.integers(1, 4),
    )
    def check(weight, nvars, seed, k, width):
        rng = random.Random(seed)
        p = homogeneous(rng, weight, nvars)
        wide, n = p.nvars + 1, p.nvars
        assert_same_terms(jet_derivative(p), p.with_nvars(wide).derivation(jet_images(wide), wide))
        assert_same_terms(weighted_derivative(k, p), weighted_by_arithmetic(k, p, wide))
        lowered = [-(s + 1) * s * y(s, n) for s in range(1, n)]
        assert_same_terms(annihilator(p), p.derivation([GradedPoly.const(Y, n, 1), *lowered], n))
        assert_same_terms(euler_operator(p), p.derivation([-2 * s * y(s, n) for s in range(1, n + 1)], n))
        # one homogeneous image with rational coefficients per variable of P, over `width` variables
        images = [homogeneous(rng, rng.randint(1, 3), width) for _ in range(n)]
        assert_same_terms(p.substitute(images, Y, width), substitute_by_arithmetic(p, images, Y, width))
        # x_k read as Z_k, term by term, over terms in an order that is not sorted
        px = GradedPoly(VariableFamily.X, n, reversed(p._terms.items()))
        assert_same_terms(params_as_basis(px), GradedPoly(Y, n + 1, [((0, *e), c) for e, c in px._terms.items()]))

    check()


@pytest.mark.parametrize("delta", [0, 1])
def test_jet_phi_table_matches_public_arithmetic(delta):
    for k_max in (1, 2, 7, 16):
        entries = jet_phi_table(delta, k_max).entries
        assert len(entries) == k_max + 1
        for got, expected in zip(entries, jet_phi_by_arithmetic(delta, k_max)):
            assert_same_terms(got, expected)
