"""Operator calculus on jet-space polynomials.

The jet variables y1, y2, ... stand for a profile function h(t) and its
time derivatives.  Three first-order operators drive everything here:

* the weighted derivative  D + 2k*y1  (total time derivative along the
  jet prolongation plus multiplication by 2k*h), which maps degree -2m
  to degree -2(m+1);
* the annihilator  d/dy1 - sum_s (s+1)s * ys * d/dy_{s+1};
* the grading (Euler) operator  -2 sum_s s * ys * d/dys, which acts as
  multiplication by the graded degree on homogeneous input.

Iterating the weighted derivative on y1 produces the chain polynomials
D1 = y2 + y1^2, D2, D3, ...; together with y1 they generate a
multiplicative basis in which membership of the annihilator's kernel is
visible monomial by monomial.  The basis symbol Z_k = D_{k-1} is the chain
value of the ansatz parameter x_k, and one relabelling reads one as the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .grpoly import GradedPoly, NonHomogeneousError, Scalar, VariableFamily


def _require_y(poly: GradedPoly) -> None:
    if poly.family is not VariableFamily.Y:
        raise ValueError("jet-space operator applied outside the Y family")


def jet_derivative(poly: GradedPoly) -> GradedPoly:
    """Total time derivative along jets: sum_s y_{s+1} dP/dy_s."""
    _require_y(poly)
    nvars = poly.nvars + 1
    return poly.derivation([GradedPoly.variable(VariableFamily.Y, nvars, s + 1) for s in range(1, nvars)], nvars)


def weighted_derivative(k: Union[Scalar, float], poly: GradedPoly) -> GradedPoly:
    """Apply D + 2k*y1 where D is the jet time derivative.

    ``k`` may be any rational; the chain construction below needs k = 1/2
    once.  Homogeneous input of degree -2m comes out homogeneous of
    degree -2(m+1).
    """
    k = Fraction(k)
    _require_y(poly)
    nvars = poly.nvars + 1
    y1 = GradedPoly.variable(VariableFamily.Y, nvars, 1)
    return jet_derivative(poly) + (2 * k) * (y1 * poly.with_nvars(nvars))


def annihilator(poly: GradedPoly) -> GradedPoly:
    """Apply d/dy1 - sum_s (s+1)s * ys * d/dy_{s+1}."""
    _require_y(poly)
    nvars = poly.nvars
    one = GradedPoly.const(VariableFamily.Y, nvars, 1)
    lowered = [-(s + 1) * s * GradedPoly.variable(VariableFamily.Y, nvars, s) for s in range(1, nvars)]
    return poly.derivation([one, *lowered], nvars)


def euler_operator(poly: GradedPoly) -> GradedPoly:
    """Apply the grading operator -2 sum_s s * ys * d/dys."""
    _require_y(poly)
    nvars = poly.nvars
    graded = [-2 * s * GradedPoly.variable(VariableFamily.Y, nvars, s) for s in range(1, nvars + 1)]
    return poly.derivation(graded, nvars)


@lru_cache(maxsize=None)
def _chain(k_max: int) -> tuple[GradedPoly, ...]:
    chain: list[GradedPoly] = []
    current = GradedPoly.variable(VariableFamily.Y, 1, 1)
    for k in range(1, k_max + 1):
        weight = Fraction(1, 2) if k == 1 else Fraction(k)
        current = weighted_derivative(weight, current)
        chain.append(current)
    return tuple(chain)


def derivative_chain(k_max: int) -> list[GradedPoly]:
    """The chain polynomials [D1, ..., D_{k_max}].

    D1 = (D + y1) y1 = y2 + y1^2 and D_k = (D + 2k*y1) D_{k-1}; entry i
    of the returned list is D_{i+1}, homogeneous of degree -2(i+2) and
    annihilated by :func:`annihilator`.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return list(_chain(k_max))


def basis_elements(m: int) -> list[GradedPoly]:
    """[Z0, Z1, Z2, ..., Zm] with Z0 = Z1 = 0 and Z_k = D_{k-1} for k >= 2.

    {y1, Z2, Z3, ...} is a multiplicative basis of the jet polynomials:
    Z_k = y_k + (graded-lex lower terms), so the map from basis monomials
    to their leading jet monomials is triangular with unit coefficients.
    """
    zero = GradedPoly.zero(VariableFamily.Y, 1)
    if m < 2:
        return [zero] * (m + 1)
    return [zero, zero] + derivative_chain(m - 1)


def basis_name(position: int) -> str:
    """The printed name of a basis-symbol position: y1 at 0, Z_k at k-1."""
    return "y1" if position == 0 else f"Z{position + 1}"


def params_as_basis(poly: GradedPoly) -> GradedPoly:
    """Read each ansatz parameter x_k as the basis symbol Z_k = D_{k-1} (y1 unused),
    keeping the term order that a later substitution sums in."""
    if poly.family is not VariableFamily.X:
        raise ValueError("only ansatz parameters read as basis symbols")
    return GradedPoly(VariableFamily.Y, poly.nvars + 1, (((0, *e), c) for e, c in poly._terms.items()))


def basis_as_params(zpoly: GradedPoly) -> GradedPoly:
    """The inverse of :func:`params_as_basis`, terms in canonical order."""
    terms = zpoly.terms()
    if zpoly.family is not VariableFamily.Y or any(e[0] for e, _ in terms):
        raise ValueError("only basis polynomials free of y1 read as ansatz parameters")
    return GradedPoly(VariableFamily.X, max(zpoly.nvars - 1, 0), ((e[1:], c) for e, c in terms))


def expand_basis(poly: GradedPoly) -> GradedPoly:
    """Expand a polynomial in basis symbols (position 0 = y1, position
    k-1 = Z_k) back into plain jet variables."""
    _require_y(poly)
    used = poly.max_used_position() + 1  # the chain is built only as far as the polynomial reaches
    zs = basis_elements(used)
    images = [GradedPoly.variable(VariableFamily.Y, 1, 1)] + [zs[k] for k in range(2, used + 1)]
    return poly.substitute(images, VariableFamily.Y, max(poly.nvars, 1))


@dataclass(frozen=True)
class BasisDecomposition:
    """A jet polynomial rewritten over the multiplicative basis.

    ``zpoly`` uses position 0 for y1 and position k-1 for Z_k; expanding
    the basis symbols reproduces the original polynomial exactly.
    """

    zpoly: GradedPoly

    def expand(self) -> GradedPoly:
        return expand_basis(self.zpoly)

    def uses_y1(self) -> bool:
        return any(exps[0] for exps, _ in self.zpoly.terms())

    def to_text(self) -> str:
        return self.zpoly.to_text(names=basis_name)


def decompose_basis(poly: GradedPoly) -> BasisDecomposition:
    """Rewrite a homogeneous jet polynomial over {y1, Z2, Z3, ...}.

    Triangular elimination: the graded-lex leading monomial
    y1^a1 y2^a2 ... ym^am of the remainder is matched by the basis
    monomial y1^a1 Z2^a2 ... Zm^am (same leading term, coefficient 1),
    which is subtracted off.  Each step strictly lowers the leading
    monomial inside a fixed finite degree class, so this terminates and
    the result is unique.
    """
    _require_y(poly)
    if not poly.is_homogeneous():
        raise NonHomogeneousError("basis decomposition needs homogeneous input")
    work = poly.trimmed()
    m = max(work.nvars, 1)
    zs = basis_elements(m)
    out: dict[tuple[int, ...], Fraction] = {}
    power_cache: dict[tuple[int, int], GradedPoly] = {}

    def basis_power(position: int, e: int) -> GradedPoly:
        key = (position, e)
        if key not in power_cache:
            base = GradedPoly.variable(VariableFamily.Y, 1, 1) if position == 0 else zs[position + 1]
            power_cache[key] = base**e
        return power_cache[key]

    while work:
        exps, coeff = work.leading_term()
        exps = exps + (0,) * (m - len(exps))
        prod = GradedPoly.const(VariableFamily.Y, 1, 1)
        for i, e in enumerate(exps):
            if e:
                prod = prod * basis_power(i, e)
        out[exps] = out.get(exps, Fraction(0)) + coeff
        work = work - coeff * prod
    return BasisDecomposition(GradedPoly(VariableFamily.Y, m, out))


def is_annihilated(poly: GradedPoly) -> bool:
    """Whether the annihilator kills the (homogeneous) polynomial.

    Equivalent, by the multiplicative-basis argument, to the basis
    decomposition containing no y1 factor in any monomial.
    """
    if not poly.is_homogeneous():
        raise NonHomogeneousError("kernel membership is only defined for homogeneous input")
    return annihilator(poly).is_zero
