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
visible monomial by monomial; the basis change and its inverse are two
substitutions (see :func:`decompose_basis`).  The basis symbol Z_k = D_{k-1}
is the chain value of the ansatz parameter x_k, and one relabelling reads one
as the other.  The operators build their images as int monomials and run in
the integer working form of ``grpoly``, each result stored once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .grpoly import GradedPoly, NonHomogeneousError, Scalar, VariableFamily, _combination, _derived, _numerators, _times


def _require_y(poly: GradedPoly) -> None:
    if poly.family is not VariableFamily.Y:
        raise ValueError("jet-space operator applied outside the Y family")


def _monomial(nvars: int, position: int, coeff: int = 1) -> tuple:
    """The working form of coeff times the variable at ``position`` over ``nvars`` slots; at -1, the constant coeff."""
    return {tuple(int(i == position) for i in range(nvars)): coeff}, 1


def _derivation(poly: GradedPoly, nvars: int, images: list) -> GradedPoly:
    """``poly`` over ``nvars`` slots under the derivation with the (position, working form) ``images``."""
    return GradedPoly._from_numerators(VariableFamily.Y, nvars, _derived(_numerators(poly, nvars), images))


def _jet_images(nvars: int) -> list:
    """The images of D over ``nvars`` slots: y_{i+2} for y_{i+1}, the last slot left alone."""
    return [(i, _monomial(nvars, i + 1)) for i in range(nvars - 1)]


def _weighted_parts(k: Fraction, work: tuple, nvars: int) -> list:
    """The (scalar, working form) pairs D P and 2k * y1 P, whose combination is (D + 2k*y1) P,
    for P in the working form over ``nvars`` slots whose last one P leaves unused."""
    return [(1, _derived(work, _jet_images(nvars))), (2 * k, _times(_monomial(nvars, 0), work))]


def jet_derivative(poly: GradedPoly) -> GradedPoly:
    """Total time derivative along jets: sum_s y_{s+1} dP/dy_s."""
    _require_y(poly)
    return _derivation(poly, poly.nvars + 1, _jet_images(poly.nvars + 1))


def weighted_derivative(k: Union[Scalar, float], poly: GradedPoly) -> GradedPoly:
    """Apply D + 2k*y1 where D is the jet time derivative.

    ``k`` may be any rational; the chain construction below needs k = 1/2
    once.  Homogeneous input of degree -2m comes out homogeneous of
    degree -2(m+1).
    """
    k = Fraction(k)
    _require_y(poly)
    nvars = poly.nvars + 1
    work = _combination(_weighted_parts(k, _numerators(poly, nvars), nvars))
    return GradedPoly._from_numerators(VariableFamily.Y, nvars, work)


def annihilator(poly: GradedPoly) -> GradedPoly:
    """Apply d/dy1 - sum_s (s+1)s * ys * d/dy_{s+1}."""
    _require_y(poly)
    nvars = poly.nvars
    # y_{s+1} goes to 1 for s = 0, else to -(s+1)s * y_s
    return _derivation(poly, nvars, [(s, _monomial(nvars, s - 1, -(s + 1) * s if s else 1)) for s in range(nvars)])


def euler_operator(poly: GradedPoly) -> GradedPoly:
    """Apply the grading operator -2 sum_s s * ys * d/dys."""
    _require_y(poly)
    nvars = poly.nvars
    return _derivation(poly, nvars, [(s - 1, _monomial(nvars, s - 1, -2 * s)) for s in range(1, nvars + 1)])


_CHAIN: list[GradedPoly] = []  # D_1, D_2, ... as far as any caller has asked


def _chain(k_max: int) -> list[GradedPoly]:
    """A fresh list of D_1..D_{k_max}, each built once per process from the one before it."""
    if not _CHAIN:
        _CHAIN.append(weighted_derivative(Fraction(1, 2), GradedPoly.variable(VariableFamily.Y, 1, 1)))
    while len(_CHAIN) < k_max:
        _CHAIN.append(weighted_derivative(len(_CHAIN) + 1, _CHAIN[-1]))
    return _CHAIN[:k_max]


def derivative_chain(k_max: int) -> list[GradedPoly]:
    """The chain polynomials [D1, ..., D_{k_max}].

    D1 = (D + y1) y1 = y2 + y1^2 and D_k = (D + 2k*y1) D_{k-1}; entry i
    of the returned list is D_{i+1}, homogeneous of degree -2(i+2) and
    annihilated by :func:`annihilator`.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return _chain(k_max)


def basis_elements(m: int) -> list[GradedPoly]:
    """[Z0, Z1, Z2, ..., Zm] with Z0 = Z1 = 0 and Z_k = D_{k-1} for k >= 2.

    {y1, Z2, Z3, ...} is a multiplicative basis of the jet polynomials:
    Z_k is y_k plus terms in y1..y_{k-1}, so substituting Z_k = D_{k-1} is
    triangular with unit diagonal and :func:`decompose_basis` inverts it.
    """
    zero = GradedPoly.zero(VariableFamily.Y, 1)
    if m < 2:
        return [zero] * (m + 1)
    return [zero, zero] + derivative_chain(m - 1)


def basis_name(position: int) -> str:
    """The printed name of a basis-symbol position: y1 at 0, Z_k at k-1."""
    return "y1" if position == 0 else f"Z{position + 1}"


def params_as_basis(poly: GradedPoly) -> GradedPoly:
    """Read each ansatz parameter x_k as the basis symbol Z_k = D_{k-1} (y1 unused): the working form
    relabelled, in the term order that a later substitution sums in."""
    if poly.family is not VariableFamily.X:
        raise ValueError("only ansatz parameters read as basis symbols")
    terms, den = _numerators(poly, poly.nvars)
    return GradedPoly._from_numerators(VariableFamily.Y, poly.nvars + 1, ({(0, *e): n for e, n in terms.items()}, den))


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
    images = [GradedPoly.variable(VariableFamily.Y, 1, 1)] + basis_elements(used)[2:]
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


@lru_cache(maxsize=None)
def _inverse_images(m: int) -> tuple[GradedPoly, ...]:
    """y1..y_m over the basis symbols: y1 stays, and y_k = Z_k - (D_{k-1} - y_k)
    with y1..y_{k-1} in it already rewritten."""
    y = lambda k: GradedPoly.variable(VariableFamily.Y, m, k)
    if m == 1:
        return (y(1),)
    lower = _inverse_images(m - 1)
    return (*lower, y(m) - (basis_elements(m)[m] - y(m)).substitute(lower, VariableFamily.Y, m))


def decompose_basis(poly: GradedPoly) -> BasisDecomposition:
    """Rewrite a homogeneous jet polynomial over {y1, Z2, Z3, ...}.

    The inverse substitution of :func:`expand_basis`, which puts D_{k-1} for
    Z_k: this puts Z_k - (D_{k-1} - y_k) for y_k, with the y1..y_{k-1} in it
    rewritten first.  Z_k is y_k plus terms in y1..y_{k-1}, so the two are
    inverse ring isomorphisms and the decomposition is unique.
    """
    _require_y(poly)
    if not poly.is_homogeneous():
        raise NonHomogeneousError("basis decomposition needs homogeneous input")
    m = max(poly.max_used_position() + 1, 1)
    return BasisDecomposition(poly.substitute(_inverse_images(m), VariableFamily.Y, m))


def is_annihilated(poly: GradedPoly) -> bool:
    """Whether the annihilator kills the (homogeneous) polynomial.

    Equivalent, by the multiplicative-basis argument, to the basis
    decomposition containing no y1 factor in any monomial.
    """
    if not poly.is_homogeneous():
        raise NonHomogeneousError("kernel membership is only defined for homogeneous input")
    return annihilator(poly).is_zero
