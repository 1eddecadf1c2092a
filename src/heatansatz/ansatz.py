"""Coefficient recursions for the z-series solution ansatz.

A separated solution of the heat equation is written as a Gaussian
prefactor times the bracket series

    z^delta + sum_{k>=2} Phi_k * z^(2k+delta) / (2k+delta)!

and the heat equation pins the coefficients order by order.  The one
recursion runs over the ansatz parameters x2..x_{n+1} of a polynomial
family (the reduced chain family with top polynomial P_n is the family
(x2, ..., x_{n+1}, P_n)).  The basis symbol Z_k is the chain value of
x_k, so the tails Q_k and jet images are tables read through x_k -> Z_k.
``jet_phi_table`` is an independent oracle in jet variables.

Parity is delta in {0, 1}; odd-order entries vanish for the closed-form
families but are carried by the recursions regardless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .grpoly import GradedPoly, Numeric, VariableFamily, _combination, _derived, _numerators, _times
from .operators import _monomial, _weighted_parts, expand_basis, params_as_basis


def _check_delta(delta: int) -> int:
    if delta not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    return delta


@dataclass(frozen=True)
class PhiTable:
    """Series coefficients Phi_0, Phi_1, ..., indexable by order."""

    delta: int
    entries: tuple[GradedPoly, ...]

    def __post_init__(self):
        _check_delta(self.delta)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, k: int) -> GradedPoly:
        return self.entries[k]


def jet_phi_table(delta: int, k_max: int) -> PhiTable:
    """Phi_k written in jet variables, for k = 0..k_max.

    Recursion: Phi_0 = 1, Phi_1 = 0 and

        Phi_k = 2 (D + 2(k-1) y1) Phi_{k-1}
                - (2k+delta-2)(2k+delta-3) (y2 + y1^2) Phi_{k-2},

    each entry homogeneous of degree -2k over y1..y_{k_max}.  It runs in the integer working form
    of ``grpoly``, sharing the (D + 2k*y1) loop with ``weighted_derivative``, and stores each entry once.
    """
    _check_delta(delta)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    ring = max(k_max, 2)
    z2 = _combination([(1, _monomial(ring, 1)), (1, _times(_monomial(ring, 0), _monomial(ring, 0)))])  # y2 + y1^2
    work = [_monomial(ring, -1), ({}, 1)]
    for k in range(2, k_max + 1):
        lead = [(2 * s, part) for s, part in _weighted_parts(k - 1, work[k - 1], ring)]
        work.append(_combination([*lead, (-(2 * k + delta - 2) * (2 * k + delta - 3), _times(z2, work[k - 2]))]))
    return PhiTable(delta, tuple(GradedPoly._from_numerators(VariableFamily.Y, ring, w) for w in work))


def jet_phi_remainders(delta: int, k_max: int) -> list[GradedPoly]:
    """The tails Q_k with Phi_k = -2^(k-2) (2+delta)(1+delta) Z_k + Q_k.

    Entries are polynomials in basis symbols (position k-1 stands for
    Z_k; y1 never occurs); Q_0 = Q_1 are undefined and returned as 0.
    Phi_k is the chain family's entry with x_k read as Z_k; through order
    k_max that table never meets the closure x_{k_max+1} = 0.
    """
    _check_delta(delta)
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    table = general_phi_table(AnsatzSpec.chain(k_max - 1, delta), k_max)
    lead = lambda k: (2 + delta) * (1 + delta) * 2 ** (k - 2) * GradedPoly.variable(VariableFamily.Y, k_max, k)
    zero = GradedPoly.zero(VariableFamily.Y, k_max)
    return [zero, zero] + [params_as_basis(table[k]) + lead(k) for k in range(2, k_max + 1)]


@dataclass(frozen=True)
class AnsatzSpec:
    """Polynomial data driving an n-parameter ansatz.

    The family p_2, ..., p_{n+2} (deg p_q = -2q) is checked when the spec is
    built, by any constructor, and stored over x2..x_{n+1} in canonical term
    order, the top chain variable x_{n+2} substituted by zero.  The reduced
    chain family with top polynomial P_n is the family (x2, ..., x_{n+1}, P_n).
    """

    n: int
    delta: int
    ps: tuple[GradedPoly, ...]

    @staticmethod
    def _cap(poly: GradedPoly, n: int, q: int) -> GradedPoly:
        """Check p_q and declare it over x2..x_{n+1}: p_q may use x2..x_{n+1} for
        q <= n+1, and the top p_{n+2} also x_{n+2}, which is capped to zero."""
        if poly.family is not VariableFamily.X:
            raise ValueError("ansatz polynomials live over the X family")
        last = n + 2 if q == n + 2 else n + 1
        if poly.max_used_position() > last - 2:
            raise ValueError(f"p_{q} may only use x2..x{last}")
        if not poly.is_homogeneous():
            raise ValueError(f"p_{q} must be homogeneous")
        if not poly.is_zero and poly.degree() != -2 * q:
            raise ValueError(f"p_{q} must have degree {-2 * q}, got {poly.degree()}")
        kept = {e: c for e, c in poly.terms() if len(e) <= n or e[n] == 0}
        return GradedPoly(VariableFamily.X, poly.nvars, kept).with_nvars(n)

    def __post_init__(self):
        _check_delta(self.delta)
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if len(self.ps) != self.n + 1:
            raise ValueError(f"need the {self.n + 1} polynomials p_2..p_{self.n + 2}")
        object.__setattr__(self, "ps", tuple(self._cap(poly, self.n, q) for q, poly in enumerate(self.ps, start=2)))

    @classmethod
    def general(cls, n: int, delta: int, ps: Sequence[GradedPoly]) -> "AnsatzSpec":
        return cls(n, delta, tuple(ps))

    @classmethod
    def reduced(cls, n: int, delta: int, top: GradedPoly) -> "AnsatzSpec":
        """The chain family p_q = x_q for q <= n+1 closed by p_{n+2} = P_n, where P_n
        may use only x2..x_n; the constructor runs every other check."""
        if top.max_used_position() >= max(n - 1, 0):
            allowed = f"x2..x{n}" if n > 1 else f"constants: n = {n} has no parameters"
            raise ValueError(f"P_n may only use {allowed}")
        chain = [GradedPoly.variable(VariableFamily.X, n, q) for q in range(2, n + 2)]
        return cls.general(n, delta, [*chain, top])

    @classmethod
    def chain(cls, n: int, delta: int) -> "AnsatzSpec":
        """The reduced family with P_n = 0 (the closed-form families)."""
        return cls.reduced(n, delta, GradedPoly.zero(VariableFamily.X, 0))


def general_phi_table(spec: AnsatzSpec, q_max: int) -> PhiTable:
    """Phi_k over the ansatz parameters for a general polynomial family.

    Phi_2 = -2(1+2 delta) p_2 and, for q >= 3,

        Phi_q = 2 sum_{k=2}^{n+1} p_{k+1} dPhi_{q-1}/dx_k
                + (2q+delta-3)(2q+delta-2) / (2(1+2 delta)) * Phi_2 Phi_{q-2}.

    It runs in the integer working form of ``grpoly``, reading the checked p_3..p_{n+2} and storing each entry once.
    """
    if q_max < 2:
        raise ValueError("q_max must be at least 2")
    n, delta = spec.n, spec.delta
    entries = [
        GradedPoly.const(VariableFamily.X, n, 1),
        GradedPoly.zero(VariableFamily.X, n),
        GradedPoly.const(VariableFamily.X, n, -2 * (1 + 2 * delta)) * spec.ps[0],
    ]
    work = [_numerators(entry, n) for entry in entries]
    images = [(i, _numerators(p, n)) for i, p in enumerate(spec.ps[1:])]
    for q in range(3, q_max + 1):
        terms, den = _times(work[2], work[q - 2])  # the quadratic factor's denominator 2(1+2 delta) joins den
        quadratic = ((2 * q + delta - 3) * (2 * q + delta - 2), (terms, den * 2 * (1 + 2 * delta)))
        work.append(_combination([(2, _derived(work[q - 1], images)), quadratic]))
        entries.append(GradedPoly._from_numerators(VariableFamily.X, n, work[q]))
    return PhiTable(delta, tuple(entries))


# kept only while perfbench/ (spans.py TARGETS, workloads.py) names it; the package calls general_phi_table
def reduced_phi_table(n: int, top: GradedPoly, delta: int, q_max: int) -> PhiTable:
    """Phi_k for the reduced chain family with top polynomial P_n."""
    return general_phi_table(AnsatzSpec.reduced(n, delta, top), q_max)


# kept only while perfbench/ (spans.py TARGETS, workloads.py) names it; the package calls general_phi_table
def phi_table_for(spec: AnsatzSpec, q_max: int) -> PhiTable:
    return general_phi_table(spec, q_max)


def ansatz_to_jet(poly: GradedPoly, k_max: int) -> GradedPoly:
    """Substitute each ansatz parameter x_k by the chain polynomial D_{k-1}.

    ``poly`` may use x2..x_{k_max+1}; the result lives over jet variables
    y1..y_{k_max+1} and the graded degree is preserved.
    """
    if poly.family is not VariableFamily.X:
        raise ValueError("substitution expects an X-family polynomial")
    if poly.max_used_position() > k_max - 1:
        raise ValueError(f"polynomial uses parameters beyond x{k_max + 1}")
    return expand_basis(params_as_basis(poly.with_nvars(k_max)))


TimeFunction = Callable[[Numeric], Numeric]


# kept only while perfbench/spans.py TARGETS wraps it; nothing in the package calls it
def check_coefficient_recursion(
    coeffs: Sequence[tuple[TimeFunction, TimeFunction]],
    t_samples: Sequence[Numeric],
    tol: float = 0.0,
) -> bool:
    """Check psi_k(t) = 2 * psi_{k-1}'(t) at every sample.

    ``coeffs`` lists (value, derivative) callable pairs for psi_0, psi_1,
    and so on.  Exact values are compared exactly; floats within ``tol``.
    """
    for t in t_samples:
        for k in range(1, len(coeffs)):
            value = coeffs[k][0](t)
            target = 2 * coeffs[k - 1][1](t)
            if isinstance(value, float) or isinstance(target, float) or tol:
                if not math.isclose(float(value), float(target), rel_tol=0.0, abs_tol=tol or 1e-12):
                    return False
            elif value != target:
                return False
    return True
