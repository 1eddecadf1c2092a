"""Series solutions of the heat equation and their Burgers images.

A solution is assembled as

    psi(z, t) = exp(-h(t) z^2 / 2 + r(t)) *
                (z^delta + sum_{k>=2} Phi_k(x(t)) z^(2k+delta) / (2k+delta)!)

with r'(t) = -(delta + 1/2) h(t) and the parameters x(t) riding a heat dynamical system.  For the built-in rational
h family everything on the series side is exact: coefficients, order-by-order heat residuals, the Cole-Hopf image
and its Burgers residual are all computed over the ansatz parameters x(t) rather than over the jets of h, and every
exact sum is taken in ints, with one ``Fraction`` per value: ``_over`` puts exact values over one denominator, and
``_laurent`` puts each image coefficient over the lcm of its own terms' denominators.  Floats appear only in
pointwise evaluation and in the finite-difference residual checks.  Both exact residuals run on one driver,
``_series_residual``: the parameters' rates come from the one vector field, ``dynsys.heat_system_field``, the
polynomials' values and slopes from one integer pass of ``grpoly.exact_rows`` per sample, and the defects of a
sample as int numerators over one denominator.

Pointwise evaluation goes by time slice: everything that depends on t alone (h, the prefactor, the series
coefficients) is computed once per time and converted to float, and each point is then a Horner pass in z^2.  psi's
table is read at x(t) by one method, ``SeriesSolution._read``: ``grpoly.float_rows`` at an all-float x(t) (no
``Fraction`` arithmetic, bit-identical to ``evaluate``), else ``grpoly.exact_rows``; each Phi_k coefficient is read
once, divided by (2k+delta)! as ints.  The Cole-Hopf image takes its coefficients from psi's there by one recursion,
``_laurent``, which builds the image's polynomials in ``grpoly``'s working form.  psi and v share one slice path,
``_TimeSliced.at``, with its memo of the last slice; an overflow while it evaluates the coefficients names t.  Both
finite-difference residuals run on one driver, ``_grid_residual``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import lt, mul
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .ansatz import AnsatzSpec, PhiTable, _check_delta, ansatz_to_jet, general_phi_table
from .dynsys import DynState, MobiusParam, PoleError, RationalH, heat_system_field, reduced_initial_state
from .grpoly import GradedPoly, Numeric, VariableFamily, _combination, _numerators, _times, exact_rows, float_rows

HALF = Fraction(1, 2)


def _horner(coeffs: Sequence[float], x: float) -> float:
    """sum_k coeffs[k] x^k."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _finite(value: float, name: str, z: float) -> float:
    """value, or OverflowError naming z when it has left the float range."""
    if not math.isfinite(value):
        raise OverflowError(f"{name} not finite at z = {z}")
    return value


def _psi_oracle(value: Callable) -> Callable:
    """psi(z, t) = value(z, t), where an OverflowError inside value, like a value that
    is not finite, raises OverflowError naming z."""

    def psi(z: float, t: float) -> float:
        try:
            out = value(z, t)
        except OverflowError:
            out = math.inf
        return _finite(out, "psi", z)

    return psi


class PsiSlice(NamedTuple):
    """A series solution at one time t, as floats.

    psi(z, t) = prefactor * e^{-h z^2 / 2} * z^delta * sum_k coeffs[k] z^(2k)
    with coeffs[k] = Phi_k(x(t)) / (2k+delta)!.
    """

    delta: int
    h: float
    prefactor: float
    coeffs: tuple[float, ...]

    def bracket(self, z: float) -> float:
        z = float(z)
        value = _horner(self.coeffs, z * z)
        return _finite(value * z if self.delta else value, "series", z)

    def psi(self, z: float) -> float:
        z = float(z)
        return _finite(math.exp(-0.5 * self.h * (z * z)) * self.prefactor * self.bracket(z), "psi", z)


class BurgersSlice(NamedTuple):
    """A Cole-Hopf image at one time t, as floats.

    v(z, t) = -delta/z + h z - sum_{k>=2} c_k z^(2k-1) with
    coeffs = (c_2, ..., c_K).
    """

    delta: int
    h: float
    coeffs: tuple[float, ...]

    def v(self, z: float) -> float:
        z = float(z)
        if z == 0 and self.delta:
            raise ZeroDivisionError("odd-parity Burgers image has a pole at z = 0")
        zz = z * z
        # the pole and the linear term first: for odd parity they nearly
        # cancel, and their difference is then exact
        lead = self.h * z - self.delta / z if self.delta else self.h * z
        return _finite(lead - z * zz * _horner(self.coeffs, zz), "v", z)


@dataclass(frozen=True)
class GridSpec:
    """Sample grid and stencil spacings for finite-difference residuals."""

    z0: float
    z1: float
    znum: int
    t0: float
    t1: float
    tnum: int
    dz: float
    dt: float

    def __post_init__(self):
        if self.znum < 1 or self.tnum < 1:
            raise ValueError("grid counts must be positive")
        if self.dz <= 0 or self.dt <= 0:
            raise ValueError("stencil spacings must be positive")


def _axis(lo, hi, num: int) -> list:
    """num evenly spaced points lo + i*span from lo to hi, exact for
    Fractions; ValueError when a float span is not finite."""
    if num == 1:
        return [lo]
    span = (hi - lo) / (num - 1)
    if isinstance(span, float) and not math.isfinite(span):
        raise ValueError(f"grid from {lo} to {hi} has a span that is not finite")
    return [lo + i * span for i in range(num)]


def exp_r(h: RationalH, delta: int, r0: Union[Fraction, float], t: Numeric) -> float:
    """The closed-form prefactor e^{r(t)} solving r' = -(delta+1/2) h.

    e^{r} = e^{r0} * prod_{alpha_k != 0} (alpha_k/(alpha_k t - beta_k))^p with p = (delta + 1/2)/(n+1).  Only evaluated
    where every base is positive; other regions are rejected, and a prefactor that leaves the float range raises
    OverflowError naming t.  At a float t a base is the float alpha of ``RationalH._numbers`` over a float
    denominator, as Fraction / float divides.
    """
    p = (delta + 0.5) / (h.n + 1)
    bases = []
    for pole, (a, _, num, _), den in zip(h.poles, h._numbers, h._denominators(t)):
        if num:
            bases.append(a / den if type(den) is float else float(pole.alpha / den))
            if bases[-1] <= 0:
                raise ValueError(f"fractional power of non-positive base at t = {t}")
    try:
        acc = math.exp(float(r0))
        for base in bases:
            acc *= base**p
    except OverflowError:
        acc = math.inf
    if not math.isfinite(acc):
        raise OverflowError(f"prefactor not finite at t = {t}")
    return acc


class _TrajectoryInterp:
    """Linear interpolation over an integrated trajectory, plus the running trapezoid integral of x1 (for the r(t)
    exponent).

    ``states`` are (t, x) pairs: ``DynState``s or the plain tuples of ``rk4_integrate``.  Their times must be finite
    and strictly increasing and each x must have ``width`` components, checked in that order; the first state that
    fails raises ValueError naming its index.  The checks run as C-level passes over the columns (times that strictly
    increase hold no nan, so they are finite when the first and the last are).  The integral takes the float steps
    acc_i = acc_{i-1} + (t_i - t_{i-1}) * (x1_i + x1_{i-1}) / 2 from 0.0.
    """

    def __init__(self, states: Sequence[DynState], width: int) -> None:
        if len(states) < 2:
            raise ValueError("trajectory must contain at least two states")
        ts, xs = zip(*states)
        ordered = all(map(lt, ts, ts[1:])) and math.isfinite(ts[0]) and math.isfinite(ts[-1])
        if not ordered or [*map(len, xs)].count(width) != len(xs):
            for what, offset, flags in (
                ("time is not finite", 0, map(math.isfinite, ts)),
                ("time does not increase", 1, map(lt, ts, ts[1:])),
                (f"x must have {width} components", 0, map(width.__eq__, map(len, xs))),
            ):
                if False in (flags := [*flags]):
                    raise ValueError(f"trajectory state {flags.index(False) + offset}: {what}")
        self.ts, self.xs = ts, xs
        # on CPython 3.11 a loop over zip is faster than a chain of maps of operator functions into accumulate
        acc, self.x1_integral = 0.0, [0.0]
        append = self.x1_integral.append
        for t, t_last, x, x_last in zip(ts[1:], ts, xs[1:], xs):
            acc = acc + (t - t_last) * (x[0] + x_last[0]) / 2
            append(acc)

    def _locate(self, t: float) -> int:
        if t < self.ts[0] - 1e-12 or t > self.ts[-1] + 1e-12:
            raise ValueError(f"t = {t} outside the integrated range")
        i = bisect_right(self.ts, t) - 1
        return min(max(i, 0), len(self.ts) - 2)

    def state(self, t: float) -> tuple:
        i = self._locate(t)
        w = (t - self.ts[i]) / (self.ts[i + 1] - self.ts[i])
        return tuple(a + w * (b - a) for a, b in zip(self.xs[i], self.xs[i + 1]))

    def integral_x1(self, t: float) -> float:
        i = self._locate(t)
        w = t - self.ts[i]
        x1a = self.xs[i][0]
        x1b = self.state(t)[0]
        return self.x1_integral[i] + w * (x1a + x1b) / 2


class _TimeSliced:
    """Float data at x(t), memoised per time: a subclass has ``parameter_values(t)``, ``_read(xs)``, its table at
    xs = (x1, ..., x_{n+1}), and ``_slice(t, h, values)`` to pack a slice."""

    _last = None  # the last (t, slice) built by at()

    def at(self, t: Numeric):
        """The float data at time t: h(t) and the table at x(t) by ``_read``, exact values rounded once.

        The table comes first, then h; an overflow of either names t.  The last slice is memoised by the value
        and the type of t (2 == 2.0 == Fraction(2), but exact and float times give different
        slices): a grid that loops over t outside z builds one slice per time.
        """
        if self._last is not None and type(self._last[0]) is type(t) and self._last[0] == t:
            return self._last[1]
        xs = self.parameter_values(t)
        try:
            values = self._read(xs)
            coeffs = tuple(map(float, values)) if values and type(values[0]) is Fraction else tuple(values)
            h = float(xs[0])
        except OverflowError:
            raise OverflowError(f"series coefficients not finite at t = {t}") from None
        data = self._slice(t, h, coeffs)
        self._last = (t, data)
        return data


class SeriesSolution(_TimeSliced):
    """A truncated ansatz solution with an attached profile source.

    The coefficient table fixes the solution's shape: the parity delta is ``phi.delta``, n is the size of the ring
    x2..x_{n+1} that the entries are declared over, and the truncation order K is the last entry's index.
    ``h_source`` is either a :class:`RationalH` (exact jets, closed-form prefactor) or an integrated trajectory of
    (t, x) pairs (floats, interpolated).  The two read ``r0`` differently: an exact source takes it as the constant in
    e^{r(t)} = e^{r0} * prod_k (alpha_k/(alpha_k t - beta_k))^p (see :func:`exp_r`), a trajectory source as the value
    r(t0) at the first state.  The same r0 therefore gives different psi for the two.  Slices and bracket coefficients
    read a_k = Phi_k / (2k+delta)! by ``_read``, each Phi_k coefficient divided as it is read.
    """

    def __init__(
        self,
        phi: PhiTable,
        h_source: Union[RationalH, Sequence[DynState]],
        r0: Union[Fraction, float],
    ) -> None:
        self.phi = phi
        self.delta = phi.delta
        self.n = phi.entries[0].nvars
        self.truncation = len(phi.entries) - 1
        self.h_source = h_source
        self.r0 = r0
        self._interp = None if isinstance(h_source, RationalH) else _TrajectoryInterp(h_source, self.n + 1)
        self._factorials = [math.factorial(2 * k + self.delta) for k in range(self.truncation + 1)]

    # -- state access -------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self._interp is None

    def parameter_values(self, t: Numeric) -> tuple:
        """(x1, ..., x_{n+1}) at time t; x_{k+1} = D_k(jets) for exact sources."""
        if self.exact:
            return reduced_initial_state(self.h_source, self.n, t)
        return self._interp.state(float(t))

    def r_exponential(self, t: Numeric) -> float:
        """e^{r(t)} as a float."""
        if self.exact:
            return exp_r(self.h_source, self.delta, self.r0, t)
        integral = self._interp.integral_x1(float(t))
        try:
            return math.exp(float(self.r0) - (self.delta + 0.5) * integral)
        except OverflowError:
            raise OverflowError(f"prefactor not finite at t = {t}") from None

    # -- series data --------------------------------------------------------

    def _read(self, xs: tuple) -> list:
        """a_k = Phi_k / (2k+delta)! at xs = (x1, ..., x_{n+1}): by ``float_rows`` if all x_i are floats
        (bit-identical to evaluate), else by ``exact_rows``.  x1 counts, as at n = 0 the point x2.. is empty.
        Each reader is built at first use."""
        rows = self._float_rows if all(type(v) is float for v in xs) else self._exact_rows
        return rows(xs[1:])

    _float_rows = cached_property(lambda self: float_rows(self.phi.entries, self._factorials))
    _exact_rows = cached_property(lambda self: exact_rows(self.phi.entries, self._factorials))

    def bracket_coefficients(self, t: Numeric) -> list:
        """b_k = psi_k(t) / e^{r(t)} for k = 0..K, exact for exact sources.

        b_k = (2k+delta)! * sum_{i+j=k} (-h/2)^i / i! * a_j(x), with the a_j(x) read by ``_read``.
        """
        xs = self.parameter_values(t)
        return self._bracket(xs[0], self._read(xs))

    # kept only while perfbench/spans.py TARGETS wraps it; nothing in the package calls it
    def bracket_jets(self) -> list[GradedPoly]:
        """The b_k as jet polynomials (ansatz parameters substituted by
        chain polynomials, each a_k = Phi_k / (2k+delta)! divided as it is substituted)."""
        hat = [ansatz_to_jet(e * Fraction(1, f), max(self.n, 1)) for e, f in zip(self.phi.entries, self._factorials)]
        return self._bracket(GradedPoly.variable(VariableFamily.Y, 1, 1), hat)

    def _bracket(self, h, a: Sequence) -> list:
        """(2k+delta)! * sum_{i+j=k} (-h/2)^i / i! a_j for k < len(a).  An exact h and exact a_j are summed as ints
        (``_gauss``, ``_over``), each value one ``Fraction``; others take ``_convolution`` over (-h/2)^i * (1/i!)."""
        base = -HALF * h
        if all(type(v) is Fraction or type(v) is int for v in (h, *a)):
            (g, dg), (na, da) = _gauss(base, len(a)), _over(a)
            return [Fraction(f * s, dg * da) for f, s in zip(self._factorials, _int_convolution(g, na))]
        gauss = [base**i * Fraction(1, math.factorial(i)) for i in range(len(a))]
        return [f * total for f, total in zip(self._factorials, _convolution(gauss, a))]

    # -- evaluation ----------------------------------------------------------

    def _slice(self, t: Numeric, h: float, coeffs: tuple[float, ...]) -> PsiSlice:
        """psi at time t: h(t), e^{r(t)} and a_k = Phi_k(x(t)) / (2k+delta)! for k = 0..K."""
        return PsiSlice(self.delta, h, self.r_exponential(t), coeffs)

    def bracket(self, z: float, t: Numeric) -> float:
        return self.at(t).bracket(z)

    def psi(self, z: float, t: Numeric) -> float:
        return self.at(t).psi(z)


def assemble_psi(
    spec: AnsatzSpec,
    h_source: Union[RationalH, Sequence[DynState]],
    r0: Union[Fraction, float],
    truncation: int,
) -> SeriesSolution:
    """Build the truncated series solution for the given ansatz family.

    For a rational profile source the parameters are the chain values x_k(t) = D_{k-1}(jets); the caller guarantees
    the source actually solves the family's profile equation.
    """
    if truncation < 2:
        raise ValueError("truncation order must be at least 2")
    return SeriesSolution(general_phi_table(spec, truncation), h_source, r0)


# -- residuals ----------------------------------------------------------------


def _over(values: Sequence) -> tuple[list[int], int]:
    """Exact values (ints and ``Fraction``s) as int numerators over the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _int_convolution(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """sum_{i+j=k} a_i b_j in ints for each k < len(b); a may be shorter."""
    return [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(len(b))]


def _convolution(a: Sequence, b: Sequence) -> list:
    """sum_{i+j=k} a_i b_j for each k < len(b); a may be shorter.  The float and polynomial loop: each sum from
    0 * b[k] in the order of i (exact sums are ``_int_convolution``'s, over ``_over``)."""
    out = []
    for k in range(len(b)):
        total = 0 * b[k]
        for i in range(min(k + 1, len(a))):
            total = total + a[i] * b[k - i]
        out.append(total)
    return out


def _gauss(u: Union[int, Fraction], count: int) -> tuple[list[int], int]:
    """u^i / i! for i < count as int numerators U^i V^m m! / i! over V^m m! (u = U/V, m = count - 1)."""
    g = [u.denominator ** (count - 1) * math.factorial(count - 1)]
    for i in range(1, count):
        g.append(g[-1] * u.numerator // (u.denominator * i))
    return g, g[0]


def _series_residual(sol: SeriesSolution, polys, divisors, t_samples: Sequence[Numeric], defects: Callable):
    """Max |defect| over the samples of an exact residual, for polynomials p / d (``divisors`` d) over x2..x_{n+1}.

    At each sample the exact (x1, ..., x_{n+1}) and their rates x' come from the chain family one size up, whose heat
    field lines for x1..x_{n+1} read x_{n+2} = D_{n+1}(jets) from the profile: off shell that differs from the spec's
    top polynomial.  ``defects(x, x', p, p')`` gives the defects as int numerators over one denominator, from the
    values p and rates p' = grad p . x' (the chain rule) of one integer pass of ``grpoly.exact_rows`` per sample; a
    sample's largest |numerator| makes one ``Fraction``.  A time not an int or ``Fraction`` raises ValueError first.
    """
    if not sol.exact:
        raise ValueError("the exact residual needs a rational profile source")
    if inexact := [t for t in t_samples if not isinstance(t, (int, Fraction))]:
        raise ValueError(f"exact residual needs rational sample times: t = {inexact[0]}")
    n = sol.n
    rows = exact_rows(polys, divisors)
    chain = AnsatzSpec.chain(n + 1, 0)
    worst = Fraction(0)
    for t in t_samples:
        state = reduced_initial_state(sol.h_source, n + 1, t)
        x, rates = state[:-1], heat_system_field(chain, state)[:-1]
        numerators, den = defects(x, rates, *rows(x[1:], rates[1:]))
        worst = max(worst, Fraction(max(map(abs, numerators), default=0), den))
    return worst


def heat_residual_series(sol: SeriesSolution, t_samples: Sequence[Numeric]):
    """Max order-by-order heat defect |b_k + (2 delta+1) h b_{k-1} - 2 b_{k-1}'| over k <= K-1 and the samples; exactly
    zero iff the source profile solves the family equation there.

    This is psi_k - 2 psi_{k-1}' with the positive prefactor e^{r(t)} factored out, so it stays in rational arithmetic.
    b_k and b_k' are exact at each sample by the chain rule over the parameters, with their exact rates: ``exact_rows``
    reads Phi_0..Phi_{K-1} with the factorials as divisors, and every sum is taken in ints (``_gauss``, ``_over``).
    A float sample raises ValueError.
    """
    K, F, odd = sol.truncation, sol._factorials, 2 * sol.delta + 1

    def defects(x, rates, values, slopes):
        # with g_i = u^i / i!, u = -h/2 = U/V, u' = P/Q: b_k = F_k (g*a)_k, b_k' = F_k (u' (g*a)_{k-1} + (g*s)_k)
        u, du = -HALF * x[0], -HALF * rates[0]
        (g, dg), (nums, den) = _gauss(u, K), _over([*values, *slopes])
        ga, gs = [0, *_int_convolution(g, nums[:K])], _int_convolution(g, nums[K:])  # ga[k + 1] = (g*a)_k
        U, V, P, Q = u.numerator, u.denominator, du.numerator, du.denominator
        return [V * Q * F[k] * ga[k + 1] - 2 * F[k - 1] * (odd * U * Q * ga[k] + V * (P * ga[k - 1] + Q * gs[k - 1]))
                for k in range(1, K)], dg * den * V * Q

    return _series_residual(sol, sol.phi.entries[:K], sol._factorials[:K], t_samples, defects)


def _grid_residual(u: Callable, grid: GridSpec, pointwise: Callable) -> float:
    """Max |pointwise(u, u_t, u_z, u_zz)| over the grid, by central differences.

    u is read one time row at a time (t + dt, t - dt, then t), so a u that
    memoises its last time slice builds three slices per grid time; each
    point then reads u(z + dz), u(z) and u(z - dz) once.
    """
    worst = 0.0
    zs = _axis(float(grid.z0), float(grid.z1), grid.znum)
    for t in _axis(float(grid.t0), float(grid.t1), grid.tnum):
        later = [u(z, t + grid.dt) for z in zs]
        earlier = [u(z, t - grid.dt) for z in zs]
        for z, ahead, behind in zip(zs, later, earlier):
            right, here, left = u(z + grid.dz, t), u(z, t), u(z - grid.dz, t)
            u_t, u_z = (ahead - behind) / (2 * grid.dt), (right - left) / (2 * grid.dz)
            value = pointwise(here, u_t, u_z, (right - 2 * here + left) / (grid.dz * grid.dz))
            if not math.isfinite(value):
                raise ValueError(f"non-finite residual at (z, t) = ({z}, {t})")
            worst = max(worst, abs(value))
    return worst


def diffusion_residual_numeric(psi: Callable, grid: GridSpec, mu: float = 0.5) -> float:
    """Max |D_t psi - mu D_zz psi| by central differences."""
    return _grid_residual(psi, grid, lambda u, u_t, u_z, u_zz: u_t - mu * u_zz)


# diffusion_residual_numeric at mu = 1/2, kept only while perfbench/spans.py TARGETS wraps it; nothing in the package calls it
def heat_residual_numeric(psi: Callable, grid: GridSpec) -> float:
    return diffusion_residual_numeric(psi, grid, 0.5)


# -- Cole-Hopf ----------------------------------------------------------------


def _laurent(a: Sequence, rates: Sequence = ()) -> tuple[list, list]:
    """W'/W = sum_k c_k z^(2k-1) for W = sum_k a_k z^(2k), a_0 = 1, in any ring: polynomials, Fractions or floats.

    Matching coefficients in W (W'/W) = W' gives c_0 = 0 and c_k = 2k a_k - sum_{i<k} c_i a_{k-i}.  Given the rates a'
    of the a_k, the rates c' follow by the product rule; else c' is empty.  One recursion, three kernels: polynomials
    (no rates) in ``grpoly``'s working form, each sum formed and then 2k a_k - sum, each c_k stored once; ``Fraction``s
    (every a_k and rate past the first) by ``_minus_products``, each c_k and c_k' one ``Fraction``; else (floats)
    each sum from 0 * a[k] in the order of i.
    """
    if isinstance(a[0], GradedPoly):
        nvars = max(p.nvars for p in a)
        w, c = [_numerators(p, nvars) for p in a], [({}, 1)]
        for k in range(1, len(w)):
            c.append(_combination([(2 * k, w[k]), (-1, _combination((1, _times(c[i], w[k - i])) for i in range(k)))]))
        return [GradedPoly._from_numerators(a[0].family, nvars, v) for v in c], []
    c, dc = [0 * a[0]], [0 * a[0]] if rates else []
    if all(type(v) is Fraction for v in (*a[1:], *rates[1:])):
        for k in range(1, len(a)):
            c.append(_minus_products(2 * k * a[k], zip(c[1:k], a[k - 1 : 0 : -1])))
            if rates:
                pairs = [*zip(dc[1:k], a[k - 1 : 0 : -1]), *zip(c[1:k], rates[k - 1 : 0 : -1])]
                dc.append(_minus_products(2 * k * rates[k], pairs))
        return c, dc
    for k in range(1, len(a)):
        total = 0 * a[k]
        for i in range(k):
            total = total + c[i] * a[k - i]
        c.append(2 * k * a[k] - total)
        if rates:
            dc.append(2 * k * rates[k] - sum((dc[i] * a[k - i] + c[i] * rates[k - i] for i in range(k)), 0 * a[k]))
    return c, dc


def _minus_products(lead: Fraction, pairs: Iterable[tuple]) -> Fraction:
    """lead - sum x y over pairs of exact numbers in one pass: an int numerator over the lcm of the denominators so
    far, rescaled when a product's denominator does not divide it, made one ``Fraction``."""
    num, den = lead.numerator, lead.denominator
    for x, y in pairs:
        scale, rest = divmod(den, d := x.denominator * y.denominator)
        if rest:
            new = math.lcm(den, d)
            num, den, scale = num * (new // den), new, new // d
        num -= x.numerator * y.numerator * scale
    return Fraction(num, den)


class BurgersSolution(_TimeSliced):
    """The Cole-Hopf image v = -d/dz log psi of a series solution.

    v(z, t) = -delta/z + h(t) z - sum_{k>=2} c_k(t) z^(2k-1) where c_k is the z^(2k-1) coefficient of W'/W and W is
    the bracket series.  At a time, ``_read`` takes the c_k by ``_laurent`` from the source's a_k there, read through
    the source's own readers: ``series_values(t)`` lists c_0(t), ..., c_K(t), exact at an exact time, and a slice
    rounds them once.  ``series_jets[k]``, built by the same recursion in ``grpoly``'s working form at first use, holds
    c_k as an X-family polynomial over the ansatz parameters x2..x_{n+1} (not over jets, despite the name), trusted
    through order 2K-1.  The normalized table entry is Psi_k = (2 delta k + 1) (2k-1)! c_k, a scale over
    ``series_values`` (entries 0 and 1 are zero).
    """

    def __init__(self, source: SeriesSolution) -> None:
        self.source = source
        self.delta = source.delta
        self.truncation = source.truncation

    @property
    def pole_coefficient(self) -> int:
        """Coefficient of 1/z: 0 for even parity, -1 for odd."""
        return -self.delta

    @cached_property
    def series_jets(self) -> tuple[GradedPoly, ...]:
        phi, factorials = self.source.phi, self.source._factorials
        return tuple(_laurent([entry * Fraction(1, f) for entry, f in zip(phi.entries, factorials)])[0])

    def parameter_values(self, t: Numeric) -> tuple:
        """The source's (x1, ..., x_{n+1}) at time t."""
        return self.source.parameter_values(t)

    def _read(self, xs: tuple) -> list:
        """c_0, ..., c_K at xs = (x1, ..., x_{n+1}), from the source's a_k there."""
        return _laurent(self.source._read(xs))[0]

    def series_values(self, t: Numeric) -> list:
        return self._read(self.parameter_values(t))

    def _slice(self, t: Numeric, h: float, coeffs: tuple[float, ...]) -> BurgersSlice:
        """v at time t: h(t) and c_2(t), ..., c_K(t), from ``coeffs`` = c_0(t), ..., c_K(t)."""
        return BurgersSlice(self.delta, h, coeffs[2:])

    def v(self, z: float, t: Numeric) -> float:
        return self.at(t).v(z)


def cole_hopf(sol: SeriesSolution) -> BurgersSolution:
    """Cole-Hopf image of a series solution (diffusion mu = 1/2): v = -delta/z + h z - W'/W with W = sum_k a_k z^(2k),
    a_k = Phi_k / (2k+delta)!, its c_k read from psi's a_k at each time by ``_laurent`` and exact at an exact time; no
    polynomial is built until ``series_jets`` is read.  Any source evaluates, an integrated trajectory too."""
    return BurgersSolution(sol)


def burgers_residual(
    image: BurgersSolution,
    mu: Union[Fraction, float] = HALF,
    mode: str = "series",
    t_samples: Union[Sequence[Numeric], None] = None,
    grid: Union[GridSpec, None] = None,
):
    """Residual of v_t + v v_z = mu v_zz for a Cole-Hopf image.

    ``series`` mode expands the residual as an exact Laurent series in z (trusted through order 2K-3) and reports the
    max coefficient magnitude over the samples.  ``grid`` mode uses central differences on the evaluated v.
    """
    if mode == "series":
        if t_samples is None:
            raise ValueError("series mode needs t_samples")
        return _burgers_series_residual(image, Fraction(mu), t_samples)
    if mode == "grid":
        if grid is None:
            raise ValueError("grid mode needs a GridSpec")
        return _burgers_grid_residual(image, float(mu), grid)
    raise ValueError(f"unknown mode {mode!r}")


def _burgers_series_residual(image: BurgersSolution, mu: Fraction, t_samples: Sequence[Numeric]):
    # v = sum_m f_m z^(2m-1) with f_0 = -delta, f_1 = h and f_m = -c_m, c and c' by ``_laurent`` from psi's a_k and
    # their rates; the z^(2M-3) coefficient of v_t + v v_z - mu v_zz is f'_{M-1} + (M-1) (f*f)_M - mu (2M-1)(2M-2) f_M,
    # trusted for M <= K: with f_M, then f'_{M-1} at index M, over one denominator and mu = P/Q, times Q den^2 an int
    K, sol = image.truncation, image.source

    def defects(x, rates, a, da):
        c, dc = _laurent(a, da)
        nums, den = _over([-image.delta, x[0], *(-v for v in c[2:]), 0, 0, rates[0], *(-v for v in dc[2:])])
        f, df, P, Q = nums[: K + 1], nums[K + 1 :], mu.numerator, mu.denominator
        return [Q * (den * df[M] + (M - 1) * ff) - P * (2 * M - 1) * (2 * M - 2) * den * f[M]
                for M, ff in enumerate(_int_convolution(f, f))], Q * den * den

    return _series_residual(sol, sol.phi.entries, sol._factorials, t_samples, defects)


def _burgers_grid_residual(image: BurgersSolution, mu: float, grid: GridSpec) -> float:
    return _grid_residual(image.v, grid, lambda v, v_t, v_z, v_zz: v_t + v * v_z - mu * v_zz)


def residual_report(max_residual: Union[Fraction, float], grid: Union[GridSpec, None] = None) -> str:
    """One-line JSON report of a residual check: {max_residual, grid, mode}.

    Floats are rendered with 17 significant digits so the report is byte-deterministic and round-trips exactly; a
    check on a grid reports mode ``grid``, one without (``grid`` null) mode ``series``.
    """

    def f(v) -> str:
        return format(float(v), ".17g")

    if grid is None:
        mode, grid_text = "series", "null"
    else:
        mode, grid_text = "grid", (
            f'{{"z0": {f(grid.z0)}, "z1": {f(grid.z1)}, "znum": {grid.znum}, '
            f'"t0": {f(grid.t0)}, "t1": {f(grid.t1)}, "tnum": {grid.tnum}, '
            f'"dz": {f(grid.dz)}, "dt": {f(grid.dt)}}}'
        )
    return f'{{"max_residual": {f(max_residual)}, "grid": {grid_text}, "mode": "{mode}"}}'


# -- closed forms --------------------------------------------------------------


def closed_form_0ansatz(delta: int, pole: MobiusParam, r0: Union[Fraction, float] = 0.0) -> Callable:
    """psi = (alpha/(alpha t - beta))^(1/2+delta) e^{-alpha z^2/(2(alpha t-beta)) + r0} z^delta,
    and e^{r0} z^delta for the vanishing pole (0 : beta), the profile h = 0.  A reference
    oracle for the n = 0 series; a value that leaves the float range raises OverflowError."""
    _check_delta(delta)
    a, b, r0 = float(pole.alpha), float(pole.beta), float(r0)

    def psi(z: float, t: float) -> float:
        value = c0 = math.exp(r0)
        if a:
            den = a * t - b
            if den == 0:
                raise PoleError(f"pole at t = {t}")
            base = a / den
            if base <= 0:
                raise ValueError(f"fractional power of non-positive base at t = {t}")
            value = base ** (0.5 + delta) * math.exp(-a * z * z / (2 * den)) * c0
        return value * z if delta else value

    return _psi_oracle(psi)


def gamma_ratio_coeff(m: int, delta: int) -> Fraction:
    """Gamma(3/4 + delta/2) / (m! Gamma(m + 3/4 + delta/2)) as an exact rational."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    _check_delta(delta)
    value = Fraction(1, math.factorial(m))
    base = Fraction(3, 4) + Fraction(delta, 2)
    for j in range(m):
        value /= base + j
    return value


def closed_form_1ansatz(
    delta: int,
    pole1: MobiusParam,
    pole2: MobiusParam,
    r0: Union[Fraction, float] = 0.0,
) -> Callable:
    """Two-pole closed form: Gaussian factor times the ratio-coefficient series.

    psi = prod_{alpha_k != 0} (alpha_k/(alpha_k t - beta_k))^((1+2 delta)/4)
          * exp(-z^2/4 * sum_k alpha_k/(alpha_k t - beta_k) + r0)
          * z^delta * sum_m gamma_m (-1)^m x2(t)^m (z/2)^(4m)

    with x2(t) = -(A - B)^2/4 for the two summands A, B of 2h: the chain value D_1 = h' + h^2 of the profile.  A
    reference oracle for the n = 1 series; a value that leaves the float range raises OverflowError.
    """
    _check_delta(delta)
    poles = (pole1, pole2)
    r0 = float(r0)
    p = (1 + 2 * delta) / 4

    def psi(z: float, t: float) -> float:
        summands = []
        for pole in poles:
            den = float(pole.alpha) * t - float(pole.beta)
            if den == 0:
                raise PoleError(f"pole at t = {t}")
            summands.append(float(pole.alpha) / den)
        prefactor = math.exp(r0)
        for s, pole in zip(summands, poles):
            if pole.alpha:
                if s <= 0:
                    raise ValueError(f"fractional power of non-positive base at t = {t}")
                prefactor *= s**p
        x2 = -0.25 * (summands[0] - summands[1]) ** 2
        u = (-x2) * (z / 2) ** 4
        term, acc, m = 1.0, 1.0, 0
        while m < 400:
            m += 1
            term *= u / (m * (m - 0.25 + 0.5 * delta))
            acc += term
            if term <= 1e-17 * abs(acc):
                break
        value = prefactor * math.exp(-(z * z) / 4 * (summands[0] + summands[1])) * acc
        return value * z if delta else value

    return _psi_oracle(psi)
