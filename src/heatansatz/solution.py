"""Series solutions of the heat equation and their Burgers images.

A solution is assembled as

    psi(z, t) = exp(-h(t) z^2 / 2 + r(t)) *
                (z^delta + sum_{k>=2} Phi_k(x(t)) z^(2k+delta) / (2k+delta)!)

with r'(t) = -(delta + 1/2) h(t) and the parameters x(t) riding a heat
dynamical system.  For the built-in rational h family everything on the
series side is exact: coefficients, order-by-order heat residuals, the
Cole-Hopf image and its Burgers residual are all computed in rational
arithmetic, over the ansatz parameters x(t) rather than over the jets of
h.  Floats appear only in pointwise evaluation and in the
finite-difference residual checks.  Both exact residuals run on one
driver, ``_series_residual``, which takes the parameters' rates from the
one vector field, ``dynsys.heat_system_field``.

Pointwise evaluation goes by time slice: everything that depends on t
alone (h, the prefactor, the series coefficients) is computed once per
time and converted to float, and each point is then a Horner pass in z^2.
At a float time the jets, chain values and coefficients take no ``Fraction``
arithmetic (``grpoly.float_rows``), bit-identical to ``evaluate`` on floats.
psi and v share this one slice path, ``_TimeSliced.at``, with its memo of
the last slice; an overflow while it evaluates the coefficients names t.
Both finite-difference residuals run on one driver, ``_grid_residual``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence, Union

from .ansatz import AnsatzSpec, PhiTable, _check_delta, ansatz_to_jet, general_phi_table
from .dynsys import DynState, MobiusParam, PoleError, RationalH, heat_system_field, reduced_initial_state
from .grpoly import GradedPoly, Numeric, VariableFamily, _combination, _numerators, _times, float_rows

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

    e^{r} = e^{r0} * prod_{alpha_k != 0} (alpha_k/(alpha_k t - beta_k))^p
    with p = (delta + 1/2)/(n+1).  Only evaluated where every base is
    positive; other regions are rejected, and a prefactor that leaves the
    float range raises OverflowError naming t.
    """
    p = (delta + 0.5) / (h.n + 1)
    bases = []
    for pole, den in zip(h.poles, h._denominators(t)):
        if pole.alpha:
            bases.append(float(pole.alpha / den))  # Fraction / float divides in floats
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
    """Linear interpolation over an integrated trajectory, plus the
    running trapezoid integral of x1 (for the r(t) exponent)."""

    def __init__(self, states: Sequence[DynState]) -> None:
        if len(states) < 2:
            raise ValueError("trajectory must contain at least two states")
        self.ts = [s.t for s in states]
        self.xs = [s.x for s in states]
        acc = [0.0]
        for i in range(1, len(states)):
            dt = self.ts[i] - self.ts[i - 1]
            acc.append(acc[-1] + dt * (self.xs[i][0] + self.xs[i - 1][0]) / 2)
        self.x1_integral = acc

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
    """A table over x2..x_{n+1} read at x(t) one time slice at a time: a subclass sets
    ``_table`` and has ``parameter_values(t)`` and ``_slice(t, h, values)``, which packs the slice."""

    _last = None  # the last (t, slice) built by at()

    def at(self, t: Numeric):
        """The float data at time t: h(t) and the table at x(t), by ``grpoly.float_rows`` at an
        all-float point (bit-identical to ``evaluate``), else evaluated exactly and rounded once.

        The table comes first, then h; an overflow of either names t.  The last slice is memoised by the value
        and the type of t (2 == 2.0 == Fraction(2), but exact and float times give different
        slices): a grid that loops over t outside z builds one slice per time.
        """
        if self._last is not None and type(self._last[0]) is type(t) and self._last[0] == t:
            return self._last[1]
        xs = self.parameter_values(t)
        point = xs[1:]
        try:
            if all(type(v) is float for v in point):
                values = tuple(self._rows(point))
            else:
                values = tuple(float(p.evaluate(point)) for p in self._table)
            h = float(xs[0])
        except OverflowError:
            raise OverflowError(f"series coefficients not finite at t = {t}") from None
        data = self._slice(t, h, values)
        self._last = (t, data)
        return data

    _rows = cached_property(lambda self: float_rows(self._table))  # built at the first float slice


class SeriesSolution(_TimeSliced):
    """A truncated ansatz solution with an attached profile source.

    The coefficient table fixes the solution's shape: the parity delta is
    ``phi.delta``, n is the size of the ring x2..x_{n+1} that the entries
    are declared over, and the truncation order K is the last entry's index.
    ``h_source`` is either a :class:`RationalH` (exact jets, closed-form
    prefactor) or an integrated trajectory (floats, interpolated).  The two
    read ``r0`` differently: an exact source takes it as the constant in
    e^{r(t)} = e^{r0} * prod_k (alpha_k/(alpha_k t - beta_k))^p (see
    :func:`exp_r`), a trajectory source as the value r(t0) at the first
    state.  The same r0 therefore gives different psi for the two.
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
        self._interp = None if isinstance(h_source, RationalH) else _TrajectoryInterp(h_source)
        # the bracket series W(s) = sum_k a_k s^k with a_k = Phi_k / (2k+delta)!, divided exactly
        # (the float factorial overflows from K = 86 on): every series and slice of psi and v reads it
        self.scaled = self._table = tuple(
            entry * Fraction(1, math.factorial(2 * k + self.delta)) for k, entry in enumerate(phi.entries)
        )

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

    def bracket_coefficients(self, t: Numeric) -> list:
        """b_k = psi_k(t) / e^{r(t)} for k = 0..K, exact for exact sources.

        b_k = (2k+delta)! * sum_{i+j=k} (-h/2)^i / i! * a_j(x).
        """
        xs = self.parameter_values(t)
        return self._bracket(_gauss(-HALF * xs[0], self.truncation + 1), [a.evaluate(xs[1:]) for a in self.scaled])

    # kept only while perfbench/spans.py TARGETS wraps it; nothing in the package calls it
    def bracket_jets(self) -> list[GradedPoly]:
        """The b_k as jet polynomials (ansatz parameters substituted by
        chain polynomials)."""
        base = -HALF * GradedPoly.variable(VariableFamily.Y, 1, 1)
        hat = [ansatz_to_jet(a, max(self.n, 1)) for a in self.scaled]
        return self._bracket(_gauss(base, len(hat)), hat)

    def _bracket(self, gauss: Sequence, a: Sequence) -> list:
        """(2k+delta)! * sum_{i+j=k} gauss_i a_j for k < len(a)."""
        return [math.factorial(2 * k + self.delta) * total for k, total in enumerate(_convolution(gauss, a))]

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

    For a rational profile source the parameters are the chain values
    x_k(t) = D_{k-1}(jets); the caller guarantees the source actually
    solves the family's profile equation.
    """
    if truncation < 2:
        raise ValueError("truncation order must be at least 2")
    return SeriesSolution(general_phi_table(spec, truncation), h_source, r0)


def rescale_to_mu(psi: Callable, mu: float) -> Callable:
    """Time-rescale a heat solution to the mu-diffusion equation.

    phi(z, t) = psi(z, 2 mu t) satisfies phi_t = mu phi_zz; mu = 1/2 is
    the identity.
    """
    if mu == 0:
        raise ValueError("mu must be nonzero")
    two_mu = 2 * mu
    if two_mu == 1:
        return psi
    return lambda z, t: psi(z, two_mu * t)


# -- residuals ----------------------------------------------------------------


def _convolution(a: Sequence, b: Sequence) -> list:
    """sum_{i+j=k} a_i b_j for each k < len(b); a may be shorter.  Exact entries are summed as int numerators
    over one denominator, each sum made one ``Fraction``; others (floats, polynomials) take the plain loop,
    each sum from 0 * b[k] in the order of i."""
    if all(type(v) is Fraction or type(v) is int for v in (*a, *b)):
        den_a, den_b = math.lcm(*(v.denominator for v in a)), math.lcm(*(v.denominator for v in b))
        na = [v.numerator * (den_a // v.denominator) for v in a]
        nb = [v.numerator * (den_b // v.denominator) for v in b]
        return [Fraction(sum(na[i] * nb[k - i] for i in range(min(k + 1, len(a)))), den_a * den_b)
                for k in range(len(b))]
    out = []
    for k in range(len(b)):
        total = 0 * b[k]
        for i in range(min(k + 1, len(a))):
            total = total + a[i] * b[k - i]
        out.append(total)
    return out


def _gauss(base, count: int) -> list:
    """base^i / i! for i < count: the series of e^{base s}."""
    return [base**i * Fraction(1, math.factorial(i)) for i in range(count)]


def _series_residual(sol: SeriesSolution, polys: Sequence[GradedPoly], t_samples: Sequence[Numeric], defects: Callable):
    """Max |defect| over the samples of an exact residual, for polynomials over x2..x_{n+1}.

    At each sample the exact (x1, ..., x_{n+1}) and their rates x' come from
    the chain family one size up, whose heat field lines for x1..x_{n+1} read
    x_{n+2} = D_{n+1}(jets) from the profile: off shell that differs from the
    spec's top polynomial.  ``defects(x, x', p, p')`` yields the defects from
    the polynomials' values p and rates p' = grad p . x' (the chain rule).
    """
    if not sol.exact:
        raise ValueError("the exact residual needs a rational profile source")
    n = sol.n
    grads = [[p.partial(k) for k in range(2, n + 2)] for p in polys]
    chain = AnsatzSpec.chain(n + 1, 0)
    worst = Fraction(0)
    for t in t_samples:
        state = reduced_initial_state(sol.h_source, n + 1, t)
        x, rates = state[:-1], heat_system_field(chain, state)[:-1]
        point = x[1:]
        values = [p.evaluate(point) for p in polys]
        slopes = [sum((g.evaluate(point) * r for g, r in zip(grad, rates[1:]) if g), Fraction(0)) for grad in grads]
        for defect in defects(x, rates, values, slopes):
            worst = max(worst, abs(defect))
    return worst


def heat_residual_series(sol: SeriesSolution, t_samples: Sequence[Numeric]):
    """Max order-by-order heat defect |b_k + (2 delta+1) h b_{k-1} - 2 b_{k-1}'|
    over k <= K-1 and the samples; exactly zero iff the source profile
    solves the family equation there.

    This is psi_k - 2 psi_{k-1}' with the positive prefactor e^{r(t)}
    factored out, so it stays in rational arithmetic.  b_k and b_k' are
    exact numbers at each sample: the chain rule over the parameters, with
    their exact rates.
    """
    K, d = sol.truncation, sol.delta

    def defects(x, rates, values, slopes):
        h = x[0]
        gauss = _gauss(-HALF * h, K)
        # d/dt (-h/2)^i / i! = (-h/2)^(i-1) / (i-1)! * (-h'/2)
        dgauss = [Fraction(0)] + [g * (-HALF * rates[0]) for g in gauss[:-1]]
        b = sol._bracket(gauss, values)
        db = [p + q for p, q in zip(sol._bracket(dgauss, values), sol._bracket(gauss, slopes))]
        return (b[k] + (2 * d + 1) * h * b[k - 1] - 2 * db[k - 1] for k in range(1, K))

    return _series_residual(sol, sol.scaled[:K], t_samples, defects)


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


class BurgersSolution(_TimeSliced):
    """The Cole-Hopf image v = -d/dz log psi of a series solution.

    v(z, t) = -delta/z + h(t) z - sum_{k>=2} c_k(t) z^(2k-1) where c_k is
    the z^(2k-1) coefficient of W'/W and W is the bracket series.
    ``series_jets[k]`` holds c_k as an X-family polynomial over the ansatz
    parameters x2..x_{n+1} (not over jets, despite the name), trusted
    through order 2K-1 and evaluated at the source's
    ``parameter_values(t)``.  The normalized table entry is
    Psi_k = (2 delta k + 1) (2k-1)! c_k.
    """

    def __init__(self, source: SeriesSolution, series_jets: Sequence[GradedPoly]) -> None:
        self.source = source
        self.series_jets = series_jets
        self._table = series_jets[2:]

    @property
    def delta(self) -> int:
        return self.source.delta

    @property
    def truncation(self) -> int:
        return self.source.truncation

    @property
    def pole_coefficient(self) -> int:
        """Coefficient of 1/z: 0 for even parity, -1 for odd."""
        return -self.delta

    def parameter_values(self, t: Numeric) -> tuple:
        """The source's (x1, ..., x_{n+1}) at time t."""
        return self.source.parameter_values(t)

    def series_values(self, t: Numeric) -> list:
        xs = self.parameter_values(t)
        return [p.evaluate(xs[1:]) for p in self.series_jets]

    def normalized_coefficients(self, t: Numeric) -> list:
        """The Psi_k table at time t (entries 0 and 1 are zero)."""
        out = []
        for k, value in enumerate(self.series_values(t)):
            scale = (2 * self.delta * k + 1) * math.factorial(max(2 * k - 1, 0))
            out.append(scale * value)
        return out

    def _slice(self, t: Numeric, h: float, coeffs: tuple[float, ...]) -> BurgersSlice:
        """v at time t: h(t) and c_2(t), ..., c_K(t)."""
        return BurgersSlice(self.delta, h, coeffs)

    def v(self, z: float, t: Numeric) -> float:
        return self.at(t).v(z)


def cole_hopf(sol: SeriesSolution) -> BurgersSolution:
    """Exact Cole-Hopf image of a series solution (diffusion mu = 1/2).

    With W = sum_k a_k z^(2k) from the scaled table (a_0 = 1), the image is
    v = -delta/z + h z - W'/W and W'/W = sum_k c_k z^(2k-1).  Matching
    coefficients in W (W'/W) = W' gives c_0 = 0 and the recursion
    c_k = 2k a_k - sum_{j=1}^{k-1} a_j c_{k-j}, one truncated convolution
    over the parameters x2..x_{n+1}, in the integer working form of ``grpoly``:
    each a_k is read once, and each c_k is stored as a ``GradedPoly`` once.
    Any source evaluates, an integrated trajectory too.
    """
    family, nvars = sol.scaled[0].family, max(entry.nvars for entry in sol.scaled)
    a = [_numerators(entry, nvars) for entry in sol.scaled]
    c = [({}, 1)]
    for k in range(1, sol.truncation + 1):
        convolution = _combination((1, _times(c[i], a[k - i])) for i in range(k))
        c.append(_combination([(2 * k, a[k]), (-1, convolution)]))
    return BurgersSolution(sol, tuple(GradedPoly._from_numerators(family, nvars, w) for w in c))


def burgers_residual(
    image: BurgersSolution,
    mu: Union[Fraction, float] = HALF,
    mode: str = "series",
    t_samples: Union[Sequence[Numeric], None] = None,
    grid: Union[GridSpec, None] = None,
):
    """Residual of v_t + v v_z = mu v_zz for a Cole-Hopf image.

    ``series`` mode expands the residual as an exact Laurent series in z
    (trusted through order 2K-3) and reports the max coefficient
    magnitude over the samples.  ``grid`` mode uses central differences
    on the evaluated v.
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
    # v = sum_m f_m z^(2m-1) with f_0 = -delta, f_1 = h and f_m = -c_m; the
    # z^(2M-3) coefficient of v_t + v v_z - mu v_zz is
    # f'_{M-1} + (M-1) (f*f)_M - mu (2M-1)(2M-2) f_M, trusted for M <= K
    K = image.truncation

    def defects(x, rates, values, slopes):
        f = [Fraction(-image.delta), x[0], *(-c for c in values[2:])]
        df = [0, Fraction(0), rates[0], *(-dc for dc in slopes[2:])]  # f'_{M-1} at index M
        ff = _convolution(f, f)
        return (df[M] + (M - 1) * ff[M] - mu * (2 * M - 1) * (2 * M - 2) * f[M] for M in range(K + 1))

    return _series_residual(image.source, image.series_jets, t_samples, defects)


def _burgers_grid_residual(image: BurgersSolution, mu: float, grid: GridSpec) -> float:
    return _grid_residual(image.v, grid, lambda v, v_t, v_z, v_zz: v_t + v * v_z - mu * v_zz)


def residual_report(max_residual: Union[Fraction, float], grid: Union[GridSpec, None] = None) -> str:
    """One-line JSON report of a residual check: {max_residual, grid, mode}.

    Floats are rendered with 17 significant digits so the report is
    byte-deterministic and round-trips exactly; a check on a grid reports
    mode ``grid``, one without (``grid`` null) mode ``series``.
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

    with x2(t) = -(A - B)^2/4 for the two summands A, B of 2h: the chain
    value D_1 = h' + h^2 of the profile.  A reference oracle for the n = 1
    series; a value that leaves the float range raises OverflowError.
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
