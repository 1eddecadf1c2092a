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
Both finite-difference residuals run on one driver, ``_grid_residual``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence, Union

from .ansatz import AnsatzSpec, PhiTable, _check_delta, ansatz_to_jet, general_phi_table
from .dynsys import DynState, MobiusParam, PoleError, RationalH, heat_system_field, reduced_initial_state
from .grpoly import GradedPoly, Numeric, VariableFamily

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


def _same_time(memo, t: Numeric) -> bool:
    """Whether a memo (t, slice) holds this time: 2 == 2.0 == Fraction(2),
    but exact and float times give different slices."""
    return bool(memo) and type(memo[0]) is type(t) and memo[0] == t


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
    positive; other regions are rejected.
    """
    p = (delta + 0.5) / (h.n + 1)
    acc = math.exp(float(r0))
    for pole in h.poles:
        if pole.alpha:
            den = pole.alpha * t - pole.beta
            if den == 0:
                raise PoleError(f"profile pole at t = {t}")
            base = float(pole.alpha / den) if not isinstance(t, float) else float(pole.alpha) / float(den)
            if base <= 0:
                raise ValueError(f"fractional power of non-positive base at t = {t}")
            acc *= base**p
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


class SeriesSolution:
    """A truncated ansatz solution with an attached profile source.

    The coefficient table fixes the solution's shape: the parity delta is
    ``phi.delta``, n is the size of the ring x2..x_{n+1} that the entries
    are declared over, and the truncation order K is the last entry's index.
    ``h_source`` is either a :class:`RationalH` (exact jets, closed-form
    prefactor) or an integrated trajectory (floats, interpolated).  The two
    read ``r0`` differently: an exact source takes it as the constant in
    e^{r(t)} = e^{r0} * prod_k (alpha_k/(alpha_k t - beta_k))^p (see
    :func:`exp_r`), a trajectory source as the value r(t0) at the first
    state.  The same r0 therefore gives different psi for the two.  The
    optional gauge is a pair (f, F) with F' = f; it multiplies psi by
    e^{-F(t)} and turns the target equation into psi_t = psi_zz/2 - f psi.
    """

    def __init__(
        self,
        phi: PhiTable,
        h_source: Union[RationalH, Sequence[DynState]],
        r0: Union[Fraction, float],
        gauge: Union[tuple[Callable, Callable], None] = None,
    ) -> None:
        self.phi = phi
        self.delta = phi.delta
        self.n = phi.entries[0].nvars
        self.truncation = len(phi.entries) - 1
        self.h_source = h_source
        self.r0 = r0
        self.gauge = gauge
        self._interp = None if isinstance(h_source, RationalH) else _TrajectoryInterp(h_source)
        # the bracket series W(s) = sum_k a_k s^k with a_k = Phi_k / (2k+delta)!,
        # divided exactly: every series and slice of psi and of v reads it
        self.scaled = tuple(
            entry * Fraction(1, math.factorial(2 * k + self.delta)) for k, entry in enumerate(phi.entries)
        )
        self._bracket_cache: Union[list[GradedPoly], None] = None
        self._last: Union[tuple[Numeric, PsiSlice], None] = None

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
        """e^{r(t)} including the gauge factor, as a float."""
        if self.exact:
            value = exp_r(self.h_source, self.delta, self.r0, t)
        else:
            integral = self._interp.integral_x1(float(t))
            value = math.exp(float(self.r0) - (self.delta + 0.5) * integral)
        if self.gauge is not None:
            value *= math.exp(-float(self.gauge[1](t)))
        return value

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
        chain polynomials), cached."""
        if self._bracket_cache is None:
            base = -HALF * GradedPoly.variable(VariableFamily.Y, 1, 1)
            hat = [ansatz_to_jet(a, max(self.n, 1)) for a in self.scaled]
            self._bracket_cache = self._bracket(_gauss(base, len(hat)), hat)
        return self._bracket_cache

    def _bracket(self, gauss: Sequence, a: Sequence) -> list:
        """(2k+delta)! * sum_{i+j=k} gauss_i a_j for k < len(a)."""
        return [math.factorial(2 * k + self.delta) * _cauchy(gauss, a, k) for k in range(len(a))]

    # -- evaluation ----------------------------------------------------------

    def at(self, t: Numeric) -> PsiSlice:
        """The float data of psi at time t: h(t), e^{r(t)} with the gauge
        factor, and a_k = Phi_k(x(t)) / (2k+delta)! for k = 0..K.

        The scaled table is divided by (2k+delta)! in exact arithmetic, so
        every truncation order evaluates (the factorial alone overflows a
        float from K = 86 on).  The last slice is memoised: a grid that
        loops over t outside z builds one slice per time.
        """
        if _same_time(self._last, t):
            return self._last[1]
        xs = self.parameter_values(t)
        coeffs = tuple(float(a.evaluate(xs[1:])) for a in self.scaled)
        data = PsiSlice(self.delta, float(xs[0]), self.r_exponential(t), coeffs)
        self._last = (t, data)
        return data

    def bracket(self, z: float, t: Numeric) -> float:
        return self.at(t).bracket(z)

    def psi(self, z: float, t: Numeric) -> float:
        return self.at(t).psi(z)

    __call__ = psi

    def with_gauge(self, f: Callable, antiderivative: Callable) -> "SeriesSolution":
        """Multiply by e^{-F(t)} (F' = f): solves psi_t = psi_zz/2 - f psi.

        Only r(t) changes; the coefficient table and the Burgers image are
        untouched (the f-terms cancel in the bracket recursion).
        """
        if self.gauge is None:
            gauge = (f, antiderivative)
        else:
            old_f, old_g = self.gauge
            gauge = (lambda t: old_f(t) + f(t), lambda t: old_g(t) + antiderivative(t))
        return SeriesSolution(self.phi, self.h_source, self.r0, gauge)


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


def _cauchy(a: Sequence, b: Sequence, k: int):
    """sum_{i+j=k} a_i b_j for numbers or polynomials, the sum starting at
    0 * b[k]; a may stop short of k (a recursion passes what it has)."""
    total = 0 * b[k]
    for i in range(min(k + 1, len(a))):
        total = total + a[i] * b[k - i]
    return total


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
    factored out, so it stays in rational arithmetic; the same check is
    valid for gauged solutions.  b_k and b_k' are exact numbers at each
    sample: the chain rule over the parameters, with their exact rates.
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
    """Max |pointwise(t, u, u_t, u_z, u_zz)| over the grid, by central differences.

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
            value = pointwise(t, here, u_t, u_z, (right - 2 * here + left) / (grid.dz * grid.dz))
            if not math.isfinite(value):
                raise ValueError(f"non-finite residual at (z, t) = ({z}, {t})")
            worst = max(worst, abs(value))
    return worst


def diffusion_residual_numeric(psi: Callable, grid: GridSpec, mu: float = 0.5, loss: Union[Callable, None] = None) -> float:
    """Max |D_t psi - mu D_zz psi (+ f(t) psi)| by central differences."""
    if loss is None:
        return _grid_residual(psi, grid, lambda t, u, u_t, u_z, u_zz: u_t - mu * u_zz)
    return _grid_residual(psi, grid, lambda t, u, u_t, u_z, u_zz: u_t - mu * u_zz + loss(t) * u)


# diffusion_residual_numeric at mu = 1/2, kept only while perfbench/spans.py TARGETS wraps it; nothing in the package calls it
def heat_residual_numeric(psi: Callable, grid: GridSpec, loss: Union[Callable, None] = None) -> float:
    return diffusion_residual_numeric(psi, grid, 0.5, loss)


# -- Cole-Hopf ----------------------------------------------------------------


@dataclass(frozen=True)
class BurgersSolution:
    """The Cole-Hopf image v = -d/dz log psi of a series solution.

    v(z, t) = -delta/z + h(t) z - sum_{k>=2} c_k(t) z^(2k-1) where c_k is
    the z^(2k-1) coefficient of W'/W and W is the bracket series.
    ``series_jets[k]`` holds c_k as an X-family polynomial over the ansatz
    parameters x2..x_{n+1} (not over jets, despite the name), trusted
    through order 2K-1 and evaluated at the source's
    ``parameter_values(t)``.  The normalized table entry is
    Psi_k = (2 delta k + 1) (2k-1)! c_k.
    """

    source: SeriesSolution
    series_jets: tuple[GradedPoly, ...]
    # one-entry memo (t, BurgersSlice) of the last slice built by at()
    _last: list = field(default_factory=list, init=False, repr=False, compare=False)

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

    def series_values(self, t: Numeric) -> list:
        xs = self.source.parameter_values(t)
        return [p.evaluate(xs[1:]) for p in self.series_jets]

    def normalized_coefficients(self, t: Numeric) -> list:
        """The Psi_k table at time t (entries 0 and 1 are zero)."""
        out = []
        for k, value in enumerate(self.series_values(t)):
            scale = (2 * self.delta * k + 1) * math.factorial(max(2 * k - 1, 0))
            out.append(scale * value)
        return out

    def at(self, t: Numeric) -> BurgersSlice:
        """The float data of v at time t: h(t) and c_2(t), ..., c_K(t).

        Each c_k is evaluated at the parameters before it becomes a float.
        The last slice is memoised: a grid that loops over t outside z
        builds one slice per time.
        """
        if _same_time(self._last, t):
            return self._last[1]
        xs = self.source.parameter_values(t)
        coeffs = tuple(0.0 if c.is_zero else float(c.evaluate(xs[1:])) for c in self.series_jets[2:])
        data = BurgersSlice(self.delta, float(xs[0]), coeffs)
        self._last[:] = (t, data)
        return data

    def v(self, z: float, t: Numeric) -> float:
        return self.at(t).v(z)

    __call__ = v


def cole_hopf(sol: SeriesSolution) -> BurgersSolution:
    """Exact Cole-Hopf image of a series solution (diffusion mu = 1/2).

    With W = sum_k a_k z^(2k) from the scaled table (a_0 = 1), the image is
    v = -delta/z + h z - W'/W and W'/W = sum_k c_k z^(2k-1).  Matching
    coefficients in W (W'/W) = W' gives c_0 = 0 and the recursion
    c_k = 2k a_k - sum_{j=1}^{k-1} a_j c_{k-j}, one truncated convolution
    over the parameters x2..x_{n+1}.  Any source evaluates, an integrated
    trajectory too.
    """
    a = sol.scaled
    c = [0 * a[0]]
    for k in range(1, sol.truncation + 1):
        c.append(2 * k * a[k] - _cauchy(c, a, k))
    return BurgersSolution(sol, tuple(c))


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
        return (df[M] + (M - 1) * _cauchy(f, f, M) - mu * (2 * M - 1) * (2 * M - 2) * f[M] for M in range(K + 1))

    return _series_residual(image.source, image.series_jets, t_samples, defects)


def _burgers_grid_residual(image: BurgersSolution, mu: float, grid: GridSpec) -> float:
    return _grid_residual(image.v, grid, lambda t, v, v_t, v_z, v_zz: v_t + v * v_z - mu * v_zz)


def residual_report(
    max_residual: Union[Fraction, float],
    mode: str,
    grid: Union[GridSpec, None] = None,
) -> str:
    """One-line JSON report of a residual check: {max_residual, grid, mode}.

    Floats are rendered with 17 significant digits so the report is
    byte-deterministic and round-trips exactly; ``grid`` is null for
    series-mode checks.
    """
    if mode not in ("series", "grid"):
        raise ValueError(f"unknown mode {mode!r}")
    if (grid is None) == (mode == "grid"):
        raise ValueError("grid mode needs a GridSpec and series mode forbids one")

    def f(v) -> str:
        return format(float(v), ".17g")

    if grid is None:
        grid_text = "null"
    else:
        grid_text = (
            f'{{"z0": {f(grid.z0)}, "z1": {f(grid.z1)}, "znum": {grid.znum}, '
            f'"t0": {f(grid.t0)}, "t1": {f(grid.t1)}, "tnum": {grid.tnum}, '
            f'"dz": {f(grid.dz)}, "dt": {f(grid.dt)}}}'
        )
    return f'{{"max_residual": {f(max_residual)}, "grid": {grid_text}, "mode": "{mode}"}}'


# -- closed forms --------------------------------------------------------------


def closed_form_0ansatz(delta: int, pole: MobiusParam, r0: Union[Fraction, float] = 0.0) -> Callable:
    """psi = (alpha/(alpha t - beta))^(1/2+delta) e^{-alpha z^2/(2(alpha t-beta)) + r0} z^delta,
    and e^{r0} z^delta for the vanishing pole (0 : beta), the profile h = 0."""
    _check_delta(delta)
    a, b = float(pole.alpha), float(pole.beta)
    c0 = math.exp(float(r0))

    def psi(z: float, t: float) -> float:
        if not a:
            return c0 * z if delta else c0
        den = a * t - b
        if den == 0:
            raise PoleError(f"pole at t = {t}")
        base = a / den
        if base <= 0:
            raise ValueError(f"fractional power of non-positive base at t = {t}")
        value = base ** (0.5 + delta) * math.exp(-a * z * z / (2 * den)) * c0
        return value * z if delta else value

    return psi


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
    value D_1 = h' + h^2 of the profile.
    """
    _check_delta(delta)
    poles = (pole1, pole2)
    c0 = math.exp(float(r0))
    p = (1 + 2 * delta) / 4

    def psi(z: float, t: float) -> float:
        summands = []
        for pole in poles:
            den = float(pole.alpha) * t - float(pole.beta)
            if den == 0:
                raise PoleError(f"pole at t = {t}")
            summands.append(float(pole.alpha) / den)
        prefactor = c0
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

    return psi
