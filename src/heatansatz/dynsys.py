"""Heat dynamical systems, their integrator, and the rational h family.

The ansatz parameters evolve by one graded polynomial system per
``AnsatzSpec`` (the reduced chain is one such family).  Its field has one
exact definition, ``heat_system_field``, and one compiled float form,
``compiled_field``, which fixed-step fourth-order Runge-Kutta integrates;
the symbolic side never sees a float.  The exact series residuals read
their parameter rates off ``heat_system_field`` too.

The built-in exact profile family is

    h(t) = 1/(n+1) * sum_k alpha_k / (alpha_k t - beta_k)

over n+1 projective pole parameters (alpha_k : beta_k); its jets are
closed-form rationals at rational t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence, Union

from .grpoly import GradedPoly, JetPoint, Numeric, VariableFamily
from .ansatz import AnsatzSpec
from .operators import decompose_basis, derivative_chain


class PoleError(ZeroDivisionError):
    """Evaluation at (or across) a pole of the profile function."""


class IntegrationError(RuntimeError):
    """The integrator left its validity domain (blow-up or non-finite state)."""


class DynState(NamedTuple):
    """One trajectory point: time and the state (x1, ..., x_{n+1})."""

    t: float
    x: tuple


@dataclass(frozen=True)
class MobiusParam:
    """A projective parameter (alpha : beta), not both zero.

    Equality and hashing are projective: (1:2) == (2:4).
    """

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if not self.alpha and not self.beta:
            raise ValueError("(0 : 0) is not a projective parameter")

    def normalized(self) -> tuple[Fraction, Fraction]:
        if self.alpha:
            return (Fraction(1), self.beta / self.alpha)
        return (Fraction(0), Fraction(1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MobiusParam):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __hash__(self) -> int:
        return hash(self.normalized())

    @classmethod
    def parse(cls, text: str) -> "MobiusParam":
        """Parse 'a:b' with decimal-rational components."""
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"expected 'alpha:beta', got {text!r}")
        return cls(Fraction(parts[0].strip()), Fraction(parts[1].strip()))

    def pole_time(self) -> Union[Fraction, None]:
        """Where this summand of h blows up (None for the vanishing summand)."""
        if not self.alpha:
            return None
        return self.beta / self.alpha


@dataclass(frozen=True)
class RationalH:
    """The exact profile h(t) built from n+1 projective poles."""

    n: int
    poles: tuple[MobiusParam, ...]

    def __post_init__(self):
        object.__setattr__(self, "poles", tuple(self.poles))
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if len(self.poles) != self.n + 1:
            raise ValueError(f"need {self.n + 1} pole parameters, got {len(self.poles)}")

    def jets(self, t: Numeric, m: int) -> tuple:
        """(h(t), h'(t), ..., h^(m-1)(t)), exact when t is exact.

        d^j/dt^j of each summand alpha/(alpha t - beta) is
        (-1)^j j! alpha^(j+1) / (alpha t - beta)^(j+1).
        """
        if m < 0:
            raise ValueError("jet length must be nonnegative")
        scale = Fraction(1, self.n + 1)
        out = []
        denoms = []
        for p in self.poles:
            d = p.alpha * t - p.beta
            if d == 0:
                raise PoleError(f"profile pole at t = {t}")
            denoms.append(d)
        for j in range(m):
            sign = -1 if j % 2 else 1
            total = Fraction(0)
            for p, d in zip(self.poles, denoms):
                if p.alpha:
                    total = total + p.alpha ** (j + 1) / d ** (j + 1)
            out.append(sign * math.factorial(j) * scale * total)
        return tuple(out)

    def value(self, t: Numeric) -> Numeric:
        return self.jets(t, 1)[0]

    def pole_times(self) -> list[Fraction]:
        return sorted({p.pole_time() for p in self.poles if p.alpha})


# -- vector fields ----------------------------------------------------------


def heat_system_field(spec: AnsatzSpec, state: Sequence[Numeric]) -> tuple:
    """Right-hand side of the heat dynamical system of ``spec``.

    dx1 = p_2(x2) - x1^2; dx_k = p_{k+1}(x2..x_{k+1}) - 2k x1 x_k for
    k = 2..n; and the top line dx_{n+1} = p_{n+2}(x2.., 0) - 2(n+1) x1 x_{n+1}.
    """
    if len(state) != spec.n + 1:
        raise ValueError(f"state must have {spec.n + 1} components")
    xs = state[1:]
    head = spec.ps[0].evaluate(xs) - state[0] ** 2
    return (head, *(spec.ps[k - 1].evaluate(xs) - 2 * k * state[0] * state[k - 1] for k in range(2, spec.n + 2)))


def compiled_field(spec: AnsatzSpec) -> Callable:
    """``heat_system_field`` of ``spec`` as a float function ``field(t, x)`` of generated
    straight-line code: the same float steps in the same order, so bit-identical on floats.
    A wrong-length x raises ValueError."""
    xs = [f"x{i}" for i in range(2, spec.n + 2)]
    tails = ["x1 ** 2"] + [f"{2 * k} * x1 * x{k}" for k in range(2, spec.n + 2)]
    rows = [f"{p.float_source(xs)} - {tail}" for p, tail in zip(spec.ps, tails)]
    exec(f"def field(t, x):\n    {', '.join(['x1', *xs])}, = x\n    return ({', '.join(rows)},)", namespace := {})
    return namespace["field"]


# kept only while perfbench/spans.py TARGETS wraps it; the package calls heat_system_field
def reduced_system_field(n: int, top: GradedPoly, state: Sequence[Numeric]) -> tuple:
    """The heat system of the reduced chain family with top polynomial P_n."""
    if n < 1:
        raise ValueError("the reduced system needs n >= 1")
    return heat_system_field(AnsatzSpec.reduced(n, 0, top), state)


# -- integrator --------------------------------------------------------------

MAX_ABS = 1e12  # rk4_integrate stops with IntegrationError once some |x_k| exceeds this


def rk4_integrate(field: Callable, start: DynState, t_end: float, step: float) -> list[DynState]:
    """Classical fixed-step RK4 from ``start`` to ``t_end``.

    Step i ends at t0 + i*step, and the last one exactly on ``t_end``
    (shortened, or stretched by at most 1e-9 of a step).  Raises
    IntegrationError (with the offending time) if the state leaves
    [-MAX_ABS, MAX_ABS] or turns non-finite.
    """
    step, t_end = float(step), float(t_end)
    if not math.isfinite(step) or step <= 0:
        raise ValueError("step must be positive and finite")
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    t = float(start.t)
    x = tuple(float(v) for v in start.x)
    if t_end < t:
        raise ValueError("t_end must not precede the start time")

    def guard(t_now: float, x_now: tuple) -> None:
        for v in x_now:
            if not math.isfinite(v):
                raise IntegrationError(f"non-finite state at t = {t_now}")
            if abs(v) > MAX_ABS:
                raise IntegrationError(f"state blow-up (|x| > {MAX_ABS:g}) at t = {t_now}")

    guard(t, x)
    out = [DynState(t, x)]
    # times from a step count, so they do not drift, and a span within
    # 1e-9 steps of a whole number takes no sliver of a last step
    t0, span = t, t_end - t
    count = max(1, math.ceil(span / step - 1e-9)) if span > 0 else 0
    for i in range(1, count + 1):
        t_next = t_end if i == count else t0 + i * step
        h = t_next - t
        half, sixth = h / 2, h / 6
        k1 = field(t, x)
        k2 = field(t + half, [a + half * b for a, b in zip(x, k1)])
        k3 = field(t + half, [a + half * b for a, b in zip(x, k2)])
        k4 = field(t_next, [a + h * b for a, b in zip(x, k3)])
        x = tuple([a + sixth * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
        t = t_next
        for v in x:
            if not abs(v) <= MAX_ABS:  # nan, inf or blow-up
                guard(t, x)
        out.append(DynState(t, x))
    return out


# -- exact states and residuals ----------------------------------------------


def reduced_initial_state(h: RationalH, n: int, t: Numeric) -> tuple:
    """Exact reduced-system state at time t: x1 = h, x_{k+1} = D_k(jets)."""
    jets = h.jets(t, n + 1)
    state = [jets[0]]
    if n:
        for d in derivative_chain(n):
            state.append(d.evaluate(jets))
    return tuple(state)


def ode_residual(n: int, top: Union[GradedPoly, None], jets: JetPoint) -> Numeric:
    """D_{n+1}(jets) - P_n(D_1(jets), ..., D_{n-1}(jets)).

    Zero exactly when the profile with these jets solves the order-(n+1)
    member of the chain hierarchy.  ``top`` may be None for P_n = 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if len(jets) < n + 2:
        raise ValueError(f"need jets up to order {n + 1}")
    chain = derivative_chain(n + 1)
    value = chain[n].evaluate(jets)
    if top is not None and not top.is_zero:
        d_values = [chain[i].evaluate(jets) for i in range(max(0, n - 1))]
        value = value - top.evaluate(d_values)
    return value


def chazy4_residual(jets: JetPoint) -> Numeric:
    """Residual of y''' + 3 y y'' + 3 y'^2 + 3 y^2 y' at the given jets."""
    if len(jets) < 4:
        raise ValueError("need jets (y, y', y'', y''')")
    y0, y1, y2, y3 = jets[0], jets[1], jets[2], jets[3]
    return y3 + 3 * y0 * y2 + 3 * y1 ** 2 + 3 * y0 ** 2 * y1


@lru_cache(maxsize=None)
def rational_top(n: int) -> GradedPoly:
    """The top polynomial P_n satisfied by every (n+1)-pole profile.

    An (n+1)-pole profile has jets proportional to the power sums s_j of
    the n+1 summand values, and with that many summands s_{n+2} is a
    universal polynomial in s_1..s_{n+1} (Newton's identities).  Pushing
    that relation through D_{n+1} and re-expressing the result over the
    multiplicative basis gives a pole-independent polynomial in x2..xn:
    P_0 = P_1 = 0, P_2 = -3 x2^2, P_3 = -16 x2 x3, and so on.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < 2:
        return GradedPoly.zero(VariableFamily.X, max(n - 1, 0))
    ring = n + 2
    yfam = VariableFamily.Y
    s = [GradedPoly.variable(yfam, ring, j) for j in range(1, ring + 1)]
    one = GradedPoly.const(yfam, ring, 1)
    # elementary symmetric functions of the n+1 summands from s_1..s_{n+1}
    elem = [one]
    for j in range(1, n + 2):
        acc = GradedPoly.zero(yfam, ring)
        for i in range(1, j + 1):
            acc = acc + Fraction((-1) ** (i - 1), j) * (elem[j - i] * s[i - 1])
        elem.append(acc)
    s_top = GradedPoly.zero(yfam, ring)
    for i in range(1, n + 2):
        s_top = s_top + Fraction((-1) ** (i - 1)) * (elem[i] * s[n + 1 - i])
    # jet <-> power-sum dictionary: y_j = (-1)^(j-1) (j-1)!/(n+1) s_j
    scale = lambda j: Fraction((-1) ** (j - 1) * math.factorial(j - 1), n + 1)
    to_s = [scale(j) * s[j - 1] for j in range(1, n + 2)] + [scale(n + 2) * s_top]
    from_s = [(1 / scale(j)) * GradedPoly.variable(yfam, n + 1, j) for j in range(1, n + 2)]
    on_shell = derivative_chain(n + 1)[n].substitute(to_s, yfam, ring)
    jet_poly = on_shell.substitute(from_s, yfam, n + 1)
    dec = decompose_basis(jet_poly)
    terms = {}
    for exps, coeff in dec.zpoly.terms():
        if exps[0]:
            raise RuntimeError("rational family closure unexpectedly involves y1")
        terms[tuple(exps[1:])] = coeff
    return GradedPoly(VariableFamily.X, max(n - 1, 0), terms)
