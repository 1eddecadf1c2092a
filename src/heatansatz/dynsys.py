"""Heat dynamical systems, their integrator, and the rational h family.

The ansatz parameters evolve by one graded polynomial system per
``AnsatzSpec`` (the reduced chain is one such family).  Its field has one
exact definition, ``heat_system_field``; the exact series residuals read
their parameter rates off it, and the symbolic side never sees a float.
Fixed-step fourth-order Runge-Kutta, ``rk4_integrate``, runs one loop of
straight-line float code generated once per spec: its rows are the
``float_source`` of the same polynomials and its stages take the classical
float steps in the classical order, so its states are bit-identical to a
generic RK4 loop over ``heat_system_field`` on floats.

The built-in exact profile family is

    h(t) = 1/(n+1) * sum_k alpha_k / (alpha_k t - beta_k)

over n+1 projective pole parameters (alpha_k : beta_k); its jets are
closed-form rationals at rational t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence, Union

from .grpoly import GradedPoly, JetPoint, Numeric, VariableFamily, exact_rows, float_rows
from .ansatz import AnsatzSpec
from .operators import basis_as_params, decompose_basis, derivative_chain


class PoleError(ZeroDivisionError):
    """Evaluation at (or across) a pole of the profile function."""


class IntegrationError(RuntimeError):
    """The integrator left its validity domain (blow-up or non-finite state)."""


class DynState(NamedTuple):
    """One trajectory point: time and the state (x1, ..., x_{n+1}).

    A named ``(t, x)`` pair for start states and trajectory sources; ``rk4_integrate``
    returns plain ``(t, x)`` tuples, and every reader unpacks either alike."""

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
        try:
            alpha, beta = (Fraction(part.strip()) for part in text.split(":"))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"pole {text!r} is not 'alpha:beta' with rational alpha and beta") from None
        return cls(alpha, beta)


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

    @cached_property
    def _numbers(self) -> tuple:
        """Each pole's (float alpha, float beta, alpha numerator, alpha denominator), made once per instance, as
        projectively equal poles round apart; float alpha is None where alpha or beta has no float, or where a nonzero
        alpha rounds to 0.0."""
        rows = []
        for p in self.poles:
            try:
                a, b = float(p.alpha), float(p.beta)  # int / int raises OverflowError where a float would be inf
            except OverflowError:
                a = b = None
            rows.append((a if a or not p.alpha else None, b, p.alpha.numerator, p.alpha.denominator))
        return tuple(rows)

    def jets(self, t: Numeric, m: int) -> tuple:
        """(h(t), h'(t), ..., h^(m-1)(t)), exact when t is exact.

        d^j/dt^j of each summand u = alpha/(alpha t - beta) is (-1)^j j! u^(j+1).  At an exact t, and for h = 0
        at any t, the u_k are ints A_k over the lcm L of their denominators, and jet j is one ``Fraction``
        (-1)^j j! sum_k A_k^(j+1) / ((n+1) L^(j+1)).  At a float t the sums of alpha^(j+1) / (alpha t - beta)^(j+1)
        take the float steps of the ``Fraction`` loop from ``_numbers``; OverflowError names t if a power overflows.
        """
        if m < 0:
            raise ValueError("jet length must be nonnegative")
        terms = [(num, den, d) for (_, _, num, den), d in zip(self._numbers, self._denominators(t)) if num]
        if type(t) is not float or not terms:
            us = [Fraction(num * d.denominator, den * d.numerator) for num, den, d in terms]
            lcm = math.lcm(*(u.denominator for u in us))
            tops = [u.numerator * (lcm // u.denominator) for u in us]
            return tuple(Fraction((-1) ** j * math.factorial(j) * sum(a ** (j + 1) for a in tops),
                                  (self.n + 1) * lcm ** (j + 1)) for j in range(m))
        try:
            out = []
            for j in range(m):
                total = 0.0
                for num, den, d in terms:
                    total += num ** (j + 1) / den ** (j + 1) / d ** (j + 1)
                out.append((-1) ** j * math.factorial(j) / (self.n + 1) * total)
        except (ZeroDivisionError, OverflowError):  # a power overflowed, or one of d underflowed to 0
            raise OverflowError(f"profile jets not finite at t = {t}") from None
        return tuple(out)

    def _denominators(self, t: Numeric) -> list:
        """alpha_k t - beta_k for each pole, float at a float t (from ``_numbers``); PoleError at a pole (a pole
        (0 : beta) adds nothing to h and is none, even where beta underflows to 0.0), ValueError at an inf or nan t,
        or at a float t for a pole with no float route."""
        if type(t) is not float:
            denoms = [p.alpha * t - p.beta for p in self.poles]
        elif not math.isfinite(t):
            raise ValueError(f"profile time not finite: t = {t}")
        elif None in (floats := [a for a, *_ in self._numbers]):
            raise ValueError(f"profile pole {floats.index(None) + 1} is out of the float range at t = {t}")
        else:
            denoms = [a * t - b for a, b, _, _ in self._numbers]
        if 0 in [d for d, (_, _, num, _) in zip(denoms, self._numbers) if num]:
            raise PoleError(f"profile pole at t = {t}")
        return denoms

    def value(self, t: Numeric) -> Numeric:
        return self.jets(t, 1)[0]


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


# kept only while perfbench/spans.py TARGETS wraps it; the package calls heat_system_field
def reduced_system_field(n: int, top: GradedPoly, state: Sequence[Numeric]) -> tuple:
    """The heat system of the reduced chain family with top polynomial P_n."""
    if n < 1:
        raise ValueError("the reduced system needs n >= 1")
    return heat_system_field(AnsatzSpec.reduced(n, 0, top), state)


# -- integrator --------------------------------------------------------------

MAX_ABS = 1e12  # rk4_integrate stops with IntegrationError once some |x_k| exceeds this


def rk4_step_count(span: float, step: float) -> Union[int, float]:
    """The number of steps ``rk4_integrate`` takes over ``span`` (inf if span / step overflows):
    a span within 1e-9 steps of a whole number takes no sliver of a last step."""
    ratio = span / step - 1e-9
    return 0 if span <= 0 else max(1, math.ceil(ratio)) if ratio < math.inf else ratio


def _field_rows(spec: AnsatzSpec, names: Sequence[str]) -> list[str]:
    """``heat_system_field`` of ``spec`` as one float source expression per row over the
    state ``names``: the same float steps in the same order, so bit-identical on floats."""
    x1 = names[0]
    tails = [f"{x1} ** 2"] + [f"{2.0 * k!r} * {x1} * {names[k - 1]}" for k in range(2, spec.n + 2)]
    return [f"{p.float_source(names[1:])} - {tail}" for p, tail in zip(spec.ps, tails)]


@lru_cache(maxsize=None)
def _rk4_loop(spec: AnsatzSpec) -> Callable:
    """The step loop of ``rk4_integrate`` for ``spec`` as generated straight-line float code.

    It appends one plain ``(t, x)`` tuple per step to ``out``, and returns None, or the time
    and state of the first step that leaves [-MAX_ABS, MAX_ABS] or turns non-finite (the
    chained bound ``lo <= x <= hi`` is false for nan and +-inf).  Integer factors
    are written as float literals, which take the same float steps as the ints: float-with-float
    operations are the ones the interpreter specialises.  (Equal specs share a loop:
    every ``AnsatzSpec`` stores its p in canonical term order.)
    """
    xs = [f"x{j}" for j in range(1, spec.n + 2)]
    ys = [f"y{j}" for j in range(1, spec.n + 2)]
    # the stage slopes k1..k4 of x_j are a_j..d_j: short names keep the source to compile small
    k1, k2, k3, k4 = ([f"{s}{j}" for j in range(1, spec.n + 2)] for s in "abcd")
    body = [f"{kj} = {row}" for kj, row in zip(k1, _field_rows(spec, xs))]
    for factor, k_last, k in (("half", k1, k2), ("half", k2, k3), ("h", k3, k4)):
        body += [f"{y} = {x} + {factor} * {kj}" for y, x, kj in zip(ys, xs, k_last)]
        body += [f"{kj} = {row}" for kj, row in zip(k, _field_rows(spec, ys))]
    body += [f"{x} = {x} + sixth * ({a} + 2.0 * {b} + 2.0 * {c} + {d})" for x, a, b, c, d in zip(xs, k1, k2, k3, k4)]
    names = ", ".join(xs)
    bounded = " and ".join(f"lo <= {x} <= hi" for x in xs)
    source = "\n".join([
        "def loop(t, x, count, step, t_end, out):",
        f"    {names}, = x",
        f"    t0, append, lo, hi = t, out.append, {-MAX_ABS!r}, {MAX_ABS!r}",
        "    for i in range(1, count + 1):",
        "        t_next = t_end if i == count else t0 + i * step",
        "        h = t_next - t",
        "        half, sixth = h / 2.0, h / 6.0",
        *(f"        {line}" for line in body),
        "        t = t_next",
        f"        if not ({bounded}):",
        f"            return t, ({names},)",
        f"        append((t, ({names},)))",
    ])
    exec(source, namespace := {})
    return namespace["loop"]


def _guard(t: float, x: tuple) -> None:
    for v in x:
        if not math.isfinite(v):
            raise IntegrationError(f"non-finite state at t = {t}")
        if abs(v) > MAX_ABS:
            raise IntegrationError(f"state blow-up (|x| > {MAX_ABS:g}) at t = {t}")


def rk4_integrate(spec: AnsatzSpec, start: DynState, t_end: float, step: float) -> list[tuple[float, tuple]]:
    """Classical fixed-step RK4 of the heat system of ``spec`` from the ``(t, x)`` pair ``start``
    to ``t_end``, as a list of plain ``(t, (x1, ..., x_{n+1}))`` tuples, the start first.

    Step i ends at t0 + i*step, and the last one exactly on ``t_end``
    (shortened, or stretched by at most 1e-9 of a step).  Raises
    IntegrationError (with the offending time) if the state leaves
    [-MAX_ABS, MAX_ABS] or turns non-finite.

    The steps run in one loop of straight-line float code generated once per spec,
    with every stage value in a scalar local.  Its rows take the float steps of
    ``heat_system_field`` and its stages those of the classical loop, in the same
    order (x + h/2 k1, x + h/2 k2, x + h k3, x + h/6 (k1 + 2 k2 + 2 k3 + k4)), so the
    states are bit-identical to a generic RK4 loop over ``heat_system_field``.
    """
    step, t_end = float(step), float(t_end)
    if not math.isfinite(step) or step <= 0:
        raise ValueError("step must be positive and finite")
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    t, x = start
    t, x = float(t), tuple(float(v) for v in x)
    if len(x) != spec.n + 1:
        raise ValueError(f"state must have {spec.n + 1} components")
    if t_end < t:
        raise ValueError("t_end must not precede the start time")
    _guard(t, x)
    out = [(t, x)]
    count = int(rk4_step_count(t_end - t, step))  # int(inf) raises OverflowError; times from a count do not drift
    stop = _rk4_loop(spec)(t, x, count, step, t_end, out)
    if stop is not None:
        _guard(*stop)
    return out


# -- exact states and residuals ----------------------------------------------


_chain_rows = lru_cache(maxsize=16)(lambda n, rows: rows(derivative_chain(n)))  # rows: float_rows or exact_rows


def reduced_initial_state(h: RationalH, n: int, t: Numeric) -> tuple:
    """Reduced-system state at time t: x1 = h, x_{k+1} = D_k(jets), read by ``exact_rows`` at
    exact jets and by ``float_rows`` (bit-identical to ``evaluate``) at float jets."""
    jets = h.jets(t, n + 1)
    rows = float_rows if all(type(v) is float for v in jets) else exact_rows
    return (jets[0], *_chain_rows(n, rows)(jets)) if n else jets[:1]


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

    An (n+1)-pole profile has jets y_j = scale(j) s_j, with s_j the power
    sums of the n+1 summand values, and with that many summands s_{n+2} is
    a universal polynomial in s_1..s_{n+1} (Newton's identities).  Written
    over the jets, that relation is substituted for y_{n+2} in D_{n+1}, and
    re-expressing the result over the multiplicative basis gives a
    pole-independent polynomial in x2..xn:
    P_0 = P_1 = 0, P_2 = -3 x2^2, P_3 = -16 x2 x3, and so on.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < 2:
        return GradedPoly.zero(VariableFamily.X, max(n - 1, 0))
    ring = n + 1
    yfam = VariableFamily.Y
    scale = lambda j: Fraction((-1) ** (j - 1) * math.factorial(j - 1), n + 1)
    y = [GradedPoly.variable(yfam, ring, j) for j in range(1, ring + 1)]
    s = [(1 / scale(j)) * y[j - 1] for j in range(1, ring + 1)]
    # elementary symmetric functions of the n+1 summands from s_1..s_{n+1}
    elem = [GradedPoly.const(yfam, ring, 1)]
    for j in range(1, n + 2):
        acc = GradedPoly.zero(yfam, ring)
        for i in range(1, j + 1):
            acc = acc + Fraction((-1) ** (i - 1), j) * (elem[j - i] * s[i - 1])
        elem.append(acc)
    s_top = GradedPoly.zero(yfam, ring)
    for i in range(1, n + 2):
        s_top = s_top + Fraction((-1) ** (i - 1)) * (elem[i] * s[n + 1 - i])
    jet_poly = derivative_chain(n + 1)[n].substitute([*y, scale(n + 2) * s_top], yfam, ring)
    return basis_as_params(decompose_basis(jet_poly).zpoly)
