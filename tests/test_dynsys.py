"""Rational profiles, dynamical system fields, RK4, and ODE residuals."""

import math
import random
from fractions import Fraction

import pytest

from heatansatz.ansatz import AnsatzSpec
from heatansatz.dynsys import (
    MAX_ABS,
    DynState,
    IntegrationError,
    MobiusParam,
    PoleError,
    RationalH,
    chazy4_residual,
    heat_system_field,
    ode_residual,
    rational_top,
    reduced_initial_state,
    rk4_integrate,
    rk4_step_count,
)
from heatansatz.dynsys import _field_rows, _rk4_loop
from heatansatz.grpoly import GradedPoly, VariableFamily
from heatansatz.operators import derivative_chain
from heatansatz.solution import exp_r
from heatansatz.verify import random_homogeneous

X = VariableFamily.X

H1 = RationalH(0, (MobiusParam(1, 0),))
H2 = RationalH(1, (MobiusParam(1, 0), MobiusParam(1, 1)))


def test_mobius_param():
    p = MobiusParam.parse("2:3")
    assert p.alpha == 2 and p.beta == 3
    assert MobiusParam.parse("1/2:-3") == MobiusParam(Fraction(1, 2), -3)
    # projective: (2:4) and (1:2) are the same parameter
    assert MobiusParam(2, 4) == MobiusParam(1, 2)
    assert len({MobiusParam(2, 4), MobiusParam(1, 2)}) == 1
    with pytest.raises(ValueError):
        MobiusParam(0, 0)


def test_rational_h_values():
    # two-pole profile: h = (1/2)(1/t + 1/(t-1))
    assert H2.value(Fraction(2)) == Fraction(3, 4)
    assert H1.value(Fraction(3)) == Fraction(1, 3)
    jets = H2.jets(Fraction(2), 4)
    assert jets == (Fraction(3, 4), Fraction(-5, 8), Fraction(9, 8), Fraction(-51, 16))


def test_rational_h_jets_formula():
    # d^j/dt^j of alpha/(alpha t - beta) is (-1)^j j! alpha^{j+1}/(alpha t - beta)^{j+1}
    h = RationalH(1, (MobiusParam(2, 1), MobiusParam(1, -1)))
    t = Fraction(5, 2)
    for j, val in enumerate(h.jets(t, 4)):
        expect = Fraction(0)
        for p in h.poles:
            expect += (
                Fraction((-1) ** j * math.factorial(j))
                * p.alpha ** (j + 1)
                / (p.alpha * t - p.beta) ** (j + 1)
            )
        assert val == expect / 2


def test_rational_h_float_time():
    jets = H2.jets(2.0, 3)
    assert jets == (0.75, -0.625, 1.125)
    assert all(isinstance(v, float) for v in jets)


def _jets_by_fractions(h, t, m):
    # the exact loop at a float t: each Fraction alpha^(j+1) divided by a float power of
    # alpha t - beta, summed from Fraction(0), times the Fraction (-1)^j j! / (n+1)
    denoms = [p.alpha * t - p.beta for p in h.poles]
    out = []
    for j in range(m):
        total = Fraction(0)
        for p, d in zip(h.poles, denoms):
            if p.alpha:
                total = total + p.alpha ** (j + 1) / d ** (j + 1)
        out.append((-1) ** j * math.factorial(j) * Fraction(1, h.n + 1) * total)
    return tuple(out)


def _chain_by_evaluate(h, n, t):
    jets = _jets_by_fractions(h, t, n + 1)
    return (jets[0], *(d.evaluate(jets) for d in derivative_chain(n))) if n else jets


@pytest.mark.parametrize("poles", [
    "1:0,1:1", "2:0,1:1", "3:0,1:1", "1:0,0:1,2:-1", "0:1,1/3:-2/7", "1:0,1:1,2:-1,1:-2,3:-1", "7:5,1/3:1/7,0:2,2:-1",
])
@pytest.mark.parametrize("t", [0.7, 2.0, 2.2, 3.1, -2.5, 1e-3, 1e4])
def test_float_jets_and_chain_match_the_fraction_route(poles, t):
    # bit for bit, with (0:beta) poles and the projectively equal 1:0, 2:0 and 3:0 each against
    # its own route: 3:0 rounds differently from 1:0, so no float work may be shared by equality
    h = RationalH(poles.count(","), tuple(MobiusParam.parse(p) for p in poles.split(",")))
    assert _bits(h.jets(t, 6)) == _bits(_jets_by_fractions(h, t, 6))
    for n in range(5):
        assert _bits(reduced_initial_state(h, n, t)) == _bits(_chain_by_evaluate(h, n, t))


def test_projectively_equal_poles_round_apart():
    one, three = (RationalH(1, (MobiusParam(a, 0), MobiusParam(1, 1))) for a in (1, 3))
    assert one == three and one.jets(0.7, 4) != three.jets(0.7, 4)


def _jets_by_old_route(h, t, m):
    # the Fraction loop behind the profile's errors: ValueError for a t that is not finite, PoleError at
    # a pole, and at a float t an OverflowError naming t when a power leaves the float range
    if type(t) is float and not math.isfinite(t):
        raise ValueError(f"profile time not finite: t = {t}")
    if 0 in [p.alpha * t - p.beta for p in h.poles]:
        raise PoleError(f"profile pole at t = {t}")
    try:
        return _jets_by_fractions(h, t, m)
    except (ZeroDivisionError, OverflowError):
        raise OverflowError(f"profile jets not finite at t = {t}") from None


def _exp_r_by_fractions(h, delta, r0, t):
    # the prefactor with each base float(alpha / (alpha t - beta)): Fraction / float divides in floats
    _jets_by_old_route(h, t, 0)
    acc, p = math.exp(float(r0)), (delta + 0.5) / (h.n + 1)
    for pole in h.poles:
        if pole.alpha:
            base = float(pole.alpha / (pole.alpha * t - pole.beta))
            if base <= 0:
                raise ValueError(f"fractional power of non-positive base at t = {t}")
            try:
                acc *= base**p
            except OverflowError:
                acc = math.inf
    if not math.isfinite(acc):
        raise OverflowError(f"prefactor not finite at t = {t}")
    return acc


def _typed_outcome(fn, *args):
    # values with their types (floats by their bits), or the error's type and message
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return [(type(v), v.hex() if type(v) is float else v) for v in (out if isinstance(out, tuple) else (out,))]


def test_profile_matches_the_fraction_routes_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.fractions(-6, 6, max_denominator=12)

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(
        st.lists(st.tuples(small, small), min_size=1, max_size=5),
        st.sampled_from(["as drawn", "projectively equal pairs", "h = 0", "alpha^2 past the float range", "a pole at 0"]),
        st.fractions(-3, 3, max_denominator=5).filter(bool),
        st.data(),
    )
    def check(pairs, shape, scale, data):
        if shape == "projectively equal pairs":
            pairs = [pair for a, b in pairs for pair in ((a, b), (scale * a, scale * b))][:5]
        if shape == "h = 0":
            pairs = [(0, b) for _, b in pairs]
        if shape == "alpha^2 past the float range":
            pairs[0] = (Fraction(10**200), pairs[0][1])
        if shape == "a pole at 0":
            pairs[0] = (pairs[0][0] or 1, 0)
        h = RationalH(len(pairs) - 1, tuple(MobiusParam(a, b or 1) if not a else MobiusParam(a, b) for a, b in pairs))
        exact = data.draw(st.one_of(
            st.integers(-6, 6), small, st.sampled_from([p.beta / p.alpha for p in h.poles if p.alpha] or [1])))
        times = [exact, float(exact), data.draw(st.one_of(
            st.floats(-6, 6), st.sampled_from([math.inf, -math.inf, math.nan, 1e-300, -1e-300, 1e200])))]
        for t in times:
            assert _typed_outcome(h.jets, t, 6) == _typed_outcome(_jets_by_old_route, h, t, 6)
            for delta, r0 in ((0, 0.0), (1, 0.5)):
                assert _typed_outcome(exp_r, h, delta, r0, t) == _typed_outcome(_exp_r_by_fractions, h, delta, r0, t)

    check()


def test_vanishing_profile_stays_exact():
    # every pole (0 : beta): h = 0, and its jets and chain values are exact zeros at a float t too
    h = RationalH(1, (MobiusParam(0, 1), MobiusParam(0, 2)))
    for state in (h.jets(2.5, 4), reduced_initial_state(h, 3, 2.5)):
        assert state == (0, 0, 0, 0) and all(type(v) is Fraction for v in state)


def test_float_jets_overflow_in_the_exact_power():
    # alpha^2 = 1e400 has no float: both routes raise, and the jets name t
    h = RationalH(0, (MobiusParam.parse("1e200:1"),))
    with pytest.raises(OverflowError, match=r"^profile jets not finite at t = 2\.0$"):
        h.jets(2.0, 2)
    with pytest.raises(OverflowError):
        _jets_by_fractions(h, 2.0, 2)


def test_pole_raises():
    with pytest.raises(PoleError):
        H1.jets(Fraction(0), 1)
    with pytest.raises(PoleError):
        H2.jets(1.0, 1)


def test_heat_system_field_example():
    x2 = GradedPoly.variable(X, 1, 2)
    zero3 = GradedPoly.zero(X, 1)
    spec = AnsatzSpec.general(1, 0, [x2, GradedPoly.variable(X, 2, 3)])
    # p_3 is the capped top line, so it evaluates to zero
    assert heat_system_field(spec, (1, 2)) == (1, -8)
    assert heat_system_field(spec, (1.0, 2.0)) == (1.0, -8.0)
    with pytest.raises(ValueError):
        heat_system_field(spec, (1, 2, 3))


def test_reduced_system_field_example():
    spec = AnsatzSpec.reduced(1, 0, GradedPoly.zero(X, 0))
    out = heat_system_field(spec, (Fraction(3, 4), Fraction(1, 16)))
    assert out == (Fraction(-1, 2), Fraction(-3, 16))
    # exact profile states sit on the flow: dx_k matches the jet derivative
    t = Fraction(2)
    state = reduced_initial_state(H2, 1, t)
    assert state == (Fraction(3, 4), Fraction(-1, 16))
    field_value = heat_system_field(spec, state)
    # d/dt (h, D_1(jets)) = (h', D_1'(jets)) with D_1' = 2 L_1-derivative route
    eps = Fraction(1, 10**9)
    ahead = reduced_initial_state(H2, 1, t + eps)
    for slope, a, b in zip(field_value, ahead, state):
        assert abs((a - b) / eps - slope) < Fraction(1, 10**6)


def _bits(values):
    return [v.hex() for v in values]


def _float_state(rng, size):
    # mostly O(1) values, with signed zeros and a few large magnitudes
    pick = lambda: rng.choice([0.0, -0.0, rng.uniform(-1e6, 1e6)]) if rng.random() < 0.2 else rng.uniform(-3, 3)
    return tuple(pick() for _ in range(size))


def _random_family(rng, n, delta):
    """A general family with rational coefficients; p_{n+2} may use x_{n+2}."""
    ps = []
    for q in range(2, n + 3):
        # y_{j+1} and x_{j+1} carry the same degree; drop the terms with y1
        jet = random_homogeneous(rng, q, n + 1 + (q == n + 2))
        terms = {e[1:]: c for e, c in jet.terms() if not e[0]}
        ps.append(GradedPoly(X, jet.nvars - 1, terms))
    return AnsatzSpec.general(n, delta, ps)


N0 = AnsatzSpec.chain(0, 0)  # x' = -x1^2, solved by x1(t) = x0 / (1 + x0 (t - t0))


def _compiled_field(spec):
    # the field rows that the RK4 loop is generated from, as one float function of the state
    names = [f"x{j}" for j in range(1, spec.n + 2)]
    exec(f"def field(x):\n    {', '.join(names)}, = x\n    return ({', '.join(_field_rows(spec, names))},)", ns := {})
    return ns["field"]


def _oracle_rk4(field, start, t_end, step):
    """The generic RK4 loop over a field callable that ``rk4_integrate`` replaced, verbatim."""
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
    t0, count = t, rk4_step_count(t_end - t, step)  # times from a step count, so they do not drift
    for i in range(1, int(count) + 1):  # int(inf) raises OverflowError
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


def _outcome(integrate, *args):
    """The states bit for bit, or the error type and message."""
    try:
        return [(t.hex(), _bits(x)) for t, x in integrate(*args)]
    except (IntegrationError, OverflowError) as exc:
        return type(exc), str(exc)


def _same_as_oracle(spec, start, t_end, step):
    field = lambda t, x: heat_system_field(spec, x)
    ours = _outcome(rk4_integrate, spec, start, t_end, step)
    assert ours == _outcome(_oracle_rk4, field, start, t_end, step), (spec, start, t_end, step)
    return ours


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("delta", [0, 1])
def test_compiled_field_matches_reduced_family_bitwise(n, delta):
    spec = AnsatzSpec.reduced(n, delta, rational_top(n))
    field = _compiled_field(spec)
    rng = random.Random(100 * n + delta)
    for _ in range(200):
        x = _float_state(rng, n + 1)
        assert _bits(field(x)) == _bits(heat_system_field(spec, x)), x


def test_compiled_field_matches_general_family_bitwise():
    rng = random.Random(20261018)
    inexact = 0
    for n in range(5):
        for _ in range(4):
            spec = _random_family(rng, n, rng.randint(0, 1))
            inexact += sum(float(c) != c for p in spec.ps for _, c in p.terms())
            field = _compiled_field(spec)
            for _ in range(50):
                x = _float_state(rng, n + 1)
                assert _bits(field(x)) == _bits(heat_system_field(spec, x)), (spec, x)
    # coefficients such as 1/3 round when turned into floats
    assert inexact


def test_compiled_field_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(
        st.integers(0, 4),
        st.integers(0, 2**32),
        st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5),
    )
    def check(n, seed, values):
        spec = _random_family(random.Random(seed), n, seed % 2)
        x = tuple(values[: n + 1])
        assert _bits(_compiled_field(spec)(x)) == _bits(heat_system_field(spec, x))

    check()


def test_compiled_field_errors():
    spec = AnsatzSpec.reduced(3, 0, rational_top(3))
    for bad in ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0, 5.0)):
        with pytest.raises(ValueError, match="state must have 4 components"):
            rk4_integrate(spec, DynState(0.0, bad), 1.0, 0.1)
    # x1 ** 2 overflows: an OverflowError, as from heat_system_field
    huge = (1e200, 1.0, 1.0, 1.0)
    with pytest.raises(OverflowError):
        heat_system_field(spec, huge)
    with pytest.raises(OverflowError):
        _compiled_field(spec)(huge)
    # and inside a step: x1 = 1e12 passes the guard, and the second stage squares -1e200
    assert _same_as_oracle(spec, DynState(0.0, (1e12, 0.0, 0.0, 0.0)), 2e176, 2e176)[0] is OverflowError


def test_rk4_matches_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(
        st.integers(0, 4),
        st.integers(0, 2**32),
        st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
        st.floats(-3.0, 3.0),
        st.sampled_from([1e-3, 0.01, 0.05, 0.1]),
        st.integers(1, 60),
        st.sampled_from([0.0, 0.25, 0.5, 0.999]),
    )
    @hypothesis.example(1, 7, [0.5, -0.25, 0.0, 0.0, 0.0], 2.0, 0.1, 3, 0.5)  # a shortened last step
    @hypothesis.example(3, 7, [0.5, -0.25, 0.125, 0.0, 0.0], 2.0, 0.01, 100, 0.0)  # a whole-number span
    # guard edges, for x' = -x1^2 (every n = 0 family): steps that land exactly on -1e12 and on
    # 1e12 (the run continues), one that ends a float past -1e12 (the run stops), signed zeros,
    # and a step whose state turns nan (the run stops); test_rk4_guard_edges checks each outcome
    @hypothesis.example(0, 7, [-1e12, 0.0, 0.0, 0.0, 0.0], 0.0, 1e-30, 1, 0.0)
    @hypothesis.example(0, 7, [1e12, 0.0, 0.0, 0.0, 0.0], 0.0, 1e-30, 2, 0.0)
    @hypothesis.example(0, 7, [-1e12, 0.0, 0.0, 0.0, 0.0], 0.0, 1e-27, 2, 0.0)
    @hypothesis.example(4, 11, [-0.0, 0.5, -0.0, 0.0, -0.0], 0.0, 0.1, 3, 0.0)
    @hypothesis.example(1, 0, [-1e12, 1e12, 0.0, 0.0, 0.0], 0.0, 1e300, 1, 0.0)
    def check(n, seed, values, t0, step, count, part):
        spec = _random_family(random.Random(seed), n, seed % 2)
        t_end = t0 + (count - part) * step
        _same_as_oracle(spec, DynState(t0, tuple(values[: n + 1])), t_end, step)

    check()


def test_rk4_guard_edges():
    # a component exactly on +-1e12 passes the guard, one a float past it stops the run
    for x1 in (-1e12, 1e12):
        assert [x for _, x in rk4_integrate(N0, DynState(0.0, (x1,)), 2e-30, 1e-30)] == [(x1,)] * 3
    past = (IntegrationError, "state blow-up (|x| > 1e+12) at t = 1e-27")
    assert _same_as_oracle(N0, DynState(0.0, (-1e12,)), 2e-27, 1e-27) == past
    # signed zeros keep their bits; a state that turns nan stops with the oracle's message
    spec = _random_family(random.Random(11), 4, 1)
    assert len(_same_as_oracle(spec, DynState(0.0, (-0.0, 0.5, -0.0, 0.0, -0.0)), 0.3, 0.1)) == 4
    spec = _random_family(random.Random(0), 1, 0)
    assert math.isnan(_rk4_loop(spec)(0.0, (-1e12, 1e12), 1, 1e300, 1e300, [])[1][0])
    assert _same_as_oracle(spec, DynState(0.0, (-1e12, 1e12)), 1e300, 1e300) == (
        IntegrationError, "non-finite state at t = 1e+300")


def test_rk4_stops_where_the_oracle_stops():
    # x1(t) = -1.5 / (1 - 1.5 t) blows up at t = 2/3
    stop = (IntegrationError, "state blow-up (|x| > 1e+12) at t = 0.668")
    assert _same_as_oracle(N0, DynState(0.0, (-1.5,)), 1.0, 1e-3) == stop


def test_rk4_partial_final_step():
    traj = rk4_integrate(N0, DynState(0.0, (1.0,)), 0.25, 0.1)
    assert len(traj) == 4
    t, x = traj[-1]
    assert t == 0.25
    assert abs(x[0] - 1 / 1.25) < 1e-6
    # a whole number of steps: the clock does not drift into a sliver step
    traj = rk4_integrate(N0, DynState(2.0, (1.0,)), 3.0, 1e-2)
    assert len(traj) == 101
    assert [t for t, _ in traj] == [2.0 + i * 1e-2 for i in range(100)] + [3.0]


def test_rk4_step_count_is_the_integrators():
    # 2.1 / 0.7 reads 3.0000000000000004: three steps, not a sliver fourth
    for span, step, count in ((0.25, 0.1, 3), (2.1, 0.7, 3), (1.0, 1e-2, 100), (0.0, 0.1, 0)):
        assert rk4_step_count(span, step) == count
        assert len(rk4_integrate(N0, DynState(0.0, (1.0,)), span, step)) == count + 1
    # span / step overflows to an infinite count, which the integrator refuses
    assert rk4_step_count(1.0, 5e-324) == math.inf
    with pytest.raises(OverflowError):
        rk4_integrate(N0, DynState(0.0, (1.0,)), 1.0, 5e-324)


def test_rk4_accuracy_exponential():
    # the closed form x0 / (1 + x0 t), as the exponential was before it
    _, x = rk4_integrate(N0, DynState(0.0, (1.0,)), 1.0, 1e-3)[-1]
    assert abs(x[0] - 0.5) < 1e-12


def test_rk4_blow_up_guard():
    # x' = -x^2 from x(0) = -1.5 blows up at t = 2/3
    with pytest.raises(IntegrationError):
        rk4_integrate(N0, DynState(0.0, (-1.5,)), 1.0, 1e-3)


def test_rk4_rejects_bad_args():
    with pytest.raises(ValueError):
        rk4_integrate(N0, DynState(0.0, (1.0,)), 1.0, 0.0)
    with pytest.raises(ValueError):
        rk4_integrate(N0, DynState(2.0, (1.0,)), 1.0, 0.1)
    # non-finite ends and steps used to return the start state alone
    for t_end, step in ((math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            rk4_integrate(N0, DynState(0.0, (1.0,)), t_end, step)


def test_rk4_tracks_exact_trajectory():
    start_state = reduced_initial_state(H2, 1, Fraction(2))
    start = DynState(2.0, tuple(float(v) for v in start_state))
    err = 0.0
    for t, x in rk4_integrate(AnsatzSpec.chain(1, 0), start, 3.0, 1e-3):
        exact = reduced_initial_state(H2, 1, t)
        err = max(err, max(abs(a - float(b)) for a, b in zip(x, exact)))
    assert err <= 1e-8


def test_ode_residual_values():
    # (h, h') = (1, -1) solves D_1 = 0
    assert ode_residual(0, None, (Fraction(1), Fraction(-1))) == 0
    # jets (1, 0, 0): D_2 = y3 + 6 y1 y2 + 4 y1^3 = 4
    assert ode_residual(1, None, (1, 0, 0)) == 4
    # with a top polynomial: D_3(jets) - P_2(D_1(jets))
    top = 5 * GradedPoly.variable(X, 1, 2) ** 2
    assert ode_residual(2, top, (1, 0, 0, 0)) == 24 - 5
    with pytest.raises(ValueError):
        ode_residual(1, None, (1, 0))


@pytest.mark.parametrize("t", [Fraction(3, 2), Fraction(2), Fraction(17, 4), Fraction(-1, 3)])
def test_rational_profiles_solve_chain(t):
    assert ode_residual(0, None, H1.jets(t, 2)) == 0
    assert ode_residual(1, None, H2.jets(t, 3)) == 0


@pytest.mark.parametrize("t", [Fraction(3, 2), Fraction(17, 4), Fraction(-1, 3)])
def test_rational_profiles_special_top(t):
    # with more poles the family solves the chain with a nonzero top:
    # three poles give D_3 = -3 x2^2, four give D_4 = -16 x2 x3,
    # independent of the pole configuration
    x2 = GradedPoly.variable(X, 2, 2)
    x3 = GradedPoly.variable(X, 2, 3)
    h3 = RationalH(2, (MobiusParam(1, 0), MobiusParam(1, 1), MobiusParam(2, -1)))
    assert ode_residual(2, -3 * x2**2, h3.jets(t, 4)) == 0
    h4 = RationalH(3, (MobiusParam(1, 0), MobiusParam(1, 1), MobiusParam(2, -1), MobiusParam(1, 3)))
    assert ode_residual(3, -16 * x2 * x3, h4.jets(t, 5)) == 0


def test_chazy_residual():
    # y = 2h solves the derivative form y''' + 3yy'' + 3y'^2 + 3y^2 y'
    for t in (Fraction(3, 2), Fraction(2), Fraction(17, 4)):
        jets = tuple(2 * v for v in H2.jets(t, 4))
        assert chazy4_residual(jets) == 0
    assert chazy4_residual((1, 1, 1, 1)) == 10
    with pytest.raises(ValueError):
        chazy4_residual((1, 1, 1))


def test_rational_top_values():
    # frozen from independent least-squares fits over distinct pole
    # configurations before the symbolic derivation existed
    x2 = GradedPoly.variable(X, 3, 2)
    x3 = GradedPoly.variable(X, 3, 3)
    x4 = GradedPoly.variable(X, 3, 4)
    assert rational_top(0).is_zero
    assert rational_top(1).is_zero
    assert rational_top(2) == -3 * x2**2
    assert rational_top(3) == -16 * x2 * x3
    assert rational_top(4) == -31 * x2 * x4 - 26 * x3**2 - 45 * x2**3
    for n in range(2, 7):
        top = rational_top(n)
        assert top.degree() == -2 * (n + 2)
        assert top.max_used_position() <= n - 2


def test_rational_top_sums_in_canonical_order():
    # the compiled field adds the terms of P_n in the order P_n lists them
    for n in range(8):
        top = rational_top(n)
        names = [f"x{i}" for i in range(2, top.nvars + 2)]
        assert top.nvars == max(n - 1, 0)
        assert top.float_source(names) == GradedPoly(X, top.nvars, top.terms()).float_source(names)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_rational_top_closes_the_family(n):
    poles = tuple(MobiusParam(k % 3 + 1, 2 * k - 3) for k in range(n + 1))
    h = RationalH(n, poles)
    for t in (Fraction(9, 2), Fraction(31, 7)):
        assert ode_residual(n, rational_top(n), h.jets(t, n + 2)) == 0
        # the zero-top chain does not close for n >= 2
        assert ode_residual(n, None, h.jets(t, n + 2)) != 0


def test_scaling_invariance():
    # the chain equations are invariant under h -> lam h(lam t); for the
    # pole representation this rescales every alpha by lam
    lam = 2
    scaled = RationalH(1, tuple(MobiusParam(lam * p.alpha, p.beta) for p in H2.poles))
    for t in (Fraction(3, 2), Fraction(7, 4)):
        assert scaled.value(t) == lam * H2.value(lam * t)
        assert ode_residual(1, None, scaled.jets(t, 3)) == 0
