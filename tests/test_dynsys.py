"""Rational profiles, dynamical system fields, RK4, and ODE residuals."""

import math
import random
from fractions import Fraction

import pytest

from heatansatz.ansatz import AnsatzSpec
from heatansatz.dynsys import (
    DynState,
    IntegrationError,
    MobiusParam,
    PoleError,
    RationalH,
    chazy4_residual,
    compiled_field,
    heat_system_field,
    ode_residual,
    rational_top,
    reduced_initial_state,
    rk4_integrate,
    rk4_step_count,
)
from heatansatz.grpoly import GradedPoly, VariableFamily
from heatansatz.verify import random_homogeneous

X = VariableFamily.X

H1 = RationalH(0, (MobiusParam(1, 0),))
H2 = RationalH(1, (MobiusParam(1, 0), MobiusParam(1, 1)))


def test_mobius_param():
    p = MobiusParam.parse("2:3")
    assert p.alpha == 2 and p.beta == 3
    assert p.pole_time() == Fraction(3, 2)
    assert MobiusParam.parse("1/2:-3") == MobiusParam(Fraction(1, 2), -3)
    # projective: (2:4) and (1:2) are the same parameter
    assert MobiusParam(2, 4) == MobiusParam(1, 2)
    assert len({MobiusParam(2, 4), MobiusParam(1, 2)}) == 1
    assert MobiusParam(0, 1).pole_time() is None
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


def test_pole_raises():
    with pytest.raises(PoleError):
        H1.jets(Fraction(0), 1)
    with pytest.raises(PoleError):
        H2.jets(1.0, 1)
    assert H2.pole_times() == [Fraction(0), Fraction(1)]


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


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("delta", [0, 1])
def test_compiled_field_matches_reduced_family_bitwise(n, delta):
    spec = AnsatzSpec.reduced(n, delta, rational_top(n))
    field = compiled_field(spec)
    rng = random.Random(100 * n + delta)
    for _ in range(200):
        x = _float_state(rng, n + 1)
        assert _bits(field(0.0, x)) == _bits(heat_system_field(spec, x)), x


def test_compiled_field_matches_general_family_bitwise():
    rng = random.Random(20261018)
    inexact = 0
    for n in range(5):
        for _ in range(4):
            spec = _random_family(rng, n, rng.randint(0, 1))
            inexact += sum(float(c) != c for p in spec.ps for _, c in p.terms())
            field = compiled_field(spec)
            for _ in range(50):
                x = _float_state(rng, n + 1)
                assert _bits(field(1.5, x)) == _bits(heat_system_field(spec, x)), (spec, x)
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
        assert _bits(compiled_field(spec)(0.0, x)) == _bits(heat_system_field(spec, x))

    check()


def test_compiled_field_errors():
    spec = AnsatzSpec.reduced(3, 0, rational_top(3))
    field = compiled_field(spec)
    for bad in ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0, 5.0)):
        with pytest.raises(ValueError):
            field(0.0, bad)
    # x1 ** 2 overflows: an OverflowError, as from heat_system_field
    huge = (1e200, 1.0, 1.0, 1.0)
    with pytest.raises(OverflowError):
        heat_system_field(spec, huge)
    with pytest.raises(OverflowError):
        field(0.0, huge)


def test_rk4_partial_final_step():
    field = lambda t, x: (x[0],)
    traj = rk4_integrate(field, DynState(0.0, (1.0,)), 0.25, 0.1)
    assert len(traj) == 4
    assert traj[-1].t == 0.25
    assert abs(traj[-1].x[0] - math.exp(0.25)) < 1e-6
    # a whole number of steps: the clock does not drift into a sliver step
    traj = rk4_integrate(field, DynState(2.0, (1.0,)), 3.0, 1e-2)
    assert len(traj) == 101
    assert [s.t for s in traj] == [2.0 + i * 1e-2 for i in range(100)] + [3.0]


def test_rk4_step_count_is_the_integrators():
    field = lambda t, x: (x[0],)
    # 2.1 / 0.7 reads 3.0000000000000004: three steps, not a sliver fourth
    for span, step, count in ((0.25, 0.1, 3), (2.1, 0.7, 3), (1.0, 1e-2, 100), (0.0, 0.1, 0)):
        assert rk4_step_count(span, step) == count
        assert len(rk4_integrate(field, DynState(0.0, (1.0,)), span, step)) == count + 1
    # span / step overflows to an infinite count, which the integrator refuses
    assert rk4_step_count(1.0, 5e-324) == math.inf
    with pytest.raises(OverflowError):
        rk4_integrate(field, DynState(0.0, (1.0,)), 1.0, 5e-324)


def test_rk4_accuracy_exponential():
    field = lambda t, x: (x[0],)
    traj = rk4_integrate(field, DynState(0.0, (1.0,)), 1.0, 1e-3)
    assert abs(traj[-1].x[0] - math.e) < 1e-12


def test_rk4_blow_up_guard():
    # dx = x^2 from x(0) = 1.5 blows up at t = 2/3
    field = lambda t, x: (x[0] ** 2,)
    with pytest.raises(IntegrationError):
        rk4_integrate(field, DynState(0.0, (1.5,)), 1.0, 1e-3)


def test_rk4_rejects_bad_args():
    field = lambda t, x: (0.0,)
    with pytest.raises(ValueError):
        rk4_integrate(field, DynState(0.0, (1.0,)), 1.0, 0.0)
    with pytest.raises(ValueError):
        rk4_integrate(field, DynState(2.0, (1.0,)), 1.0, 0.1)
    # non-finite ends and steps used to return the start state alone
    for t_end, step in ((math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            rk4_integrate(field, DynState(0.0, (1.0,)), t_end, step)


def test_rk4_tracks_exact_trajectory():
    start_state = reduced_initial_state(H2, 1, Fraction(2))
    start = DynState(2.0, tuple(float(v) for v in start_state))
    field = compiled_field(AnsatzSpec.chain(1, 0))
    err = 0.0
    for s in rk4_integrate(field, start, 3.0, 1e-3):
        exact = reduced_initial_state(H2, 1, s.t)
        err = max(err, max(abs(a - float(b)) for a, b in zip(s.x, exact)))
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
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
