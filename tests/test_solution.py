"""Series assembly, exact and numeric residuals, Cole-Hopf images."""

import bisect
import hashlib
import json
import math
import random
import re
import struct
import sys
from types import SimpleNamespace
from fractions import Fraction

import pytest

from heatansatz.ansatz import AnsatzSpec, PhiTable, general_phi_table
from heatansatz.dynsys import (
    DynState,
    MobiusParam,
    PoleError,
    RationalH,
    heat_system_field,
    rational_top,
    reduced_initial_state,
    rk4_integrate,
)
from heatansatz.grpoly import GradedPoly, VariableFamily, _combination, _numerators, _times
from heatansatz.operators import derivative_chain
from heatansatz.solution import (
    BurgersSolution,
    GridSpec,
    SeriesSolution,
    _TrajectoryInterp,
    _axis,
    _convolution,
    _laurent,
    assemble_psi,
    burgers_residual,
    closed_form_0ansatz,
    closed_form_1ansatz,
    cole_hopf,
    diffusion_residual_numeric,
    exp_r,
    heat_residual_series,
    residual_report,
)

X = VariableFamily.X

H1 = RationalH(0, (MobiusParam(1, 0),))
H2 = RationalH(1, (MobiusParam(1, 0), MobiusParam(1, 1)))
TIMES = [Fraction(k, 4) for k in range(6, 26, 2)]  # ten rational samples in [3/2, 6]


def test_grid_spec_points():
    g = GridSpec(-1.0, 1.0, 5, 2.0, 3.0, 3, 1e-3, 1e-3)
    assert _axis(g.z0, g.z1, g.znum) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert _axis(g.t0, g.t1, g.tnum) == [2.0, 2.5, 3.0]
    assert _axis(Fraction(2), Fraction(3), 3) == [Fraction(2), Fraction(5, 2), Fraction(3)]
    assert _axis(0.25, 9.0, 1) == [0.25]
    # finite bounds whose span overflows
    with pytest.raises(ValueError, match="not finite"):
        _axis(-1e308, 1e308, 3)
    with pytest.raises(ValueError, match="not finite"):
        diffusion_residual_numeric(lambda z, t: 0.0, GridSpec(-1e308, 1e308, 3, 2.0, 3.0, 3, 1e-3, 1e-3))


def test_exp_r_closed_form():
    # single pole at zero: e^r = t^{-(delta + 1/2)}
    assert exp_r(H1, 0, 0.0, 4.0) == pytest.approx(0.5, rel=1e-15)
    assert exp_r(H1, 1, 0.0, 4.0) == pytest.approx(0.125, rel=1e-15)
    assert exp_r(H1, 0, 1.0, 4.0) == pytest.approx(0.5 * math.e, rel=1e-15)
    # two poles: product of (alpha/(alpha t - beta))^((delta + 1/2)/2)
    t = 2.0
    assert exp_r(H2, 0, 0.0, t) == pytest.approx((0.5 * 1.0) ** 0.25, rel=1e-15)
    with pytest.raises(PoleError):
        exp_r(H2, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        exp_r(H2, 0, 0.0, 0.5)  # alpha t - beta < 0 under a fractional power


@pytest.mark.parametrize("t", [Fraction(1), 1.0, Fraction(0), 0.0])
def test_jets_and_prefactor_report_a_pole_alike(t):
    with pytest.raises(PoleError) as jets:
        H2.jets(t, 2)
    with pytest.raises(PoleError) as prefactor:
        exp_r(H2, 0, 0.0, t)
    assert str(jets.value) == str(prefactor.value) == f"profile pole at t = {t}"


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("source,n", [(H1, 0), (H2, 1)])
def test_exact_heat_residual_vanishes(delta, source, n):
    sol = assemble_psi(AnsatzSpec.chain(n, delta), source, 0, 10)
    assert heat_residual_series(sol, TIMES) == 0


@pytest.mark.parametrize("delta", [0, 1])
def test_exact_heat_residual_special_top(delta):
    # rational profiles with more poles ride the reduced system whose top
    # polynomial is -3 x2^2 (three poles) or -16 x2 x3 (four poles)
    x2 = GradedPoly.variable(X, 1, 2)
    x3 = GradedPoly.variable(X, 2, 3)
    h3 = RationalH(2, (MobiusParam(1, 0), MobiusParam(1, 1), MobiusParam(2, -1)))
    sol3 = assemble_psi(AnsatzSpec.reduced(2, delta, -3 * x2**2), h3, 0, 8)
    assert heat_residual_series(sol3, TIMES) == 0
    h4 = RationalH(3, (MobiusParam(1, 0), MobiusParam(1, 1), MobiusParam(2, -1), MobiusParam(1, -3)))
    sol4 = assemble_psi(AnsatzSpec.reduced(3, delta, -16 * x2.with_nvars(2) * x3), h4, 0, 8)
    assert heat_residual_series(sol4, TIMES) == 0


def test_perturbed_table_fails_residual():
    sol = assemble_psi(AnsatzSpec.chain(1, 0), H2, 0, 6)
    entries = list(sol.phi.entries)
    entries[2] = entries[2] + GradedPoly.variable(X, 1, 2)
    bad = SeriesSolution(PhiTable(0, tuple(entries)), H2, 0)
    assert heat_residual_series(bad, [Fraction(2)]) != 0


@pytest.mark.parametrize("delta", [0, 1])
def test_bracket_matches_closed_form(delta):
    # independent oracle: e^{-h z^2/2} z^delta expands with coefficients
    # b_k = (2k+delta)! (-h/2)^k / k!
    sol = assemble_psi(AnsatzSpec.chain(0, delta), H1, 0, 11)
    for t in (Fraction(3, 2), Fraction(2), Fraction(17, 4)):
        h = H1.value(t)
        got = sol.bracket_coefficients(t)
        for k in range(11):
            expect = Fraction(math.factorial(2 * k + delta), math.factorial(k)) * (-h / 2) ** k
            assert got[k] == expect, f"k={k} t={t}"


def heat_jet_oracle(h, delta, t, k_max):
    """b_k = 2^k k! g_k for k <= k_max from h's time jets alone (no Phi table, spec or chain polynomial).

    psi_t = psi_zz / 2 gives psi_k = 2^k psi_0^(k) with psi_0 = e^r and r' = -(delta + 1/2) h, so b_k = psi_k / e^r(t)
    is 2^k k! g_k for g(s) = exp(r(t+s) - r(t)) = sum_m g_m s^m: with r_j = -(delta + 1/2) h^(j-1)(t) / j!,
    g_0 = 1 and g_m = (1/m) sum_{j=1..m} j r_j g_{m-j}."""
    jets = h.jets(t, k_max)
    r = [0] + [-(delta + Fraction(1, 2)) * jets[j - 1] / math.factorial(j) for j in range(1, k_max + 1)]
    g = [Fraction(1)]
    for m in range(1, k_max + 1):
        g.append(sum(j * r[j] * g[m - j] for j in range(1, m + 1)) / m)
    return [2**k * math.factorial(k) * v for k, v in enumerate(g)]


def test_bracket_matches_the_heat_jet_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pole = st.tuples(st.integers(0, 3), st.integers(-3, 3)).filter(any).map(lambda ab: MobiusParam(*ab))
    times = st.fractions(min_value=-4, max_value=6, max_denominator=5)

    @hypothesis.settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.integers(0, 4).flatmap(lambda n: st.lists(pole, min_size=n + 1, max_size=n + 1)),
                      st.integers(0, 1), st.integers(2, 40), times)
    def check(poles, delta, k_max, t):
        hypothesis.assume(all(p.alpha * t != p.beta for p in poles))  # t clear of the poles
        n = len(poles) - 1
        h = RationalH(n, tuple(poles))
        sol = assemble_psi(AnsatzSpec.reduced(n, delta, rational_top(n)), h, 0, k_max)
        got = sol.bracket_coefficients(t)
        assert got == heat_jet_oracle(h, delta, t, k_max) and all(type(v) is Fraction for v in got)

    check()


@pytest.mark.parametrize("delta", [0, 1])
def test_closed_form_0ansatz_matches_series(delta):
    psi = closed_form_0ansatz(delta, MobiusParam(1, 0), r0=0.25)
    sol = assemble_psi(AnsatzSpec.chain(0, delta), H1, 0.25, 8)
    for z in (-0.9, -0.3, 0.4, 1.2):
        for t in (0.7, 1.5, 3.25):
            assert psi(z, t) == pytest.approx(sol.psi(z, t), rel=1e-13)


def test_closed_form_1ansatz_matches_series():
    for delta in (0, 1):
        psi = closed_form_1ansatz(delta, MobiusParam(1, 0), MobiusParam(1, 1))
        sol = assemble_psi(AnsatzSpec.chain(1, delta), H2, 0, 60)
        for z in (-0.8, 0.3, 1.1):
            for t in (1.5, 2.0, 4.25):
                assert psi(z, t) == pytest.approx(sol.psi(z, t), rel=1e-12)


def test_truncation_200_evaluates():
    psi = closed_form_1ansatz(1, MobiusParam(1, 0), MobiusParam(1, 1))
    sol = assemble_psi(AnsatzSpec.chain(1, 1), H2, 0, 200)
    for z in (-2.5, 0.3, 1.7):
        for t in (1.5, 3.0):
            value = sol.psi(z, t)
            assert math.isfinite(value)
            assert value == pytest.approx(psi(z, t), rel=1e-12)


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_bracket_jets_match_bracket_coefficients(n, delta):
    # the jet-space b_k at the profile's jets are the b_k over the parameters
    poles = (MobiusParam(1, 0), MobiusParam(1, 1), MobiusParam(2, -1), MobiusParam(1, -3))
    h = RationalH(n, poles[: n + 1])
    sol = assemble_psi(AnsatzSpec.reduced(n, delta, rational_top(n)), h, 0, 8)
    table = sol.bracket_jets()
    assert len(table) == 9
    for t in (Fraction(5, 2), Fraction(7, 2), Fraction(17, 5)):
        jets = h.jets(t, max(n, 1) + 1)
        assert [b.evaluate(jets) for b in table] == sol.bracket_coefficients(t)


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("n", [2, 3])
def test_slices_match_exact_series(n, delta):
    # psi and v at rational points against the series summed in Fractions
    poles = (MobiusParam(1, 0), MobiusParam(1, 1), MobiusParam(2, -1), MobiusParam(1, -3))
    K = 10
    sol = assemble_psi(AnsatzSpec.reduced(n, delta, rational_top(n)), RationalH(n, poles[: n + 1]), 0.25, K)
    image = cole_hopf(sol)
    for t in (Fraction(5, 2), Fraction(7, 2)):
        xs = sol.parameter_values(t)
        c = image.series_values(t)
        for z in (Fraction(-5, 4), Fraction(1, 2), Fraction(3, 2)):
            series = sum(
                sol.phi.entries[k].evaluate(xs[1:]) * z ** (2 * k + delta) / math.factorial(2 * k + delta)
                for k in range(K + 1)
            )
            expect = math.exp(-float(xs[0] * z * z / 2)) * sol.r_exponential(t) * float(series)
            assert sol.psi(z, t) == pytest.approx(expect, rel=1e-13)
            v = -delta / z + xs[0] * z - sum(c[k] * z ** (2 * k - 1) for k in range(2, K + 1))
            assert image.v(z, t) == pytest.approx(float(v), rel=1e-13)


def test_slice_memo_keys_on_time():
    spec = AnsatzSpec.chain(1, 0)
    sol = assemble_psi(spec, H2, 0, 10)
    image = cole_hopf(sol)
    # 4.25 == Fraction(17, 4), yet exact and float times give slices that
    # differ in the last bit here, so they must not share a memo entry
    for t in (2.2, 3.1, 2.2, Fraction(17, 4), 4.25, Fraction(17, 4)):
        fresh = assemble_psi(spec, H2, 0, 10)
        assert sol.psi(1.1, t) == fresh.psi(1.1, t)
        assert image.v(0.7, t) == cole_hopf(fresh).v(0.7, t)
    # each object keeps its own memo: three solutions, the third a shorter table of the second's family,
    # and the images of the second and the third (the second built positionally), called interleaved at
    # exact and float times; a shared memo would hand a fresh object the same wrong slice, so the
    # coefficients are also checked against the table evaluated without a slice, or the image's series values
    def made():
        sols = [assemble_psi(spec, H2, 0, 10), *(assemble_psi(AnsatzSpec.chain(1, 1), H2, 0, K) for K in (10, 5))]
        return [*sols, cole_hopf(sols[1]), BurgersSolution(sols[2])]

    kept = made()
    short = kept[4]
    assert (short.delta, short.truncation, short.pole_coefficient) == (1, 5, -1)
    for t in (Fraction(5, 2), 2.5, Fraction(13, 4), 3.25, Fraction(5, 2), 3.25):
        for obj, fresh in zip(kept, made()):
            point = obj.parameter_values(t)[1:]
            expect = ([p.evaluate(point) for p in _scaled_by_division(obj)] if isinstance(obj, SeriesSolution)
                      else obj.series_values(t)[2:])
            assert repr(obj.at(t)) == repr(fresh.at(t))
            assert _bits(obj.at(t).coeffs) == _bits(map(float, expect))


POLES5 = ("1:0", "1:1", "2:-1", "1:-2", "3:-1")


def _bits(values):
    return [v.hex() for v in values]


def _solutions(n, delta, K):
    """The n-pole family's series on the first n + 1 of POLES5, from the rational profile
    and from its trajectory integrated over [3, 3.5]."""
    h = RationalH(n, tuple(MobiusParam.parse(p) for p in POLES5[: n + 1]))
    start = DynState(3.0, tuple(float(v) for v in reduced_initial_state(h, n, Fraction(3))))
    trajectory = rk4_integrate(AnsatzSpec.reduced(n, 0, rational_top(n)), start, 3.5, 0.01)
    table = general_phi_table(AnsatzSpec.reduced(n, delta, rational_top(n)), K)
    return SeriesSolution(table, h, 0.0), SeriesSolution(table, trajectory, 0.0)


# a float slice of v, read from psi's by the Cole-Hopf recursion, sits within this relative distance of the
# exact image at the same float parameters: 10x above the worst measured, 8.8e-13 (three poles at K = 30, odd
# parity, on the trajectory of test_float_slices_match_evaluate)
IMAGE_REL = 1e-11


def _exact_image(image, point):
    """c_0, ..., c_K as Fractions at the exact value of each float coordinate of the point."""
    return [c.evaluate([Fraction(v) for v in point]) for c in image.series_jets]


def _near_image(got, exact):
    return all(abs(Fraction(g) - e) <= IMAGE_REL * abs(e) for g, e in zip(got, exact, strict=True))


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("n, K", [(0, 115), (1, 115), (2, 30), (3, 20), (4, 12)])
def test_float_slices_match_evaluate(n, K, delta):
    # every coefficient of psi's slice at a float time, bit for bit, against each entry evaluated at the
    # same parameters and rounded once; v's slice there within IMAGE_REL of the exact image, and at an
    # exact time of the rational profile the exact image rounded once
    sols = _solutions(n, delta, K)
    for sol in sols:
        image = cole_hopf(sol)
        for t in (3.0, 3.2, 3.45):
            point = sol.parameter_values(t)[1:]
            assert all(type(v) is float for v in point)
            assert _bits(sol.at(t).coeffs) == _bits([float(a.evaluate(point)) for a in _scaled_by_division(sol)])
            assert _near_image(image.at(t).coeffs, _exact_image(image, point)[2:])
    image = cole_hopf(sols[0])
    for t in (Fraction(3), Fraction(16, 5), Fraction(69, 20)):
        c = [p.evaluate(image.parameter_values(t)[1:]) for p in image.series_jets]
        assert image.series_values(t) == c
        assert _bits(image.at(t).coeffs) == _bits(map(float, c[2:]))


def _slice_digest(sol, times):
    image = cole_hopf(sol)
    out = hashlib.sha256()
    for t in times:
        data = sol.at(t)
        out.update(repr((data.h, data.coeffs, image.at(t).coeffs)).encode())
    return out.hexdigest()


@pytest.mark.parametrize("n, delta, K, source, times, digest", [
    (3, 0, 20, 0, (3.0, 3.25, 3.5, 3.75, 4.0), "658d8747a8e3e5b804140710d8307d7f4bf57e8f875aff22df05249ce4bfec06"),
    (3, 1, 20, 0, (3.0, 3.25, 3.5, 3.75, 4.0), "5d4bcb500429808ecde763ead8d8629b352461e1bfaefcea897b0f8f28c773f4"),
    (1, 1, 115, 0, (2.0, 2.5, 3.0), "c75d66426e7d1c5deacb3a2abf40a90bea2f0d7ffe1775dd64c72009e756a696"),
    (2, 0, 16, 1, (3.0, 3.125, 3.333, 3.5), "939c177f8ae3d186ea1d38a0018be893440f22249974767f45bc7d5093410480"),
])
def test_float_slices_golden_digest(n, delta, K, source, times, digest):
    # h and the coefficients of psi's and v's slices at float times; no exp reaches them, as in
    # the burgers digest of test_cli.py: the P = 1:0,1:1,2:-1,1:-2 family at K = 20, the
    # two-pole family at K = 115 and a series on a three-pole trajectory
    assert _slice_digest(_solutions(n, delta, K)[source], times) == digest


def test_slice_overflow_comes_before_the_prefactor():
    # at t = 1e-100 powers of the parameters leave the float range and a prefactor base is
    # negative: the coefficients are evaluated first, so the overflow is what is reported
    sol = assemble_psi(AnsatzSpec.reduced(2, 0, rational_top(2)), H3, 0.0, 40)
    with pytest.raises(OverflowError, match=r"^series coefficients not finite at t = 1e-100$"):
        sol.at(1e-100)
    with pytest.raises(ValueError, match="non-positive base"):
        sol.r_exponential(1e-100)
    # psi's and v's slices name t on both routes: exactly evaluated coefficients too large
    # for a float, and float powers of a trajectory's parameters that leave the float range
    tiny = Fraction(1, 10**100)
    states = [DynState(0.0, (0.0, 1e200)), DynState(1.0, (0.0, 1e200))]
    traj = SeriesSolution(general_phi_table(AnsatzSpec.chain(1, 0), 40), states, 0.0)
    for source, t in ((sol, 1e-100), (sol, tiny), (traj, 0.5)):
        for sliced in (source, cole_hopf(source)):
            with pytest.raises(OverflowError, match=f"^series coefficients not finite at t = {re.escape(str(t))}$"):
                sliced.at(t)


def test_closed_form_1ansatz_degenerate_pole():
    # both poles equal: the parameter x2 vanishes and the 0-ansatz returns
    merged = closed_form_1ansatz(0, MobiusParam(1, 0), MobiusParam(1, 0))
    single = closed_form_0ansatz(0, MobiusParam(1, 0))
    for z in (0.0, 0.6, -1.1):
        assert merged(z, 2.0) == pytest.approx(single(z, 2.0), rel=1e-13)


def test_float_overflow_names_where_it_happened():
    # the closed forms check their final value as PsiSlice does; the prefactor and the
    # profile jets name the time at which a float power left the float range
    with pytest.raises(OverflowError, match=r"^psi not finite at z = 0\.0$"):
        closed_form_0ansatz(0, MobiusParam(1, 0), 709)(0.0, 1e-300)
    with pytest.raises(OverflowError, match=r"^psi not finite at z = 0\.0$"):
        closed_form_1ansatz(0, MobiusParam(1, 0), MobiusParam(1, 0), 709)(0.0, 1e-150)
    # an overflowing float power or e^{r0} reads the same, and building the oracle does not raise
    with pytest.raises(OverflowError, match=r"^psi not finite at z = 0\.0$"):
        closed_form_0ansatz(1, MobiusParam(1, 0))(0.0, 1e-300)
    with pytest.raises(OverflowError, match=r"^psi not finite at z = 0\.5$"):
        closed_form_0ansatz(0, MobiusParam(1, 0), 1000)(0.5, 2.0)
    with pytest.raises(OverflowError, match=r"^prefactor not finite at t = 1e-300$"):
        exp_r(H1, 1, 0.0, 1e-300)
    with pytest.raises(OverflowError, match=r"^prefactor not finite at t = 1e-300$"):
        exp_r(H1, 0, 709.0, 1e-300)
    # a trajectory source's e^{r(t)} names t as well
    states = [DynState(2.0, (0.5,)), DynState(2.5, (0.4,))]
    traj = SeriesSolution(general_phi_table(AnsatzSpec.chain(0, 0), 4), states, 1000.0)
    with pytest.raises(OverflowError, match=r"^prefactor not finite at t = 2\.2$"):
        traj.psi(0.5, 2.2)
    for t in (1e-300, 1e200):
        with pytest.raises(OverflowError, match=re.escape(f"profile jets not finite at t = {t}")):
            H2.jets(t, 2)
    with pytest.raises(PoleError):
        H2.jets(0.0, 2)


@pytest.mark.parametrize("delta", [0, 1])
def test_heat_residual_numeric_converges(delta):
    psi = closed_form_0ansatz(delta, MobiusParam(1, 0))
    fine = diffusion_residual_numeric(psi, GridSpec(-1.0, 1.0, 9, 1.5, 2.5, 5, 1e-3, 1e-3))
    coarse = diffusion_residual_numeric(psi, GridSpec(-1.0, 1.0, 9, 1.5, 2.5, 5, 2e-3, 2e-3))
    assert fine <= 1e-5
    assert 3.5 <= coarse / fine <= 4.5


def test_heat_residual_numeric_catches_wrong_function():
    wrong = lambda z, t: math.exp(-z * z / (2 * t))  # missing the prefactor
    assert diffusion_residual_numeric(wrong, GridSpec(-1.0, 1.0, 9, 1.5, 2.5, 5, 1e-3, 1e-3)) > 1e-2


def test_assembled_numeric_residual():
    sol = assemble_psi(AnsatzSpec.chain(1, 0), H2, 0, 12)
    g = GridSpec(-1.0, 1.0, 9, 2.0, 3.0, 5, 1e-3, 1e-3)
    assert diffusion_residual_numeric(sol.psi, g) <= 1e-5


class _OracleInterp:
    """The Python trapezoid loop that ``_TrajectoryInterp`` replaced, verbatim but for reading
    each state as a (t, x) pair."""

    def __init__(self, states):
        self.ts = [t for t, _ in states]
        self.xs = [x for _, x in states]
        acc = [0.0]
        for i in range(1, len(states)):
            dt = self.ts[i] - self.ts[i - 1]
            acc.append(acc[-1] + dt * (self.xs[i][0] + self.xs[i - 1][0]) / 2)
        self.x1_integral = acc

    def state(self, t):
        i = min(max(bisect.bisect_right(self.ts, t) - 1, 0), len(self.ts) - 2)
        w = (t - self.ts[i]) / (self.ts[i + 1] - self.ts[i])
        return tuple(a + w * (b - a) for a, b in zip(self.xs[i], self.xs[i + 1]))

    def integral_x1(self, t):
        i = min(max(bisect.bisect_right(self.ts, t) - 1, 0), len(self.ts) - 2)
        return self.x1_integral[i] + (t - self.ts[i]) * (self.xs[i][0] + self.state(t)[0]) / 2


def test_trajectory_interp_matches_the_loop_bitwise():
    # non-uniform steps, signed and large x1 values and a shortened last step, and an RK4
    # trajectory with a shortened last step, as DynStates and as plain (t, x) pairs
    rng = random.Random(20261019)
    ts = [2.0]
    for _ in range(300):
        ts.append(ts[-1] + rng.choice([1e-3, 0.0123, rng.uniform(1e-4, 0.3)]))
    ts.append(ts[-1] + 1e-7)
    pick = lambda: rng.choice([-0.0, 0.0, rng.uniform(-1e6, 1e6), rng.uniform(-3.0, 3.0)])
    made = [(t, (pick(), pick())) for t in ts]
    start = DynState(2.0, tuple(float(v) for v in reduced_initial_state(H2, 1, 2)))
    integrated = rk4_integrate(AnsatzSpec.chain(1, 0), start, 2.537, 0.01)
    for pairs in (made, integrated):
        oracle = _OracleInterp(pairs)
        probes = [pairs[0][0], pairs[-1][0], *(rng.uniform(pairs[0][0], pairs[-1][0]) for _ in range(200))]
        for states in ([DynState(t, x) for t, x in pairs], [(t, tuple(x)) for t, x in pairs]):
            interp = _TrajectoryInterp(states, 2)
            assert [v.hex() for v in interp.x1_integral] == [v.hex() for v in oracle.x1_integral]
            for t in probes:
                assert _bits(interp.state(t)) == _bits(oracle.state(t)), t
                assert interp.integral_x1(t).hex() == oracle.integral_x1(t).hex(), t


def test_trajectory_source_checks_its_states():
    # psi(0.5, t) of the n = 0 family on four states, in time order; any other order, a repeated
    # or non-finite time or a state of the wrong length is refused with the first bad index
    table = general_phi_table(AnsatzSpec.chain(0, 0), 4)
    states = [DynState(float(t), (x1,)) for t, x1 in enumerate((0.5, 0.3, 0.9, 0.2))]
    sol = SeriesSolution(table, states, 0.0)
    assert [sol.psi(0.5, t) for t in (0.5, 1.5, 2.5)] == pytest.approx([0.850016, 0.678752, 0.472367], abs=1e-6)
    bad = [
        ([states[i] for i in (0, 2, 1, 3)], "trajectory state 2: time does not increase"),
        ([states[0], states[1], states[1], states[3]], "trajectory state 2: time does not increase"),
        ([(0.0, (0.5,)), (1.0, (0.3,)), (math.nan, (0.9,))], "trajectory state 2: time is not finite"),
        ([(-math.inf, (0.5,)), (1.0, (0.3,))], "trajectory state 0: time is not finite"),
        ([(0.0, (0.5,)), (1.0, (0.3,)), (math.inf, (0.9,))], "trajectory state 2: time is not finite"),
        ([(0.0, (0.5,)), (1.0, (0.3, 0.1)), (2.0, ())], "trajectory state 1: x must have 1 components"),
    ]
    for source, message in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SeriesSolution(table, source, 0.0)


def test_trajectory_source_tracks_exact():
    state = reduced_initial_state(H2, 1, Fraction(2))
    start = DynState(2.0, tuple(float(v) for v in state))
    traj = rk4_integrate(AnsatzSpec.chain(1, 0), start, 3.0, 1e-3)
    spec = AnsatzSpec.chain(1, 0)
    numeric = assemble_psi(spec, traj, 0.0, 8)
    exact = assemble_psi(spec, H2, 0.0, 8)
    assert not numeric.exact and exact.exact
    # the numeric r(t) starts from r0 at t0, so compare evolution ratios
    for z in (0.0, 0.5, 1.0):
        a = numeric.psi(z, 2.8) / numeric.psi(0.25, 2.1)
        b = exact.psi(z, 2.8) / exact.psi(0.25, 2.1)
        assert a == pytest.approx(b, rel=1e-6)


@pytest.mark.parametrize("delta", [0, 1])
def test_cole_hopf_0ansatz_exact(delta):
    sol = assemble_psi(AnsatzSpec.chain(0, delta), H1, 0, 8)
    image = cole_hopf(sol)
    assert image.pole_coefficient == -delta
    assert all(p.is_zero for p in image.series_jets)
    for z in (0.5, 1.3, -0.8):
        for t in (Fraction(3, 2), Fraction(5, 2)):
            expect = float(H1.value(t)) * z - delta / z
            assert image.v(z, t) == pytest.approx(expect, rel=1e-15)


def test_cole_hopf_pole_at_origin():
    image = cole_hopf(assemble_psi(AnsatzSpec.chain(0, 1), H1, 0, 6))
    with pytest.raises(ZeroDivisionError):
        image.v(0.0, 2.0)


@pytest.mark.parametrize("delta", [0, 1])
def test_normalized_series_head(delta):
    # the first two normalized Laurent coefficients reproduce the ansatz table
    sol = assemble_psi(AnsatzSpec.chain(1, delta), H2, 0, 8)
    image = cole_hopf(sol)
    table = general_phi_table(AnsatzSpec.chain(1, delta), 8)
    for t in (Fraction(2), Fraction(7, 2)):
        xs = sol.parameter_values(t)[1:]
        c = image.series_values(t)
        for k in (2, 3):  # Psi_k = (2 delta k + 1) (2k-1)! c_k
            assert (2 * delta * k + 1) * math.factorial(2 * k - 1) * c[k] == table[k].evaluate(xs)


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("source,n", [(H1, 0), (H2, 1)])
def test_burgers_series_residual_zero(delta, source, n):
    sol = assemble_psi(AnsatzSpec.chain(n, delta), source, 0, 10)
    image = cole_hopf(sol)
    assert burgers_residual(image, mode="series", t_samples=TIMES) == 0


def test_burgers_series_detects_tampering():
    sol = assemble_psi(AnsatzSpec.chain(1, 0), H2, 0, 6)
    entries = list(sol.phi.entries)
    entries[2] = entries[2] + GradedPoly.variable(X, 1, 2)
    bad = SeriesSolution(PhiTable(0, tuple(entries)), H2, 0)
    assert burgers_residual(cole_hopf(bad), mode="series", t_samples=[Fraction(2)]) != 0


@pytest.mark.parametrize("delta", [0, 1])
def test_burgers_grid_residual(delta):
    image = cole_hopf(assemble_psi(AnsatzSpec.chain(0, delta), H1, 0, 4))
    z0, z1 = (0.75, 1.75) if delta else (-1.0, 1.0)
    fine = burgers_residual(image, mode="grid", grid=GridSpec(z0, z1, 7, 1.5, 2.5, 5, 1e-3, 1e-3))
    coarse = burgers_residual(image, mode="grid", grid=GridSpec(z0, z1, 7, 1.5, 2.5, 5, 2e-3, 2e-3))
    assert fine <= 1e-5
    assert 3.5 <= coarse / fine <= 4.5


@pytest.mark.parametrize("K, delta, mu, expected", [
    (10, 0, 0.5, 3.626957904012684e-07),
    (10, 0, 0.7, 0.029698024328458916),
    (10, 1, 0.5, 4.786767264874925e-05),
    (10, 1, 0.7, 25.604207331937957),
    (6, 0, 0.5, 1.393071616284658e-06),
    (6, 0, 0.7, 0.0297004314779441),
])
def test_burgers_grid_residual_pinned(K, delta, mu, expected):
    # v is Fractions rounded once, then float products and sums (no exp), so the
    # stencil and the pointwise formula are pinned to the last bit
    image = cole_hopf(assemble_psi(AnsatzSpec.chain(1, delta), H2, 0, K))
    grid = GridSpec(0.25, 1.25, 9, 2.0, 3.0, 5, 1e-3, 1e-3)
    assert burgers_residual(image, mu, mode="grid", grid=grid) == expected


def test_grid_residuals_read_each_stencil_point_once():
    calls = []

    def u(z, t):
        calls.append((z, t))
        return z * z * z + t

    grid = GridSpec(0.5, 1.0, 4, 1.0, 2.0, 3, 1e-3, 1e-3)
    # u_t = 1, u_z = 3 z^2, u_zz = 6 z: heat defect 1 - 6 mu z, Burgers 1 + u u_z - 6 mu z
    assert diffusion_residual_numeric(u, grid, mu=0.1) == pytest.approx(0.7, rel=1e-6)
    assert len(calls) == 5 * 4 * 3
    # the t + dt row, the t - dt row, then u(z + dz), u(z), u(z - dz) at each point
    zs, t = _axis(0.5, 1.0, 4), 1.0
    rows = [(z, t + 1e-3) for z in zs] + [(z, t - 1e-3) for z in zs]
    assert calls[:11] == rows + [(zs[0] + 1e-3, t), (zs[0], t), (zs[0] - 1e-3, t)]
    calls.clear()
    assert burgers_residual(SimpleNamespace(v=u), 0.5, mode="grid", grid=grid) == pytest.approx(1 + 3 * 3 - 3, rel=1e-6)
    assert len(calls) == 5 * 4 * 3


def test_burgers_grid_any_mu_on_linear_image():
    # v = z/t solves the Burgers equation for every mu (v_zz = 0)
    image = cole_hopf(assemble_psi(AnsatzSpec.chain(0, 0), H1, 0, 4))
    g = GridSpec(-1.0, 1.0, 5, 1.5, 2.5, 3, 1e-3, 1e-3)
    assert burgers_residual(image, mode="grid", grid=g, mu=0.3) <= 1e-6
    assert burgers_residual(image, mode="grid", grid=g, mu=0.7) <= 1e-6


@pytest.mark.parametrize("delta", [0, 1])
def test_parity(delta):
    sol = assemble_psi(AnsatzSpec.chain(1, delta), H2, 0, 10)
    image = cole_hopf(sol)
    sign = -1 if delta else 1
    for z in (0.3, 0.85, 1.4):
        for t in (1.6, 2.5):
            assert sol.psi(-z, t) == pytest.approx(sign * sol.psi(z, t), rel=1e-14)
            assert image.v(-z, t) == pytest.approx(-image.v(z, t), rel=1e-14)


def test_residual_report_grid():
    grid = GridSpec(-1.0, 1.0, 9, 1.5, 2.5, 5, 1e-3, 1e-3)
    worst = diffusion_residual_numeric(closed_form_0ansatz(0, MobiusParam(1, 0)), grid)
    text = residual_report(worst, grid)
    assert residual_report(worst, grid) == text  # deterministic
    blob = json.loads(text)
    assert set(blob) == {"max_residual", "grid", "mode"}
    assert blob["mode"] == "grid"
    assert blob["max_residual"] == worst  # 17 significant digits round-trip
    assert blob["grid"]["znum"] == 9 and blob["grid"]["dt"] == 1e-3


def test_residual_report_series_and_validation():
    sol = assemble_psi(AnsatzSpec.chain(0, 0), H1, 0, 6)
    worst = heat_residual_series(sol, [Fraction(2)])
    blob = json.loads(residual_report(worst))
    assert blob == {"max_residual": 0.0, "grid": None, "mode": "series"}


def test_gaussian_normalization():
    # r0 = -ln(2 pi)/2 turns the even 0-ansatz into the heat kernel density
    psi = closed_form_0ansatz(0, MobiusParam(1, 0), r0=-0.5 * math.log(2 * math.pi))
    for t in (0.25, 1.0, 4.0):
        width = 10 * math.sqrt(t)
        npts = 4001
        zs = [-width + 2 * width * i / (npts - 1) for i in range(npts)]
        vals = [psi(z, t) for z in zs]
        dz = zs[1] - zs[0]
        integral = dz * (sum(vals) - 0.5 * (vals[0] + vals[-1]))
        assert integral == pytest.approx(1.0, abs=1e-7)
    assert psi(0.0, 1.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-13)


# exact residual values pinned from the jet-space evaluation they replace
H3 = RationalH(2, (MobiusParam(1, 0), MobiusParam(1, 1), MobiusParam(2, -1)))
GOLDEN_SAMPLES = [Fraction(3), Fraction(7, 2)]


@pytest.mark.parametrize("delta,heat,burgers", [
    (0, Fraction(1669931464003, 1312993546389), Fraction(4489, 630118440)),
    (1, Fraction(1028780163203, 145888171821), Fraction(4489, 1470276360)),
])
def test_off_shell_residual_values(delta, heat, burgers):
    # a three-pole profile does not solve the plain chain equation of n = 2
    sol = assemble_psi(AnsatzSpec.chain(2, delta), H3, 0, 8)
    assert heat_residual_series(sol, GOLDEN_SAMPLES) == heat
    assert burgers_residual(cole_hopf(sol), mode="series", t_samples=GOLDEN_SAMPLES) == burgers


def test_burgers_series_residual_other_viscosity():
    image = cole_hopf(assemble_psi(AnsatzSpec.chain(1, 1), H2, 0, 8))
    assert burgers_residual(image, mu=Fraction(1, 3), mode="series", t_samples=GOLDEN_SAMPLES) == Fraction(1, 3)


def test_tampered_residual_values():
    sol = assemble_psi(AnsatzSpec.chain(1, 0), H2, 0, 6)
    entries = list(sol.phi.entries)
    entries[2] = entries[2] + GradedPoly.variable(X, 1, 2)
    bad = SeriesSolution(PhiTable(0, tuple(entries)), H2, 0)
    assert heat_residual_series(bad, [Fraction(2)]) == Fraction(2205, 256)
    assert burgers_residual(cole_hopf(bad), mode="series", t_samples=[Fraction(2)]) == Fraction(1, 32)


def _plain_convolution(a, b):
    """sum_{i+j=k} a_i b_j for k < len(b), each sum started at 0 * b[k] and added in the order of i."""
    out = []
    for k in range(len(b)):
        total = 0 * b[k]
        for i in range(min(k + 1, len(a))):
            total = total + a[i] * b[k - i]
        out.append(total)
    return out


def test_convolution_matches_the_plain_loop_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exact = st.integers(-9, 9) | st.just(0) | st.fractions(min_value=-9, max_value=9, max_denominator=12)
    floats = st.sampled_from([0.0, -0.0, 5e-324, -1.5, 1e300, -1e300, 0.1]) | st.floats(allow_nan=False)
    both = exact | floats
    packed = lambda values: [struct.pack("d", v) if type(v) is float else v for v in values]

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.lists(both, max_size=8), st.lists(both, max_size=8))
    def check(fa, fb):
        # floats mixed with exact values: the same floats, bit for bit (-0.0 too)
        assert packed(_convolution(fa, fb)) == packed(_plain_convolution(fa, fb))
        assert packed(_convolution(fa[:2], fb)) == packed(_plain_convolution(fa[:2], fb))  # a shorter than b

    check()


def _plain_laurent(a, rates=()):
    """c_0 = 0 and c_k = 2k a_k - sum_{i<k} c_i a_{k-i}, and with rates c_k' = 2k a_k' - sum_{i<k} (c_i' a_{k-i} +
    c_i a_{k-i}'), each sum started at 0 * a[k] and added in the order of i."""
    c, dc = [0 * a[0]], [0 * a[0]] if rates else []
    for k in range(1, len(a)):
        total = 0 * a[k]
        for i in range(k):
            total = total + c[i] * a[k - i]
        c.append(2 * k * a[k] - total)
        if rates:
            total = 0 * a[k]
            for i in range(k):
                total = total + (dc[i] * a[k - i] + c[i] * rates[k - i])
            dc.append(2 * k * rates[k] - total)
    return c, dc


def test_laurent_matches_the_plain_loops_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # small fractions, and numerators and denominators of up to 300 bits
    big = st.builds(Fraction, st.integers(-(2**300), 2**300), st.integers(1, 2**300))
    exact = st.fractions(min_value=-9, max_value=9, max_denominator=12) | big
    floats = st.sampled_from([0.0, -0.0, 5e-324, -1.5, 1e300, 0.1]) | st.floats(-1e6, 1e6)

    def tables(entries):
        # a_0 = 1 and up to 40 more entries, with rates of the same length
        return st.integers(0, 40).flatmap(lambda K: st.tuples(
            st.lists(entries, min_size=K, max_size=K), st.lists(entries, min_size=K + 1, max_size=K + 1)))

    @hypothesis.settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @hypothesis.given(tables(exact), st.sampled_from([1, Fraction(1)]), tables(floats))
    def check(exact_table, one, float_table):
        a, rates = [one, *exact_table[0]], exact_table[1]
        for args in ((a,), (a, rates)):
            got, expect = _laurent(*args), _plain_laurent(*args)
            assert got == expect
            assert [[*map(type, v)] for v in got] == [[*map(type, v)] for v in expect]
        fa, fr = [1.0, *float_table[0]], float_table[1]
        for args in ((fa,), (fa, fr)):
            got, expect = _laurent(*args), _plain_laurent(*args)
            assert [[struct.pack("d", x) for x in v] for v in got] == [[struct.pack("d", x) for x in v] for v in expect]

    check()


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_image_matches_sympy_log_derivative(n, delta):
    # independent oracle: the z-series of W'/W with W = sum_j Phi_j z^(2j) / (2j+delta)!
    sp = pytest.importorskip("sympy")
    poles = (MobiusParam(1, 0), MobiusParam(1, 1), MobiusParam(2, -1), MobiusParam(1, -3))
    K = 8
    sol = assemble_psi(AnsatzSpec.reduced(n, delta, rational_top(n)), RationalH(n, poles[: n + 1]), 0, K)
    t = Fraction(7, 2)
    xs = sol.parameter_values(t)[1:]
    z = sp.Symbol("z")
    W = sum(sp.Rational(str(sol.phi[j].evaluate(xs))) * z ** (2 * j) / sp.factorial(2 * j + delta) for j in range(K + 1))
    series = sp.series(sp.diff(W, z) / W, z, 0, 2 * K).removeO()
    got = cole_hopf(sol).series_values(t)
    for k in range(1, K + 1):
        assert got[k] == Fraction(str(series.coeff(z, 2 * k - 1))), f"k={k}"


def _weighted_monomials(q, n):
    """Exponent tuples over x2..x_{n+1} of weight q: sum_k k e_k = q."""
    if n == 0:
        return [()] if q == 0 else []
    return [(*rest, e) for e in range(q // (n + 1) + 1) for rest in _weighted_monomials(q - e * (n + 1), n - 1)]


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_theorem_is_a_polynomial_identity(n, delta):
    # the paper's theorem over x1..x_{n+1} for a random general family: with the table's
    # bracket W, F = -x1 z^2 / 2 + r, r' = -(delta + 1/2) x1 and d/dt along the spec's own field
    # (x1' = p_2 - x1^2, x_k' = p_{k+1} - 2k x1 x_k), e^{-F} (psi_t - psi_zz / 2) vanishes
    # through z^(2K-2+delta); so does v_t + v v_z - v_zz / 2 of the Cole-Hopf image through z^(2K-3)
    sp = pytest.importorskip("sympy")
    rng = random.Random(100 * n + delta)
    coeff = lambda: Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 4))  # never zero
    ps = [GradedPoly(X, n, {e: coeff() for e in _weighted_monomials(q, n)}) for q in range(2, n + 3)]
    spec = AnsatzSpec.general(n, delta, ps)
    K = 8
    sol = SeriesSolution(general_phi_table(spec, K), H1, 0)  # the profile is not read
    z, *x = sp.symbols(f"z x1:{n + 2}")
    half = sp.Rational(1, 2)

    def poly(p):
        """A GradedPoly over x2..x_{n+1}, or a sympy expression, as a polynomial in z and x1..x_{n+1}."""
        if isinstance(p, GradedPoly):
            p = sum(sp.Rational(c.numerator, c.denominator) * sp.prod([x[i + 1] ** e for i, e in enumerate(exps)])
                    for exps, c in p.terms())
        return sp.Poly(p, z, *x, domain="QQ")

    rates = [poly(rate) for rate in heat_system_field(spec, x)]
    dt = lambda f: sum((f.diff(xk) * rate for xk, rate in zip(x, rates)), poly(0))
    low = lambda p, top: [m for m, coeff in p.terms() if coeff and m[0] <= top]  # monomials of z-degree <= top

    W = sum((poly(p) * z ** (2 * k + delta) / sp.factorial(2 * k + delta) for k, p in enumerate(sol.phi)), poly(0))
    F = poly(-x[0] * z**2 / 2)
    F_t, F_z = dt(F) - (delta + half) * x[0], F.diff(z)
    heat = F_t * W + dt(W) - half * (W.diff((z, 2)) + 2 * F_z * W.diff(z) + (F_z.diff(z) + F_z**2) * W)
    assert low(heat, 2 * K - 2 + delta) == []

    # u = z v = -delta + x1 z^2 - sum_k c_k z^(2k), so that z^3 (v_t + v v_z - v_zz / 2) is
    # z^2 u_t + u (z u_z - u) - (z^2 u_zz - 2 z u_z + 2 u) / 2
    c = cole_hopf(sol).series_jets
    u = poly(-delta + x[0] * z**2) - sum((poly(c[k]) * z ** (2 * k) for k in range(2, K + 1)), poly(0))
    u_z = u.diff(z)
    burgers = z**2 * dt(u) + u * (z * u_z - u) - half * (z**2 * u_z.diff(z) - 2 * z * u_z + 2 * u)
    assert low(burgers, 2 * K) == []


@pytest.mark.parametrize("delta", [0, 1])
def test_cole_hopf_of_trajectory_source(delta):
    top = rational_top(2)
    state = reduced_initial_state(H3, 2, Fraction(2))
    start = DynState(2.0, tuple(float(v) for v in state))
    traj = rk4_integrate(AnsatzSpec.reduced(2, 0, top), start, 3.0, 1e-3)
    spec = AnsatzSpec.reduced(2, delta, top)
    image = cole_hopf(assemble_psi(spec, traj, 0.0, 10))
    exact = cole_hopf(assemble_psi(spec, H3, 0.0, 10))
    for t in (2.05, 2.5, 2.95):
        for z in (0.4, 0.9, 1.3):
            assert image.v(z, t) == pytest.approx(exact.v(z, t), rel=1e-6)
    with pytest.raises(ValueError):
        burgers_residual(image, mode="series", t_samples=[Fraction(5, 2)])


# reference constructions for the series algebra: the image by the
# reciprocal series, and the Burgers residual by a dict of Laurent orders
def _image_by_reciprocal(sol):
    """c_k from u = 1/W truncated (u_m = -sum_{j>=1} w_j u_{m-j}), then the
    product W' u; entries 0 and 1 are zero."""
    K = sol.truncation
    w = [p * Fraction(1, math.factorial(2 * j + sol.delta)) for j, p in enumerate(sol.phi.entries[: K + 1])]
    zero = GradedPoly.zero(X, sol.n)
    u = [GradedPoly.const(X, sol.n, 1)]
    for m in range(1, K + 1):
        u.append(sum((-(w[j] * u[m - j]) for j in range(1, m + 1)), zero))
    return [zero, zero] + [sum(((2 * j) * (w[j] * u[k - j]) for j in range(1, k + 1)), zero) for k in range(2, K + 1)]


def _values_and_slopes(sol, polys, t):
    """(x, x', p(x), grad p . x') at time t: x1 = h, x_{k+1} = D_k(jets), and from
    D_{k+1} = (D + 2(k+1) y1) D_k the rates x_{k+1}' = D_{k+1} - 2(k+1) h D_k; each p
    evaluated, and each slope summed from its partials."""
    n = sol.n
    jets = sol.h_source.jets(t, n + 2)
    d = [dk.evaluate(jets) for dk in derivative_chain(n + 1)]
    x = (jets[0], *d[:n])
    rates = (jets[1], *(d[k] - 2 * (k + 1) * jets[0] * d[k - 1] for k in range(1, n + 1)))
    values = [p.evaluate(x[1:]) for p in polys]
    slopes = [sum((p.partial(k).evaluate(x[1:]) * rates[k - 1] for k in range(2, n + 2)), Fraction(0)) for p in polys]
    return x, rates, values, slopes


def _heat_residual_by_partials(sol, t_samples):
    """Max |b_k + (2 delta+1) h b_{k-1} - 2 b_{k-1}'| over k < K, with b_k = (2k+delta)! sum_{i+j=k}
    (-h/2)^i / i! a_j and b_k' by the product rule, from the a_j = Phi_j / (2j+delta)! and their slopes."""
    K, d = sol.truncation, sol.delta
    a = [entry * Fraction(1, math.factorial(2 * j + d)) for j, entry in enumerate(sol.phi.entries[:K])]
    worst = Fraction(0)
    for t in t_samples:
        x, rates, values, slopes = _values_and_slopes(sol, a, t)
        g = [(-x[0] / 2) ** i / math.factorial(i) for i in range(K)]
        dg = [Fraction(0)] + [(-x[0] / 2) ** (i - 1) / math.factorial(i - 1) * (-rates[0] / 2) for i in range(1, K)]

        def bracket(u, w):
            return [math.factorial(2 * k + d) * sum(u[i] * w[k - i] for i in range(k + 1)) for k in range(K)]

        b = bracket(g, values)
        db = [p + q for p, q in zip(bracket(dg, values), bracket(g, slopes))]
        worst = max(worst, *(abs(b[k] + (2 * d + 1) * x[0] * b[k - 1] - 2 * db[k - 1]) for k in range(1, K)))
    return worst


def _burgers_residual_by_orders(image, mu, t_samples):
    """Max |coefficient| of v_t + v v_z - mu v_zz through order 2K-3, adding
    each pair of v's Laurent orders into a dict keyed by order."""
    K = image.truncation
    worst = Fraction(0)
    for t in t_samples:
        x, rates, values, slopes = _values_and_slopes(image.source, image.series_jets, t)
        v = {1: (x[0], rates[0])}
        if image.delta:
            v[-1] = (-image.delta, 0)
        for k in range(2, K + 1):
            v[2 * k - 1] = (-values[k], -slopes[k])
        residual = {}

        def add(order, value):
            if order <= 2 * K - 3:
                residual[order] = residual.get(order, 0) + value

        for o, (c, dc) in v.items():
            add(o, dc)
            add(o - 2, -mu * o * (o - 1) * c)
        for o1, (c1, _) in v.items():
            for o2, (c2, _) in v.items():
                add(o1 + o2 - 1, o2 * c1 * c2)
        worst = max(worst, *(abs(value) for value in residual.values()))
    return worst


@pytest.mark.parametrize("K", [8, 16])
@pytest.mark.parametrize("delta", [0, 1])
def test_image_matches_reciprocal_route(delta, K):
    poles = (MobiusParam(1, 0), MobiusParam(1, 1), MobiusParam(2, -1), MobiusParam(1, -3), MobiusParam(3, 1))
    for n in range(5):
        sol = assemble_psi(AnsatzSpec.reduced(n, delta, rational_top(n)), RationalH(n, poles[: n + 1]), 0, K)
        assert list(cole_hopf(sol).series_jets) == _image_by_reciprocal(sol), f"n={n}"


H4 = RationalH(3, (MobiusParam(1, 0), MobiusParam(1, 1), MobiusParam(2, -1), MobiusParam(1, -3)))


def _tampered(delta):
    sol = assemble_psi(AnsatzSpec.chain(1, delta), H2, 0, 6)
    entries = list(sol.phi.entries)
    entries[2] = entries[2] + GradedPoly.variable(X, 1, 2)
    return SeriesSolution(PhiTable(delta, tuple(entries)), H2, 0)


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("case", ["three_poles", "four_poles", "tampered", "on_shell"])
def test_burgers_series_residual_matches_order_dict(case, delta):
    # off shell, the three- and four-pole profiles under the plain chain spec of n = 2
    sol = {
        "three_poles": lambda: assemble_psi(AnsatzSpec.chain(2, delta), H3, 0, 8),
        "four_poles": lambda: assemble_psi(AnsatzSpec.chain(2, delta), H4, 0, 8),
        "tampered": lambda: _tampered(delta),
        "on_shell": lambda: assemble_psi(AnsatzSpec.reduced(3, delta, rational_top(3)), H4, 0, 8),
    }[case]()
    image = cole_hopf(sol)
    samples = [Fraction(3), Fraction(7, 2), Fraction(41, 10)]
    for mu in (Fraction(1, 2), Fraction(1, 3), Fraction(1)):
        got = burgers_residual(image, mu=mu, mode="series", t_samples=samples)
        assert got == _burgers_residual_by_orders(image, mu, samples), f"mu={mu}"
        assert (got == 0) == (case == "on_shell" and mu == Fraction(1, 2))


def _heat_residual_by_orders(sol, t_samples):
    """Max |b_k + (2 delta+1) h b_{k-1} - 2 b_{k-1}'| over k < K as -2 m! times the z^m coefficient, m = 2k-2+delta,
    of B_t - B_zz / 2 - (delta + 1/2) h B for B = psi e^{-r} = e^{-h z^2/2} sum_j a_j z^(2j+delta): B's orders and
    their rates added in plain ``Fraction``s into dicts keyed by order, one product of a Gaussian and a W term at a
    time, with the a_j and their slopes from the partials."""
    K, d = sol.truncation, sol.delta
    worst = Fraction(0)
    for t in t_samples:
        x, rates, values, slopes = _values_and_slopes(sol, _scaled_by_division(sol)[:K], t)
        u, du = -x[0] / 2, -rates[0] / 2
        B, dB = {}, {}
        for i in range(K):
            g, dg = u**i / math.factorial(i), (u ** (i - 1) / math.factorial(i - 1) * du if i else Fraction(0))
            for j in range(K - i):
                m = 2 * (i + j) + d
                B[m] = B.get(m, Fraction(0)) + g * values[j]
                dB[m] = dB.get(m, Fraction(0)) + dg * values[j] + g * slopes[j]
        for m in range(d, 2 * K - 3 + d, 2):
            residual = dB[m] - (m + 2) * (m + 1) * B[m + 2] / 2 - (d + Fraction(1, 2)) * x[0] * B[m]
            worst = max(worst, abs(-2 * math.factorial(m) * residual))
    return worst


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("case", ["three_poles", "four_poles", "tampered", "on_shell"])
def test_heat_residual_series_matches_order_dict(case, delta):
    # the heat twin of the Burgers order-dict check, on the same off-shell tables and one on-shell table
    sol = {
        "three_poles": lambda: assemble_psi(AnsatzSpec.chain(2, delta), H3, 0, 8),
        "four_poles": lambda: assemble_psi(AnsatzSpec.chain(2, delta), H4, 0, 8),
        "tampered": lambda: _tampered(delta),
        "on_shell": lambda: assemble_psi(AnsatzSpec.reduced(3, delta, rational_top(3)), H4, 0, 8),
    }[case]()
    samples = [Fraction(3), Fraction(7, 2), Fraction(41, 10)]
    got = heat_residual_series(sol, samples)
    assert type(got) is Fraction and got == _heat_residual_by_orders(sol, samples)
    assert (got == 0) == (case == "on_shell")


@pytest.mark.parametrize("delta, off_shell", [(0, Fraction(398723166345063424, 63738145151543994091796875)),
                                               (1, Fraction(398723166345063424, 191214435454631982275390625))])
def test_burgers_series_residual_of_four_poles_matches_order_dict(delta, off_shell):
    # the four-pole reduced family at K = 14, on shell and with its top set to 0: the residual read from psi's
    # values and rates by the Cole-Hopf recursion equals the route through the image's polynomials
    P4 = RationalH(3, tuple(MobiusParam.parse(p) for p in ("1:0", "1:1", "2:-1", "1:-2")))
    top = rational_top(3)
    samples = [Fraction(17, 4), Fraction(5)]
    for ps_top, expect in ((top, 0), (GradedPoly.zero(X, top.nvars), off_shell)):
        image = cole_hopf(assemble_psi(AnsatzSpec.reduced(3, delta, ps_top), P4, 0, 14))
        got = burgers_residual(image, mode="series", t_samples=samples)
        assert got == _burgers_residual_by_orders(image, Fraction(1, 2), samples) == expect


def test_burgers_series_residual_matches_order_dict_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # alpha >= 1 and beta <= 1 keep every pole before t = 2
    pole = st.builds(MobiusParam, st.integers(1, 3), st.integers(-3, 1))
    times = st.fractions(min_value=2, max_value=5, max_denominator=7)

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(
        st.lists(pole, min_size=3, max_size=4),
        st.lists(times, min_size=1, max_size=3),
        st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(-2, 5)]),
        st.sampled_from([0, 1]),
    )
    def check(poles, samples, mu, delta):
        sol = assemble_psi(AnsatzSpec.chain(2, delta), RationalH(len(poles) - 1, tuple(poles)), 0, 6)
        image = cole_hopf(sol)
        got = burgers_residual(image, mu=mu, mode="series", t_samples=samples)
        assert got == _burgers_residual_by_orders(image, mu, samples)

    check()


def test_exact_residuals_match_partials_property():
    # chain families with random tops under profiles of one to four poles, mostly off shell
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pole = st.builds(MobiusParam, st.integers(1, 3), st.integers(-3, 1))
    times = st.fractions(min_value=2, max_value=5, max_denominator=7)
    coefficient = st.fractions(min_value=-6, max_value=6, max_denominator=5)

    @hypothesis.settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.integers(0, 3), st.sampled_from([0, 1]), st.integers(2, 10), st.data())
    def check(n, delta, K, data):
        top = GradedPoly(X, n, [(e, data.draw(coefficient)) for e in _monomials(n + 2, n)])
        spec = AnsatzSpec.general(n, delta, [*(GradedPoly.variable(X, n, k) for k in range(2, n + 2)), top])
        poles = data.draw(st.lists(pole, min_size=1, max_size=4))
        sol = assemble_psi(spec, RationalH(len(poles) - 1, tuple(poles)), 0, K)
        samples = data.draw(st.lists(times, min_size=1, max_size=2))
        assert heat_residual_series(sol, samples) == _heat_residual_by_partials(sol, samples)
        image = cole_hopf(sol)
        for mu in (Fraction(1, 2), Fraction(1, 3)):
            got = burgers_residual(image, mu=mu, mode="series", t_samples=samples)
            assert got == _burgers_residual_by_orders(image, mu, samples)

    check()


def test_exact_residuals_refuse_float_sample_times(monkeypatch):
    # the two-pole chain solves exactly; a float t would take the float jets and report rounding noise
    sol = assemble_psi(AnsatzSpec.chain(1, 0), H2, 0, 6)
    image = cole_hopf(sol)
    assert heat_residual_series(sol, [Fraction(5, 2)]) == 0
    assert burgers_residual(image, mode="series", t_samples=[Fraction(5, 2)]) == 0

    def no_state(*args):
        raise AssertionError("a state was computed")

    monkeypatch.setattr("heatansatz.solution.reduced_initial_state", no_state)
    with pytest.raises(ValueError, match=r"exact residual needs rational sample times: t = 2\.5$"):
        heat_residual_series(sol, [2.5])
    with pytest.raises(ValueError, match=r"exact residual needs rational sample times: t = 2\.5$"):
        burgers_residual(image, mode="series", t_samples=[Fraction(2), 2.5])


# the Phi table and the Cole-Hopf image over general families, rebuilt in public GradedPoly arithmetic
def _monomials(weight, nvars):
    """Exponent tuples over x2..x_{nvars+1} of weight ``weight`` (x_k weighs k)."""
    if nvars == 0:
        return [()] if weight == 0 else []
    top = nvars + 1
    return [e + (m,) for m in range(weight // top + 1) for e in _monomials(weight - m * top, nvars - 1)]


def _general_specs():
    """General families p_2..p_{n+2} with random rational coefficients, n = 0..4, both parities."""
    st = pytest.importorskip("hypothesis").strategies
    coefficient = st.fractions(min_value=-6, max_value=6, max_denominator=5)

    @st.composite
    def specs(draw):
        n, delta = draw(st.integers(0, 4)), draw(st.sampled_from([0, 1]))
        ps = []
        for q in range(2, n + 3):
            nvars = n + 1 if q == n + 2 else n  # the top p_{n+2} may use x_{n+2}, which the spec caps
            ps.append(GradedPoly(X, nvars, [(e, draw(coefficient)) for e in _monomials(q, nvars)]))
        return AnsatzSpec.general(n, delta, ps)

    return specs()


def _image_by_burgers_equation(spec, K):
    """c_0..c_K from the Burgers equation for v = x1 z - delta/z - sum_m c_m z^(2m-1), with the
    time derivative of the parameters read as the derivation D = p.derivation(ps[1:], n):
    c_1 = 0, c_2 = -p_2/(3+2 delta) and, for M >= 3,
    c_M = (D c_{M-1} / (M-1) - sum_{i=2}^{M-2} c_i c_{M-i}) / (2M-1+2 delta)."""
    n, delta = spec.n, spec.delta
    zero = GradedPoly.zero(X, n)
    c = [zero, zero, spec.ps[0] * Fraction(-1, 3 + 2 * delta)]
    for M in range(3, K + 1):
        quadratic = sum((c[i] * c[M - i] for i in range(2, M - 1)), zero)
        advected = c[M - 1].derivation(spec.ps[1:], n) * Fraction(1, M - 1)
        c.append((advected - quadratic) * Fraction(1, 2 * M - 1 + 2 * delta))
    return c


def _same_terms(got, expected):
    return all(
        list(p._terms.items()) == list(q._terms.items()) and all(type(v) is Fraction for v in p._terms.values())
        for p, q in zip(got, expected, strict=True)
    )


def _image(spec, K):
    return cole_hopf(SeriesSolution(general_phi_table(spec, K), H1, 0)).series_jets  # the profile is not read


def test_image_satisfies_the_burgers_equation_property():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=15, deadline=None, database=None, derandomize=True)
    @hypothesis.given(_general_specs())
    def check(spec):
        assert _same_terms(_image(spec, 25), _image_by_burgers_equation(spec, 25))

    check()


def test_chain_image_satisfies_the_burgers_equation():
    spec = AnsatzSpec.chain(2, 1)
    assert _same_terms(_image(spec, 60), _image_by_burgers_equation(spec, 60))


def test_tables_match_the_plain_recursions_property():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=15, deadline=None, database=None, derandomize=True)
    @hypothesis.given(_general_specs(), hypothesis.strategies.integers(2, 25))
    def check(spec, K):
        n, ps = spec.n, spec.ps
        e = [GradedPoly.const(X, n, 1), GradedPoly.zero(X, n), (-2 * (1 + 2 * spec.delta)) * ps[0]]
        for q in range(3, K + 1):
            factor = Fraction((2 * q + spec.delta - 3) * (2 * q + spec.delta - 2), 2 * (1 + 2 * spec.delta))
            e.append(2 * e[q - 1].derivation(ps[1:], n) + factor * (e[2] * e[q - 2]))
        table = general_phi_table(spec, K)
        assert _same_terms(table.entries, e)
        sol = SeriesSolution(table, H1, 0)
        a = _scaled_by_division(sol)
        c = [0 * a[0]]
        for k in range(1, K + 1):
            c.append(2 * k * a[k] - sum((c[i] * a[k - i] for i in range(k)), 0 * a[k]))
        assert _same_terms(cole_hopf(sol).series_jets, c)

    check()


def _scaled_by_division(sol):
    """a_k = Phi_k / (2k+delta)!, divided exactly here."""
    return [entry * Fraction(1, math.factorial(2 * k + sol.delta)) for k, entry in enumerate(sol.phi.entries)]


def _image_over_scaled(sol):
    """The Cole-Hopf recursion c_k = 2k a_k - sum_{j<k} c_j a_{k-j} in working forms read from the a_k."""
    a = [_numerators(entry, sol.n) for entry in _scaled_by_division(sol)]
    c = [({}, 1)]
    for k in range(1, sol.truncation + 1):
        convolution = _combination((1, _times(c[i], a[k - i])) for i in range(k))
        c.append(_combination([(2 * k, a[k]), (-1, convolution)]))
    return [GradedPoly._from_numerators(X, sol.n, w) for w in c]


def _assert_slices_divide_once(sol, times):
    # each coefficient of psi's slice at a float time, bit for bit, against a_k evaluated there
    table = _scaled_by_division(sol)
    for t in times:
        point = sol.parameter_values(t)[1:]
        assert all(type(v) is float for v in point)
        assert _bits(sol.at(t).coeffs) == _bits([float(a.evaluate(point)) for a in table])


def test_slices_and_image_divide_phi_as_they_read_it_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @hypothesis.given(_general_specs(), st.integers(2, 25), st.lists(st.floats(-1.5, 1.5), min_size=10, max_size=10))
    def check(spec, K, xs):
        # a trajectory of two states, so any family has float parameters at a float time
        n = spec.n
        sol = SeriesSolution(general_phi_table(spec, K), [DynState(0.0, tuple(xs[: n + 1])),
                                                          DynState(1.0, tuple(xs[5 : n + 6]))], 0.0)
        _assert_slices_divide_once(sol, (0.0, 0.375, 1.0))
        assert _same_terms(cole_hopf(sol).series_jets, _image_over_scaled(sol))

    check()


def _image_in_magnitudes(table, point):
    """m_k = 2k A_k + sum_{i<k} m_i A_{k-i}, the Cole-Hopf recursion with every sign taken positive, over
    A_k = |Phi_k|(|x|) / (2k+delta)!: each entry's coefficients and the point's coordinates by magnitude."""
    xs = [abs(Fraction(v)) for v in point]
    A = [sum((abs(c) * math.prod(x**e for x, e in zip(xs, exps)) for exps, c in p.terms()), Fraction(0))
         / math.factorial(2 * k + table.delta) for k, p in enumerate(table.entries)]
    m = [Fraction(0)]
    for k in range(1, len(A)):
        m.append(2 * k * A[k] + sum(m[i] * A[k - i] for i in range(k)))
    return m


def test_float_image_is_forward_stable_property():
    # at float parameters each c_k of v, read from psi's float a_k, is off the exact image there by at most
    # 1e-14 m_k, plus the least normal float for products that underflow: 10x above the worst measured,
    # 8.9e-16 m_k over 600 draws of this strategy.  No bound relative to |c_k| holds here, as random
    # coefficients cancel
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @hypothesis.given(_general_specs(), st.integers(2, 25), st.lists(st.floats(-1.5, 1.5), min_size=10, max_size=10))
    def check(spec, K, xs):
        n, table = spec.n, general_phi_table(spec, K)
        sol = SeriesSolution(table, [DynState(0.0, tuple(xs[: n + 1])), DynState(1.0, tuple(xs[5 : n + 6]))], 0.0)
        image = cole_hopf(sol)
        for t in (0.0, 0.375, 1.0):
            point = sol.parameter_values(t)[1:]
            got, scale = image.series_values(t), _image_in_magnitudes(table, point)
            for g, e, m in zip(got, _exact_image(image, point), scale, strict=True):
                assert abs(Fraction(g) - e) <= Fraction(1e-14) * m + Fraction(sys.float_info.min)
            assert _bits(image.at(t).coeffs) == _bits(got[2:])

    check()


@pytest.mark.parametrize("delta", [0, 1])
def test_long_float_slices_divide_phi_as_they_read_it(delta):
    # the two-pole chain at K = 115 and three poles at K = 200, where (2K+delta)! is far past the float range
    _assert_slices_divide_once(assemble_psi(AnsatzSpec.chain(1, delta), H2, 0.0, 115), (2.0, 3.5))
    _assert_slices_divide_once(assemble_psi(AnsatzSpec.reduced(2, delta, rational_top(2)), H3, 0.0, 200), (3.0, 17.0))


def test_float_and_exact_times_build_only_their_reader():
    # every reader of psi's table, at a float time, builds no exact reader, and at an exact time no float
    # reader; the image reads psi's table through psi's readers, so v, its series values and its exact
    # Burgers residual build no reader of the image's own and leave its polynomials unbuilt
    for t, built, unbuilt in ((2.5, "_float_rows", "_exact_rows"), (Fraction(5, 2), "_exact_rows", "_float_rows")):
        sol = assemble_psi(AnsatzSpec.chain(1, 1), H2, 0, 12)
        image = cole_hopf(sol)
        sol.psi(0.5, t), sol.bracket_coefficients(t), image.v(0.5, t), image.series_values(t)
        if type(t) is Fraction:
            assert burgers_residual(image, mode="series", t_samples=[t]) == 0
        assert built in sol.__dict__ and unbuilt not in sol.__dict__
        assert not {"_float_rows", "_exact_rows", "series_jets"} & image.__dict__.keys()


def test_one_reader_matches_evaluate_at_any_time_property():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @hypothesis.given(_general_specs(), hypothesis.strategies.integers(2, 12))
    def check(spec, K):
        n = spec.n
        table = general_phi_table(spec, K)
        # the chain values of n + 1 poles, and of the profile h = 0, whose parameters stay exact at a float time
        for h in (RationalH(n, tuple(MobiusParam.parse(p) for p in POLES5[: n + 1])),
                  RationalH(n, tuple(MobiusParam(0, b) for b in range(1, n + 2)))):
            sol = SeriesSolution(table, h, 0)
            image = cole_hopf(sol)
            for t in (3.3, 4.25, Fraction(17, 4), 5):
                # each entry a_k = Phi_k / (2k+delta)! evaluated at the parameters, and the exact image there
                xs = sol.parameter_values(t)
                a = [p.evaluate(xs[1:]) for p in _scaled_by_division(sol)]
                base = -Fraction(1, 2) * xs[0]
                gauss = [base**i * Fraction(1, math.factorial(i)) for i in range(K + 1)]
                b = [math.factorial(2 * k + spec.delta) * v for k, v in enumerate(_plain_convolution(gauss, a))]
                c = _exact_image(image, xs[1:])
                got_b, got_c = sol.bracket_coefficients(t), image.series_values(t)
                # exact parameters (an exact time, or h = 0 at any time) give the same Fractions; float ones give
                # psi's bits, and the image within IMAGE_REL
                if all(type(v) is float for v in xs):
                    assert _bits(map(float, got_b)) == _bits(map(float, b))
                    assert _near_image(got_c, c) and _near_image(image.at(t).coeffs, c[2:])
                else:
                    assert (got_b, [*map(type, got_b)]) == (b, [*map(type, b)])
                    assert (got_c, [*map(type, got_c)]) == (c, [*map(type, c)])
                    assert _bits(image.at(t).coeffs) == _bits(map(float, c[2:]))
                assert _bits(sol.at(t).coeffs) == _bits(map(float, a))

    check()


@pytest.mark.parametrize("sliced", [lambda sol: sol, cole_hopf], ids=["psi", "v"])
def test_slice_overflow_of_h_names_t(sliced):
    # h(t) = 1/t is too large for a float at t = 10^-400, while the n = 0 table has no parameters
    tiny = Fraction(1, 10**400)
    source = sliced(assemble_psi(AnsatzSpec.chain(0, 0), H1, 0, 4))
    with pytest.raises(OverflowError, match=f"^series coefficients not finite at t = {re.escape(str(tiny))}$"):
        source.at(tiny)
