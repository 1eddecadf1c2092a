"""Series assembly, exact and numeric residuals, Cole-Hopf images."""

import json
import math
from types import SimpleNamespace
from fractions import Fraction

import pytest

from heatansatz.ansatz import AnsatzSpec, PhiTable, general_phi_table
from heatansatz.dynsys import (
    DynState,
    MobiusParam,
    PoleError,
    RationalH,
    compiled_field,
    rational_top,
    reduced_initial_state,
    rk4_integrate,
)
from heatansatz.grpoly import GradedPoly, VariableFamily
from heatansatz.operators import derivative_chain
from heatansatz.solution import (
    GridSpec,
    SeriesSolution,
    _axis,
    assemble_psi,
    burgers_residual,
    closed_form_0ansatz,
    closed_form_1ansatz,
    cole_hopf,
    diffusion_residual_numeric,
    exp_r,
    heat_residual_series,
    rescale_to_mu,
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
    # a gauged copy builds its own slice, with the gauge factor in it
    gauged = sol.with_gauge(lambda t: 0.25, lambda t: 0.25 * t)
    plain = sol.psi(0.7, 2.2)
    assert gauged.psi(0.7, 2.2) == pytest.approx(plain * math.exp(-0.55), rel=1e-14)
    assert sol.psi(0.7, 2.2) == plain


def test_closed_form_1ansatz_degenerate_pole():
    # both poles equal: the parameter x2 vanishes and the 0-ansatz returns
    merged = closed_form_1ansatz(0, MobiusParam(1, 0), MobiusParam(1, 0))
    single = closed_form_0ansatz(0, MobiusParam(1, 0))
    for z in (0.0, 0.6, -1.1):
        assert merged(z, 2.0) == pytest.approx(single(z, 2.0), rel=1e-13)


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


def test_gauge_identity_and_loss():
    sol = assemble_psi(AnsatzSpec.chain(1, 0), H2, 0, 10)
    trivial = sol.with_gauge(lambda t: 0.0, lambda t: 0.0)
    assert trivial.psi(0.4, 2.2) == sol.psi(0.4, 2.2)
    c = 0.25
    lossy = sol.with_gauge(lambda t: c, lambda t: c * t)
    # the multiplier is e^{-c t}
    assert lossy.psi(0.4, 2.2) == pytest.approx(sol.psi(0.4, 2.2) * math.exp(-c * 2.2), rel=1e-14)
    g = GridSpec(-1.0, 1.0, 9, 2.0, 3.0, 5, 1e-3, 1e-3)
    res = diffusion_residual_numeric(lossy.psi, g, mu=0.5, loss=lambda t: c)
    assert res <= 1e-5
    # without the loss term the gauged function no longer solves plain heat
    assert diffusion_residual_numeric(lossy.psi, g, mu=0.5) > 1e-3


def test_gauge_composition():
    sol = assemble_psi(AnsatzSpec.chain(0, 0), H1, 0, 6)
    a = sol.with_gauge(lambda t: 1.0, lambda t: t)
    b = a.with_gauge(lambda t: 2.0, lambda t: 2.0 * t)
    assert b.psi(0.5, 2.0) == pytest.approx(sol.psi(0.5, 2.0) * math.exp(-3 * 2.0), rel=1e-13)


def test_rescale_to_mu():
    sol = assemble_psi(AnsatzSpec.chain(1, 0), H2, 0, 10)
    same = rescale_to_mu(sol.psi, 0.5)
    assert same(0.4, 2.2) == sol.psi(0.4, 2.2)
    faster = rescale_to_mu(sol.psi, 2.0)
    g = GridSpec(-1.0, 1.0, 9, 1.0, 1.5, 5, 1e-3, 1e-3)
    assert diffusion_residual_numeric(faster, g, mu=2.0) <= 1e-5
    assert diffusion_residual_numeric(faster, g, mu=0.5) > 1e-3


def test_trajectory_source_tracks_exact():
    state = reduced_initial_state(H2, 1, Fraction(2))
    start = DynState(2.0, tuple(float(v) for v in state))
    traj = rk4_integrate(compiled_field(AnsatzSpec.chain(1, 0)), start, 3.0, 1e-3)
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
        vals = image.normalized_coefficients(t)
        assert vals[2] == table[2].evaluate(xs)
        assert vals[3] == table[3].evaluate(xs)


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
    text = residual_report(worst, "grid", grid)
    assert residual_report(worst, "grid", grid) == text  # deterministic
    blob = json.loads(text)
    assert set(blob) == {"max_residual", "grid", "mode"}
    assert blob["mode"] == "grid"
    assert blob["max_residual"] == worst  # 17 significant digits round-trip
    assert blob["grid"]["znum"] == 9 and blob["grid"]["dt"] == 1e-3


def test_residual_report_series_and_validation():
    sol = assemble_psi(AnsatzSpec.chain(0, 0), H1, 0, 6)
    worst = heat_residual_series(sol, [Fraction(2)])
    blob = json.loads(residual_report(worst, "series"))
    assert blob == {"max_residual": 0.0, "grid": None, "mode": "series"}
    grid = GridSpec(-1.0, 1.0, 3, 1.5, 2.5, 2, 1e-3, 1e-3)
    with pytest.raises(ValueError):
        residual_report(0.0, "fd", grid)
    with pytest.raises(ValueError):
        residual_report(0.0, "grid")
    with pytest.raises(ValueError):
        residual_report(0.0, "series", grid)


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


@pytest.mark.parametrize("delta", [0, 1])
def test_cole_hopf_of_trajectory_source(delta):
    top = rational_top(2)
    state = reduced_initial_state(H3, 2, Fraction(2))
    start = DynState(2.0, tuple(float(v) for v in state))
    traj = rk4_integrate(compiled_field(AnsatzSpec.reduced(2, 0, top)), start, 3.0, 1e-3)
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


def _burgers_residual_by_orders(image, mu, t_samples):
    """Max |coefficient| of v_t + v v_z - mu v_zz through order 2K-3, adding
    each pair of v's Laurent orders into a dict keyed by order."""
    K, n, h = image.truncation, image.source.n, image.source.h_source
    chain = derivative_chain(n + 1)
    worst = Fraction(0)
    for t in t_samples:
        # x1 = h, x_{k+1} = D_k(jets), and from D_{k+1} = (D + 2(k+1) y1) D_k the
        # rates x_{k+1}' = D_{k+1} - 2(k+1) h D_k
        jets = h.jets(t, n + 2)
        d = [dk.evaluate(jets) for dk in chain]
        x = (jets[0], *d[:n])
        rates = (jets[1], *(d[k] - 2 * (k + 1) * jets[0] * d[k - 1] for k in range(1, n + 1)))
        values = [p.evaluate(x[1:]) for p in image.series_jets]
        slopes = [
            sum((p.partial(k).evaluate(x[1:]) * rates[k - 1] for k in range(2, n + 2)), Fraction(0))
            for p in image.series_jets
        ]
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
