"""The checks that ``verify`` shares with the acceptance gate can fail.

Each case breaks one dependency inside ``heatansatz.verify``, or inside
``heatansatz.solution`` where the check reaches it only through another call.  The shared
function must then report a defect, and ``verify --suite <suite>`` must
print a FAIL line, exit 1 and count fewer passed checks than it ran.
The operators checks must also read every input their draw holds.
"""

import random
from fractions import Fraction

import pytest

import heatansatz.solution as S
import heatansatz.verify as V
from heatansatz.ansatz import AnsatzSpec, PhiTable
from heatansatz.cli import run
from heatansatz.grpoly import GradedPoly
from heatansatz.operators import BasisDecomposition
from heatansatz.solution import SeriesSolution


def _plus_one(poly: GradedPoly) -> GradedPoly:
    return poly + GradedPoly.const(poly.family, poly.nvars, 1)


def _tamper(table: PhiTable) -> PhiTable:
    entries = list(table.entries)
    entries[2] = _plus_one(entries[2])
    return PhiTable(table.delta, tuple(entries))


def _tampered_table(general_phi_table):
    return lambda spec, q_max: _tamper(general_phi_table(spec, q_max))


def _tampered_series(assemble_psi):
    def series(spec, h, r0, k_max):
        sol = assemble_psi(spec, h, r0, k_max)
        return SeriesSolution(_tamper(sol.phi), h, r0)

    return series


def _broken_recursion(laurent):
    # the Cole-Hopf recursion with c_2 one too large and its rate unchanged, for every image and residual
    def broken(a, rates=()):
        c, dc = laurent(a, rates)
        c[2] = c[2] + 1
        return c, dc

    return broken


def _perturbed_spec(rk4_integrate):
    def integrate(spec, start, t_end, step):
        ps = [Fraction(1001, 1000) * p for p in spec.ps]
        return rk4_integrate(AnsatzSpec.general(spec.n, spec.delta, ps), start, t_end, step)

    return integrate


def _commutator_pairs():
    rng = random.Random(5)
    return [(Fraction(rng.randrange(1, 5), 2), V.random_homogeneous(rng, w, w)) for w in (2, 3, 4)]


def _tampered_tails(jet_phi_remainders):
    def tails(delta, k_max):
        out = jet_phi_remainders(delta, k_max)
        out[2] = _plus_one(out[2])
        return out

    return tails


def _homogeneous_polys():
    return [p for _, p in _commutator_pairs()]


def _rk4_defect() -> bool:
    # a wrong field both misses the exact trajectory and loses the fourth-order gain
    err, gain = V.rk4_errors(0.01)
    return err > 1e-8 and not 14.0 <= gain <= 18.0


CASES = {
    # shared function: (suite, name patched in heatansatz.verify or a (module, name) pair, breaker, measurement
    # that is 0 or False when sound)
    "chain_defects": ("operators", "annihilator", lambda real: lambda p: real(p) + p, lambda: V.chain_defects(9)),
    "displayed_chain_defects": (
        "ansatz", "derivative_chain", lambda real: lambda k: [_plus_one(d) for d in real(k)],
        V.displayed_chain_defects,
    ),
    "split_defects": ("ansatz", "jet_phi_remainders", _tampered_tails, lambda: V.split_defects(4)),
    "round_trip_defects": (
        "operators", "decompose_basis", lambda real: lambda p: BasisDecomposition(_plus_one(real(p).zpoly)),
        lambda: V.round_trip_defects(_homogeneous_polys()),
    ),
    "kernel_defects": (
        "operators", "is_annihilated", lambda real: lambda p: not real(p),
        lambda: V.kernel_defects(_homogeneous_polys()),
    ),
    "commutator_defects": (
        "operators", "euler_operator", lambda real: lambda p: real(p) + p,
        lambda: V.commutator_defects(_commutator_pairs()),
    ),
    "exact_heat_residual": (
        "solution", "assemble_psi", _tampered_series, lambda: V.exact_heat_residual(V.CHAIN_CASES, 8, V.SAMPLES),
    ),
    "ratio_series_defects": ("ansatz", "general_phi_table", _tampered_table, lambda: V.ratio_series_defects(12)),
    "profile_defects": (
        "dynsys", "chazy4_residual", lambda real: lambda jets: real(jets) + 1, lambda: V.profile_defects(V.SAMPLES),
    ),
    "rk4_errors": ("dynsys", "rk4_integrate", _perturbed_spec, _rk4_defect),
    "exact_burgers_residual": (
        "solution", (S, "_laurent"), _broken_recursion, lambda: V.exact_burgers_residual([(V.H2, 0)], 8, V.SAMPLES),
    ),
}


@pytest.mark.parametrize("shared", CASES)
def test_shared_check_reports_a_broken_dependency(shared, monkeypatch, capsys):
    suite, name, breaker, measure = CASES[shared]
    owner, name = name if isinstance(name, tuple) else (V, name)
    assert not measure()
    monkeypatch.setattr(owner, name, breaker(getattr(owner, name)))
    assert measure()
    assert run(["verify", "--suite", suite]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL ") for line in lines)
    passed, total = map(int, lines[-1].removesuffix(" checks passed").split("/"))
    assert passed < total == len(lines) - 1


def test_operator_checks_read_every_draw(monkeypatch):
    # a check fed fewer inputs still passes, so count what each one reads
    counts = {}

    def counting(name, real):
        def check(inputs):
            counts[name] = len(inputs)
            return real(inputs)

        return check

    for name in ("commutator_defects", "round_trip_defects", "kernel_defects"):
        monkeypatch.setattr(V, name, counting(name, getattr(V, name)))
    assert all(ok for _, ok in V.run_suite("operators"))
    assert counts == {"commutator_defects": 25, "round_trip_defects": 10, "kernel_defects": 10}
