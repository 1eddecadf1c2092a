"""Ring axioms, grading, evaluation, and serialization for GradedPoly."""

import json
import random
from fractions import Fraction

import pytest

from heatansatz.grpoly import (
    FamilyMismatchError,
    GradedPoly,
    NonHomogeneousError,
    VariableFamily,
)

Y = VariableFamily.Y
X = VariableFamily.X


def y(i, nvars=6):
    return GradedPoly.variable(Y, nvars, i)


def random_poly(rng, nvars=4, nterms=5):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randrange(0, 3) for _ in range(nvars))
        terms[exps] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return GradedPoly(Y, nvars, terms)


def test_variable_weights():
    assert Y.weight(0) == 2
    assert Y.weight(3) == 8
    assert X.weight(0) == 4
    assert X.first_index == 2
    assert Y.first_index == 1
    assert Y.var_name(2) == "y3"
    assert X.var_name(0) == "x2"


def test_zero_and_const():
    z = GradedPoly.zero(Y)
    assert z.is_zero
    assert not z
    assert GradedPoly.const(Y, 3, 0).is_zero
    c = GradedPoly.const(Y, 2, Fraction(3, 2))
    assert c.evaluate([]) == Fraction(3, 2)
    assert c.degree() == 0


def test_ring_axioms_random():
    rng = random.Random(20260814)
    for _ in range(40):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + GradedPoly.zero(Y) == a
        assert a - a == GradedPoly.zero(Y)
        assert a * GradedPoly.const(Y, 1, 1) == a


def test_scalar_ops_and_pow():
    p = y(1) + y(2)
    assert 2 * p == p + p
    assert p * Fraction(1, 2) + p * Fraction(1, 2) == p
    assert p**0 == GradedPoly.const(Y, 6, 1)
    assert p**3 == p * p * p


def test_mixed_nvars_addition():
    a = GradedPoly.variable(Y, 2, 1)
    b = GradedPoly.variable(Y, 5, 3)
    s = a + b
    assert s.coefficient((1, 0, 0, 0, 0)) == 1
    assert s.coefficient((0, 0, 1, 0, 0)) == 1
    assert a == GradedPoly.variable(Y, 9, 1)  # trailing zeros do not matter


def test_family_mismatch_raises():
    a = GradedPoly.variable(Y, 2, 1)
    b = GradedPoly.variable(X, 2, 2)
    with pytest.raises(FamilyMismatchError):
        _ = a + b
    with pytest.raises(FamilyMismatchError):
        _ = a * b


def test_partial_derivative():
    p = y(2) + y(1) ** 2  # y2 + y1^2
    assert p.partial(2) == GradedPoly.const(Y, 6, 1)
    assert p.partial(1) == 2 * y(1)
    assert p.partial(5).is_zero
    assert p.partial(9).is_zero  # beyond the ring: constant in that variable
    with pytest.raises(ValueError):
        p.partial(0)
    q = GradedPoly.variable(X, 3, 2)
    with pytest.raises(ValueError):
        q.partial(1)


def test_partial_commutes():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng)
        assert p.partial(1).partial(2) == p.partial(2).partial(1)


def test_derivation():
    # D = y2 d/dy1 + y3 d/dy2 over y1..y3: D(y1^2 y2) = 2 y1 y2^2 + y1^2 y3
    p = GradedPoly.variable(Y, 2, 1) ** 2 * GradedPoly.variable(Y, 2, 2)
    out = p.derivation([y(2, 3), y(3, 3)], 3)
    assert out.nvars == 3
    assert out == 2 * y(1) * y(2) ** 2 + y(1) ** 2 * y(3)
    # None and positions past the images are not differentiated
    assert p.derivation([None, y(3, 3)], 3) == y(1) ** 2 * y(3)
    assert p.derivation([y(2, 3)], 3) == 2 * y(1) * y(2) ** 2
    assert p.derivation([], 2).is_zero
    with pytest.raises(FamilyMismatchError):
        p.derivation([GradedPoly.variable(X, 3, 2)], 3)
    with pytest.raises(ValueError):
        p.derivation([y(3, 3)], 2)  # image outside the ring
    with pytest.raises(ValueError):
        p.derivation([y(1, 1)], 1)  # p itself uses y2


def test_degree_and_homogeneity():
    p = y(2) + y(1) ** 2
    assert p.degree() == -4
    assert p.is_homogeneous()
    q = y(1) + y(2)
    assert q.degree() is None
    assert not q.is_homogeneous()
    assert GradedPoly.zero(Y).is_homogeneous()
    assert GradedPoly.zero(Y).degree() is None
    x = GradedPoly.variable(X, 4, 3)
    assert x.degree() == -6


def test_evaluate_exact():
    # h = 1/2 (1/t + 1/(t-1)) at t = 2 has h = 3/4, h' = -5/8
    p = y(2) + y(1) ** 2
    val = p.evaluate([Fraction(3, 4), Fraction(-5, 8)])
    assert val == Fraction(-1, 16)
    assert isinstance(val, Fraction)
    fval = p.evaluate([0.75, -0.625])
    assert isinstance(fval, float)
    assert fval == -0.0625
    with pytest.raises(ValueError):
        p.evaluate([Fraction(3, 4)])  # too short


def test_evaluate_const_empty():
    c = GradedPoly.const(Y, 4, Fraction(5, 3))
    assert c.evaluate([]) == Fraction(5, 3)


def test_float_source_matches_evaluate_bitwise():
    # insertion order differs from terms() order, and the float sum is not associative
    terms = [((0, 0, 1), Fraction(1, 3)), ((1, 1, 0), Fraction(-7, 5)), ((3, 0, 0), Fraction(1)),
             ((0, 2, 0), Fraction(10**17 + 1, 10**17)), ((1, 0, 1), Fraction(-1))]
    p = GradedPoly(Y, 3, terms)
    assert [e for e, _ in p.terms()] != [e for e, _ in terms]
    fn = eval(f"lambda a, b, c: {p.float_source(['a', 'b', 'c'])}")
    in_canonical_order = eval(f"lambda a, b, c: {GradedPoly(Y, 3, p.terms()).float_source(['a', 'b', 'c'])}")
    rng = random.Random(7)
    reordered = 0
    for _ in range(300):
        point = [rng.uniform(-10, 10) for _ in range(3)]
        assert fn(*point).hex() == p.evaluate(point).hex()
        reordered += fn(*point) != in_canonical_order(*point)
    # the sample is fine enough to see the term order in the last bits
    assert reordered
    assert GradedPoly.zero(Y, 2).float_source(["a", "b"]) == "(0.0)"
    with pytest.raises(IndexError):
        p.float_source(["a", "b"])


def test_leading_term_order():
    # graded order: higher weight wins; ties break toward higher variable index
    p = y(3) + y(1) * y(2) + y(1) ** 3
    exps, coeff = p.leading_term()
    assert exps[2] == 1 and coeff == 1
    ordered = [t[0] for t in p.terms()]
    assert ordered[-1] == exps
    assert ordered[0] == (3, 0, 0, 0, 0, 0)  # y1^3 weight 6, lowest tiebreak


def test_substitute():
    # x2 -> y2 + y1^2 maps the X ring into the Y ring
    ring = GradedPoly.variable(X, 2, 2)
    image = y(2, 2) + GradedPoly.variable(Y, 2, 1) ** 2
    out = (ring**2 * -2).substitute([image], Y, 2)
    assert out == -2 * image * image
    with pytest.raises(ValueError):
        (ring * GradedPoly.variable(X, 2, 3)).substitute([image], Y, 2)


def test_json_round_trip():
    rng = random.Random(11)
    for _ in range(15):
        p = random_poly(rng)
        q = GradedPoly.from_json(p.to_json())
        assert q == p
        assert q.family == p.family
    blob = json.loads((y(2) + y(1) ** 2).to_json())
    assert blob["family"] == "Y"
    assert all(set(t) == {"exp", "num", "den"} for t in blob["terms"])


def test_json_rejects_ragged():
    blob = {"family": "Y", "terms": [{"exp": [1], "num": "1", "den": "1"}, {"exp": [0, 2], "num": "1", "den": "1"}]}
    with pytest.raises(ValueError):
        GradedPoly.from_json_dict({"family": "Y", "terms": blob["terms"][:1], "nvars": "x"})
        GradedPoly.from_json_dict(blob)


def test_to_text():
    p = y(2) + y(1) ** 2
    assert p.to_text() == "y2 + y1^2"
    assert (-2 * p).to_text() == "-2*y2 - 2*y1^2"
    assert GradedPoly.zero(Y).to_text() == "0"
    assert GradedPoly.const(Y, 1, Fraction(1, 2)).to_text() == "1/2"


def test_hash_consistency():
    a = GradedPoly.variable(Y, 2, 1)
    b = GradedPoly.variable(Y, 7, 1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
