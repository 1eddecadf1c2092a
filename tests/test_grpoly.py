"""Ring axioms, grading, evaluation, and serialization for GradedPoly."""

import functools
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import pytest

from heatansatz.ansatz import AnsatzSpec, general_phi_table, jet_phi_table
from heatansatz import grpoly
from heatansatz.dynsys import rational_top
from heatansatz.grpoly import (
    _LIMIT,
    _SLOT,
    FamilyMismatchError,
    GradedPoly,
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
    # nor in a coefficient query of another length
    p, q = GradedPoly(X, 3, {(1, 0, 0): 2}), GradedPoly(X, 1, {(1,): 2})
    assert p == q
    assert p.coefficient((1,)) == q.coefficient((1, 0, 0)) == q.coefficient((1,)) == 2
    assert q.coefficient((1, 0, 1)) == p.coefficient((1, 0, 0, 1)) == 0
    assert p.coefficient(()) == q.coefficient((0, 0, 0, 0)) == 0


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


def plain_evaluate(poly, values):
    """The per-term loop that ``evaluate`` follows: each ``Fraction`` coefficient times ``values[i] ** e`` left to
    right, in insertion order, summed from ``Fraction(0)``."""
    total = Fraction(0)
    for exps, coeff in poly._terms.items():
        term = coeff
        for i, e in enumerate(exps):
            if e:
                term = term * values[i] ** e
        total = total + term
    return total


def test_evaluate_matches_the_plain_term_loop_property():
    """At float, exact and mixed points, value and type equal the plain loop's over the ``Fraction`` terms, floats
    bit for bit, so reading the stored numerators and packed keys keeps its steps (a constant stays a ``Fraction``)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficients = st.integers(-9, 9) | st.fractions(min_value=-9, max_value=9, max_denominator=10**20)
    floats = st.floats(-8, 8) | st.sampled_from([0.0, -0.0, 1e-300, 3.0])
    exacts = st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5, max_denominator=9)

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.example(([((1, 1), Fraction(1, 10))], [3, 0.5]))  # exact first: 3/10 * 0.5, not 0.1 * 3 * 0.5
    @hypothesis.example(([((0,), Fraction(-1, 10**400)), ((1,), 1)], [-0.0]))  # a sum from the constant -0.0
    @hypothesis.example(([((1,), 10**16), ((2,), 1), ((3,), 1)], [1.0]))  # 1e16 + 1 + 1 = 1e16, in insertion order
    @hypothesis.given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * n), coefficients), max_size=6),
        st.sampled_from([floats, exacts, floats | exacts]).flatmap(lambda v: st.lists(v, min_size=n, max_size=n)))))
    def check(case):
        terms, point = case
        p = GradedPoly(Y, len(point), terms)
        got, want = p.evaluate(point), plain_evaluate(p, point)
        assert type(got) is type(want)
        assert got.hex() == want.hex() if isinstance(want, float) else got == want

    check()


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


def test_terms_order():
    # graded order: higher weight wins; ties break toward higher variable index
    p = y(3) + y(1) * y(2) + y(1) ** 3
    ordered = [t[0] for t in p.terms()]
    assert ordered[-1] == (0, 0, 1, 0, 0, 0)
    assert ordered[0] == (3, 0, 0, 0, 0, 0)  # y1^3 weight 6, lowest tiebreak


def test_substitute():
    # x2 -> y2 + y1^2 maps the X ring into the Y ring
    ring = GradedPoly.variable(X, 2, 2)
    image = y(2, 2) + GradedPoly.variable(Y, 2, 1) ** 2
    out = (ring**2 * -2).substitute([image], Y, 2)
    assert out == -2 * image * image
    with pytest.raises(ValueError):
        (ring * GradedPoly.variable(X, 2, 3)).substitute([image], Y, 2)
    # every image is re-declared to the target ring: a wider declaration that fits is
    # narrowed, and an image that uses a position outside the ring is an error
    assert ring.substitute([image.with_nvars(5)], Y, 2).nvars == 2
    with pytest.raises(ValueError):
        ring.substitute([y(3, 3)], Y, 2)


def test_substitute_keeps_the_order_of_the_sum():
    # u + (-u) + w + u added one term at a time: u cancels, leaves, and comes back after w,
    # so the terms (which a float evaluate sums in this order) are [w, u], not [u, w]
    u, w = y(1, 4) * y(2, 4), y(3, 4)
    out = (y(1, 4) - y(2, 4) + y(3, 4) + y(4, 4)).substitute([u, u, w, u], Y, 4)
    assert list(out._terms.items()) == [((0, 0, 1, 0), 1), ((1, 1, 0, 0), 1)]


def test_json_round_trip():
    rng = random.Random(11)
    for _ in range(15):
        p = random_poly(rng)
        blob = json.loads(p.to_json())
        assert blob["family"] == p.family.value
        assert [(tuple(t["exp"]), Fraction(int(t["num"]), int(t["den"]))) for t in blob["terms"]] == p.terms()
    blob = json.loads((y(2) + y(1) ** 2).to_json())
    assert blob["family"] == "Y"
    assert all(set(t) == {"exp", "num", "den"} for t in blob["terms"])


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


def assert_canonical(poly):
    """The stored working form: nonzero int numerators over a positive int denominator, in lowest terms, each
    key an int within the ring's slots with no exponent at the limit (no slot's top bit set)."""
    nums, den = poly._nums, poly._den
    assert type(den) is int and den > 0
    assert all(type(n) is int and n for n in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    for key in nums:
        assert type(key) is int and 0 <= key and key.bit_length() <= _SLOT * poly.nvars
        assert all(key >> _SLOT * i & (_LIMIT | _LIMIT - 1) < _LIMIT for i in range(poly.nvars))


def assert_same_polynomial(a, b):
    """a and b are one polynomial: equal, with one hash, and one terms() and to_json up to zero padding of the
    exponents (at one ring size, the same to_json text)."""
    assert a == b and hash(a) == hash(b)
    width = max(a.nvars, b.nvars)
    pad = lambda p, exps: tuple(exps) + (0,) * (width - p.nvars)
    assert [(pad(a, e), c) for e, c in a.terms()] == [(pad(b, e), c) for e, c in b.terms()]
    blob = lambda p: [(pad(p, t["exp"]), t["num"], t["den"]) for t in json.loads(p.to_json())["terms"]]
    assert blob(a) == blob(b)
    if a.nvars == b.nvars:
        assert a.to_json() == b.to_json()


def test_every_route_stores_the_canonical_form_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficients = st.integers(-6, 6) | st.fractions(min_value=-6, max_value=6, max_denominator=12)

    @st.composite
    def polys(draw, family, nvars):
        exps = st.tuples(*[st.integers(0, 2)] * nvars)
        return GradedPoly(family, nvars, draw(st.lists(st.tuples(exps, coefficients), max_size=5)))

    @st.composite
    def cases(draw):
        family, nvars = draw(st.sampled_from(list(VariableFamily))), draw(st.integers(0, 3))
        p, q = draw(polys(family, nvars)), draw(polys(family, nvars))
        images = [draw(polys(family, nvars)) for _ in range(nvars)]
        return p, q, images, draw(coefficients.filter(bool)), draw(st.integers(0, 3))

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cases(), st.integers(0, 4), st.integers(0, 1), st.integers(2, 12))
    def check(case, n, delta, k_max):
        p, q, images, scalar, exponent = case
        family, nvars = p.family, p.nvars
        one = [GradedPoly.variable(family, nvars + 1, family.first_index + i) for i in range(nvars)]
        routes = [p, p + q, p - q, p * scalar, p * q, p**exponent, p.derivation(images, nvars),
                  p.substitute(images, family, nvars), p.with_nvars(nvars + 2),
                  *general_phi_table(AnsatzSpec.reduced(n, delta, rational_top(n)), k_max).entries,
                  *jet_phi_table(delta, k_max).entries]
        for poly in routes:
            assert_canonical(poly)
        # one polynomial by several routes, at nvars, nvars + 1 and nvars + 2 slots
        for same in [(p + q) - q, p * scalar * (1 / Fraction(scalar)), p**1, p * GradedPoly.const(family, 0, 1),
                     GradedPoly(family, nvars, p.terms()), p.substitute(one, family, nvars + 1),
                     p.with_nvars(nvars + 2)]:
            assert_same_polynomial(same, p)
        absent = [((1,) * (nvars + 1), 0)] + [((3,) * nvars, 0)] * bool(nvars)  # outside the ring, and in it
        for exps, c in [*p.terms(), *absent]:
            got = p.coefficient(exps)
            assert type(got) is Fraction and got == c

    check()



def test_a_power_past_the_limit_raises_before_any_product(monkeypatch):
    def forbidden(*_):
        raise AssertionError("a product was formed")

    cases = [(y(1, 2) + y(2, 2), _LIMIT), (y(1, 2) ** 3 - GradedPoly.const(Y, 2, 1), _LIMIT // 3 + 1)]
    monkeypatch.setattr(grpoly, "_times", forbidden)
    for base, exponent in cases:
        with pytest.raises(OverflowError):
            base**exponent


def test_packed_keys_hold_every_exponent_below_the_limit_property():
    """Exponents up to the limit over up to 40 variables: the constructor, terms(), coefficient() and to_json give
    them back, and equality and hash hold across ring sizes; the limit itself is refused; a product or power past
    it raises OverflowError, never wrapping into the next slot; an exponent out of range, even one whose packed key
    would be a stored term's, has coefficient 0."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exponents = st.integers(0, 3) | st.integers(_LIMIT // 2 - 2, _LIMIT // 2 + 2) | st.integers(0, _LIMIT - 1)

    @st.composite
    def cases(draw):
        family, nvars = draw(st.sampled_from(list(VariableFamily))), draw(st.integers(1, 40))
        terms = st.dictionaries(st.tuples(*[exponents] * nvars), st.integers(-9, 9).filter(bool), min_size=1, max_size=4)
        return family, nvars, draw(terms), draw(terms)

    def by_tuples(left, right):
        """The product of two term dicts, exponents added as tuples."""
        out = {}
        for (e1, c1), (e2, c2) in itertools.product(left.items(), right.items()):
            key = tuple(map(operator.add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    @hypothesis.settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cases(), st.integers(0, 2 * _LIMIT), st.integers(0, 39), st.integers(1, 5))
    def check(case, power, position, extra):
        family, nvars, terms, other = case
        p, q, position = GradedPoly(family, nvars, terms), GradedPoly(family, nvars, other), position % nvars
        assert_canonical(p)
        assert sorted(p.terms()) == sorted(terms.items()) and dict(p._terms) == terms
        assert all(p.coefficient(e) == c for e, c in terms.items())
        blob = json.loads(p.to_json())["terms"]
        assert sorted((tuple(t["exp"]), Fraction(int(t["num"]), int(t["den"]))) for t in blob) == sorted(terms.items())
        wide = p.with_nvars(nvars + extra)
        assert wide == p and hash(wide) == hash(p) and wide.with_nvars(nvars) == p and (p == q) == (terms == other)

        with pytest.raises(ValueError):
            GradedPoly(family, nvars, {tuple(_LIMIT * (i == position) for i in range(nvars)): 1})

        product = by_tuples(terms, other)
        if all(e < _LIMIT for exps in product for e in exps):
            assert_canonical(p * q)
            assert dict((p * q)._terms) == product
        else:
            with pytest.raises(OverflowError):
                p * q
        lead, top = next(iter(terms)), max(map(max, terms))
        monomial = GradedPoly(family, nvars, {lead: 1})
        if power * max(lead) < _LIMIT:
            assert (monomial**power).terms() == [(tuple(e * power for e in lead), 1)]
        else:
            with pytest.raises(OverflowError):
                monomial**power
        if top >= _LIMIT // 8:  # a power of two or more terms whose exponents reach the limit in a few products
            for k in (_LIMIT // top, _LIMIT // top + 1):
                if k * top < _LIMIT:
                    assert p**k == functools.reduce(operator.mul, [p] * k, GradedPoly.const(family, nvars, 1))
                else:
                    with pytest.raises(OverflowError):
                        p**k

        # one more in slot i + 1 packs like 2^16 more in slot i: that exponent is out of range, not the stored term
        for exps in terms:
            if position + 1 < nvars and exps[position + 1]:
                wrapped = list(exps)
                wrapped[position] += 1 << _SLOT
                wrapped[position + 1] -= 1
                assert p.coefficient(wrapped) == 0
        assert p.coefficient([70000]) == 0 and p.coefficient([-1]) == 0

    check()
