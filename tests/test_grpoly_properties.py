"""Property tests for GradedPoly: ring axioms, JSON, padding, derivations,
substitutions, the basis change that is two substitutions, and the float and exact rows."""

import json
import random
import struct
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from heatansatz.grpoly import GradedPoly, VariableFamily, exact_rows, float_rows  # noqa: E402
from heatansatz.operators import decompose_basis, expand_basis, is_annihilated  # noqa: E402
from heatansatz.verify import random_homogeneous  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None, database=None)

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def polys(draw, family=None, nvars=None):
    family = draw(st.sampled_from(list(VariableFamily))) if family is None else family
    nvars = draw(st.integers(0, 4)) if nvars is None else nvars
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return GradedPoly(family, nvars, draw(st.lists(st.tuples(exps, coefficients), max_size=6)))


@st.composite
def poly_triples(draw):
    family = draw(st.sampled_from(list(VariableFamily)))
    return tuple(draw(polys(family, draw(st.integers(0, 4)))) for _ in range(3))


@st.composite
def derivation_cases(draw):
    """(P, Q, images, nvars): P and Q over at most nvars variables, and
    up to nvars + 1 images (None or polynomials that fit in nvars)."""
    family = draw(st.sampled_from(list(VariableFamily)))
    nvars = draw(st.integers(0, 4))
    p = draw(polys(family, draw(st.integers(0, nvars))))
    q = draw(polys(family, draw(st.integers(0, nvars))))
    image = st.none() | st.integers(0, nvars).flatmap(lambda m: polys(family, m))
    return p, q, draw(st.lists(image, max_size=nvars + 1)), nvars


@st.composite
def substitution_cases(draw):
    """(P, images, family, nvars): one image in the target ring per declared variable of P.
    P has unit coefficients and the images come from a pool of two, so that terms of the
    sum can cancel and come back."""
    size = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 1)] * size)
    p = GradedPoly(draw(st.sampled_from(list(VariableFamily))), size,
                   draw(st.lists(st.tuples(exps, st.sampled_from([-1, 1])), max_size=10)))
    family, nvars = draw(st.sampled_from(list(VariableFamily))), draw(st.integers(0, 4))
    pool = draw(st.lists(polys(family, nvars), min_size=1, max_size=2))
    return p, [draw(st.sampled_from(pool)) for _ in range(size)], family, nvars


def partial_by_terms(poly, position):
    # d/dv_position, term by term
    acc = {}
    for exps, coeff in poly.terms():
        e = exps[position] if position < len(exps) else 0
        if e:
            key = exps[:position] + (e - 1,) + exps[position + 1 :]
            acc[key] = acc.get(key, Fraction(0)) + coeff * e
    return GradedPoly(poly.family, poly.nvars, acc)


def derivation_by_sum(poly, images, nvars):
    # sum_i images[i] * dP/dv_i, one product and one sum per variable
    result = GradedPoly.zero(poly.family, nvars)
    for i, image in enumerate(images[:nvars]):
        if image is None:
            continue
        d = partial_by_terms(poly, i)
        if d:
            result = result + image * d.with_nvars(nvars)
    return result


def substitute_by_sum(poly, images, family, nvars):
    # one product per term of P, in insertion order, added with + one term at a time
    result = GradedPoly.zero(family, nvars)
    for exps, coeff in poly._terms.items():
        prod = GradedPoly.const(family, nvars, coeff)
        for i, e in enumerate(exps):
            if e:
                prod = prod * images[i] ** e
        result = result + prod
    return result


@PROPERTY
@given(derivation_cases())
def test_derivation_matches_sum_of_partials(case):
    p, _, images, nvars = case
    out = p.derivation(images, nvars)
    assert out.nvars == nvars
    assert out == derivation_by_sum(p, images, nvars)


@PROPERTY
@given(derivation_cases())
def test_derivation_leibniz_rule(case):
    p, q, images, nvars = case
    d = lambda poly: poly.derivation(images, nvars)  # noqa: E731
    assert d(p * q) == d(p) * q + p * d(q)
    assert d(p + q) == d(p) + d(q)


@PROPERTY
@given(polys(), st.integers(0, 5))
def test_partial_is_unit_derivation(p, position):
    index = position + p.family.first_index
    assert p.partial(index) == partial_by_terms(p, position)


@PROPERTY
@given(poly_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    zero = GradedPoly.zero(a.family)
    one = GradedPoly.const(a.family, 0, 1)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero
    assert a - a == zero and -(-a) == a
    assert a**2 == a * a


@PROPERTY
@given(polys())
def test_json_round_trip(p):
    blob = json.loads(p.to_json())
    assert blob["family"] == p.family.value
    assert [(tuple(t["exp"]), Fraction(int(t["num"]), int(t["den"]))) for t in blob["terms"]] == p.terms()


@PROPERTY
@given(polys(), st.integers(0, 3))
def test_with_nvars_padding(p, extra):
    wide = p.with_nvars(p.nvars + extra)
    assert wide.nvars == p.nvars + extra
    assert wide == p and hash(wide) == hash(p)
    assert wide.terms() == [(exps + (0,) * extra, c) for exps, c in p.terms()]
    assert wide.with_nvars(p.nvars).terms() == p.terms()
    # and in insertion order, the order a float evaluate sums in
    assert list(wide._terms.items()) == [(exps + (0,) * extra, c) for exps, c in p._terms.items()]
    assert list(wide.with_nvars(p.nvars)._terms.items()) == list(p._terms.items())
    trimmed = p.with_nvars(p.max_used_position() + 1)
    assert trimmed == p and trimmed.nvars == p.max_used_position() + 1
    if p.max_used_position() >= 0:
        with pytest.raises(ValueError):
            p.with_nvars(p.max_used_position())


@PROPERTY
@given(substitution_cases())
def test_substitute_matches_sum_of_products(case):
    # the same term list, in the same order, that float evaluation sums in
    p, images, family, nvars = case
    out = p.substitute(images, family, nvars)
    assert out.nvars == nvars
    assert list(out._terms.items()) == list(substitute_by_sum(p, images, family, nvars)._terms.items())


@PROPERTY
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32))
def test_decomposition_inverts_expansion(weight, nvars, seed):
    # expand_basis is a ring isomorphism, so the round trip pins the unique decomposition
    p = random_homogeneous(random.Random(seed), weight, nvars)
    dec = decompose_basis(p)
    assert expand_basis(dec.zpoly) == p
    assert dec.zpoly.nvars == max(p.max_used_position() + 1, 1)
    assert dec.uses_y1() == (not is_annihilated(p))


# -- the integer kernel against the Fraction loops it replaced ----------------
#
# The oracles below are the Fraction-coefficient loops of the kernel before its
# products moved to integers, copied as they were (the constructor's summing loop
# included), so each property pins the term order as well as the values.

fractional = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
# a few values over several denominators, so that sums cancel and terms come back
few = st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(1), Fraction(-1)])


@st.composite
def fractional_polys(draw, family, nvars):
    # exponents up to 2 so that products collide
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    return GradedPoly(family, nvars, draw(st.lists(st.tuples(exps, fractional | few), max_size=6)))


@st.composite
def fractional_pairs(draw):
    family = draw(st.sampled_from(list(VariableFamily)))
    return tuple(draw(fractional_polys(family, draw(st.integers(0, 4)))) for _ in range(2))


def _pad(exps, nvars):
    return exps + (0,) * (nvars - len(exps))


def sum_oracle(family, nvars, items):
    clean = {}
    for exps, coeff in items:
        exps = tuple(exps)
        c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        if exps in clean:
            c += clean[exps]
            if not c:
                del clean[exps]
                continue
        elif not c:
            continue
        clean[exps] = c
    return GradedPoly(family, nvars, clean)


def add_oracle(self, other):
    nvars = max(self.nvars, other.nvars)
    summands = [(_pad(exps, nvars), c) for poly in (self, other) for exps, c in poly._terms.items()]
    return sum_oracle(self.family, nvars, summands)


def mul_oracle(self, other):
    if isinstance(other, (int, Fraction)):
        c = Fraction(other)
        return sum_oracle(self.family, self.nvars, {e: k * c for e, k in self._terms.items()}.items())
    nvars = max(self.nvars, other.nvars)
    acc = {}
    for e1, c1 in self._terms.items():
        e1 = _pad(e1, nvars)
        for e2, c2 in other._terms.items():
            e2 = _pad(e2, nvars)
            key = tuple(a + b for a, b in zip(e1, e2))
            acc[key] = acc[key] + c1 * c2 if key in acc else c1 * c2
    return sum_oracle(self.family, nvars, acc.items())


def pow_oracle(self, exponent):
    result = GradedPoly.const(self.family, self.nvars, 1)
    base = self
    n = exponent
    while n:
        if n & 1:
            result = mul_oracle(result, base)
        base = mul_oracle(base, base) if n > 1 else base
        n >>= 1
    return result


def derivation_oracle(self, images, nvars):
    terms = [(_pad(exps, nvars)[:nvars], c) for exps, c in self._terms.items()]
    summands = []
    for i, image in enumerate(images[:nvars]):
        if image is None:
            continue
        lowered = [(exps[:i] + (exps[i] - 1,) + exps[i + 1 :], c * exps[i]) for exps, c in terms if exps[i]]
        part = {}
        for image_exps, image_c in image._terms.items():
            image_exps = _pad(image_exps, nvars)
            for exps, c in lowered:
                key = tuple(a + b for a, b in zip(exps, image_exps))
                part[key] = part[key] + c * image_c if key in part else c * image_c
        summands += part.items()
    return sum_oracle(self.family, nvars, summands)


def substitute_oracle(self, images, family, nvars):
    cache = {}
    summands = []
    for exps, coeff in self._terms.items():
        prod = GradedPoly.const(family, nvars, coeff)
        for i, e in enumerate(exps):
            if not e:
                continue
            key = (i, e)
            if key not in cache:
                image = images[i]
                wide = {_pad(x, nvars)[:nvars]: c for x, c in image._terms.items()}
                cache[key] = pow_oracle(GradedPoly(image.family, nvars, wide), e)
            prod = mul_oracle(prod, cache[key])
        summands += prod._terms.items()
    return sum_oracle(family, nvars, summands)


def assert_same_terms(out, oracle):
    assert out.family is oracle.family and out.nvars == oracle.nvars
    assert list(out._terms.items()) == list(oracle._terms.items())
    assert all(type(c) is Fraction for c in out._terms.values())


@PROPERTY
@given(fractional_pairs())
def test_fractional_product_matches_fraction_loop(pair):
    p, q = pair
    assert_same_terms(p * q, mul_oracle(p, q))
    assert_same_terms(p * p, mul_oracle(p, p))


@PROPERTY
@given(fractional_pairs(), st.just(0) | st.integers(-9, -1) | fractional)
def test_fractional_scalar_product_matches_fraction_loop(pair, scalar):
    p, _ = pair
    assert_same_terms(p * scalar, mul_oracle(p, scalar))
    assert_same_terms(scalar * p, mul_oracle(p, scalar))


@PROPERTY
@given(fractional_pairs())
def test_fractional_sum_matches_fraction_loop(pair):
    p, q = pair
    neg_q = GradedPoly(q.family, q.nvars, [(e, -c) for e, c in q._terms.items()])
    assert_same_terms(p + q, add_oracle(p, q))
    assert_same_terms(p - q, add_oracle(p, neg_q))
    # every term of q that p lacks cancels
    assert_same_terms((p + q) - q, add_oracle(p + q, neg_q))
    assert_same_terms(-q, neg_q)


@st.composite
def fractional_derivation_cases(draw):
    """(P, images, nvars) with one image per variable, most of them polynomials,
    so that images over different denominators meet in one sum."""
    family = draw(st.sampled_from(list(VariableFamily)))
    nvars = draw(st.integers(1, 4))
    p = draw(fractional_polys(family, draw(st.integers(max(nvars - 1, 0), nvars))))
    image = st.integers(0, nvars).flatmap(lambda m: fractional_polys(family, m))
    return p, draw(st.lists(st.none() | image | image, min_size=nvars, max_size=nvars + 1)), nvars


@st.composite
def euler_derivation_cases(draw):
    """(P, images, nvars) for a weighted Euler operator: image i is +-1/2 times
    variable i, and every term of P uses every variable, so each part adds to
    every term; a term's sum cancels in one part and comes back in a later one
    whenever two parts' weights e_i * (+-1/2) are opposite."""
    family = draw(st.sampled_from(list(VariableFamily)))
    nvars = draw(st.integers(3, 4))
    exps = st.tuples(*[st.integers(1, 2)] * nvars)
    p = GradedPoly(family, nvars, draw(st.lists(st.tuples(exps, fractional | few), min_size=2, max_size=6)))
    half = st.sampled_from([Fraction(1, 2), Fraction(-1, 2)])
    own = [tuple(int(k == i) for k in range(nvars)) for i in range(nvars)]
    return p, [GradedPoly(family, nvars, {own[i]: draw(half)}) for i in range(nvars)], nvars


@PROPERTY
@given(fractional_derivation_cases() | euler_derivation_cases())
def test_fractional_derivation_matches_fraction_loop(case):
    p, images, nvars = case
    assert_same_terms(p.derivation(images, nvars), derivation_oracle(p, images, nvars))


@st.composite
def fractional_substitution_cases(draw):
    # images from a pool of two, so that terms of the sum can cancel and come back
    size = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 2)] * size)
    terms = draw(st.lists(st.tuples(exps, fractional), max_size=8))
    p = GradedPoly(draw(st.sampled_from(list(VariableFamily))), size, terms)
    family, nvars = draw(st.sampled_from(list(VariableFamily))), draw(st.integers(0, 3))
    pool = draw(st.lists(fractional_polys(family, nvars), min_size=1, max_size=2))
    return p, [draw(st.sampled_from(pool)) for _ in range(size)], family, nvars


@PROPERTY
@given(fractional_substitution_cases())
def test_fractional_substitute_matches_fraction_loop(case):
    p, images, family, nvars = case
    assert_same_terms(p.substitute(images, family, nvars), substitute_oracle(p, images, family, nvars))



# -- powers: the square-and-multiply sequence of GradedPoly products ----------------------


def pow_by_products(poly, exponent):
    # square-and-multiply from the constant 1, one GradedPoly product per step
    result, base = GradedPoly.const(poly.family, poly.nvars, 1), poly
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base if exponent > 1 else base
        exponent >>= 1
    return result


def substitute_by_products(poly, images, family, nvars):
    # each image re-declared with with_nvars and raised by GradedPoly products, each term's
    # product of powers one GradedPoly product at a time, and all terms summed in one pass
    summands = []
    for exps, coeff in poly._terms.items():
        prod = GradedPoly.const(family, nvars, coeff)
        for i, e in enumerate(exps):
            if e:
                prod = prod * pow_by_products(images[i].with_nvars(nvars), e)
        summands += prod._terms.items()
    return GradedPoly(family, nvars, summands)


CANCELLING = GradedPoly(VariableFamily.X, 1, [((0,), Fraction(3, 2)), ((2,), -2), ((1,), -3)])


@st.composite
def power_cases(draw):
    """(P, images, family, nvars, exponent): P with exponents up to 5, so that its powers take
    several squares, and images from a pool of two over at most ``nvars`` slots."""
    size = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 5)] * size)
    p = GradedPoly(draw(st.sampled_from(list(VariableFamily))), size,
                   draw(st.lists(st.tuples(exps, fractional | few), max_size=4)))
    family, nvars = draw(st.sampled_from(list(VariableFamily))), draw(st.integers(0, 3))
    image = st.integers(0, nvars).flatmap(lambda m: fractional_polys(family, m))
    pool = draw(st.lists(image, min_size=1, max_size=2))
    return p, [draw(st.sampled_from(pool)) for _ in range(size)], family, nvars, draw(st.integers(0, 7))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(power_cases())
# a cancelling sum whose fifth power's term order depends on which factor of each product is outer
@example((CANCELLING, [CANCELLING], VariableFamily.X, 1, 5))
def test_powers_match_square_and_multiply_products(case):
    p, images, family, nvars, exponent = case
    assert_same_terms(p**exponent, pow_by_products(p, exponent))
    assert_same_terms(p.substitute(images, family, nvars), substitute_by_products(p, images, family, nvars))


# -- float rows: the float steps of evaluate, bit for bit ------------------------------

# zeros of both signs, subnormals, values whose squares or cubes overflow, and any float
float_values = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e-160, 1e155, -1e155, 1e300, -0.5, 3.0])
float_values |= st.floats()


def bits(values):
    """The IEEE bytes of each float: -0.0 and 0.0 differ, and a nan equals itself."""
    return [struct.pack("d", v) for v in values]


@st.composite
def float_row_cases(draw):
    """(polys, point): X- or Y-family polynomials whose exponent tuples come from a pool of
    at most four, so that terms cancel and the polynomials share powers, and a float point
    one slot longer than the ring or exactly as long."""
    family = draw(st.sampled_from(list(VariableFamily)))
    nvars = draw(st.integers(0, 4))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1, max_size=4))
    terms = st.lists(st.tuples(st.sampled_from(pool), fractional | few), max_size=6)
    polys = [GradedPoly(family, nvars, draw(terms)) for _ in range(draw(st.integers(0, 4)))]
    return polys, draw(st.lists(float_values, min_size=nvars, max_size=nvars + 1))


@PROPERTY
@given(float_row_cases())
def test_float_rows_match_evaluate_bit_for_bit(case):
    polys, point = case
    rows = float_rows(polys)
    try:
        expected = [float(p.evaluate(point)) for p in polys]
    except OverflowError:  # a power left the float range: both routes raise
        with pytest.raises(OverflowError):
            rows(point)
        return
    assert bits(rows(point)) == bits(expected)


def test_float_rows_raise_like_evaluate():
    x2, x3 = (GradedPoly.variable(VariableFamily.X, 2, i) for i in (2, 3))
    polys = [x2 + x3, x3 * x3 * x3 + GradedPoly.const(VariableFamily.X, 2, 1)]
    rows = float_rows(polys)
    with pytest.raises(ValueError, match="too short"):
        rows([1.0])
    with pytest.raises(ValueError, match="too short"):
        polys[0].evaluate([1.0])
    for route in (rows, lambda point: [float(p.evaluate(point)) for p in polys]):
        with pytest.raises(OverflowError):
            route([1.0, 1e150])
    # the sum starts from 0.0, so x2 + x3 at two negative zeros is 0.0, as in evaluate
    assert bits(rows([-0.0, -0.0])) == bits([float(p.evaluate([-0.0, -0.0])) for p in polys]) == bits([0.0, 1.0])


def test_float_rows_start_from_a_leading_constant():
    # evaluate adds a leading constant term as an exact Fraction, so a negative one that
    # rounds to -0.0 starts the sum, and -0.0 + -0.0 stays -0.0 (0.0 + -0.0 would not)
    poly = GradedPoly(VariableFamily.Y, 1, [((0,), Fraction(-1, 10**400)), ((1,), 1)])
    for point in ([-0.0], [2.0]):
        assert bits(float_rows([poly])(point)) == bits([float(poly.evaluate(point))])
    assert bits(float_rows([poly])([-0.0])) == bits([-0.0])
    assert float_rows([])([]) == []



# -- exact rows: the values of evaluate and the chain-rule slopes of partial ----------------

exact_values = st.integers(-4, 4) | fractional | st.sampled_from([0, Fraction(0), Fraction(-7, 3)])


@st.composite
def exact_row_cases(draw):
    """(polys, divisors, point, rates): polynomials of one family over mixed ring sizes, whose
    exponent tuples come from a pool of at most four cut to each ring, so that terms cancel and
    the polynomials share powers, with constant-only and zero polynomials among them; an exact
    point and rates of ints and ``Fraction``s, as long as the widest ring or one slot longer."""
    family = draw(st.sampled_from(list(VariableFamily)))
    nvars = draw(st.integers(0, 4))
    # tuples with every exponent nonzero give terms in several variables, whose slopes take the product rule
    exps = st.tuples(*[st.integers(0, 3)] * nvars) | st.tuples(*[st.integers(1, 3)] * nvars)
    pool = draw(st.lists(exps, min_size=1, max_size=4))

    def poly(size):
        kind = draw(st.sampled_from(["terms", "terms", "constant", "zero"]))
        if kind == "constant":
            return GradedPoly.const(family, size, draw(fractional | few))
        terms = [] if kind == "zero" else draw(st.lists(st.tuples(st.sampled_from(pool), fractional | few), max_size=6))
        return GradedPoly(family, size, [(e[:size], c) for e, c in terms])

    polys = [poly(draw(st.integers(0, nvars))) for _ in range(draw(st.integers(0, 4)))]
    divisors = draw(st.lists(st.integers(1, 720), min_size=len(polys), max_size=len(polys)))
    length = draw(st.integers(nvars, nvars + 1))
    point = draw(st.lists(exact_values, min_size=length, max_size=length))
    return polys, divisors, point, draw(st.lists(exact_values, min_size=length, max_size=length))


# terms of three degrees and one in two variables, at a point and rates with denominators
MIXED = GradedPoly(VariableFamily.X, 2, [((1, 1), Fraction(2, 5)), ((1, 0), -1), ((0, 0), Fraction(1, 3)), ((0, 2), 3)])


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(exact_row_cases())
@example(([MIXED, GradedPoly.const(VariableFamily.X, 1, 7), GradedPoly.zero(VariableFamily.X, 2)], [6, 1, 5],
          [Fraction(1, 2), Fraction(-2, 3)], [Fraction(3, 4), -1]))
def test_exact_rows_match_evaluate_and_partial(case):
    polys, divisors, point, rates = case
    rows = exact_rows(polys, divisors)
    values, slopes = rows(point, rates)
    assert values == rows(point)
    assert values == [(p * Fraction(1, d)).evaluate(point) for p, d in zip(polys, divisors)]
    partials = [[p.partial(p.family.first_index + k) for k in range(p.nvars)] for p in polys]
    assert slopes == [sum((g.evaluate(point) * r for g, r in zip(grad, rates)), Fraction(0)) / d
                      for grad, d in zip(partials, divisors)]
    assert all(type(v) is Fraction for v in values + slopes)
    needed = max((p.max_used_position() + 1 for p in polys), default=0)
    if needed:
        short = point[: needed - 1]
        with pytest.raises(ValueError, match="too short"):
            rows(short)
        with pytest.raises(ValueError, match="too short"):
            [p.evaluate(short) for p in polys]


def test_exact_rows_of_nothing():
    assert exact_rows([])([]) == []
    assert exact_rows([])([], []) == ([], [])
    zero = GradedPoly.zero(VariableFamily.X, 2)
    assert exact_rows([zero], [6])([Fraction(1, 2), 3], [1, 1]) == ([Fraction(0)], [Fraction(0)])


def test_exact_rows_name_bad_inputs():
    rows = exact_rows([GradedPoly.variable(VariableFamily.X, 2, 2) * GradedPoly.variable(VariableFamily.X, 2, 3)])
    with pytest.raises(ValueError, match=r"^rates of length 1 too short, need 2$"):
        rows([1, 2], [1])
    for args in (([0.5, Fraction(1)],), ([1, 2], [0.5, 1])):
        with pytest.raises(TypeError, match=r"^exact point expected, got float$"):
            rows(*args)
