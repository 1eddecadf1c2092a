"""Property tests for GradedPoly: ring axioms, JSON, padding, derivations,
substitutions, and the basis change that is two substitutions."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from heatansatz.grpoly import GradedPoly, VariableFamily  # noqa: E402
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
    q = GradedPoly.from_json(p.to_json())
    assert q == p and q.family is p.family
    assert q.terms() == p.with_nvars(q.nvars).terms()


@PROPERTY
@given(polys(), st.integers(0, 3))
def test_with_nvars_padding(p, extra):
    wide = p.with_nvars(p.nvars + extra)
    assert wide.nvars == p.nvars + extra
    assert wide == p and hash(wide) == hash(p)
    assert wide.terms() == [(exps + (0,) * extra, c) for exps, c in p.terms()]
    assert wide.with_nvars(p.nvars).terms() == p.terms()
    assert p.trimmed() == p and p.trimmed().nvars == p.max_used_position() + 1
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
    assert dec.zpoly.nvars == max(p.trimmed().nvars, 1)
    assert dec.uses_y1() == (not is_annihilated(p))
