"""Sparse exact-rational polynomials over graded variable families.

Everything symbolic in this package is a :class:`GradedPoly`: a sparse
multivariate polynomial with exact rational coefficients over one
of two variable families, each carrying a fixed grading (deg t = 2,
deg z = 1, variables of negative even degree).  Instances are immutable
and every operation returns a new polynomial in lowest terms.

A polynomial is stored in one integer working form (terms, den): exponent tuples mapped to
nonzero int numerators, in term order, over one positive denominator, in lowest terms
(gcd(den, *numerators) == 1), so the form is canonical.  Sums, differences, negation,
products, derivations, substitutions, linear combinations and a change of ring size all
run in it, and each result is stored as computed, after one ``gcd`` pass, so no step reads
its operands back from ``Fraction``s; no other module reads the storage.  ``Fraction``s
are made only at the public edge: ``terms()``, ``coefficient()``, the JSON and text forms
and exact ``evaluate``.

Floats enter only at evaluation: ``float_rows`` takes the float steps of ``evaluate`` at an all-float point,
bit for bit, with no ``Fraction`` dispatch per term.  Its exact twin ``exact_rows`` gives values and chain-rule
slopes at a rational point in one integer pass of dual numbers, with no symbolic partials.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Mapping, Sequence
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Union

Scalar = Union[int, Fraction]
Numeric = Union[int, float, Fraction]

#: A jet point: entry k (0-based) is the k-th derivative of the profile
#: function, i.e. the value bound to the jet variable y_{k+1}.
JetPoint = Sequence[Numeric]


class FamilyMismatchError(ValueError):
    """Polynomials over different variable families were combined."""


class NonHomogeneousError(ValueError):
    """Homogeneous input was required."""


class VariableFamily(Enum):
    """The graded variable families.

    ``Y``
        jet variables y1, y2, ... standing for the profile function and
        its time derivatives; deg yk = -2k.
    ``X``
        ansatz parameters x2, x3, ...; deg xk = -2k (indices start at 2).
    """

    Y = "Y"
    X = "X"

    @property
    def first_index(self) -> int:
        return 2 if self is VariableFamily.X else 1

    def weight(self, position: int) -> int:
        """Positive weight of the variable at 0-based ``position``.

        The graded degree of the variable is the negative of this.
        """
        if self is VariableFamily.Y:
            return 2 * (position + 1)
        return 2 * (position + 2)

    def var_name(self, position: int) -> str:
        return f"{self.value.lower()}{position + self.first_index}"


def _exact(value: Scalar) -> Scalar:
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


def _summed(items: Iterable[tuple[tuple[int, ...], Scalar]]) -> dict:
    """The one summing loop: terms are added one at a time in the order given,
    a key whose sum cancels is dropped, and a later term that brings it back is
    appended again.  Coefficients are all exact numbers (ints and ``Fraction``s), or all
    integer numerators over one common denominator, whose sums vanish exactly where
    the ``Fraction`` sums would."""
    out: dict = {}
    for exps, c in items:
        if exps in out:
            c += out[exps]
            if not c:
                del out[exps]
                continue
        elif not c:
            continue
        out[exps] = c
    return out


def _numerators(poly: "GradedPoly", nvars: int) -> tuple[dict[tuple[int, ...], int], int]:
    """The stored working form of ``poly`` (shared: read, never change it), exponents padded or cut to ``nvars``."""
    if nvars == poly.nvars:
        return poly._nums, poly._den
    pad = (0,) * (nvars - poly.nvars)
    return {(e + pad)[:nvars]: n for e, n in poly._nums.items()}, poly._den


def _product(left, right) -> dict[tuple[int, ...], int]:
    """The integer product loop: n1 * n2 summed at e1 + e2 over the (exponents, numerator)
    terms of ``left`` (outer) and ``right`` (inner), keys in first-seen order; a key whose
    sum cancels stays, at 0."""
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for e1, n1 in left:
        for e2, n2 in right:
            key = tuple(map(add, e1, e2))
            acc[key] = get(key, 0) + n1 * n2
    return acc


def _times(left, right):
    """The working form of the product of two working forms, ``left`` in the outer loop."""
    acc = _product(left[0].items(), right[0].items())
    return {e: n for e, n in acc.items() if n}, left[1] * right[1]


def _power(work, exponent: int, nvars: int):
    """``work`` (over ``nvars`` slots) to the power ``exponent`` by square-and-multiply from 1, the result outer."""
    result = ({(0,) * nvars: 1}, 1)
    while exponent:
        if exponent & 1:
            result = _times(result, work)
        work = _times(work, work) if exponent > 1 else work
        exponent >>= 1
    return result


def _combination(pairs: Iterable[tuple[Scalar, tuple]]):
    """The working form of sum s * w over the (scalar s, working form w) ``pairs``: one ``_summed`` pass
    over the lcm of the denominators, in the order given, then one ``gcd`` pass to lowest terms."""
    pairs = [(s.numerator, s.denominator * den, terms) for s, (terms, den) in pairs]
    den = lcm(*(d for _, d, _ in pairs))
    scaled = [(p * (den // d), part) for p, d, part in pairs]
    terms = _summed((e, n * m) for m, part in scaled for e, n in part.items())
    g = gcd(den, *terms.values())
    return ({e: n // g for e, n in terms.items()}, den // g) if g > 1 else (terms, den)


def _derived(work, images):
    """The working form of sum_i images_i * dP/dv_i over the (i, working form of images_i) pairs: one
    ``_product`` per image (image outer), P's terms lowered at i over the lcm of the images' denominators."""
    terms, den = work
    image_den = lcm(*(d for _, (_, d) in images))
    summands: list[tuple[tuple[int, ...], int]] = []
    for i, (image_terms, own_den) in images:
        scale = image_den // own_den
        lowered = [(e[:i] + (e[i] - 1,) + e[i + 1 :], n * e[i] * scale) for e, n in terms.items() if e[i]]
        summands += _product(image_terms.items(), lowered).items()
    return _summed(summands), den * image_den


class GradedPoly:
    """Immutable sparse polynomial over one graded variable family.

    Terms map exponent tuples (one slot per declared variable) to nonzero int numerators over one
    positive denominator, in lowest terms (the working form, stored as ``_nums`` and ``_den``;
    ``_terms`` is a read-only ``Fraction`` view of it).  Binary operations require equal families;
    differing variable counts are reconciled by zero padding, and
    equality/hashing ignore trailing unused variables.

    Terms are summed by one loop, ``_summed``, one at a time in the order
    given: a key whose sum cancels is dropped, and a later term that brings
    it back is appended again.  The constructor, ``+``, ``-``, :meth:`derivation`
    and :meth:`substitute` all sum through it, so each keeps the term order
    of the sum built term by term, which is the order a float ``evaluate``
    adds in.  The constructor checks outside input and converts its
    coefficients to the working form once; every result computed here is
    stored from the working form by :meth:`_from_numerators`, without those checks.
    """

    __slots__ = ("family", "nvars", "_nums", "_den")

    def __init__(
        self,
        family: VariableFamily,
        nvars: int,
        terms: Union[Mapping[tuple[int, ...], Scalar], Iterable[tuple[tuple[int, ...], Scalar]]] = (),
    ) -> None:
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        summed = _summed(self._checked(nvars, items))
        den = lcm(*[c.denominator for c in summed.values()])  # over the lcm of reduced denominators: lowest terms
        self._set(family, nvars, {e: c.numerator * (den // c.denominator) for e, c in summed.items()}, den)

    @staticmethod
    def _checked(nvars: int, items) -> Iterable[tuple[tuple[int, ...], Scalar]]:
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not match {nvars} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            yield exps, _exact(coeff)

    def _set(self, family: VariableFamily, nvars: int, nums: dict[tuple[int, ...], int], den: int) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _from_numerators(cls, family: VariableFamily, nvars: int, work: tuple) -> "GradedPoly":
        """Store a working form over ``nvars`` slots in lowest terms after one ``gcd`` pass (one in them, uncopied)."""
        terms, den = work
        g = gcd(den, *terms.values())
        poly = object.__new__(cls)
        poly._set(family, nvars, {e: n // g for e, n in terms.items()} if g > 1 else terms, den // g)
        return poly

    @property
    def _terms(self) -> dict[tuple[int, ...], Fraction]:
        """The terms as ``Fraction``s, in insertion order: a view made at each read, not stored."""
        return {e: Fraction(n, self._den) for e, n in self._nums.items()}

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("GradedPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, family: VariableFamily, nvars: int = 0) -> "GradedPoly":
        return cls(family, nvars)

    @classmethod
    def const(cls, family: VariableFamily, nvars: int, value: Scalar) -> "GradedPoly":
        return cls(family, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, family: VariableFamily, nvars: int, index: int) -> "GradedPoly":
        """The single variable with the given family index (y_k or x_k)."""
        position = index - family.first_index
        if not 0 <= position < nvars:
            raise ValueError(f"variable index {index} outside the declared ring")
        exps = tuple(1 if i == position else 0 for i in range(nvars))
        return cls(family, nvars, {exps: 1})

    # -- term access -------------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical graded-lexicographic order (ascending): by weight, then by the reversed exponents."""
        weights = [self.family.weight(i) for i in range(self.nvars)]
        return sorted(self._terms.items(), key=lambda item: (sum(map(mul, weights, item[0])), item[0][::-1]))

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        """The coefficient of the monomial ``exps``; as in equality, trailing unused slots do not matter."""
        exps = tuple(exps)
        n = 0 if any(exps[self.nvars :]) else self._nums.get(exps[: self.nvars] + (0,) * (self.nvars - len(exps)), 0)
        return Fraction(n, self._den)

    def max_used_position(self) -> int:
        """Highest variable position occurring with nonzero exponent, -1 if none."""
        best = -1
        for exps in self._nums:
            for i in range(len(exps) - 1, best, -1):
                if exps[i]:
                    best = max(best, i)
                    break
        return best

    # -- ring structure ----------------------------------------------------

    def _check_family(self, other: "GradedPoly") -> None:
        if self.family is not other.family:
            raise FamilyMismatchError(f"cannot combine {self.family.value} with {other.family.value}")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self._plus(other, -1)

    def _plus(self, other: "GradedPoly", sign: int) -> "GradedPoly":
        """self + sign * other: the terms of self, then those of ``other``, summed in one pass."""
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check_family(other)
        nvars = max(self.nvars, other.nvars)
        work = _combination([(1, _numerators(self, nvars)), (sign, _numerators(other, nvars))])
        return GradedPoly._from_numerators(self.family, nvars, work)

    def __neg__(self) -> "GradedPoly":
        return self * -1

    def __mul__(self, other: Union["GradedPoly", Scalar]) -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            work = _combination([(other, _numerators(self, self.nvars))])
            return GradedPoly._from_numerators(self.family, self.nvars, work)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check_family(other)
        nvars = max(self.nvars, other.nvars)
        work = _times(_numerators(self, nvars), _numerators(other, nvars))
        return GradedPoly._from_numerators(self.family, nvars, work)

    def __rmul__(self, other: Scalar) -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "GradedPoly":
        """Square-and-multiply in the working form (``_power``, which ``substitute`` shares), stored once."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        work = _power(_numerators(self, self.nvars), exponent, self.nvars)
        return GradedPoly._from_numerators(self.family, self.nvars, work)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if self.family is not other.family:
            return False
        return self._den == other._den and self._trimmed_items() == other._trimmed_items()  # the form is canonical

    def _trimmed_items(self) -> frozenset:
        out = []
        for exps, num in self._nums.items():
            n = len(exps)
            while n and exps[n - 1] == 0:
                n -= 1
            out.append((exps[:n], num))
        return frozenset(out)

    def __hash__(self) -> int:
        return hash((self.family, self._den, self._trimmed_items()))

    # -- calculus ----------------------------------------------------------

    def partial(self, index: int) -> "GradedPoly":
        """Formal partial derivative by the variable with family ``index``.

        Differentiating by a variable outside the declared ring yields 0.
        """
        position = index - self.family.first_index
        if position < 0:
            raise ValueError(f"variable index {index} not valid for family {self.family.value}")
        if position >= self.nvars:
            return GradedPoly.zero(self.family, self.nvars)
        one = GradedPoly.const(self.family, self.nvars, 1)
        return self.derivation([None] * position + [one], self.nvars)

    def derivation(self, images: Sequence[Union["GradedPoly", None]], nvars: int) -> "GradedPoly":
        """sum_i images[i] * dP/dv_i over a ring of ``nvars`` variables.

        An image of None, or a position past the end of ``images``, is not
        differentiated; the others must be of P's family and fit in ``nvars``
        variables.  One pass over the terms of P and of each image, and one
        summing of the products image_i * dP/dv_i, all in integers: P over its
        common denominator and the images over the lcm of theirs.
        """
        if self.max_used_position() >= nvars:
            raise ValueError(f"polynomial does not fit in {nvars} variables")
        used = []
        for i, image in enumerate(images[:nvars]):
            if image is None:
                continue
            self._check_family(image)
            if image.max_used_position() >= nvars:
                raise ValueError(f"derivation image {image.to_text()} does not fit in {nvars} variables")
            used.append((i, _numerators(image, nvars)))
        return GradedPoly._from_numerators(self.family, nvars, _derived(_numerators(self, nvars), used))

    def degree(self) -> Union[int, None]:
        """Common graded degree of all monomials, or None if non-homogeneous.

        The zero polynomial reports None but still counts as homogeneous.
        """
        degs = {-sum(self.family.weight(i) * e for i, e in enumerate(exps)) for exps in self._nums}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        return not self._nums or self.degree() is not None

    def evaluate(self, values: Sequence[Numeric]) -> Numeric:
        """Evaluate at the given per-position values (exact in, exact out)."""
        needed = self.max_used_position() + 1
        if len(values) < needed:
            raise ValueError(f"point of length {len(values)} too short, need {needed}")
        total: Numeric = Fraction(0)
        for exps, coeff in self._terms.items():
            term: Numeric = coeff
            for i, e in enumerate(exps):
                if e:
                    term = term * values[i] ** e
            total = total + term
        return total

    def float_source(self, names: Sequence[str]) -> str:
        """Source of ``evaluate`` on floats bound to ``names``, float step for float step:
        terms in insertion order, each ``float(coeff)`` times ``name ** e`` left to right,
        summed from ``0.0``, less the exact steps ``1.0 *`` and ``** 1``; float(coeff) is n / _den correctly rounded."""
        terms = ["0.0"]
        for exps, n in self._nums.items():
            factors = [] if n == self._den else [repr(n / self._den)]
            factors += [names[i] if e == 1 else f"{names[i]} ** {e}" for i, e in enumerate(exps) if e]
            terms.append(" * ".join(factors) or "1.0")
        return "(" + " + ".join(terms) + ")"

    def substitute(
        self,
        images: Sequence[Union["GradedPoly", None]],
        family: VariableFamily,
        nvars: int,
    ) -> "GradedPoly":
        """Replace the variable at position i by ``images[i]``, expanding.

        The target ring is given explicitly; every image is re-declared to
        it, so an image that uses a position outside it raises ValueError.
        A position with image None must not occur in any term.  Each image
        power is raised in the working form as ``__pow__`` raises it, so no power is
        stored; the products and their one sum run in integers.
        """
        cache: dict[tuple[int, int], tuple] = {}
        products = []
        for exps, num in self._nums.items():
            prod = ({(0,) * nvars: num}, self._den)
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i >= len(images) or images[i] is None:
                    raise ValueError(f"no substitution image for position {i}")
                key = (i, e)
                if key not in cache:
                    if images[i].family is not family:
                        raise FamilyMismatchError(f"cannot combine {family.value} with {images[i].family.value}")
                    if images[i].max_used_position() >= nvars:
                        raise ValueError("cannot drop a variable that is in use")
                    cache[key] = _power(_numerators(images[i], nvars), e, nvars)
                prod = _times(prod, cache[key])
            products.append((1, prod))
        return GradedPoly._from_numerators(family, nvars, _combination(products))

    def with_nvars(self, nvars: int) -> "GradedPoly":
        """Re-declare the ring size, padding with (or dropping) unused slots."""
        if nvars == self.nvars:
            return self
        if nvars < self.max_used_position() + 1:
            raise ValueError("cannot drop a variable that is in use")
        return GradedPoly._from_numerators(self.family, nvars, _numerators(self, nvars))

    # -- serialization and display ------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.value,
            "terms": [
                {"exp": list(exps), "num": str(c.numerator), "den": str(c.denominator)}
                for exps, c in self.terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(", ", ": "))

    def to_text(self, names=None) -> str:
        """Canonical human-readable form, leading term first.

        ``names`` may override the per-position variable names (used for
        printing polynomials in basis symbols).
        """
        if not self._nums:
            return "0"
        name = names if names is not None else self.family.var_name
        labels = [name(i) for i in range(self.nvars)]
        pieces: list[str] = []
        for exps, coeff in reversed(self.terms()):  # the keys are distinct, so this is the descending sort
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(labels[i])
                elif e > 1:
                    factors.append(f"{labels[i]}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not pieces:
                pieces.append(("-" if coeff < 0 else "") + body)
            else:
                pieces.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"GradedPoly({self.family.value}[{self.nvars}]: {self.to_text()})"


def float_rows(polys: Sequence[GradedPoly], divisors: Sequence[int] = ()) -> Callable[[Sequence[float]], list[float]]:
    """A callable that evaluates each p / d, for the polynomials p of ``polys`` and their int
    ``divisors`` d (default 1), at one all-float point, bit-identical to
    ``float((p * Fraction(1, d)).evaluate(point))``: each stored numerator n over p's denominator
    den is read once, as the correctly rounded int division ``n / (den * d)``, the float of c / d for
    the coefficient c = n / den, and each exponent tuple as indices into one shared power list; at a point each power
    ``x_i ** e`` is computed once, each term is ``float(c / d) * pw[j] * ...`` left to right, and
    the terms are summed from 0.0 in insertion order (a constant first term starts the sum, as its
    exact value does in ``evaluate``)."""
    powers: dict[tuple[int, int], int] = {}
    rows = []
    for poly, d in zip(polys, divisors or [1] * len(polys), strict=True):
        terms = [(n / (poly._den * d), tuple(powers.setdefault((i, e), len(powers)) for i, e in enumerate(exps) if e))
                 for exps, n in poly._nums.items()]
        rows.append((terms.pop(0)[0] if terms and not terms[0][1] else 0.0, terms))
    needed = max((i + 1 for i, _ in powers), default=0)

    def at(point: Sequence[float]) -> list[float]:
        if len(point) < needed:
            raise ValueError(f"point of length {len(point)} too short, need {needed}")
        pw = [point[i] ** e for i, e in powers]
        out = []
        for total, terms in rows:
            for term, factors in terms:
                for j in factors:
                    term *= pw[j]
                total += term
            out.append(total)
        return out

    return at


def exact_rows(polys: Sequence[GradedPoly], divisors: Sequence[int] = ()) -> Callable:
    """The exact twin of ``float_rows``: ``at(point, rates=None)`` gives each p / d at a point of ints and
    ``Fraction``s, equal to ``(p * Fraction(1, d)).evaluate(point)``, and given ``rates`` r the pair (values, slopes),
    the slopes sum_k dp/dx_k * r_k / d.  Each p is read once into the working form.  The point goes over its lcm D as
    ints a_i, the rates over theirs, R, as ints b_i; a power a_i^e and its rate e a_i^(e-1) b_i D are one dual number,
    a term's value and rate one dual-number product, and lifted by D^(top - |e|) the terms of a row sum in ints.
    A short point or short rates raise ValueError; a coordinate or rate not an int or ``Fraction``, TypeError."""
    powers: dict[tuple[int, int], int] = {}
    rows = []
    for poly, d in zip(polys, divisors or [1] * len(polys), strict=True):
        terms, den = _numerators(poly, poly.nvars)
        top = max(map(sum, terms), default=0)
        rows.append((den * d, top, [(n, top - sum(e), [powers.setdefault(p, len(powers)) for p in enumerate(e) if p[1]])
                                    for e, n in terms.items()]))
    needed = max((i + 1 for i, _ in powers), default=0)

    def at(point: Sequence[Scalar], rates: Union[Sequence[Scalar], None] = None):
        if len(point) < needed:
            raise ValueError(f"point of length {len(point)} too short, need {needed}")
        if rates is not None and len(rates) < needed:
            raise ValueError(f"rates of length {len(rates)} too short, need {needed}")
        coords, rs = point[:needed], [0] * needed if rates is None else rates[:needed]
        if inexact := [v for v in (*coords, *rs) if not isinstance(v, (int, Fraction))]:
            raise TypeError(f"exact point expected, got {type(inexact[0]).__name__}")
        D, R = lcm(*(v.denominator for v in coords)), lcm(*(r.denominator for r in rs))
        a = [v.numerator * (D // v.denominator) for v in coords]
        b = [r.numerator * (R // r.denominator) * D for r in rs]
        pw = [(a[i] ** e, e * a[i] ** (e - 1) * b[i]) for i, e in powers]
        lifts = [D**k for k in range(max((top for _, top, _ in rows), default=0) + 1)]
        values, slopes = [], []
        for den, top, terms in rows:
            value = slope = 0
            for n, lift, factors in terms:
                v, s = n * lifts[lift], 0
                for j in factors:
                    pv, ps = pw[j]
                    v, s = v * pv, s * pv + v * ps
                value, slope = value + v, slope + s
            values.append(Fraction(value, den * lifts[top]))
            slopes.append(Fraction(slope, den * lifts[top] * R))
        return values if rates is None else (values, slopes)

    return at
