"""Sparse exact-rational polynomials over graded variable families.

Everything symbolic in this package is a :class:`GradedPoly`: a sparse
multivariate polynomial with ``fractions.Fraction`` coefficients over one
of two variable families, each carrying a fixed grading (deg t = 2,
deg z = 1, variables of negative even degree).  Instances are immutable
and every operation returns a new polynomial in lowest terms.

Products, derivations, substitutions and linear combinations run in one integer
working form (terms, den): exponent tuples mapped to nonzero int numerators, in
term order, over one positive common denominator.  Each operand is read into it
once, and a recursion (the Phi and jet tables, the Cole-Hopf image) keeps its
entries in it, so each stored entry becomes ``Fraction``s once.  Storage stays
``Fraction``: ints would halve the GC-tracked objects per term, and with them
how often the cyclic collector runs, so a process that keeps dropping reference
cycles (a benchmark re-importing the package) would hold more of them at its peak.

Floats enter only at evaluation: ``float_rows`` evaluates polynomials at an
all-float point with the float steps of ``evaluate``, bit for bit, without
``Fraction`` dispatch per term.
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


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


def _summed(items: Iterable[tuple[tuple[int, ...], Scalar]]) -> dict:
    """The one summing loop: terms are added one at a time in the order given,
    a key whose sum cancels is dropped, and a later term that brings it back is
    appended again.  Coefficients are all ``Fraction``s, or all integer
    numerators over one common denominator, whose sums vanish exactly where
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
    """The working form of ``poly``, its terms in insertion order with the exponents padded or
    cut to ``nvars`` slots, over the lcm of its denominators."""
    den = lcm(*[c.denominator for c in poly._terms.values()])
    pad = (0,) * (nvars - poly.nvars)
    return {(e + pad)[:nvars]: c.numerator * (den // c.denominator) for e, c in poly._terms.items()}, den


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

    Terms map exponent tuples (one slot per declared variable) to nonzero
    rational coefficients.  Binary operations require equal families;
    differing variable counts are reconciled by zero padding, and
    equality/hashing ignore trailing unused variables.

    Terms are summed by one loop, ``_summed``, one at a time in the order
    given: a key whose sum cancels is dropped, and a later term that brings
    it back is appended again.  The constructor, ``+``, :meth:`derivation`
    and :meth:`substitute` all sum through it, so each keeps the term order
    of the sum built term by term, which is the order a float ``evaluate``
    adds in.  Results built inside the class skip the checks on outside
    input (:meth:`_trusted` for ``Fraction`` terms, and
    :meth:`_from_numerators` for the integer working form).
    """

    __slots__ = ("family", "nvars", "_terms")

    def __init__(
        self,
        family: VariableFamily,
        nvars: int,
        terms: Union[Mapping[tuple[int, ...], Scalar], Iterable[tuple[tuple[int, ...], Scalar]]] = (),
    ) -> None:
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._set(family, nvars, _summed(self._checked(nvars, items)))

    @staticmethod
    def _checked(nvars: int, items) -> Iterable[tuple[tuple[int, ...], Fraction]]:
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not match {nvars} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            yield exps, _as_fraction(coeff)

    def _set(self, family: VariableFamily, nvars: int, terms: dict[tuple[int, ...], Fraction]) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", terms)

    @classmethod
    def _trusted(
        cls, family: VariableFamily, nvars: int, items: Iterable[tuple[tuple[int, ...], Fraction]]
    ) -> "GradedPoly":
        """Sum ``Fraction`` terms whose exponent tuples already have ``nvars``
        nonnegative slots, without the constructor's checks."""
        poly = object.__new__(cls)
        poly._set(family, nvars, _summed(items))
        return poly

    @classmethod
    def _from_numerators(cls, family: VariableFamily, nvars: int, work: tuple) -> "GradedPoly":
        """Store a working form over ``nvars`` slots, each term as one ``Fraction``."""
        terms, den = work
        poly = object.__new__(cls)
        poly._set(family, nvars, {e: Fraction(n, den) for e, n in terms.items()})
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("GradedPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, family: VariableFamily, nvars: int = 0) -> "GradedPoly":
        return cls(family, nvars)

    @classmethod
    def const(cls, family: VariableFamily, nvars: int, value: Scalar) -> "GradedPoly":
        return cls(family, nvars, {(0,) * nvars: _as_fraction(value)})

    @classmethod
    def variable(cls, family: VariableFamily, nvars: int, index: int) -> "GradedPoly":
        """The single variable with the given family index (y_k or x_k)."""
        position = index - family.first_index
        if not 0 <= position < nvars:
            raise ValueError(f"variable index {index} outside the declared ring")
        exps = tuple(1 if i == position else 0 for i in range(nvars))
        return cls(family, nvars, {exps: Fraction(1)})

    # -- term access -------------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical graded-lexicographic order (ascending): by weight, then by the reversed exponents."""
        weights = [self.family.weight(i) for i in range(self.nvars)]
        return sorted(self._terms.items(), key=lambda item: (sum(map(mul, weights, item[0])), item[0][::-1]))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def max_used_position(self) -> int:
        """Highest variable position occurring with nonzero exponent, -1 if none."""
        best = -1
        for exps in self._terms:
            for i in range(len(exps) - 1, best, -1):
                if exps[i]:
                    best = max(best, i)
                    break
        return best

    # -- ring structure ----------------------------------------------------

    def _check_family(self, other: "GradedPoly") -> None:
        if self.family is not other.family:
            raise FamilyMismatchError(f"cannot combine {self.family.value} with {other.family.value}")

    @staticmethod
    def _pad(exps: tuple[int, ...], nvars: int) -> tuple[int, ...]:
        return exps + (0,) * (nvars - len(exps))

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        return self._sum(other, other._terms.items()) if isinstance(other, GradedPoly) else NotImplemented

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self._sum(other, [(exps, -c) for exps, c in other._terms.items()])

    def _sum(self, other: "GradedPoly", other_terms) -> "GradedPoly":
        """The terms of self, then ``other_terms`` (of ``other``), summed in one pass."""
        self._check_family(other)
        nvars = max(self.nvars, other.nvars)
        summands = [(self._pad(exps, nvars), c) for terms in (self._terms.items(), other_terms) for exps, c in terms]
        return GradedPoly._trusted(self.family, nvars, summands)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly._trusted(self.family, self.nvars, [(e, -c) for e, c in self._terms.items()])

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
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = GradedPoly.const(self.family, self.nvars, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if self.family is not other.family:
            return False
        return self._trimmed_items() == other._trimmed_items()

    def _trimmed_items(self) -> frozenset:
        out = []
        for exps, coeff in self._terms.items():
            n = len(exps)
            while n and exps[n - 1] == 0:
                n -= 1
            out.append((exps[:n], coeff))
        return frozenset(out)

    def __hash__(self) -> int:
        return hash((self.family, self._trimmed_items()))

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
        differentiated.  One pass over the terms of P and of each image, and
        one summing of the products image_i * dP/dv_i, all in integers: P over
        its common denominator and the images over the lcm of theirs.
        """
        if self.max_used_position() >= nvars:
            raise ValueError(f"polynomial does not fit in {nvars} variables")
        work = _derived(_numerators(self, nvars), self._derivation_images(images, nvars))
        return GradedPoly._from_numerators(self.family, nvars, work)

    def _derivation_images(self, images: Sequence[Union["GradedPoly", None]], nvars: int) -> list:
        """The (position, working form) pairs of the images that are not None among the first
        ``nvars``, each checked to be of this family and to fit in ``nvars`` variables."""
        used = []
        for i, image in enumerate(images[:nvars]):
            if image is None:
                continue
            self._check_family(image)
            if image.max_used_position() >= nvars:
                raise ValueError(f"derivation image {image.to_text()} does not fit in {nvars} variables")
            used.append((i, _numerators(image, nvars)))
        return used

    def degree(self) -> Union[int, None]:
        """Common graded degree of all monomials, or None if non-homogeneous.

        The zero polynomial reports None but still counts as homogeneous.
        """
        degs = {-sum(self.family.weight(i) * e for i, e in enumerate(exps)) for exps in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        if not self._terms:
            return True
        return self.degree() is not None

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
        summed from ``0.0``, less the exact steps ``1.0 *`` and ``** 1``."""
        terms = ["0.0"]
        for exps, coeff in self._terms.items():
            factors = [] if coeff == 1 else [repr(float(coeff))]
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
        power is read once; the products and their one sum run in integers.
        """
        cache: dict[tuple[int, int], tuple] = {}
        products = []
        for exps, coeff in self._terms.items():
            prod = ({(0,) * nvars: coeff.numerator}, coeff.denominator)
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i >= len(images) or images[i] is None:
                    raise ValueError(f"no substitution image for position {i}")
                key = (i, e)
                if key not in cache:
                    if images[i].family is not family:
                        raise FamilyMismatchError(f"cannot combine {family.value} with {images[i].family.value}")
                    cache[key] = _numerators(images[i].with_nvars(nvars) ** e, nvars)
                prod = _times(prod, cache[key])
            products.append((1, prod))
        return GradedPoly._from_numerators(family, nvars, _combination(products))

    def with_nvars(self, nvars: int) -> "GradedPoly":
        """Re-declare the ring size, padding with (or dropping) unused slots."""
        if nvars == self.nvars:
            return self
        if nvars < self.max_used_position() + 1:
            raise ValueError("cannot drop a variable that is in use")
        terms = [(self._pad(exps, nvars)[:nvars], c) for exps, c in self._terms.items()]
        return GradedPoly._trusted(self.family, nvars, terms)

    def trimmed(self) -> "GradedPoly":
        return self.with_nvars(self.max_used_position() + 1)

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

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GradedPoly":
        family = VariableFamily(data["family"])
        entries = data["terms"]
        nvars = max((len(t["exp"]) for t in entries), default=0)
        terms = {}
        for t in entries:
            exps = tuple(t["exp"])
            if len(exps) != nvars:
                raise ValueError("ragged exponent tuples")
            terms[exps] = Fraction(int(t["num"]), int(t["den"]))
        return cls(family, nvars, terms)

    @classmethod
    def from_json(cls, text: str) -> "GradedPoly":
        return cls.from_json_dict(json.loads(text))

    def to_text(self, names=None) -> str:
        """Canonical human-readable form, leading term first.

        ``names`` may override the per-position variable names (used for
        printing polynomials in basis symbols).
        """
        if not self._terms:
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


def float_rows(polys: Sequence[GradedPoly]) -> Callable[[Sequence[float]], list[float]]:
    """A callable that evaluates every polynomial of ``polys`` at one all-float point,
    bit-identical to ``[float(p.evaluate(point)) for p in polys]``: each coefficient is read
    once as ``float(c)`` and each exponent tuple as indices into one shared power list; at a
    point each power ``x_i ** e`` is computed once, each term is ``float(c) * pw[j] * ...``
    left to right, and the terms are summed from 0.0 in insertion order (a constant first
    term starts the sum, as its exact value does in ``evaluate``)."""
    powers: dict[tuple[int, int], int] = {}
    rows = []
    for poly in polys:
        terms = [(float(c), tuple(powers.setdefault((i, e), len(powers)) for i, e in enumerate(exps) if e))
                 for exps, c in poly._terms.items()]
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
