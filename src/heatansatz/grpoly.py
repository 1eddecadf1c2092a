"""Sparse exact-rational polynomials over graded variable families.

Everything symbolic in this package is a :class:`GradedPoly`: a sparse
multivariate polynomial with ``fractions.Fraction`` coefficients over one
of two variable families, each carrying a fixed grading (deg t = 2,
deg z = 1, variables of negative even degree).  Instances are immutable
and every operation returns a new polynomial in lowest terms.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

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


class GradedPoly:
    """Immutable sparse polynomial over one graded variable family.

    Terms map exponent tuples (one slot per declared variable) to nonzero
    rational coefficients.  Binary operations require equal families;
    differing variable counts are reconciled by zero padding, and
    equality/hashing ignore trailing unused variables.
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
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "nvars", nvars)
        clean: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not match {nvars} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _as_fraction(coeff)
            if c:
                acc = clean.get(exps, Fraction(0)) + c
                if acc:
                    clean[exps] = acc
                else:
                    clean.pop(exps, None)
        object.__setattr__(self, "_terms", clean)

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

    def _key(self, exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        w = sum(self.family.weight(i) * e for i, e in enumerate(exps))
        return (w, tuple(reversed(exps)))

    def terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical graded-lexicographic order (ascending)."""
        return sorted(self._terms.items(), key=lambda item: self._key(item[0]))

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """The graded-lex largest term (highest jet index dominates)."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self._terms, key=self._key)
        return exps, self._terms[exps]

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
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check_family(other)
        nvars = max(self.nvars, other.nvars)
        acc: dict[tuple[int, ...], Fraction] = {}
        for poly in (self, other):
            for exps, coeff in poly._terms.items():
                key = self._pad(exps, nvars)
                acc[key] = acc.get(key, Fraction(0)) + coeff
        return GradedPoly(self.family, nvars, acc)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly(self.family, self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["GradedPoly", Scalar]) -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return GradedPoly(self.family, self.nvars, {e: k * c for e, k in self._terms.items()})
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check_family(other)
        nvars = max(self.nvars, other.nvars)
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self._terms.items():
            e1 = self._pad(e1, nvars)
            for e2, c2 in other._terms.items():
                e2 = self._pad(e2, nvars)
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return GradedPoly(self.family, nvars, acc)

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
        differentiated.  One pass over the terms of P and of each image,
        and one constructor call.  The terms come out in the order of the
        same sum built with ``*`` and ``+`` (a term that cancels leaves
        it), which fixes the order in which a float ``evaluate`` adds them.
        """
        if self.max_used_position() >= nvars:
            raise ValueError(f"polynomial does not fit in {nvars} variables")
        terms = [(self._pad(exps, nvars)[:nvars], c) for exps, c in self._terms.items()]
        acc: dict[tuple[int, ...], Fraction] = {}
        for i, image in enumerate(images[:nvars]):
            if image is None:
                continue
            self._check_family(image)
            if image.max_used_position() >= nvars:
                raise ValueError(f"derivation image {image.to_text()} does not fit in {nvars} variables")
            lowered = [(exps[:i] + (exps[i] - 1,) + exps[i + 1 :], c * exps[i]) for exps, c in terms if exps[i]]
            part: dict[tuple[int, ...], Fraction] = {}
            for image_exps, image_c in image._terms.items():
                image_exps = self._pad(image_exps, nvars)
                for exps, c in lowered:
                    key = tuple(a + b for a, b in zip(exps, image_exps))
                    part[key] = part[key] + c * image_c if key in part else c * image_c
            for key, c in part.items():
                if not c:
                    continue
                if key not in acc:
                    acc[key] = c
                elif acc[key] + c:
                    acc[key] += c
                else:
                    del acc[key]
        return GradedPoly(self.family, nvars, acc)

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

        The target ring is given explicitly; every image must live in it.
        A position with image None must not occur in any term.
        """
        result = GradedPoly.zero(family, nvars)
        one = GradedPoly.const(family, nvars, 1)
        cache: dict[tuple[int, int], GradedPoly] = {}
        for exps, coeff in self._terms.items():
            prod = one * coeff
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i >= len(images) or images[i] is None:
                    raise ValueError(f"no substitution image for position {i}")
                key = (i, e)
                if key not in cache:
                    cache[key] = images[i] ** e
                prod = prod * cache[key]
            result = result + prod
        return result

    def with_nvars(self, nvars: int) -> "GradedPoly":
        """Re-declare the ring size, padding with (or dropping) unused slots."""
        if nvars == self.nvars:
            return self
        if nvars < self.max_used_position() + 1:
            raise ValueError("cannot drop a variable that is in use")
        terms = {self._pad(exps, nvars)[:nvars]: c for exps, c in self._terms.items()}
        return GradedPoly(self.family, nvars, terms)

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
        pieces: list[str] = []
        for exps, coeff in sorted(self._terms.items(), key=lambda kv: self._key(kv[0]), reverse=True):
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(name(i))
                elif e > 1:
                    factors.append(f"{name(i)}^{e}")
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
