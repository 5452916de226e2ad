"""Exact rational scalars and sparse multivariate polynomial arithmetic.

Coefficients are `fractions.Fraction` (arbitrary precision, always in lowest
terms with positive denominator), so every operation here -- and everything
built on top of it -- is exact.  Identity tests decide equality, they never
approximate it.

A polynomial is a sparse map from exponent vectors to nonzero coefficients
over a fixed, ordered variable list (`VarTable`).  Monomials are compared in
graded reverse lexicographic order with respect to that variable order; the
order fixes leading terms, the canonical text form, and the sign convention
of `perfect_square_test`.

All values are immutable after construction and all operations are pure, so
they are safe to share between concurrently running verification sweeps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Mapping, Optional, Union

Rat = Fraction

Scalar = Union[int, Fraction]

__all__ = [
    "Rat",
    "VarTable",
    "MPoly",
    "PolyParseError",
    "SquareTest",
    "as_rat",
    "rat_str",
    "parse_rat",
    "rat_sqrt",
    "poly_eval",
    "poly_derivative",
    "poly_substitute_linear",
    "binary_quadratic_discriminant",
    "perfect_square_test",
    "univariate_gcd",
    "exact_divide",
    "coefficient_poly",
    "to_text",
    "parse_poly",
]


def as_rat(value: Union[Scalar, str]) -> Fraction:
    """Coerce an int, string, or Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rat_str(q: Fraction) -> str:
    """Serialize a rational as ``p/q`` (the denominator is always written)."""
    q = as_rat(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rat(text: str) -> Fraction:
    """Parse ``p/q`` or a plain integer string."""
    return Fraction(text.strip())


def rat_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None when no rational root exists."""
    q = as_rat(q)
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


@dataclass(frozen=True)
class VarTable:
    """Ordered, immutable list of variable names.

    The order is fixed at creation and determines the monomial order of every
    polynomial over the table.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("a VarTable needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name: {name!r}")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} (table has {self.names})") from None

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)


def _grevlex_key(exp: tuple[int, ...]) -> tuple:
    # Higher key = larger monomial: compare total degree first, then reverse
    # lexicographic on negated exponents read right to left.
    return (sum(exp), tuple(-e for e in reversed(exp)))


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Stored in canonical form: no zero coefficients, exponents non-negative,
    one entry per monomial.  Treat instances as immutable; all arithmetic
    returns new objects.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: VarTable, terms: Mapping[tuple[int, ...], Scalar]):
        n = len(vars)
        canon: dict[tuple[int, ...], Fraction] = {}
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != n:
                raise ValueError(f"exponent {exp} does not match {n} variables")
            if any(e < 0 or not isinstance(e, int) for e in exp):
                raise ValueError(f"exponents must be non-negative integers: {exp}")
            c = as_rat(coeff)
            if c != 0:
                prev = canon.get(exp)
                c = c if prev is None else prev + c
                if c != 0:
                    canon[exp] = c
                elif exp in canon:
                    del canon[exp]
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: VarTable) -> "MPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: VarTable, value: Scalar) -> "MPoly":
        return cls(vars, {(0,) * len(vars): as_rat(value)})

    @classmethod
    def variable(cls, vars: VarTable, name: str) -> "MPoly":
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return cls(vars, {tuple(exp): Fraction(1)})

    @classmethod
    def gens(cls, vars: VarTable) -> tuple["MPoly", ...]:
        return tuple(cls.variable(vars, name) for name in vars)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: str) -> int:
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def variables_present(self) -> tuple[str, ...]:
        present = [False] * len(self.vars)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    present[i] = True
        return tuple(n for n, p in zip(self.vars.names, present) if p)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending monomial order."""
        return sorted(self.terms.items(), key=lambda t: _grevlex_key(t[0]), reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grevlex_key)
        return exp, self.terms[exp]

    def leading_coefficient(self) -> Fraction:
        return self.leading_term()[1]

    def constant_coefficient(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def coefficient(self, exp: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Optional["MPoly"]:
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError("polynomials live over different variable tables")
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.vars, other)
        return None

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return MPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MPoly":
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            c = as_rat(other)
            if c == 0:
                return MPoly.zero(self.vars)
            return MPoly(self.vars, {e: k * c for e, k in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, Fraction(0)) + c1 * c2
                if s:
                    out[exp] = s
                elif exp in out:
                    del out[exp]
        return MPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def with_vars(self, new_vars: VarTable) -> "MPoly":
        """Reinterpret over a larger variable table (by variable name)."""
        positions = [new_vars.index(name) for name in self.vars.names]
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            new_exp = [0] * len(new_vars)
            for pos, e in zip(positions, exp):
                new_exp[pos] = e
            out[tuple(new_exp)] = c
        return MPoly(new_vars, out)

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"MPoly({to_text(self)!r})"


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def poly_eval(p: MPoly, point: Mapping[str, Scalar]) -> Fraction:
    """Exact value of ``p`` at a rational point.

    ``point`` must assign a value to every variable actually occurring in
    ``p``; a missing assignment raises naming the variable.
    """
    values: list[Optional[Fraction]] = []
    for name in p.vars.names:
        v = point.get(name)
        values.append(None if v is None else as_rat(v))
    powers: dict[tuple[int, int], Fraction] = {}

    def power(i: int, e: int) -> Fraction:
        key = (i, e)
        cached = powers.get(key)
        if cached is None:
            base = values[i]
            if base is None:
                raise ValueError(f"no value assigned to variable {p.vars.names[i]!r}")
            cached = base**e
            powers[key] = cached
        return cached

    total = Fraction(0)
    for exp, c in p.terms.items():
        term = c
        for i, e in enumerate(exp):
            if e:
                term *= power(i, e)
        total += term
    return total


def poly_derivative(p: MPoly, var: str) -> MPoly:
    """Formal partial derivative with respect to ``var``."""
    i = p.vars.index(var)
    out: dict[tuple[int, ...], Fraction] = {}
    for exp, c in p.terms.items():
        e = exp[i]
        if e:
            new_exp = exp[:i] + (e - 1,) + exp[i + 1 :]
            out[new_exp] = out.get(new_exp, Fraction(0)) + c * e
    return MPoly(p.vars, out)


def poly_substitute_linear(p: MPoly, mapping: Mapping[str, MPoly]) -> MPoly:
    """Compose ``p`` with an affine-linear substitution.

    Every variable occurring in ``p`` must be mapped to a polynomial of
    total degree at most one; all image polynomials must share one variable
    table, which becomes the table of the result.
    """
    images = {name: img for name, img in mapping.items()}
    target: Optional[VarTable] = None
    for name, img in images.items():
        if not isinstance(img, MPoly):
            raise TypeError(f"image of {name!r} must be an MPoly")
        if img.total_degree() > 1:
            raise ValueError(f"image of {name!r} has degree > 1")
        if target is None:
            target = img.vars
        elif img.vars != target:
            raise ValueError("substitution images live over different variable tables")
    if target is None:
        raise ValueError("empty substitution map")
    for name in p.variables_present():
        if name not in images:
            raise ValueError(f"no image for variable {name!r}")

    one = MPoly.const(target, 1)
    powers: dict[tuple[str, int], MPoly] = {}

    def power(name: str, e: int) -> MPoly:
        key = (name, e)
        cached = powers.get(key)
        if cached is None:
            cached = images[name] ** e
            powers[key] = cached
        return cached

    total = MPoly.zero(target)
    for exp, c in p.terms.items():
        term = one * c
        for name, e in zip(p.vars.names, exp):
            if e:
                term = term * power(name, e)
        total = total + term
    return total


def binary_quadratic_discriminant(f0: MPoly, h0: MPoly, g0: MPoly) -> MPoly:
    """Discriminant ``h0**2 - 4*f0*g0`` of the binary quadric f0*t^2 + h0*t + g0."""
    if f0.vars != h0.vars or f0.vars != g0.vars:
        raise ValueError("discriminant inputs must share a variable table")
    return h0 * h0 - f0 * g0 * 4


def coefficient_poly(p: MPoly, var: str, k: int) -> MPoly:
    """Coefficient of ``var**k`` in ``p``, as a polynomial with ``var`` struck out."""
    i = p.vars.index(var)
    out: dict[tuple[int, ...], Fraction] = {}
    for exp, c in p.terms.items():
        if exp[i] == k:
            out[exp[:i] + (0,) + exp[i + 1 :]] = c
    return MPoly(p.vars, out)


def exact_divide(a: MPoly, b: MPoly) -> Optional[MPoly]:
    """Quotient ``a / b`` when the division is exact, else None."""
    if a.vars != b.vars:
        raise ValueError("operands live over different variable tables")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return MPoly.zero(a.vars)
    b_exp, b_coeff = b.leading_term()
    remainder = a
    quotient: dict[tuple[int, ...], Fraction] = {}
    while not remainder.is_zero():
        r_exp, r_coeff = remainder.leading_term()
        q_exp = tuple(re - be for re, be in zip(r_exp, b_exp))
        if any(e < 0 for e in q_exp):
            return None
        q_coeff = r_coeff / b_coeff
        quotient[q_exp] = q_coeff
        remainder = remainder - b * MPoly(a.vars, {q_exp: q_coeff})
    return MPoly(a.vars, quotient)


@dataclass(frozen=True)
class SquareTest:
    """Outcome of an exact perfect-square test."""

    is_square: bool
    sqrt: Optional[MPoly]


def _poly_sqrt(p: MPoly) -> Optional[MPoly]:
    if p.is_zero():
        return p
    present = p.variables_present()
    if not present:
        root = rat_sqrt(p.constant_coefficient())
        return None if root is None else MPoly.const(p.vars, root)
    var = present[-1]
    d = p.degree_in(var)
    if d % 2:
        return None
    half = d // 2
    coeffs = [coefficient_poly(p, var, k) for k in range(d + 1)]
    lead = _poly_sqrt(coeffs[d])
    if lead is None:
        return None
    s: list[Optional[MPoly]] = [None] * (half + 1)
    s[half] = lead
    two_lead = lead * 2
    for j in range(half - 1, -1, -1):
        # coefficient of var^(half+j) in S^2 is 2*s_j*s_half plus the known
        # convolution of the already determined coefficients
        acc = coeffs[half + j]
        for k in range(j + 1, half):
            l = half + j - k
            acc = acc - s[k] * s[l]  # type: ignore[operator]
        q = exact_divide(acc, two_lead)
        if q is None:
            return None
        s[j] = q
    v = MPoly.variable(p.vars, var)
    candidate = MPoly.zero(p.vars)
    for k, sk in enumerate(s):
        candidate = candidate + sk * v**k  # type: ignore[operator]
    if candidate * candidate != p:
        return None
    return candidate


def perfect_square_test(p: MPoly) -> SquareTest:
    """Decide exactly whether ``p`` is the square of a rational polynomial.

    When it is, the returned square root is normalized to positive leading
    coefficient and re-verified by exact multiplication before returning;
    the zero polynomial counts as a square with root 0.
    """
    root = _poly_sqrt(p)
    if root is None:
        return SquareTest(False, None)
    if not root.is_zero() and root.leading_coefficient() < 0:
        root = -root
    if root * root != p:  # pragma: no cover - the recursion already verified
        raise AssertionError("square root verification failed")
    return SquareTest(True, root)


def _univariate_coeffs(p: MPoly, var: str) -> list[Fraction]:
    i = p.vars.index(var)
    for exp in p.terms:
        if any(e for j, e in enumerate(exp) if j != i):
            raise ValueError(f"polynomial is not univariate in {var!r}")
    d = p.degree_in(var)
    out = [Fraction(0)] * (d + 1)
    for exp, c in p.terms.items():
        out[exp[i]] = c
    return out


def _coeffs_to_poly(coeffs: list[Fraction], vars: VarTable, var: str) -> MPoly:
    i = vars.index(var)
    terms: dict[tuple[int, ...], Fraction] = {}
    for k, c in enumerate(coeffs):
        if c:
            exp = [0] * len(vars)
            exp[i] = k
            terms[tuple(exp)] = c
    return MPoly(vars, terms)


def univariate_gcd(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Monic exact gcd of two univariate polynomials in ``var``."""
    if p.vars != q.vars:
        raise ValueError("operands live over different variable tables")
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    a = _univariate_coeffs(p, var) if not p.is_zero() else []
    b = _univariate_coeffs(q, var) if not q.is_zero() else []

    def strip(c: list[Fraction]) -> list[Fraction]:
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = strip(a), strip(b)
    while b:
        # remainder of a by b
        r = list(a)
        while len(r) >= len(b) and strip(r):
            shift = len(r) - len(b)
            factor = r[-1] / b[-1]
            for k, bc in enumerate(b):
                r[shift + k] -= factor * bc
            strip(r)
        a, b = b, r
    monic = [c / a[-1] for c in a]
    return _coeffs_to_poly(monic, p.vars, var)


# ---------------------------------------------------------------------------
# Canonical text serialization
# ---------------------------------------------------------------------------


class PolyParseError(ValueError):
    """Raised when polynomial text does not match the canonical grammar."""


def to_text(p: MPoly) -> str:
    """Canonical text form: grevlex-sorted ``num/den * x^i y^j`` terms."""
    if p.is_zero():
        return "0"
    parts = []
    for exp, coeff in p.sorted_terms():
        factors = [f"{name}^{e}" for name, e in zip(p.vars.names, exp) if e]
        if factors:
            parts.append(f"{rat_str(coeff)} * " + " ".join(factors))
        else:
            parts.append(rat_str(coeff))
    return " + ".join(parts)


_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\^(\d+)$")


def parse_poly(text: str, vars: VarTable) -> MPoly:
    """Parse the grammar produced by `to_text` back into a polynomial."""
    text = text.strip()
    if not text:
        raise PolyParseError("empty polynomial text")
    if text == "0":
        return MPoly.zero(vars)
    terms: dict[tuple[int, ...], Fraction] = {}
    for raw_term in text.split(" + "):
        pieces = raw_term.split(" * ")
        if len(pieces) > 2:
            raise PolyParseError(f"malformed term: {raw_term!r}")
        try:
            coeff = Fraction(pieces[0].strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise PolyParseError(f"bad coefficient in term {raw_term!r}") from exc
        exp = [0] * len(vars)
        if len(pieces) == 2:
            for factor in pieces[1].split():
                m = _FACTOR_RE.match(factor)
                if not m:
                    raise PolyParseError(f"bad factor {factor!r} in term {raw_term!r}")
                name, e = m.group(1), int(m.group(2))
                if name not in vars:
                    raise PolyParseError(f"unknown variable {name!r}")
                exp[vars.index(name)] += e
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return MPoly(vars, terms)


def content_and_primitive(values: list[Fraction]) -> tuple[Fraction, list[int]]:
    """Rational content of a vector and its primitive integer form.

    The content is chosen so the primitive vector has gcd 1 and its first
    nonzero entry positive; the zero vector has content 0.
    """
    if all(v == 0 for v in values):
        return Fraction(0), [0] * len(values)
    den_lcm = 1
    for v in values:
        den_lcm = den_lcm * v.denominator // gcd(den_lcm, v.denominator)
    ints = [int(v * den_lcm) for v in values]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    ints = [n // g for n in ints]
    sign = 1
    for n in ints:
        if n:
            sign = 1 if n > 0 else -1
            break
    ints = [n * sign for n in ints]
    return Fraction(sign * g, den_lcm), ints
