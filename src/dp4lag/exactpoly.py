"""Exact rational scalars and sparse multivariate polynomial arithmetic.

Scalars are `fractions.Fraction` (arbitrary precision, always in lowest
terms with positive denominator), so every operation here -- and everything
built on top of it -- is exact.  Identity tests decide equality, they never
approximate it.

A polynomial lives over a fixed, ordered variable list (`VarTable`).  It is
stored as integer numerators over one positive common denominator, keyed by
packed exponent vectors: variable i takes bits [16i, 16i + 16) of an int, so
multiplying monomials is adding keys.  The top bit of each field is a guard
bit; exponents are bounded by 2^15 - 1, and a product past the bound raises
`OverflowError` instead of spilling into the next variable.  The form is
canonical, so equal polynomials have equal fields.  `MPoly.terms` is the
read-only ``{exponent tuple: Fraction}`` view used at the API boundary.
Monomials are compared in graded reverse lexicographic order with respect to
the variable order; the order fixes leading terms, the canonical text form,
and the sign convention of `perfect_square_test`.

The perfect-square test runs on the integer numerators alone: its value
certificate evaluates them at fixed integer points, and `_poly_sqrt` builds
the root term by term in the integer order of the packed keys (lex, with the
last variable most significant), which is also a monomial order.

A univariate polynomial leaves `MPoly` once (`univariate_ints`) as an
`IntPoly`, its integer coefficients from the constant term up.  `derivative`,
`pseudo_divmod`, `univariate_gcd` (primitive, positive lead) and the one
deflation routine `divide_by_root` run on these lists.

All values are immutable after construction and all operations are pure, so
they are safe to share between concurrently running verification sweeps.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from operator import or_
from typing import Iterator, Optional, Sequence, Union

Rat = Fraction

Scalar = Union[int, Fraction]

__all__ = [
    "Rat",
    "VarTable",
    "MPoly",
    "SquareTest",
    "as_rat",
    "rat_str",
    "parse_rat",
    "rat_sqrt",
    "poly_eval",
    "poly_eval_many",
    "poly_derivative",
    "poly_substitute_linear",
    "perfect_square_test",
    "IntPoly",
    "primitive",
    "derivative",
    "pseudo_divmod",
    "divide_by_root",
    "univariate_ints",
    "univariate_gcd",
    "exact_divide",
    "to_text",
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


# Packed exponents (see the module docstring).  Two exponents of at most
# MAX_EXPONENT sum to less than 2^16, so a product never carries into the next
# field; an overflow can only set its own field's guard bit.
FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


@lru_cache(maxsize=None)
def _shifts(n: int) -> tuple[int, ...]:
    return tuple(range(0, FIELD_BITS * n, FIELD_BITS))


@lru_cache(maxsize=None)
def _guard(n: int) -> int:
    return sum(1 << (s + FIELD_BITS - 1) for s in _shifts(n))


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return tuple((key >> s) & _FIELD_MASK for s in _shifts(n))


def _check_guard(keys, n: int) -> None:
    if reduce(or_, keys, 0) & _guard(n):
        raise OverflowError(f"exponent overflow: a product has an exponent above {MAX_EXPONENT}")


def _degree(key: int) -> int:
    """The total degree of a packed key (its guard bits are clear)."""
    d = 0
    while key:
        d += key & _FIELD_MASK
        key >>= FIELD_BITS
    return d


def _grevlex_rank(key: int, n: int) -> int:
    # Higher rank = larger monomial in graded reverse lexicographic order:
    # total degree first, then the smaller exponent of the last variable,
    # then of the one before it, and so on.
    return (_degree(key) << (FIELD_BITS * n)) - key


def _lowest_terms(nums: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Drop zero numerators and divide out gcd(den, numerators)."""
    nums = {k: c for k, c in nums.items() if c}
    if not nums:
        return nums, 1
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: c // g for k, c in nums.items()}
            den //= g
    return nums, den


def _product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two packed-key integer polynomials; a cancelled monomial keeps its key."""
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _checked_key(exp: tuple[int, ...], n: int) -> int:
    """The packed key of an exponent tuple, after checking it fits ``n`` variables."""
    exp = tuple(exp)
    if len(exp) != n:
        raise ValueError(f"exponent {exp} does not match {n} variables")
    if any(e < 0 or not isinstance(e, int) for e in exp):
        raise ValueError(f"exponents must be non-negative integers: {exp}")
    if any(e > MAX_EXPONENT for e in exp):
        raise OverflowError(f"exponent {exp} exceeds the bound {MAX_EXPONENT}")
    return sum(e << s for s, e in zip(_shifts(n), exp))


class _TermsView(Mapping):
    """Read-only ``{exponent tuple: Fraction}`` view of a polynomial.

    The dict behind it is built on first access; ``len`` needs no build.
    """

    __slots__ = ("_nums", "_den", "_n", "_dict")

    def __init__(self, nums: dict[int, int], den: int, n: int):
        self._nums, self._den, self._n, self._dict = nums, den, n, None

    def _terms(self) -> dict[tuple[int, ...], Fraction]:
        if self._dict is None:
            den, n = self._den, self._n
            self._dict = {_unpack(k, n): Fraction(c, den) for k, c in self._nums.items()}
        return self._dict

    def __len__(self) -> int:
        return len(self._nums)

    def __getitem__(self, exp):
        return self._terms()[exp]

    def __iter__(self):
        return iter(self._terms())

    def items(self):
        return self._terms().items()

    def __repr__(self) -> str:
        return repr(self._terms())


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Stored in canonical form as integer numerators over one common
    denominator: ``_nums`` maps packed exponent keys to nonzero ints,
    ``_den`` is a positive int with gcd(den, all numerators) = 1, and the
    zero polynomial has no terms and denominator 1.  Equal polynomials
    therefore have equal fields.  ``terms`` is the read-only
    ``{exponent tuple: Fraction}`` view of the same data.  Treat instances as
    immutable; all arithmetic returns new objects.
    """

    __slots__ = ("vars", "_nums", "_den", "_hash", "_view", "_degrees", "_total_degree")

    def __init__(self, vars: VarTable, terms: Mapping[tuple[int, ...], Scalar]):
        n = len(vars)
        acc: dict[int, Fraction] = {}
        for exp, coeff in terms.items():
            key = _checked_key(exp, n)
            c = as_rat(coeff)
            if c:
                acc[key] = acc.get(key, 0) + c
        # Each coefficient is in lowest terms, so over the lcm of their
        # denominators the numerators share no factor with it.
        den = lcm(*(c.denominator for c in acc.values())) if acc else 1
        nums = {k: c.numerator * (den // c.denominator) for k, c in acc.items() if c}
        self._init(vars, nums, den if nums else 1)

    def _init(self, vars: VarTable, nums: dict[int, int], den: int) -> None:
        set_slot = object.__setattr__  # one lookup: every polynomial built passes here
        set_slot(self, "vars", vars)
        set_slot(self, "_nums", nums)
        set_slot(self, "_den", den)
        set_slot(self, "_hash", None)
        set_slot(self, "_view", None)
        set_slot(self, "_degrees", None)
        set_slot(self, "_total_degree", None)

    @classmethod
    def _canonical(cls, vars: VarTable, nums: dict[int, int], den: int) -> "MPoly":
        """Wrap fields that are already canonical."""
        p = object.__new__(cls)
        p._init(vars, nums, den)
        return p

    @classmethod
    def _reduced(cls, vars: VarTable, nums: dict[int, int], den: int) -> "MPoly":
        return cls._canonical(vars, *_lowest_terms(nums, den))

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("MPoly is immutable")

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        view = self._view
        if view is None:
            view = _TermsView(self._nums, self._den, len(self.vars))
            object.__setattr__(self, "_view", view)
        return view

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: VarTable) -> "MPoly":
        return cls._canonical(vars, {}, 1)

    @classmethod
    def const(cls, vars: VarTable, value: Scalar) -> "MPoly":
        c = as_rat(value)
        return cls._canonical(vars, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, vars: VarTable, name: str) -> "MPoly":
        return cls._canonical(vars, {1 << (FIELD_BITS * vars.index(name)): 1}, 1)

    @classmethod
    def from_numerators(cls, vars: VarTable, nums: Mapping[tuple[int, ...], int], den: int = 1) -> "MPoly":
        """The polynomial with integer numerators ``nums`` over the positive denominator ``den``."""
        if den <= 0:
            raise ValueError("the denominator must be positive")
        n = len(vars)
        out: dict[int, int] = {}
        for exp, c in nums.items():
            key = _checked_key(exp, n)
            if c:
                out[key] = out.get(key, 0) + c
        return cls._reduced(vars, out, den)

    def numerators(self) -> tuple[dict[tuple[int, ...], int], int]:
        """The integer numerators by exponent tuple, and their common denominator.

        The inverse of `from_numerators`: the denominator is positive and
        shares no factor with all the numerators at once.
        """
        n = len(self.vars)
        return {_unpack(k, n): c for k, c in self._nums.items()}, self._den

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial.  Computed once per polynomial."""
        deg = self._total_degree
        if deg is None:
            deg = max(map(_degree, self._nums), default=-1)
            object.__setattr__(self, "_total_degree", deg)
        return deg

    def degree_in(self, var: str) -> int:
        s = FIELD_BITS * self.vars.index(var)
        return max(((k >> s) & _FIELD_MASK for k in self._nums), default=-1)

    def _max_exponents(self) -> tuple[int, ...]:
        """The highest exponent of each variable (0 for the zero polynomial).

        Computed once per polynomial: `poly_eval_many` reads it at every point.
        """
        degs = self._degrees
        if degs is None:
            degs = tuple(max(((k >> s) & _FIELD_MASK for k in self._nums), default=0) for s in _shifts(len(self.vars)))
            object.__setattr__(self, "_degrees", degs)
        return degs

    def variables_present(self) -> tuple[str, ...]:
        used = reduce(or_, self._nums, 0)
        return tuple(name for name, s in zip(self.vars.names, _shifts(len(self.vars))) if (used >> s) & _FIELD_MASK)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending monomial order."""
        n = len(self.vars)
        keys = sorted(self._nums, key=lambda k: _grevlex_rank(k, n), reverse=True)
        return [(_unpack(k, n), Fraction(self._nums[k], self._den)) for k in keys]

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if not self._nums:
            raise ValueError("zero polynomial has no leading term")
        n = len(self.vars)
        key = max(self._nums, key=lambda k: _grevlex_rank(k, n))
        return _unpack(key, n), Fraction(self._nums[key], self._den)

    def leading_coefficient(self) -> Fraction:
        return self.leading_term()[1]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Optional["MPoly"]:
        if isinstance(other, MPoly):
            if other.vars is not self.vars and other.vars != self.vars:
                raise ValueError("polynomials live over different variable tables")
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.vars, other)
        return None

    def _combine(self, other: "MPoly", sign: int) -> "MPoly":
        """self + sign * other over the common denominator."""
        d1, d2 = self._den, other._den
        if d1 == d2:
            out, m2, den = dict(self._nums), sign, d1
        else:
            g = gcd(d1, d2)
            m1, m2, den = d2 // g, sign * (d1 // g), d1 // g * d2
            out = {k: c * m1 for k, c in self._nums.items()}
        get = out.get
        for k, c in other._nums.items():
            out[k] = get(k, 0) + c * m2
        return MPoly._reduced(self.vars, out, den)

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._canonical(self.vars, {k: -c for k, c in self._nums.items()}, self._den)

    def __sub__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return MPoly.zero(self.vars)
            num, den = other.numerator, other.denominator
            return MPoly._reduced(self.vars, {k: c * num for k, c in self._nums.items()}, self._den * den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = _product(self._nums, other._nums)
        _check_guard(out, len(self.vars))
        return MPoly._reduced(self.vars, out, self._den * other._den)

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
        moves = [(s, FIELD_BITS * new_vars.index(name)) for name, s in zip(self.vars.names, _shifts(len(self.vars)))]
        out = {}
        for k, c in self._nums.items():
            key = 0
            for old, new in moves:
                key |= ((k >> old) & _FIELD_MASK) << new
            out[key] = c
        return MPoly._canonical(new_vars, out, self._den)

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vars, self._den, frozenset(self._nums.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __repr__(self) -> str:
        return f"MPoly({to_text(self)!r})"


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def poly_eval(p: MPoly, point: Mapping[str, Scalar]) -> Fraction:
    """Exact value of ``p`` at a rational point.

    ``point`` must assign a value to every variable actually occurring in
    ``p``; a missing assignment raises naming the variable.  The sum runs
    over the integers: with value a/q and degree d for a variable, a term
    contributes c * a^e * q^(d - e), and the total is divided once by the
    denominator and every q^d.
    """
    return poly_eval_many((p,), point)[0]


def poly_eval_many(polys: Sequence[MPoly], point: Mapping[str, Scalar]) -> list[Fraction]:
    """Exact values of several polynomials over one variable table at one point.

    Each value is the one `poly_eval` gives.  One table of powers serves every
    polynomial, built to the highest degree any of them has in each variable,
    and a monomial they share is evaluated once.
    """
    if not polys:
        return []
    vars = polys[0].vars
    if any(p.vars is not vars and p.vars != vars for p in polys):
        raise ValueError("polynomials live over different variable tables")
    degrees = map(max, *(p._max_exponents() for p in polys)) if len(polys) > 1 else polys[0]._max_exponents()
    scale = 1
    factors = []
    for name, s, d in zip(vars.names, _shifts(len(vars)), degrees):
        if not d:
            continue
        v = point.get(name)
        if v is None:
            raise ValueError(f"no value assigned to variable {name!r}")
        v = as_rat(v)
        a, q = v.numerator, v.denominator
        a_pows, q_pows = [1], [1]
        for _ in range(d):
            a_pows.append(a_pows[-1] * a)
            q_pows.append(q_pows[-1] * q)
        factors.append((s, [a_pows[e] * q_pows[d - e] for e in range(d + 1)]))
        scale *= q_pows[d]
    monomials: dict[int, int] = {}
    values = []
    for p in polys:
        total = 0
        for k, c in p._nums.items():
            m = monomials.get(k)
            if m is None:
                m = 1
                for s, table in factors:
                    m *= table[(k >> s) & _FIELD_MASK]
                monomials[k] = m
            total += c * m
        values.append(Fraction(total, scale * p._den))
    return values


def poly_derivative(p: MPoly, var: str) -> MPoly:
    """Formal partial derivative with respect to ``var``."""
    s = FIELD_BITS * p.vars.index(var)
    one = 1 << s
    out: dict[int, int] = {}
    for k, c in p._nums.items():
        e = (k >> s) & _FIELD_MASK
        if e:
            out[k - one] = c * e
    return MPoly._reduced(p.vars, out, p._den)


def poly_substitute_linear(p: MPoly, mapping: Mapping[str, MPoly]) -> MPoly:
    """Compose ``p`` with an affine-linear substitution.

    Every variable occurring in ``p`` must be mapped to a polynomial of
    total degree at most one; all image polynomials must share one variable
    table, which becomes the table of the result.

    The composition runs over the integers.  With D the common denominator
    of the images and n the total degree of ``p``, each image becomes the
    integer linear form L = D * image, and a term c * x^e contributes
    c * D^(n - |e|) * L^e; the sum is divided once by ``p``'s denominator
    times D^n.  Terms are grouped by exponent, one variable at a time, so
    each power of an image multiplies its group's inner sum once.
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
    present = p.variables_present()
    for name in present:
        if name not in images:
            raise ValueError(f"no image for variable {name!r}")

    n = max(p.total_degree(), 0)
    # A target exponent is at most n, so below 2^16 no field carries into the
    # next, and the guard bits of the result decide overflow on their own.
    if n > _FIELD_MASK and any(images[name].total_degree() > 0 for name in present):
        raise OverflowError(f"exponent overflow: a substitution of degree {n} passes {MAX_EXPONENT}")
    den = lcm(*(img._den for img in images.values()))
    shifts = [FIELD_BITS * p.vars.index(name) for name in present]
    powers = [[{0: 1}] for _ in present]
    forms = [{k: c * (den // images[name]._den) for k, c in images[name]._nums.items()} for name in present]
    den_pows = [1]
    for _ in range(n):
        den_pows.append(den_pows[-1] * den)

    def power(j: int, e: int) -> dict[int, int]:
        table = powers[j]
        while len(table) <= e:
            table.append(_product(table[-1], forms[j]))
        return table[e]

    def compose(terms: list[tuple[int, int]], j: int) -> dict[int, int]:
        # Sum of c * D^(n - |e|) * L_j^e_j * ... * L_last^e_last over the
        # terms; each group of one exponent of variable j is summed first.
        out: dict[int, int] = {}
        get = out.get
        s = shifts[j]
        if j == len(shifts) - 1:
            for k, c in terms:
                scaled = c * den_pows[n - _degree(k)]
                for key, v in power(j, (k >> s) & _FIELD_MASK).items():
                    out[key] = get(key, 0) + scaled * v
            return out
        groups: dict[int, list[tuple[int, int]]] = {}
        for term in terms:
            groups.setdefault((term[0] >> s) & _FIELD_MASK, []).append(term)
        for e, group in groups.items():
            inner = compose(group, j + 1)
            for key, v in (_product(inner, power(j, e)) if e else inner).items():
                out[key] = get(key, 0) + v
        return out

    out = compose(list(p._nums.items()), 0) if shifts else dict(p._nums)
    _check_guard(out, len(target))
    return MPoly._reduced(target, out, p._den * den_pows[n])


def exact_divide(a: MPoly, b: MPoly) -> Optional[MPoly]:
    """Quotient ``a / b`` when the division is exact, else None.

    The division runs over the integer numerators.  The remainder's
    monomials wait in a max-heap by monomial order (after Monagan & Pearce);
    each step cancels the leading one and adds only smaller monomials, so
    every monomial is popped once.  The true remainder and quotient are
    ``rem / s`` and ``quo / s``, where s grows only when the divisor's
    leading coefficient does not divide the remainder's.
    """
    if a.vars != b.vars:
        raise ValueError("operands live over different variable tables")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return MPoly.zero(a.vars)
    n = len(a.vars)
    guard = _guard(n)
    divisor = b._nums
    b_key = max(divisor, key=lambda k: _grevlex_rank(k, n))
    b_lead = divisor[b_key]
    tail = [(k, c) for k, c in divisor.items() if k != b_key]
    rem = dict(a._nums)
    quo: dict[int, int] = {}
    s = 1
    heap = [(-_grevlex_rank(k, n), k) for k in rem]
    heapify(heap)
    while heap:
        key = heappop(heap)[1]
        r = rem.pop(key)
        if not r:
            continue
        shifted = (key | guard) - b_key
        if shifted & guard != guard:
            return None  # the divisor's leading monomial does not divide
        q_key = shifted ^ guard
        scale = abs(b_lead) // gcd(r, b_lead)
        if scale != 1:
            s *= scale
            rem = {k: c * scale for k, c in rem.items()}
            quo = {k: c * scale for k, c in quo.items()}
        q = quo[q_key] = r * scale // b_lead
        for t_key, c in tail:
            k = q_key + t_key
            old = rem.get(k)
            if old is None:
                _check_guard((k,), n)
                heappush(heap, (-_grevlex_rank(k, n), k))
                old = 0
            rem[k] = old - q * c
    # a / b = (quo / s) * (b_den / a_den)
    return MPoly._reduced(a.vars, {k: c * b._den for k, c in quo.items()}, s * a._den)


@dataclass(frozen=True)
class SquareTest:
    """Outcome of an exact perfect-square test."""

    is_square: bool
    sqrt: Optional[MPoly]


def _poly_sqrt(p: MPoly) -> Optional[MPoly]:
    """The square root of ``p`` with positive lead in packed-key order, or None when ``p`` is no square.

    With p = N / den and c the content of N, signed like N's lead, p = (c /
    den) * (N / c).  By Gauss's lemma p is a square exactly when c * den is a
    perfect square and the primitive N / c is S^2 for an integer S; the root
    is then isqrt(c * den) / den * S.  S is built term by term, largest key
    first: the integer order of packed keys is lex, a monomial order, so the
    top of the remainder N / c - S^2 is twice S's lead times the next term.
    A root term above half of p's degree in some variable is refused, which
    bounds the loop, and p is a square exactly when the remainder reaches 0.
    """
    nums = p._nums
    if not nums:
        return p
    n = len(p.vars)
    guard = _guard(n)
    lead = max(nums)
    c = gcd(*nums.values())
    if nums[lead] < 0:
        c = -c
    scale = c * p._den
    if scale < 0 or lead & (guard >> (FIELD_BITS - 1)):  # a negative lead, or an odd exponent in the lead
        return None
    rem = {k: v // c for k, v in nums.items()}
    top_root, lead_c = lead >> 1, rem.pop(lead)
    r, s0 = isqrt(scale), isqrt(lead_c)
    if r * r != scale or s0 * s0 != lead_c:
        return None
    # the highest exponent a root term may have in each variable
    box = sum((d >> 1) << s for s, d in zip(_shifts(n), p._max_exponents())) | guard
    root = {top_root: s0}
    two_s0 = 2 * s0
    get = rem.get
    while rem:
        top = max(rem)
        q, odd = divmod(rem[top], two_s0)
        key = (top | guard) - top_root
        if odd or key & guard != guard or (box - (key ^ guard)) & guard != guard:
            return None
        key ^= guard
        # rem -= 2 q x^key * root + q^2 x^(2 key); the top cancels
        two_q = 2 * q
        for k, v in root.items():
            k += key
            w = get(k, 0) - two_q * v
            if w:
                rem[k] = w
            else:
                del rem[k]
        k = key + key
        w = get(k, 0) - q * q
        if w:
            rem[k] = w
        else:
            del rem[k]
        root[key] = q
    return MPoly._reduced(p.vars, {k: r * v for k, v in root.items()}, p._den)


# Fixed integer points for the value certificate of `perfect_square_test`:
# variable i of a table takes entry i mod 8 of each point.
SQUARE_CERTIFICATE_POINTS = ((3, 7, -2, 5, 11, -13, 17, -19), (-4, -9, 6, -1, 8, 3, -7, 2), (6, 1, -5, 9, -3, 4, 2, -8))


def perfect_square_test(p: MPoly) -> SquareTest:
    """Decide exactly whether ``p`` is the square of a rational polynomial.

    A square p = s^2 has the rational square s(pt)^2 as its value at every
    rational point, so a value at one of `SQUARE_CERTIFICATE_POINTS` that is
    not a rational square proves ``p`` is no square.  The values run on
    integers, over one table of powers per point: with p = N / den, p(pt) is
    a rational square exactly when N(pt) * den is a perfect square.  Every
    other ``p`` goes to `_poly_sqrt`, which decides it.  When ``p`` is a
    square, the returned square root is normalized to positive leading
    coefficient; its square is ``p`` whatever its sign.  The zero polynomial
    counts as a square with root 0.
    """
    nums, den = p._nums, p._den
    # (variable index, field shift, degree) of each variable present
    fields = [(i, s, d) for i, (s, d) in enumerate(zip(_shifts(len(p.vars)), p._max_exponents())) if d]
    for point in SQUARE_CERTIFICATE_POINTS:
        tables = []
        for i, s, d in fields:
            a = point[i % len(point)]
            powers = [1]
            for _ in range(d):
                powers.append(powers[-1] * a)
            tables.append((s, powers))
        total = 0
        for k, c in nums.items():
            for s, powers in tables:
                c *= powers[(k >> s) & _FIELD_MASK]
            total += c
        value = total * den
        if value < 0 or isqrt(value) ** 2 != value:
            return SquareTest(False, None)
    root = _poly_sqrt(p)
    if root is None:
        return SquareTest(False, None)
    if not root.is_zero() and root.leading_coefficient() < 0:
        root = -root
    return SquareTest(True, root)


IntPoly = list[int]  # integer coefficients, constant term first, no trailing zeros


def _trim(a: IntPoly) -> IntPoly:
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def primitive(values: Sequence[Scalar]) -> list[int]:
    """The positive integer multiple of a vector of ints or Fractions with no common factor; zero stays zero."""
    den = lcm(*(x.denominator for x in values))
    nums = [x.numerator * (den // x.denominator) for x in values]
    g = gcd(*nums)
    return [x // g for x in nums] if g > 1 else nums


def derivative(a: IntPoly) -> IntPoly:
    """The formal derivative of ``a``."""
    return [k * c for k, c in enumerate(a)][1:]


def pseudo_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """``(Q, R)`` with ``c * a = Q * b + R``, ``deg R < deg b``, for some integer ``c > 0``.

    Each elimination step scales by ``|lc(b)|`` instead of ``lc(b)``, so the
    remainder keeps the sign of the true remainder, as a Sturm sequence needs.
    """
    lead, db = b[-1], len(b) - 1
    sign, scale = (1, lead) if lead > 0 else (-1, -lead)
    quotient = [0] * max(len(a) - db, 1)
    rem = list(a)
    while len(rem) > db:
        shift, top = len(rem) - 1 - db, rem[-1]
        quotient = [scale * c for c in quotient]
        quotient[shift] += sign * top
        rem = [scale * c for c in rem]
        for k, c in enumerate(b):
            rem[shift + k] -= sign * top * c
        rem = _trim(rem)
    return _trim(quotient), rem


def divide_by_root(a: IntPoly, num: int, den: int = 1) -> Optional[IntPoly]:
    """``a / (den t - num)`` when it divides exactly on the integers, else None; ``a`` is nonzero.

    For ``num / den`` in lowest terms with ``den > 0``, ``den t - num`` is
    primitive, so by Gauss's lemma it divides ``a`` in Z[t] exactly when
    ``num / den`` is a root.  The quotient comes top down from
    ``a_k = den q_(k-1) - num q_k``.
    """
    quotient = [0] * (len(a) - 1)
    carry = 0
    for k in range(len(a) - 1, 0, -1):
        carry, rem = divmod(a[k] + num * carry, den)
        if rem:
            return None
        quotient[k - 1] = carry
    return quotient if a[0] + num * carry == 0 else None


def univariate_ints(p: MPoly, var: str) -> IntPoly:
    """Numerators of ``p`` over its common denominator, constant term first; ``p`` must be univariate."""
    s = FIELD_BITS * p.vars.index(var)
    out = [0] * (p.degree_in(var) + 1)
    for k, c in p._nums.items():
        e = k >> s
        if k != e << s or e > _FIELD_MASK:
            raise ValueError(f"polynomial is not univariate in {var!r}")
        out[e] = c
    return out


def univariate_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """The gcd of two integer polynomials, primitive with a positive lead.

    A primitive remainder sequence (Collins 1967, Brown 1971): each
    pseudo-remainder is divided by its content, which keeps the coefficients
    small.  Over Q the gcd is this one up to a rational factor.
    """
    if not a and not b:
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(pseudo_divmod(a, b)[1])
    return a if a[-1] > 0 else [-c for c in a]


# ---------------------------------------------------------------------------
# Canonical text serialization
# ---------------------------------------------------------------------------


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
