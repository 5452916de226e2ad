"""Linear constraints cutting out the global symmetric 2-tensor fields.

A field is written on the affine chart as ``f(x,y) (d/dx)^2 + g(x,y) (d/dy)^2
+ h(x,y) (d/dx)(d/dy)`` with f, g, h of degree at most 4, i.e. 45 coefficient
slots.  Regularity on all of the projective plane imposes 18 linear forms on
the slots; regularity after blowing up an affine point (a, b) imposes 7 more.
For five base points in general position the full system has 53 rows and its
exact kernel is 2-dimensional; the canonically normalized kernel basis is the
pair of fields every other module consumes.

Every configuration is normalized to the same four points, `pencil.FRAME`,
so the 18 plane rows and the 4 x 7 frame rows -- the first 46 rows of every
system -- are one constant.  `frame_kernels` eliminates them once per
process, one point at a time (block elimination: each step solves a point's
7 rows restricted to the previous kernel).  A configuration then costs only
its fifth point's 7 rows restricted to the 5-dimensional frame kernel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from . import linalg
from .exactpoly import MPoly, Rat, VarTable, as_rat, poly_derivative, poly_eval
from .pencil import FRAME, PointConfig

__all__ = [
    "PLANE_VARS",
    "CHART_VARS",
    "SLOTS",
    "SLOT_INDEX",
    "NUM_SLOTS",
    "SymField",
    "LinearFunctional",
    "ConstraintSystem",
    "SectionBasis",
    "SectionSpaceError",
    "p2_constraints",
    "blowup_point_constraints",
    "point_constraint_coefficients",
    "assemble_system",
    "restrict_rows",
    "frame_kernels",
    "first_nonvanishing_row",
    "kernel_basis",
    "section_space_dimension",
    "chart_transport_check",
]

PLANE_VARS = VarTable(("x", "y"))
CHART_VARS = VarTable(("x", "y", "u", "v"))

Slot = tuple[str, int, int]

# Coefficient slots (family, i, j) for monomial x^i y^j, i + j <= 4.  The
# order is fixed once and for all: it is the column order of every constraint
# matrix and the pivot order of the canonical kernel normalization.
SLOTS: tuple[Slot, ...] = tuple(
    (family, i, d - i) for family in ("f", "g", "h") for d in range(5) for i in range(d, -1, -1)
)
SLOT_INDEX: dict[Slot, int] = {slot: k for k, slot in enumerate(SLOTS)}
NUM_SLOTS = len(SLOTS)
assert NUM_SLOTS == 45


class SectionSpaceError(ValueError):
    """Kernel dimension differs from the expected value."""

    def __init__(self, message: str, dimension: int):
        super().__init__(message)
        self.dimension = dimension


def _check_plane_poly(p: MPoly, name: str) -> MPoly:
    if p.vars != PLANE_VARS:
        raise ValueError(f"{name} must live over variables {PLANE_VARS.names}")
    if p.total_degree() > 4:
        raise ValueError(f"{name} must have degree <= 4, got {p.total_degree()}")
    return p


@dataclass(frozen=True)
class SymField:
    """Symmetric 2-tensor field on the affine chart.

    As a fiberwise-quadratic function on the cotangent chart it equals
    ``f u^2 + g v^2 + h u v``, which is automatically even under
    ``(u, v) -> (-u, -v)``.
    """

    f: MPoly
    g: MPoly
    h: MPoly

    def __post_init__(self) -> None:
        _check_plane_poly(self.f, "f")
        _check_plane_poly(self.g, "g")
        _check_plane_poly(self.h, "h")

    @classmethod
    def zero(cls) -> "SymField":
        z = MPoly.zero(PLANE_VARS)
        return cls(z, z, z)

    @classmethod
    def from_slots(cls, values: Sequence[Rat]) -> "SymField":
        if len(values) != NUM_SLOTS:
            raise ValueError(f"expected {NUM_SLOTS} slot values, got {len(values)}")
        parts: dict[str, dict[tuple[int, int], Fraction]] = {"f": {}, "g": {}, "h": {}}
        for slot, value in zip(SLOTS, values):
            v = as_rat(value)
            if v:
                family, i, j = slot
                parts[family][(i, j)] = v
        return cls(
            MPoly(PLANE_VARS, parts["f"]),
            MPoly(PLANE_VARS, parts["g"]),
            MPoly(PLANE_VARS, parts["h"]),
        )

    def slots(self) -> list[Fraction]:
        polys = {"f": self.f, "g": self.g, "h": self.h}
        return [polys[family].coefficient((i, j)) for family, i, j in SLOTS]

    def chart_polynomial(self) -> MPoly:
        """The field as a polynomial in (x, y, u, v)."""
        u = MPoly.variable(CHART_VARS, "u")
        v = MPoly.variable(CHART_VARS, "v")
        f = self.f.with_vars(CHART_VARS)
        g = self.g.with_vars(CHART_VARS)
        h = self.h.with_vars(CHART_VARS)
        return f * u * u + g * v * v + h * u * v

    @functools.cached_property
    def chart_partials(self) -> tuple[MPoly, MPoly, MPoly, MPoly]:
        """Partial derivatives of the chart polynomial in x, y, u, v, built once per field."""
        chart = self.chart_polynomial()
        return tuple(poly_derivative(chart, name) for name in ("x", "y", "u", "v"))  # type: ignore[return-value]

    def restrict(self, x0: Rat, y0: Rat) -> tuple[Fraction, Fraction, Fraction]:
        """Coefficients (f, g, h) of the binary quadric at a chart point."""
        point = {"x": as_rat(x0), "y": as_rat(y0)}
        return (poly_eval(self.f, point), poly_eval(self.g, point), poly_eval(self.h, point))


@dataclass(frozen=True)
class LinearFunctional:
    """Exact linear form on the 45 coefficient slots."""

    label: str
    coeffs: tuple[tuple[Slot, Fraction], ...]

    @classmethod
    def make(cls, label: str, coeffs: dict[Slot, Rat]) -> "LinearFunctional":
        for slot in coeffs:
            if slot not in SLOT_INDEX:
                raise ValueError(f"unknown slot {slot}")
        cleaned = tuple(
            sorted(((slot, as_rat(c)) for slot, c in coeffs.items() if as_rat(c) != 0), key=lambda t: SLOT_INDEX[t[0]])
        )
        return cls(label, cleaned)

    def row(self) -> list[Fraction]:
        out = [Fraction(0)] * NUM_SLOTS
        for slot, c in self.coeffs:
            out[SLOT_INDEX[slot]] = c
        return out

    def evaluate(self, field: SymField) -> Fraction:
        return _apply(self.coeffs, field.slots(), Fraction(0))


def _apply(row: Iterable[tuple[Slot, object]], vector: Sequence[Fraction], zero):
    """A row of (slot, coefficient) pairs applied to a rational slot vector.

    The coefficients may live in any exact ring that multiplies by rationals
    (Fractions, or `MPoly` in the symbolic tier); ``zero`` is that ring's zero.
    """
    acc = zero
    for slot, c in row:
        w = vector[SLOT_INDEX[slot]]
        if w:
            acc = acc + c * w
    return acc


def first_nonvanishing_row(rows: Iterable[LinearFunctional], fields: Iterable[SymField]) -> Optional[LinearFunctional]:
    """The first row that does not vanish on every field, or None.

    Each field's slot vector is read once; every row is still checked exactly.
    """
    vectors = [field.slots() for field in fields]
    zero = Fraction(0)
    for functional in rows:
        if any(_apply(functional.coeffs, values, zero) != 0 for values in vectors):
            return functional
    return None


@dataclass(frozen=True)
class ConstraintSystem:
    """Ordered constraint rows with provenance labels.

    Systems assembled from a point configuration carry it along so the
    kernel computation can hand it to downstream consumers.
    """

    rows: tuple[LinearFunctional, ...]
    config: Optional[PointConfig] = None

    def matrix(self) -> list[list[Fraction]]:
        return [r.row() for r in self.rows]

    def labels(self) -> list[str]:
        return [r.label for r in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


# The 18 regularity forms on the projective plane, in their canonical order.
_P2_FORMS: tuple[tuple[str, dict[Slot, int]], ...] = (
    ("h04", {("h", 0, 4): 1}),
    ("h13-2g04", {("h", 1, 3): 1, ("g", 0, 4): -2}),
    ("h22-2g13", {("h", 2, 2): 1, ("g", 1, 3): -2}),
    ("h31-2g22", {("h", 3, 1): 1, ("g", 2, 2): -2}),
    ("h40-2g31", {("h", 4, 0): 1, ("g", 3, 1): -2}),
    ("g40", {("g", 4, 0): 1}),
    ("f03", {("f", 0, 3): 1}),
    ("f12-h03", {("f", 1, 2): 1, ("h", 0, 3): -1}),
    ("f21+g03-h12", {("f", 2, 1): 1, ("g", 0, 3): 1, ("h", 1, 2): -1}),
    ("f30+g12-h21", {("f", 3, 0): 1, ("g", 1, 2): 1, ("h", 2, 1): -1}),
    ("g21-h30", {("g", 2, 1): 1, ("h", 3, 0): -1}),
    ("g30", {("g", 3, 0): 1}),
    ("f04", {("f", 0, 4): 1}),
    ("f13", {("f", 1, 3): 1}),
    ("f22-g04", {("f", 2, 2): 1, ("g", 0, 4): -1}),
    ("f31-g13", {("f", 3, 1): 1, ("g", 1, 3): -1}),
    ("f40-g22", {("f", 4, 0): 1, ("g", 2, 2): -1}),
    ("g31", {("g", 3, 1): 1}),
)


_P2_ROWS = tuple(
    LinearFunctional.make(f"plane:{name}", {s: Fraction(c) for s, c in coeffs.items()}) for name, coeffs in _P2_FORMS
)


def p2_constraints() -> list[LinearFunctional]:
    """The 18 linear forms whose vanishing makes a field regular on the plane."""
    return list(_P2_ROWS)


def point_constraint_coefficients(a, b, *, one=Fraction(1)):
    """Slot coefficients of the 7 blow-up conditions at the affine point (a, b).

    Works over any exact coefficient arithmetic: ``a``, ``b`` and ``one`` may
    be rationals or polynomials, which is how the symbolic verification tier
    reuses this construction.  Returns ``[(name, {slot: coeff}), ...]`` with
    the conditions in the order f, g, h, g_x, f_y, g_y - h_x, f_x - h_y.
    """
    pow_a = [one]
    pow_b = [one]
    for _ in range(4):
        pow_a.append(pow_a[-1] * a)
        pow_b.append(pow_b[-1] * b)

    def monomials(family: str):
        return [(family, i, j) for (fam, i, j) in SLOTS if fam == family]

    def eval_row(family: str) -> dict[Slot, object]:
        return {(family, i, j): pow_a[i] * pow_b[j] for _, i, j in monomials(family)}

    def dx_row(family: str) -> dict[Slot, object]:
        return {(family, i, j): pow_a[i - 1] * pow_b[j] * i for _, i, j in monomials(family) if i >= 1}

    def dy_row(family: str) -> dict[Slot, object]:
        return {(family, i, j): pow_a[i] * pow_b[j - 1] * j for _, i, j in monomials(family) if j >= 1}

    def merge(pos: dict, neg: dict) -> dict:
        out = dict(pos)
        for slot, c in neg.items():
            out[slot] = out[slot] - c if slot in out else -c
        return out

    return [
        ("f", eval_row("f")),
        ("g", eval_row("g")),
        ("h", eval_row("h")),
        ("g_x", dx_row("g")),
        ("f_y", dy_row("f")),
        ("g_y-h_x", merge(dy_row("g"), dx_row("h"))),
        ("f_x-h_y", merge(dx_row("f"), dy_row("h"))),
    ]


def _point_rows(tag: str, point: tuple[Rat, Rat]) -> list[LinearFunctional]:
    a, b = as_rat(point[0]), as_rat(point[1])
    return [LinearFunctional.make(f"{tag}:{name}", coeffs) for name, coeffs in point_constraint_coefficients(a, b)]


def blowup_point_constraints(point: tuple[Rat, Rat]) -> list[LinearFunctional]:
    """The 7 linear forms imposed by blowing up the affine point (a, b)."""
    return _point_rows(f"point({as_rat(point[0])},{as_rat(point[1])})", point)


# The 18 plane rows, then the 7 rows of each frame point (each of first
# coordinate 1): the first rows of every system, labelled by point index.
_FRAME_SYSTEM: tuple[LinearFunctional, ...] = tuple(
    p2_constraints() + [row for k, p in enumerate(FRAME, start=1) for row in _point_rows(f"p{k}", p[1:])]
)
FRAME_ROWS = len(_FRAME_SYSTEM)
# Where each elimination step of the frame starts and stops.
_FRAME_STEPS = (0, 18, 25, 32, 39, FRAME_ROWS)


def assemble_system(config: PointConfig) -> ConstraintSystem:
    """The full 18 + 7 * 5 = 53 row system: the frame rows, then the fifth point's 7."""
    return ConstraintSystem(_FRAME_SYSTEM + tuple(_point_rows("p5", config.ab)), config)


Kernel = tuple[tuple[Fraction, ...], ...]
Row = Iterable[tuple[Slot, object]]

_ZERO, _ONE = Fraction(0), Fraction(1)


def restrict_rows(rows: Iterable[Row], basis: Sequence[Sequence[Fraction]], zero=_ZERO) -> list[list]:
    """The rows as a matrix on the span of ``basis``.

    Entry (r, k) is row r applied to basis vector k, so the kernel of this
    matrix holds the weights of the combinations of the basis that the rows
    annihilate.  A row is a re-iterable collection of ``(slot, coefficient)``
    pairs over any exact ring with zero ``zero``: Fractions in the numeric
    tier, `MPoly` in the symbolic one.
    """
    return [[_apply(row, vec, zero) for vec in basis] for row in rows]


def _lift(weights: Sequence[Fraction], basis: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    out = [_ZERO] * NUM_SLOTS
    for w, vec in zip(weights, basis):
        if w:
            for k, c in enumerate(vec):
                if c:
                    out[k] += w * c
    return out


def _reduce(basis: Sequence[Sequence[Fraction]], rows: Sequence[LinearFunctional]) -> list[list[Fraction]]:
    """A basis of the slot vectors in the span of ``basis`` that ``rows`` annihilate."""
    weights = linalg.kernel(restrict_rows([r.coeffs for r in rows], basis), len(basis))
    return [_lift(w, basis) for w in weights]


@functools.cache
def frame_kernels() -> tuple[Kernel, ...]:
    """Kernels of the plane rows and of the plane rows plus each frame prefix.

    Entry k (k = 0..4) is the kernel of the plane rows and the first k frame
    points' rows, as the basis `linalg.kernel` returns for that whole matrix;
    each step solves only the next point's 7 rows restricted to the previous
    kernel.  The frame is a constant, so this runs once per process.
    """
    # Each lift is already the basis `linalg.kernel` returns for the whole
    # prefix.  That basis is the only one with each vector 1 at its own free
    # column and 0 at the other free columns, last nonzero entry at its own.
    # Lifting `linalg.kernel`'s weights through a basis of that form keeps the
    # form, and the standard basis has it, so no step re-canonicalizes.
    chain = []
    basis = tuple(tuple(_ONE if i == j else _ZERO for j in range(NUM_SLOTS)) for i in range(NUM_SLOTS))
    for start, stop in zip(_FRAME_STEPS, _FRAME_STEPS[1:]):
        # the kernels are mostly zeros: keep one zero object for them all
        basis = tuple(tuple(x or _ZERO for x in vec) for vec in _reduce(basis, _FRAME_SYSTEM[start:stop]))
        chain.append(basis)
    return tuple(chain)


def _system_kernel(rows: Sequence[LinearFunctional]) -> list[list[Fraction]]:
    """A kernel basis of a whole system: its rows past the frame, solved on the frame kernel."""
    return _reduce(frame_kernels()[-1], rows[FRAME_ROWS:])


@dataclass(frozen=True)
class SectionBasis:
    """Canonical ordered basis (H, G) of the kernel of a 53-row system."""

    H: SymField
    G: SymField
    config: PointConfig

    def pair(self) -> tuple[SymField, SymField]:
        return (self.H, self.G)


def _normalize_kernel(vectors: list[list[Fraction]]) -> list[list[int]]:
    """The reduced echelon rows of the kernel, each as its primitive integer vector."""
    out = []
    for row in linalg.rref(vectors)[0]:
        # The entries are in lowest terms and the pivot is 1, so over the lcm
        # of the denominators the row is primitive with a positive pivot.
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def kernel_basis(system: ConstraintSystem, config: Optional[PointConfig] = None) -> SectionBasis:
    """Exact kernel of the system, canonically normalized.

    The basis is not checked against the rows here: each caller does that
    once, with `first_nonvanishing_row`, and reports or raises on the result.
    Raises `SectionSpaceError` carrying the computed dimension whenever the
    kernel is not 2-dimensional.
    """
    vectors = _system_kernel(system.rows)
    if len(vectors) != 2:
        raise SectionSpaceError(f"kernel dimension is {len(vectors)}, expected 2", len(vectors))
    h_vec, g_vec = _normalize_kernel(vectors)
    config = config if config is not None else system.config
    if config is None:
        raise ValueError("kernel_basis needs a system assembled from a configuration")
    return SectionBasis(SymField.from_slots(h_vec), SymField.from_slots(g_vec), config)


def section_space_dimension(config: PointConfig, k: int) -> int:
    """Exact kernel dimension of the system with only the first k points."""
    if not 0 <= k <= 5:
        raise ValueError("k must be between 0 and 5")
    if k < 5:
        return len(frame_kernels()[k])
    return len(_system_kernel(assemble_system(config).rows))


_UV = VarTable(("u", "v"))


def chart_transport_check(field: SymField) -> bool:
    """Regularity of the field in the opposite chart of the plane.

    Transporting through x = v/u, y = 1/u and clearing denominators leaves
    three coefficient numerators in (u, v); the field extends regularly iff
    the second is divisible by u^2 and the third by u.  (The first is a
    polynomial outright for degree <= 4 input.)
    """
    f, g, h = field.f, field.g, field.h

    def gather(*pieces) -> MPoly:
        total = MPoly.zero(_UV)
        for poly, sign, v_shift in pieces:
            terms: dict[tuple[int, int], Fraction] = {}
            for (i, j), c in poly.terms.items():
                exp = (4 - i - j, i + v_shift)
                terms[exp] = terms.get(exp, Fraction(0)) + (c if sign > 0 else -c)
            total = total + MPoly(_UV, terms)
        return total

    dv2_numerator = gather((f, 1, 0), (g, 1, 2), (h, -1, 1))  # coefficient of (d/dv)^2, cleared by u^2
    dudv_numerator = gather((g * 2, 1, 1), (h, -1, 0))  # coefficient of (d/du)(d/dv), cleared by u

    def divisible_by_u(p: MPoly, k: int) -> bool:
        return all(exp[0] >= k for exp in p.terms)

    return divisible_by_u(dv2_numerator, 2) and divisible_by_u(dudv_numerator, 1)
