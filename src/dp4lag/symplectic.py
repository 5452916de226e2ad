"""Poisson bracket, Hamiltonian frames, and involutivity certificates.

For two fiberwise-quadratic functions H, G on the cotangent chart the
bracket expression

    R = H_y G_v - H_v G_y + H_x G_u - H_u G_x

is computed as an exact polynomial in (x, y, u, v).  The fibration defined
by the pair is Lagrangian precisely when R vanishes identically for a basis
pair, which the certificate here establishes by exact cancellation -- not
numerically, and with redundant pointwise spot checks on top.

A symbolic tier re-runs the kernel computation with the fifth base point
(a, b) kept as polynomial indeterminates, proving the vanishing of R for
every configuration at once away from an explicitly reported degeneracy
locus.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from . import linalg
from .exactpoly import MPoly, Rat, VarTable, as_rat, poly_derivative, poly_eval
from .pencil import PointConfig
from .sections import (
    CHART_VARS,
    NUM_SLOTS,
    PLANE_MONOMIALS,
    SLOTS,
    SLOT_INDEX,
    SectionBasis,
    SymField,
    frame_kernels,
    point_constraint_coefficients,
    restrict_rows,
)

__all__ = [
    "ChartVector",
    "InvolutivityCertificate",
    "SymbolicInvolutivity",
    "poisson_bracket_chart",
    "poisson_R",
    "hamiltonian_frame",
    "omega_pairing",
    "involutivity_certificate",
    "symbolic_involutivity",
]

ChartPoint = tuple[Fraction, Fraction, Fraction, Fraction]


def _bracket(h_partials: Sequence[MPoly], g_partials: Sequence[MPoly]) -> MPoly:
    """R from the x, y, u and v partials of the two chart functions."""
    hx, hy, hu, hv = h_partials
    gx, gy, gu, gv = g_partials
    return hy * gv - hv * gy + hx * gu - hu * gx


def poisson_bracket_chart(hp: MPoly, gp: MPoly) -> MPoly:
    """Bracket polynomial of two chart functions over any table containing x,y,u,v."""
    for name in CHART_VARS.names:
        if name not in hp.vars:
            raise ValueError(f"chart variable {name!r} missing from the polynomial ring")
    names = CHART_VARS.names
    return _bracket([poly_derivative(hp, n) for n in names], [poly_derivative(gp, n) for n in names])


def poisson_R(H: SymField, G: SymField) -> MPoly:
    """The bracket expression of two fields as a polynomial in (x, y, u, v), from their `chart_partials`."""
    return _bracket(H.chart_partials, G.chart_partials)


@dataclass(frozen=True)
class ChartVector:
    """Exact tangent vector at an explicit cotangent-chart point."""

    base_point: ChartPoint
    components: tuple[Fraction, Fraction, Fraction, Fraction]


def _chart_point(q: Sequence[Rat]) -> ChartPoint:
    if len(q) != 4:
        raise ValueError("chart points have four coordinates (x, y, u, v)")
    return tuple(as_rat(c) for c in q)  # type: ignore[return-value]


def hamiltonian_frame(H: SymField, G: SymField, q: Sequence[Rat]) -> tuple[ChartVector, ChartVector]:
    """The pair of Hamiltonian tangent vectors of (H, G) at a chart point.

    Both vectors use the same sign convention, A = (-H_u, -H_v, H_x, H_y),
    which is the one making ``omega(A, B)`` equal the bracket expression at q
    for arbitrary fields (flipping B's overall sign would flip that identity's
    sign without changing any involutivity verdict).

    The partials come from each field's `SymField.plane_table`, never from
    its chart polynomial: with x = a/p and y = b/r, every plane value is an
    integer over D p^4 r^4, read off one table of the powers a^i p^(4-i) and
    b^j r^(4-j).  Then, with u = c/s and v = d/t,
    H_x = f_x u^2 + g_x v^2 + h_x uv (and H_y alike) is an integer over
    D p^4 r^4 s^2 t^2, and H_u = 2 f u + h v and H_v = 2 g v + h u are
    integers over D p^4 r^4 s t.
    """
    point = _chart_point(q)
    x, y, u, v = point
    a, p, b, r = x.numerator, x.denominator, y.numerator, y.denominator
    c, s, d, t = u.numerator, u.denominator, v.numerator, v.denominator
    xs = [a**i * p ** (4 - i) for i in range(5)]
    ys = [b**j * r ** (4 - j) for j in range(5)]
    uu, vv, uv = c * c * t * t, d * d * s * s, c * d * s * t
    ct, ds = c * t, d * s
    scale = p**4 * r**4
    values = [xs[i] * ys[j] for i, j in PLANE_MONOMIALS]
    vectors = []
    for field in (H, G):
        den, rows = field.plane_table
        f, g, h, fx, fy, gx, gy, hx, hy = (sum(map(mul, row, values)) for row in rows)
        fiber_den = den * scale * s * t
        grad_den = fiber_den * s * t
        components = (
            Fraction(-(2 * f * ct + h * ds), fiber_den),
            Fraction(-(2 * g * ds + h * ct), fiber_den),
            Fraction(fx * uu + gx * vv + hx * uv, grad_den),
            Fraction(fy * uu + gy * vv + hy * uv, grad_den),
        )
        vectors.append(ChartVector(point, components))
    return vectors[0], vectors[1]


def omega_pairing(a: ChartVector, b: ChartVector) -> Fraction:
    """Canonical symplectic pairing dx^du + dy^dv of two vectors at one point."""
    if a.base_point != b.base_point:
        raise ValueError("vectors must be attached to the same chart point")
    ax, ay, au, av = a.components
    bx, by, bu, bv = b.components
    return ax * bu - au * bx + ay * bv - av * by


@dataclass(frozen=True)
class InvolutivityCertificate:
    """Exact involutivity evidence for one configuration."""

    basis: SectionBasis
    R_poly: MPoly
    is_zero: bool
    sample_checks: tuple[tuple[ChartPoint, Fraction], ...]


def _sample_points(config: PointConfig, count: int, seed: int) -> list[ChartPoint]:
    rng = random.Random(seed)
    forbidden = set(config.affine_points())
    points: list[ChartPoint] = []
    while len(points) < count:
        x = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        y = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        if (x, y) in forbidden:
            continue
        u = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        v = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        points.append((x, y, u, v))
    return points


def involutivity_certificate(basis: SectionBasis, samples: int = 10, seed: int = 0) -> InvolutivityCertificate:
    """Certify that the bracket of a verified kernel basis vanishes.

    ``basis`` comes from `sections.kernel_basis`, checked by its caller
    against every constraint row, so no kernel is solved here.  The
    certificate records the bracket polynomial itself (vanishing is an exact
    statement about its term map) plus redundant sample evaluations computed
    through the frame pairing rather than the polynomial, so the two routes
    check each other.  The routes share only the fields' f, g and h: the
    polynomial is built from `SymField.chart_partials`, the frame from
    `SymField.plane_table`.  A disagreement at any sample raises
    `ArithmeticError`.
    """
    r_poly = poisson_R(basis.H, basis.G)
    checks = []
    for q in _sample_points(basis.config, samples, seed):
        a, b = hamiltonian_frame(basis.H, basis.G, q)
        via_pairing = omega_pairing(a, b)
        via_poly = poly_eval(r_poly, dict(zip(CHART_VARS.names, q)))
        if via_pairing != via_poly:
            raise ArithmeticError("frame pairing disagrees with the bracket polynomial")
        checks.append((q, via_poly))
    return InvolutivityCertificate(
        basis=basis,
        R_poly=r_poly,
        is_zero=r_poly.is_zero(),
        sample_checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# Symbolic tier: the fifth point stays an indeterminate pair (a, b)
# ---------------------------------------------------------------------------

AB_VARS = VarTable(("a", "b"))
SYMBOLIC_CHART_VARS = VarTable(("x", "y", "u", "v", "a", "b"))
# The (u, v) exponent each slot family carries in the chart polynomial.
_UV_EXPONENT = {"f": (2, 0), "g": (0, 2), "h": (1, 1)}


@dataclass(frozen=True)
class SymbolicInvolutivity:
    """Involutivity of the kernel pair proved with (a, b) symbolic."""

    reduced_dimension: int
    H_chart: MPoly
    G_chart: MPoly
    R_poly: MPoly
    is_zero: bool
    degeneracy_locus: MPoly

    def specialize_basis(self, a: Rat, b: Rat) -> tuple[SymField, SymField]:
        """Evaluate the symbolic kernel pair at a concrete (a, b)."""
        point = {"a": as_rat(a), "b": as_rat(b)}

        def specialize(chart: MPoly) -> SymField:
            values = {}
            for exp, c in chart.terms.items():
                ix, iy, iu, iv, ia, ib = exp
                key = (ix, iy, iu, iv)
                values[key] = values.get(key, Fraction(0)) + c * point["a"] ** ia * point["b"] ** ib
            slots = [Fraction(0)] * NUM_SLOTS
            for (ix, iy, iu, iv), c in values.items():
                if c == 0:
                    continue
                family = {(2, 0): "f", (0, 2): "g", (1, 1): "h"}[(iu, iv)]
                slots[SLOT_INDEX[(family, ix, iy)]] = c
            return SymField.from_slots(slots)

        return specialize(self.H_chart), specialize(self.G_chart)


def symbolic_involutivity() -> SymbolicInvolutivity:
    """Prove R = 0 with the fifth point symbolic.

    The 46 constraint rows that do not involve (a, b) are eliminated first
    over the rationals: this is the numeric tier's `frame_kernels`.  The
    seven symbolic rows then act on the small reduced space and their exact
    polynomial kernel is computed fraction-free.  The product of elimination
    pivots is reported as the degeneracy locus: the parametrized kernel pair
    is valid wherever it does not vanish.  A locus that vanishes identically
    is reported too, not raised: the `verify` and `pipeline` checks decide it.
    """
    reduced_basis = frame_kernels()[-1]
    d = len(reduced_basis)

    a_poly = MPoly.variable(AB_VARS, "a")
    b_poly = MPoly.variable(AB_VARS, "b")
    one = MPoly.const(AB_VARS, 1)
    symbolic_rows = point_constraint_coefficients(a_poly, b_poly, one=one)
    symbolic_entries = [[(SLOT_INDEX[slot], c) for slot, c in coeffs.items()] for _, coeffs in symbolic_rows]
    reduced_matrix = restrict_rows(symbolic_entries, reduced_basis, MPoly.zero(AB_VARS))
    vectors, pivot_product, _ = linalg.mpoly_kernel(reduced_matrix)
    if len(vectors) != 2:
        raise ArithmeticError(f"symbolic kernel has dimension {len(vectors)}, expected 2")

    def lift(weights: list[MPoly]) -> MPoly:
        """Assemble the chart polynomial f u^2 + g v^2 + h uv with (a, b) symbolic."""
        terms: dict[tuple[int, ...], Fraction] = {}
        for w, vec in zip(weights, reduced_basis):
            slots = [(slot, coeff) for slot, coeff in zip(SLOTS, vec) if coeff]
            for ((family, i, j), coeff), ((ea, eb), c) in itertools.product(slots, w.terms.items()):
                exp = (i, j, *_UV_EXPONENT[family], ea, eb)
                terms[exp] = terms.get(exp, 0) + coeff * c
        return MPoly(SYMBOLIC_CHART_VARS, terms)

    h_chart = lift(vectors[0])
    g_chart = lift(vectors[1])
    r_poly = poisson_bracket_chart(h_chart, g_chart)
    return SymbolicInvolutivity(
        reduced_dimension=d,
        H_chart=h_chart,
        G_chart=g_chart,
        R_poly=r_poly,
        is_zero=r_poly.is_zero(),
        degeneracy_locus=pivot_product,
    )
