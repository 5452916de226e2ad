"""Level-surface and pencil-member probes through the chart model.

A basis pair (H, G) of fields restricts at a chart point x0 to two binary
quadrics in the fiber coordinates (u, v).  Solving H = e1, G = e2 exactly
classifies the fiber over x0: four simple points for generic data, a whole
conic over the distinguished nodes paired with their own pencil direction,
and various exactly-detected degenerations in between.  Fibers with
irrational coordinates are never materialized -- reports carry discriminants
and root-field data instead, which is enough to certify counts with
multiplicity and the free involution (u, v) -> (-u, -v).

The chart discriminant of the pencil combination is the branch-curve
equation; its exact square test detects the five reducible members, whose
directions are found independently by node proportionality.

The layer runs on integers.  A chart point is taken as an integer
homogeneous point (X:Y:Z), and `SectionBasis.chart_values` gives the six
coefficients f, g, h of H and of G there, all times one positive scale
Z^4 D.  Signs, vanishing, proportionality and primitive directions read off
those ints are the true ones; only reported values divide by the scale.
The chart discriminant is a quadratic form in the direction e whose three
polynomial coefficients, `SectionBasis.discriminant_forms`, are built once
per basis as packed integer numerators over D^2.  A direction scaled to
integers takes one pass over them, and its square test runs on the
discriminant's integer numerators too (`exactpoly.perfect_square_test`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from . import linalg
from .exactpoly import (
    MPoly,
    Rat,
    as_rat,
    derivative,
    divide_by_root,
    perfect_square_test,
    poly_eval_many,
    poly_substitute_linear,
    rat_sqrt,
    univariate_gcd,
    univariate_ints,
)
from .pencil import T_VARS, PointConfig, derivative_at_roots, pairings
from .sections import PLANE_VARS, SectionBasis

__all__ = [
    "FiberStatus",
    "BinaryQuadric",
    "FiberLine",
    "FiberReport",
    "SpecialDirections",
    "WitnessNode",
    "ReducibilityResult",
    "TangencyReport",
    "LevelsError",
    "INFINITY",
    "fiber_count",
    "chart_discriminant",
    "special_directions",
    "reducibility_test",
    "branch_quadrics",
    "branch_model_ranks",
    "ebi_cubic",
    "line_tangency_check",
]

class LevelsError(ValueError):
    """Degenerate input to a level-surface probe."""


class FiberStatus(str, Enum):
    FOUR_POINTS = "four_points"
    TWO_DOUBLE = "two_double"
    WHOLE_LINE = "whole_line"
    OTHER_DEGENERATE = "other-degenerate"


@dataclass(frozen=True)
class BinaryQuadric:
    """Quadric c_u2 u^2 + c_uv uv + c_v2 v^2 with exact coefficients."""

    c_u2: Fraction
    c_uv: Fraction
    c_v2: Fraction

    def __call__(self, u: Fraction, v: Fraction) -> Fraction:
        return self.c_u2 * u * u + self.c_uv * u * v + self.c_v2 * v * v

    def is_zero(self) -> bool:
        return self.c_u2 == 0 and self.c_uv == 0 and self.c_v2 == 0

    def discriminant(self) -> Fraction:
        return self.c_uv * self.c_uv - 4 * self.c_u2 * self.c_v2


def _direction_pair(e: Sequence[Rat]) -> tuple[Fraction, Fraction]:
    e1, e2 = as_rat(e[0]), as_rat(e[1])
    if e1 == 0 and e2 == 0:
        raise LevelsError("the direction (0, 0) is not allowed")
    return e1, e2


def _integer_pair(p: Fraction, q: Fraction) -> tuple[int, int, int]:
    """Ints P, Q and the positive L = lcm of the denominators, with (p, q) = (P, Q) / L."""
    den = lcm(p.denominator, q.denominator)
    return p.numerator * (den // p.denominator), q.numerator * (den // q.denominator), den


def _quadrics_at(
    basis: SectionBasis, e1: Fraction, e2: Fraction, x: Fraction, y: Fraction
) -> tuple[BinaryQuadric, BinaryQuadric, BinaryQuadric]:
    """The binary quadrics of the pencil member e2*H - e1*G, of H and of G at (x, y).

    The values come from `SectionBasis.chart_values` at (X:Y:Z) with
    Z = lcm of the denominators of x and y, and are divided once by Z^4 D.
    """
    X, Y, Z = _integer_pair(x, y)
    scale = Z**4 * basis.chart_denominator
    f0, g0, h0, c0, d0, e0 = (Fraction(v, scale) for v in basis.chart_values(X, Y, Z))
    member = BinaryQuadric(e2 * f0 - e1 * c0, e2 * h0 - e1 * e0, e2 * g0 - e1 * d0)
    return member, BinaryQuadric(f0, h0, g0), BinaryQuadric(c0, e0, d0)


@dataclass(frozen=True)
class FiberLine:
    """Solutions of the fiber system along one root line of the direction quadric.

    ``direction`` is a primitive rational direction or None when the two
    directions are an irrational conjugate pair (then ``conjugate_quadric``
    holds the defining binary quadric).  ``radius_square`` is the exact value
    of s^2 for solutions s * direction; it is None for conjugate or dead
    lines (dead = both fields vanish along the line, so the affine fiber
    misses it).
    """

    direction: Optional[tuple[Fraction, Fraction]]
    conjugate_quadric: Optional[tuple[Fraction, Fraction, Fraction]]
    multiplicity: int
    alive: bool
    radius_square: Optional[Fraction]


@dataclass(frozen=True)
class FiberReport:
    """Exact classification of one fiber of the level-surface projection."""

    base_point: tuple[Fraction, Fraction]
    direction_e: tuple[Fraction, Fraction]
    status: FiberStatus
    solution_data: tuple[FiberLine, ...]
    involution_pairs: Optional[tuple[int, ...]]  # indices into solution_data, one per orbit


def _primitive_direction(du: Fraction, dv: Fraction) -> tuple[Fraction, Fraction]:
    prim = linalg.primitive_integer_vector([du, dv])
    return (Fraction(prim[0]), Fraction(prim[1]))


def _root_lines(q: BinaryQuadric) -> list[tuple[Optional[tuple[Fraction, Fraction]], int]]:
    """The root lines of a nonzero binary quadric through the origin, as (direction, multiplicity).

    A rational line has a primitive direction; an irrational conjugate pair
    is one entry with direction None and multiplicity 1.
    """
    F, Hq, Gq = q.c_u2, q.c_uv, q.c_v2
    if F == 0:
        if Hq == 0:  # Gq v^2: the line v = 0, twice
            return [((Fraction(1), Fraction(0)), 2)]
        return [((Fraction(1), Fraction(0)), 1), (_primitive_direction(-Gq / Hq, Fraction(1)), 1)]
    disc = q.discriminant()
    if disc == 0:
        return [(_primitive_direction(-Hq / (2 * F), Fraction(1)), 2)]
    root = rat_sqrt(disc)
    if root is None:
        return [(None, 1)]
    return [(_primitive_direction((-Hq + sign * root) / (2 * F), Fraction(1)), 1) for sign in (1, -1)]


def fiber_count(basis: SectionBasis, e: Sequence[Rat], x0: Sequence[Rat]) -> FiberReport:
    """Solve H(x0, u, v) = e1, G(x0, u, v) = e2 exactly and classify.

    Any fiber solution must lie on the zero set of the pencil quadric
    e2*H(x0) - e1*G(x0), a pair of lines through the fiber origin; on each
    root line the two equations become one value equation s^2 = rho, so
    solutions come in involution orbits {+s d, -s d} and the orbit count,
    multiplicities, and rationality data are all exactly decidable.
    """
    e1, e2 = _direction_pair(e)
    x, y = as_rat(x0[0]), as_rat(x0[1])
    if (x, y) in basis.config.affine_points():
        raise LevelsError("base point is the chart image of a blown-up point")
    pencil_q, h_quadric, g_quadric = _quadrics_at(basis, e1, e2, x, y)

    if pencil_q.is_zero():
        if h_quadric.is_zero() and g_quadric.is_zero():
            status = FiberStatus.OTHER_DEGENERATE  # all sections vanish: empty fiber
            return FiberReport((x, y), (e1, e2), status, (), ())
        return FiberReport((x, y), (e1, e2), FiberStatus.WHOLE_LINE, (), None)

    lines: list[FiberLine] = []
    orbit_lines: list[int] = []
    for direction, mult in _root_lines(pencil_q):
        if direction is None:
            conjugate = (pencil_q.c_u2, pencil_q.c_uv, pencil_q.c_v2)
            F, Hq, Gq = conjugate
            # Reduce both fields along u = t*v with F t^2 + Hq t + Gq = 0:
            # each restriction is linear in t, so vanishing is a rational test.
            alive = any(
                q.c_uv - q.c_u2 * Hq / F != 0 or q.c_v2 - q.c_u2 * Gq / F != 0 for q in (h_quadric, g_quadric)
            )
            lines.append(FiberLine(None, conjugate, mult, alive, None))
            orbits = 2  # one orbit {+s d, -s d} on each of the two lines
        else:
            alpha, beta = h_quadric(*direction), g_quadric(*direction)
            alive = not (alpha == 0 and beta == 0)
            radius = None
            if alive:
                radius = e1 / alpha if alpha != 0 else e2 / beta
                if radius == 0:  # pragma: no cover - impossible for e != 0 on a root line
                    raise ArithmeticError("zero radius on an alive line")
            lines.append(FiberLine(direction, None, mult, alive, radius))
            orbits = 1
        if alive:
            orbit_lines.extend([len(lines) - 1] * orbits)

    if not all(line.alive for line in lines):
        status = FiberStatus.OTHER_DEGENERATE
    elif lines[0].multiplicity == 2:
        status = FiberStatus.TWO_DOUBLE
    else:  # two distinct root lines, rational or conjugate, both alive: 4 simple points
        status = FiberStatus.FOUR_POINTS
    if status is FiberStatus.FOUR_POINTS and len(orbit_lines) != 2:  # pragma: no cover
        raise ArithmeticError("four-point fiber must consist of two involution orbits")
    return FiberReport((x, y), (e1, e2), status, tuple(lines), tuple(orbit_lines))


def chart_discriminant(basis: SectionBasis, e: Sequence[Rat]) -> MPoly:
    """Discriminant of the fiber quadratic as an exact polynomial in (x, y).

    This is the chart equation of the branch curve of the pencil member at
    direction e; total degree is bounded by 8 and drops to 6 for true
    section pairs because the top-degree parts cancel.  It is the quadratic
    form e2^2 P_HH + e1 e2 P_HG + e1^2 P_GG in e, whose three coefficients
    `SectionBasis.discriminant_forms` builds once per basis as integer
    numerators over D^2.  With e = (E1, E2) / L on integers, each direction
    is one pass over those numerators, divided once by D^2 L^2.
    """
    E1, E2, L = _integer_pair(*_direction_pair(e))
    den, (p_hh, p_hg, p_gg) = basis.discriminant_forms
    a, b, c = E2 * E2, E1 * E2, E1 * E1
    out = {k: a * hh + b * hg + c * gg for (k, hh), hg, gg in zip(p_hh.items(), p_hg.values(), p_gg.values())}
    return MPoly._reduced(PLANE_VARS, out, den * L * L)


@dataclass(frozen=True)
class WitnessNode:
    """A chart node certifying one special direction."""

    node: tuple[Fraction, Fraction]
    pairing: tuple[tuple[int, int], tuple[int, int]]
    direction: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class SpecialDirections:
    """The five pencil directions with reducible member, with witnesses."""

    directions: tuple[tuple[Fraction, Fraction], ...]
    witnesses: tuple[tuple[WitnessNode, ...], ...]


def _cross(p: Sequence[int], q: Sequence[int]) -> tuple[int, int, int]:
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _node_of_pairing(
    points: Sequence[tuple[int, ...]], pair1: tuple[int, int], pair2: tuple[int, int]
) -> Optional[tuple[int, int, int]]:
    """The meet of the two joins as an integer point (X, Y, Z) of the chart point (X/Z, Y/Z).

    ``points`` are integer homogeneous points (x0 : x1 : x2) with the chart
    at x0 != 0.  Returns None for a node on the line at infinity, Z = 0.
    """
    line1 = _cross(points[pair1[0] - 1], points[pair1[1] - 1])
    line2 = _cross(points[pair2[0] - 1], points[pair2[1] - 1])
    z, x, y = _cross(line1, line2)
    if z == x == y == 0:  # pragma: no cover - distinct lines always meet once
        raise LevelsError("coincident lines in a singular fiber")
    if z == 0:
        return None  # node on the line at infinity: not chart-visible
    return x, y, z


def special_directions(basis: SectionBasis, config: PointConfig) -> SpecialDirections:
    """Detect the five special directions by node proportionality.

    For each i the three chart-visible nodes of the second conic fibration
    (intersections of the joins over the pairings of the other four points)
    must restrict H and G to proportional binary quadrics; the common ratio
    is the direction, and all witnesses for one i must agree exactly.

    Everything runs on integers: each node is a cross product of the
    configuration's `PointConfig.integer_points`, and H and G are read at it
    by `SectionBasis.chart_values`.  Their one positive scale changes neither
    the 2x2 minors nor the primitive direction, so only the reported node
    becomes a pair of Fractions.
    """
    points = config.integer_points
    directions: list[tuple[Fraction, Fraction]] = []
    witnesses: list[tuple[WitnessNode, ...]] = []
    for i in range(1, 6):
        nodes: list[WitnessNode] = []
        direction_i: Optional[tuple[Fraction, Fraction]] = None
        for pair1, pair2 in pairings(i):
            meet = _node_of_pairing(points, pair1, pair2)
            if meet is None:
                continue
            f0, g0, h0, c0, d0, e0 = basis.chart_values(*meet)
            node = (Fraction(meet[0], meet[2]), Fraction(meet[1], meet[2]))
            if f0 == g0 == h0 == 0 and c0 == d0 == e0 == 0:
                raise LevelsError(f"unexpected deeper degeneracy at node {node}")
            if f0 * d0 - g0 * c0 != 0 or f0 * e0 - h0 * c0 != 0 or g0 * e0 - h0 * d0 != 0:
                raise LevelsError(f"restrictions not proportional at node {node}")
            for num, den in ((f0, c0), (g0, d0), (h0, e0)):
                if num != 0 or den != 0:
                    direction = _primitive_direction(num, den)
                    break
            if direction_i is None:
                direction_i = direction
            elif direction_i != direction:
                raise LevelsError(f"inconsistent witness directions for index {i}")
            nodes.append(WitnessNode(node, (pair1, pair2), direction))
        if direction_i is None:
            raise LevelsError(f"no chart-visible witness nodes for index {i}")
        directions.append(direction_i)
        witnesses.append(tuple(nodes))
    if len(set(directions)) != 5:
        raise LevelsError(f"special directions are not pairwise distinct: {directions}")
    return SpecialDirections(tuple(directions), tuple(witnesses))


def chart_base_curves(config: PointConfig) -> tuple[MPoly, ...]:
    """Chart equations of the eleven base curves visible in the chart.

    These are the ten joins of base-point pairs and the unique conic through
    all five points; a fiber over a point of any of them misses the solutions
    along the lifted base direction, so genericity of a sample point means
    exactly: on none of these curves.
    """
    pts = config.affine_points()
    x = MPoly.variable(PLANE_VARS, "x")
    y = MPoly.variable(PLANE_VARS, "y")
    curves = []
    for (px, py), (qx, qy) in itertools.combinations(pts, 2):
        curves.append((y - py) * (qx - px) - (x - px) * (qy - py))
    conic_monomials = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))
    rows = [[px**a * py**b for a, b in conic_monomials] for px, py in pts]
    null = linalg.kernel(rows, 6)
    if len(null) != 1:  # pragma: no cover - general position forces a unique conic
        raise LevelsError("no unique conic through the five base points")
    coeffs = linalg.primitive_integer_vector(null[0])
    curves.append(MPoly(PLANE_VARS, {m: Fraction(c) for m, c in zip(conic_monomials, coeffs) if c}))
    return tuple(curves)


def is_generic_sample(basis: SectionBasis, e: Sequence[Rat], x0: Sequence[Rat]) -> bool:
    """Exact genericity test for a fiber sample: off every base curve, and off the branch
    curve of the chosen direction (the member quadric there has a nonzero discriminant)."""
    x, y = as_rat(x0[0]), as_rat(x0[1])
    if 0 in poly_eval_many(basis.base_curves, {"x": x, "y": y}):
        return False
    # the member's discriminant, times a positive square, on integers
    e1, e2, _ = _integer_pair(*_direction_pair(e))
    f0, g0, h0, c0, d0, e0 = basis.chart_values(*_integer_pair(x, y))
    a, b, c = e2 * f0 - e1 * c0, e2 * h0 - e1 * e0, e2 * g0 - e1 * d0
    return b * b - 4 * a * c != 0


@dataclass(frozen=True)
class ReducibilityResult:
    reducible: bool
    sqrt: Optional[MPoly]
    discriminant: MPoly


def reducibility_test(basis: SectionBasis, e: Sequence[Rat]) -> ReducibilityResult:
    """Whether the chart discriminant at direction e is an exact square.

    The result carries the discriminant, so callers that go on to test
    tangency at e reuse it instead of building it again.
    """
    delta = chart_discriminant(basis, e)
    outcome = perfect_square_test(delta)
    return ReducibilityResult(outcome.is_square, outcome.sqrt, delta)


# ---------------------------------------------------------------------------
# Ambient branch model
# ---------------------------------------------------------------------------


def branch_quadrics(theta: Sequence[Rat], theta6: Rat) -> tuple[tuple[Fraction, ...], ...]:
    """Diagonals of the three branch-curve quadrics for an auxiliary parameter.

    With Q the monic sextic vanishing at the five pencil roots and theta6,
    the diagonals are 1/Q'(theta_i), theta_i/Q'(theta_i), theta_i^2/Q'(theta_i)
    restricted to the five pencil roots.
    """
    th = [as_rat(t) for t in theta]
    values = th + [as_rat(theta6)]
    if len(th) != 5 or len(set(values)) != 6:
        raise LevelsError("need six pairwise distinct parameters")
    derivs = derivative_at_roots(values, th)
    return (
        tuple(1 / d for d in derivs),
        tuple(t / d for t, d in zip(th, derivs)),
        tuple(t * t / d for t, d in zip(th, derivs)),
    )


def branch_model_ranks(theta: Sequence[Rat], theta6: Rat) -> dict:
    """Exact rank data showing the branch curve lies on the surface.

    The two diagonal quadrics cutting the surface are rational combinations
    of the three branch quadrics, so stacking all five coefficient vectors
    leaves rank 3 = rank of the branch triple alone.
    """
    th = [as_rat(t) for t in theta]
    branch = [list(row) for row in branch_quadrics(th, theta6)]
    derivs = derivative_at_roots(th, th)
    surface = [[1 / d for d in derivs], [t / d for t, d in zip(th, derivs)]]
    rank_branch, rank_stacked = linalg.rank(branch), linalg.rank(surface + branch)
    return {
        "rank_surface_pencil": linalg.rank(surface),
        "rank_branch_triple": rank_branch,
        "rank_stacked": rank_stacked,
        "branch_curve_on_surface": rank_stacked == rank_branch,
    }


# ---------------------------------------------------------------------------
# The tangency cubic of a special direction
# ---------------------------------------------------------------------------

_CUBIC_MONOMIALS: tuple[tuple[int, int, int], ...] = tuple(
    (i, j, 3 - i - j) for i in range(3, -1, -1) for j in range(3 - i, -1, -1)
)


def _cubic_eval_row(point: tuple[Fraction, ...]) -> list[Fraction]:
    x0, x1, x2 = point
    return [x0**a * x1**b * x2**c for a, b, c in _CUBIC_MONOMIALS]


def _cubic_tangent_row(at: tuple[Fraction, ...], toward: tuple[Fraction, ...]) -> list[Fraction]:
    row = []
    for a, b, c in _CUBIC_MONOMIALS:
        x0, x1, x2 = at
        grad = (
            (a * x0 ** (a - 1) * x1**b * x2**c if a else Fraction(0)),
            (b * x0**a * x1 ** (b - 1) * x2**c if b else Fraction(0)),
            (c * x0**a * x1**b * x2 ** (c - 1) if c else Fraction(0)),
        )
        row.append(sum(g * t for g, t in zip(grad, toward)))
    return row


@dataclass(frozen=True)
class EbiCubicReport:
    index: int
    dim_tangency: int
    dim_with_base_point: int
    tangency_basis: tuple[tuple[Fraction, ...], ...]
    cubic: Optional[tuple[Fraction, ...]]
    cubic_chart: Optional[MPoly]


def ebi_cubic(config: PointConfig, i: int) -> EbiCubicReport:
    """Plane cubics tangent to the i-th joins at the other four base points.

    For each k != i the cubic must pass through p_k with tangent line the
    join of p_i and p_k (8 linear conditions on the 10 coefficients); adding
    passage through p_i makes 9.  Exact solution dimensions and bases are
    reported, plus the unique projective solution of the 9-condition system
    when it exists.
    """
    if not 1 <= i <= 5:
        raise ValueError("index must be 1..5")
    points = config.normalized_points()
    rows: list[list[Fraction]] = []
    pi = points[i - 1]
    for k in range(1, 6):
        if k == i:
            continue
        pk = points[k - 1]
        rows.append(_cubic_eval_row(pk))
        rows.append(_cubic_tangent_row(pk, pi))
    kernel8 = linalg.kernel(rows, len(_CUBIC_MONOMIALS))
    rows9 = rows + [_cubic_eval_row(pi)]
    kernel9 = linalg.kernel(rows9, len(_CUBIC_MONOMIALS))
    cubic = None
    chart = None
    if len(kernel9) == 1:
        cubic = tuple(Fraction(c) for c in linalg.primitive_integer_vector(kernel9[0]))
        terms = {}
        for (a, b, c), coeff in zip(_CUBIC_MONOMIALS, cubic):
            if coeff:
                terms[(b, c)] = coeff  # chart: x0 = 1, exponents of (x, y)
        chart = MPoly(PLANE_VARS, terms)
    basis8 = tuple(tuple(Fraction(c) for c in linalg.primitive_integer_vector(v)) for v in kernel8)
    return EbiCubicReport(
        index=i,
        dim_tangency=len(kernel8),
        dim_with_base_point=len(kernel9),
        tangency_basis=basis8,
        cubic=cubic,
        cubic_chart=chart,
    )


# ---------------------------------------------------------------------------
# Tangency of the branch curve to the chart-visible lines
# ---------------------------------------------------------------------------


# The witness that a join meets the branch curve with multiplicity >= 2 at
# its point on the line at infinity.
INFINITY = "infinity"


@dataclass(frozen=True)
class TangencyReport:
    """Repeated roots of the branch curve on one join, beyond the two base points.

    ``witnesses`` holds each rational repeated parameter t, and `INFINITY`
    when the join's point at infinity is a repeated root.  ``residual_factor``
    holds the primitive integer coefficients (constant term first) of a
    repeated factor of degree >= 2 with no rational root found, else ().
    """

    pair: tuple[int, int]
    restriction_degree: int
    gcd_degree: int
    witnesses: tuple[Union[Fraction, str], ...]
    residual_factor: tuple[int, ...]

    def has_tangency_witness(self) -> bool:
        return bool(self.witnesses) or len(self.residual_factor) > 1


def line_tangency_check(basis: SectionBasis, delta: MPoly, pair: tuple[int, int]) -> TangencyReport:
    """Repeated roots of the branch curve restricted to the join of two base points.

    ``delta`` is the branch curve's chart equation: `chart_discriminant` of
    ``basis`` at the direction under test.  The join is parametrized by
    p_i + t (p_j - p_i) and taken projectively: the restriction has the root
    t = infinity with multiplicity m = deg(delta) - deg(restriction).  The
    two base points sit at t = 0 and t = 1 and are stripped from the
    repeated-root report, so any surviving repeated root witnesses a genuine
    tangency of the branch curve with the line.  ``gcd_degree`` is the degree
    of the gcd of the projective restriction with its derivative: the affine
    gcd's degree plus m - 1 when m >= 2, which is then reported as the
    witness `INFINITY`.  Affine witness parameters are returned exactly when
    rational; an irrational (or higher-degree) repeated factor is returned
    as the residual factor.  The restriction leaves `MPoly` once, as its
    integer numerators; the gcd, the stripping of t = 0 and t = 1 and the
    witness's check all run on those lists (`exactpoly.divide_by_root`).
    """
    i, j = pair
    if not (1 <= i <= 5 and 1 <= j <= 5 and i != j):
        raise ValueError("need two distinct indices in 1..5")
    affine = basis.config.affine_points()
    pi, pj = affine[i - 1], affine[j - 1]
    t = MPoly.variable(T_VARS, "t")
    image_x = t * (pj[0] - pi[0]) + pi[0]
    image_y = t * (pj[1] - pi[1]) + pi[1]
    values = univariate_ints(poly_substitute_linear(delta, {"x": image_x, "y": image_y}), "t")
    if not values:
        raise LevelsError("discriminant vanishes identically along the line")
    stripped = g = univariate_gcd(values, derivative(values))
    for root in (0, 1):
        while len(stripped) > 1 and (quotient := divide_by_root(stripped, root)) is not None:
            stripped = quotient
    witnesses: list[Union[Fraction, str]] = []
    residual: tuple[int, ...] = ()
    if len(stripped) == 2:
        # stripped is primitive with a positive lead, so its root is in lowest terms
        if divide_by_root(values, -stripped[0], stripped[1]) is None:  # pragma: no cover
            raise ArithmeticError("tangency witness does not lie on the curve")
        witnesses.append(Fraction(-stripped[0], stripped[1]))
    elif len(stripped) > 2:
        residual = tuple(stripped)
    degree, gcd_degree = len(values) - 1, len(g) - 1
    at_infinity = delta.total_degree() - degree
    if at_infinity >= 2:
        witnesses.append(INFINITY)
        gcd_degree += at_infinity - 1
    return TangencyReport(
        pair=(min(i, j), max(i, j)),
        restriction_degree=degree,
        gcd_degree=gcd_degree,
        witnesses=tuple(witnesses),
        residual_factor=residual,
    )
