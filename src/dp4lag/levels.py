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
Z^4 D.  Signs, vanishing, proportionality, square tests and primitive
directions read off those ints are the true ones, so the fiber
classification, the genericity test and the base curves build a Fraction
only for a value a report prints.
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
from math import gcd, isqrt, lcm
from typing import Optional, Sequence, Union

from . import linalg
from .exactpoly import (
    MPoly,
    Rat,
    as_rat,
    derivative,
    divide_by_root,
    perfect_square_test,
    poly_substitute_linear,
    univariate_gcd,
    univariate_ints,
)
from .pencil import T_VARS, PointConfig, derivative_at_roots, pairings
from .sections import PLANE_VARS, SectionBasis

__all__ = [
    "FiberStatus",
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


def _direction_pair(e: Sequence[Rat]) -> tuple[Fraction, Fraction]:
    e1, e2 = as_rat(e[0]), as_rat(e[1])
    if e1 == 0 and e2 == 0:
        raise LevelsError("the direction (0, 0) is not allowed")
    return e1, e2


def _integer_pair(p: Fraction, q: Fraction) -> tuple[int, int, int]:
    """Ints P, Q and the positive L = lcm of the denominators, with (p, q) = (P, Q) / L."""
    den = lcm(p.denominator, q.denominator)
    return p.numerator * (den // p.denominator), q.numerator * (den // q.denominator), den


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


def _primitive_pair(p: int, q: int) -> tuple[int, int]:
    """The primitive multiple of (p, q) != (0, 0) with a positive lead."""
    g = gcd(p, q)
    return (p // g, q // g) if p > 0 or (p == 0 and q > 0) else (-p // g, -q // g)


def _root_lines(a: int, b: int, c: int) -> list[tuple[Optional[tuple[int, int]], int]]:
    """The root lines of the nonzero binary quadric a u^2 + b uv + c v^2, as (direction, multiplicity).

    A rational line has a primitive integer direction; an irrational
    conjugate pair is one entry with direction None and multiplicity 1.
    """
    if a == 0:
        if b == 0:  # c v^2: the line v = 0, twice
            return [((1, 0), 2)]
        return [((1, 0), 1), (_primitive_pair(-c, b), 1)]
    disc = b * b - 4 * a * c
    if disc == 0:
        return [(_primitive_pair(-b, 2 * a), 2)]
    root = isqrt(disc) if disc > 0 else -1
    if root * root != disc:
        return [(None, 1)]
    return [(_primitive_pair(-b + sign * root, 2 * a), 1) for sign in (1, -1)]


def fiber_count(basis: SectionBasis, e: Sequence[Rat], x0: Sequence[Rat]) -> FiberReport:
    """Solve H(x0, u, v) = e1, G(x0, u, v) = e2 exactly and classify.

    Any fiber solution must lie on the zero set of the pencil quadric
    e2*H(x0) - e1*G(x0), a pair of lines through the fiber origin; on each
    root line the two equations become one value equation s^2 = rho, so
    solutions come in involution orbits {+s d, -s d} and the orbit count,
    multiplicities, and rationality data are all exactly decidable.

    All of it runs on ints: f, g, h of H and c, d, k of G at x0, read off
    `SectionBasis.chart_values`, share the positive scale S = Z^4 D, and with
    e = (E1, E2) / L the member is (E2 f - E1 c, E2 h - E1 k, E2 g - E1 d)
    times S L.  Its root lines come from `isqrt` of its discriminant; a
    conjugate pair is alive when a 2x2 minor of it with H's or G's quadric is
    nonzero.  Only reported directions, radii and quadrics become Fractions.
    """
    e1, e2 = _direction_pair(e)
    x, y = as_rat(x0[0]), as_rat(x0[1])
    if (x, y) in basis.config.affine_points():
        raise LevelsError("base point is the chart image of a blown-up point")
    X, Y, Z = _integer_pair(x, y)
    E1, E2, L = _integer_pair(e1, e2)
    f, g, h, c, d, k = basis.chart_values(X, Y, Z)
    a_m, b_m, c_m = E2 * f - E1 * c, E2 * h - E1 * k, E2 * g - E1 * d

    if a_m == b_m == c_m == 0:
        if f == g == h == c == d == k == 0:
            status = FiberStatus.OTHER_DEGENERATE  # all sections vanish: empty fiber
            return FiberReport((x, y), (e1, e2), status, (), ())
        return FiberReport((x, y), (e1, e2), FiberStatus.WHOLE_LINE, (), None)

    scale = Z**4 * basis.chart_denominator
    lines: list[FiberLine] = []
    orbit_lines: list[int] = []
    for direction, mult in _root_lines(a_m, b_m, c_m):
        if direction is None:
            # Reduce both fields along u = t*v with a_m t^2 + b_m t + c_m = 0:
            # each restriction is linear in t, so vanishing is a minor test.
            alive = any(qh * a_m != qf * b_m or qg * a_m != qf * c_m for qf, qh, qg in ((f, h, g), (c, k, d)))
            conjugate = tuple(Fraction(v, scale * L) for v in (a_m, b_m, c_m))
            lines.append(FiberLine(None, conjugate, mult, alive, None))
            orbits = 2  # one orbit {+s d, -s d} on each of the two lines
        else:
            p, q = direction
            alpha, beta = f * p * p + h * p * q + g * q * q, c * p * p + k * p * q + d * q * q
            alive = not (alpha == 0 and beta == 0)
            radius = None
            if alive:
                radius = Fraction(E1 * scale, L * alpha) if alpha != 0 else Fraction(E2 * scale, L * beta)
                if radius == 0:  # pragma: no cover - impossible for e != 0 on a root line
                    raise ArithmeticError("zero radius on an alive line")
            lines.append(FiberLine((Fraction(p), Fraction(q)), None, mult, alive, radius))
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
    the 2x2 minors nor the primitive direction, so only the reported nodes
    and directions become Fractions.
    """
    points = config.integer_points
    directions: list[tuple[Fraction, Fraction]] = []
    witnesses: list[tuple[WitnessNode, ...]] = []
    for i in range(1, 6):
        found: list[tuple[tuple[int, int, int], tuple[tuple[int, int], tuple[int, int]]]] = []
        direction_i: Optional[tuple[int, int]] = None
        for pair1, pair2 in pairings(i):
            meet = _node_of_pairing(points, pair1, pair2)
            if meet is None:
                continue
            f0, g0, h0, c0, d0, e0 = basis.chart_values(*meet)
            if f0 == g0 == h0 == 0 and c0 == d0 == e0 == 0:
                raise LevelsError(f"unexpected deeper degeneracy at node {_node(meet)}")
            if f0 * d0 - g0 * c0 != 0 or f0 * e0 - h0 * c0 != 0 or g0 * e0 - h0 * d0 != 0:
                raise LevelsError(f"restrictions not proportional at node {_node(meet)}")
            direction = next(_primitive_pair(n, m) for n, m in ((f0, c0), (g0, d0), (h0, e0)) if n != 0 or m != 0)
            if direction_i is None:
                direction_i = direction
            elif direction_i != direction:
                raise LevelsError(f"inconsistent witness directions for index {i}")
            found.append((meet, (pair1, pair2)))
        if direction_i is None:
            raise LevelsError(f"no chart-visible witness nodes for index {i}")
        reported = (Fraction(direction_i[0]), Fraction(direction_i[1]))
        directions.append(reported)
        witnesses.append(tuple(WitnessNode(_node(meet), pairing, reported) for meet, pairing in found))
    if len(set(directions)) != 5:
        raise LevelsError(f"special directions are not pairwise distinct: {directions}")
    return SpecialDirections(tuple(directions), tuple(witnesses))


def _node(meet: tuple[int, int, int]) -> tuple[Fraction, Fraction]:
    return Fraction(meet[0], meet[2]), Fraction(meet[1], meet[2])


def chart_base_curves(config: PointConfig) -> tuple[tuple[int, ...], ...]:
    """The eleven base curves visible in the chart, as primitive integer forms.

    These are the ten joins of base-point pairs and the unique conic through
    all five points; a fiber over a point of any of them misses the solutions
    along the lifted base direction, so genericity of a sample point means
    exactly: on none of these curves.  In the coordinates (x0 : x1 : x2) of
    `PointConfig.integer_points` (the chart is x0 = 1), a join is the cross
    product (c0, c1, c2) of its points.  The conic is its coefficients of
    x1^2, x1 x2, x2^2, x0 x1, x0 x2 and x0^2, primitive with a positive lead.
    """
    points = config.integer_points
    curves = [_cross(p, q) for p, q in itertools.combinations(points, 2)]
    rows = [[x1 * x1, x1 * x2, x2 * x2, x0 * x1, x0 * x2, x0 * x0] for x0, x1, x2 in points]
    null = linalg.integer_kernel(rows, 6)
    if len(null) != 1:  # pragma: no cover - general position forces a unique conic
        raise LevelsError("no unique conic through the five base points")
    curves.append(tuple(linalg.primitive_integer_vector(null[0])))
    return tuple(curves)


def is_generic_sample(basis: SectionBasis, e: Sequence[Rat], x0: Sequence[Rat]) -> bool:
    """Exact genericity test for a fiber sample: off every base curve, and off the branch
    curve of the chosen direction (the member quadric there has a nonzero discriminant).

    Both tests run on the ints of x0 = (X/Z, Y/Z): a curve's form at
    (Z : X : Y), and the discriminant of the member read off
    `SectionBasis.chart_values`.  Scaling changes neither whether they vanish.
    """
    X, Y, Z = _integer_pair(as_rat(x0[0]), as_rat(x0[1]))
    *joins, (c20, c11, c02, c10, c01, c00) = basis.base_curves
    if any(a * Z + b * X + c * Y == 0 for a, b, c in joins):
        return False
    if (c20 * X + c11 * Y + c10 * Z) * X + (c02 * Y + c01 * Z) * Y + c00 * Z * Z == 0:
        return False
    e1, e2, _ = _integer_pair(*_direction_pair(e))
    f0, g0, h0, c0, d0, e0 = basis.chart_values(X, Y, Z)
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
