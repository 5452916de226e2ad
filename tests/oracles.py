"""Reference implementations that the package's faster kernels are tested against."""

import itertools
from fractions import Fraction

from dp4lag import linalg
from dp4lag.exactpoly import MPoly, as_rat, binary_quadratic_discriminant, poly_derivative, poly_eval_many
from dp4lag.levels import (
    BinaryQuadric,
    LevelsError,
    SpecialDirections,
    WitnessNode,
    _direction_pair,
    _primitive_direction,
)
from dp4lag.pencil import FRAME, ConfigError, PointConfig, QuadricPencil, _hom, _proportional, pairings
from dp4lag.sections import CHART_VARS, SLOTS, _apply
from dp4lag.symplectic import ChartVector, _chart_point


def substitute_linear(p: MPoly, mapping) -> MPoly:
    """``p`` composed with the affine images in ``mapping``, by `MPoly` arithmetic.

    Terms are grouped by the exponent of one variable at a time, and each
    group's inner sum is multiplied by the power of that variable's image
    once.  Every image lives over the same table, which is the result's.
    """
    names = p.vars.names
    target = next(iter(mapping.values())).vars
    powers: dict[tuple[int, int], MPoly] = {}

    def power(i: int, e: int) -> MPoly:
        if (i, e) not in powers:
            powers[(i, e)] = mapping[names[i]] ** e
        return powers[(i, e)]

    def compose(terms: list[tuple[tuple[int, ...], Fraction]], i: int) -> MPoly:
        if i == len(names):
            return MPoly.const(target, terms[0][1])  # one term left: its exponent is fixed
        groups: dict[int, list] = {}
        for term in terms:
            groups.setdefault(term[0][i], []).append(term)
        total = MPoly.zero(target)
        for e, group in groups.items():
            inner = compose(group, i + 1)
            total = total + (inner * power(i, e) if e else inner)
        return total

    return compose(list(p.terms.items()), 0)


def check_general_position(points) -> None:
    """Raise `ConfigError` naming the first equal pair, else the first collinear triple, of rational points."""
    for i, j in itertools.combinations(range(len(points)), 2):
        if _proportional(points[i], points[j]):
            raise ConfigError(f"points not distinct: #{i + 1} and #{j + 1}")
    for i, j, k in itertools.combinations(range(len(points)), 3):
        if linalg.det([list(points[i]), list(points[j]), list(points[k])]) == 0:
            raise ConfigError(f"general position violated: points #{i + 1}, #{j + 1}, #{k + 1} are collinear")


def mat_inverse(a: linalg.Matrix) -> linalg.Matrix:
    """The inverse read off the reduced echelon form of ``[a | I]``; raises on a singular matrix."""
    n = len(a)
    reduced, pivots = linalg.rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def frame_matrix(p1, p2, p3, p4) -> linalg.Matrix:
    """Columns lambda_i * p_i where lambda solves [p1 p2 p3] lambda = p4."""
    cols = [list(p1), list(p2), list(p3)]
    a = [[cols[j][i] for j in range(3)] for i in range(3)]
    lam = linalg.mat_vec(mat_inverse(a), list(p4))
    if any(l == 0 for l in lam):
        raise ConfigError("frame points are degenerate (three of them collinear)")
    return [[lam[j] * cols[j][i] for j in range(3)] for i in range(3)]


def normalize_config(points) -> PointConfig:
    """`pencil.normalize_config` on the rational points, with two rational matrix inverses."""
    if len(points) != 5:
        raise ConfigError(f"expected five points, got {len(points)}")
    pts = [_hom(p) for p in points]
    check_general_position(pts)
    source_frame = frame_matrix(*pts[:4])
    transform = linalg.mat_mul(frame_matrix(*FRAME), mat_inverse(source_frame))
    ordered = list(pts)
    image5 = linalg.mat_vec(transform, list(pts[4]))
    if image5[0] == 0:
        # swap the 4th and 5th roles with the triangular transform fixing the first three points
        b = image5[2] / image5[1]
        x, y, z = b, -b * b - 2 * b, Fraction(1)
        swap = [[x, y, z], [Fraction(0), x + y, Fraction(0)], [Fraction(0), Fraction(0), x + z]]
        transform = linalg.mat_mul(swap, transform)
        ordered = pts[:3] + [pts[4], pts[3]]
        image5 = linalg.mat_vec(transform, list(ordered[4]))
    return PointConfig(
        raw_points=tuple(ordered),
        transform=tuple(tuple(row) for row in transform),
        ab=(image5[1] / image5[0], image5[2] / image5[0]),
    )


def member_corank(pencil: QuadricPencil, theta) -> int:
    """The corank of the rational member ``theta Q1 - Q2``."""
    theta = as_rat(theta)
    m = [[theta * pencil.q1[i][j] - pencil.q2[i][j] for j in range(5)] for i in range(5)]
    return 5 - linalg.rank(m)


def restrict(field, x0, y0) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (f, g, h) of a field's binary quadric at a chart point, by rational evaluation."""
    return tuple(poly_eval_many((field.f, field.g, field.h), {"x": x0, "y": y0}))


def quadrics_at(basis, e1, e2, x, y):
    """The binary quadrics of the pencil member e2*H - e1*G, of H and of G at (x, y), by `restrict`."""
    f0, g0, h0 = restrict(basis.H, x, y)
    c0, d0, e0 = restrict(basis.G, x, y)
    member = BinaryQuadric(e2 * f0 - e1 * c0, e2 * h0 - e1 * e0, e2 * g0 - e1 * d0)
    return member, BinaryQuadric(f0, h0, g0), BinaryQuadric(c0, e0, d0)


def cross(p, q):
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def node_of_pairing(points, pair1, pair2):
    """The chart point where the two joins of rational points meet, or None on the line at infinity."""
    line1 = cross(points[pair1[0] - 1], points[pair1[1] - 1])
    line2 = cross(points[pair2[0] - 1], points[pair2[1] - 1])
    node = cross(line1, line2)
    if all(c == 0 for c in node):
        raise LevelsError("coincident lines in a singular fiber")
    if node[0] == 0:
        return None
    return (node[1] / node[0], node[2] / node[0])


def chart_discriminant(basis, e) -> MPoly:
    """The discriminant of the member e2*H - e1*G, from its three coefficient polynomials."""
    e1, e2 = _direction_pair(e)
    a = basis.H.f * e2 - basis.G.f * e1
    b = basis.H.g * e2 - basis.G.g * e1
    c = basis.H.h * e2 - basis.G.h * e1
    return binary_quadratic_discriminant(a, c, b)


def special_directions(basis, config) -> SpecialDirections:
    """`levels.special_directions` on the rational normalized points, by `node_of_pairing` and `restrict`."""
    points = config.normalized_points()
    directions = []
    witnesses = []
    for i in range(1, 6):
        nodes = []
        direction_i = None
        for pair1, pair2 in pairings(i):
            node = node_of_pairing(points, pair1, pair2)
            if node is None:
                continue
            f0, g0, h0 = restrict(basis.H, *node)
            c0, d0, e0 = restrict(basis.G, *node)
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


def slots(field) -> list[Fraction]:
    """A field's 45 slot values, in `sections.SLOTS` order, read coefficient by coefficient."""
    polys = {"f": field.f, "g": field.g, "h": field.h}
    return [polys[family].coefficient((i, j)) for family, i, j in SLOTS]


def evaluate(functional, field) -> Fraction:
    """A `LinearFunctional`'s primitive row applied to the field's rational slots.

    This is a positive multiple of the form the row was made from, not its
    value: only whether it vanishes, and its sign, are kept.
    """
    return _apply(functional.entries, slots(field), Fraction(0))


def chart_polynomial(field) -> MPoly:
    """``f u^2 + g v^2 + h u v`` over (x, y, u, v), by `MPoly` products."""
    u = MPoly.variable(CHART_VARS, "u")
    v = MPoly.variable(CHART_VARS, "v")
    f = field.f.with_vars(CHART_VARS)
    g = field.g.with_vars(CHART_VARS)
    h = field.h.with_vars(CHART_VARS)
    return f * u * u + g * v * v + h * u * v


def hamiltonian_frame(H, G, q):
    """`symplectic.hamiltonian_frame` from the 8 partials of the product-built chart polynomials.

    The partials are evaluated by `poly_eval_many`, over one power table of q.
    """
    point = _chart_point(q)
    partials = [poly_derivative(chart_polynomial(field), name) for field in (H, G) for name in CHART_VARS.names]
    hx, hy, hu, hv, gx, gy, gu, gv = poly_eval_many(partials, dict(zip(CHART_VARS.names, point)))
    return ChartVector(point, (-hu, -hv, hx, hy)), ChartVector(point, (-gu, -gv, gx, gy))
