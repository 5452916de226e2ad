"""Reference implementations that the package's faster kernels are tested against."""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from dp4lag import linalg
from dp4lag.exactpoly import (
    MPoly,
    as_rat,
    derivative,
    exact_divide,
    poly_derivative,
    poly_eval_many,
    rat_sqrt,
    to_text,
    univariate_gcd,
    univariate_ints,
)
from dp4lag.levels import (
    FiberLine,
    FiberReport,
    FiberStatus,
    LevelsError,
    SpecialDirections,
    WitnessNode,
    _direction_pair,
)
from dp4lag.pencil import (
    FRAME,
    T_VARS,
    ConfigError,
    PencilError,
    PointConfig,
    QuadricPencil,
    _hom,
    _proportional,
    derivative_at_roots,
    pairings,
)
from dp4lag.sections import CHART_VARS, PLANE_VARS, SLOTS, _apply
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


def binary_quadratic_discriminant(f0: MPoly, h0: MPoly, g0: MPoly) -> MPoly:
    """Discriminant ``h0**2 - 4*f0*g0`` of the binary quadric f0*t^2 + h0*t + g0."""
    if f0.vars != h0.vars or f0.vars != g0.vars:
        raise ValueError("discriminant inputs must share a variable table")
    return h0 * h0 - f0 * g0 * 4


def coefficient_poly(p: MPoly, var: str, k: int) -> MPoly:
    """Coefficient of ``var**k`` in ``p``, as a polynomial with ``var`` struck out."""
    i = p.vars.index(var)
    return MPoly(p.vars, {exp[:i] + (0,) + exp[i + 1 :]: c for exp, c in p.terms.items() if exp[i] == k})


def poly_sqrt(p: MPoly):
    """A square root of ``p``, or None, by recursion on the coefficients of its last variable present.

    The root's coefficients come top down from `exact_divide` and `MPoly`
    products, and the candidate is re-verified by squaring it.
    """
    if p.is_zero():
        return p
    present = p.variables_present()
    if not present:
        nums, den = p.numerators()
        root = rat_sqrt(Fraction(nums[(0,) * len(p.vars)], den))
        return None if root is None else MPoly.const(p.vars, root)
    var = present[-1]
    d = p.degree_in(var)
    if d % 2:
        return None
    half = d // 2
    coeffs = [coefficient_poly(p, var, k) for k in range(d + 1)]
    lead = poly_sqrt(coeffs[d])
    if lead is None:
        return None
    s = [None] * (half + 1)
    s[half] = lead
    two_lead = lead * 2
    for j in range(half - 1, -1, -1):
        # coefficient of var^(half+j) in S^2 is 2*s_j*s_half plus the known
        # convolution of the already determined coefficients
        acc = coeffs[half + j]
        for k in range(j + 1, half):
            acc = acc - s[k] * s[half + j - k]
        q = exact_divide(acc, two_lead)
        if q is None:
            return None
        s[j] = q
    v = MPoly.variable(p.vars, var)
    candidate = MPoly.zero(p.vars)
    for k, sk in enumerate(s):
        candidate = candidate + sk * v**k
    if candidate * candidate != p:
        return None
    return candidate


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


def standard_dp4_quadrics(theta) -> QuadricPencil:
    """`pencil.standard_dp4_quadrics` with the diagonals 1 / P'(theta_i) and theta_i / P'(theta_i) from `derivative_at_roots`."""
    th = [as_rat(t) for t in theta]
    if len(th) != 5:
        raise PencilError("exactly five characteristic roots are required")
    if len(set(th)) != 5:
        raise PencilError(f"characteristic roots must be distinct, got {th}")
    weights = derivative_at_roots(th, th)
    zero = Fraction(0)
    q1 = tuple(tuple(1 / weights[i] if i == j else zero for j in range(5)) for i in range(5))
    q2 = tuple(tuple(th[i] / weights[i] if i == j else zero for j in range(5)) for i in range(5))
    return QuadricPencil.make(q1, q2)


def characteristic_polynomial(pencil: QuadricPencil) -> MPoly:
    """``det(t Q1 - Q2)`` by `linalg.mpoly_det` of the rational rows, with the same degree and squarefree checks."""
    t = MPoly.variable(T_VARS, "t")
    rows = [
        [t * pencil.q1[i][j] - MPoly.const(T_VARS, pencil.q2[i][j]) for j in range(5)]
        for i in range(5)
    ]
    p = linalg.mpoly_det(rows)
    if p.degree_in("t") != 5:
        raise PencilError("characteristic polynomial must have degree 5")
    ints = univariate_ints(p, "t")
    g = univariate_gcd(ints, derivative(ints))
    if len(g) > 1:
        monic = MPoly(T_VARS, {(k,): Fraction(c, g[-1]) for k, c in enumerate(g)})
        raise PencilError(f"pencil not generic: repeated characteristic roots (gcd {to_text(monic)})")
    return p


def member_corank(pencil: QuadricPencil, theta) -> int:
    """The corank of the rational member ``theta Q1 - Q2``."""
    theta = as_rat(theta)
    m = [[theta * pencil.q1[i][j] - pencil.q2[i][j] for j in range(5)] for i in range(5)]
    return 5 - linalg.rank(m)


def restrict(field, x0, y0) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (f, g, h) of a field's binary quadric at a chart point, by rational evaluation."""
    return tuple(poly_eval_many((field.f, field.g, field.h), {"x": x0, "y": y0}))


@dataclass(frozen=True)
class BinaryQuadric:
    """Quadric c_u2 u^2 + c_uv uv + c_v2 v^2 with exact coefficients."""

    c_u2: Fraction
    c_uv: Fraction
    c_v2: Fraction

    def __call__(self, u, v):
        return self.c_u2 * u * u + self.c_uv * u * v + self.c_v2 * v * v

    def is_zero(self) -> bool:
        return self.c_u2 == 0 and self.c_uv == 0 and self.c_v2 == 0

    def discriminant(self) -> Fraction:
        return self.c_uv * self.c_uv - 4 * self.c_u2 * self.c_v2


def primitive_direction(du, dv) -> tuple[Fraction, Fraction]:
    """The primitive integer direction of a rational pair, with positive lead, as Fractions."""
    prim = linalg.primitive_integer_vector([du, dv])
    return (Fraction(prim[0]), Fraction(prim[1]))


def quadrics_at(basis, e1, e2, x, y):
    """The binary quadrics of the pencil member e2*H - e1*G, of H and of G at (x, y), by `restrict`."""
    f0, g0, h0 = restrict(basis.H, x, y)
    c0, d0, e0 = restrict(basis.G, x, y)
    member = BinaryQuadric(e2 * f0 - e1 * c0, e2 * h0 - e1 * e0, e2 * g0 - e1 * d0)
    return member, BinaryQuadric(f0, h0, g0), BinaryQuadric(c0, e0, d0)


def root_lines(q):
    """The root lines of a nonzero binary quadric through the origin, as (direction, multiplicity).

    A rational line has a primitive direction; an irrational conjugate pair
    is one entry with direction None and multiplicity 1.
    """
    F, Hq, Gq = q.c_u2, q.c_uv, q.c_v2
    if F == 0:
        if Hq == 0:  # Gq v^2: the line v = 0, twice
            return [((Fraction(1), Fraction(0)), 2)]
        return [((Fraction(1), Fraction(0)), 1), (primitive_direction(-Gq / Hq, Fraction(1)), 1)]
    disc = q.discriminant()
    if disc == 0:
        return [(primitive_direction(-Hq / (2 * F), Fraction(1)), 2)]
    root = rat_sqrt(disc)
    if root is None:
        return [(None, 1)]
    return [(primitive_direction((-Hq + sign * root) / (2 * F), Fraction(1)), 1) for sign in (1, -1)]


def fiber_count(basis, e, x0) -> FiberReport:
    """`levels.fiber_count` on the rational quadrics of `quadrics_at`."""
    e1, e2 = _direction_pair(e)
    x, y = as_rat(x0[0]), as_rat(x0[1])
    if (x, y) in basis.config.affine_points():
        raise LevelsError("base point is the chart image of a blown-up point")
    pencil_q, h_quadric, g_quadric = quadrics_at(basis, e1, e2, x, y)

    if pencil_q.is_zero():
        if h_quadric.is_zero() and g_quadric.is_zero():
            return FiberReport((x, y), (e1, e2), FiberStatus.OTHER_DEGENERATE, (), ())
        return FiberReport((x, y), (e1, e2), FiberStatus.WHOLE_LINE, (), None)

    lines = []
    orbit_lines = []
    for direction, mult in root_lines(pencil_q):
        if direction is None:
            conjugate = (pencil_q.c_u2, pencil_q.c_uv, pencil_q.c_v2)
            F, Hq, Gq = conjugate
            # Reduce both fields along u = t*v with F t^2 + Hq t + Gq = 0:
            # each restriction is linear in t, so vanishing is a rational test.
            alive = any(
                q.c_uv - q.c_u2 * Hq / F != 0 or q.c_v2 - q.c_u2 * Gq / F != 0 for q in (h_quadric, g_quadric)
            )
            lines.append(FiberLine(None, conjugate, mult, alive, None))
            orbits = 2
        else:
            alpha, beta = h_quadric(*direction), g_quadric(*direction)
            alive = not (alpha == 0 and beta == 0)
            radius = None
            if alive:
                radius = e1 / alpha if alpha != 0 else e2 / beta
            lines.append(FiberLine(direction, None, mult, alive, radius))
            orbits = 1
        if alive:
            orbit_lines.extend([len(lines) - 1] * orbits)

    if not all(line.alive for line in lines):
        status = FiberStatus.OTHER_DEGENERATE
    elif lines[0].multiplicity == 2:
        status = FiberStatus.TWO_DOUBLE
    else:
        status = FiberStatus.FOUR_POINTS
    return FiberReport((x, y), (e1, e2), status, tuple(lines), tuple(orbit_lines))


def chart_base_curves(config) -> tuple[MPoly, ...]:
    """The ten joins and the conic through the five points as chart polynomials, by `MPoly` arithmetic and `linalg.kernel`."""
    pts = config.affine_points()
    x = MPoly.variable(PLANE_VARS, "x")
    y = MPoly.variable(PLANE_VARS, "y")
    curves = []
    for (px, py), (qx, qy) in itertools.combinations(pts, 2):
        curves.append((y - py) * (qx - px) - (x - px) * (qy - py))
    conic_monomials = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))
    rows = [[px**a * py**b for a, b in conic_monomials] for px, py in pts]
    null = linalg.kernel(rows, 6)
    if len(null) != 1:
        raise LevelsError("no unique conic through the five base points")
    coeffs = linalg.primitive_integer_vector(null[0])
    curves.append(MPoly(PLANE_VARS, {m: Fraction(c) for m, c in zip(conic_monomials, coeffs) if c}))
    return tuple(curves)


def is_generic_sample(basis, e, x0) -> bool:
    """Off every `chart_base_curves` polynomial, by `poly_eval_many`, and with a nonzero rational member discriminant."""
    x, y = as_rat(x0[0]), as_rat(x0[1])
    if 0 in poly_eval_many(chart_base_curves(basis.config), {"x": x, "y": y}):
        return False
    e1, e2 = _direction_pair(e)
    return quadrics_at(basis, e1, e2, x, y)[0].discriminant() != 0


def p1(point) -> tuple[Fraction, Fraction]:
    a, b = as_rat(point[0]), as_rat(point[1])
    if a == 0 and b == 0:
        raise ValueError("(0:0) is not a point of the projective line")
    return (a, b)


def p1_det(p, q) -> Fraction:
    return p[0] * q[1] - p[1] * q[0]


def cross_ratio(p1_, p2_, p3_, p4_) -> tuple[Fraction, Fraction]:
    """The cross ratio of four points of the projective line as a pair of Fractions."""
    a, b, c, d = p1(p1_), p1(p2_), p1(p3_), p1(p4_)
    return (p1_det(a, c) * p1_det(b, d), p1_det(a, d) * p1_det(b, c))


def mobius_from_pairs(pairs):
    """The Moebius map through three point pairs: the rational `linalg.kernel` vector, 1 at its free column."""
    if len(pairs) != 3:
        raise ValueError("a Moebius map is determined by exactly three point pairs")
    rows = []
    for source, target in pairs:
        (s0, s1), (t0, t1) = p1(source), p1(target)
        rows.append([t1 * s0, t1 * s1, -t0 * s0, -t0 * s1])
    null = linalg.kernel(rows, 4)
    if len(null) != 1:
        raise ValueError(f"degenerate point pairs (solution space dimension {len(null)})")
    alpha, beta, gamma, delta = null[0]
    if alpha * delta - beta * gamma == 0:
        raise ValueError("point pairs do not determine an invertible map")
    return ((alpha, beta), (gamma, delta))


def mobius_apply(m, point) -> tuple[Fraction, Fraction]:
    (a, b), (c, d) = ((as_rat(x) for x in row) for row in m)
    p0, p1_ = p1(point)
    return (a * p0 + b * p1_, c * p0 + d * p1_)


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


def meet_of(node) -> tuple[int, int, int]:
    """The primitive integer point (X, Y, Z), Z > 0, of the chart point (x, y) = (X/Z, Y/Z)."""
    x, y = (as_rat(c) for c in node)
    z = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    return int(x * z), int(y * z), z


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
                    direction = primitive_direction(num, den)
                    break
            if direction_i is None:
                direction_i = direction
            elif direction_i != direction:
                raise LevelsError(f"inconsistent witness directions for index {i}")
            nodes.append(WitnessNode(meet_of(node), (pair1, pair2), direction))
        if direction_i is None:
            raise LevelsError(f"no chart-visible witness nodes for index {i}")
        directions.append(direction_i)
        witnesses.append(tuple(nodes))
    if len(set(directions)) != 5:
        raise LevelsError(f"special directions are not pairwise distinct: {directions}")
    return SpecialDirections(tuple(directions), tuple(witnesses))


def matrix(rows) -> list[list[int]]:
    """A system's rows as one dense integer matrix, all 53 of them."""
    return [r.row() for r in rows]


def point_constraint_coefficients(a, b, *, one=Fraction(1)):
    """Slot coefficients of the 7 blow-up conditions at the affine point (a, b).

    The slot-keyed construction the integer rows of `sections.point_conditions`
    are tested against.  Works over any exact coefficient arithmetic.
    Returns ``[(name, {slot: coeff}), ...]`` with the conditions in the order
    f, g, h, g_x, f_y, g_y - h_x, f_x - h_y.
    """
    pow_a = [one]
    pow_b = [one]
    for _ in range(4):
        pow_a.append(pow_a[-1] * a)
        pow_b.append(pow_b[-1] * b)
    return _point_conditions(pow_a, pow_b)


def _point_conditions(pow_a, pow_b):
    """The 7 conditions of `point_constraint_coefficients` from the powers of a and b.

    Entry (i, j) of an evaluation row is ``pow_a[i] * pow_b[j]``.
    """

    def monomials(family: str):
        return [(family, i, j) for (fam, i, j) in SLOTS if fam == family]

    def eval_row(family: str) -> dict:
        return {(family, i, j): pow_a[i] * pow_b[j] for _, i, j in monomials(family)}

    def dx_row(family: str) -> dict:
        return {(family, i, j): pow_a[i - 1] * pow_b[j] * i for _, i, j in monomials(family) if i >= 1}

    def dy_row(family: str) -> dict:
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


def slots(field) -> list[Fraction]:
    """A field's 45 slot values, in `sections.SLOTS` order, read coefficient by coefficient."""
    polys = {"f": field.f.numerators(), "g": field.g.numerators(), "h": field.h.numerators()}
    return [Fraction(polys[family][0].get((i, j), 0), polys[family][1]) for family, i, j in SLOTS]


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
