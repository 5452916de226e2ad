"""Reference implementations that the package's faster kernels are tested against."""

import itertools
from fractions import Fraction

from dp4lag import linalg
from dp4lag.exactpoly import MPoly, as_rat
from dp4lag.pencil import FRAME, ConfigError, PointConfig, QuadricPencil, _hom, _proportional


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
