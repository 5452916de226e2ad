"""Pencil of quadrics in 4-space, point configurations, and line classes.

The ambient model: two 5x5 symmetric rational matrices span a pencil whose
degree-5 characteristic polynomial ``det(t Q1 - Q2)`` has five distinct
roots; the roots parametrize the singular members, and their images under
the Veronese map (1 : t : t^2) are five plane points in general position.
Blowing those up recovers the surface, whose sixteen line classes and ten
conic fibrations live in the rank-6 divisor lattice handled here.

Everything is exact; irrational characteristic roots are rejected rather
than approximated (the toolkit's working regime is rational roots).  The
pencil path runs on integers from theta to the singular members: the model
quadrics come from theta over one common denominator, the characteristic
polynomial is the determinant of the integer pencil ``t A - B`` over
``s^5``, and each rational root is tested and divided out on integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Optional, Sequence

from . import linalg
from .exactpoly import (
    IntPoly,
    MPoly,
    Rat,
    Scalar,
    VarTable,
    as_rat,
    derivative,
    divide_by_root,
    primitive,
    pseudo_divmod,
    to_text,
    univariate_gcd,
    univariate_ints,
)

__all__ = [
    "PencilError",
    "ConfigError",
    "QuadricPencil",
    "PointConfig",
    "FRAME",
    "DivisorClass",
    "ConicFibration",
    "SingularMember",
    "T_VARS",
    "characteristic_polynomial",
    "derivative_at_roots",
    "standard_dp4_quadrics",
    "singular_members",
    "member_corank",
    "veronese_points",
    "normalize_config",
    "enumerate_lines",
    "pairings",
    "conic_fibrations",
    "zeta_numerology",
    "vmrt_class_sum",
    "cross_ratio",
    "mobius_from_pairs",
    "mobius_apply",
    "match_directions_to_parameters",
]

T_VARS = VarTable(("t",))

HomPoint = tuple[Fraction, Fraction, Fraction]
IntPoint = tuple[int, int, int]


class PencilError(ValueError):
    """Invalid or non-generic quadric pencil."""


class ConfigError(ValueError):
    """Invalid point configuration."""


# ---------------------------------------------------------------------------
# Point configurations
# ---------------------------------------------------------------------------


def _hom(point: Sequence[Rat]) -> HomPoint:
    if len(point) != 3:
        raise ConfigError(f"homogeneous plane points need 3 coordinates, got {point}")
    coords = tuple(as_rat(c) for c in point)
    if all(c == 0 for c in coords):
        raise ConfigError("(0:0:0) is not a projective point")
    return coords  # type: ignore[return-value]


def _proportional(p: Sequence[Scalar], q: Sequence[Scalar]) -> bool:
    return (
        p[0] * q[1] == p[1] * q[0]
        and p[0] * q[2] == p[2] * q[0]
        and p[1] * q[2] == p[2] * q[1]
    )


def _collinear(p: IntPoint, q: IntPoint, r: IntPoint) -> bool:
    return linalg.det([list(p), list(q), list(r)]) == 0


def _check_general_position(points: Sequence[IntPoint], first_new: int = 0) -> None:
    """Raise naming the first equal pair, else the first collinear triple, in `itertools.combinations` order.

    Only pairs and triples holding a point at index ``first_new`` or later are
    checked; the points before it are already known to be in general position.
    """
    for i, j in itertools.combinations(range(len(points)), 2):
        if j >= first_new and _proportional(points[i], points[j]):
            raise ConfigError(f"points not distinct: #{i + 1} and #{j + 1}")
    for i, j, k in itertools.combinations(range(len(points)), 3):
        if k >= first_new and _collinear(points[i], points[j], points[k]):
            raise ConfigError(f"general position violated: points #{i + 1}, #{j + 1}, #{k + 1} are collinear")


def _adjugate(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """The adjugate of a 3x3 matrix: ``adj(m) m = det(m) I``."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]


def _frame_solution(p1: IntPoint, p2: IntPoint, p3: IntPoint, p4: IntPoint) -> tuple[list[list[int]], list[int]]:
    """``adj N`` and ``nu = adj(N) p4`` for the matrix ``N`` with columns p1, p2, p3.

    The frame matrix of four points ``c_j p_j`` has the columns ``lambda_j c_j p_j``
    where ``[c1 p1, c2 p2, c3 p3] lambda = c4 p4``; it equals
    ``c4 N diag(nu) / det N`` whatever the scales c1, c2, c3.
    """
    adj = _adjugate([[p1[i], p2[i], p3[i]] for i in range(3)])
    nu = linalg.mat_vec(adj, p4)
    if 0 in nu:  # pragma: no cover - general position is checked first
        raise ConfigError("frame points are degenerate (three of them collinear)")
    return adj, nu


# The projective frame every configuration is moved to: (1:0:0), (1:1:0),
# (1:0:1), (1:1:-1).  Only the fifth point (1:a:b) differs between surfaces.
FRAME: tuple[HomPoint, ...] = tuple(
    tuple(Fraction(c) for c in p) for p in ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, -1))
)
# Its points as primitive integer triples, in general position once and for all.
_FRAME_INTS: tuple[IntPoint, ...] = tuple(tuple(primitive(p)) for p in FRAME)
_check_general_position(_FRAME_INTS)
# Its affine chart points, the first four of every configuration's.
_FRAME_AFFINE = tuple((p[1] / p[0], p[2] / p[0]) for p in FRAME)
# Its frame matrix, the target side of every `normalize_config` transform, is
# the integer matrix N diag(nu) over the divisor det N (its c4 is 1).
_FRAME_ADJ, _FRAME_NU = _frame_solution(*_FRAME_INTS)
_FRAME_MATRIX = [[p[i] * n for p, n in zip(_FRAME_INTS[:3], _FRAME_NU)] for i in range(3)]
_FRAME_DET = sum(p[0] * row[0] for p, row in zip(_FRAME_INTS, _FRAME_ADJ))  # det N along its first row
# The transform of every `from_ab` configuration.
_IDENTITY = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))


@dataclass(frozen=True)
class PointConfig:
    """Five plane points in general position, in normalized coordinates.

    ``transform`` carries the first four raw points to `FRAME` and the fifth
    to the affine point (1:a:b).  General position is checked once, by the
    constructor that builds the configuration: `from_ab` on its fifth point,
    `normalize_config` on the raw points (distinctness and collinearity are
    projective invariants, so the normalized points need no second check).
    The normalized points are computed once, at construction: as rational
    triples, as affine chart points and, in ``integer_points``, as primitive
    integer triples (`FRAME`'s, then the primitive multiple of (1:a:b)).
    """

    raw_points: tuple[HomPoint, ...]
    transform: tuple[tuple[Fraction, ...], ...]
    ab: tuple[Fraction, Fraction]
    _normalized: tuple[HomPoint, ...] = field(init=False, repr=False, compare=False)
    _affine: tuple[tuple[Fraction, Fraction], ...] = field(init=False, repr=False, compare=False)
    integer_points: tuple[IntPoint, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a, b = (as_rat(c) for c in self.ab)
        object.__setattr__(self, "_normalized", (*FRAME, (Fraction(1), a, b)))
        object.__setattr__(self, "_affine", (*_FRAME_AFFINE, (a, b)))
        object.__setattr__(self, "integer_points", (*_FRAME_INTS, tuple(primitive((1, a, b)))))

    def normalized_points(self) -> list[HomPoint]:
        return list(self._normalized)

    def affine_points(self) -> list[tuple[Fraction, Fraction]]:
        return list(self._affine)

    @classmethod
    def from_ab(cls, a: Rat, b: Rat) -> "PointConfig":
        a, b = as_rat(a), as_rat(b)
        config = cls(
            raw_points=(*FRAME, (Fraction(1), a, b)),
            transform=_IDENTITY,
            ab=(a, b),
        )
        _check_general_position(config.integer_points, first_new=4)
        return config

    @classmethod
    def from_theta(cls, theta: Sequence[Rat]) -> "PointConfig":
        return normalize_config(veronese_points(theta))

    def to_json(self) -> dict:
        from .exactpoly import rat_str

        return {
            "raw_points": [[rat_str(c) for c in p] for p in self.raw_points],
            "transform": [[rat_str(c) for c in row] for row in self.transform],
            "alpha_beta": [rat_str(FRAME[3][1]), rat_str(FRAME[3][2])],
            "ab": [rat_str(self.ab[0]), rat_str(self.ab[1])],
        }


def normalize_config(points: Sequence[Sequence[Rat]]) -> PointConfig:
    """Move five general-position points to `FRAME` and the fifth to (1:a:b).

    The returned configuration stores the input points (reordered when the
    fifth initially lands on the line at infinity, which over the rationals
    can always be repaired by swapping the roles of the last two points) and
    the exact 3x3 transform realizing the normalization.

    The work runs on the primitive integer multiple of each point, since
    scaling a projective point changes neither distinctness nor collinearity.
    The transform is ``F S^-1``, with ``F`` and ``S`` the frame matrices of
    `FRAME` and of the first four points.  By `_frame_solution`,
    ``S^-1 = diag(1/nu) adj(N) / c4``, where ``c4`` is the fourth raw point
    over its primitive multiple.  The integer matrix
    ``_FRAME_MATRIX diag(prod(nu) / nu) adj(N)`` is carried along with its
    divisor ``prod(nu) det N_F``; only the printed transform divides by that
    divisor and by ``c4``.
    """
    if len(points) != 5:
        raise ConfigError(f"expected five points, got {len(points)}")
    pts = [_hom(p) for p in points]
    ints = [tuple(primitive(p)) for p in pts]
    _check_general_position(ints)
    adj, nu = _frame_solution(*ints[:4])
    nu_prod = prod(nu)
    inverse = [[nu_prod // n * x for x in row] for n, row in zip(nu, adj)]
    transform = linalg.mat_mul(_FRAME_MATRIX, inverse)
    scale = nu_prod * _FRAME_DET
    ordered, ordered_ints = pts, ints
    image5 = linalg.mat_vec(transform, ints[4])
    if image5[0] == 0:
        # Fifth point at infinity in the new frame: swap the 4th and 5th
        # roles with the triangular transform fixing the first three points.
        if image5[1] == 0:
            raise ConfigError("degenerate image of the fifth point")  # pragma: no cover
        # b*(b+1) = 0 would force the image to be collinear with two frame
        # points, which general position already excludes.  With b = n/d the
        # map [[x, y, z], [0, x + y, 0], [0, 0, x + z]] for x = b,
        # y = -b^2 - 2b, z = 1 is taken times d^2.
        b = Fraction(image5[2], image5[1])
        n, d = b.numerator, b.denominator
        x, y, z = n * d, -n * n - 2 * n * d, d * d
        transform = linalg.mat_mul([[x, y, z], [0, x + y, 0], [0, 0, x + z]], transform)
        scale *= d * d
        ordered, ordered_ints = pts[:3] + [pts[4], pts[3]], ints[:3] + [ints[4], ints[3]]
        image5 = linalg.mat_vec(transform, ordered_ints[4])
        if image5[0] == 0:  # would need b^2 + b + 1 = 0, impossible over Q
            raise ConfigError("fifth point cannot be moved off the line at infinity")  # pragma: no cover
    c4 = next(c / p for c, p in zip(pts[3], ints[3]) if p)
    num, den = c4.denominator, scale * c4.numerator
    config = PointConfig(
        raw_points=tuple(ordered),
        transform=tuple(tuple(Fraction(x * num, den) for x in row) for row in transform),
        ab=(Fraction(image5[1], image5[0]), Fraction(image5[2], image5[0])),
    )
    for raw, target in zip(ordered_ints, config.integer_points):
        if not _proportional(linalg.mat_vec(transform, raw), target):  # pragma: no cover - re-verification
            raise ArithmeticError("normalization transform failed re-verification")
    return config


# ---------------------------------------------------------------------------
# Quadric pencils
# ---------------------------------------------------------------------------


def _int_nth_root_ceil(n: int, k: int) -> int:
    """The least integer r >= 0 with r**k >= n, for n >= 0."""
    if n in (0, 1):
        return n
    lo, hi = 1, 1 << ((n.bit_length() + k - 1) // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _int_nth_root(n: int, k: int) -> Optional[int]:
    if n < 0:
        return None
    root = _int_nth_root_ceil(n, k)
    return root if root**k == n else None


@dataclass(frozen=True)
class QuadricPencil:
    """Pair of 5x5 symmetric rational matrices spanning a pencil of quadrics.

    Construction rescales both matrices by a common rational square when that
    makes ``det Q1 = 1`` exactly (a congruence by a scalar, so the
    characteristic roots are untouched); otherwise the matrices are kept as
    given, since the roots do not depend on the scaling.  Construction also
    keeps ``A = s Q1`` and ``B = s Q2``, the integer multiples of the two with
    one common rational ``s`` and no common factor, with ``1 / s^5``, and
    takes ``det Q1`` once, as ``det(A) / s^5``.
    """

    q1: tuple[tuple[Fraction, ...], ...]
    q2: tuple[tuple[Fraction, ...], ...]
    _det_q1: Fraction = field(init=False, repr=False, compare=False)
    _inverse_scale5: Fraction = field(init=False, repr=False, compare=False)
    _integer_pair: tuple[list[list[int]], list[list[int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, m in (("Q1", self.q1), ("Q2", self.q2)):
            if len(m) != 5 or any(len(row) != 5 for row in m):
                raise PencilError(f"{name} must be 5x5")
        entries = [x for m in (self.q1, self.q2) for row in m for x in row]
        ints = primitive(entries)
        a, b = ([ints[k : k + 5] for k in range(start, start + 25, 5)] for start in (0, 25))
        # a positive multiple is symmetric exactly when the matrix is
        for name, m in (("Q1", a), ("Q2", b)):
            if any(m[i][j] != m[j][i] for i in range(5) for j in range(i)):
                raise PencilError(f"{name} is not symmetric")
        d = linalg.det(a)
        if d == 0:
            raise PencilError("Q1 is singular")
        s = next(Fraction(n) / x for n, x in zip(ints, entries) if n)
        object.__setattr__(self, "_inverse_scale5", 1 / s**5)
        object.__setattr__(self, "_det_q1", d * self._inverse_scale5)
        object.__setattr__(self, "_integer_pair", (a, b))

    @classmethod
    def make(cls, q1: Sequence[Sequence[Rat]], q2: Sequence[Sequence[Rat]]) -> "QuadricPencil":
        m1 = tuple(tuple(as_rat(x) for x in row) for row in q1)
        m2 = tuple(tuple(as_rat(x) for x in row) for row in q2)
        pen = cls(m1, m2)
        d = pen.det_q1()
        if d > 0 and d != 1:
            # det(c * Q1) = c^5 det Q1; a common factor c = s^2 keeps the
            # roots fixed, so unit normalization needs 1/d to be a 10th power.
            num = _int_nth_root(d.denominator, 10)
            den = _int_nth_root(d.numerator, 10)
            if num is not None and den is not None:
                c = Fraction(num, den) ** 2
                m1 = tuple(tuple(x * c for x in row) for row in m1)
                m2 = tuple(tuple(x * c for x in row) for row in m2)
                pen = cls(m1, m2)
        return pen

    def det_q1(self) -> Fraction:
        return self._det_q1


def characteristic_polynomial(pencil: QuadricPencil) -> MPoly:
    """Exact degree-5 polynomial ``det(t Q1 - Q2)``.

    It is ``det(t A - B) / s^5`` for the pencil's integer pair ``A = s Q1``,
    ``B = s Q2``: the determinant is taken over integer linear entries and
    scaled once.  Raises `PencilError` when the polynomial has a repeated root
    (detected by a nonconstant gcd with its derivative, which scaling does not
    change), since the whole toolkit assumes a generic pencil.
    """
    zero = MPoly.zero(T_VARS)

    def entry(x: int, y: int) -> MPoly:
        # one variable, so a packed key is the exponent of t
        nums = {k: c for k, c in ((1, x), (0, -y)) if c}
        return MPoly._canonical(T_VARS, nums, 1) if nums else zero

    p = linalg.mpoly_det([list(map(entry, ra, rb)) for ra, rb in zip(*pencil._integer_pair)])
    ints = univariate_ints(p, "t")
    if len(ints) != 6:
        raise PencilError("characteristic polynomial must have degree 5")
    g = univariate_gcd(ints, derivative(ints))
    if len(g) > 1:
        monic = MPoly.from_numerators(T_VARS, {(k,): c for k, c in enumerate(g)}, g[-1])
        raise PencilError(f"pencil not generic: repeated characteristic roots (gcd {to_text(monic)})")
    return p * pencil._inverse_scale5


def derivative_at_roots(values: Sequence[Fraction], roots: Sequence[Fraction]) -> list[Fraction]:
    """P'(r) for each r in ``roots``, where P is the monic polynomial with the distinct roots ``values``.

    Each is the product of r - v over the values v other than r.
    """
    return [prod(r - v for v in values if v != r) for r in roots]


def standard_dp4_quadrics(theta: Sequence[Rat]) -> QuadricPencil:
    """Diagonal model pencil with prescribed characteristic roots.

    The two diagonals are ``1 / P'(theta_i)`` and ``theta_i / P'(theta_i)``
    where P is the monic quintic with the given roots.  Over the common
    denominator L of the roots, ``theta_i = n_i / L`` and
    ``P'(theta_i) = w_i / L^4`` with the integer ``w_i``, the product of
    ``n_i - n_j`` over j != i; so the diagonals are ``L^4 / w_i`` and
    ``n_i L^3 / w_i``.
    """
    th = [as_rat(t) for t in theta]
    if len(th) != 5:
        raise PencilError("exactly five characteristic roots are required")
    if len(set(th)) != 5:
        raise PencilError(f"characteristic roots must be distinct, got {th}")
    den = lcm(*(t.denominator for t in th))
    nums = [t.numerator * (den // t.denominator) for t in th]
    den3 = den**3
    zero = Fraction(0)
    q1, q2 = [], []
    for i, n in enumerate(nums):
        w = prod(n - m for m in nums if m != n)
        q1.append(tuple(Fraction(den3 * den, w) if i == j else zero for j in range(5)))
        q2.append(tuple(Fraction(n * den3, w) if i == j else zero for j in range(5)))
    return QuadricPencil.make(q1, q2)


def _horner(a: Sequence[Scalar], x: Scalar) -> Scalar:
    value = 0
    for c in reversed(a):
        value = value * x + c
    return value


def _sturm_sequence(q: IntPoly) -> list[IntPoly]:
    """Sturm sequence of the squarefree part of ``q`` (degree >= 1), each term primitive."""
    chain = [primitive(q), primitive(derivative(q))]
    while True:
        rem = pseudo_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(primitive([-c for c in rem]))
    if len(chain[-1]) > 1:
        # repeated roots: the chain ends in gcd(q, q'); restart on q / gcd
        return _sturm_sequence(pseudo_divmod(q, chain[-1])[0])
    return chain


def _sign_changes(chain: list[IntPoly], x: int) -> int:
    changes, previous = 0, 0
    for term in chain:
        value = _horner(term, x)
        if value:
            if previous and (value > 0) != (previous > 0):
                changes += 1
            previous = value
    return changes


def _integer_roots(q: IntPoly) -> list[int]:
    """The integer roots of the monic integer polynomial ``q``, ascending, each once.

    Sturm's theorem counts the distinct real roots in ``(lo, hi]`` as
    ``V(lo) - V(hi)``.  Integer intervals inside the Fujiwara bound are bisected
    until each holds one root or is one unit wide.  A lone simple root is then
    narrowed by the sign of the squarefree part alone, until it lands on an
    integer or lies strictly inside ``(hi - 1, hi)``.
    """
    n = len(q) - 1
    bound = 1
    for k in range(1, n + 1):
        c = abs(q[n - k]) if k < n else -(-abs(q[0]) // 2)
        bound = max(bound, _int_nth_root_ceil(c, k))
    bound *= 2
    chain = _sturm_sequence(q)
    squarefree = chain[0]
    roots: list[int] = []
    stack = [(-bound - 1, bound, _sign_changes(chain, -bound - 1), _sign_changes(chain, bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        count = v_lo - v_hi
        if count == 0:
            continue
        if count > 1 and hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = _sign_changes(chain, mid)
            # right half pushed first, so intervals pop in ascending order
            stack.append((mid, hi, v_mid, v_hi))
            stack.append((lo, mid, v_lo, v_mid))
            continue
        s_hi = _horner(squarefree, hi)
        if count == 1:
            # one simple root in (lo, hi]: follow the sign change of the squarefree part
            while s_hi and hi - lo > 1:
                mid = (lo + hi) // 2
                s_mid = _horner(squarefree, mid)
                if s_mid == 0 or (s_mid > 0) == (s_hi > 0):
                    hi, s_hi = mid, s_mid
                else:
                    lo = mid
        if s_hi == 0:
            roots.append(hi)
    return roots


def _rational_roots(p: MPoly) -> tuple[list[Fraction], MPoly]:
    """All rational roots (with multiplicity) and the rootless cofactor.

    With integer coefficients ``a_0..a_n``, the substitution ``t = s / a_n``
    scaled by ``a_n^(n-1)`` gives a monic integer polynomial whose integer
    roots ``s`` are exactly ``a_n`` times the rational roots of ``p``.  Those are
    isolated by `_integer_roots`, so nothing is factored and the cost stays
    polynomial in the bit size of the coefficients.  Each candidate ``n/d``
    is tested and divided out by `divide_by_root` on the integer numerators
    of ``p``.  The cofactor is those numerators over the product of the
    ``t - n/d``: the integer quotient times the product of the d's.
    """
    ints = univariate_ints(p, "t")
    roots: list[Fraction] = []
    while len(ints) > 1 and ints[0] == 0:
        roots.append(Fraction(0))
        ints = ints[1:]
    scale = 1
    if len(ints) > 1:
        search = primitive(ints)  # the roots do not depend on scaling; smaller numbers do
        n, lead = len(search) - 1, search[-1]
        monic = [c * lead ** (n - 1 - k) for k, c in enumerate(search[:-1])] + [1]
        candidates = sorted(Fraction(s, lead) for s in _integer_roots(monic))
        for cand in candidates:
            num, den = cand.numerator, cand.denominator
            while len(ints) > 1:
                quotient = divide_by_root(ints, num, den)
                if quotient is None:
                    break
                roots.append(cand)
                ints = quotient
                scale *= den
    # one variable, so a packed key is the exponent of t
    return roots, MPoly._reduced(T_VARS, {k: c * scale for k, c in enumerate(ints)}, 1)


@dataclass(frozen=True)
class SingularMember:
    theta: Fraction
    parameter: tuple[Fraction, Fraction]  # (1 : theta)
    corank: int  # of theta Q1 - Q2


def singular_members(pencil: QuadricPencil, char: Optional[MPoly] = None) -> list[SingularMember]:
    """The five pencil parameters with singular member, all rational.

    ``char`` is the pencil's characteristic polynomial when the caller has
    already computed it.  Each member ``theta Q1 - Q2`` is built once, by
    `member_corank`, and its root re-verified by corank >= 1, which holds
    exactly when its determinant is 0.  Irrational roots raise, reporting the
    rootless factor: this toolkit works in the rational-root regime only.
    """
    roots, cofactor = _rational_roots(characteristic_polynomial(pencil) if char is None else char)
    if cofactor.total_degree() > 0:
        raise PencilError(
            "rational-root regime only: non-rational factor remains: " + to_text(cofactor)
        )
    if len(roots) != 5:  # pragma: no cover - distinctness already enforced
        raise PencilError(f"expected 5 rational roots, found {len(roots)}")
    members = []
    for theta in sorted(roots):
        corank = member_corank(pencil, theta)
        if corank == 0:  # pragma: no cover - roots satisfy this by construction
            raise ArithmeticError("claimed singular member has nonzero determinant")
        members.append(SingularMember(theta, (Fraction(1), theta), corank))
    return members


def member_corank(pencil: QuadricPencil, theta: Rat) -> int:
    """The corank of ``theta Q1 - Q2``: for theta = n/d, that of the integer member ``n A - d B``."""
    theta = as_rat(theta)
    n, d = theta.numerator, theta.denominator
    a, b = pencil._integer_pair
    return 5 - linalg.rank([[n * x - d * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def veronese_points(theta: Sequence[Rat]) -> list[HomPoint]:
    """Images (1 : t : t^2) of the five pencil parameters on the plane conic."""
    th = [as_rat(t) for t in theta]
    if len(set(th)) != len(th):
        raise PencilError(f"parameters must be distinct, got {th}")
    return [(Fraction(1), t, t * t) for t in th]


# ---------------------------------------------------------------------------
# Divisor lattice: the 16 lines and 10 conic fibrations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisorClass:
    """Class d*L - sum(m_i E_i) in the blow-up basis, with its intersection form."""

    d: int
    m: tuple[int, int, int, int, int]
    label: str = field(default="", compare=False)

    def dot(self, other: "DivisorClass") -> int:
        return self.d * other.d - sum(a * b for a, b in zip(self.m, other.m))

    def self_intersection(self) -> int:
        return self.dot(self)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.d + other.d, tuple(a + b for a, b in zip(self.m, other.m)))  # type: ignore[arg-type]


def anticanonical_class() -> DivisorClass:
    return DivisorClass(3, (1, 1, 1, 1, 1), label="-K")


def exceptional_class(i: int) -> DivisorClass:
    if not 1 <= i <= 5:
        raise ValueError("index must be 1..5")
    m = [0] * 5
    m[i - 1] = -1
    return DivisorClass(0, tuple(m), label=f"E{i}")  # type: ignore[arg-type]


def line_class(i: int, j: int) -> DivisorClass:
    if not (1 <= i <= 5 and 1 <= j <= 5 and i != j):
        raise ValueError("need two distinct indices in 1..5")
    i, j = min(i, j), max(i, j)
    m = [0] * 5
    m[i - 1] = m[j - 1] = 1
    return DivisorClass(1, tuple(m), label=f"l{i}{j}")  # type: ignore[arg-type]


def conic_class() -> DivisorClass:
    return DivisorClass(2, (1, 1, 1, 1, 1), label="C")


def enumerate_lines() -> list[DivisorClass]:
    """The 16 line classes: the conic transform, five exceptionals, ten joins."""
    lines = [conic_class()]
    lines.extend(exceptional_class(i) for i in range(1, 6))
    lines.extend(line_class(i, j) for i, j in itertools.combinations(range(1, 6), 2))
    return lines


@dataclass(frozen=True)
class ConicFibration:
    """Conic fibration with its fiber class and four singular fibers."""

    i: int
    j: int
    fiber_class: DivisorClass
    singular_fibers: tuple[tuple[DivisorClass, DivisorClass], ...]


def pairings(i: int) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """The three ways to split the four indices in 1..5 other than ``i`` into two pairs."""
    a, b, c, d = (k for k in range(1, 6) if k != i)
    return (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))


def conic_fibrations() -> list[ConicFibration]:
    """The ten conic fibrations (i = 1..5, j = 1, 2), four singular fibers each."""
    out = []
    for i in range(1, 6):
        others = [k for k in range(1, 6) if k != i]
        fiber1 = DivisorClass(1, tuple(1 if k == i else 0 for k in range(1, 6)), label=f"L-E{i}")
        fibers1 = tuple((line_class(k, i), exceptional_class(k)) for k in others)
        out.append(ConicFibration(i, 1, fiber1, fibers1))
        fiber2 = DivisorClass(2, tuple(0 if k == i else 1 for k in range(1, 6)), label=f"2L-sum+E{i}")
        fibers2 = tuple((line_class(*pair1), line_class(*pair2)) for pair1, pair2 in pairings(i))
        out.append(ConicFibration(i, 2, fiber2, fibers2 + ((conic_class(), exceptional_class(i)),)))
    return out


def zeta_numerology(k_squared: int = 4, c2: int = 8) -> dict:
    """Tautological-class intersection numbers on the projectivized tangent bundle.

    The relation ``zeta^2 = -pi*K . zeta - pi*c2`` gives ``zeta^3 = K^2 - c2``;
    the base locus of the degree-2 tautological system is sixteen curves of
    equal multiplicity a with ``(2 zeta)^2 . zeta = -16 a``.
    """
    zeta_cubed = k_squared - c2
    multiplicity = Fraction(-4 * zeta_cubed, 16)
    return {
        "zeta_cubed": zeta_cubed,
        "base_multiplicity": multiplicity,
        "base_multiplicity_sum": -4 * zeta_cubed,
        "euler_characteristic_blowup": 2 * c2 + 32,
    }


def vmrt_class_sum(i: int) -> bool:
    """The two dual-variety classes of the i-th fibration pair sum to 2*zeta.

    Classes live in the free module on (zeta, L, E1..E5).
    """
    if not 1 <= i <= 5:
        raise ValueError("index must be 1..5")
    c1 = [1, -1] + [1] * 5
    c2 = [1, 1] + [-1] * 5
    c1[1 + i] -= 2
    c2[1 + i] += 2
    total = [a + b for a, b in zip(c1, c2)]
    return total == [2, 0, 0, 0, 0, 0, 0]


# ---------------------------------------------------------------------------
# Projective line bookkeeping: cross ratios and Moebius matching
# ---------------------------------------------------------------------------

P1Point = tuple[int, int]  # a point of the projective line as ints: (1 : p/q) is (q : p)


def _p1(point: Sequence[Rat]) -> P1Point:
    a, b = point if type(point[0]) is type(point[1]) is int else primitive([as_rat(c) for c in point])
    if a == 0 and b == 0:
        raise ValueError("(0:0) is not a point of the projective line")
    return (a, b)


def _p1_det(p: P1Point, q: P1Point) -> int:
    return p[0] * q[1] - p[1] * q[0]


def cross_ratio(p1: Sequence[Rat], p2: Sequence[Rat], p3: Sequence[Rat], p4: Sequence[Rat]) -> tuple[int, int]:
    """Cross ratio of four distinct points of the projective line.

    Returned projectively as a pair (numerator, denominator) of ints, so the
    value infinity stays exact; rescaling a point rescales both alike.
    """
    a, b, c, d = _p1(p1), _p1(p2), _p1(p3), _p1(p4)
    return (_p1_det(a, c) * _p1_det(b, d), _p1_det(a, d) * _p1_det(b, c))


def mobius_from_pairs(pairs: Sequence[tuple[Sequence[Rat], Sequence[Rat]]]) -> tuple[tuple[int, ...], ...]:
    """The unique projective-line map sending three source points to three targets, up to a positive scale."""
    if len(pairs) != 3:
        raise ValueError("a Moebius map is determined by exactly three point pairs")
    rows = []
    for source, target in pairs:
        (s0, s1), (t0, t1) = _p1(source), _p1(target)
        # t1*(alpha*s0 + beta*s1) - t0*(gamma*s0 + delta*s1) = 0
        rows.append([t1 * s0, t1 * s1, -t0 * s0, -t0 * s1])
    null = linalg.integer_kernel(rows, 4)
    if len(null) != 1:
        raise ValueError(f"degenerate point pairs (solution space dimension {len(null)})")
    alpha, beta, gamma, delta = null[0]
    if alpha * delta - beta * gamma == 0:
        raise ValueError("point pairs do not determine an invertible map")
    return ((alpha, beta), (gamma, delta))


def mobius_apply(m: Sequence[Sequence[Rat]], point: Sequence[Rat]) -> P1Point:
    (a, b), (c, d) = m
    p0, p1 = _p1(point)
    return (a * p0 + b * p1, c * p0 + d * p1)


def match_directions_to_parameters(
    directions: Sequence[Sequence[Rat]], parameters: Sequence[Sequence[Rat]]
) -> dict:
    """Match five pencil directions to five singular parameters by a Moebius map.

    Fits the map on the first three pairs of each candidate bijection and
    accepts only exact zero residual on the two held-out pairs.  Returns the
    permutation (directions index -> parameters index), the integer map, and
    the held-out residuals (all zero on success); raises when none works.
    """
    dirs = [_p1(d) for d in directions]
    params = [_p1(p) for p in parameters]
    if len(dirs) != 5 or len(params) != 5:
        raise ValueError("need exactly five directions and five parameters")
    for perm in itertools.permutations(range(5)):
        try:
            m = mobius_from_pairs([(dirs[k], params[perm[k]]) for k in range(3)])
        except ValueError:
            continue
        residuals = []
        for k in (3, 4):
            image = mobius_apply(m, dirs[k])
            residuals.append(_p1_det(image, params[perm[k]]))
        if all(r == 0 for r in residuals):
            return {
                "permutation": tuple(perm),
                "matrix": m,
                "held_out_residuals": tuple(residuals),
            }
    raise ValueError("no Moebius map matches the directions to the parameters")
