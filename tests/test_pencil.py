import itertools
import json
import random
import signal
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dp4lag import cli, linalg
from dp4lag.exactpoly import MPoly, poly_derivative, poly_eval, rat_str, to_text
from dp4lag.pencil import (
    FRAME,
    T_VARS,
    ConfigError,
    PencilError,
    PointConfig,
    QuadricPencil,
    anticanonical_class,
    characteristic_polynomial,
    conic_class,
    conic_fibrations,
    cross_ratio,
    derivative_at_roots,
    enumerate_lines,
    exceptional_class,
    line_class,
    match_directions_to_parameters,
    member_corank,
    mobius_apply,
    mobius_from_pairs,
    normalize_config,
    singular_members,
    standard_dp4_quadrics,
    veronese_points,
    vmrt_class_sum,
    zeta_numerology,
)
from dp4lag.pencil import _rational_roots

import oracles
from conftest import scaled

THETA = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]


def diag(values):
    return [[Fraction(values[i]) if i == j else Fraction(0) for j in range(5)] for i in range(5)]


def random_distinct_theta(rng, count=5, span=10):
    out = set()
    while len(out) < count:
        out.add(Fraction(rng.randint(-span, span), rng.randint(1, 4)))
    return sorted(out)


class TestCharacteristicPolynomial:
    def test_diagonal_example(self):
        pen = QuadricPencil.make(diag([1] * 5), diag([0, 1, -1, 2, -2]))
        assert to_text(characteristic_polynomial(pen)) == "1/1 * t^5 + -5/1 * t^3 + 4/1 * t^1"

    def test_repeated_roots_rejected(self):
        pen = QuadricPencil.make(diag([1] * 5), diag([1] * 5))
        with pytest.raises(PencilError, match="not generic"):
            characteristic_polynomial(pen)

    def test_congruence_transform_preserves_roots(self):
        rng = random.Random(0)
        pen = standard_dp4_quadrics(THETA)
        for _ in range(5):
            while True:
                s = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(5)]
                if linalg.det(s) != 0:
                    break
            st = [[s[k][i] for k in range(5)] for i in range(5)]
            q1 = linalg.mat_mul(linalg.mat_mul(st, [list(r) for r in pen.q1]), s)
            q2 = linalg.mat_mul(linalg.mat_mul(st, [list(r) for r in pen.q2]), s)
            transformed = QuadricPencil.make(q1, q2)
            roots = [m.theta for m in singular_members(transformed)]
            assert roots == sorted(THETA)


class TestUnitNormalization:
    def test_common_rescale_when_tenth_power(self):
        # det(4*I) = 4^5 = 2^10, so both matrices rescale by 1/4 and the
        # characteristic roots stay put
        eye4 = diag([4] * 5)
        q2 = diag([0, 4, -4, 8, -8])
        pen = QuadricPencil.make(eye4, q2)
        assert pen.det_q1() == 1
        assert pen.q1[0][0] == 1
        assert [m.theta for m in singular_members(pen)] == sorted([0, 1, -1, 2, -2])

    def test_monic_comparison_when_not_a_power(self):
        pen = standard_dp4_quadrics(THETA)
        assert pen.det_q1() != 1  # 1/82944 is not a rational 10th power
        assert pen.det_q1() == linalg.det([list(row) for row in pen.q1])
        assert [m.theta for m in singular_members(pen)] == sorted(THETA)


class TestStandardQuadrics:
    def test_first_diagonal(self):
        pen = standard_dp4_quadrics(THETA)
        expected = [Fraction(1, 4), Fraction(-1, 6), Fraction(-1, 6), Fraction(1, 24), Fraction(1, 24)]
        assert [pen.q1[i][i] for i in range(5)] == expected

    def test_char_roots_match_theta(self):
        rng = random.Random(1)
        for _ in range(20):
            theta = random_distinct_theta(rng)
            pen = standard_dp4_quadrics(theta)
            assert [m.theta for m in singular_members(pen)] == sorted(theta)

    def test_repeated_theta_rejected(self):
        with pytest.raises(PencilError, match="distinct"):
            standard_dp4_quadrics([0, 1, -1, 2, 2])


def derivative_reference(values):
    """P'(t) for the monic polynomial P with roots ``values``, through `MPoly`."""
    t = MPoly.variable(T_VARS, "t")
    poly = MPoly.const(T_VARS, 1)
    for v in values:
        poly = poly * (t - v)
    return poly_derivative(poly, "t")


class TestDerivativeAtRoots:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)), min_size=6, max_size=6, unique=True))
    def test_matches_the_derivative_polynomial(self, values):
        quintic = derivative_reference(values[:5])
        assert derivative_at_roots(values[:5], values[:5]) == [poly_eval(quintic, {"t": r}) for r in values[:5]]
        # the branch model's case: the sextic's derivative at the five roots only
        sextic = derivative_reference(values)
        assert derivative_at_roots(values, values[:5]) == [poly_eval(sextic, {"t": r}) for r in values[:5]]


class TestSingularMembers:
    def test_diagonal_members(self):
        pen = QuadricPencil.make(diag([1] * 5), diag([0, 1, -1, 2, -2]))
        members = singular_members(pen)
        assert [m.theta for m in members] == sorted([0, 1, -1, 2, -2])
        assert members[0].parameter == (1, -2)

    def test_corank_exactly_one(self):
        rng = random.Random(2)
        for _ in range(20):
            theta = random_distinct_theta(rng)
            pen = standard_dp4_quadrics(theta)
            assert all(m.corank == member_corank(pen, m.theta) == 1 for m in singular_members(pen))

    def test_irrational_roots_rejected(self):
        q2 = diag([0, 0, 2, 3, 4])
        q2[0][1] = q2[1][0] = Fraction(1)
        q2[1][1] = Fraction(1)
        with pytest.raises(PencilError, match="rational-root regime"):
            singular_members(QuadricPencil.make(diag([1] * 5), q2))


def rationals(bits):
    bound = 2**bits
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, bound))


def _is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


def irreducible_quadratics(bound):
    """Coefficients (b, c) of t^2 + b t + c with no rational root."""
    pairs = st.tuples(st.integers(-bound, bound), st.integers(-bound, bound))
    return pairs.filter(lambda bc: not _is_square(bc[0] ** 2 - 4 * bc[1]))


def nonzero_scales(bits):
    return rationals(bits).filter(lambda r: r != 0)


def build_poly(scale, roots, quadratic):
    t = MPoly.variable(T_VARS, "t")
    p = MPoly.const(T_VARS, scale)
    for r in roots:
        p = p * (t - r)
    if quadratic is not None:
        b, c = quadratic
        p = p * (t * t + b * t + c)
    return p


def cleared(p):
    """``p`` times the least common denominator of its coefficients."""
    den = 1
    for c in p.terms.values():
        den = lcm(den, c.denominator)
    return p * den


def brute_force_rational_roots(p):
    """Distinct rational roots by the rational root theorem: every +-d/e with
    d dividing the lowest nonzero coefficient and e the leading one."""
    ints = [0] * (p.degree_in("t") + 1)
    for (k,), c in cleared(p).terms.items():
        ints[k] = int(c)
    roots = set()
    if ints[0] == 0:
        roots.add(Fraction(0))
    ints = ints[next(k for k, c in enumerate(ints) if c) :]

    def divisors(n):
        small = [d for d in range(1, isqrt(abs(n)) + 1) if n % d == 0]
        return small + [abs(n) // d for d in small]

    for d in divisors(ints[0]):
        for e in divisors(ints[-1]):
            for cand in (Fraction(d, e), Fraction(-d, e)):
                if sum(c * cand**k for k, c in enumerate(ints)) == 0:
                    roots.add(cand)
    return sorted(roots)


class TestRationalRoots:
    @settings(max_examples=60, deadline=None)
    @given(
        roots=st.lists(rationals(64), min_size=1, max_size=5, unique=True),
        quadratic=st.none() | irreducible_quadratics(2**64),
        scale=nonzero_scales(64),
    )
    def test_exact_roots_and_cofactor(self, roots, quadratic, scale):
        p = build_poly(scale, roots, quadratic)
        found, cofactor = _rational_roots(p)
        # zero roots are split off first, the rest come in ascending order
        assert found == sorted(roots, key=lambda r: (r != 0, r))
        assert cofactor.total_degree() == (0 if quadratic is None else 2)
        assert build_poly(1, roots, None) * cofactor == cleared(p)

    @settings(max_examples=40, deadline=None)
    @given(
        roots=st.lists(rationals(3), min_size=1, max_size=5, unique=True),
        quadratic=st.none() | irreducible_quadratics(8),
        scale=nonzero_scales(3),
    )
    def test_small_heights_match_rational_root_theorem(self, roots, quadratic, scale):
        p = build_poly(scale, roots, quadratic)
        assert sorted(_rational_roots(p)[0]) == brute_force_rational_roots(p)

    def test_repeated_roots_counted_with_multiplicity(self):
        half = Fraction(1, 2)
        roots = [half, half, Fraction(-3), Fraction(-3), Fraction(-3), Fraction(0)]
        p = build_poly(Fraction(-3, 2), roots, (0, 2))
        found, cofactor = _rational_roots(p)
        assert found == [0, -3, -3, -3, half, half]
        assert sorted(set(found)) == brute_force_rational_roots(p)
        assert build_poly(1, roots, None) * cofactor == cleared(p)

    def test_deflation_builds_no_fraction(self, monkeypatch):
        half = Fraction(1, 2)
        roots = [half, half, Fraction(-3), Fraction(-3), Fraction(-3), Fraction(2, 7), Fraction(0)]
        p = build_poly(Fraction(-3, 2), roots, (1, 3))
        made = []
        real_new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: made.append(args) or real_new(cls, *args, **kw))
        found, cofactor = _rational_roots(p)
        monkeypatch.undo()
        # one Fraction per zero root and one per candidate, none per division
        assert found == [0, -3, -3, -3, Fraction(2, 7), half, half]
        assert len(made) == len(set(found))
        assert build_poly(1, roots, None) * cofactor == cleared(p)


LARGE_PRIME_THETA = ["1/999999999989", "1/999999999959", "3", "4", "5"]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
def test_pencil_on_large_prime_theta_finishes_within_a_second(tmp_path, capsys):
    cfg = tmp_path / "theta.json"
    cfg.write_text(json.dumps({"theta": LARGE_PRIME_THETA}))

    def out_of_time(signum, frame):
        raise TimeoutError("pencil took more than 1 s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code = cli.main(["pencil", "--config", str(cfg)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    expected = sorted(Fraction(t) for t in LARGE_PRIME_THETA)
    assert [m["theta"] for m in report["result"]["singular_members"]] == [rat_str(t) for t in expected]


class TestVeronese:
    def test_images(self):
        assert veronese_points([2, 0, 1, -1, 3])[0] == (1, 2, 4)
        assert veronese_points([0, 1, -1, 2, 3])[0] == (1, 0, 0)

    def test_general_position_always(self):
        rng = random.Random(3)
        for _ in range(20):
            theta = random_distinct_theta(rng)
            normalize_config(veronese_points(theta))  # raises on any collinearity


class TestNormalizeConfig:
    def test_already_normalized_is_fixed(self):
        config = PointConfig.from_ab(Fraction(5, 2), Fraction(-7, 3))
        again = normalize_config(config.normalized_points())
        assert again.ab == config.ab
        t = again.transform
        assert all(t[i][j] * t[0][0] == (t[0][0] if i == j else 0) * t[0][0] for i in range(3) for j in range(3))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-9, 9)] * 3), min_size=5, max_size=5))
    def test_random_points_land_on_the_frame(self, points):
        try:
            config = normalize_config(points)
        except ConfigError:
            assume(False)
        assert config.normalized_points()[:4] == list(FRAME)
        assert sorted(config.raw_points) == sorted(tuple(map(Fraction, p)) for p in points)
        for raw, target in zip(config.raw_points, config.normalized_points()):
            image = linalg.mat_vec([list(r) for r in config.transform], list(raw))
            assert linalg.rank([image, list(target)]) == 1

    def test_fixture_value(self):
        config = normalize_config(veronese_points(THETA))
        assert config.ab == (Fraction(-1, 5), Fraction(9, 5))

    def test_round_trip_recovers_ab(self):
        rng = random.Random(4)
        base = PointConfig.from_ab(Fraction(-1, 5), Fraction(9, 5))
        for _ in range(10):
            while True:
                m = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
                if linalg.det(m) != 0:
                    break
            moved = [tuple(linalg.mat_vec(m, list(p))) for p in base.normalized_points()]
            assert normalize_config(moved).ab == base.ab

    def test_swap_branch_when_fifth_lands_at_infinity(self):
        # send the fifth point to the line at infinity with a known map
        base = PointConfig.from_ab(Fraction(2), Fraction(5))
        frame = base.normalized_points()
        # map fixing the first four points' frame but pushing (1:2:5) to x0 = 0:
        # choose M with row0 orthogonal to (1, 2, 5)
        m = [[Fraction(-2), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
        assert linalg.det(m) != 0
        moved = [tuple(linalg.mat_vec(m, list(p))) for p in frame]
        config = normalize_config(moved)
        # the five moved points normalize again to a valid frame; the swap
        # reorders them, so re-applying the transform must reproduce the frame
        assert config.normalized_points()[:4] == list(FRAME)
        assert config.ab[0] != 0 or config.ab[1] != 0

    def test_degenerate_input_rejected(self):
        pts = veronese_points(THETA)
        with pytest.raises(ConfigError, match="distinct"):
            normalize_config(pts[:4] + [pts[0]])
        collinear = [(Fraction(1), Fraction(0), Fraction(0)), (Fraction(1), Fraction(1), Fraction(0)), (Fraction(1), Fraction(2), Fraction(0)), (Fraction(1), Fraction(0), Fraction(1)), (Fraction(1), Fraction(1), Fraction(1))]
        with pytest.raises(ConfigError, match="collinear"):
            normalize_config(collinear)


class TestLines:
    def test_sixteen_classes(self):
        lines = enumerate_lines()
        assert len(lines) == 16
        assert len({(l.d, l.m) for l in lines}) == 16

    def test_line_numerology(self):
        k = anticanonical_class()
        for line in enumerate_lines():
            assert line.self_intersection() == -1
            assert line.dot(k) == 1

    def test_sample_intersections(self):
        assert conic_class().dot(exceptional_class(5)) == 1
        assert line_class(1, 2).dot(line_class(3, 4)) == 1
        assert line_class(1, 2).dot(line_class(1, 3)) == 0

    def test_exhaustive_lattice_search(self):
        k = anticanonical_class()
        found = set()
        for d in range(-2, 3):
            for m in itertools.product((-1, 0, 1), repeat=5):
                from dp4lag.pencil import DivisorClass

                c = DivisorClass(d, m)
                if c.self_intersection() == -1 and c.dot(k) == 1:
                    found.add((d, m))
        assert found == {(l.d, l.m) for l in enumerate_lines()}


class TestConicFibrations:
    def test_ten_fibrations_with_four_fibers(self):
        fibs = conic_fibrations()
        assert len(fibs) == 10
        assert all(len(f.singular_fibers) == 4 for f in fibs)

    def test_fiber_class_numerology(self):
        k = anticanonical_class()
        for f in conic_fibrations():
            assert f.fiber_class.self_intersection() == 0
            assert f.fiber_class.dot(k) == 2
            for l1, l2 in f.singular_fibers:
                total = l1 + l2
                assert (total.d, total.m) == (f.fiber_class.d, f.fiber_class.m)

    def test_index_five_fibers(self):
        f51 = next(f for f in conic_fibrations() if f.i == 5 and f.j == 1)
        labels = {(l1.label, l2.label) for l1, l2 in f51.singular_fibers}
        assert labels == {("l15", "E1"), ("l25", "E2"), ("l35", "E3"), ("l45", "E4")}
        f52 = next(f for f in conic_fibrations() if f.i == 5 and f.j == 2)
        assert ("C", "E5") in {(l1.label, l2.label) for l1, l2 in f52.singular_fibers}

    def test_partition_of_sixteen_lines(self):
        lines = sorted((l.d, l.m) for l in enumerate_lines())
        for i in range(1, 6):
            used = []
            for f in conic_fibrations():
                if f.i == i:
                    for l1, l2 in f.singular_fibers:
                        used.extend([(l1.d, l1.m), (l2.d, l2.m)])
            assert sorted(used) == lines


class TestNumerology:
    def test_known_intersection_numbers(self):
        n = zeta_numerology(4, 8)
        assert n["zeta_cubed"] == -4
        assert n["base_multiplicity"] == 1
        assert n["base_multiplicity_sum"] == 16
        assert n["euler_characteristic_blowup"] == 48

    def test_vmrt_sums(self):
        assert all(vmrt_class_sum(i) for i in range(1, 6))

    def test_vmrt_negative_control(self):
        # perturbing one coefficient breaks the identity
        c1 = [1, -1] + [1] * 5
        c2 = [1, 1] + [-1] * 5
        c1[2] -= 2
        c2[2] += 2
        c1[3] += 1  # perturbation
        assert [a + b for a, b in zip(c1, c2)] != [2, 0, 0, 0, 0, 0, 0]


class TestMobius:
    def test_three_point_map(self):
        # swapping 0 and infinity while fixing 1 is the inversion map
        pairs = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (1, 1))]
        m = mobius_from_pairs(pairs)
        image = mobius_apply(m, (1, 2))
        assert image[0] * 1 - image[1] * 2 == 0  # (1:2) lands on (2:1)

    def test_cross_ratio_invariance(self):
        pairs = [((1, 0), (1, 3)), ((1, 1), (1, 5)), ((2, 1), (1, -1))]
        m = mobius_from_pairs(pairs)
        pts = [(1, 0), (1, 1), (2, 1), (5, 3)]
        images = [mobius_apply(m, p) for p in pts]
        cr1 = cross_ratio(*pts)
        cr2 = cross_ratio(*images)
        assert cr1[0] * cr2[1] == cr1[1] * cr2[0]

    def test_match_shuffled_parameters(self, fixture_basis, fixture_config):
        from dp4lag.levels import special_directions

        sd = special_directions(fixture_basis, fixture_config)
        params = [(Fraction(1), t) for t in THETA]
        base = match_directions_to_parameters(sd.directions, params)
        shuffled = [params[k] for k in (3, 0, 4, 1, 2)]
        other = match_directions_to_parameters(sd.directions, shuffled)
        base_pairs = {(d, base["permutation"][k]) for k, d in enumerate(sd.directions)}
        other_pairs = {
            (d, (3, 0, 4, 1, 2)[other["permutation"][k]]) for k, d in enumerate(sd.directions)
        }
        assert base_pairs == other_pairs


# ---------------------------------------------------------------------------
# The integer point configurations and pencil members against their rational oracles
# ---------------------------------------------------------------------------

small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
nonzero_rationals = small_rationals.filter(lambda q: q != 0)
distinct_theta = st.lists(small_rationals, min_size=5, max_size=5, unique=True)


def _outcome(build):
    """The configuration's printed fields and its bytes, or the `ConfigError` text."""
    try:
        config = build()
    except ConfigError as exc:
        return str(exc)
    return config.raw_points, config.transform, config.ab, json.dumps(config.to_json())


def _assert_normalizes_like_the_oracle(points):
    outcome = _outcome(lambda: normalize_config(points))
    assert outcome == _outcome(lambda: oracles.normalize_config(points))
    return outcome


@st.composite
def scaled_frame_images(draw, at_infinity):
    """Five points ``c_k M q_k`` for an integer matrix M, rational scales c_k and the frame points q_k.

    The fifth q is (1:a:b), or (0:u:v) when ``at_infinity``: then the fifth
    point lands on the line at infinity once the first four are moved to `FRAME`.
    """
    m = draw(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=3))
    assume(linalg.det(m) != 0)
    coords = nonzero_rationals if at_infinity else small_rationals
    fifth = (0 if at_infinity else 1, *draw(st.tuples(coords, coords)))
    scales = draw(st.lists(nonzero_rationals, min_size=5, max_size=5))
    return [tuple(c * x for x in linalg.mat_vec(m, list(q))) for c, q in zip(scales, [*FRAME, fifth])]


class TestIntegerConfigurationsMatchTheOracle:
    @settings(max_examples=scaled(80), deadline=None)
    @given(distinct_theta)
    def test_random_theta(self, theta):
        _assert_normalizes_like_the_oracle(veronese_points(theta))

    @settings(max_examples=scaled(120), deadline=None)
    @given(st.lists(st.tuples(small_rationals, small_rationals, small_rationals), min_size=5, max_size=5))
    def test_random_points(self, points):
        assume(all(any(p) for p in points))
        _assert_normalizes_like_the_oracle(points)

    @settings(max_examples=scaled(120), deadline=None)
    @given(st.booleans().flatmap(scaled_frame_images))
    def test_scaled_frame_images_including_a_fifth_point_at_infinity(self, points):
        _assert_normalizes_like_the_oracle(points)

    def test_fifth_point_at_infinity_takes_the_swap_branch(self):
        m = [[2, -1, 3], [1, 4, 0], [-2, 1, 5]]
        scales = [3, Fraction(-2, 7), 5, Fraction(9, 4), Fraction(1, 3)]
        points = [tuple(c * x for x in linalg.mat_vec(m, list(q))) for c, q in zip(scales, [*FRAME, (0, 2, 7)])]
        raw_points, _, _, _ = _assert_normalizes_like_the_oracle(points)
        assert raw_points[3:] == (points[4], points[3])

    @settings(max_examples=scaled(150), deadline=None)
    @given(st.tuples(small_rationals, small_rationals), st.sampled_from([None, 0, 1, 2, 3, 4, 5]))
    def test_random_ab(self, ab, frame_line):
        # frame_line puts (1:a:b) on a line through two frame points: a = 0,
        # b = 0, a = 1, b = -a, a + b = 1 or b = 1 - 2a
        a, b = ab
        if frame_line is not None:
            a, b = [(0, b), (a, 0), (1, b), (a, -a), (a, 1 - a), (a, 1 - 2 * a)][frame_line]
        fifth = (Fraction(1), Fraction(a), Fraction(b))
        try:
            oracles.check_general_position([*FRAME, fifth])
            expected = None
        except ConfigError as exc:
            expected = str(exc)
        got = _outcome(lambda: PointConfig.from_ab(a, b))
        if expected is not None:
            assert got == expected
            return
        assert got[2] == (a, b)
        outcome = _assert_normalizes_like_the_oracle([*FRAME, fifth])
        assert outcome[2] == (a, b)


@st.composite
def dense_pencils(draw):
    """A pencil congruent to a diagonal one, and members to test: its roots (some repeated) and random parameters."""
    q1 = draw(st.lists(nonzero_rationals, min_size=5, max_size=5))
    # few distinct values, so that roots repeat and coranks above 1 occur
    repeating = st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(5)])
    ratios = draw(st.lists(repeating | small_rationals, min_size=5, max_size=5))
    s = draw(st.lists(st.lists(st.integers(-2, 2), min_size=5, max_size=5), min_size=5, max_size=5))
    assume(linalg.det(s) != 0)
    st_ = [list(col) for col in zip(*s)]
    q2 = [r * c for r, c in zip(ratios, q1)]
    m1 = linalg.mat_mul(linalg.mat_mul(st_, diag(q1)), s)
    m2 = linalg.mat_mul(linalg.mat_mul(st_, diag(q2)), s)
    return QuadricPencil.make(m1, m2), ratios + draw(st.lists(small_rationals, max_size=3))


class TestIntegerMembersMatchTheOracle:
    @settings(max_examples=scaled(80), deadline=None)
    @given(distinct_theta)
    def test_det_q1_and_every_corank(self, theta):
        pen = standard_dp4_quadrics(theta)
        assert pen.det_q1() == linalg.det([list(r) for r in pen.q1])
        assert type(pen.det_q1()) is Fraction
        for t in [*theta, Fraction(13, 17)]:
            assert member_corank(pen, t) == oracles.member_corank(pen, t) == int(t in theta)

    @settings(max_examples=scaled(60), deadline=None)
    @given(dense_pencils())
    def test_dense_pencils_with_repeated_roots(self, case):
        pen, parameters = case
        assert pen.det_q1() == linalg.det([list(r) for r in pen.q1])
        for t in parameters:
            assert member_corank(pen, t) == oracles.member_corank(pen, t)


large_denominator_rationals = st.builds(Fraction, st.integers(-(2**20), 2**20), st.integers(1, 2**40))
theta_with_zero_and_large_denominators = st.lists(
    small_rationals | large_denominator_rationals | st.just(Fraction(0)) | st.just(Fraction(-1, 2**33 + 1)),
    min_size=5,
    max_size=5,
    unique=True,
)


@st.composite
def symmetric_pencils(draw):
    """Non-diagonal symmetric pencils with Q1 = U^T D U nonsingular, for an upper unitriangular U.

    One draw in a few takes D = k^2 I, so that det Q1 = k^10 and
    `QuadricPencil.make` rescales both matrices to det Q1 = 1.
    """
    u = [[1 if i == j else (draw(st.integers(-3, 3)) if j > i else 0) for j in range(5)] for i in range(5)]
    k = draw(st.integers(2, 3))
    d = draw(st.just([k * k] * 5) | st.lists(nonzero_rationals, min_size=5, max_size=5))
    ut = [list(col) for col in zip(*u)]
    q1 = linalg.mat_mul(linalg.mat_mul(ut, diag(d)), u)
    upper = draw(st.lists(small_rationals, min_size=15, max_size=15))
    q2 = [[Fraction(0)] * 5 for _ in range(5)]
    for (i, j), x in zip(((i, j) for i in range(5) for j in range(i, 5)), upper):
        q2[i][j] = q2[j][i] = x
    return q1, q2


def _characteristic_outcome(characteristic, pen):
    """The characteristic polynomial, or the `PencilError` text."""
    try:
        return characteristic(pen)
    except PencilError as exc:
        return str(exc)


MIXED_THETA = [Fraction(0), Fraction(-7, 3), Fraction(5, 2**40 + 15), Fraction(-1, 2**33 + 1), Fraction(9)]


class TestPencilPathMatchTheOracle:
    @settings(max_examples=scaled(80), deadline=None)
    @given(theta_with_zero_and_large_denominators)
    @example(MIXED_THETA)
    def test_standard_quadrics_and_characteristic_polynomial(self, theta):
        pen, reference = standard_dp4_quadrics(theta), oracles.standard_dp4_quadrics(theta)
        assert (pen.q1, pen.q2, pen.det_q1()) == (reference.q1, reference.q2, reference.det_q1())
        assert characteristic_polynomial(pen) == oracles.characteristic_polynomial(pen)

    def test_roots_of_zero_negative_and_large_denominator_theta(self):
        assert [m.theta for m in singular_members(standard_dp4_quadrics(MIXED_THETA))] == sorted(MIXED_THETA)

    @settings(max_examples=scaled(60), deadline=None)
    @given(symmetric_pencils())
    def test_non_diagonal_pencils(self, pair):
        pen = QuadricPencil.make(*pair)
        assert _characteristic_outcome(characteristic_polynomial, pen) == _characteristic_outcome(
            oracles.characteristic_polynomial, pen
        )

    def test_a_pencil_rescaled_to_unit_det(self):
        u = [[1, 2, 0, -1, 3], [0, 1, 1, 0, -2], [0, 0, 1, 3, 1], [0, 0, 0, 1, -1], [0, 0, 0, 0, 1]]
        ut = [list(col) for col in zip(*u)]
        q1 = linalg.mat_mul(linalg.mat_mul(ut, diag([4] * 5)), u)
        q2 = linalg.mat_mul(linalg.mat_mul(ut, diag([0, 4, -4, 8, Fraction(-8, 3)])), u)
        pen = QuadricPencil.make(q1, q2)
        assert pen.det_q1() == 1 and pen.q1 != tuple(map(tuple, q1))
        char = characteristic_polynomial(pen)
        assert char == oracles.characteristic_polynomial(pen)
        assert [m.theta for m in singular_members(pen, char)] == sorted([0, 1, -1, 2, Fraction(-2, 3)])


def _mobius_outcome(function, *args):
    """The value of a call, or the text of the `ValueError` it raises."""
    try:
        return function(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# points of the projective line: ints or rationals, zero, negative and wide coordinates
p1_coordinates = st.integers(-9, 9) | small_rationals | st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12))
p1_points = st.tuples(p1_coordinates, p1_coordinates).filter(lambda p: p != (0, 0))


class TestIntegerProjectiveLineMatchTheOracle:
    """Cross ratios and Moebius maps on integer pairs against the rational bodies of `oracles`."""

    @settings(max_examples=scaled(60), deadline=None)
    @given(st.lists(p1_points, min_size=4, max_size=4), st.lists(small_rationals.filter(bool), min_size=4, max_size=4))
    def test_cross_ratio(self, points, scales):
        num, den = cross_ratio(*points)
        expected = oracles.cross_ratio(*points)
        assert num * expected[1] == den * expected[0]
        assert (num == den == 0) == (expected[0] == expected[1] == 0)
        # rescaling a point rescales numerator and denominator alike
        rescaled = cross_ratio(*[(s * a, s * b) for s, (a, b) in zip(scales, points)])
        assert num * rescaled[1] == den * rescaled[0]

    @settings(max_examples=scaled(60), deadline=None)
    @given(data=st.data())
    def test_mobius_from_pairs_and_apply(self, data):
        # targets from a small pool repeat often, so degenerate pairs are drawn too
        pool = data.draw(st.lists(p1_points, min_size=2, max_size=4))
        sources = data.draw(st.lists(p1_points | st.sampled_from(pool), min_size=3, max_size=3))
        targets = data.draw(st.lists(st.sampled_from(pool) | p1_points, min_size=3, max_size=3))
        pairs = list(zip(sources, targets))
        m = _mobius_outcome(mobius_from_pairs, pairs)
        expected = _mobius_outcome(oracles.mobius_from_pairs, pairs)
        if isinstance(expected, str):
            assert m == expected
            return
        entries = [x for row in m for x in row]
        assert all(type(x) is int for x in entries)
        # the oracle's map has 1 at its free column, the last nonzero entry
        free = next(x for x in reversed(entries) if x)
        assert free > 0
        assert tuple(tuple(Fraction(x, free) for x in row) for row in m) == expected
        point = data.draw(p1_points)
        u, v = mobius_apply(m, point)
        ou, ov = oracles.mobius_apply(expected, point)
        assert (u, v) != (0, 0) and u * ov == v * ou
        for source, target in pairs:
            image = mobius_apply(m, source)
            assert image[0] * target[1] == image[1] * target[0]

    def test_the_fixture_matching(self, fixture_directions):
        params = [(t.denominator, t.numerator) for t in THETA]
        match = match_directions_to_parameters(fixture_directions.directions, params)
        assert match["permutation"] == (0, 1, 2, 3, 4) and match["held_out_residuals"] == (0, 0)
        expected = oracles.mobius_from_pairs([(fixture_directions.directions[k], (1, THETA[k])) for k in range(3)])
        free = next(x for row in reversed(match["matrix"]) for x in reversed(row) if x)
        assert tuple(tuple(Fraction(x, free) for x in row) for row in match["matrix"]) == expected


def with_entry(m, i, j, value):
    """``m`` with entry (i, j) replaced by ``value``."""
    return [[value if (r, c) == (i, j) else x for c, x in enumerate(row)] for r, row in enumerate(m)]


class TestPencilInput:
    @pytest.mark.parametrize(
        "q1, q2, error",
        [
            (diag([1] * 5)[:4], diag([1] * 5), "Q1 must be 5x5"),
            (diag([1] * 5), [row[:4] for row in diag([1] * 5)], "Q2 must be 5x5"),
            (with_entry(diag([1] * 5), 0, 1, Fraction(1, 3)), diag([2] * 5), "Q1 is not symmetric"),
            (diag([1] * 5), with_entry(diag([2] * 5), 4, 2, Fraction(-7, 2)), "Q2 is not symmetric"),
            (diag([1, 2, 3, 4, 0]), diag([1] * 5), "Q1 is singular"),
        ],
        ids=["q1-shape", "q2-shape", "q1-asymmetric", "q2-asymmetric", "q1-singular"],
    )
    def test_each_malformed_pencil_is_named(self, q1, q2, error):
        with pytest.raises(PencilError, match=f"^{error}$"):
            QuadricPencil.make(q1, q2)
