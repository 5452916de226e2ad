import dataclasses
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dp4lag import PointConfig, assemble_system, kernel_basis
from dp4lag.exactpoly import (
    MPoly,
    VarTable,
    derivative,
    exact_divide,
    poly_derivative,
    poly_eval,
    poly_substitute_linear,
    univariate_gcd,
    univariate_ints,
)
from dp4lag.levels import (
    INFINITY,
    FiberStatus,
    LevelsError,
    branch_model_ranks,
    branch_quadrics,
    chart_base_curves,
    chart_discriminant,
    ebi_cubic,
    fiber_count,
    is_generic_sample,
    line_tangency_check,
    reducibility_test,
    special_directions,
    TangencyReport,
    _node_of_pairing,
)
from dp4lag.pencil import ConfigError, pairings
from dp4lag.sections import NUM_SLOTS, PLANE_VARS, SLOTS, SectionBasis, SymField
from dp4lag import linalg
from conftest import THETA, scaled
import oracles

X, Y = MPoly.variable(PLANE_VARS, "x"), MPoly.variable(PLANE_VARS, "y")
ZERO = MPoly.zero(PLANE_VARS)
ONE = MPoly.const(PLANE_VARS, 1)
T = VarTable(("t",))


def synthetic_basis(fixture_basis, f_field, g_field):
    return dataclasses.replace(fixture_basis, H=f_field, G=g_field)


def restrict_at_point(basis, e, x0):
    """The binary quadric of the pencil member e2*H - e1*G at the chart point x0."""
    return oracles.quadrics_at(basis, Fraction(e[0]), Fraction(e[1]), *x0)[0]


class TestRestrict:
    def test_linearity_in_direction(self, fixture_basis):
        x0 = (Fraction(2), Fraction(5))
        minus_g = restrict_at_point(fixture_basis, (1, 0), x0)
        h_only = restrict_at_point(fixture_basis, (0, 1), x0)
        c0, d0, e0 = oracles.restrict(fixture_basis.G, *x0)
        f0, g0, h0 = oracles.restrict(fixture_basis.H, *x0)
        assert (minus_g.c_u2, minus_g.c_v2, minus_g.c_uv) == (-c0, -d0, -e0)
        assert (h_only.c_u2, h_only.c_v2, h_only.c_uv) == (f0, g0, h0)

    def test_additivity(self, fixture_basis):
        x0 = (Fraction(1, 3), Fraction(4))
        q1 = restrict_at_point(fixture_basis, (2, 3), x0)
        q2 = restrict_at_point(fixture_basis, (5, -1), x0)
        q12 = restrict_at_point(fixture_basis, (7, 2), x0)
        assert (q12.c_u2, q12.c_uv, q12.c_v2) == (
            q1.c_u2 + q2.c_u2,
            q1.c_uv + q2.c_uv,
            q1.c_v2 + q2.c_v2,
        )

    def test_zero_direction_rejected(self, fixture_basis):
        with pytest.raises(LevelsError):
            fiber_count(fixture_basis, (0, 0), (Fraction(1), Fraction(1)))


class TestFiberCount:
    def test_generic_four_points(self, fixture_basis):
        rng = random.Random(0)
        checked = 0
        while checked < 50:
            x0 = (
                Fraction(rng.randint(-30, 30), rng.randint(1, 7)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 7)),
            )
            e = (Fraction(rng.randint(-20, 20)), Fraction(rng.randint(-20, 20)))
            if e == (0, 0) or not is_generic_sample(fixture_basis, e, x0):
                continue
            rep = fiber_count(fixture_basis, e, x0)
            assert rep.status is FiberStatus.FOUR_POINTS
            assert len(rep.involution_pairs) == 2
            assert all(line.alive for line in rep.solution_data)
            checked += 1

    def test_node_with_matching_direction_is_whole_line(self, fixture_basis, fixture_directions):
        node = fixture_directions.witnesses[0][0].node
        direction = fixture_directions.directions[0]
        rep = fiber_count(fixture_basis, direction, node)
        assert rep.status is FiberStatus.WHOLE_LINE
        assert rep.involution_pairs is None

    def test_node_with_generic_direction_is_finite(self, fixture_basis, fixture_directions):
        node = fixture_directions.witnesses[0][0].node
        rep = fiber_count(fixture_basis, (Fraction(3), Fraction(7)), node)
        assert rep.status is not FiberStatus.WHOLE_LINE

    def test_blown_up_point_rejected(self, fixture_basis):
        with pytest.raises(LevelsError, match="blown-up"):
            fiber_count(fixture_basis, (1, 1), fixture_basis.config.affine_points()[0])

    def test_two_double_classification(self, fixture_basis):
        synthetic = synthetic_basis(fixture_basis, SymField(ONE, ZERO, ZERO), SymField(ZERO, ONE, ZERO))
        rep = fiber_count(synthetic, (1, 0), (Fraction(5), Fraction(7)))
        assert rep.status is FiberStatus.TWO_DOUBLE
        assert len(rep.involution_pairs) == 1
        assert rep.solution_data[0].multiplicity == 2
        four = fiber_count(synthetic, (1, 1), (Fraction(5), Fraction(7)))
        assert four.status is FiberStatus.FOUR_POINTS
        assert [line.radius_square for line in four.solution_data] == [Fraction(1), Fraction(1)]

    def test_dead_rational_line_is_other_degenerate(self, fixture_basis):
        # H = u^2, G = uv at e = (1, 1): the member u(u - v) has the root line
        # u = 0, where both fields vanish
        synthetic = synthetic_basis(fixture_basis, SymField(ONE, ZERO, ZERO), SymField(ZERO, ZERO, ONE))
        rep = fiber_count(synthetic, (1, 1), (Fraction(5), Fraction(7)))
        assert rep.status is FiberStatus.OTHER_DEGENERATE
        assert [(line.direction, line.alive) for line in rep.solution_data] == [
            ((1, 1), True),
            ((0, 1), False),
        ]
        assert rep.involution_pairs == (0,)

    def test_dead_conjugate_pair_is_other_degenerate(self, fixture_basis):
        # H = G = u^2 + v^2 at e = (1, 2): both fields vanish on the member's
        # conjugate root lines u = +-i v
        field = SymField(ONE, ONE, ZERO)
        rep = fiber_count(synthetic_basis(fixture_basis, field, field), (1, 2), (Fraction(5), Fraction(7)))
        assert rep.status is FiberStatus.OTHER_DEGENERATE
        [line] = rep.solution_data
        assert line.direction is None and line.conjugate_quadric == (1, 0, 1) and not line.alive
        assert rep.involution_pairs == ()

    def test_vanishing_sections_are_other_degenerate(self, fixture_basis):
        # H = (x - 5) u^2, G = (x - 5) v^2 vanish over x = 5: an empty fiber
        synthetic = synthetic_basis(fixture_basis, SymField(X - 5, ZERO, ZERO), SymField(ZERO, X - 5, ZERO))
        rep = fiber_count(synthetic, (1, 1), (Fraction(5), Fraction(7)))
        assert rep.status is FiberStatus.OTHER_DEGENERATE
        assert rep.solution_data == () and rep.involution_pairs == ()

    def test_conjugate_directions_report_quadric(self, fixture_basis):
        rng = random.Random(1)
        seen_conjugate = False
        checked = 0
        while checked < 40 and not seen_conjugate:
            x0 = (
                Fraction(rng.randint(-30, 30), rng.randint(1, 7)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 7)),
            )
            e = (Fraction(rng.randint(-20, 20)), Fraction(rng.randint(-20, 20)))
            if e == (0, 0) or not is_generic_sample(fixture_basis, e, x0):
                continue
            rep = fiber_count(fixture_basis, e, x0)
            checked += 1
            if rep.solution_data[0].conjugate_quadric is not None:
                seen_conjugate = True
                assert rep.status is FiberStatus.FOUR_POINTS
        assert seen_conjugate

    def test_involution_scale_equivariance(self, fixture_basis):
        x0 = (Fraction(1, 3), Fraction(1, 7))
        e = (Fraction(3), Fraction(7))
        base = fiber_count(fixture_basis, e, x0)
        for lam in (Fraction(2), Fraction(3), Fraction(-1)):
            scaled = fiber_count(fixture_basis, (lam * lam * e[0], lam * lam * e[1]), x0)
            assert scaled.status is base.status
            for b_line, s_line in zip(base.solution_data, scaled.solution_data):
                if b_line.radius_square is not None:
                    assert s_line.radius_square == lam * lam * b_line.radius_square
        delta = chart_discriminant(fixture_basis, e)
        scaled_delta = chart_discriminant(fixture_basis, (4 * e[0], 4 * e[1]))
        assert scaled_delta == 16 * delta


class TestChartDiscriminant:
    def test_degree_bound(self, fixture_basis):
        rng = random.Random(2)
        for _ in range(10):
            e = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
            if e == (0, 0):
                continue
            delta = chart_discriminant(fixture_basis, e)
            assert delta.total_degree() <= 8
            assert delta.total_degree() == 6  # measured for true section pairs

    def test_builds_no_polynomial_product_or_sum(self, fixture_config, polynomial_arithmetic):
        # a fresh basis, so its discriminant forms are built here too
        basis = basis_of(fixture_config)
        deltas = [chart_discriminant(basis, e) for e in ((3, 7), (Fraction(-2, 3), Fraction(9, 4)))]
        assert polynomial_arithmetic == []
        assert deltas == [oracles.chart_discriminant(basis, e) for e in ((3, 7), (Fraction(-2, 3), Fraction(9, 4)))]

    def test_degree_six_breaks_when_a_high_coefficient_is_perturbed(self, fixture_basis):
        # the degree-8 and degree-7 parts cancel only for a true section pair;
        # a perturbed coefficient of degree <= 2 keeps the degree at 6
        for slot, (_, i, j) in enumerate(SLOTS):
            slots = oracles.slots(fixture_basis.H)
            slots[slot] += 1
            corrupted = dataclasses.replace(fixture_basis, H=SymField.from_slots(slots))
            degree = chart_discriminant(corrupted, (3, 7)).total_degree()
            assert (degree == 6) == (i + j <= 2), (SLOTS[slot], degree)

    def test_vanishing_detects_repeated_roots(self, fixture_basis):
        rng = random.Random(3)
        e = (Fraction(3), Fraction(7))
        delta = chart_discriminant(fixture_basis, e)
        checked = 0
        while checked < 50:
            x0 = (
                Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
                Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
            )
            if x0 in fixture_basis.config.affine_points():
                continue
            value = poly_eval(delta, {"x": x0[0], "y": x0[1]})
            rep = fiber_count(fixture_basis, e, x0)
            has_double_direction = any(l.multiplicity == 2 for l in rep.solution_data) or rep.status is FiberStatus.WHOLE_LINE
            assert (value == 0) == has_double_direction
            checked += 1

    def test_cusps_at_base_points(self, fixture_basis):
        # vanishing to order exactly 2 at each blown-up point (measured), for
        # a generic direction: value and both first partials vanish, at least
        # one second partial does not
        e = (Fraction(3), Fraction(7))
        delta = chart_discriminant(fixture_basis, e)
        dx = poly_derivative(delta, "x")
        dy = poly_derivative(delta, "y")
        second = [poly_derivative(dx, "x"), poly_derivative(dx, "y"), poly_derivative(dy, "y")]
        for px, py in fixture_basis.config.affine_points():
            point = {"x": px, "y": py}
            assert poly_eval(delta, point) == 0
            assert poly_eval(dx, point) == 0
            assert poly_eval(dy, point) == 0
            assert any(poly_eval(s, point) != 0 for s in second)

    def test_bilinear_in_direction_specialization_commutes(self, fixture_basis):
        # expanding symbolically in (e1, e2) then specializing agrees with
        # specializing first
        E = VarTable(("x", "y", "e1", "e2"))
        e1 = MPoly.variable(E, "e1")
        e2 = MPoly.variable(E, "e2")
        H, G = fixture_basis.H, fixture_basis.G
        a = H.f.with_vars(E) * e2 - G.f.with_vars(E) * e1
        b = H.g.with_vars(E) * e2 - G.g.with_vars(E) * e1
        c = H.h.with_vars(E) * e2 - G.h.with_vars(E) * e1
        symbolic = c * c - 4 * a * b
        rng = random.Random(4)
        for _ in range(10):
            ve1, ve2 = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
            if (ve1, ve2) == (0, 0):
                continue
            vx, vy = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
            lhs = poly_eval(symbolic, {"x": vx, "y": vy, "e1": ve1, "e2": ve2})
            rhs = poly_eval(chart_discriminant(fixture_basis, (ve1, ve2)), {"x": vx, "y": vy})
            assert lhs == rhs


class TestSpecialDirections:
    def test_five_distinct_with_witnesses(self, fixture_directions):
        assert len(set(fixture_directions.directions)) == 5
        assert all(len(group) >= 1 for group in fixture_directions.witnesses)
        # chart-visible witness nodes for the canonical fixture
        assert [len(g) for g in fixture_directions.witnesses] == [3, 3, 3, 3, 1]

    def test_fixture_directions_frozen(self, fixture_directions):
        assert fixture_directions.directions == (
            (Fraction(5), Fraction(1)),
            (Fraction(7), Fraction(2)),
            (Fraction(1), Fraction(0)),
            (Fraction(3), Fraction(1)),
            (Fraction(1), Fraction(-1)),
        )

    def test_whole_line_exactly_on_matching_pairs(self, fixture_basis, fixture_directions):
        nodes = [
            (i, w.node)
            for i, group in enumerate(fixture_directions.witnesses, start=1)
            for w in group
        ]
        assert len(nodes) == 13
        for (i, node), (k, d) in itertools.product(nodes, enumerate(fixture_directions.directions, start=1)):
            rep = fiber_count(fixture_basis, d, node)
            assert (rep.status is FiberStatus.WHOLE_LINE) == (i == k)

    def test_corrupted_basis_fails_proportionality(self, fixture_basis, fixture_config):
        slots = oracles.slots(fixture_basis.H)
        slots[3] += 1
        corrupted = dataclasses.replace(fixture_basis, H=SymField.from_slots(slots))
        with pytest.raises(LevelsError):
            special_directions(corrupted, fixture_config)


class TestReducibility:
    def test_true_exactly_on_special_directions(self, fixture_basis, fixture_directions):
        special = set(fixture_directions.directions)
        for d in special:
            result = reducibility_test(fixture_basis, d)
            assert result.reducible
            delta = chart_discriminant(fixture_basis, d)
            assert result.sqrt * result.sqrt == delta
        rng = random.Random(5)
        decoys = 0
        while decoys < 10:
            e = (Fraction(rng.randint(-30, 30)), Fraction(rng.randint(-30, 30)))
            if e == (0, 0):
                continue
            prim = linalg.primitive_integer_vector(list(e))
            e = (Fraction(prim[0]), Fraction(prim[1]))
            if e in special:
                continue
            assert not reducibility_test(fixture_basis, e).reducible
            decoys += 1

    def test_scaling_direction_keeps_verdict(self, fixture_basis, fixture_directions):
        d = fixture_directions.directions[0]
        for lam in (2, -3, Fraction(1, 2)):
            scaled = (lam * d[0], lam * d[1])
            assert reducibility_test(fixture_basis, scaled).reducible


class TestBranchModel:
    def test_quadric_values(self):
        b1, b2, b3 = branch_quadrics(THETA, Fraction(3))
        # Q'(theta_i) = P'(theta_i) * (theta_i - 3)
        expected = [Fraction(1, -12), Fraction(1, 12), Fraction(1, 24), Fraction(1, -24), Fraction(1, -120)]
        assert list(b1) == expected
        assert list(b2) == [t * v for t, v in zip(THETA, expected)]
        assert list(b3) == [t * t * v for t, v in zip(THETA, expected)]

    def test_distinctness_enforced(self):
        with pytest.raises(LevelsError):
            branch_quadrics(THETA, Fraction(1))

    def test_containment_ranks(self):
        ranks = branch_model_ranks(THETA, Fraction(3))
        assert ranks["rank_surface_pencil"] == 2
        assert ranks["rank_branch_triple"] == 3
        assert ranks["rank_stacked"] == 3
        assert ranks["branch_curve_on_surface"]

    def test_branch_solutions_satisfy_surface_pencil(self):
        # in squared coordinates the three branch quadrics are linear forms;
        # anything annihilated by all three is annihilated by the surface
        # pencil as well (the containment of criterion 11, seen pointwise)
        b1, b2, b3 = branch_quadrics(THETA, Fraction(3))
        null = linalg.kernel([list(b1), list(b2), list(b3)], 5)
        assert len(null) == 2
        pvals = []
        for i, ti in enumerate(THETA):
            prod = Fraction(1)
            for j, tj in enumerate(THETA):
                if i != j:
                    prod *= ti - tj
            pvals.append(prod)
        surface_rows = [[1 / p for p in pvals], [t / p for t, p in zip(THETA, pvals)]]
        for v in null:
            assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in surface_rows)


def third_chord_point(cubic_chart, p, q):
    """Third intersection of the cubic with the chord through two of its points."""
    t = MPoly.variable(T, "t")
    image_x = t * (q[0] - p[0]) + p[0]
    image_y = t * (q[1] - p[1]) + p[1]
    restricted = poly_substitute_linear(cubic_chart, {"x": image_x, "y": image_y})
    if restricted.degree_in("t") != 3:
        return None
    for root in (Fraction(0), Fraction(1)):
        quotient = exact_divide(restricted, t - root)
        if quotient is None:
            return None
        restricted = quotient
    c1, c0 = (restricted.terms.get((k,), Fraction(0)) for k in (1, 0))
    if c1 == 0:
        return None
    tau = -c0 / c1
    return (p[0] + tau * (q[0] - p[0]), p[1] + tau * (q[1] - p[1]))


class TestEbiCubic:
    def test_solution_dimensions(self, fixture_config):
        for i in range(1, 6):
            report = ebi_cubic(fixture_config, i)
            assert report.dim_tangency == 2
            assert report.dim_with_base_point == 1
            assert report.cubic is not None

    def test_conditions_hold_on_unique_cubic(self, fixture_config):
        report = ebi_cubic(fixture_config, 5)
        chart = report.cubic_chart
        points = fixture_config.affine_points()
        p5 = points[4]
        dx, dy = poly_derivative(chart, "x"), poly_derivative(chart, "y")
        for k in range(4):
            pk = points[k]
            at = {"x": pk[0], "y": pk[1]}
            assert poly_eval(chart, at) == 0
            # gradient orthogonal to the join direction (tangency to l_{5,k})
            direction = (p5[0] - pk[0], p5[1] - pk[1])
            assert poly_eval(dx, at) * direction[0] + poly_eval(dy, at) * direction[1] == 0
        assert poly_eval(chart, {"x": p5[0], "y": p5[1]}) == 0

    def test_sqrt_of_discriminant_matches_cubic(self, fixture_basis, fixture_config, fixture_directions):
        # empirical relation: at special direction i the square root of the
        # chart discriminant is proportional to the unique cubic of the same
        # index (the dictionary matching is the identity for this fixture)
        for i in range(1, 6):
            direction = fixture_directions.directions[i - 1]
            sqrt = reducibility_test(fixture_basis, direction).sqrt
            cubic = ebi_cubic(fixture_config, i).cubic_chart
            stacked = []
            monomials = sorted(set(sqrt.terms) | set(cubic.terms))
            stacked.append([sqrt.terms.get(m, Fraction(0)) for m in monomials])
            stacked.append([cubic.terms.get(m, Fraction(0)) for m in monomials])
            assert linalg.rank(stacked) == 1

    def test_chord_points_lie_on_sqrt_locus(self, fixture_basis, fixture_config, fixture_directions):
        # points constructed on the cubic by the chord method satisfy the
        # square root of the discriminant exactly; for this fixture the chord
        # closure of the five base points is a six-element set (the chords
        # close up), so one genuinely fresh rational point appears
        i = 5
        direction = fixture_directions.directions[i - 1]
        sqrt = reducibility_test(fixture_basis, direction).sqrt
        cubic = ebi_cubic(fixture_config, i).cubic_chart
        base = fixture_config.affine_points()
        known = list(base)
        for _ in range(3):
            for a, b in itertools.combinations(range(len(known)), 2):
                candidate = third_chord_point(cubic, known[a], known[b])
                if candidate is not None and candidate not in known:
                    known.append(candidate)
        fresh = [pt for pt in known if pt not in base]
        assert fresh == [(Fraction(1, 2), Fraction(0))]
        for pt in known:
            assert poly_eval(cubic, {"x": pt[0], "y": pt[1]}) == 0
            assert poly_eval(sqrt, {"x": pt[0], "y": pt[1]}) == 0


class TestLineTangency:
    def test_all_ten_joins_tangent(self, fixture_basis):
        e = (Fraction(3), Fraction(7))
        delta = chart_discriminant(fixture_basis, e)
        for i, j in itertools.combinations(range(1, 6), 2):
            report = line_tangency_check(fixture_basis, delta, (i, j))
            assert report.restriction_degree == 6
            assert report.gcd_degree == 3
            assert len(report.witnesses) == 1
            tau = report.witnesses[0]
            pi, pj = fixture_basis.config.affine_points()[i - 1], fixture_basis.config.affine_points()[j - 1]
            point = {
                "x": pi[0] + tau * (pj[0] - pi[0]),
                "y": pi[1] + tau * (pj[1] - pi[1]),
            }
            assert poly_eval(delta, point) == 0

    def test_random_lines_mostly_transverse(self, fixture_basis):
        e = (Fraction(3), Fraction(7))
        delta = chart_discriminant(fixture_basis, e)
        t = MPoly.variable(T, "t")
        rng = random.Random(6)
        transverse = 0
        total = 10
        for _ in range(total):
            x0, y0 = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
            dx, dy = Fraction(rng.randint(1, 9)), Fraction(rng.randint(-9, 9))
            values = univariate_ints(poly_substitute_linear(delta, {"x": t * dx + x0, "y": t * dy + y0}), "t")
            if not values:
                continue
            if len(univariate_gcd(values, derivative(values))) == 1:
                transverse += 1
        assert transverse >= 8

    def test_bad_pair_rejected(self, fixture_basis):
        with pytest.raises(ValueError):
            line_tangency_check(fixture_basis, chart_discriminant(fixture_basis, (3, 7)), (2, 2))


def parallel_to_join(basis, pair):
    """A line parallel to the join of ``pair``, equal to 1 along the join: it meets the join only at infinity."""
    (px, py), (qx, qy) = (basis.config.affine_points()[k - 1] for k in pair)
    dx, dy = qx - px, qy - py
    return X * dy - Y * dx + (1 - dy * px + dx * py)


class TestTangencyOnTheProjectiveJoin:
    PAIR = (1, 4)

    def test_double_root_at_infinity_is_a_witness(self, fixture_basis):
        # delta = l^2 (x + 2y + 5): the restriction drops from degree 3 to 1
        line = parallel_to_join(fixture_basis, self.PAIR)
        report = line_tangency_check(fixture_basis, line * line * (X + 2 * Y + 5), self.PAIR)
        assert (report.restriction_degree, report.gcd_degree) == (1, 1)
        assert report.witnesses == (INFINITY,)
        assert report.has_tangency_witness()

    def test_simple_crossing_at_infinity_is_no_witness(self, fixture_basis):
        # delta = l (x + 2y + 5)(3x - y + 2): degree 3, restriction of degree
        # 2 with two simple roots, and a simple root at infinity
        line = parallel_to_join(fixture_basis, self.PAIR)
        report = line_tangency_check(fixture_basis, line * (X + 2 * Y + 5) * (3 * X - Y + 2), self.PAIR)
        assert (report.restriction_degree, report.gcd_degree) == (2, 0)
        assert report.witnesses == () and report.residual_factor == ()
        assert not report.has_tangency_witness()

    def test_irrational_repeated_factor_is_the_residual(self, fixture_basis):
        # q = |x - p_i|^2 + 1 restricts to |d|^2 t^2 + 1, irreducible over Q
        # and nonzero at t = 0 and t = 1; delta = q^2 repeats it
        (px, py), (qx, qy) = (fixture_basis.config.affine_points()[k - 1] for k in self.PAIR)
        q = (X - px) ** 2 + (Y - py) ** 2 + 1
        report = line_tangency_check(fixture_basis, q * q, self.PAIR)
        norm = (qx - px) ** 2 + (qy - py) ** 2
        assert (report.restriction_degree, report.gcd_degree) == (4, 2)
        assert report.witnesses == ()
        assert report.residual_factor == (1, 0, norm)
        assert report.has_tangency_witness()

    def test_witness_predicate(self):
        def report(witnesses=(), residual=()):
            return TangencyReport((1, 2), 6, 2, witnesses, residual)

        assert not report().has_tangency_witness()
        assert not report(residual=(5,)).has_tangency_witness()
        assert report(residual=(1, 1, 1)).has_tangency_witness()
        assert report(residual=(2, 0, 0, 3)).has_tangency_witness()
        assert report(witnesses=(INFINITY,)).has_tangency_witness()
        assert report(witnesses=(Fraction(1, 2),)).has_tangency_witness()


class TestGenericityHelpers:
    def test_base_curves_vanish_on_points(self, fixture_config, fixture_basis):
        curves = chart_base_curves(fixture_config)
        assert len(curves) == 11
        points = fixture_config.integer_points
        *joins, (c20, c11, c02, c10, c01, c00) = curves
        for (i, j), line in zip(itertools.combinations(range(5), 2), joins):
            assert [sum(a * b for a, b in zip(line, p)) == 0 for p in points] == [k in (i, j) for k in range(5)]
        for x0, x1, x2 in points:
            assert c20 * x1 * x1 + c11 * x1 * x2 + c02 * x2 * x2 + c10 * x0 * x1 + c01 * x0 * x2 + c00 * x0 * x0 == 0

    def test_base_curves_are_built_once_per_configuration(self, fixture_config):
        curves = chart_base_curves(fixture_config)
        assert isinstance(curves, tuple)

    @pytest.mark.parametrize("synthetic", [False, True])
    def test_generic_sample_verdict_matches_the_discriminant_polynomial(self, fixture_basis, fixture_config, synthetic):
        # the fixture basis, and H = u^2 + x v^2, G = v^2, whose member at
        # direction (e1, e2) has discriminant -4 e2 (e2 x - e1), zero on the
        # vertical line x = e1 / e2
        basis = fixture_basis
        if synthetic:
            basis = synthetic_basis(fixture_basis, SymField(ONE, X, ZERO), SymField(ZERO, ONE, ZERO))
        rng = random.Random(11)
        verdicts = set()
        for _ in range(150):
            e = (rng.randint(-3, 3), rng.randint(-3, 3))
            if e == (0, 0):
                continue
            x0 = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
            point = {"x": x0[0], "y": x0[1]}
            off_curves = all(poly_eval(c, point) != 0 for c in oracles.chart_base_curves(fixture_config))
            expected = off_curves and poly_eval(chart_discriminant(basis, e), point) != 0
            assert is_generic_sample(basis, e, x0) == expected
            verdicts.add((off_curves, expected))
        # the fixture's samples never land on its branch curves
        assert verdicts == {(False, False), (True, True)} | ({(True, False)} if synthetic else set())

    def test_on_line_point_flagged(self, fixture_basis):
        # the join of (0,0) and (1,0) is the x-axis
        assert not is_generic_sample(fixture_basis, (3, 7), (Fraction(17), Fraction(0)))


small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
nonzero_rationals = st.builds(Fraction, st.integers(1, 12) | st.integers(-12, -1), st.integers(1, 6))
# sample points and directions with denominators up to 10^9
wide_rationals = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**9))
directions = st.tuples(wide_rationals, wide_rationals).filter(lambda e: e != (0, 0))


@st.composite
def configurations(draw):
    """A configuration of five random theta, or of a random fifth point (a, b)."""
    if draw(st.booleans()):
        return PointConfig.from_theta(draw(st.lists(small_rationals, min_size=5, max_size=5, unique=True)))
    try:
        return PointConfig.from_ab(draw(small_rationals), draw(small_rationals))
    except ConfigError:
        assume(False)


@st.composite
def synthetic_bases(draw, config):
    """H and G with random slots over two different denominators; G is a multiple of H when drawn so."""
    dh, dg = draw(st.lists(st.integers(1, 60), min_size=2, max_size=2, unique=True))
    h_slots = [Fraction(n, dh) for n in draw(st.lists(st.integers(-9, 9), min_size=NUM_SLOTS, max_size=NUM_SLOTS))]
    if draw(st.booleans()):
        ratio = draw(nonzero_rationals) / dg
        g_slots = [ratio * v for v in h_slots]
    else:
        g_slots = [Fraction(n, dg) for n in draw(st.lists(st.integers(-9, 9), min_size=NUM_SLOTS, max_size=NUM_SLOTS))]
    assume(any(h_slots) and any(g_slots))
    return SectionBasis(SymField.from_slots(h_slots), SymField.from_slots(g_slots), config)


def outcome(function, *args):
    """The value of a call, or the text of the `LevelsError` it raises."""
    try:
        return function(*args)
    except LevelsError as exc:
        return f"LevelsError: {exc}"


def basis_of(config):
    return kernel_basis(assemble_system(config), config)


# fiber coordinates: zero, small, negative and wide
coordinates = st.just(Fraction(0)) | small_rationals | wide_rationals


@st.composite
def square_fields(draw):
    """k (a u + b v)^2, times (x - c) when drawn so: a double root line at every point, all of it over x = c."""
    a, b = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
    k = draw(st.integers(-3, 3).filter(bool))
    factor = X - draw(st.integers(-3, 3)) if draw(st.booleans()) else ONE
    return SymField(factor * (k * a * a), factor * (k * b * b), factor * (2 * k * a * b))


@st.composite
def fiber_bases(draw, config):
    """A solved basis, a synthetic one, or a pair of squares of linear forms (double lines, dead lines, empty fibers)."""
    kind = draw(st.sampled_from(["solved", "synthetic", "squares"]))
    if kind == "solved":
        return basis_of(config)
    if kind == "synthetic":
        return draw(synthetic_bases(config))
    return SectionBasis(draw(square_fields()), draw(square_fields()), config)


@st.composite
def curve_points(draw, config):
    """A chart point anywhere, on a join of two base points, or on the conic through all five."""
    where = draw(st.sampled_from(["anywhere", "join", "conic"]))
    affine = config.affine_points()
    if where == "anywhere":
        return where, draw(st.tuples(coordinates, coordinates).filter(lambda p: p not in affine))
    if where == "join":
        (px, py), (qx, qy) = draw(st.sampled_from(list(itertools.combinations(affine, 2))))
        t = draw(coordinates.filter(lambda t: t not in (0, 1)))  # t = 0 and t = 1 are the base points
        return where, (px + t * (qx - px), py + t * (qy - py))
    # the second meet of the conic with a line through a base point, of slope m
    conic = oracles.chart_base_curves(config)[-1]
    (px, py), m = draw(st.sampled_from(affine)), draw(small_rationals)
    plus, minus = (poly_eval(conic, {"x": px + s, "y": py + s * m}) for s in (1, -1))
    assume(plus + minus != 0)
    s = (minus - plus) / (plus + minus)
    return where, (px + s, py + s * m)


class TestIntegerFibersMatchTheOracle:
    """`fiber_count`, `is_generic_sample` and `chart_base_curves` on ints against the rational bodies of `oracles`."""

    @settings(max_examples=scaled(60), deadline=None)
    @given(data=st.data())
    def test_fibers_and_genericity(self, data):
        config = data.draw(configurations())
        basis = data.draw(fiber_bases(config))
        where, x0 = data.draw(curve_points(config))
        e = data.draw(directions | st.sampled_from([(1, 0), (0, 1), (1, 1), (0, -3), (-2, 5)]))
        assert outcome(fiber_count, basis, e, x0) == outcome(oracles.fiber_count, basis, e, x0)
        generic = is_generic_sample(basis, e, x0)
        assert generic == oracles.is_generic_sample(basis, e, x0)
        assert not (generic and where != "anywhere")

    @settings(max_examples=scaled(20), deadline=None)
    @given(data=st.data())
    def test_fibers_over_the_special_nodes(self, data):
        config = data.draw(configurations())
        basis = basis_of(config)
        sd = outcome(special_directions, basis, config)
        assume(not isinstance(sd, str))
        i = data.draw(st.integers(0, 4))
        node = data.draw(st.sampled_from(sd.witnesses[i])).node
        k = data.draw(st.integers(0, 4))
        rep = fiber_count(basis, sd.directions[k], node)
        assert rep == oracles.fiber_count(basis, sd.directions[k], node)
        assert (rep.status is FiberStatus.WHOLE_LINE) == (i == k)

    @settings(max_examples=scaled(40), deadline=None)
    @given(configurations())
    def test_base_curves(self, config):
        *joins, conic = chart_base_curves(config)
        *expected_joins, expected_conic = oracles.chart_base_curves(config)
        for (c0, c1, c2), join in zip(joins, expected_joins):
            # c0 + c1 x + c2 y is a nonzero multiple of the oracle's join
            nums, _ = join.numerators()
            terms = [nums.get(m, 0) for m in ((0, 0), (1, 0), (0, 1))]
            assert any(terms) and oracles.cross((c0, c1, c2), terms) == (0, 0, 0)
        nums, _ = expected_conic.numerators()
        assert conic == tuple(nums.get(m, 0) for m in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)))


class TestIntegerLevelsMatchTheOracle:
    """The integer evaluation table, nodes and discriminant forms against the rational bodies of `oracles`."""

    @settings(max_examples=scaled(60), deadline=None)
    @given(data=st.data())
    def test_chart_values_share_one_positive_scale(self, fixture_config, data):
        basis = data.draw(synthetic_bases(fixture_config))
        X, Y = data.draw(st.integers(-(10**6), 10**6)), data.draw(st.integers(-(10**6), 10**6))
        Z = data.draw(st.integers(-(10**6), 10**6).filter(bool))
        scale = Z**4 * basis.chart_denominator
        x0 = (Fraction(X, Z), Fraction(Y, Z))
        expected = [*oracles.restrict(basis.H, *x0), *oracles.restrict(basis.G, *x0)]
        assert basis.chart_denominator > 0
        assert list(basis.chart_values(X, Y, Z)) == [v * scale for v in expected]

    @pytest.mark.parametrize("synthetic", [False, True])
    @settings(max_examples=scaled(50), deadline=None)
    @given(data=st.data())
    def test_quadrics_discriminants_and_directions(self, synthetic, data):
        # a solved kernel basis, or a synthetic pair whose H and G have different denominators
        config = data.draw(configurations())
        basis = data.draw(synthetic_bases(config)) if synthetic else basis_of(config)
        x0 = data.draw(st.tuples(wide_rationals, wide_rationals))
        e = data.draw(directions)
        # the member, H and G quadrics on ints, seen through the fiber they classify
        assert outcome(fiber_count, basis, e, x0) == outcome(oracles.fiber_count, basis, e, x0)
        assert chart_discriminant(basis, e) == oracles.chart_discriminant(basis, e)
        assert is_generic_sample(basis, e, x0) == oracles.is_generic_sample(basis, e, x0)
        assert outcome(special_directions, basis, config) == outcome(oracles.special_directions, basis, config)

    @settings(max_examples=scaled(200), deadline=None)
    @given(data=st.data())
    def test_nodes_including_nodes_at_infinity(self, data):
        ints = st.integers(-50, 50)
        points = [data.draw(st.tuples(ints, ints, ints).filter(any)) for _ in range(3)]
        if data.draw(st.booleans()):
            # the fourth point makes the join 3-4 parallel to the join 1-2
            (z1, x1, y1), (z2, x2, y2), (z3, x3, y3) = points
            z = z1 * z2 * z3
            points.append((z, x3 * z1 * z2 + x2 * z1 * z3 - x1 * z2 * z3, y3 * z1 * z2 + y2 * z1 * z3 - y1 * z2 * z3))
        else:
            points.append(data.draw(st.tuples(ints, ints, ints)))
        lines = [oracles.cross(points[0], points[1]), oracles.cross(points[2], points[3])]
        assume(all(any(line) for line in lines) and any(oracles.cross(*lines)))
        # the oracle takes the points as rational triples, each times its own scale
        scales = [data.draw(nonzero_rationals) for _ in points]
        rational = [tuple(s * c for c in p) for s, p in zip(scales, points)]
        node = _node_of_pairing(points, (1, 2), (3, 4))
        expected = oracles.node_of_pairing(rational, (1, 2), (3, 4))
        if expected is None:
            assert node is None
        else:
            x, y, z = node
            assert z > 0 and gcd(x, y, z) == 1 and (Fraction(x, z), Fraction(y, z)) == expected

    def test_the_fixture_has_nodes_at_infinity(self, fixture_basis, fixture_config):
        points = fixture_config.integer_points
        at_infinity = [pairs for i in range(1, 6) for pairs in pairings(i) if _node_of_pairing(points, *pairs) is None]
        assert len(at_infinity) == 2
        expected = oracles.special_directions(fixture_basis, fixture_config)
        assert special_directions(fixture_basis, fixture_config) == expected
