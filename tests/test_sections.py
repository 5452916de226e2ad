import dataclasses
import json
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dp4lag import PointConfig, linalg
from dp4lag.cli import MAX_INPUT_BITS
from dp4lag.exactpoly import MPoly, poly_substitute_linear
from dp4lag.sections import (
    _P2_FORMS,
    CHART_VARS,
    NUM_SLOTS,
    PLANE_VARS,
    SLOT_INDEX,
    SLOTS,
    SymField,
    _normalize_kernel,
    _point_rows,
    assemble_system,
    chart_transport_check,
    first_nonvanishing_row,
    frame_kernels,
    kernel_basis,
    p2_constraints,
    point_constraint_coefficients,
    section_space_dimension,
    system_rank_mod_p,
)
from conftest import random_general_configs
import oracles

X, Y = MPoly.variable(PLANE_VARS, "x"), MPoly.variable(PLANE_VARS, "y")
ZERO = MPoly.zero(PLANE_VARS)


def field_from(f=ZERO, g=ZERO, h=ZERO):
    return SymField(f, g, h)


def random_field(rng, span=9):
    slots = [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(NUM_SLOTS)]
    return SymField.from_slots(slots)


class TestSymField:
    def test_slot_round_trip(self):
        rng = random.Random(0)
        fld = random_field(rng)
        assert SymField.from_slots(oracles.slots(fld)) == fld

    def test_from_slots_reads_values_as_rationals(self):
        fld = random_field(random.Random(1))
        assert SymField.from_slots([str(v) for v in oracles.slots(fld)]) == fld
        with pytest.raises(TypeError):
            SymField.from_slots([0.5] + [0] * (NUM_SLOTS - 1))

    def test_integer_slots_are_a_positive_multiple(self):
        rng = random.Random(3)
        for _ in range(20):
            fld = random_field(rng)
            ints, slots = fld.integer_slots(), oracles.slots(fld)
            assert all(type(c) is int for c in ints)
            ratios = {Fraction(c) / s for c, s in zip(ints, slots) if s}
            assert len(ratios) == 1 and ratios.pop() > 0
            assert [c == 0 for c in ints] == [s == 0 for s in slots]
            assert oracles.slots(SymField.from_slots(ints)) == ints

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(0),
                st.integers(-(10**12), 10**12),
                st.fractions(max_denominator=10**4),
                st.fractions(max_denominator=60).map(str),
            ),
            min_size=NUM_SLOTS,
            max_size=NUM_SLOTS,
        )
    )
    def test_from_slots_and_integer_slots_round_trip(self, values):
        # int, Fraction and string slot values, against the coefficient-by-coefficient oracle
        fld = SymField.from_slots(values)
        rats = [Fraction(v) for v in values]
        assert oracles.slots(fld) == rats
        scale = lcm(*(r.denominator for r in rats))
        ints = fld.integer_slots()
        assert all(type(c) is int for c in ints)
        assert ints == [r * scale for r in rats]
        assert oracles.slots(SymField.from_slots(ints)) == ints

    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError):
            field_from(f=X**5)

    def test_evenness_under_fiber_negation(self):
        rng = random.Random(1)
        for _ in range(10):
            chart = random_field(rng).chart_polynomial()
            u = MPoly.variable(CHART_VARS, "u")
            v = MPoly.variable(CHART_VARS, "v")
            x = MPoly.variable(CHART_VARS, "x")
            y = MPoly.variable(CHART_VARS, "y")
            flipped = poly_substitute_linear(chart, {"x": x, "y": y, "u": -u, "v": -v})
            assert flipped == chart


class TestPlaneConstraints:
    def test_count_and_first_form(self):
        rows = p2_constraints()
        assert len(rows) == 18
        violating = field_from(h=Y**4)  # h_{0,4} = 1
        assert oracles.evaluate(rows[0], violating) == 1

    def test_pure_dx2_field_satisfies_all(self):
        fld = field_from(f=MPoly.const(PLANE_VARS, 1))
        assert all(oracles.evaluate(r, fld) == 0 for r in p2_constraints())

    def test_f22_minus_g04_form(self):
        row = next(r for r in p2_constraints() if r.label == "plane:f22-g04")
        fld = field_from(f=X**2 * Y**2, g=Y**4)
        assert oracles.evaluate(row, fld) == 0

    def test_forms_independent(self):
        assert linalg.rank([r.row() for r in p2_constraints()]) == 18


class TestBlowupConstraints:
    def test_origin_forms(self):
        rows = _point_rows("origin", (0, 0))
        assert [r.label.split(":")[1] for r in rows] == ["f", "g", "h", "g_x", "f_y", "g_y-h_x", "f_x-h_y"]
        expected = [
            {("f", 0, 0): 1},
            {("g", 0, 0): 1},
            {("h", 0, 0): 1},
            {("g", 1, 0): 1},
            {("f", 0, 1): 1},
            {("g", 0, 1): 1, ("h", 1, 0): -1},
            {("f", 1, 0): 1, ("h", 0, 1): -1},
        ]
        for row, want in zip(rows, expected):
            assert dict(row.entries) == {SLOT_INDEX[k]: v for k, v in want.items()}

    def test_point_one_zero_evaluation_row(self):
        rows = _point_rows("p", (1, 0))
        f_row = dict(rows[0].entries)
        assert f_row == {SLOT_INDEX["f", i, 0]: 1 for i in range(5)}

    def test_rows_agree_with_direct_evaluation(self):
        from dp4lag.exactpoly import poly_derivative, poly_eval

        rng = random.Random(2)
        fld = random_field(rng)
        # A primitive row is a positive multiple of its rational condition, and
        # so is its value on a field; at an integer point the multiple is 1.
        for a, b, unit in [(Fraction(2), Fraction(3), True), (Fraction(1, 2), Fraction(2, 3), False)]:
            point = {"x": a, "y": b}
            rows = _point_rows("p", (a, b))
            direct = [
                poly_eval(fld.f, point),
                poly_eval(fld.g, point),
                poly_eval(fld.h, point),
                poly_eval(poly_derivative(fld.g, "x"), point),
                poly_eval(poly_derivative(fld.f, "y"), point),
                poly_eval(poly_derivative(fld.g, "y"), point) - poly_eval(poly_derivative(fld.h, "x"), point),
                poly_eval(poly_derivative(fld.f, "x"), point) - poly_eval(poly_derivative(fld.h, "y"), point),
            ]
            scales = [row.entries[0][1] / coeffs[SLOTS[row.entries[0][0]]] for row, (_, coeffs) in zip(rows, point_constraint_coefficients(a, b))]
            assert all(scale > 0 for scale in scales)
            assert (scales == [1] * 7) == unit
            assert [oracles.evaluate(r, fld) for r in rows] == [scale * value for scale, value in zip(scales, direct)]


class TestAssembleSystem:
    def test_row_count(self):
        config = PointConfig.from_ab(2, 3)
        assert len(assemble_system(config)) == 53

    def test_duplicate_point_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            PointConfig.from_ab(0, 0)

    def test_collinear_rejected(self):
        # (1:2:0) is on the line through (1:0:0) and (1:1:0)
        with pytest.raises(ValueError, match="collinear"):
            PointConfig.from_ab(2, 0)


class TestKernel:
    def test_fixture_dimension(self, fixture_config, fixture_basis):
        system = assemble_system(fixture_config)
        assert all(oracles.evaluate(r, fixture_basis.H) == 0 for r in system.rows)
        assert all(oracles.evaluate(r, fixture_basis.G) == 0 for r in system.rows)

    def test_twenty_random_configs_dimension_two(self):
        for config in random_general_configs(20):
            basis = kernel_basis(assemble_system(config), config)
            assert basis.H != basis.G

    def test_modular_cross_check(self, fixture_config):
        rows = oracles.matrix(assemble_system(fixture_config))
        assert NUM_SLOTS - linalg.rank_mod_p(rows, 2**61 - 1) == 2

    def test_plane_only_dimension(self, fixture_config):
        assert section_space_dimension(fixture_config, 0) == 27

    def test_point_count_out_of_range(self, fixture_config):
        with pytest.raises(ValueError):
            section_space_dimension(fixture_config, 6)

    def test_dimension_profile(self, fixture_config):
        profile = [section_space_dimension(fixture_config, k) for k in range(6)]
        assert profile[0] == 27 and profile[5] == 2
        assert all(profile[k] >= profile[k + 1] for k in range(5))
        # measured values for this toolkit's fixed slot order and row sets
        assert profile == [27, 20, 14, 9, 5, 2]

    def test_normalization_is_reproducible(self, fixture_config):
        b1 = kernel_basis(assemble_system(fixture_config), fixture_config)
        b2 = kernel_basis(assemble_system(fixture_config), fixture_config)
        assert b1.H == b2.H and b1.G == b2.G

    def test_dimension_invariant_under_renormalization(self, fixture_config):
        # re-normalize the same five points through a random projective map
        rng = random.Random(4)
        from dp4lag.pencil import normalize_config

        while True:
            m = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
            if linalg.det(m) != 0:
                break
        moved = [tuple(linalg.mat_vec(m, list(p))) for p in fixture_config.normalized_points()]
        config2 = normalize_config(moved)
        assert section_space_dimension(config2, 5) == 2


class TestChartTransport:
    def test_kernel_fields_pass(self, fixture_basis):
        assert chart_transport_check(fixture_basis.H)
        assert chart_transport_check(fixture_basis.G)

    def test_h_y4_fails(self):
        assert not chart_transport_check(field_from(h=Y**4))

    def test_constant_f_passes(self):
        assert chart_transport_check(field_from(f=MPoly.const(PLANE_VARS, 1)))

    def test_equivalence_with_plane_forms(self):
        rows = p2_constraints()
        rng = random.Random(9)
        agree = 0
        for _ in range(200):
            fld = random_field(rng, span=5)
            passes_forms = all(oracles.evaluate(r, fld) == 0 for r in rows)
            assert chart_transport_check(fld) == passes_forms
            agree += 1
        assert agree == 200

    def test_equivalence_on_constrained_fields(self):
        # fields built to satisfy all 18 forms must pass the transport check
        rows = [r.row() for r in p2_constraints()]
        basis = linalg.kernel(rows, NUM_SLOTS)
        rng = random.Random(10)
        for _ in range(25):
            weights = [Fraction(rng.randint(-5, 5)) for _ in basis]
            slots = [sum(w * v[k] for w, v in zip(weights, basis)) for k in range(NUM_SLOTS)]
            assert chart_transport_check(SymField.from_slots(slots))


@st.composite
def general_configs(draw):
    """A fifth point (a, b) in general position with the frame."""
    a = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 6)))
    b = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 6)))
    try:
        return PointConfig.from_ab(a, b)
    except ValueError:
        assume(False)


def full_kernel(rows):
    return linalg.kernel([r.row() for r in rows], NUM_SLOTS)


class TestFrameReduction:
    @settings(max_examples=40, deadline=None)
    @given(general_configs())
    def test_kernel_basis_matches_full_matrix_kernel(self, config):
        system = assemble_system(config)
        basis = kernel_basis(system, config)
        assert [oracles.slots(basis.H), oracles.slots(basis.G)] == _normalize_kernel(full_kernel(system.rows))

    @settings(max_examples=15, deadline=None)
    @given(general_configs())
    def test_dimension_profile_matches_full_matrix_kernels(self, config):
        rows = assemble_system(config).rows
        for k in range(6):
            assert section_space_dimension(config, k) == len(full_kernel(rows[: 18 + 7 * k]))

    def test_prefix_kernels_are_the_full_matrix_kernels(self):
        rows = assemble_system(PointConfig.from_ab(3, 7)).rows
        chain = frame_kernels()
        assert [len(k) for k in chain] == [27, 20, 14, 9, 5]
        for k, kernel in enumerate(chain):
            assert [list(v) for v in kernel] == full_kernel(rows[: 18 + 7 * k])

    @settings(max_examples=10, deadline=None)
    @given(general_configs())
    def test_system_rows_are_those_of_the_configuration_points(self, config):
        # the 46 frame rows are a constant: they must be the rows of every
        # configuration's own first four points
        expected = p2_constraints() + [r for pt in config.affine_points() for r in _point_rows("p", pt)]
        assert [r.entries for r in assemble_system(config).rows] == [r.entries for r in expected]


GOLDEN_CONFIGS = Path(__file__).parent / "golden" / "configs"
GOLDEN_THETAS = [("0", "1", "-1", "2", "-2")] + [
    tuple(json.loads(path.read_text())["theta"]) for path in sorted(GOLDEN_CONFIGS.glob("*.json"))
]


def reference_rows(config):
    """The 53 rows as rational forms, built the way they were before they became integer rows.

    The plane forms as written, then each point's conditions over the
    rationals, as ``{slot index: Fraction}`` dicts.
    """
    forms = [{SLOT_INDEX[s]: Fraction(c) for s, c in coeffs.items()} for _, coeffs in _P2_FORMS]
    for a, b in config.affine_points():
        for _, coeffs in point_constraint_coefficients(a, b):
            forms.append({SLOT_INDEX[s]: c for s, c in coeffs.items() if c})
    return forms


def reference_first_nonvanishing(forms, fields):
    """Index of the first form that does not vanish on every field, over the rationals, or None."""
    vectors = [oracles.slots(fld) for fld in fields]
    for index, form in enumerate(forms):
        if any(sum((c * vec[k] for k, c in form.items()), Fraction(0)) != 0 for vec in vectors):
            return index
    return None


@st.composite
def integer_row_configs(draw):
    """A perfbench-style fifth point (a, b), or one of the three golden theta fixtures."""
    if draw(st.integers(0, 3)) == 0:
        return PointConfig.from_theta([Fraction(t) for t in draw(st.sampled_from(GOLDEN_THETAS))])
    return draw(general_configs())


class TestIntegerRows:
    @settings(max_examples=25, deadline=None)
    @given(integer_row_configs())
    def test_rows_are_primitive_multiples_of_the_rational_forms(self, config):
        rows = assemble_system(config).rows
        forms = reference_rows(config)
        assert len(rows) == len(forms) == 53
        for row, form in zip(rows, forms):
            entries = dict(row.entries)
            assert all(type(c) is int for c in entries.values())
            assert gcd(*entries.values()) == 1
            assert set(entries) == set(form)
            ratios = {Fraction(entries[k]) / form[k] for k in form}
            assert len(ratios) == 1 and ratios.pop() > 0

    @settings(max_examples=25, deadline=None)
    @given(integer_row_configs(), st.integers(0, NUM_SLOTS - 1), st.booleans(), st.fractions(max_denominator=9).filter(bool))
    def test_row_check_matches_the_rational_check(self, config, slot, on_h, delta):
        system = assemble_system(config)
        basis = kernel_basis(system, config)
        forms = reference_rows(config)
        assert first_nonvanishing_row(system.rows, basis.pair()) is None
        assert reference_first_nonvanishing(forms, basis.pair()) is None
        slots = oracles.slots(basis.H if on_h else basis.G)
        slots[slot] += delta
        moved = SymField.from_slots(slots)
        fields = (moved, basis.G) if on_h else (basis.H, moved)
        failed = first_nonvanishing_row(system.rows, fields)
        want = reference_first_nonvanishing(forms, fields)
        assert want is not None
        assert failed is system.rows[want]

    @settings(max_examples=15, deadline=None)
    @given(integer_row_configs())
    def test_rank_certificate_reads_the_integer_matrix(self, config):
        matrix = oracles.matrix(assemble_system(config))
        rational = [[form.get(k, Fraction(0)) for k in range(NUM_SLOTS)] for form in reference_rows(config)]
        assert all(type(x) is int for row in matrix for x in row)
        p = 2**31 - 1
        assert linalg.rank_mod_p(matrix, p) == linalg.rank_mod_p(rational, p) == linalg.rank(rational) == NUM_SLOTS - 2


@st.composite
def tall_configs(draw):
    """A fifth point (a, b) with numerators and denominators of up to `MAX_INPUT_BITS` bits, in general position."""
    bound = 2**MAX_INPUT_BITS - 1
    a, b = (Fraction(draw(st.integers(-bound, bound)), draw(st.integers(1, bound))) for _ in range(2))
    try:
        return PointConfig.from_ab(a, b)
    except ValueError:
        assume(False)


class TestRankCertificate:
    """The certificate's rank, resumed from the frame's form mod p, is the rank of the whole matrix mod p."""

    PRIMES = (2**31 - 1, 2**61 - 1)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(tall_configs(), general_configs()))
    def test_resumed_rank_equals_the_full_matrix_rank(self, config):
        system = assemble_system(config)
        for p in self.PRIMES:
            assert system_rank_mod_p(system, p) == linalg.rank_mod_p(oracles.matrix(system), p) == NUM_SLOTS - 2

    def test_a_prime_dividing_a_denominator_loses_rank_in_both(self):
        system = assemble_system(PointConfig.from_ab(Fraction(1, 2**31 - 1), Fraction(3)))
        ranks = [(system_rank_mod_p(system, p), linalg.rank_mod_p(oracles.matrix(system), p)) for p in self.PRIMES]
        assert ranks == [(NUM_SLOTS - 3, NUM_SLOTS - 3), (NUM_SLOTS - 2, NUM_SLOTS - 2)]

    def test_a_system_without_the_frame_rows_is_refused(self, fixture_config):
        system = assemble_system(fixture_config)
        with pytest.raises(ValueError):
            system_rank_mod_p(dataclasses.replace(system, rows=system.rows[1:]), 2**31 - 1)
