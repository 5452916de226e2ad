import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp4lag import PointConfig, assemble_system, cli, kernel_basis, linalg
from dp4lag.exactpoly import MPoly, poly_eval, to_text
from dp4lag.sections import NUM_SLOTS, PLANE_VARS, SymField
from dp4lag.symplectic import (
    ChartVector,
    hamiltonian_frame,
    involutivity_certificate,
    omega_pairing,
    poisson_bracket_chart,
    poisson_R,
    symbolic_involutivity,
)
from conftest import random_general_configs
import oracles

X, Y = MPoly.variable(PLANE_VARS, "x"), MPoly.variable(PLANE_VARS, "y")
ZERO = MPoly.zero(PLANE_VARS)
ONE = MPoly.const(PLANE_VARS, 1)


def random_field(rng, span=7):
    return SymField.from_slots([Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(NUM_SLOTS)])


# Rational fields with many zero slots, and chart points whose coordinates
# are zero, negative integers or non-integers.
slot_values = st.one_of(
    st.just(0), st.integers(-40, 40), st.fractions(min_value=-40, max_value=40, max_denominator=12)
)
fields = st.lists(slot_values, min_size=NUM_SLOTS, max_size=NUM_SLOTS).map(SymField.from_slots)
coordinates = st.one_of(
    st.just(Fraction(0)), st.integers(-30, -1).map(Fraction), st.fractions(max_denominator=10**6)
)
chart_points = st.tuples(coordinates, coordinates, coordinates, coordinates)


class TestPoissonR:
    def test_self_bracket_vanishes(self):
        rng = random.Random(0)
        fld = random_field(rng)
        assert poisson_R(fld, fld).is_zero()

    def test_hand_computed_example(self):
        H = SymField(Y, ZERO, ZERO)  # y u^2
        G = SymField(ZERO, X, ZERO)  # x v^2
        r = poisson_R(H, G)
        assert to_text(r) == "2/1 * x^1 u^2 v^1 + -2/1 * y^1 u^1 v^2"

    def test_kernel_basis_brackets_to_zero(self, fixture_basis):
        assert poisson_R(fixture_basis.H, fixture_basis.G).is_zero()

    def test_antisymmetry(self):
        rng = random.Random(1)
        for _ in range(100):
            H, G = random_field(rng), random_field(rng)
            assert poisson_R(H, G) == -poisson_R(G, H)

    def test_bilinearity(self):
        rng = random.Random(2)
        for _ in range(100):
            H1, H2, G = random_field(rng), random_field(rng), random_field(rng)
            combined = SymField(H1.f + H2.f, H1.g + H2.g, H1.h + H2.h)
            assert poisson_R(combined, G) == poisson_R(H1, G) + poisson_R(H2, G)

    def test_gl2_invariance_of_vanishing(self, fixture_basis):
        rng = random.Random(3)
        H, G = fixture_basis.H, fixture_basis.G
        for _ in range(10):
            while True:
                a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
                if a * d - b * c != 0:
                    break
            H2 = SymField(a * H.f + b * G.f, a * H.g + b * G.g, a * H.h + b * G.h)
            G2 = SymField(c * H.f + d * G.f, c * H.g + d * G.g, c * H.h + d * G.h)
            assert poisson_R(H2, G2).is_zero()

    def test_bracket_scales_by_determinant(self):
        rng = random.Random(4)
        H, G = random_field(rng), random_field(rng)
        a, b, c, d = Fraction(2), Fraction(3), Fraction(-1), Fraction(4)
        H2 = SymField(a * H.f + b * G.f, a * H.g + b * G.g, a * H.h + b * G.h)
        G2 = SymField(c * H.f + d * G.f, c * H.g + d * G.g, c * H.h + d * G.h)
        assert poisson_R(H2, G2) == (a * d - b * c) * poisson_R(H, G)


class TestFrames:
    def test_zero_partials_give_zero_vector(self):
        fld = SymField(ZERO, ZERO, ZERO)
        a, b = hamiltonian_frame(fld, fld, (0, 0, 1, 0))
        assert a.components == (0, 0, 0, 0)

    def test_u_squared_field(self):
        H = SymField(ONE, ZERO, ZERO)  # u^2
        a, _ = hamiltonian_frame(H, H, (0, 0, 1, 0))
        assert a.components == (-2, 0, 0, 0)

    def test_canonical_pairing(self):
        q = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))
        dx = ChartVector(q, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
        du = ChartVector(q, (Fraction(0), Fraction(0), Fraction(1), Fraction(0)))
        assert omega_pairing(dx, du) == 1
        assert omega_pairing(dx, dx) == 0

    def test_base_point_mismatch(self):
        p = (Fraction(0),) * 4
        q = (Fraction(1),) * 4
        with pytest.raises(ValueError):
            omega_pairing(ChartVector(p, p), ChartVector(q, q))

    def test_pairing_equals_bracket_for_arbitrary_fields(self):
        rng = random.Random(5)
        for _ in range(50):
            H, G = random_field(rng, span=4), random_field(rng, span=4)
            r = poisson_R(H, G)
            q = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4))
            a, b = hamiltonian_frame(H, G, q)
            assert omega_pairing(a, b) == poly_eval(r, dict(zip(("x", "y", "u", "v"), q)))

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.lists(st.fractions(max_denominator=2**64), min_size=4, max_size=4))
    def test_frame_matches_partials_evaluated_one_by_one(self, rng, q):
        from dp4lag.exactpoly import poly_derivative

        H, G = random_field(rng), random_field(rng)
        point = dict(zip(("x", "y", "u", "v"), q))
        want = []
        for field in (H, G):
            chart = field.chart_polynomial()
            dx, dy, du, dv = (poly_eval(poly_derivative(chart, name), point) for name in ("x", "y", "u", "v"))
            want.append((-du, -dv, dx, dy))
        a, b = hamiltonian_frame(H, G, q)
        assert (a.components, b.components) == tuple(want)
        assert a.base_point == b.base_point == tuple(q)

    def test_frame_tangency_on_kernel_basis(self, fixture_basis):
        from dp4lag.exactpoly import poly_derivative

        rng = random.Random(6)
        H, G = fixture_basis.H, fixture_basis.G
        hp, gp = H.chart_polynomial(), G.chart_polynomial()
        grads = {
            name: (poly_derivative(hp, name), poly_derivative(gp, name)) for name in ("x", "y", "u", "v")
        }
        for _ in range(50):
            q = dict(zip(("x", "y", "u", "v"), (Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4))))
            a, b = hamiltonian_frame(H, G, tuple(q.values()))
            for vec in (a, b):
                dH = sum(poly_eval(grads[n][0], q) * c for n, c in zip(("x", "y", "u", "v"), vec.components))
                dG = sum(poly_eval(grads[n][1], q) * c for n, c in zip(("x", "y", "u", "v"), vec.components))
                assert dH == 0 and dG == 0


class TestRoutes:
    """The frame and the bracket polynomial are two routes that share only f, g and h."""

    @settings(max_examples=60, deadline=None)
    @given(fields, fields, chart_points)
    def test_frame_matches_oracle(self, H, G, q):
        assert hamiltonian_frame(H, G, q) == oracles.hamiltonian_frame(H, G, q)

    @settings(max_examples=60, deadline=None)
    @given(fields)
    def test_chart_polynomial_matches_oracle(self, field):
        assert field.chart_polynomial() == oracles.chart_polynomial(field)

    def test_frame_reads_no_chart_polynomial(self, monkeypatch):
        H, G = random_field(random.Random(8)), random_field(random.Random(9))
        q = (Fraction(0), Fraction(-3), Fraction(5, 7), Fraction(-2, 9))
        want = oracles.hamiltonian_frame(H, G, q)

        def forbidden(self):
            raise AssertionError("the frame read the chart polynomial")

        monkeypatch.setattr(SymField, "chart_polynomial", forbidden)
        monkeypatch.setattr(SymField, "chart_partials", property(forbidden))
        assert hamiltonian_frame(H, G, q) == want

    def test_bracket_reads_no_plane_table(self, monkeypatch):
        H, G = random_field(random.Random(10)), random_field(random.Random(11))
        want = poisson_bracket_chart(oracles.chart_polynomial(H), oracles.chart_polynomial(G))

        def forbidden(self):
            raise AssertionError("the bracket read the plane table")

        monkeypatch.setattr(SymField, "plane_table", property(forbidden))
        assert poisson_R(H, G) == want

    @staticmethod
    def verify_output(capsys) -> tuple[int, dict, str]:
        code = cli.main(["verify"])
        captured = capsys.readouterr()
        return code, json.loads(captured.out), captured.err

    def test_corrupt_frame_route_fails_verify(self, monkeypatch, capsys):
        real = SymField.plane_table.func

        def doubled_f(self):
            den, rows = real(self)
            return den, (tuple(2 * c for c in rows[0]), *rows[1:])

        monkeypatch.setattr(SymField, "plane_table", property(doubled_f))
        code, out, err = self.verify_output(capsys)
        assert code == 1
        assert "Traceback" not in err
        assert out["error"] == "ArithmeticError: frame pairing disagrees with the bracket polynomial"

    def test_corrupt_bracket_route_fails_verify(self, monkeypatch, capsys):
        real = SymField.chart_partials.func

        def doubled_x(self):
            px, py, pu, pv = real(self)
            return px * 2, py, pu, pv

        monkeypatch.setattr(SymField, "chart_partials", property(doubled_x))
        code, out, err = self.verify_output(capsys)
        assert code == 1
        assert "Traceback" not in err
        assert out["error"] == "ArithmeticError: frame pairing disagrees with the bracket polynomial"


class TestCertificates:
    def test_fixture_certificate(self, fixture_basis):
        cert = involutivity_certificate(fixture_basis)
        assert cert.is_zero
        assert len(cert.sample_checks) >= 10
        assert all(v == 0 for _, v in cert.sample_checks)

    def test_twenty_random_configs(self):
        for config in random_general_configs(20):
            assert involutivity_certificate(kernel_basis(assemble_system(config), config), samples=3).is_zero

    def test_corrupted_basis_detected(self, fixture_basis):
        slots = oracles.slots(fixture_basis.H)
        slots[0] += 1
        corrupted = SymField.from_slots(slots)
        assert not poisson_R(corrupted, fixture_basis.G).is_zero()


class TestSymbolicTier:
    def test_branch_minus_one(self):
        cert = symbolic_involutivity()
        assert cert.is_zero
        assert not cert.degeneracy_locus.is_zero()
        assert cert.reduced_dimension == 5

    def test_specialization_matches_concrete_kernel(self):
        cert = symbolic_involutivity()
        a, b = Fraction(2), Fraction(3)
        Hs, Gs = cert.specialize_basis(a, b)
        config = PointConfig.from_ab(a, b)
        basis = kernel_basis(assemble_system(config), config)
        stacked = [oracles.slots(Hs), oracles.slots(Gs), oracles.slots(basis.H), oracles.slots(basis.G)]
        assert linalg.rank(stacked) == 2

    def test_specialization_on_degeneracy_locus_collapses(self):
        cert = symbolic_involutivity()
        # a = 0 lies on the reported locus: the specialized pair is dependent
        locus_at = poly_eval(cert.degeneracy_locus, {"a": Fraction(0), "b": Fraction(5)})
        assert locus_at == 0
        Hs, Gs = cert.specialize_basis(0, 5)
        assert linalg.rank([oracles.slots(Hs), oracles.slots(Gs)]) < 2
