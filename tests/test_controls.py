"""Negative controls: each check fails on its own when exactly one fact is broken.

Every entry of `CONTROLS` names a check, the command line that reports it
and a patch that breaks one fact the check decides.  The test runs the
command on the canonical fixture under the patch and asserts that the named
check is the only one that fails, with exit code 1 and no traceback.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from dp4lag import cli, exactpoly, levels, linalg, pencil, sections, symplectic

GOLDEN = Path(__file__).parent / "golden"


def repeat_a_special_direction(monkeypatch):
    """`special_directions` reports its first direction twice, in place of its last."""
    real = levels.special_directions

    def repeated(basis, config):
        sd = real(basis, config)
        return dataclasses.replace(sd, directions=(*sd.directions[:4], sd.directions[0]))

    monkeypatch.setattr(levels, "special_directions", repeated)


def call_one_decoy_square(monkeypatch):
    """`perfect_square_test` calls the first non-square it is given a square."""
    real = levels.perfect_square_test
    flipped = []

    def one_decoy_square(p):
        outcome = real(p)
        if outcome.is_square or flipped:
            return outcome
        flipped.append(p)
        return exactpoly.SquareTest(True, None)

    monkeypatch.setattr(levels, "perfect_square_test", one_decoy_square)


def make_the_first_fiber_two_double(monkeypatch):
    """The first `fiber_count` report says TWO_DOUBLE in place of its status."""
    real = levels.fiber_count
    seen = []

    def first_two_double(basis, e, x0):
        rep = real(basis, e, x0)
        seen.append(rep)
        return dataclasses.replace(rep, status=levels.FiberStatus.TWO_DOUBLE) if len(seen) == 1 else rep

    monkeypatch.setattr(levels, "fiber_count", first_two_double)


def keep_one_orbit_of_four_points(monkeypatch):
    """Each four-point `fiber_count` report lists only its first involution orbit."""
    real = levels.fiber_count

    def one_orbit(basis, e, x0):
        rep = real(basis, e, x0)
        if rep.status is levels.FiberStatus.FOUR_POINTS:
            return dataclasses.replace(rep, involution_pairs=rep.involution_pairs[:1])
        return rep

    monkeypatch.setattr(levels, "fiber_count", one_orbit)


def lose_the_whole_lines(monkeypatch):
    """Each WHOLE_LINE report of `fiber_count` says OTHER_DEGENERATE in its place."""
    real = levels.fiber_count

    def no_whole_line(basis, e, x0):
        rep = real(basis, e, x0)
        if rep.status is levels.FiberStatus.WHOLE_LINE:
            return dataclasses.replace(rep, status=levels.FiberStatus.OTHER_DEGENERATE)
        return rep

    monkeypatch.setattr(levels, "fiber_count", no_whole_line)


def shift_the_first_cross_ratio(monkeypatch):
    """The first cross ratio `cross_ratio` returns is one more than it is."""
    real = pencil.cross_ratio
    shifted = []

    def cross_ratio(*points):
        num, den = real(*points)
        if shifted:
            return num, den
        shifted.append(points)
        return num + den, den

    monkeypatch.setattr(pencil, "cross_ratio", cross_ratio)


def call_the_37_member_square(monkeypatch):
    """`reducibility_test` calls the discriminant at (3, 7) a square."""
    real = levels.reducibility_test

    def square_at_37(basis, e):
        result = real(basis, e)
        return dataclasses.replace(result, reducible=True) if tuple(e) == (3, 7) else result

    monkeypatch.setattr(levels, "reducibility_test", square_at_37)


def demand_a_higher_u_order(monkeypatch):
    """The opposite-chart transport asks u^3, not u^2, to divide its (d/dv)^2 numerator."""
    monkeypatch.setattr(sections, "_U_ORDERS", (3, 1))


def repeat_a_plane_row(monkeypatch):
    """The second plane row stands in for the first, so the plane rows have rank 17."""
    rows = list(sections._FRAME_SYSTEM)
    rows[0] = rows[1]
    monkeypatch.setattr(sections, "_FRAME_SYSTEM", tuple(rows))
    sections.frame_kernels.cache_clear()


def lose_one_rank_mod_p(monkeypatch):
    """`rank_mod_p` returns one less than the rank, modulo every prime."""
    real = linalg.rank_mod_p
    monkeypatch.setattr(linalg, "rank_mod_p", lambda rows, p: real(rows, p) - 1)


def _patch_members(monkeypatch, change):
    """`singular_members` returns its first member with ``change`` applied to it."""
    real = pencil.singular_members

    def changed(pen, char=None):
        first, *rest = real(pen, char)
        return [dataclasses.replace(first, **change(first)), *rest]

    monkeypatch.setattr(pencil, "singular_members", changed)


def replace_a_member_theta(monkeypatch):
    """The first singular member reports a theta that is not a root."""
    _patch_members(monkeypatch, lambda m: {"theta": m.theta + 100})


def raise_a_member_corank(monkeypatch):
    """The first singular member reports corank 2."""
    _patch_members(monkeypatch, lambda m: {"corank": 2})


def drop_a_line(monkeypatch):
    """`enumerate_lines` leaves out its last line class."""
    real = pencil.enumerate_lines
    monkeypatch.setattr(pencil, "enumerate_lines", lambda: real()[:-1])


def break_the_fifth_vmrt_sum(monkeypatch):
    """`vmrt_class_sum(5)` is false."""
    real = pencil.vmrt_class_sum
    monkeypatch.setattr(pencil, "vmrt_class_sum", lambda i: i != 5 and real(i))


def vanish_the_pivot_product(monkeypatch):
    """`mpoly_kernel` reports a pivot product that vanishes identically."""
    real = linalg.mpoly_kernel

    def zero_product(rows):
        vectors, product, pivots = real(rows)
        return vectors, product * 0, pivots

    monkeypatch.setattr(linalg, "mpoly_kernel", zero_product)


def add_one_to_the_bracket(monkeypatch):
    """`poisson_bracket_chart` returns the bracket plus 1."""
    real = symplectic.poisson_bracket_chart
    monkeypatch.setattr(symplectic, "poisson_bracket_chart", lambda hp, gp: real(hp, gp) + 1)


def fail_one_swept_config(monkeypatch):
    """The first swept `ab` configuration other than the main one reports its last row as failed."""
    real = cli._solved
    main_ab = cli.build_point_config(cli.load_config(None)).ab
    failed_once = []

    def solved(config):
        system, basis, failed = real(config)
        if config.ab == main_ab or failed_once:
            return system, basis, failed
        failed_once.append(config.ab)
        return system, basis, system.rows[-1]

    monkeypatch.setattr(cli, "_solved", solved)


def raise_a_corank_in_one_swept_theta(monkeypatch):
    """The first swept theta tuple other than the main one reports its first singular member with corank 2."""
    real = cli._pencil_facts
    main_theta = set(cli.load_config(None)["theta"])
    changed_once = []

    def facts(theta):
        pen, char, members = real(theta)
        if set(theta) == main_theta or changed_once:
            return pen, char, members
        changed_once.append(tuple(theta))
        return pen, char, [dataclasses.replace(members[0], corank=2), *members[1:]]

    monkeypatch.setattr(cli, "_pencil_facts", facts)


def move_the_anticanonical_class(monkeypatch):
    """The lattice search reads 3h - E1 - E2 - E3 - E4 in place of -K = 3h - E1 - ... - E5."""
    monkeypatch.setattr(pencil, "anticanonical_class", lambda: pencil.DivisorClass(3, (1, 1, 1, 1, 0)))


CONTROLS = {
    "characteristic_roots": (("pencil",), replace_a_member_theta),
    "chart_transport": (("sections",), demand_a_higher_u_order),
    "cross_ratios_match": (("dictionary",), shift_the_first_cross_ratio),
    "fiber_generic_grid": (("pipeline",), keep_one_orbit_of_four_points),
    "five_distinct_directions": (("special-directions",), repeat_a_special_direction),
    "generic_fibers_four_points": (("probe",), make_the_first_fiber_two_double),
    "generic_member_irreducible": (("probe",), call_the_37_member_square),
    "kernel_dimension": (("sections",), lose_one_rank_mod_p),
    "node_grid_biconditional": (("pipeline",), lose_the_whole_lines),
    "plane_dimension": (("sections", "--plane-only"), repeat_a_plane_row),
    "random_config_sweep": (("pipeline",), fail_one_swept_config),
    "random_theta_sweep": (("pipeline",), raise_a_corank_in_one_swept_theta),
    "reducible_exactly_on_special": (("special-directions",), call_one_decoy_square),
    "singular_coranks": (("pencil",), raise_a_member_corank),
    "sixteen_lines": (("pencil",), drop_a_line),
    "sixteen_lines_lattice_search": (("pipeline",), move_the_anticanonical_class),
    "symbolic_bracket_zero": (("verify", "--symbolic"), add_one_to_the_bracket),
    "symbolic_degeneracy_locus_nonzero": (("verify", "--symbolic"), vanish_the_pivot_product),
    "vmrt_sums": (("pencil",), break_the_fifth_vmrt_sum),
}


@pytest.fixture
def fresh_frame_kernels():
    """Drop the cached frame kernels and forms after the test, so a broken frame never outlives its patch."""
    yield
    sections.frame_kernels.cache_clear()
    sections._frame_numerators.cache_clear()
    sections.frame_form_mod_p.cache_clear()


@pytest.mark.parametrize("check", sorted(CONTROLS))
def test_the_control_fails_only_its_check(check, capsys, monkeypatch, fresh_frame_kernels):
    argv, patch = CONTROLS[check]
    patch(monkeypatch)
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert [c["name"] for c in report["checks"] if not c["pass"]] == [check]


# Check names of the golden reports that have no entry in `CONTROLS` yet.  A
# new check lands with its control; this list only shrinks.
WITHOUT_CONTROL = [
    "bracket_identically_zero",
    "branch_curve_on_surface",
    "dictionary_mobius",
    "discriminant_degree",
    "fibration_partitions",
    "five_special_directions",
    "involutivity_R_zero",
    "kernel_dimension_2",
    "line_tangencies",
    "mobius_zero_residual",
    "numerology",
    "pencil_roots_and_coranks",
    "plane_dimension_27",
    "reducibility_exactly_on_special",
    "rows_annihilate_basis",
    "sample_evaluations_zero",
    "symbolic_involutivity",
]


def test_every_golden_check_has_a_control_or_is_listed_without_one():
    names = {c["name"] for path in GOLDEN.glob("*.json") for c in json.loads(path.read_text())["checks"]}
    assert sorted(names - CONTROLS.keys() - set(WITHOUT_CONTROL)) == []
    # the list names only real checks that still lack a control
    assert sorted(set(WITHOUT_CONTROL) - names) == sorted(set(WITHOUT_CONTROL) & CONTROLS.keys()) == []
