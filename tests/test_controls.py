"""Negative controls: each check fails on its own when exactly one fact is broken.

Every entry of `CONTROLS` names a check, the command line that reports it
and a patch that breaks one fact the check decides.  The test runs the
command on the canonical fixture under the patch and asserts that the named
check is the only one that fails, with exit code 1 and no traceback.
"""

import dataclasses
import json

import pytest

from dp4lag import cli, exactpoly, levels, sections


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


def demand_a_higher_u_order(monkeypatch):
    """The opposite-chart transport asks u^3, not u^2, to divide its (d/dv)^2 numerator."""
    monkeypatch.setattr(sections, "_U_ORDERS", (3, 1))


def repeat_a_plane_row(monkeypatch):
    """The second plane row stands in for the first, so the plane rows have rank 17."""
    rows = list(sections._FRAME_SYSTEM)
    rows[0] = rows[1]
    monkeypatch.setattr(sections, "_FRAME_SYSTEM", tuple(rows))
    sections.frame_kernels.cache_clear()


CONTROLS = {
    "chart_transport": (("sections",), demand_a_higher_u_order),
    "five_distinct_directions": (("special-directions",), repeat_a_special_direction),
    "plane_dimension": (("sections", "--plane-only"), repeat_a_plane_row),
    "reducible_exactly_on_special": (("special-directions",), call_one_decoy_square),
}


@pytest.fixture
def fresh_frame_kernels():
    """Drop the cached frame kernels after the test, so a broken frame never outlives its patch."""
    yield
    sections.frame_kernels.cache_clear()
    sections._frame_numerators.cache_clear()


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
