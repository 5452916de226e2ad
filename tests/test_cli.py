import argparse
import collections
import contextlib
import dataclasses
import io
import json
import signal
import sys
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp4lag import cli, exactpoly, levels, linalg, pencil, sections, symplectic
from dp4lag.exactpoly import MPoly
import oracles

SPECIAL_37_THETA = ["7/2", "-2", "-5", "9", "5/2"]
VERBS = ("sections", "verify", "pencil", "probe", "special-directions", "dictionary", "pipeline")
HELP = Path(__file__).parent / "golden" / "help"


@pytest.fixture(scope="module")
def schema():
    with resources.files("dp4lag").joinpath("schema/report.schema.json").open() as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_captured(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def corrupt_basis(monkeypatch, slot):
    """Make every verb run on the kernel basis with H's slot ``slot`` raised by 1.

    The row check the verbs make on their basis is bypassed too, so the
    corrupted basis reaches the checks downstream of it.
    """
    real = sections.kernel_basis

    def corrupted(system, config):
        basis = real(system, config)
        slots = oracles.slots(basis.H)
        slots[slot] += 1
        return dataclasses.replace(basis, H=sections.SymField.from_slots(slots))

    monkeypatch.setattr(sections, "kernel_basis", corrupted)
    monkeypatch.setattr(sections, "first_nonvanishing_row", lambda rows, fields: None)


class TestVerbs:
    def test_sections_default_fixture(self, capsys, schema):
        code, report = run(capsys, "sections")
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["result"]["kernel_dimension"] == 2
        assert report["result"]["row_count"] == 53
        assert report["result"]["dimension_profile"] == [27, 20, 14, 9, 5, 2]

    def test_sections_kernel_dimension_fails_without_rank_certificate(self, capsys, monkeypatch):
        monkeypatch.setattr(linalg, "rank_mod_p", lambda rows, p: 42)
        code, report = run(capsys, "sections")
        assert code == 1
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["kernel_dimension"]

    def test_sections_reduces_only_the_fifth_points_rows_mod_p(self, capsys, monkeypatch):
        shapes = []
        real = linalg.rank_mod_p
        monkeypatch.setattr(linalg, "rank_mod_p", lambda rows, p: shapes.append(len(rows)) or real(rows, p))
        code, _ = run(capsys, "sections")
        assert code == 0
        # one call, on the 7 rows of the fifth point reduced against the frame
        assert shapes == [7]

    def test_sections_rank_certificate_skips_a_prime_dividing_a_denominator(self, tmp_path, capsys):
        # The integer rows of a = 1/(2^31 - 1) have rank 42 modulo 2^31 - 1,
        # so the certificate falls back to the second prime.
        cfg = tmp_path / "ab.json"
        cfg.write_text(json.dumps({"ab": [f"1/{2**31 - 1}", "3"]}))
        code, report = run(capsys, "sections", "--config", str(cfg))
        assert code == 0
        check = next(c for c in report["checks"] if c["name"] == "kernel_dimension")
        assert check == {"name": "kernel_dimension", "pass": True, "detail": "kernel dimension 2"}

    @staticmethod
    def _perturb_normalized_kernel(monkeypatch):
        real = sections._normalize_kernel

        def perturbed(vectors):
            h, g = real(vectors)
            return [[h[0] + 1, *h[1:]], g]

        monkeypatch.setattr(sections, "_normalize_kernel", perturbed)

    def test_sections_rows_annihilate_basis_fails_alone(self, capsys, schema, monkeypatch):
        self._perturb_normalized_kernel(monkeypatch)
        code, report = run(capsys, "sections")
        assert code == 1
        jsonschema.validate(report, schema)
        failed = [c for c in report["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == ["rows_annihilate_basis"]
        assert failed[0]["detail"] == "row p1:f does not vanish"

    def test_other_verbs_stop_on_a_basis_that_fails_its_rows(self, capsys, monkeypatch):
        self._perturb_normalized_kernel(monkeypatch)
        code = cli.main(["verify"])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        error = json.loads(captured.out)
        assert error == {"command": "verify", "error": "ArithmeticError: kernel verification failed on row p1:f", "exit_code": 1}

    def test_warm_sections_run_solves_one_kernel(self, capsys, monkeypatch):
        assert cli.main(["sections"]) == 0  # solves the frame kernels if no run has yet
        capsys.readouterr()
        real = linalg.kernel
        calls = []
        monkeypatch.setattr(linalg, "kernel", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        code, report = run(capsys, "sections")
        assert code == 0
        assert report["result"]["dimension_profile"] == [27, 20, 14, 9, 5, 2]
        assert len(calls) == 1

    @pytest.mark.parametrize("verb", ["sections", "verify"])
    def test_certify_path_multiplies_polynomials_only_in_the_bracket(self, capsys, monkeypatch, verb):
        # the basis, its row check, its transport check and the frame run on
        # packed integers; only poisson_R multiplies polynomials, and
        # from_slots writes its numerators without checking exponent tuples
        inside = []
        stray = []
        real_bracket, real_mul = symplectic.poisson_R, MPoly.__mul__

        def bracket(H, G):
            inside.append(True)
            try:
                return real_bracket(H, G)
            finally:
                inside.pop()

        def mul(p, q):
            if not inside:
                stray.append(q)
            return real_mul(p, q)

        monkeypatch.setattr(symplectic, "poisson_R", bracket)
        monkeypatch.setattr(MPoly, "__mul__", mul)
        monkeypatch.setattr(MPoly, "__rmul__", mul)
        monkeypatch.setattr(exactpoly, "_checked_key", lambda *a: pytest.fail("from_slots checked an exponent tuple"))
        code, _ = run(capsys, verb)
        assert code == 0
        assert stray == []

    def test_sections_plane_only(self, capsys, schema):
        code, report = run(capsys, "sections", "--plane-only")
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["result"]["kernel_dimension"] == 27

    def test_verify(self, capsys, schema):
        code, report = run(capsys, "verify")
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["result"]["is_zero"] is True
        assert report["result"]["R"] == "0"
        assert all(s["value"] == "0/1" for s in report["result"]["samples"])

    def test_verify_symbolic(self, capsys, schema):
        code, report = run(capsys, "verify", "--symbolic")
        assert code == 0
        jsonschema.validate(report, schema)
        sym = report["result"]["symbolic"]
        assert sym["is_zero"] is True
        assert sym["degeneracy_locus"] != "0"

    def test_verify_corrupted_basis_fails(self, capsys, schema, monkeypatch):
        corrupt_basis(monkeypatch, 0)
        code, report = run(capsys, "verify")
        assert code == 1
        jsonschema.validate(report, schema)
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["bracket_identically_zero", "sample_evaluations_zero"]

    @staticmethod
    def _patch_certificate(monkeypatch, edit):
        real = symplectic.involutivity_certificate
        monkeypatch.setattr(symplectic, "involutivity_certificate", lambda *a, **kw: edit(real(*a, **kw)))

    def test_verify_nonzero_sample_fails_only_its_check(self, capsys, monkeypatch):
        def one_bad_sample(cert):
            (q, _), *rest = cert.sample_checks
            return dataclasses.replace(cert, sample_checks=((q, Fraction(1)), *rest))

        self._patch_certificate(monkeypatch, one_bad_sample)
        code, report = run(capsys, "verify")
        assert code == 1
        assert report["result"]["is_zero"] is True
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["sample_evaluations_zero"]

    def test_verify_nonzero_bracket_fails_only_its_check(self, capsys, monkeypatch):
        def nonzero_bracket(cert):
            r = MPoly.variable(cert.R_poly.vars, "x")
            return dataclasses.replace(cert, R_poly=r, is_zero=r.is_zero())

        self._patch_certificate(monkeypatch, nonzero_bracket)
        code, report = run(capsys, "verify")
        assert code == 1
        assert all(s["value"] == "0/1" for s in report["result"]["samples"])
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["bracket_identically_zero"]

    def test_pencil(self, capsys, schema):
        code, report = run(capsys, "pencil")
        assert code == 0
        jsonschema.validate(report, schema)
        assert len(report["result"]["singular_members"]) == 5
        assert len(report["result"]["lines"]) == 16

    def test_pencil_computes_characteristic_polynomial_once(self, capsys, monkeypatch):
        real = pencil.characteristic_polynomial
        calls = []
        monkeypatch.setattr(pencil, "characteristic_polynomial", lambda pen: calls.append(pen) or real(pen))
        code, _ = run(capsys, "pencil")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "verb, config, dets, ranks",
        [
            ("pencil", None, 11, 5),
            *((verb, None, 10, 0) for verb in ("sections", "verify", "probe", "special-directions", "dictionary")),
            ("sections", {"ab": ["2", "3"]}, 6, 0),
        ],
        ids=["pencil", "sections", "verify", "probe", "special-directions", "dictionary", "sections-ab"],
    )
    def test_each_exact_fact_is_computed_once(self, tmp_path, capsys, monkeypatch, verb, config, dets, ranks):
        # det Q1 once per pencil, the point triples once per configuration
        # (all 10 of the raw points of theta input, the 6 holding the fifth
        # point of ab input), and one rank per singular member
        argv = [verb]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        calls = collections.Counter()
        for name in ("det", "rank"):
            real = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *a, name=name, real=real: calls.update([name]) or real(*a))
        code, _ = run(capsys, *argv)
        assert code == 0
        assert (calls["det"], calls["rank"]) == (dets, ranks)

    def test_probe(self, capsys, schema):
        code, report = run(capsys, "probe", "--tangency")
        assert code == 0
        jsonschema.validate(report, schema)
        assert all(f["status"] == "four_points" for f in report["result"]["fibers"])
        assert len(report["result"]["tangency"]) == 10

    @pytest.mark.parametrize(
        "theta",
        [
            ["2", "0", "-1/2", "1", "4"],
            ["3/4", "-9/4", "1/2", "-9/2", "-3/4"],
            ["1", "-5", "0", "-3/2", "-7/3"],
            ["-2", "1", "3", "-1", "-3"],
            ["-1", "5/2", "-5/2", "-10/3", "0"],
        ],
    )
    def test_probe_counts_a_tangency_at_infinity(self, tmp_path, capsys, schema, theta):
        # at direction (3, 7) one join of each theta meets the branch curve
        # twice at infinity: its affine restriction has degree 4, not 6
        cfg = tmp_path / "theta.json"
        cfg.write_text(json.dumps({"theta": theta}))
        code, report = run(capsys, "probe", "--tangency", "--config", str(cfg))
        assert code == 0
        jsonschema.validate(report, schema)
        assert next(c for c in report["checks"] if c["name"] == "line_tangencies")["pass"] is True
        at_infinity = [t for t in report["result"]["tangency"] if "infinity" in t["witnesses"]]
        assert len(at_infinity) == 1 and at_infinity[0]["gcd_degree"] == 3

    def test_probe_runs_no_root_test_on_a_non_square_discriminant(self, capsys, monkeypatch):
        # the value certificate rejects (3, 7)'s discriminant before _poly_sqrt
        calls = []
        real = exactpoly._poly_sqrt
        monkeypatch.setattr(exactpoly, "_poly_sqrt", lambda p: calls.append(p) or real(p))
        code, report = run(capsys, "probe")
        assert code == 0
        assert report["result"]["reducible"] is False
        assert calls == []

    def test_probe_moves_off_a_special_first_direction(self, tmp_path, capsys, schema):
        # (3, 7) is one of this theta's five special directions
        cfg = tmp_path / "theta.json"
        cfg.write_text(json.dumps({"theta": SPECIAL_37_THETA}))
        code, report = run(capsys, "probe", "--tangency", "--config", str(cfg))
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["result"]["generic_direction"] == ["2/1", "9/1"]
        assert report["result"]["reducible"] is False

    def test_probe_fails_when_square_direction_is_not_special(self, tmp_path, capsys, monkeypatch):
        real = levels.special_directions

        def without_37(basis, config):
            sd = real(basis, config)
            kept = tuple(d for d in sd.directions if d != (3, 7))
            return dataclasses.replace(sd, directions=kept)

        monkeypatch.setattr(levels, "special_directions", without_37)
        cfg = tmp_path / "theta.json"
        cfg.write_text(json.dumps({"theta": SPECIAL_37_THETA}))
        code, report = run(capsys, "probe", "--config", str(cfg))
        assert code == 1
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["generic_member_irreducible"]

    def test_probe_discriminant_degree_fails_on_a_corrupted_basis(self, capsys, monkeypatch):
        corrupt_basis(monkeypatch, sections.SLOTS.index(("f", 4, 0)))
        code, report = run(capsys, "probe")
        assert code == 1
        check = next(c for c in report["checks"] if c["name"] == "discriminant_degree")
        assert check["pass"] is False

    def test_special_directions_internal_error_exits_1_without_traceback(self, capsys, monkeypatch):
        corrupt_basis(monkeypatch, 3)
        code = cli.main(["special-directions"])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        error = json.loads(captured.out)
        assert error["command"] == "special-directions"
        assert error["exit_code"] == 1
        assert error["error"].startswith("LevelsError: ")

    @pytest.mark.parametrize("verb", ["sections", "pipeline"])
    def test_kernel_of_the_wrong_dimension_exits_1_without_traceback(self, tmp_path, capsys, monkeypatch, verb):
        real = sections._system_kernel
        monkeypatch.setattr(sections, "_system_kernel", lambda rows: [*real(rows), [1] + [0] * (sections.NUM_SLOTS - 1)])
        code = cli.main([verb])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        assert json.loads(captured.out) == {
            "command": verb,
            "error": "SectionSpaceError: kernel dimension is 3, expected 2",
            "exit_code": 1,
        }
        # invalid input still exits 2 under the same patch
        cfg = tmp_path / "collinear.json"
        cfg.write_text(json.dumps({"points": [["1", "0", "0"], ["1", "1", "0"], ["1", "2", "0"], ["1", "0", "1"], ["1", "1", "1"]]}))
        assert cli.main([verb, "--config", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().out)["exit_code"] == 2

    def test_probe_builds_the_tangency_discriminant_once(self, capsys, monkeypatch):
        real = levels.chart_discriminant
        built = []
        monkeypatch.setattr(levels, "chart_discriminant", lambda basis, e: built.append(tuple(e)) or real(basis, e))
        code, report = run(capsys, "probe", "--tangency")
        assert code == 0
        assert report["result"]["generic_direction"] == ["3/1", "7/1"]
        assert built.count((3, 7)) == 1

    @pytest.mark.parametrize("verb, builds", [("probe", 1), ("pipeline", 15)])
    def test_generic_samples_build_no_discriminant(self, capsys, monkeypatch, verb, builds):
        # the genericity test reads the member quadric at its point; only the
        # reducibility tests build a discriminant polynomial (probe's one
        # generic direction, pipeline's 5 special and 10 decoy directions)
        real = levels.chart_discriminant
        built = []
        monkeypatch.setattr(levels, "chart_discriminant", lambda basis, e: built.append(tuple(e)) or real(basis, e))
        code, _ = run(capsys, verb)
        assert code == 0
        assert len(built) == builds

    @pytest.mark.parametrize("verb", ["special-directions", "pipeline"])
    def test_discriminant_forms_are_built_once_per_basis(self, capsys, monkeypatch, verb):
        # each of the 15 directions (5 special, 10 decoys) is one chart
        # discriminant, and all of them share the basis's three forms
        real_forms, real_discriminant = sections._discriminant_forms, levels.chart_discriminant
        forms, discriminants = [], []
        monkeypatch.setattr(sections, "_discriminant_forms", lambda H, G: forms.append(H) or real_forms(H, G))
        monkeypatch.setattr(
            levels, "chart_discriminant", lambda basis, e: discriminants.append(e) or real_discriminant(basis, e)
        )
        code, _ = run(capsys, verb)
        assert code == 0
        assert len(discriminants) == 15
        assert len(forms) == 1

    def test_special_directions_square_tests_make_no_polynomial_product_or_sum(self, capsys, monkeypatch, polynomial_arithmetic):
        # each discriminant and its square test run on packed integer numerators
        real = levels.reducibility_test
        inside = []

        def recorded(basis, e):
            before = len(polynomial_arithmetic)
            result = real(basis, e)
            inside.append(polynomial_arithmetic[before:])
            return result

        monkeypatch.setattr(levels, "reducibility_test", recorded)
        code, report = run(capsys, "special-directions")
        assert code == 0
        assert sum(row["reducible"] for row in report["result"]["reducibility_table"]) == 5
        assert inside == [[]] * 15

    def test_special_directions_evaluates_no_polynomial(self, monkeypatch):
        # the nodes are read off the basis's integer evaluation table
        config = pencil.PointConfig.from_theta(["3", "-1/2", "0", "5", "2/3"])
        basis = sections.kernel_basis(sections.assemble_system(config), config)
        calls = []
        real = exactpoly.poly_eval_many
        monkeypatch.setattr(exactpoly, "poly_eval_many", lambda *args: calls.append(args) or real(*args))
        assert len(levels.special_directions(basis, config).directions) == 5
        assert calls == []
        # levels holds no name of its own for the evaluator, so no call can pass the patch
        assert not hasattr(levels, "poly_eval_many")

    def test_special_directions(self, capsys, schema):
        code, report = run(capsys, "special-directions")
        assert code == 0
        jsonschema.validate(report, schema)
        table = report["result"]["reducibility_table"]
        assert sum(1 for row in table if row["reducible"]) == 5
        assert all(row["reducible"] == row["special"] for row in table)

    def test_dictionary(self, capsys, schema):
        code, report = run(capsys, "dictionary")
        assert code == 0
        jsonschema.validate(report, schema)
        assert sorted(report["result"]["matching"]) == [0, 1, 2, 3, 4]

    def test_dictionary_shuffled_theta_same_matching(self, tmp_path, capsys):
        # shuffling theta relabels the points and changes the frame
        # normalization, but the intrinsic pairing (Veronese point of a root
        # <-> singular parameter of that root) must not move
        code, base = run(capsys, "dictionary")
        assert code == 0
        shuffled = ["2", "-1", "0", "-2", "1"]
        cfg = tmp_path / "shuffled.json"
        cfg.write_text(json.dumps({"theta": shuffled}))
        code, other = run(capsys, "dictionary", "--config", str(cfg))
        assert code == 0

        def pairs(report):
            perm = report["result"]["matching"]
            raw = report["result"]["configuration"]["raw_points"]
            params = report["result"]["parameters"]
            return {(tuple(raw[k]), tuple(params[perm[k]])) for k in range(5)}

        assert pairs(base) == pairs(other)

    def test_pipeline_full(self, capsys, schema):
        code, report = run(capsys, "pipeline", "--symbolic", "--tangency")
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["overall_pass"] is True
        names = [c["name"] for c in report["checks"]]
        for expected in (
            "pencil_roots_and_coranks",
            "plane_dimension_27",
            "kernel_dimension_2",
            "involutivity_R_zero",
            "symbolic_involutivity",
            "numerology",
            "fibration_partitions",
            "five_special_directions",
            "reducibility_exactly_on_special",
            "fiber_generic_grid",
            "node_grid_biconditional",
            "dictionary_mobius",
            "branch_curve_on_surface",
            "line_tangencies",
        ):
            assert expected in names

    def test_pipeline_reports_a_reducible_decoy(self, capsys, monkeypatch):
        real = levels.reducibility_test
        flipped = []

        def first_decoy_reducible(basis, e):
            red = real(basis, e)
            if red.reducible or flipped:
                return red
            flipped.append(cli._rat_seq(e))
            return dataclasses.replace(red, reducible=True)

        monkeypatch.setattr(levels, "reducibility_test", first_decoy_reducible)
        code, report = run(capsys, "pipeline", "--tangency")
        assert code == 1
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["reducibility_exactly_on_special"]
        table = report["result"]["reducibility_table"]
        assert table[5] == {"direction": flipped[0], "reducible": True}
        assert [row["reducible"] for row in table] == [True] * 6 + [False] * 9

    def test_pipeline_solves_the_fixture_kernel_once(self, capsys, monkeypatch):
        real_basis = sections.kernel_basis
        real_certificate = symplectic.involutivity_certificate
        real_serialize = cli._serialize_basis
        solved, certified, serialized = [], [], []

        def counted_basis(*args):
            solved.append(real_basis(*args))
            return solved[-1]

        # wrap every binding of the name, so a solve through an imported alias counts too
        for module in (sections, symplectic, levels, cli):
            if getattr(module, "kernel_basis", None) is real_basis:
                monkeypatch.setattr(module, "kernel_basis", counted_basis)
        monkeypatch.setattr(
            symplectic, "involutivity_certificate", lambda basis, **kw: certified.append(basis) or real_certificate(basis, **kw)
        )
        monkeypatch.setattr(cli, "_serialize_basis", lambda basis: serialized.append(basis) or real_serialize(basis))
        code, _ = run(capsys, "pipeline")
        assert code == 0
        # one solve for the fixture, one for each of the 20 swept configurations
        assert len(solved) == 21
        assert len(certified) == len(serialized) == 1
        assert certified[0] is serialized[0] is solved[0]

    @staticmethod
    def _without_mobius_match(monkeypatch):
        def no_match(directions, parameters):
            raise ValueError("no Moebius map matches the directions to the parameters")

        monkeypatch.setattr(pencil, "match_directions_to_parameters", no_match)

    def test_dictionary_without_a_mobius_match_fails_with_a_report(self, capsys, schema, monkeypatch):
        self._without_mobius_match(monkeypatch)
        code = cli.main(["dictionary"])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        report = json.loads(captured.out)
        jsonschema.validate(report, schema)
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["mobius_zero_residual", "cross_ratios_match"]
        assert "matching" not in report["result"] and "mobius" not in report["result"]
        assert len(report["result"]["parameters"]) == 5

    def test_pipeline_without_a_mobius_match_fails_only_its_check(self, capsys, monkeypatch):
        self._without_mobius_match(monkeypatch)
        code, report = run(capsys, "pipeline")
        assert code == 1
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["dictionary_mobius"]
        assert "dictionary" not in report["result"]

    @staticmethod
    def _identity_mobius_map(monkeypatch):
        real = pencil.match_directions_to_parameters

        def identity_map(directions, parameters):
            return {**real(directions, parameters), "matrix": ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))}

        monkeypatch.setattr(pencil, "match_directions_to_parameters", identity_map)

    def test_dictionary_checks_the_map_it_reports(self, capsys, schema, monkeypatch):
        self._identity_mobius_map(monkeypatch)
        code, report = run(capsys, "dictionary")
        assert code == 1
        jsonschema.validate(report, schema)
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["mobius_zero_residual"]
        assert report["result"]["mobius"] == [["1/1", "0/1"], ["0/1", "1/1"]]

    def test_pipeline_checks_the_matched_map(self, capsys, monkeypatch):
        self._identity_mobius_map(monkeypatch)
        code, report = run(capsys, "pipeline")
        assert code == 1
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["dictionary_mobius"]


# Fractions each verb builds on the canonical fixture once its per-process
# caches are warm.  Fractions belong at the edges, in parsed input and printed
# values, so a budget may only go down (ROADMAP item 18).
FRACTION_BUDGETS = {
    ("probe", "--tangency"): 203,
    ("special-directions",): 161,
    ("dictionary",): 98,
}


@pytest.mark.parametrize("argv", sorted(FRACTION_BUDGETS))
def test_each_verb_builds_fractions_within_its_budget(argv, capsys, monkeypatch):
    assert cli.main(list(argv)) == 0
    made = []
    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: made.append(args) or real_new(cls, *args, **kw))
    code = cli.main(list(argv))
    monkeypatch.undo()
    capsys.readouterr()
    assert code == 0
    assert len(made) <= FRACTION_BUDGETS[argv]


class TestSurface:
    """The command-line surface: help texts, verbs and flags."""

    @pytest.mark.parametrize("verb", [None, *VERBS])
    def test_help_text_is_pinned(self, capsys, monkeypatch, verb):
        if verb is None and sys.version_info >= (3, 13):
            pytest.skip("Python 3.13 wraps the top-level usage line differently")
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            cli.main([verb, "--help"] if verb else ["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == (HELP / f"{verb or 'dp4lag'}.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv, subparsers",
        [
            *(([verb], 1) for verb in VERBS),
            (["verify", "--symbolic", "--seed", "3"], 1),
            (["pencil", "--help"], 1),
            (["--help"], len(VERBS)),
            (["frobnicate"], len(VERBS)),
            ([], len(VERBS)),
        ],
    )
    def test_a_run_builds_only_its_verb_subparser(self, monkeypatch, argv, subparsers):
        cli._verb_parser.cache_clear()
        built = []
        real = argparse._SubParsersAction.add_parser
        counted = lambda self, name, **kw: built.append(name) or real(self, name, **kw)
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        # no handler runs: only the parse is counted
        idle = {name: verb._replace(handler=lambda cfg, args: ([], {})) for name, verb in cli.VERBS.items()}
        monkeypatch.setattr(cli, "VERBS", idle)
        with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
        assert len(built) == subparsers
        if subparsers == 1:
            assert built == argv[:1]

    def test_a_second_run_of_a_verb_builds_no_subparser(self, monkeypatch):
        cli.main(["pencil"])
        built = []
        real = argparse._SubParsersAction.add_parser
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", lambda *a, **kw: built.append(a) or real(*a, **kw))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["pencil"]) == 0
        assert built == []

    def test_a_flag_does_not_outlive_its_run(self, capsys):
        code, first = run(capsys, "verify", "--symbolic")
        assert code == 0 and "symbolic" in first["result"]
        code, second = run(capsys, "verify")
        assert code == 0 and "symbolic" not in second["result"]
        assert [c["name"] for c in second["checks"]] == ["bracket_identically_zero", "sample_evaluations_zero"]

    @pytest.mark.parametrize("argv", [["frobnicate"], ["pencil", "--symbolic"], ["sections", "--tangency"], []])
    def test_unknown_verb_or_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: dp4lag")
        assert "error:" in captured.err


# Every config form with its shape error: the entry count, the coordinates per
# entry (None for a bare rational) and the error text.
SHAPES = {
    "theta": (5, None, "theta needs exactly five rationals"),
    "points": (5, 3, "points needs five homogeneous triples"),
    "ab": (2, None, "ab needs exactly two rationals"),
}


def _well_shaped(value, count, coords) -> bool:
    if not isinstance(value, list) or len(value) != count:
        return False
    return coords is None or all(isinstance(p, list) and len(p) == coords for p in value)


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-9, 9), st.text("0123456789/-", max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=6), st.dictionaries(st.text("ab", max_size=2), inner, max_size=3)),
    max_leaves=12,
)


def _near_misses(count, coords):
    """Values one step from the right shape: an entry too few or too many, not a list, or one entry not a triple."""
    entry = ["1", "0", "0"] if coords else "1"
    misses = [[entry] * (count - 1), [entry] * (count + 1), "1" * count, {str(k): entry for k in range(count)}]
    if coords is None:
        return st.sampled_from(misses)
    bad_entry = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=5).filter(lambda p: len(p) != coords))
    one_bad = st.tuples(st.integers(0, count - 1), bad_entry).map(
        lambda at: [at[1] if k == at[0] else entry for k in range(count)]
    )
    return st.one_of(st.sampled_from(misses), one_bad)


_DIGITS = st.text("0123456789", min_size=1, max_size=30)
_SIGNS = st.sampled_from(["", "-", "+"])
_EXPONENTS = st.tuples(st.sampled_from("eE"), st.integers(-400, 400), st.booleans()).map(
    lambda e: f"{e[0]}{e[1]:+d}" if e[2] else f"{e[0]}{e[1]}"
)
# p/q, decimal and exponent texts, each as `Fraction` reads it; the exponents
# reach past the 256-bit bound on both sides
_RATIONAL_TEXTS = st.one_of(
    st.builds("{}{}/{}".format, _SIGNS, _DIGITS, st.integers(1, 10**30)),
    st.builds("{}{}.{}".format, _SIGNS, _DIGITS, st.text("0123456789", max_size=30)),
    st.builds("{}{}.{}{}".format, _SIGNS, _DIGITS, st.text("0123456789", max_size=10), _EXPONENTS),
    st.builds("{}{}{}".format, _SIGNS, st.sampled_from(["0", "000", "0.0"]), _EXPONENTS),
)


class TestInputHandling:
    @pytest.mark.parametrize("verb", VERBS)
    @pytest.mark.parametrize(
        "content, error",
        [
            (b'{"theta": 5}', "theta needs exactly five rationals"),
            (b'{"ab": null}', "ab needs exactly two rationals"),
            (b'{"points": [1, 2, 3, 4, 5]}', "points needs five homogeneous triples"),
            (b'{"theta": "01234"}', "theta needs exactly five rationals"),
            (b'{"ab": "12"}', "ab needs exactly two rationals"),
            (b'\xff\xfe{"theta": ["0", "1", "-1", "2", "-2"]}', "config file is not valid JSON"),
            (b"[" * 100_000 + b"]" * 100_000, "config file is not valid JSON"),
        ],
        ids=["theta-number", "ab-null", "points-flat", "theta-string", "ab-string", "not-utf8", "deep-nesting"],
    )
    def test_bad_config_exits_2_with_one_json_error(self, tmp_path, verb, content, error):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(content)
        code, out, err = run_captured([verb, "--config", str(cfg)])
        assert code == 2
        assert "Traceback" not in err
        report = json.loads(out)
        assert report["exit_code"] == 2
        assert report["error"].startswith(error)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), form=st.sampled_from(sorted(SHAPES)), verb=st.sampled_from(VERBS))
    def test_wrong_shaped_values_exit_2_before_parsing(self, data, form, verb):
        count, coords, error = SHAPES[form]
        values = st.one_of(_JSON_VALUES, _near_misses(count, coords))
        value = data.draw(values.filter(lambda v: not _well_shaped(v, count, coords)), label="value")
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "bad.json"
            cfg.write_text(json.dumps({form: value}), encoding="utf-8")
            code, out, err = run_captured([verb, "--config", str(cfg)])
        assert (code, json.loads(out), err) == (2, {"error": error, "exit_code": 2}, "")

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["sections", "--config", str(bad)])
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().out)

    def test_wrong_keys(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"theta": ["0", "1", "-1", "2", "-2"], "ab": ["1", "2"]}))
        assert cli.main(["sections", "--config", str(bad)]) == 2
        capsys.readouterr()

    def test_repeated_theta(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"theta": ["0", "1", "-1", "2", "2"]}))
        assert cli.main(["pipeline", "--config", str(bad)]) == 2
        capsys.readouterr()

    def test_ab_config(self, tmp_path, capsys, schema):
        cfg = tmp_path / "ab.json"
        cfg.write_text(json.dumps({"ab": ["2/1", "3/1"]}))
        code, report = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        jsonschema.validate(report, schema)

    def test_points_config(self, tmp_path, capsys, schema):
        cfg = tmp_path / "pts.json"
        cfg.write_text(
            json.dumps(
                {"points": [["1", "0", "0"], ["1", "1", "1"], ["1", "-1", "1"], ["1", "2", "4"], ["1", "-2", "4"]]}
            )
        )
        code, report = run(capsys, "sections", "--config", str(cfg))
        assert code == 0
        jsonschema.validate(report, schema)
        assert report["result"]["configuration"]["ab"] == ["-1/5", "9/5"]

    @staticmethod
    def _within_one_second(call):
        def timeout(signum, frame):
            raise TimeoutError("no answer within 1 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            return call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize(
        "verb, config",
        [
            ("pencil", {"theta": ["0", "1", "-1", "2", "1/" + "7" * 3000]}),
            ("sections", {"theta": ["0", "1", "-1", "2", "7" * 3000]}),
            ("sections", {"ab": ["1/" + "3" * 3000, "2"]}),
        ],
    )
    def test_3000_digit_inputs_exit_2_within_a_second(self, tmp_path, capsys, verb, config):
        cfg = tmp_path / "tall.json"
        cfg.write_text(json.dumps(config))
        code = self._within_one_second(lambda: cli.main([verb, "--config", str(cfg)]))
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert json.loads(captured.out) == {
            "error": "config rational has a numerator or denominator of more than 256 bits",
            "exit_code": 2,
        }

    @pytest.mark.parametrize(
        "config",
        [
            {"theta": ["0", "1", "-1", "2", "1e1000000000"]},
            {"points": [["1", "0", "0"], ["1", "1", "1"], ["1", "-1", "1"], ["1", "2", "4"], ["1", "1e1000000000", "4"]]},
            {"ab": ["1", "1e1000000000"]},
        ],
        ids=["theta", "points", "ab"],
    )
    def test_huge_exponent_exits_2_within_a_second(self, tmp_path, capsys, config):
        # Fraction alone would expand 10**(10**9) before any bit check
        cfg = tmp_path / "tall.json"
        cfg.write_text(json.dumps(config))
        code = self._within_one_second(lambda: cli.main(["pencil", "--config", str(cfg)]))
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert json.loads(captured.out) == {
            "error": "config rational has a numerator or denominator of more than 256 bits",
            "exit_code": 2,
        }

    @settings(max_examples=300)
    @given(text=_RATIONAL_TEXTS)
    def test_rational_texts_parse_as_fraction_reads_them(self, text):
        want = Fraction(text)
        if max(want.numerator.bit_length(), want.denominator.bit_length()) <= cli.MAX_INPUT_BITS:
            assert cli._parse_bounded(text) == want
        else:
            with pytest.raises(cli.InputError, match="more than 256 bits"):
                cli._parse_bounded(text)

    def test_input_height_limit_is_256_bits(self, tmp_path, capsys):
        cfg = tmp_path / "tall.json"
        cfg.write_text(json.dumps({"theta": ["0", "1", "-1", str(-(2**256 - 1)), f"1/{2**256 - 1}"]}))
        assert cli.main(["pencil", "--config", str(cfg)]) == 0
        for config in (
            {"theta": ["0", "1", "-1", "2", f"1/{2**256}"]},
            {"points": [["1", "0", "0"], ["1", "1", "1"], ["1", "-1", "1"], ["1", "2", "4"], [str(2**256), "-2", "4"]]},
            {"ab": ["1", f"{-(2**256)}/3"]},
        ):
            capsys.readouterr()
            cfg.write_text(json.dumps(config))
            assert cli.main(["sections", "--config", str(cfg)]) == 2
            assert "256 bits" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize(
        "verb, config, error",
        [
            (
                "pencil",
                {"theta": ["0", "1", "-1", "2", "2"]},
                "characteristic roots must be distinct, got "
                "[Fraction(0, 1), Fraction(1, 1), Fraction(-1, 1), Fraction(2, 1), Fraction(2, 1)]",
            ),
            (
                "sections",
                {"theta": ["0", "1", "-1", "2", "2"]},
                "parameters must be distinct, got "
                "[Fraction(0, 1), Fraction(1, 1), Fraction(-1, 1), Fraction(2, 1), Fraction(2, 1)]",
            ),
            # #3 is a multiple of #2 and #5 of #4: the first equal pair is named
            (
                "sections",
                {"points": [["1", "0", "0"], ["1", "1", "1"], ["2", "2", "2"], ["1", "2", "4"], ["-1/3", "-2/3", "-4/3"]]},
                "points not distinct: #2 and #3",
            ),
            # (1, 2, 4) and (3, 4, 5) are collinear: the first triple checked, (1, 2, 3), is not
            (
                "verify",
                {"points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "0"], ["1", "1", "1"]]},
                "general position violated: points #1, #2, #4 are collinear",
            ),
            (
                "sections",
                {"points": [["1", "0", "0"], ["1", "1", "0"], ["1", "0", "1"], ["1", "2", "4"], ["1", "3", "6"]]},
                "general position violated: points #1, #4, #5 are collinear",
            ),
            ("sections", {"ab": ["0", "5"]}, "general position violated: points #1, #3, #5 are collinear"),
            ("verify", {"ab": ["1", "7"]}, "general position violated: points #2, #4, #5 are collinear"),
            ("sections", {"ab": ["2", "-3"]}, "general position violated: points #3, #4, #5 are collinear"),
            # on the frame lines (1, 2) and (3, 4) at once
            ("sections", {"ab": ["1/2", "0"]}, "general position violated: points #1, #2, #5 are collinear"),
            ("sections", {"ab": ["0", "0"]}, "points not distinct: #1 and #5"),
            ("sections", {"ab": ["1", "-1"]}, "points not distinct: #4 and #5"),
        ],
        ids=[
            "repeated-theta-pencil",
            "repeated-theta-sections",
            "equal-points",
            "collinear-points-two-triples",
            "collinear-points-late-triple",
            "ab-on-frame-line-13",
            "ab-on-frame-line-24",
            "ab-on-frame-line-34",
            "ab-on-two-frame-lines",
            "ab-at-frame-point-1",
            "ab-at-frame-point-4",
        ],
    )
    def test_invalid_configuration_error_bytes_are_pinned(self, tmp_path, verb, config, error):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_captured([verb, "--config", str(cfg)])
        assert (code, err) == (2, "")
        assert out == '{\n  "error": "' + error + '",\n  "exit_code": 2\n}\n'

    def test_collinear_points_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {"points": [["1", "0", "0"], ["1", "1", "0"], ["1", "2", "0"], ["1", "0", "1"], ["1", "1", "1"]]}
            )
        )
        assert cli.main(["sections", "--config", str(cfg)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("where", ["missing/report.json", "."])
    def test_unwritable_out_exits_2_without_a_report(self, tmp_path, where):
        code, out, err = run_captured(["pencil", "--out", str(tmp_path / where)])
        assert code == 2
        assert "Traceback" not in err
        error = json.loads(out)
        assert set(error) == {"error", "exit_code"}
        assert error["exit_code"] == 2
        assert error["error"].startswith("cannot write report file: ")


class TestDeterminism:
    def test_pipeline_bytes_reproducible(self, capsys):
        code1 = cli.main(["pipeline", "--seed", "3"])
        out1 = capsys.readouterr().out
        code2 = cli.main(["pipeline", "--seed", "3"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_writes_nothing_to_stderr(self, capsys):
        assert cli.main(["verify"]) == 0
        assert capsys.readouterr().err == ""

    def test_out_flag_writes_identical_payload(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        cli.main(["pencil", "--out", str(target)])
        out = capsys.readouterr().out
        assert target.read_text() == out


# Report-shaped JSON values: str keys; strings with non-ASCII and control
# characters; ints far past 64 bits; empty and nested containers.
_REPORT_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**300), 2**300),
    st.text(st.characters(codec="utf-8"), max_size=8),
)
_REPORT_VALUES = st.recursive(
    _REPORT_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=4), inner, max_size=4)
    ),
    max_leaves=20,
)


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(_REPORT_VALUES)
    def test_writes_the_bytes_of_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [1.5, Fraction(1, 2), (1, 2), {1: "a"}, {"a": [set()]}, b"x"])
    def test_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            cli._dumps(value)

    def test_a_report_value_it_rejects_goes_to_json_dumps(self, monkeypatch, capsys):
        result = {"float": 0.5, "pair": (1, "\u00e9"), "nested": [{"b": 1.0, "a": None}]}
        checks = [{"name": "stub", "pass": True}]
        verbs = {"verify": cli.VERBS["verify"]._replace(handler=lambda cfg, args: (checks, result))}
        monkeypatch.setattr(cli, "VERBS", verbs)
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["result"] == {"float": 0.5, "pair": [1, "\u00e9"], "nested": [{"b": 1.0, "a": None}]}
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
