"""Acceptance suite: one test per criterion, every check exact (zero tolerance).

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or on failure) before asserting, so the suite doubles as a checklist.
"""

import itertools
import random
from fractions import Fraction

import pytest

from dp4lag import assemble_system, kernel_basis, linalg
from dp4lag.levels import (
    FiberStatus,
    branch_model_ranks,
    fiber_count,
    is_generic_sample,
    line_tangency_check,
    reducibility_test,
)
from dp4lag.pencil import (
    DivisorClass,
    anticanonical_class,
    conic_fibrations,
    enumerate_lines,
    match_directions_to_parameters,
    member_corank,
    singular_members,
    standard_dp4_quadrics,
    vmrt_class_sum,
    zeta_numerology,
)
from dp4lag.sections import section_space_dimension
from dp4lag.symplectic import poisson_R, symbolic_involutivity
from conftest import THETA, random_general_configs
import oracles


def report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def random_configs():
    return random_general_configs(20)


@pytest.fixture(scope="module")
def bases(fixture_config, random_configs):
    configs = [fixture_config] + random_configs
    return [(c, kernel_basis(assemble_system(c), c)) for c in configs]


def test_criterion_01_plane_dimension(fixture_config):
    dim = section_space_dimension(0)
    report(1, f"plane-only system has kernel dimension 27 (measured {dim})", dim == 27)


def test_criterion_02_full_dimension(bases):
    ok = True
    for config, basis in bases:
        # kernel_basis raises unless the dimension is exactly 2; re-verify rows
        system = assemble_system(config)
        ok = ok and all(oracles.evaluate(r, basis.H) == 0 and oracles.evaluate(r, basis.G) == 0 for r in system)
    report(2, f"kernel dimension 2 for the theta fixture and {len(bases) - 1} random configs", ok)


def test_criterion_03_involutivity(bases):
    ok = all(poisson_R(basis.H, basis.G).is_zero() for _, basis in bases)
    report(3, "bracket polynomial vanishes identically for every criterion-2 config", ok)


def test_criterion_04_symbolic_tier():
    cert = symbolic_involutivity()
    ok = cert.is_zero and not cert.degeneracy_locus.is_zero()
    report(4, "symbolic tier: R = 0 over polynomials in (a, b), nonzero degeneracy locus", ok)


def test_criterion_05_numerology():
    n = zeta_numerology(4, 8)
    ok = (
        n["zeta_cubed"] == -4
        and n["base_multiplicity"] == 1
        and n["base_multiplicity_sum"] == 16
        and n["euler_characteristic_blowup"] == 48
        and all(vmrt_class_sum(i) for i in range(1, 6))
    )
    report(5, "zeta^3 = -4, multiplicities 1, Euler identity 48, dual-class sums", ok)


def test_criterion_06_pencil_roots():
    rng = random.Random(20)
    ok = True
    for _ in range(20):
        theta = set()
        while len(theta) < 5:
            theta.add(Fraction(rng.randint(-10, 10), rng.randint(1, 4)))
        theta = sorted(theta)
        pencil = standard_dp4_quadrics(theta)
        members = singular_members(pencil)
        ok = ok and [m.theta for m in members] == theta
        ok = ok and all(member_corank(pencil, m.theta) == 1 for m in members)
    report(6, "characteristic roots equal theta with corank-1 members, 20 random tuples", ok)


def test_criterion_07_lines_and_fibrations():
    lines = {(l.d, l.m) for l in enumerate_lines()}
    k = anticanonical_class()
    found = set()
    for d in range(-2, 3):
        for m in itertools.product((-1, 0, 1), repeat=5):
            c = DivisorClass(d, m)
            if c.self_intersection() == -1 and c.dot(k) == 1:
                found.add((d, m))
    ok = found == lines and len(lines) == 16
    for i in range(1, 6):
        used = [
            (c.d, c.m)
            for f in conic_fibrations()
            if f.i == i
            for pair in f.singular_fibers
            for c in pair
        ]
        ok = ok and sorted(used) == sorted(lines)
    report(7, "lattice search gives exactly the 16 lines; fibrations partition them", ok)


def test_criterion_08_fiber_dichotomy(fixture_basis, fixture_directions):
    rng = random.Random(21)
    ok = True
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
        ok = ok and rep.status is FiberStatus.FOUR_POINTS and len(rep.involution_pairs) == 2
        checked += 1
    nodes = [
        (i, w.node) for i, group in enumerate(fixture_directions.witnesses, start=1) for w in group
    ]
    cells = 0
    for (i, node), (k, d) in itertools.product(nodes, enumerate(fixture_directions.directions, start=1)):
        rep = fiber_count(fixture_basis, d, node)
        ok = ok and (rep.status is FiberStatus.WHOLE_LINE) == (i == k)
        cells += 1
    report(
        8,
        f"50 generic fibers are four points; whole_line exactly on matching pairs "
        f"({len(nodes)} chart-visible nodes x 5 directions = {cells} cells)",
        ok,
    )


def test_criterion_09_special_directions(fixture_basis, fixture_config, fixture_directions):
    ok = len(set(fixture_directions.directions)) == 5
    special = set(fixture_directions.directions)
    for d in fixture_directions.directions:
        result = reducibility_test(fixture_basis, d)
        ok = ok and result.reducible and result.sqrt is not None
    rng = random.Random(22)
    decoys = []
    while len(decoys) < 10:
        e = (Fraction(rng.randint(-30, 30)), Fraction(rng.randint(-30, 30)))
        if e == (0, 0):
            continue
        prim = linalg.primitive_integer_vector(list(e))
        e = (Fraction(prim[0]), Fraction(prim[1]))
        if e in special or e in decoys:
            continue
        decoys.append(e)
    ok = ok and not any(reducibility_test(fixture_basis, e).reducible for e in decoys)
    report(9, "five distinct special directions; square discriminant on exactly those 5 of 15", ok)


def test_criterion_10_dictionary(fixture_directions):
    params = [(Fraction(1), t) for t in THETA]
    match = match_directions_to_parameters(fixture_directions.directions, params)
    ok = all(r == 0 for r in match["held_out_residuals"])
    report(10, "Moebius map matches directions to singular parameters with zero residual", ok)


def test_criterion_11_branch_model():
    ranks = branch_model_ranks(THETA, Fraction(3))
    ok = (
        ranks["rank_surface_pencil"] == 2
        and ranks["rank_branch_triple"] == 3
        and ranks["rank_stacked"] == 3
        and ranks["branch_curve_on_surface"]
    )
    report(
        11,
        "surface pencil lies in the span of the three branch quadrics (rank check): "
        "the branch curve is on the surface",
        ok,
    )


def test_criterion_12_line_tangency(fixture_basis):
    e = (Fraction(3), Fraction(7))
    red = reducibility_test(fixture_basis, e)
    assert not red.reducible
    ok = True
    for i, j in itertools.combinations(range(1, 6), 2):
        rep = line_tangency_check(fixture_basis, red.discriminant, (i, j))
        ok = ok and rep.has_tangency_witness()
    report(12, "restricted discriminant has a repeated root on each of the 10 chart lines", ok)
