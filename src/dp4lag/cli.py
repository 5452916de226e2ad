"""Command-line verification pipeline emitting schema-versioned JSON reports.

Verbs: ``sections``, ``verify``, ``pencil``, ``probe``, ``special-directions``,
``dictionary``, ``pipeline``.  Every verb consumes the same configuration
schema (one of ``theta``, ``points``, ``ab``), echoes it in the report, and
exits 0 when every mathematical check passed, 1 when one failed, and 2 on
invalid input.  Rationals are serialized as ``p/q`` strings so the report
loses no exactness; with a fixed seed the report bytes are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, Optional, Sequence

from . import levels, pencil, sections, symplectic
from .exactpoly import parse_rat, rat_str, to_text
from .pencil import ConfigError, PencilError, PointConfig
from .sections import SectionSpaceError

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2

DEFAULT_THETA = ("0", "1", "-1", "2", "-2")
# Largest bit length of a config rational's numerator or denominator.  Every
# verb finishes in seconds at this height; taller inputs exit 2.
MAX_INPUT_BITS = 256


class InputError(ValueError):
    """Invalid configuration file or flags (exit code 2)."""


def _rat_seq(values: Sequence[Fraction]) -> list[str]:
    return [rat_str(v) for v in values]


# The decimal exponent k of a rational's text, which `Fraction` expands as 10**k first.
_EXPONENT_RE = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _parse_bounded(text) -> Fraction:
    text = str(text)
    try:
        # A nonzero mantissa of n digits times 10**k is taller than MAX_INPUT_BITS
        # once |k| > MAX_INPUT_BITS + n, so only the mantissa is read then.
        exp = _EXPONENT_RE.search(text)
        tall = exp is not None and abs(int(exp[1])) > MAX_INPUT_BITS + sum(map(str.isdigit, text[: exp.start()]))
        q = parse_rat(text[: exp.start()] + "e0" if tall else text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational in config: {exc}") from exc
    if (tall and q) or q.numerator.bit_length() > MAX_INPUT_BITS or q.denominator.bit_length() > MAX_INPUT_BITS:
        raise InputError(f"config rational has a numerator or denominator of more than {MAX_INPUT_BITS} bits")
    return q


class InputForm(NamedTuple):
    """A config form: a JSON list of ``shape[0]`` entries, each a rational or, for ``shape[1]``, a list of that many."""

    shape: tuple[int, ...]
    shape_error: str
    build: Callable[[list], PointConfig]


# The builders look their constructor up when called, so a patched or traced one takes effect.
INPUT_FORMS = {
    "theta": InputForm((5,), "theta needs exactly five rationals", lambda theta: PointConfig.from_theta(theta)),
    "points": InputForm((5, 3), "points needs five homogeneous triples", lambda pts: pencil.normalize_config(pts)),
    "ab": InputForm((2,), "ab needs exactly two rationals", lambda ab: PointConfig.from_ab(*ab)),
}


def _has_shape(value, shape: tuple[int, ...]) -> bool:
    """Whether ``value`` is a list of ``shape[0]`` entries of shape ``shape[1:]``; any value has the empty shape."""
    return not shape or (
        isinstance(value, list) and len(value) == shape[0] and all(_has_shape(v, shape[1:]) for v in value)
    )


def _map_rationals(value, shape: tuple[int, ...], fn: Callable):
    """A value of the given shape with ``fn`` applied to each of its rationals."""
    return [_map_rationals(v, shape[1:], fn) for v in value] if shape else fn(value)


def load_config(path: Optional[str]) -> dict:
    """Parse the run configuration; default is the canonical theta fixture."""
    if path is None:
        raw = {"theta": list(DEFAULT_THETA)}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read config file: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise InputError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    if len(raw) != 1 or not raw.keys() <= INPUT_FORMS.keys():
        raise InputError(f"config must contain exactly one of: {', '.join(INPUT_FORMS)}")
    ((name, value),) = raw.items()
    form = INPUT_FORMS[name]
    if not _has_shape(value, form.shape):
        raise InputError(form.shape_error)
    return {name: _map_rationals(value, form.shape, _parse_bounded)}


def config_echo(cfg: dict) -> dict:
    return {name: _map_rationals(value, INPUT_FORMS[name].shape, rat_str) for name, value in cfg.items()}


def build_point_config(cfg: dict) -> PointConfig:
    ((name, value),) = cfg.items()
    return INPUT_FORMS[name].build(value)


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def _report(command: str, cfg: dict, seed: int, checks: list[dict], result: dict) -> dict:
    return {
        "schema_version": "1",
        "command": command,
        "seed": seed,
        "config": config_echo(cfg),
        "checks": checks,
        "overall_pass": all(c["pass"] for c in checks),
        "result": result,
    }


def _serialize_basis(basis: sections.SectionBasis) -> dict:
    return {name: {"f": to_text(v.f), "g": to_text(v.g), "h": to_text(v.h)} for name, v in zip("HG", basis.pair())}


# ---------------------------------------------------------------------------
# Computations shared by the verbs and pipeline
# ---------------------------------------------------------------------------


def _solved(config: PointConfig) -> tuple:
    """The system of ``config``, its kernel basis, and the first row not vanishing on the basis (None if all do)."""
    system = sections.assemble_system(config)
    basis = sections.kernel_basis(system, config)
    return system, basis, sections.first_nonvanishing_row(system.rows, basis.pair())


def _basis_for(cfg: dict) -> tuple[PointConfig, sections.SectionBasis]:
    """The configuration and its kernel basis, checked against every row of its system."""
    config = build_point_config(cfg)
    _, basis, failed = _solved(config)
    if failed is not None:
        raise ArithmeticError(f"kernel verification failed on row {failed.label}")
    return config, basis


def _dimension_profile(config: PointConfig, basis: sections.SectionBasis) -> list[int]:
    """Kernel dimensions as the points are added: the frame prefixes, then the solved kernel."""
    return [sections.section_space_dimension(config, k) for k in range(5)] + [len(basis.pair())]


def _pencil_facts(theta: Sequence[Fraction]) -> tuple:
    """The pencil of ``theta``, its characteristic polynomial and its singular members."""
    pen = pencil.standard_dp4_quadrics(theta)
    char = pencil.characteristic_polynomial(pen)
    return pen, char, pencil.singular_members(pen, char)


def _numerology_holds(numerology: dict) -> bool:
    return (
        numerology["zeta_cubed"] == -4
        and numerology["base_multiplicity"] == 1
        and numerology["euler_characteristic_blowup"] == 48
    )


def _four_points(rep) -> bool:
    """Whether a fiber is the generic one: four points in two involution orbits."""
    return rep.status is levels.FiberStatus.FOUR_POINTS and len(rep.involution_pairs or ()) == 2


def _decoy_directions(rng: random.Random, special) -> list[tuple[Fraction, Fraction]]:
    """Ten distinct seeded primitive directions, none of them in ``special``."""
    decoys: list[tuple[int, int]] = []
    while len(decoys) < 10:
        e = (rng.randint(-30, 30), rng.randint(-30, 30))
        if e == (0, 0):
            continue
        e = levels._primitive_pair(*e)
        if e in special or e in decoys:
            continue
        decoys.append(e)
    return [(Fraction(a), Fraction(b)) for a, b in decoys]


def _reducibility(basis: sections.SectionBasis, config: PointConfig, rng: random.Random) -> tuple:
    """The special directions, them followed by ten seeded decoys, and the square test of each of those."""
    sd = levels.special_directions(basis, config)
    directions = list(sd.directions) + _decoy_directions(rng, set(sd.directions))
    return sd, directions, [levels.reducibility_test(basis, e) for e in directions]


def _mobius_match(sd, theta: Sequence[Fraction]) -> Optional[dict]:
    """The exact Moebius matching of the special directions to the parameters (1 : theta), or None."""
    try:
        return pencil.match_directions_to_parameters(sd.directions, [(t.denominator, t.numerator) for t in theta])
    except ValueError:
        return None


def _mobius_maps_every_direction(match: dict, sd, theta: Sequence[Fraction]) -> bool:
    """Whether the matched map sends each special direction to its matched parameter (1 : theta)."""
    images = [pencil.mobius_apply(match["matrix"], d) for d in sd.directions]
    matched = [theta[k] for k in match["permutation"]]
    return all(u != 0 and v * t.denominator == u * t.numerator for (u, v), t in zip(images, matched))


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def cmd_sections(cfg: dict, args) -> tuple[list[dict], dict]:
    config = build_point_config(cfg)
    checks = []
    if args.plane_only:
        dim = sections.section_space_dimension(config, 0)
        checks.append(_check("plane_dimension", dim == 27, f"kernel dimension {dim}, expected 27"))
        result = {"row_count": 18, "kernel_dimension": dim, "configuration": config.to_json()}
        return checks, result
    system, basis, failed = _solved(config)
    transport = sections.chart_transport_check(basis.H) and sections.chart_transport_check(basis.G)
    # Rank 43 mod p bounds the rank over Q from below, so with the two
    # verified kernel vectors it proves dimension 2 independently of the
    # frame-reduced elimination that found them.
    certified = _rank_certified(system, sections.NUM_SLOTS - 2)
    checks.append(_check("kernel_dimension", certified, "kernel dimension 2" if certified else "rank mod p is not 43"))
    annihilated = "all 53 rows vanish on H and G" if failed is None else f"row {failed.label} does not vanish"
    checks.append(_check("rows_annihilate_basis", failed is None, annihilated))
    checks.append(_check("chart_transport", transport, "basis fields regular in the opposite chart"))
    result = {
        "row_count": len(system),
        "kernel_dimension": 2,
        "configuration": config.to_json(),
        "basis": _serialize_basis(basis),
        "dimension_profile": _dimension_profile(config, basis),
    }
    return checks, result


# Primes for the rank certificate of `sections`.  The system's rows are
# integer, so the second is tried only when the first loses rank.
CERTIFICATE_PRIMES = (2**31 - 1, 2**61 - 1)


def _rank_certified(system: sections.ConstraintSystem, rank: int) -> bool:
    """Whether the system's integer rows have the given rank modulo one of the certificate primes."""
    return any(sections.system_rank_mod_p(system, p) == rank for p in CERTIFICATE_PRIMES)


def cmd_verify(cfg: dict, args) -> tuple[list[dict], dict]:
    config, basis = _basis_for(cfg)
    cert = symplectic.involutivity_certificate(basis, seed=args.seed)
    checks = [
        _check("bracket_identically_zero", cert.is_zero, f"R = {to_text(cert.R_poly)[:120]}"),
        _check(
            "sample_evaluations_zero",
            all(v == 0 for _, v in cert.sample_checks),
            f"{len(cert.sample_checks)} redundant samples",
        ),
    ]
    result = {
        "configuration": config.to_json(),
        "R": to_text(cert.R_poly),
        "is_zero": cert.is_zero,
        "samples": [{"point": _rat_seq(q), "value": rat_str(v)} for q, v in cert.sample_checks],
    }
    if args.symbolic:
        sym = symplectic.symbolic_involutivity()
        checks.append(_check("symbolic_bracket_zero", sym.is_zero, "R = 0 with (a, b) symbolic"))
        checks.append(
            _check(
                "symbolic_degeneracy_locus_nonzero",
                not sym.degeneracy_locus.is_zero(),
                "pivot product does not vanish identically",
            )
        )
        result["symbolic"] = {
            "branch": _rat_seq(pencil.FRAME[3][1:]),
            "reduced_dimension": sym.reduced_dimension,
            "is_zero": sym.is_zero,
            "degeneracy_locus": to_text(sym.degeneracy_locus),
        }
    return checks, result


def cmd_pencil(cfg: dict, args) -> tuple[list[dict], dict]:
    theta = cfg["theta"]
    pen, char, members = _pencil_facts(theta)
    coranks = [m.corank for m in members]
    config = PointConfig.from_theta(theta)
    lines = pencil.enumerate_lines()
    numerology = pencil.zeta_numerology()
    checks = [
        _check("characteristic_roots", sorted(m.theta for m in members) == sorted(theta), "root multiset equals theta"),
        _check("singular_coranks", all(c == 1 for c in coranks), f"coranks {coranks}"),
        _check("sixteen_lines", len(lines) == 16, "1 + 5 + 10 line classes"),
        _check(
            "vmrt_sums",
            all(pencil.vmrt_class_sum(i) for i in range(1, 6)),
            "dual-class sums equal twice the tautological class",
        ),
        _check("numerology", _numerology_holds(numerology), str({k: str(v) for k, v in numerology.items()})),
    ]
    result = {
        "characteristic_polynomial": to_text(char),
        "det_q1": rat_str(pen.det_q1()),
        "singular_members": [
            {"theta": rat_str(m.theta), "parameter": _rat_seq(m.parameter), "corank": m.corank}
            for m in members
        ],
        "veronese_points": [[rat_str(c) for c in p] for p in pencil.veronese_points(theta)],
        "configuration": config.to_json(),
        "lines": [{"label": l.label, "d": l.d, "m": list(l.m)} for l in lines],
    }
    return checks, result


def _generic_samples(basis, rng: random.Random, count: int):
    out = []
    while len(out) < count:
        x0 = (
            Fraction(rng.randint(-30, 30), rng.randint(1, 7)),
            Fraction(rng.randint(-30, 30), rng.randint(1, 7)),
        )
        e = (Fraction(rng.randint(-20, 20)), Fraction(rng.randint(-20, 20)))
        if e == (0, 0):
            continue
        if levels.is_generic_sample(basis, e, x0):
            out.append((x0, e))
    return out


def _serialize_fiber_line(line) -> dict:
    entry: dict = {"multiplicity": line.multiplicity, "alive": line.alive}
    if line.direction is not None:
        entry["kind"] = "rational_line"
        entry["direction"] = _rat_seq(line.direction)
        if line.radius_square is not None:
            entry["radius_square"] = rat_str(line.radius_square)
    else:
        entry["kind"] = "conjugate_lines"
        entry["quadric"] = _rat_seq(line.conjugate_quadric)
    return entry


# Candidate generic directions for probe, as primitive integer vectors with
# positive lead (the form of `levels.special_directions`).  At most five are
# special for any configuration, so one of the six is always generic.
PROBE_DIRECTIONS = tuple(
    (Fraction(a), Fraction(b)) for a, b in ((3, 7), (2, 9), (5, 11), (7, 4), (1, 6), (8, 3))
)


def cmd_probe(cfg: dict, args) -> tuple[list[dict], dict]:
    config, basis = _basis_for(cfg)
    rng = random.Random(args.seed)
    samples = _generic_samples(basis, rng, 12)
    fibers = []
    all_generic_ok = True
    for x0, e in samples:
        rep = levels.fiber_count(basis, e, x0)
        all_generic_ok = all_generic_ok and _four_points(rep)
        fibers.append(
            {
                "base_point": _rat_seq(x0),
                "direction": _rat_seq(e),
                "status": rep.status.value,
                "involution_orbits": len(rep.involution_pairs or ()),
                "solutions": [_serialize_fiber_line(line) for line in rep.solution_data],
            }
        )
    e_generic = PROBE_DIRECTIONS[0]
    red = levels.reducibility_test(basis, e_generic)
    irreducible_detail = "discriminant is not a square"
    first_is_special = True
    if red.reducible:
        # A square discriminant must mean a special direction; the probe then
        # moves on to the first candidate that is not special.
        special = set(levels.special_directions(basis, config).directions)
        first_is_special = e_generic in special
        e_generic = next(e for e in PROBE_DIRECTIONS if e not in special)
        red = levels.reducibility_test(basis, e_generic)
        first, chosen = (", ".join(_rat_seq(e)) for e in (PROBE_DIRECTIONS[0], e_generic))
        if first_is_special:
            irreducible_detail = f"({first}) is special; discriminant at ({chosen}) is not a square"
        else:
            irreducible_detail = f"({first}) has a square discriminant but is not special"
    delta = red.discriminant
    checks = [
        _check("generic_fibers_four_points", all_generic_ok, f"{len(samples)} seeded samples"),
        _check("discriminant_degree", delta.total_degree() == 6, f"degree {delta.total_degree()}"),
        _check("generic_member_irreducible", first_is_special and not red.reducible, irreducible_detail),
    ]
    result = {
        "configuration": config.to_json(),
        "fibers": fibers,
        "generic_direction": _rat_seq(e_generic),
        "chart_discriminant": to_text(delta),
        "reducible": red.reducible,
    }
    if args.tangency:
        tangency_ok, result["tangency"] = _line_tangencies(basis, delta)
        checks.append(_check("line_tangencies", tangency_ok, "repeated root on each of the 10 joins"))
    return checks, result


def _line_tangencies(basis: sections.SectionBasis, delta) -> tuple[bool, list[dict]]:
    """Whether the branch curve ``delta`` has a tangency witness on each of the 10 joins, and the per-join reports."""
    reports = []
    tangency_ok = True
    for i, j in itertools.combinations(range(1, 6), 2):
        rep = levels.line_tangency_check(basis, delta, (i, j))
        tangency_ok = tangency_ok and rep.has_tangency_witness()
        witnesses = [w if w == levels.INFINITY else rat_str(w) for w in rep.witnesses]
        reports.append({"pair": [i, j], "gcd_degree": rep.gcd_degree, "witnesses": witnesses})
    return tangency_ok, reports


def cmd_special_directions(cfg: dict, args) -> tuple[list[dict], dict]:
    config, basis = _basis_for(cfg)
    sd, directions, tests = _reducibility(basis, config, random.Random(args.seed))
    special = set(sd.directions)
    table = []
    for e, red in zip(directions, tests):
        entry = {"direction": _rat_seq(e), "special": e in special, "reducible": red.reducible}
        if red.sqrt is not None:
            entry["sqrt"] = to_text(red.sqrt)
        table.append(entry)
    checks = [
        _check("five_distinct_directions", len(special) == 5, str([_rat_seq(d) for d in sd.directions])),
        _check(
            "reducible_exactly_on_special",
            all(red.reducible == (e in special) for e, red in zip(directions, tests)),
            "square discriminant exactly on the five special directions",
        ),
    ]
    result = {
        "configuration": config.to_json(),
        "directions": [_rat_seq(d) for d in sd.directions],
        "witnesses": [
            [{"node": _rat_seq(w.node), "pairing": [list(pair) for pair in w.pairing]} for w in group]
            for group in sd.witnesses
        ],
        "reducibility_table": table,
    }
    return checks, result


def cmd_dictionary(cfg: dict, args) -> tuple[list[dict], dict]:
    theta = cfg["theta"]
    config, basis = _basis_for(cfg)
    sd = levels.special_directions(basis, config)
    # integer pairs of the projective line: (1 : p/q) is (q : p)
    directions = [(a.numerator, b.numerator) for a, b in sd.directions]
    params = [(t.denominator, t.numerator) for t in theta]
    match = _mobius_match(sd, theta)
    residual_zero = cross_ok = False
    if match is not None:
        residual_zero = _mobius_maps_every_direction(match, sd, theta)
        cross_ok = True
        for quad in itertools.combinations(range(5), 4):
            cr_dir = pencil.cross_ratio(*[directions[k] for k in quad])
            cr_par = pencil.cross_ratio(*[params[match["permutation"][k]] for k in quad])
            if cr_dir[0] * cr_par[1] != cr_dir[1] * cr_par[0]:
                cross_ok = False
    checks = [
        _check("mobius_zero_residual", residual_zero, "exact on the two held-out pairs"),
        _check("cross_ratios_match", cross_ok, "all five 4-subsets"),
    ]
    result = {
        "configuration": config.to_json(),
        "directions": [_rat_seq(d) for d in sd.directions],
        "parameters": [["1/1", rat_str(t)] for t in theta],
    }
    if match is not None:
        result["matching"] = list(match["permutation"])
        # printed with its free column, the last nonzero entry, equal to 1
        free = next(x for row in reversed(match["matrix"]) for x in reversed(row) if x)
        result["mobius"] = [[rat_str(Fraction(x, free)) for x in row] for row in match["matrix"]]
    return checks, result


def cmd_pipeline(cfg: dict, args) -> tuple[list[dict], dict]:
    theta = cfg["theta"]
    checks: list[dict] = []
    result: dict = {}
    # one rng, drawn in this order: config sweep, theta sweep, decoys, generic samples
    rng = random.Random(args.seed)

    # stage 1: pencil
    _, char, members = _pencil_facts(theta)
    pencil_ok = sorted(m.theta for m in members) == sorted(theta) and all(m.corank == 1 for m in members)
    checks.append(_check("pencil_roots_and_coranks", pencil_ok, "root multiset and corank-1 singular members"))
    config, basis = _basis_for(cfg)
    result["pencil"] = {
        "characteristic_polynomial": to_text(char),
        "singular_parameters": [_rat_seq(m.parameter) for m in members],
        "ab": _rat_seq(config.ab),
    }

    # stage 2: sections
    profile = _dimension_profile(config, basis)
    checks.append(_check("plane_dimension_27", profile[0] == 27, f"measured {profile[0]}"))
    checks.append(_check("kernel_dimension_2", profile[5] == 2, f"dimension profile {profile}"))
    result["sections"] = {"dimension_profile": profile, "basis": _serialize_basis(basis)}

    # stage 3: involutivity, for this config and a seeded random sweep
    cert = symplectic.involutivity_certificate(basis, seed=args.seed)
    checks.append(_check("involutivity_R_zero", cert.is_zero, "bracket polynomial vanishes"))
    result["involutivity"] = {"is_zero": cert.is_zero, "samples": len(cert.sample_checks)}
    sweep_ok = True
    swept = 0
    while swept < 20:
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        b = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        try:
            random_config = PointConfig.from_ab(a, b)
        except ValueError:
            continue
        _, random_basis, failed = _solved(random_config)
        sweep_ok = sweep_ok and failed is None and symplectic.poisson_R(random_basis.H, random_basis.G).is_zero()
        swept += 1
    checks.append(_check("random_config_sweep", sweep_ok, "kernel dimension 2 and R = 0 for 20 random configs"))
    theta_sweep_ok = True
    for _ in range(20):
        sample = set()
        while len(sample) < 5:
            sample.add(Fraction(rng.randint(-10, 10), rng.randint(1, 4)))
        _, _, sample_members = _pencil_facts(sorted(sample))
        roots_ok = [m.theta for m in sample_members] == sorted(sample)
        theta_sweep_ok = theta_sweep_ok and roots_ok and all(m.corank == 1 for m in sample_members)
    checks.append(_check("random_theta_sweep", theta_sweep_ok, "roots and coranks for 20 random theta tuples"))
    if args.symbolic:
        sym = symplectic.symbolic_involutivity()
        checks.append(
            _check(
                "symbolic_involutivity",
                sym.is_zero and not sym.degeneracy_locus.is_zero(),
                f"degeneracy locus {to_text(sym.degeneracy_locus)[:80]}",
            )
        )
        result["symbolic"] = {
            "is_zero": sym.is_zero,
            "degeneracy_locus": to_text(sym.degeneracy_locus),
        }
    else:
        checks.append(_check("symbolic_involutivity", True, "skipped (enable with --symbolic)"))

    # stage 4: numerology and line combinatorics
    lines = pencil.enumerate_lines()
    anticanonical = pencil.anticanonical_class()
    found = set()
    for d in range(-2, 3):
        for m in itertools.product((-1, 0, 1), repeat=5):
            candidate = pencil.DivisorClass(d, m)
            if candidate.self_intersection() == -1 and candidate.dot(anticanonical) == 1:
                found.add((d, m))
    checks.append(
        _check(
            "sixteen_lines_lattice_search",
            found == {(l.d, l.m) for l in lines} and len(lines) == 16,
            "exhaustive search over the small lattice box",
        )
    )
    partition_ok = True
    fibrations = pencil.conic_fibrations()
    for i in range(1, 6):
        used = [c for f in fibrations if f.i == i for pair in f.singular_fibers for c in pair]
        partition_ok = partition_ok and sorted((c.d, c.m) for c in used) == sorted((c.d, c.m) for c in lines)
    checks.append(
        _check(
            "numerology",
            _numerology_holds(pencil.zeta_numerology()) and all(pencil.vmrt_class_sum(i) for i in range(1, 6)),
            "tautological-class intersection numbers",
        )
    )
    checks.append(_check("fibration_partitions", partition_ok, "each index splits the 16 lines 8 + 8"))

    # stage 5: special directions and reducibility
    sd, directions, tests = _reducibility(basis, config, rng)
    special = set(sd.directions)
    reducible = [red.reducible for red in tests]
    checks.append(_check("five_special_directions", len(special) == 5, str([_rat_seq(d) for d in sd.directions])))
    reducible_ok = all(red == (e in special) for e, red in zip(directions, reducible))
    checks.append(_check("reducibility_exactly_on_special", reducible_ok, "5 squares among 15 sampled directions"))
    result["special_directions"] = [_rat_seq(d) for d in sd.directions]
    result["reducibility_table"] = [{"direction": _rat_seq(e), "reducible": red} for e, red in zip(directions, reducible)]

    # stage 6: fiber statuses
    nodes = [(i, w.node) for i, group in enumerate(sd.witnesses, start=1) for w in group]
    grid_ok = True
    for (i, node), (k, d) in itertools.product(nodes, enumerate(sd.directions, start=1)):
        rep = levels.fiber_count(basis, d, node)
        if (rep.status is levels.FiberStatus.WHOLE_LINE) != (i == k):
            grid_ok = False
    generic_ok = True
    for x0, e in _generic_samples(basis, rng, 50):
        if not _four_points(levels.fiber_count(basis, e, x0)):
            generic_ok = False
    checks.append(_check("fiber_generic_grid", generic_ok, "50 generic samples, four points each"))
    checks.append(
        _check(
            "node_grid_biconditional",
            grid_ok,
            f"whole_line exactly on matching pairs over {len(nodes)} x 5 cells",
        )
    )

    # stage 7: dictionary and ambient branch model
    match = _mobius_match(sd, theta)
    if match is not None:
        result["dictionary"] = {"matching": list(match["permutation"])}
    dict_ok = match is not None and _mobius_maps_every_direction(match, sd, theta)
    checks.append(_check("dictionary_mobius", dict_ok, "exact Moebius matching"))
    theta6 = next(Fraction(k) for k in range(3, 100) if Fraction(k) not in [Fraction(t) for t in theta])
    ranks = levels.branch_model_ranks(theta, theta6)
    checks.append(
        _check(
            "branch_curve_on_surface",
            ranks["branch_curve_on_surface"] and ranks["rank_branch_triple"] == 3,
            str(ranks),
        )
    )

    if args.tangency:
        generic = next((red for e, red in zip(directions, tests) if not red.reducible and e not in special), None)
        tangency_ok = generic is not None and _line_tangencies(basis, generic.discriminant)[0]
        checks.append(_check("line_tangencies", tangency_ok, "repeated root on each of the 10 joins"))
    else:
        checks.append(_check("line_tangencies", True, "skipped (enable with --tangency)"))

    return checks, result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class Verb(NamedTuple):
    """A CLI verb: its handler, its help text, its own ``store_true`` flags with theirs, and whether it needs theta."""

    handler: Callable[[dict, argparse.Namespace], tuple[list[dict], dict]]
    help: str
    flags: tuple[tuple[str, str], ...] = ()
    theta_only: bool = False


# Every verb, in the order `--help` lists them.
VERBS = {
    "sections": Verb(
        cmd_sections, "constraint system and kernel basis", (("--plane-only", "only the 18 plane rows (dimension 27)"),)
    ),
    "verify": Verb(cmd_verify, "involutivity certificate", (("--symbolic", "add the symbolic (a, b) tier"),)),
    "pencil": Verb(cmd_pencil, "characteristic polynomial and line classes", theta_only=True),
    "probe": Verb(cmd_probe, "fiber statuses and discriminants", (("--tangency", "add the line-tangency tier"),)),
    "special-directions": Verb(cmd_special_directions, "node witnesses and reducibility table"),
    "dictionary": Verb(cmd_dictionary, "match directions to singular parameters", theta_only=True),
    "pipeline": Verb(
        cmd_pipeline, "run the full verification pipeline",
        (("--symbolic", "include the symbolic tier"), ("--tangency", "include the tangency tier")), theta_only=True
    ),
}


def build_parser(verbs: Sequence[str] = tuple(VERBS)) -> argparse.ArgumentParser:
    """The parser for the named verbs: all of them for ``--help`` and for usage errors, else one."""
    parser = argparse.ArgumentParser(
        prog="dp4lag",
        description="Exact verification toolkit for the cotangent Lagrangian fibration "
        "of a degree-4 del Pezzo surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in verbs:
        verb_parser = sub.add_parser(name, help=VERBS[name].help)
        verb_parser.add_argument(
            "--config", help="JSON config file (theta | points | ab); default is the canonical theta fixture"
        )
        verb_parser.add_argument("--seed", type=int, default=0, help="seed for randomized redundant checks")
        verb_parser.add_argument("--out", help="also write the JSON report to this path")
        for flag, text in VERBS[name].flags:
            verb_parser.add_argument(flag, action="store_true", help=text)
    return parser


@functools.cache
def _verb_parser(name: str, help_text: str, flags: tuple[tuple[str, str], ...]) -> argparse.ArgumentParser:
    """The parser holding only the named verb's subparser, built once per process.

    It is keyed on everything `build_parser` reads of the verb, so a verb
    whose help or flags change gets a parser of its own.
    """
    return build_parser([name])


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``argv`` parsed by a parser holding only its verb's subparser.

    Without a known verb first, or with arguments that verb does not take,
    the full parser parses instead, so help, usage and errors read as they
    always have.  Each parse returns a new namespace, so no flag outlives
    its run.
    """
    if argv[:1] and argv[0] in VERBS:
        verb = VERBS[argv[0]]
        args, unknown = _verb_parser(argv[0], verb.help, verb.flags).parse_known_args(argv)
        if not unknown:
            return args
    return build_parser().parse_args(argv)


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the values a report holds.

    Those are dicts with str keys, lists, str, int, bool and None; any other
    type raises `TypeError`.  ``indent`` is the newline and indentation that
    precede the value's closing bracket.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is not list and kind is not dict:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "[]" if kind is list else "{}"
    inner = indent + "  "
    if kind is list:
        items = [_dumps(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if any(type(k) is not str for k in value):
        raise TypeError("keys must be str")
    items = [encode_basestring_ascii(k) + ": " + _dumps(value[k], inner) for k in sorted(value)]
    return "{" + inner + ("," + inner).join(items) + indent + "}"


def _json_text(value) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it.

    `_dumps` writes it; a type `_dumps` does not take goes to ``json.dumps``
    itself, so such a value still gives the stdlib's bytes or its error.
    """
    try:
        return _dumps(value)
    except TypeError:
        return json.dumps(value, indent=2, sort_keys=True)


def _print_error(exit_code: int, error: dict) -> int:
    print(_json_text({**error, "exit_code": exit_code}))
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    verb = VERBS[args.command]
    try:
        cfg = load_config(args.config)
        if verb.theta_only and "theta" not in cfg:
            raise InputError(f"the {args.command} verb needs the theta input form")
        checks, result = verb.handler(cfg, args)
    except (InputError, ConfigError, PencilError) as exc:
        return _print_error(EXIT_BAD_INPUT, {"error": str(exc)})
    except (SectionSpaceError, levels.LevelsError, ArithmeticError) as exc:
        # an internal check of the computation failed on a validated
        # configuration (a kernel of the wrong dimension is one): a verdict,
        # not a crash
        return _print_error(EXIT_CHECK_FAILED, {"command": args.command, "error": f"{type(exc).__name__}: {exc}"})
    report = _report(args.command, cfg, args.seed, checks, result)
    payload = _json_text(report) + "\n"
    if args.out:
        # written before stdout, so an unwritable path prints no report
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            return _print_error(EXIT_BAD_INPUT, {"error": f"cannot write report file: {exc}"})
    sys.stdout.write(payload)
    return EXIT_PASS if report["overall_pass"] else EXIT_CHECK_FAILED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
