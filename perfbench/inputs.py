"""Seeded inputs for the perfbench workloads, made without the program.

A workload is a list of jobs.  A job is one configuration (the JSON object a
``--config`` file holds), the CLI verbs that certify it, and the ``--seed``
they get.  The generator knows only the config schema: it draws rationals
with ``random.Random`` and rejects the draws the schema itself rules out
(collinear points, repeated theta), so a failure in a timed run is always the
program's.  The same workload and seed give the same jobs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

CANONICAL_THETA = ("0", "1", "-1", "2", "-2")
# The canonical fixture and the two fixtures of tests/test_integration.py.
PIPELINE_FIXTURES = (
    CANONICAL_THETA,
    ("1", "2", "3", "4", "5"),
    ("0", "1/3", "-1/2", "2", "7"),
)
# Affine images of the four fixed frame points (1:0:0), (1:1:0), (1:0:1),
# (1:1:-1) that an ``ab`` config completes with (1:a:b).
AB_FRAME = tuple((Fraction(x), Fraction(y)) for x, y in ((0, 0), (1, 0), (0, 1), (1, -1)))
# pencil-height cycles through these bit heights: numerators in
# [-2^b, 2^b], denominators in [1, 2^b].  3 bits is about the pipeline's own
# small range.  At 6 bits single draws take up to a second, and over 10 seeds
# of 25 s runs the spread of configs_per_s was 0.34, so 5 bits is the top.
PENCIL_HEIGHT_BITS = (3, 4, 5)


@dataclass(frozen=True)
class Job:
    config: dict
    verbs: tuple[tuple[str, ...], ...]
    seed: int


def general_position(points) -> bool:
    """No three of the affine points collinear (which also rules out repeats)."""
    for p, q, r in itertools.combinations(points, 3):
        if (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) == 0:
            return False
    return True


def draw_ab(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A fifth point (a, b) in general position with the fixed frame."""
    while True:
        ab = (Fraction(rng.randint(-12, 12), rng.randint(1, 6)), Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
        if general_position(AB_FRAME + (ab,)):
            return ab


def draw_theta(rng: random.Random, num_bound: int, den_bound: int) -> list[Fraction]:
    """Five distinct rationals p/q with |p| <= num_bound and 1 <= q <= den_bound."""
    theta: list[Fraction] = []
    while len(theta) < 5:
        t = Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        if t not in theta:
            theta.append(t)
    return theta


def _pipeline_full(rng: random.Random, i: int) -> Job:
    theta = PIPELINE_FIXTURES[i % len(PIPELINE_FIXTURES)]
    return Job({"theta": list(theta)}, (("pipeline", "--symbolic", "--tangency"),), rng.randrange(2**31))


def _config_sweep(rng: random.Random, i: int) -> Job:
    a, b = draw_ab(rng)
    return Job({"ab": [str(a), str(b)]}, (("sections",), ("verify",)), rng.randrange(2**31))


def _geometry_probe(rng: random.Random, i: int) -> Job:
    theta = draw_theta(rng, 10, 4)
    verbs = (("probe", "--tangency"), ("special-directions",), ("dictionary",))
    return Job({"theta": [str(t) for t in theta]}, verbs, rng.randrange(2**31))


def _pencil_height(rng: random.Random, i: int) -> Job:
    bound = 2 ** PENCIL_HEIGHT_BITS[i % len(PENCIL_HEIGHT_BITS)]
    theta = draw_theta(rng, bound, bound)
    return Job({"theta": [str(t) for t in theta]}, (("pencil",),), rng.randrange(2**31))


WORKLOADS = {
    "pipeline-full": _pipeline_full,
    "config-sweep": _config_sweep,
    "geometry-probe": _geometry_probe,
    "pencil-height": _pencil_height,
}


def make_jobs(workload: str, seed: int, count: int) -> tuple[Job, list[Job]]:
    """The untimed warm-up job and ``count`` timed jobs of a workload.

    The warm-up job is the same for every seed, so the set-up time does not
    depend on which configuration the seed happens to draw first.
    """
    draw = WORKLOADS[workload]
    warmup = draw(random.Random(f"{workload}:warmup"), 0)
    rng = random.Random(f"{workload}:{seed}")
    return warmup, [draw(rng, i) for i in range(count)]
