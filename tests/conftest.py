import random
from fractions import Fraction

import pytest
from hypothesis import settings

from dp4lag import PointConfig, assemble_system, kernel_basis
from dp4lag.exactpoly import MPoly
from dp4lag.levels import special_directions

THETA = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))

# `pytest --hypothesis-profile=deep` runs the oracle comparisons that size
# their examples with `scaled` ten times as long.
settings.register_profile("deep", max_examples=1000, deadline=None)


def scaled(n):
    """``n`` examples under the default profile, ``n`` times the active profile's max_examples / 100 under another."""
    return n * settings.default.max_examples // 100


@pytest.fixture(scope="session")
def fixture_config():
    return PointConfig.from_theta(THETA)


@pytest.fixture(scope="session")
def fixture_basis(fixture_config):
    return kernel_basis(assemble_system(fixture_config), fixture_config)


@pytest.fixture(scope="session")
def fixture_directions(fixture_basis, fixture_config):
    return special_directions(fixture_basis, fixture_config)


def random_general_configs(count, seed=7, span=12):
    """Deterministic stream of general-position configurations."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = Fraction(rng.randint(-span, span), rng.randint(1, 6))
        b = Fraction(rng.randint(-span, span), rng.randint(1, 6))
        try:
            out.append(PointConfig.from_ab(a, b))
        except ValueError:
            continue
    return out


@pytest.fixture
def polynomial_arithmetic(monkeypatch):
    """The name of each `MPoly` product, power and sum made during the test, in order."""
    calls = []
    for name in ("__mul__", "__rmul__", "__pow__", "_combine"):
        real = getattr(MPoly, name)
        monkeypatch.setattr(MPoly, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    return calls
