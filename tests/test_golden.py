"""Every verb's report is byte-identical to its committed golden file.

Each file under ``tests/golden/`` is the exact stdout of one CLI run at seed
0: every verb on the canonical fixture and on the two theta fixtures of
``tests/golden/configs/``, plus the optional tiers on the canonical fixture
and the tangency tier on the theta-infinity fixture.
A change meant to alter a report regenerates its file from the repository
root with the case's arguments and ``--out``, for example

    PYTHONPATH=src python -m dp4lag.cli pipeline \\
        --config tests/golden/configs/theta-1-5.json \\
        --out tests/golden/pipeline.theta-1-5.json

(the canonical fixture takes no ``--config``; see `CASES` for every name).
"""

from pathlib import Path

import pytest

from dp4lag import cli

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = ("canonical", "theta-1-5", "theta-mixed")
VERBS = ("sections", "verify", "pencil", "probe", "special-directions", "dictionary", "pipeline")
CANONICAL_TIERS = (
    ("sections", "--plane-only"),
    ("verify", "--symbolic"),
    ("probe", "--tangency"),
    ("pipeline", "--symbolic", "--tangency"),
)


def _case(argv: tuple[str, ...], fixture: str) -> tuple[str, list[str]]:
    name = "-".join(a.lstrip("-") for a in argv) + f".{fixture}"
    config = [] if fixture == "canonical" else ["--config", str(GOLDEN / "configs" / f"{fixture}.json")]
    return name, [*argv, *config]


CASES = dict(
    [_case((verb,), fixture) for fixture in FIXTURES for verb in VERBS]
    + [_case(argv, "canonical") for argv in CANONICAL_TIERS]
    # a join of this theta meets the branch curve twice at infinity
    + [_case(("probe", "--tangency"), "theta-infinity")]
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    code = cli.main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
