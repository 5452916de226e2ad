"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import inputs
import run
from tracer import Target, Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Where each traced function must be found and called: the workload the
# prediction table says it dominates, else the workload whose path runs it.
EXPECTED_CALLS = {
    "config-sweep": [
        "cli.main.sections",
        "cli.main.verify",
        "sections.assemble_system",
        "sections.kernel_basis",
        "sections.section_space_dimension",
        "sections.chart_transport_check",
        "linalg.kernel",
        "linalg.rref",
        "linalg.det",
        "symplectic.poisson_R",
        "symplectic.hamiltonian_frame",
        "symplectic.involutivity_certificate",
    ],
    "pipeline-full": [
        "cli.main.pipeline",
        "exactpoly.MPoly.__mul__",
        "symplectic.symbolic_involutivity",
        "linalg.mpoly_kernel",
        "levels.branch_model_ranks",
    ],
    "geometry-probe": [
        "cli.main.probe",
        "cli.main.special-directions",
        "cli.main.dictionary",
        "exactpoly.MPoly.__mul__",
        "exactpoly.perfect_square_test",
        "exactpoly.univariate_gcd",
        "exactpoly.poly_substitute_linear",
        "levels.fiber_count",
        "levels.is_generic_sample",
        "levels.chart_base_curves",
        "levels.chart_discriminant",
        "levels.reducibility_test",
        "levels.line_tangency_check",
        "levels.special_directions",
        "pencil.match_directions_to_parameters",
    ],
    "pencil-height": [
        "cli.main.pencil",
        "linalg.rank",
        "linalg.mpoly_det",
        "pencil.standard_dp4_quadrics",
        "pencil.characteristic_polynomial",
        "pencil.singular_members",
        "pencil.member_corank",
    ],
}


def test_benchmark_json_names_what_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w for w in inputs.WORKLOADS if w != "pipeline-full"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


def test_expected_calls_cover_every_traced_function():
    listed = {name for names in EXPECTED_CALLS.values() for name in names}
    assert listed == set(run.FUNCTIONS) | {f"cli.main.{verb}" for verb in run.VERBS}
    # Every per-layer metric is nonzero on some workload of BENCHMARK.json.
    benchmarked = {name for w in BENCHMARK["workloads"] for name in EXPECTED_CALLS[w["name"]]}
    assert set(run.layer_names()) <= benchmarked


def test_inputs_are_seeded_and_valid():
    for workload in inputs.WORKLOADS:
        assert inputs.make_jobs(workload, 7, 20) == inputs.make_jobs(workload, 7, 20)
        assert inputs.make_jobs(workload, 7, 1)[0] == inputs.make_jobs(workload, 8, 1)[0]
    assert inputs.make_jobs("config-sweep", 7, 20) != inputs.make_jobs("config-sweep", 8, 20)
    _, jobs = inputs.make_jobs("config-sweep", 3, 200)
    for job in jobs:
        ab = tuple(Fraction(c) for c in job.config["ab"])
        assert inputs.general_position(inputs.AB_FRAME + (ab,))
    _, jobs = inputs.make_jobs("pencil-height", 3, 40)
    for i, job in enumerate(jobs):
        theta = [Fraction(t) for t in job.config["theta"]]
        bound = 2 ** inputs.PENCIL_HEIGHT_BITS[i % len(inputs.PENCIL_HEIGHT_BITS)]
        assert len(set(theta)) == 5
        assert all(abs(t.numerator) <= bound and t.denominator <= bound for t in theta)


@pytest.mark.parametrize("ab", [(0, 5), (3, 0), (1, 7), (2, -2), (1, -1), (-1, 1)])
def test_general_position_rejects_collinear_fifth_points(ab):
    assert not inputs.general_position(inputs.AB_FRAME + (tuple(map(Fraction, ab)),))


def _toy_package():
    """toy.a defines f (calling g) and a class with __mul__ = __rmul__; toy.b imports f by name."""
    a = types.ModuleType("toy.a")
    exec(
        "import time\n"
        "def g():\n    time.sleep(0.02)\n    return 1\n"
        "def f():\n    time.sleep(0.01)\n    return g() + 1\n"
        "class P:\n    def __mul__(self, other):\n        return 2\n    __rmul__ = __mul__\n",
        a.__dict__,
    )
    b = types.ModuleType("toy.b")
    b.f = a.f
    return {"toy": types.ModuleType("toy"), "toy.a": a, "toy.b": b}


def test_tracer_patches_every_binding_and_splits_self_time(monkeypatch):
    modules = _toy_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    a, b = modules["toy.a"], modules["toy.b"]
    original_f = a.f
    seen = []
    tracer = Tracer("toy", [Target("a.f"), Target("a.g"), Target("a.P.__mul__", observe=lambda e, args, r: seen.append(r)), Target("a.gone")])
    with tracer.installed():
        assert b.f() == 2 and a.f() == 2
        assert a.P() * 3 == 2 and 3 * a.P() == 2
    assert a.f is original_f and b.f is original_f
    assert tracer.absent == ["a.gone"]
    f, g = tracer.stats["a.f"], tracer.stats["a.g"]
    assert (f.calls, g.calls) == (2, 2)
    assert tracer.stats["a.P.__mul__"].calls == 2 and seen == [2, 2]
    assert f.self_s == pytest.approx(f.total_s - g.total_s, abs=1e-6)
    assert 0.015 < f.self_s < g.self_s


def test_correctness_gate_counts_program_failures(tmp_path):
    job = inputs.Job({"theta": list(inputs.CANONICAL_THETA)}, (("pencil",),), 0)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(job.config))

    def fake(main):
        return types.SimpleNamespace(main=main)

    def raises(argv):
        raise ArithmeticError("boom")

    def fails(argv):
        print(json.dumps({"command": "pencil", "config": job.config, "overall_pass": False,
                          "checks": [{"name": "singular_coranks", "pass": False}], "result": {}}))
        return 1

    assert "raised an exception" in run.certify(fake(raises), job, str(path)).failure
    assert "exit 1" in run.certify(fake(fails), job, str(path)).failure
    assert run.judge(("pencil",), job.config, 0, "not json", "") is not None


@pytest.fixture(scope="module")
def program():
    sys.path.insert(0, str(run.SRC))
    return run.load_program()


@pytest.mark.parametrize("workload", list(EXPECTED_CALLS))
def test_every_traced_function_is_found_and_called(workload, program, tmp_path):
    tracer = Tracer(run.PACKAGE, run.trace_targets())
    _, jobs = inputs.make_jobs(workload, 1, 4)
    jobs = jobs[:1] if workload == "pipeline-full" else jobs
    with tracer.installed():
        for i, job in enumerate(jobs):
            assert run.certify(program, job, run.config_file(job, str(i), tmp_path)).failure is None
    assert tracer.absent == []
    uncalled = [name for name in EXPECTED_CALLS[workload] if tracer.stats.get(name) is None or tracer.stats[name].calls == 0]
    assert uncalled == []


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["config-sweep", "pencil-height"])
def test_traced_run_prints_the_same_digest(workload):
    runs = [_bench(ROOT, workload, trace) for trace in (0, 1)]
    digests = []
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0
        digests.append(next(line for line in proc.stdout.splitlines() if line.startswith("report_sha256")))
    assert digests[0] == digests[1]
    assert set(json.loads(runs[1].stdout.splitlines()[-1])["metrics"]) == set(run.per_layer_units())
    layers = next(line for line in runs[1].stdout.splitlines() if line.startswith("layer_self_s "))
    assert set(json.loads(layers.split(" ", 1)[1])) <= {"cli", "sections", "linalg", "symplectic", "exactpoly", "levels", "pencil"}


def test_checkout_without_the_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "config-sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
