#!/usr/bin/env python3
"""dp4lag benchmark: time to certify configurations, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload config-sweep --seed 1 --seconds 25 --trace 0

The benchmark generates the workload's seeded inputs (perfbench/inputs.py),
writes them as ``--config`` files in a scratch directory of the checkout and
drives ``dp4lag.cli.main`` in this process: one thread, a closed loop with one
client, so the next configuration starts only when the previous report has
been written.  A configuration is certified when every verb of its workload
exits 0 with ``overall_pass: true``, prints no traceback and its report
carries the paper's claims (checked here, independently of the program).

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` comes from
SETUP_SAMPLES set-ups spread evenly over the run, each in a fresh process of
this script (``--setup-only``) timed from its start until it is ready for the
first timed call, and scaled by the reference time that process measures
right after (see reference_work).  ``--trace 1`` runs every
configuration twice, untraced and then with the public functions of each
module wrapped from outside (perfbench/tracer.py), checks that both runs
print the same report bytes, and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import inputs
from tracer import Stat, Target, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "dp4lag"

# Fresh-process set-ups per run; setup_s is the median of their scaled times.
# One set-up takes 0.3 to 0.7 s on the gated workloads (2.8 s on pipeline-full).
SETUP_SAMPLES = 11
SETUP_REFERENCE_REPEATS = 20
# The reference time that setup_s is scaled to: about its median on the
# 2-vCPU Xeon host of perfbench/baseline.json, where setup_s is then close to
# plain wall time.
NOMINAL_REFERENCE_S = 0.0025
# Every run completes at least this many timed configurations, and the
# report digest covers exactly them, so runs of one seed compare across commits.
DIGEST_CONFIGS = 3
# Timed inputs generated per second of run: 2.5 to 20 times today's rates,
# so the job list is not reused within a run.
JOBS_PER_SECOND = 50
TAIL_BEYOND = 10

DIMENSION_PROFILE = [27, 20, 14, 9, 5, 2]

VERBS = ("sections", "verify", "pencil", "probe", "special-directions", "dictionary", "pipeline")
FUNCTIONS = (
    "sections.assemble_system",
    "sections.kernel_basis",
    "sections.section_space_dimension",
    "sections.chart_transport_check",
    "linalg.kernel",
    "linalg.rref",
    "linalg.rank",
    "linalg.det",
    "linalg.mpoly_kernel",
    "linalg.mpoly_det",
    "symplectic.poisson_R",
    "symplectic.hamiltonian_frame",
    "symplectic.involutivity_certificate",
    "symplectic.symbolic_involutivity",
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
    "levels.branch_model_ranks",
    "pencil.standard_dp4_quadrics",
    "pencil.characteristic_polynomial",
    "pencil.singular_members",
    "pencil.member_corank",
    "pencil.match_directions_to_parameters",
)

# Called only by the pipeline verb.  They are traced and printed, but are not
# per-layer metrics: pipeline-full is not a BENCHMARK.json workload, so these
# would read 0 on every benchmarked run.
NOT_BENCHMARKED = ("cli.main.pipeline", "symplectic.symbolic_involutivity", "linalg.mpoly_kernel", "levels.branch_model_ranks")

END_TO_END_UNITS = {"setup_s": "s", "configs_per_kref": "1/kref", "config_ref_p50": "ref", "peak_rss_mb": "MB"}


def _entry_bits(extra: dict, args: tuple, result) -> None:
    bits = max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for row in args[0] for x in row),
        default=0,
    )
    extra["max_entry_bits"] = max(extra.get("max_entry_bits", 0), bits)


def _terms_out(extra: dict, args: tuple, result) -> None:
    extra["terms_out"] = extra.get("terms_out", 0) + len(getattr(result, "terms", ()))


def _accepted(extra: dict, args: tuple, result) -> None:
    extra["accepted"] = extra.get("accepted", 0) + bool(result)


OBSERVERS = {
    "linalg.kernel": _entry_bits,
    "exactpoly.MPoly.__mul__": _terms_out,
    "levels.is_generic_sample": _accepted,
}


def trace_targets() -> list[Target]:
    targets = [Target("cli.main", key=lambda args: args[0][0])]
    return targets + [Target(name, observe=OBSERVERS.get(name)) for name in FUNCTIONS]


def layer_names() -> list[str]:
    """The traced names that are per-layer metrics: one per CLI verb, then the functions."""
    return [name for name in [f"cli.main.{verb}" for verb in VERBS] + list(FUNCTIONS) if name not in NOT_BENCHMARKED]


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in output order."""
    units = {}
    for name in layer_names():
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"})
    units.update(
        {
            "linalg.kernel.calls_per_config": "calls/config",
            "sections.kernel_basis.calls_per_config": "calls/config",
            "levels.is_generic_sample.accept_ratio": "ratio",
            "linalg.kernel.max_entry_bits": "bits",
            "exactpoly.MPoly.__mul__.terms_out": "count",
            "trace_overhead_ratio": "ratio",
        }
    )
    return units


# ---------------------------------------------------------------------------
# Running the program
# ---------------------------------------------------------------------------


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no program, or a foreign one)."""


def load_program():
    """Import dp4lag from this checkout and return its cli module."""
    importlib.import_module(PACKAGE)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported {cli.__file__}, not the checkout's {SRC}")
    return cli


@dataclass
class Outcome:
    wall_s: float
    failure: str | None
    report: bytes


def _claims_hold(verb: str, result: dict, config: dict) -> bool:
    """The paper's claims that a passing report of this verb must carry."""
    if verb == "sections":
        return result["kernel_dimension"] == 2 and result["dimension_profile"] == DIMENSION_PROFILE
    if verb == "verify":
        return result["is_zero"] is True and result["R"] == "0"
    if verb == "pencil":
        roots = sorted(Fraction(m["theta"]) for m in result["singular_members"])
        coranks = {m["corank"] for m in result["singular_members"]}
        return roots == sorted(Fraction(t) for t in config["theta"]) and coranks == {1}
    if verb == "probe":
        return all(f["status"] == "four_points" for f in result["fibers"]) and len(result["tangency"]) == 10
    if verb == "special-directions":
        table = result["reducibility_table"]
        return (
            len({tuple(d) for d in result["directions"]}) == 5
            and sum(e["reducible"] for e in table) == 5
            and all(e["reducible"] == e["special"] for e in table)
        )
    if verb == "dictionary":
        return sorted(result["matching"]) == [0, 1, 2, 3, 4]
    if verb == "pipeline":
        roots = sorted(Fraction(p[1]) / Fraction(p[0]) for p in result["pencil"]["singular_parameters"])
        return (
            result["sections"]["dimension_profile"] == DIMENSION_PROFILE
            and result["symbolic"]["is_zero"] is True
            and len(result["special_directions"]) == 5
            and roots == sorted(Fraction(t) for t in config["theta"])
        )
    return False


def judge(verb: tuple[str, ...], config: dict, code, out: str, err: str) -> str | None:
    """Why this verb's run does not certify the configuration, or None."""
    if code is None:
        return f"{verb[0]}: raised an exception"
    if code != 0:
        return f"{verb[0]}: exit {code}"
    if "Traceback" in err:
        return f"{verb[0]}: traceback on stderr"
    try:
        report = json.loads(out)
        echo = {k: [Fraction(x) for x in v] for k, v in report["config"].items()}
        if echo != {k: [Fraction(x) for x in v] for k, v in config.items()}:
            return f"{verb[0]}: config echo differs from the input"
        if report["command"] != verb[0] or report["overall_pass"] is not True:
            failed = [c["name"] for c in report["checks"] if not c["pass"]]
            return f"{verb[0]}: overall_pass false, failed checks {failed}"
        if not _claims_hold(verb[0], report["result"], config):
            return f"{verb[0]}: report does not carry the paper's claims"
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"{verb[0]}: malformed report ({exc!r})"
    return None


def certify(cli, job: inputs.Job, config_path: str) -> Outcome:
    """Run every verb of one job in-process; time them, then judge the reports."""
    runs = []
    start = time.perf_counter()
    for verb in job.verbs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*verb, "--config", config_path, "--seed", str(job.seed)])
        except (Exception, SystemExit):
            code = None
            err.write(traceback.format_exc())
        runs.append((verb, code, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - start
    failure = next(
        (why for why in (judge(verb, job.config, code, out, err) for verb, code, out, err in runs) if why), None
    )
    return Outcome(wall, failure, "".join(out for _, _, out, _ in runs).encode())


def config_file(job: inputs.Job, name: str, workdir: Path) -> str:
    """The --config file of a job, written on first use."""
    path = workdir / f"{name}.json"
    if not path.exists():
        path.write_text(json.dumps(job.config), encoding="utf-8")
    return str(path)


def set_up(workload: str, seed: int, seconds: int, workdir: Path):
    """Import the program, generate the inputs and certify one untimed warm-up."""
    cli = load_program()
    warmup, jobs = inputs.make_jobs(workload, seed, max(DIGEST_CONFIGS, seconds * JOBS_PER_SECOND))
    warm = certify(cli, warmup, config_file(warmup, "warmup", workdir))
    return cli, jobs, warm


def timed_setup(workload: str, seed: int, seconds: int, workdir: Path) -> tuple[float, float]:
    """Set up in a fresh process of this script.

    Returns the seconds from starting it until its set-up is done, and the
    median time of reference_work that the process measured right after.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--setup-only", str(workdir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SetupError(f"set-up process exited {proc.returncode}: {(line + rest).strip()}")
    return elapsed, float(rest)


def setup_only(workload: str, seed: int, seconds: int, workdir: Path) -> int:
    """Body of a --setup-only process: set up, then say ready."""
    with tempfile.TemporaryDirectory(prefix="setup-", dir=workdir) as own:
        _, _, warm = set_up(workload, seed, seconds, Path(own))
        print("ready" if warm.failure is None else f"warm-up configuration failed: {warm.failure}", flush=True)
    refs = []
    for _ in range(SETUP_REFERENCE_REPEATS):
        ref_start = time.perf_counter()
        reference_work()
        refs.append(time.perf_counter() - ref_start)
    print(statistics.median(refs))
    return 0 if warm.failure is None else 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def reference_work() -> None:
    """A fixed computation timed right after every configuration.

    On a shared host the machine's speed swings by tens of percent over
    seconds to minutes, and the program's time swings with it.  This kernel
    does the kind of arithmetic the program does (Fraction products summed
    into a dict keyed by exponent tuples, integer elimination steps) but runs
    none of the program's code, so a change to the program cannot move it.
    Configuration times divided by its time are the gated metrics.
    """
    rng = random.Random(0)
    poly = {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for i in range(6) for j in range(6 - i)}
    product: dict = {}
    for (a, b), c in poly.items():
        for (d, e), f in poly.items():
            product[a + d, b + e] = product.get((a + d, b + e), 0) + c * f
    m = [[rng.randint(-50, 50) for _ in range(9)] for _ in range(9)]
    prev = 1
    for k in range(8):
        for i in range(k + 1, 9):
            for j in range(k + 1, 9):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k] or 1


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples beyond it."""
    if len(samples) <= TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def layer_metrics(tracer: Tracer, configs: int, overhead: float) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in layer_names():
        stat = tracer.stats.get(name, Stat())
        values.update({f"{name}.calls": stat.calls, f"{name}.total_s": stat.total_s, f"{name}.self_s": stat.self_s})
    kernel = tracer.stats.get("linalg.kernel", Stat())
    generic = tracer.stats.get("levels.is_generic_sample", Stat())
    mul = tracer.stats.get("exactpoly.MPoly.__mul__", Stat())
    values.update(
        {
            "linalg.kernel.calls_per_config": kernel.calls / configs,
            "sections.kernel_basis.calls_per_config": values["sections.kernel_basis.calls"] / configs,
            "levels.is_generic_sample.accept_ratio": generic.extra.get("accepted", 0) / generic.calls if generic.calls else 0.0,
            "linalg.kernel.max_entry_bits": kernel.extra.get("max_entry_bits", 0),
            "exactpoly.MPoly.__mul__.terms_out": mul.extra.get("terms_out", 0),
            "trace_overhead_ratio": overhead,
        }
    )
    return values


def self_by_layer(tracer: Tracer) -> dict[str, float]:
    """Self seconds per layer (module), summed over every traced function."""
    by_layer: dict[str, float] = {}
    for name, stat in tracer.stats.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + stat.self_s
    return by_layer


def print_layers(tracer: Tracer) -> None:
    by_layer = self_by_layer(tracer)
    print("layer_self_s " + json.dumps(by_layer))
    total = sum(by_layer.values()) or 1.0
    for layer, self_s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"layer {layer:<11} self {self_s:9.4f} s  {100 * self_s / total:5.1f}%")
    for name, stat in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        if stat.calls:
            print(f"  {name:<40} calls {stat.calls:8d}  total {stat.total_s:9.4f} s  self {stat.self_s:9.4f} s")
    if tracer.absent:
        print("absent functions: " + ", ".join(tracer.absent))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, traced: bool, workdir: Path) -> tuple[bool, int, int, dict]:
    cli, jobs, warm = set_up(workload, seed, seconds, workdir)
    own_setup_s = time.perf_counter() - PROCESS_START
    correct = warm.failure is None
    if not correct:
        print(f"warm-up configuration failed: {warm.failure}")

    tracer = Tracer(PACKAGE, trace_targets()) if traced else None
    walls: list[float] = []
    refs: list[float] = []
    setups: list[float] = []
    traced_s = untraced_s = 0.0
    failed = 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < DIGEST_CONFIGS or time.perf_counter() < deadline:
        if not traced and len(setups) < SETUP_SAMPLES and time.perf_counter() >= start + len(setups) * seconds / SETUP_SAMPLES:
            setups.append(timed_setup(workload, seed, seconds, workdir))
            continue
        job = jobs[i % len(jobs)]
        path = config_file(job, f"config-{i % len(jobs)}", workdir)
        outcome = certify(cli, job, path)
        walls.append(outcome.wall_s)
        ref_start = time.perf_counter()
        reference_work()
        refs.append(time.perf_counter() - ref_start)
        failure = outcome.failure
        if tracer is not None:
            with tracer.installed():
                traced_outcome = certify(cli, job, path)
            untraced_s += outcome.wall_s
            traced_s += traced_outcome.wall_s
            if traced_outcome.report != outcome.report:
                failure = failure or "traced run printed different report bytes"
            failure = failure or traced_outcome.failure
            outcome = traced_outcome
        if failure is not None:
            failed += 1
            print(f"FAILED configuration {i} {json.dumps(job.config)} seed {job.seed}: {failure}")
        if i < DIGEST_CONFIGS:
            digest.update(outcome.report)
        i += 1
    correct = correct and failed == 0

    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(traced)}")
    if i > len(jobs):
        print(f"note: the {len(jobs)} generated jobs were reused; raise JOBS_PER_SECOND")
    print(f"report_sha256 {digest.hexdigest()} (first {DIGEST_CONFIGS} configurations)")
    print(f"fail_ratio {failed / i:.4f} ({failed}/{i})")
    if tracer is not None:
        print_layers(tracer)
        return correct, i, failed, {
            name: (value, per_layer_units()[name])
            for name, value in layer_metrics(tracer, i, traced_s / untraced_s).items()
        }

    while len(setups) < SETUP_SAMPLES:
        setups.append(timed_setup(workload, seed, seconds, workdir))
    metrics = {
        "setup_s": statistics.median(wall * NOMINAL_REFERENCE_S / ref for wall, ref in setups),
        "configs_per_kref": 1000 * (i - failed) * statistics.fmean(refs) / sum(walls),
        "config_ref_p50": statistics.median(wall / ref for wall, ref in zip(walls, refs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"setup_s {metrics['setup_s']:.4f} s at the nominal reference time")
    print(f"setup_wall_s {statistics.median(w for w, _ in setups):.4f} s (median of {', '.join(f'{w:.4f}' for w, _ in setups)}; this process {own_setup_s:.4f})")
    print(f"configs_per_s {(i - failed) / sum(walls):.4f} 1/s ({i - failed} certified in {sum(walls):.3f} s of certify time, one client)")
    print(f"config_s_p50 {statistics.median(walls):.4f} s")
    t = tail(walls)
    if t is None:
        print(f"config_s_tail n/a ({len(walls)} samples, needs more than {TAIL_BEYOND})")
    else:
        print(f"config_s_tail {t[0]:.4f} s (p{t[1]:.1f}, n={len(walls)}, {TAIL_BEYOND} beyond)")
    print(f"reference {1000 * statistics.median(refs):.3f} ms (median of {len(refs)})")
    print(f"configs_per_kref {metrics['configs_per_kref']:.4f} per 1000 reference times")
    print(f"config_ref_p50 {metrics['config_ref_p50']:.3f} reference times")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    return correct, i, failed, {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} package under {SRC}; run from the root of a dp4lag checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_only(args.workload, args.seed, args.seconds, args.setup_only)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        correct, attempted, failed, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
