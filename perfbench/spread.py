#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads pencil-height --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --record perfbench/baseline.json

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints for every end-to-end metric the median and the spread
(q3 - q1) / median, with quartiles as statistics.quantiles(values, n=4) gives
them.  Each workload is also run once traced, on the first seed: its report
digest must equal the untraced one.  --record writes the environment, the
medians and quartiles, the per-seed report digests and the traced per-layer
table of the workloads run to a JSON file, replacing what it held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """The result object and the standard output lines of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    # Exit 1 with a result line is a run whose configurations failed: it is
    # recorded.  Anything else means the benchmark itself could not run.
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    for line in lines:
        if line.startswith("FAILED "):
            print(f"{workload} seed {seed} trace {trace}: {line}", flush=True)
    return json.loads(lines[-1]), lines


def field(lines: list[str], key: str) -> str:
    """The rest of the first output line that starts with ``key``."""
    return next(line[len(key) + 1 :] for line in lines if line.startswith(key + " "))


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def environment() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    models = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else platform.processor(),
        "commit_of_program": commit or "unknown",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="seed-to-seed spread of the perfbench metrics")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--record", type=Path, help="write the measured baseline to this JSON file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    record = {"environment": environment(), "run_seconds": args.seconds, "seeds": args.seeds}
    record.update(end_to_end={}, setup_wall_s={}, failed_configurations={}, report_sha256={}, traced={})
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        digests = {}
        walls = []
        failed = {}
        for seed in args.seeds:
            result, lines = run_once(workload, seed, args.seconds, 0)
            digests[seed] = field(lines, "report_sha256").split()[0]
            walls.append(float(field(lines, "setup_wall_s").split()[0]))
            failed[seed] = result["failed"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: " + "  ".join(f"{n} {e['value']:.4f}" for n, e in result["metrics"].items()), flush=True)
        traced, lines = run_once(workload, args.seeds[0], args.seconds, 1)
        traced_digest = field(lines, "report_sha256").split()[0]
        if traced_digest != digests[args.seeds[0]]:
            sys.exit(f"{workload}: traced digest {traced_digest} differs from untraced {digests[args.seeds[0]]}")
        by_layer = json.loads(field(lines, "layer_self_s"))
        layer = max(by_layer, key=by_layer.get)
        record["end_to_end"][workload] = {}
        for name, vals in values.items():
            stats = summarize(vals)
            record["end_to_end"][workload][name] = stats
            mark = "ok" if stats["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name:<14} median {stats['median']:.4f}  spread {stats['spread']:.3f}  bound {bounds[name]}  {mark}")
        record["setup_wall_s"][workload] = summarize(walls)
        print(f"  setup_wall_s   median {statistics.median(walls):.4f}  spread {summarize(walls)['spread']:.3f}  (not gated)")
        record["failed_configurations"][workload] = failed
        print(f"  failed configurations per seed: {failed}")
        overhead = traced["metrics"]["trace_overhead_ratio"]["value"]
        print(f"  traced: largest self time in {layer}, overhead ratio {overhead:.2f}, digests equal", flush=True)
        record["report_sha256"][workload] = digests
        record["traced"][workload] = {
            "seed": args.seeds[0],
            "configurations": traced["attempted"],
            "largest_self_layer": layer,
            "layer_self_s": by_layer,
            "metrics": {name: entry["value"] for name, entry in traced["metrics"].items()},
        }
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
