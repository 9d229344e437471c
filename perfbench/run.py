"""Benchmark of the catchmap CLI entry points on seeded synthetic inputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Inputs are generated from the seed before
any timing. Each measured sample runs in its own fresh interpreter, one at a
time; samples start while the ``--seconds`` window is open and each runs to
completion. Every sample's outputs are checked. Afterwards, fresh
interpreters measure set-up alone. With ``--trace 1`` untraced and traced
samples alternate, and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are the ones listed in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_sample
from inputs import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
# an invocation stops starting samples past this, to end within 180 s
DEADLINE_S = 165.0
SELF_TIME_TOLERANCE = 0.01


def spawn(mode: str, inputs, out: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode, inputs.entry,
           str(inputs.scenario or "-"), str(out), str(inputs.validate_seed)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} sample exceeded {timeout:.0f} s", "timeout": True}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{mode} sample exited {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def high_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has 10 samples beyond it"
    pct = 100 * (n - 10) // n
    cut = sorted(values)[max(0, -(-pct * n // 100) - 1)]
    return f"n={n}, p{pct}={cut:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()

    if not (ROOT / "src" / "catchmap" / "__init__.py").is_file():
        print(f"no catchmap package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    import catchmap

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = generate(args.workload, args.seed, work / "in", catchmap)
        samples, failures = [], []

        def measure(mode: str) -> dict:
            remaining = DEADLINE_S - (time.perf_counter() - began)
            out = work / "out"
            sample = spawn(mode, inputs, out, remaining)
            sample["mode"] = mode
            if "error" in sample:
                problems, quality = [sample["error"]], {}
            elif mode == "setup":
                problems, quality = [], {}
            else:
                problems, quality = check_sample(out, inputs, sample)
            layers = sample.get("layers")
            if layers is not None:
                gap = abs(layers["trace.self_sum_s"] - sample["run_s"])
                if gap > SELF_TIME_TOLERANCE * sample["run_s"] + 0.005:
                    problems.append(f"layer self times miss run_s by {gap:.4f} s")
                layers.update(quality)
            if problems:
                failures.append((mode, problems))
            shutil.rmtree(out, ignore_errors=True)
            samples.append(sample)
            return sample

        modes = ["run", "traced"] if args.trace else ["run"]
        window = time.perf_counter()
        for i in itertools.count():
            t0 = time.perf_counter()
            sample = measure(modes[i % len(modes)])
            last = time.perf_counter() - t0
            if sample.get("timeout"):
                break
            spent = time.perf_counter() - window
            if i + 1 >= len(modes) and spent + last > args.seconds:
                break
        for _ in range(SETUP_SAMPLES):
            if time.perf_counter() - began > DEADLINE_S - 10:
                break
            measure("setup")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def values(mode: str, key: str) -> list[float]:
        return [s[key] for s in samples if s["mode"] == mode and key in s]

    metrics: dict[str, list[float]] = {
        "run_s": values("run", "run_s"),
        "setup_s": values("setup", "setup_s"),
        "peak_rss_mb": values("run", "peak_rss_mb"),
    }
    if args.trace:
        traced = [s["layers"] for s in samples if "layers" in s]
        for t in traced:
            if t.get("oracles.mc_trials"):
                t["oracles.mc_accept_ratio"] = t["oracles.mc_accepted"] / t["oracles.mc_trials"]
        for entry in wanted:
            metrics.setdefault(entry["name"], [t.get(entry["name"], 0) for t in traced])
        traced_run = values("traced", "run_s")
        untraced_run = metrics["run_s"]
        if traced_run and untraced_run:
            metrics["trace.run_s"] = traced_run
            metrics["trace.untraced_run_s"] = untraced_run
            metrics["trace.overhead_s"] = [
                statistics.median(traced_run) - statistics.median(untraced_run)
            ]

    print(f"workload {args.workload} seed {args.seed}: python "
          f"{platform.python_version()}, nproc {os.cpu_count()}")
    for mode, problems in failures:
        print(f"FAILED {mode} sample: " + "; ".join(problems[:5]))
    result = {}
    for entry in wanted:
        vals = metrics.get(entry["name"], [])
        if not vals:
            print(f"no successful sample measured {entry['name']}", file=sys.stderr)
            return 1
        value = statistics.median(vals)
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:28s} {value:<14.6g} {entry['unit']:6s} "
              f"({high_percentile(vals)})")
    if args.trace:
        for key in sorted(set().union(*traced) - set(result)):
            value = statistics.median(t.get(key, 0) for t in traced)
            print(f"  {key:28s} {value:<14.6g} (not in BENCHMARK.json)")
    attempted = len(samples)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
