"""One measured sample, in a fresh interpreter so that peak memory and warm
state do not carry over between samples.

    python3 perfbench/child.py setup|run|traced <entry> <scenario> <out> <seed>

``setup`` times ``import catchmap`` plus, for scenario workloads,
``scenario.parse_scenario_file`` and ``scenario.build_augmented``. ``run``
times the CLI entry call until its files are written; ``traced`` does the same
with spans installed. Prints one JSON object.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_catchmap():
    sys.path.insert(0, str(SRC))
    import catchmap

    if Path(catchmap.__file__).resolve().parent != (SRC / "catchmap").resolve():
        raise ImportError(f"catchmap imported from {catchmap.__file__}, not {SRC}")
    return catchmap


def main(argv: list[str]) -> dict:
    mode, entry, scenario_path, out, seed = argv
    if mode == "setup":
        start = time.perf_counter()
        catchmap = _import_catchmap()
        if entry != "validate":
            path = Path(scenario_path)
            cfg = catchmap.scenario.parse_scenario_file(
                path.read_text(), base_dir=path.parent
            )
            catchmap.scenario.build_augmented(cfg)
        return {"setup_s": time.perf_counter() - start}

    catchmap = _import_catchmap()
    from catchmap import cli

    tracer = None
    checks: list[str] = []
    calls = {
        "run": lambda: cli.cmd_run(scenario_path, out),
        "plan": lambda: cli.cmd_plan(scenario_path, out),
        "validate": lambda: cli.cmd_validate("full", int(seed), echo=checks.append),
    }
    call = calls[entry]
    if mode == "traced":
        from spans import LAYERS, Tracer

        tracer = Tracer()
        tracer.install(catchmap)
        call = tracer.wrap("cli.entry", call)
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # the sample counts as failed; the parent reports it
        return {"error": f"{type(exc).__name__}: {exc}"}
    run_s = time.perf_counter() - start
    sample = {
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if entry == "validate":
        sample["validate_ok"] = result is True
    if tracer is not None:
        layers = tracer.metrics()
        if entry == "validate":
            layers["cli.validate_checks"] = sum(
                line.startswith(("ok ", "FAIL ")) for line in checks
            )
        layers["trace.self_sum_s"] = sum(
            layers.get(f"{layer}.self_s", 0.0) for layer in LAYERS
        )
        sample["layers"] = layers
    return sample


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
