"""Output checks applied to every measured sample, and the answer-quality
figures read off the same outputs.

Each check returns a list of problems (empty when the sample is correct) and
a dict of quality figures.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import reference

TOL = 1e-9


def check_run(out: Path, inputs) -> tuple[list[str], dict[str, float]]:
    """report.json / rgraph.edges of ``cmd_run`` against truth and reference."""
    problems: list[str] = []
    report = json.loads((out / "report.json").read_text())
    routes = {int(n): m for n, m in report["routes"].items()}
    probs = {int(n): d for n, d in report["probs"].items()}
    truth = inputs.truth
    if len(routes) != inputs.report_nodes:
        problems.append(f"{len(routes)} report nodes, expected {inputs.report_nodes}")
    for n, m in routes.items():
        dist = probs.get(n, {})
        if m is not None and truth.get(n) != m:
            problems.append(f"node {n} certain on {m} but truly routes via {truth.get(n)}")
        if m is not None and abs(dist.get(m, 0.0) - 1.0) > TOL:
            problems.append(f"certain node {n} has probability {dist.get(m)} on {m}")
        if (n in truth) != bool(dist):
            problems.append(f"node {n}: reachable={n in truth} but distribution {dist}")
        if dist and abs(sum(dist.values()) - 1.0) > TOL:
            problems.append(f"node {n}: distribution sums to {sum(dist.values())!r}")
    for n, m in inputs.observations:
        if routes.get(n) != m or probs.get(n) != {m: 1.0}:
            problems.append(f"observed node {n} reports {routes.get(n)} / {probs.get(n)}, not {m}")
    edges = (out / "rgraph.edges").read_text()
    if reference.digest(routes, edges) != inputs.digest:
        problems.append("routes + rgraph.edges digest differs from the reference")
    uncertain = [n for n, m in routes.items() if m is None and n in truth]
    quality = {
        "quality.certain_share": sum(m is not None for m in routes.values()) / len(routes),
        "quality.truth_prob": (
            sum(probs[n].get(truth[n], 0.0) for n in uncertain) / len(uncertain)
            if uncertain else 1.0
        ),
    }
    return problems[:20], quality


def check_plan(out: Path, inputs) -> tuple[list[str], dict[str, float]]:
    """plan.json / plan.csv of ``cmd_plan``."""
    problems: list[str] = []
    summary = json.loads((out / "plan.json").read_text())
    with open(out / "plan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    selected = [int(r["node"]) for r in rows]
    steps = [float(r["expected_nc_after"]) for r in rows]
    baseline = summary["baseline_value"]
    if selected != summary["selected"]:
        problems.append(f"plan.csv selects {selected}, plan.json {summary['selected']}")
    if not set(selected) <= set(inputs.candidates) or len(set(selected)) != len(selected):
        problems.append(f"selection {selected} is not a set of candidates")
    if len(selected) > inputs.budget:
        problems.append(f"{len(selected)} measurements exceed budget {inputs.budget}")
    if any(b < a - TOL for a, b in zip([baseline] + steps, steps)):
        problems.append(f"step values {steps} decrease or fall below baseline {baseline}")
    if abs(summary["expected_value"] - (steps[-1] if steps else baseline)) > TOL:
        problems.append("expected_value is not the last step value")
    if baseline != inputs.certain_count:
        problems.append(f"baseline {baseline} != reference certain count {inputs.certain_count}")
    quality = {
        "quality.certain_share": baseline / inputs.report_nodes,
        "quality.plan_value": summary["expected_value"],
    }
    return problems, quality


def check_sample(out: Path, inputs, sample: dict) -> tuple[list[str], dict[str, float]]:
    """Check one sample that ran to completion."""
    if inputs.entry == "validate":
        ok = sample.get("validate_ok") is True
        return ([] if ok else ["cmd_validate returned False"]), {}
    try:
        if inputs.entry == "plan":
            return check_plan(out, inputs)
        return check_run(out, inputs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}
