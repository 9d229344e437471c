"""Command-line interface: ingest, run, plan, validate.

Exit status is 0 only when the requested outputs were produced and every
validation that ran passed. Relative input paths that do not resolve
locally are also looked up under $CATCHMAP_DATA_DIR.
"""
from __future__ import annotations

import contextlib
import gc
import json
import logging
import os
import random
from pathlib import Path

import click

from . import __version__
from .bgpsim import run_bgp
from .errors import (
    CapacityError, CatchmapError, ContradictionError, InfeasibleOracleError, InputError,
)
from .inference import certain_inference, probabilistic_inference, shortest_path_transform
from .oracles import apply_oracles, exact_conditional_distribution
from .planner import (
    exhaustive_plan,
    expected_nc,
    export_plan_csv,
    greedy_plan,
    nonsubmodularity_witness,
    nonsupermodularity_witness,
    random_plan_values,
)
from .rgraph import (
    brute_force_eligible_paths, build_rgraph, enumerate_rpaths, simulated_parents,
)
from .scenario import (
    Scenario,
    _MODES,
    _catchments,
    _simulated_counts,
    compare_with_simulation,
    parse_scenario_file,
    parse_topology_text,
    run_scenario,
    write_report_files,
)
from .topology import (
    AugmentedTopology,
    DestinationSpec,
    Relationship,
    Topology,
    attach_destination,
    derive_vf_policies,
    generate_random_topology,
    parse_topology,
    serialize_topology,
)

logger = logging.getLogger(__name__)


def _resolve_data_path(p: str | Path) -> Path:
    path = Path(p)
    if path.exists():
        return path
    env = os.environ.get("CATCHMAP_DATA_DIR")
    if env and not path.is_absolute():
        candidate = Path(env) / path
        if candidate.exists():
            return candidate
    return path


@contextlib.contextmanager
def _collector_paused():
    """Run with the cyclic garbage collector off, then restore its state.

    A command allocates hundreds of thousands of container objects (topology
    rows, graph maps, report rows) and leaves almost no reference cycles,
    so reference counting frees them; with the collector on, its
    generational sweeps re-walk the same long-lived rows many times over.
    Usable as a decorator."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# -- programmatic commands -------------------------------------------------------


def cmd_ingest(path: str | Path, out: str | Path | None = None) -> str:
    """Read a relationship file (pipe-delimited or canonical), canonicalize it.

    Returns the canonical text; writes it to ``out`` when given.
    """
    source = _resolve_data_path(path)
    topology = parse_topology_text(source.read_text())
    canonical = serialize_topology(topology)
    if out is not None:
        Path(out).write_text(canonical)
    logger.info(
        "ingested %s: %d nodes, %d edges", source, topology.num_nodes, topology.num_edges
    )
    return canonical


@_collector_paused()
def cmd_run(
    scenario: str | Path,
    out: str | Path,
    *,
    seed: int | None = None,
    mode: str | None = None,
    sp: bool | None = None,
):
    """Run a scenario file end-to-end and write its report files."""
    path = _resolve_data_path(scenario)
    cfg = parse_scenario_file(path.read_text(), base_dir=path.parent)
    if seed is not None:
        cfg.seed = seed
    if mode is not None:
        cfg.mode = mode
    if sp is not None:
        cfg.sp = sp
    scenario = run_scenario(cfg)
    written = write_report_files(scenario.report, scenario.graph, out)
    return scenario.report, written


@_collector_paused()
def cmd_plan(
    scenario: str | Path,
    out: str | Path,
    *,
    budget: int | None = None,
    seed: int | None = None,
    baselines: int = 0,
    exact_guard: int | None = None,
):
    """Produce a measurement plan for a scenario; optionally benchmark it.

    ``baselines`` random plans are scored for comparison. When
    ``exact_guard`` is given and the forwarding graph has at most that many
    nodes, the exhaustive optimum is computed as a cross-check; ``gap`` is
    that optimum minus the greedy selection's exact value. All of them are
    scored on the routes, distributions and candidates the greedy plan was
    made from. When exact mode refuses the graph (``exact_limit``) or the
    selection, ``exhaustive_skipped`` records why instead.
    """
    if baselines < 0:
        raise InputError(f"baselines must be >= 0, got {baselines}")
    path = _resolve_data_path(scenario)
    cfg = parse_scenario_file(path.read_text(), base_dir=path.parent)
    if seed is not None:
        cfg.seed = seed
    if budget is not None:
        cfg.plan_budget = budget
    if cfg.plan_budget is None:
        raise InputError("no budget: pass --budget or a 'plan budget' directive")
    # no report: the command writes only the plan files
    scenario = Scenario(cfg)
    g, plan, post = scenario.graph, scenario.plan, scenario.posterior
    assert plan is not None

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "plan.csv").write_text(export_plan_csv(plan))

    summary: dict = {
        "selected": list(plan.selected),
        "expected_value": plan.expected_value,
        "baseline_value": plan.baseline_value,
        "notes": list(plan.notes),
    }
    routes, probs, candidates = post.routes, post.probs, scenario.candidates
    if baselines > 0:
        values = random_plan_values(
            g, routes, probs, candidates, cfg.plan_budget,
            count=baselines, seed=cfg.seed, mode="approx",
        )
        summary["random_baseline_mean"] = sum(values) / len(values)
        summary["random_baseline_max"] = max(values)
    if exact_guard is not None and len(g.nodes) <= exact_guard:
        try:
            optimum = exhaustive_plan(g, routes, probs, candidates, cfg.plan_budget).expected_value
            summary["gap"] = optimum - expected_nc(g, routes, probs, plan.selected, mode="exact")
            summary["exhaustive_value"] = optimum
        except CapacityError as exc:
            summary["exhaustive_skipped"] = str(exc)
    (out_dir / "plan.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return plan, summary


# -- built-in validation ----------------------------------------------------------
# The worked example: nine nodes, (customer, provider) links, the destination
# (node 9) attached at nodes 1 and 2. Each customer re-exports the
# destination's route upward, so each link is a forwarding edge. The
# expectations were derived by hand before the engine existed; ``validate``
# and the tests compare the engine against them, never the other way around.
EXAMPLE_CUSTOMER_LINKS = (
    (1, 3), (1, 4), (2, 4), (2, 5), (4, 6), (1, 7), (3, 7), (5, 8), (6, 8),
)
EXAMPLE_ATTACHMENTS = {1: "m1", 2: "m2"}

# Forwarding-graph edges as (parent, child): parent advertises to child.
EXPECTED_EDGES = frozenset(
    {(9, 1), (9, 2)} | {(c, p) for c, p in EXAMPLE_CUSTOMER_LINKS}
)
EXPECTED_ROUTES = {
    1: "m1", 2: "m2", 3: "m1", 4: None, 5: "m2", 6: None, 7: "m1", 8: None,
}
EXPECTED_PROBS = {
    1: {"m1": 1.0}, 2: {"m2": 1.0}, 3: {"m1": 1.0}, 4: {"m1": 0.5, "m2": 0.5},
    5: {"m2": 1.0}, 6: {"m1": 0.5, "m2": 0.5}, 7: {"m1": 1.0},
    8: {"m1": 0.25, "m2": 0.75},
}
EXPECTED_PATHS_8 = frozenset({(8, 5, 2, 9), (8, 6, 4, 1, 9), (8, 6, 4, 2, 9)})
EXPECTED_BOUNDS = {"m1": (3, 6), "m2": (2, 5)}
EXPECTED_LOADS = {"m1": 4.25, "m2": 3.75}
# removed by shortest-path pruning (depth one: 1, 2; two: 3, 4, 5, 7; three: 6, 8)
EXPECTED_SP_DROPPED = frozenset({(3, 7), (6, 8)})


def example_base_topology() -> Topology:
    """The worked example's hierarchy, policies enabled: all routes are
    customer routes, so every listed edge is usable."""
    t = Topology()
    for customer, provider in EXAMPLE_CUSTOMER_LINKS:
        t.add_edge(customer, provider, Relationship.C2P)
    return derive_vf_policies(t)


def example_aug() -> AugmentedTopology:
    """The worked example: eight real nodes and two ingress points."""
    spec = DestinationSpec(attachments=dict(EXAMPLE_ATTACHMENTS), dst_id=9)
    return attach_destination(example_base_topology(), spec)


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def _compare_routes(actual: dict, expected: dict) -> list[str]:
    return [
        f"node {n}: {actual.get(n)!r} != {expected[n]!r}"
        for n in expected
        if actual.get(n) != expected[n]
    ]


def _compare_probs(actual: dict, expected: dict) -> list[str]:
    problems = []
    for n, dist in expected.items():
        got = actual.get(n, {})
        keys = set(got) | set(dist)
        for m in keys:
            if not _close(got.get(m, 0.0), dist.get(m, 0.0)):
                problems.append(f"node {n} ingress {m}: {got.get(m, 0.0)} != {dist.get(m, 0.0)}")
    return problems


def _quick_checks(seed: int) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    aug = example_aug()
    g = build_rgraph(aug)

    edges = set(g.edges())
    checks.append((
        "example forwarding graph",
        edges == EXPECTED_EDGES,
        f"got {sorted(edges)}",
    ))

    routes = certain_inference(g)
    mismatches = _compare_routes(routes, EXPECTED_ROUTES)
    checks.append(("example certain inference", not mismatches, "; ".join(mismatches)))

    probs = probabilistic_inference(g, routes)
    problems = _compare_probs(probs, EXPECTED_PROBS)
    checks.append(("example route probabilities", not problems, "; ".join(problems)))

    figures = _catchments(g, routes, probs)
    bounds, loads = figures["bounds"], figures["expected_loads"]
    ok = bounds == EXPECTED_BOUNDS and all(
        _close(loads[m], EXPECTED_LOADS[m]) for m in EXPECTED_LOADS
    )
    checks.append(("example bounds and loads", ok, f"bounds={bounds} loads={loads}"))

    applied = apply_oracles(g, routes, probs, {4: "m1"})
    trace1 = applied.routes[6] == "m1" and applied.set_route_calls == 2
    applied2 = apply_oracles(g, routes, probs, {8: "m1"})
    trace2 = (
        applied2.routes[4] == "m1"
        and applied2.routes[6] == "m1"
        and applied2.set_route_calls == 3
    )
    applied3 = apply_oracles(g, routes, probs, {8: "m2"})
    trace3 = applied3.routes[4] is None and applied3.set_route_calls == 1
    again = apply_oracles(g, applied2.routes, applied2.probs, {8: "m1"})
    idempotent = again.routes == applied2.routes and again.set_route_calls == 0
    checks.append((
        "example observation propagation",
        trace1 and trace2 and trace3 and idempotent,
        f"calls: {applied.set_route_calls}/{applied2.set_route_calls}/{applied3.set_route_calls}",
    ))

    sp = shortest_path_transform(g)
    dropped = set(g.edges()) - set(sp.edges())
    sp_routes = certain_inference(sp)
    monotone = all(
        sp_routes[n] == routes[n] for n in g.report_nodes if routes[n] is not None
    )
    checks.append((
        "example shortest-path pruning",
        dropped == EXPECTED_SP_DROPPED and monotone and sp_routes[8] == "m2",
        f"dropped={sorted(dropped)}",
    ))

    enum = enumerate_rpaths(g, 8)
    brute = brute_force_eligible_paths(aug)[4]
    checks.append((
        "example path enumeration",
        enum.paths == EXPECTED_PATHS_8
        and not enum.truncated
        and brute == frozenset({(4, 1, 9), (4, 2, 9)}),
        f"got {sorted(enum.paths)} / {sorted(brute)}",
    ))

    def gains(wg):
        # the gain of measuring 3, alone and once 4 is measured
        wroutes = certain_inference(wg)
        wprobs = probabilistic_inference(wg, wroutes)
        base, with_3, with_4, with_34 = (
            expected_nc(wg, wroutes, wprobs, measured, mode="exact")
            for measured in ([], [3], [4], [3, 4])
        )
        return with_3 - base, with_34 - with_4

    sup, sub = gains(nonsupermodularity_witness()), gains(nonsubmodularity_witness())
    checks.append((
        "objective-shape witnesses",
        _close(sup[0], 1.4, 1e-9) and _close(sup[1], 0.7, 1e-9)
        and _close(sub[0], 1.0, 1e-9) and _close(sub[1], 1.5, 1e-9),
        f"gains {sup[0]}/{sup[1]} and {sub[0]}/{sub[1]}",
    ))

    topo = generate_random_topology(24, seed=seed)
    text = serialize_topology(topo)
    roundtrip = serialize_topology(parse_topology(text)) == text
    checks.append(("serialization round-trip", roundtrip, ""))

    r1 = run_bgp(aug, seed)
    r2_ = run_bgp(aug, seed)
    checks.append((
        "deterministic propagation",
        r1.best_paths == r2_.best_paths and r1.ribs == r2_.ribs,
        "",
    ))

    # negative control: a deliberately corrupted expectation must be caught
    tampered = dict(EXPECTED_ROUTES)
    tampered[3] = "m2"
    caught = bool(_compare_routes(routes, tampered))
    checks.append((
        "negative control (tampered fixture rejected)",
        caught,
        "comparator failed to flag an injected wrong value" if not caught else "",
    ))
    return checks


# -- validation sweeps ------------------------------------------------------------
# Each sweep checks one claim against an independent oracle and returns what it
# found; `validate --level full` and the acceptance tests run them at their own
# counts. Positions in the findings index the ``instances`` given.


def random_instance(
    idx: int,
    *,
    num_nodes: int | None = None,
    avg_degree: float = 2.2,
    peer_fraction: float = 0.15,
    seed_base: int = 7000,
) -> AugmentedTopology:
    """Small random scenario with two ingress points, deterministic per idx."""
    seed = seed_base + idx
    n = num_nodes if num_nodes is not None else 6 + idx % 5
    topo = generate_random_topology(
        n, avg_degree=avg_degree, peer_fraction=peer_fraction, seed=seed
    )
    vf = derive_vf_policies(topo)
    picks = sorted(random.Random(seed).sample(sorted(vf.nodes()), 2))
    spec = DestinationSpec(attachments={picks[0]: "m1", picks[1]: "m2"})
    return attach_destination(vf, spec)


def path_mismatches(instances: list[AugmentedTopology]) -> list[tuple[int, int]]:
    """``(position, node)`` wherever the forwarding graph's path set differs
    from the brute-forced eligible paths, or its parents from the ones the
    seeded simulator offers (``simulated_parents``)."""
    bad = []
    for idx, aug in enumerate(instances):
        g = build_rgraph(aug)
        brute = brute_force_eligible_paths(aug)
        simulated = simulated_parents(aug)
        wrong = {n for n in g.report_nodes if enumerate_rpaths(g, n).paths != brute[n]}
        wrong.update(n for n, ps in simulated.items() if g.parents[n] != ps)
        bad += [(idx, n) for n in sorted(wrong)]
    return bad


def certainty_violations(
    instances: list[AugmentedTopology], seeds: range
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, str]]]:
    """Seeded simulations that contradict certain inference.

    Returns ``(moved, outside)``: ``(position, seed, node)`` for each certain
    node that the simulation routes elsewhere, and ``(position, seed,
    ingress)`` for each catchment count outside ``catchment_bounds``.
    """
    moved, outside = [], []
    for idx, aug in enumerate(instances):
        g = build_rgraph(aug)
        routes = certain_inference(g)
        bounds = _catchments(g, routes, None)["bounds"]
        for s in seeds:
            catchment, counts = _simulated_counts(aug, g, s)
            moved += [
                (idx, s, node)
                for node in g.report_nodes
                if routes[node] is not None and catchment.get(node) != routes[node]
            ]
            outside += [
                (idx, s, m)
                for m in g.ingress_points
                if not bounds[m][0] <= counts[m] <= bounds[m][1]
            ]
    return moved, outside


def propagation_findings(cases: list[tuple]) -> tuple[int, list, list]:
    """Observation propagation against exact conditioning, per ``(label,
    graph, observations)`` case; jointly impossible observations are skipped.

    Returns the number of cases compared, ``(label, node)`` for each pin the
    exact conditional leaves open, and ``(label, node, ingress)`` for each
    node left open although its exact conditional is degenerate.
    """
    tested = 0
    unsound, gaps = [], []
    for label, g, observations in cases:
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        try:
            applied = apply_oracles(g, routes, probs, observations)
            posterior = exact_conditional_distribution(g, observations)
        except (ContradictionError, InfeasibleOracleError):
            continue
        tested += 1
        for node in g.report_nodes:
            post = posterior[node]
            got = applied.routes[node]
            if got is not None:
                if post.get(got, 0.0) <= 1.0 - 1e-12:
                    unsound.append((label, node))
            elif post and max(post.values()) > 1.0 - 1e-9:
                gaps.append((label, node, max(post, key=post.get)))
    return tested, unsound, gaps


def sp_regressions(instances: list[AugmentedTopology]) -> list[tuple]:
    """``(position, node, before, after)`` for each certain node whose route
    shortest-path pruning changes or loses."""
    regressions = []
    for idx, aug in enumerate(instances):
        g = build_rgraph(aug)
        before = certain_inference(g)
        after = certain_inference(shortest_path_transform(g))
        regressions += [
            (idx, n, before[n], after[n])
            for n in g.report_nodes
            if before[n] is not None and after[n] != before[n]
        ]
    return regressions


def plan_scores(
    g, routes, probs, candidates, budget: int, baselines: int, seed: int
) -> tuple[float, float, float, float]:
    """The greedy plan's own value, its exact value, the exhaustive optimum,
    and the mean exact value of ``baselines`` random plans drawn with ``seed``."""
    greedy = greedy_plan(g, routes, probs, candidates, budget)
    greedy_exact = expected_nc(g, routes, probs, greedy.selected, mode="exact")
    optimum = exhaustive_plan(g, routes, probs, candidates, budget).expected_value
    values = random_plan_values(
        g, routes, probs, candidates, budget, count=baselines, seed=seed
    )
    return greedy.expected_value, greedy_exact, optimum, sum(values) / len(values)


def _full_checks(seed: int) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    instances = [random_instance(idx) for idx in range(30)]

    bad = path_mismatches(instances)
    checks.append((
        "eligible-path equivalence (30 instances)",
        not bad,
        f"mismatches at {bad[:5]}",
    ))

    moved, outside = certainty_violations(instances[:20], range(20))
    checks.append((
        "certainty soundness (20 instances x 20 seeds)",
        not moved and not outside,
        f"{len(moved) + len(outside)} violations",
    ))

    # Completeness gaps are reported but do not fail the check: local rules
    # cannot pin nodes whose candidate carriers are perfectly correlated
    # through a shared ancestor.
    rng = random.Random(seed)
    cases = []
    for idx, aug in enumerate(instances[:15]):
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        uncertain = [n for n in g.report_nodes if routes[n] is None and probs[n]]
        if uncertain:
            target = rng.choice(uncertain)
            cases.append((idx, g, {target: rng.choice(sorted(probs[target]))}))
    _, unsound, gaps = propagation_findings(cases)
    checks.append((
        "observation propagation is sound (15 instances)",
        not unsound,
        f"violations at {unsound[:5]}"
        if unsound
        else f"{len(gaps)} completeness gap(s) left open, as expected",
    ))

    regressions = sp_regressions(instances)
    checks.append((
        "shortest-path pruning monotone (30 instances)",
        not regressions,
        f"regressions at {regressions[:5]}",
    ))

    # predicted expected sizes vs simulation
    off = []
    for idx in range(2):
        aug = random_instance(idx, num_nodes=60)
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        comparison = compare_with_simulation(
            aug, g, routes, probs, runs=200, seed=seed + idx
        )
        if comparison.bound_violations or not all(comparison.within_3se.values()):
            off.append(idx)
    checks.append((
        "simulation agreement (2 x 200 runs)",
        not off,
        f"instances {off}",
    ))

    over_optimum, under_random, compared = 0, 0, 0
    for aug in instances[:10]:
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        candidates = [n for n in g.report_nodes if routes[n] is None and probs[n]]
        if not candidates:
            continue
        compared += 1
        _, greedy_exact, optimum, random_mean = plan_scores(
            g, routes, probs, candidates, min(2, len(candidates)), 20, seed
        )
        over_optimum += greedy_exact > optimum + 1e-9
        under_random += greedy_exact + 1e-9 < random_mean
    checks.append((
        f"planner sanity ({compared} instances)",
        over_optimum == 0 and under_random <= compared // 3,
        f"{over_optimum} above optimum, {under_random} below random mean",
    ))
    return checks


def cmd_validate(level: str = "quick", seed: int = 0, echo=print) -> bool:
    """Run the built-in validation suite; returns True when everything passed."""
    if level not in ("quick", "full"):
        raise InputError(f"level must be 'quick' or 'full', got {level!r}")
    checks = _quick_checks(seed)
    if level == "full":
        checks += _full_checks(seed)
    all_ok = True
    for name, ok, detail in checks:
        if ok:
            echo(f"ok   {name}")
        else:
            all_ok = False
            echo(f"FAIL {name}: {detail}")
    echo(
        f"{'all checks passed' if all_ok else 'VALIDATION FAILED'} "
        f"({sum(1 for _, ok, _ in checks if ok)}/{len(checks)})"
    )
    return all_ok


# -- click wiring -----------------------------------------------------------------


@click.group()
@click.version_option(__version__)
@click.option("--verbose", is_flag=True, help="debug logging")
def main(verbose: bool) -> None:
    """Catchment inference for multi-ingress destinations."""
    logging.basicConfig(level=logging.DEBUG if verbose else logging.WARNING)


@main.command("ingest")
@click.argument("path")
@click.option("--out", type=click.Path(dir_okay=False), help="write canonical topology here")
def ingest_command(path: str, out: str | None) -> None:
    """Canonicalize a relationship file."""
    try:
        canonical = cmd_ingest(path, out)
    except (CatchmapError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    if out is None:
        click.echo(canonical, nl=False)
    else:
        click.echo(f"wrote {out}")


@main.command("run")
@click.argument("scenario")
@click.option("--out", default="catchmap-out", show_default=True)
@click.option("--seed", type=int, default=None, help="override the scenario seed")
@click.option("--mode", type=click.Choice(_MODES), default=None)
@click.option("--sp/--no-sp", "sp", default=None, help="override shortest-path preference")
def run_command(scenario: str, out: str, seed: int | None, mode: str | None, sp: bool | None) -> None:
    """Run a scenario and write its report."""
    try:
        report, written = cmd_run(scenario, out, seed=seed, mode=mode, sp=sp)
    except (CatchmapError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    counts = " ".join(f"{m}={c}" for m, c in sorted(report.certain_counts.items()))
    click.echo(
        f"stages: {' -> '.join(report.stages)}\n"
        f"certain: {counts} (uncertain {report.uncertain_count})\n"
        + "\n".join(f"wrote {p}" for p in written)
    )


@main.command("plan")
@click.argument("scenario")
@click.option("--out", default="catchmap-out", show_default=True)
@click.option("--budget", type=int, default=None, help="measurement budget")
@click.option("--seed", type=int, default=None)
@click.option("--baselines", type=int, default=0, help="random plans to score for comparison")
@click.option(
    "--exact-guard", type=int, default=None,
    help="also compute the exhaustive optimum when the graph has at most this many nodes",
)
def plan_command(
    scenario: str, out: str, budget: int | None, seed: int | None,
    baselines: int, exact_guard: int | None,
) -> None:
    """Plan measurements for a scenario under a budget."""
    try:
        plan, summary = cmd_plan(
            scenario, out, budget=budget, seed=seed,
            baselines=baselines, exact_guard=exact_guard,
        )
    except (CatchmapError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(
        f"selected: {list(plan.selected)}\n"
        f"expected objective: {plan.expected_value} (baseline {plan.baseline_value})"
    )
    if "gap" in summary:
        click.echo(f"gap to exhaustive optimum: {summary['gap']}")
    if "exhaustive_skipped" in summary:
        click.echo(f"exhaustive optimum skipped: {summary['exhaustive_skipped']}")


@main.command("validate")
@click.option("--level", type=click.Choice(["quick", "full"]), default="quick", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.pass_context
def validate_command(ctx: click.Context, level: str, seed: int) -> None:
    """Self-check the engine against built-in fixtures and sweeps."""
    ok = cmd_validate(level, seed, echo=click.echo)
    if not ok:
        ctx.exit(1)


if __name__ == "__main__":
    main()
