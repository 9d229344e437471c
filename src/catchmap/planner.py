"""Choosing which nodes to measure under a budget.

The quantity being maximized is the expected number of nodes whose ingress
becomes certain once the measurement outcomes are folded back in. The
outcome of measuring a node is not known in advance, so the planner keeps
one branch per possible combination of outcomes, each carrying its own
refined inference state and probability.

The objective is monotone but neither submodular nor supermodular — the two
witness fixtures at the bottom exhibit both failures — so the greedy plan
carries no approximation guarantee. It is compared against the exhaustive
optimum and random baselines instead.
"""
from __future__ import annotations

import itertools
import logging
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CapacityError, InputError, UnknownNodeError
from .inference import (
    RouteProbabilities,
    RoutingFunction,
    _Overlay,
    probabilistic_inference,
    update_probabilistic_inference,
)
from .oracles import apply_oracles, outcomes_keeping
from .rgraph import RGraph

logger = logging.getLogger(__name__)

_MAX_EXACT_MEASUREMENTS = 6


def _check_budget(budget: float) -> None:
    # written so that a NaN budget fails too
    if not budget >= 0:
        raise InputError(f"budget must be a non-negative number, got {budget}")


def _checked_costs(costs: Mapping[int, float] | None) -> Mapping[int, float]:
    """Per-node measurement costs; a node without one costs 1."""
    costs = costs or {}
    for node, c in costs.items():
        if not c > 0:  # NaN fails every comparison
            raise InputError(f"measurement cost for node {node} must be positive, got {c}")
    return costs


def _certain_count(report: Iterable[int], routes: Mapping[int, "str | None"]) -> float:
    """Number of the ``report`` nodes that ``routes`` pins."""
    return sum(1.0 for n in report if routes.get(n) is not None)


# -- branch bookkeeping ---------------------------------------------------------


@dataclass
class _Branch:
    """One combination of outcomes, with its probability and inference state.

    ``value`` is the number of reporting nodes ``routes`` pins. ``probs``
    weighs the outcomes of the next measurement and guides observation
    propagation; ``forward`` is the forward pass of ``routes``. Every branch
    of a plan lays its own small delta over one shared base: ``routes``
    holds the branch's pins over the caller's routes, and ``forward`` the
    entries it recomputed over the plan's forward pass. ``probs`` is
    ``forward`` except in the initial branch, whose ``probs`` are the
    caller's (possibly conditioned on earlier observations). Nothing mutates
    a base or a delta once a branch holds it.
    """

    prob: float
    value: float
    routes: _Overlay
    probs: Mapping[int, dict[str, float]]
    forward: _Overlay


def _initial_branches(
    g: RGraph,
    routes: RoutingFunction,
    probs: RouteProbabilities,
    report: frozenset[int],
    forward: RouteProbabilities | None = None,
) -> list[_Branch]:
    if forward is None:
        forward = probabilistic_inference(g, routes)
    return [_Branch(
        1.0, _certain_count(report, routes), _Overlay({}, routes), probs,
        _Overlay({}, forward),
    )]


def _extend_branches(
    g: RGraph,
    branches: list[_Branch],
    node: int,
    report: frozenset[int],
    counts: Counter[str],
) -> list[_Branch]:
    """Split every branch on the possible outcomes of measuring ``node``.

    Each outcome is folded in and the distributions of still-uncertain nodes
    are recomputed forward with the graph's tie weights (their parent sets
    are untouched by new certainty); only the nodes the outcome pinned and
    those below them can change. A child branch copies its parent's deltas
    and adds the outcome's pins and recomputed entries, so it costs the pins
    and their cone, not the graph. Its value is its parent's plus one for
    each node of ``report`` the outcome pinned (the root and virtual chain
    nodes are not in it). Zero-probability outcomes are dropped.
    Measuring a node with no possible route changes nothing. ``counts``
    accumulates the branches evaluated, the nodes pinned and the nodes
    recomputed.
    """
    out: list[_Branch] = []
    for branch in branches:
        dist = branch.probs.get(node) or {}
        if not dist:
            out.append(branch)
            continue
        for ingress, p in sorted(dist.items()):
            if p == 0.0:
                continue
            applied = apply_oracles(g, branch.routes, branch.probs, {node: ingress})
            pins = applied.pins
            routes = _Overlay({**branch.routes.delta, **pins}, branch.routes.base)
            refreshed = update_probabilistic_inference(g, branch.forward, routes, pins)
            forward = _Overlay({**branch.forward.delta, **refreshed}, branch.forward.base)
            counts["branches"] += 1
            counts["pins"] += len(pins)
            counts["cone nodes"] += len(refreshed)
            out.append(_Branch(
                branch.prob * p, branch.value + sum(1.0 for n in pins if n in report),
                routes, forward, forward,
            ))
    return out


def _branch_value(branches: list[_Branch]) -> float:
    return sum(b.prob * b.value for b in branches)


def _replay(
    g: RGraph,
    branches: list[_Branch],
    measured: list[int],
    report: frozenset[int],
) -> float:
    """Value of measuring ``measured`` in order, starting from ``branches``."""
    counts: Counter[str] = Counter()
    for node in measured:
        branches = _extend_branches(g, branches, node, report, counts)
    return _branch_value(branches)


# -- expected objective ----------------------------------------------------------


def expected_nc(
    g: RGraph,
    routes: RoutingFunction,
    probs: RouteProbabilities,
    measured: Iterable[int],
    *,
    mode: str = "approx",
) -> float:
    """Expected number of certain reporting nodes after measuring the given nodes.

    ``approx`` replays the planner's own branch bookkeeping (measurements
    applied in ascending node order). ``exact`` enumerates the choosers'
    tie-breaks (``g.chooser_form``), conditions them on already-pinned
    routes, and scores each joint measurement outcome by which nodes are
    forced to a single ingress; guarded by ``exact_limit`` and to 6
    measured nodes.
    """
    measured = sorted(set(measured))
    for node in measured:
        if node not in g.parents:
            raise UnknownNodeError(f"measured node {node} not in forwarding graph")
    if mode == "approx":
        report = frozenset(g.report_nodes)
        initial = _initial_branches(g, routes, probs, report)
        return _replay(g, initial, measured, report)
    if mode != "exact":
        raise InputError(f"mode must be 'approx' or 'exact', got {mode!r}")

    if len(measured) > _MAX_EXACT_MEASUREMENTS:
        raise CapacityError(
            f"exact mode limited to {_MAX_EXACT_MEASUREMENTS} measured nodes, "
            f"got {len(measured)}"
        )
    pinned = [(n, m) for n, m in sorted(routes.items()) if m is not None]
    form = g.chooser_form
    keys = list(dict.fromkeys(form.follows[n] for n in measured if n in form.follows))

    # per joint outcome of the measured nodes' choosers: accumulated mass,
    # and for every chooser its ingress if the same in every outcome, else None
    signatures: dict[tuple, list] = {}
    total = 0.0
    for mass, picks in outcomes_keeping(g, pinned):
        total += mass
        entry = signatures.setdefault(tuple(picks[i] for i in keys), [0.0, picks])
        entry[0] += mass
        entry[1] = [v if v == c else None for v, c in zip(entry[1], picks)]
    if total == 0.0:
        raise InputError("pinned routes are inconsistent with the forwarding graph")

    value = 0.0
    for entry_mass, values in signatures.values():
        nc = sum(1.0 for n in g.report_nodes if form.ingress(values, n) is not None)
        value += (entry_mass / total) * nc
    return value


# -- plans -----------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurementPlan:
    """An ordered selection of nodes to measure.

    ``step_values`` holds the expected objective after each selection (same
    length as ``selected``); ``baseline_value`` is the objective with no
    measurements at all. ``notes`` records candidates that were set aside
    and other planner remarks.
    """

    selected: tuple[int, ...]
    step_values: tuple[float, ...]
    baseline_value: float
    budget: float
    method: str
    notes: tuple[str, ...] = ()

    @property
    def expected_value(self) -> float:
        return self.step_values[-1] if self.step_values else self.baseline_value


def _prepare_candidates(
    g: RGraph,
    routes: RoutingFunction,
    probs: RouteProbabilities,
    candidates: Iterable[int],
) -> tuple[list[int], list[str]]:
    notes: list[str] = []
    cleaned: list[int] = []
    for node in sorted(set(candidates)):
        if node not in g.parents:
            raise UnknownNodeError(f"candidate node {node} not in forwarding graph")
        if node == g.root:
            notes.append(f"candidate {node} is the destination itself; ignored")
            continue
        if routes.get(node) is None and not probs.get(node):
            notes.append(f"candidate {node} has no possible route; ignored")
            continue
        cleaned.append(node)
    return cleaned, notes


def greedy_plan(
    g: RGraph,
    routes: RoutingFunction,
    probs: RouteProbabilities,
    candidates: Iterable[int],
    budget: float,
    *,
    costs: Mapping[int, float] | None = None,
    forward: RouteProbabilities | None = None,
) -> MeasurementPlan:
    """Pick measurements one at a time, each maximizing the expected objective.

    Ties go to the smallest node id. Selection stops when the budget cannot
    afford any remaining candidate; ``costs`` maps a node to the price of
    measuring it, 1 when absent. Nodes that cannot be usefully measured
    (the destination, unreachable nodes) are set aside with a note.
    ``forward``, when given, must be ``probabilistic_inference(g, routes)``;
    the plan then makes no forward pass of its own.
    """
    _check_budget(budget)
    costs = _checked_costs(costs)
    pool, notes = _prepare_candidates(g, routes, probs, candidates)
    report = frozenset(g.report_nodes)
    if not pool and budget > 0:
        notes.append("no measurable candidates; empty plan")

    counts: Counter[str] = Counter()
    branches = _initial_branches(g, routes, probs, report, forward)
    baseline = branches[0].value
    selected: list[int] = []
    step_values: list[float] = []
    remaining = float(budget)
    while True:
        affordable = [n for n in pool if n not in selected and costs.get(n, 1.0) <= remaining]
        if not affordable:
            break
        best_node, best_value, best_branches = None, -math.inf, None
        for node in affordable:
            trial = _extend_branches(g, branches, node, report, counts)
            value = _branch_value(trial)
            if value > best_value:
                best_node, best_value, best_branches = node, value, trial
        selected.append(best_node)
        step_values.append(best_value)
        branches = best_branches
        remaining -= costs.get(best_node, 1.0)
    logger.debug(
        "greedy plan: %d candidates, %d steps, %d branches evaluated, "
        "%d cone nodes recomputed, %d nodes pinned, forward pass %s",
        len(pool), len(selected), counts["branches"], counts["cone nodes"],
        counts["pins"], "computed" if forward is None else "reused",
    )
    return MeasurementPlan(
        selected=tuple(selected),
        step_values=tuple(step_values),
        baseline_value=baseline,
        budget=budget,
        method="greedy",
        notes=tuple(notes),
    )


def exhaustive_plan(
    g: RGraph,
    routes: RoutingFunction,
    probs: RouteProbabilities,
    candidates: Iterable[int],
    budget: float,
    *,
    costs: Mapping[int, float] | None = None,
) -> MeasurementPlan:
    """Evaluate every affordable candidate subset exactly; return the best.

    Ground truth for benchmarking the greedy plan, so it scores subsets in
    exact mode and inherits its size guards; the empty subset is scored
    first, so a graph too large for exact mode fails before the subsets
    grow. Ties prefer fewer measurements, then the lexicographically
    smallest subset. Each prefix of the best subset is an affordable subset
    of its own, so the step values are read from the scores already made.
    ``costs`` prices measurements as in ``greedy_plan``.
    """
    _check_budget(budget)
    costs = _checked_costs(costs)
    pool, notes = _prepare_candidates(g, routes, probs, candidates)
    baseline = _certain_count(g.report_nodes, routes)

    best_subset, best_value = (), baseline
    scores: dict[tuple[int, ...], float] = {}
    for size in range(0, len(pool) + 1):
        if size > _MAX_EXACT_MEASUREMENTS:
            # no larger subset is affordable unless the cheapest one is
            if sum(sorted(costs.get(n, 1.0) for n in pool)[:size]) <= budget:
                notes.append(
                    f"subsets larger than {_MAX_EXACT_MEASUREMENTS} not evaluated "
                    f"(exact-mode guard)"
                )
            break
        for subset in itertools.combinations(pool, size):
            if sum(costs.get(n, 1.0) for n in subset) > budget:
                continue
            value = scores[subset] = expected_nc(g, routes, probs, subset, mode="exact")
            if value > best_value + 1e-12 or (
                abs(value - best_value) <= 1e-12
                and (len(subset), subset) < (len(best_subset), best_subset)
            ):
                best_subset, best_value = subset, value

    return MeasurementPlan(
        selected=best_subset,
        step_values=tuple(
            scores[best_subset[:k]] for k in range(1, len(best_subset) + 1)
        ),
        baseline_value=baseline,
        budget=budget,
        method="exhaustive",
        notes=tuple(notes),
    )


def random_plan_values(
    g: RGraph,
    routes: RoutingFunction,
    probs: RouteProbabilities,
    candidates: Iterable[int],
    budget: float,
    count: int,
    seed: int = 0,
    *,
    mode: str = "exact",
) -> list[float]:
    """Expected objective of ``count`` uniformly drawn budget-sized plans.

    Baseline distribution for judging the greedy plan. Assumes unit costs
    when sizing the drawn subsets. In ``approx`` mode every plan is replayed
    from one shared initial branch, so the call makes one forward pass.
    """
    _check_budget(budget)
    pool, _ = _prepare_candidates(g, routes, probs, candidates)
    rng = random.Random(seed)
    size = int(min(budget, len(pool)))
    if mode == "approx":
        report = frozenset(g.report_nodes)
        initial = _initial_branches(g, routes, probs, report)
    values = []
    for _ in range(count):
        subset = rng.sample(pool, size) if size else []
        if mode == "approx":
            values.append(_replay(g, initial, sorted(subset), report))
        else:
            values.append(expected_nc(g, routes, probs, subset, mode=mode))
    return values


def export_plan_csv(plan: MeasurementPlan) -> str:
    """CSV rows ``rank,node,expected_nc_after``."""
    lines = ["rank,node,expected_nc_after"]
    for rank, (node, value) in enumerate(
        zip(plan.selected, plan.step_values), start=1
    ):
        lines.append(f"{rank},{node},{value!r}")
    return "\n".join(lines) + "\n"


# -- objective-shape witnesses ---------------------------------------------------


def nonsupermodularity_witness(p: float = 0.6, q: float = 0.5) -> RGraph:
    """Fixture where a measurement helps less after another one.

    Two pinned attachment nodes (1 and 2), an uncertain node 3 hanging off
    both, and an uncertain node 4 fed by 3 and 2. Measuring 3 alone gains
    2 - p; measuring it after 4 gains only 1 - p*q.
    """
    return RGraph.from_edges(
        0,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 4)],
        {1: "m1", 2: "m2"},
        tie_probs={3: {1: p, 2: 1.0 - p}, 4: {3: q, 2: 1.0 - q}},
    )


def nonsubmodularity_witness(
    p1: float = 0.5, p2: float = 0.5, r: float = 0.5
) -> RGraph:
    """Fixture where a measurement helps more after another one.

    Nodes 3 and 4 each hang off both attachments; node 5 hangs off 3 and 4.
    Measuring 3 alone gains 1; measuring it after 4 gains
    1 + P(3 and 4 agree).
    """
    return RGraph.from_edges(
        0,
        [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)],
        {1: "m1", 2: "m2"},
        tie_probs={
            3: {1: p1, 2: 1.0 - p1},
            4: {1: p2, 2: 1.0 - p2},
            5: {3: r, 4: 1.0 - r},
        },
    )
