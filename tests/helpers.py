"""Shared builders and frozen expectations for the test suite.

The worked example and its hand-derived expectations live in
``catchmap.cli``, which ``catchmap validate`` checks against; they are
re-exported here under the names the tests use, next to the few that only
tests need.
"""

from __future__ import annotations

import bisect
import itertools
import json
import logging
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from catchmap import (
    AugmentedTopology,
    DestinationSpec,
    Relationship,
    Topology,
    apply_prepending,
    attach_destination,
    derive_vf_policies,
    generate_random_topology,
)
from catchmap.cli import (  # noqa: F401  (re-exported)
    EXAMPLE_ATTACHMENTS,
    EXAMPLE_CUSTOMER_LINKS,
    EXPECTED_BOUNDS,
    EXPECTED_EDGES,
    EXPECTED_LOADS,
    EXPECTED_PATHS_8,
    EXPECTED_PROBS,
    EXPECTED_ROUTES,
    EXPECTED_SP_DROPPED,
    example_aug,
    example_base_topology,
    random_instance,
)
from catchmap.errors import (
    CapacityError, CatchmapError, EdgeConflictError, GenerationError, InfeasibleOracleError,
    InputError, TopologyParseError,
)
from catchmap.inference import (
    RouteProbabilities,
    RoutingFunction,
    _cone_order,
    catchment_bounds,
    certain_inference,
    expected_load,
    probabilistic_inference,
    shortest_path_transform,
)
from catchmap.oracles import (
    _check_observed,
    _outcomes,
    apply_oracles,
    exact_conditional_distribution,
    monte_carlo_inference,
    parse_oracle_file,
)
from catchmap.planner import MeasurementPlan, _prepare_candidates, greedy_plan
from catchmap.rgraph import RGraph, build_rgraph, exact_limit, topological_order
from catchmap.scenario import (
    _MODES, _POSTERIORS, ScenarioConfig, ScenarioReport, build_augmented,
)
from catchmap.topology import _data_lines

logger = logging.getLogger(__name__)

DST = 9  # the destination node of the worked example

EXPECTED_PATHS_3 = frozenset({(3, 1, DST)})

CERTAIN_COUNT = 5  # of 8 report nodes


def ingress_points(aug: AugmentedTopology) -> tuple[str, ...]:
    """The distinct ingress names of ``aug``, sorted."""
    return tuple(sorted(set(aug.ingress_map.values())))


def assert_antisymmetric(topology: Topology) -> None:
    """Each edge's relationship seen from one end is the reverse of the one
    seen from the other, and an edge without one has none either way."""
    for i in topology.nodes():
        for j, rel in topology.relationships(i).items():
            back = topology.relationship(j, i)
            assert back == (rel.reversed() if rel is not None else None), (i, j)


# The generator written through ``Topology.add_edge`` with a separate edge
# set: the oracle for ``generate_random_topology``, which must give each seed
# the same adjacency, in the same key order at both levels.
def reference_generate_random_topology(
    num_nodes: int,
    *,
    avg_degree: float = 2.5,
    peer_fraction: float = 0.15,
    seed: int = 0,
) -> Topology:
    """Random connected relationship graph, deterministic per seed.

    Nodes are ranked into a hierarchy; customer/provider edges always point
    from lower to higher rank, so the provider relation stays acyclic. A
    random spanning tree guarantees connectivity; extra edges are added up
    to ``avg_degree * num_nodes / 2`` total. Each edge is a peering with
    probability ``peer_fraction``, customer/provider otherwise.
    """
    if num_nodes <= 0:
        raise GenerationError(f"need at least one node, got {num_nodes}")
    if not 0 <= peer_fraction <= 1:
        raise GenerationError(f"peer_fraction must be in [0,1], got {peer_fraction}")
    if num_nodes == 1:
        topology = Topology()
        topology.add_node(1)
        return topology
    target_edges = max(num_nodes - 1, round(avg_degree * num_nodes / 2))
    max_edges = num_nodes * (num_nodes - 1) // 2
    if target_edges > max_edges:
        raise GenerationError(
            f"avg_degree {avg_degree} needs {target_edges} edges, "
            f"but {num_nodes} nodes allow only {max_edges}"
        )

    rng = random.Random(seed)
    order = list(range(1, num_nodes + 1))
    rng.shuffle(order)  # order[0] is the top of the hierarchy
    rank = {node: idx for idx, node in enumerate(order)}

    topology = Topology()
    topology.add_node(order[0])
    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        # the earlier-ranked endpoint acts as the provider
        provider, customer = (u, v) if rank[u] < rank[v] else (v, u)
        if rng.random() < peer_fraction:
            topology.add_edge(provider, customer, Relationship.P2P)
        else:
            topology.add_edge(provider, customer, Relationship.P2C)
        edges.add((min(u, v), max(u, v)))

    for idx in range(1, num_nodes):
        u = order[idx]
        v = order[rng.randrange(idx)]
        add(u, v)

    attempts = 0
    max_attempts = 50 * target_edges + 100
    while len(edges) < target_edges and attempts < max_attempts:
        attempts += 1
        u, v = rng.sample(order, 2)
        if (min(u, v), max(u, v)) in edges:
            continue
        add(u, v)
    if len(edges) < target_edges:
        logger.warning("reached %d of %d requested edges", len(edges), target_edges)
    return topology


# ``parse_caida_asrel`` as it was written before its loop wrote adjacency rows
# directly: every line through ``Topology.add_edge``. Kept verbatim, but for
# its name, as the oracle for the parser, which must give the same rows, in
# the same key order at both levels, and the same error at the same line.
def reference_parse_caida_asrel(text: str) -> Topology:
    """Parse a serial-1 pipe-delimited AS relationship listing.

    Lines look like ``<as1>|<as2>|<rel>`` where rel -1 marks as1 as the
    provider of as2 and rel 0 marks a peering; comments follow ``_data_lines``.

    >>> t = parse_caida_asrel("1|2|-1\\n1|3|0  # a peering\\n")
    >>> assert t.relationship(1, 2) == Relationship.P2C
    >>> assert t.relationship(2, 1) == Relationship.C2P
    >>> assert t.relationship(3, 1) == Relationship.P2P
    """
    topology = Topology()
    count = 0
    for line_no, _, line in _data_lines(text):
        parts = line.split("|")
        if len(parts) < 3:
            raise TopologyParseError(f"expected <as1>|<as2>|<rel>, got {line!r}", line_no)
        try:
            as1, as2, rel_code = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise TopologyParseError(f"non-integer field in {line!r}", line_no) from None
        if rel_code == -1:
            rel = Relationship.P2C
        elif rel_code == 0:
            rel = Relationship.P2P
        else:
            raise TopologyParseError(f"unknown relationship code {rel_code}", line_no)
        try:
            topology.add_edge(as1, as2, rel)
        except EdgeConflictError as exc:
            raise TopologyParseError(str(exc), line_no) from None
        count += 1
    if logger.isEnabledFor(logging.INFO):  # num_edges walks every row
        logger.info("parsed %d relationship lines: %d nodes, %d edges",
                    count, topology.num_nodes, topology.num_edges)
    return topology


def conditional_nc(
    g: RGraph,
    routes: RoutingFunction,
    probs: RouteProbabilities,
    observations: Mapping[int, str],
) -> float:
    """The objective after folding in one concrete set of outcomes: the number
    of reporting nodes the observations leave pinned."""
    applied = apply_oracles(g, routes, probs, observations)
    return _certain_value(_scored_nodes(g), applied.routes)


def degree_attached_instance(
    idx: int, *, num_nodes: int, avg_degree: float, seed_base: int,
    peer_fraction: float = 0.15,
) -> AugmentedTopology:
    """Like ``random_instance``, but attached at the two highest-degree nodes
    (smallest id first among equal degrees), where most traffic can switch."""
    topo = derive_vf_policies(generate_random_topology(
        num_nodes, avg_degree=avg_degree, peer_fraction=peer_fraction,
        seed=seed_base + idx,
    ))
    picks = sorted(topo.nodes(), key=lambda x: (-len(topo.neighbors(x)), x))[:2]
    return attach_destination(
        topo, DestinationSpec(attachments={picks[0]: "m1", picks[1]: "m2"})
    )


def random_tie_probs(g, rng) -> dict[int, dict[int, float]]:
    """Positive, unequal tie probabilities for every node with two parents or more."""
    ties = {}
    for node, parents in g.parents.items():
        if len(parents) > 1:
            raw = [rng.uniform(0.1, 1.0) for _ in parents]
            ties[node] = {p: r / sum(raw) for p, r in zip(parents, raw)}
    return ties


# The two forward-pass rules as they were written before both read the
# chooser form: ``certain_inference`` with its own sweep and
# ``mixed_distribution`` with its own root-attached rule. Kept verbatim, but
# for their names, as the oracles for ``certain_inference``,
# ``probabilistic_inference`` and ``update_probabilistic_inference``, which
# must give the same floats in the same key order. With no route pinned,
# the forward pass is compared on ``collapse_to_choosers(g)``.
def reference_certain_inference(g: RGraph) -> RoutingFunction:
    """Assign an ingress to every node forced to it; None where uncertain.

    Nodes adjacent to the root are ground truth: they enter through their
    own attachment. Every other node inherits a label only when all of its
    parents share it. Unreachable nodes stay uncertain.
    """
    routes: RoutingFunction = {node: None for node in g.nodes}
    seeded = set()
    for child in g.children[g.root]:
        try:
            routes[child] = g.ingress_map[child]
        except KeyError:
            raise CatchmapError(
                f"node {child} is attached to the root but has no ingress label"
            ) from None
        seeded.add(child)
    for node in topological_order(g):
        if node == g.root or node in seeded:
            continue
        parent_routes = {routes[p] for p in g.parents[node]}
        if len(parent_routes) == 1:
            (only,) = parent_routes
            if only is not None:
                routes[node] = only
    return routes


def reference_mixed_distribution(
    g: RGraph,
    routes: Mapping[int, "str | None"],
    out: Mapping[int, dict[str, float]],
    node: int,
) -> dict[str, float]:
    """One node's distribution, from its parents' entries already in ``out``:
    the mixing rule of every forward pass."""
    if node == g.root:
        return {}
    assigned = routes.get(node)
    if assigned is not None:
        return {assigned: 1.0}
    parents = g.parents[node]
    if g.root in parents:
        # attached to the root: enters through its own attachment, as in
        # every exact pass (``RGraph.chooser_form``)
        return {g.ingress_map[node]: 1.0}
    mixed: dict[str, float] = {}
    for parent, weight in zip(parents, g.tie_weights(node)):
        if weight == 0.0:
            continue
        for ingress, p in out[parent].items():
            if p == 0.0:
                continue
            mixed[ingress] = mixed.get(ingress, 0.0) + weight * p
    return mixed


def reference_probabilistic_inference(g: RGraph, routes: RoutingFunction) -> RouteProbabilities:
    """The forward pass, one ``reference_mixed_distribution`` per node in
    ``topological_order(g)``."""
    out: RouteProbabilities = {}
    for node in topological_order(g):
        out[node] = reference_mixed_distribution(g, routes, out, node)
    return out


def random_dag(rng: random.Random) -> RGraph:
    """A random forwarding graph of 3–14 nodes rooted at 0, node ids shuffled
    against the topological order. About one node in five has no parent,
    although later nodes may still hear it; the others hear 1–3 earlier
    nodes, so a node attached to the root may hear other nodes too. Half the
    graphs are pruned to shortest paths, and then half get unequal tie
    weights."""
    size = rng.randint(3, 14)
    order = [0, *rng.sample(range(1, 3 * size), size - 1)]
    parents = {}
    for i, node in enumerate(order[1:], 1):
        if rng.random() >= 0.2:
            parents[node] = rng.sample(order[:i], rng.randint(1, min(3, i)))
    ingress = {n: rng.choice("abc") for n, ps in parents.items() if 0 in ps}
    g = RGraph.from_parent_map(0, ingress, parents, nodes=order)
    if rng.random() < 0.5:
        g = shortest_path_transform(g)
    if rng.random() < 0.5:
        g = g.with_tie_probs(random_tie_probs(g, rng))
    return g


def sampled_outcome(g: RGraph, rng: random.Random) -> dict[int, "str | None"]:
    """Every node's ingress under one tie-break drawn parent by parent, each
    parent equally likely: a node attached to the root enters through its
    own attachment, and a node without parents has no route."""
    outcome: dict[int, str | None] = {}
    for node in topological_order(g):
        parents = g.parents[node]
        if g.root in parents:
            outcome[node] = g.ingress_map[node]
        else:
            outcome[node] = outcome[rng.choice(parents)] if parents else None
    return outcome


# The rejection sampler as it was written before it drew each trial's
# numbers up front and rejected on the observations' ancestors first: one
# dict per trial, every node sampled before the check. Kept verbatim, but
# for its return value, as the oracle for ``monte_carlo_inference``: run on
# ``ancestor_subgraph(collapse_to_choosers(g), observed)`` with the same
# seed, it must give the nodes of that sub-graph the same floats, in the same
# per-node key order, and every other node must get ``forward_mix`` of those
# values.
def reference_monte_carlo(
    g: RGraph,
    trials: int = 10_000,
    seed: int = 0,
    oracles: Mapping[int, str] | None = None,
) -> tuple[RouteProbabilities, int, int]:
    """Sample tie-break outcomes, reject those contradicting observations.

    Returns ``(probs, trials, accepted)``. Deterministic for a given seed.
    Raises InfeasibleOracleError when every trial is rejected.
    """
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    observed = _check_observed(g, oracles)
    base: dict[int, str | None] = {n: None for n in g.nodes if not g.parents[n]}

    # per chooser: parent tuple and cumulative weights for inverse sampling;
    # root-attached nodes always take the direct edge (ground truth, no draw)
    schedule: list[tuple[int, tuple[int, ...], list[float]]] = []
    for n in topological_order(g):
        parents = g.parents[n]
        if not parents:
            continue
        if g.root in parents:
            schedule.append((n, (g.root,), [1.0]))
            continue
        cum = list(itertools.accumulate(g.tie_weights(n)))
        schedule.append((n, parents, cum))

    rng = random.Random(seed)
    counts: dict[int, dict[str, int]] = {n: {} for n in g.nodes}
    accepted = 0
    for _ in range(trials):
        ingress_of = dict(base)
        for n, parents, cum in schedule:
            if len(parents) > 1:
                idx = bisect.bisect_right(cum, rng.random())
                choice = parents[min(idx, len(parents) - 1)]
            else:
                choice = parents[0]
            if choice == g.root:
                ingress_of[n] = g.ingress_map[n]
            else:
                ingress_of[n] = ingress_of[choice]
        if any(ingress_of[x] != m for x, m in observed):
            continue
        accepted += 1
        for n, ingress in ingress_of.items():
            if ingress is not None:
                counts[n][ingress] = counts[n].get(ingress, 0) + 1
    if accepted == 0:
        raise InfeasibleOracleError(
            f"all {trials} sampled outcomes contradict the observations"
        )
    probs = {
        n: {ingress: c / accepted for ingress, c in dist.items()}
        for n, dist in counts.items()
    }
    return probs, trials, accepted


def ancestor_subgraph(g: RGraph, nodes: Iterable[int]) -> RGraph:
    """The sub-graph of ``g`` induced by ``nodes``, their ancestors and the
    root, found by one reverse pass over the topological order. Those nodes
    keep their parents and tie overrides, and every ingress label is kept,
    so the sub-graph has the same ingress points."""
    keep = set(nodes) | {g.root}
    for n in reversed(topological_order(g)):
        if n in keep:
            keep.update(g.parents[n])
    return RGraph.from_parent_map(
        g.root, g.ingress_map, {n: g.parents[n] for n in keep}, nodes=keep,
        tie_probs={n: ties for n, ties in g.tie_probs.items() if n in keep},
    )


def collapse_to_choosers(g: RGraph) -> RGraph:
    """``g`` with every node of two or more parents, none of them the root,
    that ``g.chooser_form`` does not make a chooser cut down to its parent
    latest in ``g.order``, its tie override dropped. Each cut node then
    becomes ready at the same step, so the collapsed graph has the same
    ``order``, and it has the same form: the oracles written before the
    form, which roll a tie-break for every node of two or more parents, run
    on it must give the floats the package gives on ``g``."""
    choosers = set(g.chooser_form.choosers)
    index = g.order_index
    cut = {
        n for n, ps in g.parents.items()
        if len(ps) > 1 and g.root not in ps and n not in choosers
    }
    parents = {
        n: (max(ps, key=index.__getitem__),) if n in cut else ps
        for n, ps in g.parents.items()
    }
    collapsed = RGraph.from_parent_map(
        g.root, g.ingress_map, parents, nodes=g.nodes, report_nodes=g.report_nodes,
        tie_probs={n: ties for n, ties in g.tie_probs.items() if n not in cut},
    )
    assert collapsed.order == g.order and collapsed.chooser_form == g.chooser_form
    return collapsed


def forward_mix(g: RGraph, given: RouteProbabilities) -> RouteProbabilities:
    """The forward pass with each entry of ``given`` taken as it is. Every
    other node the certainty pass pins gets all its mass on that ingress;
    the rest add up their parents' entries times the tie weights, parent by
    parent, skipping zero weights and zero entries."""
    routes = certain_inference(g)
    out: RouteProbabilities = {}
    for n in topological_order(g):
        if n in given:
            out[n] = given[n]
        elif routes[n] is not None:
            out[n] = {routes[n]: 1.0}
        else:
            mixed: dict[str, float] = {}
            for parent, weight in zip(g.parents[n], g.tie_weights(n)):
                for ingress, p in out[parent].items():
                    if weight and p:
                        mixed[ingress] = mixed.get(ingress, 0.0) + weight * p
            out[n] = mixed
    return out


def enumerate_route_outcomes(g: RGraph) -> Iterator[tuple[float, tuple["str | None", ...]]]:
    """Yield (probability, ingress per chooser of ``g.chooser_form``) for
    every tie-break combination of every chooser: the package's enumerator,
    each outcome copied out of the list it rewrites. Raises CapacityError,
    before yielding anything, when ``exact_limit`` rejects the graph."""
    for weight, picks in _outcomes(g, range(len(g.chooser_form.choosers))):
        yield weight, tuple(picks)


# Exact enumeration as it was written before the chooser form: one dict of
# every node per outcome. Kept verbatim, but for their names, the
# enumeration they call, every reporting node weighing 1 and the exact
# arithmetic ``reference_exact_nc`` can run in, as the oracles for
# ``enumerate_route_outcomes``, ``exact_conditional_distribution`` and
# ``expected_nc(mode="exact")``. Run on ``collapse_to_choosers(g)``, the
# outcomes must be the package's on ``g``; run on the ancestor sub-graph of
# the observations in it, the posterior must give the package's floats on
# ``g`` there, in the same per-node key order, and ``forward_mix`` of them
# everywhere else; ``expected_nc`` must be within 2 ulps of the exact value.
def reference_route_outcomes(g: RGraph) -> Iterator[tuple[float, dict[int, "str | None"]]]:
    """Yield (probability, node-to-ingress map) for every tie-break choice.

    Each outcome fixes one parent per node; its probability is the product
    of the graph's tie weights. A node directly attached to the root always
    takes the direct edge — its ingress is the scenario's ground truth, not
    a tie to roll — so it contributes no randomness. Zero-probability
    outcomes are skipped. Unreachable nodes and the root map to None.
    Raises CapacityError, before yielding anything, when ``exact_limit``
    rejects the graph.
    """
    reason = exact_limit(g)
    if reason is not None:
        raise CapacityError(reason)
    choosers: list[int] = []
    domains: list[tuple[tuple[int, float], ...]] = []
    for n in topological_order(g):
        parents = g.parents[n]
        if not parents:
            continue
        if g.root in parents:
            domains.append(((g.root, 1.0),))
        else:
            domains.append(tuple(zip(parents, g.tie_weights(n))))
        choosers.append(n)
    base: dict[int, str | None] = {
        n: None for n in g.nodes if not g.parents[n]
    }
    for combo in itertools.product(*domains):
        weight = 1.0
        for _, p in combo:
            weight *= p
        if weight == 0.0:
            continue
        ingress_of = dict(base)
        for n, (choice, _) in zip(choosers, combo):
            if choice == g.root:
                ingress_of[n] = g.ingress_map[n]
            else:
                ingress_of[n] = ingress_of[choice]
        yield weight, ingress_of


def reference_exact_posterior(
    g: RGraph, oracles: Mapping[int, str] | None = None
) -> RouteProbabilities:
    """Exact per-node posterior given the observations, by full enumeration.

    Conditions the tie-break outcome space on agreement with every
    observation and renormalizes. With no observations this equals the
    forward probabilistic pass. Guarded by ``exact_limit``.
    """
    observed = _check_observed(g, oracles)
    mass: dict[int, dict[str, float]] = {n: {} for n in g.nodes}
    total = 0.0
    for weight, ingress_of in reference_route_outcomes(g):
        if any(ingress_of[x] != m for x, m in observed):
            continue
        total += weight
        for n, ingress in ingress_of.items():
            if ingress is not None:
                mass[n][ingress] = mass[n].get(ingress, 0.0) + weight
    if total == 0.0:
        raise InfeasibleOracleError("observations rule out every tie-break outcome")
    return {
        n: {ingress: w / total for ingress, w in dist.items()}
        for n, dist in mass.items()
    }


def reference_exact_nc(
    g: RGraph,
    routes: RoutingFunction,
    measured: Iterable[int],
    *,
    exact: bool = False,
) -> float | Fraction:
    """``expected_nc(g, routes, probs, measured, mode="exact")`` by the
    dict-per-outcome loop: the expected objective after measuring the given
    nodes, conditioned on the already-pinned routes. With ``exact`` each
    outcome's mass is taken as the Fraction of its float, so every sum,
    share and product after it is exact."""
    num = Fraction if exact else float
    measured = sorted(set(measured))
    pinned = [(n, m) for n, m in sorted(routes.items()) if m is not None]

    # per joint outcome of the measured nodes: accumulated mass, and for every
    # reporting node either its constant ingress or a conflict marker
    signatures: dict[tuple, dict] = {}
    total = num(0)
    for mass, ingress_of in reference_route_outcomes(g):
        if any(ingress_of[n] != m for n, m in pinned):
            continue
        mass = num(mass)
        total += mass
        sig = tuple(ingress_of[n] for n in measured)
        entry = signatures.setdefault(sig, {"mass": num(0), "values": {}})
        entry["mass"] += mass
        values = entry["values"]
        for n in g.report_nodes:
            current = ingress_of[n]
            if n not in values:
                values[n] = current
            elif values[n] != current:
                values[n] = _CONFLICT
    if total == 0.0:
        raise InputError("pinned routes are inconsistent with the forwarding graph")

    value = num(0)
    for entry in signatures.values():
        nc = sum(
            num(1)
            for n, v in entry["values"].items()
            if v is not None and v is not _CONFLICT
        )
        value += (entry["mass"] / total) * nc
    return value


_CONFLICT = object()


# The greedy planner as it was written before each branch carried its value:
# every branch priced by an ordered scan of all reporting nodes, and the
# initial forward pass always computed. Kept verbatim, but for the names of
# ``reference_greedy_plan`` and its cone update and for every reporting node
# weighing 1, as the oracle for ``greedy_plan``, ``expected_nc(mode="approx")``
# and ``random_plan_values(mode="approx")``, which must give the same floats
# for every instance, with or without measurement costs. ``_replay`` with
# ``_initial_branches`` is the approximate ``expected_nc``. Each branch holds
# whole maps: ``apply_oracles``' full ``routes`` and the full forward pass of
# ``reference_update_probabilistic_inference``, the package's cone update as
# it was while it returned the whole pass.
def reference_update_probabilistic_inference(
    g: RGraph,
    probs: RouteProbabilities,
    routes: RoutingFunction,
    pinned: Iterable[int],
) -> RouteProbabilities:
    """The forward pass for ``routes``, derived from the one for older routes.

    ``probs`` must be ``probabilistic_inference(g, old_routes)`` and
    ``routes`` may differ from ``old_routes`` only at the ``pinned`` nodes.
    Only those nodes and their descendants are recomputed, in a topological
    order of that cone; every other entry is shared with ``probs``, which is
    not modified. The result equals ``probabilistic_inference(g, routes)``
    float for float.
    """
    out = dict(probs)
    for node in _cone_order(g, pinned):
        out[node] = reference_mixed_distribution(g, routes, out, node)
    return out


def _scored_nodes(g: RGraph) -> list[tuple[int, float]]:
    """``(node, 1.0)`` for every reporting node, in ``report_nodes`` order."""
    return [(n, 1.0) for n in g.report_nodes]


def _certain_value(
    scored: list[tuple[int, float]], routes: RoutingFunction
) -> float:
    return sum(w for n, w in scored if routes.get(n) is not None)


@dataclass
class _Branch:
    """One combination of outcomes, with its probability and inference state.

    ``probs`` weighs the outcomes of the next measurement and guides
    observation propagation; ``forward`` is the forward pass of ``routes``.
    They are the same object except in the initial branch, whose ``probs``
    are the caller's (possibly conditioned on earlier observations).
    Branches share dictionaries with each other and never mutate them.
    """

    prob: float
    routes: RoutingFunction
    probs: RouteProbabilities
    forward: RouteProbabilities


def _initial_branches(
    g: RGraph, routes: RoutingFunction, probs: RouteProbabilities
) -> list[_Branch]:
    return [_Branch(1.0, routes, probs, probabilistic_inference(g, routes))]


def _extend_branches(
    g: RGraph, branches: list[_Branch], node: int
) -> list[_Branch]:
    """Split every branch on the possible outcomes of measuring ``node``.

    Each outcome is folded in and the distributions of still-uncertain nodes
    are recomputed forward with the graph's tie weights (their parent sets
    are untouched by new certainty); only the nodes the outcome pinned and
    those below them can change. Zero-probability outcomes are dropped.
    Measuring a node with no possible route changes nothing.
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
            refreshed = reference_update_probabilistic_inference(
                g, branch.forward, applied.routes, applied.pins
            )
            out.append(
                _Branch(branch.prob * p, applied.routes, refreshed, refreshed)
            )
    return out


def _branch_value(
    branches: list[_Branch], scored: list[tuple[int, float]]
) -> float:
    return sum(b.prob * _certain_value(scored, b.routes) for b in branches)


def _replay(
    g: RGraph,
    branches: list[_Branch],
    measured: list[int],
    scored: list[tuple[int, float]],
) -> float:
    """Value of measuring ``measured`` in order, starting from ``branches``."""
    for node in measured:
        branches = _extend_branches(g, branches, node)
    return _branch_value(branches, scored)


def reference_greedy_plan(
    g: RGraph,
    routes: RoutingFunction,
    probs: RouteProbabilities,
    candidates: Iterable[int],
    budget: float,
    *,
    costs: Mapping[int, float] | None = None,
) -> MeasurementPlan:
    """Pick measurements one at a time, each maximizing the expected objective.

    Ties go to the smallest node id. Selection stops when the budget cannot
    afford any remaining candidate. Nodes that cannot be usefully measured
    (the destination, unreachable nodes) are set aside with a note.
    """
    if budget < 0:
        raise InputError(f"budget must be non-negative, got {budget}")
    costs = costs or {}
    pool, notes = _prepare_candidates(g, routes, probs, candidates)
    scored = _scored_nodes(g)
    baseline = _certain_value(scored, routes)
    if not pool and budget > 0:
        notes.append("no measurable candidates; empty plan")

    branches = _initial_branches(g, routes, probs)
    selected: list[int] = []
    step_values: list[float] = []
    remaining = float(budget)
    while True:
        affordable = [n for n in pool if n not in selected and costs.get(n, 1.0) <= remaining]
        if not affordable:
            break
        best_node, best_value, best_branches = None, -math.inf, None
        for node in affordable:
            trial = _extend_branches(g, branches, node)
            value = _branch_value(trial, scored)
            if value > best_value:
                best_node, best_value, best_branches = node, value, trial
        selected.append(best_node)
        step_values.append(best_value)
        branches = best_branches
        remaining -= costs.get(best_node, 1.0)
    return MeasurementPlan(
        selected=tuple(selected),
        step_values=tuple(step_values),
        baseline_value=baseline,
        budget=budget,
        method="greedy",
        notes=tuple(notes),
    )


def reference_approx_nc(
    g: RGraph,
    routes: RoutingFunction,
    probs: RouteProbabilities,
    measured: Iterable[int],
) -> float:
    """``expected_nc(g, routes, probs, measured, mode="approx")`` by the
    scan-priced branches above."""
    scored = _scored_nodes(g)
    initial = _initial_branches(g, routes, probs)
    return _replay(g, initial, sorted(set(measured)), scored)


# ``ScenarioReport.to_json`` as it was written before it wrote the per-node
# maps row by row: one ``json.dumps`` of the whole document. Kept verbatim,
# but for its name, as the oracle for ``to_json``, which must give the same
# bytes for every report.
def reference_report_json(self: ScenarioReport) -> str:
    doc = {
        "config": self.config,
        "stages": list(self.stages),
        "ingress_points": list(self.ingress_points),
        "node_count": len(self.nodes),
        "routes": {str(n): self.routes[n] for n in self.nodes},
        "probs": (
            {
                str(n): {m: p for m, p in sorted(self.probs[n].items())}
                for n in self.nodes
            }
            if self.probs is not None
            else None
        ),
        "prob_status": (
            {str(n): self.prob_status[n] for n in self.nodes}
            if self.prob_status is not None
            else None
        ),
        "certain_counts": self.certain_counts,
        "uncertain_count": self.uncertain_count,
        "bounds": {m: list(b) for m, b in self.bounds.items()},
        "expected_loads": self.expected_loads,
        "probability_mass_deficit": {
            str(n): v for n, v in sorted(self.probability_mass_deficit.items())
        },
        "set_route_calls": self.set_route_calls,
        "plan": (
            {
                "selected": list(self.plan.selected),
                "step_values": list(self.plan.step_values),
                "baseline_value": self.plan.baseline_value,
                "budget": self.plan.budget,
                "method": self.plan.method,
                "notes": list(self.plan.notes),
            }
            if self.plan is not None
            else None
        ),
        "rgraph": {"nodes": self.rgraph_nodes, "edges": self.rgraph_edges},
        "seed": self.seed,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ``ScenarioReport.to_node_csv`` as it was written before it formatted each
# distinct row once. Kept verbatim, but for its name, as the oracle for
# ``to_node_csv``, which must give the same bytes for every report.
def reference_node_csv(self: ScenarioReport) -> str:
    """Rows ``node,route,pi_<ingress>...,status`` over the report universe.
    No ingress name holds a comma, a quote or a line break, so no cell
    needs quoting."""
    cols = ["node", "route"]
    cols += [f"pi_{m}" for m in self.ingress_points]
    cols += ["status"]
    lines = [",".join(cols)]
    for n in self.nodes:
        row = [str(n), self.routes[n] or ""]
        for m in self.ingress_points:
            if self.probs is None:
                row.append("")
            else:
                row.append(repr(self.probs[n].get(m, 0.0)))
        row.append(self.prob_status[n] if self.prob_status else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# The graph derivations as they were written before ``RGraph`` had a
# constructor for input that is already normalised: the pruned graph made by
# the normalising constructor, and each export sorting the edges again. The
# oracles for ``shortest_path_transform``, ``rgraph_edgelist`` and
# ``rgraph_dot``, which must give the same graphs and bytes.
def reference_shortest_path_transform(g: RGraph) -> RGraph:
    level: dict[int, float] = {}
    for node in topological_order(g):
        if node == g.root:
            level[node] = 0.0
            continue
        level[node] = min(
            (level[p] + 1.0 for p in g.parents[node]), default=math.inf
        )
    pruned = {
        node: tuple(p for p in parents if not level[p] + 1.0 > level[node])
        for node, parents in g.parents.items()
    }
    return RGraph.from_parent_map(
        g.root, g.ingress_map, pruned,
        nodes=g.nodes, report_nodes=g.report_nodes, tie_probs=g.tie_probs,
    )


def reference_rgraph_edgelist(g: RGraph) -> str:
    return "".join(f"{p} {c}\n" for p, c in sorted(g.edges()))


def reference_rgraph_dot(g: RGraph) -> str:
    lines = ["digraph forwarding {", "  rankdir=TB;"]
    report = set(g.report_nodes)
    for node in g.nodes:
        if node == g.root:
            lines.append(f'  "{node}" [label="dst {node}" shape=doublecircle];')
        elif node in g.ingress_map:
            lines.append(f'  "{node}" [label="{node}\\n{g.ingress_map[node]}" shape=box];')
        elif node not in report:
            lines.append(f'  "{node}" [label="{node}" style=dashed];')
        else:
            lines.append(f'  "{node}" [label="{node}"];')
    for parent, child in sorted(g.edges()):
        lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def assert_same_graph(got: RGraph, want: RGraph) -> None:
    """Field for field, with the parents' key order."""
    assert list(got.parents.items()) == list(want.parents.items())
    assert got.children == want.children
    assert (got.root, got.ingress_map, got.nodes, got.report_nodes, got.order) == (
        want.root, want.ingress_map, want.nodes, want.report_nodes, want.order
    )
    assert got.tie_probs == want.tie_probs


# The scenario pipeline as it was written before it became ``Scenario``, a
# chain of stages computed once: one function from the augmented topology to
# the report, a sweep that ran it on a config with its observations and plan
# removed, and their helpers. Kept verbatim, as the oracles for
# ``run_scenario`` and ``prepending_sweep``, but for their names, for the plan
# inputs, which the function returns instead of storing them on the report,
# and for reading the applied observations' routes and distributions by
# name, since ``OracleApplication`` no longer unpacks.
def reference_load_oracles(cfg: ScenarioConfig) -> dict[int, str] | None:
    if cfg.oracle_text is not None:
        return parse_oracle_file(cfg.oracle_text)
    if cfg.oracle_file is not None:
        return parse_oracle_file(Path(cfg.oracle_file).read_text())
    return None


def reference_check_methods(cfg: ScenarioConfig) -> None:
    """Raise InputError for a mode or posterior method no stage knows."""
    if cfg.mode not in _MODES:
        raise InputError(f"unknown mode {cfg.mode!r}")
    if cfg.posterior is not None and cfg.posterior not in _POSTERIORS:
        raise InputError(f"unknown posterior method {cfg.posterior!r}")


def reference_run_scenario(
    cfg: ScenarioConfig, aug: AugmentedTopology
) -> tuple[ScenarioReport, RGraph, tuple | None]:
    """``run_scenario`` from the augmented topology on."""
    stages = ["attach-destination"]
    g = build_rgraph(aug)
    stages.append("forwarding-graph")
    if cfg.sp:
        g = shortest_path_transform(g)
        stages.append("shortest-path-pruning")

    routes = certain_inference(g)
    stages.append("certain-inference")

    oracles = reference_load_oracles(cfg)
    want_probs = (
        cfg.mode == "probabilistic" or bool(oracles) or cfg.plan_budget is not None
    )
    probs: RouteProbabilities | None = None
    prob_status: dict[int, str] | None = None
    set_route_calls: int | None = None

    if want_probs:
        probs = probabilistic_inference(g, routes)
        stages.append("probabilistic-inference")

    if oracles:
        applied = apply_oracles(g, routes, probs, oracles)
        set_route_calls = applied.set_route_calls
        stages.append("observation-propagation")
        if cfg.mode == "probabilistic":
            method = cfg.posterior
            if method is None:
                method = "exact" if exact_limit(g) is None else "monte-carlo"
            if method == "exact":
                probs = exact_conditional_distribution(g, oracles)
                stages.append("posterior-exact")
                status = "posterior-exact"
            else:
                estimate = monte_carlo_inference(
                    g, cfg.posterior_trials, cfg.seed, oracles, prior=(routes, probs)
                )
                probs = estimate.probs
                logger.debug(
                    "monte carlo posterior: %d trials, %d accepted, "
                    "%d of %d nodes in the observations' ancestor closure, "
                    "%d choosers sampled, %d nodes mixed exactly",
                    estimate.trials, estimate.accepted, estimate.ancestors,
                    len(g.nodes), estimate.draws_per_trial,
                    len(g.nodes) - estimate.ancestors,
                )
                stages.append("posterior-sampling")
                status = "posterior-sampled"
            routes = applied.routes
            prob_status = dict.fromkeys(g.report_nodes, status)
        else:
            # a node still uncertain keeps its distribution from before the
            # observations, which does not condition on them
            routes, probs = applied.routes, applied.probs
            prob_status = {
                n: "exact" if routes[n] is not None else "pre-observation"
                for n in g.report_nodes
            }
    elif probs is not None:
        prob_status = dict.fromkeys(g.report_nodes, "exact")

    universe = g.report_nodes
    routes_view = {n: routes[n] for n in universe}
    probs_view = {n: probs.get(n, {}) for n in universe} if probs is not None else None

    bounds = catchment_bounds(routes_view, g.ingress_points)
    certain_counts = {m: lower for m, (lower, _) in bounds.items()}
    uncertain = len(universe) - sum(certain_counts.values())

    loads = None
    deficit: dict[int, float] = {}
    if probs_view is not None:
        # an ingress point no node can reach still gets its (zero) load
        loads = dict.fromkeys(g.ingress_points, 0.0)
        loads.update(expected_load(probs_view, {n: 1.0 for n in universe}))
        for n in universe:
            mass = sum(probs_view[n].values())
            if mass < 1.0 - 1e-9:
                deficit[n] = mass

    plan: MeasurementPlan | None = None
    plan_inputs = None
    if cfg.plan_budget is not None:
        if cfg.plan_candidates is not None:
            candidates: tuple[int, ...] = cfg.plan_candidates
        else:
            candidates = tuple(
                n for n in universe if routes.get(n) is None and probs.get(n)
            )
        # with no observation applied, probs is the forward pass of routes
        plan = greedy_plan(
            g, routes, probs, candidates, cfg.plan_budget,
            forward=None if oracles else probs,
        )
        plan_inputs = (routes, probs, candidates)
        stages.append("measurement-planning")

    report = ScenarioReport(
        config=cfg.echo(),
        stages=tuple(stages),
        ingress_points=g.ingress_points,
        nodes=universe,
        routes=routes_view,
        probs=probs_view,
        prob_status=prob_status,
        certain_counts=certain_counts,
        uncertain_count=uncertain,
        bounds=bounds,
        expected_loads=loads,
        probability_mass_deficit=deficit,
        set_route_calls=set_route_calls,
        plan=plan,
        rgraph_nodes=len(g.nodes),
        rgraph_edges=g.num_edges,
        seed=cfg.seed,
    )
    return report, g, plan_inputs


def reference_prepending_sweep(
    cfg: ScenarioConfig, ingress: str, k_max: int
) -> list[dict]:
    """Certain catchments for every prepend length 0..k_max at one ingress.

    Entry k holds what ``run_scenario`` reports once ``prepend <ingress> <k>``
    is added to the config, with its observations and plan left out. The
    augmented topology is built once; each k pads it with
    ``apply_prepending`` and runs the rest of the pipeline. Without
    shortest-path preference the chain cannot change any original node's
    options, so all entries match k=0 there (lengths do not matter to
    eligibility).
    """
    reference_check_methods(cfg)
    if k_max < 0:
        raise InputError(f"k_max must be >= 0, got {k_max}")
    aug = build_augmented(cfg)
    plain = replace(cfg, oracle_file=None, oracle_text=None, plan_budget=None)
    entries = []
    for k in range(k_max + 1):
        report, _, _ = reference_run_scenario(plain, apply_prepending(aug, ingress, k))
        entry: dict = {
            "k": k,
            "certain_counts": report.certain_counts,
            "uncertain": report.uncertain_count,
            "bounds": {m: list(b) for m, b in report.bounds.items()},
        }
        if report.expected_loads is not None:
            entry["expected_sizes"] = report.expected_loads
        entry["routes"] = {str(n): r for n, r in report.routes.items()}
        entries.append(entry)
    return entries
