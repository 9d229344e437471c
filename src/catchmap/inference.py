"""Catchment inference on a forwarding graph.

Two passes over the same DAG, both reading its chooser form: a certainty
pass that reads the form's fixed ingresses, and a probabilistic pass that
mixes parent distributions with per-edge tie-break probabilities. When
more nodes get pinned later, the probabilistic pass is redone on the cone
below them only.

The shortest-path transform prunes edges that cannot lie on a
minimum-length route, for scenarios where routers break preference ties by
path length before anything random happens.
"""
from __future__ import annotations

import logging
from typing import Iterable, Mapping

from .errors import InputError
from .rgraph import RGraph, topological_order

logger = logging.getLogger(__name__)

RoutingFunction = dict[int, "str | None"]
RouteProbabilities = dict[int, dict[str, float]]


def certain_inference(g: RGraph) -> RoutingFunction:
    """Assign an ingress to every node forced to it; None where uncertain.

    Reads ``g.chooser_form``: a node is certain exactly when the form fixes
    it to an ingress, since a chooser can end up at two, or at one and none.
    """
    fixed = g.chooser_form.fixed
    return {n: fixed.get(n) for n in g.nodes}


def mixed_distribution(
    g: RGraph,
    routes: Mapping[int, "str | None"],
    out: Mapping[int, dict[str, float]],
    node: int,
) -> dict[str, float]:
    """One node's distribution, from its parents' entries already in ``out``:
    the mixing rule of every forward pass. A node that ``routes`` pins, or
    that ``g.chooser_form`` fixes, gets all its mass on that ingress, and an
    unreachable node none: the shared dict of ``g.point_masses``, which
    must not be mutated (a fresh one for an ingress outside
    ``g.ingress_points``). ``routes`` must agree with every fixed ingress.
    Every other node mixes its parents' entries by ``g.tie_weights``."""
    assigned = routes.get(node)
    if assigned is not None:
        shared = g.point_masses.get(assigned)
        return {assigned: 1.0} if shared is None else shared
    fixed = g.chooser_form.fixed
    if node in fixed:
        return g.point_masses[fixed[node]]
    mixed: dict[str, float] = {}
    for parent, weight in zip(g.parents[node], g.tie_weights(node)):
        if weight == 0.0:
            continue
        for ingress, p in out[parent].items():
            if p == 0.0:
                continue
            mixed[ingress] = mixed.get(ingress, 0.0) + weight * p
    return mixed


def probabilistic_inference(g: RGraph, routes: RoutingFunction) -> RouteProbabilities:
    """Per-node distribution over ingress points: ``mixed_distribution`` of
    every node in ``topological_order(g)``. Fixed and pinned nodes share
    the dicts of ``g.point_masses``, so no entry may be mutated."""
    out: RouteProbabilities = {}
    for node in topological_order(g):
        out[node] = mixed_distribution(g, routes, out, node)
    return out


def update_probabilistic_inference(
    g: RGraph,
    probs: Mapping[int, dict[str, float]],
    routes: Mapping[int, "str | None"],
    pinned: Iterable[int],
    *,
    given: Mapping[int, dict[str, float]] | None = None,
) -> RouteProbabilities:
    """The entries of the forward pass for ``routes`` that can differ from ``probs``.

    ``probs`` must be ``probabilistic_inference(g, old_routes)`` and
    ``routes`` may differ from ``old_routes`` only at the ``pinned`` nodes.
    Only those nodes and their descendants can change: the result maps each
    of them, in ``topological_order(g)``, to its recomputed entry,
    so ``{**probs, **result}`` equals ``probabilistic_inference(g, routes)``
    float for float. Both inputs are read by lookup only, never copied,
    scanned or modified. ``given`` fixes the entries of some cone nodes
    instead of mixing them; the result then starts with them, the
    recomputed entries follow, and the nodes below read them.
    """
    out: RouteProbabilities = dict(given or {})
    view = _Overlay(out, probs)
    for node in _cone_order(g, pinned):
        if node not in out:
            out[node] = mixed_distribution(g, routes, view, node)
    return out


class _Overlay:
    """Read-only view of ``delta`` laid over ``base``: a key in ``delta``
    hides the same key in ``base``. A lookup is at most two dictionary
    probes; the view never copies or scans either mapping."""

    __slots__ = ("delta", "base")

    def __init__(self, delta: Mapping, base: Mapping) -> None:
        self.delta = delta
        self.base = base

    def __getitem__(self, key):
        delta = self.delta
        return delta[key] if key in delta else self.base[key]

    def get(self, key, default=None):
        delta = self.delta
        return delta[key] if key in delta else self.base.get(key, default)


def _reach(links: Mapping[int, tuple[int, ...]], sources: Iterable[int]) -> set[int]:
    """``sources`` and every node they reach along ``links``: ``g.children``
    for the nodes below them, ``g.parents`` for their ancestors."""
    reached: set[int] = set()
    stack = list(sources)
    while stack:
        node = stack.pop()
        if node not in reached:
            reached.add(node)
            stack.extend(links[node])
    return reached


def _cone_order(g: RGraph, sources: Iterable[int]) -> list[int]:
    """``sources`` and every node below them, in ``g.order``."""
    return sorted(_reach(g.children, sources), key=g.order_index.__getitem__)


def shortest_path_transform(g: RGraph) -> RGraph:
    """Drop parent edges that cannot start a minimum-length route to the root.

    Node levels (hops from the root) come from one breadth-first pass over
    the child lists; an edge from parent j survives only if going through j
    achieves the node's level. Only a node with two or more parents can lose
    an edge. A node the root does not reach keeps its edges.
    """
    level = {g.root: 0}
    queue = [g.root]
    children = g.children
    for node in queue:
        below = level[node] + 1
        for child in children[node]:
            if child not in level:
                level[child] = below
                queue.append(child)
    # a filtered sorted tuple stays sorted, so the graph needs no normalising
    pruned: dict[int, tuple[int, ...]] = {}
    for node, parents in g.parents.items():
        if len(parents) > 1 and node in level:
            above = level[node] - 1
            parents = tuple(p for p in parents if level.get(p) == above)
        pruned[node] = parents
    if logger.isEnabledFor(logging.DEBUG):
        kept = sum(len(p) for p in pruned.values())
        logger.debug("shortest-path pruning kept %d of %d edges", kept, g.num_edges)
    return RGraph(g.root, g.ingress_map, pruned, g.report_nodes, g.tie_probs)


def expected_load(
    probs: RouteProbabilities, traffic: Mapping[int, float]
) -> dict[str, float]:
    """Expected traffic volume arriving at each ingress.

    Sums each node's volume weighted by its routing distribution. Volumes
    must be non-negative and every node with traffic must have a
    distribution (possibly empty, contributing nothing).
    """
    load: dict[str, float] = {}
    for node, volume in traffic.items():
        if volume < 0:
            raise InputError(f"negative traffic volume for node {node}")
        if node not in probs:
            raise InputError(f"traffic for node {node} which has no distribution")
        for ingress, p in probs[node].items():
            load[ingress] = load.get(ingress, 0.0) + volume * p
    return load


def catchment_bounds(
    routes: Mapping[int, "str | None"],
    ingress_points: tuple[str, ...] | list[str],
) -> dict[str, tuple[int, int]]:
    """Per-ingress [lower, upper] bounds on catchment size.

    ``routes`` must cover exactly the nodes being counted (the reporting
    universe). The lower bound counts nodes pinned to the ingress; the
    upper bound concedes every node not pinned elsewhere.
    """
    total = len(routes)
    lower = {m: 0 for m in ingress_points}
    for node, ingress in routes.items():
        if ingress is None:
            continue
        if ingress not in lower:
            raise InputError(f"node {node} pinned to unknown ingress {ingress!r}")
        lower[ingress] += 1
    pinned = sum(lower.values())
    return {
        m: (lower[m], total - (pinned - lower[m]))
        for m in ingress_points
    }
