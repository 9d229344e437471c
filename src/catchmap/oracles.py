"""Refining inferred catchments with measured ground truth.

A measurement oracle pins one node to one ingress. Applying it does more
than record the fact: certainty propagates upward (when only one possible
next hop could have produced the observation) and downward (when a node's
possible next hops all became certain and agree). The propagation touches
each node at most once per application.

Posterior distributions conditioned on a set of observations come from one
pass. It rolls ties only at the choosers of ``RGraph.chooser_form`` among
the observed nodes and their ancestors, weighing every combination of them
(exact, small graphs only) or seeded draws (Monte Carlo), and mixes every
other node exactly; without observations it is the forward pass.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    CapacityError,
    ContradictionError,
    InfeasibleOracleError,
    InputError,
    TopologyParseError,
    UnknownNodeError,
)
from .inference import (
    RouteProbabilities,
    RoutingFunction,
    _reach,
    certain_inference,
    probabilistic_inference,
    update_probabilistic_inference,
)
from .rgraph import RGraph, exact_limit, topological_order
from .topology import _data_lines

PROVENANCE_TAGS = ("bgp-rib", "traceroute", "ping", "synthetic")


def parse_oracle_file(text: str) -> dict[int, str]:
    """Parse observation lines into node -> ingress, in file order.

    Plain form: ``node,ingress[,provenance]``. Path form:
    ``path:<space-separated nodes>,ingress[,provenance]`` which pins every
    node on the path, since each of them forwards along the same suffix.
    The provenance, when given, must be one of ``PROVENANCE_TAGS``; it is
    checked and not kept. Comments follow ``topology._data_lines``. A path
    that visits a node twice is a parse error, since no forwarding path
    loops, and so is repeating a node with a different ingress.

    >>> parse_oracle_file("7,m1,ping\\npath:8 5 2,m2\\n")
    {7: 'm1', 8: 'm2', 5: 'm2', 2: 'm2'}
    """
    assignments: dict[int, str] = {}
    for line_no, raw, line in _data_lines(text):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (2, 3) or not parts[1]:
            raise TopologyParseError(
                f"expected node,ingress[,provenance], got {raw!r}", line_no
            )
        ingress = parts[1]
        if parts[0].startswith("path:"):
            try:
                nodes = [int(tok) for tok in parts[0][len("path:"):].split()]
            except ValueError:
                raise TopologyParseError(
                    f"non-integer node in path {parts[0]!r}", line_no
                ) from None
            if not nodes:
                raise TopologyParseError("empty path", line_no)
            if len(set(nodes)) < len(nodes):
                repeated = next(n for i, n in enumerate(nodes) if n in nodes[:i])
                raise TopologyParseError(
                    f"path {parts[0]!r} visits node {repeated} twice", line_no
                )
        else:
            try:
                nodes = [int(parts[0])]
            except ValueError:
                raise TopologyParseError(
                    f"non-integer node id {parts[0]!r}", line_no
                ) from None
        if len(parts) == 3 and parts[2] not in PROVENANCE_TAGS:
            raise TopologyParseError(
                f"unknown provenance {parts[2]!r}; expected one of "
                f"{', '.join(PROVENANCE_TAGS)}",
                line_no,
            )
        for node in nodes:
            if assignments.get(node, ingress) != ingress:
                raise TopologyParseError(
                    f"node {node} assigned to both {assignments[node]!r} "
                    f"and {ingress!r}",
                    line_no,
                )
            assignments[node] = ingress
    return assignments


@dataclass(frozen=True)
class OracleApplication:
    """Result of folding observations into an inference state.

    ``pins`` maps each node the propagation pinned to its ingress, in the
    order it pinned them (at most one step per node); ``set_route_calls`` is
    their number. A pinned node's distribution is ``{ingress: 1.0}``, so the
    pins describe the whole change. ``routes`` and ``probs`` are the inputs
    with the pins laid over them, built on first read. ``probs`` shares
    every entry the pins left unchanged with the input distributions, so
    treat it as read-only: a node still uncertain keeps its distribution
    from before the observations, which does not condition on them.
    """

    base_routes: Mapping[int, "str | None"] = field(repr=False, compare=False)
    base_probs: Mapping[int, dict[str, float]] = field(repr=False, compare=False)
    pins: dict[int, str] = field(default_factory=dict)

    @property
    def set_route_calls(self) -> int:
        return len(self.pins)

    @functools.cached_property
    def routes(self) -> RoutingFunction:
        routes = dict(self.base_routes)
        routes.update(self.pins)
        return routes

    @functools.cached_property
    def probs(self) -> RouteProbabilities:
        probs = dict(self.base_probs)
        for node, ingress in self.pins.items():
            probs[node] = {ingress: 1.0}
        return probs


def apply_oracles(
    g: RGraph,
    routes: Mapping[int, "str | None"],
    probs: Mapping[int, dict[str, float]],
    oracles: Mapping[int, str],
) -> OracleApplication:
    """Pin observed nodes and propagate the certainty both ways.

    Upward: if exactly one parent of an observed node could have carried
    its ingress, that parent is pinned too. Downward: a node whose parents
    all became pinned to the same ingress is pinned. Inputs are read by
    lookup only (``get``), never copied or mutated, so the work is
    proportional to the pins and their neighbours; the returned
    distributions share their unchanged entries with ``probs``. Applying the
    same observations again changes nothing.

    Observations are applied one at a time, in ascending node id, so the
    mapping's own order does not matter. That order is not neutral: an
    earlier observation's pins can remove carriers from a later one's
    upward walk, so applying the same observations in another order can
    pin a different set (on one 10,000-node graph, 5,594 nodes instead of
    6,413).

    Raises UnknownNodeError, before pinning anything, when an observation
    names a node or ingress the graph does not have; ContradictionError when
    an observation, or its propagation, disagrees with a certain node; and
    InfeasibleOracleError when an observation has probability zero under
    the current distributions.
    """
    observed = _check_observed(g, oracles)
    pins: dict[int, str] = {}

    def route(node: int) -> "str | None":
        return pins[node] if node in pins else routes.get(node)

    def can_carry(node: int, ingress: str) -> bool:
        if node in pins:
            return pins[node] == ingress
        return probs.get(node, {}).get(ingress, 0.0) > 0.0

    for node, ingress in observed:
        current = route(node)
        if current is not None and current != ingress:
            raise ContradictionError(
                f"observation pins node {node} to {ingress!r} but it is "
                f"certainly routed to {current!r}"
            )
        if current != ingress and not can_carry(node, ingress):
            raise InfeasibleOracleError(
                f"observation {node}->{ingress!r} has probability zero"
            )

        # depth-first propagation; each entry re-checks on pop because an
        # earlier branch may already have resolved it
        stack: list[tuple[int, str]] = [(node, ingress)]
        while stack:
            current_node, current_ingress = stack.pop()
            already = route(current_node)
            if already is not None:
                if already != current_ingress:
                    raise ContradictionError(
                        f"propagation would pin node {current_node} to both "
                        f"{already!r} and {current_ingress!r}"
                    )
                continue
            pins[current_node] = current_ingress

            carriers = [
                p for p in g.parents[current_node] if can_carry(p, current_ingress)
            ]
            if len(carriers) == 1 and route(carriers[0]) is None:
                stack.append((carriers[0], current_ingress))

            for child in g.children[current_node]:
                if route(child) is not None:
                    continue
                parent_routes = {route(p) for p in g.parents[child]}
                if len(parent_routes) == 1:
                    (only,) = parent_routes
                    if only is not None:
                        stack.append((child, only))

    return OracleApplication(base_routes=routes, base_probs=probs, pins=pins)


# -- conditional distributions -------------------------------------------------


def _outcomes(g: RGraph, positions: Iterable[int]) -> Iterator[tuple[float, list]]:
    """Yield (probability, picks) for every tie-break combination of the
    choosers at ``positions`` (ascending) of ``g.chooser_form``: ``picks``
    holds one ingress per chooser in the form's order, and is one list
    rewritten for every outcome, so a reader that keeps one must copy it.
    Zero-probability outcomes are skipped. Raises CapacityError, before
    yielding anything, when ``exact_limit`` rejects the graph."""
    reason = exact_limit(g)
    if reason is not None:
        raise CapacityError(reason)
    form = g.chooser_form
    # each choice carries its chooser's position, to fill ``picks`` in place
    choosers = [(i, form.choosers[i]) for i in positions]
    domains = [tuple((i, p, w) for p, w in zip(g.parents[c], g.tie_weights(c))) for i, c in choosers]
    picks: list[str | None] = [None] * len(form.choosers)
    for combo in itertools.product(*domains):
        weight = 1.0
        for _, _, w in combo:
            weight *= w
        if weight == 0.0:
            continue
        for i, parent, _ in combo:
            picks[i] = form.ingress(picks, parent)
        yield weight, picks


def _draws(g: RGraph, positions: Iterable[int], trials: int, seed: int) -> Iterator[tuple]:
    """``trials`` seeded draws of the choosers at ``positions``, each of
    weight one and yielded as ``_outcomes`` yields: one ``random()`` per
    chooser, in the form's order."""
    form = g.chooser_form
    draws = []
    for i in positions:
        c = form.choosers[i]
        draws.append((i, g.parents[c], list(itertools.accumulate(g.tie_weights(c)))))
    # a chooser's parents copy only earlier choosers, so each trial
    # overwrites every entry it reads before reading it
    picks: list[str | None] = [None] * len(form.choosers)
    rng = random.Random(seed)
    for _ in range(trials):
        for i, parents, cum in draws:
            # a draw at or past a cumulative total that rounded below 1
            # takes the last parent
            parent = parents[min(bisect.bisect_right(cum, rng.random()), len(parents) - 1)]
            picks[i] = form.ingress(picks, parent)
        yield 1.0, picks


def _check_observed(
    g: RGraph, oracles: Mapping[int, str] | None
) -> list[tuple[int, str]]:
    """Observations as sorted ``(node, ingress)`` pairs, every one checked to
    name a node of ``g`` and one of its ingress points."""
    pairs = sorted(oracles.items()) if oracles else []
    for node, ingress in pairs:
        if node not in g.parents:
            raise UnknownNodeError(f"observed node {node} not in forwarding graph")
        if ingress not in g.ingress_points:
            raise UnknownNodeError(f"observation names unknown ingress {ingress!r}")
    return pairs


def outcomes_keeping(
    g: RGraph, pins: list[tuple[int, str]], outcomes: Iterable[tuple[float, list]]
) -> Iterator[tuple[float, list]]:
    """The ``(weight, picks)`` outcomes in which every pinned node has its
    ``(node, ingress)`` pin's ingress; the outcomes must pick every chooser
    a pinned node copies."""
    form = g.chooser_form
    broken = any(n in form.fixed and form.fixed[n] != m for n, m in pins)
    checks = [(form.follows[n], m) for n, m in pins if n in form.follows]
    for weight, picks in outcomes:
        if not broken and all(picks[i] == m for i, m in checks):
            yield weight, picks


def _condition(
    g: RGraph, oracles: Mapping[int, str] | None, feed: Callable[[list[int]], Iterable[tuple]],
    prior: tuple[RoutingFunction, RouteProbabilities] | None, infeasible: str,
) -> tuple[RouteProbabilities, float, int, int]:
    """The posterior given the observations, the weight it keeps, the size
    of A (the observed nodes and their ancestors) and A's number of choosers.

    ``feed``, called with the positions of A's choosers in
    ``g.chooser_form``, gives their weighted outcomes; those that contradict
    an observation are dropped (InfeasibleOracleError, with the message
    ``infeasible``, when none is kept). A's choosers get the kept weights'
    shares, keys in first-appearance order. Every other node mixes its
    parents (``mixed_distribution`` over ``certain_inference``). That is
    exact, as its choice is independent of the observations
    (Rao-Blackwellisation), and below none of A's choosers it is the forward
    pass, so only the cone below them is mixed again
    (``update_probabilistic_inference``). ``prior``, when given, must be
    ``(certain_inference(g), probabilistic_inference(g, routes))``; it is
    computed otherwise. Keys follow ``topological_order(g)``.
    """
    observed = _check_observed(g, oracles)
    form = g.chooser_form
    closure = _reach(g.parents, [x for x, _ in observed])
    # a node of A that copies a chooser copies one in A, its ancestor
    sampled = sorted({form.follows[n] for n in closure if n in form.follows})
    mass: list[dict[str, float]] = [{} for _ in sampled]
    total = 0.0
    for weight, picks in outcomes_keeping(g, observed, feed(sampled)):
        total += weight
        for i, dist in zip(sampled, mass):
            m = picks[i]
            if m is not None:
                dist[m] = dist.get(m, 0.0) + weight
    if total == 0.0:
        raise InfeasibleOracleError(infeasible)
    estimated = {
        form.choosers[i]: {m: w / total for m, w in dist.items()}
        for i, dist in zip(sampled, mass)
    }
    if prior is None:
        routes = certain_inference(g)
        prior = routes, probabilistic_inference(g, routes)
    routes, forward = prior
    mixed = update_probabilistic_inference(g, forward, routes, estimated, given=estimated)
    probs = {n: mixed[n] if n in mixed else forward[n] for n in topological_order(g)}
    return probs, total, len(closure), len(sampled)


def exact_conditional_distribution(
    g: RGraph, oracles: Mapping[int, str] | None = None
) -> RouteProbabilities:
    """Exact per-node posterior given the observations: every combination of
    the choosers among the observed nodes and their ancestors, weighed by
    its probability and conditioned on the observations, and every other
    node mixed exactly. Without observations, the forward probabilistic
    pass. Keys follow ``topological_order(g)``. Guarded by ``exact_limit``
    on the whole graph."""
    feed = functools.partial(_outcomes, g)
    return _condition(g, oracles, feed, None, "observations rule out every tie-break outcome")[0]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Conditional distributions, sampled on the observations' ancestors and
    mixed exactly everywhere else.

    ``ancestors`` counts the observed nodes and their ancestors, the only
    part of the graph a trial evaluates (0 without observations);
    ``draws_per_trial`` is the number of choosers among them.
    """

    probs: RouteProbabilities
    trials: int
    accepted: int
    ancestors: int
    draws_per_trial: int


def monte_carlo_inference(
    g: RGraph,
    trials: int,
    seed: int = 0,
    oracles: Mapping[int, str] | None = None,
    *,
    prior: tuple[RoutingFunction, RouteProbabilities] | None = None,
) -> MonteCarloEstimate:
    """Sample the observations' ancestors, reject, and mix the rest exactly:
    the pass of ``exact_conditional_distribution``, fed one draw of weight
    one per trial in place of every combination, with one ``random()`` per
    chooser of ``g.chooser_form`` among the observed nodes and their
    ancestors. ``prior``, when given, must be ``(certain_inference(g),
    probabilistic_inference(g, routes))``. Without observations the result
    is the forward pass. Keys follow ``topological_order(g)``. Deterministic
    per seed. Raises InfeasibleOracleError when every trial is rejected.
    """
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    feed = functools.partial(_draws, g, trials=trials, seed=seed)
    # trials of weight 1.0 sum to the count, and divide into its shares
    probs, accepted, ancestors, draws_per_trial = _condition(
        g, oracles, feed, prior, f"all {trials} sampled outcomes contradict the observations"
    )
    return MonteCarloEstimate(probs, trials, int(accepted), ancestors, draws_per_trial)
