"""Refining inferred catchments with measured ground truth.

A measurement oracle pins one node to one ingress. Applying it does more
than record the fact: certainty propagates upward (when only one possible
next hop could have produced the observation) and downward (when a node's
possible next hops all became certain and agree). The propagation touches
each node at most once per application.

For posterior distributions conditioned on a set of observations there are
two routes: exact enumeration of every tie-break combination (small graphs
only) and Monte Carlo rejection sampling.
"""
from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
import logging
import random
from dataclasses import dataclass, field
from operator import getitem
from typing import Iterator, Mapping

from .errors import (
    CapacityError,
    ContradictionError,
    InfeasibleOracleError,
    InputError,
    TopologyParseError,
    UnknownNodeError,
)
from .inference import RouteProbabilities, RoutingFunction
from .rgraph import RGraph, exact_limit, topological_order

logger = logging.getLogger(__name__)

PROVENANCE_TAGS = ("bgp-rib", "traceroute", "ping", "synthetic")


@dataclass(frozen=True)
class OracleSet:
    """Measured node-to-ingress observations, each tagged with a source."""

    assignments: Mapping[int, str]
    provenance: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", dict(self.assignments))
        prov = dict(self.provenance)
        for node in self.assignments:
            prov.setdefault(node, "synthetic")
        for node, tag in prov.items():
            if tag not in PROVENANCE_TAGS:
                raise InputError(
                    f"unknown provenance {tag!r} for node {node}; "
                    f"expected one of {', '.join(PROVENANCE_TAGS)}"
                )
            if node not in self.assignments:
                raise InputError(f"provenance for unobserved node {node}")
        object.__setattr__(self, "provenance", prov)

    def __len__(self) -> int:
        return len(self.assignments)

    def __bool__(self) -> bool:
        return bool(self.assignments)

    def items(self) -> Iterator[tuple[int, str]]:
        return iter(sorted(self.assignments.items()))

    def merged_with(self, other: "OracleSet") -> "OracleSet":
        """Union of two observation sets; conflicting duplicates are an error."""
        assignments = dict(self.assignments)
        provenance = dict(self.provenance)
        for node, ingress in other.assignments.items():
            if node in assignments and assignments[node] != ingress:
                raise ContradictionError(
                    f"node {node} observed at both {assignments[node]!r} "
                    f"and {ingress!r}"
                )
            assignments[node] = ingress
            provenance[node] = other.provenance[node]
        return OracleSet(assignments, provenance)


def parse_oracle_file(text: str) -> OracleSet:
    """Parse observation lines.

    Plain form: ``node,ingress[,provenance]``. Path form:
    ``path:<space-separated nodes>,ingress[,provenance]`` which pins every
    node on the path, since each of them forwards along the same suffix.
    ``#`` starts a comment. Repeating a node with a different ingress is a
    parse error.

    >>> o = parse_oracle_file("7,m1,ping\\npath:8 5 2,m2\\n")
    >>> assert o.assignments == {7: "m1", 8: "m2", 5: "m2", 2: "m2"}
    >>> assert o.provenance[5] == "traceroute"
    """
    assignments: dict[int, str] = {}
    provenance: dict[int, str] = {}

    def record(node: int, ingress: str, tag: str, line_no: int) -> None:
        if tag not in PROVENANCE_TAGS:
            raise TopologyParseError(
                f"unknown provenance {tag!r}; expected one of "
                f"{', '.join(PROVENANCE_TAGS)}",
                line_no,
            )
        if node in assignments and assignments[node] != ingress:
            raise TopologyParseError(
                f"node {node} assigned to both {assignments[node]!r} "
                f"and {ingress!r}",
                line_no,
            )
        assignments[node] = ingress
        provenance[node] = tag

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (2, 3) or not parts[1]:
            raise TopologyParseError(
                f"expected node,ingress[,provenance], got {raw!r}", line_no
            )
        ingress = parts[1]
        if parts[0].startswith("path:"):
            tag = parts[2] if len(parts) == 3 else "traceroute"
            try:
                nodes = [int(tok) for tok in parts[0][len("path:"):].split()]
            except ValueError:
                raise TopologyParseError(
                    f"non-integer node in path {parts[0]!r}", line_no
                ) from None
            if not nodes:
                raise TopologyParseError("empty path", line_no)
            for node in nodes:
                record(node, ingress, tag, line_no)
        else:
            tag = parts[2] if len(parts) == 3 else "synthetic"
            try:
                node = int(parts[0])
            except ValueError:
                raise TopologyParseError(
                    f"non-integer node id {parts[0]!r}", line_no
                ) from None
            record(node, ingress, tag, line_no)
    return OracleSet(assignments, provenance)


def serialize_oracles(oracles: OracleSet) -> str:
    """CSV rows ``node,ingress,provenance``; round-trips single-node lines."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for node, ingress in oracles.items():
        writer.writerow([node, ingress, oracles.provenance[node]])
    return buf.getvalue()


@dataclass(frozen=True)
class OracleApplication:
    """Result of folding observations into an inference state.

    Unpacks as ``(routes, probs)``. ``probs`` shares every entry that the
    observations left unchanged with the input distributions, so treat it
    as read-only. ``pinned`` lists the nodes the propagation pinned, in
    the order it pinned them (at most one step per node);
    ``set_route_calls`` is their number. ``skipped`` lists observations
    dropped for contradicting existing certainty when downgrading is on.
    ``stale_probability_nodes`` are nodes still uncertain, whose
    distributions were carried over unchanged from before the observations
    and therefore do not condition on them.
    """

    routes: RoutingFunction
    probs: RouteProbabilities
    graph: RGraph = field(repr=False, compare=False)
    pinned: tuple[int, ...] = ()
    skipped: tuple[tuple[int, str], ...] = ()

    def __iter__(self) -> Iterator:
        return iter((self.routes, self.probs))

    @property
    def set_route_calls(self) -> int:
        return len(self.pinned)

    @functools.cached_property
    def stale_probability_nodes(self) -> frozenset[int]:
        g = self.graph
        return frozenset(
            n for n in g.nodes if n != g.root and self.routes.get(n) is None
        )


def apply_oracles(
    g: RGraph,
    routes: RoutingFunction,
    probs: RouteProbabilities,
    oracles: OracleSet | Mapping[int, str],
    *,
    on_contradiction: str = "error",
) -> OracleApplication:
    """Pin observed nodes and propagate the certainty both ways.

    Upward: if exactly one parent of an observed node could have carried
    its ingress, that parent is pinned too. Downward: a node whose parents
    all became pinned to the same ingress is pinned. Inputs are not
    mutated; the returned distributions share their unchanged entries with
    ``probs``. Applying the same observations again changes nothing, and the
    resulting certain set does not depend on observation order.

    Raises UnknownNodeError, before pinning anything, when an observation
    names a node or ingress the graph does not have; ContradictionError when
    an observation disagrees with an already-certain node
    (``on_contradiction="skip"`` downgrades that to a warning); and
    InfeasibleOracleError when an observation has probability zero under
    the current distributions.
    """
    if on_contradiction not in ("error", "skip"):
        raise InputError(f"on_contradiction must be 'error' or 'skip', got {on_contradiction!r}")
    observed = _check_observed(g, oracles)
    new_routes = dict(routes)
    # pinning replaces entries and never mutates one, so sharing is safe
    new_probs = dict(probs)
    pinned: list[int] = []
    skipped: list[tuple[int, str]] = []

    for node, ingress in observed:
        current = new_routes.get(node)
        if current is not None and current != ingress:
            if on_contradiction == "skip":
                logger.warning(
                    "dropping observation %d->%s: node already pinned to %s",
                    node, ingress, current,
                )
                skipped.append((node, ingress))
                continue
            raise ContradictionError(
                f"observation pins node {node} to {ingress!r} but it is "
                f"certainly routed to {current!r}"
            )
        if current != ingress and new_probs.get(node, {}).get(ingress, 0.0) == 0.0:
            raise InfeasibleOracleError(
                f"observation {node}->{ingress!r} has probability zero"
            )

        # depth-first propagation; each entry re-checks on pop because an
        # earlier branch may already have resolved it
        stack: list[tuple[int, str]] = [(node, ingress)]
        while stack:
            current_node, current_ingress = stack.pop()
            already = new_routes.get(current_node)
            if already is not None:
                if already != current_ingress:
                    raise ContradictionError(
                        f"propagation would pin node {current_node} to both "
                        f"{already!r} and {current_ingress!r}"
                    )
                continue
            pinned.append(current_node)
            new_routes[current_node] = current_ingress
            new_probs[current_node] = {current_ingress: 1.0}

            carriers = [
                p
                for p in g.parents[current_node]
                if new_probs.get(p, {}).get(current_ingress, 0.0) > 0.0
            ]
            if len(carriers) == 1 and new_routes.get(carriers[0]) is None:
                stack.append((carriers[0], current_ingress))

            for child in g.children[current_node]:
                if new_routes.get(child) is not None:
                    continue
                parent_routes = {new_routes.get(p) for p in g.parents[child]}
                if len(parent_routes) == 1:
                    (only,) = parent_routes
                    if only is not None:
                        stack.append((child, only))

    return OracleApplication(
        routes=new_routes,
        probs=new_probs,
        graph=g,
        pinned=tuple(pinned),
        skipped=tuple(skipped),
    )


# -- conditional distributions -------------------------------------------------


def enumerate_route_outcomes(g: RGraph) -> Iterator[tuple[float, dict[int, "str | None"]]]:
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


def _check_observed(
    g: RGraph, oracles: OracleSet | Mapping[int, str] | None
) -> list[tuple[int, str]]:
    """Observations as sorted ``(node, ingress)`` pairs, every one checked to
    name a node of ``g`` and one of its ingress points."""
    if not isinstance(oracles, OracleSet):
        oracles = OracleSet(oracles or {})
    known_ingresses = set(g.ingress_map.values())
    pairs = list(oracles.items())
    for node, ingress in pairs:
        if node not in g.parents:
            raise UnknownNodeError(f"observed node {node} not in forwarding graph")
        if ingress not in known_ingresses:
            raise UnknownNodeError(f"observation names unknown ingress {ingress!r}")
    return pairs


def exact_conditional_distribution(
    g: RGraph, oracles: OracleSet | Mapping[int, str] | None = None
) -> RouteProbabilities:
    """Exact per-node posterior given the observations, by full enumeration.

    Conditions the tie-break outcome space on agreement with every
    observation and renormalizes. With no observations this equals the
    forward probabilistic pass. Guarded by ``exact_limit``.
    """
    observed = _check_observed(g, oracles)
    mass: dict[int, dict[str, float]] = {n: {} for n in g.nodes}
    total = 0.0
    for weight, ingress_of in enumerate_route_outcomes(g):
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


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Empirical conditional distribution from rejection sampling.

    ``ancestors`` counts the observed nodes and their ancestors, the only
    part of the graph a trial evaluates before it is checked (0 without
    observations); ``draws_per_trial`` is the number of uniforms each trial
    consumes.
    """

    probs: RouteProbabilities
    trials: int
    accepted: int
    ancestors: int
    draws_per_trial: int

    def __iter__(self) -> Iterator:
        return iter((self.probs, self.trials, self.accepted))


# accepted outcomes are tallied this many at a time, so the rows held for
# counting stay bounded whatever the trial count
_TALLY_BATCH = 64

# one level of choosers: slice bounds in the value list, draw positions,
# cumulative tie weights, parent slots
_Level = tuple[int, int, list[int], list[list[float]], list[tuple[int, ...]]]


def monte_carlo_inference(
    g: RGraph,
    trials: int = 10_000,
    seed: int = 0,
    oracles: OracleSet | Mapping[int, str] | None = None,
) -> MonteCarloEstimate:
    """Sample tie-break outcomes, reject those contradicting observations.

    A chooser is a node with two or more parents that is not attached to the
    root; each consumes one ``random()`` per trial, choosers in topological
    order. Every other node's ingress is fixed (a root-attached node takes
    the direct edge, a parentless one has no route) or follows one
    chooser's through a chain of single parents. A trial draws its uniforms
    up front, evaluates the choosers among the observed nodes' ancestors,
    and the rest only when the observations hold: an observation depends on
    nothing else (barren-node pruning). The draws are the ones a sampler
    evaluating every node of every trial consumes, in the same order, so
    for a seed the estimate is the same, down to each node's key order:
    ingresses in the order they first appear among the accepted trials.

    Deterministic for a given seed. Raises InfeasibleOracleError when every
    trial is rejected.
    """
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    observed = _check_observed(g, oracles)
    # ingress codes; 0 is no route
    names: list[str | None] = [None, *sorted(set(g.ingress_map.values()))]
    code = {m: c for c, m in enumerate(names)}

    fixed: dict[int, int] = {}  # node -> ingress code in every outcome
    follows: dict[int, int] = {}  # node -> the chooser whose ingress it takes
    level: dict[int, int] = {}  # chooser -> 1 + highest level of a chooser it depends on
    for n in topological_order(g):
        parents = g.parents[n]
        if not parents:
            fixed[n] = 0
        elif g.root in parents:
            fixed[n] = code[g.ingress_map[n]]
        elif len(parents) == 1:
            if parents[0] in fixed:
                fixed[n] = fixed[parents[0]]
            else:
                follows[n] = follows[parents[0]]
        else:
            follows[n] = n
            level[n] = 1 + max(
                (level[follows[p]] for p in parents if p in follows), default=0
            )
    draw_index = {n: i for i, n in enumerate(level)}  # choosers in topological order
    closure = _ancestor_closure(g, [x for x, _ in observed])

    # ``values`` holds each code at its own index, then one slot per chooser:
    # the observations' ancestors first, each part level by level, so a
    # level is one slice whose sources all sit in earlier slots
    layout = sorted(level, key=lambda n: (n not in closure, level[n], draw_index[n]))
    base = len(names)
    slot = {n: base + i for i, n in enumerate(layout)}

    def slot_of(n: int) -> int:
        return fixed[n] if n in fixed else slot[follows[n]]

    near: list[_Level] = []
    rest: list[_Level] = []
    for (outside, _), run in itertools.groupby(
        layout, key=lambda n: (n not in closure, level[n])
    ):
        run = list(run)
        lo = slot[run[0]]
        (rest if outside else near).append((
            lo,
            lo + len(run),
            [draw_index[n] for n in run],
            [list(itertools.accumulate(g.tie_weights(n))) for n in run],
            # the last parent twice: a draw at or past a cumulative total
            # that rounded below 1 takes the last parent
            [(*map(slot_of, g.parents[n]), slot_of(g.parents[n][-1])) for n in run],
        ))
    observed_slots = [slot_of(x) for x, _ in observed]
    observed_codes = [code[m] for _, m in observed]

    values = list(range(base)) + [0] * len(layout)
    value_at = values.__getitem__

    def evaluate(levels: list[_Level], uniforms: list[float]) -> None:
        for lo, hi, draws, cums, parent_slots in levels:
            picks = map(bisect.bisect_right, cums, map(uniforms.__getitem__, draws))
            values[lo:hi] = map(value_at, map(getitem, parent_slots, picks))

    rng = random.Random(seed)
    tallies: list[dict[int, int]] = [{} for _ in layout]
    rows: list[list[int]] = []
    accepted = 0
    for _ in range(trials):
        uniforms = list(itertools.starmap(rng.random, itertools.repeat((), len(layout))))
        evaluate(near, uniforms)
        if list(map(value_at, observed_slots)) != observed_codes:
            continue
        accepted += 1
        evaluate(rest, uniforms)
        rows.append(values[base:])
        if len(rows) == _TALLY_BATCH:
            _tally(rows, tallies)
            rows.clear()
    _tally(rows, tallies)
    if accepted == 0:
        raise InfeasibleOracleError(
            f"all {trials} sampled outcomes contradict the observations"
        )
    probs: dict[int, dict[str, float]] = {}
    for n in g.nodes:
        if n in fixed:
            probs[n] = {names[fixed[n]]: 1.0} if fixed[n] else {}
        else:
            tally = tallies[slot[follows[n]] - base]
            probs[n] = {names[c]: k / accepted for c, k in tally.items() if c}
    return MonteCarloEstimate(
        probs=probs,
        trials=trials,
        accepted=accepted,
        ancestors=len(closure),
        draws_per_trial=len(layout),
    )


def _ancestor_closure(g: RGraph, nodes: list[int]) -> set[int]:
    """``nodes`` and every node with a path to one of them."""
    closure: set[int] = set()
    stack = list(nodes)
    while stack:
        n = stack.pop()
        if n not in closure:
            closure.add(n)
            stack.extend(g.parents[n])
    return closure


def _tally(rows: list[list[int]], tallies: list[dict[int, int]]) -> None:
    """Add each column of ``rows`` to its tally; a code new to a tally goes
    after the ones already there, so keys keep first-appearance order."""
    for tally, column in zip(tallies, zip(*rows)):
        for c in dict.fromkeys(column):
            tally[c] = tally.get(c, 0) + column.count(c)
