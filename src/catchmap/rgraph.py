"""Forwarding graphs: every next hop a node may end up using.

A node's parents are the neighbors that offer it a route in its best
preference class. Under valley-free policies that class (customer, peer or
provider) follows from the relationships alone, and three breadth-first
passes find it for every node at once. The parents make a directed acyclic graph rooted at the destination; any
root-to-node path in it is a route the node could take under some tie-break.
``simulated_parents`` reads the same parent sets off the seeded path-vector
simulator, as an independent cross-check of the builder.

``brute_force_eligible_paths`` recomputes the same path sets by exhaustively
enumerating tie-break choices and re-running propagation for each, sharing no
code with the graph construction: it exists to cross-check it. One
enumeration yields the path sets of every node at once.
"""
from __future__ import annotations

import collections
import functools
import heapq
import itertools
import logging
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping

from .bgpsim import Path, run_bgp
from .errors import (
    CapacityError, ConvergenceError, CycleError, DestinationSpecError, InputError, PolicyError,
    UnknownNodeError,
)
from .topology import AugmentedTopology, Relationship, _check_hierarchy, _check_ingress_name

logger = logging.getLogger(__name__)

_NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class RGraph:
    """Directed acyclic graph of possible next hops, rooted at the destination.

    An edge parent -> child means the child may forward through the parent.
    ``parents`` is the one stored adjacency: every node, ascending, mapped
    to a sorted tuple of distinct parents. ``nodes``, ``children`` and
    ``order`` (parents first) are derived from it on first read and then
    kept. ``ingress_map`` must name the ingress point of each node directly
    attached to the root, each name obeying the rule ``DestinationSpec``
    checks; ``report_nodes`` is the sorted accounting universe (real nodes
    only, no root, no virtual chain nodes).

    ``tie_probs`` holds the tie-break weights that differ from uniform:
    node -> parent -> probability of forwarding through that parent. Each
    entry covers exactly the node's parents and sums to one (tolerance
    1e-9). ``tie_weights`` gives any node's weights, and every
    probabilistic pass reads them there.

    The constructor checks every graph: the root is a node without parents,
    the nodes are ascending, each parent is a node listed once per child,
    each ingress name is valid, each root-attached node is labeled and each
    override is valid; it copies the labels and the overrides. It trusts
    that each parent tuple is sorted and finds a cycle only when ``order``
    is first read. ``from_parent_map`` and ``from_edges`` normalise outside
    input and read ``order`` before they return; the builder and the
    shortest-path transform make only acyclic graphs.
    """

    root: int
    ingress_map: Mapping[int, str]
    parents: Mapping[int, tuple[int, ...]]
    report_nodes: tuple[int, ...]
    tie_probs: Mapping[int, Mapping[int, float]]

    def __post_init__(self) -> None:
        if self.root not in self.parents:
            raise InputError(f"root {self.root} is not a node")
        if list(self.nodes) != sorted(self.nodes):
            raise InputError("the parents map must list the nodes in ascending order")
        if self.parents[self.root]:
            raise CycleError(f"root {self.root} cannot have parents")
        for name in dict.fromkeys(self.ingress_map.values()):
            _check_ingress_name(name)
        for child in self.children[self.root]:
            if child not in self.ingress_map:
                raise DestinationSpecError(
                    f"node {child} is attached to the root but has no ingress label"
                )
        object.__setattr__(self, "ingress_map", dict(self.ingress_map))
        object.__setattr__(
            self, "tie_probs", _validated_tie_probs(self.parents, self.tie_probs)
        )

    @classmethod
    def from_parent_map(
        cls,
        root: int,
        ingress_map: Mapping[int, str],
        parents: Mapping[int, Iterable[int]],
        *,
        nodes: Iterable[int] = (),
        report_nodes: Iterable[int] | None = None,
        tie_probs: Mapping[int, Mapping[int, float]] | None = None,
    ) -> "RGraph":
        given = {child: tuple(sorted(set(ps))) for child, ps in parents.items()}
        all_nodes = {root, *nodes, *given}
        for ps in given.values():
            all_nodes.update(ps)
        norm_parents = {n: given.get(n, ()) for n in sorted(all_nodes)}
        if report_nodes is None:
            report = tuple(n for n in norm_parents if n != root)
        else:
            report = tuple(sorted(report_nodes))
        g = cls(
            root=root, ingress_map=ingress_map, parents=norm_parents,
            report_nodes=report, tie_probs=tie_probs,
        )
        g.order  # arbitrary input: reject a cycle here, not at first use
        return g

    @classmethod
    def from_edges(
        cls,
        root: int,
        edges: Iterable[tuple[int, int]],
        ingress_map: Mapping[int, str],
        *,
        nodes: Iterable[int] = (),
        report_nodes: Iterable[int] | None = None,
        tie_probs: Mapping[int, Mapping[int, float]] | None = None,
    ) -> "RGraph":
        """Build from (parent, child) pairs; handy for hand-drawn fixtures."""
        parent_map: dict[int, list[int]] = {}
        extra = set(nodes)
        for parent, child in edges:
            parent_map.setdefault(child, []).append(parent)
            extra.add(parent)
        return cls.from_parent_map(
            root, ingress_map, parent_map,
            nodes=extra, report_nodes=report_nodes, tie_probs=tie_probs,
        )

    def edges(self) -> Iterator[tuple[int, int]]:
        for child in self.nodes:
            for parent in self.parents[child]:
                yield (parent, child)

    @property
    def num_edges(self) -> int:
        return sum(len(ps) for ps in self.parents.values())

    def with_tie_probs(self, tie_probs: Mapping[int, Mapping[int, float]]) -> "RGraph":
        """Same graph with ``tie_probs`` as its overrides, replacing any old ones."""
        return replace(self, tie_probs=tie_probs)

    @functools.cached_property
    def nodes(self) -> tuple[int, ...]:
        """Every node, ascending."""
        return tuple(self.parents)

    @functools.cached_property
    def children(self) -> dict[int, tuple[int, ...]]:
        """Each node's children, sorted: the parents read in ascending node
        order append each child list in order. Raises InputError for a parent
        that is not a node or one listed twice, which would end its child
        list with the same child already."""
        children: dict[int, list[int]] = {node: [] for node in self.parents}
        try:
            for child, ps in self.parents.items():
                for p in ps:
                    kids = children[p]
                    if kids and kids[-1] == child:
                        raise InputError(f"node {child} lists parent {p} twice")
                    kids.append(child)
        except KeyError as exc:
            raise InputError(
                f"node {child} has parent {exc.args[0]}, which is not a node"
            ) from None
        return {n: tuple(c) for n, c in children.items()}

    @functools.cached_property
    def ingress_points(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.ingress_map.values())))

    @functools.cached_property
    def point_masses(self) -> dict[str | None, dict[str, float]]:
        """``{m: 1.0}`` for each ingress point ``m``, and ``{}`` under None:
        the distributions of fixed and pinned nodes, one object per value.
        Every forward pass shares them between nodes, so they must not be
        mutated."""
        return {None: {}, **{m: {m: 1.0} for m in self.ingress_points}}

    @functools.cached_property
    def order(self) -> tuple[int, ...]:
        """Every node, parents first and the smallest id first among ready
        nodes; derived on first read and then kept."""
        return _kahn_order(self.parents, self.children)

    @functools.cached_property
    def order_index(self) -> dict[int, int]:
        """Each node's position in ``order``, derived on first use and then kept."""
        return {n: i for i, n in enumerate(self.order)}

    def tie_weights(self, node: int) -> list[float]:
        """Probability of picking each parent: override, else uniform; a lone parent 1.0."""
        parents = self.parents[node]
        given = self.tie_probs.get(node)
        if given is not None and len(parents) > 1:
            return [given[p] for p in parents]
        return [1.0 / len(parents)] * len(parents) if parents else []

    @functools.cached_property
    def chooser_form(self) -> "ChooserForm":
        """Each node's ingress as a fixed value or a copy of one chooser's,
        derived on first use and then kept. Past the root-attached and the
        parentless nodes, a node takes its parents' common source, one fixed
        ingress or one chooser, and is a chooser only when they disagree."""
        choosers: list[int] = []
        fixed: dict[int, str | None] = {}
        follows: dict[int, int] = {}
        for n in self.order:
            parents = self.parents[n]
            if not parents:
                fixed[n] = None
            elif self.root in parents:
                fixed[n] = self.ingress_map[n]
            # a source is an ingress (str or None) or a chooser's position (int)
            elif len(parents) > 1 and len(
                {fixed[p] if p in fixed else follows[p] for p in parents}
            ) > 1:
                follows[n] = len(choosers)
                choosers.append(n)
            elif parents[0] in fixed:
                fixed[n] = fixed[parents[0]]
            else:
                follows[n] = follows[parents[0]]
        return ChooserForm(tuple(choosers), fixed, follows)


@dataclass(frozen=True)
class ChooserForm:
    """The choosers, the nodes whose parents disagree, in topological order.
    ``fixed`` maps each node no tie-break decides to its ingress (None: no
    route); ``follows`` maps each chooser and each node that copies one to
    that chooser's position. An outcome is one ingress per chooser."""

    choosers: tuple[int, ...]
    fixed: Mapping[int, str | None]
    follows: Mapping[int, int]

    def ingress(self, picks: tuple[str | None, ...], node: int) -> str | None:
        """``node``'s ingress in the outcome ``picks``."""
        return self.fixed[node] if node in self.fixed else picks[self.follows[node]]


def _validated_tie_probs(
    parents: Mapping[int, tuple[int, ...]],
    tie_probs: Mapping[int, Mapping[int, float]] | None,
) -> dict[int, dict[int, float]]:
    """Check overrides for support and normalization; return a copy."""
    if not tie_probs:
        return {}
    for node, given in tie_probs.items():
        if node not in parents:
            raise InputError(f"tie probabilities for unknown node {node}")
        if set(given) != set(parents[node]):
            raise InputError(
                f"tie probabilities of node {node} must cover exactly its "
                f"parents {list(parents[node])}, got {sorted(given)}"
            )
        if any(p < 0 for p in given.values()):
            raise InputError(f"negative tie probability at node {node}")
        sum_p = sum(given.values())
        if abs(sum_p - 1.0) > _NORMALIZATION_TOL:
            raise InputError(
                f"tie probabilities of node {node} sum to {sum_p!r}, not 1"
            )
    return {node: dict(given) for node, given in tie_probs.items()}


# route classes, best first; the destination originates the route
_ORIGIN, _CUSTOMER, _PEER, _PROVIDER = range(4)


def build_rgraph(aug: AugmentedTopology) -> RGraph:
    """Derive the forwarding graph from each node's route class.

    Under valley-free policies a node's best routes all sit in one class,
    and the relationships alone say which (Gao & Rexford, 2001). The
    destination originates the route through its own relationship on each
    attachment edge. A node is customer-class if a customer of it is the
    destination or customer-class; otherwise peer-class if a peer of it is;
    otherwise provider-class if a provider of it is routed at all. A node's
    parents are the neighbors, the destination included, that offer it a
    route in its class, gathered as the passes assign the classes. Three
    passes that read each edge at most once per direction, then one sort
    per parent list. ``simulated_parents`` reads the same parent sets off
    a full propagation run, as a cross-check.

    Raises PolicyError if the destination's attachments close a provider
    cycle; the base topology's hierarchy was checked when its policies were
    derived.
    """
    topology = aug.topology
    root = aug.n_dst
    if not topology.has_policies:
        raise PolicyError("local preferences are not set; derive policies first")
    rels = topology.relationships
    # only a customer of the destination or of its prepending chains can
    # close a cycle the base topology's check did not see
    root_side = aug.virtual_nodes | {root}
    if any(
        rel is Relationship.P2C and j not in root_side
        for n in root_side for j, rel in rels(n).items()
    ):
        _check_hierarchy(topology)

    cls = {root: _ORIGIN}
    offerers: dict[int, list[int]] = {}

    def offer(senders: list[int], rel: Relationship, klass: int, grown: list[int]) -> None:
        # read every ``rel`` edge of the senders once and record the sender
        # under a neighbor that takes ``klass``, or already has it; a
        # neighbor new to the class is appended to ``grown``
        for n in senders:
            for j, r in rels(n).items():
                if r is rel:
                    c = cls.get(j)
                    if c is None:
                        cls[j] = klass
                        offerers[j] = [n]
                        grown.append(j)
                    elif c == klass:
                        offerers[j].append(n)

    # the destination and the customer class: every neighbor hears them;
    # ``offering`` grows while it is read, so the pass is breadth-first
    offering = [root]
    offer(offering, Relationship.C2P, _CUSTOMER, offering)
    offer(offering, Relationship.P2P, _PEER, [])
    routed = list(cls)  # every routed node exports to its customers
    offer(routed, Relationship.P2C, _PROVIDER, routed)

    # neighbors are dict keys, so each sorted offerer list is already distinct
    g = RGraph(
        root=root,
        ingress_map=aug.ingress_map,
        parents={
            n: tuple(sorted(offerers[n])) if n in offerers else ()
            for n in sorted(topology.nodes())
        },
        report_nodes=aug.real_nodes,
        tie_probs={},
    )
    if logger.isEnabledFor(logging.DEBUG):
        counts = collections.Counter(cls.values())
        logger.debug(
            "forwarding graph: %d nodes, %d edges; route classes: %d customer, "
            "%d peer, %d provider, %d no route",
            len(g.nodes), g.num_edges, counts[_CUSTOMER], counts[_PEER],
            counts[_PROVIDER], topology.num_nodes - len(cls),
        )
    return g


def simulated_parents(aug: AugmentedTopology, seed: int = 0) -> dict[int, tuple[int, ...]]:
    """Each non-destination node's maximal-class offer set, sorted, read off
    the RIBs of one ``run_bgp`` run: the parents ``build_rgraph`` must give."""
    result = run_bgp(aug, seed)
    topology = aug.topology
    parents: dict[int, tuple[int, ...]] = {}
    for node, offers in result.ribs.items():
        best = max((topology.local_pref(node, k) for k in offers), default=None)
        parents[node] = tuple(sorted(k for k in offers if topology.local_pref(node, k) == best))
    return parents


def _kahn_order(
    parents: Mapping[int, tuple[int, ...]], children: Mapping[int, tuple[int, ...]]
) -> tuple[int, ...]:
    """Parents-before-children order, smallest node id first among ready nodes.

    Kahn's algorithm with a heap of ready nodes. Raises CycleError if the
    edges contain a directed cycle.
    """
    indegree = {node: len(ps) for node, ps in parents.items()}
    ready = [node for node, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for child in children[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, child)
    if len(order) != len(indegree):
        stuck = sorted(node for node, deg in indegree.items() if deg > 0)
        raise CycleError(f"directed cycle through nodes {stuck}")
    return tuple(order)


def topological_order(g: RGraph) -> tuple[int, ...]:
    """``g.order``: parents first, smallest id first."""
    return g.order


@dataclass(frozen=True)
class PathEnumeration:
    """Paths found by ``enumerate_rpaths``; ``truncated`` marks a hit limit."""

    paths: frozenset[Path]
    truncated: bool = False


def enumerate_rpaths(g: RGraph, node: int, limit: int = 100_000) -> PathEnumeration:
    """All root-to-node paths, each written source-first: (node, ..., root).

    Iterative depth-first walk along parent links, so deep graphs do not
    exhaust the interpreter stack. Stops after ``limit`` paths and flags
    the truncation.
    """
    if node not in g.parents:
        raise UnknownNodeError(f"node {node} not in forwarding graph")
    paths: list[Path] = []
    truncated = False
    # stack of (node, suffix built so far); parents pushed in reverse so the
    # smallest id is explored first
    stack: list[tuple[int, tuple[int, ...]]] = [(node, (node,))]
    while stack:
        current, suffix = stack.pop()
        if current == g.root:
            if len(paths) >= limit:
                truncated = True
                break
            paths.append(suffix)
            continue
        for parent in reversed(g.parents[current]):
            stack.append((parent, suffix + (parent,)))
    return PathEnumeration(paths=frozenset(paths), truncated=truncated)


# -- size guard and exhaustive cross-check -------------------------------------

# largest input any exhaustive enumeration takes: nodes (destination
# included) and tie-break combinations
MAX_EXACT_NODES = 14
MAX_EXACT_OUTCOMES = 2_000_000

_MAX_RECEIVABLE_PATHS = 500_000


def exact_limit(g: RGraph) -> str | None:
    """Why ``g`` is too large to enumerate exhaustively, or None if it is not.

    The size rule of every exact pass on a forwarding graph: at most
    ``MAX_EXACT_NODES`` nodes and ``MAX_EXACT_OUTCOMES`` tie-break
    combinations, one parent per chooser.
    """
    if len(g.nodes) > MAX_EXACT_NODES:
        return f"{len(g.nodes)} nodes, over the exact limit of {MAX_EXACT_NODES}"
    combos = math.prod(len(g.parents[c]) for c in g.chooser_form.choosers)
    if combos > MAX_EXACT_OUTCOMES:
        return f"{combos} tie-break combinations, over the exact limit of {MAX_EXACT_OUTCOMES}"
    return None


def _receivable_paths(aug: AugmentedTopology) -> dict[int, set[Path]]:
    """Over-approximate every loop-free path a node could ever be offered.

    Ignores best-path selection entirely: a path is receivable if each hop's
    export policy lets it through. Superset of what any propagation run can
    realize, which is all the candidate-domain computation below needs.
    """
    topology = aug.topology
    root = aug.n_dst
    received: dict[int, set[Path]] = {n: set() for n in topology.nodes()}
    received[root].add((root,))
    queue: list[tuple[int, Path]] = [(root, (root,))]
    total = 1
    while queue:
        node, path = queue.pop()
        for neighbor in topology.neighbors(node):
            if neighbor in path:
                continue
            if node != root and not topology.exports(node, path[1], neighbor):
                continue
            extended = (neighbor, *path)
            if extended in received[neighbor]:
                continue
            received[neighbor].add(extended)
            total += 1
            if total > _MAX_RECEIVABLE_PATHS:
                raise CapacityError(
                    f"path closure exceeded {_MAX_RECEIVABLE_PATHS} entries; topology too dense"
                )
            queue.append((neighbor, extended))
    return received


def brute_force_eligible_paths(aug: AugmentedTopology) -> dict[int, frozenset[Path]]:
    """Every best path each non-root node can end up with under some tie-break.

    Enumerates, for each node, which neighbor it favors when indifferent,
    and replays propagation once per combination with that favoritism baked
    into the ranking, collecting every node's best path from each replay.
    Written independently of the forwarding-graph construction so the two
    can be compared. A node no replay routes gets an empty set.

    Guarded to ``MAX_EXACT_NODES`` nodes, destination included, and to
    ``MAX_EXACT_OUTCOMES`` combinations of its own candidate domains.
    """
    topology = aug.topology
    if topology.num_nodes > MAX_EXACT_NODES:
        raise CapacityError(
            f"exhaustive enumeration limited to {MAX_EXACT_NODES} nodes, "
            f"got {topology.num_nodes}"
        )
    root = aug.n_dst
    received = _receivable_paths(aug)

    # candidate next hops per node: neighbors that could ever offer it a route
    choosers: list[int] = []
    domains: list[tuple[int, ...]] = []
    profile_count = 1
    for n in sorted(topology.nodes()):
        if n == root:
            continue
        candidates = tuple(sorted({p[1] for p in received[n]}))
        if len(candidates) > 1:
            choosers.append(n)
            domains.append(candidates)
            profile_count *= len(candidates)
            if profile_count > MAX_EXACT_OUTCOMES:
                raise CapacityError("too many tie-break combinations to enumerate")

    results: dict[int, set[Path]] = {n: set() for n in topology.nodes() if n != root}
    for combo in itertools.product(*domains) if domains else [()]:
        favored = dict(zip(choosers, combo))
        for n, path in _propagate_with_favorites(aug, favored).items():
            if path is not None:
                results[n].add(path)
    logger.debug(
        "enumerated %d tie-break combinations for %d nodes",
        profile_count, len(results),
    )
    return {n: frozenset(paths) for n, paths in results.items()}


def _propagate_with_favorites(
    aug: AugmentedTopology, favored: Mapping[int, int]
) -> dict[int, Path | None]:
    """Plain synchronous propagation with a fixed deterministic ranking.

    Ranking per node: preference class, then the favored neighbor, then the
    lowest neighbor id. Recomputes every node every round; no shortcuts, by
    design.
    """
    topology = aug.topology
    root = aug.n_dst
    best: dict[int, Path | None] = {n: None for n in topology.nodes()}
    best[root] = (root,)
    others = sorted(n for n in topology.nodes() if n != root)

    for round_no in range(2 * topology.num_nodes + 4):
        snapshot = dict(best)
        changed = False
        for n in others:
            choice: Path | None = None
            choice_key: tuple | None = None
            for k in topology.neighbors(n):
                offer = snapshot[k]
                if offer is None or n in offer:
                    continue
                if k != root and not topology.exports(k, offer[1], n):
                    continue
                key = (topology.local_pref(n, k), k == favored.get(n), -k)
                if choice_key is None or key > choice_key:
                    choice_key = key
                    choice = (n, *offer)
            if choice != best[n]:
                best[n] = choice
                changed = True
        if not changed:
            best.pop(root)
            return best
    raise ConvergenceError("tie-break replay did not reach a fixed point")


# -- exports -------------------------------------------------------------------


def rgraph_edgelist(g: RGraph) -> str:
    """One ``parent child`` pair per line, sorted: each parent in ascending
    order, then its children, which are kept sorted."""
    return "".join(f"{p} {c}\n" for p, kids in g.children.items() for c in kids)


def rgraph_dot(g: RGraph) -> str:
    """Graphviz description of the forwarding graph for visualization."""
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
    lines.extend(
        f'  "{parent}" -> "{child}";' for parent, kids in g.children.items() for child in kids
    )
    lines.append("}")
    return "\n".join(lines) + "\n"
