"""AS-level topologies with routing policies, and destination scenarios.

A topology is an undirected graph whose edges carry a business relationship
per direction (customer/provider or peer). Valley-free routing policies
(local preferences and export rules) are derived from those relationships.
A destination is attached to the graph through one or more ingress points,
optionally behind chains of virtual nodes that model path prepending.
"""
from __future__ import annotations

import logging
import math
import random
import re
import unicodedata
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Iterator, Mapping

from .errors import (
    DestinationSpecError,
    EdgeConflictError,
    GenerationError,
    PolicyError,
    TopologyParseError,
    UnknownNodeError,
)

logger = logging.getLogger(__name__)


class Relationship(IntEnum):
    """Business relationship of a directed node pair (i, j), seen from i.

    P2C: j is a customer of i.  P2P: i and j are peers.  C2P: j is a
    provider of i.  Integer values match the CAIDA serial-1 encoding of
    the (provider, customer) line direction.
    """

    P2C = -1
    P2P = 0
    C2P = 1

    def reversed(self) -> "Relationship":
        """The same edge seen from the other endpoint.

        >>> assert Relationship.P2C.reversed() == Relationship.C2P
        >>> assert Relationship.P2P.reversed() == Relationship.P2P
        """
        return _REVERSED[self]


# a table, because ``add_edge`` reverses every edge and the enum call
# ``Relationship(-value)`` costs several dict lookups' time
_REVERSED = {
    Relationship.P2C: Relationship.C2P,
    Relationship.P2P: Relationship.P2P,
    Relationship.C2P: Relationship.P2C,
}

_REL_NAMES = {Relationship.P2C: "p2c", Relationship.P2P: "p2p", Relationship.C2P: "c2p"}
_REL_BY_NAME = {v: k for k, v in _REL_NAMES.items()}

# Local-preference value per relationship class: routes learned from
# customers beat routes learned from peers beat routes learned from
# providers. Any strictly ordered values encode the same policy.
VF_LOCAL_PREF: dict[Relationship, float] = {
    Relationship.P2C: 3.0,
    Relationship.P2P: 2.0,
    Relationship.C2P: 1.0,
}


class Topology:
    """Undirected relationship-labelled graph, plus optional routing policies.

    Treat instances as immutable once built: every transformation in this
    package returns a new Topology, which shares with its input every
    neighbor row it does not change (so ``add_edge`` on a derived topology
    could write into its input). ``local_pref`` and ``exports`` raise
    PolicyError until policies are enabled (see ``derive_vf_policies``).
    """

    __slots__ = ("_adj", "_vf_policies")

    def __init__(self) -> None:
        self._adj: dict[int, dict[int, Relationship | None]] = {}
        self._vf_policies = False

    # -- construction ------------------------------------------------------

    def add_node(self, node: int) -> None:
        self._adj.setdefault(node, {})

    def add_edge(self, i: int, j: int, rel: Relationship | None) -> None:
        """Add the undirected edge {i, j}; ``rel`` is the relationship seen from i.

        Redeclaring an edge with the same relationship is a no-op;
        a conflicting redeclaration raises EdgeConflictError.
        """
        if i == j:
            raise EdgeConflictError(f"self-loop on node {i}")
        existing = self._adj.get(i, {}).get(j, _MISSING)
        if existing is not _MISSING:
            if existing == rel:
                return
            raise EdgeConflictError(
                f"edge {i}-{j} declared twice with conflicting relationships"
            )
        self._adj.setdefault(i, {})[j] = rel
        self._adj.setdefault(j, {})[i] = rel.reversed() if rel is not None else None

    # -- structure queries -------------------------------------------------

    def nodes(self) -> Iterator[int]:
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __contains__(self, node: int) -> bool:
        return node in self._adj

    def neighbors(self, node: int) -> Iterable[int]:
        try:
            return self._adj[node].keys()
        except KeyError:
            raise UnknownNodeError(f"node {node} not in topology") from None

    def relationships(self, node: int) -> Mapping[int, Relationship | None]:
        """Each neighbor of ``node`` with the relationship seen from ``node``.
        A view of the topology itself: read it, do not modify it."""
        try:
            return self._adj[node]
        except KeyError:
            raise UnknownNodeError(f"node {node} not in topology") from None

    def relationship(self, i: int, j: int) -> Relationship | None:
        try:
            return self._adj[i][j]
        except KeyError:
            raise UnknownNodeError(f"edge {i}-{j} not in topology") from None

    # -- policies ----------------------------------------------------------

    @property
    def has_policies(self) -> bool:
        return self._vf_policies

    def local_pref(self, i: int, j: int) -> float:
        """Preference of node i for routes learned from neighbor j."""
        if not self._vf_policies:
            raise PolicyError("local preferences are not set; derive policies first")
        rel = self.relationship(i, j)
        if rel is None:
            raise PolicyError(f"edge {i}-{j} has no relationship")
        return VF_LOCAL_PREF[rel]

    def exports(self, i: int, learned_from: int, to: int) -> bool:
        """Whether node i exports a route learned from ``learned_from`` to ``to``.

        Valley-free rule: export to customers always; export to peers and
        providers only routes learned from customers.
        """
        if not self._vf_policies:
            raise PolicyError("export policies are not set; derive policies first")
        rel_to = self.relationship(i, to)
        if rel_to == Relationship.P2C:
            return True
        rel_from = self.relationship(i, learned_from)
        if rel_from is None or rel_to is None:
            raise PolicyError(f"edge around node {i} has no relationship")
        return rel_from == Relationship.P2C


_MISSING = object()


def _derive(topology: Topology, changed: Iterable[int]) -> Topology:
    """A new Topology that shares every neighbor row of ``topology`` except
    those of ``changed``, which it copies: O(N) for the node map plus the
    copied rows, instead of copying every edge."""
    out = Topology()
    adj = out._adj = dict(topology._adj)
    for node in changed:
        adj[node] = dict(adj[node])
    out._vf_policies = topology._vf_policies
    return out


_COMMENT = re.compile(r"(?:^|\s)#")


def _data_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """``(line number, raw line, content)`` for each line of ``text`` that
    holds data, the one comment rule of every input format. The content is
    the line without its comment, stripped. A comment starts at a ``#`` that
    begins the line or follows whitespace; any other ``#`` is part of a
    token. Blank and comment-only lines are skipped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        # most lines hold no ``#``, and ``in`` is cheaper than the pattern
        line = (_COMMENT.split(raw, 1)[0] if "#" in raw else raw).strip()
        if line:
            yield line_no, raw, line


def parse_caida_asrel(text: str) -> Topology:
    """Parse a serial-1 pipe-delimited AS relationship listing.

    Lines look like ``<as1>|<as2>|<rel>`` where rel -1 marks as1 as the
    provider of as2 and rel 0 marks a peering; comments follow ``_data_lines``.

    >>> t = parse_caida_asrel("1|2|-1\\n1|3|0  # a peering\\n")
    >>> assert t.relationship(1, 2) == Relationship.P2C
    >>> assert t.relationship(2, 1) == Relationship.C2P
    >>> assert t.relationship(3, 1) == Relationship.P2P
    """
    topology = Topology()
    adj = topology._adj
    p2c, p2p, c2p = Relationship.P2C, Relationship.P2P, Relationship.C2P
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
            rel, back = p2c, c2p
        elif rel_code == 0:
            rel = back = p2p
        else:
            raise TopologyParseError(f"unknown relationship code {rel_code}", line_no)
        row = adj.get(as1)
        if row is not None and as2 not in row and as1 != as2:
            # a new pair from a known node: both rows as ``add_edge`` writes them
            row[as2] = rel
            other = adj.get(as2)
            if other is None:
                adj[as2] = {as1: back}
            else:
                other[as1] = back
        else:
            # a new first endpoint, a self-loop or a repeated pair
            try:
                topology.add_edge(as1, as2, rel)
            except EdgeConflictError as exc:
                raise TopologyParseError(str(exc), line_no) from None
        count += 1
    if logger.isEnabledFor(logging.INFO):  # num_edges walks every row
        logger.info("parsed %d relationship lines: %d nodes, %d edges",
                    count, topology.num_nodes, topology.num_edges)
    return topology


def serialize_topology(topology: Topology) -> str:
    """Canonical text form: sorted node lines then sorted edge triples.

    The relationship on each ``edge i j rel`` line is the one seen from i,
    with i < j. Round-trips through ``parse_topology``.
    """
    out = ["# topology v1"]
    for node in sorted(topology.nodes()):
        out.append(f"node {node}")
    for i in sorted(topology.nodes()):
        for j in sorted(topology.neighbors(i)):
            if i < j:
                rel = topology.relationship(i, j)
                name = _REL_NAMES[rel] if rel is not None else "unset"
                out.append(f"edge {i} {j} {name}")
    return "\n".join(out) + "\n"


def parse_topology(text: str) -> Topology:
    """Parse the canonical form produced by ``serialize_topology``.
    Comments follow ``_data_lines``."""
    topology = Topology()
    for line_no, _, line in _data_lines(text):
        parts = line.split()
        if parts[0] == "node" and len(parts) == 2:
            try:
                topology.add_node(int(parts[1]))
            except ValueError:
                raise TopologyParseError(f"bad node id in {line!r}", line_no) from None
        elif parts[0] == "edge" and len(parts) == 4:
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise TopologyParseError(f"bad edge in {line!r}", line_no) from None
            if parts[3] == "unset":
                rel = None
            elif parts[3] in _REL_BY_NAME:
                rel = _REL_BY_NAME[parts[3]]
            else:
                raise TopologyParseError(f"unknown relationship {parts[3]!r}", line_no)
            try:
                topology.add_edge(i, j, rel)
            except EdgeConflictError as exc:
                raise TopologyParseError(str(exc), line_no) from None
        else:
            raise TopologyParseError(f"unrecognized line {line!r}", line_no)
    return topology


def derive_vf_policies(topology: Topology) -> Topology:
    """Return a new Topology, sharing every row of ``topology``, with
    valley-free policies enabled.

    Preferences follow VF_LOCAL_PREF per relationship class; the export
    rule allows a route to be exported iff it goes to a customer or was
    learned from one. Raises PolicyError if any edge lacks a relationship,
    or if providers form a cycle: each node of it a provider of the next.
    """
    _check_hierarchy(topology)
    out = _derive(topology, ())
    out._vf_policies = True
    return out


def _check_hierarchy(topology: Topology) -> None:
    """Raise PolicyError at an edge without a relationship or at a cycle of
    provider-to-customer edges, naming the cycle's edges. One iterative
    depth-first search that reads each edge once per direction: O(N+E)."""
    adj = topology._adj
    p2c = Relationship.P2C
    finished: dict[int, bool] = {}  # False while on the current path
    for start in adj:
        if start in finished:
            continue
        path, stack = [start], [iter(adj[start].items())]
        finished[start] = False
        while stack:
            for j, rel in stack[-1]:
                if rel is not p2c:
                    if rel is None:
                        raise PolicyError(f"edge {path[-1]}-{j} has no relationship")
                elif j not in finished:
                    finished[j] = False
                    path.append(j)
                    stack.append(iter(adj[j].items()))
                    break
                elif not finished[j]:
                    cycle = path[path.index(j):] + [j]
                    edges = ", ".join(f"{a}-{b}" for a, b in zip(cycle, cycle[1:]))
                    raise PolicyError(f"provider-to-customer cycle through edges {edges}")
            else:
                stack.pop()
                finished[path.pop()] = True


@dataclass(frozen=True)
class DestinationSpec:
    """How the destination connects to the graph.

    Single-origin form: ``attachments`` maps each neighbor node to the
    ingress identifier it belongs to (several neighbors may share one
    ingress). MOAS form: ``moas_origins`` lists existing nodes that all
    originate the destination; each origin becomes its own ingress point.
    ``attachment_rels`` optionally overrides, per neighbor, the relationship
    of the destination toward that neighbor (default: destination is the
    neighbor's customer). Ingress names follow ``_check_ingress_name``.
    """

    attachments: Mapping[int, str] = field(default_factory=dict)
    moas_origins: tuple[int, ...] = ()
    attachment_rels: Mapping[int, Relationship] = field(default_factory=dict)
    dst_id: int | None = None

    def __post_init__(self) -> None:
        if bool(self.attachments) == bool(self.moas_origins):
            raise DestinationSpecError(
                "provide either attachments or MOAS origins (exactly one)"
            )
        if len(set(self.moas_origins)) != len(self.moas_origins):
            raise DestinationSpecError("duplicate MOAS origin")
        for name in dict.fromkeys(self.attachments.values()):
            _check_ingress_name(name)


# besides these, whitespace and control characters are refused
_NAME_FORBIDDEN = frozenset('#,"\\')


def _check_ingress_name(name: str) -> None:
    """Raise DestinationSpecError unless ``name`` is a non-empty run of
    characters other than whitespace, control characters, ``#``, ``,``,
    ``"`` and ``\\``. Every report file can then hold it as it is."""
    if not name:
        raise DestinationSpecError("empty ingress name")
    for ch in name:
        if ch in _NAME_FORBIDDEN or ch.isspace() or unicodedata.category(ch) == "Cc":
            raise DestinationSpecError(f"ingress name {name!r} holds {ch!r}")


@dataclass(frozen=True)
class AugmentedTopology:
    """A topology with the destination (and any virtual nodes) spliced in.

    ``ingress_map`` relates each node adjacent to the destination to the
    ingress point its traffic enters through. ``virtual_nodes`` holds
    synthetic nodes (prepending chains); together with the destination they
    are excluded from reporting universes.
    """

    topology: Topology
    n_dst: int
    ingress_map: Mapping[int, str]
    virtual_nodes: frozenset[int] = frozenset()

    @property
    def real_nodes(self) -> tuple[int, ...]:
        skip = set(self.virtual_nodes)
        skip.add(self.n_dst)
        return tuple(sorted(n for n in self.topology.nodes() if n not in skip))


def attach_destination(topology: Topology, spec: DestinationSpec) -> AugmentedTopology:
    """Splice the destination node into the topology as ``spec`` describes.

    The new node is the customer of every attached neighbor unless
    ``spec.attachment_rels`` says otherwise. Policies are enabled on the
    result if they were enabled on the input.
    """
    if spec.moas_origins:
        neighbor_to_ingress = {origin: str(origin) for origin in spec.moas_origins}
    else:
        neighbor_to_ingress = dict(spec.attachments)
    for neighbor in neighbor_to_ingress:
        if neighbor not in topology:
            raise UnknownNodeError(f"attachment neighbor {neighbor} not in topology")

    n_dst = spec.dst_id
    if n_dst is None:
        n_dst = max(topology.nodes()) + 1
    elif n_dst in topology:
        raise DestinationSpecError(f"destination id {n_dst} collides with a base node")

    augmented = _derive(topology, neighbor_to_ingress)
    augmented.add_node(n_dst)
    for neighbor in neighbor_to_ingress:
        rel = spec.attachment_rels.get(neighbor, Relationship.C2P)
        augmented.add_edge(n_dst, neighbor, rel)
    return AugmentedTopology(
        topology=augmented,
        n_dst=n_dst,
        ingress_map=dict(neighbor_to_ingress),
    )


def apply_prepending(aug: AugmentedTopology, ingress: str, k: int) -> AugmentedTopology:
    """Insert k virtual chain nodes between the destination and an ingress.

    The chain carries pass-through relationships (each link mirrors the
    destination's attitude toward that ingress's neighbors), so it changes
    path lengths without changing which paths are eligible. k = 0 returns
    an equivalent topology unchanged.
    """
    if k < 0:
        raise DestinationSpecError(f"prepend count must be >= 0, got {k}")
    if ingress not in set(aug.ingress_map.values()):
        raise UnknownNodeError(f"unknown ingress {ingress!r}")
    if k == 0:
        return aug

    affected = sorted(n for n, m in aug.ingress_map.items() if m == ingress)
    topology = _derive(aug.topology, [aug.n_dst, *affected])
    next_id = max(topology.nodes()) + 1
    chain = list(range(next_id, next_id + k))

    # Detach the affected neighbors from n_dst, remembering the relationship
    # each of them had toward the destination side.
    saved_rels = {n: topology.relationship(aug.n_dst, n) for n in affected}
    for n in affected:
        del topology._adj[aug.n_dst][n]
        del topology._adj[n][aug.n_dst]

    # n_dst - v1 - ... - vk - neighbors, with each inner link keeping the
    # destination as the customer side so the chain forwards everything.
    inner = [aug.n_dst] + chain
    for a, b in zip(inner, inner[1:]):
        topology.add_edge(a, b, Relationship.C2P)
    tail = chain[-1]
    for n in affected:
        topology.add_edge(tail, n, saved_rels[n])

    ingress_map = {n: m for n, m in aug.ingress_map.items() if m != ingress}
    ingress_map[chain[0]] = ingress
    return AugmentedTopology(
        topology=topology,
        n_dst=aug.n_dst,
        ingress_map=ingress_map,
        virtual_nodes=aug.virtual_nodes | frozenset(chain),
    )


def generate_random_topology(
    num_nodes: int,
    *,
    avg_degree: float | None = None,
    peer_fraction: float = 0.15,
    seed: int = 0,
) -> Topology:
    """Random connected relationship graph, deterministic per seed.

    Nodes are ranked into a hierarchy; customer/provider edges always point
    from lower to higher rank, so the provider relation stays acyclic. A
    random spanning tree guarantees connectivity; extra edges are added up
    to ``avg_degree * num_nodes / 2`` total. Each edge is a peering with
    probability ``peer_fraction``, customer/provider otherwise. Without
    ``avg_degree`` the degree is 2.5, or ``num_nodes - 1`` (every pair an
    edge) when that is smaller. Every draw comes straight from
    ``getrandbits`` and is the one the stdlib's ``shuffle``, ``randrange``
    and ``sample`` (its pool/set switch at 21 nodes included) would make, so
    a seed gives the topology those calls gave.
    """
    if num_nodes <= 0:
        raise GenerationError(f"need at least one node, got {num_nodes}")
    if not 0 <= peer_fraction <= 1:
        raise GenerationError(f"peer_fraction must be in [0,1], got {peer_fraction}")
    if avg_degree is None:
        avg_degree = min(2.5, num_nodes - 1)
    if not math.isfinite(avg_degree):
        raise GenerationError(f"avg_degree must be finite, got {avg_degree}")
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

    # Each draw is the one CPython's ``Random._randbelow`` makes for the
    # stdlib call named beside it: ``bound.bit_length()`` bits, drawn again
    # until the value is below the bound.
    rng = random.Random(seed)
    bits, uniform = rng.getrandbits, rng.random
    order = list(range(1, num_nodes + 1))
    for i in range(num_nodes - 1, 0, -1):  # rng.shuffle(order)
        k = (i + 1).bit_length()
        j = bits(k)
        while j > i:
            j = bits(k)
        order[i], order[j] = order[j], order[i]
    # order[0] is the top of the hierarchy; a node's rank is its index
    p2p, p2c = Relationship.P2P, Relationship.P2C

    # Rows are written directly, in add_edge's order: the provider's entry,
    # then the customer's. The earlier-ranked endpoint acts as the provider.
    topology = Topology()
    adj = topology._adj
    adj[order[0]] = {}
    for idx in range(1, num_nodes):
        # a spanning tree: v is ranked earlier (the provider side), u's row is new
        k = idx.bit_length()
        j = bits(k)  # rng.randrange(idx)
        while j >= idx:
            j = bits(k)
        u = order[idx]
        v = order[j]
        rel = p2p if uniform() < peer_fraction else p2c
        adj[v][u] = rel
        adj[u] = {v: _REVERSED[rel]}

    # rng.sample(order, 2) picks index a below n, then index b: up to 21
    # nodes from a pool of the other n - 1, where a's slot holds the last
    # index; above that, below n again until it differs from a
    n, last = num_nodes, num_nodes - 1
    k, k_pool = n.bit_length(), last.bit_length()
    from_pool = n <= 21
    edges = num_nodes - 1
    attempts = 0
    max_attempts = 50 * target_edges + 100
    while edges < target_edges and attempts < max_attempts:
        attempts += 1
        a = bits(k)
        while a >= n:
            a = bits(k)
        if from_pool:
            b = bits(k_pool)
            while b >= last:
                b = bits(k_pool)
            if b == a:
                b = last
        else:
            b = bits(k)
            while b >= n or b == a:
                b = bits(k)
        u, v = order[a], order[b]
        if v in adj[u]:
            continue
        provider, customer = (u, v) if a < b else (v, u)
        rel = p2p if uniform() < peer_fraction else p2c
        adj[provider][customer] = rel
        adj[customer][provider] = _REVERSED[rel]
        edges += 1
    if edges < target_edges:
        logger.warning("reached %d of %d requested edges", edges, target_edges)
    logger.debug(
        "generated %d nodes, %d edges: %d sample draws, %d duplicate draws",
        num_nodes, edges, attempts, attempts - (edges - num_nodes + 1),
    )
    return topology
