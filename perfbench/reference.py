"""Independent expectations for the benchmark's output checks.

Under pure valley-free policies on an acyclic provider hierarchy, a node's
possible next hops depend only on each neighbour's best route class
(customer, peer or provider), which three breadth-first passes compute in
linear time (Gao & Rexford, ToN 2001). This module derives the forwarding
graph, the shortest-path pruning, the certain routes and the observation
propagation from the relationship lists alone. It shares no code with the
package, so a faster or restructured engine is checked against the same
expectations.
"""
from __future__ import annotations

import hashlib
from collections import deque


class Relations:
    """Provider, customer and peer lists per node, plus the destination."""

    def __init__(self, edges, attachments):
        """``edges``: (provider, customer, is_peer); ``attachments``: node -> ingress."""
        self.providers: dict[int, list[int]] = {}
        self.customers: dict[int, list[int]] = {}
        self.peers: dict[int, list[int]] = {}
        nodes = set()
        for a, b, is_peer in edges:
            nodes.update((a, b))
            if is_peer:
                self.peers.setdefault(a, []).append(b)
                self.peers.setdefault(b, []).append(a)
            else:
                self.customers.setdefault(a, []).append(b)
                self.providers.setdefault(b, []).append(a)
        self.nodes = sorted(nodes)
        self.root = self.nodes[-1] + 1
        self.attachments = dict(attachments)


def forwarding_parents(rel: Relations) -> dict[int, tuple[int, ...]]:
    """Every next hop in each node's most preferred route class."""
    customer_route = set(rel.attachments)
    queue = deque(rel.attachments)
    while queue:
        node = queue.popleft()
        for p in rel.providers.get(node, ()):
            if p not in customer_route:
                customer_route.add(p)
                queue.append(p)
    peer_route = {
        n for n in rel.nodes
        if n not in customer_route
        and any(q in customer_route for q in rel.peers.get(n, ()))
    }
    routed = customer_route | peer_route
    queue = deque(sorted(routed))
    while queue:
        node = queue.popleft()
        for c in rel.customers.get(node, ()):
            if c not in routed:
                routed.add(c)
                queue.append(c)

    parents: dict[int, tuple[int, ...]] = {rel.root: ()}
    for n in rel.nodes:
        if n in customer_route:
            ps = [c for c in rel.customers.get(n, ()) if c in customer_route]
            if n in rel.attachments:
                ps.append(rel.root)
        elif n in peer_route:
            ps = [q for q in rel.peers.get(n, ()) if q in customer_route]
        elif n in routed:
            ps = [p for p in rel.providers.get(n, ()) if p in routed]
        else:
            ps = []
        parents[n] = tuple(sorted(ps))
    return parents


def children_of(parents: dict[int, tuple[int, ...]]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {n: [] for n in parents}
    for n in sorted(parents):
        for p in parents[n]:
            children[p].append(n)
    return children


def prune_to_shortest(parents, root):
    """Keep only parent edges that lie on a minimum-hop route to the root."""
    children = children_of(parents)
    level = {root: 0}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for c in children[node]:
            if c not in level:
                level[c] = level[node] + 1
                queue.append(c)
    return {
        n: tuple(p for p in ps if level[p] + 1 <= level[n])
        for n, ps in parents.items()
    }


def topological_order(parents, root):
    """Nodes reachable from the root, every node after all of its parents."""
    children = children_of(parents)
    order, queue = [], deque([root])
    pending = {n: len(ps) for n, ps in parents.items()}
    while queue:
        node = queue.popleft()
        order.append(node)
        for c in children[node]:
            pending[c] -= 1
            if pending[c] == 0:
                queue.append(c)
    return order


def certain_routes(parents, root, attachments):
    """Ingress of each node all of whose next hops agree; None otherwise."""
    routes: dict[int, str | None] = {n: None for n in parents if n != root}
    for node in topological_order(parents, root):
        if node == root:
            continue
        if root in parents[node]:
            routes[node] = attachments[node]
            continue
        labels = {routes[p] for p in parents[node]}
        if len(labels) == 1:
            routes[node] = labels.pop()
    return routes


def route_support(parents, root, attachments, routes):
    """Ingresses each node can end up with (the support of its distribution)."""
    support: dict[int, set[str]] = {root: set()}
    for node in topological_order(parents, root):
        if node == root:
            continue
        if routes[node] is not None:
            support[node] = {routes[node]}
            continue
        s: set[str] = set()
        for p in parents[node]:
            s |= {attachments[node]} if p == root else support[p]
        support[node] = s
    for node in parents:
        support.setdefault(node, set())
    return support


def observe(parents, root, routes, support, observations):
    """Routes after pinning the observed nodes and spreading the certainty.

    Upward: a pinned node whose ingress only one unpinned next hop could
    carry pins that next hop. Downward: a node whose next hops are all
    pinned to one ingress is pinned. Observations are applied in order,
    depth first, as the scenario lists them.
    """
    routes = dict(routes)
    propagate(parents, children_of(parents), routes, support, observations)
    return routes


def propagate(parents, children, routes, support, observations) -> None:
    """Pin observations into ``routes`` in place (see ``observe``).

    ``support`` is the pre-observation support; a pinned node's support is
    its pinned ingress.
    """
    for node, ingress in observations:
        stack = [(node, ingress)]
        while stack:
            n, m = stack.pop()
            if routes.get(n) is not None:
                if routes[n] != m:
                    raise ValueError(f"observations contradict at node {n}")
                continue
            routes[n] = m
            carriers = [
                p for p in parents[n]
                if (routes[p] == m if routes.get(p) is not None else m in support[p])
            ]
            if len(carriers) == 1 and routes.get(carriers[0]) is None:
                stack.append((carriers[0], m))
            for c in children[n]:
                if routes.get(c) is not None:
                    continue
                labels = {routes.get(p) for p in parents[c]}
                if len(labels) == 1:
                    (only,) = labels
                    if only is not None:
                        stack.append((c, only))


def edgelist_text(parents) -> str:
    return "".join(f"{p} {c}\n" for p, c in sorted(
        (p, c) for c, ps in parents.items() for p in ps
    ))


def digest(routes: dict[int, str | None], edgelist: str) -> str:
    """Hash of the per-node routes and the forwarding-graph edge list."""
    h = hashlib.sha256()
    for n in sorted(routes):
        h.update(f"{n}:{routes[n] or ''}\n".encode())
    h.update(edgelist.encode())
    return h.hexdigest()
