"""Deterministic seeded simulation of policy-constrained route propagation.

Synchronous rounds: every node re-evaluates its best path from what its
neighbors selected in the previous round, until nothing changes. Ties within
the maximal preference class are broken by a per-(node, neighbor) random rank
drawn once per run, so one run makes one draw per decision point. The
destination's directly attached neighbors always keep their direct route when
it is within their maximal class: their ingress assignment is ground truth of
the scenario, not a tie to be re-rolled.
"""
from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from .errors import ConvergenceError
from .topology import AugmentedTopology

logger = logging.getLogger(__name__)

Path = tuple[int, ...]  # (source, ..., destination)


@dataclass
class SimResult:
    """Fixed point of one propagation run.

    ``ribs`` holds, per node, every valid route offer at the fixed point,
    keyed by the next-hop neighbor; ``best_paths`` the selected one (or
    None when the node has no route). ``rounds`` counts update rounds
    until quiescence.
    """

    ribs: dict[int, dict[int, Path]]
    best_paths: dict[int, Path | None]
    seed: int
    sp_mode: bool = False
    rounds: int = 0


def _tie_ranks(
    aug: AugmentedTopology, seed: int
) -> dict[int, dict[int, float]]:
    """One uniform rank per (node, neighbor), drawn in a fixed global order.

    The destination's offer at an attached neighbor gets an infinite rank so
    the direct route wins any tie in its preference class.
    """
    rng = random.Random(seed)
    ranks: dict[int, dict[int, float]] = {}
    topology = aug.topology
    for node in sorted(topology.nodes()):
        row: dict[int, float] = {}
        for neighbor in sorted(topology.neighbors(node)):
            row[neighbor] = rng.random()
        if node in aug.ingress_map:
            row[aug.n_dst] = float("inf")
        ranks[node] = row
    return ranks


def run_bgp(aug: AugmentedTopology, seed: int, *, sp_mode: bool = False) -> SimResult:
    """Propagate routes from the destination to a fixed point.

    Deterministic for a given seed. Nodes never accept paths containing
    themselves; exports follow the topology's policies. With ``sp_mode``
    the tie-break prefers shorter paths before drawing randomly, otherwise
    path length is ignored entirely.

    Raises ConvergenceError if quiescence takes more rounds than there are
    nodes (which the policy model rules out).
    """
    topology = aug.topology
    if not topology.has_policies:
        # surfaces a PolicyError with context on first use below; probe now
        topology.local_pref(aug.n_dst, next(iter(topology.neighbors(aug.n_dst))))

    ranks = _tie_ranks(aug, seed)
    n_dst = aug.n_dst
    best: dict[int, Path | None] = {n: None for n in topology.nodes()}
    best[n_dst] = (n_dst,)

    def select(node: int) -> Path | None:
        choice: Path | None = None
        choice_key: tuple | None = None
        for neighbor in topology.neighbors(node):
            offer = best[neighbor]
            if offer is None or node in offer:
                continue
            if neighbor != n_dst and not topology.exports(neighbor, offer[1], node):
                continue
            if sp_mode:
                key = (topology.local_pref(node, neighbor), -len(offer), ranks[node][neighbor])
            else:
                key = (topology.local_pref(node, neighbor), ranks[node][neighbor])
            if choice_key is None or key > choice_key:
                choice_key = key
                choice = (node, *offer)
        return choice

    num_nodes = topology.num_nodes
    pending = set(topology.nodes())
    pending.discard(n_dst)
    rounds = 0
    while pending:
        rounds += 1
        if rounds > num_nodes + 1:
            raise ConvergenceError(
                f"no fixed point after {rounds - 1} rounds on {num_nodes} nodes"
            )
        new_best = {node: select(node) for node in pending}
        changed = [node for node, path in new_best.items() if path != best[node]]
        for node in changed:
            best[node] = new_best[node]
        # only nodes adjacent to a change can move next round
        pending = set()
        for node in changed:
            pending.update(topology.neighbors(node))
        pending.discard(n_dst)

    ribs: dict[int, dict[int, Path]] = {}
    for node in topology.nodes():
        if node == n_dst:
            continue
        offers: dict[int, Path] = {}
        for neighbor in topology.neighbors(node):
            offer = best[neighbor]
            if offer is None or node in offer:
                continue
            if neighbor != n_dst and not topology.exports(neighbor, offer[1], node):
                continue
            offers[neighbor] = (node, *offer)
        ribs[node] = offers

    best.pop(n_dst)
    logger.debug("propagation converged after %d rounds (seed %d)", rounds, seed)
    return SimResult(ribs=ribs, best_paths=best, seed=seed, sp_mode=sp_mode, rounds=rounds)


def simulated_catchment(result: SimResult, aug: AugmentedTopology) -> dict[int, str]:
    """Map each routed real node to the ingress its best path enters through.

    The ingress is the one of the last hop before the destination. Nodes
    without a best path are omitted; virtual chain nodes are not reported.
    """
    skip = set(aug.virtual_nodes)
    skip.add(aug.n_dst)
    catchment: dict[int, str] = {}
    for node, path in result.best_paths.items():
        if node in skip or path is None:
            continue
        penultimate = path[-2]
        try:
            catchment[node] = aug.ingress_map[penultimate]
        except KeyError:
            raise ConvergenceError(
                f"best path of {node} enters via unattached node {penultimate}"
            ) from None
    return catchment

