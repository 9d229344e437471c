"""Seeded inputs for each workload, plus the expectations the checks use.

Everything is derived from the workload name and ``--seed``: the topology
seed, the relationship file, the attachment nodes, the hidden seed of the
ground-truth propagation run, the observations and the plan candidates. The
same seed always writes the same bytes. The program later receives only the
files written here.
"""
from __future__ import annotations

import random
from collections import ChainMap
from dataclasses import dataclass, field
from pathlib import Path

import reference

# name -> parameters; the reasons for each choice are in README.md
WORKLOADS = {
    "run-large": {"entry": "run", "n": 50_000, "degree": 4.0, "sp": True,
                  "caida": True, "reach": (0.65, 0.75)},
    "plan-10k": {"entry": "plan", "n": 10_000, "degree": 4.0, "sp": False,
                 "reach": (0.75, 0.85), "uncertain": (0.6, 0.68),
                 "budget": 2, "candidates": 20},
    "posterior-mc": {"entry": "run", "n": 10_000, "degree": 4.0, "sp": False,
                     "reach": (0.75, 0.85), "uncertain": (0.6, 0.68),
                     "observations": 2, "trials": 1000},
    "validate-full": {"entry": "validate"},
}
INGRESSES = 3
# Work grows with the number of nodes that have a route ("reach") and, on
# the 10k workloads, with the share of those left uncertain. Over uniformly
# drawn attachments, reach ranged from 6% to 74% of 50k nodes and the
# uncertain share from 2% to 86% of the routed 10k nodes. So the
# attachment draw is repeated until both fall in the workload's band: seeds
# differ in topology but not in how much there is to infer.
MAX_ATTACH_DRAWS = 200
# Observed nodes are drawn among those whose forward probability of their
# true ingress lies in this band: informative observations, and rejection
# sampling keeps a steady share of its samples.
OBSERVED_PROB = (0.4, 0.6)


@dataclass
class Inputs:
    entry: str
    scenario: Path | None = None
    validate_seed: int = 0
    # expectations, all computed without the package's inference code
    report_nodes: int = 0
    truth: dict[int, str] = field(default_factory=dict)
    observations: list[tuple[int, str]] = field(default_factory=list)
    candidates: tuple[int, ...] = ()
    budget: int = 0
    certain_count: int = 0
    digest: str | None = None


def _edges(topo, catchmap) -> list[tuple[int, int, bool]]:
    """(provider, customer, False) and (a, b, True) for peers, sorted."""
    p2c, p2p = catchmap.Relationship.P2C, catchmap.Relationship.P2P
    edges = []
    for i in sorted(topo.nodes()):
        for j in sorted(topo.neighbors(i)):
            rel = topo.relationship(i, j)
            if rel == p2c:
                edges.append((i, j, False))
            elif rel == p2p and i < j:
                edges.append((i, j, True))
    return edges


def _caida_text(edges) -> str:
    return "".join(
        f"{a}|{b}|{0 if is_peer else -1}\n" for a, b, is_peer in edges
    )


def _forward_probs(parents, root, attachments, routes):
    """Uniform-tie forward probabilities (to pick observable nodes)."""
    probs: dict[int, dict[str, float]] = {}
    for node in reference.topological_order(parents, root):
        if node == root:
            continue
        if routes[node] is not None:
            probs[node] = {routes[node]: 1.0}
            continue
        dist: dict[str, float] = {}
        w = 1.0 / len(parents[node]) if parents[node] else 0.0
        for p in parents[node]:
            src = {attachments[node]: 1.0} if p == root else probs[p]
            for m, q in src.items():
                dist[m] = dist.get(m, 0.0) + w * q
        probs[node] = dist
    return probs


def _independent_candidates(rng, uncertain, count, parents, routes, support):
    """Draw ``count`` measurement candidates that do not interact.

    Candidates are edge networks (no node forwards through them), where
    probes usually sit, that can end up at any ingress. Observing one may
    pin nodes; those nodes and everything below them form its region. A
    candidate is kept only if no kept candidate lies in its region and it
    lies in none of theirs, so measuring one never changes the possible
    ingresses of another, and the greedy planner's second step always
    branches the same number of times. Returns None if too few qualify.
    """
    children = reference.children_of(parents)
    pool = [n for n in uncertain if len(support[n]) == INGRESSES and not children[n]]
    chosen: list[int] = []
    covered: set[int] = set()
    for c in rng.sample(pool, len(pool)):
        if c in covered:
            continue
        region: set[int] = set()
        for m in sorted(support[c]):
            pins = ChainMap({}, routes)
            reference.propagate(parents, children, pins, support, [(c, m)])
            stack = list(pins.maps[0])
            while stack:
                n = stack.pop()
                if n not in region:
                    region.add(n)
                    stack.extend(children[n])
        if region.isdisjoint(chosen):
            chosen.append(c)
            covered |= region
            if len(chosen) == count:
                return tuple(sorted(chosen))
    return None


def generate(workload: str, seed: int, work: Path, catchmap) -> Inputs:
    """Write the workload's input files under ``work`` and return expectations."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    work.mkdir(parents=True, exist_ok=True)
    if spec["entry"] == "validate":
        return Inputs("validate", validate_seed=rng.randrange(2**31))

    topo_seed = rng.randrange(2**31)
    scenario_seed = rng.randrange(2**31)
    truth_seed = rng.randrange(2**31)
    topo = catchmap.generate_random_topology(
        spec["n"], avg_degree=spec["degree"], seed=topo_seed
    )
    nodes = sorted(topo.nodes())
    edges = _edges(topo, catchmap)
    for _ in range(MAX_ATTACH_DRAWS):
        attached = sorted(rng.sample(nodes, INGRESSES))
        attachments = {n: f"m{i + 1}" for i, n in enumerate(attached)}
        rel = reference.Relations(edges, attachments)
        parents = reference.forwarding_parents(rel)
        if spec["sp"]:
            parents = reference.prune_to_shortest(parents, rel.root)
        routes = reference.certain_routes(parents, rel.root, attachments)
        reachable = [n for n in nodes if parents[n]]
        uncertain = [n for n in reachable if routes[n] is None]
        support = reference.route_support(parents, rel.root, attachments, routes)
        shares = {"reach": len(reachable) / len(nodes),
                  "uncertain": len(uncertain) / len(reachable)}
        if not all(spec[k][0] <= v <= spec[k][1] for k, v in shares.items() if k in spec):
            continue
        if spec["entry"] != "plan":
            break
        candidates = _independent_candidates(
            rng, uncertain, spec["candidates"], parents, routes, support
        )
        if candidates is not None:
            break
    else:
        raise RuntimeError(f"no attachment draw of {workload} falls in its bands")

    lines = [f"# {workload}, benchmark seed {seed}"]
    if spec.get("caida"):
        (work / "topology.asrel").write_text(_caida_text(edges))
        lines.append("topology file topology.asrel")
    else:
        lines.append(
            f"topology generate n={spec['n']} avg_degree={spec['degree']} "
            f"seed={topo_seed}"
        )
    lines += [f"attach {n} {m}" for n, m in attachments.items()]
    lines += ["mode probabilistic", f"sp {'on' if spec['sp'] else 'off'}",
              f"seed {scenario_seed}"]
    inputs = Inputs(spec["entry"], report_nodes=len(nodes))

    if spec["entry"] == "plan":
        inputs.candidates = candidates
        inputs.budget = spec["budget"]
        lines.append(f"plan budget {spec['budget']}")
        lines.append("plan candidates " + " ".join(map(str, inputs.candidates)))
    else:
        aug = catchmap.attach_destination(
            catchmap.derive_vf_policies(topo),
            catchmap.DestinationSpec(attachments=attachments),
        )
        result = catchmap.run_bgp(aug, truth_seed, sp_mode=spec["sp"])
        inputs.truth = catchmap.simulated_catchment(result, aug)
        if spec.get("observations"):
            probs = _forward_probs(parents, rel.root, attachments, routes)
            observable = [
                n for n in uncertain
                if OBSERVED_PROB[0] <= probs[n].get(inputs.truth[n], 0.0) <= OBSERVED_PROB[1]
            ]
            picked = rng.sample(observable, spec["observations"])
            inputs.observations = [(n, inputs.truth[n]) for n in picked]
            (work / "observations.csv").write_text(
                "".join(f"{n},{m},traceroute\n" for n, m in inputs.observations)
            )
            lines.append("oracles observations.csv")
            lines.append(f"posterior monte-carlo {spec['trials']}")
            routes = reference.observe(
                parents, rel.root, routes, support, inputs.observations
            )
        inputs.digest = reference.digest(
            {n: routes[n] for n in nodes}, reference.edgelist_text(parents)
        )
    inputs.certain_count = sum(routes[n] is not None for n in nodes)
    inputs.scenario = work / "scenario.txt"
    inputs.scenario.write_text("\n".join(lines) + "\n")
    return inputs
