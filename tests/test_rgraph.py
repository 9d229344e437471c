"""Forwarding-graph construction, orderings, and path enumeration."""

from __future__ import annotations

import collections
import dataclasses
import random
import re

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from catchmap import (
    DestinationSpec,
    RGraph,
    Relationship,
    Topology,
    apply_prepending,
    attach_destination,
    build_rgraph,
    derive_vf_policies,
    enumerate_rpaths,
    generate_random_topology,
    parse_caida_asrel,
    shortest_path_transform,
    simulated_parents,
    topological_order,
)
from catchmap.cli import main, path_mismatches
from catchmap.errors import (
    CapacityError, CycleError, DestinationSpecError, InputError, PolicyError, UnknownNodeError,
)
from catchmap.rgraph import (
    MAX_EXACT_NODES,
    brute_force_eligible_paths,
    exact_limit,
    rgraph_dot,
    rgraph_edgelist,
)
from catchmap.scenario import build_augmented, parse_scenario_file

import helpers


def test_example_edges_frozen(example_graph):
    assert set(example_graph.edges()) == set(helpers.EXPECTED_EDGES)
    assert example_graph.root == helpers.DST
    assert example_graph.num_edges == len(helpers.EXPECTED_EDGES)


def test_chain_becomes_reversed_chain():
    topo = Topology()
    topo.add_edge(3, 2, Relationship.C2P)
    topo.add_edge(2, 1, Relationship.C2P)
    vf = derive_vf_policies(topo)
    aug = attach_destination(vf, DestinationSpec(attachments={3: "m"}))
    g = build_rgraph(aug)
    assert set(g.edges()) == {(aug.n_dst, 3), (3, 2), (2, 1)}


def test_seed_invariance():
    # what lets simulated_parents cross-check the builder with one fixed seed
    for idx in range(30):
        aug = helpers.random_instance(idx, num_nodes=6 + idx % 7)
        offers = simulated_parents(aug, 0)
        for s in (1, 99):
            assert simulated_parents(aug, s) == offers, (
                f"instance {idx}: seed {s} changes a maximal-class offer set"
            )
        g = build_rgraph(aug)
        assert {n: g.parents[n] for n in offers} == offers


def _one_of_each_class():
    # 1 provides 2, 2 peers with 3, 3 provides 4, 4 peers with 5; the
    # destination (6) is a customer of 2
    topo = parse_caida_asrel("1|2|-1\n2|3|0\n3|4|-1\n4|5|0\n")
    return attach_destination(derive_vf_policies(topo), DestinationSpec(attachments={2: "m"}))


def test_one_node_of_each_route_class():
    aug = _one_of_each_class()
    g = build_rgraph(aug)
    # 2 and 1 customer class, 3 peer, 4 provider; 5 hears nothing, since 4
    # exports a route from its provider to customers only
    assert dict(g.parents) == {1: (2,), 2: (6,), 3: (2,), 4: (3,), 5: (), 6: ()}
    assert list(g.parents)[:5] == list(aug.topology.nodes())[:5]


def test_build_logs_graph_size_and_route_classes(caplog):
    with caplog.at_level("DEBUG", logger="catchmap.rgraph"):
        build_rgraph(_one_of_each_class())
    assert (
        "forwarding graph: 6 nodes, 4 edges; route classes: 2 customer, "
        "1 peer, 1 provider, 1 no route"
    ) in caplog.messages


def test_build_needs_policies():
    topo = Topology()
    topo.add_edge(1, 2, Relationship.P2C)
    with pytest.raises(PolicyError, match="derive policies first"):
        build_rgraph(attach_destination(topo, DestinationSpec(attachments={2: "m"})))


class TestDestinationCycle:
    """A ``p2c`` attachment makes the destination a provider; with a ``c2p``
    one above it, the attachments can close a provider cycle."""

    # 1 provides 2, 2 provides 3
    CHAIN = "1|2|-1\n2|3|-1\n"

    def _aug(self, attachments, rels):
        topo = derive_vf_policies(parse_caida_asrel(self.CHAIN))
        return attach_destination(
            topo, DestinationSpec(attachments=attachments, attachment_rels=rels)
        )

    def test_cycle_through_the_destination_named(self):
        # the destination (4) provides 1 and is a customer of 3
        aug = self._aug({1: "m1", 3: "m2"}, {1: Relationship.P2C})
        with pytest.raises(PolicyError, match=r"cycle through edges 1-2, 2-3, 3-4, 4-1$"):
            build_rgraph(aug)

    def test_cycle_through_a_prepending_chain_named(self):
        # both attachments share m; prepending moves the cycle from the
        # destination to the chain's last node
        aug = self._aug({1: "m", 3: "m"}, {1: Relationship.P2C})
        prepended = apply_prepending(aug, "m", 2)
        with pytest.raises(PolicyError, match="provider-to-customer cycle"):
            build_rgraph(prepended)

    def test_provider_attachment_below_a_customer_attachment_builds(self):
        # the destination is a customer of 1 and a provider of 3: no cycle
        aug = self._aug({1: "m1", 3: "m2"}, {3: Relationship.P2C})
        g = build_rgraph(aug)
        assert dict(g.parents) == {1: (4,), 2: (1,), 3: (2, 4), 4: ()}
        assert simulated_parents(aug) == {1: (4,), 2: (1,), 3: (2, 4)}

    def test_run_command_fails_with_the_cycle(self, tmp_path):
        (tmp_path / "rel.txt").write_text(self.CHAIN)
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            "topology file rel.txt\nattach 1 m1 p2c\nattach 3 m2\nmode probabilistic\n"
        )
        result = CliRunner().invoke(
            main, ["run", str(scenario), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code != 0
        assert "provider-to-customer cycle through edges" in result.output
        assert not (tmp_path / "out").exists()


def _provider_cycle(topology) -> bool:
    """Whether provider-to-customer edges close a cycle: Kahn's algorithm on them."""
    customers = {
        n: [j for j in topology.neighbors(n) if topology.relationship(n, j) == Relationship.P2C]
        for n in topology.nodes()
    }
    providers = dict.fromkeys(customers, 0)
    for cs in customers.values():
        for c in cs:
            providers[c] += 1
    ready = [n for n, count in providers.items() if count == 0]
    done = 0
    while ready:
        done += 1
        for c in customers[ready.pop()]:
            providers[c] -= 1
            if providers[c] == 0:
                ready.append(c)
    return done < len(customers)


def _policy_instance(seed):
    """Random scenario of 8-60 nodes with 2-4 attachments of any relationship.

    A fifth are MOAS; the rest label the i-th attachment ``m<i>`` or, three
    times in ten, ``m<j>`` for some j < i, which may share an ingress. Two
    in five get 1-3 prepending chains.
    Returns the augmented topology and the features drawn.
    """
    rng = random.Random(seed)
    topo = derive_vf_policies(generate_random_topology(
        rng.randint(8, 60), peer_fraction=rng.choice((0.1, 0.3)), seed=seed
    ))
    picks = rng.sample(sorted(topo.nodes()), rng.randint(2, 4))
    rels = {n: rng.choice(list(Relationship)) for n in picks}
    features = {rel.name for rel in rels.values()}
    if rng.random() < 0.2:
        spec = DestinationSpec(moas_origins=tuple(picks), attachment_rels=rels)
        features.add("moas")
    else:
        labels = [f"m{rng.randrange(i)}" if i and rng.random() < 0.3 else f"m{i}"
                  for i in range(len(picks))]
        spec = DestinationSpec(attachments=dict(zip(picks, labels)), attachment_rels=rels)
        if len(set(labels)) < len(labels):
            features.add("shared")
    aug = attach_destination(topo, spec)
    if rng.random() < 0.4:
        for _ in range(rng.randint(1, 3)):
            aug = apply_prepending(aug, rng.choice(helpers.ingress_points(aug)), rng.randint(1, 3))
        features.add("prepended")
    return aug, features


POLICY_SEEDS = range(320)


def test_policy_instances_cover_every_case():
    seen = collections.Counter()
    for seed in POLICY_SEEDS:
        aug, features = _policy_instance(seed)
        seen.update(features)
        seen["cycle" if _provider_cycle(aug.topology) else "acyclic"] += 1
    assert min(seen[k] for k in ("C2P", "P2P", "P2C", "moas", "shared", "prepended")) >= 30
    assert seen["cycle"] >= 5 and seen["acyclic"] >= 250


@pytest.mark.parametrize("chunk", range(4))
def test_builder_matches_the_simulator(chunk):
    """Route classes and one propagation run give the same graph; the
    simulator stands for the builder that read its RIBs."""
    for seed in POLICY_SEEDS[chunk::4]:
        aug, _ = _policy_instance(seed)
        if _provider_cycle(aug.topology):
            with pytest.raises(PolicyError, match="provider-to-customer cycle"):
                build_rgraph(aug)
            continue
        g = build_rgraph(aug)
        want = RGraph.from_parent_map(
            aug.n_dst, aug.ingress_map, simulated_parents(aug),
            nodes=aug.topology.nodes(), report_nodes=aug.real_nodes,
        )
        assert g.parents == want.parents, f"seed {seed}"
        assert list(g.parents) == list(want.parents)
        assert (g.order, g.nodes, g.report_nodes, g.ingress_map) == (
            want.order, want.nodes, want.report_nodes, want.ingress_map
        )


def test_graph_derivations_match_the_normalising_path():
    """The builder and the pruning hand already-normalised parents to the
    graph, and the exports walk the kept child order. They must give what
    the normalising constructor and sorting gave: the same
    fields, the same parent key order, the same bytes and the same errors."""
    seen = collections.Counter()
    for seed in POLICY_SEEDS:
        aug, features = _policy_instance(seed)
        if _provider_cycle(aug.topology):
            continue
        seen["graphs"] += 1
        seen["chains"] += "prepended" in features
        g = build_rgraph(aug)
        # reversed parent tuples, so the normalising path has to sort them
        helpers.assert_same_graph(g, RGraph.from_parent_map(
            aug.n_dst, aug.ingress_map,
            {n: ps[::-1] for n, ps in g.parents.items() if n != aug.n_dst},
            nodes=aug.topology.nodes(), report_nodes=aug.real_nodes,
        ))
        want = helpers.reference_shortest_path_transform(g)
        if seed % 2:
            # overrides on every chooser the pruning leaves whole
            ties = {
                n: t for n, t in helpers.random_tie_probs(g, random.Random(seed)).items()
                if want.parents[n] == g.parents[n]
            }
            seen["ties"] += bool(ties)
            g = g.with_tie_probs(ties)
            want = helpers.reference_shortest_path_transform(g)
        pruned = shortest_path_transform(g)
        helpers.assert_same_graph(pruned, want)
        for graph in (g, pruned):
            assert rgraph_edgelist(graph) == helpers.reference_rgraph_edgelist(graph)
            assert rgraph_dot(graph) == helpers.reference_rgraph_dot(graph)
        cut = [n for n in g.nodes if pruned.parents[n] != g.parents[n]]
        if cut:
            seen["cut"] += 1
            # an override that still names a parent the pruning drops
            parents = g.parents[cut[0]]
            stale = g.with_tie_probs(
                {**g.tie_probs, cut[0]: dict.fromkeys(parents, 1 / len(parents))}
            )
            for transform in (shortest_path_transform, helpers.reference_shortest_path_transform):
                with pytest.raises(InputError, match="must cover exactly its parents"):
                    transform(stale)
    assert seen["graphs"] >= 200, seen
    assert min(seen["chains"], seen["ties"], seen["cut"]) >= 30, seen


def test_parents_share_maximal_preference(example_aug):
    g = build_rgraph(example_aug)
    topo = example_aug.topology
    for child in g.nodes:
        parents = g.parents[child]
        if len(parents) < 2:
            continue
        prefs = {topo.local_pref(child, p) for p in parents}
        assert len(prefs) == 1


class TestTopologicalOrder:
    def test_example_ordering_valid(self, example_graph):
        order = topological_order(example_graph)
        pos = {n: i for i, n in enumerate(order)}
        for parent, child in example_graph.edges():
            assert pos[parent] < pos[child]

    def test_root_first_single_node(self):
        g = RGraph.from_parent_map(0, {}, {})
        assert topological_order(g) == (0,)

    def test_deterministic_smallest_id_first(self):
        g = RGraph.from_edges(0, [(0, 5), (0, 3), (3, 7), (5, 7)], {3: "a", 5: "b"})
        assert topological_order(g) == (0, 3, 5, 7)

    def test_cycle_detected(self):
        with pytest.raises(CycleError):
            RGraph.from_edges(0, [(0, 1), (1, 2), (2, 3), (3, 1)], {1: "m"})

    def test_equality_and_overrides_do_not_depend_on_the_order_being_read(self):
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        g = RGraph.from_edges(0, edges, {1: "m1", 2: "m2"})
        chain = RGraph.from_edges(0, [(0, 1), (1, 2)], {1: "m1"})
        unread = shortest_path_transform(chain)  # nothing to prune
        assert "order" not in vars(unread)
        assert unread == chain
        assert g == RGraph.from_edges(0, edges[::-1], {2: "m2", 1: "m1"})
        assert g != RGraph.from_edges(0, edges[:-1], {1: "m1", 2: "m2"}, nodes=[3])
        weighted = g.with_tie_probs({3: {1: 0.25, 2: 0.75}})
        assert weighted != g
        assert weighted.order == g.order == (0, 1, 2, 3)
        assert weighted.with_tie_probs({}) == g
        assert g.tie_probs == {}

    def test_pruned_graph_carries_its_own_order(self, example_graph):
        pruned = shortest_path_transform(example_graph)
        pos = {n: i for i, n in enumerate(topological_order(pruned))}
        assert all(pos[parent] < pos[child] for parent, child in pruned.edges())


class TestPathEnumeration:
    def test_single_path_node(self, example_graph):
        assert enumerate_rpaths(example_graph, 3).paths == helpers.EXPECTED_PATHS_3

    def test_multi_path_node(self, example_graph):
        found = enumerate_rpaths(example_graph, 8)
        assert found.paths == helpers.EXPECTED_PATHS_8
        assert not found.truncated

    def test_unknown_node_rejected(self, example_graph):
        with pytest.raises(UnknownNodeError, match="^node 77 not in forwarding graph$"):
            enumerate_rpaths(example_graph, 77)

    def test_unreachable_node_has_no_paths(self):
        g = RGraph.from_parent_map(0, {1: "m"}, {1: [0]}, nodes=[2])
        assert enumerate_rpaths(g, 2).paths == frozenset()

    def test_truncation_flag(self):
        # ladder graph: each rung doubles the path count
        edges = []
        prev = (1, 2)
        node = 3
        for _ in range(6):
            a, b = node, node + 1
            edges += [(prev[0], a), (prev[1], a), (prev[0], b), (prev[1], b)]
            prev = (a, b)
            node += 2
        g = RGraph.from_edges(0, [(0, 1), (0, 2)] + edges, {1: "m1", 2: "m2"})
        found = enumerate_rpaths(g, prev[0], limit=10)
        assert found.truncated
        assert len(found.paths) == 10


class TestBruteForceEligiblePaths:
    def test_chain(self):
        topo = Topology()
        topo.add_edge(2, 1, Relationship.C2P)
        vf = derive_vf_policies(topo)
        aug = attach_destination(vf, DestinationSpec(attachments={2: "m"}))
        assert brute_force_eligible_paths(aug)[1] == {(1, 2, aug.n_dst)}

    def test_two_route_node(self, example_aug):
        assert brute_force_eligible_paths(example_aug)[4] == {
            (4, 1, helpers.DST),
            (4, 2, helpers.DST),
        }

    def test_matches_forwarding_graph_on_small_instances(self):
        assert not path_mismatches([helpers.random_instance(idx) for idx in range(25)])

    def test_flags_parents_the_simulator_does_not_offer(self, monkeypatch):
        aug = helpers.random_instance(3)
        simulated = simulated_parents(aug)
        node = next(n for n, ps in simulated.items() if ps)
        monkeypatch.setattr(
            "catchmap.cli.simulated_parents", lambda aug: {**simulated, node: ()}
        )
        assert path_mismatches([aug]) == [(0, node)]

    def test_size_guard(self):
        aug = helpers.random_instance(0, num_nodes=20)
        with pytest.raises(CapacityError):
            brute_force_eligible_paths(aug)


class TestChooserForm:
    def test_example_form(self, example_graph):
        form = example_graph.chooser_form
        # 4 hears 1 and 2, 8 hears 5 and 6; 6 copies 4; 7 hears 1 and 3,
        # which both enter at m1, so 7 makes no choice of its own
        assert form.choosers == (4, 8)
        assert form.fixed == {helpers.DST: None, 1: "m1", 2: "m2", 3: "m1", 5: "m2", 7: "m1"}
        assert form.follows == {4: 0, 6: 0, 8: 1}
        assert form.ingress(("m2", "m1"), 6) == "m2"
        assert form.ingress(("m2", "m1"), 7) == "m1"

    def test_root_attached_and_parentless_nodes_are_fixed(self):
        # 2 is attached to the root and also hears 1; 9 has no parent
        g = RGraph.from_edges(
            0, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (9, 3), (9, 4), (4, 5), (3, 6)],
            {1: "a", 2: "b"},
        )
        form = g.chooser_form
        assert form.choosers == (3,)
        assert form.fixed == {0: None, 1: "a", 2: "b", 9: None, 4: None, 5: None}
        assert form.follows == {3: 0, 6: 0}

    def test_parents_that_agree_make_no_chooser(self):
        # 3 hears 1 and 2; 4 and 5 copy 3, so 6, which hears both, copies 3
        # too. 7 and 8 have no parent, so 9, which hears both, has no route.
        # 10 hears 1 (ingress a) and 7 (no route): its parents disagree.
        g = RGraph.from_edges(
            0,
            [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6),
             (7, 9), (8, 9), (1, 10), (7, 10)],
            {1: "a", 2: "b"},
        )
        form = g.chooser_form
        assert form.choosers == (3, 10)
        assert form.follows == {3: 0, 4: 0, 5: 0, 6: 0, 10: 1}
        assert form.fixed == {0: None, 1: "a", 2: "b", 7: None, 8: None, 9: None}

    def test_unlabeled_root_attached_node_rejected_when_made(self):
        message = "^node 2 is attached to the root but has no ingress label$"
        with pytest.raises(DestinationSpecError, match=message):
            RGraph.from_edges(0, [(0, 1), (0, 2), (1, 3), (2, 3)], {1: "a"})
        with pytest.raises(DestinationSpecError, match=message):
            RGraph.from_parent_map(0, {1: "a", 3: "b"}, {1: [0], 2: [0, 1]})

    def test_derived_once_per_graph(self, example_graph):
        assert example_graph.chooser_form is example_graph.chooser_form
        assert "chooser_form" not in vars(build_rgraph(helpers.example_aug()))

    def test_ingress_points_sorted_once(self):
        g = RGraph.from_edges(0, [(0, 1), (0, 2), (0, 3)], {1: "z", 2: "a", 3: "z"})
        assert g.ingress_points == ("a", "z")


class TestExactLimit:
    def test_counts_the_outcomes_enumeration_yields(self, monkeypatch):
        # a root-attached node (2 here, also fed by 1) takes the direct edge
        fixture = RGraph.from_edges(
            0, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4)],
            {1: "m1", 2: "m2"},
        )
        # nodes 3 and 4 each choose between two parents
        assert sum(1 for _ in helpers.enumerate_route_outcomes(fixture)) == 4
        graphs = [fixture] + [
            build_rgraph(helpers.random_instance(idx)) for idx in range(12)
        ]
        counts = [sum(1 for _ in helpers.enumerate_route_outcomes(g)) for g in graphs]
        for g, outcomes in zip(graphs, counts):
            monkeypatch.setattr("catchmap.rgraph.MAX_EXACT_OUTCOMES", outcomes)
            assert exact_limit(g) is None
            monkeypatch.setattr("catchmap.rgraph.MAX_EXACT_OUTCOMES", outcomes - 1)
            reason = exact_limit(g)
            assert reason.startswith(f"{outcomes} tie-break combinations")
            with pytest.raises(CapacityError, match=reason):
                next(helpers.enumerate_route_outcomes(g))

    def test_only_choosers_multiply(self):
        # 14 nodes; a node whose parents all share one source rolls nothing
        cfg = parse_scenario_file(
            "topology generate n=13 avg_degree=8 seed=1\nattach 3 m0\nattach 2 m1\n"
        )
        g = build_rgraph(build_augmented(cfg))
        assert len(g.nodes) == 14 and len(g.chooser_form.choosers) == 6
        assert exact_limit(g) is None
        assert sum(1 for _ in helpers.enumerate_route_outcomes(g)) == 21_600

    def test_node_limit(self):
        def chain(count):
            return RGraph.from_edges(
                0, [(i, i + 1) for i in range(count - 1)], {1: "m"}
            )

        assert exact_limit(chain(MAX_EXACT_NODES)) is None
        reason = exact_limit(chain(MAX_EXACT_NODES + 1))
        assert reason == f"{MAX_EXACT_NODES + 1} nodes, over the exact limit of {MAX_EXACT_NODES}"
        with pytest.raises(CapacityError, match=reason):
            next(helpers.enumerate_route_outcomes(chain(MAX_EXACT_NODES + 1)))


class TestGraphValue:
    def test_from_edges_round_trip(self):
        g = RGraph.from_edges(0, [(0, 1), (1, 2)], {1: "m"})
        assert g.parents[2] == (1,)
        assert g.children[0] == (1,)
        assert set(g.edges()) == {(0, 1), (1, 2)}

    def test_root_with_parents_rejected(self):
        with pytest.raises(CycleError):
            RGraph.from_edges(0, [(1, 0)], {1: "m"})

    def test_pruning_carries_tie_overrides(self, example_graph):
        g = example_graph.with_tie_probs({4: {1: 0.25, 2: 0.75}})
        pruned = shortest_path_transform(g)
        assert pruned.tie_probs == g.tie_probs
        assert pruned.tie_weights(4) == [0.25, 0.75]
        assert example_graph.tie_probs == {}

    def test_edgelist_and_dot_cover_all_edges(self, example_graph):
        listing = rgraph_edgelist(example_graph)
        assert len(listing.strip().splitlines()) == example_graph.num_edges
        dot = rgraph_dot(example_graph)
        for parent, child in example_graph.edges():
            assert f'"{parent}" -> "{child}"' in dot


def _stored_nodes_and_children(g: RGraph) -> tuple[tuple[int, ...], dict]:
    """``nodes`` and ``children`` as the graph stored them before they were
    derived: the sorted node tuple, then the child-building loop verbatim."""
    nodes = tuple(sorted(g.parents))
    children: dict[int, list[int]] = {node: [] for node in nodes}
    for child in nodes:
        for p in g.parents[child]:
            children[p].append(child)
    frozen_children = {n: tuple(c) for n, c in children.items()}
    return nodes, frozen_children


class TestOneConstructor:
    """Every graph, the raw dataclass call included, goes through one checked
    constructor, and ``parents`` is the only adjacency it stores."""

    PARENTS = {0: (), 1: (0,), 2: (0,), 3: (1, 2)}

    def _raw(self, **fields) -> RGraph:
        given = dict(
            root=0, ingress_map={1: "a", 2: "b"}, parents=self.PARENTS,
            report_nodes=(1, 2, 3), tie_probs={},
        )
        return RGraph(**{**given, **fields})

    def test_stores_one_adjacency(self):
        assert [f.name for f in dataclasses.fields(RGraph)] == [
            "root", "ingress_map", "parents", "report_nodes", "tie_probs"
        ]
        g = self._raw()
        assert g == RGraph.from_edges(0, [(0, 1), (0, 2), (1, 3), (2, 3)], {1: "a", 2: "b"})
        assert (g.nodes, g.children) == ((0, 1, 2, 3), {0: (1, 2), 1: (3,), 2: (3,), 3: ()})
        # the root-label check reads the children, so they are built once, here
        assert "children" in vars(g) and "order" not in vars(g)

    def test_raw_graph_is_checked(self):
        with pytest.raises(
            DestinationSpecError,
            match="^node 2 is attached to the root but has no ingress label$",
        ):
            self._raw(ingress_map={1: "a"})
        with pytest.raises(DestinationSpecError, match="^ingress name 'a b' holds ' '$"):
            self._raw(ingress_map={1: "a b", 2: "b"})
        with pytest.raises(CycleError, match="^root 0 cannot have parents$"):
            self._raw(parents={**self.PARENTS, 0: (3,)})

    def test_a_parent_that_is_not_a_node_is_named(self):
        with pytest.raises(InputError, match="^node 3 has parent 7, which is not a node$"):
            self._raw(parents={**self.PARENTS, 3: (1, 7)})

    def test_a_root_that_is_not_a_node_is_named(self):
        with pytest.raises(InputError, match="^root 9 is not a node$"):
            self._raw(root=9)

    def test_nodes_out_of_order_are_named(self):
        # accepted, this map would give g.nodes == (0, 1, 3, 2)
        unordered = {0: (), 1: (0,), 3: (1, 2), 2: (0,)}
        message = "^the parents map must list the nodes in ascending order$"
        with pytest.raises(InputError, match=message):
            self._raw(parents=unordered)

    @pytest.mark.parametrize("parents", [(1, 1), (1, 2, 1)], ids=["next", "apart"])
    def test_a_repeated_parent_is_named(self, parents):
        # accepted, node 1's child list would be (3, 3) and the edge list
        # would hold "1 3" twice
        with pytest.raises(InputError, match="^node 3 lists parent 1 twice$"):
            self._raw(parents={**self.PARENTS, 3: parents})

    @pytest.mark.parametrize("ties, message", [
        ({3: {1: 1.0}}, "must cover exactly its parents [1, 2], got [1]"),
        ({3: {1: 1.5, 2: -0.5}}, "negative tie probability at node 3"),
        ({3: {1: 0.5, 2: 0.6}}, "tie probabilities of node 3 sum to"),
        ({9: {1: 1.0}}, "tie probabilities for unknown node 9"),
    ])
    def test_raw_overrides_are_checked(self, ties, message):
        with pytest.raises(InputError, match=re.escape(message)):
            self._raw(tie_probs=ties)
        with pytest.raises(InputError, match=re.escape(message)):
            self._raw().with_tie_probs(ties)

    def test_labels_and_overrides_are_copied(self):
        labels, ties = {1: "a", 2: "b"}, {3: {1: 0.25, 2: 0.75}}
        g = self._raw(ingress_map=labels, tie_probs=ties)
        labels[1], ties[3][1] = "z", 0.5
        assert g.ingress_map == {1: "a", 2: "b"}
        assert g.tie_weights(3) == [0.25, 0.75]

    def test_nodes_and_children_match_the_stored_fields(self):
        rng = random.Random(30)
        graphs = [helpers.random_dag(rng) for _ in range(500)]
        for idx in range(40):
            g = build_rgraph(helpers.random_instance(idx))
            graphs += [g, shortest_path_transform(g)]
        g = build_rgraph(helpers.random_instance(0, num_nodes=2000))
        graphs += [g, shortest_path_transform(g)]
        for g in graphs:
            nodes, children = _stored_nodes_and_children(g)
            assert list(g.parents) == list(nodes)
            assert g.nodes == nodes
            assert list(g.children.items()) == list(children.items())


@st.composite
def parent_maps(draw):
    """Random DAG expressed as child -> parents over ids 1..n with root 0."""
    n = draw(st.integers(min_value=1, max_value=10))
    parents = {}
    for child in range(1, n + 1):
        pool = list(range(child))  # only smaller ids: acyclic by construction
        chosen = draw(
            st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=len(pool))
        )
        parents[child] = chosen
    return parents


@settings(max_examples=80, deadline=None)
@given(parents=parent_maps())
def test_topological_order_respects_random_dags(parents):
    ingress = {c: f"m{c}" for c, ps in parents.items() if 0 in ps}
    g = RGraph.from_parent_map(0, ingress, parents)
    order = topological_order(g)
    assert sorted(order) == sorted(g.nodes)
    pos = {n: i for i, n in enumerate(order)}
    for parent, child in g.edges():
        assert pos[parent] < pos[child]


@settings(max_examples=80, deadline=None)
@given(parents=parent_maps())
def test_enumerated_paths_follow_edges(parents):
    ingress = {c: f"m{c}" for c, ps in parents.items() if 0 in ps}
    g = RGraph.from_parent_map(0, ingress, parents)
    node = max(g.nodes)
    for path in enumerate_rpaths(g, node, limit=2000).paths:
        assert path[0] == node
        assert path[-1] == 0
        for a, b in zip(path, path[1:]):
            assert a in g.children[b]
