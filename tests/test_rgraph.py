"""Forwarding-graph construction, orderings, and path enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catchmap import (
    DestinationSpec,
    RGraph,
    Relationship,
    Topology,
    attach_destination,
    build_rgraph,
    derive_vf_policies,
    enumerate_rpaths,
    run_bgp,
    shortest_path_transform,
    topological_order,
)
from catchmap.cli import path_mismatches
from catchmap.errors import CapacityError, CycleError
from catchmap.oracles import enumerate_route_outcomes
from catchmap.rgraph import (
    MAX_EXACT_NODES,
    brute_force_eligible_paths,
    exact_limit,
    rgraph_dot,
    rgraph_edgelist,
)

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


def _max_preference_offers(aug, seed):
    """Per node, the neighbors whose fixed-point offer is in its best class."""
    topo = aug.topology
    offers = {}
    for node, rib in run_bgp(aug, seed).ribs.items():
        best = max((topo.local_pref(node, k) for k in rib), default=None)
        offers[node] = tuple(sorted(k for k in rib if topo.local_pref(node, k) == best))
    return offers


def test_seed_invariance():
    # what lets build_rgraph propagate with one fixed seed
    for idx in range(30):
        aug = helpers.random_instance(idx, num_nodes=6 + idx % 7)
        offers = _max_preference_offers(aug, 0)
        for s in (1, 99):
            assert _max_preference_offers(aug, s) == offers, (
                f"instance {idx}: seed {s} changes a maximal-class offer set"
            )
        g = build_rgraph(aug)
        assert {n: g.parents[n] for n in offers} == offers


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

    def test_size_guard(self):
        aug = helpers.random_instance(0, num_nodes=20)
        with pytest.raises(CapacityError):
            brute_force_eligible_paths(aug)


class TestChooserForm:
    def test_example_form(self, example_graph):
        form = example_graph.chooser_form
        # 4 hears 1 and 2, 7 hears 1 and 3, 8 hears 5 and 6; 6 copies 4
        assert form.choosers == (4, 7, 8)
        assert form.fixed == {helpers.DST: None, 1: "m1", 2: "m2", 3: "m1", 5: "m2"}
        assert form.follows == {4: 0, 6: 0, 7: 1, 8: 2}
        assert form.ingress(("m2", "m1", "m1"), 6) == "m2"
        assert form.ingress(("m2", "m1", "m1"), 3) == "m1"

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
        assert sum(1 for _ in enumerate_route_outcomes(fixture)) == 4
        graphs = [fixture] + [
            build_rgraph(helpers.random_instance(idx)) for idx in range(12)
        ]
        counts = [sum(1 for _ in enumerate_route_outcomes(g)) for g in graphs]
        for g, outcomes in zip(graphs, counts):
            monkeypatch.setattr("catchmap.rgraph.MAX_EXACT_OUTCOMES", outcomes)
            assert exact_limit(g) is None
            monkeypatch.setattr("catchmap.rgraph.MAX_EXACT_OUTCOMES", outcomes - 1)
            reason = exact_limit(g)
            assert reason.startswith(f"{outcomes} tie-break combinations")
            with pytest.raises(CapacityError, match=reason):
                next(enumerate_route_outcomes(g))

    def test_node_limit(self):
        def chain(count):
            return RGraph.from_edges(
                0, [(i, i + 1) for i in range(count - 1)], {1: "m"}
            )

        assert exact_limit(chain(MAX_EXACT_NODES)) is None
        reason = exact_limit(chain(MAX_EXACT_NODES + 1))
        assert reason == f"{MAX_EXACT_NODES + 1} nodes, over the exact limit of {MAX_EXACT_NODES}"
        with pytest.raises(CapacityError, match=reason):
            next(enumerate_route_outcomes(chain(MAX_EXACT_NODES + 1)))


class TestGraphValue:
    def test_from_edges_round_trip(self):
        g = RGraph.from_edges(0, [(0, 1), (1, 2)], {1: "m"})
        assert g.parents[2] == (1,)
        assert g.children[0] == (1,)
        assert set(g.edges()) == {(0, 1), (1, 2)}

    def test_root_with_parents_rejected(self):
        with pytest.raises(CycleError):
            RGraph.from_edges(0, [(1, 0)], {1: "m"})

    def test_with_parents_rewires(self):
        g = RGraph.from_edges(0, [(0, 1), (0, 2), (1, 3), (2, 3)], {1: "a", 2: "b"})
        trimmed = g.with_parents({3: (1,)})
        assert trimmed.parents[3] == (1,)
        assert trimmed.children[2] == ()
        # original untouched
        assert g.parents[3] == (1, 2)

    def test_with_parents_carries_tie_overrides(self, example_graph):
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
    ingress = {c: f"m{c}" for c, ps in parents.items() if ps == [0]}
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
