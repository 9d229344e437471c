"""Certain and probabilistic route inference, pruning, loads, bounds."""

from __future__ import annotations

import copy
import math
import random

import pytest

from catchmap import (
    RGraph,
    build_rgraph,
    catchment_bounds,
    certain_inference,
    expected_load,
    apply_oracles,
    probabilistic_inference,
    run_bgp,
    shortest_path_transform,
    simulated_catchment,
    topological_order,
)
from catchmap.errors import InputError
from catchmap.inference import update_probabilistic_inference
from catchmap.oracles import exact_conditional_distribution

import helpers

TOL = 1e-9


def close(a, b):
    return math.isclose(a, b, abs_tol=TOL)


def test_example_routing_table(example_routes):
    assert example_routes == {**helpers.EXPECTED_ROUTES, helpers.DST: None}


def test_chain_all_certain():
    g = RGraph.from_edges(0, [(0, 1), (1, 2), (2, 3)], {1: "m"})
    routes = certain_inference(g)
    assert routes == {0: None, 1: "m", 2: "m", 3: "m"}


def test_attachments_always_certain():
    for idx in range(20):
        aug = helpers.random_instance(idx)
        g = build_rgraph(aug)
        routes = certain_inference(g)
        for node, label in g.ingress_map.items():
            assert routes[node] == label


def test_example_route_probabilities(example_graph, example_routes):
    probs = probabilistic_inference(example_graph, example_routes)
    for node, expected in helpers.EXPECTED_PROBS.items():
        got = probs[node]
        assert set(got) == set(expected)
        for m, p in expected.items():
            assert close(got[m], p), (node, m, got)


def test_unpinned_root_attached_node_enters_through_its_own_attachment():
    # 2 is attached to the root and also hears 1; nothing pins it here
    g = RGraph.from_edges(0, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], {1: "a", 2: "b"})
    unpinned = {n: None for n in g.nodes}
    probs = probabilistic_inference(g, unpinned)
    exact = exact_conditional_distribution(g)
    assert probs[2] == exact[2] == {"b": 1.0}
    assert probs[3] == exact[3] == {"a": 0.5, "b": 0.5}
    routes = {**unpinned, 1: "a"}
    assert {**probs, **update_probabilistic_inference(g, probs, routes, [1])} == (
        probabilistic_inference(g, routes)
    )


def test_certain_nodes_probability_one(example_graph, example_routes, example_probs):
    for node, m in example_routes.items():
        if m is not None:
            assert example_probs[node] == {m: 1.0}


def test_probabilities_normalized_on_random_instances():
    for idx in range(25):
        aug = helpers.random_instance(idx)
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        for node in g.report_nodes:
            dist = probs[node]
            assert all(p >= 0 for p in dist.values())
            if dist:
                assert sum(dist.values()) <= 1.0 + TOL


def test_default_tie_weights_are_uniform(example_graph):
    assert example_graph.tie_probs == {}
    assert example_graph.tie_weights(4) == [0.5, 0.5]
    assert example_graph.tie_weights(8) == [0.5, 0.5]
    assert example_graph.tie_weights(helpers.DST) == []
    for node, parents in example_graph.parents.items():
        if parents:
            assert close(sum(example_graph.tie_weights(node)), 1.0)


def test_custom_tie_probabilities_shift_mass(example_graph, example_routes):
    g = example_graph.with_tie_probs({4: {1: 1.0, 2: 0.0}})
    assert g.tie_weights(4) == [1.0, 0.0]
    assert g.tie_weights(8) == [0.5, 0.5]
    probs = probabilistic_inference(g, example_routes)
    assert close(probs[4]["m1"], 1.0)
    # node 8 = 0.5 via 5 (m2) + 0.5 via 6 -> 4 (now all m1)
    assert close(probs[8]["m1"], 0.5)
    assert close(probs[8]["m2"], 0.5)


def test_tie_probabilities_validated(example_graph):
    bad_sum = {4: {1: 0.6, 2: 0.6}}
    with pytest.raises(InputError, match="sum to"):
        example_graph.with_tie_probs(bad_sum)
    negative = {4: {1: 1.5, 2: -0.5}}
    with pytest.raises(InputError, match="negative"):
        example_graph.with_tie_probs(negative)
    wrong_support = {4: {1: 0.5, 7: 0.5}}
    with pytest.raises(InputError, match="cover exactly"):
        example_graph.with_tie_probs(wrong_support)
    unknown = {99: {1: 1.0}}
    with pytest.raises(InputError, match="unknown node"):
        example_graph.with_tie_probs(unknown)
    with pytest.raises(InputError, match="sum to"):
        RGraph.from_edges(0, [(0, 1), (0, 2), (1, 3), (2, 3)], {1: "m1", 2: "m2"},
                          tie_probs={3: {1: 0.5, 2: 0.4}})


def _assert_shared(g, routes, probs):
    """Each fixed or pinned entry of ``probs`` is the graph's shared point
    mass, and no mixed entry is one."""
    masses, fixed = g.point_masses, g.chooser_form.fixed
    assert masses == {None: {}, **{m: {m: 1.0} for m in g.ingress_points}}
    for node, dist in probs.items():
        if routes.get(node) is not None:
            assert dist is masses[routes[node]], node
        elif node in fixed:
            assert dist is masses[fixed[node]], node
        else:
            assert all(dist is not shared for shared in masses.values()), node


class TestSameAsBeforeTheChooserForm:
    """Certain inference and both forward passes read ``g.chooser_form``,
    and give what their own sweeps gave before, key order included; their
    fixed and pinned entries are the graph's shared point masses."""

    def assert_same(self, g, rng):
        routes = certain_inference(g)
        assert repr(routes) == repr(helpers.reference_certain_inference(g))
        probs = probabilistic_inference(g, routes)
        assert repr(probs) == repr(helpers.reference_probabilistic_inference(g, routes))
        _assert_shared(g, routes, probs)
        # with nothing pinned, a node whose parents agree takes their source
        unpinned = dict.fromkeys(g.nodes)
        assert repr(probabilistic_inference(g, unpinned)) == repr(
            helpers.reference_probabilistic_inference(helpers.collapse_to_choosers(g), unpinned)
        )
        outcome = helpers.sampled_outcome(g, rng)
        routed = [n for n in g.report_nodes if outcome[n] is not None]
        batch = rng.sample(routed, min(len(routed), rng.randint(1, 3)))
        applied = apply_oracles(g, routes, probs, {n: outcome[n] for n in batch})
        cone = update_probabilistic_inference(g, probs, applied.routes, applied.pins)
        full = helpers.reference_update_probabilistic_inference(
            g, probs, applied.routes, applied.pins
        )
        assert repr(cone) == repr({n: full[n] for n in cone})
        assert {**probs, **cone} == full
        _assert_shared(g, applied.routes, cone)

    def test_random_dags(self):
        rng = random.Random(27)
        for _ in range(1500):
            self.assert_same(helpers.random_dag(rng), rng)

    @pytest.mark.parametrize("sp", [False, True])
    def test_random_instances(self, sp):
        rng = random.Random(sp)
        for idx in range(60):
            g = build_rgraph(helpers.random_instance(idx))
            self.assert_same(shortest_path_transform(g) if sp else g, rng)


def test_a_pin_outside_the_graph_gets_a_dict_of_its_own(example_graph):
    probs = probabilistic_inference(example_graph, {4: "elsewhere"})
    assert probs[4] == {"elsewhere": 1.0}
    assert "elsewhere" not in example_graph.point_masses
    assert probs[1] is example_graph.point_masses["m1"]


def _items(probs):
    return [(node, list(dist.items())) for node, dist in probs.items()]


class TestConeUpdate:
    """The cone update, laid over the old pass, equals a full forward pass,
    float for float."""

    @pytest.mark.parametrize("with_ties", [False, True])
    def test_equals_full_pass_after_random_observations(self, with_ties):
        instances = [helpers.random_instance(idx) for idx in range(40)]
        instances.append(helpers.random_instance(0, num_nodes=500, avg_degree=3.0))
        rng = random.Random(2024)
        updates = 0
        for aug in instances:
            g = build_rgraph(aug)
            if with_ties:
                g = g.with_tie_probs(helpers.random_tie_probs(g, rng))
            truth = simulated_catchment(run_bgp(aug, seed=rng.randrange(1000)), aug)
            observable = sorted(truth)
            routes = certain_inference(g)
            probs = probabilistic_inference(g, routes)
            # successive observation batches, each updating the previous pass
            for _ in range(3):
                batch = rng.sample(observable, min(len(observable), rng.randint(1, 4)))
                before = copy.deepcopy((routes, probs))
                applied = apply_oracles(g, routes, probs, {n: truth[n] for n in batch})
                cone = update_probabilistic_inference(
                    g, probs, applied.routes, applied.pins
                )
                updated = {**probs, **cone}
                full = probabilistic_inference(g, applied.routes)
                assert updated == full
                assert _items(updated) == _items(full)
                assert (routes, probs) == before
                # exactly the pinned nodes and everything below them
                below = set(applied.pins)
                for node in topological_order(g):
                    if any(p in below for p in g.parents[node]):
                        below.add(node)
                assert set(cone) == below
                routes, probs = applied.routes, updated
                updates += 1
        assert updates == 3 * len(instances)

    def test_no_pins_shares_every_entry(self, example_graph, example_routes, example_probs):
        cone = update_probabilistic_inference(
            example_graph, example_probs, example_routes, ()
        )
        assert cone == {}
        updated = {**example_probs, **cone}
        assert all(updated[n] is example_probs[n] for n in example_probs)


class TestShortestPathTransform:
    def test_example_drop_set(self, example_graph):
        pruned = shortest_path_transform(example_graph)
        dropped = set(example_graph.edges()) - set(pruned.edges())
        assert dropped == set(helpers.EXPECTED_SP_DROPPED)

    def test_chain_untouched(self):
        g = RGraph.from_edges(0, [(0, 1), (1, 2), (2, 3)], {1: "m"})
        assert set(shortest_path_transform(g).edges()) == set(g.edges())

    def test_new_certainty_on_example(self, example_graph):
        pruned = shortest_path_transform(example_graph)
        routes = certain_inference(pruned)
        # with the long detours gone, node 8 must follow node 5
        assert routes[8] == "m2"
        assert routes[4] is None
        assert routes[6] is None

    def test_certainty_never_lost(self):
        for idx in range(30):
            aug = helpers.random_instance(idx, num_nodes=6 + idx % 7)
            g = build_rgraph(aug)
            before = certain_inference(g)
            after = certain_inference(shortest_path_transform(g))
            for node in g.report_nodes:
                if before[node] is not None:
                    assert after[node] == before[node], (idx, node)

    @pytest.mark.parametrize("edges, ties", [
        # parentless 2 feeds 3 and 4; 4 also hangs two hops below the root
        ([(0, 1), (1, 4), (2, 3), (2, 4), (3, 4)], {}),
        # a detached diamond with a chord keeps every edge
        ([(0, 1), (5, 6), (5, 7), (6, 7), (6, 8), (7, 8)], {}),
        # levels 1, 2 and 3 meet at node 5; a detached node also feeds it
        ([(0, 1), (0, 2), (1, 3), (2, 3), (3, 5), (1, 4), (4, 5), (2, 5), (9, 5)], {}),
        # overrides on a chooser whose parents all sit on one level
        ([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (9, 4), (9, 10)], {3: {1: 0.25, 2: 0.75}}),
    ], ids=["parentless-feeder", "detached-diamond", "mixed-levels", "ties"])
    def test_matches_the_reference_on_hand_drawn_graphs(self, edges, ties):
        g = RGraph.from_edges(0, edges, {1: "m1", 2: "m2"}, tie_probs=ties)
        helpers.assert_same_graph(
            shortest_path_transform(g), helpers.reference_shortest_path_transform(g)
        )

    def test_unreachable_nodes_keep_their_edges(self):
        g = RGraph.from_parent_map(0, {1: "m"}, {1: [0], 3: [2]}, nodes=[2, 3])
        # nodes 2 and 3 form a detached island: both levels stay infinite;
        # the transform must leave that corner alone rather than crash
        pruned = shortest_path_transform(g)
        assert (2, 3) in set(pruned.edges())


class TestLoadsAndBounds:
    def test_example_loads(self, example_probs):
        traffic = {n: 1.0 for n in helpers.EXPECTED_ROUTES}
        loads = expected_load(
            {n: example_probs[n] for n in helpers.EXPECTED_ROUTES}, traffic
        )
        assert close(loads["m1"], helpers.EXPECTED_LOADS["m1"])
        assert close(loads["m2"], helpers.EXPECTED_LOADS["m2"])

    def test_loads_conserve_traffic(self, example_probs):
        traffic = {n: float(n) for n in helpers.EXPECTED_ROUTES}
        loads = expected_load(
            {n: example_probs[n] for n in helpers.EXPECTED_ROUTES}, traffic
        )
        assert close(sum(loads.values()), sum(traffic.values()))

    def test_negative_traffic_rejected(self, example_probs):
        with pytest.raises(InputError):
            expected_load({4: example_probs[4]}, {4: -1.0})

    def test_example_bounds(self, example_routes):
        routes = {n: example_routes[n] for n in helpers.EXPECTED_ROUTES}
        bounds = catchment_bounds(routes, ("m1", "m2"))
        assert bounds == helpers.EXPECTED_BOUNDS

    def test_all_certain_collapses_bounds(self):
        routes = {1: "a", 2: "a", 3: "b"}
        bounds = catchment_bounds(routes, ("a", "b"))
        assert bounds == {"a": (2, 2), "b": (1, 1)}
