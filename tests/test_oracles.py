"""Observation ingestion, propagation of pinned routes, and conditioning."""

from __future__ import annotations

import copy
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catchmap import (
    DestinationSpec,
    RGraph,
    apply_oracles,
    build_rgraph,
    certain_inference,
    expected_nc,
    monte_carlo_inference,
    nonsupermodularity_witness,
    parse_oracle_file,
    probabilistic_inference,
    run_bgp,
    shortest_path_transform,
    simulated_catchment,
)
from catchmap.errors import (
    CapacityError,
    ContradictionError,
    DestinationSpecError,
    InfeasibleOracleError,
    InputError,
    TopologyParseError,
    UnknownNodeError,
)
from catchmap.oracles import (
    enumerate_route_outcomes,
    exact_conditional_distribution,
)
from catchmap.rgraph import exact_limit

import helpers


class TestOracleFiles:
    def test_node_lines(self):
        # the provenance cell is checked and dropped
        oracles = parse_oracle_file("8,m2,ping\n4,m1\n")
        assert oracles == {8: "m2", 4: "m1"}
        assert list(oracles) == [8, 4]

    def test_path_line_pins_every_hop(self):
        oracles = parse_oracle_file("path:8 6 4,m1\n6,m1,bgp-rib\n")
        assert oracles == {8: "m1", 6: "m1", 4: "m1"}
        assert list(oracles) == [8, 6, 4]

    def test_comments_ignored(self):
        oracles = parse_oracle_file("# survey batch 3\n4,m1\n")
        assert len(oracles) == 1

    def test_conflicting_assignment_reports_line(self):
        with pytest.raises(TopologyParseError) as err:
            parse_oracle_file("4,m1\n4,m2\n")
        assert "line 2" in str(err.value)

    def test_looped_path_names_the_repeated_node(self):
        # no forwarding path visits a node twice; checked before the tag
        with pytest.raises(TopologyParseError, match="line 2: path 'path:4 5 4' visits node 4 twice"):
            parse_oracle_file("8,m1\npath:4 5 4,m1\n")
        with pytest.raises(TopologyParseError, match="line 1: .* visits node 6 twice"):
            parse_oracle_file("path:6 6,m1,hearsay\n")

    def test_unknown_provenance_reports_line(self):
        with pytest.raises(TopologyParseError) as err:
            parse_oracle_file("4,m1,hearsay\n")
        assert "line 1" in str(err.value)

    def test_comma_ends_the_ingress_cell(self):
        # no ingress name holds a comma, so the third cell is the provenance
        with pytest.raises(DestinationSpecError, match="'m,x' holds ','"):
            DestinationSpec(attachments={5: "m,x"})
        with pytest.raises(TopologyParseError, match="line 1: unknown provenance 'x'"):
            parse_oracle_file("5,m,x\n")

    def test_hash_inside_a_cell_is_kept(self):
        oracles = parse_oracle_file("5,m#x # m, x\n#5,m\n")
        assert dict(oracles.items()) == {5: "m#x"}


class TestPropagation:
    """The three canonical single-observation traces on the worked example."""

    def test_measuring_4_resolves_its_only_follower(
        self, example_graph, example_routes, example_probs
    ):
        applied = apply_oracles(
            example_graph, example_routes, example_probs, {4: "m1"}
        )
        assert applied.routes[4] == "m1"
        assert applied.routes[6] == "m1"
        assert applied.routes[8] is None
        assert applied.set_route_calls == 2

    def test_minority_route_at_8_identifies_the_carrier(
        self, example_graph, example_routes, example_probs
    ):
        applied = apply_oracles(
            example_graph, example_routes, example_probs, {8: "m1"}
        )
        # m1 can only have come through 6, and from there only through 4
        assert applied.routes[6] == "m1"
        assert applied.routes[4] == "m1"
        assert applied.set_route_calls == 3

    def test_majority_route_at_8_stays_ambiguous(
        self, example_graph, example_routes, example_probs
    ):
        applied = apply_oracles(
            example_graph, example_routes, example_probs, {8: "m2"}
        )
        assert applied.routes[8] == "m2"
        assert applied.routes[4] is None
        assert applied.routes[6] is None
        assert applied.set_route_calls == 1

    def test_pinned_lists_nodes_in_propagation_order(
        self, example_graph, example_routes, example_probs
    ):
        applied = apply_oracles(example_graph, example_routes, example_probs, {8: "m1"})
        assert tuple(applied.pins) == (8, 6, 4)
        assert applied.set_route_calls == len(applied.pins)

    def test_inputs_left_unchanged(self, example_graph, example_routes, example_probs):
        routes_before = copy.deepcopy(example_routes)
        probs_before = copy.deepcopy(example_probs)
        applied = apply_oracles(example_graph, example_routes, example_probs, {8: "m1"})
        assert example_routes == routes_before
        assert example_probs == probs_before
        # unchanged entries are shared, pinned ones replaced
        assert applied.probs[5] is example_probs[5]
        assert applied.probs[8] is not example_probs[8]

    def test_reapplication_is_free(self, example_graph, example_routes, example_probs):
        first = apply_oracles(example_graph, example_routes, example_probs, {8: "m1"})
        second = apply_oracles(example_graph, first.routes, first.probs, {8: "m1"})
        assert second.set_route_calls == 0
        assert second.routes == first.routes

    def test_pinned_probabilities_degenerate(
        self, example_graph, example_routes, example_probs
    ):
        applied = apply_oracles(example_graph, example_routes, example_probs, {8: "m1"})
        for node in (4, 6, 8):
            assert applied.probs[node] == {"m1": 1.0}

    def test_stale_marking_for_untouched_uncertain_nodes(
        self, example_graph, example_routes, example_probs
    ):
        # the scenario marks these nodes ``pre-observation``; see
        # test_scenario::TestRunScenario::test_observation_statuses
        applied = apply_oracles(example_graph, example_routes, example_probs, {8: "m2"})
        assert applied.routes[4] is None
        assert applied.routes[6] is None
        assert applied.routes[8] == "m2"
        assert applied.probs[4] is example_probs[4]
        assert applied.probs[6] is example_probs[6]

    def test_contradiction_raises_by_default(
        self, example_graph, example_routes, example_probs
    ):
        with pytest.raises(ContradictionError):
            apply_oracles(example_graph, example_routes, example_probs, {3: "m2"})
        # a feasible observation alongside does not make it droppable
        with pytest.raises(ContradictionError):
            apply_oracles(
                example_graph, example_routes, example_probs, {3: "m2", 4: "m1"}
            )

    def test_impossible_ingress_rejected(self):
        # node 4 hangs off attachment 1 (m1) and the detached node 3, so it
        # is uncertain yet can only ever surface at m1; an m2 reading is bogus
        g = RGraph.from_parent_map(
            0, {1: "m1", 2: "m2"}, {1: [0], 2: [0], 4: [1, 3]}, nodes=[3]
        )
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        assert routes[4] is None and probs[4] == {"m1": 0.5}
        with pytest.raises(InfeasibleOracleError):
            apply_oracles(g, routes, probs, {4: "m2"})

    def test_unknown_node_rejected(self, example_graph, example_routes, example_probs):
        with pytest.raises(UnknownNodeError):
            apply_oracles(example_graph, example_routes, example_probs, {99: "m1"})
        with pytest.raises(UnknownNodeError):
            apply_oracles(example_graph, example_routes, example_probs, {4: "m9"})

    @pytest.mark.parametrize("bad", [{99: "m1"}, {4: "m9"}])
    def test_every_observation_checked_before_any_is_applied(
        self, example_graph, example_routes, example_probs, bad
    ):
        # node 3 is certainly m1 and sorts first, so a pass that validated
        # as it pinned would stop at the contradiction instead
        with pytest.raises(UnknownNodeError):
            apply_oracles(
                example_graph, example_routes, example_probs, {3: "m2", **bad}
            )


def _simulation_backed_observations(idx: int, count: int, seed: int):
    """A jointly realizable observation set, its graph, and baseline state."""
    aug = helpers.random_instance(idx)
    g = build_rgraph(aug)
    routes = certain_inference(g)
    probs = probabilistic_inference(g, routes)
    catch = simulated_catchment(run_bgp(aug, seed=seed), aug)
    rng = random.Random(idx * 100_003 + seed)
    nodes = sorted(catch)
    picked = rng.sample(nodes, min(count, len(nodes)))
    return g, routes, probs, {n: catch[n] for n in picked}


@settings(max_examples=60, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=39),
    count=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=200),
)
def test_certain_set_independent_of_observation_order(idx, count, seed):
    """Only the mapping's item order: both calls apply the observations in
    ascending node id, so this says nothing about other application orders."""
    g, routes, probs, obs = _simulation_backed_observations(idx, count, seed)
    items = list(obs.items())
    forward = apply_oracles(g, routes, probs, dict(items))
    backward = apply_oracles(g, routes, probs, dict(reversed(items)))
    assert forward.routes == backward.routes


@settings(max_examples=60, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=39),
    count=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=200),
)
def test_observations_apply_one_at_a_time_in_node_order(idx, count, seed):
    g, routes, probs, obs = _simulation_backed_observations(idx, count, seed)
    together = apply_oracles(g, routes, probs, obs)
    pins = []
    for node in sorted(obs):
        step = apply_oracles(g, routes, probs, {node: obs[node]})
        routes, probs = step
        pins.extend(step.pins.items())
    assert list(together.routes.items()) == list(routes.items())
    assert list(together.probs.items()) == list(probs.items())
    assert list(together.pins.items()) == pins


@settings(max_examples=60, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=39),
    count=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=200),
)
def test_propagation_call_budget(idx, count, seed):
    g, routes, probs, obs = _simulation_backed_observations(idx, count, seed)
    applied = apply_oracles(g, routes, probs, obs)
    # each pin is one step: the node was open and its prior allowed the ingress
    for node, m in applied.pins.items():
        assert routes[node] is None, node
        assert probs[node].get(m, 0.0) > 0.0, node
    # every node that was certain keeps its ingress
    for node, m in applied.routes.items():
        if routes[node] is not None:
            assert m == routes[node]


class TestExactConditioning:
    def test_no_observations_equals_forward_pass(
        self, example_graph, example_routes, example_probs
    ):
        exact = exact_conditional_distribution(example_graph)
        for node in example_graph.report_nodes:
            for m in set(exact[node]) | set(example_probs[node]):
                assert math.isclose(
                    exact[node].get(m, 0.0),
                    example_probs[node].get(m, 0.0),
                    abs_tol=1e-12,
                )

    def test_minority_observation_collapses_the_chain(self, example_graph):
        post = exact_conditional_distribution(example_graph, {8: "m1"})
        assert post[6] == {"m1": 1.0}
        assert post[4] == {"m1": 1.0}

    def test_fully_certain_graph_unchanged(self):
        g = RGraph.from_edges(0, [(0, 1), (1, 2)], {1: "m"})
        post = exact_conditional_distribution(g, {2: "m"})
        assert post[1] == {"m": 1.0}
        assert post[2] == {"m": 1.0}

    def test_size_guard(self):
        aug = helpers.random_instance(0, num_nodes=20)
        g = build_rgraph(aug)
        with pytest.raises(CapacityError):
            exact_conditional_distribution(g)

    def test_infeasible_observation_set_rejected(self, example_graph):
        with pytest.raises(InfeasibleOracleError):
            exact_conditional_distribution(example_graph, {7: "m2"})

    def test_outcome_weights_form_a_distribution(self, example_graph):
        total = 0.0
        form = example_graph.chooser_form
        for weight, picks in enumerate_route_outcomes(example_graph):
            assert weight > 0
            assert form.ingress(picks, helpers.DST) is None
            total += weight
        assert math.isclose(total, 1.0, abs_tol=1e-12)

    def test_every_local_pin_is_exactly_certain(self):
        # whatever the propagation rules pin must have a degenerate posterior
        rng = random.Random(11)
        for idx in range(25):
            aug = helpers.random_instance(idx)
            g = build_rgraph(aug)
            routes = certain_inference(g)
            probs = probabilistic_inference(g, routes)
            uncertain = [n for n in g.report_nodes if routes[n] is None and probs[n]]
            if not uncertain:
                continue
            target = rng.choice(uncertain)
            ingress = rng.choice(sorted(probs[target]))
            applied = apply_oracles(g, routes, probs, {target: ingress})
            post = exact_conditional_distribution(g, {target: ingress})
            for node in g.report_nodes:
                got = applied.routes[node]
                if got is not None:
                    assert post[node].get(got, 0.0) > 1.0 - 1e-12, (idx, node)


def correlated_carrier_gadget():
    """Two carriers that are copies of one uncertain ancestor.

    Node 3 picks between the attachments; 4 and 5 both just follow 3, and 6
    follows either 4 or 5.  Every route 6 can take goes through 3, so seeing
    6's ingress reveals 3's choice — but no single-carrier or
    all-parents-agree rule can see that, because 6 has *two* viable parents.
    """
    g = RGraph.from_edges(
        0,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)],
        {1: "m1", 2: "m2"},
    )
    routes = certain_inference(g)
    probs = probabilistic_inference(g, routes)
    return g, routes, probs


def test_correlated_carriers_collapse_exactly_but_not_locally():
    g, routes, probs = correlated_carrier_gadget()
    applied = apply_oracles(g, routes, probs, {6: "m2"})
    post = exact_conditional_distribution(g, {6: "m2"})
    # the exact posterior pins the whole chain ...
    for node in (3, 4, 5, 6):
        assert post[node] == {"m2": 1.0}
    # ... but local propagation sees two viable carriers at 6 and stops.
    assert applied.routes[6] == "m2"
    assert applied.routes[3] is None
    assert applied.routes[4] is None
    assert applied.routes[5] is None


class TestMonteCarlo:
    def test_single_trial_on_chain_is_exact(self):
        g = RGraph.from_edges(0, [(0, 1), (1, 2)], {1: "m"})
        est = monte_carlo_inference(g, trials=1, seed=0)
        assert est.probs[1] == {"m": 1.0}
        assert est.probs[2] == {"m": 1.0}
        assert est.trials == est.accepted == 1

    def test_deterministic_per_seed(self, example_graph):
        a = monte_carlo_inference(example_graph, trials=500, seed=42)
        b = monte_carlo_inference(example_graph, trials=500, seed=42)
        assert a.probs == b.probs

    def test_matches_forward_probabilities(self, example_graph, example_probs):
        trials = 40_000
        est = monte_carlo_inference(example_graph, trials=trials, seed=7)
        for node in example_graph.report_nodes:
            for m, p in example_probs[node].items():
                sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
                assert abs(est.probs[node].get(m, 0.0) - p) <= 4 * sigma + 1e-9

    def test_conditioning_matches_exact(self, example_graph):
        trials = 40_000
        est = monte_carlo_inference(
            example_graph, trials=trials, seed=3, oracles={8: "m2"}
        )
        post = exact_conditional_distribution(example_graph, {8: "m2"})
        for node in example_graph.report_nodes:
            for m in set(post[node]) | set(est.probs[node]):
                p = post[node].get(m, 0.0)
                sigma = math.sqrt(max(p * (1 - p), 1e-12) / est.accepted)
                assert abs(est.probs[node].get(m, 0.0) - p) <= 4 * sigma + 1e-9

    def test_rejection_counts_reported(self, example_graph):
        est = monte_carlo_inference(
            example_graph, trials=2000, seed=1, oracles={8: "m1"}
        )
        # observation holds in a quarter of outcomes, so many rejections
        assert est.accepted < est.trials
        assert est.accepted > 0

    def test_impossible_observation_rejected(self, example_graph):
        with pytest.raises(InfeasibleOracleError):
            monte_carlo_inference(
                example_graph, trials=50, seed=0, oracles={7: "m2"}
            )

    def test_needs_at_least_one_trial(self, example_graph):
        with pytest.raises(InputError):
            monte_carlo_inference(example_graph, trials=0)


def overridden_graph(name):
    """A graph whose tie weights differ from uniform."""
    if name == "witness":
        return nonsupermodularity_witness()
    g = build_rgraph(helpers.random_instance(4))
    return g.with_tie_probs(helpers.random_tie_probs(g, random.Random(4)))


@pytest.mark.parametrize("name", ["witness", "random"])
class TestTieOverrides:
    """Enumeration, sampling and pruning all read the graph's own tie weights."""

    def test_graph_has_unequal_overrides(self, name):
        g = overridden_graph(name)
        assert any(len(set(g.tie_weights(n))) > 1 for n in g.tie_probs)

    def test_exact_enumeration_equals_forward_pass(self, name):
        g = overridden_graph(name)
        forward = probabilistic_inference(g, certain_inference(g))
        exact = exact_conditional_distribution(g)
        for node in g.nodes:
            for m in set(exact[node]) | set(forward[node]):
                assert math.isclose(
                    exact[node].get(m, 0.0), forward[node].get(m, 0.0), abs_tol=1e-12
                ), (node, m)

    def test_monte_carlo_matches_forward_pass(self, name):
        g = overridden_graph(name)
        forward = probabilistic_inference(g, certain_inference(g))
        trials = 20_000
        est = monte_carlo_inference(g, trials=trials, seed=5)
        for node in g.nodes:
            for m in set(est.probs[node]) | set(forward[node]):
                p = forward[node].get(m, 0.0)
                sigma = math.sqrt(p * (1 - p) / trials)
                assert abs(est.probs[node].get(m, 0.0) - p) <= 4 * sigma + 1e-12

    def test_pruning_past_an_override_raises(self, name):
        g = overridden_graph(name)
        with pytest.raises(InputError, match="cover exactly"):
            shortest_path_transform(g)


def assert_same_as_reference(g, trials, seed, oracles=None):
    """``monte_carlo_inference`` against the sampler that evaluates every node
    in every trial, run on the sub-graph induced by the observed nodes and
    their ancestors: equal floats in the same per-node key order on those
    nodes, equal counts, or the same error. Every other node must equal the
    forward mix seeded with those values, float for float and in the same
    key order. Passing the prior routes and forward pass gives the same
    estimate, key order included. Returns the estimate, None if both raised."""
    observed = dict(oracles or {})
    sub = helpers.ancestor_subgraph(helpers.collapse_to_choosers(g), observed)
    try:
        ref_probs, ref_trials, ref_accepted = helpers.reference_monte_carlo(
            sub, trials, seed, oracles
        )
    except InfeasibleOracleError as err:
        with pytest.raises(InfeasibleOracleError) as caught:
            monte_carlo_inference(g, trials, seed, oracles)
        assert str(caught.value) == str(err)
        return None
    est = monte_carlo_inference(g, trials, seed, oracles)
    routes = certain_inference(g)
    prior = routes, probabilistic_inference(g, routes)
    assert repr(monte_carlo_inference(g, trials, seed, oracles, prior=prior)) == repr(est)
    assert (est.trials, est.accepted) == (ref_trials, ref_accepted)
    # the sub-graph always holds the root, an ancestor only of routed nodes
    closure = set(sub.nodes)
    if g.root not in observed and not sub.children[g.root]:
        closure.discard(g.root)
    expected = helpers.forward_mix(g, {n: ref_probs[n] for n in closure})
    assert set(est.probs) == set(g.nodes)
    for node in g.nodes:
        assert list(est.probs[node].items()) == list(expected[node].items()), node
    # the ancestors in ``g`` itself, through the parents the collapse cut
    whole = helpers.ancestor_subgraph(g, observed)
    assert est.ancestors == len(whole.nodes) - (
        g.root not in observed and not whole.children[g.root]
    )
    assert est.draws_per_trial == len(sub.chooser_form.choosers)
    return est


def feasible_observations(g, k, seed, uncertain=False):
    """Up to ``k`` observations read off the first outcome sampled with
    ``seed``, so they hold together (and in that seed's first trial); with
    ``uncertain``, only of nodes that copy a chooser."""
    outcome, _, _ = helpers.reference_monte_carlo(g, trials=1, seed=seed)
    routed = sorted(
        n for n, dist in outcome.items()
        if dist and (not uncertain or n in g.chooser_form.follows)
    )
    picks = random.Random(seed).sample(routed, min(k, len(routed)))
    return {n: next(iter(outcome[n])) for n in picks}


def zero_tie_probs(g, rng):
    """Random overrides on every node with two parents or more, each giving
    some parents weight zero (never all)."""
    ties = {}
    for node, parents in g.parents.items():
        if len(parents) > 1:
            raw = [rng.choice((0.0, rng.uniform(0.1, 1.0))) for _ in parents]
            if not any(raw):
                raw[rng.randrange(len(raw))] = 1.0
            ties[node] = {p: r / sum(raw) for p, r in zip(parents, raw)}
    return ties


def weighted(g, weights, rng):
    """``g`` with uniform, unequal or partly zero tie weights."""
    if weights == "unequal":
        return g.with_tie_probs(helpers.random_tie_probs(g, rng))
    if weights == "zeros":
        return g.with_tie_probs(zero_tie_probs(g, rng))
    return g


# the root (0) feeds 1 (ingress a) and 2 (ingress b); 2 also hears 1
ROOT_ATTACHED_WITH_PARENT = [
    (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (1, 5),
]
# node 9 has no parent but feeds 3 and 4, so 4 never has a route
PARENTLESS_FEEDER = [
    (0, 1), (0, 2), (1, 3), (2, 3), (9, 3), (9, 4), (3, 5), (4, 5), (1, 5), (5, 6), (2, 6),
]

# choosers 4, 5, 6 and 7 in topological order; 5 hears 4, so 5's pick
# copies the pick 4 drew earlier in the same trial
LEVELS_OUT_OF_ORDER = [
    (0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (1, 5), (4, 5), (2, 6), (3, 6), (5, 7), (6, 7),
]


class TestSameStreamAsReference:
    """For a seed, the observed nodes and their ancestors get exactly what
    evaluating every node of every trial gives on the sub-graph they induce,
    and every other node the exact forward mix of those values."""

    @pytest.mark.parametrize("weights", ["uniform", "unequal", "zeros"])
    @pytest.mark.parametrize("idx", range(10))
    def test_random_instances(self, idx, weights):
        g = build_rgraph(helpers.random_instance(
            idx, num_nodes=10 + 4 * idx, avg_degree=2.4 + 0.2 * (idx % 5),
        ))
        g = weighted(g, weights, random.Random(idx))
        for k in range(4):
            oracles = feasible_observations(g, k, seed=idx + k)
            assert len(oracles) == k
            assert assert_same_as_reference(g, 300, idx + k, oracles) is not None

    @pytest.mark.parametrize("weights", ["uniform", "unequal", "zeros"])
    def test_many_draws_per_trial(self, weights):
        # the two nodes with the most chooser ancestors are observed, so a
        # trial draws 27 choosers, more than two observations on a
        # 10k-node generated graph typically need
        g = build_rgraph(helpers.random_instance(0, num_nodes=150, avg_degree=4.0))
        g = weighted(g, weights, random.Random(0))

        def draws(nodes):
            return len(helpers.ancestor_subgraph(g, nodes).chooser_form.choosers)

        deepest = sorted(g.nodes, key=lambda n: (-draws([n]), n))[:2]
        outcome, _, _ = helpers.reference_monte_carlo(g, trials=1, seed=1)
        oracles = {n: next(iter(outcome[n])) for n in deepest}
        est = assert_same_as_reference(g, 1000, 1, oracles)
        assert est.draws_per_trial == draws(deepest) >= 15
        assert 0 < est.accepted < est.trials

    @pytest.mark.parametrize("oracles", [{}, {5: "a"}, {5: "b"}, {2: "b"}, {4: "b", 5: "a"}])
    def test_root_attached_node_with_another_parent(self, oracles):
        g = RGraph.from_edges(0, ROOT_ATTACHED_WITH_PARENT, {1: "a", 2: "b"})
        assert g.parents[2] == (0, 1)
        est = assert_same_as_reference(g, 400, 3, oracles)
        assert est.probs[2] == {"b": 1.0}
        # choosers 3, 4 and 5 are all ancestors of 5; 2 and its ancestors
        # 0 and 1 are fixed, so nothing is drawn without an observed 5
        assert est.draws_per_trial == (3 if 5 in oracles else 0)

    @pytest.mark.parametrize("oracles", [{7: "a"}, {7: "c"}, {5: "b", 6: "c"}])
    def test_levels_out_of_draw_order(self, oracles):
        g = RGraph.from_edges(0, LEVELS_OUT_OF_ORDER, {1: "a", 2: "b", 3: "c"})
        assert g.chooser_form.choosers == (4, 5, 6, 7)
        est = assert_same_as_reference(g, 300, 5, oracles)
        assert 0 < est.accepted < est.trials

    @pytest.mark.parametrize("oracles", [{}, {5: "a"}, {6: "b"}, {3: "b", 6: "a"}])
    def test_parentless_node_with_children(self, oracles):
        g = RGraph.from_edges(0, PARENTLESS_FEEDER, {1: "a", 2: "b"})
        assert g.parents[9] == () and g.children[9] == (3, 4)
        est = assert_same_as_reference(g, 400, 4, oracles)
        assert est.probs[4] == {} and est.probs[9] == {}

    @pytest.mark.parametrize("oracles", [{4: "a"}, {9: "a"}, {0: "a"}])
    def test_node_without_a_route_cannot_be_observed(self, oracles):
        g = RGraph.from_edges(0, PARENTLESS_FEEDER, {1: "a", 2: "b"})
        assert assert_same_as_reference(g, 50, 0, oracles) is None

    def test_more_ingress_points_than_a_byte_holds(self):
        rng = random.Random(11)
        edges = [(0, n) for n in range(1, 301)]
        for n in range(301, 341):
            edges += [(p, n) for p in rng.sample(range(1, 301), 4)]
        for n in range(341, 361):
            edges += [(p, n) for p in rng.sample(range(1, 341), 3)]
        g = RGraph.from_edges(0, edges, {n: f"m{n:03d}" for n in range(1, 301)})
        for seed in range(3):
            outcome, _, _ = helpers.reference_monte_carlo(g, trials=1, seed=seed)
            oracles = {n: next(iter(outcome[n])) for n in (341 + seed, 350 + seed)}
            est = assert_same_as_reference(g, 1000, seed, oracles)
            # past the 256th name in sorted order
            assert any(m > "m256" for dist in est.probs.values() for m in dist)
            assert 0 < est.accepted < est.trials

    @pytest.mark.parametrize("idx", range(6))
    def test_single_trial(self, idx):
        g = build_rgraph(helpers.random_instance(idx, num_nodes=12 + idx))
        est = assert_same_as_reference(g, 1, idx)
        assert (est.trials, est.accepted) == (1, 1)
        oracles = feasible_observations(g, 2, seed=idx)
        est = assert_same_as_reference(g, 1, idx, oracles)
        assert est.accepted == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_infeasible_observation_raises_the_same_error(self, example_graph, seed):
        # 7 can only reach m1; 8 reaches m1 a quarter of the time, so a
        # single trial is rejected for some seeds
        assert assert_same_as_reference(example_graph, 40, seed, {7: "m2"}) is None
        assert_same_as_reference(example_graph, 1, seed, {8: "m1"})


class TestWithoutObservations:
    """With nothing observed nothing is sampled: the estimate is the forward
    pass, float for float."""

    @staticmethod
    def assert_is_forward_pass(g, trials, seed):
        est = monte_carlo_inference(g, trials, seed)
        forward = probabilistic_inference(g, certain_inference(g))
        assert [(n, list(d.items())) for n, d in sorted(est.probs.items())] == [
            (n, list(d.items())) for n, d in sorted(forward.items())
        ]
        assert (est.trials, est.accepted) == (trials, trials)
        assert (est.ancestors, est.draws_per_trial) == (0, 0)

    def test_example_graph(self, example_graph):
        self.assert_is_forward_pass(example_graph, 300, 4)

    @pytest.mark.parametrize("weights", ["uniform", "unequal", "zeros"])
    def test_random_instances(self, weights):
        for idx in range(12):
            g = build_rgraph(helpers.random_instance(
                idx, num_nodes=10 + 6 * idx, avg_degree=2.4 + 0.2 * (idx % 5),
            ))
            self.assert_is_forward_pass(weighted(g, weights, random.Random(idx)), 50, idx)


class TestAgainstExactConditioning:
    """Every (node, ingress) cell lies within four standard errors of the
    exact posterior, the error taken from the accepted trials, on the first
    20 instances that have a chooser to observe."""

    @pytest.mark.parametrize("weights", ["uniform", "unequal", "zeros"])
    def test_random_instances(self, weights):
        def instances():
            for idx in itertools.count():
                g = build_rgraph(helpers.random_instance(
                    idx, num_nodes=7 + idx % 7, avg_degree=3.0 + 0.3 * (idx % 4),
                    seed_base=12_000,
                ))
                assert 8 <= len(g.nodes) <= 14 and exact_limit(g) is None
                if g.chooser_form.choosers:
                    yield idx, g

        for idx, g in itertools.islice(instances(), 20):
            g = weighted(g, weights, random.Random(idx))
            oracles = feasible_observations(g, 1 + idx % 3, seed=idx, uncertain=True)
            assert oracles
            est = monte_carlo_inference(g, 3000, idx, oracles)
            post = exact_conditional_distribution(g, oracles)
            for node in g.nodes:
                assert abs(sum(est.probs[node].values()) - sum(post[node].values())) <= 1e-9
                for m in set(post[node]) | set(est.probs[node]):
                    p = post[node].get(m, 0.0)
                    sigma = math.sqrt(p * (1 - p) / est.accepted)
                    assert abs(est.probs[node].get(m, 0.0) - p) <= 4 * sigma + 1e-9, (
                        idx, node, m
                    )
            for node, m in oracles.items():
                assert est.probs[node] == {m: 1.0}


def chooser_form_instance(idx):
    """A random graph of 6–14 nodes, unequal tie weights on every other one,
    0–2 observations read off one sampled outcome, and 0–3 measured nodes."""
    g = build_rgraph(helpers.random_instance(
        idx, num_nodes=5 + idx % 9, avg_degree=2.6 + 0.3 * (idx % 5), seed_base=11_000,
    ))
    rng = random.Random(idx)
    if idx % 2:
        g = g.with_tie_probs(helpers.random_tie_probs(g, rng))
    oracles = feasible_observations(g, idx % 3, seed=idx)
    measured = rng.sample(g.report_nodes, rng.randrange(4))
    return g, oracles, measured


class TestChooserFormSameAsReference:
    """The exact passes, run on the chooser form, give what the one-dict-per-
    outcome loops give: equal floats, in the same per-node key order."""

    @staticmethod
    def assert_same_as_reference(g, oracles, measured):
        form = g.chooser_form
        collapsed = helpers.collapse_to_choosers(g)
        for (weight, picks), (ref_weight, ingress_of) in itertools.zip_longest(
            enumerate_route_outcomes(g), helpers.reference_route_outcomes(collapsed)
        ):
            assert weight == ref_weight
            assert {n: form.ingress(picks, n) for n in g.nodes} == ingress_of

        post = exact_conditional_distribution(g, oracles)
        ref = helpers.reference_exact_posterior(collapsed, oracles)
        assert [(n, list(d.items())) for n, d in post.items()] == [
            (n, list(d.items())) for n, d in ref.items()
        ]

        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        routes = apply_oracles(g, routes, probs, oracles).routes
        value = expected_nc(g, routes, probs, measured, mode="exact")
        assert value == helpers.reference_exact_nc(collapsed, routes, measured)

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_instances(self, chunk):
        for idx in range(55 * chunk, 55 * (chunk + 1)):
            g, oracles, measured = chooser_form_instance(idx)
            assert 6 <= len(g.nodes) <= 14 and exact_limit(g) is None
            self.assert_same_as_reference(g, oracles, measured)

    @pytest.mark.parametrize("edges", [ROOT_ATTACHED_WITH_PARENT, PARENTLESS_FEEDER])
    def test_fixtures_with_zero_weights(self, edges):
        g = RGraph.from_edges(0, edges, {1: "a", 2: "b"})
        rng = random.Random(7)
        for ties in ({}, helpers.random_tie_probs(g, rng), zero_tie_probs(g, rng)):
            h = g.with_tie_probs(ties)
            for k in range(3):
                oracles = feasible_observations(h, k, seed=k)
                self.assert_same_as_reference(h, oracles, [3, 4, 5][k:])

    def test_infeasible_observations_raise_the_same_error(self):
        g = RGraph.from_edges(0, ROOT_ATTACHED_WITH_PARENT, {1: "a", 2: "b"})
        for oracles in ({2: "a"}, {1: "b"}, {3: "a", 4: "a", 5: "b"}):
            with pytest.raises(InfeasibleOracleError) as caught:
                helpers.reference_exact_posterior(g, oracles)
            with pytest.raises(InfeasibleOracleError, match=str(caught.value)):
                exact_conditional_distribution(g, oracles)

    def test_inconsistent_pins_raise_the_same_error(self):
        g = RGraph.from_edges(0, ROOT_ATTACHED_WITH_PARENT, {1: "a", 2: "b"})
        routes = {n: None for n in g.nodes}
        for pins in ({2: "a"}, {3: "a", 4: "a", 5: "b"}):
            with pytest.raises(InputError) as caught:
                helpers.reference_exact_nc(g, {**routes, **pins}, [3])
            with pytest.raises(InputError, match=str(caught.value)):
                expected_nc(g, {**routes, **pins}, {}, [3], mode="exact")


def parent_sources(g, node):
    """Where each parent of ``node`` takes its ingress from, by the form:
    ``("fixed", ingress)`` or ``("copies", chooser position)``."""
    form = g.chooser_form
    return {
        ("fixed", form.fixed[p]) if p in form.fixed else ("copies", form.follows[p])
        for p in g.parents[node]
    }


def rule_instances():
    """Small graphs with their observations: random DAGs, random instances
    and both hand-drawn fixtures under each kind of tie weight."""
    rng = random.Random(29)
    for seed in range(300):
        g = helpers.random_dag(rng)
        yield g, feasible_observations(g, seed % 3, seed=seed)
    for idx in range(220):
        g, oracles, _ = chooser_form_instance(idx)
        yield g, oracles
    for edges in (ROOT_ATTACHED_WITH_PARENT, PARENTLESS_FEEDER):
        for weights in ("uniform", "unequal", "zeros"):
            g = weighted(RGraph.from_edges(0, edges, {1: "a", 2: "b"}), weights, rng)
            for k in range(3):
                yield g, feasible_observations(g, k, seed=k)


class TestChooserFormRule:
    """A node is a chooser exactly when its parents disagree: checked on the
    form itself, and against the outcomes and posteriors of the verbatim
    references run on the graph as it is, not collapsed."""

    @staticmethod
    def assert_minimal(g):
        form = g.chooser_form
        for i, c in enumerate(form.choosers):
            assert form.follows[c] == i
            assert len(parent_sources(g, c)) > 1, c
        for n, parents in g.parents.items():
            if len(parents) > 1 and g.root not in parents and n not in form.choosers:
                assert len(parent_sources(g, n)) == 1, n

    def test_random_dags(self):
        rng = random.Random(31)
        for _ in range(1500):
            self.assert_minimal(helpers.random_dag(rng))

    @pytest.mark.parametrize("weights", ["uniform", "unequal", "zeros"])
    @pytest.mark.parametrize("sp", [False, True])
    def test_random_instances(self, sp, weights):
        for idx in range(40):
            g = build_rgraph(helpers.random_instance(idx))
            if sp:
                g = shortest_path_transform(g)
            self.assert_minimal(weighted(g, weights, random.Random(idx)))

    @pytest.mark.parametrize("weights", ["uniform", "unequal", "zeros"])
    @pytest.mark.parametrize("edges", [ROOT_ATTACHED_WITH_PARENT, PARENTLESS_FEEDER])
    def test_fixtures(self, edges, weights):
        g = RGraph.from_edges(0, edges, {1: "a", 2: "b"})
        self.assert_minimal(weighted(g, weights, random.Random(3)))

    def test_every_outcome_obeys_the_form(self):
        for g, _ in rule_instances():
            form = g.chooser_form
            values = [set() for _ in form.choosers]
            for _, ingress_of in helpers.reference_route_outcomes(g):
                for n in g.nodes:
                    if n in form.fixed:
                        assert ingress_of[n] == form.fixed[n], n
                    else:
                        assert ingress_of[n] == ingress_of[form.choosers[form.follows[n]]], n
                for seen, c in zip(values, form.choosers):
                    seen.add(ingress_of[c])
            # without a zero weight every outcome is enumerated, and every
            # chooser ends up at two ingresses, or at one and at none
            if all(w > 0 for ties in g.tie_probs.values() for w in ties.values()):
                assert all(len(seen) > 1 for seen in values)

    def test_exact_posterior_matches_the_uncollapsed_reference(self):
        for g, oracles in rule_instances():
            post = exact_conditional_distribution(g, oracles)
            ref = helpers.reference_exact_posterior(g, oracles)
            assert set(post) == set(ref)
            for n, dist in ref.items():
                assert set(post[n]) == set(dist), n
                for m, p in dist.items():
                    assert abs(post[n][m] - p) <= 1e-12, (n, m)


def test_every_node_gets_its_own_posterior_dict():
    # 3 is a chooser; 4 and 5 copy it, so their posteriors are equal but
    # must not be one shared dict
    g = RGraph.from_edges(0, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)], {1: "a", 2: "b"})
    for post in (exact_conditional_distribution(g), monte_carlo_inference(g, 50).probs):
        assert post[3] == post[4] == post[5] and post[3]
        assert len({id(dist) for dist in post.values()}) == len(post)


class TestOneParentTieWeight:
    """An override on a node with one parent is weight 1.0 in every pass."""

    def test_forward_exact_and_sampled_passes_agree(self):
        g = RGraph.from_edges(
            0, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], {1: "m1", 2: "m2"},
            tie_probs={4: {3: 1 - 5e-10}},
        )
        assert g.tie_weights(4) == [1.0]
        forward = probabilistic_inference(g, certain_inference(g))
        assert forward[4] == forward[3] == {"m1": 0.5, "m2": 0.5}
        exact = exact_conditional_distribution(g)
        assert exact[4] == exact[3] == {"m1": 0.5, "m2": 0.5}
        trials = 4000
        est = monte_carlo_inference(g, trials=trials, seed=2)
        assert est.probs[4] == est.probs[3]
        sigma = math.sqrt(0.25 / trials)
        assert abs(est.probs[4]["m1"] - 0.5) <= 4 * sigma
