"""Seeded route-propagation runs and catchment extraction."""

from __future__ import annotations

from catchmap import (
    DestinationSpec,
    Relationship,
    Topology,
    attach_destination,
    derive_vf_policies,
    run_bgp,
    simulated_catchment,
)
from catchmap.rgraph import brute_force_eligible_paths

import helpers


def chain_aug():
    # A(1) - B(2) - dst, everything learned from a customer
    topo = Topology()
    topo.add_edge(2, 1, Relationship.C2P)  # 2 is 1's customer
    vf = derive_vf_policies(topo)
    return attach_destination(vf, DestinationSpec(attachments={2: "m"}))


def test_chain_best_path():
    aug = chain_aug()
    result = run_bgp(aug, seed=0)
    assert result.best_paths[1] == (1, 2, aug.n_dst)
    assert result.best_paths[2] == (2, aug.n_dst)


def test_same_seed_reproduces_everything():
    aug = helpers.example_aug()
    a = run_bgp(aug, seed=123)
    b = run_bgp(aug, seed=123)
    assert a.best_paths == b.best_paths
    assert a.ribs == b.ribs
    assert a.rounds == b.rounds


def test_different_seeds_only_change_tie_breaks(example_aug):
    outcomes = set()
    for seed in range(40):
        result = run_bgp(example_aug, seed=seed)
        catch = simulated_catchment(result, example_aug)
        # Certain nodes never move.
        for node, m in helpers.EXPECTED_ROUTES.items():
            if m is not None:
                assert catch[node] == m
        outcomes.add(tuple(sorted(catch.items())))
    # Uncertain nodes flip with the seed eventually.
    assert len(outcomes) > 1


def test_best_paths_are_loop_free_rib_members(example_aug):
    result = run_bgp(example_aug, seed=5)
    for node, best in result.best_paths.items():
        assert len(set(best)) == len(best)
        assert best in result.ribs[node].values()


def test_best_paths_within_eligible_sets():
    # every seeded selection must be one of the enumerable eligible paths
    for idx in range(6):
        aug = helpers.random_instance(idx, num_nodes=8)
        brute = brute_force_eligible_paths(aug)
        eligible = {node: brute[node] for node in aug.real_nodes}
        for seed in range(25):
            result = run_bgp(aug, seed=seed)
            for node, best in result.best_paths.items():
                if node == aug.n_dst or node not in eligible:
                    continue
                assert best in eligible[node], (idx, seed, node, best)


def test_catchment_maps_penultimate_hop(example_aug):
    result = run_bgp(example_aug, seed=3)
    catch = simulated_catchment(result, example_aug)
    assert catch[1] == "m1"
    assert catch[2] == "m2"
    for node, best in result.best_paths.items():
        if node in catch:
            assert catch[node] == example_aug.ingress_map[best[-2]]


def test_unreachable_nodes_omitted():
    # node 3 peers with node 1; peer routes are not re-exported to peers,
    # so a second peer hop can never hear about the destination
    topo = Topology()
    topo.add_edge(1, 2, Relationship.P2P)
    topo.add_edge(2, 3, Relationship.P2P)
    vf = derive_vf_policies(topo)
    aug = attach_destination(vf, DestinationSpec(attachments={1: "m"}))
    result = run_bgp(aug, seed=0)
    catch = simulated_catchment(result, aug)
    assert 2 in catch
    assert 3 not in catch


def test_round_count_stays_linear(example_aug):
    result = run_bgp(example_aug, seed=0)
    assert result.rounds <= example_aug.topology.num_nodes + 1


def test_shortest_path_mode_prefers_short_routes():
    # diamond where node 4 can reach dst via a long chain (through 2, 3) or
    # directly via 1; equal preference class, sp mode must pick the short one
    topo = Topology()
    topo.add_edge(4, 1, Relationship.C2P)
    topo.add_edge(4, 3, Relationship.C2P)
    topo.add_edge(3, 2, Relationship.C2P)
    topo.add_edge(2, 1, Relationship.C2P)
    vf = derive_vf_policies(topo)
    aug = attach_destination(vf, DestinationSpec(attachments={1: "m"}))
    for seed in range(10):
        result = run_bgp(aug, seed=seed, sp_mode=True)
        assert result.best_paths[4] == (4, 1, aug.n_dst)
