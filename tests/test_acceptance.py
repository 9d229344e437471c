"""Acceptance suite: one test per shipping criterion, run ``pytest -v`` for
one pass/fail line each.

Every expectation here is either hand-derived (worked example, witness
gadgets) or checked against an independent oracle (exhaustive enumeration,
seeded simulation, Monte Carlo). Random instances use frozen seeds, so
every run checks the identical set of cases.

Known red: half of a05. Local observation propagation provably cannot pin
candidate carriers that are perfectly correlated through a shared uncertain
ancestor, so the "pins exactly the determined set" equality fails on a
distilled eight-node instance (and the failure message shows it). The
soundness direction and the one-call-per-node bound are asserted strictly
and hold.
"""

from __future__ import annotations

import math
import random
import time

from catchmap import (
    DestinationSpec,
    RGraph,
    attach_destination,
    build_rgraph,
    certain_inference,
    compare_with_simulation,
    derive_vf_policies,
    enumerate_rpaths,
    expected_nc,
    generate_random_topology,
    monte_carlo_inference,
    nonsubmodularity_witness,
    nonsupermodularity_witness,
    probabilistic_inference,
    shortest_path_transform,
)
from catchmap.cli import (
    certainty_violations,
    path_mismatches,
    plan_scores,
    propagation_findings,
    sp_regressions,
)

import helpers

TOL = 1e-9

# Eligible paths of every node in the worked example, source first,
# derived by hand from the provider hierarchy (see helpers).
WORKED_EXAMPLE_PATHS = {
    1: {(1, 9)},
    2: {(2, 9)},
    3: {(3, 1, 9)},
    4: {(4, 1, 9), (4, 2, 9)},
    5: {(5, 2, 9)},
    6: {(6, 4, 1, 9), (6, 4, 2, 9)},
    7: {(7, 1, 9), (7, 3, 1, 9)},
    8: {(8, 5, 2, 9), (8, 6, 4, 1, 9), (8, 6, 4, 2, 9)},
}


def test_a01_worked_example_golden_paths_and_routes():
    """Eligible-path sets and the certain routing table match, instantly."""
    started = time.perf_counter()
    g = build_rgraph(helpers.example_aug())
    for node, want in WORKED_EXAMPLE_PATHS.items():
        enum = enumerate_rpaths(g, node)
        assert not enum.truncated
        assert set(enum.paths) == want, f"node {node} path set differs"
    routes = certain_inference(g)
    assert {n: routes[n] for n in g.report_nodes} == helpers.EXPECTED_ROUTES
    assert time.perf_counter() - started < 1.0


def test_a02_forwarding_graph_equals_exhaustive_eligible_paths(acceptance_notes):
    """Graph paths = brute-forced eligible paths on 200 random instances."""
    started = time.perf_counter()
    instances = [
        helpers.random_instance(idx, num_nodes=5 + idx % 8, seed_base=9000)
        for idx in range(200)
    ]
    mismatches = path_mismatches(instances)
    nodes_checked = sum(len(aug.real_nodes) for aug in instances)
    elapsed = time.perf_counter() - started
    acceptance_notes.append(
        f"a02: {nodes_checked} node path-sets across 200 instances in {elapsed:.1f}s"
    )
    assert not mismatches, f"path sets differ at (instance, node): {mismatches[:10]}"
    assert elapsed < 120.0


def test_a03_certain_routes_never_contradicted_by_simulation():
    """A node inferred certain keeps that ingress under every tie-break seed,
    and every simulated catchment count stays inside the certain bounds."""
    started = time.perf_counter()
    instances = [
        helpers.random_instance(
            idx, num_nodes=6 + idx % 7, avg_degree=2.3, seed_base=4000
        )
        for idx in range(100)
    ]
    moved, outside = certainty_violations(instances, range(50))
    assert not moved, f"certain nodes moved at (instance, seed, node): {moved[:10]}"
    assert not outside, (
        f"catchment counts left the bounds at (instance, seed, ingress): {outside[:10]}"
    )
    assert time.perf_counter() - started < 120.0


def test_a04_route_probabilities_exact_and_monte_carlo():
    """Forward propagation equals full outcome enumeration; sampling agrees."""
    # exact: aggregate every tie-break outcome by its weight
    worst = 0.0
    for idx in range(100):
        aug = helpers.random_instance(idx, seed_base=3000)
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        totals: dict[int, dict[str, float]] = {n: {} for n in g.report_nodes}
        for weight, outcome in helpers.enumerate_route_outcomes(g):
            for node in g.report_nodes:
                ingress = g.chooser_form.ingress(outcome, node)
                if ingress is not None:
                    bucket = totals[node]
                    bucket[ingress] = bucket.get(ingress, 0.0) + weight
        for node in g.report_nodes:
            mine = probs.get(node, {})
            for m in set(mine) | set(totals[node]):
                worst = max(worst, abs(mine.get(m, 0.0) - totals[node].get(m, 0.0)))
    assert worst <= TOL, f"worst exact disagreement {worst}"

    # sampled: 100k tie-break draws on a 30-node instance, 4-sigma band
    topo = generate_random_topology(30, avg_degree=2.8, peer_fraction=0.15, seed=555)
    vf = derive_vf_policies(topo)
    first, second = sorted(vf.nodes())[:2]
    aug = attach_destination(
        vf, DestinationSpec(attachments={first: "m1", second: "m2"})
    )
    g = build_rgraph(aug)
    exact = probabilistic_inference(g, certain_inference(g))
    estimate = monte_carlo_inference(g, trials=100_000, seed=9)
    out_of_band = []
    for node in g.report_nodes:
        sampled = estimate.probs.get(node, {})
        for m in set(exact.get(node, {})) | set(sampled):
            p = exact.get(node, {}).get(m, 0.0)
            sigma = math.sqrt(p * (1.0 - p) / estimate.trials)
            if abs(sampled.get(m, 0.0) - p) > 4.0 * sigma + 1e-12:
                out_of_band.append((node, m, p, sampled.get(m, 0.0)))
    assert not out_of_band, f"sampled estimates outside 4 sigma: {out_of_band[:10]}"


def test_a05_oracle_propagation_pins_exactly_the_determined_set(acceptance_notes):
    """Propagation never over-pins — and should pin every node whose exact
    conditional distribution is degenerate.

    The last part is the known red: candidate carriers can be perfectly
    correlated through a shared uncertain ancestor, which no local
    single-carrier rule can see.
    """
    cases = []
    for idx in range(80):
        aug = helpers.random_instance(
            idx, num_nodes=5 + idx % 6, avg_degree=2.4, seed_base=5000
        )
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        open_nodes = [
            n for n in sorted(g.report_nodes) if routes[n] is None and probs[n]
        ]
        if not open_nodes:
            continue
        rng = random.Random(idx)
        chosen = rng.sample(open_nodes, rng.randint(1, min(2, len(open_nodes))))
        cases.append(
            (f"instance {idx}", g, {n: rng.choice(sorted(probs[n])) for n in chosen})
        )

    # Distilled counterexample: the root's two children are the only real
    # choice; 3 copies it, 4 and 5 copy 3, 6 copies either of 4/5. Observing
    # 6 therefore determines everything, but 6 still lists two carriers.
    gadget = RGraph.from_edges(
        0,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)],
        {1: "m1", 2: "m2"},
    )
    cases.append(("correlated-carrier gadget", gadget, {6: "m2"}))
    tested, unsound, incomplete = propagation_findings(cases)

    assert tested >= 50, f"sweep too thin, only {tested} applications compared"
    assert not unsound, (
        f"propagation pinned nodes the exact conditional leaves open: {unsound[:10]}"
    )
    acceptance_notes.append(
        f"a05: {tested} oracle applications; {len(incomplete)} completeness gap(s) "
        "(known red when nonzero)"
    )
    assert not incomplete, (
        "local propagation left nodes open although the exact conditional "
        f"distribution is degenerate: {incomplete}. KNOWN LIMITATION, by design "
        "of the local rules: the upward rule needs a single possible carrier, "
        "but here both carriers of the observed node always copy one shared "
        "uncertain choice, so observing the node determines the whole chain "
        "while every intermediate node still lists two carriers. Shortest-path "
        "pruning does not remove the pattern (all its paths are level-equal), "
        "and a one-call-per-node local pass cannot close it in general. Exact "
        "conditioning (exact_conditional_distribution, or the scenario "
        "directive 'posterior exact') does resolve these nodes."
    )


def test_a06_shortest_path_pruning_only_adds_certainty():
    """Pruning drops the two long-way edges of the example and never costs
    a certain node on random instances."""
    g = build_rgraph(helpers.example_aug())
    pruned = shortest_path_transform(g)
    dropped = set(g.edges()) - set(pruned.edges())
    assert (3, 7) in dropped
    assert dropped == set(helpers.EXPECTED_SP_DROPPED)

    regressions = sp_regressions([
        helpers.random_instance(
            idx, num_nodes=5 + idx % 7, avg_degree=2.4, seed_base=4500
        )
        for idx in range(120)
    ])
    assert not regressions, f"pruning lost certainty: {regressions[:10]}"


def test_a07_planner_objective_gain_witnesses():
    """The two hand-built gadgets show the objective's gain can shrink
    below 1 or grow past 1 depending on what was measured before."""
    g = nonsupermodularity_witness(p=0.6, q=0.5)
    routes = certain_inference(g)
    probs = probabilistic_inference(g, routes)

    def value(measured):
        return expected_nc(g, routes, probs, measured, mode="exact")

    gain_alone = value((3,)) - value(())
    gain_after = value((3, 4)) - value((4,))
    assert math.isclose(gain_alone, 1.4, abs_tol=TOL)
    assert math.isclose(gain_after, 0.7, abs_tol=TOL)
    assert gain_alone >= 1.0 >= gain_after

    g = nonsubmodularity_witness(p1=0.5, p2=0.5, r=0.5)
    routes = certain_inference(g)
    probs = probabilistic_inference(g, routes)

    def value2(measured):
        return expected_nc(g, routes, probs, measured, mode="exact")

    gain_alone = value2((3,)) - value2(())
    gain_after = value2((3, 4)) - value2((4,))
    assert math.isclose(gain_alone, 1.0, abs_tol=TOL)
    assert math.isclose(gain_after, 1.5, abs_tol=TOL)
    assert gain_alone <= gain_after


def test_a08_predicted_catchments_match_large_simulations(acceptance_notes):
    """On five 200-node scenarios, 1000-seed simulated mean catchment sizes
    sit within three standard errors of the predicted expectation, stay
    inside the certain bounds, and the running average settles."""
    worst_deviation = 0.0
    uncertain_sizes = []
    for i in range(5):
        aug = helpers.degree_attached_instance(
            i,
            num_nodes=200,
            avg_degree=3.2,
            peer_fraction=0.12,
            seed_base=8100,
        )
        g = shortest_path_transform(build_rgraph(aug))
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        uncertain_sizes.append(
            sum(1 for n in g.report_nodes if routes[n] is None and probs[n])
        )
        cmp = compare_with_simulation(
            aug, g, routes, probs, runs=1000, seed=77 + i, sp_mode=True
        )
        assert cmp.bound_violations == 0, f"scenario {i}: runs escaped the bounds"
        assert all(cmp.within_3se.values()), (
            f"scenario {i}: mean off by >3 SE: predicted {cmp.predicted_mean}, "
            f"simulated {cmp.simulated_mean}, SE {cmp.standard_error}"
        )
        for m, series in cmp.cma.items():
            std = cmp.standard_error[m] * math.sqrt(cmp.runs)
            target = cmp.predicted_mean[m]
            for t in range(int(cmp.runs * 0.9), cmp.runs):
                deviation = abs(series[t] - target)
                envelope = 4.0 * std / math.sqrt(t + 1) + 1e-9
                assert deviation <= envelope, (
                    f"scenario {i} ingress {m}: running average not settled "
                    f"at run {t + 1}: |{series[t]} - {target}| > {envelope}"
                )
                worst_deviation = max(worst_deviation, deviation)
    acceptance_notes.append(
        f"a08: uncertain nodes per scenario {uncertain_sizes}; worst tail "
        f"deviation of the running average {worst_deviation:.3f} nodes"
    )


def test_a09_greedy_plans_near_optimal_and_beat_random(acceptance_notes):
    """Greedy never beats the exhaustive optimum, and beats the mean of 100
    random plans on at least 90% of instances with uncertainty."""
    eligible = 0
    strict_wins = 0
    max_gap = 0.0
    idx = 0
    while eligible < 20 and idx < 120:
        aug = helpers.degree_attached_instance(
            idx,
            num_nodes=9 + idx % 5,
            avg_degree=3.0,
            seed_base=6000,
        )
        idx += 1
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        open_nodes = [
            n for n in sorted(g.report_nodes) if routes[n] is None and probs[n]
        ]
        if len(open_nodes) < 5:
            continue
        candidates = open_nodes[:6]
        greedy, _, optimum, random_mean = plan_scores(
            g, routes, probs, candidates, 2, 100, 0
        )
        assert greedy <= optimum + TOL
        max_gap = max(max_gap, optimum - greedy)
        if greedy > random_mean + TOL:
            strict_wins += 1
        eligible += 1
    assert eligible == 20, f"only {eligible} instances had enough uncertainty"
    acceptance_notes.append(
        f"a09: greedy-to-optimal gap at most {max_gap} over {eligible} instances; "
        f"beat the random-plan mean on {strict_wins}/{eligible}"
    )
    assert strict_wins >= 18


def test_a10_ten_thousand_node_build_under_five_seconds(acceptance_notes):
    """Forwarding-graph construction plus certain inference stays fast."""
    aug = helpers.random_instance(0, num_nodes=10_000, avg_degree=2.5, seed_base=101_000)
    started = time.perf_counter()
    g = build_rgraph(aug)
    routes = certain_inference(g)
    elapsed = time.perf_counter() - started
    assert len(g.report_nodes) == 10_000
    assert all(n in routes for n in g.report_nodes)
    acceptance_notes.append(f"a10: 10k-node build + inference in {elapsed:.2f}s")
    assert elapsed < 5.0
