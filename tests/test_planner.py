"""Measurement objectives, the greedy planner, and its benchmarks."""

from __future__ import annotations

import copy
import logging
import math
import random
import statistics
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

import pytest

from catchmap import (
    apply_prepending,
    build_rgraph,
    certain_inference,
    exhaustive_plan,
    expected_nc,
    greedy_plan,
    probabilistic_inference,
    random_plan_values,
)
from catchmap import inference, planner
from catchmap.errors import CapacityError, InputError, UnknownNodeError
from catchmap.planner import (
    export_plan_csv,
    nonsubmodularity_witness,
    nonsupermodularity_witness,
)
from catchmap.scenario import build_augmented, parse_scenario_file

import helpers

TOL = 1e-9


class TestConditionalCount:
    def test_baseline_count(self, example_graph, example_routes, example_probs):
        got = helpers.conditional_nc(example_graph, example_routes, example_probs, {})
        assert got == helpers.CERTAIN_COUNT

    def test_best_single_observation_resolves_everything(
        self, example_graph, example_routes, example_probs
    ):
        got = helpers.conditional_nc(
            example_graph, example_routes, example_probs, {8: "m1"}
        )
        assert got == 8

    def test_nonpositive_cost_rejected(
        self, example_graph, example_routes, example_probs
    ):
        for plan in (greedy_plan, exhaustive_plan):
            with pytest.raises(InputError, match="cost for node 1 must be positive"):
                plan(example_graph, example_routes, example_probs, (4, 6, 8), 2,
                     costs={1: 0.0})

    def test_nan_cost_rejected(self, example_graph, example_routes, example_probs):
        for plan in (greedy_plan, exhaustive_plan):
            with pytest.raises(InputError, match="cost for node 4 must be positive"):
                plan(example_graph, example_routes, example_probs, (4, 6, 8), 2,
                     costs={4: math.nan})

    @pytest.mark.parametrize("plan", [
        lambda *args: greedy_plan(*args),
        lambda *args: exhaustive_plan(*args),
        lambda *args: random_plan_values(*args, count=3),
    ], ids=["greedy", "exhaustive", "random"])
    def test_nan_budget_rejected(
        self, plan, example_graph, example_routes, example_probs
    ):
        # the exhaustive plan once took a NaN budget as no budget at all
        with pytest.raises(InputError):
            plan(example_graph, example_routes, example_probs, (4, 6, 8), math.nan)


class TestExpectedCount:
    def test_empty_measurement_set(self, example_graph, example_routes, example_probs):
        for mode in ("approx", "exact"):
            got = expected_nc(
                example_graph, example_routes, example_probs, (), mode=mode
            )
            assert math.isclose(got, helpers.CERTAIN_COUNT, abs_tol=TOL)

    def test_modes_agree_on_single_measurements(
        self, example_graph, example_routes, example_probs
    ):
        # one measured node: the planner's independence approximation is exact
        for node in (4, 6, 8):
            approx = expected_nc(
                example_graph, example_routes, example_probs, (node,), mode="approx"
            )
            exact = expected_nc(
                example_graph, example_routes, example_probs, (node,), mode="exact"
            )
            assert math.isclose(approx, exact, abs_tol=TOL), node

    def test_single_measurement_values(
        self, example_graph, example_routes, example_probs
    ):
        values = {
            node: expected_nc(
                example_graph, example_routes, example_probs, (node,), mode="exact"
            )
            for node in (4, 6, 8)
        }
        # 8: the minority reading (prob .25) resolves everything upstream,
        # the majority reading pins only 8 itself
        assert math.isclose(values[8], 0.25 * 8 + 0.75 * 6, abs_tol=TOL)
        # 4: either reading pins 6 along; an m2 reading also cascades to 8
        # through the all-parents-agree rule (5 and 6 both m2)
        assert math.isclose(values[4], 0.5 * 7 + 0.5 * 8, abs_tol=TOL)
        # 6 mirrors 4: its sole parent is inferred upward, and m2 cascades
        assert math.isclose(values[6], 0.5 * 7 + 0.5 * 8, abs_tol=TOL)

    def test_exact_mode_size_guard(self):
        aug = helpers.random_instance(0, num_nodes=20)
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        some = [n for n in g.report_nodes if routes[n] is None][:1]
        if not some:
            pytest.skip("instance fully certain")
        with pytest.raises(CapacityError):
            expected_nc(g, routes, probs, tuple(some), mode="exact")


class TestObjectiveShape:
    """The two hand-built fixtures showing the objective bends both ways."""

    def test_gain_can_shrink_after_other_measurements(self):
        g = nonsupermodularity_witness(p=0.6, q=0.5)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)

        def val(measured):
            return expected_nc(g, routes, probs, measured, mode="exact")

        gain_alone = val((3,)) - val(())
        gain_after = val((3, 4)) - val((4,))
        assert math.isclose(gain_alone, 1.4, abs_tol=TOL)
        assert math.isclose(gain_after, 0.7, abs_tol=TOL)
        assert gain_alone >= 1.0 >= gain_after

    def test_gain_can_grow_after_other_measurements(self):
        g = nonsubmodularity_witness(p1=0.5, p2=0.5, r=0.5)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)

        def val(measured):
            return expected_nc(g, routes, probs, measured, mode="exact")

        gain_alone = val((3,)) - val(())
        gain_after = val((3, 4)) - val((4,))
        assert math.isclose(gain_alone, 1.0, abs_tol=TOL)
        assert math.isclose(gain_after, 1.5, abs_tol=TOL)
        assert gain_alone <= gain_after


class TestGreedyPlan:
    def test_zero_budget(self, example_graph, example_routes, example_probs):
        plan = greedy_plan(example_graph, example_routes, example_probs, (4, 6, 8), 0)
        assert plan.selected == ()
        assert math.isclose(plan.baseline_value, helpers.CERTAIN_COUNT, abs_tol=TOL)

    def test_budget_covers_all_candidates(
        self, example_graph, example_routes, example_probs
    ):
        plan = greedy_plan(example_graph, example_routes, example_probs, (4, 6, 8), 10)
        assert set(plan.selected) == {4, 6, 8}

    def test_picks_a_best_node_breaking_ties_low(
        self, example_graph, example_routes, example_probs
    ):
        # 4 and 6 tie at 7.5 expected; 8 trails at 6.5; smallest id wins
        plan = greedy_plan(example_graph, example_routes, example_probs, (4, 6, 8), 1)
        assert plan.selected == (4,)
        assert math.isclose(plan.step_values[0], 7.5, abs_tol=TOL)

    def test_plan_invariants_on_random_instances(self):
        for idx in range(20):
            aug = helpers.random_instance(idx)
            g = build_rgraph(aug)
            routes = certain_inference(g)
            probs = probabilistic_inference(g, routes)
            candidates = [n for n in g.report_nodes if routes[n] is None and probs[n]]
            budget = 2
            plan = greedy_plan(g, routes, probs, candidates, budget)
            assert len(plan.selected) <= budget
            assert set(plan.selected) <= set(candidates)
            values = [plan.baseline_value, *plan.step_values]
            for before, after in zip(values, values[1:]):
                assert after >= before - TOL, (idx, values)

    def test_unknown_candidate_rejected(
        self, example_graph, example_routes, example_probs
    ):
        with pytest.raises(UnknownNodeError):
            greedy_plan(example_graph, example_routes, example_probs, (77,), 1)

    def test_root_and_unreachable_candidates_set_aside(
        self, example_graph, example_routes, example_probs
    ):
        plan = greedy_plan(
            example_graph,
            example_routes,
            example_probs,
            (helpers.DST, 8),
            5,
        )
        assert plan.selected == (8,)
        assert any("destination" in note or "root" in note for note in plan.notes)

    def test_negative_budget_rejected(
        self, example_graph, example_routes, example_probs
    ):
        with pytest.raises(InputError):
            greedy_plan(example_graph, example_routes, example_probs, (4,), -1)

    @pytest.mark.parametrize("given_forward", [False, True])
    def test_plan_facts_are_logged(
        self, given_forward, caplog, example_graph, example_routes, example_probs
    ):
        forward = example_probs if given_forward else None
        with caplog.at_level(logging.DEBUG, logger="catchmap.planner"):
            greedy_plan(
                example_graph, example_routes, example_probs, (4, 6, 8), 2,
                forward=forward,
            )
        # step 1: two outcomes for each of 4, 6, 8, whose cones are 3, 3, 3,
        # 3, 3 and 1 nodes and which pin 2, 3, 2, 3, 3 and 1 nodes; step 2
        # after 4: one outcome of 6 per branch (nothing pinned), two of 8
        # after 4=m1 (each pins 8, cones 1, 1), one after 4=m2 (nothing)
        assert [r.getMessage() for r in caplog.records] == [
            "greedy plan: 3 candidates, 2 steps, 11 branches evaluated, "
            "18 cone nodes recomputed, 16 nodes pinned, forward pass "
            + ("reused" if given_forward else "computed")
        ]

    def test_plan_facts_cost_nothing_without_debug_logging(
        self, monkeypatch, caplog, example_graph, example_routes, example_probs
    ):
        # the facts are counted on every plan, from the one cone walk each
        # evaluated branch makes anyway, with or without DEBUG logging
        walks = []
        cone_order = inference._cone_order

        def counted(*args):
            walks.append(1)
            return cone_order(*args)

        monkeypatch.setattr(inference, "_cone_order", counted)
        # a walk of the planner's own would go through its module namespace
        monkeypatch.setattr(planner, "_cone_order", counted, raising=False)
        for level in (logging.INFO, logging.DEBUG):
            del walks[:]
            with caplog.at_level(level, logger="catchmap.planner"):
                plan = greedy_plan(
                    example_graph, example_routes, example_probs, (4, 6, 8), 2
                )
            assert plan.selected == (4, 8)
            assert len(walks) == 11, level  # the branches the worked example evaluates

    def test_costs_limit_selection(self, example_graph, example_routes, example_probs):
        # unpriced, both plans pick the pair (4, 8) at budget 4
        costs = {4: 3.0, 6: 3.0, 8: 3.0}
        for plan in (greedy_plan, exhaustive_plan):
            got = plan(
                example_graph, example_routes, example_probs, (4, 6, 8), 4, costs=costs
            )
            assert got.selected == (4,), plan.__name__


def _reference_instances():
    """Small planning instances: a third with a prepending chain, half with
    unequal tie weights, half starting from routes with nothing pinned,
    where observations pin virtual chain nodes too, and a third with
    measurement costs."""
    for idx in range(40):
        rng = random.Random(idx)
        aug = helpers.random_instance(idx, seed_base=8100)
        if idx % 3 == 0:
            aug = apply_prepending(aug, rng.choice(helpers.ingress_points(aug)), rng.randint(1, 3))
        g = build_rgraph(aug)
        if idx % 2:
            g = g.with_tie_probs(helpers.random_tie_probs(g, rng))
        routes = certain_inference(g) if idx % 4 < 2 else dict.fromkeys(g.nodes)
        probs = probabilistic_inference(g, routes)
        candidates = [n for n in g.nodes if n != g.root and routes[n] is None and probs[n]]
        costs = {n: rng.choice([0.5, 1.0, 1.5]) for n in candidates} if idx % 3 == 1 else None
        yield idx, g, routes, probs, candidates, costs, rng


class TestAgainstReferencePlanner:
    """Carried branch values give the scan-priced planner's floats."""

    def test_greedy_plan(self):
        for label, g, routes, probs, candidates, costs, rng in _reference_instances():
            budget = rng.choice([2, 3])
            want = helpers.reference_greedy_plan(
                g, routes, probs, candidates, budget, costs=costs
            )
            got = greedy_plan(g, routes, probs, candidates, budget, costs=costs)
            assert repr(got) == repr(want), label

    def test_approx_values(self):
        for label, g, routes, probs, candidates, _, rng in _reference_instances():
            measured = rng.sample(candidates, min(3, len(candidates)))
            assert repr(expected_nc(
                g, routes, probs, measured, mode="approx"
            )) == repr(helpers.reference_approx_nc(g, routes, probs, measured)), label

            size = min(2, len(candidates))
            draws = random.Random(9)
            want = [
                helpers.reference_approx_nc(
                    g, routes, probs, draws.sample(sorted(candidates), size)
                )
                for _ in range(4)
            ]
            got = random_plan_values(g, routes, probs, candidates, 2, 4, seed=9, mode="approx")
            assert repr(got) == repr(want), label

    def test_given_forward_pass_changes_nothing(self, monkeypatch):
        calls = []
        forward = planner.probabilistic_inference

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(planner, "probabilistic_inference", counted)
        for label, g, routes, probs, candidates, costs, _ in _reference_instances():
            want = greedy_plan(g, routes, probs, candidates, 2, costs=costs)
            del calls[:]
            got = greedy_plan(
                g, routes, probs, candidates, 2,
                costs=costs, forward=forward(g, routes),
            )
            assert repr(got) == repr(want), label
            assert not calls, label


class _CountingMapping(Mapping):
    """A read-only view of a dict that counts every call able to copy or
    scan it; lookups (``[]``, ``get``, ``in``) go uncounted."""

    def __init__(self, data):
        self._data = data
        self.scans = Counter()

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        self.scans["__iter__"] += 1
        return iter(self._data)

    def __len__(self):
        self.scans["__len__"] += 1
        return len(self._data)

    def keys(self):
        self.scans["keys"] += 1
        return self._data.keys()

    def items(self):
        self.scans["items"] += 1
        return self._data.items()

    def values(self):
        self.scans["values"] += 1
        return self._data.values()

    def copy(self):
        self.scans["copy"] += 1
        return dict(self._data)


def test_branches_never_copy_or_scan_the_base():
    for label, g, routes, probs, candidates, costs, rng in _reference_instances():
        forward = probabilistic_inference(g, routes)
        before = copy.deepcopy((routes, probs, forward))
        measured = sorted(rng.sample(candidates, min(3, len(candidates))))
        want = (
            greedy_plan(g, routes, probs, candidates, 2, costs=costs, forward=forward),
            expected_nc(g, routes, probs, measured, mode="approx"),
            random_plan_values(g, routes, probs, candidates, 2, 3, seed=4, mode="approx"),
        )
        wrapped = [_CountingMapping(m) for m in (routes, probs, forward)]
        r, p, f = wrapped
        got = (
            greedy_plan(g, r, p, candidates, 2, costs=costs, forward=f),
            expected_nc(g, r, p, measured, mode="approx"),
            random_plan_values(g, r, p, candidates, 2, 3, seed=4, mode="approx"),
        )
        assert repr(got) == repr(want), label
        assert [m.scans for m in wrapped] == [Counter()] * 3, label
        assert (routes, probs, forward) == before, label
        assert [list(m.items()) for m in (routes, probs, forward)] == [
            list(m.items()) for m in before
        ], label


class TestExhaustivePlan:
    def test_zero_budget(self, example_graph, example_routes, example_probs):
        plan = exhaustive_plan(example_graph, example_routes, example_probs, (4, 8), 0)
        assert plan.selected == ()
        assert math.isclose(plan.expected_value, helpers.CERTAIN_COUNT, abs_tol=TOL)

    def test_optimum_is_the_smallest_resolving_pair(
        self, example_graph, example_routes, example_probs
    ):
        plan = exhaustive_plan(
            example_graph, example_routes, example_probs, (4, 6, 8), 3
        )
        # {4, 8} always ends fully resolved: an m2 reading at 4 cascades to
        # everything, and in the m1 branch the measurement of 8 settles the
        # rest; {6, 8} ties but {4, 8} sorts first
        assert plan.selected == (4, 8)
        assert math.isclose(plan.expected_value, 8.0, abs_tol=TOL)
        assert [round(v, 9) for v in plan.step_values] == [7.5, 8.0]

    def test_step_values_reuse_the_subset_scores(
        self, monkeypatch, example_graph, example_routes, example_probs
    ):
        # budget 2 over (4, 6, 8) scores seven subsets, one enumeration pass
        # each: the empty one, three singletons and three pairs. The best
        # pair's prefixes are among them, so no pass is made for its steps.
        passes = []
        original = planner.outcomes_keeping

        def counted(*args):
            passes.append(args)
            return original(*args)

        monkeypatch.setattr(planner, "outcomes_keeping", counted)
        plan = exhaustive_plan(
            example_graph, example_routes, example_probs, (4, 6, 8), 2
        )
        assert plan.selected == (4, 8)
        assert [round(v, 9) for v in plan.step_values] == [7.5, 8.0]
        assert len(passes) == 7

    def test_costs_change_the_optimum(
        self, example_graph, example_routes, example_probs
    ):
        # with 4 priced at 2, no pair holding it fits budget 2, and {6, 8}
        # takes the place of {4, 8}
        plan = exhaustive_plan(
            example_graph, example_routes, example_probs, (4, 6, 8), 2, costs={4: 2.0}
        )
        assert plan.selected == (6, 8)
        assert [round(v, 9) for v in plan.step_values] == [7.5, 8.0]

    def test_size_guard_noted_only_when_a_larger_subset_fits(
        self, example_graph, example_routes, example_probs
    ):
        # eight candidates: no subset of 7 fits budget 1, and one fits budget 7
        guard = "subsets larger than 6 not evaluated (exact-mode guard)"
        for budget, noted in ((1, False), (7, True)):
            plan = exhaustive_plan(
                example_graph, example_routes, example_probs, range(1, 9), budget
            )
            assert (guard in plan.notes) is noted, budget

    def test_equal_scores_keep_the_smallest_subset(self):
        # 14 nodes, 21,600 outcomes: measuring any one of the six pool nodes
        # is worth exactly 8. Summed with ``+=`` the six scores read
        # 8.000000000000574 to 8.000000000002013, past the 1e-12 tie rule,
        # and budget 1 took (7,) instead of (1,).
        cfg = parse_scenario_file(
            "topology generate n=13 avg_degree=8 seed=1\nattach 3 m0\nattach 2 m1\n"
        )
        g = build_rgraph(build_augmented(cfg))
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        pool = (1, 6, 7, 9, 12, 13)
        assert [expected_nc(g, routes, probs, [n], mode="exact") for n in pool] == [8.0] * 6
        assert exhaustive_plan(g, routes, probs, pool, 1).selected == (1,)
        # the loop before the chooser form, run on exact fractions
        collapsed = helpers.collapse_to_choosers(g)
        assert helpers.reference_exact_nc(collapsed, routes, [1], exact=True) == 8
        exact = helpers.reference_exact_nc(collapsed, routes, [1, 6], exact=True)
        assert exact == Fraction(721, 75)
        assert expected_nc(g, routes, probs, [1, 6], mode="exact") == 721 / 75

    def test_never_below_greedy(self):
        for idx in range(12):
            aug = helpers.random_instance(idx)
            g = build_rgraph(aug)
            routes = certain_inference(g)
            probs = probabilistic_inference(g, routes)
            candidates = [n for n in g.report_nodes if routes[n] is None and probs[n]][
                :5
            ]
            if not candidates:
                continue
            greedy = greedy_plan(g, routes, probs, candidates, 2)
            greedy_exact = expected_nc(
                g, routes, probs, greedy.selected, mode="exact"
            )
            best = exhaustive_plan(g, routes, probs, candidates, 2)
            assert greedy_exact <= best.expected_value + TOL, idx


class TestBaselines:
    def test_random_plan_values_deterministic(
        self, example_graph, example_routes, example_probs
    ):
        a = random_plan_values(
            example_graph, example_routes, example_probs, (4, 6, 8), 2, 20, seed=5
        )
        b = random_plan_values(
            example_graph, example_routes, example_probs, (4, 6, 8), 2, 20, seed=5
        )
        assert a == b
        assert len(a) == 20

    def test_greedy_beats_random_mean_on_example(
        self, example_graph, example_routes, example_probs
    ):
        plan = greedy_plan(example_graph, example_routes, example_probs, (4, 6, 8), 1)
        greedy_exact = expected_nc(
            example_graph, example_routes, example_probs, plan.selected, mode="exact"
        )
        baseline = random_plan_values(
            example_graph, example_routes, example_probs, (4, 6, 8), 1, 50, seed=0
        )
        assert greedy_exact > statistics.mean(baseline)

    def test_approx_values_share_one_forward_pass(self, monkeypatch):
        aug = helpers.degree_attached_instance(
            7, num_nodes=12, avg_degree=3.0, seed_base=6000
        )
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        pool = [n for n in g.report_nodes if routes[n] is None and probs[n]]
        assert len(pool) == 5
        rng = random.Random(3)
        per_plan = [
            expected_nc(g, routes, probs, rng.sample(pool, 2), mode="approx")
            for _ in range(15)
        ]

        calls = []
        forward = planner.probabilistic_inference

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(planner, "probabilistic_inference", counted)
        values = random_plan_values(
            g, routes, probs, pool, 2, 15, seed=3, mode="approx"
        )
        assert values == per_plan
        assert len(calls) == 1


def test_plan_csv_round_numbers(example_graph, example_routes, example_probs):
    plan = greedy_plan(example_graph, example_routes, example_probs, (4, 6, 8), 2)
    text = export_plan_csv(plan)
    lines = text.strip().splitlines()
    assert lines[0] == "rank,node,expected_nc_after"
    assert len(lines) == 1 + len(plan.selected)
    for line, node, value in zip(lines[1:], plan.selected, plan.step_values):
        rank, nid, val = line.split(",")
        assert int(nid) == node
        assert float(val) == value
