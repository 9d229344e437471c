"""Scenario files, the end-to-end pipeline, sweeps, and simulation checks."""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import math
import random
import re

import pytest

from catchmap import (
    DestinationSpec,
    RGraph,
    Relationship,
    ScenarioConfig,
    build_rgraph,
    certain_inference,
    compare_with_simulation,
    exact_conditional_distribution,
    generate_random_topology,
    greedy_plan,
    monte_carlo_inference,
    parse_scenario_file,
    prepending_sweep,
    probabilistic_inference,
    run_scenario,
    serialize_topology,
    shortest_path_transform,
    write_report_files,
)
from catchmap import rgraph as rgraph_module
from catchmap import scenario as scenario_module
from catchmap.planner import MeasurementPlan
from catchmap.rgraph import MAX_EXACT_NODES
from catchmap.scenario import Scenario, ScenarioReport, build_augmented
from catchmap.errors import (
    CapacityError,
    DestinationSpecError,
    InfeasibleOracleError,
    InputError,
    TopologyParseError,
    UnknownNodeError,
)

import helpers


def example_topology_text():
    return serialize_topology(helpers.example_base_topology())


def example_config(**overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(
        topology_text=example_topology_text(),
        attachments=dict(helpers.EXAMPLE_ATTACHMENTS),
        dst_id=helpers.DST,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestScenarioParsing:
    def test_full_directive_set(self, tmp_path):
        (tmp_path / "topo.txt").write_text(example_topology_text())
        (tmp_path / "obs.csv").write_text("8,m1\n")
        text = """
        # worked example
        topology file topo.txt
        attach 1 m1
        attach 2 m2 c2p
        dst_id 9
        mode probabilistic
        sp on
        oracles obs.csv
        posterior exact
        plan budget 2
        plan candidates uncertain
        seed 11
        """
        cfg = parse_scenario_file(text, base_dir=tmp_path)
        assert cfg.topology_file == str(tmp_path / "topo.txt")
        assert cfg.attachments == {1: "m1", 2: "m2"}
        assert cfg.dst_id == 9
        assert cfg.mode == "probabilistic"
        assert cfg.sp is True
        assert cfg.oracle_file == str(tmp_path / "obs.csv")
        assert cfg.posterior == "exact"
        assert cfg.plan_budget == 2
        assert cfg.plan_candidates is None
        assert cfg.seed == 11

    def test_generate_directive(self):
        cfg = parse_scenario_file("topology generate n=50 avg_degree=2.5 seed=3\n")
        assert cfg.generate == {"n": 50, "avg_degree": 2.5, "seed": 3}

    def test_paths_keep_their_whitespace(self, tmp_path):
        # a path runs to the end of the line's content: only a comment and
        # the whitespace around the content are cut
        cfg = parse_scenario_file(
            "topology file my  topo\t.txt\noracles  obs  1.csv   # observed\n",
            base_dir=tmp_path,
        )
        assert cfg.topology_file == str(tmp_path / "my  topo\t.txt")
        assert cfg.oracle_file == str(tmp_path / "obs  1.csv")

    def test_unknown_directive_reports_line(self):
        # a plan line takes exactly its own tokens, a topology file line a
        # path, an exact posterior no trial count and a sampled one at least
        # one trial
        for line in (
            "frobnicate 5", "plan budget 2 3", "plan candidates uncertain 7",
            "topology file", "posterior exact 50", "posterior monte-carlo 0",
            "posterior monte-carlo -5",
        ):
            with pytest.raises(TopologyParseError) as err:
                parse_scenario_file(f"mode certain\n{line}\n")
            assert "line 2" in str(err.value)

    @pytest.mark.parametrize("line, message", [
        ("mode speculative", "unknown mode 'speculative'"),
        ("posterior exact 50", "posterior exact takes no trial count"),
        ("posterior monte-carlo 0", "needs at least one trial, got 0"),
        ("posterior monte-carlo -5", "needs at least one trial, got -5"),
        ("posterior monte-carlo many", "bad number in 'posterior monte-carlo many'"),
        ("plan budget -1", "plan budget must be >= 0, got -1"),
    ])
    def test_named_errors_keep_their_message(self, line, message):
        with pytest.raises(TopologyParseError, match=f"^line 1: .*{message}$"):
            parse_scenario_file(f"{line}\n")

    def test_bad_mode_rejected(self):
        with pytest.raises(TopologyParseError):
            parse_scenario_file("mode speculative\n")

    @pytest.mark.parametrize("field, message", [
        ("mode", "unknown mode 'bogus'"),
        ("posterior", "unknown posterior method 'bogus'"),
    ])
    def test_unknown_method_rejected_before_anything_is_built(
        self, monkeypatch, field, message
    ):
        # a config made in Python skips the directive's check
        cfg = example_config(mode="probabilistic", oracle_text="8,m1\n")
        setattr(cfg, field, "bogus")
        monkeypatch.setattr(scenario_module, "build_augmented", None)
        with pytest.raises(InputError, match=f"^{message}$"):
            run_scenario(cfg)
        with pytest.raises(InputError, match=f"^{message}$"):
            prepending_sweep(cfg, "m2", 1)

    def test_double_attachment_rejected(self):
        with pytest.raises(TopologyParseError):
            parse_scenario_file("attach 1 m1\nattach 1 m2\n")

    def test_remove_ingress_drops_every_attachment_of_it(self):
        cfg = parse_scenario_file(
            "attach 1 m1 c2p\nattach 2 m2 p2p\nattach 3 m1\nattach 4 m3 p2c\n"
            "attach 5 m1 p2p\nremove_ingress m1\n"
        )
        assert cfg.attachments == {2: "m2", 4: "m3"}
        assert cfg.attachment_rels == {2: Relationship.P2P, 4: Relationship.P2C}
        echo = cfg.echo()
        assert echo["attachments"] == {"2": "m2", "4": "m3"}
        assert echo["attachment_rels"] == {"2": "p2p", "4": "p2c"}
        # a removed node may be attached again
        again = parse_scenario_file("attach 1 m1\nremove_ingress m1\nattach 1 m2\n")
        assert again.attachments == {1: "m2"}

    @pytest.mark.parametrize("text, line_no, name", [
        ("remove_ingress m1\n", 1, "m1"),
        ("attach 1 m1\n\nremove_ingress m2\n", 3, "m2"),
        ("attach 1 m1\nattach 2 m2\nremove_ingress m1\nremove_ingress m1\n", 4, "m1"),
    ])
    def test_remove_ingress_needs_an_attachment_of_it(self, text, line_no, name):
        message = f"^line {line_no}: no attachment uses ingress '{name}'$"
        with pytest.raises(TopologyParseError, match=message):
            parse_scenario_file(text)

    def test_remove_ingress_runs_end_to_end(self, tmp_path):
        # the worked example with a third ingress attached and then removed
        # writes the worked example's files, config echo included
        (tmp_path / "topo.txt").write_text(example_topology_text())
        head = "topology file topo.txt\nattach 1 m1\nattach 2 m2\n"
        tail = "dst_id 9\nmode probabilistic\noracles obs.csv\n"
        (tmp_path / "obs.csv").write_text("8,m1\n")
        written = []
        for extra in ("", "attach 5 m3 p2c\nattach 7 m3\nremove_ingress m3\n"):
            cfg = parse_scenario_file(head + extra + tail, base_dir=tmp_path)
            scenario = run_scenario(cfg)
            report, g = scenario.report, scenario.graph
            assert report.ingress_points == ("m1", "m2")
            out = tmp_path / f"out{len(written)}"
            written.append({p.name: p.read_bytes() for p in write_report_files(report, g, out)})
        assert written[0] == written[1]
        assert json.loads(written[1]["report.json"])["config"]["attachments"] == {
            "1": "m1", "2": "m2"
        }

    def test_prepend_directive(self):
        cfg = parse_scenario_file("prepend m2 3\nprepend m1 1\n")
        assert cfg.prepends == (("m2", 3), ("m1", 1))

    def test_topology_source_required(self):
        cfg = parse_scenario_file("attach 1 m1\n")
        with pytest.raises(InputError):
            build_augmented(cfg)

    def test_caida_topology_file_matches_canonical(self, tmp_path):
        topo = helpers.example_base_topology()
        pipe_lines = [
            f"{i}|{j}|-1"
            for i in sorted(topo.nodes())
            for j in sorted(topo.neighbors(i))
            if topo.relationship(i, j) == Relationship.P2C
        ]
        (tmp_path / "rels.asrel").write_text(
            "# serial-1\n" + "\n".join(pipe_lines) + "\n"
        )
        (tmp_path / "topo.txt").write_text(example_topology_text())
        reports = []
        for name in ("rels.asrel", "topo.txt"):
            cfg = parse_scenario_file(
                f"topology file {name}\nattach 1 m1\nattach 2 m2\ndst_id 9\n"
                "mode probabilistic\n",
                base_dir=tmp_path,
            )
            reports.append(run_scenario(cfg).report)
        caida, canonical = reports
        assert caida.routes == canonical.routes == helpers.EXPECTED_ROUTES
        assert caida.probs == canonical.probs


class TestRunScenario:
    def test_certain_row_reproduces_routing_table(self):
        report = run_scenario(example_config()).report
        assert report.routes == helpers.EXPECTED_ROUTES
        assert report.certain_counts == {"m1": 3, "m2": 2}
        assert report.uncertain_count == 3
        assert report.bounds == helpers.EXPECTED_BOUNDS
        # pure certain run carries no probability columns
        assert report.probs is None
        assert report.expected_loads is None
        assert "probabilistic-inference" not in report.stages

    def test_probabilistic_row_adds_probabilities_and_loads(self):
        report = run_scenario(example_config(mode="probabilistic")).report
        assert report.probs is not None
        for node, expected in helpers.EXPECTED_PROBS.items():
            for m, p in expected.items():
                assert math.isclose(report.probs[node][m], p, abs_tol=1e-9)
        assert math.isclose(
            report.expected_loads["m1"], helpers.EXPECTED_LOADS["m1"], abs_tol=1e-9
        )
        assert math.isclose(
            report.expected_loads["m2"], helpers.EXPECTED_LOADS["m2"], abs_tol=1e-9
        )

    def test_observation_row_reproduces_propagation(self):
        report = run_scenario(example_config(oracle_text="4,m1\n")).report
        assert report.routes[4] == "m1"
        assert report.routes[6] == "m1"
        assert report.routes[8] is None
        assert report.set_route_calls == 2
        assert "observation-propagation" in report.stages

    def test_posterior_row_collapses_correlations(self):
        report = run_scenario(
            example_config(mode="probabilistic", oracle_text="8,m1\n", posterior="exact")
        ).report
        assert report.probs[4] == {"m1": 1.0}
        assert report.probs[6] == {"m1": 1.0}
        assert "posterior-exact" in report.stages
        assert set(report.prob_status.values()) == {"posterior-exact"}

    def test_observation_statuses(self):
        # certain mode: the nodes the observation leaves uncertain keep the
        # forward pass from before it, and only they say so
        scenario = run_scenario(example_config(oracle_text="8,m2\n"))
        report, g = scenario.report, scenario.graph
        forward = probabilistic_inference(g, certain_inference(g))
        open_nodes = {n for n in report.nodes if report.routes[n] is None}
        assert open_nodes == {4, 6}
        assert report.prob_status == {
            n: "pre-observation" if n in open_nodes else "exact" for n in report.nodes
        }
        assert all(report.probs[n] == forward[n] for n in open_nodes)
        assert all(
            report.probs[n] == {report.routes[n]: 1.0}
            for n in report.nodes if n not in open_nodes
        )

        report = run_scenario(example_config(oracle_text="8,m1\n4,m1\n")).report
        assert set(report.prob_status.values()) == {"exact"}

        for posterior, status in [
            ("exact", "posterior-exact"),
            ("monte-carlo", "posterior-sampled"),
            (None, "posterior-exact"),
        ]:
            report = run_scenario(
                example_config(
                    mode="probabilistic",
                    oracle_text="8,m2\n",
                    posterior=posterior,
                    posterior_trials=500,
                )
            ).report
            assert set(report.prob_status.values()) == {status}

    def test_sp_mode_prunes_and_repins(self):
        scenario = run_scenario(example_config(sp=True))
        report, g = scenario.report, scenario.graph
        assert "shortest-path-pruning" in report.stages
        assert report.routes[8] == "m2"
        assert (3, 7) not in set(g.edges())

    def test_monte_carlo_posterior(self):
        report = run_scenario(
            example_config(
                mode="probabilistic",
                oracle_text="8,m1\n",
                posterior="monte-carlo",
                posterior_trials=4000,
            )
        ).report
        assert "posterior-sampling" in report.stages
        assert report.probs[4]["m1"] == 1.0

    def test_monte_carlo_facts_are_logged(self, caplog):
        cfg = example_config(
            mode="probabilistic",
            oracle_text="8,m1\n",
            posterior="monte-carlo",
            posterior_trials=500,
        )
        with caplog.at_level(logging.DEBUG, logger="catchmap.scenario"):
            scenario = run_scenario(cfg)
            report, g = scenario.report, scenario.graph
        estimate = monte_carlo_inference(g, 500, cfg.seed, {8: "m1"})
        assert 0 < estimate.accepted < 500
        # 8 and its ancestors 1, 2, 4, 5, 6 and the root; of the choosers
        # 4, 7 and 8, only 4 and 8 are among them; 3 and 7 are mixed
        assert (estimate.ancestors, estimate.draws_per_trial) == (7, 2)
        lines = [r.getMessage() for r in caplog.records if "monte carlo" in r.getMessage()]
        assert lines == [
            f"monte carlo posterior: 500 trials, {estimate.accepted} accepted, "
            "7 of 9 nodes in the observations' ancestor closure, "
            "2 choosers sampled, 2 nodes mixed exactly"
        ]
        assert "accepted" not in report.to_json()

    def test_expected_loads_list_every_ingress_point(self):
        # m2 hangs off node 11 by a p2c link, so no node can route to it
        cfg = ScenarioConfig(
            generate={"n": 12, "avg_degree": 2.8, "seed": 1},
            attachments={2: "m1", 7: "m1", 11: "m2"},
            attachment_rels={
                2: Relationship.P2P, 7: Relationship.C2P, 11: Relationship.P2C,
            },
            mode="probabilistic",
        )
        report = run_scenario(cfg).report
        assert report.bounds["m2"] == (0, 0)
        assert report.expected_loads == {"m1": 12.0, "m2": 0.0}
        assert json.loads(report.to_json())["expected_loads"] == {"m1": 12.0, "m2": 0.0}

    def test_automatic_posterior_choice_follows_the_size_limit(self):
        def run_with_graph_nodes(count):
            topo = helpers.example_base_topology()
            extra = helpers.DST + 1
            while topo.num_nodes + 1 < count:  # + 1 for the destination
                topo.add_node(extra)
                extra += 1
            cfg = example_config(
                topology_text=serialize_topology(topo),
                mode="probabilistic",
                oracle_text="8,m1\n",
                posterior_trials=500,
            )
            scenario = run_scenario(cfg)
            report, g = scenario.report, scenario.graph
            assert len(g.nodes) == count
            return report, g

        report, _ = run_with_graph_nodes(MAX_EXACT_NODES)
        assert "posterior-exact" in report.stages
        assert set(report.prob_status.values()) == {"posterior-exact"}

        report, g = run_with_graph_nodes(MAX_EXACT_NODES + 1)
        assert "posterior-sampling" in report.stages
        assert set(report.prob_status.values()) == {"posterior-sampled"}
        with pytest.raises(CapacityError):
            exact_conditional_distribution(g, {8: "m1"})

    def test_plan_stage(self):
        report = run_scenario(example_config(plan_budget=1)).report
        assert report.plan is not None
        assert report.plan.selected == (4,)
        assert "measurement-planning" in report.stages

    @pytest.mark.parametrize("oracle_text", [None, "5,m2\n"])
    def test_plan_reuses_the_forward_pass_only_without_observations(
        self, oracle_text, caplog
    ):
        # after an observation probs is a posterior, not the forward pass;
        # planning from it as if it were changes the second step's value
        cfg = ScenarioConfig(
            generate={"n": 11, "avg_degree": 3.0, "seed": 2},
            attachments={1: "m1", 2: "m2", 3: "m3"},
            mode="probabilistic",
            oracle_text=oracle_text,
            posterior="exact",
            plan_budget=2,
        )
        with caplog.at_level(logging.DEBUG, logger="catchmap.planner"):
            scenario = run_scenario(cfg)
            report, g = scenario.report, scenario.graph
        post = scenario.posterior
        routes, probs, candidates = post.routes, post.probs, scenario.candidates
        assert report.plan == greedy_plan(g, routes, probs, candidates, 2)
        (line,) = [r.getMessage() for r in caplog.records if "greedy plan" in r.getMessage()]
        assert line.endswith("computed" if oracle_text else "reused")

    def test_json_report_deterministic(self):
        a = run_scenario(example_config(mode="probabilistic")).report
        b = run_scenario(example_config(mode="probabilistic")).report
        assert a.to_json() == b.to_json()
        doc = json.loads(a.to_json())
        assert doc["routes"]["3"] == "m1"
        assert doc["node_count"] == 8

    def test_report_json_top_level_keys(self):
        report = run_scenario(example_config(
            mode="probabilistic", oracle_text="8,m1\n", plan_budget=1,
        )).report
        assert list(json.loads(report.to_json())) == [
            "bounds", "certain_counts", "config", "expected_loads",
            "ingress_points", "node_count", "plan", "prob_status",
            "probability_mass_deficit", "probs", "rgraph", "routes", "seed",
            "set_route_calls", "stages", "uncertain_count",
        ]

    def test_node_csv_shape(self):
        report = run_scenario(example_config(mode="probabilistic")).report
        lines = report.to_node_csv().strip().splitlines()
        assert lines[0] == "node,route,pi_m1,pi_m2,status"
        assert len(lines) == 9

    def test_report_files_written(self, tmp_path):
        scenario = run_scenario(example_config(mode="probabilistic", plan_budget=1))
        report, g = scenario.report, scenario.graph
        written = write_report_files(report, g, tmp_path)
        names = {p.name for p in written}
        assert names == {
            "report.json",
            "nodes.csv",
            "rgraph.edges",
            "rgraph.dot",
            "plan.csv",
        }
        assert json.loads((tmp_path / "report.json").read_text())["seed"] == 0


def _mixed_relationship_config(seed: int) -> ScenarioConfig:
    """Generated 12-node scenario: m1 at two nodes, m2 at one, each attached
    with a different relationship, rotating with the seed."""
    rels = (Relationship.P2C, Relationship.P2P, Relationship.C2P)
    nodes = (1 + seed % 12, 1 + (seed + 5) % 12, 1 + (seed + 9) % 12)
    return ScenarioConfig(
        generate={"n": 12, "avg_degree": 2.8, "seed": seed},
        attachments=dict(zip(nodes, ("m1", "m1", "m2"))),
        attachment_rels={n: rels[(seed + i) % 3] for i, n in enumerate(nodes)},
    )


SWEEP_CONFIGS = [example_config()] + [_mixed_relationship_config(s) for s in (0, 12, 13, 34)]


class TestPrependingSweep:
    @pytest.mark.parametrize("mode", ["certain", "probabilistic"])
    @pytest.mark.parametrize("sp", [False, True], ids=["sp-off", "sp-on"])
    @pytest.mark.parametrize("case", range(len(SWEEP_CONFIGS)))
    def test_spliced_chain_matches_a_prepended_topology(self, case, sp, mode):
        # entry k must be the report of the same config with the chain
        # inserted into the topology by a ``prepend`` directive
        cfg = dataclasses.replace(SWEEP_CONFIGS[case], sp=sp, mode=mode)
        for ingress in sorted(set(cfg.attachments.values())):
            entries = prepending_sweep(cfg, ingress, 3)
            for k, entry in enumerate(entries):
                report = run_scenario(dataclasses.replace(cfg, prepends=((ingress, k),))).report
                assert entry["k"] == k
                assert entry["routes"] == {str(n): r for n, r in report.routes.items()}
                assert entry["certain_counts"] == report.certain_counts
                assert entry["uncertain"] == report.uncertain_count
                assert entry["bounds"] == {m: list(b) for m, b in report.bounds.items()}
                if mode == "certain":
                    assert "expected_sizes" not in entry
                    continue
                sizes, loads = entry["expected_sizes"], report.expected_loads
                # both list every ingress, with a zero load where no node
                # can reach it
                assert loads.keys() <= sizes.keys()
                for m in sizes:
                    assert sizes[m] == pytest.approx(loads.get(m, 0.0), abs=1e-12)

    @pytest.mark.parametrize("mode", ["certain", "probabilistic"])
    @pytest.mark.parametrize("sp", [False, True], ids=["sp-off", "sp-on"])
    def test_observations_and_plan_leave_the_sweep_alone(self, sp, mode):
        cfg = example_config(sp=sp, mode=mode)
        loaded = dataclasses.replace(cfg, oracle_text="4,m1\n", plan_budget=1)
        # the config's own run does apply both
        report = run_scenario(loaded).report
        assert report.routes[4] == "m1" and report.plan is not None
        assert prepending_sweep(loaded, "m2", 2) == prepending_sweep(cfg, "m2", 2)

    def test_the_sweep_reads_only_certain_routes_and_forward_passes(self, monkeypatch, tmp_path):
        # the observation file does not exist, and no stage past the forward
        # pass, nor any report, may run
        cfg = example_config(
            mode="probabilistic", oracle_file=str(tmp_path / "missing.csv"), plan_budget=1
        )
        want = prepending_sweep(example_config(mode="probabilistic"), "m2", 2)
        builds = []
        build = scenario_module.build_augmented
        monkeypatch.setattr(
            scenario_module, "build_augmented", lambda c: builds.append(c) or build(c)
        )
        for name in ("parse_oracle_file", "apply_oracles", "exact_conditional_distribution",
                     "monte_carlo_inference", "greedy_plan", "ScenarioReport"):
            monkeypatch.setattr(scenario_module, name, None)
        assert prepending_sweep(cfg, "m2", 2) == want
        # the augmented topology is built once, from the config as given
        assert builds == [cfg]

    def test_zero_matches_baseline(self):
        cfg = example_config()
        report = run_scenario(cfg).report
        entries = prepending_sweep(cfg, "m2", 0)
        assert len(entries) == 1
        assert entries[0]["k"] == 0
        assert entries[0]["certain_counts"] == report.certain_counts
        # sweep entries are JSON-ready, so node ids come back as strings
        assert entries[0]["routes"] == {str(n): r for n, r in report.routes.items()}

    def test_lengths_invisible_without_sp(self):
        entries = prepending_sweep(example_config(), "m2", 3)
        for entry in entries[1:]:
            assert entry["routes"] == entries[0]["routes"]
            assert entry["certain_counts"] == entries[0]["certain_counts"]

    @pytest.mark.parametrize("mode", ["certain", "probabilistic"])
    @pytest.mark.parametrize("case, node", [(3, 11), (4, 8)])
    def test_without_sp_a_node_attached_at_the_padded_ingress_can_change(self, case, node, mode):
        # the node is attached at m2 as the destination's customer and has
        # another provider: at k=0 it is root-attached, so its attachment
        # fixes it, and from k=1 on its parent is the chain's tail, so it
        # rolls a tie against the other provider
        cfg = dataclasses.replace(SWEEP_CONFIGS[case], sp=False, mode=mode)
        assert cfg.attachments[node] == "m2"
        entries = prepending_sweep(cfg, "m2", 3)
        assert [e["routes"][str(node)] for e in entries] == ["m2", None, None, None]
        first = entries[0]["routes"]
        changed = {n for e in entries[1:] for n, r in e["routes"].items() if r != first[n]}
        assert changed == {str(node)}

    def test_sp_prepending_shrinks_the_padded_catchment(self):
        entries = prepending_sweep(example_config(sp=True), "m2", 3)
        counts = [e["certain_counts"]["m2"] for e in entries]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] < counts[0]

    def test_unknown_ingress_rejected(self):
        with pytest.raises(UnknownNodeError):
            prepending_sweep(example_config(), "nope", 1)

    def test_negative_range_rejected(self):
        with pytest.raises(InputError):
            prepending_sweep(example_config(), "m2", -1)


class TestAgainstTheReferencePipeline:
    """``Scenario`` and the sweep against the single pipeline function they
    replaced (``helpers.reference_run_scenario``), output for output."""

    @staticmethod
    def observation(cfg: ScenarioConfig) -> str:
        """The likeliest ingress of the middle report node left uncertain,
        else the route of the middle certain one: an observation line the
        scenario's graph can take."""
        s = Scenario(cfg)
        routes, probs = s.certain, s.forward
        uncertain = [n for n in s.graph.report_nodes if routes[n] is None and probs[n]]
        if uncertain:
            node = uncertain[len(uncertain) // 2]
            return f"{node},{max(sorted(probs[node]), key=probs[node].get)}\n"
        certain = [n for n in s.graph.report_nodes if routes[n] is not None]
        node = certain[len(certain) // 2]
        return f"{node},{routes[node]}\n"

    @pytest.mark.parametrize("mode", ["certain", "probabilistic"])
    @pytest.mark.parametrize("sp", [False, True], ids=["sp-off", "sp-on"])
    @pytest.mark.parametrize("case", range(len(SWEEP_CONFIGS)))
    def test_run_matches_the_reference(self, case, sp, mode):
        base = dataclasses.replace(SWEEP_CONFIGS[case], sp=sp, mode=mode, posterior_trials=300)
        for oracle_text, posterior, budget in itertools.product(
            [None, self.observation(base)], [None, "exact", "monte-carlo"], [None, 2]
        ):
            cfg = dataclasses.replace(
                base, oracle_text=oracle_text, posterior=posterior, plan_budget=budget
            )
            scenario = run_scenario(cfg)
            report, g, plan_inputs = helpers.reference_run_scenario(cfg, build_augmented(cfg))
            assert scenario.report.to_json() == report.to_json()
            assert scenario.report.to_node_csv() == report.to_node_csv()
            assert scenario.plan == scenario.report.plan == report.plan
            helpers.assert_same_graph(scenario.graph, g)
            if budget is None:
                assert plan_inputs is None
                continue
            routes, probs, candidates = plan_inputs
            post = scenario.posterior
            assert (post.routes, post.probs, scenario.candidates) == (routes, probs, candidates)

    @pytest.mark.parametrize("mode", ["certain", "probabilistic"])
    @pytest.mark.parametrize("sp", [False, True], ids=["sp-off", "sp-on"])
    @pytest.mark.parametrize("case", range(len(SWEEP_CONFIGS)))
    def test_sweep_matches_the_reference(self, case, sp, mode):
        plain = dataclasses.replace(SWEEP_CONFIGS[case], sp=sp, mode=mode)
        for cfg in (plain, dataclasses.replace(
            plain, oracle_text=self.observation(plain), plan_budget=2
        )):
            for ingress in sorted(set(cfg.attachments.values())):
                entries = prepending_sweep(cfg, ingress, 3)
                assert entries == helpers.reference_prepending_sweep(cfg, ingress, 3)
                # the same floats, and the same key order at every level
                assert json.dumps(entries) == json.dumps(
                    helpers.reference_prepending_sweep(cfg, ingress, 3)
                )

    @staticmethod
    def past_the_exact_limit() -> ScenarioConfig:
        # the example's eight nodes, the destination and six more nodes
        topo = helpers.example_base_topology()
        for extra in range(MAX_EXACT_NODES - 8):
            topo.add_node(helpers.DST + 1 + extra)
        return example_config(
            topology_text=serialize_topology(topo), mode="probabilistic",
            oracle_text="8,m1\n", posterior="exact",
        )

    @pytest.mark.parametrize("kind", ["missing-file", "infeasible", "past-the-exact-limit"])
    def test_errors_match_the_reference(self, tmp_path, kind):
        cfg = {
            "missing-file": lambda: example_config(oracle_file=str(tmp_path / "missing.csv")),
            # node 3 hears the destination from no one, so nothing can be seen there
            "infeasible": lambda: ScenarioConfig(
                topology_text="edge 1 2 p2p\nedge 2 3 p2p\n", attachments={1: "m"},
                mode="probabilistic", oracle_text="3,m\n",
            ),
            "past-the-exact-limit": self.past_the_exact_limit,
        }[kind]()
        with pytest.raises(Exception) as want:
            helpers.reference_run_scenario(cfg, build_augmented(cfg))
        with pytest.raises(want.type) as got:
            run_scenario(cfg)
        assert got.type is want.type
        assert str(got.value) == str(want.value)
        expected = {
            "missing-file": FileNotFoundError, "infeasible": InfeasibleOracleError,
            "past-the-exact-limit": CapacityError,
        }
        assert want.type is expected[kind]


class TestSimulationComparison:
    def test_single_run_trace(self):
        aug = helpers.example_aug()
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        cmp = compare_with_simulation(aug, g, routes, probs, runs=1, seed=0)
        for m in ("m1", "m2"):
            assert len(cmp.cma[m]) == 1

    def test_mean_and_bounds_on_example(self):
        aug = helpers.example_aug()
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        cmp = compare_with_simulation(aug, g, routes, probs, runs=400, seed=9)
        assert cmp.bound_violations == 0
        assert all(cmp.within_3se.values())
        # predicted expectation: m1 = 3 + .5 + .5 + .25 = 4.25
        assert math.isclose(cmp.predicted_mean["m1"], 4.25, abs_tol=1e-9)
        assert math.isclose(cmp.cma["m1"][-1], cmp.simulated_mean["m1"], abs_tol=1e-9)

    def test_sp_mode_compares_against_pruned_graph(self):
        aug = helpers.example_aug()
        g = shortest_path_transform(build_rgraph(aug))
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        cmp = compare_with_simulation(
            aug, g, routes, probs, runs=300, seed=4, sp_mode=True
        )
        assert cmp.bound_violations == 0
        assert all(cmp.within_3se.values())

    def test_same_seed_repeats(self):
        aug = helpers.example_aug()
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        first = compare_with_simulation(aug, g, routes, probs, runs=60, seed=2)
        again = compare_with_simulation(aug, g, routes, probs, runs=60, seed=2)
        assert first.simulated_mean == again.simulated_mean
        assert first.cma == again.cma

    def test_rejects_zero_runs(self):
        aug = helpers.example_aug()
        g = build_rgraph(aug)
        routes = certain_inference(g)
        probs = probabilistic_inference(g, routes)
        with pytest.raises(InputError):
            compare_with_simulation(aug, g, routes, probs, runs=0)


def test_moas_scenario_end_to_end():
    cfg = parse_scenario_file(
        "topology generate n=30 avg_degree=2.5 seed=6\nmoas 1 2\nmode probabilistic\n"
    )
    scenario = run_scenario(cfg)
    report, g = scenario.report, scenario.graph
    assert set(report.ingress_points) == {"1", "2"}
    assert report.routes[1] == "1"
    assert report.routes[2] == "2"


def test_mass_deficit_flagged_for_unreachable_corners():
    # a peer-of-a-peer island: node 3 can never hear the announcement
    text = "\n".join(
        [
            "# topology v1",
            "edge 1 2 p2p",
            "edge 2 3 p2p",
        ]
    )
    cfg = ScenarioConfig(
        topology_text=text, attachments={1: "m"}, mode="probabilistic"
    )
    report = run_scenario(cfg).report
    assert report.routes[3] is None
    assert report.probs[3] == {}
    assert report.probability_mass_deficit.get(3) == 0.0


# -- report files: the row writer's byte oracle, escaping, logging ---------------

_ODD_NAMES = ('m"x', "a\\b", "é", "t\tab")


def _hand_report(**overrides) -> ScenarioReport:
    """A report built by hand: node ids of one to five digits, ingress names
    that need escaping, empty distributions, tiny and inexact floats and a
    plan."""
    nodes = (1, 2, 9, 10, 99, 100, 12345, 54321)
    routes = {n: _ODD_NAMES[i % 4] if i % 3 else None for i, n in enumerate(nodes)}
    probs = {
        n: {} if i % 4 == 3 else {_ODD_NAMES[i % 4]: 0.1 + 0.2, _ODD_NAMES[(i + 1) % 4]: 1e-17}
        for i, n in enumerate(nodes)
    }
    fields = dict(
        config=ScenarioConfig(attachments={1: _ODD_NAMES[0], 10: _ODD_NAMES[2]}).echo(),
        stages=("attach-destination", "forwarding-graph"),
        ingress_points=tuple(sorted(_ODD_NAMES)),
        nodes=nodes,
        routes=routes,
        probs=probs,
        prob_status={n: "exact" if n % 2 else "pre-observation" for n in nodes},
        certain_counts={m: 1 for m in _ODD_NAMES},
        uncertain_count=3,
        bounds={m: (1, 4) for m in _ODD_NAMES},
        expected_loads={m: 0.1 * (i + 1) for i, m in enumerate(_ODD_NAMES)},
        probability_mass_deficit={
            10: 0.5, 9: 0, 100: 1e-17, 12345: 0.1 + 0.2, 54321: math.nan,
        },
        set_route_calls=7,
        plan=MeasurementPlan(
            selected=(10, 9), step_values=(2.5, 0.1 + 0.2), baseline_value=1.0,
            budget=2, method="greedy", notes=("node 5 has no route",),
        ),
        rgraph_nodes=9,
        rgraph_edges=12,
        seed=3,
    )
    fields.update(overrides)
    return ScenarioReport(**fields)


def _signed_zero_probs() -> dict[int, dict[str, float]]:
    """Distributions that repeat with the same status (odd nodes are
    ``exact``), some equal as floats but not as text: ``0.0 == -0.0``, in
    either order of first appearance."""
    a, b = _ODD_NAMES[0], _ODD_NAMES[1]
    return {
        1: {a: -0.0, b: 1.0}, 2: {a: 0.5, b: 0.5}, 9: {a: 0.0, b: 1.0},
        10: {a: 0.5, b: 0.5}, 99: {b: 1.0, a: -0.0}, 100: {a: 0.0, b: 1.0},
        12345: {a: 0.25, b: 0.75}, 54321: {a: 0.25, b: 0.75},
    }


def _shared_objects() -> dict:
    """Report fields whose cells are shared objects, as the forward pass and
    ``dict.fromkeys`` share them: one dict under several nodes, a signed-zero
    one among them, next to an equal dict that is another object, and one
    status string under every node."""
    a, b = _ODD_NAMES[0], _ODD_NAMES[1]
    half, zero, empty = {a: 0.5, b: 0.5}, {a: -0.0, b: 1.0}, {}
    nodes = (1, 2, 9, 10, 99, 100, 12345, 54321)
    return {
        "probs": dict(zip(nodes, (half, zero, half, zero, {a: 0.0, b: 1.0}, empty, zero, empty))),
        "routes": {n: b if n in (2, 10) else None for n in nodes},
        "prob_status": dict.fromkeys(nodes, "posterior-exact"),
    }


_HAND_REPORTS = pytest.mark.parametrize("overrides", [
    {},
    {"probs": None, "prob_status": None, "expected_loads": None},
    {"plan": None, "set_route_calls": None},
    {"probability_mass_deficit": {}},
    {"nodes": (), "routes": {}, "probs": {}, "prob_status": {}},
    {"nodes": (7,), "routes": {7: None}, "probs": {7: {}}, "prob_status": {7: "exact"}},
    {"probs": _signed_zero_probs(), "routes": dict.fromkeys((1, 2, 9, 10, 99, 100, 12345, 54321))},
    _shared_objects(),
], ids=[
    "full", "no-probs", "no-plan", "no-deficit", "no-nodes", "one-node", "signed-zeros",
    "shared-objects",
])


@_HAND_REPORTS
def test_report_json_matches_the_reference_on_hand_built_reports(overrides):
    report = _hand_report(**overrides)
    assert report.to_json() == helpers.reference_report_json(report)


@_HAND_REPORTS
def test_node_csv_matches_the_reference_on_hand_built_reports(overrides):
    """Rows that repeat a route, distribution and status share one text;
    signed zeros and a missing distribution map still print as before."""
    report = _hand_report(**overrides)
    assert report.to_node_csv() == helpers.reference_node_csv(report)


def test_runs_leave_the_shared_point_masses_unchanged(tmp_path):
    """Fixed nodes share ``g.point_masses`` through every stage, and no stage
    or writer writes into them: certain and probabilistic mode, observations,
    a plan and both posteriors, with every report file written."""
    runs = [
        example_config(),
        example_config(mode="probabilistic", sp=True),
        example_config(oracle_text="8,m1\n", plan_budget=2),
        example_config(mode="probabilistic", oracle_text="8,m1\n", posterior="exact"),
        example_config(
            mode="probabilistic", oracle_text="8,m1\n", posterior="monte-carlo",
            posterior_trials=200, plan_budget=2,
        ),
        ScenarioConfig(
            generate={"n": 40, "avg_degree": 3.0, "seed": 3},
            attachments={1: "m1", 2: "m2", 3: "m3"}, mode="probabilistic", plan_budget=2,
        ),
    ]
    for i, cfg in enumerate(runs):
        s = run_scenario(cfg)
        write_report_files(s.report, s.graph, tmp_path / str(i))
        g = s.graph
        assert g.point_masses == {None: {}, **{m: {m: 1.0} for m in g.ingress_points}}, i
        if s.report.probs is not None:
            # node 1 is attached at m1, so every pass shares its point mass
            assert s.report.probs[1] is g.point_masses["m1"], i


def _generated_report_configs() -> list[ScenarioConfig]:
    """48 generated 6-13-node scenarios: sp on in half, prepending in a
    third, probabilistic in three quarters, a plan in a fifth."""
    configs = []
    for i in range(48):
        n = 6 + i % 8
        topo = generate_random_topology(n, avg_degree=2.6, seed=300 + i)
        picks = random.Random(i).sample(sorted(topo.nodes()), 2 + i % 2)
        names = ("m1", "é2", "m1" if i % 5 == 1 else "m3")
        cfg = ScenarioConfig(
            generate={"n": n, "avg_degree": 2.6, "seed": 300 + i},
            attachments=dict(zip(picks, names)),
            mode="certain" if i % 4 == 3 else "probabilistic",
            sp=bool(i % 2),
            posterior_trials=300,
            plan_budget=1 if i % 5 == 0 else None,
            seed=i,
        )
        if i % 3 == 0:
            cfg.prepends = (("m1", 1 + i % 2),)
        configs.append(cfg)
    return configs


def test_report_json_matches_the_reference_on_generated_scenarios():
    observed = 0
    for cfg in _generated_report_configs():
        report = run_scenario(cfg).report
        assert report.to_json() == helpers.reference_report_json(report)
        if cfg.mode != "probabilistic":
            continue
        # observe the likeliest ingress of an uncertain node, then the exact
        # or the sampled posterior
        uncertain = [n for n in report.nodes if report.routes[n] is None and report.probs[n]]
        if not uncertain:
            continue
        node = uncertain[len(uncertain) // 2]
        ingress = max(sorted(report.probs[node]), key=report.probs[node].get)
        report = run_scenario(dataclasses.replace(
            cfg, oracle_text=f"{node},{ingress}\n",
            posterior=("exact", "monte-carlo")[observed % 2],
        )).report
        assert report.to_json() == helpers.reference_report_json(report)
        observed += 1
    assert observed >= 10


@pytest.mark.parametrize("case", [0, 1, 5], ids=["sp-off-plan", "sp-on", "sp-on-plan"])
def test_a_run_orders_one_graph(monkeypatch, case):
    """The graph that shortest-path pruning discards is never ordered."""
    cfg = _generated_report_configs()[case]
    calls = []
    kahn = rgraph_module._kahn_order
    monkeypatch.setattr(rgraph_module, "_kahn_order", lambda *a: calls.append(a) or kahn(*a))
    run_scenario(cfg)
    assert len(calls) == 1


def _odd_name_run(tmp_path, names: dict[int, str]):
    (tmp_path / "topo.txt").write_text(example_topology_text())
    text = "topology file topo.txt\n" + "".join(
        f"attach {n} {m}\n" for n, m in names.items()
    ) + "dst_id 9\nmode probabilistic\n"
    scenario = run_scenario(parse_scenario_file(text, base_dir=tmp_path))
    report, g = scenario.report, scenario.graph
    write_report_files(report, g, tmp_path / "out")
    return report, tmp_path / "out"


def test_dot_labels_escape_quotes_and_backslashes(tmp_path):
    # names that a DOT label would have to escape do not exist
    with pytest.raises(DestinationSpecError, match="""ingress name 'm"x' holds '"'"""):
        _odd_name_run(tmp_path, {1: 'm"x', 2: "m2"})
    with pytest.raises(DestinationSpecError, match=re.escape("'m\\\\y' holds '\\\\'")):
        _odd_name_run(tmp_path, {1: "m1", 2: "m\\y"})
    # nor in a graph built by hand
    with pytest.raises(DestinationSpecError, match="holds '\"'"):
        RGraph.from_edges(0, [(0, 1)], {1: 'm"x'})
    assert not (tmp_path / "out").exists()


def test_node_csv_quotes_cells_with_commas_and_quotes(tmp_path):
    # names that a CSV cell would have to quote do not exist
    with pytest.raises(DestinationSpecError, match="'m,x' holds ','"):
        _odd_name_run(tmp_path, {1: "m,x", 2: "m2"})
    with pytest.raises(DestinationSpecError, match="holds ','"):
        RGraph.from_edges(0, [(0, 1)], {1: "m,x"})
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, message", [
    ("m#x", "holds '#'"), ("m\tx", "holds '\\t'"), ("m\x7fx", "holds '\\x7f'"),
    ("m\u2003x", "holds '\\u2003'"), ("", "empty ingress name"),
])
def test_ingress_name_rule_names_the_character(name, message):
    with pytest.raises(DestinationSpecError, match=re.escape(message)):
        DestinationSpec(attachments={1: name})
    with pytest.raises(DestinationSpecError, match=re.escape(message)):
        RGraph.from_edges(0, [(0, 1)], {1: name})


def test_hash_in_an_ingress_name_is_not_a_comment(tmp_path):
    # a "#" inside a token is part of it, so two ingress points never merge
    cfg = parse_scenario_file("attach 1 m#x\nattach 2 m # the second\n")
    assert cfg.attachments == {1: "m#x", 2: "m"}
    with pytest.raises(DestinationSpecError, match="'m#x' holds '#'"):
        _odd_name_run(tmp_path, {1: "m#x", 2: "m"})
    report, _ = _odd_name_run(tmp_path, {1: "m1", 2: "é2"})
    assert report.ingress_points == ("m1", "é2")


def test_attach_and_moas_lines_together_rejected():
    cfg = parse_scenario_file(
        "topology generate n=20 avg_degree=2.5 seed=6\nattach 5 m1\nmoas 1 2\n"
    )
    with pytest.raises(DestinationSpecError, match="exactly one"):
        run_scenario(cfg)


def test_report_files_log_their_sizes(caplog, tmp_path):
    scenario = run_scenario(example_config(mode="probabilistic", plan_budget=1))
    report, g = scenario.report, scenario.graph
    with caplog.at_level(logging.DEBUG, logger="catchmap.scenario"):
        written = write_report_files(report, g, tmp_path)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("wrote ")]
    assert lines == [f"wrote {p.name}: {p.stat().st_size} bytes" for p in written]
    assert len(lines) == 5
