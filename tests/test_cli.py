"""Command-line entry points, exercised through click's test runner."""

from __future__ import annotations

import gc
import json

import pytest
from click.testing import CliRunner

from catchmap import (
    Relationship,
    parse_scenario_file,
    parse_topology,
    run_scenario,
    serialize_topology,
)
from catchmap import cli
from catchmap.cli import main
from catchmap.errors import CapacityError, InputError
from catchmap.oracles import exact_conditional_distribution
from catchmap.rgraph import MAX_EXACT_NODES, MAX_EXACT_OUTCOMES

import helpers


@pytest.fixture
def runner():
    return CliRunner()


# 14 nodes with the destination, but tens of millions of tie-break combinations
DENSE = (
    "topology generate n=13 avg_degree=11 seed=1567\n"
    "attach 3 m0\nattach 2 m1\nmode probabilistic\noracles obs.csv\n"
)
# 18 nodes with the destination
SPARSE_17 = (
    "topology generate n=17 avg_degree=2.6 seed=3\n"
    "attach 1 m0\nattach 5 m1\nattach 9 m2\n"
)


def write_generated(tmp_path, text: str) -> str:
    (tmp_path / "obs.csv").write_text("1,m0\n")
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(text)
    return str(scenario)


def write_scenario(tmp_path, extra: str = "") -> str:
    (tmp_path / "topo.txt").write_text(
        serialize_topology(helpers.example_base_topology())
    )
    text = "topology file topo.txt\nattach 1 m1\nattach 2 m2\ndst_id 9\n" + extra
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(text)
    return str(scenario)


class TestIngest:
    CAIDA = "# serial 1\n3|1|-1\n4|1|-1\n4|2|-1\n2|3|0\n"

    def test_caida_to_canonical_roundtrip(self, runner, tmp_path):
        src = tmp_path / "rels.txt"
        src.write_text(self.CAIDA)
        result = runner.invoke(main, ["ingest", str(src)])
        assert result.exit_code == 0
        parsed = parse_topology(result.output)
        assert parsed.relationship(3, 1) == Relationship.P2C
        assert parsed.relationship(1, 3) == Relationship.C2P
        assert parsed.relationship(2, 3) == Relationship.P2P
        assert parsed.num_edges == 4

    def test_out_flag_writes_file(self, runner, tmp_path):
        src = tmp_path / "rels.txt"
        src.write_text(self.CAIDA)
        dst = tmp_path / "canonical.txt"
        result = runner.invoke(main, ["ingest", str(src), "--out", str(dst)])
        assert result.exit_code == 0
        assert f"wrote {dst}" in result.output
        assert parse_topology(dst.read_text()).num_edges == 4

    def test_canonical_input_accepted(self, runner, tmp_path):
        src = tmp_path / "topo.txt"
        src.write_text(serialize_topology(helpers.example_base_topology()))
        result = runner.invoke(main, ["ingest", str(src)])
        assert result.exit_code == 0
        assert parse_topology(result.output).num_edges == 9

    def test_malformed_line_fails_with_message(self, runner, tmp_path):
        src = tmp_path / "rels.txt"
        src.write_text("1|2|-1\n1|2|banana\n")
        result = runner.invoke(main, ["ingest", str(src)])
        assert result.exit_code != 0
        assert "line 2" in result.output

    def test_missing_file_fails(self, runner, tmp_path):
        result = runner.invoke(main, ["ingest", str(tmp_path / "nope.txt")])
        assert result.exit_code != 0

    def test_data_dir_fallback(self, runner, tmp_path, monkeypatch):
        (tmp_path / "rels.txt").write_text(self.CAIDA)
        monkeypatch.setenv("CATCHMAP_DATA_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path / "..")
        result = runner.invoke(main, ["ingest", "rels.txt"])
        assert result.exit_code == 0


class TestRun:
    def test_unknown_mode_override_rejected(self, tmp_path):
        scenario = write_scenario(tmp_path)
        with pytest.raises(InputError, match="^unknown mode 'bogus'$"):
            cli.cmd_run(scenario, tmp_path / "out", mode="bogus")
        assert not (tmp_path / "out").exists()

    def test_writes_report_matching_routing_table(self, runner, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", scenario, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "certain: m1=3 m2=2 (uncertain 3)" in result.output
        report = json.loads((out / "report.json").read_text())
        assert report["routes"] == {
            str(n): r for n, r in helpers.EXPECTED_ROUTES.items()
        }
        assert (out / "nodes.csv").read_text().splitlines()[0] == (
            "node,route,pi_m1,pi_m2,status"
        )

    def test_mode_override_adds_probabilities(self, runner, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["run", scenario, "--out", str(out), "--mode", "probabilistic"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["probs"]["8"]["m2"] == pytest.approx(0.75)

    def test_sp_override_prunes_longer_parents(self, runner, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", scenario, "--out", str(out), "--sp"])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        # with shortest-path preference node 8 only hears from node 5
        assert report["routes"]["8"] == "m2"

    def test_seed_override_replaces_the_scenario_seed(self, tmp_path):
        scenario = write_scenario(tmp_path, "seed 1\n")
        report, _ = cli.cmd_run(scenario, tmp_path / "out", seed=7)
        assert report.seed == 7
        assert json.loads((tmp_path / "out" / "report.json").read_text())["config"]["seed"] == 7

    def test_missing_scenario_fails(self, runner, tmp_path):
        result = runner.invoke(main, ["run", str(tmp_path / "nope.txt")])
        assert result.exit_code != 0

    def test_bad_oracle_reference_fails(self, runner, tmp_path):
        scenario = write_scenario(tmp_path, "oracles missing.csv\n")
        result = runner.invoke(
            main, ["run", scenario, "--out", str(tmp_path / "out")]
        )
        assert result.exit_code != 0

    def test_dense_graph_within_the_node_limit_is_sampled(self, runner, tmp_path):
        scenario = write_generated(tmp_path, DENSE)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", scenario, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["stages"][-1] == "posterior-sampling"
        assert set(report["prob_status"].values()) == {"posterior-sampled"}
        # the node count alone would have allowed exact conditioning
        g = run_scenario(parse_scenario_file(DENSE, base_dir=tmp_path)).graph
        assert len(g.nodes) == MAX_EXACT_NODES
        with pytest.raises(CapacityError, match="tie-break combinations"):
            exact_conditional_distribution(g, {1: "m0"})


class TestPlan:
    def test_budget_flag_produces_plan_files(self, runner, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["plan", scenario, "--out", str(out), "--budget", "1"]
        )
        assert result.exit_code == 0, result.output
        assert "selected: [4]" in result.output
        summary = json.loads((out / "plan.json").read_text())
        assert summary["selected"] == [4]
        assert summary["expected_value"] == pytest.approx(7.5)
        assert summary["baseline_value"] == pytest.approx(5.0)
        header = (out / "plan.csv").read_text().splitlines()[0]
        assert header == "rank,node,expected_nc_after"

    def test_seed_override_draws_the_baselines(self, tmp_path):
        # the random plans of seed 3 score lower than those of the default seed
        scenario = write_scenario(tmp_path)
        (tmp_path / "d").mkdir()
        directive = write_scenario(tmp_path / "d", "seed 3\n")
        _, default = cli.cmd_plan(scenario, tmp_path / "a", budget=1, baselines=3)
        _, override = cli.cmd_plan(scenario, tmp_path / "b", budget=1, baselines=3, seed=3)
        _, seeded = cli.cmd_plan(directive, tmp_path / "c", budget=1, baselines=3)
        assert default["random_baseline_mean"] == pytest.approx(7.5)
        assert override == seeded
        assert override["random_baseline_mean"] == pytest.approx(41 / 6)

    def test_negative_baselines_rejected(self, runner, tmp_path):
        scenario = write_scenario(tmp_path, "plan budget 1\n")
        out = tmp_path / "out"
        with pytest.raises(InputError, match="^baselines must be >= 0, got -3$"):
            cli.cmd_plan(scenario, out, baselines=-3)
        result = runner.invoke(main, ["plan", scenario, "--out", str(out), "--baselines", "-3"])
        assert result.exit_code != 0
        assert "baselines must be >= 0, got -3" in result.output
        assert not out.exists()

    def test_baselines_and_exact_guard(self, runner, tmp_path):
        scenario = write_scenario(tmp_path, "plan budget 1\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["plan", scenario, "--out", str(out),
             "--baselines", "20", "--exact-guard", "20"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "plan.json").read_text())
        assert summary["random_baseline_mean"] <= summary["expected_value"] + 1e-9
        # a single greedy pick is optimal on the worked example
        assert summary["gap"] == pytest.approx(0.0)
        assert "gap to exhaustive optimum: 0" in result.output

    def test_baselines_and_exact_guard_obey_plan_candidates(self, runner, tmp_path):
        scenario = write_scenario(tmp_path, "plan candidates 8\nplan budget 1\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["plan", scenario, "--out", str(out),
             "--baselines", "10", "--exact-guard", "12"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "plan.json").read_text())
        # node 8 is the only candidate, so every plan is the greedy plan
        assert summary["selected"] == [8]
        assert summary["gap"] == 0.0
        assert summary["random_baseline_mean"] == 6.5

    def test_baselines_and_exact_guard_use_the_planned_inputs(self, runner, tmp_path):
        # the plan is made on observation-refined distributions; the baselines
        # and the optimum must be scored on those, not on a fresh forward pass
        (tmp_path / "obs.csv").write_text("11,m0\n")
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            "topology generate n=11 avg_degree=2.6 seed=5\n"
            "attach 10 m0\nattach 5 m1\nattach 6 m2\noracles obs.csv\n"
            "plan budget 1\nplan candidates 4\n"
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["plan", str(scenario), "--out", str(out),
             "--baselines", "3", "--exact-guard", "14"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "plan.json").read_text())
        # [4] is the only possible plan
        assert summary["selected"] == [4]
        assert summary["random_baseline_mean"] == summary["expected_value"]
        assert summary["gap"] == 0.0

    @pytest.mark.parametrize(
        "text, guard, reason",
        [
            (DENSE, 14, f"over the exact limit of {MAX_EXACT_OUTCOMES}"),
            (SPARSE_17, 20, f"18 nodes, over the exact limit of {MAX_EXACT_NODES}"),
        ],
        ids=["dense-14", "sparse-18"],
    )
    def test_exact_guard_records_why_no_optimum(self, runner, tmp_path, text, guard, reason):
        scenario = write_generated(tmp_path, text + "plan budget 1\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["plan", scenario, "--out", str(out), "--exact-guard", str(guard)]
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "plan.json").read_text())
        assert reason in summary["exhaustive_skipped"]
        assert "gap" not in summary and "exhaustive_value" not in summary
        assert f"exhaustive optimum skipped: {summary['exhaustive_skipped']}" in result.output

    def test_no_budget_anywhere_fails(self, runner, tmp_path):
        scenario = write_scenario(tmp_path)
        result = runner.invoke(main, ["plan", scenario, "--out", str(tmp_path / "o")])
        assert result.exit_code != 0
        assert "budget" in result.output


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("command", ["run", "plan"])
def test_commands_pause_the_collector_and_restore_it(
    tmp_path, monkeypatch, command, enabled, raises
):
    seen = []

    # both commands parse their scenario inside the paused region
    def parse(text, base_dir=None):
        seen.append(gc.isenabled())
        if raises:
            raise InputError("stopped")
        return parse_scenario_file(text, base_dir=base_dir)

    monkeypatch.setattr(cli, "parse_scenario_file", parse)
    scenario = write_scenario(tmp_path, "mode probabilistic\n")
    call = {
        "run": lambda: cli.cmd_run(scenario, tmp_path / "o"),
        "plan": lambda: cli.cmd_plan(scenario, tmp_path / "o", budget=1),
    }[command]
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(InputError, match="stopped"):
                call()
        else:
            call()
        after = gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()
    assert seen == [False]
    assert after is enabled


class TestValidate:
    def test_quick_level_passes(self, runner):
        result = runner.invoke(main, ["validate"])
        assert result.exit_code == 0, result.output
        assert "all checks passed" in result.output
        assert "FAIL" not in result.output

    def test_full_level_passes(self, runner):
        result = runner.invoke(main, ["validate", "--level", "full", "--seed", "0"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == [
            "ok   example forwarding graph",
            "ok   example certain inference",
            "ok   example route probabilities",
            "ok   example bounds and loads",
            "ok   example observation propagation",
            "ok   example shortest-path pruning",
            "ok   example path enumeration",
            "ok   objective-shape witnesses",
            "ok   serialization round-trip",
            "ok   deterministic propagation",
            "ok   negative control (tampered fixture rejected)",
            "ok   eligible-path equivalence (30 instances)",
            "ok   certainty soundness (20 instances x 20 seeds)",
            "ok   observation propagation is sound (15 instances)",
            "ok   shortest-path pruning monotone (30 instances)",
            "ok   simulation agreement (2 x 200 runs)",
            "ok   planner sanity (8 instances)",
            "all checks passed (17/17)",
        ]

    def test_rejects_unknown_level(self, runner):
        result = runner.invoke(main, ["validate", "--level", "paranoid"])
        assert result.exit_code != 0
        with pytest.raises(InputError, match="^level must be 'quick' or 'full', got 'paranoid'$"):
            cli.cmd_validate("paranoid")

    def test_a_failing_check_fails_the_run(self, runner, monkeypatch):
        quick = cli._quick_checks

        def first_fails(seed):
            (name, _, _), *rest = quick(seed)
            return [(name, False, "injected"), *rest]

        monkeypatch.setattr(cli, "_quick_checks", first_fails)
        lines = []
        assert cli.cmd_validate("quick", echo=lines.append) is False
        assert "FAIL example forwarding graph: injected" in lines
        assert lines[-1] == "VALIDATION FAILED (10/11)"
        result = runner.invoke(main, ["validate"])
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == "VALIDATION FAILED (10/11)"


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
