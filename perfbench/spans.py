"""Span tracing around the package's public functions, for the traced run.

Spans are installed only in a traced child process. Each wrapped binding is
the name a caller looks up at call time (``catchmap.scenario.build_rgraph``,
``catchmap.rgraph.run_bgp`` ...), so rebinding it in that module's namespace
times exactly the calls that module makes. A span records its name, start,
end and parent; spans stay in memory until the run ends. A span's self time
is its duration minus the time its child spans cover, so the self times of
all spans under the root add up to the root's duration.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

# span name -> bindings "<module>.<attribute>" in catchmap that get wrapped
SPANS = {
    "topology.parse": ["scenario.parse_caida_asrel", "scenario.parse_topology",
                       "cli.parse_topology"],
    "topology.generate": ["scenario.generate_random_topology",
                          "cli.generate_random_topology"],
    "topology.policies": ["scenario.derive_vf_policies", "cli.derive_vf_policies"],
    "topology.attach": ["scenario.attach_destination", "scenario.apply_prepending",
                        "cli.attach_destination"],
    "bgpsim.run_bgp": ["rgraph.run_bgp", "scenario.run_bgp", "cli.run_bgp"],
    "rgraph.build": ["scenario.build_rgraph", "cli.build_rgraph"],
    "rgraph.topo_order": ["rgraph.topological_order", "inference.topological_order",
                          "oracles.topological_order"],
    "rgraph.dot": ["scenario.rgraph_dot"],
    "rgraph.edgelist": ["scenario.rgraph_edgelist"],
    "rgraph.enum_paths": ["cli.enumerate_rpaths"],
    "rgraph.brute_force": ["cli.brute_force_eligible_paths"],
    "inference.certain": ["scenario.certain_inference", "cli.certain_inference"],
    "inference.probabilistic": ["scenario.probabilistic_inference",
                                "cli.probabilistic_inference",
                                "planner.probabilistic_inference"],
    "inference.sp_prune": ["scenario.shortest_path_transform",
                           "cli.shortest_path_transform"],
    "oracles.apply": ["scenario.apply_oracles", "planner.apply_oracles",
                      "cli.apply_oracles"],
    "oracles.mc": ["scenario.monte_carlo_inference"],
    "oracles.exact": ["scenario.exact_conditional_distribution",
                      "cli.exact_conditional_distribution"],
    "planner.greedy": ["scenario.greedy_plan", "cli.greedy_plan"],
    "planner.exhaustive": ["cli.exhaustive_plan"],
    "planner.random_plans": ["cli.random_plan_values"],
    "planner.expected_nc": ["cli.expected_nc", "planner.expected_nc"],
    "scenario.run_self": ["cli.run_scenario"],
    "scenario.write": ["cli.write_report_files"],
    "scenario.to_json": ["scenario.ScenarioReport.to_json"],
    "scenario.compare_sim": ["cli.compare_with_simulation"],
}
LAYERS = ("topology", "bgpsim", "rgraph", "inference", "oracles", "planner",
          "scenario", "cli")
# calls the planner makes into other layers, counted separately
PLANNER_CALLS = {"oracles.apply": "planner.apply_calls",
                 "inference.probabilistic": "planner.inference_calls"}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_time: float = 0.0
    other_layer_time: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _counts(name: str, result) -> dict[str, float]:
    """Work counts read off a wrapped call's return value."""
    if name == "topology.attach":
        return {"topology.nodes": result.topology.num_nodes,
                "topology.edges": result.topology.num_edges}
    if name == "bgpsim.run_bgp":
        return {"bgpsim.rounds": result.rounds}
    if name == "rgraph.build":
        return {"rgraph.nodes": len(result.nodes), "rgraph.edges": result.num_edges}
    if name == "inference.certain":
        return {"inference.uncertain_nodes": sum(v is None for v in result.values()) - 1}
    if name == "oracles.apply":
        return {"oracles.set_route_calls": result.set_route_calls}
    if name == "oracles.mc":
        return {"oracles.mc_trials": result.trials, "oracles.mc_accepted": result.accepted}
    if name == "scenario.to_json":
        return {"scenario.report_bytes": len(result)}
    return {}


class Tracer:
    """Holds every span of one traced child process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    parent = self.spans[span.parent]
                    parent.child_time += span.end - span.start
                    if parent.layer != span.layer:
                        parent.other_layer_time += span.end - span.start
            span.counts = _counts(name, result)
            return result
        return traced

    def install(self, package) -> None:
        """Rebind every name in SPANS to a traced wrapper.

        The package's submodules, ``cli`` included, must already be imported.
        """
        for name, sites in SPANS.items():
            for site in sites:
                path, _, attr = site.rpartition(".")
                owner = package
                for part in path.split("."):
                    owner = getattr(owner, part)
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def metrics(self) -> dict[str, float]:
        """Per-layer self time and waiting, per-span self time, and counts.

        Waiting is the time a layer's calls spend blocked in calls to other
        layers; no work queues in this single-threaded program.
        """
        out: dict[str, float] = {}
        for span in self.spans:
            self_time = span.end - span.start - span.child_time
            for key, value in [
                (f"{span.name}_s", self_time),
                (f"{span.name}_calls", 1),
                (f"{span.layer}.self_s", self_time),
                (f"{span.layer}.wait_s", span.other_layer_time),
                *span.counts.items(),
            ]:
                out[key] = out.get(key, 0) + value
            if span.name in PLANNER_CALLS and self._under(span, "planner"):
                key = PLANNER_CALLS[span.name]
                out[key] = out.get(key, 0) + 1
        out["trace.spans"] = len(self.spans)
        return out

    def _under(self, span: Span, layer: str) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.layer == layer:
                return True
        return False
