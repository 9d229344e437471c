"""End-to-end scenario runs: from a config file to a catchment report.

A scenario names a topology (file or generator), how the destination is
attached, optional transforms (prepending chains, extra or removed
attachments, shortest-path preference), the inference mode, observation
files, and an optional planning request. Running one produces a report with
an audit trail of the stages that executed, per-node results, catchment
bounds and expected loads, and is byte-for-byte reproducible.
"""
from __future__ import annotations

import functools
import json
import logging
import math
import random
import statistics
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .bgpsim import run_bgp, simulated_catchment
from .errors import InputError, TopologyParseError
from .inference import (
    RouteProbabilities,
    RoutingFunction,
    catchment_bounds,
    certain_inference,
    expected_load,
    probabilistic_inference,
    shortest_path_transform,
)
from .oracles import (
    apply_oracles,
    exact_conditional_distribution,
    monte_carlo_inference,
    parse_oracle_file,
)
from .planner import MeasurementPlan, export_plan_csv, greedy_plan
from .rgraph import RGraph, build_rgraph, exact_limit, rgraph_dot, rgraph_edgelist
from .topology import (
    AugmentedTopology,
    DestinationSpec,
    Relationship,
    Topology,
    _REL_BY_NAME,
    _REL_NAMES,
    _data_lines,
    apply_prepending,
    attach_destination,
    derive_vf_policies,
    generate_random_topology,
    parse_caida_asrel,
    parse_topology,
)

logger = logging.getLogger(__name__)

_MODES = ("certain", "probabilistic")
_POSTERIORS = ("exact", "monte-carlo")


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one catchment analysis."""

    topology_file: str | None = None
    topology_text: str | None = None
    generate: dict | None = None
    attachments: dict[int, str] = field(default_factory=dict)
    attachment_rels: dict[int, Relationship] = field(default_factory=dict)
    moas_origins: tuple[int, ...] = ()
    dst_id: int | None = None
    prepends: tuple[tuple[str, int], ...] = ()
    mode: str = "certain"
    sp: bool = False
    oracle_file: str | None = None
    oracle_text: str | None = None
    posterior: str | None = None
    posterior_trials: int = 20_000
    plan_budget: int | None = None
    plan_candidates: tuple[int, ...] | None = None
    seed: int = 0

    def echo(self) -> dict:
        """JSON-compatible copy of the configuration, for the report."""
        return {
            "topology_file": self.topology_file,
            "topology_inline": self.topology_text is not None,
            "generate": self.generate,
            "attachments": {str(k): v for k, v in sorted(self.attachments.items())},
            "attachment_rels": {
                str(k): _REL_NAMES[v] for k, v in sorted(self.attachment_rels.items())
            },
            "moas_origins": list(self.moas_origins),
            "dst_id": self.dst_id,
            "prepends": [list(p) for p in self.prepends],
            "mode": self.mode,
            "sp": self.sp,
            "oracle_file": self.oracle_file,
            "oracle_inline": self.oracle_text is not None,
            "posterior": self.posterior,
            "posterior_trials": self.posterior_trials,
            "plan_budget": self.plan_budget,
            "plan_candidates": (
                list(self.plan_candidates) if self.plan_candidates is not None else None
            ),
            "seed": self.seed,
        }


def parse_scenario_file(text: str, base_dir: str | Path | None = None) -> ScenarioConfig:
    """Parse the line-oriented scenario format.

    Directives: ``topology file <path>`` / ``topology generate k=v ...``,
    ``attach <node> <ingress> [rel]``, ``remove_ingress <ingress>`` (drops
    every attachment made so far with that ingress), ``moas <node>...``,
    ``dst_id <n>``, ``prepend <ingress> <k>``, ``mode certain|probabilistic``,
    ``sp on|off``, ``oracles <path>``, ``posterior exact`` / ``posterior
    monte-carlo [trials]``, ``plan budget <B>``, ``plan candidates
    <node>...|uncertain``, ``seed <n>``. Comments follow ``topology._data_lines``. A path is the
    rest of the line's content after the directive words, whitespace
    included, and is resolved against ``base_dir``.
    """
    cfg = ScenarioConfig()
    base = Path(base_dir) if base_dir is not None else None

    def resolve(p: str) -> str:
        path = Path(p)
        if base is not None and not path.is_absolute():
            path = base / path
        return str(path)

    for line_no, raw, line in _data_lines(text):
        parts = line.split()
        key = parts[0]
        try:
            if key == "topology" and len(parts) >= 3 and parts[1] == "file":
                cfg.topology_file = resolve(line.split(None, 2)[2])
            elif key == "topology" and len(parts) >= 2 and parts[1] == "generate":
                params: dict = {}
                for token in parts[2:]:
                    name, _, value = token.partition("=")
                    if name not in ("n", "avg_degree", "peer_fraction", "seed"):
                        raise TopologyParseError(
                            f"unknown generator parameter {name!r}", line_no
                        )
                    params[name] = (
                        int(value) if name in ("n", "seed") else float(value)
                    )
                if "n" not in params:
                    raise TopologyParseError("generator needs n=<nodes>", line_no)
                cfg.generate = params
            elif key == "attach" and len(parts) in (3, 4):
                node = int(parts[1])
                if node in cfg.attachments:
                    raise TopologyParseError(
                        f"node {node} attached twice", line_no
                    )
                cfg.attachments[node] = parts[2]
                if len(parts) == 4:
                    if parts[3] not in _REL_BY_NAME:
                        raise TopologyParseError(
                            f"unknown relationship {parts[3]!r}", line_no
                        )
                    cfg.attachment_rels[node] = _REL_BY_NAME[parts[3]]
            elif key == "remove_ingress" and len(parts) == 2:
                found = [n for n, m in cfg.attachments.items() if m == parts[1]]
                if not found:
                    raise TopologyParseError(
                        f"no attachment uses ingress {parts[1]!r}", line_no
                    )
                for n in found:
                    del cfg.attachments[n]
                    cfg.attachment_rels.pop(n, None)
            elif key == "moas" and len(parts) >= 2:
                cfg.moas_origins = tuple(int(p) for p in parts[1:])
            elif key == "dst_id" and len(parts) == 2:
                cfg.dst_id = int(parts[1])
            elif key == "prepend" and len(parts) == 3:
                cfg.prepends = cfg.prepends + ((parts[1], int(parts[2])),)
            elif key == "mode" and len(parts) == 2:
                if parts[1] not in _MODES:
                    raise TopologyParseError(f"unknown mode {parts[1]!r}", line_no)
                cfg.mode = parts[1]
            elif key == "sp" and len(parts) == 2 and parts[1] in ("on", "off"):
                cfg.sp = parts[1] == "on"
            elif key == "oracles" and len(parts) >= 2:
                cfg.oracle_file = resolve(line.split(None, 1)[1])
            elif key == "posterior" and len(parts) in (2, 3):
                if parts[1] not in _POSTERIORS:
                    raise TopologyParseError(
                        f"unknown posterior method {parts[1]!r}", line_no
                    )
                cfg.posterior = parts[1]
                if len(parts) == 3:
                    if parts[1] == "exact":
                        raise TopologyParseError(
                            "posterior exact takes no trial count", line_no
                        )
                    cfg.posterior_trials = int(parts[2])
                    if cfg.posterior_trials < 1:
                        raise TopologyParseError(
                            f"posterior monte-carlo needs at least one trial, "
                            f"got {cfg.posterior_trials}", line_no
                        )
            elif key == "plan" and len(parts) == 3 and parts[1] == "budget":
                cfg.plan_budget = int(parts[2])
                if cfg.plan_budget < 0:
                    raise TopologyParseError(
                        f"plan budget must be >= 0, got {cfg.plan_budget}", line_no
                    )
            elif key == "plan" and len(parts) >= 3 and parts[1] == "candidates":
                if parts[2:] == ["uncertain"]:
                    cfg.plan_candidates = None
                else:
                    cfg.plan_candidates = tuple(int(p) for p in parts[2:])
            elif key == "seed" and len(parts) == 2:
                cfg.seed = int(parts[1])
            else:
                raise TopologyParseError(f"unrecognized directive {raw!r}", line_no)
        except TopologyParseError:
            raise
        except ValueError:  # from int() or float()
            raise TopologyParseError(f"bad number in {raw!r}", line_no) from None
    return cfg


def _load_topology(cfg: ScenarioConfig) -> Topology:
    if sum(x is not None for x in (cfg.topology_file, cfg.topology_text, cfg.generate)) != 1:
        raise InputError("scenario needs exactly one topology source")
    if cfg.generate is not None:
        params = dict(cfg.generate)
        n = params.pop("n")
        return generate_random_topology(n, **params)
    text = cfg.topology_text
    if text is None:
        text = Path(cfg.topology_file).read_text()
    return parse_topology_text(text)


def parse_topology_text(text: str) -> Topology:
    """Parse either format: CAIDA pipe if the first data line has a ``|``."""
    _, _, first = next(_data_lines(text), (0, "", ""))
    return parse_caida_asrel(text) if "|" in first else parse_topology(text)


def build_augmented(cfg: ScenarioConfig) -> AugmentedTopology:
    """Topology + destination + transforms, policies enabled."""
    topology = derive_vf_policies(_load_topology(cfg))
    spec = DestinationSpec(
        attachments=cfg.attachments,
        moas_origins=cfg.moas_origins,
        attachment_rels=cfg.attachment_rels,
        dst_id=cfg.dst_id,
    )
    aug = attach_destination(topology, spec)
    for ingress, k in cfg.prepends:
        aug = apply_prepending(aug, ingress, k)
    return aug


@dataclass
class ScenarioReport:
    """Outcome of one scenario run; JSON- and CSV-exportable."""

    config: dict
    stages: tuple[str, ...]
    ingress_points: tuple[str, ...]
    nodes: tuple[int, ...]
    routes: dict[int, str | None]
    probs: dict[int, dict[str, float]] | None
    prob_status: dict[int, str] | None
    certain_counts: dict[str, int]
    uncertain_count: int
    bounds: dict[str, tuple[int, int]]
    expected_loads: dict[str, float] | None
    probability_mass_deficit: dict[int, float]
    set_route_calls: int | None
    plan: MeasurementPlan | None
    rgraph_nodes: int
    rgraph_edges: int
    seed: int

    def to_json(self) -> str:
        """The report as ``json.dumps(doc, sort_keys=True, indent=2)`` lays it
        out. The four per-node maps are written row by row, because the
        standard encoder falls back to pure Python once it indents. Each
        route and status is formatted once per value, and each distribution
        once per object and once per distinct content; its values are
        floats, and equal floats print alike except for zeros of opposite
        sign."""
        nodes = sorted(self.nodes, key=str)
        keys = [encode_basestring_ascii(str(n)) + ": " for n in nodes]
        encoded: dict[str, str] = {}

        def value(v) -> str:
            if isinstance(v, str):
                text = encoded.get(v)
                if text is None:
                    text = encoded[v] = encode_basestring_ascii(v)
                return text
            if v is None:
                return "null"
            if isinstance(v, float) and math.isfinite(v):
                return float.__repr__(v)
            if type(v) is int:
                return int.__repr__(v)
            return json.dumps(v)

        def rows(d: dict[str, float]) -> str:
            return _json_rows([f"{value(m)}: {value(p)}" for m, p in sorted(d.items())], 2)

        dists: dict[tuple, str] = {}
        # the report holds every distribution, so no id is reused meanwhile
        by_id: dict[int, str] = {}

        def dist(d: dict[str, float]) -> str:
            text = by_id.get(id(d))
            if text is not None:
                return text
            if not d:
                text = "{}"
            elif 0.0 in d.values():  # 0.0 == -0.0, but they print differently
                text = rows(d)
            else:
                key = tuple(d.items())
                text = dists.get(key)
                if text is None:
                    text = dists[key] = rows(d)
            by_id[id(d)] = text
            return text

        def column(cells: dict, text=None) -> str:
            # ``text`` formats a cell; by default each distinct value once
            if text is None:
                text = {v: value(v) for v in set(map(cells.__getitem__, nodes))}.__getitem__
            return _json_rows([k + text(cells[n]) for k, n in zip(keys, nodes)], 1)

        doc = {
            "config": self.config,
            "stages": list(self.stages),
            "ingress_points": list(self.ingress_points),
            "node_count": len(self.nodes),
            "certain_counts": self.certain_counts,
            "uncertain_count": self.uncertain_count,
            "bounds": {m: list(b) for m, b in self.bounds.items()},
            "expected_loads": self.expected_loads,
            "set_route_calls": self.set_route_calls,
            "plan": (
                {
                    "selected": list(self.plan.selected),
                    "step_values": list(self.plan.step_values),
                    "baseline_value": self.plan.baseline_value,
                    "budget": self.plan.budget,
                    "method": self.plan.method,
                    "notes": list(self.plan.notes),
                }
                if self.plan is not None
                else None
            ),
            "rgraph": {"nodes": self.rgraph_nodes, "edges": self.rgraph_edges},
            "seed": self.seed,
        }
        texts = {
            key: json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n  ")
            for key, v in doc.items()
        }
        routes, probs, status = self.routes, self.probs, self.prob_status
        texts["routes"] = column(routes)
        texts["probs"] = column(probs, dist) if probs is not None else "null"
        texts["prob_status"] = column(status) if status is not None else "null"
        texts["probability_mass_deficit"] = _json_rows([
            f"{encode_basestring_ascii(k)}: {value(v)}"
            for k, v in sorted((str(n), v) for n, v in self.probability_mass_deficit.items())
        ], 1)
        return _json_rows([f"{value(k)}: {texts[k]}" for k in sorted(texts)], 0) + "\n"

    def to_node_csv(self) -> str:
        """Rows ``node,route,pi_<ingress>...,status`` over the report universe.
        No ingress name holds a comma, a quote or a line break, so no cell
        needs quoting."""
        cols = ["node", "route"]
        cols += [f"pi_{m}" for m in self.ingress_points]
        cols += ["status"]
        lines = [",".join(cols)]
        ingress_points, probs, status = self.ingress_points, self.probs, self.prob_status

        def tail(route: str | None, d: dict[str, float] | None, state: str) -> str:
            cells = [route or ""]
            if d is None:
                cells += [""] * len(ingress_points)
            else:
                cells += [repr(d.get(m, 0.0)) for m in ingress_points]
            cells.append(state)
            return ",".join(cells)

        # each (route, distribution, status) is formatted once, looked up by
        # the distribution's object and then by its content; the report
        # holds every distribution, so no id is reused meanwhile
        tails: dict[tuple, str] = {}
        by_content: dict[tuple, str] = {}
        for n in self.nodes:
            route = self.routes[n]
            d = probs[n] if probs is not None else None
            state = status[n] if status else ""
            key = (route, id(d), state)
            text = tails.get(key)
            if text is None:
                if d is not None and 0.0 in d.values():  # as in ``to_json``
                    text = tail(route, d, state)
                else:
                    content = (route, None if d is None else tuple(d.items()), state)
                    text = by_content.get(content)
                    if text is None:
                        text = by_content[content] = tail(route, d, state)
                tails[key] = text
            lines.append(str(n) + "," + text)
        return "\n".join(lines) + "\n"


def _json_rows(rows: list[str], depth: int) -> str:
    """An object of encoded ``key: value`` rows, laid out as
    ``json.dumps(indent=2)`` lays out one nested ``depth`` levels deep."""
    if not rows:
        return "{}"
    pad = "\n" + "  " * (depth + 1)
    return "{" + pad + ("," + pad).join(rows) + "\n" + "  " * depth + "}"


def run_scenario(cfg: ScenarioConfig) -> "Scenario":
    """Execute the full pipeline for one scenario and return its ``Scenario``."""
    scenario = Scenario(cfg)
    scenario.report  # runs every stage the report reads
    return scenario


@dataclass(frozen=True)
class Posterior:
    """What the report and the plan read once the observations are applied:
    routes, distributions, each report node's status and the stages that ran."""

    routes: RoutingFunction
    probs: RouteProbabilities | None = None
    status: dict[int, str] | None = None
    set_route_calls: int | None = None
    stages: tuple[str, ...] = ()


class Scenario:
    """One scenario run: stages over one forwarding graph, each computed on first
    read and then kept. ``aug`` is built from the config unless given. An
    unknown mode or posterior method fails here, before anything is built."""

    def __init__(self, cfg: ScenarioConfig, aug: AugmentedTopology | None = None) -> None:
        if cfg.mode not in _MODES:
            raise InputError(f"unknown mode {cfg.mode!r}")
        if cfg.posterior is not None and cfg.posterior not in _POSTERIORS:
            raise InputError(f"unknown posterior method {cfg.posterior!r}")
        self.cfg = cfg
        self.aug = build_augmented(cfg) if aug is None else aug

    @functools.cached_property
    def graph(self) -> RGraph:
        g = build_rgraph(self.aug)
        return shortest_path_transform(g) if self.cfg.sp else g

    @functools.cached_property
    def certain(self) -> RoutingFunction:
        return certain_inference(self.graph)

    @functools.cached_property
    def forward(self) -> RouteProbabilities:
        return probabilistic_inference(self.graph, self.certain)

    @functools.cached_property
    def posterior(self) -> Posterior:
        """Apply the observations and, in ``mode probabilistic``, condition on
        them. Distributions are read only in that mode or for observations or a plan."""
        cfg, g, routes = self.cfg, self.graph, self.certain
        text = cfg.oracle_text
        if text is None and cfg.oracle_file is not None:
            text = Path(cfg.oracle_file).read_text()
        oracles = parse_oracle_file(text) if text is not None else None
        if not (cfg.mode == "probabilistic" or oracles or cfg.plan_budget is not None):
            return Posterior(routes)
        probs, stages = self.forward, ("probabilistic-inference",)
        if not oracles:
            return Posterior(routes, probs, dict.fromkeys(g.report_nodes, "exact"), stages=stages)
        applied = apply_oracles(g, routes, probs, oracles)
        stages += ("observation-propagation",)
        if cfg.mode == "certain":
            # a node still uncertain keeps its distribution from before the
            # observations, which does not condition on them
            status = {
                n: "exact" if applied.routes[n] is not None else "pre-observation"
                for n in g.report_nodes
            }
            return Posterior(applied.routes, applied.probs, status, applied.set_route_calls, stages)
        if cfg.posterior == "exact" or (cfg.posterior is None and exact_limit(g) is None):
            probs = exact_conditional_distribution(g, oracles, prior=(routes, probs))
            stage = status = "posterior-exact"
        else:
            estimate = monte_carlo_inference(
                g, cfg.posterior_trials, cfg.seed, oracles, prior=(routes, probs)
            )
            probs = estimate.probs
            logger.debug(
                "monte carlo posterior: %d trials, %d accepted, "
                "%d of %d nodes in the observations' ancestor closure, "
                "%d choosers sampled, %d nodes mixed exactly",
                estimate.trials, estimate.accepted, estimate.ancestors,
                len(g.nodes), estimate.draws_per_trial,
                len(g.nodes) - estimate.ancestors,
            )
            stage, status = "posterior-sampling", "posterior-sampled"
        status = dict.fromkeys(g.report_nodes, status)
        return Posterior(applied.routes, probs, status, applied.set_route_calls, (*stages, stage))

    @functools.cached_property
    def candidates(self) -> tuple[int, ...]:
        """The configured candidates, else each report node left uncertain with a distribution."""
        if self.cfg.plan_candidates is not None:
            return self.cfg.plan_candidates
        routes, probs = self.posterior.routes, self.posterior.probs or {}
        return tuple(
            n for n in self.graph.report_nodes if routes.get(n) is None and probs.get(n)
        )

    @functools.cached_property
    def plan(self) -> MeasurementPlan | None:
        if self.cfg.plan_budget is None:
            return None
        post = self.posterior
        # with no observation applied, probs is the forward pass of routes
        return greedy_plan(
            self.graph, post.routes, post.probs, self.candidates, self.cfg.plan_budget,
            forward=post.probs if post.set_route_calls is None else None,
        )

    @functools.cached_property
    def report(self) -> ScenarioReport:
        cfg, g, post = self.cfg, self.graph, self.posterior
        figures = _catchments(g, post.routes, post.probs)
        deficit: dict[int, float] = {}
        masses: dict[int, float] = {}  # by id: many nodes share one distribution
        for n, dist in (figures["probs"] or {}).items():
            mass = masses.get(id(dist))
            if mass is None:
                mass = masses[id(dist)] = sum(dist.values())
            if mass < 1.0 - 1e-9:
                deficit[n] = mass
        pruning = ("shortest-path-pruning",) if cfg.sp else ()
        planning = ("measurement-planning",) if self.plan is not None else ()
        return ScenarioReport(
            config=cfg.echo(),
            stages=(
                "attach-destination", "forwarding-graph", *pruning,
                "certain-inference", *post.stages, *planning,
            ),
            ingress_points=g.ingress_points,
            nodes=g.report_nodes,
            prob_status=post.status,
            probability_mass_deficit=deficit,
            set_route_calls=post.set_route_calls,
            plan=self.plan,
            rgraph_nodes=len(g.nodes),
            rgraph_edges=g.num_edges,
            seed=cfg.seed,
            **figures,
        )


def _catchments(g: RGraph, routes: RoutingFunction, probs: RouteProbabilities | None) -> dict:
    """The ``ScenarioReport`` fields that the routes and the distributions
    (None: there are none) decide over the report universe."""
    universe = g.report_nodes
    view = {n: routes[n] for n in universe}
    bounds = catchment_bounds(view, g.ingress_points)
    certain_counts = {m: lower for m, (lower, _) in bounds.items()}
    dists = loads = None
    if probs is not None:
        empty = g.point_masses[None]
        dists = {n: probs.get(n, empty) for n in universe}
        # an ingress point no node can reach still gets its (zero) load
        loads = dict.fromkeys(g.ingress_points, 0.0)
        loads.update(expected_load(dists, {n: 1.0 for n in universe}))
    return {
        "routes": view, "probs": dists, "bounds": bounds, "certain_counts": certain_counts,
        "uncertain_count": len(universe) - sum(certain_counts.values()), "expected_loads": loads,
    }


def _simulated_counts(
    aug: AugmentedTopology, g: RGraph, seed: int, sp_mode: bool = False
) -> tuple[dict[int, str], dict[str, int]]:
    """One seeded propagation run's catchment and its per-ingress count over
    the report universe."""
    catchment = simulated_catchment(run_bgp(aug, seed, sp_mode=sp_mode), aug)
    counts = dict.fromkeys(g.ingress_points, 0)
    for node in g.report_nodes:
        ingress = catchment.get(node)
        if ingress is not None:
            counts[ingress] += 1
    return catchment, counts


def write_report_files(
    report: ScenarioReport, g: RGraph, out_dir: str | Path
) -> list[Path]:
    """Write report.json, nodes.csv, the graph exports, and any plan CSV;
    log each file's size at debug level."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = [
        ("report.json", report.to_json()),
        ("nodes.csv", report.to_node_csv()),
        ("rgraph.edges", rgraph_edgelist(g)),
        ("rgraph.dot", rgraph_dot(g)),
    ]
    if report.plan is not None:
        files.append(("plan.csv", export_plan_csv(report.plan)))
    written = []
    for name, content in files:
        path = out / name
        path.write_text(content)
        logger.debug("wrote %s: %d bytes", name, path.stat().st_size)
        written.append(path)
    return written


# -- prepending sweeps -----------------------------------------------------------


def prepending_sweep(
    cfg: ScenarioConfig, ingress: str, k_max: int
) -> list[dict]:
    """Certain catchments for every prepend length 0..k_max at one ingress.

    Entry k holds what ``run_scenario`` reports once ``prepend <ingress> <k>``
    is added to the config, with its observations and plan left out. The
    augmented topology is built once; each k pads it with
    ``apply_prepending`` and reads that scenario's certain routes and, in
    ``mode probabilistic``, its forward pass, so no observation is loaded.
    Without shortest-path preference lengths do not matter to eligibility,
    but a node attached at ``ingress`` can still change: at k=0 its own
    attachment fixes it, and from k=1 on its parent is the chain's tail,
    so with another parent it rolls a tie.
    """
    if k_max < 0:
        raise InputError(f"k_max must be >= 0, got {k_max}")
    aug = Scenario(cfg).aug
    entries = []
    for k in range(k_max + 1):
        s = Scenario(cfg, apply_prepending(aug, ingress, k))
        probs = s.forward if cfg.mode == "probabilistic" else None
        figures = _catchments(s.graph, s.certain, probs)
        entry: dict = {
            "k": k,
            "certain_counts": figures["certain_counts"],
            "uncertain": figures["uncertain_count"],
            "bounds": {m: list(b) for m, b in figures["bounds"].items()},
        }
        if figures["expected_loads"] is not None:
            entry["expected_sizes"] = figures["expected_loads"]
        entry["routes"] = {str(n): r for n, r in figures["routes"].items()}
        entries.append(entry)
    return entries


# -- simulation cross-checks -----------------------------------------------------


@dataclass
class SimulationComparison:
    """Predicted expected catchment sizes vs. seeded simulation runs."""

    runs: int
    predicted_mean: dict[str, float]
    simulated_mean: dict[str, float]
    standard_error: dict[str, float]
    within_3se: dict[str, bool]
    bound_violations: int
    cma: dict[str, list[float]]


def compare_with_simulation(
    aug: AugmentedTopology,
    g: RGraph,
    routes: RoutingFunction,
    probs: RouteProbabilities,
    *,
    runs: int,
    seed: int = 0,
    sp_mode: bool = False,
) -> SimulationComparison:
    """Run many seeded propagations and compare catchment statistics.

    Checks that every simulated catchment stays inside the certain bounds
    and that mean sizes land within three standard errors of the expected
    sizes; also returns the cumulative moving average per ingress so
    convergence can be inspected.
    """
    if runs < 1:
        raise InputError(f"need at least one run, got {runs}")
    figures = _catchments(g, routes, probs)
    bounds, predicted = figures["bounds"], figures["expected_loads"]

    base_rng = random.Random(seed)
    all_counts = [
        _simulated_counts(aug, g, base_rng.randrange(2**63), sp_mode)[1] for _ in range(runs)
    ]

    violations = 0
    for counts in all_counts:
        if any(
            not bounds[m][0] <= counts[m] <= bounds[m][1] for m in g.ingress_points
        ):
            violations += 1

    simulated_mean = {}
    standard_error = {}
    within = {}
    cma: dict[str, list[float]] = {}
    for m in g.ingress_points:
        series = [c[m] for c in all_counts]
        mean = sum(series) / runs
        simulated_mean[m] = mean
        se = statistics.stdev(series) / runs**0.5 if runs > 1 else 0.0
        standard_error[m] = se
        within[m] = abs(mean - predicted[m]) <= 3 * se if runs > 1 else True
        trace, acc = [], 0.0
        for idx, value in enumerate(series, start=1):
            acc += value
            trace.append(acc / idx)
        cma[m] = trace

    return SimulationComparison(
        runs=runs,
        predicted_mean=predicted,
        simulated_mean=simulated_mean,
        standard_error=standard_error,
        within_3se=within,
        bound_violations=violations,
        cma=cma,
    )
