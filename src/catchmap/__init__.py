"""Catchment inference for destinations reachable through several ingress points.

Given an AS-level topology with routing policies and a destination attached
at multiple points, the engine derives which networks certainly route to
which ingress, quantifies the rest probabilistically, folds in measured
observations, and plans which measurements buy the most certainty.
"""
from .bgpsim import Path, SimResult, run_bgp, simulated_catchment
from .errors import (
    CapacityError,
    CatchmapError,
    ContradictionError,
    ConvergenceError,
    CycleError,
    DestinationSpecError,
    EdgeConflictError,
    GenerationError,
    InfeasibleOracleError,
    InputError,
    PolicyError,
    TopologyParseError,
    UnknownNodeError,
)
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
    MonteCarloEstimate,
    OracleApplication,
    apply_oracles,
    exact_conditional_distribution,
    monte_carlo_inference,
    parse_oracle_file,
)
from .planner import (
    MeasurementPlan,
    exhaustive_plan,
    expected_nc,
    export_plan_csv,
    greedy_plan,
    nonsubmodularity_witness,
    nonsupermodularity_witness,
    random_plan_values,
)
from .rgraph import (
    PathEnumeration,
    RGraph,
    brute_force_eligible_paths,
    build_rgraph,
    enumerate_rpaths,
    rgraph_dot,
    rgraph_edgelist,
    simulated_parents,
    topological_order,
)
from .scenario import (
    ScenarioConfig,
    ScenarioReport,
    SimulationComparison,
    compare_with_simulation,
    parse_scenario_file,
    prepending_sweep,
    run_scenario,
    write_report_files,
)
from .topology import (
    AugmentedTopology,
    DestinationSpec,
    Relationship,
    Topology,
    VF_LOCAL_PREF,
    apply_prepending,
    attach_destination,
    derive_vf_policies,
    generate_random_topology,
    parse_caida_asrel,
    parse_topology,
    serialize_topology,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # topology
    "Relationship", "Topology", "VF_LOCAL_PREF", "DestinationSpec",
    "AugmentedTopology", "parse_caida_asrel", "parse_topology",
    "serialize_topology", "derive_vf_policies", "attach_destination",
    "apply_prepending", "generate_random_topology",
    # propagation
    "SimResult", "run_bgp", "simulated_catchment",
    # forwarding graph
    "RGraph", "PathEnumeration", "build_rgraph", "topological_order",
    "enumerate_rpaths", "brute_force_eligible_paths", "simulated_parents",
    "rgraph_edgelist", "rgraph_dot",
    # inference
    "RoutingFunction", "RouteProbabilities", "certain_inference",
    "probabilistic_inference", "shortest_path_transform", "expected_load",
    "catchment_bounds",
    # observations
    "OracleApplication", "MonteCarloEstimate", "apply_oracles",
    "parse_oracle_file", "exact_conditional_distribution", "monte_carlo_inference",
    # planning
    "MeasurementPlan", "expected_nc", "greedy_plan", "exhaustive_plan",
    "random_plan_values", "export_plan_csv",
    "nonsupermodularity_witness", "nonsubmodularity_witness",
    # scenarios
    "ScenarioConfig", "ScenarioReport", "SimulationComparison",
    "parse_scenario_file", "run_scenario", "write_report_files",
    "prepending_sweep", "compare_with_simulation",
    # errors
    "CatchmapError", "TopologyParseError", "EdgeConflictError", "PolicyError",
    "DestinationSpecError", "UnknownNodeError", "GenerationError",
    "ConvergenceError", "CycleError", "CapacityError", "InputError",
    "ContradictionError", "InfeasibleOracleError",
]
