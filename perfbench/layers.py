"""Per-layer metrics: where each is measured and what it should move.

Every ``_ms`` metric is the median duration per call of the named spans,
taken in the traced run of the workload given here.  ``moves`` names the
end-to-end metrics a change to that layer should move on that workload;
this table is the layer -> end-to-end -> workload map of the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

P50_TPUT = ("latency_p50_ms", "throughput_per_s")
TPUT_TAIL = ("throughput_per_s", "latency_tail_ms")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    workload: str
    spans: tuple = ()  # span names whose per-call median is the value
    counter: str = ""  # else a counter the workload records (median taken)
    moves: tuple = ()


def _ms(name, workload, spans, moves):
    return Metric(name, "ms", "lower", workload, tuple(spans), "", tuple(moves))


def _counter(name, unit, better, workload, counter, moves):
    return Metric(name, unit, better, workload, (), counter, tuple(moves))


PER_LAYER = (
    # spn on spn-stream
    _ms("spn.build_ms", "spn-stream", ["spn.SpnCircuit"], ["setup_s"]),
    _ms("spn.validate_ms", "spn-stream", ["spn.validate_spn"], ["setup_s"]),
    _ms("spn.upward_pass_ms", "spn-stream", ["spn.upward_pass"], P50_TPUT),
    _ms("spn.upward_pass_log_ms", "spn-stream", ["spn.upward_pass_log"], P50_TPUT),
    _ms("spn.downward_pass_ms", "spn-stream", ["spn.downward_pass"], P50_TPUT),
    _ms("spn.marginal_arrays_ms", "spn-stream", ["spn.marginal_arrays"], ["latency_p50_ms"]),
    _ms("spn.gate_report_ms", "spn-stream", ["spn.gate_report"], ["latency_p50_ms"]),
    _ms("spn.kkt_multipliers_ms", "spn-stream", ["spn.kkt_multipliers"], ["latency_p50_ms"]),
    _counter("spn.edges_per_s", "1/s", "higher", "spn-stream", "edges_per_s", ["throughput_per_s"]),
    _counter("spn.nodes", "count", "lower", "spn-stream", "nodes", ["throughput_per_s"]),
    _counter("spn.edges", "count", "lower", "spn-stream", "edges", ["throughput_per_s"]),
    _counter("spn.max_fanin", "count", "lower", "spn-stream", "max_fanin", ["throughput_per_s"]),
    # factorgraph on fg-loopy
    _ms("factorgraph.build_ms", "fg-loopy", ["factorgraph.FactorGraph"], ["latency_p50_ms", "latency_tail_ms"]),
    _ms("factorgraph.bp_run_ms", "fg-loopy", ["factorgraph.bp_run"], ["latency_p50_ms", "latency_tail_ms"]),
    _ms("factorgraph.sweep_ms", "fg-loopy", ["factorgraph.bp_sweep"], ["latency_p50_ms", "latency_tail_ms"]),
    _ms("factorgraph.bp_beliefs_ms", "fg-loopy", ["factorgraph.bp_beliefs"], ["latency_p50_ms", "latency_tail_ms"]),
    _ms("factorgraph.fixed_point_ms", "fg-loopy", ["bench.fixed_point"], ["latency_p50_ms", "latency_tail_ms"]),
    _counter("factorgraph.sweeps", "count", "lower", "fg-loopy", "sweeps", ["latency_p50_ms"]),
    _counter("factorgraph.messages_per_s", "1/s", "higher", "fg-loopy", "messages_per_s", ["latency_p50_ms"]),
    # desk-verify: every layer the acceptance criteria load
    _ms("factorgraph.bp_run_tree_ms", "desk-verify", ["factorgraph.bp_run_tree"], ["throughput_per_s"]),
    _ms("oracle.numeric_projection_ms", "desk-verify", ["oracle.numeric_projection"], TPUT_TAIL),
    _ms("oracle.enumerate_spn_ms", "desk-verify", ["oracle.enumerate_spn_marginals"], TPUT_TAIL),
    _ms("oracle.enumerate_fg_ms", "desk-verify", ["oracle.enumerate_fg_marginals"], TPUT_TAIL),
    _ms("oracle.reference_gradient_ms", "desk-verify", ["oracle.reference_gradient"], TPUT_TAIL),
    _ms("oracle.finite_diff_ms", "desk-verify", ["oracle.finite_diff_grad"], TPUT_TAIL),
    _ms("compgraph.forward_eval_ms", "desk-verify", ["compgraph.forward_eval"], ["throughput_per_s"]),
    _ms("compgraph.backward_adjoints_ms", "desk-verify", ["compgraph.backward_adjoints"], ["throughput_per_s"]),
    _ms("compgraph.downward_log_belief_ms", "desk-verify", ["compgraph.downward_log_belief"], ["throughput_per_s"]),
    _ms("posterior.grad_enum_ms", "desk-verify", ["posterior.posterior_grad_enum"], ["throughput_per_s"]),
    _ms("posterior.grad_bp_ms", "desk-verify", ["posterior.posterior_grad_bp"], ["throughput_per_s"]),
    _ms("posterior.dirac_ms", "desk-verify", ["posterior.dirac_limit_check"], ["throughput_per_s"]),
    _ms("lift.replicate_lift_ms", "desk-verify", ["lift.replicate_lift"], TPUT_TAIL),
    _ms("lift.wr_run_entropy_ms", "desk-verify", ["lift.wr_run/entropy"], TPUT_TAIL),
    _ms("lift.wr_run_quadratic_ms", "desk-verify", ["lift.wr_run/quadratic"], TPUT_TAIL),
    _counter("lift.wr_iterations", "count", "lower", "desk-verify", "wr_iterations", TPUT_TAIL),
    _ms(
        "simplex.projection_ms",
        "desk-verify",
        ["simplex.i_project_diagonal", "simplex.m_project_product", "simplex.consensus_geomean"],
        ["throughput_per_s"],
    ),
    _ms("spn_reduce.lipschitz_probe_ms", "desk-verify", ["spn_reduce.lipschitz_probe"], TPUT_TAIL),
    _ms("spn_reduce.to_factor_graph_ms", "desk-verify", ["spn_reduce.spn_to_factor_graph"], TPUT_TAIL),
    _ms("spn_reduce.region_two_step_ms", "desk-verify", ["spn_reduce.region_two_step"], TPUT_TAIL),
    _ms(
        "generators.gen_ms",
        "desk-verify",
        ["generators.gen_spn", "generators.gen_dag", "generators.gen_fg", "generators.gen_posterior"],
        ["setup_s"],
    ),
    # cli on cli-desk
    _counter("cli.command_ms", "ms", "lower", "cli-desk", "command_ms", P50_TPUT),
    _counter("cli.startup_ms", "ms", "lower", "cli-desk", "startup_ms", P50_TPUT),
    _counter("cli.import_ms", "ms", "lower", "cli-desk", "import_ms", P50_TPUT),
    _counter("cli.report_bytes", "bytes", "lower", "cli-desk", "report_bytes", P50_TPUT),
    # the traced run itself, on the workload named on the command line
    _counter("bench.trace_overhead_pct", "%", "lower", "", "trace_overhead_pct", ()),
)
