"""Names, units and meaning of every metric the benchmark reports.

`BENCHMARK.json` at the repository root lists the same end-to-end and
per-layer metrics; `run.py` refuses to run when the two disagree.
"""

WORKLOADS = ("corpus", "random", "mc_low", "mc_high")

# (name, unit, better).  Every workload reports every one of these.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_kref", "1/kref", "higher"),
    ("latency_ref_geomean", "ref", "lower"),
    ("latency_ref_p90", "ref", "lower"),
    ("mq_count_total", "gates", "lower"),
    ("norm_total", "rad", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better).  Values are per pass (every row of the workload
# once), measured in the traced run.
PER_LAYER = (
    ("cost.sequence_cost.calls", "count", "lower"),
    ("cost.sequence_cost.self_ms", "ms", "lower"),
    ("cost.realize.self_ms", "ms", "lower"),
    ("cost.nuclear_norm.calls", "count", "lower"),
    ("circuit.SingleQubit.calls", "count", "lower"),
    ("gadgets.fanout_to_mq.calls", "count", "lower"),
    ("passes.conjugation_cost_matrix.self_ms", "ms", "lower"),
    ("passes.norm_reduction_step.calls", "count", "lower"),
    ("passes.norm_steps_accepted", "count", "higher"),
    ("passes.norm_accept_ratio", "1", "higher"),
    ("su4.minimize_block_phase.self_ms", "ms", "lower"),
    ("su4.minimize_block_phase.calls", "count", "lower"),
    ("circuit.layerize.self_ms", "ms", "lower"),
    ("circuit.form_su4_blocks.self_ms", "ms", "lower"),
    ("passes.pg_left.self_ms", "ms", "lower"),
    ("passes.pg_right.self_ms", "ms", "lower"),
    ("gadgets.commute_cnot.calls", "count", "lower"),
    ("gadgets.simplify.self_ms", "ms", "lower"),
    ("passes.commutation_events", "count", "lower"),
    ("passes.optimize.self_ms", "ms", "lower"),
    ("qasm.parse_qasm_file.self_ms", "ms", "lower"),
    ("qasm.to_zz_basis.self_ms", "ms", "lower"),
    ("serialize.dumps.self_ms", "ms", "lower"),
    ("serialize.program_bytes", "B", "lower"),
    ("cost.metrics.self_ms", "ms", "lower"),
    ("circuit.to_unitary.self_ms", "ms", "lower"),
    ("circuit.gate_apply.self_ms", "ms", "lower"),
    ("passes.CompiledProgram.realized_circuit.self_ms", "ms", "lower"),
    ("noise.gate_apply.calls_per_sample", "count", "lower"),
    ("noise.gate_apply.self_ms", "ms", "lower"),
    ("noise.monte_carlo_fidelity.self_ms", "ms", "lower"),
    ("noise.probabilities.self_ms", "ms", "lower"),
    ("noise.errors_per_sample", "count", "lower"),
    ("noise.error_free_frac", "1", "higher"),
    ("trace.overhead_ratio", "1", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
)

# Which end-to-end metric each per-layer metric should move, on which
# workload, and where it should stay put.  Printed with every traced run.
LAYER_MAP = (
    {"layer": ["cost.sequence_cost.calls", "cost.sequence_cost.self_ms",
               "cost.realize.self_ms", "cost.nuclear_norm.calls",
               "circuit.SingleQubit.calls", "gadgets.fanout_to_mq.calls"],
     "moves": ["latency_ref_geomean", "latency_ref_p90", "ops_per_kref"],
     "on": ["random", "corpus"], "unchanged_on": ["mc_low", "mc_high"]},
    {"layer": ["passes.conjugation_cost_matrix.self_ms",
               "passes.norm_reduction_step.calls",
               "passes.norm_steps_accepted", "passes.norm_accept_ratio"],
     "moves": ["latency_ref_geomean (corpus: every proposal is rejected)",
               "mq_count_total", "norm_total (random: search strength)"],
     "on": ["corpus", "random"], "unchanged_on": ["mc_low", "mc_high"]},
    {"layer": ["su4.minimize_block_phase.self_ms",
               "su4.minimize_block_phase.calls", "circuit.layerize.self_ms",
               "circuit.form_su4_blocks.self_ms"],
     "moves": ["latency_ref_geomean"], "on": ["corpus"],
     "unchanged_on": ["mc_low", "mc_high"]},
    {"layer": ["passes.pg_left.self_ms", "passes.pg_right.self_ms",
               "gadgets.commute_cnot.calls", "gadgets.simplify.self_ms",
               "passes.commutation_events"],
     "moves": ["latency_ref_p90"], "on": ["random"],
     "unchanged_on": ["mc_low", "mc_high"]},
    {"layer": ["qasm.parse_qasm_file.self_ms", "qasm.to_zz_basis.self_ms",
               "serialize.dumps.self_ms", "serialize.program_bytes",
               "cost.metrics.self_ms", "passes.optimize.self_ms"],
     "moves": ["latency_ref_geomean (small share)"], "on": ["corpus"],
     "unchanged_on": ["mc_low", "mc_high"]},
    {"layer": ["circuit.to_unitary.self_ms", "circuit.gate_apply.self_ms",
               "passes.CompiledProgram.realized_circuit.self_ms"],
     "moves": ["ops_per_kref (the dense verify is part of each operation)"],
     "on": ["corpus", "random"], "unchanged_on": ["mc_low", "mc_high"]},
    {"layer": ["noise.gate_apply.calls_per_sample", "noise.gate_apply.self_ms",
               "noise.monte_carlo_fidelity.self_ms",
               "noise.probabilities.self_ms", "noise.errors_per_sample"],
     "moves": ["ops_per_kref", "latency_ref_geomean", "latency_ref_p90"],
     "on": ["mc_low", "mc_high"], "unchanged_on": ["corpus", "random"]},
    {"layer": ["noise.error_free_frac"],
     "moves": ["explains how much of the ops_per_kref gap between mc_low and "
               "mc_high a zero-error shortcut can close"],
     "on": ["mc_low (about 0.96)", "mc_high (below 0.45)"],
     "unchanged_on": []},
)
