"""Names and units of the per-layer metrics, shared by the launcher and the
tracer (this module imports nothing, so the launcher stays light)."""

# (metric, unit) in report order; BENCHMARK.json's per_layer lists the same.
PER_LAYER = (
    ("covmodel.build_network.calls", "count"),
    ("covmodel.build_network.busy_s", "s"),
    ("covmodel.build_network.useful_ratio", "ratio"),
    ("training.EstimatorBank.build.calls", "count"),
    ("training.EstimatorBank.build.busy_s", "s"),
    ("training.EstimatorBank.build.useful_ratio", "ratio"),
    ("training.projected_cov.calls", "count"),
    ("training.jittered_users", "count"),
    ("bounds.DrawEngine.init.calls", "count"),
    ("bounds.DrawEngine.init.self_s", "s"),
    ("bounds.engine_tables_mb", "MB"),
    ("bounds.ul_chunk.calls", "count"),
    ("bounds.ul_chunk.busy_s", "s"),
    ("bounds.dl_chunk.calls", "count"),
    ("bounds.dl_chunk.busy_s", "s"),
    ("bounds.run_bounds.self_s", "s"),
    ("bounds.dl_rates_lowdim.busy_s", "s"),
    ("bounds.dl_rates_fulldim.busy_s", "s"),
    ("bounds.user_trials", "count"),
    ("detequiv.sinr_mmse_detequiv.calls", "count"),
    ("detequiv.sinr_mmse_detequiv.self_s", "s"),
    ("detequiv.solve_fixed_point.calls", "count"),
    ("detequiv.solve_fixed_point.busy_s", "s"),
    ("detequiv.fixed_point_iters", "count"),
    ("detequiv.solve_primed.busy_s", "s"),
    ("beamform.assemble_Z.calls", "count"),
    ("beamform.assemble_Z.busy_s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.reproduce_figure.self_s", "s"),
    ("harness.write_results.busy_s", "s"),
    ("harness.csv_bytes", "bytes"),
    ("process.calib_s", "s"),
    ("process.cpu_s", "s"),
    ("process.cpu_util", "ratio"),
    ("process.trace_overhead_s", "s"),
    ("process.unaccounted_s", "s"),
)

# counts that must repeat exactly across runs with the same seed
EXACT = tuple(name for name, unit in PER_LAYER
              if unit in ("count", "bytes", "MB") or name.endswith("useful_ratio"))
