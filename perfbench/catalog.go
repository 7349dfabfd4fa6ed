package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; catalog_test.go keeps the two in
// step. For a per-layer metric, moves names the end-to-end metric it
// should move and on which workload, so later changes can cite it.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
	what   string
	moves  string
}

// endToEnd are measured with tracing off. Host timings are medians, in
// reference seconds (see calibration); the simulated quality metrics
// aggregate the quality set's reported row (Adaptive, or MPC on web-mpc)
// and repeat exactly for a given seed.
var endToEnd = []metricDef{
	{name: "sim_requests_per_ref_s", unit: "1/s", better: "higher", bound: 0.25,
		what: "simulated requests offered (Result.Arrived) per reference second (a block of units, 0.5 s or more of host time, counts its host seconds times the host speed the calibration loop measured on either side of it); median over blocks. On web-mpc only the real run's requests count, so lookahead cost lowers it"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		what: "set-up of the quality set: compile of every unit's panel, NewRunContext per worker and Setup of every job, before any simulation; median over 8 calibrated rounds of each round's median set-up, in reference seconds (host seconds times the calibrated host speed)"},
	{name: "alloc_bytes_per_request", unit: "B", better: "lower", bound: 0.25,
		what: "heap bytes allocated per simulated request over the timed loop's first pass, where each seed of the quality set runs once"},
	{name: "peak_heap_mb", unit: "MB", better: "lower", bound: 0.25,
		what: "largest live heap marked by a collection during a unit (sampled every 2 ms, plus a collection at the unit's end); median over units"},
	{name: "mean_response_s", unit: "s", better: "lower", bound: 0.02,
		what: "simulated mean response time of the reported row (Adaptive; MPC on web-mpc; the storm tier on web-chaos)"},
	{name: "objective_vm_s", unit: "vm_s", better: "lower", bound: 0.1,
		what: "simulated VM-seconds plus QoS violations, rejections and crash-lost requests per replication of the reported row, the MPC objective"},
}

// perLayer are measured in the traced run: boundary wrappers around the
// seams plus a CPU profile whose leaf frames give each layer's self time.
// Counts cover the quality set's first pass and repeat exactly; times and
// shares cover every traced unit.
var perLayer = []metricDef{
	{name: "sim.self_share", unit: "ratio", better: "lower", moves: "sim_requests_per_ref_s on web-exact; barely on web-hybrid"},
	{name: "sim.self_samples", unit: "count", better: "lower", moves: "sample count behind sim.self_share"},
	{name: "sim.events", unit: "count", better: "lower", moves: "sim_requests_per_ref_s on web-exact; barely on web-hybrid",
		what: "kernel events fired, lookahead events included"},
	{name: "sim.events_per_request", unit: "count", better: "lower", moves: "sim_requests_per_ref_s on web-exact and web-hybrid"},
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower", moves: "sim_requests_per_ref_s on web-exact; barely on web-hybrid",
		what: "host time inside World.RunUntil per kernel event"},
	{name: "sim.pending_peak", unit: "count", better: "lower", moves: "sim_requests_per_ref_s on web-exact",
		what: "largest Sim.Pending() seen between 300 s RunUntil slices"},

	{name: "workload.self_share", unit: "ratio", better: "lower", moves: "sim_requests_per_ref_s and alloc_bytes_per_request on web-exact and web-mpc"},
	{name: "workload.self_samples", unit: "count", better: "lower", moves: "sample count behind workload.self_share"},
	{name: "workload.requests", unit: "count", better: "lower", moves: "sim_requests_per_ref_s on web-exact and web-mpc",
		what: "calls of the source's emit callback, lookahead requests included"},
	{name: "app.self_share", unit: "ratio", better: "lower", moves: "sim_requests_per_ref_s and alloc_bytes_per_request on web-exact and web-mpc"},
	{name: "app.self_samples", unit: "count", better: "lower", moves: "sample count behind app.self_share"},
	{name: "metrics.self_share", unit: "ratio", better: "lower", moves: "sim_requests_per_ref_s and alloc_bytes_per_request on web-exact and web-mpc"},
	{name: "metrics.self_samples", unit: "count", better: "lower", moves: "sample count behind metrics.self_share"},
	{name: "stats.self_share", unit: "ratio", better: "lower", moves: "sim_requests_per_ref_s and alloc_bytes_per_request on web-exact and web-mpc"},
	{name: "stats.self_samples", unit: "count", better: "lower", moves: "sample count behind stats.self_share"},
	{name: "provision.self_share", unit: "ratio", better: "lower", moves: "sim_requests_per_ref_s on web-exact and web-mpc"},
	{name: "provision.self_samples", unit: "count", better: "lower", moves: "sample count behind provision.self_share"},
	{name: "provision.submit_ns", unit: "ns", better: "lower", moves: "sim_requests_per_ref_s and alloc_bytes_per_request on web-exact and web-mpc",
		what: "mean span of one emit call into Provisioner.Submit, app and metrics children included"},

	{name: "provision.accept_ratio", unit: "ratio", better: "higher", moves: "nothing end to end (under 1% of host time); objective_vm_s through rejections",
		what: "Accepted / Arrived over the quality set"},
	{name: "provision.rejection_rate", unit: "ratio", better: "lower", moves: "objective_vm_s on every workload",
		what: "simulated rejection rate of the reported row; zero on web-exact, so not an end-to-end metric"},
	{name: "provision.decisions", unit: "count", better: "lower", moves: "nothing end to end (under 1% of host time)",
		what: "analyzer alerts"},
	{name: "provision.decision_ns", unit: "ns", better: "lower", moves: "nothing end to end (under 1% of host time)",
		what: "mean alert span: Algorithm 1 plus SetTarget"},
	{name: "queueing.self_share", unit: "ratio", better: "lower", moves: "nothing end to end (under 1% of host time)"},
	{name: "queueing.self_samples", unit: "count", better: "lower", moves: "sample count behind queueing.self_share"},

	{name: "fluid.self_share", unit: "ratio", better: "lower", moves: "sim_requests_per_ref_s on web-hybrid only"},
	{name: "fluid.self_samples", unit: "count", better: "lower", moves: "sample count behind fluid.self_share"},
	{name: "fluid.ticks", unit: "count", better: "lower", moves: "sim_requests_per_ref_s on web-hybrid only",
		what: "Ticker.SampleCount calls"},
	{name: "fluid.fluid_tick_share", unit: "ratio", better: "higher", moves: "sim_requests_per_ref_s and fluid.hybrid_tol_used on web-hybrid only",
		what: "1 - Ticker.Emit / Ticker.SampleCount"},
	{name: "fluid.hybrid_tol_used", unit: "ratio", better: "lower", moves: "accuracy on web-hybrid; above 1 fails the Adaptive replications",
		what: "worst figure-table metric error of the Adaptive row against the same panel in exact mode, as a multiple of metrics.HybridTolerance"},
	{name: "fluid.panel_tol_used", unit: "ratio", better: "lower", moves: "accuracy on web-hybrid",
		what: "the same over every policy row of the panel; reported, not a check"},

	{name: "mpc.self_share", unit: "ratio", better: "lower", moves: "mpc.decision_p50_ms, mpc.decision_p95_ms and sim_requests_per_ref_s on web-mpc only"},
	{name: "mpc.self_samples", unit: "count", better: "lower", moves: "sample count behind mpc.self_share"},
	{name: "mpc.decisions", unit: "count", better: "lower", moves: "mpc.decision_p50_ms and mpc.decision_p95_ms on web-mpc only",
		what: "MPC cycles"},
	{name: "mpc.decision_p50_ms", unit: "ms", better: "lower", moves: "sim_requests_per_ref_s on web-mpc only",
		what: "median MPC cycle, World.Snapshot to World.Release"},
	{name: "mpc.decision_p95_ms", unit: "ms", better: "lower", moves: "sim_requests_per_ref_s on web-mpc only",
		what: "95th percentile MPC cycle"},
	{name: "mpc.decision_samples", unit: "count", better: "higher", moves: "none: cycles behind the percentiles"},
	{name: "mpc.candidates_per_decision", unit: "count", better: "lower", moves: "mpc.decision_p50_ms, mpc.decision_p95_ms and sim_requests_per_ref_s on web-mpc only"},
	{name: "mpc.lookahead_ns", unit: "ns", better: "lower", moves: "mpc.decision_p50_ms, mpc.decision_p95_ms and sim_requests_per_ref_s on web-mpc only",
		what: "mean span from World.Perturb to the Objective read that scores the candidate"},
	{name: "mpc.lookahead_share", unit: "ratio", better: "lower", moves: "sim_requests_per_ref_s on web-mpc only",
		what: "Σ lookahead spans / Σ replication spans"},
	{name: "experiment.self_share", unit: "ratio", better: "lower", moves: "setup_s and sim_requests_per_ref_s on web-hybrid"},
	{name: "experiment.self_samples", unit: "count", better: "lower", moves: "sample count behind experiment.self_share"},
	{name: "experiment.snapshot_ns", unit: "ns", better: "lower", moves: "mpc.decision_p50_ms, mpc.decision_p95_ms and sim_requests_per_ref_s on web-mpc only"},
	{name: "experiment.restore_ns", unit: "ns", better: "lower", moves: "mpc.decision_p50_ms, mpc.decision_p95_ms and sim_requests_per_ref_s on web-mpc only"},
	{name: "experiment.setup_ns", unit: "ns", better: "lower", moves: "setup_s and sim_requests_per_ref_s on web-hybrid",
		what: "mean RunContext.Setup span per replication"},
	{name: "experiment.finish_ns", unit: "ns", better: "lower", moves: "sim_requests_per_ref_s on web-hybrid",
		what: "mean World.Finish span per replication"},
	{name: "experiment.sweep_busy_share", unit: "ratio", better: "higher", moves: "sim_requests_per_ref_s on web-hybrid",
		what: "Σ replication spans / (workers × Σ unit wall)"},

	{name: "cloud.self_share", unit: "ratio", better: "lower", moves: "sim_requests_per_ref_s and objective_vm_s on web-chaos"},
	{name: "cloud.self_samples", unit: "count", better: "lower", moves: "sample count behind cloud.self_share"},
	{name: "fault.self_share", unit: "ratio", better: "lower", moves: "sim_requests_per_ref_s and objective_vm_s on web-chaos"},
	{name: "fault.self_samples", unit: "count", better: "lower", moves: "sample count behind fault.self_share"},
	{name: "fault.crashes", unit: "count", better: "lower", moves: "objective_vm_s on web-chaos"},
	{name: "fault.retries", unit: "count", better: "lower", moves: "sim_requests_per_ref_s and objective_vm_s on web-chaos"},
	{name: "fault.breaker_trips", unit: "count", better: "lower", moves: "objective_vm_s on web-chaos"},
	{name: "fault.shed", unit: "count", better: "lower", moves: "objective_vm_s on web-chaos"},

	{name: "runtime.self_share", unit: "ratio", better: "lower", moves: "alloc_bytes_per_request and peak_heap_mb on every workload"},
	{name: "runtime.self_samples", unit: "count", better: "lower", moves: "sample count behind runtime.self_share"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower", moves: "alloc_bytes_per_request and peak_heap_mb on every workload",
		what: "GC CPU / total CPU from runtime/metrics over the traced loop"},
	{name: "other.self_share", unit: "ratio", better: "lower", moves: "none: standard library outside runtime"},
	{name: "other.self_samples", unit: "count", better: "lower", moves: "sample count behind other.self_share"},
	{name: "harness.self_share", unit: "ratio", better: "lower", moves: "none: samples in the benchmark's own wrappers, as a share of all samples",
		what: "tracing cost in the profile; every other *.self_share is a share of the remaining, program samples"},
	{name: "profile.samples", unit: "count", better: "higher", moves: "none: the CPU profile's sample total"},

	{name: "trace.overhead", unit: "ratio", better: "lower", moves: "none: median traced unit wall / median untraced unit wall"},
}
