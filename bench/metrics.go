package main

// metricDef names one reported metric. BENCHMARK.json repeats the
// end-to-end and per-layer lists with their regression bounds; a test
// keeps the two in step.
type metricDef struct {
	name, unit, better string
	// kind is "host", "model" or "layer" (see summary.Kind).
	kind string
}

// endToEnd are the metrics a user of the simulator sees, emitted for
// every workload with tracing off. Host times are in reference-host
// seconds (see refCalib), and the two rates divide by them.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", "host"},
	{"setup_s", "s", "lower", "host"},
	{"sim_cycles_per_s", "cycles/s", "higher", "host"},
	{"msgs_per_s", "msgs/s", "higher", "host"},
	{"alloc_mb", "MB", "lower", "host"},
	{"max_rss_mb", "MB", "lower", "host"},
}

// reportOnly are end-to-end metrics the report carries but the final
// result line leaves out, because that line must hold the same nonzero
// metrics for every workload: error_rate is zero on a healthy run, and
// the kv_* latencies exist only for kvserve-hotkey. raw_wall_s and
// calib_s are the unscaled host seconds and the calibration time they
// were scaled by.
var reportOnly = []metricDef{
	{"raw_wall_s", "s", "lower", "host"},
	{"calib_s", "s", "lower", "host"},
	{"error_rate", "fraction", "lower", "model"},
	{"kv_read_p50_cycles", "cycles", "lower", "model"},
	{"kv_read_p99_cycles", "cycles", "lower", "model"},
	{"kv_read_p999_cycles", "cycles", "lower", "model"},
	{"kv_write_p50_cycles", "cycles", "lower", "model"},
	{"kv_write_p99_cycles", "cycles", "lower", "model"},
	{"kv_write_p999_cycles", "cycles", "lower", "model"},
	{"kv_late_frac", "fraction", "lower", "model"},
}

// layers are the profile's attribution buckets: each CPU sample goes
// to the innermost plus/ frame's layer, or to runtime when it has none.
var layers = []string{"sim", "mesh", "coherence", "kernel", "mmu", "proc", "stats", "core", "apps", "other", "runtime"}

// perLayer are the per-layer metrics, emitted with tracing on. The
// microbenchmarks supply the _ns and _us costs (shard_round_us too),
// the observed pass the simulated p99s, link utilization and stall
// fractions, the CPU profile the host shares, and an unobserved rep
// the CPU utilization and GC figures. That rep also supplies the two
// whole-model counts: they are exact for a seed but differ between
// seeds, so they carry no bound across seeds and are listed here rather
// than among the end-to-end metrics; -compare holds them exact when the
// seeds match.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim_cycles", "cycles", "lower", "model"},
		{"messages", "count", "lower", "model"},
		{"sim.event_ns", "ns", "lower", "layer"},
		{"sim.coroutine_switch_ns", "ns", "lower", "layer"},
		{"sim.shard_round_us", "us", "lower", "layer"},
		{"sim.shard_cpu_util", "fraction", "higher", "layer"},
		{"mesh.send_ns", "ns", "lower", "layer"},
		{"mesh.send_contended_ns", "ns", "lower", "layer"},
		{"mesh.hop_queue_p99_cycles", "cycles", "lower", "layer"},
		{"mesh.link_util_max", "fraction", "lower", "layer"},
		{"coherence.remote_read_ns", "ns", "lower", "layer"},
		{"coherence.replicated_write_ns", "ns", "lower", "layer"},
		{"coherence.rmw_ns", "ns", "lower", "layer"},
		{"coherence.remote_read_p99_cycles", "cycles", "lower", "layer"},
		{"coherence.write_ack_p99_cycles", "cycles", "lower", "layer"},
		{"coherence.rmw_round_p99_cycles", "cycles", "lower", "layer"},
		{"kernel.prefault_ns_per_page", "ns", "lower", "layer"},
		{"kernel.replicate_us", "us", "lower", "layer"},
		{"proc.idle_until_ns", "ns", "lower", "layer"},
		{"proc.ctx_switch_ns", "ns", "lower", "layer"},
		{"proc.stall_frac.read", "fraction", "lower", "layer"},
		{"proc.stall_frac.write", "fraction", "lower", "layer"},
		{"proc.stall_frac.fence", "fraction", "lower", "layer"},
		{"proc.stall_frac.verify", "fraction", "lower", "layer"},
		{"stats.emit_ns", "ns", "lower", "layer"},
		{"stats.hist_observe_ns", "ns", "lower", "layer"},
		{"stats.trace_overhead", "ratio", "lower", "layer"},
		{"runtime.gc_count", "count", "lower", "layer"},
		{"runtime.gc_pause_ms", "ms", "lower", "layer"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".host_share", "fraction", "lower", "layer"})
	}
	return defs
}()

func findDef(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, reportOnly, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
