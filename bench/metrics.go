package main

// metricDef names one reported number. The two tables below are the
// benchmark's contract: BENCHMARK.json lists exactly these names, units
// and directions (smoke_test.go holds the two in step), every workload
// reports every one of them, and -compare judges the end-to-end ones by
// their bounds.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // share of the base median; end-to-end only
}

// endToEnd is what a user of spirun/spinode/spictl/spiload sees, measured
// with tracing off. failed_share is not here: it is 0 on a healthy run,
// and a bound that is a share of 0 cannot be stated, so failures travel in
// the result line's attempted/failed counts (any failure fails the run)
// and failed_share is a per-layer diagnostic.
var endToEnd = []metricDef{
	{"units_per_s", "units/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_unit", "us", "lower", 0.25},
	{"alloc_bytes_per_unit", "B", "lower", 0.05},
	{"allocs_per_unit", "count", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer comes from the traced run only. A layer that is not on a
// workload's path reports 0 (the README's "absent").
var perLayer = []metricDef{
	// kernels called directly, no runtime
	{Name: "kernel.ns_per_unit", Unit: "ns", Better: "lower"},
	// spi: timed calls into exported functions
	{Name: "spi.slab_pack_ns_per_token", Unit: "ns", Better: "lower"},
	{Name: "spi.slab_unpack_ns_per_token", Unit: "ns", Better: "lower"},
	{Name: "spi.header_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "spi.edge_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "spi.edge_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "spi.exec_ns_per_firing", Unit: "ns", Better: "lower"},
	{Name: "spi.exec_blocked_ns_per_firing", Unit: "ns", Better: "lower"},
	// spi: counts from ExecStats / EdgeStats of the traced workload rounds
	{Name: "spi.msgs_per_unit", Unit: "count", Better: "lower"},
	{Name: "spi.payload_bytes_per_unit", Unit: "B", Better: "lower"},
	{Name: "spi.wire_bytes_per_payload_byte", Unit: "ratio", Better: "lower"},
	{Name: "spi.acks_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "spi.acks_piggybacked_per_msg", Unit: "ratio", Better: "higher"},
	{Name: "spi.acks_suppressed_per_msg", Unit: "ratio", Better: "higher"},
	{Name: "spi.credit_waits_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "spi.max_queued", Unit: "count", Better: "lower"},
	{Name: "spi.local_transfers_per_unit", Unit: "count", Better: "lower"},
	// transport: timed
	{Name: "transport.carrier_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.carrier_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.link_loopback_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.link_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.link_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "transport.edge_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.handshake_us", Unit: "us", Better: "lower"},
	// transport: counts from the obs.Registry of the traced workload rounds
	{Name: "transport.frames_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "transport.wire_bytes_per_payload_byte", Unit: "ratio", Better: "lower"},
	{Name: "transport.ack_frames_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "transport.batch_flushes_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "transport.retransmits", Unit: "count", Better: "lower"},
	{Name: "transport.resumes", Unit: "count", Better: "lower"},
	// session
	{Name: "session.open_us", Unit: "us", Better: "lower"},
	{Name: "session.exec_us", Unit: "us", Better: "lower"},
	{Name: "session.close_us", Unit: "us", Better: "lower"},
	{Name: "session.tokens_per_s", Unit: "1/s", Better: "higher"},
	{Name: "session.admitted", Unit: "count", Better: "higher"},
	{Name: "session.rejected", Unit: "count", Better: "lower"},
	{Name: "session.shed", Unit: "count", Better: "lower"},
	{Name: "session.failed", Unit: "count", Better: "lower"},
	// orch
	{Name: "orch.static_units_per_s", Unit: "units/s", Better: "higher"},
	{Name: "orch.elastic_over_static", Unit: "ratio", Better: "higher"},
	{Name: "orch.epoch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "orch.epoch_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "orch.register_ms", Unit: "ms", Better: "lower"},
	{Name: "orch.epochs", Unit: "count", Better: "lower"},
	{Name: "orch.aborts", Unit: "count", Better: "lower"},
	{Name: "orch.migrations", Unit: "count", Better: "lower"},
	{Name: "orch.stalled_tokens", Unit: "count", Better: "lower"},
	// planning (dataflow, sched, syncgraph)
	{Name: "plan.build_us", Unit: "us", Better: "lower"},
	{Name: "plan.resync_us", Unit: "us", Better: "lower"},
	{Name: "plan.block_us", Unit: "us", Better: "lower"},
	{Name: "plan.fission_us", Unit: "us", Better: "lower"},
	// the ladder's per-unit budget: one self time per layer, then the rest
	{Name: "ladder.measured_ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "ladder.kernel_ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "ladder.slab_ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "ladder.spi_ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "ladder.link_ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "ladder.carrier_ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "ladder.acks_ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "ladder.session_ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "ladder.orch_ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "ladder.unattributed_ns_per_unit", Unit: "ns", Better: "lower"},
	{Name: "ladder.transport_share", Unit: "ratio", Better: "lower"},
	{Name: "ladder.wedged_batches", Unit: "count", Better: "lower"},
	// obs and harness diagnostics
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "harness.machine_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "latency_loaded_p50_us", Unit: "us", Better: "lower"},
	{Name: "latency_samples", Unit: "count", Better: "higher"},
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "gc_cycles", Unit: "count", Better: "lower"},
	{Name: "gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
}

// value is one reported number in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill turns measured numbers into the result line's metrics object:
// every name in defs appears, with its unit, and a name the run did not
// measure reads 0.
func fill(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}
