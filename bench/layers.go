package main

import (
	"time"

	"repro/internal/obs"
)

// tracedRounds is the traced run's share of workload rounds. Rounds
// alternate between the program's observer off and on (registry counters,
// firing histograms and trace ring handed to every layer that takes one),
// so the two medians see the same drift: their ratio is
// obs.trace_overhead_ratio. The layers' own counts come from the observed
// rounds' ExecStats and, for the links, from the observer's registry.
func tracedRounds(w workload, e *env, d time.Duration, total *roundStats, l *ladder, fail func(error)) {
	o := obs.New()
	var plain, traced, slow []float64
	var counts roundStats
	for i, t0 := 0, time.Now(); time.Since(t0) < d || len(traced) == 0; i++ {
		observed := i%2 == 1
		if observed {
			e.obs = o
		}
		s, rs, err := timedRound(w, e)
		e.obs = nil
		fail(err)
		total.add(rs)
		slow = append(slow, s.slowdown)
		if observed {
			traced = append(traced, s.unitsPerS)
			counts.add(rs)
		} else {
			plain = append(plain, s.unitsPerS)
		}
	}
	reg := o.Metrics
	sum := func(name string) float64 { return float64(reg.Sum(name)) }

	st := counts.spi
	if st.Messages == 0 {
		// The coordinator returns no ExecStats; its workers' runtimes
		// counted into the registry instead.
		st.Messages = reg.Sum("spi_edge_messages_total")
		st.WireBytes = reg.Sum("spi_edge_data_bytes_total")
		st.Acks = reg.Sum("spi_edge_acks_total")
		st.AckBytes = reg.Sum("spi_edge_ack_bytes_total")
		st.CreditWaits = reg.Sum("spi_edge_credit_waits_total")
	}
	// counts.attempted includes the probes' units; their messages are few
	// (a probe is one unit or one block) and the rounds' dominate.
	units := float64(max(counts.attempted-counts.failed, 1))
	msgs := float64(max(st.Messages, 1))
	g := l.got
	g["spi.msgs_per_unit"] = float64(st.Messages) / units
	g["spi.payload_bytes_per_unit"] = float64(st.PayloadBytes) / units
	if st.PayloadBytes > 0 {
		g["spi.wire_bytes_per_payload_byte"] = float64(st.WireBytes) / float64(st.PayloadBytes)
		g["transport.wire_bytes_per_payload_byte"] = sum("transport_link_bytes_sent_total") / float64(st.PayloadBytes)
	}
	g["spi.acks_per_msg"] = float64(st.Acks) / msgs
	g["spi.acks_piggybacked_per_msg"] = float64(st.AcksPiggybacked) / msgs
	g["spi.acks_suppressed_per_msg"] = float64(st.AcksSuppressed) / msgs
	g["spi.credit_waits_per_msg"] = float64(st.CreditWaits) / msgs
	g["spi.max_queued"] = float64(st.MaxQueued)
	g["spi.local_transfers_per_unit"] = float64(counts.localTransfers) / units

	if data := sum("transport_link_data_sent_total"); data > 0 {
		g["transport.frames_per_msg"] = sum("transport_link_frames_sent_total") / data
		g["transport.ack_frames_per_msg"] = sum("transport_link_acks_sent_total") / data
		g["transport.batch_flushes_per_msg"] = sum("transport_link_batch_flushes_total") / data
	}
	g["transport.retransmits"] = sum("transport_link_retransmits_total")
	g["transport.resumes"] = sum("transport_link_resumes_total")

	g["harness.machine_slowdown"] = median(slow)
	if untraced := median(plain); untraced > 0 {
		g["obs.trace_overhead_ratio"] = median(traced) / untraced
		g["ladder.measured_ns_per_unit"] = 1e9 / untraced
	}
	l.msgsPerUnit = g["spi.msgs_per_unit"]
	l.firingsPerUnit = float64(counts.firings) / units
	if st.Messages > 0 {
		l.meanPayload = float64(st.PayloadBytes) / float64(st.Messages)
	}
}
