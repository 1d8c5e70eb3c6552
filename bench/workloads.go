package main

// The seven workloads. Each is chosen for the layer it leans on (why is
// copied into BENCHMARK.json and the README). unitsPerRound is frozen
// here: calibrated once on the seed commit so a round takes 0.25-0.4 s on
// the 2-core reference box, and recorded in BASELINE.json.
type workloadSpec struct {
	name          string
	unit          string // what one unit is
	unitsPerRound int
	why           string
	make          func(unitsPerRound int) workload
}

var workloadSpecs = []workloadSpec{
	{
		name: "lpc_chan", unit: "frame", unitsPerRound: 3000,
		why:  "LPC actor D on 4 PEs in one node: only dsp kernels and the spi executor run, no transport; the control every carrier change must leave flat",
		make: func(n int) workload { return &lpcWorkload{carrier: "chan", frames: n} },
	},
	{
		name: "lpc_tcp_stream", unit: "frame", unitsPerRound: 3008,
		why:  "same graph split over two nodes on TCP with block 16, batching, piggyback and resync: bulk streaming where slab packing, CRC and bytes written dominate",
		make: func(n int) workload { return &lpcWorkload{carrier: "tcp", frames: n} },
	},
	{
		name: "lpc_shm_stream", unit: "frame", unitsPerRound: 3008,
		why:  "identical to lpc_tcp_stream over the same-host shared-memory rings: isolates the carrier; ring spinning shows in cpu_us_per_unit",
		make: func(n int) workload { return &lpcWorkload{carrier: "shm", frames: n} },
	},
	{
		name: "pipe_tcp_scalar", unit: "iteration", unitsPerRound: 50000,
		why:  "pipeline graph of 2-byte tokens over TCP with every option at its default: one syscall and one ack frame per token, where per-message transport cost dominates",
		make: func(n int) workload { return &pipeWorkload{iters: n} },
	},
	{
		name: "pf_chan", unit: "step", unitsPerRound: 8000,
		why:  "particle filter, 256 particles on 2 PEs, raw spi.Runtime with a barrier every step and no executor or transport: latency-bound, loses when edge queues add wake-up latency",
		make: func(n int) workload { return &pfWorkload{steps: n} },
	},
	{
		name: "sessions_tcp", unit: "session", unitsPerRound: 2000,
		why:  "many 10-iteration sessions on one shared TCP link against the in-process session server: SOPEN/SCLOSE round trips, admission and per-session set-up dominate",
		make: func(n int) workload { return &sessionsWorkload{sessions: n} },
	},
	{
		name: "elastic_loopback", unit: "iteration", unitsPerRound: 19200,
		why:  "coordinator and 3 workers over loopback, epochs of 64 iterations, fault-free: per-epoch rendezvous, dispatch and checkpoint cost, the elastic-vs-static cliff",
		make: func(n int) workload { return &elasticWorkload{iters: n} },
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, s := range workloadSpecs {
		names[i] = s.name
	}
	return names
}
