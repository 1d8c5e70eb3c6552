package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/demo"
	"repro/internal/orch"
	"repro/internal/spi"
	"repro/internal/transport"
)

// runWorker registers with the coordinator and serves dispatched
// partitions until Shutdown or ctx cancellation. wc carries the transport,
// coordinator address, name and link tuning; the worker needs no graph,
// assignment, or address map up front — every partition spec arrives
// self-contained from the control plane — only the host to bind its
// per-deployment data listeners on and the kernel seed.
func runWorker(ctx context.Context, wc orch.WorkerConfig, dataHost string, seed uint64, w io.Writer) error {
	if wc.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		wc.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	wc.Kernels = func(spec *spi.PartitionSpec) (*orch.KernelSet, error) {
		kernels, sinks := demo.PartKernels(spec, seed)
		return &orch.KernelSet{Kernels: kernels, Collect: sinks.Take}, nil
	}
	wc.DataAddr = func(epoch uint32) string {
		return dataHost + ":0" // ephemeral port per deployment
	}
	wc.Retry = transport.RetryConfig{Attempts: 60, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second}
	wk, err := orch.NewWorker(wc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "spinode: worker %s registering with coordinator at %s\n", wc.Name, wc.Coord)
	if err := wk.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	fmt.Fprintf(w, "spinode: worker %s done\n", wc.Name)
	return nil
}
