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

// workerConfig is everything runWorker needs; main fills it from flags,
// tests construct it directly.
type workerConfig struct {
	Coord       string
	Name        string
	DataHost    string
	Seed        uint64
	Heartbeat   time.Duration
	PeerTimeout time.Duration
	Reconnect   transport.ReconnectConfig
}

// runWorker registers with the coordinator and serves dispatched
// partitions until Shutdown or ctx cancellation. The worker needs no
// graph, assignment, or address map up front: every partition spec
// arrives self-contained from the control plane.
func runWorker(ctx context.Context, cfg workerConfig, tr transport.Transport, w io.Writer) error {
	name := cfg.Name
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	wk, err := orch.NewWorker(orch.WorkerConfig{
		Transport: tr, Coord: cfg.Coord, Name: name,
		Kernels: func(spec *spi.PartitionSpec) (*orch.KernelSet, error) {
			kernels, sinks := demo.PartKernels(spec, cfg.Seed)
			return &orch.KernelSet{Kernels: kernels, Collect: sinks.Take}, nil
		},
		DataAddr: func(epoch uint32) string {
			return cfg.DataHost + ":0" // ephemeral port per deployment
		},
		Retry: transport.RetryConfig{
			Attempts: 60, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second,
		},
		Heartbeat: cfg.Heartbeat, PeerTimeout: cfg.PeerTimeout,
		Reconnect: cfg.Reconnect,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "spinode: worker %s registering with coordinator at %s\n", name, cfg.Coord)
	if err := wk.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	fmt.Fprintf(w, "spinode: worker %s done\n", name)
	return nil
}
