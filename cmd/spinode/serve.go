package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/cmd/internal/runcfg"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/transport"
)

// parseWeights parses the -tenant-weights grammar: "alice=3,bob=1".
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad entry %q (want tenant=weight)", part)
		}
		var w int
		if _, err := fmt.Sscanf(val, "%d", &w); err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight %q for tenant %q", val, name)
		}
		out[name] = w
	}
	return out, nil
}

// runServe turns this node into a multi-tenant session server: it
// accepts one link per client node, admits OPENs under the configured
// policy, and runs one session-scoped execution of the graph per
// admitted session. It returns when stop is closed (after draining
// running sessions) or on a listener error.
func runServe(cfg nodeConfig, w io.Writer, stop <-chan struct{}) error {
	sys, err := cfg.Build()
	if err != nil {
		return err
	}
	opts, g := cfg.Opts, sys.Graph
	if opts.Obs == nil {
		opts.Obs = obs.New()
		opts.Obs.Node = opts.Node
	}
	if ft, ok := opts.Transport.(*transport.FaultTransport); ok {
		ft.SetObserver(opts.Obs)
	}

	scfg := cfg.Server
	scfg.Graph, scfg.Mapping, scfg.NodeOf = g, sys.Mapping, sys.NodeOf
	scfg.Node, scfg.Iterations, scfg.Block, scfg.Obs = opts.Node, cfg.Iters, opts.Block, opts.Obs
	scfg.Kernels = sys.SessionKernels
	srv, err := session.NewServer(scfg)
	if err != nil {
		return err
	}

	ln := opts.Listener
	if ln == nil {
		if ln, err = opts.Transport.Listen(opts.Addrs[opts.Node]); err != nil {
			return err
		}
	}
	adm := scfg.Admission
	fmt.Fprintf(w, "spinode: serving graph %s as node %d on %s (max-sessions=%d tenant-quota=%d tenant-bytes=%d)\n",
		g.Name(), opts.Node, ln.Addr(), adm.MaxSessions, adm.TenantQuota, adm.MaxTenantBytes)

	if cfg.HTTPAddr != "" {
		closeHTTP, err := serveHTTP(cfg.HTTPAddr, opts.Obs, func() any {
			return map[string]any{
				"status":   "serving",
				"node":     opts.Node,
				"graph":    g.Name(),
				"sessions": srv.Snapshot(),
			}
		}, w)
		if err != nil {
			return err
		}
		defer closeHTTP()
	}
	if cfg.StatsInterval > 0 {
		tick := time.NewTicker(cfg.StatsInterval)
		defer tick.Stop()
		go func() {
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					s := srv.Snapshot()
					fmt.Fprintf(w, "sessions: live=%d degraded=%d admitted=%d rejected=%d shed=%d reaped=%d completed=%d failed=%d\n",
						s.Live, s.Degraded, s.Admitted, s.Rejected, s.Shed, s.Reaped, s.Completed, s.Failed)
				}
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- srv.Serve(ln, runcfg.LinkConfig(&opts), func(format string, args ...any) {
			fmt.Fprintf(w, "spinode: "+format+"\n", args...)
		})
	}()
	select {
	case <-stop:
		ln.Close()
		<-serveErr
	case err = <-serveErr:
		// The listener died under us (not a requested stop): report it.
		ln.Close()
		srv.Close()
		return fmt.Errorf("serve: %w", err)
	}
	srv.Close()
	s := srv.Snapshot()
	fmt.Fprintf(w, "spinode: served %d sessions (%d completed, %d failed, %d shed, %d rejected)\n",
		s.Admitted, s.Completed, s.Failed, s.Shed, s.Rejected)
	return nil
}
