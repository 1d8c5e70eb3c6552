package main

import (
	"fmt"
	"io"

	"repro/internal/session"
	"repro/internal/transport"
)

// startInproc runs a session server inside the spiload process so a load
// run needs no external spinode: the server side of the graph is computed
// from -assign/-nodeof exactly as spinode -serve would, and the returned
// address is what the load loop dials over tr. listenAddr names the server
// endpoint on tr. The stop function tears the server down.
func startInproc(cfg loadConfig, tr transport.Transport, listenAddr string, w io.Writer) (func(), string, error) {
	// The server is the single peer the client shares edges with.
	sys, serverNode, _, err := clientSystem(cfg)
	if err != nil {
		return nil, "", err
	}
	srv, err := session.NewServer(session.ServerConfig{
		Graph: sys.Graph, Mapping: sys.Mapping, NodeOf: sys.NodeOf,
		Node: serverNode, Iterations: cfg.Iters,
		Kernels:        sys.SessionKernels,
		Admission:      cfg.Admission,
		SessionTimeout: cfg.SessionTimeout,
	})
	if err != nil {
		return nil, "", err
	}
	ln, err := tr.Listen(listenAddr)
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	stopping, served := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(served)
		err := srv.Serve(ln, transport.LinkConfig{Reconnect: cfg.Link.Reconnect}, func(format string, args ...any) {
			fmt.Fprintf(w, "spiload: inproc "+format+"\n", args...)
		})
		select {
		case <-stopping: // the closed listener's error: the requested stop
		default:
			fmt.Fprintf(w, "spiload: inproc server: %v\n", err)
		}
	}()
	stop := func() {
		close(stopping)
		ln.Close()
		<-served
		srv.Close()
	}
	return stop, ln.Addr(), nil
}
