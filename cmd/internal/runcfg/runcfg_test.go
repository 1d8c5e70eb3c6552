package runcfg

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/spi"
	"repro/internal/transport"
)

const pipeline = "../../../examples/graphs/pipeline.sdf"

// parse binds every flag group onto a fresh Run and parses args.
func parse(args ...string) (*Run, error) {
	r := &Run{Iters: 10, Seed: 1, Transport: "tcp"}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	r.GraphFlags(fs)
	r.NodeOfFlag(fs)
	r.SeedFlag(fs)
	r.FissionFlags(fs)
	r.LivenessFlags(fs)
	r.WireFlags(fs)
	r.ChaosFlag(fs)
	ReconnectFlags(fs, &r.Opts.Reconnect)
	fs.StringVar(&r.Transport, "transport", r.Transport, "")
	return r, fs.Parse(args)
}

// resolve takes a command line through everything a CLI does with it
// before running: parse, Build, OpenTransport.
func resolve(args ...string) (*Run, *System, error) {
	r, err := parse(args...)
	if err != nil {
		return r, nil, err
	}
	sys, err := r.Build()
	if err != nil {
		return r, nil, err
	}
	_, _, cleanup, err := r.OpenTransport()
	if err != nil {
		return r, nil, err
	}
	cleanup()
	return r, sys, nil
}

// TestMalformedInput is the one table of bad run descriptions: each must
// fail with an error that names the offending flag, and none may panic.
func TestMalformedInput(t *testing.T) {
	good := []string{"-graph", pipeline, "-assign", "0,1,1"}
	for _, tc := range []struct {
		name string
		args []string
		flag string
	}{
		{"empty assign", []string{"-graph", pipeline, "-assign", ""}, "-assign"},
		{"non-numeric assign", []string{"-graph", pipeline, "-assign", "0,x,1"}, "-assign"},
		{"gap in assign", []string{"-graph", pipeline, "-assign", "0,,1"}, "-assign"},
		{"assign missing", []string{"-graph", pipeline}, "-assign"},
		{"assign shorter than actors", []string{"-graph", pipeline, "-assign", "0,1"}, "-assign"},
		{"assign longer than actors", []string{"-graph", pipeline, "-assign", "0,1,1,0"}, "-assign"},
		{"assign leaves a processor empty", []string{"-graph", pipeline, "-assign", "0,2,2"}, "-assign"},
		{"negative processor", []string{"-graph", pipeline, "-assign", "0,-1,0"}, "-assign"},
		{"non-numeric nodeof", append(good[:4:4], "-nodeof", "0,b"), "-nodeof"},
		{"nodeof shorter than processors", append(good[:4:4], "-nodeof", "0"), "-nodeof"},
		{"nodeof longer than processors", append(good[:4:4], "-nodeof", "0,1,0"), "-nodeof"},
		{"nodeof fits neither the serial nor the fissioned processors", append(good[:4:4], "-fission", "3", "-nodeof", "0,1,0"), "-nodeof"},
		{"unknown fission actor", append(good[:4:4], "-fission", "2", "-fission-actor", "nobody"), "-fission-actor"},
		{"unfissionable actor", append(good[:4:4], "-fission", "2", "-fission-actor", "src"), "-fission"},
		{"unknown transport", append(good[:4:4], "-transport", "carrier-pigeon"), "-transport"},
		{"bad chaos key", append(good[:4:4], "-chaos", "banana=1"), "-chaos"},
		{"bad chaos value", append(good[:4:4], "-chaos", "drop=often"), "-chaos"},
		{"unreadable graph", []string{"-graph", "no/such/file.sdf", "-assign", "0"}, "-graph"},
		{"graph missing", []string{"-assign", "0,1,1"}, "-graph"},
		{"malformed graph", []string{"-graph", "runcfg.go", "-assign", "0"}, "-graph"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			_, _, err := resolve(tc.args...)
			if err == nil {
				t.Fatalf("%v: accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("error %q does not name %s", err, tc.flag)
			}
		})
	}
	if _, _, err := resolve(good...); err != nil {
		t.Fatalf("the well-formed description failed: %v", err)
	}
}

// TestFlagsBindLibraryStructs: the shared flags land in the library's own
// option structs, and defaults come from the struct value passed in.
func TestFlagsBindLibraryStructs(t *testing.T) {
	r, err := parse("-block", "16", "-resync", "-heartbeat", "250ms", "-peer-timeout", "1s", "-stall-timeout", "3s",
		"-deadline", "9s", "-reconnect", "5", "-chaos", "seed=7,drop=0.05", "-seed", "11", "-iters", "40",
		"-assign", "0, 1,2", "-nodeof", "0,0,1")
	if err != nil {
		t.Fatal(err)
	}
	o := r.Opts
	if o.Block != 16 || !o.Resync || o.Heartbeat.Milliseconds() != 250 || o.PeerTimeout.Seconds() != 1 ||
		o.StallTimeout.Seconds() != 3 || o.Reconnect.Attempts != 5 || o.Reconnect.Deadline.Seconds() != 15 {
		t.Errorf("DistOptions = %+v", o)
	}
	if r.Deadline.Seconds() != 9 || r.Seed != 11 || r.Iters != 40 || r.Chaos == nil || r.Chaos.Seed != 7 ||
		!reflect.DeepEqual(r.Assign, []int{0, 1, 2}) || !reflect.DeepEqual(r.NodeOf, []int{0, 0, 1}) {
		t.Errorf("Run = %+v", r)
	}
	lc := LinkConfig(&o)
	if !lc.Sessions || !lc.Blocked || lc.Heartbeat != o.Heartbeat ||
		lc.PeerTimeout != o.PeerTimeout || lc.Reconnect != o.Reconnect || lc.ResyncEdges != nil {
		t.Errorf("LinkConfig = %+v", lc)
	}

	// spictl's defaults: 25 ms heartbeat, 5 min deadline, from the struct.
	d := &Run{Deadline: 300e9, Opts: spi.DistOptions{Heartbeat: 25e6}}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	d.LivenessFlags(fs)
	if got := fs.Lookup("heartbeat").DefValue + " " + fs.Lookup("deadline").DefValue; got != "25ms 5m0s" {
		t.Errorf("defaults = %q, want the values of the struct passed in", got)
	}
}

// TestBuildFission: -nodeof may name the serial graph's processors or the
// fissioned graph's; the replicas of the former land on the scatter
// stage's node, and the fissioned system's digests equal the serial one's.
func TestBuildFission(t *testing.T) {
	_, serial, err := resolve("-graph", pipeline, "-assign", "0,1,1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.NodeOf, []int{0, 1}) || serial.Nodes() != 2 || serial.Plan != nil {
		t.Fatalf("serial system = %+v", serial)
	}
	r, fiss, err := resolve("-graph", pipeline, "-assign", "0,1,1", "-nodeof", "0,1", "-fission", "3")
	if err != nil {
		t.Fatal(err)
	}
	home := fiss.NodeOf[fiss.Mapping.Proc[fiss.Plan.Scatter]]
	if fiss.Mapping.NumProcs != 5 || !reflect.DeepEqual(fiss.NodeOf, []int{0, 1, home, home, home}) || fiss.Nodes() != 2 {
		t.Fatalf("fissioned NodeOf = %v over %d processors (scatter on node %d)", fiss.NodeOf, fiss.Mapping.NumProcs, home)
	}
	_, full, err := resolve("-graph", pipeline, "-assign", "0,1,1", "-nodeof", "0,1,2,2,0", "-fission", "3")
	if err != nil || !reflect.DeepEqual(full.NodeOf, []int{0, 1, 2, 2, 0}) {
		t.Fatalf("a -nodeof naming every fissioned processor: %v, %v", full, err)
	}

	digest := func(sys *System) uint64 {
		t.Helper()
		ks, digests, err := sys.Kernels()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spi.Execute(sys.Graph, sys.Mapping, ks, r.Iters); err != nil {
			t.Fatal(err)
		}
		return *digests["sink"]
	}
	if s, f := digest(serial), digest(fiss); s != f || s == 0 {
		t.Errorf("sink digest: serial %016x, fissioned %016x", s, f)
	}
}

// TestOpenTransport: each -transport value yields its carrier and local
// addresses a one-process run can listen on, n of them at once.
func TestOpenTransport(t *testing.T) {
	for name, want := range map[string]string{"tcp": "tcp", "shm": "shm", "loopback": "loopback"} {
		r := Run{Transport: name}
		tr, local, cleanup, err := r.OpenTransport()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Name() != want {
			t.Errorf("-transport %s opened %q", name, tr.Name())
		}
		var lns []transport.Listener
		for i := 0; i < 3; i++ {
			ln, err := tr.Listen(local(i))
			if err != nil {
				t.Fatalf("-transport %s endpoint %d: %v", name, i, err)
			}
			lns = append(lns, ln)
		}
		for _, ln := range lns {
			ln.Close()
		}
		cleanup()
	}
}
