package main

import (
	"os"
	"strings"
	"testing"

	"repro/cmd/internal/flagtest"
	"repro/cmd/internal/runcfg"
)

func newTestCLI() *cli {
	return &cli{nodeConfig: nodeConfig{Run: runcfg.Run{Iters: 10, Seed: 1, Transport: "tcp", ShmDir: os.TempDir()}}}
}

func TestFlagSurface(t *testing.T) {
	flagtest.Golden(t, "spinode", newFlagSet(newTestCLI()))
}

// TestModeFlags pins the choices for flags a mode used to accept and drop:
// -worker now runs over the transport -transport and -chaos select (it
// hard-coded plain TCP), and -serve refuses -resync, which session links
// cannot honour, as flag misuse naming the flag and the mode.
func TestModeFlags(t *testing.T) {
	c := newTestCLI()
	args := []string{"-worker", "-coord", "127.0.0.1:1", "-transport", "shm", "-shm-dir", t.TempDir(), "-chaos", "seed=3,drop=0.1"}
	if err := newFlagSet(c).Parse(args); err != nil {
		t.Fatal(err)
	}
	if _, err := c.prepare(); err != nil {
		t.Fatal(err)
	}
	if got := c.Opts.Transport.Name(); got != "shm+chaos" {
		t.Errorf("-worker -transport shm -chaos runs over %q, want shm+chaos", got)
	}

	for _, tc := range []struct {
		args string
		want []string // substrings of the misuse error
	}{
		{"-serve -resync -graph g.sdf -addrs a,b", []string{"-resync", "-serve"}},
		{"-worker", []string{"-worker", "-coord"}},
		{"-addrs a,b", []string{"-graph"}},
		{"-graph g.sdf", []string{"-addrs"}},
		{"-graph g.sdf -addrs a,b -transport carrier-pigeon", []string{"-transport", "carrier-pigeon"}},
	} {
		c := newTestCLI()
		if err := newFlagSet(c).Parse(strings.Fields(tc.args)); err != nil {
			t.Fatal(err)
		}
		_, err := c.prepare()
		if err == nil {
			t.Errorf("%s: accepted", tc.args)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", tc.args, err, w)
			}
		}
	}
}
