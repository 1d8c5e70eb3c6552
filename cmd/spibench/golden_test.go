package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestGolden pins every artifact spibench prints — all tables, the HDL
// trees, the Gantt chart and the DOT figures — byte for byte. A change to
// any of them is a reviewed diff of testdata/, made with -update.
func TestGolden(t *testing.T) {
	for _, args := range [][]string{nil, {"-tree"}, {"-gantt"}, {"-dot"}} {
		name := "all"
		if args != nil {
			name = strings.TrimPrefix(args[0], "-")
		}
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			golden(t, filepath.Join("testdata", name+".golden"), out.Bytes())
		})
	}
}

// golden compares got with the file at path, or rewrites the file under
// -update.
func golden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("output differs from %s at line %d (rerun with -update to accept):\n got: %q\nwant: %q", path, i+1, gl, wl)
		}
	}
}
