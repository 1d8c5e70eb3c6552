// Package flagtest locks the CLI flag surface: each command's test hands
// its FlagSet to Golden, which compares every flag's name and default with
// the list in flags.golden — captured from the commit before the commands
// moved onto cmd/internal/runcfg. A flag that is added, renamed, removed or
// re-defaulted fails there and has to be an explicit edit of that file.
package flagtest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// Golden fails t unless fs declares exactly the flags flags.golden lists
// for cli, with the same defaults. Usage text is free to change.
func Golden(t *testing.T, cli string, fs *flag.FlagSet) {
	t.Helper()
	_, self, _, _ := runtime.Caller(0)
	golden, err := os.ReadFile(filepath.Join(filepath.Dir(self), "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if rest, ok := strings.CutPrefix(line, cli+"\t"); ok {
			want = append(want, rest)
		}
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) {
		got = append(got, fmt.Sprintf("%s\t%q", f.Name, f.DefValue))
	})
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("%s flag surface changed (name, default):\n--- got\n%s\n--- want (flags.golden)\n%s", cli, g, w)
	}
}
