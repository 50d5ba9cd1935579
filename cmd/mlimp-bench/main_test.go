package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mlimp/internal/cluster"
	"mlimp/internal/fault"
	"mlimp/internal/fixed"
)

// bin is the mlimp-bench binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mlimp-bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "mlimp-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build mlimp-bench: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestExitCodes pins the CLI contract: -list exits 0, flag errors exit
// 2 before any experiment runs and name the error on stderr.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // must appear on stderr; "" checks nothing
	}{
		{"list", []string{"-list"}, 0, ""},
		{"j 0", []string{"-j", "0"}, 2, "-j must be >= 1"},
		{"sim-j 0", []string{"-sim-j", "0"}, 2, "-sim-j must be >= 1"},
		{"hubs 3 on 4 nodes", []string{"-hubs", "3"}, 2, cluster.ErrTopologyMismatch.Error()},
		{"tenants 0", []string{"-tenants", "0"}, 2, ErrBadTenants.Error()},
		{"tenants x", []string{"-tenants", "x"}, 2, ErrBadTenants.Error()},
		{"tenants empty", []string{"-tenants", ","}, 2, ErrBadTenants.Error()},
		{"packing bogus", []string{"-packing", "bogus"}, 2, `unknown packing "bogus"`},
		{"replicate bogus", []string{"-replicate", "bogus"}, 2, `unknown policy "bogus"`},
		{"qformat bogus", []string{"-qformat", "bogus"}, 2, fixed.ErrBadFormat.Error()},
		{"hub crash past the tree", []string{"-hub-crash", "2@1:5"}, 2, fault.ErrBadHubRegion.Error()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, c.args...)
			cmd.Stdout = io.Discard
			cmd.Stderr = &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}
			if code != c.code {
				t.Errorf("mlimp-bench %v exited %d, want %d; stderr:\n%s", c.args, code, c.code, &stderr)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("mlimp-bench %v stderr lacks %q:\n%s", c.args, c.stderr, &stderr)
			}
		})
	}
}
