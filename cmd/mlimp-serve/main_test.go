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
)

// bin is the mlimp-serve binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mlimp-serve-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "mlimp-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build mlimp-serve: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestExitCodes pins the CLI contract: valid runs exit 0, flag errors
// exit 2 and name the error on stderr.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // must appear on stderr; "" checks nothing
	}{
		{"default", nil, 0, ""},
		{"open", []string{"-open"}, 0, ""},
		{"open gnn blind", []string{"-open", "-source", "gnn", "-admission", "blind"}, 0, ""},
		{"j 0", []string{"-j", "0"}, 2, "-j must be >= 1"},
		{"j -1", []string{"-j", "-1"}, 2, "-j must be >= 1"},
		{"hub crash on one hub", []string{"-hubs", "1", "-hub-crash", "0@1:5"}, 2,
			cluster.ErrHubCrashNeedsTree.Error()},
		{"lossy edge without deadline", []string{"-edge-fault", "hub0>node3(reram)@1:5:0.5:0"}, 2,
			cluster.ErrEdgeFaultNeedsDeadline.Error()},
		{"delay-only edge on one hub", []string{"-edge-fault", "hub0>node3(reram)@1:5:0:0.1"}, 0, ""},
		{"hubs 3 on 4 nodes", []string{"-hubs", "3"}, 2, cluster.ErrTopologyMismatch.Error()},
		{"unknown layer", []string{"-nodes", "sram,foo"}, 1, `node 0: unknown layer "foo"`},
		{"bad scale", []string{"-nodes", "sram/dram@-2"}, 1, `node 1: bad scale "-2"`},
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
				t.Errorf("mlimp-serve %v exited %d, want %d; stderr:\n%s", c.args, code, c.code, &stderr)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("mlimp-serve %v stderr lacks %q:\n%s", c.args, c.stderr, &stderr)
			}
		})
	}
}
