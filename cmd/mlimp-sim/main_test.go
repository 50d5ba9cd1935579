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
)

// bin is the mlimp-sim binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mlimp-sim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "mlimp-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build mlimp-sim: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestExitCodes pins the CLI contract: valid runs exit 0, flag errors
// exit 2 and name the offending flag on stderr.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // must appear on stderr; "" checks nothing
	}{
		{"default", nil, 0, ""},
		{"serving", []string{"-interval-ms", "0.5"}, 0, ""},
		{"mlp predictor", []string{"-predictor", "mlp", "-batches", "1"}, 0, ""},
		{"two layers", []string{"-scheduler", "adaptive", "-layers", "sram,reram"}, 0, ""},
		{"bogus predictor", []string{"-predictor", "bogus"}, 2, `unknown -predictor "bogus"`},
		{"batches 0", []string{"-batches", "0"}, 2, "-batches must be positive"},
		{"negative batch size", []string{"-batch-size", "-3"}, 2, "-batch-size must be positive"},
		{"negative interval", []string{"-interval-ms", "-1"}, 2, "-interval-ms must be >= 0"},
		{"NaN interval", []string{"-interval-ms", "NaN"}, 2, "-interval-ms must be >= 0"},
		{"unknown dataset", []string{"-dataset", "foo"}, 2, `unknown -dataset "foo"`},
		{"unknown scheduler", []string{"-scheduler", "foo"}, 2, `unknown -scheduler "foo"`},
		{"unknown layer", []string{"-layers", "sram,foo"}, 2, `-layers: unknown layer "foo"`},
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
				t.Errorf("mlimp-sim %v exited %d, want %d; stderr:\n%s", c.args, code, c.code, &stderr)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("mlimp-sim %v stderr lacks %q:\n%s", c.args, c.stderr, &stderr)
			}
		})
	}
}
