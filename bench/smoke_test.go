package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeSize runs each workload at about 1/50 of its benchmark size.
const smokeSize = 0.02

// Every workload runs through the benchmark's own code path, traced, at
// smoke size: all checks pass, both result lines carry every declared
// metric, and the trace files are written.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), w.name)
			rep, err := measure(w, options{seed: 2, seconds: 0, size: smokeSize, traceDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1+2*minRepeats {
				t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, traced := range []bool{false, true} {
				r := *rep
				r.Traced = traced
				line, err := resultLine(&r)
				if err != nil {
					t.Fatal(err)
				}
				var res struct {
					Correct   bool                       `json:"correct"`
					Attempted int                        `json:"attempted"`
					Failed    int                        `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatal(err)
				}
				want := len(endToEnd)
				if traced {
					want = len(perLayer)
				}
				if len(res.Metrics) != want {
					t.Errorf("traced=%v: %d metrics printed, want %d", traced, len(res.Metrics), want)
				}
			}
			for _, f := range []string{"spans.json", "cpu.pprof"} {
				if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
					t.Errorf("%s not written: %v", f, err)
				}
			}
		})
	}
}
