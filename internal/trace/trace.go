// Package trace records and replays MLIMP kernel traces. The paper's
// methodology replays profiler traces through the simulator ("The
// execution trace from the autograd profiler is replayed in the
// simulator", Section IV); this package provides the equivalent
// workflow: a Trace captures a job stream's kernel invocations with
// their per-memory cost profiles, serialises to JSON, and reconstructs
// the identical scheduler jobs later — so an expensive workload build
// (graph generation, sampling, predictor inference) runs once and the
// scheduling studies replay it.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"mlimp/internal/event"
	"mlimp/internal/isa"
	"mlimp/internal/sched"
)

// Version guards the on-disk format.
const Version = 1

// Record is one kernel invocation in a trace.
type Record struct {
	ID   int                `json:"id"`
	Name string             `json:"name"`
	Kind string             `json:"kind"`
	Est  map[string]Profile `json:"est"` // keyed by target name
}

// Profile mirrors sched.Profile with JSON tags.
type Profile struct {
	UnitCycles   int64   `json:"unit_cycles"`
	RepUnit      int     `json:"rep_unit"`
	LoadBytes    int64   `json:"load_bytes"`
	StoreBytes   int64   `json:"store_bytes"`
	ProgramBytes int64   `json:"program_bytes,omitempty"`
	Beta         float64 `json:"beta"`
	OverheadPs   int64   `json:"overhead_ps,omitempty"`
	MaxUseful    int     `json:"max_useful,omitempty"`
}

// Trace is a recorded job stream.
type Trace struct {
	Version int      `json:"version"`
	Label   string   `json:"label"`
	Records []Record `json:"records"`
}

// targetNames maps targets to stable trace keys.
var targetNames = map[isa.Target]string{
	isa.SRAM: "sram", isa.DRAM: "dram", isa.ReRAM: "reram",
}

func targetByName(name string) (isa.Target, bool) {
	for t, n := range targetNames {
		if n == name {
			return t, true
		}
	}
	return 0, false
}

// Capture records a job stream. Replayed jobs carry only the estimates
// (estimates become the simulated truth), so Capture is lossy for jobs
// whose TrueTime differs from the model — exactly like a real profiler
// trace, which records observed costs rather than closures.
func Capture(label string, jobs []*sched.Job) *Trace {
	tr := &Trace{Version: Version, Label: label}
	for _, j := range jobs {
		rec := Record{ID: j.ID, Name: j.Name, Kind: j.Kind, Est: map[string]Profile{}}
		for _, t := range isa.Targets {
			p, ok := j.Est.Get(t)
			if !ok {
				continue
			}
			rec.Est[targetNames[t]] = Profile{
				UnitCycles: p.UnitCycles, RepUnit: p.RepUnit,
				LoadBytes: p.LoadBytes, StoreBytes: p.StoreBytes,
				ProgramBytes: p.ProgramBytes, Beta: p.Beta,
				OverheadPs: int64(p.Overhead), MaxUseful: p.MaxUseful,
			}
		}
		tr.Records = append(tr.Records, rec)
	}
	return tr
}

// Jobs reconstructs the scheduler jobs from a trace.
func (tr *Trace) Jobs() ([]*sched.Job, error) {
	if tr.Version != Version {
		return nil, fmt.Errorf("trace: version %d, want %d", tr.Version, Version)
	}
	jobs := make([]*sched.Job, 0, len(tr.Records))
	for i, rec := range tr.Records {
		if len(rec.Est) == 0 {
			return nil, fmt.Errorf("trace: record %d has no profiles", i)
		}
		var est sched.Estimates
		for name, p := range rec.Est {
			t, ok := targetByName(name)
			if !ok {
				return nil, fmt.Errorf("trace: record %d: unknown target %q", i, name)
			}
			est.Set(t, sched.Profile{
				UnitCycles: p.UnitCycles, RepUnit: p.RepUnit,
				LoadBytes: p.LoadBytes, StoreBytes: p.StoreBytes,
				ProgramBytes: p.ProgramBytes, Beta: p.Beta,
				Overhead: event.Time(p.OverheadPs), MaxUseful: p.MaxUseful,
			})
		}
		jobs = append(jobs, &sched.Job{ID: rec.ID, Name: rec.Name, Kind: rec.Kind, Est: &est})
	}
	return jobs, nil
}

// Write serialises the trace as indented JSON.
func (tr *Trace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// Read parses a trace.
func Read(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if tr.Version != Version {
		return nil, fmt.Errorf("trace: version %d, want %d", tr.Version, Version)
	}
	return &tr, nil
}
