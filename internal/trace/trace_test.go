package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"mlimp/internal/event"
	"mlimp/internal/gnn"
	"mlimp/internal/graph"
	"mlimp/internal/isa"
	"mlimp/internal/predict"
	"mlimp/internal/sched"
)

func sampleJobs(t *testing.T) []*sched.Job {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	d, _ := graph.DatasetByName("ogbl-collab")
	m := gnn.NewGCN(rng, d.InputFeat, d.HiddenFeat, 3)
	w := gnn.BuildWorkload(rng, d, m, 1, 4)
	sys := sched.NewSystem(isa.Targets...)
	return w.SpMMJobs(predict.Oracle{}, sys)
}

func TestCaptureReplayRoundTrip(t *testing.T) {
	jobs := sampleJobs(t)
	tr := Capture("collab-spmm", jobs)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != "collab-spmm" || len(back.Records) != len(jobs) {
		t.Fatalf("trace = %+v", back)
	}
	replayed, err := back.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range replayed {
		orig := jobs[i]
		if j.ID != orig.ID || j.Name != orig.Name || j.Kind != orig.Kind {
			t.Fatalf("job %d metadata differs", i)
		}
		for _, tgt := range isa.Targets {
			jp, jok := j.Est.Get(tgt)
			op, ook := orig.Est.Get(tgt)
			if jp != op || jok != ook {
				t.Fatalf("job %d profile on %s differs:\n%+v\n%+v", i, tgt, jp, op)
			}
		}
	}
}

func TestReplayedJobsScheduleIdentically(t *testing.T) {
	// Replay fidelity at the level that matters: the scheduler must
	// produce the same estimated placements for replayed jobs as for
	// the originals (the truth closures are deliberately not captured,
	// like a real profiler trace).
	jobs := sampleJobs(t)
	tr := Capture("x", jobs)
	replayed, err := tr.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	sys := sched.NewSystem(isa.Targets...)
	for i := range jobs {
		for _, tgt := range isa.Targets {
			a := sys.ModelTime(jobs[i], tgt, 64)
			b := sys.ModelTime(replayed[i], tgt, 64)
			if a != b {
				t.Fatalf("job %d: model time differs on %s: %v vs %v", i, tgt, a, b)
			}
		}
	}
	resA := sched.NewGlobal().Schedule(sys, replayed)
	if len(resA.Assignments) != len(jobs) {
		t.Fatal("replayed jobs did not all schedule")
	}
}

func TestVersionMismatchRoundTrip(t *testing.T) {
	// A trace written by a "future" format version must be rejected on
	// both read paths: Read (deserialisation) and Jobs (reconstruction).
	tr := Capture("future", sampleJobs(t))
	tr.Version = Version + 1
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future-version trace read: err = %v, want version mismatch", err)
	}
	if _, err := tr.Jobs(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future-version trace replay: err = %v, want version mismatch", err)
	}
}

func TestCorruptJSONRoundTrip(t *testing.T) {
	// Serialise a valid trace, then corrupt the bytes in ways a broken
	// disk or a truncated copy produces; every corruption must surface
	// as a read error, never as a silently-wrong replay.
	tr := Capture("corrupt", sampleJobs(t))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for name, corrupt := range map[string][]byte{
		"truncated":      good[:len(good)/2],
		"garbage prefix": append([]byte("\x00\xff{"), good...),
		"braces swapped": bytes.ReplaceAll(good, []byte("{"), []byte("[")),
	} {
		if _, err := Read(bytes.NewReader(corrupt)); err == nil {
			t.Errorf("%s trace should fail to read", name)
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Error("malformed JSON should fail")
	}
	if _, err := Read(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version should fail")
	}
}

func TestJobsErrors(t *testing.T) {
	tr := &Trace{Version: Version, Records: []Record{{ID: 0, Name: "x"}}}
	if _, err := tr.Jobs(); err == nil {
		t.Error("record without profiles should fail")
	}
	tr = &Trace{Version: Version, Records: []Record{
		{ID: 0, Name: "x", Est: map[string]Profile{"bogus": {UnitCycles: 1, RepUnit: 1}}},
	}}
	if _, err := tr.Jobs(); err == nil {
		t.Error("unknown target should fail")
	}
	tr = &Trace{Version: 99}
	if _, err := tr.Jobs(); err == nil {
		t.Error("wrong version should fail")
	}
}

func TestOverheadSurvives(t *testing.T) {
	j := &sched.Job{ID: 0, Name: "o", Kind: "k", Est: &sched.Estimates{}}
	j.Est.Set(isa.SRAM, sched.Profile{UnitCycles: 100, RepUnit: 2, Overhead: 3 * event.Microsecond, MaxUseful: 7})
	replayed, err := Capture("o", []*sched.Job{j}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := replayed[0].Est.Get(isa.SRAM)
	if p.Overhead != 3*event.Microsecond || p.MaxUseful != 7 {
		t.Errorf("profile extras lost: %+v", p)
	}
}
