package workload

import (
	"testing"

	"mlimp/internal/apps"
	"mlimp/internal/isa"
	"mlimp/internal/sched"
)

func TestCombosWellFormed(t *testing.T) {
	if len(Combos) != 7 {
		t.Fatalf("want 7 combinations, got %d", len(Combos))
	}
	for _, name := range ComboNames() {
		appNames, ok := Combos[name]
		if !ok {
			t.Fatalf("combo %s missing", name)
		}
		if len(appNames) != 4 {
			t.Errorf("combo %s has %d apps, want 4 (Table II)", name, len(appNames))
		}
		for _, an := range appNames {
			if _, ok := apps.ByName(an); !ok {
				t.Errorf("combo %s references unknown app %q", name, an)
			}
		}
	}
}

func TestJobsExpansion(t *testing.T) {
	a, _ := apps.ByName("kmeans")
	jobs := Jobs(a, 100)
	if len(jobs) != a.Jobs {
		t.Fatalf("jobs = %d, want %d", len(jobs), a.Jobs)
	}
	for i, j := range jobs {
		if j.ID != 100+i || j.Kind != "kmeans" {
			t.Errorf("job %d: id=%d kind=%q", i, j.ID, j.Kind)
		}
		if j.TrueTime != nil {
			t.Error("deterministic app jobs must not carry separate truth")
		}
		for _, tgt := range isa.Targets {
			p, ok := j.Est.Get(tgt)
			if !ok || p.UnitCycles <= 0 || p.RepUnit < 1 {
				t.Fatalf("bad profile on %s: %+v", tgt, p)
			}
		}
	}
}

func TestComboJobsCountsAndPanics(t *testing.T) {
	jobs := ComboJobs("A")
	if len(jobs) != 4*8 {
		t.Errorf("combo A jobs = %d, want 32", len(jobs))
	}
	ids := map[int]bool{}
	for _, j := range jobs {
		if ids[j.ID] {
			t.Fatalf("duplicate id %d", j.ID)
		}
		ids[j.ID] = true
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown combo should panic")
		}
	}()
	ComboJobs("Z")
}

func TestPreferencesAreDiverse(t *testing.T) {
	// Figure 17: applications prefer different memories — bulk bitwise
	// work leans DRAM, dot-product work ReRAM, small compute-dense
	// kernels SRAM. The suite must cover at least two distinct
	// preferred targets or the multiprogramming study is vacuous.
	sys := sched.NewSystem(isa.SRAM, isa.DRAM, isa.ReRAM)
	seen := map[isa.Target]bool{}
	for _, a := range apps.Suite() {
		seen[PreferredTarget(sys, a)] = true
	}
	if len(seen) < 2 {
		t.Errorf("all apps prefer the same memory: %v", seen)
	}
}

func TestComboScheduling(t *testing.T) {
	sys := sched.NewSystem(isa.SRAM, isa.DRAM, isa.ReRAM)
	for _, name := range ComboNames() {
		jobs := ComboJobs(name)
		res := sched.NewGlobal().Schedule(sys, jobs)
		if len(res.Assignments) != len(jobs) {
			t.Errorf("combo %s: scheduled %d of %d", name, len(res.Assignments), len(jobs))
		}
		if res.Makespan <= 0 {
			t.Errorf("combo %s: bad makespan", name)
		}
	}
}

func TestMultiLayerBeatsSingleLayer(t *testing.T) {
	// Figure 18's headline: MLIMP-ALL beats any single-layer system on
	// mixed combinations (7.1x vs single-layer IMP in the paper).
	all := sched.NewSystem(isa.SRAM, isa.DRAM, isa.ReRAM)
	for _, name := range []string{"A", "F"} {
		jobs := ComboJobs(name)
		mAll := sched.NewGlobal().Schedule(all, jobs).Makespan
		for _, tgt := range isa.Targets {
			single := sched.NewSystem(tgt)
			mSingle := sched.NewGlobal().Schedule(single, jobs).Makespan
			if mSingle < mAll {
				t.Errorf("combo %s: single %s (%v) beat MLIMP-ALL (%v)", name, tgt, mSingle, mAll)
			}
		}
	}
}
