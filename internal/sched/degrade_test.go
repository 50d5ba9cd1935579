package sched

import (
	"testing"

	"mlimp/internal/isa"
)

func degradeJob() *Job {
	return &Job{ID: 1, Name: "deg", Kind: "gemm", Est: estOf(map[isa.Target]Profile{
		isa.SRAM: {UnitCycles: 1 << 22, RepUnit: 4, LoadBytes: 1 << 14, Beta: 0.8},
	})}
}

func TestDegradeTriggersKneeResearch(t *testing.T) {
	sys := NewSystem(isa.SRAM)
	j := degradeJob()
	healthyCap := sys.Layers[isa.SRAM].Capacity()
	kneeHealthy := sys.KneeAlloc(j, isa.SRAM)
	timeHealthy := sys.ModelTime(j, isa.SRAM, kneeHealthy)

	removed := sys.Degrade(isa.SRAM, healthyCap-4)
	if removed != healthyCap-4 {
		t.Fatalf("Degrade removed %d, want %d", removed, healthyCap-4)
	}
	if sys.Layers[isa.SRAM].Capacity() != 4 {
		t.Fatalf("degraded capacity = %d, want 4", sys.Layers[isa.SRAM].Capacity())
	}
	kneeDegraded := sys.KneeAlloc(j, isa.SRAM)
	if kneeDegraded > 4 {
		t.Errorf("degraded knee %d exceeds capacity 4", kneeDegraded)
	}
	if kneeDegraded >= kneeHealthy {
		t.Errorf("degraded knee %d not below healthy knee %d", kneeDegraded, kneeHealthy)
	}
	if timeDegraded := sys.ModelTime(j, isa.SRAM, kneeDegraded); timeDegraded < timeHealthy {
		t.Errorf("degraded knee time %v beats healthy %v", timeDegraded, timeHealthy)
	}

	if sys.Restore(isa.SRAM, healthyCap) != healthyCap-4 {
		t.Error("Restore not clamped to lost arrays")
	}
	if sys.Layers[isa.SRAM].Capacity() != healthyCap {
		t.Errorf("restored capacity = %d, want %d", sys.Layers[isa.SRAM].Capacity(), healthyCap)
	}
	if knee := sys.KneeAlloc(j, isa.SRAM); knee != kneeHealthy {
		t.Errorf("restored knee = %d, want memoized %d", knee, kneeHealthy)
	}
}

func TestDegradeFloorsAtOneArray(t *testing.T) {
	sys := NewSystem(isa.ReRAM)
	cap0 := sys.Layers[isa.ReRAM].Capacity()
	if removed := sys.Degrade(isa.ReRAM, cap0*10); removed != cap0-1 {
		t.Errorf("over-degrade removed %d, want %d", removed, cap0-1)
	}
	if sys.Layers[isa.ReRAM].Capacity() != 1 {
		t.Errorf("floored capacity = %d, want 1", sys.Layers[isa.ReRAM].Capacity())
	}
	if sys.Lost(isa.ReRAM) != cap0-1 || sys.LostTotal() != cap0-1 {
		t.Errorf("Lost = %d / total %d, want %d", sys.Lost(isa.ReRAM), sys.LostTotal(), cap0-1)
	}
	if sys.HealthyCapacity(isa.ReRAM) != cap0 {
		t.Errorf("HealthyCapacity = %d, want baseline %d", sys.HealthyCapacity(isa.ReRAM), cap0)
	}
}

func TestDegradeAbsentAndNoops(t *testing.T) {
	sys := NewSystem(isa.SRAM)
	if sys.Degrade(isa.DRAM, 5) != 0 {
		t.Error("degrading an absent layer removed arrays")
	}
	if sys.Restore(isa.SRAM, 5) != 0 {
		t.Error("restoring a healthy layer returned arrays")
	}
	if sys.Degrade(isa.SRAM, 0) != 0 || sys.Degrade(isa.SRAM, -3) != 0 {
		t.Error("non-positive degrade removed arrays")
	}
	if sys.HealthyCapacity(isa.DRAM) != 0 {
		t.Error("HealthyCapacity of an absent layer nonzero")
	}
	if sys.HealthyCapacity(isa.SRAM) != sys.Layers[isa.SRAM].Capacity() {
		t.Error("HealthyCapacity of an untouched layer differs from current")
	}
}
