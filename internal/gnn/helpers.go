package gnn

import (
	"mlimp/internal/isa"
	memory "mlimp/internal/mem"
	"mlimp/internal/sched"
)

// mem returns the Table III configuration of a target.
func mem(t isa.Target) memory.Config { return memory.ConfigFor(t) }

// clampArrays bounds a rep-unit to what the system's layer can grant.
func clampArrays(sys *sched.System, t isa.Target, arrays int) int {
	if arrays < 1 {
		return 1
	}
	if l := sys.Layers[t]; l != nil && arrays > l.Capacity() {
		return l.Capacity()
	}
	return arrays
}
