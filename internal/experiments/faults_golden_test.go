package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateFaultGoldens = flag.Bool("update", false, "rewrite testdata/*.golden from the current fleet")

// TestFaultArtefactsGolden pins the fault-mode experiment artefacts —
// the node-crash cascade (faults) on the flat fabric and on a 2-region
// tree, and the region-fault sweep (partition) — to testdata/*.golden
// at sim workers 1, 2, 4 and 8. Liveness detections, evictions and
// takeovers all show in these tables, so a change to how heartbeats are
// carried must leave them byte-identical.
func TestFaultArtefactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet replays are slow")
	}
	for _, c := range []struct {
		name, id string
		hubs     int
	}{
		{"faults", "faults", 1},
		{"faults-hubs2", "faults", 2},
		{"partition", "partition", SimHubs()},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", c.name+".golden")
			if *updateFaultGoldens {
				if err := os.WriteFile(path, []byte(replay(t, c.id, c.hubs, 1)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				if got := replay(t, c.id, c.hubs, workers); got != string(want) {
					t.Errorf("%s at workers=%d diverges from %s:\n%s", c.id, workers, path, got)
				}
			}
		})
	}
}
