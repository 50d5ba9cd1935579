package predict

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlimp/internal/isa"
	"mlimp/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata/refit.golden from the current trainer")

// driftedObservations draws n serving observations of subgraphs from
// pool: oracle cycles scaled by a drift factor in [1, 1.5), on targets
// drawn 5:2:1 SRAM:DRAM:ReRAM.
func driftedObservations(p *MLP, rng *rand.Rand, pool []*tensor.CSR, f, n int) []Observation {
	obs := make([]Observation, n)
	for i := range obs {
		adj := pool[rng.Intn(len(pool))]
		tgt := isa.SRAM
		switch k := rng.Intn(8); {
		case k >= 7:
			tgt = isa.ReRAM
		case k >= 5:
			tgt = isa.DRAM
		}
		drift := 1 + 0.5*rng.Float64()
		obs[i] = p.Observe(adj, f, tgt, int64(float64(Oracle{}.UnitCycles(adj, f, tgt))*drift))
	}
	return obs
}

// TestRefitGolden pins predictor training bit for bit: the state of
// every cycles net after Train and after each Refit of a sliding,
// SRAM-heavy observation window, then UnitCycles on held-out subgraphs.
// The SRAM net ends past Adam step 37,412, where both bias corrections
// have reached exactly 1.0; the ReRAM net stays below it.
func TestRefitGolden(t *testing.T) {
	path := filepath.Join("testdata", "refit.golden")
	subs := sampleSubgraphs(t, 41, 96)
	train, pool, held := subs[:48], subs[48:80], subs[80:]
	const f = 128
	rng := rand.New(rand.NewSource(42))
	p := Train(rng, train, f, TrainConfig{Epochs: 100, LR: 2e-3})

	var lines []string
	digests := func(label string) {
		for _, tgt := range isa.Targets {
			lines = append(lines, fmt.Sprintf("%s %s %s", label, tgt, p.cycles[tgt].Digest()))
		}
	}
	digests("train")

	orng := rand.New(rand.NewSource(43))
	var obs []Observation
	for r := 0; r < 9; r++ {
		obs = append(obs, driftedObservations(p, orng, pool, f, 64)...)
		if len(obs) > 256 {
			obs = obs[len(obs)-256:]
		}
		p.Refit(rng, obs, 40, 1e-3)
		digests(fmt.Sprintf("refit%d", r))
	}
	for i, adj := range held {
		for _, tgt := range isa.Targets {
			lines = append(lines, fmt.Sprintf("held%d %s %d", i, tgt, p.UnitCycles(adj, f, tgt)))
		}
	}

	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("predictor training changed:\n got %s\nwant %s", got, want)
	}
}
