package mlp

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fit.golden from the current trainer")

// paramDigest hashes the bits of every weight, bias and Adam moment plus
// the step count.
func paramDigest(n *Net) string {
	h := sha256.New()
	var b []byte
	put := func(vs []float64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	for l := range n.weights {
		for o := range n.weights[l] {
			put(n.weights[l][o])
			put(n.mW[l][o])
			put(n.vW[l][o])
		}
		put(n.biases[l])
		put(n.mB[l])
		put(n.vB[l])
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(n.step))
	h.Write(b)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// regressionSet draws n samples of a smooth 4-input target — the
// cycle regressor's shape.
func regressionSet(rng *rand.Rand, n int) (xs, ys [][]float64) {
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, []float64{math.Sin(2*x[0]) + 0.5*x[1]*x[2] - 0.3*x[3]})
	}
	return xs, ys
}

// TestFitGolden pins training bit for bit: the parameters after Fit, and
// after a further Fit on a Clone. Training the clone must leave the
// original untouched.
func TestFitGolden(t *testing.T) {
	path := filepath.Join("testdata", "fit.golden")
	rng := rand.New(rand.NewSource(21))
	n := New(rng, 4, 16, 8, 1)
	xs, ys := regressionSet(rng, 256)
	loss := n.Fit(rng, xs, ys, 20, 2e-3)
	fitted := paramDigest(n)

	c := n.Clone()
	cxs, cys := regressionSet(rng, 64)
	closs := c.Fit(rng, cxs, cys, 10, 1e-3)
	if got := paramDigest(n); got != fitted {
		t.Fatalf("training the clone changed the original: %s -> %s", fitted, got)
	}

	got := strings.Join([]string{
		fmt.Sprintf("fit loss=%x %s", math.Float64bits(loss), fitted),
		fmt.Sprintf("clone-fit loss=%x %s", math.Float64bits(closs), paramDigest(c)),
	}, "\n") + "\n"
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
		t.Errorf("training output changed:\n got %s\nwant %s", got, want)
	}
}
