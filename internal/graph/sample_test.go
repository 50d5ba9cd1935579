package graph

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/sample.golden from the current sampler")

// sampleDigester streams every field of a subgraph into one SHA-256.
type sampleDigester struct {
	h   hash.Hash
	buf []byte
}

func (d *sampleDigester) add(sg *Subgraph) {
	b := binary.LittleEndian.AppendUint64(d.buf[:0], uint64(sg.Query))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sg.Nodes)))
	for _, v := range sg.Nodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	for _, p := range sg.Adj.RowPtr {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	for _, c := range sg.Adj.ColIdx {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	for _, v := range sg.Adj.Val {
		b = binary.LittleEndian.AppendUint16(b, uint16(v))
	}
	d.h.Write(b)
	d.buf = b
}

// sampleDigest samples 200 seeded 2-hop queries of dataset name at the
// given fanout, concatenating every 8 consecutive samples, and returns
// the SHA-256 of all of them in order.
func sampleDigest(t testing.TB, name string, fanout int) string {
	d, ok := DatasetByName(name)
	if !ok {
		t.Fatalf("dataset %s missing", name)
	}
	rng := rand.New(rand.NewSource(int64(len(name)*31 + fanout)))
	g := d.Generate(rng)
	s := NewSampler(rng, g, 2, fanout)
	dg := &sampleDigester{h: sha256.New()}
	var batch []*Subgraph
	for i := 0; i < 200; i++ {
		sg := s.Sample(rng.Intn(g.N))
		dg.add(sg)
		if batch = append(batch, sg); len(batch) == 8 {
			dg.add(s.Concat(batch))
			batch = batch[:0]
		}
	}
	return fmt.Sprintf("%x", dg.h.Sum(nil))
}

// TestSamplerEpochWrap forces the membership epoch to wrap between two
// overlapping samples: the stamps left by the first must not leak into
// the second, which has to equal what a sampler that never wrapped
// returns for the same rng stream.
func TestSamplerEpochWrap(t *testing.T) {
	build := func() *Sampler {
		rng := rand.New(rand.NewSource(13))
		return NewSampler(rng, BarabasiAlbert(rng, 400, 4), 2, 3)
	}
	a, q := 17, 18
	wrapped, fresh := build(), build()
	wrapped.Sample(a)
	fresh.Sample(a)
	wrapped.epoch = math.MaxUint32
	got, want := wrapped.Sample(q), fresh.Sample(q)
	if wrapped.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", wrapped.epoch)
	}
	if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Adj.RowPtr, want.Adj.RowPtr) ||
		!slices.Equal(got.Adj.ColIdx, want.Adj.ColIdx) || !slices.Equal(got.Adj.Val, want.Adj.Val) {
		t.Errorf("sample after epoch wrap differs:\n got %v (nnz %d)\nwant %v (nnz %d)",
			got.Nodes, got.NNZ(), want.Nodes, want.NNZ())
	}
}

// TestSampleGolden pins the sampler's exact output — node order, CSR
// layout and fixed-point values — on a sparse and a dense stand-in, with
// and without a fanout limit, including Concat.
func TestSampleGolden(t *testing.T) {
	path := filepath.Join("testdata", "sample.golden")
	var got []string
	for _, name := range []string{"ogbl-collab", "ogbl-ddi"} {
		for _, fanout := range []int{0, 3} {
			got = append(got, fmt.Sprintf("%s fanout=%d %s", name, fanout, sampleDigest(t, name, fanout)))
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if !slices.Equal(got, want) {
		t.Errorf("sampler output changed:\n got %q\nwant %q", got, want)
	}
}
